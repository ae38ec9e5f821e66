import ast
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from toeplitz_spectra import cli
from toeplitz_spectra.cli import main
from toeplitz_spectra.errors import ToeplitzError


def write_config(tmp_path: Path, **overrides) -> Path:
    config = {
        "partition": {"k": [1, 2], "lambda": 0.0},
        "degree_cap": 4,
        "quasi_radial": {"kind": "expression", "text": "1 - r1^2*r2^2"},
        "symbols": [{"group": 2, "kind": "quasi_homogeneous", "p": [1, -1]}],
        "berezin": {"group": 2, "w": [0.3, 0.4], "degrees": [10, 20, 40]},
        "radical": {
            "group": 2,
            "level": 1,
            "gamma": {"kind": "geometric_decay", "rate": 0.5},
        },
        "hull": {"resolution": 256, "ess_samples": 2048},
        "output_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def read_report(tmp_path: Path, command: str) -> dict:
    return json.loads((tmp_path / "out" / f"report_{command}.json").read_text())


def test_info_runs(capsys):
    assert main(["info"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tool"] == "toeplitz-spectra"
    assert "assemble" in out["commands"]


def test_info_lists_every_default(capsys):
    # Every default a config is filled with, save radical.group, which is
    # the lowest group with a symbol; torus_grid is ignored and has none.
    assert main(["info"]) == 0
    defaults = json.loads(capsys.readouterr().out)["defaults"]
    filled = cli.validate_config({"partition": {"k": [1]}})
    del filled["partition"]["k"], filled["radical"]["group"]
    assert defaults == filled


def test_missing_config_is_config_error(capsys):
    assert main(["assemble"]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["type"] == "ConfigError"


@pytest.mark.parametrize(
    "argv",
    [["bogus"], ["assemble", "--bogus"]],
    ids=["unknown-command", "unknown-option"],
)
def test_usage_error_is_json_exit_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["type"] == "ConfigError"


def _unreadable(tmp_path: Path, case: str) -> tuple[Path, list[str]]:
    """(the path at fault, the argv of an assemble run) for each case."""
    if case == "missing":
        path = tmp_path / "nope.json"
        return path, ["--config", str(path)]
    if case == "directory":
        return tmp_path, ["--config", str(tmp_path)]
    if case == "not-utf8":
        path = tmp_path / "latin1.json"
        path.write_bytes('{"partition": {"k": [1]}, "output_dir": "\u00e9"}'.encode("latin-1"))
        return path, ["--config", str(path)]
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker if case == "output-is-file" else blocker / "out"
    return out, ["--config", str(write_config(tmp_path, output_dir=str(out)))]


@pytest.mark.parametrize(
    "case", ["missing", "directory", "not-utf8", "output-is-file", "output-under-file"]
)
def test_unreadable_config(tmp_path, capsys, case):
    path, argv = _unreadable(tmp_path, case)
    assert main(["assemble", *argv]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    error = json.loads(err[0])["error"]
    assert error["type"] == "ConfigError" and "traceback" not in error
    assert str(path) in error["message"]


def test_schema_rejects_bad_partition(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"partition": {"k": [2, 1]}}))
    assert main(["assemble", "--config", str(path)]) == 1


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("spectrum", {"eig_tol": math.inf}),
        ("radical", {"partition": {"k": [1, 2], "lambda": math.inf}}),
        ("radical", {"eig_tol": math.nan}),
        ("spectrum", {"symbols": [{"group": 2, "kind": "constant", "value": math.nan}]}),
        ("spectrum", {"eig_tol": "1e999"}),
    ],
    ids=["eig_tol-inf", "lambda-inf", "eig_tol-nan", "constant-nan", "eig_tol-overflow"],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, command, overrides):
    # json.dumps writes bare NaN and Infinity, which json.loads accepts.
    path = write_config(tmp_path, **overrides)
    path.write_text(path.read_text().replace('"1e999"', "1e999"))
    assert main([command, "--config", str(path), "--no-cache"]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "ConfigError"
    assert "not a finite number" in err["message"]
    assert not (tmp_path / "out" / f"report_{command}.json").exists()


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("assemble", {"symbols": [{"group": 2, "kind": "constant", "value": True}]}),
        ("assemble", {"symbols": [{"group": 2, "kind": "profile_monomial", "powers": [1, 0],
                                   "coeff": [True, False]}]}),
        ("berezin", {"berezin": {"group": 2, "w": [0.5, False], "degrees": [4]}}),
        ("assemble", {"symbols": [{"group": 2, "kind": "constant", "value": 10**400}]}),
    ],
    ids=["constant-value", "monomial-coeff", "berezin-w", "huge-integer"],
)
def test_booleans_and_huge_integers_are_not_complex_numbers(tmp_path, capsys, command, overrides):
    # Booleans were read as 1 and 0 (the schema holds a bool to be no
    # number), and an integer past the float range ended in an OverflowError.
    path = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "ConfigError" and "traceback" not in err
    assert err["message"].startswith("cannot read complex value from")
    assert not (tmp_path / "out" / f"report_{command}.json").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_payload_is_a_numerical_failure(tmp_path, capsys):
    # Block norms of the constant 1e200 overflow; the report held five
    # bare Infinity values, which are not JSON, and its sha was taken over them.
    path = write_config(tmp_path, degree_cap=2,
                        symbols=[{"group": 2, "kind": "constant", "value": 1e200}])
    assert main(["assemble", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    err = json.loads(err[0])["error"]
    assert err == {"type": "ToeplitzError",
                   "message": "payload.blocks[0].fro is not a finite number"}
    assert not (tmp_path / "out" / "report_assemble.json").exists()


def test_json_side_files_name_their_first_non_finite_number():
    records = {"b": [1.0, {"d": -math.inf, "c": math.nan}], "a": [0.5, 2]}
    with pytest.raises(ToeplitzError, match=r"^points\.json\.b\[1\]\.c is not a finite number$"):
        cli._to_json(records, "points.json", sort_keys=True)
    assert cli._to_json({"a": [0.5, 2]}, "points.json") == '{"a": [0.5, 2]}'


def test_schema_rejects_duplicate_group(tmp_path):
    path = write_config(
        tmp_path,
        symbols=[
            {"group": 2, "kind": "constant", "value": 1.0},
            {"group": 2, "kind": "constant", "value": 2.0},
        ],
    )
    assert main(["assemble", "--config", str(path)]) == 1


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"quasi_radial": {"kind": "power"}}, "exponents"),
        ({"quasi_radial": {"kind": "expression"}}, "text"),
        ({"symbols": [{"group": 2, "kind": "expression"}]}, "text"),
        ({"symbols": [{"group": 2, "kind": "quasi_homogeneous"}]}, "p"),
        ({"symbols": [{"group": 2, "kind": "profile"}]}, "text"),
        ({"symbols": [{"group": 2, "kind": "profile_monomial"}]}, "powers"),
    ],
    ids=["power", "radial-expression", "expression", "quasi_homogeneous", "profile",
         "profile_monomial"],
)
def test_missing_per_kind_field_is_config_error(tmp_path, capsys, overrides, field):
    path = write_config(tmp_path, **overrides)
    assert main(["assemble", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "ConfigError"
    assert repr(field) in err["message"] and "traceback" not in err


def _ints(value):
    """value with every integral float made an int."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, list):
        return [_ints(v) for v in value]
    if isinstance(value, dict):
        return {key: _ints(v) for key, v in value.items()}
    return value


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("assemble", {"degree_cap": 4.0}),
        ("assemble", {"symbols": [{"group": 2.0, "kind": "quasi_homogeneous", "p": [1, -1]}]}),
        ("hull", {"hull": {"resolution": 256.0, "ess_samples": 2048}}),
        ("verify", {"degree_cap": 3, "quadrature": {"block_order": 48.0}}),
        ("radical", {"radical": {"group": 2, "level": 1,
                                 "gamma": {"kind": "indicator_degree", "d": 1.0}}}),
    ],
    ids=["degree_cap", "symbol-group", "hull-resolution", "block_order", "radical-gamma-d"],
)
def test_integral_float_acts_as_its_integer(tmp_path, command, overrides):
    payloads = []
    for name, values in (("float", overrides), ("int", _ints(overrides))):
        (tmp_path / name).mkdir()
        path = write_config(tmp_path / name, **values)
        assert main([command, "--config", str(path), "--no-cache"]) == 0
        payloads.append(read_report(tmp_path / name, command)["payload"])
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize(
    "radical",
    [
        {"group": 3, "level": 1},
        {"group": 2, "level": 1, "gamma": {"kind": "geometric_decay", "rate": "x"}},
        {"group": 2, "level": 1, "gamma": {"kind": "indicator_degree", "d": "x"}},
        {"group": 2, "level": 1, "gamma": {"kind": "indicator_degree", "d": 1.5}},
        {"group": 2, "level": 1, "gamma": {"kind": "indicator_degree", "d": -1}},
        {"group": 2, "level": 1, "gamma": {"kind": "geometric_decay", "rate": 1.0}},
        {"group": 2, "level": 1, "gamma": {"kind": "geometric_decay", "rate": -0.1}},
    ],
    ids=["group-outside-partition", "non-numeric-rate", "non-numeric-d", "fractional-d",
         "negative-d", "rate-one", "negative-rate"],
)
def test_bad_radical_settings_are_config_errors(tmp_path, capsys, radical):
    path = write_config(tmp_path, radical=radical)
    assert main(["radical", "--config", str(path), "--no-cache"]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("command", ["assemble", "verify"])
def test_decay_rate_past_one_is_refused_at_load(tmp_path, capsys, command):
    radical = {"group": 2, "level": 1, "gamma": {"kind": "geometric_decay", "rate": 1.5}}
    path = write_config(tmp_path, radical=radical)
    assert main([command, "--config", str(path), "--no-cache"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    err = json.loads(err[0])["error"]
    assert err["type"] == "ConfigError"
    assert "radical.gamma.rate" in err["message"]


@pytest.mark.parametrize("command", ["berezin", "radical"])
@pytest.mark.parametrize(
    "key, overrides",
    [
        ("levle", {"radical": {"group": 2, "levle": 3}}),
        ("rat", {"radical": {"group": 2, "gamma": {"kind": "geometric_decay", "rat": 0.9}}}),
        ("radial_expresion", {"berezin": {"group": 2, "w": [0.3, 0.4], "degrees": [10],
                                          "radial_expresion": "r1^2"}}),
        ("boundary_continous", {"symbols": [{"group": 2, "kind": "quasi_homogeneous",
                                             "p": [1, -1], "boundary_continous": False}]}),
        ("exponent", {"quasi_radial": {"kind": "expression", "text": "1 - r1^2",
                                       "exponent": [2, 0]}}),
    ],
    ids=["radical", "radical-gamma", "berezin", "symbol", "quasi_radial"],
)
def test_misspelt_config_key_is_config_error(tmp_path, capsys, command, key, overrides):
    path = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    err = json.loads(err[0])["error"]
    assert err["type"] == "ConfigError"
    assert f"additional property {key!r}" in err["message"]


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "constant", "value": 0.5},
        {"kind": "quasi_homogeneous", "p": [1, -1]},
        {"kind": "profile", "text": "s1^2"},
        {"kind": "profile_monomial", "powers": [1, 1]},
        {"kind": "expression", "text": "s1*s2*t1*conj(t2)"},
    ],
    ids=lambda spec: spec["kind"],
)
def test_boundary_continuous_is_read_or_refused(tmp_path, spec):
    # Absent, it is true.  A constant and a quasi-homogeneous symbol are
    # continuous on the closed sphere, so the key is refused for them
    # rather than dropped.
    fixed = spec["kind"] in ("constant", "quasi_homogeneous")
    for flag in (None, True, False):
        item = {"group": 2, **spec, **({} if flag is None else {"boundary_continuous": flag})}
        config = cli.validate_config({"partition": {"k": [1, 2]}, "symbols": [item]})
        if fixed and flag is not None:
            with pytest.raises(cli.ConfigError, match="'boundary_continuous'"):
                cli.build_setup(config, out=str(tmp_path / "out"))
            continue
        symbol = cli.build_setup(config, out=str(tmp_path / "out")).model.symbols[2]
        want = True if flag is None else flag
        assert symbol.boundary_continuous is want, flag


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_polynomial_expression_runs_without_the_continuity_key(tmp_path, command):
    # A torus expression is a compiled table, continuous on the closed sphere.
    text = "0.5*s1^2 + 0.3*s1*s2*(t1*conj(t2)+t2*conj(t1)) + 0.7*s2^2"
    path = write_config(tmp_path, degree_cap=3, hull={"resolution": 128, "ess_samples": 512},
                        symbols=[{"group": 2, "kind": "expression", "text": text}])
    assert main([command, "--config", str(path), "--no-cache"]) == 0


@pytest.mark.parametrize(
    "spec, key",
    [({"kind": "profile_monomial", "powers": [1, 0, 2]}, "powers"),
     ({"kind": "quasi_homogeneous", "p": [1]}, "p")],
    ids=["powers", "p"],
)
def test_exponents_must_match_the_group_size(tmp_path, capsys, spec, key):
    path = write_config(tmp_path, symbols=[{"group": 2, **spec}])
    assert main(["assemble", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "ConfigError"
    assert f"{key!r} has {len(spec[key])} entries, not 2" in err["message"]


def test_assemble_report(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["assemble", "--config", str(path)]) == 0
    report = read_report(tmp_path, "assemble")
    assert report["command"] == "assemble"
    assert report["payload"]["global_dim"] > 0
    assert report["payload"]["blocks"]
    assert report["config"]["degree_cap"] == 4
    assert report["tool_version"]


def test_assemble_trivial_identity(tmp_path):
    path = write_config(tmp_path, quasi_radial={"kind": "one"}, symbols=[])
    assert main(["assemble", "--config", str(path)]) == 0
    report = read_report(tmp_path, "assemble")
    assert report["payload"]["identity_deviation_fro"] < 1e-12


def test_rerun_reproduces_payload(tmp_path):
    path = write_config(tmp_path)
    assert main(["assemble", "--config", str(path)]) == 0
    first = read_report(tmp_path, "assemble")
    assert main(["assemble", "--config", str(path)]) == 0
    second = read_report(tmp_path, "assemble")
    assert first["payload_sha256"] == second["payload_sha256"]
    assert "cache_hit" not in second
    assert not (tmp_path / "out" / "cache").exists()


EXPRESSION_SYMBOL = {
    "group": 2, "kind": "expression",
    "text": "exp(s1*s2*(t1*conj(t2)+t2*conj(t1)))+s1^2",
}


def test_torus_grid_is_accepted_and_ignored(tmp_path):
    # Every symbol is a compiled mode table, so no grid enters a payload.
    def run(grid, command):
        path = write_config(
            tmp_path, degree_cap=3, symbols=[{**EXPRESSION_SYMBOL, "boundary_continuous": True}],
            quadrature={"torus_grid": grid},
        )
        assert main([command, "--config", str(path)]) == 0
        return read_report(tmp_path, command)["payload_sha256"]

    for command in ("spectrum", "verify"):
        assert run(2, command) == run(1000, command), command


def test_torus_expression_that_does_not_compile_is_refused(tmp_path, capsys):
    text = "(s1*s2*(t1*conj(t2)+t2*conj(t1)))^0.5"
    path = write_config(tmp_path, symbols=[{**EXPRESSION_SYMBOL, "text": text}])
    assert main(["assemble", "--config", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    error = json.loads(err[0])["error"]
    assert error["type"] == "SymbolError" and text in error["message"]


def test_unexpected_error_is_json_exit_2(tmp_path, monkeypatch, capsys):
    def out_of_memory(setup):
        raise MemoryError("cannot allocate")

    monkeypatch.setitem(cli.COMMANDS, "assemble", out_of_memory)
    path = write_config(tmp_path)
    assert main(["assemble", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["type"] == "MemoryError"
    assert err["error"]["message"] == "cannot allocate"
    # cli imports traceback up front: with memory exhausted, no import runs
    assert err["error"]["traceback"].rstrip().endswith("MemoryError: cannot allocate")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_boundary_samples_are_a_spectra_error(tmp_path, capsys):
    # 1/s1 declared continuous is infinite on the sphere where s1 = 0
    path = write_config(
        tmp_path,
        partition={"k": [2], "lambda": 0.0},
        quasi_radial={"kind": "expression", "text": "1 - r1^2"},
        symbols=[{"group": 1, "kind": "expression", "text": "1/s1", "boundary_continuous": True}],
        berezin={"group": 1, "w": [0.3, 0.4], "degrees": [4]},
        radical={"group": 1, "level": 1, "gamma": {"kind": "geometric_decay", "rate": 0.5}},
    )
    assert main(["hull", "--config", str(path), "--no-cache"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    err = json.loads(err[0])["error"]
    assert err["type"] == "SpectraError"
    assert "'expr:1/s1'" in err["message"] and "not finite at 64 of its" in err["message"]


def test_cache_env_is_ignored(tmp_path, monkeypatch):
    alt = tmp_path / "altcache"
    monkeypatch.setenv("TOEPLITZ_SPECTRA_CACHE", str(alt))
    path = write_config(tmp_path)
    assert main(["assemble", "--config", str(path)]) == 0
    assert not alt.exists()
    assert not (tmp_path / "out" / "cache").exists()


def test_spectrum_and_side_file(tmp_path):
    path = write_config(tmp_path)
    assert main(["spectrum", "--config", str(path)]) == 0
    report = read_report(tmp_path, "spectrum")
    groups = report["payload"]["groups"]
    assert groups["2"]["by_degree"]["1"]["distinct"] == [[0.0, 0.0]]
    assert (tmp_path / "out" / "spectra.csv").exists()


def test_hull_command(tmp_path):
    path = write_config(tmp_path)
    assert main(["hull", "--config", str(path)]) == 0
    report = read_report(tmp_path, "hull")
    assert "inverse_closed" in report["payload"]
    assert (tmp_path / "out" / "hull_2.svg").exists()
    assert (tmp_path / "out" / "region_sp_2.json").exists()


def test_readme_example_hull_is_inverse_closed(tmp_path):
    # the README's example configuration, default hull settings: the boundary
    # image of z1 conj(z2) / |z|^2 is the closed disk |z| <= 1/2
    config = {
        "partition": {"k": [1, 2], "lambda": 0.0},
        "degree_cap": 6,
        "quasi_radial": {"kind": "expression", "text": "1 - r1^2*r2^2"},
        "symbols": [{"group": 2, "kind": "quasi_homogeneous", "p": [1, -1]}],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["hull", "--config", str(path), "--no-cache"]) == 0
    payload = read_report(tmp_path, "hull")["payload"]
    assert payload["inverse_closed"] is True
    assert payload["inverse_closed_per_group"]["2"]["extra_cells"] == 0


# The k = (2, 3) expression family at D = 6 (seed 1 of the benchmark's
# expr workloads): a polynomial expression in s, t, conj(t) and a
# polynomial profile string.
EXPR_CONFIG = {
    "partition": {"k": [2, 3], "lambda": 0.5},
    "degree_cap": 6,
    "quasi_radial": {"kind": "expression", "text": "1 - 0.546*r1^2*r2^2"},
    "symbols": [
        {
            "group": 1, "kind": "expression", "boundary_continuous": True,
            "text": "0.421*s1^2 + 0.969*s1*s2*(t1*conj(t2)+t2*conj(t1)) + 0.832*s2^2",
        },
        {"group": 2, "kind": "profile", "text": "s1^2 + 0.995*s2*s3 + 0.329*s3^2"},
    ],
    "quadrature": {"block_order": 48, "gamma_order": 48, "torus_grid": 64},
    "hull": {"resolution": 256, "ess_samples": 1024},
    "berezin": {"group": 1, "w": [[0.2465, -0.3888], [-0.3562, 0.2519]], "degrees": [4, 8, 12]},
    "radical": {"group": 1, "level": 1, "gamma": {"kind": "geometric_decay", "rate": 0.518}},
    "seed": 803550136,
}


def test_verify_passes_on_compiled_expression(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**EXPR_CONFIG, "output_dir": str(tmp_path / "out")}))
    assert main(["verify", "--config", str(path), "--no-cache"]) == 0
    checks = {c["name"]: c for c in read_report(tmp_path, "verify")["payload"]["checks"]}
    assert checks["quadrature-doubling"]["residual"] < 1e-12
    assert all(c["passed"] for c in checks.values())


def test_verify_passes_at_a_coarse_hull_grid(tmp_path):
    path = write_config(tmp_path, hull={"resolution": 128})
    assert main(["verify", "--config", str(path), "--no-cache"]) == 0
    checks = {c["name"]: c for c in read_report(tmp_path, "verify")["payload"]["checks"]}
    assert all(c["passed"] for c in checks.values())


def test_hull_resolution_drift_is_zero_on_segments(tmp_path):
    # Both groups' boundary images are real segments one cell wide: their
    # hulls agree at both resolutions within the rasters' own dilation.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**EXPR_CONFIG, "output_dir": str(tmp_path / "out")}))
    assert main(["hull", "--config", str(path), "--no-cache"]) == 0
    for group in read_report(tmp_path, "hull")["payload"]["groups"].values():
        assert group["resolution_drift_cells"] == 0
        assert group["resolution_drift_rel"] == 0.0
        assert group["hull_cells"] > 0


def test_k3_non_polynomial_expression_assembles_in_bounded_memory(tmp_path):
    # The exp series compiles to a mode table: no torus grid is evaluated.
    config = {
        "partition": {"k": [1, 3], "lambda": 0.0},
        "degree_cap": 2,
        "quasi_radial": {"kind": "one"},
        "symbols": [{
            "group": 2, "kind": "expression",
            "text": "exp(s1*s2*(t1*conj(t2)+t2*conj(t1)))",
        }],
        "quadrature": {"block_order": 16, "gamma_order": 16, "torus_grid": 64},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert _peak_rss_mb("assemble", path) < 500
    assert read_report(tmp_path, "assemble")["payload"]["blocks"][-1]["dim"] == 6


def test_k3_exp_expression_assembles_in_process_quickly(tmp_path):
    config = cli.validate_config({
        "partition": {"k": [1, 3], "lambda": 0.0},
        "degree_cap": 2,
        "quasi_radial": {"kind": "one"},
        "symbols": [{"group": 2, "kind": "expression",
                     "text": "exp(s1*s2*(t1*conj(t2)+t2*conj(t1)))"}],
        "output_dir": str(tmp_path / "out"),
    })
    started = time.perf_counter()
    payload = cli.COMMANDS["assemble"](cli.build_setup(config))
    assert time.perf_counter() - started < 0.5
    assert payload["blocks"][-1]["dim"] == 6


def test_berezin_command(tmp_path):
    path = write_config(
        tmp_path,
        symbols=[{"group": 2, "kind": "profile", "text": "s1^2"}],
        berezin={
            "group": 2,
            "w": [0.3, 0.4],
            "degrees": [20, 50],
            "radial_expression": "r1^2",
        },
    )
    assert main(["berezin", "--config", str(path)]) == 0
    report = read_report(tmp_path, "berezin")
    assert report["payload"]["boundary_value"] == pytest.approx([0.36, 0.0])
    assert report["payload"]["abs_errors"][1] < 0.05


@pytest.mark.parametrize(
    "berezin, message",
    [
        ({"group": 2, "w": [0.3, 0.4, 0.1], "degrees": [5]}, "berezin w has 3 coordinates"),
        ({"group": 2, "w": [1.5, 0.0], "degrees": [5]}, "berezin w must lie in the open ball"),
        ({"group": 2, "w": [0.3, 0.4], "degrees": [5], "radial_expression": "s1^2"},
         "berezin.radial_expression: expression 's1^2' uses ['s1']; only ['r1'] allowed"),
        ({"group": 2, "w": [0.3, 0.4], "degrees": [5], "radial_expression": "r1^"},
         "berezin.radial_expression: invalid syntax (at offset 3)"),
    ],
    ids=["wrong-length", "outside-ball", "radial-variable", "radial-syntax"],
)
def test_berezin_bad_base_point_is_config_error(tmp_path, capsys, berezin, message):
    path = write_config(tmp_path, berezin=berezin)
    assert main(["berezin", "--config", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    err = json.loads(err[0])["error"]
    assert err["type"] == "ConfigError"
    assert err["message"].startswith(message)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_bad_radial_expression_is_refused_by_every_command(tmp_path, capsys, command):
    # Parsed when the setup is built, as symbol texts are, so no command runs on it.
    berezin = {"group": 2, "w": [0.3, 0.4], "degrees": [5], "radial_expression": "r1^^2"}
    path = write_config(tmp_path, berezin=berezin)
    assert main([command, "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "ConfigError"
    assert err["message"].startswith("berezin.radial_expression: invalid syntax")
    assert not (tmp_path / "out" / f"report_{command}.json").exists()


def test_semisimple_command(tmp_path):
    path = write_config(tmp_path)
    assert main(["semisimple", "--config", str(path)]) == 0
    report = read_report(tmp_path, "semisimple")
    assert report["payload"]["semisimple"] is False
    assert report["payload"]["witness"] == [2, 1]
    assert report["payload"]["stable_under_tolerance_halving"] is True


def test_radical_command(tmp_path):
    path = write_config(tmp_path)
    assert main(["radical", "--config", str(path)]) == 0
    report = read_report(tmp_path, "radical")
    payload = report["payload"]
    assert payload["generator"]["fro"] > 1e-6
    assert payload["generator"]["gelfand_sup"] < 1e-8
    norms = payload["generator"]["power_norms"]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
    assert max(payload["reconstruction_residuals"]) < 1e-9


def test_radical_samples_like_gelfand(tmp_path):
    path = write_config(tmp_path, gelfand={"zeta_per_region": 1})
    assert main(["gelfand", "--config", str(path), "--no-cache"]) == 0
    assert main(["radical", "--config", str(path), "--no-cache"]) == 0
    n_points = read_report(tmp_path, "gelfand")["payload"]["n_points"]
    assert read_report(tmp_path, "radical")["payload"]["generator"]["sampled_points"] == n_points


def test_radical_never_densifies(tmp_path):
    path = write_config(tmp_path, degree_cap=8, hull={})
    assert main(["radical", "--config", str(path), "--no-cache"]) == 0
    payload = read_report(tmp_path, "radical")["payload"]
    assert max(payload["reconstruction_residuals"]) < 1e-9


def _child_env() -> dict:
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _peak_rss_mb(command: str, path: Path) -> float:
    """Peak RSS of one command run in a fresh process, read by that process
    after the command: VmHWM of its own address space, since ru_maxrss would
    keep the peak of the test process that spawned it."""
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from toeplitz_spectra.cli import main\n"
        "rc = main([sys.argv[1], '--config', sys.argv[2], '--no-cache', '--threads', '1'])\n"
        "status = Path('/proc/self/status').read_text().splitlines()\n"
        "print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
        "sys.exit(rc)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, command, str(path)], env=_child_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return int(run.stdout.split()[-1]) / 1024  # VmHWM is in kB


def test_radical_memory_is_bounded(tmp_path):
    # The README example at D=40: block powers, residual differences and
    # power norms are formed run by run, so no per-(kappa, rho) tensor block
    # is kept.  A memo of those blocks took about 110 MB here.
    path = write_config(tmp_path, degree_cap=40, hull={})
    assert _peak_rss_mb("radical", path) < 80


@pytest.mark.parametrize("command, bound_mb", [("hull", 56), ("verify", 53)])
def test_raster_path_memory_is_bounded(tmp_path, command, bound_mb):
    # The README example at D=20 with the default hull settings.  Full-grid
    # int64 temporaries of the hole search and a memo of the 2x drift rasters
    # took hull to 65 MB, and the centres of every hulled cell, drawn for
    # eight zeta picks, took verify to 55 MB; both now stay near 49-51 MB.
    path = write_config(tmp_path, degree_cap=20, hull={})
    assert _peak_rss_mb(command, path) < bound_mb


def _assert_refused_quickly(path: Path, command: str, knob: str) -> None:
    # The address-space limit is set on the child only.
    limit = 2 << 30
    started = time.monotonic()
    run = subprocess.run(
        [sys.executable, "-m", "toeplitz_spectra.cli", command, "--config", str(path)],
        env=_child_env(), capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert time.monotonic() - started < 1.0
    assert run.returncode == 1, run.stderr
    err = json.loads(run.stderr.strip().splitlines()[-1])["error"]
    assert err["type"] == "ConfigError" and "traceback" not in err
    assert err["message"].startswith(knob) and "GiB" in err["message"]


@pytest.mark.parametrize("hull, knob", [
    ({"resolution": 40000}, "hull.resolution"),
    ({"ess_samples": 10**8}, "hull.ess_samples"),
])
def test_oversized_raster_knob_is_refused_before_allocating(tmp_path, hull, knob):
    # Without the price check these asked for 1.49 GiB and 5.96 GiB and
    # ended in a MemoryError with a traceback.
    _assert_refused_quickly(write_config(tmp_path, hull=hull), "hull", knob)


@pytest.mark.parametrize("command, overrides, knob", [
    # A dense 20000^2 Jacobi matrix: a 2.98 GiB MemoryError.
    ("assemble", {"quadrature": {"block_order": 20000},
                  "symbols": [{"group": 2, "kind": "profile", "text": "exp(s1)"}]},
     "quadrature.block_order"),
    # verify's Dirichlet oracle rule of 300^3 nodes: 43 s under a 2 GiB limit.
    ("verify", {"quadrature": {"block_order": 300}}, "quadrature.block_order"),
    # A MemoryError in lattice.block_indices after 10 s.
    ("berezin", {"berezin": {"group": 2, "w": [0.3, 0.4], "degrees": [10**9]}},
     "berezin.degrees"),
    # A gamma rule of 600^3 nodes: a 6.44 GiB MemoryError in SimplexRule.build.
    ("assemble", {"partition": {"k": [1, 1, 1], "lambda": 0.0},
                  "quasi_radial": {"kind": "expression", "text": "exp(r1*r2*r3)"},
                  "symbols": [{"group": 1, "kind": "constant", "value": 1.0}],
                  "berezin": {"group": 1, "w": [0.5], "degrees": [4]}, "radical": {"group": 1},
                  "quadrature": {"gamma_order": 600}},
     "quadrature.gamma_order"),
    # The dense 20000^2 Jacobi matrix of a one-group gamma rule: a 2.98 GiB MemoryError.
    ("assemble", {"partition": {"k": [2], "lambda": 0.0},
                  "quasi_radial": {"kind": "expression", "text": "exp(r1)"},
                  "symbols": [{"group": 1, "kind": "constant", "value": 1.0}],
                  "berezin": {"group": 1, "w": [0.3, 0.4], "degrees": [4]}, "radical": {"group": 1},
                  "quadrature": {"gamma_order": 20000}},
     "quadrature.gamma_order"),
    # A k=5 profile without terms: verify's doubling builds rules of order
    # 200 on Delta_4, 53^4 nodes within the node budget, 1.12 GiB at 152
    # bytes a node.  Before the node budget they took 200^4 nodes.
    ("assemble", {"partition": {"k": [5], "lambda": 0.0}, "degree_cap": 0,
                  "quasi_radial": {"kind": "one"},
                  "symbols": [{"group": 1, "kind": "profile", "text": "(1 + s1)^0.5"}],
                  "berezin": {"group": 1, "w": [0.3, 0.4, 0.0, 0.0, 0.0], "degrees": [4]},
                  "radical": {"group": 1}, "quadrature": {"block_order": 100}},
     "quadrature.block_order"),
    # The README example: a MemoryError in DiagonalCoefficient.values after
    # 24 s; the largest run of AlgebraModel.stacks passes 1 GiB.
    ("assemble", {"degree_cap": 3000}, "degree_cap"),
], ids=["block-order-jacobi", "block-order-oracle", "berezin-degree", "gamma-order-nodes",
        "gamma-order-jacobi", "block-order-profile-rule", "degree-cap"])
def test_oversized_block_knob_is_refused_before_allocating(tmp_path, command, overrides, knob):
    _assert_refused_quickly(write_config(tmp_path, **overrides), command, knob)


def test_huge_zeta_per_region_takes_every_boundary_sample(tmp_path):
    # A spread of 10^9 picks asked for 7.45 GiB and ended in a MemoryError
    # under this limit; past the sample count + 1 every limit picks the same.
    limit = 2 << 30
    path = write_config(tmp_path, gelfand={"zeta_per_region": 10**9})
    run = subprocess.run(
        [sys.executable, "-m", "toeplitz_spectra.cli", "gelfand", "--config", str(path)],
        env=_child_env(), capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert run.returncode == 0, run.stderr
    count = cli.boundary_sample_count(2, 2048)
    config = cli.validate_config({**json.loads(path.read_text()),
                                  "gelfand": {"zeta_per_region": count + 1}})
    capped = cli.COMMANDS["gelfand"](cli.build_setup(config, out=str(tmp_path / "capped")))
    sha = hashlib.sha256(cli.canonical_payload_bytes(capped)).hexdigest()
    assert read_report(tmp_path, "gelfand")["payload_sha256"] == sha


@pytest.mark.parametrize("k, text, order", [
    # quadrature-doubling's gamma rule of 400^3 nodes: a 1.91 GiB array in
    # SimplexRule.build under a 2 GiB limit.
    ([1, 1, 1], "(1 + r1*r2*r3)^0.5", 200),
    # Its dense 10000^2 Jacobi matrix, of more than 3 GiB.
    ([2], "(1 + r1)^0.5", 5000),
], ids=["doubled-nodes", "doubled-jacobi"])
def test_doubled_gamma_rule_is_priced_at_setup(tmp_path, capsys, k, text, order):
    # Validation passes: the rule at gamma_order fits.  Whether verify
    # doubles it depends on whether the symbol compiles, known at setup.
    overrides = {
        "partition": {"k": k, "lambda": 0.0},
        "quasi_radial": {"kind": "expression", "text": text},
        "symbols": [{"group": 1, "kind": "constant", "value": 1.0}],
        "berezin": {"group": 1, "w": [0.5] * k[0], "degrees": [4]}, "radical": {"group": 1},
        "quadrature": {"gamma_order": order},
    }
    path = write_config(tmp_path, **overrides)
    config = cli.load_config(path)
    started = time.monotonic()
    with pytest.raises(ToeplitzError, match=r"^quadrature\.gamma_order .* quadrature-doubling"):
        cli.build_setup(config)
    assert main(["assemble", "--config", str(path)]) == 1
    assert time.monotonic() - started < 1.0
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "ConfigError" and err["message"].startswith("quadrature.gamma_order")
    # A compiled symbol's gamma is closed form: no rule is doubled.
    config["quasi_radial"]["text"] = " - ".join(["1", "r1^2"] + ["r2^2", "r3^2"][: len(k) - 1])
    cli.build_setup(config)


@pytest.mark.parametrize("text", [
    "(" * 3000 + "s1" + ")" * 3000,
    "+".join(["s1"] * 20000),
    "-" * 5000 + "s1",
], ids=["nested-parentheses", "long-sum", "unary-minuses"])
def test_deeply_nested_profile_is_refused(tmp_path, capsys, text):
    # Each ended in a RecursionError traceback and exit 2.
    path = write_config(tmp_path, symbols=[{"group": 2, "kind": "profile", "text": text}])
    started = time.monotonic()
    assert main(["assemble", "--config", str(path)]) == 1
    assert time.monotonic() - started < 1.0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    err = json.loads(err[0])["error"]
    assert err["type"] == "SymbolParseError" and "traceback" not in err


def test_rule_cache_keeps_a_three_group_assembly_small(tmp_path):
    # gamma up to D = 8 on k = (1, 1, 1) takes 165 rules on Delta_3 of
    # 3.5 MB each, used once (the model memoizes gamma per kappa); a cache of
    # 4096 rules kept them all and the command peaked at 600 MB, a 64 MiB
    # cache at 105 MB.  Only the rule in use is held: about 47 MB.
    config = {
        "partition": {"k": [1, 1, 1], "lambda": 0.0},
        "degree_cap": 8,
        "quasi_radial": {"kind": "expression", "text": "(1 + r1*r2*r3)^0.5"},
        "symbols": [{"group": 1, "kind": "constant", "value": 1.0}],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert _peak_rss_mb("assemble", path) < 70
    payload = read_report(tmp_path, "assemble")["payload"]
    assert hashlib.sha256(cli.canonical_payload_bytes(payload)).hexdigest() == (
        "428506eb577a428a2daa17360d75533cfa591a4be2132289c57e29aa5131bfea"
    )


def _groups_of_one(m: int, degree_cap: int, out: Path) -> dict:
    text = "1 - 0.5*" + "*".join(f"r{j}^2" for j in range(1, m + 1))
    return {
        "partition": {"k": [1] * m, "lambda": 0.0},
        "degree_cap": degree_cap,
        "quasi_radial": {"kind": "expression", "text": text},
        "symbols": [{"group": 1, "kind": "constant", "value": 1.0}],
        "berezin": {"group": 1, "w": [0.5], "degrees": [4]},
        "output_dir": str(out),
    }


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_four_groups_run_in_bounded_memory(tmp_path, command):
    # verify's gamma check asked for rules of 48^4 nodes, 212 MB each, past
    # the rule cache: 58 s and 699 MB at D = 2.  The node budget gives them
    # 18 points per axis, and the report says so.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_groups_of_one(4, 4, tmp_path / "out")))
    assert _peak_rss_mb(command, path) < 300
    assert read_report(tmp_path, command)["warnings"][0] == (
        "quadrature.gamma_order: rules of order 48 on Delta_4 take 18 points per axis, "
        "18^4 nodes within the budget of 48^3"
    )


def test_five_groups_take_the_default_gamma_order(tmp_path):
    # 48^5 rule nodes asked for 29 GiB and every command refused the
    # default gamma_order; within the node budget they take 10^5.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_groups_of_one(5, 1, tmp_path / "out")))
    assert main(["verify", "--config", str(path)]) == 0
    assert read_report(tmp_path, "verify")["warnings"] == [
        "quadrature.gamma_order: rules of order 48 on Delta_5 take 10 points per axis, "
        "10^5 nodes within the budget of 48^3"
    ]


def test_small_surrogate_kappa_is_a_radical_config_error(tmp_path, capsys):
    # The README example at D=3: 0.5^1 does not vanish at the surrogate degree.
    path = write_config(tmp_path, degree_cap=3, hull={}, surrogate_kappa=1)
    assert main(["radical", "--config", str(path), "--no-cache"]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["type"] == "ConfigError"
    assert "surrogate_kappa" in err["error"]["message"]


def test_small_surrogate_kappa_fails_the_vanishing_check(tmp_path, capsys):
    path = write_config(tmp_path, degree_cap=3, hull={}, surrogate_kappa=1)
    assert main(["verify", "--config", str(path), "--no-cache"]) == 3
    checks = read_report(tmp_path, "verify")["payload"]["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["radical-gelfand-vanishing"]
    # A failing verify prints its per-check lines too; the error stays last.
    out = capsys.readouterr()
    lines = [line.split(":")[0].strip() for line in out.out.splitlines()[1:]]
    assert lines == [f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}" for c in checks]
    err = json.loads(out.err.strip().splitlines()[-1])["error"]
    assert err["type"] == "VerificationFailure"


@pytest.mark.parametrize("command", ["radical", "verify"])
def test_negative_seed_is_config_error(tmp_path, capsys, command):
    path = write_config(tmp_path, degree_cap=3, seed=-5)
    assert main([command, "--config", str(path), "--no-cache"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["type"] == "ConfigError"


def test_gelfand_command(tmp_path):
    path = write_config(tmp_path, gelfand={"budget": 80, "zeta_per_region": 4})
    assert main(["gelfand", "--config", str(path)]) == 0
    report = read_report(tmp_path, "gelfand")
    payload = report["payload"]
    assert payload["n_points"] == payload["n_exact"] + payload["n_surrogate"]
    assert payload["invalid_points"] == 0
    points = json.loads((tmp_path / "out" / "gelfand_points.json").read_text())
    assert len(points) == payload["n_points"]
    assert all("value" in p for p in points)


def test_verify_passes_and_negative_control(tmp_path, capsys):
    path = write_config(tmp_path, degree_cap=3)
    assert main(["verify", "--config", str(path)]) == 0
    report = read_report(tmp_path, "verify")
    assert report["payload"]["all_passed"]
    # deliberately lowered quadrature order breaks the Dirichlet cross-check
    bad = write_config(
        tmp_path,
        degree_cap=3,
        quadrature={"block_order": 2, "gamma_order": 2, "torus_grid": 8},
    )
    assert main(["verify", "--config", str(bad), "--no-cache"]) == 3
    report = read_report(tmp_path, "verify")
    names = {c["name"]: c["passed"] for c in report["payload"]["checks"]}
    assert names["dirichlet-vs-simplex"] is False


VERIFY_CHECKS = [
    ("dirichlet-vs-simplex", 1e-10),
    ("gamma-identity", 1e-10),
    ("quasi-radial-compiled", 1e-12),
    ("identity-blocks", 1e-12),
    ("cross-block-orthogonality", 1e-10),
    ("commutativity", 1e-9),
    ("product-identity", 1e-9),
    ("quadrature-doubling", 1e-9),
    ("tensor-eigenvector", 1e-9),
    ("hull-circle-area", 0.01),
    ("hull-finite-fixed", 0.5),
    ("hull-idempotent", 0.5),
    ("projection-identities", 0.5),
    ("division-reconstruction", 1e-9),
    ("radical-gelfand-vanishing", 1e-8),
]


@pytest.mark.parametrize("command", ["semisimple", "radical"])
def test_semisimplicity_warnings_reach_the_report(tmp_path, command):
    # At degree cap 0 the nilpotent family's only block is zero, so the
    # verdict warns that it could not find a witness.
    path = write_config(tmp_path, degree_cap=0)
    assert main([command, "--config", str(path), "--no-cache"]) == 0
    report = read_report(tmp_path, command)
    assert "group 2: nilpotent family but all blocks vanish up to 0" in report["warnings"]


def test_verify_check_list_is_pinned(tmp_path):
    # The README example config (default hull settings) at D=3.
    path = write_config(tmp_path, degree_cap=3, hull={})
    assert main(["verify", "--config", str(path), "--no-cache"]) == 0
    checks = read_report(tmp_path, "verify")["payload"]["checks"]
    assert [(c["name"], c["tolerance"]) for c in checks] == VERIFY_CHECKS
    assert all(c["passed"] for c in checks)


TRACED_BLOCKS = "assembly.blocks_closed_form"
TRACED_EIG = "spectra.eig_blocks"


@pytest.mark.parametrize(
    "command, counters, rasters",
    [("assemble", [TRACED_BLOCKS], False), ("hull", [TRACED_BLOCKS, TRACED_EIG], True),
     ("radical", [TRACED_BLOCKS, TRACED_EIG], False),
     ("spectrum", [TRACED_BLOCKS, TRACED_EIG], False),
     ("gelfand", [TRACED_BLOCKS, TRACED_EIG], False),
     ("berezin", [TRACED_BLOCKS], False), ("semisimple", [TRACED_BLOCKS], False),
     ("verify", [TRACED_BLOCKS, TRACED_EIG], False)],
    ids=["assemble", "hull", "radical", "spectrum", "gelfand", "berezin", "semisimple", "verify"],
)
def test_benchmark_tracer_runs_on_the_package(tmp_path, command, counters, rasters):
    # perfbench/traced_cli.py wraps the package's functions from outside;
    # a change to src/ that breaks its hooks fails here.  `assemble`,
    # `berezin` and `semisimple` count no eigenvalue problem; `hull`
    # rasterizes boundary images, whose grids the region hooks record.
    src = Path(cli.__file__).resolve().parents[1]
    path = write_config(tmp_path, degree_cap=3, hull={})
    out = tmp_path / "traced"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, str(src.parent / "perfbench" / "traced_cli.py"), command,
         "--config", str(path), "--out", str(out), "--no-cache", "--threads", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    trace = json.loads((out / "trace.json").read_text())
    counts = trace["counts"]
    assert all(counts.get(name, 0) > 0 for name in counters), counts
    if rasters:
        assert trace["distinct"].get("spectra.raster_grids", 0) > 0, trace["distinct"]


def _perfbench_setup_code(src: Path) -> str:
    """SETUP_CODE as perfbench/run.py defines it, read without importing run.py."""
    tree = ast.parse((src.parent / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SETUP_CODE" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no SETUP_CODE")


@pytest.mark.parametrize("no_cache", ["1", "0"])
def test_benchmark_setup_probe_runs_on_the_package(tmp_path, no_cache):
    # perfbench/run.py times build_setup through this snippet before every
    # workload; a change to build_setup's signature fails here first.
    src = Path(cli.__file__).resolve().parents[1]
    path = write_config(tmp_path, degree_cap=3)
    out = tmp_path / "setup"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("TOEPLITZ_SPECTRA_CACHE", None)
    result = subprocess.run(
        [sys.executable, "-c", _perfbench_setup_code(src), str(path), str(out), no_cache],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert out.is_dir() and not (out / "cache").exists()
