"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import configs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

KNOWN = json.loads((BENCH / "baseline.json").read_text())["known_defects"]


# --- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(configs.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(workload):
    assert configs.generate(workload, 7) == configs.generate(workload, 7)
    assert configs.generate(workload, 7) != configs.generate(workload, 8)


def test_generator_is_stable_across_processes():
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import configs; "
        "print(json.dumps(configs.generate('expr-cold', 11), sort_keys=True))"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", code, str(BENCH)], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED=str(h)),
        ).stdout
        for h in (1, 2)
    }
    assert outs == {json.dumps(configs.generate("expr-cold", 11), sort_keys=True) + "\n"}


def test_workload_shape_is_fixed_across_seeds():
    for workload in configs.WORKLOADS:
        shapes = {
            json.dumps([c["partition"], c["degree_cap"], c["quadrature"], c["hull"]])
            for c in (configs.generate(workload, s) for s in range(20))
        }
        assert len(shapes) == 1, workload
    assert configs.generate("expr-cold", 5) == configs.generate("expr-warm", 5)


# --- per-invocation checks ---------------------------------------------------


def _write_report(path: Path, command: str, payload: dict) -> None:
    path.write_text(json.dumps({
        "command": command, "payload": payload, "payload_sha256": checks.canonical_sha(payload),
    }))


def _outcome(command, sha, failures):
    return checks.Outcome(command, 1.0, 1.0, 10.0, 0, sha, list(failures))


def test_untouched_report_passes(tmp_path):
    path = tmp_path / "report_assemble.json"
    _write_report(path, "assemble", {"global_dim": 3, "blocks": []})
    sha, failures = checks.check_report("assemble", {"symbols": []}, 0, path)
    assert failures == [] and sha == checks.canonical_sha({"global_dim": 3, "blocks": []})


def test_tampered_report_is_counted_as_failed(tmp_path):
    path = tmp_path / "report_assemble.json"
    _write_report(path, "assemble", {"global_dim": 3})
    report = json.loads(path.read_text())
    report["payload"]["global_dim"] = 4
    path.write_text(json.dumps(report))
    sha, failures = checks.check_report("assemble", {"symbols": []}, 0, path)
    assert failures == ["payload-sha"]
    outcome = _outcome("assemble", sha, failures)
    assert checks.classify(outcome, "expr-cold", KNOWN) == "fail"


def test_missing_report_and_exit_code_fail(tmp_path):
    sha, failures = checks.check_report("hull", {"symbols": []}, 2, tmp_path / "none.json")
    assert sha is None and failures == ["exit-2", "report-missing"]


def test_cold_warm_sha_mismatch_is_counted_as_failed():
    outcome = _outcome("spectrum", "a" * 64, [])
    checks.compare_sha(outcome, "b" * 64, "cache-contract")
    assert checks.classify(outcome, "expr-warm", KNOWN) == "fail"
    same = _outcome("spectrum", "a" * 64, [])
    checks.compare_sha(same, "a" * 64, "cache-contract")
    assert checks.classify(same, "expr-warm", KNOWN) == "pass"


def test_known_defect_is_reported_but_not_new_failure():
    known = _outcome("verify", "c" * 64, ["exit-3", "verify-quadrature-doubling"])
    assert checks.classify(known, "expr-cold", KNOWN) == "known"
    # the same defect on another workload, or with another failing check, fails
    other = _outcome("verify", "c" * 64, ["exit-3", "verify-quadrature-doubling"])
    assert checks.classify(other, "readme-d20", KNOWN) == "fail"
    worse = _outcome("verify", "c" * 64, ["exit-3", "verify-quadrature-doubling", "verify-commutativity"])
    assert checks.classify(worse, "expr-cold", KNOWN) == "fail"


def test_verdicts_follow_from_the_config(tmp_path):
    config = configs.generate("readme-d20", 1)
    assert checks.expected_verdicts(config) == {"semisimple": False, "inverse_closed": True}
    assert checks.expected_verdicts(configs.generate("expr-cold", 1)) == {}
    path = tmp_path / "report_hull.json"
    _write_report(path, "hull", {"inverse_closed": False})
    assert checks.check_report("hull", config, 0, path)[1] == ["verdict-inverse-closed"]


def test_summary_tail_needs_ten_samples_beyond():
    assert run.summarize([1.0] * 19) == {"median": 1.0, "n": 19}
    assert run.summarize([float(v) for v in range(1, 21)])["p50"] == 11.0
    stats = run.summarize([float(v) for v in range(100)])
    assert stats["p90"] == 89.0 and "p95" not in stats and stats["n"] == 100


# --- tracing -----------------------------------------------------------------


class StepClock:
    """A clock that advances one unit per reading: exact arithmetic."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return float(self.now)


def _toy_module():
    mod = types.ModuleType("toy")

    def leaf(x):
        return x + 1

    def middle(x):
        return mod.leaf(x) + mod.leaf(x)

    def top(x):
        return mod.middle(x) * mod.leaf(x)

    for fn in (leaf, middle, top):
        fn.__module__ = "toy"
        setattr(mod, fn.__name__, fn)
    return mod


@pytest.mark.parametrize("clock", [StepClock(), time.perf_counter])
def test_self_times_plus_unattributed_add_up_to_the_root_span(clock):
    tracer = tracing.Tracer(clock=clock)
    mod = _toy_module()
    tracing.wrap_module(tracer, mod, "toy")
    # a hook's own time is unattributed, never part of a self time
    count = tracing.Hook(after=lambda t, *rest: t.counts.__setitem__("middle", 1))
    mod.middle = tracer.wrap("toy.middle", mod.middle.__wrapped__, count)
    assert tracer.call(tracing.ROOT, tracing.ROOT, mod.top, (1,), {}) == 8
    s = tracer.summary()
    total = sum(s["self_s"].values()) + s["unattributed_s"]
    assert total == pytest.approx(s["root_s"], abs=1e-9)
    assert s["hook_s"] > 0 and s["counts"] == {"middle": 1}
    assert s["entries"]["toy.other_s"] == 1  # nested calls within one bucket enter it once
    names = [s["span_names"][span[0]] for span in s["spans"]]
    assert names == [tracing.ROOT, "toy.top", "toy.middle", "toy.leaf", "toy.leaf", "toy.leaf"]
    parents = [span[3] for span in s["spans"]]
    assert parents == [-1, 0, 1, 2, 2, 1]


def test_bucket_names_cover_the_named_layers():
    assert tracing.bucket_of("spectra.PlanarRegion.draw_polyline") == "spectra.raster_s"
    assert tracing.bucket_of("gelfand.FiniteSum.__add__") == "gelfand.finite_sum_s"
    assert tracing.bucket_of("lattice.enumerate_kappa") == "lattice.basis_s"
    assert tracing.bucket_of("spectra.accumulation_check") == "spectra.other_s"
    assert tracing.bucket_of("cli.cmd_hull") == "cli.commands_s"
    assert tracing.bucket_of("cli._region_svg") == "cli.report_s"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    fake = {"self_s": {}, "entries": {}, "counts": {}, "distinct": {},
            "rule_cache": {"hits": 0, "misses": 0}, "import_s": 0.5, "unattributed_s": 0.1}
    assert set(tracing.aggregate([fake], 0.2)) == names


def test_aggregate_sums_commands_and_takes_ratios():
    def trace(raster, calls, distinct, dim):
        return {"self_s": {"spectra.raster_s": raster}, "entries": {"spectra.raster_s": calls},
                "counts": {"radical.dense_dim": dim, "spectra.eig_blocks": 4, "spectra.eig_fast_blocks": 1},
                "distinct": {"spectra.raster_grids": distinct},
                "rule_cache": {"hits": 3, "misses": 1}, "import_s": 0.5, "unattributed_s": 0.1}

    m = tracing.aggregate([trace(1.0, 3, 1, 10), trace(2.0, 1, 1, 30)], 0.7)
    assert m["spectra.raster_s"] == 3.0 and m["spectra.raster_calls"] == 4
    assert m["spectra.raster_reuse_ratio"] == 0.5
    assert m["radical.dense_dim"] == 30 and m["quad.rule_hit_ratio"] == 0.75
    assert m["spectra.eig_fast_path_share"] == 0.25
    assert m["cli.import_s"] == 1.0 and m["trace.overhead_s"] == 0.7
    assert m["trace.unattributed_s"] == pytest.approx(0.2)


@pytest.mark.skipif(not (ROOT / "src" / "toeplitz_spectra").is_dir(), reason="needs the package")
def test_traced_command_accounts_for_its_span(tmp_path):
    config = {
        "partition": {"k": [1, 2], "lambda": 0.0}, "degree_cap": 3,
        "quasi_radial": {"kind": "expression", "text": "1 - r1^2*r2^2"},
        "symbols": [{"group": 2, "kind": "quasi_homogeneous", "p": [1, -1]}],
        "hull": {"resolution": 64, "ess_samples": 256},
    }
    (tmp_path / "c.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    env.pop("TOEPLITZ_SPECTRA_CACHE", None)
    subprocess.run(
        [sys.executable, str(BENCH / "traced_cli.py"), "hull", "--config", str(tmp_path / "c.json"),
         "--threads", "1", "--no-cache", "--out", str(tmp_path / "out")],
        env=env, check=True, capture_output=True, timeout=120,
    )
    t = json.loads((tmp_path / "out" / "trace.json").read_text())
    assert sum(t["self_s"].values()) + t["unattributed_s"] == pytest.approx(t["root_s"], rel=1e-9)
    assert t["self_s"]["spectra.raster_s"] > 0 and t["entries"]["spectra.raster_s"] >= 1
    assert t["counts"]["spectra.raster_segments"] > 0
    assert max(t["self_s"], key=t["self_s"].get) in ("spectra.raster_s", "cli.report_s")
    report = json.loads((tmp_path / "out" / "report_hull.json").read_text())
    assert report["payload_sha256"] == checks.canonical_sha(report["payload"])
