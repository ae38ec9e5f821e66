"""Import hygiene: numpy is the only runtime dependency.  Importing the CLI,
and running all eight commands, `verify` included, on the README example
and on an expression config, loads no scipy, no jsonschema and no numpy.ma
module, in a fresh interpreter.  A command process loads only the package
modules its command runs (the raster code of `planar` only in `spectrum`,
`hull` and `verify`), maps OpenSSL's libcrypto (`_hashlib`) only where
numpy.random needs it, loads `csv` only where it writes a CSV file, and
freezes what it loaded; an in-process call leaves the collector alone.  As
a command process, every command writes its pinned payload.  And every name
that src/ defines is used in src/."""

import ast
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pin_payloads import CONFIGS, PINS
from toeplitz_spectra.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# The README's example configuration.
README_CONFIG = {
    "partition": {"k": [1, 2], "lambda": 0.0},
    "degree_cap": 6,
    "quasi_radial": {"kind": "expression", "text": "1 - r1^2*r2^2"},
    "symbols": [{"group": 2, "kind": "quasi_homogeneous", "p": [1, -1]}],
    "berezin": {"group": 2, "w": [0.3, 0.4], "degrees": [50, 100, 200],
                "radial_expression": "r1^2"},
    "radical": {"group": 2, "level": 1,
                "gamma": {"kind": "geometric_decay", "rate": 0.5}},
}

# k=(2,3) with a compiled expression and a profile, at a small degree cap.
EXPR_CONFIG = {
    "partition": {"k": [2, 3], "lambda": 0.5},
    "degree_cap": 3,
    "quasi_radial": {"kind": "expression", "text": "1 - 0.5*r1^2*r2^2"},
    "symbols": [
        {"group": 1, "kind": "expression", "boundary_continuous": True,
         "text": "0.5*s1^2 + 0.3*s1*s2*(t1*conj(t2)+t2*conj(t1)) + 0.7*s2^2"},
        {"group": 2, "kind": "profile", "text": "s1^2 + 0.4*s2*s3 + 0.6*s3^2"},
    ],
    "hull": {"resolution": 128, "ess_samples": 512},
    "berezin": {"group": 1, "w": [0.3, 0.4], "degrees": [4, 8]},
    "radical": {"group": 1, "level": 1,
                "gamma": {"kind": "geometric_decay", "rate": 0.5}},
}

COMMANDS = ["assemble", "spectrum", "hull", "berezin", "gelfand", "semisimple", "radical", "verify"]

# numpy.ma is numpy's own, but its first import (from np.unique) takes about 10 ms.
HEAVY_MODULES = (
    "sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')"
    " or m.split('.')[:2] == ['numpy', 'ma'])"
)


def _write_config(tmp_path: Path, config: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(config, output_dir=str(tmp_path / "out"))))
    return path


def _run(code: str, cwd: Path, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_scipy(tmp_path):
    code = f"import json, sys\nimport toeplitz_spectra.cli\nprint(json.dumps({HEAVY_MODULES}))"
    assert _run(code, tmp_path) == []


@pytest.mark.parametrize("config", [README_CONFIG, EXPR_CONFIG], ids=["readme", "expr"])
def test_commands_load_no_scipy_or_jsonschema(tmp_path, config):
    path = _write_config(tmp_path, config)
    code = (
        "import contextlib, io, json, sys\n"
        "from toeplitz_spectra.cli import main\n"
        "codes = {}\n"
        f"for command in {COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        codes[command] = main([command, '--config', {str(path)!r}, '--no-cache'])\n"
        f"print(json.dumps({{'codes': codes, 'loaded': {HEAVY_MODULES}}}))"
    )
    result = _run(code, tmp_path)
    assert result == {"codes": dict.fromkeys(COMMANDS, 0), "loaded": []}


# The package modules that only some commands load, per command; "setup" is
# load_config and build_setup with no command.
LAZY = ("gelfand", "radical", "checks", "planar")
LOADS = {
    "setup": [], "spectrum": ["planar"], "hull": ["planar"], "berezin": [],
    "assemble": ["gelfand"], "gelfand": ["gelfand"],
    "semisimple": ["gelfand", "radical"], "radical": ["gelfand", "radical"],
    "verify": ["checks", "gelfand", "planar", "radical"],
}
# The payload digest takes the interpreter's own sha256, so only the commands
# that draw from numpy.random (which imports secrets, hmac and so hashlib)
# map OpenSSL's libcrypto; and only the CSV writers load csv.
OPENSSL = {"radical", "verify"}
CSV = {"spectrum", "berezin"}

# Runs cli as `python -m toeplitz_spectra.cli` does: as __main__.
AS_MAIN = (
    "import gc, json, runpy, sys\n"
    "sys.argv = ['toeplitz-spectra', *sys.argv[1:]]\n"
    "try:\n"
    "    runpy.run_module('toeplitz_spectra.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
)
SETUP_ONLY = (
    "import gc, json, sys\n"
    "from toeplitz_spectra.cli import build_setup, load_config\n"
    "build_setup(load_config(sys.argv[1]))\n"
    "code = 0\n"
)
LOADED = (
    "loaded = sorted(m.split('.')[1] for m in sys.modules if m.startswith('toeplitz_spectra.'))\n"
    "stdlib = [m for m in ('_hashlib', 'csv') if m in sys.modules]\n"
    "print(json.dumps({'code': code, 'loaded': loaded, 'stdlib': stdlib,\n"
    "                  'gc': [gc.isenabled(), gc.get_freeze_count() > 0]}))\n"
)


@pytest.mark.parametrize("command", sorted(LOADS))
def test_a_command_process_loads_only_the_modules_it_runs(tmp_path, command):
    path = _write_config(tmp_path, README_CONFIG)
    code = (SETUP_ONLY if command == "setup" else AS_MAIN) + LOADED
    argv = [str(path)] if command == "setup" else [command, "--config", str(path)]
    result = _run(code, tmp_path, *argv)
    assert result["code"] == 0
    assert [m for m in result["loaded"] if m in LAZY] == LOADS[command]
    assert result["stdlib"] == ["_hashlib"] * (command in OPENSSL) + ["csv"] * (command in CSV)
    # A library import leaves gc alone; a command process runs its command
    # with the collector on and the loaded modules frozen.
    assert result["gc"] == [True, command != "setup"]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_in_process_main_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    path = _write_config(tmp_path, README_CONFIG)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    frozen = gc.get_freeze_count()
    try:
        for command in ("berezin", "hull"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([command, "--config", str(path)]) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("command", COMMANDS)
def test_command_process_writes_the_pinned_payload(tmp_path, command):
    # python -m runs cli as __main__: the collector is off while the modules
    # load, then they are frozen and the collector is on for the command,
    # which may load more (planar, gelfand, ...); the digest is the
    # interpreter's own sha256.
    path = _write_config(tmp_path, CONFIGS["readme-d6"])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "toeplitz_spectra.cli", command, "--config", str(path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / f"report_{command}.json").read_text())
    pinned = json.loads(PINS.read_text())["readme-d6"][command]["sha256"]
    assert report["payload_sha256"] == pinned


# Names src/ keeps only for perfbench/tracing.py, each with what reads it;
# they go together with the tracer.
SHIMS = {
    "declared_mode_dict": "tracing.py reads a symbol's mode table by this name",
    "jacobi_rule_01": "tracing.py's rule_cache_info reads the rule cache by this name",
}


# Parameters that their function never reads, each with the caller that
# passes it.
UNREAD_PARAMETERS = {
    "build_setup.threads": "perfbench/run.py's SETUP_CODE passes threads=1",
    "build_setup.no_cache": "perfbench/run.py's SETUP_CODE passes no_cache",
}


# Class fields that only tests read, each with the test that reads it.
TEST_READ_FIELDS = {}


def test_every_name_defined_in_src_is_used_in_src():
    # A function, class, method or module-level name (dunders aside) that
    # nothing else in src/ names, a class-level annotated field that no
    # attribute in src/ reads, or a parameter of a def that its body never
    # reads, is test-only or dead API.
    defined, used, fields, attributes, unread_params = {}, set(), {}, set(), {}
    for path in sorted((SRC / "toeplitz_spectra").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defined.setdefault(target.id, f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for field in node.body:
                    if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name):
                        fields[f"{node.name}.{field.target.id}"] = f"{path.name}:{field.lineno}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                read = {n.id for stmt in node.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                args = node.args
                for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                            *filter(None, [args.vararg, args.kwarg])]:
                    if arg.arg not in read:
                        unread_params[f"{node.name}.{arg.arg}"] = f"{path.name}:{node.lineno}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    unused = {
        name: where for name, where in defined.items()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    }
    assert unused.keys() == SHIMS.keys(), unused
    unread = {
        name: where for name, where in fields.items() if name.split(".")[1] not in attributes
    }
    assert unread.keys() == TEST_READ_FIELDS.keys(), unread
    assert unread_params.keys() == UNREAD_PARAMETERS.keys(), unread_params


# The sibling modules that cli imports inside its commands, so that a command
# process loads only the modules it runs (LOADS above).
LAZY_IN_CLI = {"checks", "gelfand", "planar", "radical"}


def _sibling_imports():
    """{module: [(sibling, inside a function)]} over src/'s modules; the
    package's own __init__ counts as the sibling "__init__"."""
    package = SRC / "toeplitz_spectra"
    modules = {path.stem for path in package.glob("*.py")}

    def siblings(node):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            return [a.name if a.name in modules else "__init__" for a in node.names]
        if isinstance(node, ast.ImportFrom):
            names = [("toeplitz_spectra." if node.level == 1 else "") + (node.module or "")]
        else:
            names = [a.name for a in node.names]
        return [n.split(".")[1] for n in names if n.startswith("toeplitz_spectra.")]

    graph = {}
    for name in sorted(modules):
        tree = ast.parse((package / f"{name}.py").read_text())
        nested = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn) if node is not fn}
        graph[name] = [(target, id(node) in nested) for node in ast.walk(tree)
                       if isinstance(node, (ast.Import, ast.ImportFrom))
                       for target in siblings(node)]
    return graph


def test_the_import_graph_of_src_has_no_cycle():
    graph = _sibling_imports()
    edges = {name: {target for target, _ in found} for name, found in graph.items()}
    assert not {n for name, found in graph.items() for n, _ in found} - edges.keys()
    # Remove modules that import nothing left until none is left; what stays is a cycle.
    left = dict(edges)
    while True:
        leaves = {name for name, targets in left.items() if not targets & left.keys()}
        if not leaves:
            break
        left = {name: targets for name, targets in left.items() if name not in leaves}
    assert not left, f"import cycle among {sorted(left)}"


def test_spectra_imports_nothing_from_assembly():
    assert "assembly" not in {target for target, _ in _sibling_imports()["spectra"]}


def test_only_cli_imports_a_sibling_inside_a_function():
    lazy = {name: {target for target, inside in found if inside}
            for name, found in _sibling_imports().items()}
    assert {name: targets for name, targets in lazy.items() if targets} == {"cli": LAZY_IN_CLI}
