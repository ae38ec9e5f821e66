"""Import hygiene: numpy is the only runtime dependency.  Importing the CLI,
and running all eight commands, `verify` included, on the README example
and on an expression config, loads no scipy and no jsonschema module, in a
fresh interpreter.  And every name that src/ defines is used in src/."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

HEAVY_MODULES = (
    "sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema'))"
)


def _run(code: str, cwd: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_scipy(tmp_path):
    code = f"import json, sys\nimport toeplitz_spectra.cli\nprint(json.dumps({HEAVY_MODULES}))"
    assert _run(code, tmp_path) == []


@pytest.mark.parametrize("config", [README_CONFIG, EXPR_CONFIG], ids=["readme", "expr"])
def test_commands_load_no_scipy_or_jsonschema(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(config, output_dir=str(tmp_path / "out"))))
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


# Names src/ keeps only for perfbench/tracing.py, each with what reads it;
# they go together with the tracer.
SHIMS = {
    "declared_mode_dict": "tracing.py reads a symbol's mode table by this name",
    "jacobi_rule_01": "tracing.py's rule_cache_info reads the rule cache by this name",
}


def test_every_name_defined_in_src_is_used_in_src():
    # A function, class, method or module-level name (dunders aside) that
    # nothing else in src/ names is test-only or dead API.
    defined, used = {}, set()
    for path in sorted((SRC / "toeplitz_spectra").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defined.setdefault(target.id, f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    unused = {
        name: where for name, where in defined.items()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    }
    assert unused.keys() == SHIMS.keys(), unused
