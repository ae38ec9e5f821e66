"""Import hygiene: the CLI and every command of the README example but
`verify` (whose oracles are Gauss-Jacobi rules) run without loading scipy,
in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

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

SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _run(code: str, cwd: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_scipy(tmp_path):
    code = f"import json, sys\nimport toeplitz_spectra.cli\nprint(json.dumps({SCIPY_MODULES}))"
    assert _run(code, tmp_path) == []


def test_readme_commands_without_quadrature_load_no_scipy(tmp_path):
    config = dict(README_CONFIG, output_dir=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    commands = ["assemble", "spectrum", "hull", "berezin", "gelfand", "semisimple", "radical"]
    code = (
        "import contextlib, io, json, sys\n"
        "from toeplitz_spectra.cli import main\n"
        "codes = {}\n"
        f"for command in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        codes[command] = main([command, '--config', {str(path)!r}, '--no-cache'])\n"
        f"print(json.dumps({{'codes': codes, 'scipy': {SCIPY_MODULES}}}))"
    )
    result = _run(code, tmp_path)
    assert result == {"codes": dict.fromkeys(commands, 0), "scipy": []}
