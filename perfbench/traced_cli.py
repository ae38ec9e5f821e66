#!/usr/bin/env python3
"""Run one toeplitz-spectra command with per-layer tracing.

Same arguments as ``python -m toeplitz_spectra.cli``.  The layer modules are
wrapped before ``toeplitz_spectra.cli`` is imported; when the command ends
the spans and per-bucket totals go to ``<out>/trace.json``.  The exit code
is the command's own.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import MODULES, ROOT, Tracer, install, install_cli, rule_cache_info  # noqa: E402


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    tracer = Tracer()
    modules = [importlib.import_module(f"toeplitz_spectra.{m}") for m in MODULES]
    imported = time.perf_counter()
    install(tracer, modules)
    wrapped = time.perf_counter()
    import toeplitz_spectra.cli as cli

    cli_imported = time.perf_counter()
    cli_main = cli.main  # the root span: its own time is the unattributed share
    install_cli(tracer, cli)
    ready = time.perf_counter()
    out = Path(argv[argv.index("--out") + 1])
    try:
        code = tracer.call(ROOT, ROOT, cli_main, (argv,), {})
    finally:
        summary = tracer.summary()
        summary.update(
            command=argv[0],
            import_s=(imported - start) + (cli_imported - wrapped),
            wrap_s=(wrapped - imported) + (ready - cli_imported),
            rule_cache=rule_cache_info(modules[1]),
        )
        out.mkdir(parents=True, exist_ok=True)
        (out / "trace.json").write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
