#!/usr/bin/env python3
"""End-to-end benchmark of the toeplitz-spectra command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload expr-cold --seed 3 --seconds 36 --trace 0

Every command runs as a user runs it: one fresh process per invocation,
``python -m toeplitz_spectra.cli <command> --config FILE --threads 1``, on a
config generated from the seed (see ``configs.py``), with BLAS pinned to
one thread and a fresh ``--out`` directory.  A run measures, in this order:

* ``setup_s``: process start, package import, ``load_config`` and
  ``build_setup`` on the workload's config, no command (median of several);
* rounds of the eight commands, each timed from spawn to exit, for as long
  as another round fits in ``--seconds`` (at least one round).

With ``--trace 1`` a round runs untraced and then again under
``traced_cli.py``, which times the package's public functions from outside;
the run reports per-layer self times and counts instead (see
``tracing.py``).  Every invocation is checked (``checks.py``).  Human
readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Detailed results go to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from checks import Outcome, check_report, classify, compare_sha  # noqa: E402
from configs import COMMANDS, EXCLUDED, WORKLOADS, write_config  # noqa: E402

SETUP_SAMPLES = 5
# Reference speed: one sampler chunk took this long, median, on the 2-core
# Xeon machine where the baseline was taken.
CHUNK_REF_S = 0.0016
CHUNK_ITERATIONS = 20_000
SAMPLE_PERIOD_S = 0.02
INVOCATION_TIMEOUT_S = 100.0
# The commands that store blocks: together they fill every block the others load.
PREFILL_COMMANDS = ("assemble", "berezin")
SETUP_CODE = (
    "import sys\n"
    "from toeplitz_spectra.cli import build_setup, load_config\n"
    "build_setup(load_config(sys.argv[1]), threads=1, no_cache=sys.argv[3] == '1', out=sys.argv[2])\n"
)
PROVENANCE_CODE = (
    "import json, os, platform, numpy, scipy, toeplitz_spectra.cli\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,\n"
    "    'scipy': scipy.__version__, 'blas': f\"{blas.get('name')} {blas.get('version')}\",\n"
    "    'package': os.path.dirname(toeplitz_spectra.cli.__file__)}))\n"
)


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    n = len(samples)
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            ranked = sorted(samples)
            out[f"p{pct}"] = ranked[min(n - 1, int(round(pct / 100 * (n - 1))))]
            break
    return out


def chunk() -> float:
    """Wall time of a fixed pure-Python loop that runs no repository code."""
    start = time.perf_counter()
    acc = 0
    for i in range(CHUNK_ITERATIONS):
        acc += i * i
    return time.perf_counter() - start


class SpeedSampler(threading.Thread):
    """Times a short loop every SAMPLE_PERIOD_S while a child runs.

    The shared machine's speed drifts by up to a quarter within seconds.
    Each child's wall time is scaled by CHUNK_REF_S over the median chunk
    time seen while it ran, so times read as on a machine at the reference
    speed.  The loop costs under a tenth of one core, and since it runs no
    repository code a change to the program moves the scaled time as it
    moves the wall time.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.stopped = threading.Event()
        self.chunks: list[float] = []

    def run(self):
        while not self.stopped.wait(SAMPLE_PERIOD_S):
            self.chunks.append(chunk())

    def factor(self) -> float:
        self.stopped.set()
        self.join()
        return CHUNK_REF_S / statistics.median(self.chunks or [chunk()])


class Bench:
    """One benchmark run: a private work directory, child env, invocations."""

    def __init__(self, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        STATE.mkdir(exist_ok=True)
        self.work = STATE / f"work-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir()
        self.config_path = self.work / "config.json"
        self.config = write_config(workload, seed, self.config_path)
        self.counter = 0
        env = {k: v for k, v in os.environ.items() if k != "TOEPLITZ_SPECTRA_CACHE"}
        env.update(
            OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
            PYTHONPATH=str(SRC), PYTHONHASHSEED="0", TMPDIR=str(self.work),
        )
        self.env = env
        self.prefilled = self.work / "prefilled-cache"

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def fresh_dir(self, tag: str) -> Path:
        self.counter += 1
        path = self.work / f"{self.counter:03d}-{tag}"
        path.mkdir()
        return path

    def spawn(self, argv: list[str], log_dir: Path) -> tuple[float, float, float, int]:
        """Run one child to completion.

        Returns (reference-speed seconds, wall seconds, peak RSS MB, exit code).
        """
        sampler = SpeedSampler()
        sampler.start()
        with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
                factor = sampler.factor()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds * factor, seconds, usage.ru_maxrss / 1024.0, proc.returncode

    def setup_sample(self) -> tuple[float, float]:
        out = self.fresh_dir("setup")
        no_cache = "1" if self.workload.cache == "none" else "0"
        argv = [sys.executable, "-c", SETUP_CODE, str(self.config_path), str(out), no_cache]
        seconds, wall, _, rc = self.spawn(argv, out)
        if rc != 0:
            raise RuntimeError(f"setup probe exited {rc}: {(out / 'stderr').read_text()[-500:]}")
        shutil.rmtree(out)
        return seconds, wall

    def provenance(self) -> dict:
        out = self.fresh_dir("provenance")
        _, _, _, rc = self.spawn([sys.executable, "-c", PROVENANCE_CODE], out)
        if rc != 0:
            raise RuntimeError(f"cannot import the package from {SRC}: {(out / 'stderr').read_text()[-500:]}")
        info = json.loads((out / "stdout").read_text())
        if Path(info.pop("package")).resolve() != (SRC / "toeplitz_spectra").resolve():
            raise RuntimeError("toeplitz_spectra was imported from outside the checkout")
        cpu = "unknown"
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
        except OSError:
            pass
        info.update(nproc=os.cpu_count(), cpu=cpu, machine=platform.machine())
        return info

    def invoke(self, command: str, *, traced: bool = False, cache: str | None = None) -> tuple[Outcome, Path]:
        """One CLI invocation with a fresh --out; the caller removes the dir."""
        cache = cache or self.workload.cache
        out = self.fresh_dir(command)
        if cache == "warm":
            shutil.copytree(self.prefilled, out / "cache")
        cli = [str(HERE / "traced_cli.py")] if traced else ["-m", "toeplitz_spectra.cli"]
        argv = [sys.executable, *cli, command, "--config", str(self.config_path),
                "--threads", "1", "--out", str(out)]
        if cache == "none":
            argv.append("--no-cache")
        seconds, wall, rss, rc = self.spawn(argv, out)
        sha, failures = check_report(command, self.config, rc, out / f"report_{command}.json")
        return Outcome(command, seconds, wall, rss, rc, sha, failures), out

    def round(self, commands=COMMANDS, *, traced: bool = False, cache: str | None = None,
              keep=None) -> list[Outcome]:
        outcomes = []
        for command in commands:
            outcome, out = self.invoke(command, traced=traced, cache=cache)
            if keep is not None:
                keep(command, out)
            shutil.rmtree(out)
            outcomes.append(outcome)
        return outcomes

    def prefill(self, commands) -> list[Outcome]:
        """Untimed cold invocations whose stored blocks become the warm cache.

        Their payload shas are the reference for the warm invocations.
        """
        self.prefilled.mkdir()

        def merge(_command, out):
            for blk in (out / "cache").glob("*.blk"):
                shutil.copyfile(blk, self.prefilled / blk.name)

        return self.round(commands, cache="cold", keep=merge)


def check_outcomes(bench: Bench, outcomes: list[Outcome], references: dict, baseline: dict) -> None:
    """Cross-invocation checks, then pass / known defect / fail per outcome."""
    for o in outcomes:
        for check, ref in references.items():
            compare_sha(o, ref.get(o.command), check)
        classify(o, bench.workload.name, baseline["known_defects"])


def measure(bench: Bench, seconds: float, baseline: dict) -> tuple[dict, list[Outcome]]:
    """Setup samples, one round of every command, then more invocations.

    After the round, until ``seconds`` are spent, the command that has had
    the least measured time so far, among those whose last time still fits,
    runs again.  Short commands, whose single times spread most, so get the
    most samples.
    """
    start = time.perf_counter()
    setup = [bench.setup_sample() for _ in range(SETUP_SAMPLES)]
    references, cold = {}, []
    if bench.workload.cache == "warm":
        untimed = time.perf_counter()
        cold = bench.prefill(PREFILL_COMMANDS)
        references["cache-contract"] = {o.command: o.sha for o in cold}
        start += time.perf_counter() - untimed
    first = bench.round()
    samples = {o.command: [o] for o in first}
    while True:
        left = start + seconds - time.perf_counter()
        fits = [c for c in COMMANDS if samples[c][-1].wall_s < left]
        if not fits:
            break
        command = min(fits, key=lambda c: sum(o.wall_s for o in samples[c]))
        outcome, out = bench.invoke(command)
        shutil.rmtree(out)
        samples[command].append(outcome)
    references["sha-repeat"] = {o.command: o.sha for o in first}
    flat = [o for c in COMMANDS for o in samples[c]]
    check_outcomes(bench, cold + flat, references, baseline)
    stats = {"setup_s": summarize([scaled for scaled, _ in setup])}
    stats["setup_s"]["wall"] = statistics.median(wall for _, wall in setup)
    for command in COMMANDS:
        stats[f"{command}_s"] = summarize([o.seconds for o in samples[command]])
        stats[f"{command}_s"]["wall"] = statistics.median(o.wall_s for o in samples[command])
    stats["workload_s"] = summarize([sum(o.seconds for o in first)])
    stats["workload_s"]["wall"] = sum(o.wall_s for o in first)
    stats["peak_rss_mb"] = summarize([max(o.rss_mb for o in flat)])
    return stats, cold + flat


def measure_traced(bench: Bench, baseline: dict) -> tuple[dict, list[Outcome], dict]:
    from tracing import aggregate

    references, cold = {}, []
    if bench.workload.cache == "warm":
        cold = bench.prefill(COMMANDS)
        references["cache-contract"] = {o.command: o.sha for o in cold}
    plain = bench.round()
    references["sha-repeat"] = {o.command: o.sha for o in plain}
    traces = {}

    def collect(command, out):
        path = out / "trace.json"
        traces[command] = json.loads(path.read_text()) if path.exists() else None

    traced = bench.round(traced=True, keep=collect)
    for o in traced:
        if traces[o.command] is None:
            o.failures.append("trace-missing")
            del traces[o.command]
    flat = cold + plain + traced
    check_outcomes(bench, flat, references, baseline)
    overhead = sum(o.seconds for o in traced) - sum(o.seconds for o in plain)
    metrics = aggregate(list(traces.values()), overhead)
    return metrics, flat, traces


def report_failures(outcomes: list[Outcome]) -> None:
    attempted = len(outcomes)
    known = [o for o in outcomes if o.status == "known"]
    failed = [o for o in outcomes if o.status == "fail"]
    share = (len(known) + len(failed)) / attempted
    print(f"failed_share: {share:.4f} ({len(known) + len(failed)} of {attempted} invocations; "
          f"{len(known)} known defects, {len(failed)} new failures)")
    for label, group in (("known defect", known), ("FAILED", failed)):
        for o in group:
            print(f"  {label}: {o.command} exit {o.returncode}: {', '.join(o.failures)}")


def report_shas(bench: Bench, outcomes: list[Outcome], baseline: dict) -> dict:
    recorded = baseline.get("payload_sha256", {}).get(bench.workload.name, {}).get(str(bench.seed))
    shas = {}
    for o in outcomes:
        shas.setdefault(o.command, o.sha)
    if recorded:
        changed = sorted(c for c, s in shas.items() if recorded.get(c) != s)
        print(f"payload sha vs baseline seed {bench.seed}: "
              f"{len(shas) - len(changed)} same, changed: {changed or 'none'}")
    else:
        print(f"payload sha vs baseline: seed {bench.seed} not recorded")
    return shas


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toeplitz_spectra" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads((HERE / "baseline.json").read_text())
    bench = Bench(args.workload, args.seed)
    try:
        provenance = bench.provenance()
        print(f"workload {args.workload} seed {args.seed}: {bench.workload.why}")
        print(f"excluded by design: {EXCLUDED}")
        print("machine: " + ", ".join(f"{k}={v}" for k, v in sorted(provenance.items())))
        if args.trace:
            metrics, outcomes, traces = measure_traced(bench, baseline)
            wanted = spec["per_layer"]
            from tracing import COMPUTED, print_breakdown

            print_breakdown(traces)
            for m in wanted:
                label = " (computed from sizes)" if m["name"] in COMPUTED else ""
                print(f"{m['name']}: {metrics[m['name']]:.6g} {m['unit']}{label}")
        else:
            stats, outcomes = measure(bench, args.seconds, baseline)
            wanted = spec["end_to_end"]
            for m in wanted:
                s = stats[m["name"]]
                tail = next((f"p{p}={s[f'p{p}']:.4f}" for p in (99, 95, 90, 75, 50) if f"p{p}" in s),
                            "tail n/a (needs 20+ samples)")
                wall = f", wall {s['wall']:.4f}" if "wall" in s else ""
                print(f"{m['name']}: {s['median']:.4f} {m['unit']} median, {tail}, n={s['n']}{wall}")
            metrics = {name: s["median"] for name, s in stats.items()}
        report_failures(outcomes)
        shas = report_shas(bench, outcomes, baseline)
    finally:
        bench.close()

    failed = sum(1 for o in outcomes if o.status == "fail")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": provenance, "config": bench.config, "payload_sha256": shas,
        "outcomes": [vars(o) for o in outcomes], "result": result,
    }
    if args.trace:
        detail["traces"] = traces
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (STATE / "results" / name).write_text(json.dumps(detail, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
