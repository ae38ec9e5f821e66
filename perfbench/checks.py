"""Correctness checks applied to every benchmark invocation.

An invocation fails on a non-zero exit, a missing or unreadable report, a
payload whose sha256 does not match the envelope, a wrong verdict where the
config has a known answer, a payload that differs between repeats of one
config, or a warm-cache payload that differs from the cold one.

Failures that match a defect recorded in ``baseline.json`` under
``known_defects`` are reported as known defects, not as new failures; any
other failing check, or a known one on another workload or command, fails.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path


def canonical_sha(payload) -> str:
    """sha256 of the payload bytes exactly as the tool hashes them."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def expected_verdicts(config: dict) -> dict:
    """Verdicts that follow from the config alone.

    A single nonzero quasi-homogeneous mode p = (a, -a) in a group of size 2,
    with no other symbol, has the closed disk |z| <= 2^-a as boundary image:
    polynomially convex, so ``hull`` must report inverse-closedness.  Any
    single nonzero mode makes every block nilpotent: not semisimple.
    """
    symbols = config.get("symbols", [])
    single_modes = [
        s for s in symbols
        if s["kind"] == "quasi_homogeneous" and any(v != 0 for v in s["p"])
    ]
    out = {}
    if single_modes:
        out["semisimple"] = False
    if len(symbols) == 1 and single_modes and len(single_modes[0]["p"]) == 2:
        out["inverse_closed"] = True
    return out


@dataclass
class Outcome:
    """Result of one invocation: its timing, its sha and its failing checks."""

    command: str
    seconds: float  # wall time scaled to the reference speed
    wall_s: float
    rss_mb: float
    returncode: int
    sha: str | None = None
    failures: list[str] = field(default_factory=list)
    status: str = "pass"  # "pass", "known" or "fail"


def check_report(command: str, config: dict, returncode: int, report_path: Path) -> tuple[str | None, list[str]]:
    """The payload sha (None if unreadable) and the failing check names."""
    failures = [] if returncode == 0 else [f"exit-{returncode}"]
    try:
        report = json.loads(report_path.read_text())
    except FileNotFoundError:
        return None, failures + ["report-missing"]
    except json.JSONDecodeError:
        return None, failures + ["report-unreadable"]
    payload = report.get("payload")
    sha = canonical_sha(payload)
    if report.get("command") != command:
        failures.append("report-command")
    if report.get("payload_sha256") != sha:
        failures.append("payload-sha")
    if not isinstance(payload, dict):
        return sha, failures + ["payload-shape"]
    want = expected_verdicts(config)
    if command == "hull" and "inverse_closed" in want:
        if payload.get("inverse_closed") is not want["inverse_closed"]:
            failures.append("verdict-inverse-closed")
    if command in ("semisimple", "radical") and "semisimple" in want:
        if payload.get("semisimple") is not want["semisimple"]:
            failures.append("verdict-semisimple")
    if command == "verify" and payload.get("all_passed") is not True:
        failing = [c["name"] for c in payload.get("checks", []) if not c.get("passed")]
        failures.extend(f"verify-{name}" for name in failing or ["all-passed"])
    return sha, failures


def compare_sha(outcome: Outcome, reference: str | None, check: str) -> None:
    """Fail ``check`` when the outcome's sha differs from a reference run's."""
    if reference is not None and outcome.sha is not None and outcome.sha != reference:
        outcome.failures.append(check)


def classify(outcome: Outcome, workload: str, known_defects: list[dict]) -> str:
    """'pass', 'known' when every failure is a recorded defect, else 'fail'."""
    if not outcome.failures:
        outcome.status = "pass"
        return outcome.status
    known = set()
    for entry in known_defects:
        if workload in entry["workloads"] and outcome.command == entry["command"]:
            known.update(entry["checks"])
    outcome.status = "known" if set(outcome.failures) <= known else "fail"
    return outcome.status
