"""Pinned report payloads: the configs, how to compute them, how to compare.

Run from the root of a checkout to rewrite ``tests/payloads.json`` from the
current code; it first prints, for each pin it moves,
``<config>/<command>: describe_difference(old, new)``:

    PYTHONPATH=src python tests/pin_payloads.py

``test_payloads.py`` recomputes every pin in process, one ``Setup`` per
config and all eight commands on it, and fails on any sha that moved.  A
change that moves a pin on purpose reruns this script and says in
CHANGES.md which pins moved and why.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

PINS = Path(__file__).with_name("payloads.json")
COMMANDS = ("assemble", "spectrum", "hull", "berezin", "gelfand", "semisimple", "radical", "verify")

CONFIGS = {
    # The README example at D=6.
    "readme-d6": {
        "partition": {"k": [1, 2], "lambda": 0.0},
        "degree_cap": 6,
        "quasi_radial": {"kind": "expression", "text": "1 - r1^2*r2^2"},
        "symbols": [{"group": 2, "kind": "quasi_homogeneous", "p": [1, -1]}],
        "berezin": {"group": 2, "w": [0.3, 0.4], "degrees": [50, 100, 200],
                    "radial_expression": "r1^2"},
        "radical": {"group": 2, "level": 1,
                    "gamma": {"kind": "geometric_decay", "rate": 0.5}},
    },
    # The benchmark's expr config of seed 1, at D=4.
    "expr-s1-d4": {
        "partition": {"k": [2, 3], "lambda": 0.5},
        "degree_cap": 4,
        "quasi_radial": {"kind": "expression", "text": "1 - 0.546*r1^2*r2^2"},
        "symbols": [
            {"group": 1, "kind": "expression", "boundary_continuous": True,
             "text": "0.421*s1^2 + 0.969*s1*s2*(t1*conj(t2)+t2*conj(t1)) + 0.832*s2^2"},
            {"group": 2, "kind": "profile", "text": "s1^2 + 0.995*s2*s3 + 0.329*s3^2"},
        ],
        "quadrature": {"block_order": 48, "gamma_order": 48, "torus_grid": 64},
        "hull": {"resolution": 256, "ess_samples": 1024},
        "berezin": {"group": 1, "w": [[0.2465, -0.3888], [-0.3562, 0.2519]],
                    "degrees": [4, 8, 12]},
        "radical": {"group": 1, "level": 1,
                    "gamma": {"kind": "geometric_decay", "rate": 0.518}},
        "seed": 803550136,
    },
    # Three groups: a constant on a one-dimensional group and a profile
    # on the two-dimensional one.
    "m3-k112-d4": {
        "partition": {"k": [1, 1, 2], "lambda": 0.25},
        "degree_cap": 4,
        "quasi_radial": {"kind": "expression", "text": "1 - 0.5*r1^2*r3^2 + 0.25*r2^2"},
        "symbols": [
            {"group": 1, "kind": "constant", "value": [0.5, 0.25]},
            {"group": 3, "kind": "profile", "text": "s1^2 + 0.5*s1*s2"},
        ],
        "hull": {"resolution": 128, "ess_samples": 512},
        "berezin": {"group": 3, "w": [0.2, -0.3], "degrees": [4, 8, 16]},
        "radical": {"group": 3, "level": 1,
                    "gamma": {"kind": "geometric_decay", "rate": 0.4}},
        "gelfand": {"budget": 200},
        "seed": 7,
    },
    # A non-polynomial profile and quasi-radial symbol, compiled to
    # truncated series (a division and an exp), at D=3.
    "nonpoly-d3": {
        "partition": {"k": [1, 2], "lambda": 1.0},
        "degree_cap": 3,
        "quasi_radial": {"kind": "expression", "text": "exp(-r1^2*r2^2)"},
        "symbols": [{"group": 2, "kind": "profile", "text": "1/(2 - s1^2)"}],
        "quadrature": {"block_order": 24, "gamma_order": 24, "torus_grid": 32},
        "hull": {"resolution": 128, "ess_samples": 512},
        "berezin": {"group": 2, "w": [0.3, 0.4], "degrees": [4, 8, 16]},
        "radical": {"group": 2, "level": 1, "gamma": {"kind": "indicator_degree", "d": 1}},
        "gelfand": {"budget": 200},
        "seed": 11,
    },
    # A radial power and a monomial profile, both closed form.
    "power-monomial-d3": {
        "partition": {"k": [1, 2], "lambda": 0.5},
        "degree_cap": 3,
        "quasi_radial": {"kind": "power", "exponents": [2, 1]},
        "symbols": [{"group": 2, "kind": "profile_monomial", "powers": [1, 2],
                     "coeff": [0.5, 0.25]}],
        "hull": {"resolution": 128, "ess_samples": 512},
        "berezin": {"group": 2, "w": [0.3, -0.2], "degrees": [4, 8, 16]},
        "radical": {"group": 2, "level": 1, "gamma": {"kind": "indicator_degree", "d": 1}},
        "gelfand": {"budget": 200},
        "seed": 3,
    },
    # A non-polynomial expression in s and t, compiled to a truncated
    # exp series, under the radial factor one.
    "nonpoly-expr-d2": {
        "partition": {"k": [1, 2], "lambda": 0.0},
        "degree_cap": 2,
        "quasi_radial": {"kind": "one"},
        "symbols": [{"group": 2, "kind": "expression", "boundary_continuous": True,
                     "text": "exp(s1*s2*(t1*conj(t2)+t2*conj(t1)))"}],
        "quadrature": {"block_order": 16, "gamma_order": 16, "torus_grid": 16},
        "hull": {"resolution": 128, "ess_samples": 512},
        "berezin": {"group": 2, "w": [0.3, 0.4], "degrees": [4, 8, 16]},
        "radical": {"group": 2, "level": 1, "gamma": {"kind": "geometric_decay", "rate": 0.3}},
        "gelfand": {"budget": 200},
        "seed": 5,
    },
}


def compute_payloads(name: str, out: Path) -> dict[str, dict]:
    """{command: payload} of every command, on one in-process Setup."""
    from toeplitz_spectra import cli

    config = cli.validate_config(json.loads(json.dumps(CONFIGS[name])))
    setup = cli.build_setup(config, out=str(out))
    # The JSON round trip is what a report stores.
    return {c: json.loads(json.dumps(cli.COMMANDS[c](setup))) for c in COMMANDS}


def sha(payload) -> str:
    from toeplitz_spectra.cli import canonical_payload_bytes

    return hashlib.sha256(canonical_payload_bytes(payload)).hexdigest()


def _leaves(value, path: str = ""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path or ".", value


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def describe_difference(pinned, got) -> str:
    """The first JSON path at which got differs from pinned (in sorted-key
    order), and the largest numeric deviation over the paths both hold."""
    old, new = dict(_leaves(pinned)), dict(_leaves(got))
    first = next((p for p in list(old) + list(new)
                  if p not in old or p not in new or old[p] != new[p]), None)
    worst, where = 0.0, None
    for p in old.keys() & new.keys():
        a, b = old[p], new[p]
        if _is_number(a) and _is_number(b) and a != b:
            dev = abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf
            if where is None or dev > worst:
                worst, where = dev, p
    before, after = old.get(first, "<absent>"), new.get(first, "<absent>")
    text = f"first difference at {first}: {before!r} -> {after!r}"
    if where is not None:
        text += f"; largest numeric deviation {worst:.3e} at {where}"
    return text


def main() -> int:
    old = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            payloads = compute_payloads(name, Path(tmp) / name)
            pins[name] = {c: {"sha256": sha(p), "payload": p} for c, p in payloads.items()}
    for name, commands in pins.items():
        for command, pin in commands.items():
            before = old.get(name, {}).get(command)
            if before is None or before["sha256"] != pin["sha256"]:
                was = before["payload"] if before else {}
                print(f"{name}/{command}: {describe_difference(was, pin['payload'])}")
    PINS.write_text(json.dumps(pins, sort_keys=True, indent=1) + "\n")
    print(f"wrote {sum(len(v) for v in pins.values())} pins to {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
