"""Seeded workload configs for the benchmark (standard library only).

Each workload fixes the partition, the degree cap, the quadrature and the
hull settings, so the work per config stays level across seeds.  The seed
only varies amplitudes, coefficients, Berezin base points and decay rates.
The program under test receives nothing but the JSON written here.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

COMMANDS = (
    "assemble", "spectrum", "hull", "berezin",
    "gelfand", "semisimple", "radical", "verify",
)


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # configs are generated per family; expr-cold and expr-warm share one
    cache: str  # "none" (--no-cache), "cold" (empty cache) or "warm" (pre-filled copy)
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "readme-d20", "readme", "none",
            "README family at D=20 with --no-cache: closed-form assembly, time goes to "
            "rasterization and hull, dense reconstruction and ideal-space sampling",
        ),
        Workload(
            "expr-cold", "expr", "cold",
            "k=(2,3) expression and profile, empty cache per invocation: quadrature, symbol "
            "evaluation, dense eigenvalues; k=3 expressions left out (about 9 GiB at the seed)",
        ),
        Workload(
            "expr-warm", "expr", "warm",
            "same configs as expr-cold read from a pre-filled block cache: cache loads "
            "replace quadrature, so compute-path gains that slow loads show here",
        ),
    )
}

# k=3 `expression` symbols are left out on purpose: at the seed they ask for
# about 9 GiB in the torus Fourier routine and would take the machine down.
EXCLUDED = "k=3 expression symbols (about 9 GiB per torus Fourier table at the seed)"


def _round(x: float, digits: int = 3) -> float:
    return float(f"{x:.{digits}f}")


def _ball_point(rng: random.Random, k: int, rmin: float, rmax: float) -> list:
    """A point of C^k with |w| in [rmin, rmax], every coordinate nonzero."""
    angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(k)]
    mags = [rng.uniform(0.5, 1.0) for _ in range(k)]
    scale = rng.uniform(rmin, rmax) / math.sqrt(sum(m * m for m in mags))
    return [
        [_round(scale * m * math.cos(a), 4), _round(scale * m * math.sin(a), 4)]
        for m, a in zip(mags, angles)
    ]


def readme_config(rng: random.Random) -> dict:
    a = rng.choice((1, 2))
    c = _round(rng.uniform(0.5, 1.0))
    return {
        "partition": {"k": [1, 2], "lambda": 0.0},
        "degree_cap": 20,
        "quasi_radial": {"kind": "expression", "text": f"1 - {c}*r1^2*r2^2"},
        "symbols": [{"group": 2, "kind": "quasi_homogeneous", "p": [a, -a]}],
        "quadrature": {"block_order": 48, "gamma_order": 48, "torus_grid": 64},
        "hull": {"resolution": 512, "ess_samples": 4096},
        "berezin": {
            "group": 2, "w": _ball_point(rng, 2, 0.3, 0.7),
            "degrees": [50, 100, 200], "radial_expression": "r1^2",
        },
        "radical": {
            "group": 2, "level": 1,
            "gamma": {"kind": "geometric_decay", "rate": _round(rng.uniform(0.3, 0.7))},
        },
        "seed": rng.randrange(1, 2**31),
    }


def expr_config(rng: random.Random) -> dict:
    c1, c2, c3 = (_round(rng.uniform(0.2, 1.0)) for _ in range(3))
    b1, b2 = (_round(rng.uniform(0.2, 1.0)) for _ in range(2))
    return {
        "partition": {"k": [2, 3], "lambda": 0.5},
        "degree_cap": 6,
        "quasi_radial": {"kind": "expression", "text": f"1 - {_round(rng.uniform(0.3, 0.9))}*r1^2*r2^2"},
        "symbols": [
            {
                "group": 1, "kind": "expression", "boundary_continuous": True,
                "text": f"{c1}*s1^2 + {c2}*s1*s2*(t1*conj(t2)+t2*conj(t1)) + {c3}*s2^2",
            },
            {"group": 2, "kind": "profile", "text": f"s1^2 + {b1}*s2*s3 + {b2}*s3^2"},
        ],
        "quadrature": {"block_order": 48, "gamma_order": 48, "torus_grid": 64},
        "hull": {"resolution": 256, "ess_samples": 1024},
        "berezin": {"group": 1, "w": _ball_point(rng, 2, 0.3, 0.7), "degrees": [4, 8, 12]},
        "radical": {
            "group": 1, "level": 1,
            "gamma": {"kind": "geometric_decay", "rate": _round(rng.uniform(0.3, 0.7))},
        },
        "seed": rng.randrange(1, 2**31),
    }


FAMILIES = {"readme": readme_config, "expr": expr_config}


def generate(workload: str, seed: int) -> dict:
    """The config for (workload, seed); workloads of one family share it."""
    family = WORKLOADS[workload].family
    # A string seed goes through sha512, so it is stable across processes.
    return FAMILIES[family](random.Random(f"{family}:{seed}"))


def write_config(workload: str, seed: int, path: Path) -> dict:
    config = generate(workload, seed)
    path.write_text(json.dumps(config, sort_keys=True, indent=1))
    return config
