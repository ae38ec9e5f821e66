"""Batch front end: config loading, command dispatch, reports.

All interaction is run-and-read: a command takes a JSON config, writes a
JSON report (plus CSV/SVG side files where a command has tabular or planar
output) and exits.  Exit codes are a stable contract:

    0  success
    1  configuration error
    2  numerical failure, or any other error (out of memory, a defect)
    3  verification failure (cmd verify only)

Every nonzero code comes with one JSON error object as the last line on
stderr; no raw traceback is printed.

Reports are reproducible: the payload depends only on the echoed config and
tool version (fixed seeds, fixed summation orders).
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # A command process: no collection while its modules load; main() freezes them.
    gc.disable()

import argparse
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from itertools import product
from pathlib import Path

# The interpreter's own sha256, as hashlib's maps OpenSSL's libcrypto (which
# radical and verify map anyway: numpy.random imports secrets, hmac, hashlib).
try:
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import __version__
from .assembly import AlgebraModel, frobenius
from .errors import ConfigError, SymbolError, ToeplitzError
from .lattice import PartitionConfig, enumerate_kappa
from .quad import axis_points
from .spectra import berezin_sequence, boundary_sample_count
from .symbols import (
    PseudoHomogeneousSymbol,
    QuasiRadialSymbol,
    builtin_quasi_homogeneous,
    constant_symbol,
    expression_symbol,
    profile_monomial,
    profile_symbol,
)

# A "default" fills an absent property when a config is conformed; a
# default that depends on other fields is filled in validate_config.
CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["partition"],
    "additionalProperties": False,
    "properties": {
        "partition": {
            "type": "object",
            "required": ["k"],
            "additionalProperties": False,
            "properties": {
                "k": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
                "n": {"type": "integer", "minimum": 1},
                "lambda": {"type": "number", "exclusiveMinimum": -1, "default": 0.0},
            },
        },
        "degree_cap": {"type": "integer", "minimum": 0, "default": 6},
        "quasi_radial": {
            "type": ["object", "null"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["one", "expression", "power"]},
                "text": {"type": "string"},
                "exponents": {"type": "array", "items": {"type": "integer", "minimum": 0}},
            },
            "required": ["kind"],
            "default": None,
        },
        "symbols": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["group", "kind"],
                "additionalProperties": False,
                "properties": {
                    "group": {"type": "integer", "minimum": 1},
                    "kind": {
                        "enum": [
                            "constant",
                            "quasi_homogeneous",
                            "profile",
                            "profile_monomial",
                            "expression",
                        ]
                    },
                    "value": {},
                    "p": {"type": "array", "items": {"type": "integer"}},
                    "text": {"type": "string"},
                    "powers": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                    "coeff": {},
                    "boundary_continuous": {"type": "boolean"},
                },
            },
            "default": [],
        },
        "quadrature": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "block_order": {"type": "integer", "minimum": 1, "default": 48},
                "gamma_order": {"type": "integer", "minimum": 1, "default": 48},
                # Accepted and ignored: every symbol is a compiled mode table.
                "torus_grid": {"type": "integer", "minimum": 2},
            },
            "default": {},
        },
        "hull": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "resolution": {"type": "integer", "minimum": 16, "default": 512},
                "ess_samples": {"type": "integer", "minimum": 16, "default": 4096},
            },
            "default": {},
        },
        "eig_tol": {"type": "number", "exclusiveMinimum": 0, "default": 1e-8},
        "surrogate_kappa": {"type": "integer", "minimum": 1, "default": 10_000},
        "seed": {"type": "integer", "minimum": 0, "default": 12345},
        "berezin": {
            "type": "object",
            "required": ["group", "w", "degrees"],
            "additionalProperties": False,
            "properties": {
                "group": {"type": "integer", "minimum": 1},
                "w": {"type": "array"},
                "degrees": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                "radial_expression": {"type": ["string", "null"]},
            },
        },
        "gelfand": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "budget": {"type": "integer", "minimum": 1, "default": 600},
                "zeta_per_region": {"type": "integer", "minimum": 1, "default": 8},
            },
            "default": {},
        },
        "radical": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                # Defaults to the lowest group with a symbol, or 1.
                "group": {"type": "integer", "minimum": 1},
                "level": {"type": "integer", "minimum": 1, "default": 1},
                "gamma": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["indicator_degree", "geometric_decay"],
                                 "default": "indicator_degree"},
                        "d": {"type": "integer", "minimum": 0, "default": 1},
                        "rate": {"type": "number", "minimum": 0, "default": 0.5},
                    },
                    "default": {},
                },
            },
            "default": {},
        },
        "output_dir": {"type": "string", "default": "out"},
    },
}


_JSON_TYPES = {
    "object": dict, "array": list, "string": str, "boolean": bool,
    "null": type(None), "number": (int, float), "integer": (int, float),
}


def _is_type(value, name: str) -> bool:
    """jsonschema's type test: a bool is neither integer nor number, and an
    integral float such as 2.0 is an integer."""
    if isinstance(value, bool) and name != "boolean":
        return False
    return isinstance(value, _JSON_TYPES[name]) and (
        name != "integer" or isinstance(value, int) or value.is_integer())


def _conform(value, schema: dict, where: str = "config"):
    """A copy of value checked against schema, with each number at an
    integer position made an int and each absent property that has a
    default filled in; the copy shares no list or dict with value or schema.

    Checks exactly the other keywords CONFIG_SCHEMA uses, with jsonschema's
    semantics: type, enum, minimum, exclusiveMinimum, minItems, items,
    required, properties and additionalProperties (false only).  A keyword
    about objects, arrays or numbers ignores values of other types, and {}
    accepts anything.  The first place value breaks schema is a ConfigError.
    """
    def refused(what: str) -> ConfigError:
        return ConfigError(f"config failed schema validation: {where}: {what}")

    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_is_type(value, t) for t in types):
        raise refused(f"{value!r} is not of type {' or '.join(types)}")
    if "enum" in schema and value not in schema["enum"]:
        raise refused(f"{value!r} is not one of {schema['enum']}")
    if _is_type(value, "number"):
        if "minimum" in schema and value < schema["minimum"]:
            raise refused(f"{value!r} is less than the minimum {schema['minimum']}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            raise refused(f"{value!r} is not above {schema['exclusiveMinimum']}")
    if types == ["integer"]:
        return int(value)  # exact: the type test passed, so value is integral
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise refused(f"{value!r} has fewer than {schema['minItems']} items")
        return [_conform(item, schema.get("items", {}), f"{where}[{i}]")
                for i, item in enumerate(value)]
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                raise refused(f"{key!r} is a required property")
        if schema.get("additionalProperties", True) is False:
            for key in value:
                if key not in props:
                    raise refused(f"additional property {key!r} is not allowed")
        out = {key: _conform(item, props.get(key, {}), f"{where}.{key}")
               for key, item in value.items()}
        for key, sub in props.items():
            if key not in out and "default" in sub:
                out[key] = _conform(sub["default"], sub, f"{where}.{key}")
        return out
    return value


def _complex_from_json(v) -> complex:
    """A number or a [re, im] pair of numbers in the float range; a bool is neither."""
    parts = v if isinstance(v, (list, tuple)) and len(v) == 2 else (v, 0.0)
    if not all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in parts):
        raise ConfigError(f"cannot read complex value from {v!r}")
    return complex(float(parts[0]), float(parts[1]))


def c2j(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _finite_number(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError(f"config holds {text}, which is not a finite number")
    return value


def _not_a_number(name: str):
    raise ConfigError(f"config holds {name}, which is not a finite number")


def load_config(path: str | Path) -> dict:
    """The validated config of a UTF-8 JSON file; NaN and infinities (also
    as an overflowing literal such as 1e999) are refused while parsing."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"),
                         parse_float=_finite_number, parse_constant=_not_a_number)
    except FileNotFoundError:
        raise ConfigError(f"config file {path} not found")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    return validate_config(raw)


def _lowest_symbol_group(groups) -> int:
    """The lowest group with a symbol, or 1 when no group has one."""
    return min(groups, default=1)


def validate_config(raw: dict) -> dict:
    cfg = _conform(raw, CONFIG_SCHEMA)
    part = cfg["partition"]
    k = tuple(part["k"])
    if "n" in part and part["n"] != sum(k):
        raise ConfigError(f"declared n={part['n']} but sum(k)={sum(k)}")
    m = len(k)
    seen = set()
    for spec in cfg["symbols"]:
        g = spec["group"]
        if not 1 <= g <= m:
            raise ConfigError(f"symbol group {g} outside 1..{m}")
        if g in seen:
            raise ConfigError(f"two symbols declared for group {g}")
        seen.add(g)
    if (berezin := cfg.get("berezin")) and not 1 <= berezin["group"] <= m:
        raise ConfigError(f"berezin group {berezin['group']} outside 1..{m}")
    radical = cfg["radical"]
    g = radical.setdefault("group", _lowest_symbol_group(seen))
    if not 1 <= g <= m:
        raise ConfigError(f"radical group {g} outside 1..{m}")
    gamma = radical["gamma"]
    if gamma["kind"] == "geometric_decay" and gamma["rate"] >= 1:
        raise ConfigError(f"radical.gamma.rate must be in [0, 1), got {gamma['rate']}")
    _price_raster(cfg["hull"], [k[spec["group"] - 1] for spec in cfg["symbols"]])
    _price_blocks(cfg, k)
    _price_truncation(cfg["degree_cap"], k)
    return cfg


# Bytes that one priced array may ask for; a config that needs more is
# refused before anything is allocated.
SIZE_BUDGET_BYTES = 1 << 30


def _refuse_over_budget(knob: str, need: int, what: str) -> None:
    if need > SIZE_BUDGET_BYTES:
        gib = need / 2**30 if need < 2**1000 else math.inf  # a float past 2^1024 overflows
        raise ConfigError(
            f"{knob} needs {gib:.2f} GiB for {what}, "
            f"over the budget of {SIZE_BUDGET_BYTES / 2**30:.2f} GiB"
        )


def _price_raster(hull: dict, dims: list[int]) -> None:
    """Refuse hull settings whose largest raster-path arrays exceed the
    budget: the one boundary fill, at 2x resolution, a bool cell and an int32
    row difference per cell, and each symbol group's boundary samples, k
    float sphere and k complex torus coordinates and one complex value each,
    with the face triangles of one pair of parameter axes, two a sample at
    128 bytes each (index triples, neighbour arrays, heights and order)."""
    res = hull["resolution"]
    _refuse_over_budget(f"hull.resolution {res}", (2 * res) ** 2 * 5, "the 2x boundary fill")
    for k in dims:
        count = boundary_sample_count(k, hull["ess_samples"])
        _refuse_over_budget(f"hull.ess_samples {hull['ess_samples']}",
                            count * (24 * k + 16 + 2 * 128),
                            f"{count} boundary samples of a k={k} group and their face triangles")


def _price_blocks(cfg: dict, k: tuple) -> None:
    """Refuse knobs whose largest arrays exceed the budget: the order^3-node
    Dirichlet rule of verify's check, 40 bytes a node (its nodes, weights
    and row sums), for quadrature.block_order; a gamma rule (see
    _price_gamma_rule) for quadrature.gamma_order; the degree-d block of
    each berezin.degrees entry, n^2 complex entries for n = C(d+k-1, k-1)
    and n index tuples of k ints, 80 + 44k bytes each."""
    order = cfg["quadrature"]["block_order"]
    _refuse_over_budget(f"quadrature.block_order {order}", 40 * order**3,
                        f"the {order}^3 nodes of verify's Dirichlet rule check")
    _price_gamma_rule(cfg["quadrature"]["gamma_order"], len(k))
    if berezin := cfg.get("berezin"):
        kj = k[berezin["group"] - 1]
        for d in berezin["degrees"]:
            n = math.comb(d + kj - 1, kj - 1)
            _refuse_over_budget(f"berezin.degrees {d}", 16 * n * n + n * (80 + 44 * kj),
                                f"the {n} x {n} degree-{d} block of group {berezin['group']}")


def _price_gamma_rule(order: int, m: int, factor: int = 1) -> None:
    """Refuse a gamma_order whose rule on Delta_m of order factor * order
    exceeds the budget: 16m + 40 bytes a node (the rule, the radii and two
    complex values), and the dense Jacobi matrix of its axes, 40 bytes an
    entry in eigh.  Factor 2 is the rule of verify's quadrature-doubling
    drift, which only a quasi-radial symbol that does not compile builds."""
    npts, knob = axis_points(factor * order, m), f"quadrature.gamma_order {order}"
    rule = "a gamma rule" if factor == 1 else f"the {factor}x gamma rule of quadrature-doubling"
    _refuse_over_budget(knob, (16 * m + 40) * npts**m, f"the {npts}^{m} nodes of {rule}")
    _refuse_over_budget(knob, 40 * npts**2, f"the dense {npts} x {npts} Jacobi matrix of {rule}")


def _price_truncation(D: int, k: tuple) -> None:
    """Refuse a degree_cap whose largest arrays exceed the budget: per kappa,
    m ints in a tuple (80 + 44m bytes) and the int64 kappa array, and a
    complex coefficient; and a run of AlgebraModel.stacks, C(D - t + s, s)
    blocks of n x n for s size-1 groups, n growing by one degree of total t
    on the group whose (log-concave) block size grows most, to the peak."""
    m, knob = len(k), f"degree_cap {D}"
    count = math.comb(D + m, m)
    _refuse_over_budget(knob, (96 + 52 * m) * count, f"the per-kappa arrays of {count} kappas")
    s, degrees, n, last = k.count(1), [0] * m, 1, 0
    for t in range(D + 1):
        run = math.comb(D - t + s, s)
        if 16 * run * n * n < last:
            break
        last = 16 * run * n * n
        _refuse_over_budget(knob, last, f"a run of {run} stacked {n} x {n} blocks")
        j = max(range(m), key=lambda i: (degrees[i] + k[i]) / (degrees[i] + 1))
        n = n * (degrees[j] + k[j]) // (degrees[j] + 1)
        degrees[j] += 1


@dataclass(eq=False)
class Setup:
    config: dict
    model: AlgebraModel
    out_dir: Path
    warnings: list[str]
    berezin_w: list[complex] | None
    berezin_radial: QuasiRadialSymbol | None


def _field(spec: dict, key: str, where: str, length: int | None = None):
    """spec[key], which spec's kind needs; a missing one, or a list whose
    length is not ``length``, is a ConfigError."""
    if key not in spec:
        raise ConfigError(f"{where} of kind {spec['kind']!r} needs the field {key!r}")
    if length is not None and len(spec[key]) != length:
        raise ConfigError(f"{where}: {key!r} has {len(spec[key])} entries, not {length}")
    return spec[key]


def _build_quasi_radial(spec, m: int) -> QuasiRadialSymbol | None:
    if spec is None:
        return None
    kind = spec["kind"]
    if kind == "one":
        return QuasiRadialSymbol.one(m)
    if kind == "expression":
        return QuasiRadialSymbol.from_expression(m, _field(spec, "text", "quasi_radial"))
    return QuasiRadialSymbol.power(_field(spec, "exponents", "quasi_radial", m))


def _build_symbol(spec, cfg: PartitionConfig) -> PseudoHomogeneousSymbol:
    g = spec["group"]
    kj = cfg.k[g - 1]
    kind = spec["kind"]
    bc = spec.get("boundary_continuous", True)
    where = f"symbol of group {g}"
    if kind in ("constant", "quasi_homogeneous") and "boundary_continuous" in spec:
        raise ConfigError(
            f"{where}: kind {kind!r} is continuous on the closed sphere and takes no 'boundary_continuous'"
        )
    if kind == "constant":
        return constant_symbol(g, kj, _complex_from_json(spec.get("value", 1.0)))
    if kind == "quasi_homogeneous":
        return builtin_quasi_homogeneous(g, _field(spec, "p", where, kj))
    if kind == "profile_monomial":
        coeff = _complex_from_json(spec.get("coeff", 1.0))
        return profile_monomial(g, _field(spec, "powers", where, kj), coeff, boundary_continuous=bc)
    build = profile_symbol if kind == "profile" else expression_symbol
    return build(g, kj, _field(spec, "text", where), boundary_continuous=bc)


def build_setup(config: dict, *, threads: int = 0, no_cache: bool = False, out: str | None = None) -> Setup:
    """The model of config, and the parsed point and radial
    factor of its berezin probe; threads, no_cache and quadrature.torus_grid
    are accepted and ignored.
    The doubled gamma rule of a quasi-radial symbol that does not compile, and
    the doubled block rule of a symbol profile without terms, are priced here;
    a warning names each rule the node budget cuts (verify's gamma check
    builds one at gamma_order on any config)."""
    cfg = PartitionConfig(k=tuple(config["partition"]["k"]), lam=float(config["partition"]["lambda"]))
    gamma, order = config["quadrature"]["gamma_order"], config["quadrature"]["block_order"]
    quasi = _build_quasi_radial(config["quasi_radial"], cfg.m)
    rules = [("quadrature.gamma_order", gamma, cfg.m)]
    if quasi is not None and quasi.terms is None:
        _price_gamma_rule(gamma, cfg.m, factor=2)
        rules.append(("quadrature.gamma_order", 2 * gamma, cfg.m))
    symbols = {spec["group"]: _build_symbol(spec, cfg) for spec in config["symbols"]}
    w = radial = None
    if berezin := config.get("berezin"):
        g, w = berezin["group"], [_complex_from_json(v) for v in berezin["w"]]
        if len(w) != cfg.k[g - 1]:
            raise ConfigError(f"berezin w has {len(w)} coordinates, group {g} has {cfg.k[g - 1]}")
        if not 0.0 < (norm := float(np.linalg.norm(w))) < 1.0:
            raise ConfigError(f"berezin w must lie in the open ball minus 0, |w| = {norm:.4f}")
        if text := berezin.get("radial_expression"):
            try:
                radial = QuasiRadialSymbol.from_expression(1, text)
            except SymbolError as exc:
                raise ConfigError(f"berezin.radial_expression: {exc}") from exc
    for sym in symbols.values():
        # A profile without terms has its entries on rules on Delta_(k-1), at
        # 2x in quadrature-doubling and semisimple's refinement: 24k + 32 bytes
        # a node (the rule, its closed nodes and their roots, two complex values).
        if any(prof.terms is None for prof in sym.modes.values()):
            p = sym.dim - 1
            n = axis_points(2 * order, p)
            _refuse_over_budget(f"quadrature.block_order {order}", (24 * sym.dim + 32) * n**p,
                                f"the {n}^{p} nodes of the 2x block rule of group {sym.group}")
            rules += [("quadrature.block_order", order, p), ("quadrature.block_order", 2 * order, p)]
    warnings = [f"{knob}: rules of order {o} on Delta_{p} take {n} points per axis, "
                f"{n}^{p} nodes within the budget of {o}^3"
                for knob, o, p in dict.fromkeys(rules) if (n := axis_points(o, p)) < o]
    out_dir = Path(out or config["output_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir} cannot be made: {exc}")
    model = AlgebraModel(
        cfg=cfg, quasi_radial=quasi, symbols=symbols, block_order=order, gamma_order=gamma,
        eig_tol=config["eig_tol"],
        hull_resolution=config["hull"]["resolution"],
        ess_samples=config["hull"]["ess_samples"],
    )
    return Setup(config=config, model=model, out_dir=out_dir, warnings=warnings,
                 berezin_w=w, berezin_radial=radial)


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _non_finite_path(obj, where: str) -> str | None:
    """Where in obj its first non-finite number sits, in sorted-key order."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else where
    if isinstance(obj, dict):
        parts = ((f"{where}.{key}", obj[key]) for key in sorted(obj))
    elif isinstance(obj, (list, tuple)):
        parts = ((f"{where}[{i}]", value) for i, value in enumerate(obj))
    else:
        return None
    return next((found for w, v in parts if (found := _non_finite_path(v, w))), None)


def _to_json(obj, where: str, **kwargs) -> str:
    """obj as JSON text, which has no NaN or infinity: a non-finite number
    is a numerical failure, named by its place in obj, and nothing is written."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError:
        raise ToeplitzError(f"{_non_finite_path(obj, where)} is not a finite number") from None


def canonical_payload_bytes(payload) -> bytes:
    return _to_json(payload, "payload", sort_keys=True, separators=(",", ":")).encode()


def write_report(setup: Setup, command: str, payload: dict, started: float) -> Path:
    # wall time lives in the envelope: the payload is the reproducible
    # part (identical config + version => identical bytes).
    body = {
        "command": command,
        "config": setup.config,
        "payload": payload,
        "payload_sha256": sha256(canonical_payload_bytes(payload)).hexdigest(),
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - started, 3),
        "warnings": list(setup.warnings),
    }
    path = setup.out_dir / f"report_{command}.json"
    path.write_text(_to_json(body, "report", sort_keys=True, indent=1))
    return path


def _write_spectra_csv(path: Path, rows):
    import csv

    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re", "im", "j", "d", "multiplicity"])
        for row in rows:
            writer.writerow(row)


def _region_json(region) -> dict:
    return {
        "x0": region.x0,
        "y0": region.y0,
        "cell": region.cell,
        "resolution": region.resolution,
        "provenance": region.provenance,
        "rows": [[list(run) for run in row] for row in region.run_length_rows()],
    }


def _region_svg(grid: dict, points=None) -> str:
    """SVG of a region from its `_region_json` record."""
    x0, y0, cell = grid["x0"], grid["y0"], grid["cell"]
    side = grid["resolution"] * cell
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0} {y0} {side} {side}">']
    path_bits = []
    for iy, row in enumerate(grid["rows"]):
        y = y0 + iy * cell
        for start, length in row:
            x = x0 + start * cell
            w = length * cell
            path_bits.append(f"M{x:.6g} {y:.6g}h{w:.6g}v{cell:.6g}h{-w:.6g}Z")
    parts.append(f'<path fill="#4477aa" stroke="none" d="{"".join(path_bits)}"/>')
    for z in points or []:
        parts.append(
            f'<circle cx="{z.real:.6g}" cy="{z.imag:.6g}" r="{2 * cell:.6g}" fill="#cc3311"/>'
        )
    parts.append("</svg>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_assemble(setup: Setup) -> dict:
    from .gelfand import assemble_finite_sum

    D = setup.config["degree_cap"]
    op = assemble_finite_sum(_product_element(setup), setup.model, D)
    basis = setup.model.basis(D)
    blocks_info = []
    for j in sorted(setup.model.symbols):
        for d in range(D + 1):
            b = setup.model.block(j, d)
            blocks_info.append(
                {
                    "j": j,
                    "d": d,
                    "dim": len(b),
                    "fro": float(np.linalg.norm(b)),
                    "nnz": int(np.count_nonzero(np.abs(b) > 1e-15)),
                }
            )
    payload = {
        "global_dim": basis.dim,
        "kappa_count": len(basis.kappas),
        "operator_fro": frobenius(op),
        "identity_deviation_fro": frobenius({k: b - np.eye(len(b)) for k, b in op.items()}),
        "blocks": blocks_info,
    }
    return payload


def cmd_spectrum(setup: Setup) -> dict:
    from .planar import accumulation_check

    D = setup.config["degree_cap"]
    per_group = {}
    csv_rows = []
    for j in range(1, setup.model.cfg.m + 1):
        degrees = {}
        for d in range(D + 1):
            e = setup.model.eigen(j, d)
            setup.warnings.extend(e.warnings)
            degrees[str(d)] = {
                "distinct": [c2j(z) for z in e.distinct],
                "multiplicities": [int(v) for v in e.multiplicities],
            }
            for z, mult in zip(e.distinct, e.multiplicities):
                csv_rows.append([float(z.real), float(z.imag), j, d, int(mult)])
        entry = {"by_degree": degrees}
        sym = setup.model.symbols.get(j)
        if sym is not None and sym.boundary_continuous:
            acc = accumulation_check(setup.model, j, D)
            entry["accumulation"] = {
                "candidates": [c2j(z) for z in acc.candidates],
                "violations": [c2j(z) for z in acc.violations],
                "ok": acc.ok,
            }
        per_group[str(j)] = entry
    _write_spectra_csv(setup.out_dir / "spectra.csv", csv_rows)
    return {"Dmax": D, "groups": per_group}


def cmd_hull(setup: Setup) -> dict:
    from .planar import resolution_drift_cells, spectrum_with_hull

    D = setup.config["degree_cap"]
    payload, convex = {"groups": {}}, {}
    for j in range(1, setup.model.cfg.m + 1):
        swh = spectrum_with_hull(setup.model, j, D)
        grids = {"sp": _region_json(swh.sp_region), "hull": _region_json(swh.hull_region)}
        for name, grid in grids.items():
            file = f"region_{name}_{j}.json"
            (setup.out_dir / file).write_text(_to_json(grid, file, sort_keys=True))
        (setup.out_dir / f"hull_{j}.svg").write_text(_region_svg(grids["hull"], swh.point_values))
        del grids
        drift_cells = resolution_drift_cells(swh.hull_region, swh.hull_2x)
        payload["groups"][str(j)] = {
            "sp_cells": swh.sp_region.count(),
            "hull_cells": swh.hull_region.count(),
            "hull_area": swh.hull_region.area(),
            "hull_area_2x": swh.hull_2x.area(),
            "resolution_drift_cells": drift_cells,
            "resolution_drift_rel": drift_cells / max(swh.hull_region.count(), 1),
            "extra_cells": swh.extra_cells,
        }
        convex[str(j)] = {
            "polynomially_convex": swh.polynomially_convex,
            "extra_cells": swh.extra_cells,
            "extra_area": swh.extra_cells * swh.hull_region.cell ** 2,
            "spectrum_cells": swh.sp_region.count(),
        }
        del swh
    # Inverse-closedness holds iff every generator spectrum is polynomially convex.
    payload["inverse_closed"] = all(g["polynomially_convex"] for g in convex.values())
    payload["inverse_closed_per_group"] = convex
    return payload


def cmd_berezin(setup: Setup) -> dict:
    import csv

    spec = setup.config.get("berezin")
    if not spec:
        raise ConfigError("berezin command needs a 'berezin' config section")
    j = spec["group"]
    if j not in setup.model.symbols:
        raise ConfigError(f"group {j} has no symbol to probe")
    probe = berezin_sequence(setup.model, j, setup.berezin_w, spec["degrees"],
                             radial_profile=setup.berezin_radial)
    rows = []
    for d, v in zip(probe.degrees, probe.values):
        rows.append([d, float(v.real), float(v.imag), abs(v - probe.boundary_value)])
    with (setup.out_dir / "berezin.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d", "re", "im", "abs_err"])
        writer.writerows(rows)
    return {
        "group": j,
        "w": [c2j(v) for v in probe.w],
        "degrees": list(probe.degrees),
        "values": [c2j(v) for v in probe.values],
        "norm_devs": [float(v) for v in probe.norm_devs],
        "boundary_value": c2j(probe.boundary_value),
        "abs_errors": [row[3] for row in rows],
    }


def _product_element(setup: Setup):
    """The element D_{gamma_a} T_1 ... T_m of the dense subalgebra, a gelfand.FiniteSum."""
    from .gelfand import DiagonalCoefficient, FiniteSum

    m = setup.model.cfg.m
    gamma = DiagonalCoefficient.from_callable(setup.model.gamma, "gamma_a")
    rho = tuple(1 if setup.model.symbols.get(i) is not None else 0 for i in range(1, m + 1))
    return FiniteSum.term(m, gamma, rho)


def cmd_gelfand(setup: Setup) -> dict:
    from .gelfand import evaluate_gelfand, sample_ideal_space, validate_gelfand_points

    D = setup.config["degree_cap"]
    gconf = setup.config["gelfand"]
    points = sample_ideal_space(
        setup.model, D, gconf["budget"],
        K_sur=setup.config["surrogate_kappa"],
        zeta_per_region=gconf["zeta_per_region"],
    )
    element = _product_element(setup)
    values = evaluate_gelfand(element, points)
    invalid = int(np.count_nonzero(~validate_gelfand_points(setup.model, points)))
    records = [
        {
            "theta": list(p.theta),
            "kappa_theta": list(p.kappa_theta),
            "surrogate": p.surrogate,
            "zeta": [c2j(z) for z in p.zeta],
            "value": c2j(v),
        }
        for p, v in zip(points, values)
    ]
    file = "gelfand_points.json"
    (setup.out_dir / file).write_text(_to_json(records, file, sort_keys=True))
    radius = max(abs(v) for v in values)
    strata = {theta: [] for theta in product((0, 1), repeat=setup.model.cfg.m)}
    for p, v in zip(points, values):
        strata[p.theta].append(abs(v))
    # On H_kappa the element is gamma_a(kappa) times the kron of the symbol
    # groups' blocks, whose spectral radius is the product of theirs.
    model = setup.model
    radii = {j: [float(np.max(np.abs(model.eigen(j, d).values))) for d in range(D + 1)]
             for j in sorted(model.symbols)}
    mat_radius = max(
        abs(model.gamma(kappa)) * math.prod(radii[j][kappa[j - 1]] for j in radii)
        for kappa in enumerate_kappa(model.cfg, D)
    )
    return {
        "n_points": len(points),
        "n_exact": sum(1 for p in points if not p.surrogate),
        "n_surrogate": sum(1 for p in points if p.surrogate),
        "invalid_points": invalid,
        "gelfand_radius": radius,
        "strata": [
            {"theta": list(theta), "n_points": len(mods), "sup_abs_value": max(mods, default=None)}
            for theta, mods in strata.items()
        ],
        "matrix_spectral_radius": mat_radius,
        "element": "D_gamma_a * T_1...T_m",
        "surrogate_note": "surrogate strata evaluate gamma at the finite directive "
        f"kappa_j = {setup.config['surrogate_kappa']}; they approximate genuine limits",
    }


def cmd_semisimple(setup: Setup) -> dict:
    from .radical import is_semisimple

    D = setup.config["degree_cap"]
    verdict = is_semisimple(setup.model, D)
    setup.warnings.extend(verdict.warnings)
    halved = is_semisimple(setup.model, D, tol=0.5e-10)
    return {
        "semisimple": verdict.semisimple,
        "upto": verdict.upto,
        "witness": list(verdict.witness) if verdict.witness else None,
        "structural": verdict.structural,
        "description": verdict.describe(),
        "stable_under_tolerance_halving": verdict.semisimple == halved.semisimple
        and verdict.witness == halved.witness,
    }


def cmd_radical(setup: Setup) -> dict:
    from .gelfand import (DiagonalCoefficient, assemble_finite_sum, random_finite_sum,
                          sample_ideal_space, spectral_radius_estimate)
    from .radical import (SUPPORT_TOL, decompose_by_division, escaped_gamma, is_semisimple,
                          norm_constants, power_norm_sequence, radical_generator)

    D = setup.config["degree_cap"]
    rconf = setup.config["radical"]
    j, level, gspec = rconf["group"], rconf["level"], rconf["gamma"]
    if gspec["kind"] == "indicator_degree":
        gamma = DiagonalCoefficient.indicator_degree(j, gspec["d"])
    else:
        gamma = DiagonalCoefficient.geometric_decay(j, float(gspec["rate"]))
    K_sur = setup.config["surrogate_kappa"]
    if escaped_gamma(gamma, setup.model.cfg.m, j, K_sur) > SUPPORT_TOL:
        raise ConfigError(
            f"surrogate_kappa {K_sur} is too small: radical gamma {gamma.label!r} "
            f"does not vanish at kappa_{j} = {K_sur}"
        )
    verdict = is_semisimple(setup.model, D)
    setup.warnings.extend(verdict.warnings)
    gen = radical_generator(setup.model, j, gamma, level, D, K_sur=K_sur)
    gconf = setup.config["gelfand"]
    points = sample_ideal_space(
        setup.model, D, gconf["budget"], K_sur=K_sur, zeta_per_region=gconf["zeta_per_region"]
    )
    psi_max = spectral_radius_estimate(gen.finite_sum, points)
    op = assemble_finite_sum(gen.finite_sum, setup.model, D)
    powers = power_norm_sequence(op, 6)
    rng = np.random.default_rng(setup.config["seed"])
    residuals = []
    for _ in range(3):
        A = random_finite_sum(rng, setup.model.cfg, D, 4)
        parts = decompose_by_division(A, j, min(2, D), setup.model)
        residuals.append(parts.reconstruction_residual(setup.model, D))
    nc = norm_constants(setup.model, j, min(2, D))
    return {
        "semisimple": verdict.semisimple,
        "verdict": verdict.describe(),
        "witness": list(verdict.witness) if verdict.witness else None,
        "generator": {
            "group": j,
            "level": level,
            "f_levels": list(gen.f_levels),
            "fro": frobenius(op),
            "power_norms": powers,
            "gelfand_sup": psi_max,
            "sampled_points": len(points),
            "f_l_note": gen.f_l_note,
        },
        "reconstruction_residuals": residuals,
        "norm_constants": list(nc.values),
        "norm_constants_flagged": list(nc.flagged),
    }


# ---------------------------------------------------------------------------
# Verify
# ---------------------------------------------------------------------------


def cmd_verify(setup: Setup) -> dict:
    from . import checks
    from .gelfand import DiagonalCoefficient, random_finite_sum

    D = setup.config["degree_cap"]
    model, cfg = setup.model, setup.model.cfg
    # One generator, drawn in order by the Dirichlet trials, the hull's
    # finite points and the division sums.
    rng = np.random.default_rng(setup.config["seed"])
    # verify keeps its own target: radical.group may name another group.
    target_j = _lowest_symbol_group(model.symbols)
    records = [
        *checks.dirichlet_vs_simplex(rng, 60, model.block_order, power=4),
        *checks.gamma_rules(model.quasi_radial, cfg, min(D + 2, 8), model.gamma_order),
        *checks.identity_blocks(cfg.k, min(D, 6), model.block_order),
        *checks.cross_block_orthogonality(model),
        *checks.commutativity_and_product(model, D),
        *checks.quadrature_doubling(model, min(D, 4), min(D, 3)),
        *checks.tensor_eigenvectors(model, min(D, 4)),
        *checks.planar_hulls(rng, 12, 256),
        *checks.projection_identities(model.basis(min(D, 4)), min(1, D)),
        *checks.division_reconstruction(
            model,
            [(random_finite_sum(rng, cfg, min(D, 3), 4), min(2, D)) for _ in range(5)],
            target_j,
            min(D, 3),
        ),
        *checks.radical_gelfand_vanishing(
            model, target_j, DiagonalCoefficient.indicator_degree(target_j, min(1, D)), D,
            sample_cap=min(D, 4), budget=400, K_sur=setup.config["surrogate_kappa"],
        ),
    ]
    return {"checks": records, "all_passed": all(c["passed"] for c in records)}


def _schema_defaults(schema: dict) -> dict:
    """The default of each property of schema, with the defaults inside it
    filled, or else the defaults that the property holds, if any."""
    found = {key: _conform(sub["default"], sub, key) if "default" in sub else _schema_defaults(sub)
             for key, sub in schema.get("properties", {}).items()}
    return {key: value for key, value in found.items() if value != {}}


def cmd_info() -> dict:
    return {
        "tool": "toeplitz-spectra",
        "version": __version__,
        "defaults": _schema_defaults(CONFIG_SCHEMA),
        "schema": CONFIG_SCHEMA,
        "commands": [*COMMANDS, "info"],
    }


COMMANDS = {
    "assemble": cmd_assemble,
    "spectrum": cmd_spectrum,
    "hull": cmd_hull,
    "berezin": cmd_berezin,
    "gelfand": cmd_gelfand,
    "semisimple": cmd_semisimple,
    "radical": cmd_radical,
    "verify": cmd_verify,
}


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ConfigError on a bad command line instead of printing usage
    text and exiting, so usage errors follow the JSON error contract."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="toeplitz-spectra",
        description="Finite-truncation laboratory for Toeplitz operator algebras "
        "on weighted Bergman spaces over the unit ball.",
    )
    parser.add_argument(
        "command", choices=sorted(list(COMMANDS) + ["info"]), help="what to run"
    )
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument(
        "--threads", type=int, default=0, help="ignored (assembly is single-threaded)")
    parser.add_argument(
        "--no-cache", action="store_true", help="ignored (blocks are not stored on disk)")
    parser.add_argument("--out", help="output directory (overrides config)")
    return parser


def main(argv=None) -> int:
    if argv is None:
        # A command process (python -m, or the script): no collection, those
        # at exit included, walks its modules again.  main([...]) leaves gc be.
        gc.freeze()
        gc.enable()
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        _emit_error("ConfigError", str(exc))
        return 1
    try:
        return _run(args)
    except Exception as exc:
        # Out of memory or a defect: still one JSON line and a documented code.
        _emit_error(type(exc).__name__, str(exc), traceback.format_exc())
        return 2


def _run(args) -> int:
    started = time.monotonic()
    if args.command == "info":
        print(json.dumps(cmd_info(), sort_keys=True, indent=1))
        return 0
    if not args.config:
        _emit_error("ConfigError", "--config FILE is required for this command")
        return 1
    try:
        config = load_config(args.config)
        setup = build_setup(config, no_cache=args.no_cache, out=args.out)
    except ToeplitzError as exc:
        # anything raised while building the setup is a configuration problem
        _emit_error(type(exc).__name__, str(exc))
        return 1
    try:
        payload = COMMANDS[args.command](setup)
        path = write_report(setup, args.command, payload, started)
    except ConfigError as exc:
        _emit_error("ConfigError", str(exc))
        return 1
    except ToeplitzError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 2
    print(f"report written to {path}")
    if args.command != "verify":
        return 0
    for c in payload["checks"]:
        print(f"  [{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: "
              f"residual {c['residual']:.3e} (tol {c['tolerance']:.3e})")
    if not payload["all_passed"]:
        failing = [c["name"] for c in payload["checks"] if not c["passed"]]
        _emit_error("VerificationFailure", f"failing checks: {', '.join(failing)}")
        return 3
    return 0


def _emit_error(kind: str, message: str, trace: str | None = None):
    error = {"type": kind, "message": message}
    if trace is not None:
        error["traceback"] = trace
    sys.stderr.write(json.dumps({"error": error}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
