"""Gelfand theory of the algebra at desk scale.

Multiplicative functionals are labeled by a stratum tuple theta in {0,1}^m:
coordinates with theta_j = 1 stay at a finite group degree kappa_j (and the
generator value zeta_j must be a block eigenvalue there), while coordinates
with theta_j = 0 escape to infinity (zeta_j then ranges over the essential
spectrum, the boundary image of the symbol, and is taken from its boundary
samples).  Functionals with theta = 1 are realized exactly by
joint eigenvectors; all other strata are genuinely infinite limits, so they
are represented by clearly-labeled surrogates that evaluate diagonal
coefficients at a large directive degree K_sur.

Elements of the dense subalgebra are finite sums of terms
D_gamma * T_1^{rho_1} ... T_m^{rho_m}; on such a sum the functional at
(mu, zeta) takes the value sum_rho gamma_rho(mu) zeta^rho, and products of
sums are expanded symbolically so multiplicativity is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Callable

import numpy as np

from .assembly import AlgebraModel, TruncatedOperator
from .errors import GelfandError
from .lattice import Index, PartitionConfig, enumerate_kappa
from .spectra import SpectralContext


# ---------------------------------------------------------------------------
# Diagonal coefficients and finite sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiagonalCoefficient:
    """A bounded diagonal operator from the quasi-radial algebra, viewed as a
    function gamma(kappa) on Z_+^m, held as data: a closed kind (``const``;
    ``degree``, a function of one group degree kappa_j, as are
    ``indicator_degree``, ``geometric_decay`` and per-degree tables;
    ``callable``, a black box memoized per kappa, as is a table over kappa),
    or a ``sum`` (of the terms ``FiniteSum`` merges) or ``prod`` (``*``).

    ``values`` evaluates it over a list of kappas as one array, bit for bit
    as the scalar ``__call__``: products as the real/imaginary splits of
    Python's complex product (numpy's complex multiply may fuse them), sums
    from left to right onto zero, and a ``degree`` kind in Python once per
    distinct degree (``rate ** kappa_j`` by libm's pow, not ``np.power``).
    """

    kind: str
    args: tuple
    name: str = ""

    @property
    def label(self) -> str:
        if self.kind in ("sum", "prod"):
            parts = [g.label for g in self.args]
            return "+".join(parts) if self.kind == "sum" else "({})({})".format(*parts)
        return self.name or repr(self.args[0])

    def __mul__(self, other: "DiagonalCoefficient") -> "DiagonalCoefficient":
        return DiagonalCoefficient("prod", (self, other))

    def __call__(self, kappa: Index) -> complex:
        kappa = tuple(int(v) for v in kappa)
        if not np.isfinite(val := self._at(kappa)):
            raise GelfandError(f"diagonal coefficient {self.label!r} non-finite at {kappa}")
        return val

    def _at(self, kappa: Index) -> complex:
        kind, args = self.kind, self.args
        if kind == "const":
            return args[0]
        if kind == "degree":
            return complex(args[1](kappa[args[0] - 1]))
        if kind == "callable":
            if kappa not in args[1]:
                args[1][kappa] = complex(args[0](kappa))
            return args[1][kappa]
        if kind == "sum":
            return sum(g._at(kappa) for g in args)
        return args[0]._at(kappa) * args[1]._at(kappa)

    def values(self, kappas: np.ndarray, memo: dict | None = None) -> np.ndarray:
        """gamma at each row of the (K, m) integer array ``kappas``; subterms
        shared within one ``memo`` are evaluated once."""
        memo = {} if memo is None else memo
        if id(self) in memo:
            return memo[id(self)]
        kind, args = self.kind, self.args
        if kind == "const":
            out = np.full(len(kappas), args[0])
        elif kind == "degree":
            degrees, where = np.unique(kappas[:, args[0] - 1], return_inverse=True)
            out = np.array([complex(args[1](d)) for d in degrees.tolist()], dtype=complex)[where]
        elif kind == "sum":
            out = np.zeros(len(kappas), dtype=complex)
            for g in args:
                out = out + g.values(kappas, memo)
        elif kind == "prod":
            a, b = (g.values(kappas, memo) for g in args)
            out = np.empty(len(kappas), dtype=complex)
            with np.errstate(all="ignore"):  # an overflow is reported below
                out.real = a.real * b.real - a.imag * b.imag
                out.imag = a.real * b.imag + a.imag * b.real
        else:
            out = np.array([self._at(k) for k in map(tuple, kappas.tolist())], dtype=complex)
        if not np.all(np.isfinite(out)):
            kappa = tuple(kappas[np.argmin(np.isfinite(out))].tolist())
            raise GelfandError(f"diagonal coefficient {self.label!r} non-finite at {kappa}")
        memo[id(self)] = out
        return out

    @classmethod
    def constant(cls, value: complex = 1.0) -> "DiagonalCoefficient":
        return cls("const", (complex(value),))

    @classmethod
    def degree_table(cls, j: int, table: dict, label: str) -> "DiagonalCoefficient":
        """gamma(kappa) = table[kappa_j], zero off the table."""
        frozen = {int(d): complex(v) for d, v in table.items()}
        return cls("degree", (j, lambda kj: frozen.get(kj, 0j)), label)

    @classmethod
    def indicator_degree(cls, j: int, d: int) -> "DiagonalCoefficient":
        """gamma(kappa) = 1 iff kappa_j = d; this is the mask of Q_d^(j)."""
        return cls.degree_table(j, {d: 1.0}, f"[k{j}={d}]")

    @classmethod
    def geometric_decay(cls, j: int, rate: float) -> "DiagonalCoefficient":
        """gamma(kappa) = rate ** kappa_j."""
        return cls("degree", (j, lambda kj: rate**kj), f"{rate}^k{j}")

    @classmethod
    def from_table(cls, table: dict) -> "DiagonalCoefficient":
        """gamma(kappa) = table[kappa], zero off the table."""
        frozen = {tuple(k): complex(v) for k, v in table.items()}
        return cls.from_callable(lambda kappa: frozen.get(kappa, 0j), "table")

    @classmethod
    def from_callable(cls, fn: Callable, label: str) -> "DiagonalCoefficient":
        return cls("callable", (fn, {}), label)


@dataclass(frozen=True, eq=False)
class FiniteSum:
    """Element of the dense subalgebra: finitely many (gamma, rho) terms."""

    m: int
    terms: tuple[tuple[DiagonalCoefficient, Index], ...]

    def __post_init__(self):
        for _, rho in self.terms:
            if len(rho) != self.m or any(v < 0 for v in rho):
                raise GelfandError(f"bad generator power {rho} for m={self.m}")

    @classmethod
    def zero(cls, m: int) -> "FiniteSum":
        return cls(m=m, terms=())

    @classmethod
    def diagonal(cls, m: int, gamma: DiagonalCoefficient) -> "FiniteSum":
        return cls(m=m, terms=((gamma, (0,) * m),))

    @classmethod
    def one(cls, m: int) -> "FiniteSum":
        return cls.diagonal(m, DiagonalCoefficient.constant(1.0))

    @classmethod
    def generator(cls, m: int, j: int, power: int = 1) -> "FiniteSum":
        rho = tuple(power if i == j else 0 for i in range(1, m + 1))
        return cls(m=m, terms=((DiagonalCoefficient.constant(1.0), rho),))

    @classmethod
    def term(cls, m: int, gamma: DiagonalCoefficient, rho) -> "FiniteSum":
        return cls(m=m, terms=((gamma, tuple(int(v) for v in rho)),))

    def _merged(self, raw: list[tuple[DiagonalCoefficient, Index]]) -> "FiniteSum":
        """Terms of equal power summed, in the order powers are first seen."""
        by_rho: dict[Index, list[DiagonalCoefficient]] = {}
        for gamma, rho in raw:
            by_rho.setdefault(rho, []).append(gamma)
        parts = (gs[0] if len(gs) == 1 else DiagonalCoefficient("sum", tuple(gs))
                 for gs in by_rho.values())
        return FiniteSum(m=self.m, terms=tuple(zip(parts, by_rho)))

    def __add__(self, other: "FiniteSum") -> "FiniteSum":
        if self.m != other.m:
            raise GelfandError("cannot add sums over different group counts")
        return self._merged(list(self.terms) + list(other.terms))

    def __sub__(self, other: "FiniteSum") -> "FiniteSum":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "FiniteSum":
        factor = DiagonalCoefficient.constant(scalar)
        return FiniteSum(m=self.m, terms=tuple((factor * g, rho) for g, rho in self.terms))

    def __mul__(self, other: "FiniteSum") -> "FiniteSum":
        """Symbolic expansion: gammas multiply pointwise, powers add."""
        if isinstance(other, (int, float, complex)):
            return complex(other) * self
        if self.m != other.m:
            raise GelfandError("cannot multiply sums over different group counts")
        return self._merged([
            (ga * gb, tuple(x + y for x, y in zip(ra, rb)))
            for ga, ra in self.terms for gb, rb in other.terms
        ])


def random_finite_sum(
    rng: np.random.Generator, cfg: PartitionConfig, cap: int, count: int
) -> FiniteSum:
    """count random (gamma, rho) terms: rho_j in {0, 1, 2}, gamma a table of
    complex normals over |kappa| <= cap (zero beyond)."""
    total = FiniteSum.zero(cfg.m)
    kappas = enumerate_kappa(cfg, cap)
    for _ in range(count):
        rho = tuple(int(rng.integers(0, 3)) for _ in range(cfg.m))
        # one draw of 2K normals is the stream of K (real, imag) pairs
        z = rng.standard_normal(2 * len(kappas)).tolist()
        table = dict(zip(kappas, map(complex, z[0::2], z[1::2])))
        total = total + FiniteSum.term(cfg.m, DiagonalCoefficient.from_table(table), rho)
    return total


def assemble_finite_sum(A: FiniteSum, model: AlgebraModel, D: int) -> TruncatedOperator:
    """Materialize a finite sum on the cap-D truncation, blocks in basis order;
    each coefficient is one array over the kappas (``AlgebraModel.stacks``)."""
    if A.m != model.cfg.m:
        raise GelfandError(f"sum has m={A.m}, model has m={model.cfg.m}")
    runs = model.stacks(D, [A.terms])
    blocks = {k: b for kappas, (stack,) in runs for k, b in zip(kappas, stack)}
    return TruncatedOperator(model.basis(D), {k: blocks[k] for k in model.basis(D).kappas})


# ---------------------------------------------------------------------------
# Points of the maximal ideal space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GelfandPoint:
    """A sampled multiplicative functional.

    theta flags which group coordinates remain finite; mu_kappa is the full
    evaluation directive (exact kappa when theta = 1, the surrogate degree
    K_sur in escaped coordinates otherwise); zeta collects the generator
    values.  Surrogate points are approximations by construction and are
    labeled as such everywhere they are reported.
    """

    theta: Index
    kappa_theta: Index
    mu_kappa: Index
    zeta: tuple[complex, ...]
    surrogate: bool


def evaluate_gelfand(A: FiniteSum, point: GelfandPoint) -> complex:
    """sum_rho gamma_rho(mu) zeta^rho; exact on the theta = 1 stratum, a
    labeled heuristic at the finite directive degree of surrogate points."""
    if A.m != len(point.theta):
        raise GelfandError("sum and point have different group counts")
    total = 0.0 + 0.0j
    for gamma, rho in A.terms:
        factor = gamma(point.mu_kappa)
        for zj, pj in zip(point.zeta, rho):
            if pj:
                factor *= zj**pj
        total += factor
    return complex(total)


def zeta_picks(samples: np.ndarray, limit: int) -> list[complex]:
    """At most ``limit`` escaped values from a group's boundary samples: the
    first sample of largest modulus, where the sup of a functional over the
    image lies, then limit - 1 samples spread evenly over the sample order;
    a value that repeats is kept once, so a constant image gives one."""
    flat = samples.ravel()
    spread = np.arange(limit - 1) * flat.size // max(limit - 1, 1)
    picks = flat[np.concatenate([[np.argmax(np.abs(flat))], spread]).astype(np.intp)]
    return list(dict.fromkeys(picks.tolist()))


def sample_ideal_space(
    ctx: SpectralContext, Dmax: int, budget: int = 1000, *, K_sur: int = 10_000,
    zeta_per_region: int = 8,
) -> list[GelfandPoint]:
    """Deterministic sample of the maximal ideal space.

    Emits every exact point (kappa, zeta) with |kappa| <= Dmax and zeta in
    the per-block spectra, then surrogate points for each stratum
    theta != 1, in theta order: the budget is split evenly over those
    strata, and a share that a stratum leaves unused passes on to the
    strata after it.  An escaped zeta_j takes the `zeta_picks` of group
    j's boundary samples.
    """
    if budget < 1:
        raise GelfandError("budget must be at least 1")
    m = ctx.cfg.m
    points = [
        GelfandPoint((1,) * m, kappa, kappa, tuple(complex(z) for z in combo), False)
        for kappa in enumerate_kappa(ctx.cfg, Dmax)
        for combo in product(*(ctx.distinct(j, kappa[j - 1]) for j in range(1, m + 1)))
    ]
    strata = [t for t in product((0, 1), repeat=m) if t != (1,) * m]
    # every group escapes in the stratum theta = 0
    escaped = {j: zeta_picks(ctx.boundary_samples(j), zeta_per_region) for j in range(1, m + 1)}
    left = budget
    for n, theta in enumerate(strata):
        jfin = [j for j in range(1, m + 1) if theta[j - 1] == 1]
        candidates = (
            GelfandPoint(theta, kt, mu, tuple(complex(z) for z in combo), True)
            for kt in (enumerate_kappa(len(jfin), Dmax) if jfin else [()])
            for mu in [tuple(dict(zip(jfin, kt)).get(j, K_sur) for j in range(1, m + 1))]
            for combo in product(*(
                ctx.distinct(j, mu[j - 1]) if theta[j - 1] else escaped[j]
                for j in range(1, m + 1)
            ))
        )
        # an equal share of what is left over the strata still to come
        taken = list(islice(candidates, -(-left // (len(strata) - n))))
        points += taken
        left -= len(taken)
    return points


def validate_gelfand_points(ctx: SpectralContext, points: list[GelfandPoint]) -> np.ndarray:
    """Re-check the membership invariants of sampled functionals, one bool
    per point: a finite zeta_j must be a block eigenvalue of group j at its
    degree (within ten cluster tolerances), an escaped one a boundary sample
    of group j.  Coordinates are checked one array per (group, degree)."""
    groups: dict[tuple[int, int | None], tuple[list[int], list[complex]]] = {}
    for i, p in enumerate(points):
        for j, (zj, finite, mu) in enumerate(zip(p.zeta, p.theta, p.mu_kappa), 1):
            rows, zs = groups.setdefault((j, mu if finite else None), ([], []))
            rows.append(i)
            zs.append(zj)
    ok = np.ones(len(points), dtype=bool)
    for (j, mu), (rows, zs) in groups.items():
        z, where = np.unique(np.array(zs, dtype=complex), return_inverse=True)
        if mu is None:
            hit = np.isin(z, ctx.boundary_samples(j))
        else:
            tol = max(ctx.eigen(j, mu).cluster_tol, 1e-12)
            hit = np.any(np.abs(ctx.distinct(j, mu) - z[:, None]) <= 10 * tol, axis=1)
        ok[rows] &= hit[where]
    return ok


def spectral_radius_estimate(
    A: FiniteSum, points: list[GelfandPoint], values: list[complex] | None = None
) -> float:
    """sup |psi(A)| over the sampled functionals; ``values`` are the
    psi(A) at the points when they are already evaluated."""
    if not points:
        raise GelfandError("need at least one sampled functional")
    if values is None:
        values = [evaluate_gelfand(A, p) for p in points]
    return max(abs(v) for v in values)
