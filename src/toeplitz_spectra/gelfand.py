"""Gelfand theory of the algebra at desk scale.

Multiplicative functionals are labeled by a stratum tuple theta in {0,1}^m:
coordinates with theta_j = 1 stay at a finite group degree kappa_j (and the
generator value zeta_j must be a block eigenvalue there), while coordinates
with theta_j = 0 escape to infinity (zeta_j then lives in the hulled
essential spectrum).  Functionals with theta = 1 are realized exactly by
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
from itertools import product
from typing import Callable

import numpy as np

from .assembly import AlgebraModel, TruncatedOperator
from .errors import GelfandError
from .lattice import Index, enumerate_kappa
from .spectra import PlanarRegion, SpectralContext


# ---------------------------------------------------------------------------
# Diagonal coefficients and finite sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiagonalCoefficient:
    """A bounded diagonal operator from the quasi-radial algebra, viewed as a
    function gamma(kappa) on Z_+^m."""

    fn: Callable
    label: str

    def __call__(self, kappa: Index) -> complex:
        val = complex(self.fn(tuple(int(v) for v in kappa)))
        if not np.isfinite(val.real) or not np.isfinite(val.imag):
            raise GelfandError(f"diagonal coefficient {self.label!r} non-finite at {kappa}")
        return val

    @classmethod
    def constant(cls, value: complex = 1.0) -> "DiagonalCoefficient":
        value = complex(value)
        return cls(fn=lambda kappa: value, label=f"{value!r}")

    @classmethod
    def indicator_degree(cls, j: int, d: int) -> "DiagonalCoefficient":
        """gamma(kappa) = 1 iff kappa_j = d; this is the mask of Q_d^(j)."""
        return cls(
            fn=lambda kappa: 1.0 if kappa[j - 1] == d else 0.0,
            label=f"[k{j}={d}]",
        )

    @classmethod
    def from_table(cls, table: dict) -> "DiagonalCoefficient":
        """gamma(kappa) = table[kappa], zero off the table."""
        frozen = {tuple(k): complex(v) for k, v in table.items()}
        return cls(fn=lambda kappa: frozen.get(kappa, 0j), label="table")

    @classmethod
    def from_callable(cls, fn: Callable, label: str) -> "DiagonalCoefficient":
        return cls(fn=fn, label=label)

    def scaled(self, factor: complex) -> "DiagonalCoefficient":
        factor = complex(factor)
        return DiagonalCoefficient(
            fn=lambda kappa, _s=self: factor * _s(kappa),
            label=f"{factor!r}*{self.label}",
        )


def _coeff_product(a: DiagonalCoefficient, b: DiagonalCoefficient) -> DiagonalCoefficient:
    return DiagonalCoefficient(
        fn=lambda kappa, _a=a, _b=b: _a(kappa) * _b(kappa),
        label=f"({a.label})({b.label})",
    )


def _coeff_sum(parts: list[DiagonalCoefficient]) -> DiagonalCoefficient:
    if len(parts) == 1:
        return parts[0]
    return DiagonalCoefficient(
        fn=lambda kappa, _p=tuple(parts): sum(g(kappa) for g in _p),
        label="+".join(g.label for g in parts),
    )


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
        by_rho: dict[Index, list[DiagonalCoefficient]] = {}
        order: list[Index] = []
        for gamma, rho in raw:
            if rho not in by_rho:
                by_rho[rho] = []
                order.append(rho)
            by_rho[rho].append(gamma)
        return FiniteSum(
            m=self.m, terms=tuple((_coeff_sum(by_rho[r]), r) for r in order)
        )

    def __add__(self, other: "FiniteSum") -> "FiniteSum":
        if self.m != other.m:
            raise GelfandError("cannot add sums over different group counts")
        return self._merged(list(self.terms) + list(other.terms))

    def __sub__(self, other: "FiniteSum") -> "FiniteSum":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "FiniteSum":
        scalar = complex(scalar)
        return FiniteSum(
            m=self.m,
            terms=tuple((g.scaled(scalar), rho) for g, rho in self.terms),
        )

    def __mul__(self, other: "FiniteSum") -> "FiniteSum":
        """Symbolic expansion: gammas multiply pointwise, powers add."""
        if isinstance(other, (int, float, complex)):
            return complex(other) * self
        if self.m != other.m:
            raise GelfandError("cannot multiply sums over different group counts")
        raw = []
        for ga, ra in self.terms:
            for gb, rb in other.terms:
                raw.append((_coeff_product(ga, gb), tuple(x + y for x, y in zip(ra, rb))))
        return self._merged(raw)


def assemble_finite_sum(A: FiniteSum, model: AlgebraModel, D: int) -> TruncatedOperator:
    """Materialize a finite sum on the cap-D truncation, block by block."""
    if A.m != model.cfg.m:
        raise GelfandError(f"sum has m={A.m}, model has m={model.cfg.m}")
    basis = model.basis(D)
    blocks = {}
    for kappa in basis.kappas:
        size = basis.slice_of(kappa)
        dim = size.stop - size.start
        acc = np.zeros((dim, dim), dtype=complex)
        for gamma, rho in A.terms:
            acc += gamma(kappa) * model.kappa_matrix(kappa, rho)
        blocks[kappa] = acc
    return TruncatedOperator(basis, blocks)


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
    """sum_rho gamma_rho(mu) zeta^rho; exact on the theta = 1 stratum.

    Surrogate points evaluate the diagonal coefficients at the finite
    directive degree, a labeled heuristic.
    """
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


def _region_zeta_choices(region: PlanarRegion, limit: int) -> np.ndarray:
    centers = region.occupied_cell_centers()
    if centers.size <= limit:
        return centers
    stride = int(np.ceil(centers.size / limit))
    return centers[::stride][:limit]


def sample_ideal_space(
    ctx: SpectralContext,
    Dmax: int,
    budget: int = 1000,
    *,
    K_sur: int = 10_000,
    zeta_per_region: int = 8,
) -> list[GelfandPoint]:
    """Deterministic sample of the maximal ideal space.

    Emits every exact point (kappa, zeta) with |kappa| <= Dmax and zeta in
    the per-block spectra, then surrogate points for each stratum
    theta != 1 up to the budget.
    """
    if budget < 1:
        raise GelfandError("budget must be at least 1")
    cfg = ctx.cfg
    m = cfg.m
    points: list[GelfandPoint] = []

    for kappa in enumerate_kappa(cfg, Dmax):
        spectra = [ctx.distinct(j, kappa[j - 1]) for j in range(1, m + 1)]
        for combo in product(*spectra):
            points.append(
                GelfandPoint(
                    theta=(1,) * m,
                    kappa_theta=kappa,
                    mu_kappa=kappa,
                    zeta=tuple(complex(z) for z in combo),
                    surrogate=False,
                )
            )

    region_choices: dict[int, np.ndarray] = {}
    surrogate_count = 0
    thetas = [t for t in product((0, 1), repeat=m) if t != (1,) * m]
    for theta in thetas:
        jfin = [j for j in range(1, m + 1) if theta[j - 1] == 1]
        jinf = [j for j in range(1, m + 1) if theta[j - 1] == 0]
        for j in jinf:
            if j not in region_choices:
                region = ctx.hulled_ess_region(j)
                region_choices[j] = _region_zeta_choices(region, zeta_per_region)
        finite_tuples = enumerate_kappa(len(jfin), Dmax) if jfin else [()]
        for kt in finite_tuples:
            mu = [K_sur] * m
            for idx, j in enumerate(jfin):
                mu[j - 1] = kt[idx]
            choices = []
            for j in range(1, m + 1):
                if theta[j - 1] == 1:
                    choices.append(list(ctx.distinct(j, mu[j - 1])))
                else:
                    choices.append(list(region_choices[j]))
            for combo in product(*choices):
                if surrogate_count >= budget:
                    return points
                points.append(
                    GelfandPoint(
                        theta=theta,
                        kappa_theta=kt,
                        mu_kappa=tuple(mu),
                        zeta=tuple(complex(z) for z in combo),
                        surrogate=True,
                    )
                )
                surrogate_count += 1
    return points


def validate_gelfand_point(ctx: SpectralContext, point: GelfandPoint) -> bool:
    """Re-check the membership invariants of a sampled functional: an
    escaped coordinate may lie up to two cells off the hulled region."""
    for idx, j in enumerate(range(1, len(point.theta) + 1)):
        zj = point.zeta[idx]
        if point.theta[idx] == 1:
            spec = ctx.distinct(j, point.mu_kappa[idx])
            tol = max(ctx.eigen(j, point.mu_kappa[idx]).cluster_tol, 1e-12)
            if not np.any(np.abs(spec - zj) <= 10 * tol):
                return False
        else:
            region = ctx.hulled_ess_region(j)
            if not region.contains_point(zj, slack_cells=2):
                return False
    return True


def spectral_radius_estimate(A: FiniteSum, points: list[GelfandPoint]) -> float:
    """sup |psi(A)| over the sampled functionals."""
    if not points:
        raise GelfandError("need at least one sampled functional")
    return max(abs(evaluate_gelfand(A, p)) for p in points)
