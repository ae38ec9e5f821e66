"""Check registry: the one implementation of every cross-oracle check.

`toeplitz-spectra verify` and the acceptance suite call the same
functions with their own sizes.  Each function computes one check family
from explicit inputs (a model, an rng, sizes) and returns
records {name, passed, residual, tolerance, detail}; a check passes when
its residual is below its tolerance.  Exact yes/no checks report residual
0 or 1 against tolerance 0.5.
"""

from __future__ import annotations

import math
import operator
from functools import reduce

import numpy as np

from .assembly import AlgebraModel, assemble_block, cross_block_entry_bound, frobenius
from .gelfand import (
    DiagonalCoefficient,
    FiniteSum,
    assemble_finite_sum,
    sample_ideal_space,
    spectral_radius_estimate,
)
from .lattice import GlobalBasis, PartitionConfig, enumerate_kappa
from .quad import (SimplexRule, dirichlet_integral, dirichlet_moment, dirichlet_probability_rule,
                   gamma_quasi_radial)
from .planar import PlanarRegion, polynomial_hull_2d
from .radical import SUPPORT_TOL, decompose_by_division, escaped_gamma, radical_generator
from .symbols import QuasiRadialSymbol, constant_symbol


def _record(name: str, residual, tolerance: float, detail: str = "") -> dict:
    return {
        "name": name,
        "passed": bool(residual < tolerance),
        "residual": float(residual),
        "tolerance": float(tolerance),
        "detail": detail,
    }


def _flag(name: str, ok: bool) -> dict:
    return _record(name, 0.0 if ok else 1.0, 0.5)


def dirichlet_vs_simplex(
    rng: np.random.Generator, trials: int, order: int, power: int
) -> list[dict]:
    """The Dirichlet probability rule, the one behind gamma and the
    quadrature of block entries, vs its closed moments on random
    half-integer exponents: the mean of (s_1+...+s_p)^power, a Beta moment
    of the summed exponents; a nonzero power makes the check sensitive to
    the rule order.  Each trial's rule is built outside the rule cache, into
    one reused buffer, so one trial's nodes are held at a time."""
    grid = np.arange(0.0, 20.5, 0.5)
    draws = [tuple(map(float, rng.choice(grid, int(rng.integers(2, 5))))) for _ in range(trials)]
    buffer = np.empty(max((len(a) * order ** (len(a) - 1) for a in draws), default=0))
    worst = 0.0
    for a in draws:
        rule = SimplexRule.build(a, order, out=buffer)
        terms = rule.nodes.T.sum(axis=0)  # row sums, added plane by plane
        np.power(terms, power, out=terms)
        terms *= rule.weights
        exact = dirichlet_moment((sum(a[:-1]) + len(a) - 2, a[-1]), [power])
        worst = max(worst, abs(float(np.sum(terms)) - exact) / exact)
        del terms  # not held while the next rule checks its nodes
    return [_record("dirichlet-vs-simplex", worst, 1e-10)]


# Rule nodes at which gamma_rules evaluates a compiled symbol at once, so
# that it holds no more per node than the gamma rule priced for gamma_order.
COMPARE_CHUNK = 1 << 14


def gamma_rules(
    a: QuasiRadialSymbol | None, cfg: PartitionConfig, cap: int, order: int = 48
) -> list[dict]:
    """Over |kappa| <= cap, one kappa's gamma rule at a time: gamma of the
    trivial quasi-radial symbol, a plain callable so that the rule is tested,
    is one; a compiled a's terms agree with its parsed expression at the
    rule's nodes (relative to the largest value), COMPARE_CHUNK nodes at a
    time, and its gamma with sum c dirichlet_integral(a + q/2) /
    dirichlet_integral(a) (relative to sum |c| times the moments)."""
    one = QuasiRadialSymbol(m=cfg.m, fn=lambda r: np.ones(r.shape[0], dtype=complex), label="1")
    ones, worst = [], 0.0
    for kappa in enumerate_kappa(cfg, cap):
        ones.append(abs(gamma_quasi_radial(one, cfg, kappa, order) - 1.0))
        if a is None or a.terms is None:
            continue
        exps = tuple(float(kap + kj - 1) for kap, kj in zip(kappa, cfg.k)) + (cfg.lam,)
        nodes = dirichlet_probability_rule(exps, order).nodes
        drift = top = 0.0
        for start in range(0, len(nodes), COMPARE_CHUNK):
            radii = np.sqrt(nodes[start:start + COMPARE_CHUNK])
            source = a(radii)
            compiled = sum((t(radii) for t in a.terms), np.zeros(len(radii), dtype=complex))
            drift = max(drift, np.max(np.abs(compiled - source)))
            top = max(top, np.max(np.abs(source)))
        del nodes  # not held while the next kappa's rule is built
        worst = max(worst, drift / max(top, 1e-300))
        moments = [
            dirichlet_integral([e + q / 2 for e, q in zip(exps, t.powers)] + [cfg.lam])
            / dirichlet_integral(exps) for t in a.terms
        ]
        want = sum(complex(t.coeff) * mu for t, mu in zip(a.terms, moments))
        scale = max(sum(abs(t.coeff) * mu for t, mu in zip(a.terms, moments)), 1e-300)
        worst = max(worst, abs(gamma_quasi_radial(a, cfg, kappa, order) - want) / scale)
    return [_record("gamma-identity", max(ones), 1e-10),
            _record("quasi-radial-compiled", worst, 1e-12)]


def identity_blocks(group_sizes, max_degree: int, order: int = 48) -> list[dict]:
    """Blocks of the constant symbol 1 are identities for d <= max_degree."""
    worst = 0.0
    for j, kj in enumerate(group_sizes, start=1):
        triv = constant_symbol(j, kj, 1.0)
        for d in range(max_degree + 1):
            b = assemble_block(triv, j, d, order=order)
            worst = max(worst, float(np.max(np.abs(b - np.eye(len(b))))))
    return [_record("identity-blocks", worst, 1e-12)]


def cross_block_orthogonality(model: AlgebraModel) -> list[dict]:
    """Bound on entries between different H_kappa."""
    return [_record("cross-block-orthogonality", cross_block_entry_bound(model), 1e-10)]


def commutativity_and_product(model: AlgebraModel, D: int) -> list[dict]:
    """T_a commutes with every T_{c_j}, and T_{a prod c_j} = T_a prod T_{c_j}."""
    m = model.cfg.m
    gamma_a = DiagonalCoefficient.from_callable(model.gamma, "gamma_a")
    t_rad = assemble_finite_sum(FiniteSum.diagonal(m, gamma_a), model, D)
    gens = [
        assemble_finite_sum(FiniteSum.generator(m, j), model, D) for j in sorted(model.symbols)
    ]
    worst_c = max((frobenius({k: b @ g[k] - g[k] @ b for k, b in t_rad.items()})
                   for g in gens), default=0.0)
    assembled = t_rad
    for g in gens:
        assembled = {k: b @ g[k] for k, b in assembled.items()}
    t_prod = assemble_finite_sum(FiniteSum.term(m, gamma_a, (1,) * m), model, D)
    worst_p = frobenius({k: b - assembled[k] for k, b in t_prod.items()})
    return [
        _record("commutativity", worst_c, 1e-9),
        _record("product-identity", worst_p, 1e-9),
    ]


def quadrature_doubling(model: AlgebraModel, gamma_cap: int, block_degree: int) -> list[dict]:
    """Drift of gamma values (|kappa| <= gamma_cap) and of the degree
    block_degree group blocks when every quadrature order is doubled."""
    drift = 0.0
    if model.quasi_radial is not None:
        for kappa in enumerate_kappa(model.cfg, gamma_cap):
            g1 = model.gamma(kappa)  # memoized: its rule is not built again
            g2 = gamma_quasi_radial(model.quasi_radial, model.cfg, kappa, 2 * model.gamma_order)
            drift = max(drift, abs(g1 - g2))
    for j in sorted(model.symbols):
        sym = model.symbols[j]
        b1 = assemble_block(sym, j, block_degree, order=model.block_order)
        b2 = assemble_block(sym, j, block_degree, order=2 * model.block_order)
        drift = max(drift, float(np.max(np.abs(b1 - b2))))
    return [_record("quadrature-doubling", drift, 1e-9)]


def tensor_eigenvectors(model: AlgebraModel, D: int) -> list[dict]:
    """Kronecker products of group-block eigenvectors are joint eigenvectors
    of the generators on every H_kappa with |kappa| <= D."""
    m = model.cfg.m
    worst = 0.0
    ops = [assemble_finite_sum(FiniteSum.generator(m, j), model, D) for j in range(1, m + 1)]
    for kappa in model.basis(D).kappas:
        eigs = [np.linalg.eig(model.block(j, kappa[j - 1])) for j in range(1, m + 1)]
        gens = [op[kappa] for op in ops]
        for combo in np.ndindex(*[len(w) for w, _ in eigs]):
            g = eigs[0][1][:, combo[0]]
            for j in range(1, m):
                g = np.kron(g, eigs[j][1][:, combo[j]])
            g = g / np.linalg.norm(g)
            for j in range(m):
                res = np.linalg.norm(gens[j] @ g - eigs[j][0][combo[j]] * g)
                worst = max(worst, float(res))
    return [_record("tensor-eigenvector", worst, 1e-9)]


# Grid of the circle in `planar_hulls`, whatever hull grid a config uses:
# the raster's one-cell ring overshoots the disk's area by about
# 3/resolution, so the 1 % tolerance needs a grid above about 300.
CIRCLE_RESOLUTION = 512


def planar_hulls(rng: np.random.Generator, n_points: int, points_resolution: int) -> list[dict]:
    """The hull of the unit circle, marked as its 1000 chords, each the
    degenerate triangle (i, i+1, i+1), is the disk; hulls fix finite point
    sets and are idempotent."""
    circle = np.exp(2j * np.pi * np.arange(1000) / 1000)
    ring = PlanarRegion.framing(circle, CIRCLE_RESOLUTION, "curve samples")
    end = (np.arange(1000) + 1) % 1000
    ring.mark(circle, np.stack([np.arange(1000), end, end], axis=1))
    hull = polynomial_hull_2d(ring)
    area_err = abs(hull.area() - math.pi) / math.pi
    pts = rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
    finite = PlanarRegion.framing(pts, points_resolution, "point cloud")
    finite.mark(pts)
    return [
        _record("hull-circle-area", area_err, 0.01),
        _flag("hull-finite-fixed", np.array_equal(polynomial_hull_2d(finite).occ, finite.occ)),
        _flag("hull-idempotent", np.array_equal(polynomial_hull_2d(hull).occ, hull.occ)),
    ]


def projection_identities(basis: GlobalBasis, qtilde_degree: int) -> list[dict]:
    """Projections as diagonal coefficients, built in FiniteSum arithmetic
    (the algebra of the division's Q_d gate) and evaluated over the
    truncation's kappas: P_kappa = prod_j Q_{kappa_j}^(j) is the indicator of
    kappa; Q_d^(j) is the sum of its P_kappa; and with Qtilde^(j) = Q_0^(j) +
    ... + Q_{qtilde_degree}^(j), the recursion P_{l+1} = Qtilde_{l+1} -
    Qtilde_{l+1}(P_1 + ... + P_l) gives disjoint 0/1 coefficients whose
    union is that of the Qtilde's."""
    m, kappas = basis.cfg.m, basis.kappas
    karr = np.array(kappas)

    def q(j: int, d: int) -> FiniteSum:
        return FiniteSum.diagonal(m, DiagonalCoefficient.indicator_degree(j, d))

    def values(A: FiniteSum) -> np.ndarray:
        # every sum here is diagonal: all its powers rho are zero
        return sum((g.values(karr) for g, _ in A.terms), np.zeros(len(karr), dtype=complex))

    def total(parts) -> FiniteSum:
        return sum(parts, FiniteSum.zero(m))

    p = {k: reduce(operator.mul, (q(j, k[j - 1]) for j in range(1, m + 1))) for k in kappas}
    ok = all(np.array_equal(values(p[k]), np.all(karr == k, axis=1)) for k in kappas)
    for j in range(1, m + 1):
        for d in range(basis.cap + 1):
            acc = total(p[k] for k in kappas if k[j - 1] == d)
            ok = ok and np.array_equal(values(acc), values(q(j, d)))
    qtildes = [total(q(j, d) for d in range(qtilde_degree + 1)) for j in range(1, m + 1)]
    orth, covered = [], FiniteSum.zero(m)
    for qt in qtildes:
        orth.append(qt - qt * covered)
        covered = covered + orth[-1]
    pv = [values(x) for x in orth]
    ok = ok and all(np.isin(v, (0.0, 1.0)).all() for v in pv)
    ok = ok and not any(np.any(pv[x] * pv[y]) for x in range(m) for y in range(x + 1, m))
    union_in = np.any([values(x) != 0 for x in qtildes], axis=0)
    ok = ok and np.array_equal(sum(pv), union_in)
    return [_flag("projection-identities", bool(ok))]


def division_reconstruction(model: AlgebraModel, cases, group: int, D: int) -> list[dict]:
    """Q_d A = sum_l S_l h_l(T_j) on the cap-D truncation for each (A, d) in
    cases; a part S_l (l < n) that still holds the generator counts as
    residual 1."""
    worst = 0.0
    for A, d in cases:
        parts = decompose_by_division(A, group, d, model)
        worst = max(worst, parts.reconstruction_residual(model, D))
        if not parts.structurally_free_of_generator():
            worst = max(worst, 1.0)
    return [_record("division-reconstruction", worst, 1e-9)]


def radical_gelfand_vanishing(
    model: AlgebraModel,
    group: int,
    gamma: DiagonalCoefficient,
    D: int,
    *,
    sample_cap: int,
    budget: int,
    K_sur: int = 10_000,
    zeta_per_region: int = 8,
) -> list[dict]:
    """The level-1 radical generator of ``group`` on the cap-D truncation
    vanishes on the functionals sampled up to sample_cap.  Fails on |gamma|
    at the surrogate degree when gamma does not vanish there, since no
    generator exists then."""
    escaped = escaped_gamma(gamma, model.cfg.m, group, K_sur)
    if escaped > SUPPORT_TOL:
        return [_record(
            "radical-gelfand-vanishing", escaped, SUPPORT_TOL,
            f"gamma does not vanish at kappa_{group} = surrogate_kappa = {K_sur}",
        )]
    gen = radical_generator(model, group, gamma, 1, D, K_sur=K_sur)
    points = sample_ideal_space(
        model, sample_cap, budget, K_sur=K_sur, zeta_per_region=zeta_per_region
    )
    psi_max = spectral_radius_estimate(gen.finite_sum, points)
    return [
        _record("radical-gelfand-vanishing", psi_max, 1e-8, f"{len(points)} functionals sampled")
    ]
