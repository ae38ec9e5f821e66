"""Radical structure at finite truncation.

The algebra is semi-simple exactly when every group block is
diagonalizable; failures are witnessed by the monic polynomials h_l with
roots at the first l distinct block eigenvalues: at full level, h
annihilates a block precisely when the block's Jordan form is diagonal,
and the operators

    D_gamma  (+)_{d in F_L}  Q_d^(j) h^{j,d}_{n_{j,d}}(T_{c_j}),

with gamma vanishing along the escaped strata, generate the dense part of
the radical.  The division-by-h decomposition splits any finite sum into a
radical part plus lower h-levels whose coefficients no longer contain the
j-th generator; the norm constants of that splitting follow an explicit
recursion in the eigenvalue gaps.

All verdicts here quantify over the truncation only and say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RadicalError
from .gelfand import DiagonalCoefficient, FiniteSum, assemble_finite_sum
from .spectra import EigenData, SpectralContext, block_eigenvalues
from .assembly import TruncatedOperator, assemble_block

GAP_ABORT = 1e-6  # eigenvalue gaps below this make the division ill-conditioned
SUPPORT_TOL = 1e-9  # |gamma| above this where kappa_j escapes rules out a generator


@dataclass(frozen=True)
class HPolynomial:
    """Monic product of the first ``level`` linear factors of a block."""

    group: int
    d: int
    level: int
    roots: tuple[complex, ...]

    @property
    def coefficients(self) -> np.ndarray:
        """Lowest-degree first, monic."""
        poly = np.array([1.0 + 0.0j])
        for z in self.roots:
            poly = np.convolve(poly, np.array([-z, 1.0]))
        return poly

    def at_matrix(self, mat: np.ndarray) -> np.ndarray:
        out = np.eye(mat.shape[0], dtype=complex)
        for z in self.roots:
            out = out @ (mat - z * np.eye(mat.shape[0], dtype=complex))
        return out


def h_polynomial(ctx: SpectralContext, j: int, d: int, level: int) -> HPolynomial:
    e = ctx.eigen(j, d)
    if not 1 <= level <= e.n_distinct:
        raise RadicalError(
            f"level {level} outside 1..{e.n_distinct} for block ({j},{d})"
        )
    return HPolynomial(
        group=j, d=d, level=level,
        roots=tuple(complex(z) for z in e.distinct[:level]),
    )


# ---------------------------------------------------------------------------
# Diagonalizability and semi-simplicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalizabilityReport:
    diagonalizable: bool
    defects: dict  # eigenvalue -> (algebraic, geometric)
    indeterminate: tuple[str, ...]


def is_diagonalizable(mat: np.ndarray, tol: float = 1e-10, *, eigen: EigenData | None = None) -> DiagonalizabilityReport:
    """Rank test per distinct eigenvalue by singular-value thresholding.

    Diagonalizable iff geometric multiplicity (dim - rank(B - zI)) matches
    the algebraic multiplicity for every distinct eigenvalue.  Singular
    values within a factor 10 of the threshold are flagged indeterminate.
    """
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    if eigen is None:
        eigen = block_eigenvalues(mat, max(tol, 1e-12))
    scale = float(np.linalg.norm(mat, 2)) if mat.size else 0.0
    threshold = tol * max(scale, 1.0)
    defects = {}
    indeterminate = []
    ok = True
    for z, mult in zip(eigen.distinct, eigen.multiplicities):
        sv = np.linalg.svd(mat - z * np.eye(n), compute_uv=False)
        rank = int(np.sum(sv > threshold))
        near = sv[(sv > threshold / 10.0) & (sv < threshold * 10.0)]
        if near.size:
            indeterminate.append(
                f"eigenvalue {z:.6g}: {near.size} singular values near the rank threshold"
            )
        geometric = n - rank
        defects[complex(z)] = (int(mult), geometric)
        if geometric != int(mult):
            ok = False
    return DiagonalizabilityReport(
        diagonalizable=ok, defects=defects, indeterminate=tuple(indeterminate)
    )


@dataclass(frozen=True)
class SemisimplicityVerdict:
    semisimple: bool
    upto: int
    witness: tuple[int, int] | None
    structural: str | None  # set when the symbol family decides all degrees
    warnings: tuple[str, ...] = ()

    def describe(self) -> str:
        if self.structural:
            kind = "structural"
        else:
            kind = f"up to Dmax={self.upto}"
        if self.semisimple:
            return f"semisimple ({kind})"
        return f"not semisimple, witness block (j={self.witness[0]}, d={self.witness[1]}) ({kind})"


def _structural_block_kind(sym) -> str | None:
    """'diagonal' or 'nilpotent' when the declared Fourier support proves it
    for every degree; None otherwise."""
    if sym is None:
        return "diagonal"
    ps = list(sym.modes)
    if all(all(v == 0 for v in p) for p in ps):
        return "diagonal"
    if len(ps) == 1 and any(v != 0 for v in ps[0]):
        # A single nonzero mode shifts every basis vector in one consistent
        # grevlex direction, so every block is strictly triangular.
        return "nilpotent"
    return None


def is_semisimple(ctx: SpectralContext, Dmax: int, tol: float = 1e-10) -> SemisimplicityVerdict:
    """Scan all blocks (j, d <= Dmax); first non-diagonalizable block wins.

    Structural upgrades: families with provably all-diagonal blocks are
    semisimple outright, and a single nonzero quasi-homogeneous mode makes
    every nonzero block nilpotent hence a witness.
    """
    cfg = ctx.cfg
    warnings: list[str] = []
    for j in range(1, cfg.m + 1):
        sym = ctx.model.symbols.get(j)
        kind = _structural_block_kind(sym)
        if kind == "diagonal":
            continue
        if kind == "nilpotent":
            for d in range(Dmax + 1):
                if float(np.max(np.abs(ctx.model.block(j, d)), initial=0.0)) > 0.0:
                    return SemisimplicityVerdict(
                        semisimple=False, upto=Dmax, witness=(j, d),
                        structural=f"group {j}: single nonzero mode, all blocks nilpotent",
                    )
            warnings.append(f"group {j}: nilpotent family but all blocks vanish up to {Dmax}")
            continue
        for d in range(Dmax + 1):
            report = is_diagonalizable(ctx.model.block(j, d), tol, eigen=ctx.eigen(j, d))
            if report.indeterminate:
                refined = assemble_block(sym, j, d, order=2 * ctx.model.block_order)
                report = is_diagonalizable(refined, tol)
                warnings.extend(report.indeterminate)
            if not report.diagonalizable:
                return SemisimplicityVerdict(
                    semisimple=False, upto=Dmax, witness=(j, d),
                    structural=None, warnings=tuple(warnings),
                )
    structural = None
    if all(
        _structural_block_kind(ctx.model.symbols.get(j)) == "diagonal"
        for j in range(1, cfg.m + 1)
    ):
        structural = "all group families have diagonal blocks at every degree"
    return SemisimplicityVerdict(
        semisimple=True, upto=Dmax, witness=None,
        structural=structural, warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Radical generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RadicalGenerator:
    group: int
    level: int
    f_levels: tuple[int, ...]  # F_L intersected with [0, Dmax]
    finite_sum: FiniteSum
    operator: TruncatedOperator
    f_l_note: str


def escaped_gamma(gamma: DiagonalCoefficient, m: int, j: int, K_sur: int) -> float:
    """|gamma| at kappa = K_sur e_j, the probe of the stratum where kappa_j
    escapes; a radical generator needs it to vanish there."""
    return abs(gamma(tuple(K_sur if i == j else 0 for i in range(1, m + 1))))


def radical_generator(
    ctx: SpectralContext,
    j: int,
    gamma: DiagonalCoefficient,
    L: int,
    Dmax: int,
    *,
    K_sur: int = 10_000,
) -> RadicalGenerator:
    """D_gamma (+)_{d in F_L} Q_d^(j) h^{j,d}_{n}(T_{c_j}) on the truncation.

    gamma must vanish along strata where the j-th coordinate escapes; this
    is probed at the surrogate degree K_sur and violations are rejected.
    F_L = {d : n_{j,d} <= L} is materialized within [0, Dmax].
    """
    m = ctx.cfg.m
    if escaped_gamma(gamma, m, j, K_sur) > SUPPORT_TOL:
        raise RadicalError(
            f"gamma {gamma.label!r} does not vanish at kappa_{j} = {K_sur}; "
            "it cannot multiply a radical generator"
        )
    f_levels = [d for d in range(Dmax + 1) if ctx.eigen(j, d).n_distinct <= L]
    # T_j^p carries gamma(kappa) c_{kappa_j,p}, with c_{d,p} the coefficients
    # of h^{j,d}; powers keep the order in which they are first seen.
    tables: dict[int, dict[int, complex]] = {}
    for d in f_levels:
        h = h_polynomial(ctx, j, d, ctx.eigen(j, d).n_distinct)
        for power, coef in enumerate(h.coefficients):
            if coef != 0:
                tables.setdefault(power, {})[d] = complex(coef)
    terms = []
    for power, table in tables.items():
        coeff = gamma * DiagonalCoefficient.degree_table(j, table, f"c[k{j},{power}]")
        terms.append((coeff, tuple(power if i == j else 0 for i in range(1, m + 1))))
    total = FiniteSum(m=m, terms=tuple(terms))
    op = assemble_finite_sum(total, ctx.model, Dmax)
    kind = _structural_block_kind(ctx.model.symbols.get(j))
    if kind == "nilpotent":
        note = "F_L is all of Z_+ (every block nilpotent, n_{j,d} = 1)"
    elif kind == "diagonal":
        note = "blocks diagonal; F_L finite when the distinct count grows"
    else:
        counts = [ctx.eigen(j, d).n_distinct for d in range(Dmax + 1)]
        growing = all(a <= b for a, b in zip(counts, counts[1:]))
        note = (
            "distinct-eigenvalue count nondecreasing on the truncation; "
            "F_L provably finite only if the growth persists"
            if growing
            else "no structural growth detected; finiteness of F_L untested by design"
        )
    return RadicalGenerator(
        group=j, level=L, f_levels=tuple(f_levels),
        finite_sum=total, operator=op, f_l_note=note,
    )


def power_norm_sequence(op: TruncatedOperator, kmax: int = 6) -> list[float]:
    """||G^k||_F^{1/k} for k = 1..kmax; non-increasing for quasi-nilpotent G.

    G^k is block-diagonal too: the blocks of one shape are raised together,
    as one stacked matmul (the same product per block), and their squared
    norms add up in basis order, as ``TruncatedOperator.fro`` adds them.
    """
    blocks = list(op.blocks.values())
    squares = np.zeros((len(blocks), kmax))
    by_shape: dict[tuple, list[int]] = {}
    for i, block in enumerate(blocks):
        by_shape.setdefault(block.shape, []).append(i)
    for idx in by_shape.values():
        stack = np.stack([blocks[i] for i in idx])
        current = stack
        for k in range(kmax):
            if k:
                current = current @ stack
            squares[idx, k] = np.sum(np.abs(current) ** 2, axis=(1, 2))
    out = []
    for k in range(1, kmax + 1):
        nrm = math.sqrt(sum(squares[:, k - 1].tolist()))
        out.append(nrm ** (1.0 / k) if nrm > 0 else 0.0)
    return out


# ---------------------------------------------------------------------------
# Division decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DivisionParts:
    """S_n h_n + S_{n-1} h_{n-1} + ... + S_1 h_1 + S_0 splitting of Q_d A."""

    group: int
    d: int
    n: int
    s_parts: tuple[FiniteSum, ...]  # index l = 0..n
    h_polys: tuple[HPolynomial, ...]  # index l = 1..n
    min_gap: float
    q_d_times_a: FiniteSum  # the left-hand side Q_d A

    def structurally_free_of_generator(self) -> bool:
        """S_l for l < n must contain no power of the j-th generator."""
        for fs in self.s_parts[:-1]:
            for _, rho in fs.terms:
                if rho[self.group - 1] != 0:
                    return False
        return True

    def reconstruction_residual(self, model, D: int) -> float:
        """Frobenius norm of Q_d A_hat - sum_l S_l_hat h_l(T_hat_j).

        Every operand is block-diagonal over H_kappa and is built run by run
        of kappas that share their tensor factors (``AlgebraModel.stacks``), so
        h_l(T_j) is formed once per run, that is once per degree of group j
        when the other groups' blocks are scalars, and no N x N matrix and
        no whole truncated operator is formed.  Runs on which every part
        vanishes contribute zeros.
        """
        basis = model.basis(D)
        sizes = [(s.stop - s.start) ** 2 for s in map(basis.slice_of, basis.kappas)]
        starts = dict(zip(basis.kappas, np.cumsum([0] + sizes[:-1]).tolist()))
        # The blocks' entries in basis order are the nonzero entries of the
        # N x N difference in row-major order; norming them as one vector
        # keeps the reduction order, and so the payload bits, of the dense
        # formulation (per-block sums move the last bit of this roundoff-level
        # value on some configs).
        flat = np.zeros(sum(sizes), dtype=complex)
        sums = [self.q_d_times_a, FiniteSum.generator(model.cfg.m, self.group), *self.s_parts]
        runs = model.stacks(D, [A.terms for A in sums], skip_vanishing=True)
        for kappas, (lhs, tj, *s_parts) in runs:
            if lhs is None and all(stack is None for stack in s_parts):
                continue
            lhs, *s_parts = (np.zeros_like(tj) if s is None else s for s in (lhs, *s_parts))
            h_mats = [h.at_matrix(tj[0]) for h in self.h_polys]
            for i, kappa in enumerate(kappas):
                rhs = s_parts[0][i]
                for level in range(1, self.n + 1):
                    rhs = rhs + s_parts[level][i] @ h_mats[level - 1]
                flat[starts[kappa]:starts[kappa] + rhs.size] = (lhs[i] - rhs).ravel()
        return float(np.linalg.norm(flat))


def decompose_by_division(A: FiniteSum, j: int, d: int, ctx: SpectralContext) -> DivisionParts:
    """Successive division of A by h_n, h_{n-1}, ..., h_1 in the variable X_j.

    Each division step is exact synthetic division with FiniteSum
    coefficients; after the first step the remainders have degree < l and
    the extracted coefficients contain no X_j power.  Aborts when two
    distinct eigenvalues are closer than the conditioning floor.
    """
    e = ctx.eigen(j, d)
    n = e.n_distinct
    zs = e.distinct
    min_gap = math.inf
    for a in range(n):
        for b in range(a + 1, n):
            min_gap = min(min_gap, abs(zs[a] - zs[b]))
    if n > 1 and min_gap < GAP_ABORT:
        raise RadicalError(
            f"block ({j},{d}) has distinct eigenvalues only {min_gap:.3e} apart; "
            "division is ill-conditioned"
        )

    m = A.m
    # Coefficients of A as a polynomial in X_j, each free of X_j.
    top = max((rho[j - 1] for _, rho in A.terms), default=0)
    coeffs: list[FiniteSum] = [FiniteSum.zero(m) for _ in range(max(top, n) + 1)]
    for gamma, rho in A.terms:
        t = rho[j - 1]
        stripped = tuple(0 if i == j - 1 else v for i, v in enumerate(rho))
        coeffs[t] = coeffs[t] + FiniteSum.term(m, gamma, stripped)

    h_polys = [h_polynomial(ctx, j, d, level) for level in range(1, n + 1)]

    # Divide by h_n: quotient may still contain X_j.
    hn = h_polys[-1].coefficients  # lowest first, monic, length n+1
    rem = list(coeffs)
    quotient: dict[int, FiniteSum] = {}
    for t in range(len(rem) - 1, n - 1, -1):
        q = rem[t]
        quotient[t - n] = q
        for i in range(n):
            rem[t - n + i] = rem[t - n + i] - complex(hn[i]) * q
        rem[t] = FiniteSum.zero(m)
    s_n = FiniteSum.zero(m)
    for power, fs in quotient.items():
        s_n = s_n + _shift_power(fs, j, power)

    # Peel off h_{n-1}, ..., h_1; each extracts a single coefficient.
    s_parts_rev: list[FiniteSum] = []
    for level in range(n - 1, 0, -1):
        g = rem[level]
        s_parts_rev.append(g)
        h = h_polys[level - 1].coefficients
        for i in range(level):
            rem[i] = rem[i] - complex(h[i]) * g
        rem[level] = FiniteSum.zero(m)
    s0 = rem[0]

    q_gate = FiniteSum.diagonal(m, DiagonalCoefficient.indicator_degree(j, d))
    s_parts = [q_gate * s0]
    for g in reversed(s_parts_rev):
        s_parts.append(q_gate * g)
    s_parts.append(q_gate * s_n)

    return DivisionParts(
        group=j, d=d, n=n,
        s_parts=tuple(s_parts),
        h_polys=tuple(h_polys),
        min_gap=min_gap if n > 1 else math.inf,
        q_d_times_a=q_gate * A,
    )


def _shift_power(fs: FiniteSum, j: int, power: int) -> FiniteSum:
    """Multiply a sum that is free of X_j by X_j^power."""
    if power == 0:
        return fs
    terms = []
    for gamma, rho in fs.terms:
        shifted = tuple(v + power if i == j - 1 else v for i, v in enumerate(rho))
        terms.append((gamma, shifted))
    return FiniteSum(m=fs.m, terms=tuple(terms))


# ---------------------------------------------------------------------------
# Norm constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormConstants:
    group: int
    d: int
    values: tuple[float, ...]  # C_0 .. C_{n-1}
    flagged: tuple[bool, ...]  # True when a tiny gap made the value blow up


def norm_constants(ctx: SpectralContext, j: int, d: int) -> NormConstants:
    """C_0 = sqrt(dim) and the gap recursion

    C_{l+1} = prod_{i<=l+1} |z_{l+2} - z_i|^{-1} * C_0 * (1 + C_0 + ... + C_l)^{1/2}.
    """
    e = ctx.eigen(j, d)
    n = e.n_distinct
    kj = ctx.cfg.k[j - 1]
    dim = math.comb(d + kj - 1, kj - 1)
    c0 = math.sqrt(dim)
    values = [c0]
    flagged = [False]
    zs = e.distinct
    for ell in range(0, n - 1):
        gaps = [abs(zs[ell + 1] - zs[i]) for i in range(ell + 1)]
        tiny = any(g < GAP_ABORT for g in gaps)
        inv = math.prod(max(g, 1e-300) for g in gaps) ** -1.0
        value = inv * c0 * math.sqrt(1.0 + sum(values))
        values.append(value)
        flagged.append(tiny)
    return NormConstants(group=j, d=d, values=tuple(values), flagged=tuple(flagged))
