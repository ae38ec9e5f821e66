"""Operator assembly at finite truncation.

Everything the algebra contains reduces to two ingredients:

* the diagonal eigenvalue function gamma of a quasi-radial factor,
  computed as an expectation against a Dirichlet probability measure on
  the simplex (the radial change of variables u_j = r_j^2 turns the
  eigenvalue integral into exactly that, and the normalizing Gamma
  prefactors cancel against the Dirichlet mass): a sum of closed-form
  Dirichlet moments for a compiled symbol, a probability rule otherwise;
* the per-group block matrices of a pseudo-homogeneous factor on the
  degree-d homogeneous subspace, computed in the weightless Bergman
  space over the group ball.  In the orthonormal monomial basis the
  entry for column alpha, row beta = alpha + p is

      Gamma(d + k) / sqrt(alpha! beta!) *
          int_{Delta_{k-1}} c_hat(sigma^{1/2}, p) prod sigma^{(alpha+beta)/2} dsigma,

  which is a pure Gamma ratio whenever c_hat is a monomial in s, a fixed
  order sum of Gamma ratios when it is a polynomial in s (as it is for
  every mode of a compiled profile or expression symbol), and a
  low-dimensional absorbed-weight quadrature otherwise.  Entries carry no
  dependence on the weight parameter or on the other groups.

A truncated operator is stored block-diagonally over the H_kappa
decomposition; on H_kappa the full operator with quasi-radial factor a and
group factors c_j acts as gamma_a(kappa) times the tensor product of the
group blocks, realized through the global basis index map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import AssemblyError, QuadratureError
from .lattice import GlobalBasis, Index, PartitionConfig, block_indices
from .quad import dirichlet_moment, dirichlet_probability_rule, gammaln, log_dirichlet_mass
from .symbols import MonomialProfile, Profile, PseudoHomogeneousSymbol, QuasiRadialSymbol


# ---------------------------------------------------------------------------
# Quasi-radial eigenvalues
# ---------------------------------------------------------------------------


def gamma_quasi_radial(
    a: QuasiRadialSymbol, cfg: PartitionConfig, kappa: Index, order: int = 48
) -> complex:
    """Eigenvalue gamma_a(kappa) of T_a on H_kappa.

    Equal to the expectation of a(sqrt(u_1),...,sqrt(u_m)) under the
    Dirichlet measure on Delta_m with exponents (kappa_j + k_j - 1) and
    slack exponent lam: for a compiled symbol the sum of its terms' exact
    moments (r_j^q adds q/2 to u_j's exponent), else the order-``order`` rule.
    """
    kappa = tuple(int(v) for v in kappa)
    if len(kappa) != cfg.m:
        raise AssemblyError(f"kappa length {len(kappa)} != m={cfg.m}")
    if a.m != cfg.m:
        raise AssemblyError(f"symbol has {a.m} radii, partition has {cfg.m} groups")
    exponents = tuple(float(kap + kj - 1) for kap, kj in zip(kappa, cfg.k)) + (cfg.lam,)
    if a.terms is not None:
        return sum((t.coeff * dirichlet_moment(exponents, [q / 2 for q in t.powers])
                    for t in a.terms), 0j)
    rule = dirichlet_probability_rule(exponents, order)
    vals = a(np.sqrt(rule.nodes))  # no name holds the radii: freed before the product
    return complex(np.sum(rule.weights * vals))


# ---------------------------------------------------------------------------
# Group blocks
# ---------------------------------------------------------------------------


def _entry_log_prefactor(alpha: Index, beta: Index, kj: int, d: int) -> float:
    return float(
        gammaln(d + kj)
        - 0.5 * sum(gammaln(v + 1.0) for v in alpha)
        - 0.5 * sum(gammaln(v + 1.0) for v in beta)
    )


def _entry_monomial(alpha: Index, beta: Index, prof: MonomialProfile, kj: int, d: int) -> complex:
    # c_hat(sigma^{1/2}) adds e_l/2 to each simplex exponent; the combined
    # exponents (alpha + beta + e)/2 feed the closed Dirichlet form.
    exps = [(va + vb + ve) / 2.0 for va, vb, ve in zip(alpha, beta, prof.powers)]
    log_i = log_dirichlet_mass(exps)
    return complex(prof.coeff) * math.exp(_entry_log_prefactor(alpha, beta, kj, d) + log_i)


def _entry_quadrature(
    alpha: Index, beta: Index, prof: Profile, order: int, kj: int, d: int
) -> complex:
    # The Dirichlet weight with exponents (alpha + beta)/2 becomes a
    # probability rule; its log mass multiplies the expectation back in.
    exps = tuple((va + vb) / 2.0 for va, vb in zip(alpha, beta))
    rule = dirichlet_probability_rule(exps, order)
    expectation = complex(np.sum(rule.weights * prof(np.sqrt(rule.nodes_closed))))
    log_mass = _entry_log_prefactor(alpha, beta, kj, d) + log_dirichlet_mass(exps)
    return expectation * math.exp(log_mass)


def assemble_block(
    c: PseudoHomogeneousSymbol,
    j: int | None = None,
    d: int = 0,
    *,
    order: int = 48,
) -> np.ndarray:
    """Matrix of the group Toeplitz factor on homogeneous degree d.

    Computed in the weightless space over the group ball, so the result is
    independent of the global weight parameter and of the other groups.
    Rows and columns follow ``lattice.block_indices(c.dim, d)``; only the
    diagonals of the symbol's modes are touched.  A profile with terms
    gives sums of closed-form entries, any other profile quadrature entries.
    """
    group = c.group if j is None else j
    kj = c.dim
    if d < 0:
        raise AssemblyError(f"degree must be >= 0, got {d}")
    indices = block_indices(kj, d)
    position = {alpha: i for i, alpha in enumerate(indices)}
    mat = np.zeros((len(indices), len(indices)), dtype=complex)
    for p, prof in c.modes.items():
        for col, alpha in enumerate(indices):
            row = position.get(tuple(va + vp for va, vp in zip(alpha, p)))
            if row is None:
                continue
            beta = indices[row]
            if prof.terms is None:
                mat[row, col] += _entry_quadrature(alpha, beta, prof, order, kj, d)
            else:
                for term in prof.terms:
                    mat[row, col] += _entry_monomial(alpha, beta, term, kj, d)

    if not np.all(np.isfinite(mat.real) & np.isfinite(mat.imag)):
        raise QuadratureError(f"block ({group}, {d}) of {c.label!r} has non-finite entries")
    return mat


# ---------------------------------------------------------------------------
# Truncated operators
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TruncatedOperator:
    """Block-diagonal operator over the global basis of a truncation, as
    ``gelfand.assemble_finite_sum`` materializes a finite sum."""

    basis: GlobalBasis
    blocks: dict[Index, np.ndarray]

    def fro(self) -> float:
        return math.sqrt(
            sum(float(np.sum(np.abs(b) ** 2)) for b in self.blocks.values())
        )

    def _blockwise(self, other: "TruncatedOperator", op) -> "TruncatedOperator":
        if self.basis is not other.basis and self.basis.kappas != other.basis.kappas:
            raise AssemblyError("operators live on different truncations")
        blocks = {k: op(b, other.blocks[k]) for k, b in self.blocks.items()}
        return TruncatedOperator(self.basis, blocks)

    def __matmul__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return self._blockwise(other, np.matmul)

    def __add__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return self._blockwise(other, np.add)

    def __sub__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return self._blockwise(other, np.subtract)


# ---------------------------------------------------------------------------
# Model: configured symbols plus memoized blocks
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class AlgebraModel:
    """One configured instance of the algebra: partition, symbols, orders.

    Group blocks, their powers and gamma values are memoized here, for the
    life of the model.  ``stacks`` builds the blocks of diagonal-coefficient
    sums of generator products over a truncation, run by run of kappas that
    share their tensor factors.
    """

    cfg: PartitionConfig
    quasi_radial: QuasiRadialSymbol | None = None
    symbols: dict[int, PseudoHomogeneousSymbol] = field(default_factory=dict)
    block_order: int = 48
    gamma_order: int = 48
    # Not a field: the benchmark's tracer (perfbench/tracing.py::_block_before) reads it.
    cache = None

    def __post_init__(self):
        for j, sym in self.symbols.items():
            if not 1 <= j <= self.cfg.m:
                raise AssemblyError(f"symbol group {j} outside 1..{self.cfg.m}")
            if sym.dim != self.cfg.k[j - 1]:
                raise AssemblyError(
                    f"symbol for group {j} has dimension {sym.dim}, expected {self.cfg.k[j - 1]}"
                )
        self._blocks: dict[tuple[int, int], np.ndarray] = {}
        self._powers: dict[tuple[int, int, int], np.ndarray] = {}
        self._gammas: dict[Index, complex] = {}
        self._bases: dict[int, GlobalBasis] = {}

    def basis(self, D: int) -> GlobalBasis:
        if D not in self._bases:
            self._bases[D] = GlobalBasis(self.cfg, D)
        return self._bases[D]

    def gamma(self, kappa: Index) -> complex:
        kappa = tuple(int(v) for v in kappa)
        if self.quasi_radial is None:
            return 1.0 + 0.0j
        if kappa not in self._gammas:
            self._gammas[kappa] = gamma_quasi_radial(
                self.quasi_radial, self.cfg, kappa, self.gamma_order
            )
        return self._gammas[kappa]

    def block(self, j: int, d: int) -> np.ndarray:
        """Group-j block on degree d; memoized, shared and therefore read-only."""
        key = (j, d)
        mat = self._blocks.get(key)
        if mat is None:
            sym = self.symbols.get(j)
            if sym is None:
                mat = np.eye(len(block_indices(self.cfg.k[j - 1], d)), dtype=complex)
            else:
                mat = assemble_block(sym, j, d, order=self.block_order)
            mat.flags.writeable = False
            self._blocks[key] = mat
        return mat

    def block_power(self, j: int, d: int, power: int) -> np.ndarray:
        """``np.linalg.matrix_power`` of the group-j block on degree d;
        memoized per (j, d, power), shared and therefore read-only."""
        key = (j, d, power)
        mat = self._powers.get(key)
        if mat is None:
            mat = self.block(j, d)
            if power != 1:
                mat = np.linalg.matrix_power(mat, power)
                mat.flags.writeable = False
            self._powers[key] = mat
        return mat

    def stacks(self, D: int, term_lists, *, skip_vanishing: bool = False):
        """Blocks of sum_t gamma_t T_1^{rho_t1} ... T_m^{rho_tm} on the cap-D
        truncation, for each list of (gamma_t, rho_t) terms: the terms of a
        ``gelfand.FiniteSum``, whose diagonal coefficients gamma_t are each
        evaluated once, as one array over ``basis(D).kappas``.

        On H_kappa the generator product is the tensor product of the block
        powers B_{j,kappa_j}^{rho_j}, group 1 slowest.  Kappas whose blocks
        share every factor form a run, and each term is applied to a run at
        once: the product of its non-identity factors (``np.kron`` in group
        order, a 1 x 1 factor a scalar), times the run's values broadcast
        over it, added onto the diagonal axes of its identity factors (a
        group without symbol, or power 0) in a strided view of the run's
        blocks.  Each entry is thus the value times the entry of the full
        ``np.kron`` (the identity factors contribute exact ones and zeros),
        summed onto zeros in term order, bit for bit as per kappa.  A term
        that vanishes on a run is skipped, which adds only zeros.

        Yields (kappas, stacks) per run, kappas in basis order, with
        stacks[i] the (len(kappas), N, N) array of term_lists[i]'s blocks;
        with ``skip_vanishing`` it is None where every term vanishes.
        """
        basis = self.basis(D)
        karr, memo = np.array(basis.kappas), {}
        evaluated = [[(g.values(karr, memo), rho) for g, rho in terms] for terms in term_lists]
        active = {
            j for j in self.symbols
            if any(rho[j - 1] for terms in term_lists for _, rho in terms)
        }
        runs: dict[tuple, list[int]] = {}
        for i, kappa in enumerate(basis.kappas):
            # Groups that some term raises are keyed by degree, the others
            # (identity factors throughout) by block size alone.
            key = tuple(
                kap if j in active else len(block_indices(kj, kap))
                for j, (kj, kap) in enumerate(zip(self.cfg.k, kappa), start=1)
            )
            runs.setdefault(key, []).append(i)
        for idx in runs.values():
            kappa = basis.kappas[idx[0]]
            dims = [len(block_indices(kj, kap)) for kj, kap in zip(self.cfg.k, kappa)]
            n = math.prod(dims)
            stacks = []
            for terms in evaluated:
                stack = None if skip_vanishing else np.zeros((len(idx), n, n), dtype=complex)
                for vals, rho in terms:
                    if np.any(run_vals := vals[idx]):
                        if stack is None:
                            stack = np.zeros((len(idx), n, n), dtype=complex)
                        self._add_tensor(stack, kappa, dims, rho, run_vals)
                stacks.append(stack)
            yield [basis.kappas[i] for i in idx], stacks

    def _add_tensor(self, stack, kappa: Index, dims, rho: Index, vals: np.ndarray):
        """stack[g] += vals[g] * (B_{1,kappa_1}^{rho_1} kron ... kron B_{m,kappa_m}^{rho_m})."""
        n = stack.shape[1]
        # Bytes of one step along group j's index within a row or a column.
        after = [math.prod(dims[j + 1:]) * stack.itemsize for j in range(len(dims))]
        act = [j for j in range(len(dims)) if rho[j] and j + 1 in self.symbols]
        ident = [j for j in range(len(dims)) if j not in act]
        # Axes: the run, the diagonal of each identity group, then the row
        # and the column index of each other group, in kron layout.
        shape = [len(vals)] + [dims[j] for j in ident] + [dims[j] for j in act] * 2
        strides = ([stack.strides[0]] + [(n + 1) * after[j] for j in ident]
                   + [n * after[j] for j in act] + [after[j] for j in act])
        view = np.lib.stride_tricks.as_strided(stack, shape, strides)
        lead = vals.reshape([len(vals)] + [1] * (len(shape) - 1))
        if not act:
            view += lead
            return
        factors = [self.block_power(j + 1, kappa[j], rho[j]) for j in act]
        # Both operands have view's ndim: numpy multiplies a one-element
        # broadcast across unequal ndims without fused multiply-adds, unlike
        # the scalar-times-block product this reproduces.
        tensor = reduce(np.kron, factors).reshape([1] * (1 + len(ident)) + shape[1 + len(ident):])
        view += lead * tensor


# ---------------------------------------------------------------------------
# Cross-block verification support
# ---------------------------------------------------------------------------


def cross_block_entry_bound(model: AlgebraModel) -> float:
    """Upper bound on |<T_{ac} e_alpha, e_beta>| over all pairs of basis
    elements in different H_kappa.

    Such a pair differs in the degree of some group j, and the entry is a
    sum over the modes p of group j's table with sum(p) equal to that
    difference: 0 by structure when every mode has |p| = 0, as mode_symbol
    makes it; a table holding any other mode has no bound here (inf).
    """
    shifts = {sum(p) for sym in model.symbols.values() for p in sym.modes}
    return 0.0 if shifts <= {0} else math.inf
