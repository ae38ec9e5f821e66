import dataclasses
import math

import numpy as np
import pytest

from oracles import dense, opnorm
from toeplitz_spectra import checks, radical
from toeplitz_spectra.assembly import AlgebraModel, assemble_block
from toeplitz_spectra.errors import RadicalError
from toeplitz_spectra.gelfand import (
    DiagonalCoefficient,
    FiniteSum,
    assemble_finite_sum,
    evaluate_gelfand,
    sample_ideal_space,
)
from toeplitz_spectra.lattice import PartitionConfig, enumerate_kappa
from toeplitz_spectra.radical import (
    decompose_by_division,
    h_polynomial,
    is_diagonalizable,
    is_semisimple,
    norm_constants,
    power_norm_sequence,
    radical_generator,
)
from toeplitz_spectra.spectra import SpectralContext, block_eigenvalues
from toeplitz_spectra.symbols import (
    MonomialProfile,
    Profile,
    QuasiRadialSymbol,
    builtin_quasi_homogeneous,
    constant_symbol,
    mode_symbol,
    profile_symbol,
)


class TestDistinctAndH:
    def test_identity_block(self):
        e = block_eigenvalues(np.eye(3, dtype=complex))
        assert list(e.distinct) == [1.0]

    def test_nilpotent_block(self):
        mat = np.zeros((3, 3), dtype=complex)
        mat[0, 1] = mat[1, 2] = 0.5
        e = block_eigenvalues(mat)
        assert list(e.distinct) == [0.0]

    def test_constructed_diagonal(self):
        e = block_eigenvalues(np.diag([2.0, 0.5, 0.5, -1.0]).astype(complex))
        assert np.allclose(np.sort(e.distinct.real), [-1.0, 0.5, 2.0])

    def test_h_polynomial_identity_block(self, diagonal_ctx):
        # degree-0 block of the profile symbol is [1/2]; h_1 = X - 1/2
        h = h_polynomial(diagonal_ctx, 2, 0, 1)
        assert h.roots == (0.5,)
        assert np.allclose(h.coefficients, [-0.5, 1.0])

    def test_h_annihilates_diagonalizable_block(self, diagonal_ctx):
        d = 3
        block = diagonal_ctx.model.block(2, d)
        e = diagonal_ctx.eigen(2, d)
        h = h_polynomial(diagonal_ctx, 2, d, e.n_distinct)
        residual = np.linalg.norm(h.at_matrix(block))
        assert residual < 1e-10 * max(np.linalg.norm(block), 1.0) ** e.n_distinct

    def test_h_on_nilpotent_is_x(self, nilpotent_ctx):
        h = h_polynomial(nilpotent_ctx, 2, 1, 1)
        assert h.roots == (0.0,)
        block = nilpotent_ctx.model.block(2, 1)
        assert np.linalg.norm(h.at_matrix(block)) > 1e-6  # h(B) = B != 0


class TestDiagonalizability:
    def test_diagonal_true(self):
        rep = is_diagonalizable(np.diag([1.0, 2.0, 2.0]).astype(complex))
        assert rep.diagonalizable

    def test_jordan_block_false(self):
        mat = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        rep = is_diagonalizable(mat)
        assert not rep.diagonalizable
        alg, geo = rep.defects[1.0 + 0.0j]
        assert (alg, geo) == (2, 1)

    def test_quasi_homogeneous_block_false(self, nilpotent_ctx):
        block = nilpotent_ctx.model.block(2, 1)
        rep = is_diagonalizable(block, eigen=nilpotent_ctx.eigen(2, 1))
        assert not rep.diagonalizable


class TestSemisimplicity:
    def test_profile_family_semisimple(self, diagonal_ctx):
        verdict = is_semisimple(diagonal_ctx, 8)
        assert verdict.semisimple
        assert verdict.structural is not None
        assert "semisimple" in verdict.describe()

    def test_nilpotent_family_witness(self, nilpotent_ctx):
        verdict = is_semisimple(nilpotent_ctx, 8)
        assert not verdict.semisimple
        assert verdict.witness == (2, 1)
        assert verdict.structural is not None

    def test_constants_semisimple(self):
        cfg = PartitionConfig(k=(1, 1))
        model = AlgebraModel(
            cfg=cfg,
            symbols={1: constant_symbol(1, 1, 2.0), 2: constant_symbol(2, 1, 1j)},
        )
        ctx = SpectralContext(model=model)
        assert is_semisimple(ctx, 6).semisimple

    def test_stability_under_tolerance_halving(self, nilpotent_ctx, diagonal_ctx):
        for ctx in (nilpotent_ctx, diagonal_ctx):
            a = is_semisimple(ctx, 6)
            b = is_semisimple(ctx, 6, tol=0.5e-10)
            assert a.semisimple == b.semisimple and a.witness == b.witness


class TestRadicalGenerator:
    def test_semisimple_gives_zero(self, diagonal_ctx):
        gamma = DiagonalCoefficient.indicator_degree(2, 1)
        gen = radical_generator(diagonal_ctx, 2, gamma, 10, 5)
        assert gen.operator.fro() < 1e-10

    def test_nilpotent_generator_matches_assembly(self, nilpotent_ctx):
        # gamma = indicator(kappa_2 = 1), h = X: generator is Q_1 T_{c_2}.
        gamma = DiagonalCoefficient.indicator_degree(2, 1)
        gen = radical_generator(nilpotent_ctx, 2, gamma, 1, 4)
        model = nilpotent_ctx.model
        t2 = dense(assemble_finite_sum(FiniteSum.generator(2, 2), model, 4))
        want = q_diag(model, 4, 2, 1) @ t2
        assert np.linalg.norm(dense(gen.operator) - want) < 1e-12
        assert gen.operator.fro() > 1e-6

    def test_gelfand_vanishing_and_power_norms(self, nilpotent_ctx):
        gamma = DiagonalCoefficient.from_callable(
            lambda kappa: 0.5 ** kappa[1], "0.5^k2"
        )
        gen = radical_generator(nilpotent_ctx, 2, gamma, 1, 8)
        pts = sample_ideal_space(nilpotent_ctx, 6, 300)
        worst = max(abs(evaluate_gelfand(gen.finite_sum, p)) for p in pts)
        assert worst < 1e-8
        norms = power_norm_sequence(gen.operator, 6)
        assert norms[0] > 1e-6
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_support_condition_enforced(self, nilpotent_ctx):
        bad = DiagonalCoefficient.constant(1.0)
        with pytest.raises(RadicalError):
            radical_generator(nilpotent_ctx, 2, bad, 1, 4)


class TestDivision:
    def test_pure_diagonal(self, diagonal_ctx):
        gamma = DiagonalCoefficient.from_callable(lambda kappa: 2.0 + kappa[0], "g")
        A = FiniteSum.diagonal(2, gamma)
        parts = decompose_by_division(A, 2, 2, diagonal_ctx)
        assert parts.n == 3
        # S_0 = Q_d D_gamma, everything else zero
        for level in range(1, parts.n + 1):
            op = assemble_finite_sum(parts.s_parts[level], diagonal_ctx.model, 3)
            assert op.fro() < 1e-14
        assert parts.reconstruction_residual(diagonal_ctx.model, 3) < 1e-12

    def test_single_generator_one_step(self, diagonal_ctx):
        # At d = 0 the block has one eigenvalue z1: T = S_1 h_1 + z1 Q_0.
        A = FiniteSum.generator(2, 2)
        parts = decompose_by_division(A, 2, 0, diagonal_ctx)
        assert parts.n == 1
        z1 = diagonal_ctx.distinct(2, 0)[0]
        s0 = dense(assemble_finite_sum(parts.s_parts[0], diagonal_ctx.model, 2))
        q0 = q_diag(diagonal_ctx.model, 2, 2, 0)
        assert np.linalg.norm(s0 - complex(z1) * q0) < 1e-12
        assert parts.reconstruction_residual(diagonal_ctx.model, 2) < 1e-12

    def test_random_sums_reconstruct(self, diagonal_ctx):
        rng = np.random.default_rng(23)
        for _ in range(6):
            A = _random_sum(rng, diagonal_ctx.cfg, 4)
            d = int(rng.integers(0, 3))
            parts = decompose_by_division(A, 2, d, diagonal_ctx)
            assert parts.structurally_free_of_generator()
            assert parts.reconstruction_residual(diagonal_ctx.model, 4) < 1e-9

    @pytest.mark.parametrize("k", [(1, 2), (2, 3)])
    def test_blockwise_residual_matches_dense_oracle(self, k):
        cfg = PartitionConfig(k=k, lam=0.0)
        model = AlgebraModel(
            cfg=cfg,
            quasi_radial=QuasiRadialSymbol.from_expression(2, "1 - r1^2*r2^2"),
            symbols={
                1: profile_symbol(1, k[0], "s1^2"),
                2: builtin_quasi_homogeneous(2, (1, -1) + (0,) * (k[1] - 2)),
            },
        )
        ctx = SpectralContext(model=model)
        D = 3
        rng = np.random.default_rng(37)

        def dense_residual(parts):
            lhs = dense(assemble_finite_sum(parts.q_d_times_a, model, D))
            tj = dense(assemble_finite_sum(FiniteSum.generator(cfg.m, parts.group), model, D))
            rhs = dense(assemble_finite_sum(parts.s_parts[0], model, D))
            for level in range(1, parts.n + 1):
                s_l = dense(assemble_finite_sum(parts.s_parts[level], model, D))
                rhs = rhs + s_l @ parts.h_polys[level - 1].at_matrix(tj)
            return float(np.linalg.norm(lhs - rhs))

        for j, d in [(1, 2), (2, 1)]:
            A = checks.random_finite_sum(rng, cfg, D, 4)
            parts = decompose_by_division(A, j, d, ctx)
            # Dropping S_0 leaves an O(1) residual, so the two routes are
            # compared on a nontrivial value as well as on roundoff.
            broken = dataclasses.replace(
                parts, s_parts=(FiniteSum.zero(cfg.m),) + parts.s_parts[1:]
            )
            for candidate in (parts, broken):
                want = dense_residual(candidate)
                got = candidate.reconstruction_residual(model, D)
                assert abs(got - want) <= 1e-13 * max(1.0, want)
            assert dense_residual(broken) > 1e-3

    def test_norm_bounds(self, diagonal_ctx):
        rng = np.random.default_rng(29)
        d = 2
        nc = norm_constants(diagonal_ctx, 2, d)
        for _ in range(10):
            A = _random_sum(rng, diagonal_ctx.cfg, 4)
            parts = decompose_by_division(A, 2, d, diagonal_ctx)
            a_norm = opnorm(assemble_finite_sum(A, diagonal_ctx.model, 4))
            for level in range(parts.n):
                s_norm = opnorm(assemble_finite_sum(
                    parts.s_parts[level], diagonal_ctx.model, 4
                ))
                assert s_norm <= nc.values[level] * a_norm + 1e-9

    def test_ill_conditioned_aborts(self):
        cfg = PartitionConfig(k=(2,))
        model = AlgebraModel(
            cfg=cfg, symbols={1: profile_symbol(1, 2, "0.0000001*s1^2 + 0.5")}
        )
        ctx = SpectralContext(model=model, eig_tol=1e-13)
        A = FiniteSum.generator(1, 1)
        if ctx.eigen(1, 1).n_distinct > 1:
            with pytest.raises(RadicalError):
                decompose_by_division(A, 1, 1, ctx)


class TestNormConstants:
    def test_c0_from_dimension(self, diagonal_ctx):
        nc = norm_constants(diagonal_ctx, 2, 3)
        assert nc.values[0] == pytest.approx(2.0)  # dim H_3 over k=2 is 4

    def test_single_eigenvalue(self, nilpotent_ctx):
        nc = norm_constants(nilpotent_ctx, 2, 2)
        assert len(nc.values) == 1

    def test_unit_gap_recursion(self):
        # profile 3 s1^2 - 1 has degree-1 block diag {1, 0}: gap exactly 1.
        cfg = PartitionConfig(k=(2,))
        model = AlgebraModel(cfg=cfg, symbols={1: profile_symbol(1, 2, "3*s1^2 - 1")})
        ctx = SpectralContext(model=model)
        diag = np.sort(np.diag(model.block(1, 1)).real)
        assert np.allclose(diag, [0.0, 1.0])
        nc = norm_constants(ctx, 1, 1)
        c0 = math.sqrt(2)
        assert nc.values[1] == pytest.approx(c0 * math.sqrt(1 + c0), rel=1e-12)


class TestDenseRadicalCases:
    """Finite-truncation shadows of the three covered structure cases."""

    def test_m1_radical_element_lies_in_generator_span(self):
        # m = 1, nilpotent generator: any dense-subalgebra element killed by
        # all functionals reconstructs inside the span of the typical
        # generators times generator powers.
        cfg = PartitionConfig(k=(2,))
        model = AlgebraModel(cfg=cfg, symbols={1: builtin_quasi_homogeneous(1, (1, -1))})
        ctx = SpectralContext(model=model)
        D = 3
        rng = np.random.default_rng(31)
        # random radical element: A = sum_d Q_d p_d(T) T with random p_d
        A = FiniteSum.zero(1)
        for d in range(D + 1):
            gate = DiagonalCoefficient.indicator_degree(1, d)
            poly = FiniteSum.zero(1)
            for power in range(0, 2):
                coef = complex(rng.standard_normal(), rng.standard_normal())
                poly = poly + coef * FiniteSum.generator(1, 1, power)
            A = A + FiniteSum.diagonal(1, gate) * poly * FiniteSum.generator(1, 1)
        pts = sample_ideal_space(ctx, D, 50)
        assert max(abs(evaluate_gelfand(A, p)) for p in pts) < 1e-10
        a_mat = dense(assemble_finite_sum(A, model, D))

        # span of the ideal generated by the typical elements at truncation
        basis_mats = []
        for d in range(D + 1):
            gen = dense(radical_generator(
                ctx, 1, DiagonalCoefficient.indicator_degree(1, d), 1, D
            ).operator)
            t_mat = dense(assemble_finite_sum(FiniteSum.generator(1, 1), model, D))
            left = np.eye(t_mat.shape[0])
            for power in range(0, 3):
                basis_mats.append(np.linalg.matrix_power(t_mat, power) @ gen)
        stack = np.stack([m.ravel() for m in basis_mats])
        coef, residuals, *_ = np.linalg.lstsq(stack.T, a_mat.ravel(), rcond=None)
        recon = (stack.T @ coef).reshape(a_mat.shape)
        assert np.linalg.norm(recon - a_mat) < 1e-9

    def test_all_nilpotent_span_comparison(self):
        # span{Q_d T^rho D_gamma : rho >= 1} equals the ideal span of the
        # typical generators on the truncation (rank comparison).
        cfg = PartitionConfig(k=(2,))
        model = AlgebraModel(cfg=cfg, symbols={1: builtin_quasi_homogeneous(1, (1, -1))})
        ctx = SpectralContext(model=model)
        D = 3
        t_mat = dense(assemble_finite_sum(FiniteSum.generator(1, 1), model, D))

        span_a = []  # ideal generated by typical elements (h = X here)
        for d in range(D + 1):
            gen = q_diag(model, D, 1, d) @ t_mat
            for power in range(0, D + 1):
                span_a.append(np.linalg.matrix_power(t_mat, power) @ gen)
                span_a.append(gen @ np.linalg.matrix_power(t_mat, power))
        span_b = []  # Q_d T^rho D_gamma patterns with rho >= 1
        for d in range(D + 1):
            for rho in range(1, D + 2):
                for dgam in range(D + 1):
                    span_b.append(
                        q_diag(model, D, 1, d)
                        @ np.linalg.matrix_power(t_mat, rho)
                        @ q_diag(model, D, 1, dgam)
                    )

        def rank(mats):
            stack = np.stack([m.ravel() for m in mats])
            return np.linalg.matrix_rank(stack, tol=1e-10)

        ra, rb = rank(span_a), rank(span_b)
        assert ra == rb == rank(span_a + span_b)

    def test_growing_distinct_counts_make_f_l_finite(self, diagonal_ctx):
        # n_{2,d} = d + 1 grows, so F_L is finite for every L.
        gamma = DiagonalCoefficient.indicator_degree(2, 1)
        gen = radical_generator(diagonal_ctx, 2, gamma, 2, 8)
        assert gen.f_levels == (0, 1)  # only d with n_{2,d} <= 2


def _random_sum(rng, cfg, cap, n_terms=4):
    total = FiniteSum.zero(cfg.m)
    kappas = enumerate_kappa(cfg, cap)
    for _ in range(n_terms):
        rho = tuple(int(rng.integers(0, 3)) for _ in range(cfg.m))
        table = {
            kappa: complex(rng.standard_normal(), rng.standard_normal())
            for kappa in kappas
        }
        total = total + FiniteSum.term(
            cfg.m, DiagonalCoefficient.from_table(table), rho
        )
    return total


def q_diag(model, D, j, d):
    """Dense 0/1 diagonal of Q_d^(j) on the cap-D truncation, read off the
    basis alone, so that it is independent of the code under test."""
    basis = model.basis(D)
    diag = np.zeros(basis.dim)
    for kappa in basis.kappas:
        diag[basis.slice_of(kappa)] = kappa[j - 1] == d
    return np.diag(diag)


def test_indeterminate_rank_refines_at_twice_the_block_order(monkeypatch):
    # exp(s1) + s1*s2*(t1*conj(t2) + t2*conj(t1)) with its p = 0 profile on
    # quadrature, so that the refined block differs.
    cross = MonomialProfile((1, 1))
    table = {(0, 0): Profile(lambda s: np.exp(s[..., 0]), "exp(s1)"), (1, -1): cross, (-1, 1): cross}
    sym = mode_symbol(1, 2, table, "exp-cross", boundary_continuous=False)
    model = AlgebraModel(cfg=PartitionConfig(k=(2,)), symbols={1: sym}, block_order=8)
    ctx = SpectralContext(model=model)
    original = radical.is_diagonalizable
    scanned, refined = [], []

    def flaky(mat, tol=1e-10, *, eigen=None):
        report = original(mat, tol, eigen=eigen)
        if eigen is None:
            refined.append(np.array(mat))
            return report
        scanned.append(eigen.d)
        if eigen.d == 2:  # report the degree-2 rank as indeterminate once
            return dataclasses.replace(report, indeterminate=("forced",))
        return report

    monkeypatch.setattr(radical, "is_diagonalizable", flaky)
    verdict = radical.is_semisimple(ctx, 3)
    assert verdict.semisimple and scanned == [0, 1, 2, 3] and len(refined) == 1
    want = assemble_block(sym, 1, 2, order=16)
    assert refined[0].tobytes() == want.tobytes()
    assert not np.array_equal(want, model.block(1, 2))
