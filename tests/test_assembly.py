import dataclasses
import math
import tracemalloc
from fractions import Fraction
from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ball2_inner_product, basis_layout, dense, gamma_literal, monomial_norm_sq, torus_mode,
)
from toeplitz_spectra import checks
from toeplitz_spectra.assembly import (
    AlgebraModel,
    assemble_block,
    cross_block_entry_bound,
    gamma_quasi_radial,
)
from toeplitz_spectra.gelfand import DiagonalCoefficient, FiniteSum, assemble_finite_sum
from toeplitz_spectra.lattice import PartitionConfig, block_indices, enumerate_kappa
from toeplitz_spectra.quad import (
    dirichlet_moment, dirichlet_probability_rule, gammaln, log_dirichlet_mass,
)
from toeplitz_spectra.symbols import (
    MAX_PROFILE_DEGREE,
    MonomialProfile,
    Profile,
    PseudoHomogeneousSymbol,
    QuasiRadialSymbol,
    builtin_quasi_homogeneous,
    constant_symbol,
    expression_symbol,
    mode_symbol,
    profile_monomial,
    profile_symbol,
)
from toeplitz_spectra.symbols import _mode_sum


class TestGamma:
    def test_identity_symbol(self):
        cfg = PartitionConfig(k=(1, 2), lam=1.5)
        one = QuasiRadialSymbol.one(2)
        for kappa in [(0, 0), (3, 1), (10, 7)]:
            assert gamma_quasi_radial(one, cfg, kappa) == pytest.approx(1.0, abs=1e-12)

    def test_disk_moment(self):
        cfg = PartitionConfig(k=(1,), lam=0.0)
        a = QuasiRadialSymbol.from_expression(1, "r1^2")
        assert gamma_quasi_radial(a, cfg, (0,)).real == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 1.5, -0.9])
    def test_separable_factorization(self, lam):
        # For a = r_1^2 the eigenvalue is the Dirichlet first moment; the
        # lam = -0.9 case leans on the absorbed near-singular weight.
        cfg = PartitionConfig(k=(1, 2), lam=lam)
        a = QuasiRadialSymbol.from_expression(2, "r1^2")
        for kappa in [(0, 0), (2, 1), (5, 3)]:
            want = (kappa[0] + 1) / (sum(kappa) + sum(cfg.k) + cfg.lam + 1)
            assert gamma_quasi_radial(a, cfg, kappa).real == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("lam", [0.0, 1.5])
    def test_literal_formula_oracle(self, lam):
        cfg = PartitionConfig(k=(1, 2), lam=lam)
        a = QuasiRadialSymbol.from_expression(2, "1 - r1^2*r2^2")
        for kappa in [(0, 0), (1, 2), (4, 1)]:
            got = gamma_quasi_radial(a, cfg, kappa)
            want = gamma_literal(a, cfg.k, lam, kappa, n_rad=240)
            assert got == pytest.approx(want, abs=5e-9)

    def test_readme_gamma_is_its_exact_rational(self):
        # On k = (1, 2), lam = 0: gamma = 1 - c x1 x2 / (X (X + 1)) with
        # x = kappa + k and X = |kappa| + 4.
        c = 0.7
        cfg = PartitionConfig(k=(1, 2), lam=0.0)
        a = QuasiRadialSymbol.from_expression(2, f"1 - {c}*r1^2*r2^2")
        for kappa in enumerate_kappa(cfg, 20) + [(10**4, 10**4), (10**4, 3)]:
            x1, x2, big = kappa[0] + 1, kappa[1] + 2, sum(kappa) + 4
            want = 1 - Fraction(c) * Fraction(x1 * x2, big * (big + 1))
            got = gamma_quasi_radial(a, cfg, kappa)
            assert got.imag == 0.0
            assert abs(Fraction(got.real) - want) <= Fraction(1e-15) * want, kappa

    def test_odd_power_is_exact(self):
        # E[u1^(1/2)] under Dirichlet(1, 2, 1) = Gamma(3/2) Gamma(4) / Gamma(9/2);
        # the order-48 rule in u is off by 2.6e-6 here.
        cfg = PartitionConfig(k=(1, 2), lam=0.0)
        got = gamma_quasi_radial(QuasiRadialSymbol.from_expression(2, "r1"), cfg, (0, 0))
        assert abs(Fraction(got.real) - Fraction(16, 35)) <= Fraction(1e-15) * Fraction(16, 35)

    def test_exp_compiles_to_its_series_of_moments(self):
        # exp(r1) = sum_n r1^n / n!, each term an exact Dirichlet moment.
        cfg = PartitionConfig(k=(1, 2), lam=0.5)
        a = QuasiRadialSymbol.from_expression(2, "exp(r1)")
        assert a.terms is not None
        for kappa in [(0, 0), (3, 1), (7, 9)]:
            exps = tuple(float(kap + kj - 1) for kap, kj in zip(kappa, cfg.k)) + (cfg.lam,)
            moments = [dirichlet_moment(exps, [n / 2, 0]) / math.factorial(n) for n in range(40)]
            want = math.fsum(moments)
            assert abs(gamma_quasi_radial(a, cfg, kappa) - want) <= 1e-14 * want, kappa

    @pytest.mark.parametrize("text", ["1/(r1 - 0.5)", "(1 + r1^2)^0.5"])
    def test_non_polynomials_keep_the_probability_rule(self, text):
        cfg = PartitionConfig(k=(1, 2), lam=0.5)
        a = QuasiRadialSymbol.from_expression(2, text)
        assert a.terms is None
        for kappa in [(0, 0), (3, 1), (7, 9)]:
            exps = tuple(float(kap + kj - 1) for kap, kj in zip(kappa, cfg.k)) + (cfg.lam,)
            rule = dirichlet_probability_rule(exps, 48)
            want = complex(np.sum(rule.weights * a(np.sqrt(rule.nodes))))
            assert gamma_quasi_radial(a, cfg, kappa, 48) == want

    @settings(max_examples=40, deadline=None)
    @given(
        terms=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(-2.0, 2.0)),
            min_size=1, max_size=4,
        ),
        kappa=st.tuples(st.integers(0, 30), st.integers(0, 30)),
        lam=st.sampled_from([0.0, 1.5, -0.5]),
    )
    def test_compiled_gamma_matches_quadrature(self, terms, kappa, lam):
        cfg = PartitionConfig(k=(1, 2), lam=lam)
        text = " + ".join(f"({c!r})*r1^{2 * i}*r2^{2 * j}" for i, j, c in terms)
        a = QuasiRadialSymbol.from_expression(2, text)
        assert a.terms is not None
        quadrature = dataclasses.replace(a, terms=None)
        got = gamma_quasi_radial(a, cfg, kappa)
        want = gamma_quasi_radial(quadrature, cfg, kappa)
        assert abs(got - want) <= 1e-12 * max(sum(abs(c) for _, _, c in terms), 1.0)


class TestBlocks:
    def test_identity_block(self):
        c = constant_symbol(1, 2, 1.0)
        for d in range(5):
            b = assemble_block(c, 1, d)
            assert np.max(np.abs(b - np.eye(len(b)))) < 1e-14

    def test_profile_block_is_diagonal(self):
        b = assemble_block(profile_symbol(1, 2, "s1^2"), 1, 4)
        off = b - np.diag(np.diag(b))
        assert np.max(np.abs(off)) == 0.0
        want = [(a + 1) / 6 for a in (4, 3, 2, 1, 0)]
        assert np.allclose(np.diag(b).real, want)

    @pytest.mark.parametrize("k", [2, 3])
    def test_polynomial_string_matches_monomial_profile_bitwise(self, k):
        # Both spellings take the closed-form Gamma ratio, so the blocks agree
        # to the bit; a quadrature route would be off by an ulp or more.
        powers = (2,) + (0,) * (k - 1)
        text = profile_symbol(1, k, "s1^2")
        mono = profile_monomial(1, powers)
        for d in range(5):
            a = assemble_block(text, 1, d)
            b = assemble_block(mono, 1, d)
            assert a.tobytes() == b.tobytes(), d

    def test_closed_form_at_profile_degree_limit(self):
        # s1^N with N = MAX_PROFILE_DEGREE, k = 2: the entry at alpha is
        # (d+1)!/alpha_0! * (alpha_0 + N/2)!/(d + N/2 + 1)!, a rational number.
        n = MAX_PROFILE_DEGREE
        sym = profile_symbol(1, 2, f"s1^{n}")
        for d in range(3):
            block = assemble_block(sym, 1, d)
            for i, alpha in enumerate(block_indices(2, d)):
                want = math.factorial(d + 1) / math.factorial(alpha[0]) / math.prod(
                    range(alpha[0] + n // 2 + 1, d + n // 2 + 2)
                )
                assert block[i, i] == pytest.approx(want, rel=1e-10, abs=0), (d, alpha)

    def test_non_polynomial_profile_uses_quadrature(self):
        # exp(s1^2)^0.5 = sum_n s1^(2n)/(2^n n!), whose power 0.5 does not
        # compile; each term's diagonal entry is the Dirichlet ratio
        # Gamma(d+k)/alpha! * prod Gamma(e_l+1)/Gamma(k+|e|) with
        # e = alpha + (n, 0, ...).
        for k in (2, 3):
            sym = profile_symbol(1, k, "exp(s1^2)^0.5")
            assert sym.modes[(0,) * k].terms is None
            for d in range(5):
                block = assemble_block(sym, 1, d)
                off = block - np.diag(np.diag(block))
                assert np.max(np.abs(off)) == 0.0
                for i, alpha in enumerate(block_indices(k, d)):
                    want = 0.0
                    for n in range(60):
                        e = (alpha[0] + n,) + tuple(alpha[1:])
                        want += math.exp(
                            math.lgamma(d + k)
                            - sum(math.lgamma(v + 1) for v in alpha)
                            + sum(math.lgamma(v + 1) for v in e)
                            - math.lgamma(k + sum(e))
                            - math.lgamma(n + 1)
                            - n * math.log(2)
                        )
                    assert block[i, i] == pytest.approx(want, abs=2e-7), (k, d, alpha)

    @pytest.mark.parametrize("k, text", [(2, "exp(s1)"), (3, "1/(2 - s1^2)")])
    def test_torus_free_expression_is_its_profile(self, k, text):
        # Without a torus variable an expression declares the single mode
        # p = 0, as a profile does, with the same terms and the same blocks.
        expr, prof = expression_symbol(1, k, text), profile_symbol(1, k, text)
        assert list(expr.modes) == [(0,) * k]
        assert expr.modes[(0,) * k].terms == prof.modes[(0,) * k].terms is not None
        for d in range(4):
            a = assemble_block(expr, 1, d, order=24)
            assert a.tobytes() == assemble_block(prof, 1, d, order=24).tobytes(), d

    @pytest.mark.parametrize("k", [2, 3])
    def test_exp_profile_is_its_series_of_monomial_blocks(self, k):
        sym = profile_symbol(1, k, "exp(s1)")
        for d in range(5):
            terms = [profile_monomial(1, (n,) + (0,) * (k - 1), 1 / math.factorial(n)) for n in range(40)]
            want = sum(assemble_block(term, 1, d) for term in terms)
            got = assemble_block(sym, 1, d)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), d

    def test_division_compiles_when_its_ratio_is_below_one(self):
        # 1/(2 - s1^2) = sum_n s1^(2n) / 2^(n+1): ratio 1/2.
        sym = profile_symbol(1, 2, "1/(2 - s1^2)")
        terms = sym.modes[(0, 0)].terms
        assert [t.powers for t in terms[:3]] == [(0, 0), (2, 0), (4, 0)]
        assert [t.coeff for t in terms[:3]] == [0.5, 0.25, 0.125]

    @pytest.mark.parametrize("k, text, order", [
        (3, "exp(s1)", 300), (3, "exp(s1*s2) + s1^3", 301), (4, "exp(s1)", 60),
    ])
    def test_quadrature_entries_hold_at_most_the_priced_bytes_per_node(self, k, text, order):
        # quadrature.block_order is priced at 24k + 32 bytes a node of the
        # rule of a profile without terms (cli.build_setup): here the text,
        # evaluated at the nodes, without the terms it compiles to.
        prof = profile_symbol(1, k, text).modes[(0,) * k]
        table = {(0,) * k: Profile(prof.fn, text)}
        sym = mode_symbol(1, k, table, text, boundary_continuous=False)
        tracemalloc.start()
        try:
            assemble_block(sym, 1, 0, order=order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / order ** (k - 1) <= 24 * k + 32

    def test_quasi_homogeneous_block_structure(self):
        # Single nonzero mode: strictly triangular with Dirichlet-form entries.
        b = assemble_block(builtin_quasi_homogeneous(1, (1, -1)), 1, 1)
        assert b[0, 1] == pytest.approx(1.0 / 3.0)
        assert np.count_nonzero(b) == 1
        b2 = assemble_block(builtin_quasi_homogeneous(1, (1, -1)), 1, 2)
        assert b2[0, 1] == pytest.approx(math.sqrt(2) / 4)
        assert b2[1, 2] == pytest.approx(math.sqrt(2) / 4)

    def test_block_entries_against_ball_oracle(self):
        # <T c e_alpha, e_beta> over the weightless two-dimensional ball.
        symbols = {
            "qh": builtin_quasi_homogeneous(1, (1, -1)),
            "generic": expression_symbol(
                1, 2, "s1^2*s2^2*(t1^2*conj(t2)^2 + conj(t1)^2*t2^2) + 0.5"
            ),
        }
        ball_fns = {
            "qh": lambda z: (
                z[..., 0]
                * np.conj(z[..., 1])
                / np.maximum(np.abs(z[..., 0]) ** 2 + np.abs(z[..., 1]) ** 2, 1e-300)
            ),
            "generic": lambda z: (
                z[..., 0] ** 2 * np.conj(z[..., 1]) ** 2
                + np.conj(z[..., 0]) ** 2 * z[..., 1] ** 2
            )
            / np.maximum(np.abs(z[..., 0]) ** 2 + np.abs(z[..., 1]) ** 2, 1e-300) ** 2
            + 0.5,
        }
        cfg = PartitionConfig(k=(1, 1), lam=0.0)
        for name in symbols:
            for d in (1, 2):
                block = assemble_block(symbols[name], 1, d, order=48)
                indices = block_indices(2, d)
                for col, alpha in enumerate(indices):
                    for row, beta in enumerate(indices):
                        want = ball2_inner_product(
                            ball_fns[name], alpha, beta, 0.0, n_rad=80, n_ang=16
                        )
                        want /= math.sqrt(
                            monomial_norm_sq(alpha, cfg) * monomial_norm_sq(beta, cfg)
                        )
                        assert block[row, col] == pytest.approx(want, abs=2e-7), (
                            name, d, alpha, beta,
                        )

    def test_lambda_independence_bitwise(self):
        sym = builtin_quasi_homogeneous(2, (1, -1))
        m0 = AlgebraModel(cfg=PartitionConfig(k=(1, 2), lam=0.0), symbols={2: sym})
        m1 = AlgebraModel(cfg=PartitionConfig(k=(1, 2), lam=2.5), symbols={2: sym})
        for d in range(4):
            a = m0.block(2, d)
            b = m1.block(2, d)
            assert a.tobytes() == b.tobytes()


    def test_model_blocks_are_read_only_assembled_arrays(self):
        cfg = PartitionConfig(k=(1, 2), lam=0.5)
        sym = expression_symbol(2, 2, "0.4 + s1*s2*t1*conj(t2)", boundary_continuous=True)
        model = AlgebraModel(cfg=cfg, symbols={2: sym})
        for j, d in [(1, 3), (2, 0), (2, 3)]:
            b = model.block(j, d)
            assert model.block(j, d) is b
            assert b.dtype == complex and not b.flags.writeable
            with pytest.raises(ValueError):
                b[0, 0] = 1.0
        fresh = assemble_block(sym, 2, 3)
        assert isinstance(fresh, np.ndarray) and fresh.flags.writeable
        assert fresh.tobytes() == model.block(2, 3).tobytes()

    def test_callable_profile_block(self):
        # Two profiles without terms share a label; each block is its own.
        first, second = (
            mode_symbol(1, 2, {(0, 0): Profile(fn, "callable")}, "callable", boundary_continuous=False)
            for fn in (lambda s: np.exp(s[..., 0]), lambda s: 5 + 0 * s[..., 0])
        )
        assemble_block(first, 1, 2, order=16)
        assert np.allclose(assemble_block(second, 1, 2, order=16), 5 * np.eye(3))


def product_sum(model: AlgebraModel) -> FiniteSum:
    """D_{gamma_a} T_1 ... T_m, the element T_{a prod_j c_j}."""
    gamma_a = DiagonalCoefficient.from_callable(model.gamma, "gamma_a")
    return FiniteSum.term(model.cfg.m, gamma_a, (1,) * model.cfg.m)


class TestTruncated:
    def test_trivial_is_identity(self):
        cfg = PartitionConfig(k=(1, 2), lam=0.0)
        model = AlgebraModel(cfg=cfg, quasi_radial=QuasiRadialSymbol.one(2))
        op = assemble_finite_sum(product_sum(model), model, 3)
        assert np.linalg.norm(dense(op) - np.eye(op.basis.dim)) < 1e-12

    def test_single_generator_block_diagonal(self):
        cfg = PartitionConfig(k=(1, 2), lam=0.0)
        sym = builtin_quasi_homogeneous(2, (1, -1))
        model = AlgebraModel(cfg=cfg, symbols={2: sym})
        op = assemble_finite_sum(FiniteSum.generator(2, 2), model, 3)
        # On each H_kappa the operator is identity (x) block(kappa_2).
        for kappa in op.basis.kappas:
            want = np.kron(np.eye(1), model.block(2, kappa[1]))
            assert np.allclose(op.blocks[kappa], want)

    def test_kappa_matrix_memo_is_read_only_and_exact(self):
        # Block powers are memoized per (j, d, power) and shared read-only;
        # a tensor block of a finite sum is its coefficient times the kron
        # of the block powers, summed onto zeros, bit for bit.  k=(1,1,2)
        # has a 1 x 1 symbol block, a group without symbol and runs of
        # several kappas per block shape.
        for k in [(2, 3), (1, 1, 2)]:
            self._check_memo_and_tensor_blocks(k)

    def _check_memo_and_tensor_blocks(self, k):
        cfg = PartitionConfig(k=k, lam=0.5)
        symbols = (
            {1: builtin_quasi_homogeneous(1, (1, -1)), 2: profile_symbol(2, 3, "s1^2 + 0.5*s2*s3")}
            if k == (2, 3) else
            {1: constant_symbol(1, 1, 0.5 + 0.25j), 3: profile_symbol(3, 2, "s1^2 + 0.5*s1*s2")}
        )
        model = AlgebraModel(cfg=cfg, symbols=symbols)
        for j in symbols:
            for d, power in [(0, 0), (2, 1), (3, 2), (1, 3)]:
                first = model.block_power(j, d, power)
                assert model.block_power(j, d, power) is first
                assert not first.flags.writeable
                with pytest.raises(ValueError):
                    first[0, 0] = 1.0
                fresh = np.linalg.matrix_power(model.block(j, d), power)
                assert first.tobytes() == fresh.tobytes()
        gamma = DiagonalCoefficient.constant(0.3 - 0.7j)
        for rho in [(1,) * cfg.m, (0,) * (cfg.m - 1) + (1,), (2,) + (1,) * (cfg.m - 1),
                    (1,) + (0,) * (cfg.m - 1)]:
            op = assemble_finite_sum(FiniteSum.term(cfg.m, gamma, rho), model, 4)
            for kappa in op.basis.kappas:
                fresh = reduce(np.kron, [
                    np.linalg.matrix_power(model.block(j, kappa[j - 1]), rho[j - 1])
                    for j in range(1, cfg.m + 1)
                ])
                want = np.zeros_like(fresh)
                want += (0.3 - 0.7j) * fresh
                assert op.blocks[kappa].tobytes() == want.tobytes(), (rho, kappa)

    def test_full_matrix_against_ball_oracle(self):
        # n=2, k=(1,1), D=2: entries vs brute-force tensor quadrature.
        lam = 1.5
        cfg = PartitionConfig(k=(1, 1), lam=lam)
        a = QuasiRadialSymbol.from_expression(2, "1 - r1^2*r2^2")
        c1 = constant_symbol(1, 1, 0.5 + 0.25j)
        model = AlgebraModel(cfg=cfg, quasi_radial=a, symbols={1: c1})
        op = assemble_finite_sum(product_sum(model), model, 2)
        mat = dense(op)

        def phi(z):
            r1sq = np.abs(z[..., 0]) ** 2
            r2sq = np.abs(z[..., 1]) ** 2
            return (1 - r1sq * r2sq) * (0.5 + 0.25j)

        alphas = [alpha for _, alpha in basis_layout(cfg.k, 2)]
        for ia, alpha in enumerate(alphas):
            for ib, beta in enumerate(alphas):
                want = ball2_inner_product(phi, alpha, beta, lam, n_rad=160, n_ang=8)
                want /= math.sqrt(
                    monomial_norm_sq(alpha, cfg) * monomial_norm_sq(beta, cfg)
                )
                assert mat[ib, ia] == pytest.approx(want, abs=1e-6)

    def test_commutativity_and_product(self, radial_model):
        D = 4
        gamma_a = DiagonalCoefficient.from_callable(radial_model.gamma, "gamma_a")
        t_prod = assemble_finite_sum(product_sum(radial_model), radial_model, D)
        t_rad = assemble_finite_sum(FiniteSum.diagonal(2, gamma_a), radial_model, D)
        t_gen = assemble_finite_sum(FiniteSum.generator(2, 2), radial_model, D)
        assert (t_rad @ t_gen - t_gen @ t_rad).fro() < 1e-12
        assert (t_prod - t_rad @ t_gen).fro() < 1e-12

    def test_cross_block_bound_small(self, radial_model):
        assert cross_block_entry_bound(radial_model) < 1e-10

    def test_cross_block_bound_of_declared_models_is_structurally_zero(self, radial_model):
        expr = AlgebraModel(
            cfg=PartitionConfig(k=(2, 3), lam=0.5),
            quasi_radial=QuasiRadialSymbol.from_expression(2, "exp(-r1^2*r2^2)"),
            symbols={
                1: expression_symbol(1, 2, "s1^2 + s1*s2*(t1*conj(t2)+t2*conj(t1))"),
                2: profile_symbol(2, 3, "1/(2 - s1^2)"),
            },
        )
        for model in (radial_model, expr):
            assert cross_block_entry_bound(model) == 0.0

    @pytest.mark.parametrize("eps", [1e-3, 1e-8])
    def test_cross_block_bound_sees_a_leaking_mode(self, eps):
        # eps * s2 * t2 has mode (0, 1), which links kappa to kappa + 1; a
        # table built past mode_symbol's invariance check holds it.
        modes = {(0, 0): MonomialProfile((0, 0)), (0, 1): MonomialProfile((0, 1), eps)}
        sym = PseudoHomogeneousSymbol(2, 2, _mode_sum(modes.items()), f"leak{eps}", modes)
        model = AlgebraModel(
            cfg=PartitionConfig(k=(1, 2)),
            quasi_radial=QuasiRadialSymbol.from_expression(2, "1 - 0.5*r1^2*r2^2"),
            symbols={2: sym},
        )
        assert cross_block_entry_bound(model) == math.inf
        (record,) = checks.cross_block_orthogonality(model)
        assert not record["passed"]

    def test_cross_block_bound_of_a_compiled_exp_symbol(self):
        text = "exp(s1*s2*(t1*conj(t2)+t2*conj(t1)))"
        model = AlgebraModel(
            cfg=PartitionConfig(k=(2, 2)),
            symbols={j: expression_symbol(j, 2, text) for j in (1, 2)},
        )
        assert all(len(sym.modes) > 1 for sym in model.symbols.values())
        assert cross_block_entry_bound(model) == 0.0


class TestProjections:
    """Q_d^(j) is the diagonal coefficient indicator_degree(j, d); the oracle
    is each kappa's 0/1 indicator, computed from the kappas alone."""

    @staticmethod
    def values(A: FiniteSum, kappas) -> np.ndarray:
        assert all(not any(rho) for _, rho in A.terms)
        return np.array([sum((g(k) for g, _ in A.terms), 0j) for k in kappas])

    @staticmethod
    def q(j: int, d: int) -> FiniteSum:
        return FiniteSum.diagonal(2, DiagonalCoefficient.indicator_degree(j, d))

    def test_masks(self):
        kappas = enumerate_kappa(PartitionConfig(k=(1, 2), lam=0.0), 4)
        karr = np.array(kappas)
        pk = self.values(self.q(1, 1) * self.q(2, 2), kappas)
        assert np.array_equal(pk, np.all(karr == (1, 2), axis=1))
        # disjoint P coefficients
        pk2 = self.values(self.q(1, 0) * self.q(2, 2), kappas)
        assert not np.any(pk * pk2)
        # Q_d as the sum of P over matching kappa
        acc = FiniteSum.zero(2)
        for kappa in kappas:
            if kappa[1] == 2:
                acc = acc + self.q(1, kappa[0]) * self.q(2, kappa[1])
        assert np.array_equal(self.values(acc, kappas), karr[:, 1] == 2)

    def test_qtilde_definition(self):
        kappas = enumerate_kappa(PartitionConfig(k=(1, 2), lam=0.0), 4)
        qt = self.q(2, 0) + self.q(2, 1) + self.q(2, 2)
        assert np.array_equal(self.values(qt, kappas), np.array(kappas)[:, 1] <= 2)

    def test_orthogonalization(self):
        kappas = enumerate_kappa(PartitionConfig(k=(1, 2), lam=0.0), 3)
        karr = np.array(kappas)
        q1 = self.q(1, 0) + self.q(1, 1)
        q2 = self.q(2, 0) + self.q(2, 1) + self.q(2, 2)
        # P_1 = Qtilde_1, P_2 = Qtilde_2 - Qtilde_2 P_1
        p1 = q1
        p2 = q2 - q2 * p1
        m1, m2 = karr[:, 0] <= 1, karr[:, 1] <= 2
        assert np.array_equal(self.values(p1, kappas), m1)
        assert not np.any(self.values(p1, kappas) * self.values(p2, kappas))
        assert np.array_equal(self.values(p1 + p2, kappas), m1 | m2)
        # overlap removed exactly where q1 already covered
        assert np.array_equal(self.values(p2, kappas), m2 & ~m1)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_probed_block_matches_the_per_entry_route(d):
    # A table of profiles without terms, each a mode p probed on the torus by
    # the oracle, goes through the loop over modes with quadrature entries;
    # they must equal, bit for bit, a Fourier coefficient per entry against
    # the Dirichlet pair rule of that entry.
    fn = expression_symbol(1, 2, "exp(s1) * (1 + s1*s2*(t1*conj(t2) + t2*conj(t1)))").fn
    order, grid = 12, 16
    indices = block_indices(2, d)
    modes = {tuple(vb - va for va, vb in zip(alpha, beta)) for alpha in indices for beta in indices}
    table = {p: Profile(partial(torus_mode, fn, p=p, grid=grid), f"probe@{p}") for p in modes}
    sym = mode_symbol(1, 2, table, "probed", boundary_continuous=False)
    got = assemble_block(sym, 1, d, order=order)
    want = np.zeros_like(got)
    for col, alpha in enumerate(indices):
        for row, beta in enumerate(indices):
            p = tuple(vb - va for va, vb in zip(alpha, beta))
            exps = tuple((va + vb) / 2.0 for va, vb in zip(alpha, beta))
            rule = dirichlet_probability_rule(exps, order)
            chat = torus_mode(fn, np.sqrt(rule.nodes_closed), p, grid=grid)
            prefactor = float(
                gammaln(d + 2)
                - 0.5 * sum(gammaln(v + 1.0) for v in alpha)
                - 0.5 * sum(gammaln(v + 1.0) for v in beta)
            )
            want[row, col] = complex(np.sum(rule.weights * chat)) * math.exp(
                prefactor + log_dirichlet_mass(exps)
            )
    assert np.array_equal(got, want)
