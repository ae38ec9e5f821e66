import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplitz_spectra import symbols
from toeplitz_spectra.errors import SymbolError, SymbolParseError
from toeplitz_spectra.quad import fourier_on_points
from toeplitz_spectra.symbols import (
    MAX_PROFILE_DEGREE,
    MAX_PROFILE_TERMS,
    MonomialProfile,
    Profile,
    PseudoHomogeneousSymbol,
    QuasiRadialSymbol,
    builtin_quasi_homogeneous,
    check_invariance,
    constant_symbol,
    expression_symbol,
    mode_symbol,
    parse_symbol_expression,
    profile_symbol,
)


class TestParser:
    def test_constant(self):
        expr = parse_symbol_expression("1")
        assert expr.evaluate({}) == 1.0
        assert expr.variables == frozenset()

    def test_structure(self):
        expr = parse_symbol_expression("s1^2 * t1 * conj(t2)")
        assert expr.variables == {"s1", "t1", "t2"}
        val = expr.evaluate({"s1": 0.5, "t1": 1j, "t2": np.exp(0.3j)})
        assert val == pytest.approx(0.25 * 1j * np.exp(-0.3j))

    def test_unit_modulus(self):
        expr = parse_symbol_expression("exp(2*pi*i*s1^2)")
        for v in (0.0, 0.5, 1.0, 0.123):
            assert abs(abs(expr.evaluate({"s1": v})) - 1.0) < 1e-12

    def test_syntax_error_position(self):
        with pytest.raises(SymbolParseError) as err:
            parse_symbol_expression("s1 + * 2")
        assert err.value.position == 5

    def test_unknown_identifier(self):
        with pytest.raises(SymbolParseError):
            parse_symbol_expression("s1 + bogus")
        with pytest.raises(SymbolParseError):
            parse_symbol_expression("sin(s1)")

    def test_empty(self):
        with pytest.raises(SymbolParseError):
            parse_symbol_expression("   ")

    def test_power_right_associative(self):
        expr = parse_symbol_expression("2^3^2")
        assert expr.evaluate({}) == pytest.approx(512.0)

    def test_repeated_evaluation_bit_identical(self):
        expr = parse_symbol_expression("exp(s1*2 - 1/3) * conj(t1) + s2^3")
        env = {"s1": 0.37, "s2": 0.91, "t1": np.exp(1.1j)}
        first = complex(expr.evaluate(env))
        for _ in range(5):
            assert complex(expr.evaluate(env)) == first


class TestQuasiRadial:
    def test_one(self):
        a = QuasiRadialSymbol.one(2)
        r = np.array([[0.1, 0.2], [0.5, 0.5]])
        assert np.allclose(a(r), 1.0)

    def test_expression_and_power(self):
        a = QuasiRadialSymbol.from_expression(2, "r1^2*r2^2")
        b = QuasiRadialSymbol.power((2, 2))
        r = np.array([[0.3, 0.4], [0.5, 0.1]])
        assert np.allclose(a(r), b(r))

    def test_rejects_wrong_variables(self):
        with pytest.raises(SymbolError):
            QuasiRadialSymbol.from_expression(1, "r2")

    def test_polynomials_compile_within_the_profile_limits(self):
        a = QuasiRadialSymbol.from_expression(2, "2*r1*r2^3 + r1")
        assert a.terms == (MonomialProfile((1, 0)), MonomialProfile((1, 3), 2.0))
        assert QuasiRadialSymbol.power((2, 1)).terms == (MonomialProfile((2, 1)),)
        for text in (f"r1^{MAX_PROFILE_DEGREE + 1}", f"(r1 + r2)^{MAX_PROFILE_TERMS}"):
            with pytest.raises(SymbolError):
                QuasiRadialSymbol.from_expression(2, text)
        with pytest.raises(SymbolError):
            QuasiRadialSymbol.power((MAX_PROFILE_DEGREE + 1, 0))


class TestPseudoHomogeneous:
    def test_builtin_rejects_bad_mode(self):
        with pytest.raises(SymbolError):
            builtin_quasi_homogeneous(1, (1, 0))

    def test_fourier_mode_rejects_bad_mode(self):
        with pytest.raises(SymbolError, match="not invariant"):
            mode_symbol(1, 2, {(1, 0): MonomialProfile((1, 0))}, "bad", boundary_continuous=False)
        modes = expression_symbol(1, 2, "s1*t1*conj(t2)").declared_mode_dict()
        assert modes[(1, -1)](np.array([[0.6, 0.8]]))[0] == pytest.approx(0.6)
        assert (2, -2) not in modes

    def test_builtin_trivial_mode(self):
        c = builtin_quasi_homogeneous(1, (0, 0))
        s = np.array([[0.6, 0.8]])
        t = np.array([[1j, -1j]])
        assert c(s, t)[0] == pytest.approx(1.0)

    def test_builtin_values(self):
        c = builtin_quasi_homogeneous(1, (1, -1))
        s = np.array([[0.6, 0.8]])
        t = np.array([[np.exp(0.4j), np.exp(0.1j)]])
        assert c(s, t)[0] == pytest.approx(0.48 * np.exp(0.3j))

    def test_invariance_builtins(self):
        for sym in [
            builtin_quasi_homogeneous(1, (1, -1)),
            builtin_quasi_homogeneous(1, (2, -1, -1)),
            profile_symbol(1, 2, "s1^2"),
            constant_symbol(1, 3, 2.5),
        ]:
            report = check_invariance(sym, samples=64, tol=1e-12)
            assert report.ok, (sym.label, report.worst)

    def test_invariance_failure(self):
        bare = PseudoHomogeneousSymbol(
            group=1, dim=2, fn=lambda s, t: t[..., 0], label="t1"
        )
        report = check_invariance(bare, samples=32, tol=1e-12)
        assert not report.ok
        assert report.worst > 0.1

    def test_profile_has_no_torus_dependence(self):
        c = profile_symbol(1, 2, "s1*s2 + 0.25")
        report = check_invariance(c, samples=32)
        assert report.ok

    def test_polynomial_profile_compiles_to_canonical_terms(self):
        def terms(text, dim=2):
            prof = profile_symbol(1, dim, text).modes[(0,) * dim]
            assert prof.terms is not None, text
            return [(m.powers, m.coeff) for m in prof.terms]

        assert terms("s1*s1") == terms("s1^2") == [((2, 0), 1.0)]
        # equal powers merge, zero coefficients drop, ascending powers
        assert terms("s2 + s1*s1 - s2 + 0*s1*s2 + 3") == [((0, 0), 3.0), ((2, 0), 1.0)]
        assert terms("(s1 + s2)^2") == [((0, 2), 1.0), ((1, 1), 2.0), ((2, 0), 1.0)]
        assert terms("2*i*s3^exp(0)", dim=3) == [((0, 0, 1), 2j)]
        # 201 terms from operands of 72 and 129 terms during binary powering
        binomial = terms("(s1 + s2)^200")
        assert [e for e, _ in binomial] == [(n, 200 - n) for n in range(201)]
        assert binomial[100][1] == pytest.approx(math.comb(200, 100), rel=1e-12)
        # non-polynomials, also when a polynomial part is past the limits
        for text in ("exp(s1)", "s1/2", "s1^0.5", "conj(s1)", "s1^s2", "s1 + 1/0",
                     "exp(s1) + (s1 + s2)^20000"):
            prof = profile_symbol(1, 2, text, boundary_continuous=False).modes[(0, 0)]
            assert prof.terms is None, text
        # Declared boundary continuous, as by default, the last two are
        # refused: 1/0 is inf and the power overflows.
        for text in ("s1 + 1/0", "exp(s1) + (s1 + s2)^20000"):
            with pytest.raises(SymbolError, match="non-finite"):
                profile_symbol(1, 2, text)

    def test_polynomial_profile_limits_refuse(self):
        # Past MAX_PROFILE_DEGREE the closed form's log-Gamma differences
        # lose accuracy: the d = 0 entry of s1^1e20 would come out as 1.
        with pytest.raises(SymbolError, match="degree"):
            profile_symbol(1, 2, "s1^1e20")
        with pytest.raises(SymbolError, match="degree"):
            MonomialProfile((10**20, 0))
        assert MonomialProfile((MAX_PROFILE_DEGREE, 0)).powers == (MAX_PROFILE_DEGREE, 0)
        # Past MAX_PROFILE_TERMS, from a power and from a sum.
        assert len(profile_symbol(1, 3, "(s1 + s2 + s3)^43").modes[(0, 0, 0)].terms) == 990
        for text in ("(s1 + s2 + s3)^44", "(s1 + s2 + s3)^40 + (s1 + s2)^200"):
            with pytest.raises(SymbolError, match="terms"):
                profile_symbol(1, 3, text)

    def test_compiled_profile_evaluates_the_expression(self):
        c = profile_symbol(1, 2, "s1*s2 + 0.25")
        s = np.array([[0.6, 0.8], [1.0, 0.0]])
        assert np.array_equal(c(s, np.ones((2, 2))), s[:, 0] * s[:, 1] + 0.25)

    def test_torus_free_expression_evaluates_as_its_profile(self):
        # Both sum their single mode onto zeros, so -0.0 comes out +0.0.
        s, t = np.array([[0.6, 0.8]]), np.array([[1j, -1j]])
        for text in ("-s1*0", "exp(s1) - s2"):
            got = expression_symbol(1, 2, text)(s, t)
            assert got.tobytes() == profile_symbol(1, 2, text)(s, t).tobytes(), text
        assert math.copysign(1.0, expression_symbol(1, 2, "-s1*0")(s, t)[0].real) == 1.0

    def test_expression_symbol_validation(self):
        good = expression_symbol(1, 2, "exp(s1*s2*(t1*conj(t2) + conj(t1)*t2))")
        assert good.modes is None
        with pytest.raises(SymbolError):
            expression_symbol(1, 2, "t1")
        # A polynomial in s, t, conj(t) compiles to its mode table.
        poly = expression_symbol(1, 2, "s1*s2*(t1*conj(t2) + conj(t1)*t2)")
        assert _table(poly) == {
            (-1, 1): [((1, 1), 1.0)],
            (1, -1): [((1, 1), 1.0)],
        }

    def test_nonfinite_symbol_rejected_at_load(self):
        with pytest.raises(SymbolError):
            expression_symbol(1, 2, "1/(s1*s2*0)", boundary_continuous=True)
        # A constant 1/0 is inf, so the invariance probe of a probed
        # expression refuses it whatever the continuity flag.
        for flag in (True, False):
            with pytest.raises(SymbolError, match="non-finite"):
                expression_symbol(1, 2, "exp(t1*conj(t2)) + 1/0", boundary_continuous=flag)

    def test_declared_support_matches_numeric(self):
        # Numeric torus transform reproduces the declared analytic profile.
        sym = builtin_quasi_homogeneous(1, (2, -1, -1))
        rng = np.random.default_rng(7)
        raw = np.abs(rng.standard_normal((20, 3))) + 0.05
        s = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        got = fourier_on_points(sym.fn, s, (2, -1, -1), grid=12)
        want = s[:, 0] ** 2 * s[:, 1] * s[:, 2]
        assert np.max(np.abs(got - want)) < 1e-10
        # all other probed modes vanish
        for p in [(1, -1, 0), (0, 1, -1), (1, 0, -1), (3, -2, -1)]:
            vals = fourier_on_points(sym.fn, s, p, grid=12)
            assert np.max(np.abs(vals)) < 1e-12

    def test_monomial_profile_validation(self):
        with pytest.raises(SymbolError):
            MonomialProfile((-1, 1))
        prof = MonomialProfile((2, 0), coeff=3.0)
        s = np.array([[0.5, 0.5]])
        assert prof(s)[0] == pytest.approx(0.75)


EXPR_GROUP_1 = "0.421*s1^2 + 0.969*s1*s2*(t1*conj(t2)+t2*conj(t1)) + 0.832*s2^2"


def _table(sym):
    return {p: [(e.powers, e.coeff) for e in prof.terms] for p, prof in sym.modes.items()}


class TestCompiledExpression:
    def test_expr_group_1_table_is_pinned(self):
        sym = expression_symbol(1, 2, EXPR_GROUP_1, boundary_continuous=True)
        assert _table(sym) == {
            (-1, 1): [((1, 1), 0.969)],
            (0, 0): [((0, 2), 0.832), ((2, 0), 0.421)],
            (1, -1): [((1, 1), 0.969)],
        }
        assert all(isinstance(prof, Profile) for prof in sym.modes.values())

    def test_fn_is_the_parsed_expression(self):
        sym = expression_symbol(1, 2, EXPR_GROUP_1)
        s = np.array([[0.6, 0.8]])
        t = np.array([[np.exp(0.7j), np.exp(-0.2j)]])
        env = {"s1": s[:, 0], "s2": s[:, 1], "t1": t[:, 0], "t2": t[:, 1]}
        want = parse_symbol_expression(EXPR_GROUP_1).evaluate(env)
        assert np.array_equal(sym(s, t), want)

    def test_invariance_is_decided_from_the_table(self):
        # Non-invariant modes at most 1e-10 in coefficient mass are dropped.
        sym = expression_symbol(1, 2, "s1 + 4e-11*t1 + 5e-11*s2*t2^2*conj(t1)")
        assert _table(sym) == {(0, 0): [((1, 0), 1.0)]}
        for text in ("t1", "s1 + 2e-10*t1", "s1*t1*t2*conj(t1)"):
            with pytest.raises(SymbolError, match="not invariant"):
                expression_symbol(1, 2, text)
        # conj of a subtree negates its modes and conjugates its coefficients.
        sym = expression_symbol(1, 3, "conj(2*i*s1*t1*conj(t3))^2")
        assert _table(sym) == {(-2, 0, 2): [((2, 0, 0), -4.0)]}
        # t * conj(t) = 1 on the torus.
        assert _table(expression_symbol(1, 2, "t1*conj(t1)*s2")) == {(0, 0): [((0, 1), 1.0)]}

    def test_polynomial_limits_refuse(self):
        with pytest.raises(SymbolError, match="degree"):
            expression_symbol(1, 2, "(t1*conj(t1))^20000")
        with pytest.raises(SymbolError, match="terms"):
            expression_symbol(1, 3, "(s1*t1*conj(t2) + s2*t2*conj(t3) + s3*t3*conj(t1))^44")

    @given(
        text=st.recursive(
            st.sampled_from(["s1", "s2", "t1", "t2", "conj(t2)", "i", "0.5", "1.25", "pi"]),
            lambda child: st.one_of(
                st.tuples(child, st.sampled_from("+-*"), child).map(
                    lambda a: f"({a[0]} {a[1]} {a[2]})"
                ),
                st.tuples(child, st.integers(0, 2)).map(lambda a: f"({a[0]})^{a[1]}"),
                child.map(lambda a: f"conj(({a})*t1)"),
                child.map(lambda a: f"-({a})"),
            ),
            max_leaves=8,
        ),
        angles=st.lists(st.floats(0.0, 2 * math.pi), min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_table_rebuilds_the_expression(self, text, angles):
        expr = parse_symbol_expression(text)
        table = symbols._compile_modes(expr, 2)
        assert table is not None
        s = np.abs(np.array([math.cos(angles[0]), math.sin(angles[0])]))
        t = np.exp(1j * np.array(angles[1:]))
        rebuilt = sum(
            term.coeff * np.prod(s ** np.array(term.powers)) * np.prod(t ** np.array(p))
            for p, terms in table.items()
            for term in terms
        )
        want = complex(expr.evaluate({"s1": s[0], "s2": s[1], "t1": t[0], "t2": t[1]}))
        scale = 1.0 + sum(abs(term.coeff) for terms in table.values() for term in terms)
        assert abs(rebuilt - want) <= 1e-12 * scale


def test_quasi_radial_symbol_rejects_a_misshaped_handle():
    a = QuasiRadialSymbol(m=1, fn=lambda r: np.ones((r.shape[0], 2)), label="wide")
    with pytest.raises(SymbolError, match=r"shape \(4, 2\)"):
        a(np.full((4, 1), 0.5))
