import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import parse_symbol_text, torus_mode

from toeplitz_spectra import symbols
from toeplitz_spectra.errors import SymbolError, SymbolParseError
from toeplitz_spectra.symbols import (
    MAX_PROFILE_DEGREE,
    MAX_PROFILE_TERMS,
    MonomialProfile,
    Profile,
    QuasiRadialSymbol,
    builtin_quasi_homogeneous,
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

    def test_unary_minus_binds_looser_than_power(self):
        assert parse_symbol_expression("-r1^2").evaluate({"r1": 0.5}) == pytest.approx(-0.25)
        assert parse_symbol_expression("exp(-r1^2)").evaluate({"r1": 0.5}) == pytest.approx(
            math.exp(-0.25))
        assert parse_symbol_expression("-2^2").evaluate({}) == pytest.approx(-4.0)
        assert parse_symbol_expression("2^-3^2").evaluate({}) == pytest.approx(2.0**-9)
        assert parse_symbol_expression("2**-3**2").root == parse_symbol_expression("2^-3^2").root

    @pytest.mark.parametrize("text", [
        "s1 # comment", "s1 + \\\n s2", "'s1'", "True", "2j", "0x10", "1_0", "07",
        "s1.real", "s1[0]", "s1 < 2", "exp(x=s1)", "exp(s1, s2)", "exp(s1,)", "(exp)(s1)",
        "exp(*s1)", "exp(^s1)", "(s1,)", "s1 if s2 else 1", "1if 1 else 2", "not s1",
        "s1 // 2", "\uff53\uff11", "s1 + \uff11", "s1 + \x00",
    ])
    def test_python_only_forms_are_refused(self, text):
        with pytest.raises(SymbolParseError) as err:
            parse_symbol_expression(text)
        assert 0 <= err.value.position <= len(text)

    def test_offsets_point_into_the_text(self):
        # ^ is read as **: an offset past it still counts one character.
        with pytest.raises(SymbolParseError) as err:
            parse_symbol_expression("s1^2^3 + * 2")
        assert err.value.position == 9
        with pytest.raises(SymbolParseError) as err:
            parse_symbol_expression("  r1^")
        assert err.value.position == 5

    def test_nesting_is_bounded(self):
        depth = symbols.MAX_DEPTH
        assert parse_symbol_expression("-" * depth + "s1").variables == {"s1"}
        texts = ["-" * (depth + 1) + "s1", "+".join(["s1"] * (depth + 2)),
                 "(" * 3000 + "s1" + ")" * 3000, "+".join(["s1"] * 20000), "-" * 5000 + "s1"]
        for text in texts:
            with pytest.raises(SymbolParseError) as err:
                parse_symbol_expression(text)
            assert 0 <= err.value.position <= len(text)

    @given(st.one_of(
        st.lists(st.sampled_from([
            "0", "3", "2.5", ".5", "1e3", "1E-2", "s1", "t2", "r1", "s10", "pi", "i",
            "exp(", "conj(", "exp", "(", ")", "^", "**", "*", "/", "+", "-", " ", "\t", "\n",
            ",", "#", "'", "\\", "\uff53", "x", "e", "j", "_", ".", "[", "=", "if", "and",
        ]), max_size=12).map("".join),
        st.recursive(
            st.sampled_from(["0", "00", "3", "2.5", ".5", "1e3", "1.", "s1", "t2", "r1", "pi", "i"]),
            lambda child: st.one_of(
                st.tuples(child, st.sampled_from(["+", "-", "*", "/", "^", "**", " ^ "]), child)
                .map("".join),
                child.map(lambda a: f"-{a}"),
                child.map(lambda a: f"+ {a}"),
                child.map(lambda a: f"({a})"),
                child.map(lambda a: f"exp({a})"),
                child.map(lambda a: f"conj( {a} )"),
                # Forms that only Python reads.
                st.tuples(child, st.sampled_from(
                    ["exp({},)", "(exp)({})", "exp({}, 1)", "({},)", "{} # c", "07*{}", "2j*{}"]
                )).map(lambda a: a[1].format(a[0])),
            ),
            max_leaves=10,
        ),
    ))
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_the_recursive_descent_oracle(self, text):
        try:
            want = parse_symbol_text(text)
        except SymbolParseError:
            want = None
        try:
            got = parse_symbol_expression(text).root
        except SymbolParseError as err:
            assert 0 <= err.position <= len(text)
            # Python's tokenizer refuses integers such as 07, which the oracle reads.
            assert want is None or err.args[0].startswith("leading zeros"), (text, want)
            return
        assert got == want

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
            expression_symbol(1, 2, "exp(s1*s2*(t1*conj(t2) + t2*conj(t1)))"),
        ]:
            s, t = _sphere_points(64, sym.dim, 0), _torus_points(64, sym.dim, 1)
            g = _torus_points(64, 1, 2)
            assert np.max(np.abs(sym(s, g * t) - sym(s, t))) < 1e-12, sym.label

    def test_invariance_failure(self):
        # A series table decides invariance as a polynomial's does: the
        # modes (n, 0) of exp(s1*t1) carry mass 1/n!.
        with pytest.raises(SymbolError, match=r"not invariant.*mode \(1, 0\)"):
            expression_symbol(1, 2, "exp(s1*t1)")

    def test_profile_has_no_torus_dependence(self):
        c = profile_symbol(1, 2, "s1*s2 + 0.25")
        s = _sphere_points(32, 2, 0)
        assert np.array_equal(c(s, _torus_points(32, 2, 1)), c(s, _torus_points(32, 2, 2)))

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
        # conj of a real variable is the variable; a division by a constant
        # is a product
        assert terms("conj(s1)") == terms("s1")
        assert terms("s1/2") == [((1, 0), 0.5)]
        # exp and division compile to series (see TestCompiledSeries); texts
        # that have none stay on quadrature, also when a polynomial part is
        # past the limits
        for text in ("s1^0.5", "s1^s2", "s1 + 1/0", "exp(s1) + (s1 + s2)^20000"):
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
        assert all(prof.terms for prof in good.modes.values())
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
        # A constant 1/0 is inf, so a torus expression holding one has no
        # table, and is refused whatever the continuity flag.
        for flag in (True, False):
            with pytest.raises(SymbolError, match="does not compile"):
                expression_symbol(1, 2, "exp(t1*conj(t2)) + 1/0", boundary_continuous=flag)

    def test_declared_support_matches_numeric(self):
        # Numeric torus transform reproduces the declared analytic profile.
        sym = builtin_quasi_homogeneous(1, (2, -1, -1))
        rng = np.random.default_rng(7)
        raw = np.abs(rng.standard_normal((20, 3))) + 0.05
        s = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        got = torus_mode(sym.fn, s, (2, -1, -1), grid=12)
        want = s[:, 0] ** 2 * s[:, 1] * s[:, 2]
        assert np.max(np.abs(got - want)) < 1e-10
        # all other modes vanish
        for p in [(1, -1, 0), (0, 1, -1), (1, 0, -1), (3, -2, -1)]:
            vals = torus_mode(sym.fn, s, p, grid=12)
            assert np.max(np.abs(vals)) < 1e-12

    def test_monomial_profile_validation(self):
        with pytest.raises(SymbolError):
            MonomialProfile((-1, 1))
        prof = MonomialProfile((2, 0), coeff=3.0)
        s = np.array([[0.5, 0.5]])
        assert prof(s)[0] == pytest.approx(0.75)


def _sphere_points(n: int, k: int, seed: int) -> np.ndarray:
    raw = np.abs(np.random.default_rng(seed).standard_normal((n, k))) + 0.05
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _torus_points(n: int, k: int, seed: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.random.default_rng(seed).random((n, k)))


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
            expression_symbol(1, 2, "(s1*t1*conj(t1))^20000")
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
        expr, fn = symbols.bind_expression(text, 2, "st")
        table = symbols._compile_modes(expr, 2, fn)
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


# Torus texts that compile to truncated series.
SERIES_TEXTS = [
    (2, "exp(s1*s2*(t1*conj(t2)+t2*conj(t1)))"),
    (2, "1/(1.5 + s1^2*s2^2*(t1^2*conj(t2)^2+t2^2*conj(t1)^2))"),
    (2, "exp(s1)*(1 + s1*s2*(t1*conj(t2)+t2*conj(t1)))"),
    (3, "exp(s2*s3*(t2*conj(t3)+t3*conj(t2)))*(2 - s1^2)"),
]


def _weighted_mass(sym) -> float:
    """sum |coeff| sup|s^a| over a table's terms; the sup of s^a on the
    sphere is prod (a_l/|a|)^(a_l/2)."""
    def sup(a):
        return math.prod((v / sum(a)) ** (v / 2) for v in a if v)

    return sum(abs(term.coeff) * sup(term.powers) for prof in sym.modes.values() for term in prof.terms)


class TestCompiledSeries:
    @pytest.mark.parametrize("k, text", SERIES_TEXTS)
    def test_mode_profiles_match_the_torus_mean(self, k, text):
        # The oracle's grid passes twice the largest mode, so that no table
        # mode aliases onto another; the modes past the table are below 1e-16.
        sym = expression_symbol(1, k, text)
        grid = max(16, 2 * max(abs(v) for p in sym.modes for v in p) + 2)
        s = _sphere_points(8, k, 3)
        shifts = [tuple(m * (l == k - 2) - m * (l == k - 1) for l in range(k)) for m in range(-3, 4)]
        for p in sorted(set(sym.modes) | set(shifts)):
            want = torus_mode(sym.fn, s, p, grid)
            got = sym.modes[p](s) if p in sym.modes else 0.0
            assert np.max(np.abs(got - want)) <= 1e-12 * _weighted_mass(sym), p

    @pytest.mark.parametrize("text", [
        "(s1*s2*(t1*conj(t2)+t2*conj(t1)))^0.5",  # no series for a power 0.5
        "1/(0.9 + s1*s2*(t1*conj(t2)+t2*conj(t1)))",  # ratio 1/0.9 > 1
        # ratio 2/3, but its series passes MAX_PROFILE_TERMS before its tail
        # falls to SERIES_TOL
        "1/(1.5 + s1*s2*(t1*conj(t2)+t2*conj(t1)))",
    ])
    def test_torus_text_without_a_certified_table_is_refused(self, text):
        with pytest.raises(SymbolError, match=f"{re.escape(repr(text))}.*does not compile"):
            expression_symbol(1, 2, text)

    def test_mass_must_stay_near_the_largest_value(self):
        # exp(-10*s1) has mass e^10 against values at most 1: cancellation
        # would cost its closed-form entries about 1e-12, so it stays on
        # quadrature; exp(-6*s1) (mass 403) compiles.
        assert profile_symbol(1, 2, "exp(-10*s1)").modes[(0, 0)].terms is None
        assert profile_symbol(1, 2, "exp(-6*s1)").modes[(0, 0)].terms is not None


def test_quasi_radial_symbol_rejects_a_misshaped_handle():
    a = QuasiRadialSymbol(m=1, fn=lambda r: np.ones((r.shape[0], 2)), label="wide")
    with pytest.raises(SymbolError, match=r"shape \(4, 2\)"):
        a(np.full((4, 1), 0.5))
