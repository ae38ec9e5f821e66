import numpy as np
import pytest

from toeplitz_spectra.errors import SymbolError, SymbolParseError
from toeplitz_spectra.quad import fourier_on_points
from toeplitz_spectra.symbols import (
    FourierMode,
    MonomialProfile,
    PseudoHomogeneousSymbol,
    QuasiRadialSymbol,
    builtin_quasi_homogeneous,
    check_invariance,
    constant_symbol,
    expression_symbol,
    modes_symbol,
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


class TestPseudoHomogeneous:
    def test_builtin_rejects_bad_mode(self):
        with pytest.raises(SymbolError):
            builtin_quasi_homogeneous(1, (1, 0))

    def test_fourier_mode_rejects_bad_mode(self):
        with pytest.raises(SymbolError):
            FourierMode((1, 0), MonomialProfile((1, 0)))
        modes = modes_symbol(1, 2, [((1, -1), MonomialProfile((1, 0)))]).declared_mode_dict()
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

    def test_expression_symbol_validation(self):
        good = expression_symbol(1, 2, "s1*s2*(t1*conj(t2) + conj(t1)*t2)")
        assert good.modes is None
        with pytest.raises(SymbolError):
            expression_symbol(1, 2, "t1")

    def test_nonfinite_symbol_rejected_at_load(self):
        with pytest.raises(SymbolError):
            expression_symbol(1, 2, "1/(s1*s2*0)", boundary_continuous=True)

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
