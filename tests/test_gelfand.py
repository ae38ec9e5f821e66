import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coefficient_at, opnorm
from pin_payloads import CONFIGS
from toeplitz_spectra import cli, planar
from toeplitz_spectra.assembly import AlgebraModel
from toeplitz_spectra.errors import GelfandError
from toeplitz_spectra.gelfand import (
    DiagonalCoefficient,
    FiniteSum,
    GelfandPoint,
    assemble_finite_sum,
    evaluate_gelfand,
    sample_ideal_space,
    spectral_radius_estimate,
    validate_gelfand_points,
    zeta_picks,
)
from toeplitz_spectra.lattice import PartitionConfig, enumerate_kappa
from toeplitz_spectra.symbols import constant_symbol

# The unit of the algebra over two groups.
ONE = FiniteSum.diagonal(2, DiagonalCoefficient.constant(1.0))


def exact_point(kappa, zeta):
    m = len(kappa)
    return GelfandPoint(
        theta=(1,) * m, kappa_theta=kappa, mu_kappa=kappa,
        zeta=tuple(zeta), surrogate=False,
    )


class TestFiniteSum:
    def test_algebra(self):
        a = FiniteSum.generator(2, 1) + 2.0 * ONE
        b = FiniteSum.generator(2, 2)
        prod = a * b
        assert len(prod.terms) == 2
        powers = sorted(rho for _, rho in prod.terms)
        assert powers == [(0, 1), (1, 1)]

    def test_merge_same_power(self):
        a = FiniteSum.generator(2, 1) + FiniteSum.generator(2, 1)
        assert len(a.terms) == 1
        point = exact_point((0, 0), (0.5, 0.25))
        assert evaluate_gelfand(a, [point]) == [pytest.approx(1.0)]

    def test_dimension_mismatch(self):
        with pytest.raises(GelfandError):
            FiniteSum.generator(2, 1) + FiniteSum.generator(3, 1)


class TestEvaluate:
    def test_constant_diagonal(self):
        A = ONE
        points = [exact_point((0, 0), (1, 1)), exact_point((3, 1), (0.5j, -2))]
        for value in evaluate_gelfand(A, points):
            assert value == pytest.approx(1.0)

    def test_generator_value(self):
        A = FiniteSum.generator(2, 2)
        point = exact_point((1, 4), (0.3, 0.7 - 0.1j))
        assert evaluate_gelfand(A, [point]) == [pytest.approx(0.7 - 0.1j)]

    def test_projection_mask_semantics(self):
        A = FiniteSum.diagonal(2, DiagonalCoefficient.indicator_degree(2, 3))
        points = [exact_point((0, 3), (1, 1)), exact_point((3, 0), (1, 1))]
        assert evaluate_gelfand(A, points) == [1.0, 0.0]

    def test_multiplicativity(self, diagonal_model):
        gamma = DiagonalCoefficient.from_callable(
            lambda kappa: 1.0 / (1 + sum(kappa)), "1/(1+|k|)"
        )
        A = FiniteSum.term(2, gamma, (0, 1)) + 0.5 * ONE
        B = FiniteSum.generator(2, 2, 2) + FiniteSum.diagonal(
            2, DiagonalCoefficient.indicator_degree(2, 1)
        )
        pts = sample_ideal_space(diagonal_model, 3, 60)
        products = evaluate_gelfand(A * B, pts)
        factors = zip(evaluate_gelfand(A, pts), evaluate_gelfand(B, pts))
        for lhs, (a, b) in zip(products, factors, strict=True):
            rhs = a * b
            assert lhs == pytest.approx(rhs, abs=1e-10)

    @given(
        coeffs=st.lists(
            st.tuples(
                st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
                st.tuples(st.integers(0, 2), st.integers(0, 2)),
            ),
            min_size=1,
            max_size=4,
        ),
        zeta=st.tuples(
            st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
            st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
        ),
        kappa=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    )
    @settings(max_examples=60, deadline=None)
    def test_multiplicativity_property(self, coeffs, zeta, kappa):
        # psi(A * A) = psi(A)^2 for any finite sum and any point: products
        # expand symbolically, so this holds to rounding.
        A = FiniteSum.zero(2)
        for c, rho in coeffs:
            A = A + FiniteSum.term(2, DiagonalCoefficient.constant(c), rho)
        point = exact_point(kappa, zeta)
        (lhs,) = evaluate_gelfand(A * A, [point])
        rhs = evaluate_gelfand(A, [point])[0] ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_unbounded_gamma_reported(self):
        bad = DiagonalCoefficient.from_callable(
            lambda kappa: float("inf") if kappa[0] > 100 else 1.0, "bad"
        )
        A = FiniteSum.diagonal(1, bad)
        point = GelfandPoint(
            theta=(0,), kappa_theta=(), mu_kappa=(10_000,), zeta=(0.5,), surrogate=True
        )
        with pytest.raises(GelfandError):
            evaluate_gelfand(A, [point])


class TestSampling:
    def test_trivial_m1(self):
        cfg = PartitionConfig(k=(2,))
        model = AlgebraModel(cfg=cfg, symbols={1: constant_symbol(1, 2, 1.0)},
                             hull_resolution=128)
        pts = sample_ideal_space(model, 2, 30)
        exact = [p for p in pts if not p.surrogate]
        assert [p.mu_kappa for p in exact] == [(0,), (1,), (2,)]
        assert all(p.zeta[0] == pytest.approx(1.0) for p in exact)
        assert any(p.surrogate for p in pts)

    def test_counting(self, diagonal_model):
        pts = sample_ideal_space(diagonal_model, 3, 40)
        exact = [p for p in pts if not p.surrogate]
        # one eigenvalue list per block: n_{2,d} = d+1; group 1 contributes {1}
        want = sum(kappa[1] + 1 for kappa in
                   [(i, j) for i in range(4) for j in range(4 - i)])
        assert len(exact) == want
        assert sum(1 for p in pts if p.surrogate) == 40

    def test_invariants_hold(self, diagonal_model):
        pts = sample_ideal_space(diagonal_model, 3, 80)
        assert validate_gelfand_points(diagonal_model, pts).all()

    def test_budget_validation(self, diagonal_model):
        with pytest.raises(GelfandError):
            sample_ideal_space(diagonal_model, 2, 0)


class TestAdmissibleZeta:
    def test_finite_coordinate(self, diagonal_model):
        vals = diagonal_model.eigen(2, 2).distinct
        assert np.allclose(np.sort(vals.real), [1 / 4, 2 / 4, 3 / 4])

    def test_trivial_group(self, diagonal_model):
        vals = diagonal_model.eigen(1, 3).distinct
        assert np.allclose(vals, 1.0)

    def test_symbol_less_group_picks_one(self, diagonal_model):
        assert zeta_picks(diagonal_model.boundary_samples(1), 8) == [1 + 0j]

    def test_constant_symbol_picks_its_value(self):
        model = AlgebraModel(cfg=PartitionConfig(k=(2,)), symbols={1: constant_symbol(1, 2, 0.3j)},
                             hull_resolution=64, ess_samples=256)
        assert zeta_picks(model.boundary_samples(1), 8) == [0.3j]

    @pytest.mark.parametrize("limit", [1, 2, 8, 10**6])
    def test_picks_include_the_largest_modulus_sample(self, diagonal_model, limit):
        samples = diagonal_model.boundary_samples(2)
        picks = zeta_picks(samples, limit)
        assert 1 <= len(picks) <= limit and len(set(picks)) == len(picks)
        top = samples.ravel()[np.argmax(np.abs(samples.ravel()))]
        assert picks[0] == top and set(picks) <= set(samples.ravel().tolist())

    def test_escaped_coordinates_are_boundary_samples(self, diagonal_model):
        pts = [p for p in sample_ideal_space(diagonal_model, 2, 50) if p.surrogate]
        off = GelfandPoint((1, 0), (0,), (0, 10_000), (1 + 0j, 0.5 + 1e-9), True)
        ok = validate_gelfand_points(diagonal_model, [*pts, off])
        assert ok.tolist() == [True] * len(pts) + [False]


def _run(tmp_path, command, name, **over):
    """The payload of a command on a pinned config with top-level keys replaced."""
    config = cli.validate_config({**json.loads(json.dumps(CONFIGS[name])), **over})
    return cli.COMMANDS[command](cli.build_setup(config, out=str(tmp_path)))


class TestEscapedStrata:
    @pytest.mark.parametrize("D", [6, 40])
    def test_readme_radius_is_within_the_norm_bound(self, tmp_path, D):
        # |psi(D_gamma T_1 T_2)| <= sup|gamma| * sup|c| = 1 * 1/2, and the
        # boundary samples of c reach 0.499996.
        payload = _run(tmp_path, "gelfand", "readme-d6", degree_cap=D)
        assert 0.4999 <= payload["gelfand_radius"] <= 0.5
        assert payload["invalid_points"] == 0

    def test_radius_does_not_depend_on_the_budget(self, tmp_path):
        small = _run(tmp_path / "200", "gelfand", "m3-k112-d4", gelfand={"budget": 200})
        large = _run(tmp_path / "3200", "gelfand", "m3-k112-d4", gelfand={"budget": 3200})
        assert small["gelfand_radius"] == pytest.approx(large["gelfand_radius"], rel=0.01)

    def test_every_stratum_with_candidates_gets_points(self, tmp_path):
        # readme-d6 has 8 + 7 + 56 candidates on its escaped strata; the
        # budget of 20 binds, and each stratum still gets points.
        payload = _run(tmp_path, "gelfand", "readme-d6", gelfand={"budget": 20})
        strata = {tuple(s["theta"]): s for s in payload["strata"]}
        assert list(strata) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [strata[t]["n_points"] for t in [(0, 0), (0, 1), (1, 0)]] == [7, 7, 6]
        assert payload["n_surrogate"] == 20
        assert max(s["sup_abs_value"] for s in payload["strata"]) == payload["gelfand_radius"]

    @pytest.mark.parametrize("command", ["assemble", "berezin", "gelfand", "radical",
                                         "semisimple", "spectrum", "verify"])
    def test_commands_fill_no_boundary_raster(self, tmp_path, monkeypatch, command):
        fills = []
        fill = planar.essential_spectrum_estimate

        def counted(region, values, k):
            fills.append((k, region.resolution))
            return fill(region, values, k)

        monkeypatch.setattr(planar, "essential_spectrum_estimate", counted)
        _run(tmp_path, command, "readme-d6")
        assert fills == []


class TestConsistency:
    def test_exact_stratum_matches_matrix(self, diagonal_model):
        # psi(A) equals the joint-eigenvector eigenvalue of the assembled matrix.
        model = diagonal_model
        gamma = DiagonalCoefficient.from_callable(
            lambda kappa: (1 + kappa[0]) / (2 + kappa[1]), "g"
        )
        A = FiniteSum.term(2, gamma, (0, 2)) + 0.25 * FiniteSum.generator(2, 2)
        op = assemble_finite_sum(A, model, 3)
        pts = [p for p in sample_ideal_space(diagonal_model, 3, 10) if not p.surrogate]
        for p, value in zip(pts, evaluate_gelfand(A, pts), strict=True):
            block2 = model.block(2, p.mu_kappa[1])
            diag = np.diag(block2)
            hits = np.where(np.abs(diag - p.zeta[1]) < 1e-9)[0]
            assert hits.size
            g = np.zeros(block2.shape[0], dtype=complex)
            g[hits[0]] = 1.0
            want = (op[p.mu_kappa] @ g)[hits[0]]
            assert value == pytest.approx(want, abs=1e-8)

    def test_norm_bound_deficit_shrinks_with_truncation(self, diagonal_model):
        A = _mixed_element()
        pts = sample_ideal_space(diagonal_model, 8, 200)
        radius = spectral_radius_estimate(A, pts)
        deficits = []
        for D in (4, 6, 8):
            op = assemble_finite_sum(A, diagonal_model, D)
            deficits.append(max(0.0, radius - opnorm(op)))
        assert deficits[0] >= deficits[1] >= deficits[2]

    def test_spectral_radius_examples(self, diagonal_model):
        pts = sample_ideal_space(diagonal_model, 4, 50)
        zero = FiniteSum.zero(2)
        assert spectral_radius_estimate(zero, pts) == 0.0
        gamma = DiagonalCoefficient.from_callable(
            lambda kappa: 1.0 / (1 + sum(kappa)), "1/(1+|k|)"
        )
        A = FiniteSum.diagonal(2, gamma)
        assert spectral_radius_estimate(A, pts) == pytest.approx(1.0)
        T2 = FiniteSum.generator(2, 2)
        spec_max = max(
            float(np.max(np.abs(diagonal_model.eigen(2, d).distinct))) for d in range(5)
        )
        assert spectral_radius_estimate(T2, pts) >= spec_max - 1e-12


def _mixed_element():
    gamma = DiagonalCoefficient.from_callable(
        lambda kappa: 1.0 + 0.5 / (1 + kappa[1]), "1+1/(2(1+k2))"
    )
    return FiniteSum.term(2, gamma, (0, 1)) + 0.3 * ONE


FINITE = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)


def coefficient(m: int, cap: int):
    """A DiagonalCoefficient of any closed kind."""
    group, degree = st.integers(1, m), st.integers(0, cap)
    return st.one_of(
        FINITE.map(DiagonalCoefficient.constant),
        st.builds(DiagonalCoefficient.indicator_degree, group, degree),
        st.builds(DiagonalCoefficient.geometric_decay, group,
                  st.floats(0, 1, exclude_max=True)),
        st.builds(lambda j, t: DiagonalCoefficient.degree_table(j, t, "t"), group,
                  st.dictionaries(degree, FINITE)),
        st.dictionaries(st.tuples(*[degree] * m), FINITE).map(DiagonalCoefficient.from_table),
        FINITE.map(lambda c: DiagonalCoefficient.from_callable(
            lambda kappa: c / (1 + sum(kappa)) + kappa[0], "f")),
    )


class TestCoefficientArrays:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_array_evaluation_is_the_scalar_evaluation(self, data):
        # Sums built with +, -, scalar * and * (as decompose_by_division
        # builds its parts): the one-array evaluation over a truncation is
        # the per-kappa walk of oracles.coefficient_at, exactly.
        m, cap = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4))
        powers = st.tuples(*[st.integers(0, 2)] * m)

        def term():
            return FiniteSum.term(m, data.draw(coefficient(m, cap)), data.draw(powers))

        A = term()
        for op in data.draw(st.lists(st.sampled_from("+-s*"), max_size=5)):
            if op == "+":
                A = A + term()
            elif op == "-":
                A = A - term()
            elif op == "s":
                A = data.draw(FINITE) * A
            else:
                A = A * (term() + term())
        kappas = enumerate_kappa(m, cap)
        memo: dict = {}
        for gamma, _ in A.terms:
            got = gamma.values(np.array(kappas), memo).tolist()
            assert all(g == coefficient_at(gamma, kappa) for g, kappa in zip(got, kappas))

    def test_non_finite_value_names_the_coefficient(self, diagonal_model):
        spike = DiagonalCoefficient.from_callable(
            lambda kappa: math.inf if kappa[1] == 2 else 1.0, "spike")
        A = FiniteSum.term(2, spike, (0, 1)) * (0.5 * ONE)
        (gamma, _), = A.terms
        kappas = np.array(enumerate_kappa(2, 3))
        with pytest.raises(GelfandError, match="spike.*non-finite at \\(0, 2\\)"):
            gamma.values(kappas)
        with pytest.raises(GelfandError, match="spike"):
            assemble_finite_sum(A, diagonal_model, 3)
        with pytest.raises(GelfandError, match="spike"):
            evaluate_gelfand(A, [exact_point((0, 2), (1, 1))])
        huge = DiagonalCoefficient.constant(1e200)
        overflow = FiniteSum.diagonal(2, huge) * FiniteSum.diagonal(2, huge)
        with pytest.raises(GelfandError, match="1e\\+200"):
            assemble_finite_sum(overflow, diagonal_model, 1)
