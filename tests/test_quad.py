import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    adaptive_dirichlet, golub_welsch_tridiagonal, jacobi_rule_01_rowwise, roots_jacobi_01,
)
from toeplitz_spectra import quad
from toeplitz_spectra.errors import QuadratureError
from toeplitz_spectra.quad import (
    SimplexRule,
    dirichlet_integral,
    dirichlet_moment,
    dirichlet_probability_rule,
    fourier_on_points,
    jacobi_probability_rule_01,
    jacobi_rule_01,
    simplex_integrals,
)


def test_dirichlet_examples():
    assert dirichlet_integral((0, 0)) == pytest.approx(1.0)
    assert dirichlet_integral((1, 0)) == pytest.approx(0.5)
    with pytest.raises(QuadratureError):
        dirichlet_integral((-1.0, 0))


@pytest.mark.parametrize(
    "exponents,increments",
    [
        ((0.0, 1.0, 0.0), (0.5,)),
        ((1e4, 1e4 + 1.0, 0.0), (0.5, 1.5)),
        ((1e4, 2.0, 0.5), (2.5, 0.5)),
        ((3.0, 1e4, 9999.0), (1.5, 3.0)),
        ((9999.5, 0.0, -0.5), (0.5, 0.5)),
        ((2e4 - 1.0, 0.0), (7.5,)),
    ],
)
def test_dirichlet_moment_half_integers_match_mpmath(exponents, increments):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = [mpmath.mpf(v) + 1 for v in exponents]
        h = list(increments) + [0.0] * (len(x) - len(increments))
        want = mpmath.fprod(mpmath.rf(xl, hl) for xl, hl in zip(x, h)) / mpmath.rf(sum(x), sum(h))
        got = dirichlet_moment(exponents, increments)
        assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("increments", [(0.3,), (-1.0,), (0.5, -0.5)])
def test_dirichlet_moment_refuses_other_increments(increments):
    with pytest.raises(QuadratureError):
        dirichlet_moment((1.0, 2.0, 0.0), increments)


def test_dirichlet_vs_adaptive_oracle():
    a = (1.5, 0.5, 2.0)
    closed = dirichlet_integral(a)
    assert abs(adaptive_dirichlet(a) - closed) / closed < 1e-10


def test_simplex_rule_basic():
    rule = SimplexRule.build((0.0, 0.0, 0.0), 20, jacobi_rule_01)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-12)  # simplex volume
    plain = [(0.0, 0.0, 0.0)]
    assert simplex_integrals(lambda s: np.ones(s.shape[0]), plain, 20)[0].real == pytest.approx(0.5)
    assert simplex_integrals(lambda s: s[:, 0] * s[:, 1], plain, 20)[0].real == pytest.approx(
        dirichlet_integral((1, 1, 0))
    )
    lam = 1.0
    got = simplex_integrals(lambda s: (1 - s[:, 0] - s[:, 1]) ** lam, plain, 20)[0].real
    assert got == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_simplex_monomial_exactness_integer():
    # Plain rule is exact for polynomials up to its declared degree.
    rng = np.random.default_rng(11)
    for _ in range(25):
        k = int(rng.integers(2, 5))
        a = tuple(int(v) for v in rng.integers(0, 21, size=k))
        order = (sum(a) + 2) // 2 + 1

        def f(s, _a=a):
            out = np.ones(s.shape[0])
            for axis in range(len(_a) - 1):
                out = out * s[:, axis] ** _a[axis]
            return out * (1 - s.sum(axis=1)) ** _a[-1]

        got = simplex_integrals(f, [(0.0,) * k], order)[0].real
        want = dirichlet_integral(a)
        assert abs(got - want) / want < 1e-10


def test_simplex_absorbed_weight_half_integers():
    rng = np.random.default_rng(12)
    for _ in range(25):
        k = int(rng.integers(2, 5))
        a = tuple(float(v) for v in rng.choice(np.arange(0, 20.5, 0.5), size=k))
        got = simplex_integrals(lambda s: np.ones(s.shape[0]), [a], 40)[0].real
        want = dirichlet_integral(a)
        assert abs(got - want) / want < 1e-10


def test_simplex_rejects_nonfinite():
    with pytest.raises(QuadratureError):
        simplex_integrals(lambda s: np.full(s.shape[0], np.nan), [(0.0, 0.0, 0.0)], 8)


def test_probability_rule_moments():
    # Dirichlet expectations have Pochhammer closed forms.
    exps = (2.0, 0.0, 1.5)
    rule = dirichlet_probability_rule(exps, 40)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-13)
    a = np.array(exps) + 1.0
    total = a.sum()
    mean0 = float(np.sum(rule.weights * rule.nodes[:, 0]))
    assert mean0 == pytest.approx(a[0] / total, rel=1e-12)
    second = float(np.sum(rule.weights * rule.nodes[:, 1] ** 2))
    assert second == pytest.approx(a[1] * (a[1] + 1) / (total * (total + 1)), rel=1e-11)


def test_probability_rule_extreme_exponent():
    nodes, weights = jacobi_probability_rule_01(48, 10_000.0, 0.0)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(np.sum(weights * nodes)) == pytest.approx(10_001.0 / 10_002.0, rel=1e-12)


def test_probability_rule_is_bitwise_golub_welsch_tridiagonal():
    # numpy's dense eigh gives the bits of the tridiagonal solver on this BLAS.
    rng = np.random.default_rng(416)
    for _ in range(416):
        npts = int(rng.integers(1, 97))
        a = rng.choice([rng.uniform(-0.99, 20.0), rng.integers(0, 20001), rng.integers(0, 41) / 2])
        a = float(a)
        b = float(rng.choice([rng.uniform(-0.99, 20.0), rng.integers(0, 41) / 2]))
        got, want = jacobi_probability_rule_01(npts, a, b), golub_welsch_tridiagonal(npts, a, b)
        assert got[0].tobytes() == want[0].tobytes(), (npts, a, b)
        assert got[1].tobytes() == want[1].tobytes(), (npts, a, b)


def test_oracle_rule_matches_roots_jacobi():
    # The range verify uses: npts <= 48, a <= 20, b <= 63, half-integers.
    from scipy.special import beta

    rng = np.random.default_rng(48)
    cases = [(1, 0.0, 0.0), (48, 20.0, 63.0), (48, 0.0, 63.0), (48, 20.0, 0.0), (2, 0.5, 0.5)]
    cases += [
        (int(rng.integers(1, 49)), rng.integers(0, 41) / 2, rng.integers(0, 127) / 2)
        for _ in range(400)
    ]
    for npts, a, b in cases:
        nodes, weights = jacobi_rule_01(npts, float(a), float(b))
        want_nodes, want_weights = roots_jacobi_01(npts, a, b)
        assert np.max(np.abs(nodes - want_nodes)) <= 1e-15, (npts, a, b)
        assert np.max(np.abs(weights / want_weights - 1.0)) <= 1e-10, (npts, a, b)
        assert abs(weights.sum() / beta(a + 1.0, b + 1.0) - 1.0) <= 1e-13, (npts, a, b)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # scipy's own 0/0
@pytest.mark.parametrize("a, b", [(-0.5, -0.5), (-0.25, -0.75), (0.5, -0.5)])
def test_jacobi_rules_at_exponent_sum_minus_one(a, b):
    # The first off-diagonal entry is 0/0 as written when a + b = -1.
    nodes, weights = jacobi_rule_01(6, a, b)
    want_nodes, want_weights = roots_jacobi_01(6, a, b)
    assert np.allclose(nodes, want_nodes, rtol=0, atol=1e-15)
    assert np.allclose(weights, want_weights, rtol=1e-12, atol=0)
    nodes, weights = jacobi_probability_rule_01(6, a, b)
    assert np.allclose(nodes, want_nodes, rtol=0, atol=1e-14)
    assert np.allclose(weights, want_weights / want_weights.sum(), rtol=1e-12, atol=0)


def test_torus_coefficient_characters():
    c = lambda s, t: t[..., 0] ** 2 * np.conj(t[..., 1]) ** 2
    s = np.array([[0.6, 0.8]])
    assert fourier_on_points(c, s, (2, -2), 16)[0] == pytest.approx(1.0, abs=1e-13)
    assert abs(fourier_on_points(c, s, (1, -1), 16)[0]) < 1e-13
    with pytest.raises(QuadratureError):
        fourier_on_points(c, s, (9, -9), 8)


def test_torus_coefficient_examples():
    # c = s1 s2 (t1 conj(t2) + conj(t1) t2): mode (1,-1) recovers s1 s2.
    def c(s, t):
        return s[..., 0] * s[..., 1] * (
            t[..., 0] * np.conj(t[..., 1]) + np.conj(t[..., 0]) * t[..., 1]
        )

    rng = np.random.default_rng(5)
    raw = np.abs(rng.standard_normal((5, 2))) + 0.1
    s = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    got = fourier_on_points(c, s, (1, -1), 16)
    assert np.max(np.abs(got - s[:, 0] * s[:, 1])) < 1e-12


def test_diagonal_invariant_symbol_vanishing_modes():
    # Invariant under the diagonal action: all |p| != 0 modes vanish.
    def c(s, t):
        ratio = t[..., 0] * np.conj(t[..., 1])
        return s[..., 0] + 0.3 * ratio + 0.3 * np.conj(ratio)

    s = np.array([[0.6, 0.8]])
    for p in [(1, 0), (0, 1), (2, -1), (-1, -1), (1, 2)]:
        assert abs(fourier_on_points(c, s, p, 32)[0]) < 1e-12


@given(
    p1=st.integers(-3, 3),
    p2=st.integers(-3, 3),
    sx=st.floats(0.1, 0.9),
)
@settings(max_examples=25, deadline=None)
def test_conjugate_symmetry_for_real_symbols(p1, p2, sx):
    def c(s, t):
        ratio = t[..., 0] * np.conj(t[..., 1])
        return (s[..., 0] ** 2) * (ratio + np.conj(ratio)).real

    s = np.array([[math.sqrt(sx), math.sqrt(1 - sx)]])
    plus = fourier_on_points(c, s, (p1, p2), 16)[0]
    minus = fourier_on_points(c, s, (-p1, -p2), 16)[0]
    assert np.conj(plus) == pytest.approx(minus, abs=1e-12)


def _exp_cross(s, t):
    ratio = t[..., 0] * np.conj(t[..., 1])
    cross = s[..., 2] * t[..., 2] * np.conj(t[..., 0])
    return np.exp(s[..., 0] * s[..., 1] * (ratio + np.conj(ratio))) + cross


def _sphere_rows(n, k, seed):
    raw = np.abs(np.random.default_rng(seed).standard_normal((n, k))) + 0.05
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


@pytest.mark.parametrize("p", [(0, 0, 0), (1, -1, 0), (1, 0, -1), (1, 0, 0), (-1, 2, 0)])
def test_fourier_chunks_do_not_change_values(monkeypatch, p):
    s = _sphere_rows(37, 3, 11)
    whole = fourier_on_points(_exp_cross, s, p, grid=16)
    axes = 2 if sum(p) == 0 else 3
    monkeypatch.setattr(quad, "FOURIER_CHUNK_BYTES", 3 * 16 * 16**axes)
    chunked = fourier_on_points(_exp_cross, s, p, grid=16)
    assert chunked.tobytes() == whole.tobytes()


def test_fourier_invariant_modes_use_k_minus_1_axes():
    # For |p| = 0 the grid over the first k - 1 axes with t_k = 1 gives the
    # same mean as the full grid^k one.
    s = _sphere_rows(9, 3, 12)
    tpts = quad.torus_grid(3, 16)
    for p in [(0, 0, 0), (1, -1, 0), (2, 0, -2)]:
        phase = np.prod(tpts ** (-np.array(p)), axis=1)
        full = (_exp_cross(s[:, None, :], tpts[None, :, :]) * phase).mean(axis=1)
        got = fourier_on_points(_exp_cross, s, p, grid=16)
        assert np.max(np.abs(got - full)) < 1e-14


def test_fourier_row_over_budget_raises_before_evaluating():
    calls = []

    def fn(s, t):
        calls.append(1)
        return np.ones(np.broadcast(s, t).shape[:-1])

    s = _sphere_rows(2, 3, 13)
    with pytest.raises(QuadratureError, match="budget"):
        fourier_on_points(fn, s, (0, 0, 0), grid=2048)  # 2048^2 points per row
    with pytest.raises(QuadratureError, match="budget"):
        fourier_on_points(fn, s, (1, 0, 0), grid=160)  # 160^3 points per row
    assert not calls
    assert fourier_on_points(fn, s, (1, 0, 0), grid=64) == pytest.approx([0, 0])


@pytest.mark.parametrize(
    "name", ["jacobi_rule_01", "jacobi_probability_rule_01", "_dirichlet_rule_cached"]
)
def test_rule_builders_expose_cache_info(name):
    # The benchmark's tracer reads the hits and misses of these caches by name.
    info = getattr(quad, name).cache_info()
    assert info.hits >= 0 and info.misses >= 0


def _gammaln_inputs():
    rng = np.random.default_rng(20)
    edges = [13.0, 1000.0, 1e8, 2.556348e305, 2.0, 3.0, 1.0]
    near = [np.nextafter(e, d) for e in edges for d in (0.0, np.inf)]
    return np.concatenate([
        np.arange(1.0, 30001.0),
        np.arange(1.0, 60001.0) / 2.0,
        rng.uniform(0.0, 13.0, 20000),
        rng.uniform(13.0, 1e4, 20000),
        rng.uniform(1e4, 1e9, 20000),
        10.0 ** rng.uniform(-310.0, 308.0, 5000),
        [5e-324, 1e-300, 1e300, 1.7e308, *edges, *near],
    ])


def test_gammaln_is_bitwise_scipy():
    from scipy.special import gammaln as oracle

    x = _gammaln_inputs()
    x = x[x > 0]
    got = np.array([quad.gammaln(v) for v in x.tolist()])
    want = oracle(x)
    differ = np.nonzero(got.view(np.int64) != want.view(np.int64))[0]
    assert differ.size == 0, list(zip(x[differ[:5]], got[differ[:5]], want[differ[:5]]))


@pytest.mark.parametrize("x", [0.0, -0.0, -1.0, -2.5, -1e-300, math.nan, math.inf, -math.inf])
def test_gammaln_refuses_outside_positive_reals(x):
    with pytest.raises(QuadratureError):
        quad.gammaln(x)


@pytest.mark.parametrize(
    "exponents,order",
    [((0.0, 0.0, 0.0), 9), ((0.5, 1.5, 2.0, 1.0), 9), ((1.0, -0.5, 3.0), 9),
     ((2.5, 0.0, 7.5, 1.0), 48)],
    ids=["exponents0", "exponents1", "exponents2", "exponents3-order48"],
)
def test_simplex_rule_build_matches_meshgrid_product(exponents, order):
    # The broadcast construction multiplies in the meshgrid order: bit-identical,
    # for the probability rule and for the Christoffel rule of the oracle.
    p = len(exponents) - 1
    for rule_01 in (jacobi_probability_rule_01, jacobi_rule_01):
        rule = SimplexRule.build(exponents, order, rule_01)
        axes = [
            rule_01(order, exponents[lvl - 1], (p - lvl) + sum(exponents[lvl:]))
            for lvl in range(1, p + 1)
        ]
        mesh = np.meshgrid(*[a[0] for a in axes], indexing="ij")
        x = np.stack([g.ravel() for g in mesh], axis=1)
        w = np.ones(x.shape[0])
        for g in np.meshgrid(*[a[1] for a in axes], indexing="ij"):
            w = w * g.ravel()
        u = np.empty_like(x)
        shrink = np.ones(x.shape[0])
        for lvl in range(p):
            u[:, lvl] = x[:, lvl] * shrink
            shrink = shrink * (1.0 - x[:, lvl])
        assert rule.nodes.tobytes() == u.tobytes()
        assert rule.weights.tobytes() == w.tobytes()
        # Coordinates are stored as contiguous planes; the slack column too.
        assert rule.nodes.T.flags.c_contiguous
        assert rule.nodes_closed.T.flags.c_contiguous
        slack = np.maximum(1.0 - u.sum(axis=1, keepdims=True), 0.0)
        assert rule.nodes_closed.tobytes() == np.hstack([u, slack]).tobytes()


@pytest.mark.parametrize(
    "npts,a,b",
    [(1, 0.0, 0.0), (5, 0.5, 1.5), (9, -0.5, -0.5), (16, 3.0, -0.5), (48, 2.0, 41.5),
     (48, -0.5, 0.5), (30, 19.5, 0.0)],
)
def test_jacobi_rule_paired_recurrence_matches_rowwise_reference(npts, a, b):
    nodes, weights = jacobi_rule_01(npts, a, b)
    want_nodes, want_weights = jacobi_rule_01_rowwise(npts, a, b)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert weights.tobytes() == want_weights.tobytes()


def test_simplex_rule_rejects_nodes_outside_the_simplex_and_negative_weights():
    nodes = np.array([[0.2, 0.3], [0.5, 0.5], [0.0, 1.0]])
    weights = np.array([0.5, 0.25, 0.25])
    SimplexRule(dim=2, nodes=nodes, weights=weights)
    # Weights that underflow to exactly zero are accepted.
    SimplexRule(dim=2, nodes=nodes, weights=np.array([1.0, 0.0, 5e-324 * 0.25]))
    below = nodes.copy()
    below[1, 0] = -2e-14
    with pytest.raises(QuadratureError, match="simplex"):
        SimplexRule(dim=2, nodes=below, weights=weights)
    past = nodes.copy()
    past[2, 0] = 2e-12
    with pytest.raises(QuadratureError, match="simplex"):
        SimplexRule(dim=2, nodes=past, weights=weights)
    with pytest.raises(QuadratureError, match="positive"):
        SimplexRule(dim=2, nodes=nodes, weights=np.array([0.5, -1e-300, 0.5]))


def test_fourier_on_points_rejects_a_misshaped_symbol():
    s_points = np.full((3, 2), math.sqrt(0.5))
    with pytest.raises(QuadratureError, match=r"shape \(3,\)"):
        fourier_on_points(lambda s, t: np.ones(3), s_points, (0, 0), grid=8)


# Half-integers from -0.5, any float above -1 (exponents near -1 included),
# and pairs on the a + b = -1 branch, whose first off-diagonal entry is 0/0
# as written: dyadic a, so that a + b is exactly -1.
_EXPONENT = st.one_of(
    st.integers(-1, 40).map(lambda v: v / 2),
    st.floats(-1.0, 30.0, exclude_min=True),
    st.sampled_from([-1.0 + 2.0**-40, -0.999999, -0.5 - 2.0**-30]),
)
_PAIR = st.one_of(
    st.tuples(_EXPONENT, _EXPONENT),
    st.integers(1, 2**20 - 1).map(lambda i: (-i / 2**20, -1.0 + i / 2**20)),
)


@given(npts=st.integers(1, 48), pairs=st.lists(_PAIR, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_batched_christoffel_rules_are_the_single_pair_rules(npts, pairs):
    nodes, weights = quad.jacobi_rules_01(npts, pairs)
    assert nodes.shape == weights.shape == (len(pairs), npts)
    for r, (a, b) in enumerate(pairs):
        for want in (jacobi_rule_01(npts, a, b), jacobi_rule_01_rowwise(npts, a, b)):
            assert nodes[r].tobytes() == want[0].tobytes(), (npts, a, b)
            assert weights[r].tobytes() == want[1].tobytes(), (npts, a, b)


def test_batched_christoffel_rules_refuse_a_large_combined_exponent():
    with pytest.raises(QuadratureError, match="too large"):
        quad.jacobi_rules_01(8, [(0.5, 1.0), (600.0, 400.5), (2.0, 3.0)])


def test_simplex_integrals_build_each_distinct_level_rule_once(monkeypatch):
    built, batch = [], quad.jacobi_rules_01

    def spy(npts, pairs):
        built.append(list(pairs))
        return batch(npts, pairs)

    monkeypatch.setattr(quad, "jacobi_rules_01", spy)
    weights = [(1.0, 0.5, 2.0), (1.0, 0.5, 2.0), (0.5, 3.5), (1.0, 2.0, 0.5, 0.0)]
    got = simplex_integrals(lambda s: np.ones(s.shape[0]), weights, 12)
    want = {ab for a in weights for ab in SimplexRule.levels(a)}
    assert len(built) == 1 and len(built[0]) == len(want) == 6 and set(built[0]) == want
    for a, value in zip(weights, got):
        assert value.real == pytest.approx(dirichlet_integral(a), rel=1e-12)


def test_dirichlet_rule_cache_is_bounded_by_bytes_in_lru_order(monkeypatch):
    # Two order-8 rules on Delta_2 (two node planes and the weights each).
    rule_bytes = 3 * 8**2 * 8
    monkeypatch.setattr(quad, "RULE_CACHE_BYTES", 2 * rule_bytes)
    info = quad._dirichlet_rule_cached.cache_info
    first, second, third = [(0.125, 0.375, lam) for lam in (0.5, 1.5, 2.5)]
    kept = dirichlet_probability_rule(first, 8)
    dirichlet_probability_rule(second, 8)
    assert dirichlet_probability_rule(first, 8) is kept  # now the most recent
    dirichlet_probability_rule(third, 8)  # evicts the least recent: second
    assert info().bytes == 2 * rule_bytes
    assert dirichlet_probability_rule(first, 8) is kept
    misses = info().misses
    dirichlet_probability_rule(second, 8)
    assert info().misses == misses + 1
