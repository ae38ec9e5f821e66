"""Simplex quadrature and closed forms for the integrals behind every
operator entry.

* Simplex rules over Delta_p = {u in R_+^p : sum(u) <= 1}, built by a
  Duffy-type collapse onto [0,1]^p with tensor Gauss-Jacobi factors.  A
  rule absorbs a Dirichlet-type weight prod u_l^{a_l} (1 - sum u)^{a_last}
  into its Jacobi parameters, which keeps half-integer and near-singular
  exponents (weight parameters close to -1) at full accuracy; its weights
  sum to one.  Only profiles that do not compile to terms reach them for
  block entries; every symbol declares its torus modes in closed form.
* The uniform product grid on the torus T^k, on which the essential
  spectrum samples symbols.

The closed-form Dirichlet integral and moments are the oracle against
which the simplex rules are checked.  Its log-Gamma is a port of Cephes
`lgam`.  Dirichlet moments E[prod u^h], h in N/2 (gamma of a polynomial in
r), are products of rising factorials and half-integer steps.

There is one Gauss-Jacobi rule, numpy alone: Golub-Welsch by `eigh` of the
Jacobi matrix, weights normalized to a probability.  A simplex rule holds
at most order^3 nodes (`axis_points`), and only the rule built last is kept.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, wraps
import numpy as np

from .errors import QuadratureError

# Cephes lgam coefficients: the Stirling-series correction for x >= 13 and
# the rational approximation of log Gamma on [2, 3).
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_LGAM_C = (
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LOG_SQRT_2PI = 0.91893853320467274178
_LGAM_OVERFLOW = 2.556348e305


def gammaln(x) -> float:
    """log Gamma(x) for a finite x > 0, bit for bit the Cephes `lgam` that
    `scipy.special.gammaln` evaluates.

    Every block entry, norm and Dirichlet mass is a sum of these values, and
    the payload bytes depend on their last bits: keep this a literal port of
    Cephes (same coefficients, same operation order), not `math.lgamma`,
    which differs by an ulp on about half of all inputs.
    """
    x = float(x)
    if not 0.0 < x < math.inf:
        raise QuadratureError(f"gammaln needs a finite x > 0, got {x}")
    if x < 13.0:
        # Shift into [2, 3) by the recurrence, collecting the factor in z.
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x = x + (p - 2.0)
        num = _LGAM_B[0]
        for c in _LGAM_B[1:]:
            num = num * x + c
        den = x + _LGAM_C[0]
        for c in _LGAM_C[1:]:
            den = den * x + c
        return math.log(z) + x * num / den
    if x > _LGAM_OVERFLOW:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    corr = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        corr = corr * p + c
    return q + corr / x


def _jacobi_matrix(npts: int, a: float, b: float) -> np.ndarray:
    """Symmetric tridiagonal Jacobi matrix of x^a (1-x)^b on [0,1], written
    on [-1,1] as (1-x)^b (1+x)^a: its eigenvalues are the Gauss nodes."""
    if npts < 1:
        raise QuadratureError(f"rule needs at least one node, got {npts}")
    if a <= -1.0 or b <= -1.0:
        raise QuadratureError(f"Jacobi exponents must exceed -1, got ({a}, {b})")
    alpha, beta = float(b), float(a)
    n = np.arange(npts, dtype=float)
    k = n[1:]
    num = 4.0 * k * (k + alpha) * (k + beta) * (k + alpha + beta)
    den = (2 * k + alpha + beta) ** 2 * (2 * k + alpha + beta + 1) * (2 * k + alpha + beta - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (beta**2 - alpha**2) / ((2 * n + alpha + beta) * (2 * n + alpha + beta + 2))
        offdiag = np.sqrt(num / den)
    diag[0] = (beta - alpha) / (alpha + beta + 2.0)
    if npts > 1 and alpha + beta == -1.0:  # 0/0 at k = 1: cancel 1 + alpha + beta
        offdiag[0] = math.sqrt(2.0 * (1.0 + alpha) * (1.0 + beta))
    mat = np.diag(diag)
    flat = mat.reshape(-1)  # a view, in which a diagonal steps npts + 1 entries
    flat[1::npts + 1] = flat[npts::npts + 1] = offdiag
    return mat


@lru_cache(maxsize=4096)
def jacobi_probability_rule_01(npts: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [0,1] and weights summing to one for the normalized measure
    x^a (1-x)^b dx / B(a+1, b+1).

    Golub-Welsch on the Jacobi matrix, which is scale-free: exponents in
    the tens of thousands (surrogate functional directives) are as stable
    as small ones.
    """
    vals, vecs = np.linalg.eigh(_jacobi_matrix(npts, a, b))
    weights = vecs[0, :] ** 2
    return np.clip(0.5 * (vals + 1.0), 0.0, 1.0), weights / weights.sum()


# perfbench's tracer (rule_cache_info) reads the rule caches by this name.
jacobi_rule_01 = jacobi_probability_rule_01


def log_dirichlet_mass(a):
    """log of prod_l Gamma(a_l + 1) / Gamma(k + sum a_l) for a = (a_1,...,a_k)."""
    return sum(gammaln(v + 1.0) for v in a) - gammaln(len(a) + sum(a))


def dirichlet_integral(a) -> float:
    """Closed form of the Dirichlet integral over a simplex.

    For a = (a_1,...,a_k), all > -1:

        int_{Delta_{k-1}} prod_{l<k} s_l^{a_l} (1 - sum s)^{a_k} ds
            = prod_l Gamma(a_l + 1) / Gamma(k + sum a_l),

    computed in the log domain.
    """
    a = tuple(float(v) for v in a)
    if len(a) < 1:
        raise QuadratureError("need at least one exponent")
    if any(v <= -1.0 for v in a):
        raise QuadratureError(f"all exponents must exceed -1, got {a}")
    return float(math.exp(log_dirichlet_mass(a)))


# Coefficients of x^-1, x^-3, ..., x^-13 in the series of log Gamma(x + 1/2)
# - log Gamma(x) - log(x)/2; past x = 12 the next term is below 4e-18.
_HALF_STEP = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224, -5461 / 425984)


def _half_step(x: float) -> float:
    """Gamma(x + 1/2) / Gamma(x) for x > 0: the recurrence up to x >= 12, then
    the series of the log-Gamma difference, never two log-Gamma values."""
    num = den = 1.0
    while x < 12.0:
        num, den, x = num * x, den * (x + 0.5), x + 1.0
    series = 0.0
    for c in reversed(_HALF_STEP):
        series = series / (x * x) + c
    return num / den * math.sqrt(x) * math.exp(series / x)


def dirichlet_moment(exponents, increments) -> float:
    """dirichlet_integral(a + h) / dirichlet_integral(a) for exponents a
    (slack last) and increments h in N/2 of the leading coordinates.

    Gamma(a + 1 + h) / Gamma(a + 1) is a rising factorial, times _half_step
    for a half-integer h; numerator and denominator factors are divided in
    pairs, so nothing overflows or cancels at large exponents.
    """
    x = [float(v) + 1.0 for v in exponents]
    if not x or min(x) <= 0.0 or any(h < 0 or h % 0.5 for h in increments):
        raise QuadratureError(
            f"need exponents > -1 and half-integer increments >= 0: {exponents}, {increments}")
    rising = [xl + i for xl, h in zip(x, increments) for i in range(int(h))]
    ratio, total, xsum = 1.0, sum(increments), sum(x)
    for i in range(int(total)):
        ratio *= (rising[i] if i < len(rising) else 1.0) / (xsum + i)
    for xl, h in zip(x, increments):
        if h % 1:
            ratio *= _half_step(xl + int(h))
    if total % 1:
        ratio /= _half_step(xsum + int(total))
    return ratio


def axis_points(order: int, p: int) -> int:
    """Points per axis of a rule of ``order`` on Delta_p: the largest n <= order
    with n^p <= order^3, which is order at p <= 3.  Doubling an order of 2 or
    more still refines a rule on Delta_4 or Delta_5."""
    n = order if p <= 3 else int(order ** (3 / p)) + 1  # the loop corrects a rounded root
    while n**p > order**3:
        n -= 1
    return n


@dataclass(frozen=True, eq=False)
class SimplexRule:
    """Tensor Gauss-Jacobi rule over the simplex Delta_p after Duffy collapse.

    The rule takes the mean of f under the Dirichlet-type weight
    w(s) = prod s^a (1 - sum s)^{a_last}, normalized and absorbed into node
    weights that sum to one.
    """

    dim: int
    nodes: np.ndarray  # (N, dim) view of (dim, N) planes
    weights: np.ndarray  # (N,)

    def __post_init__(self):
        if self.dim > 0:
            # Positive up to underflow: far-out nodes of a sharply
            # concentrated weight may round to exactly zero.
            if self.weights.min() < 0 or not np.sum(self.weights) > 0:
                raise QuadratureError("rule weights must be positive")
            planes = self.nodes.T
            if planes.min() < -1e-14 or planes.sum(axis=0).max() > 1 + 1e-12:
                raise QuadratureError("rule nodes left the closed simplex")

    @property
    def nodes_closed(self) -> np.ndarray:
        """Nodes extended by the slack coordinate 1 - sum(s), shape (N, dim+1)."""
        slack = np.maximum(1.0 - self.nodes.sum(axis=1), 0.0)
        return np.vstack([self.nodes.T, slack]).T

    @classmethod
    def build(cls, exponents: tuple, order: int, out=None) -> "SimplexRule":
        """Probability rule over Delta_p, p = len(exponents) - 1, for the
        weight with the given exponents (slack exponent last), on n =
        axis_points(order, p) points per axis.  Nodes and weights are written
        into ``out`` if given, a float array of at least (p + 1) n^p entries."""
        p = len(exponents) - 1
        if p < 0:
            raise QuadratureError("need at least one exponent")
        if not all(-1.0 < v < math.inf for v in exponents):
            raise QuadratureError(f"weight exponents must be finite and exceed -1: {exponents}")
        if p == 0:
            return cls(dim=0, nodes=np.zeros((1, 0)), weights=np.ones(1))
        n = axis_points(order, p)
        # u_l = x_l prod_{i<l}(1 - x_i) gives level l the Jacobian power
        # (p - l) plus all downstream exponents, slack included.
        axes = [
            jacobi_probability_rule_01(n, exponents[lvl - 1], (p - lvl) + sum(exponents[lvl:]))
            for lvl in range(1, p + 1)
        ]
        # Level l varies along grid axis l; u_l and the running weight
        # product live on the first l + 1 axes and broadcast over the rest.
        # Each u_l is one contiguous plane, so that row sums over the nodes
        # add whole planes, in the same order as along a row; the weights
        # fill the plane after them.
        size = (p + 1) * n**p
        u = (np.empty(size) if out is None else out[:size]).reshape((p + 1,) + (n,) * p)
        w = np.ones(())
        shrink = np.ones(())
        for lvl, (x, wx) in enumerate(axes):
            if lvl == p - 1:  # the last level spans the whole plane
                w = np.multiply(w[..., None], wx, out=u[p])
                np.multiply(x, shrink[..., None], out=u[lvl])
                break
            w = w[..., None] * wx
            ul = x * shrink[..., None]
            u[lvl] = ul.reshape(ul.shape + (1,) * (p - 1 - lvl))
            shrink = shrink[..., None] * (1.0 - x)
        return cls(dim=p, nodes=u[:p].reshape(p, -1).T, weights=w.ravel())


RuleCacheInfo = namedtuple("RuleCacheInfo", "hits misses bytes")


def _hold_last(build):
    """Memo of the SimplexRule built last, let go before another is built:
    gamma and the block entries ask for a rule again right after using it."""
    held, counts = {}, {"hits": 0, "misses": 0}

    @wraps(build)
    def cached(*key):
        hit = key in held
        counts["hits" if hit else "misses"] += 1
        if not hit:
            held.clear()
            held[key] = build(*key)
        return held[key]

    cached.cache_info = lambda: RuleCacheInfo(
        **counts, bytes=sum(r.nodes.nbytes + r.weights.nbytes for r in held.values()))
    return cached


@_hold_last
def _dirichlet_rule_cached(exponents: tuple, order: int) -> SimplexRule:
    return SimplexRule.build(exponents, order)


def dirichlet_probability_rule(exponents, order: int) -> SimplexRule:
    """Rule for the normalized Dirichlet measure with the given exponents.

    Weights sum to one (per-level Golub-Welsch normalization), so
    integrating a bounded function returns its expectation under
    Dirichlet(a + 1) without any Gamma prefactors; gamma-type eigenvalue
    integrals stay overflow-free at arbitrary degree.
    """
    return _dirichlet_rule_cached(tuple(float(v) for v in exponents), order)


def torus_grid(dim: int, grid: int) -> np.ndarray:
    """All points of the uniform product grid on T^dim, shape (grid^dim, dim)."""
    axis = np.exp(2j * np.pi * np.arange(grid) / grid)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)
