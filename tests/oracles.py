"""Independent numerical oracles used by the test suite.

Deliberately built on different computational routes than the package:
ball integrals use full polar coordinates with plain Gauss-Legendre and
uniform angle grids (no absorbed Jacobi weights, no Duffy collapse),
characteristic polynomials come from the Faddeev-LeVerrier trace
recursion, and the adaptive simplex oracle is nested scipy.integrate.quad.
The Gauss-Jacobi references are scipy's: `roots_jacobi`, and Golub-Welsch
through the tridiagonal eigensolver `eigh_tridiagonal`.  The triangle fill
is replayed one (triangle, row) pair at a time, each row computing both of
its band lines, as a bit-for-bit reference for the per-line kernel.
The escaped zeta picks of a region are taken from the centres of all its
occupied cells, as a bit-for-bit reference for locating only the kept ones.
Monomial norms and
H_kappa dimensions are the closed formulas evaluated with scipy and the
standard library, the basis layout is every multi-index of the truncation
sorted by the documented order, and a block-diagonal truncated operator is
read densely by placing its blocks along the diagonal in basis order.  A
diagonal coefficient is evaluated one kappa at a time by walking its terms,
as a bit-for-bit reference for the package's one-array evaluation.  Symbol
texts are parsed by a hand-written tokenizer and recursive-descent parser,
as a reference for the package's reading of them through Python's own
parser.  Torus Fourier
coefficients are plain means over the full uniform grid, as a reference for
the mode tables that the package compiles from symbol texts.
"""

from __future__ import annotations

import math
import re
from itertools import accumulate, product

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.linalg import block_diag, eigh_tridiagonal
from scipy.special import gammaln, roots_jacobi

from toeplitz_spectra.errors import SymbolParseError


def gl01(n: int):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def torus_mode(fn, s: np.ndarray, p, grid: int = 32) -> np.ndarray:
    """c_hat(s_i, p) of a symbol fn(s, t) at each row s_i of an (N, k) array:
    the mean of fn(s_i, t) t^(-p) over the grid^k points of the uniform
    product grid on the torus, exact for modes below the grid bandwidth."""
    k = len(p)
    axis = np.exp(2j * np.pi * np.arange(grid) / grid)
    t = np.stack([g.ravel() for g in np.meshgrid(*[axis] * k, indexing="ij")], axis=1)
    phase = np.prod(t ** -np.asarray(p), axis=1)
    vals = np.asarray(fn(s[:, None, :], t[None, :, :]), dtype=complex)
    return (vals * phase).mean(axis=1)


def ball2_inner_product(
    phi,
    alpha,
    beta,
    lam: float = 0.0,
    *,
    n_rad: int = 80,
    n_psi: int = 48,
    n_ang: int = 20,
) -> complex:
    """<phi z^alpha, z^beta> over the weighted two-dimensional ball.

    Full 4-real-dimensional tensor quadrature in the coordinates
    z1 = t cos(psi) e^{i a1}, z2 = t sin(psi) e^{i a2}; the radial variable
    is substituted x = t^2 so polynomial radial parts integrate exactly at
    lam = 0 and the (1-x)^lam factor converges fast for moderate lam.

    phi receives the complex coordinate array of shape (..., 2).
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    x, wx = gl01(n_rad)
    psi, wpsi = gl01(n_psi)
    psi = psi * (math.pi / 2.0)
    wpsi = wpsi * (math.pi / 2.0)
    ang = 2.0 * math.pi * np.arange(n_ang) / n_ang

    t = np.sqrt(x)[:, None, None, None]
    cp = np.cos(psi)[None, :, None, None]
    sp = np.sin(psi)[None, :, None, None]
    e1 = np.exp(1j * ang)[None, None, :, None]
    e2 = np.exp(1j * ang)[None, None, None, :]
    z1 = t * cp * e1
    z2 = t * sp * e2
    z = np.stack(np.broadcast_arrays(z1, z2), axis=-1)

    vals = np.asarray(phi(z), dtype=complex)
    mono = (z[..., 0] ** alpha[0]) * (z[..., 1] ** alpha[1])
    mono = mono * np.conj(z[..., 0]) ** beta[0] * np.conj(z[..., 1]) ** beta[1]
    # dv = t^3 sin cos dt dpsi da1 da2 and dt t^3 = x dx / 2.
    weight = 0.5 * x[:, None, None, None] * (1.0 - x[:, None, None, None]) ** lam
    weight = weight * (sp * cp)
    integrand = vals * mono * weight
    total = np.einsum("ijkl,i,j->", integrand, wx, wpsi) * (2 * math.pi / n_ang) ** 2
    c_lam = math.exp(gammaln(2 + lam + 1.0) - gammaln(lam + 1.0)) / math.pi**2
    return complex(total * c_lam)


def ball1_norm_sq(alpha: int, lam: float = 0.0, n_rad: int = 200) -> float:
    """||z^alpha||^2 over the weighted disk by plain radial quadrature."""
    x, wx = gl01(n_rad)
    c_lam = math.exp(gammaln(1 + lam + 1.0) - gammaln(lam + 1.0)) / math.pi
    # |z|^{2a} dv = 2 pi r^{2a+1} dr; with x = r^2 this is pi x^a dx.
    vals = x**alpha * (1.0 - x) ** lam
    return float(c_lam * math.pi * np.sum(wx * vals))


def gamma_literal(a_fn, k: tuple[int, ...], lam: float, kappa, *, n_rad: int = 160) -> complex:
    """The quasi-radial eigenvalue by its literal defining formula.

    Prefactor 2^m Gamma(n+|kappa|+lam+1) / (Gamma(lam+1) prod (k_j-1+kappa_j)!)
    times the integral over the Reinhardt base of a * (1-|r|^2)^lam *
    prod r_j^{2 kappa_j + 2 k_j - 1}.  Supports m <= 2 by polar coordinates.
    """
    m = len(k)
    n = sum(k)
    kappa = tuple(kappa)
    logpref = (
        m * math.log(2.0)
        + gammaln(n + sum(kappa) + lam + 1.0)
        - gammaln(lam + 1.0)
        - sum(gammaln(kj + kap) for kj, kap in zip(k, kappa))
    )
    if m == 1:
        x, wx = gl01(n_rad)
        r = x
        vals = np.asarray(a_fn(r[:, None]), dtype=complex)
        integrand = vals * (1 - r**2) ** lam * r ** (2 * kappa[0] + 2 * k[0] - 1)
        return complex(math.exp(logpref) * np.sum(wx * integrand))
    if m == 2:
        x, wx = gl01(n_rad)
        th, wth = gl01(n_rad // 2)
        th = th * (math.pi / 2)
        wth = wth * (math.pi / 2)
        t = x[:, None]
        r1 = t * np.cos(th)[None, :]
        r2 = t * np.sin(th)[None, :]
        pts = np.stack([r1.ravel(), r2.ravel()], axis=1)
        vals = np.asarray(a_fn(pts), dtype=complex).reshape(r1.shape)
        integrand = (
            vals
            * (1 - t**2) ** lam
            * r1 ** (2 * kappa[0] + 2 * k[0] - 1)
            * r2 ** (2 * kappa[1] + 2 * k[1] - 1)
            * t
        )
        val = np.einsum("ij,i,j->", integrand, wx, wth)
        return complex(math.exp(logpref) * val)
    raise NotImplementedError("literal gamma oracle implemented for m <= 2")


def char_poly_coeffs(mat: np.ndarray) -> np.ndarray:
    """Characteristic polynomial by the Faddeev-LeVerrier recursion.

    Returns coefficients highest power first, monic, without any eigenvalue
    computation.
    """
    n = mat.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    M = np.zeros_like(mat)
    eye = np.eye(n, dtype=complex)
    c = 1.0 + 0.0j
    for k in range(1, n + 1):
        M = mat @ M + c * eye
        c = -np.trace(mat @ M) / k
        coeffs[k] = c
    return coeffs


def adaptive_dirichlet(a: tuple[float, ...], epsabs: float = 1e-13) -> float:
    """Adaptive nested quadrature of the Dirichlet integrand for k <= 3."""
    if len(a) == 2:
        val, _ = quad(
            lambda s: s ** a[0] * (1 - s) ** a[1], 0.0, 1.0, epsabs=epsabs, limit=400
        )
        return val
    if len(a) == 3:

        def inner(s1):
            val, _ = quad(
                lambda s2: s2 ** a[1] * (1 - s1 - s2) ** a[2],
                0.0,
                1.0 - s1,
                epsabs=epsabs,
                limit=400,
            )
            return s1 ** a[0] * val

        val, _ = quad(inner, 0.0, 1.0, epsabs=epsabs, limit=400)
        return val
    raise NotImplementedError("adaptive oracle implemented for k <= 3")


def golub_welsch_tridiagonal(npts: int, a: float, b: float):
    """Probability rule on [0,1] for x^a (1-x)^b by Golub-Welsch, with the
    recurrence written out and solved by scipy's tridiagonal eigensolver."""
    alpha, beta = float(b), float(a)
    n = np.arange(npts, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (beta**2 - alpha**2) / ((2 * n + alpha + beta) * (2 * n + alpha + beta + 2))
    diag[0] = (beta - alpha) / (alpha + beta + 2.0)
    k = np.arange(1, npts, dtype=float)
    num = 4.0 * k * (k + alpha) * (k + beta) * (k + alpha + beta)
    den = (2 * k + alpha + beta) ** 2 * (2 * k + alpha + beta + 1) * (2 * k + alpha + beta - 1)
    vals, vecs = eigh_tridiagonal(diag, np.sqrt(num / den))
    weights = vecs[0, :] ** 2
    return np.clip(0.5 * (vals + 1.0), 0.0, 1.0), weights / weights.sum()


def roots_jacobi_01(npts: int, a: float, b: float):
    """scipy's Gauss-Jacobi rule mapped to [0,1] for x^a (1-x)^b, its weights
    divided by their sum (NaN where scipy's overflow past exponents of about 1e4)."""
    with np.errstate(all="ignore"):
        x, w = roots_jacobi(npts, b, a)
        return 0.5 * (x + 1.0), w / w.sum()


def monomial_norm_sq(alpha, cfg) -> float:
    """||z^alpha||^2 = alpha! Gamma(n + lam + 1) / Gamma(n + |alpha| + lam + 1)
    in the weighted Bergman space over the n-ball."""
    n, lam = sum(cfg.k), cfg.lam
    log = sum(gammaln(a + 1.0) for a in alpha) + gammaln(n + lam + 1.0)
    return math.exp(log - gammaln(n + sum(alpha) + lam + 1.0))


def dim_h_kappa(k, kappa) -> int:
    """dim H_kappa = prod_j C(kappa_j + k_j - 1, k_j - 1)."""
    return math.prod(math.comb(kap + kj - 1, kj - 1) for kj, kap in zip(k, kappa))


def basis_layout(k, cap: int) -> list[tuple[tuple, tuple]]:
    """(kappa, alpha) for every multi-index alpha with |alpha| <= cap over the
    partition k, in the documented basis order: kappas by total degree, then
    grevlex (ascending lex of the reversed tuple); within a kappa, group 1
    slowest, each group part in grevlex order."""
    bounds = list(accumulate(k, initial=0))

    def parts(alpha):
        return [alpha[a:b] for a, b in zip(bounds, bounds[1:])]

    def kappa(alpha):
        return tuple(sum(part) for part in parts(alpha))

    def key(alpha):
        return sum(alpha), kappa(alpha)[::-1], [part[::-1] for part in parts(alpha)]

    alphas = sorted((a for a in product(range(cap + 1), repeat=sum(k)) if sum(a) <= cap), key=key)
    return [(kappa(alpha), alpha) for alpha in alphas]


def dense(blocks: dict) -> np.ndarray:
    """The N x N matrix of a block-diagonal truncated operator held as
    {kappa: block} in basis order: each H_kappa's slice follows the last."""
    return block_diag(*blocks.values())


def opnorm(blocks: dict) -> float:
    """Operator 2-norm of a block-diagonal truncated operator {kappa: block}."""
    return max((float(np.linalg.norm(b, 2)) for b in blocks.values()), default=0.0)


def coefficient_at(gamma, kappa: tuple) -> complex:
    """A ``gelfand.DiagonalCoefficient`` at one kappa, its terms walked one
    at a time: leaves as their kinds define them, a sum added up from 0 left
    to right, a product by Python's complex multiply."""
    kind, args = gamma.kind, gamma.args
    if kind == "const":
        return args[0]
    if kind == "degree":
        return complex(args[1](kappa[args[0] - 1]))
    if kind == "callable":
        return complex(args[0](kappa))
    if kind == "sum":
        return sum(coefficient_at(g, kappa) for g in args)
    return coefficient_at(args[0], kappa) * coefficient_at(args[1], kappa)


def fill_triangles_rowwise(region, points: np.ndarray, triangles: np.ndarray) -> None:
    """`planar._fill_triangles` one (triangle, row) pair at a time: every row
    tests its vertices against its band and computes its edges' crossings of
    both band lines, each clamped to its edge's x-range, with the same
    candidates and the same arithmetic per candidate, so the cells it marks
    must match the package's bit for bit.
    Triangles go in blocks of 128 to bound the pair arrays."""
    res = region.resolution
    px = np.clip((points.real - region.x0) / region.cell, 0.0, res)
    py = np.clip((points.imag - region.y0) / region.cell, 0.0, res)
    diff = np.zeros((res, res + 1), dtype=np.int32)
    for block in range(0, len(triangles), 128):
        corners = triangles[block : block + 128].T
        ymin = np.minimum(np.minimum(py[corners[0]], py[corners[1]]), py[corners[2]])
        ymax = np.maximum(np.maximum(py[corners[0]], py[corners[1]]), py[corners[2]])
        first = np.minimum(np.floor(ymin), res - 1).astype(np.intp)
        nrows = np.minimum(np.floor(ymax), res - 1).astype(np.intp) - first + 1
        t = np.repeat(np.arange(len(nrows)), nrows)
        row = first[t] + np.arange(t.size) - np.repeat(np.cumsum(nrows) - nrows, nrows)
        lo = row.astype(float)
        hi = lo + 1.0
        xs = [px[corners[v][t]] for v in range(3)]
        ys = [py[corners[v][t]] for v in range(3)]
        xmin = np.full(t.size, np.inf)
        xmax = np.full(t.size, -np.inf)
        for v in range(3):
            x, y = xs[v], ys[v]
            inside = (y >= lo) & (y <= hi)
            xmin = np.minimum(xmin, np.where(inside, x, np.inf))
            xmax = np.maximum(xmax, np.where(inside, x, -np.inf))
            x_end, y_end = xs[(v + 1) % 3], ys[(v + 1) % 3]
            dy = y_end - y
            slope = (x_end - x) / np.where(dy == 0.0, 1.0, dy)
            y_low, y_high = np.minimum(y, y_end), np.maximum(y, y_end)
            for line in (lo, hi):
                crosses = (y_low <= line) & (y_high >= line)
                xc = np.maximum(np.minimum(x + (line - y) * slope, np.maximum(x, x_end)),
                                np.minimum(x, x_end))
                xmin = np.minimum(xmin, np.where(crosses, xc, np.inf))
                xmax = np.maximum(xmax, np.where(crosses, xc, -np.inf))
        c0 = np.clip(np.floor(xmin), 0, res - 1).astype(np.intp)
        c1 = np.clip(np.floor(xmax), 0, res - 1).astype(np.intp)
        np.add.at(diff, (row, c0), 1)
        np.add.at(diff, (row, c1 + 1), -1)
    region.occ |= np.cumsum(diff, axis=1)[:, :res] > 0


_SYMBOL_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[()+\-*/^,]))"
)
_SYMBOL_VAR_RE = re.compile(r"^[rst][1-9][0-9]*$")


class _SymbolParser:
    """Recursive descent over: expr -> term (+/- term)*, term -> unary
    (*// unary)*, unary -> [+-] unary | power, power -> atom (^ unary)?,
    with ** an alias of ^.  Returns the package's tuple AST."""

    def __init__(self, text: str):
        self.tokens, pos = [], 0
        while pos < len(text):
            m = _SYMBOL_TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                raise SymbolParseError(f"unexpected character {text[at]!r}", at)
            self.tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()
        self.tokens.append(("end", "", len(text)))
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        self.idx += 1
        return self.tokens[self.idx - 1]

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise SymbolParseError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            node = (self.next()[1], node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            node = (self.next()[1], node, self.unary())
        return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            inner = self.unary()
            return inner if val == "+" else ("neg", inner)
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val in ("^", "**"):
            self.next()
            node = ("^", node, self.unary())
        return node

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return ("num", float(val))
        if kind == "name":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                if val not in ("exp", "conj"):
                    raise SymbolParseError(f"unknown function {val!r}", pos)
                self.next()
                arg = self.expr()
                self._expect(")")
                return ("call", val, arg)
            if val in ("pi", "i"):
                return ("num", complex(np.pi if val == "pi" else 1j))
            if not _SYMBOL_VAR_RE.match(val):
                raise SymbolParseError(f"unknown identifier {val!r}", pos)
            return ("var", val)
        if kind == "op" and val == "(":
            node = self.expr()
            self._expect(")")
            return node
        raise SymbolParseError(f"expected a value, got {val!r}", pos)

    def _expect(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise SymbolParseError(f"expected {op!r}, got {val!r}", pos)


def parse_symbol_text(text: str) -> tuple:
    """Tuple AST of a symbol text; raises SymbolParseError with an offset."""
    if not text or not text.strip():
        raise SymbolParseError("empty expression", 0)
    return _SymbolParser(text).parse()
