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
standard library, and a block-diagonal truncated operator is read densely
through the basis slices.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln, roots_jacobi


def gl01(n: int):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


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


def dense(op) -> np.ndarray:
    """The N x N matrix of a block-diagonal truncated operator."""
    basis = op.basis
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for kappa in basis.kappas:
        sl = basis.slice_of(kappa)
        out[sl, sl] = op.blocks[kappa]
    return out


def opnorm(op) -> float:
    """Operator 2-norm of a block-diagonal truncated operator."""
    return max((float(np.linalg.norm(b, 2)) for b in op.blocks.values()), default=0.0)


def fill_triangles_rowwise(region, points: np.ndarray, triangles: np.ndarray) -> None:
    """`spectra._fill_triangles` one (triangle, row) pair at a time: every row
    tests its vertices against its band and computes its edges' crossings of
    both band lines, with the same candidates and the same arithmetic per
    candidate, so the cells it marks must match the package's bit for bit.
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
                xc = x + (line - y) * slope
                xmin = np.minimum(xmin, np.where(crosses, xc, np.inf))
                xmax = np.maximum(xmax, np.where(crosses, xc, -np.inf))
        c0 = np.clip(np.floor(xmin), 0, res - 1).astype(np.intp)
        c1 = np.clip(np.floor(xmax), 0, res - 1).astype(np.intp)
        np.add.at(diff, (row, c0), 1)
        np.add.at(diff, (row, c1 + 1), -1)
    region.occ |= np.cumsum(diff, axis=1)[:, :res] > 0


def region_zeta_choices_from_all_centers(region, limit: int) -> np.ndarray:
    """`gelfand._region_zeta_choices` from the centres of every occupied
    cell, strided and cut afterwards: the same picks, bit for bit."""
    iy, ix = np.nonzero(region.occ)
    centers = (region.x0 + (ix + 0.5) * region.cell) + 1j * (region.y0 + (iy + 0.5) * region.cell)
    return centers[:: max(1, int(np.ceil(centers.size / limit)))][:limit]
