"""Spectra of the group blocks, the boundary samples and Berezin probing:
what `assembly.AlgebraModel` memoizes, and what needs no raster.

The point spectrum of a group factor is the union over degrees of its
block spectra; for boundary-continuous symbols the essential spectrum is
the boundary image of the symbol, sampled on the sphere by
`boundary_samples`.  `essential_spectrum_estimate` fills the image of the
triangles of the sample grid's 2-faces into a region of `planar`, the
module of rasters and hulls, which only the commands that draw load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpectraError
from .lattice import PartitionConfig, block_indices
from .quad import gamma_quasi_radial, gammaln, torus_grid
from .symbols import PseudoHomogeneousSymbol, QuasiRadialSymbol


# ---------------------------------------------------------------------------
# Block eigenvalues
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EigenData:
    """Eigenvalues of one block with clustering already applied."""

    values: np.ndarray  # all eigenvalues, sorted by (re, im)
    distinct: np.ndarray  # cluster representatives, same order
    multiplicities: np.ndarray  # int, sums to block dimension
    cluster_tol: float
    warnings: tuple[str, ...] = ()

    @property
    def n_distinct(self) -> int:
        return len(self.distinct)


def block_eigenvalues(
    block: np.ndarray, tol: float = 1e-8, *, group: int = 0, d: int = -1
) -> EigenData:
    """Eigenvalues of a block with deterministic order and clustering.

    Exactly triangular blocks (which includes every single-mode
    quasi-homogeneous block and every profile-only block) read their
    spectrum off the diagonal; everything else goes through the dense
    nonsymmetric solver.  ``group`` and ``d`` name the block in messages.
    """
    mat = np.asarray(block, dtype=complex)
    if mat.size and not np.all(np.isfinite(mat.real) & np.isfinite(mat.imag)):
        raise SpectraError("block has non-finite entries")
    nrm = float(np.linalg.norm(mat, 2)) if mat.size else 0.0
    if mat.shape[0] == 0:
        vals = np.zeros(0, dtype=complex)
    elif not np.any(np.tril(mat, -1)) or not np.any(np.triu(mat, 1)):
        vals = np.diag(mat).astype(complex)
    else:
        try:
            vals = np.linalg.eigvals(mat)
        except np.linalg.LinAlgError as exc:
            raise SpectraError(f"eigen solver failed on block ({group},{d}): {exc}")
    vals = vals[np.lexsort((vals.imag, vals.real))]

    ctol = tol * (1.0 + nrm)
    distinct: list[complex] = []
    counts: list[int] = []
    sums: list[complex] = []
    for v in vals:
        if distinct and abs(v - sums[-1] / counts[-1]) <= ctol:
            sums[-1] += v
            counts[-1] += 1
        else:
            distinct.append(v)
            sums.append(v)
            counts.append(1)
    reps = np.array([s / c for s, c in zip(sums, counts)], dtype=complex)
    warnings = []
    for i in range(1, len(reps)):
        gap = abs(reps[i] - reps[i - 1])
        if gap < 10.0 * ctol:
            warnings.append(
                f"clusters {i - 1} and {i} of block ({group},{d}) are {gap:.3e} apart"
            )
    return EigenData(
        values=vals,
        distinct=reps,
        multiplicities=np.array(counts, dtype=int),
        cluster_tol=ctol,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Boundary samples and the triangles of their image
# ---------------------------------------------------------------------------


def _boundary_grid_counts(k: int, samples: int) -> tuple[int, int]:
    """Sphere-direction and torus-direction sample counts for one group."""
    if k == 2:
        return max(64, samples // 16), 64
    per_axis = max(8, int(round(samples ** (1.0 / (2 * (k - 1))))))
    return per_axis, per_axis


def boundary_sample_count(k: int, samples: int) -> int:
    """Number of points `boundary_samples` takes for one group: the
    sigma multi-indices with sum <= n_sigma - 1 times the torus grid."""
    if k == 1:
        return 1
    n_sigma, n_tau = _boundary_grid_counts(k, samples)
    return math.comb(n_sigma + k - 2, k - 1) * n_tau ** (k - 1)


def boundary_samples(c: PseudoHomogeneousSymbol, samples: int = 4096) -> np.ndarray:
    """Symbol values over a quasi-uniform sample of the unit sphere, every
    one of them finite; the symbol must declare the continuity flag.

    The parameter grid is sigma in the sampled simplex (rows) times the
    first k - 1 torus coordinates on a uniform grid (columns), with the last
    torus coordinate fixed to 1 by the diagonal invariance; for k = 2 the
    result is the (n_sigma, n_tau) grid of (sigma, tau), for k = 1 a grid
    of one sample.  These values are what `AlgebraModel.boundary_samples`
    keeps of the boundary image; every raster is filled from them afresh.
    """
    if not c.boundary_continuous:
        raise SpectraError(
            f"symbol {c.label!r} does not declare a continuous boundary extension"
        )
    k = c.dim
    if k == 1:
        s_b, t_b, shape = np.ones((1, 1)), np.ones((1, 1), dtype=complex), (1, 1)
    else:
        n_sigma, n_tau = _boundary_grid_counts(k, samples)
        grids = np.meshgrid(*([np.linspace(0.0, 1.0, n_sigma)] * (k - 1)), indexing="ij")
        sigma = np.stack([g.ravel() for g in grids], axis=1)
        sigma = sigma[sigma.sum(axis=1) <= 1.0 + 1e-12]
        s_full = np.sqrt(np.hstack([sigma, np.maximum(1.0 - sigma.sum(1, keepdims=True), 0.0)]))
        tau = torus_grid(k - 1, n_tau)
        t_full = np.hstack([tau, np.ones((tau.shape[0], 1), dtype=complex)])
        s_b = np.repeat(s_full, t_full.shape[0], axis=0)
        t_b = np.tile(t_full, (s_full.shape[0], 1))
        shape = (s_full.shape[0], t_full.shape[0])
    # a non-finite sample is reported below, in place of numpy's warnings
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = np.asarray(c(s_b, t_b)).reshape(shape)
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise SpectraError(
            f"symbol {c.label!r} is not finite at {bad} of its {values.size} boundary samples"
        )
    return values


def _face_triangles(k: int, n_sigma: int, n_tau: int):
    """Triangles tiling the 2-faces of the sampled simplex x torus grid.

    The grid is the one `boundary_samples` takes for k >= 2: sigma
    multi-indices with sum <= n_sigma - 1 (rows of its result) times torus
    multi-indices with wrap-around (columns).  For each pair of the 2(k-1)
    parameter axes this yields an (n, 3) array of indices into the
    flattened sample: the face with corners p, p+e_a, p+e_b, p+e_a+e_b
    gives the triangles (p, p+e_a, p+e_b) and (p+e_a, p+e_a+e_b, p+e_b); a
    face cut by the simplex boundary keeps only the first.
    """
    m = k - 1
    box = np.indices((n_sigma,) * m).reshape(m, -1).T
    simplex = box[box.sum(axis=1) <= n_sigma - 1]
    position = np.full((n_sigma + 1,) * m, -1, dtype=np.intp)
    position[tuple(simplex.T)] = np.arange(len(simplex))
    torus = np.indices((n_tau,) * m).reshape(m, -1).T
    n_t = len(torus)
    steps = []  # per axis: flat index of the neighbour of every point, -1 outside
    for a in range(m):
        nb = simplex.copy()
        nb[:, a] += 1
        s_next = position[tuple(nb.T)]
        step = s_next[:, None] * n_t + np.arange(n_t)[None, :]
        steps.append(np.where(s_next[:, None] >= 0, step, -1).ravel())
    for a in range(m):
        nb = torus.copy()
        nb[:, a] = (nb[:, a] + 1) % n_tau
        t_next = np.ravel_multi_index(tuple(nb.T), (n_tau,) * m)
        steps.append((np.arange(len(simplex))[:, None] * n_t + t_next[None, :]).ravel())
    for a in range(2 * m):
        for b in range(a + 1, 2 * m):
            pa, pb = steps[a], steps[b]
            corner = np.flatnonzero((pa >= 0) & (pb >= 0))
            pab = np.where(pa >= 0, pb[np.maximum(pa, 0)], -1)
            full = np.flatnonzero(pab >= 0)
            tri = np.empty((len(corner) + len(full), 3), dtype=np.intp)
            tri[: len(corner)] = np.stack([corner, pa[corner], pb[corner]], axis=1)
            tri[len(corner):] = np.stack([pa[full], pab[full], pb[full]], axis=1)
            yield tri


def essential_spectrum_estimate(region, values: np.ndarray, k: int):
    """The boundary image of a group's sample grid, the values
    `boundary_samples` returns for a k-variable symbol, filled into `region`,
    an empty `planar.PlanarRegion` that frames them; the one fill of a
    boundary image.  Returns the region.

    The image is filled, not outlined: each 2-face of the sampled
    simplex x torus parameter grid (for k = 2 each (sigma, tau) cell, tau
    wrapping around) is cut into two triangles, and every cell that the
    image triangle of sample values meets is marked.  The declared
    continuity licenses filling between neighbouring samples; a segment or
    point image (a real or constant symbol) marks just the cells it
    touches, and a grid of one sample (k = 1, or a group without a symbol),
    which has no faces, marks the cell of that sample.  The fill is not
    dilated: `planar.spectrum_with_hull` reads a coarser grid off it first.  The
    region keeps the samples, which the benchmark's tracer reads.
    """
    flat = values.ravel()
    region.samples = flat
    if flat.size == 1:
        region.mark(flat)
    for triangles in sample_triangles(k, values):
        region.mark(flat, triangles)
    return region


def sample_triangles(k: int, values: np.ndarray):
    """`_face_triangles` of a k-variable group's boundary sample grid; none
    for a grid of one sample."""
    if values.size == 1:
        return ()
    rows, cols = values.shape
    # the grid's counts from its shape: (n_sigma, n_tau), equal for k > 2
    n_tau = round(cols ** (1.0 / (k - 1)))
    return _face_triangles(k, rows if k == 2 else n_tau, n_tau)


# ---------------------------------------------------------------------------
# Berezin probing
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KernelProbe:
    """Berezin values against degree-d normalized reproducing kernels."""

    w: tuple[complex, ...]
    degrees: tuple[int, ...]
    values: tuple[complex, ...]
    norm_devs: tuple[float, ...]
    boundary_value: complex


def _kernel_coefficients(w: np.ndarray, k: int, d: int) -> np.ndarray:
    """Coordinates of the normalized kernel k_d(., w) in the block basis.

    From the multinomial expansion, |coef_alpha|^2 is the multinomial
    probability d!/alpha! prod |w_l|^{2 alpha_l} / |w|^{2d}; computed in log
    scale so d in the hundreds is routine.
    """
    basis = block_indices(k, d)
    absw = np.abs(w)
    logw = np.where(absw > 0, np.log(np.maximum(absw, 1e-300)), -np.inf)
    phases = np.where(absw > 0, np.conj(w) / np.maximum(absw, 1e-300), 1.0)
    log_norm_k = 0.5 * (
        gammaln(k + d + 1) - gammaln(k + 1) - gammaln(d + 1)
    ) + d * math.log(float(np.linalg.norm(w)))
    coefs = np.zeros(len(basis), dtype=complex)
    for i, alpha in enumerate(basis):
        if any(a > 0 and absw[l] == 0.0 for l, a in enumerate(alpha)):
            continue
        logmag = 0.5 * (
            gammaln(k + d + 1) - gammaln(k + 1) - sum(gammaln(a + 1) for a in alpha)
        )
        logmag += sum(a * logw[l] for l, a in enumerate(alpha) if a > 0)
        phase = np.prod([phases[l] ** a for l, a in enumerate(alpha)])
        coefs[i] = phase * math.exp(logmag - log_norm_k)
    return coefs


def berezin_sequence(
    model: "AlgebraModel",
    j: int,
    w,
    d_list,
    *,
    radial_profile: QuasiRadialSymbol | None = None,
) -> KernelProbe:
    """<T_c k_d(., w), k_d(., w)> for each degree in d_list, c the model's
    group-j symbol.  The probe symbol is f(r) * c(s, t) with an optional
    separable radial factor f, a one-radius quasi-radial symbol; its
    compression to the degree-d block is the radial moment times the block
    matrix ``model.block(j, d)``, and the sequence converges to the boundary
    value of the symbol along the ray of w.  The radial moment is gamma_f(d)
    on the unweighted k-ball at the model's gamma order, closed form for a
    text in r1 that compiles.
    """
    c = model.symbols.get(j)
    if c is None:
        raise SpectraError(f"group {j} has no symbol to probe")
    w = np.asarray(w, dtype=complex).ravel()
    k = c.dim
    if w.shape != (k,):
        raise SpectraError(f"base point must have {k} coordinates, got {w.shape}")
    absw = float(np.linalg.norm(w))
    if absw == 0.0:
        raise SpectraError("base point w = 0 is degenerate for the Berezin probe")
    if absw >= 1.0:
        raise SpectraError(f"base point must lie inside the ball, |w| = {absw:.4f}")

    radial_cfg = PartitionConfig(k=(k,))
    degrees, values, norm_devs = tuple(int(d) for d in d_list), [], []
    for d in degrees:
        coefs = _kernel_coefficients(w, k, d)
        norm_devs.append(abs(float(np.vdot(coefs, coefs).real) - 1.0))
        moment = 1.0
        if radial_profile is not None:
            moment = gamma_quasi_radial(radial_profile, radial_cfg, (d,), model.gamma_order)
        values.append(complex(moment * np.vdot(coefs, model.block(j, d) @ coefs)))

    s_dir = np.abs(w) / absw
    t_dir = np.where(np.abs(w) > 0, w / np.maximum(np.abs(w), 1e-300), 1.0)
    boundary = complex(np.asarray(c(s_dir[None, :], t_dir[None, :])).ravel()[0])
    if radial_profile is not None:
        boundary *= complex(radial_profile(np.array([[1.0]]))[0])
    return KernelProbe(
        w=tuple(complex(v) for v in w),
        degrees=degrees,
        values=tuple(values),
        norm_devs=tuple(norm_devs),
        boundary_value=boundary,
    )

