"""Spectra of the group blocks, planar polynomial hulls, Berezin probing,
and the spectral-invariance decision.

The point spectrum of a group factor is the union over degrees of its
block spectra; for boundary-continuous symbols the essential spectrum is
the boundary image of the symbol, sampled on the sphere.  The image is
rasterized as filled cells: every 2-face of the sampled (sigma, tau)
parameter grid is cut into triangles, and every grid cell that the image
of one of them meets is marked, in one vectorized pass.  Every region is
an empty grid from `PlanarRegion.framing` marked by `PlanarRegion.mark`, so
points and curves go through the same fill, as degenerate triangles.  In the
plane the polynomially convex hull of a compact set is the set together
with the bounded components of its complement, which a union-find over the
row runs of the complement computes exactly at fixed resolution.  The fill
computes each edge's crossing once per (triangle, grid line), and holes are
looked for only inside the box of occupied cells; both mark the same cells,
bit for bit, as a row-by-row fill and a whole-grid search.

All regions of a group at one resolution share the grid that frames its
sampled boundary image.  The point spectrum lies in the numerical range,
inside the convex hull of the true image, so it fits in that frame when the
sampling resolves the image; `spectrum_with_hull` checks that it does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .assembly import AlgebraModel, gamma_quasi_radial
from .errors import SpectraError
from .lattice import PartitionConfig, block_indices
from .quad import gammaln, torus_grid
from .symbols import PseudoHomogeneousSymbol, QuasiRadialSymbol


# ---------------------------------------------------------------------------
# Block eigenvalues
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EigenData:
    """Eigenvalues of one block with clustering already applied."""

    group: int
    d: int
    values: np.ndarray  # all eigenvalues, sorted by (re, im)
    distinct: np.ndarray  # cluster representatives, same order
    multiplicities: np.ndarray  # int, sums to block dimension
    cluster_tol: float
    warnings: tuple[str, ...] = ()

    @property
    def n_distinct(self) -> int:
        return len(self.distinct)


def _sorted_complex(vals: np.ndarray) -> np.ndarray:
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def block_eigenvalues(
    block: np.ndarray, tol: float = 1e-8, *, group: int = 0, d: int = -1
) -> EigenData:
    """Eigenvalues of a block with deterministic order and clustering.

    Exactly triangular blocks (which includes every single-mode
    quasi-homogeneous block and every profile-only block) read their
    spectrum off the diagonal; everything else goes through the dense
    nonsymmetric solver.  ``group`` and ``d`` label the result and its
    messages.
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
    vals = _sorted_complex(vals)

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
        group=group,
        d=d,
        values=vals,
        distinct=reps,
        multiplicities=np.array(counts, dtype=int),
        cluster_tol=ctol,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Planar regions and hulls
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PlanarRegion:
    """Boolean occupancy grid over a padded square bounding box."""

    x0: float
    y0: float
    cell: float
    occ: np.ndarray  # bool (res, res), row = y index
    provenance: str
    samples: np.ndarray | None = None
    # slack -> (the occ array it was computed from, that array dilated)
    _dilations: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def resolution(self) -> int:
        return self.occ.shape[0]

    @classmethod
    def framing(cls, points, resolution: int, provenance: str) -> "PlanarRegion":
        """An empty grid of resolution x resolution cells on the square
        that frames the points: their bounding box's center, its longer
        side padded by a tenth at each end (at least 2.2e-6 across)."""
        pts = np.asarray(points, dtype=complex).ravel()
        if pts.size == 0:
            raise SpectraError("cannot frame an empty point set")
        xs, ys = pts.real, pts.imag
        cx, cy = (xs.min() + xs.max()) / 2.0, (ys.min() + ys.max()) / 2.0
        half = max(xs.max() - xs.min(), ys.max() - ys.min()) / 2.0
        half = max(half, 1e-6)
        half *= 1.1
        x0, x1, y0, y1 = cx - half, cx + half, cy - half, cy + half
        cell = max(x1 - x0, y1 - y0) / resolution
        occ = np.zeros((resolution, resolution), dtype=bool)
        return cls(x0=x0, y0=y0, cell=cell, occ=occ, provenance=provenance)

    def mark(self, points, triangles: np.ndarray | None = None) -> None:
        """Mark every cell that a triangle, an (n, 3) array of indices into
        the complex ``points``, meets (see _fill_triangles); by default each
        point alone, as the degenerate triangle (i, i, i)."""
        pts = np.asarray(points, dtype=complex).ravel()
        if triangles is None:
            triangles = np.repeat(np.arange(pts.size), 3).reshape(-1, 3)
        _fill_triangles(self, pts, triangles)

    def area(self) -> float:
        return float(self.occ.sum()) * self.cell * self.cell

    def count(self) -> int:
        return int(self.occ.sum())

    def same_grid(self, other: "PlanarRegion") -> bool:
        return (
            self.occ.shape == other.occ.shape
            and math.isclose(self.x0, other.x0, abs_tol=1e-12)
            and math.isclose(self.y0, other.y0, abs_tol=1e-12)
            and math.isclose(self.cell, other.cell, rel_tol=1e-12)
        )

    def contains_point(self, z: complex, slack_cells: int = 0) -> bool:
        """Whether z's cell is occupied; a point outside the frame takes the
        edge cell it faces (the fill's rule), a non-finite one is outside."""
        if not np.isfinite(z):
            return False
        occ = self._dilated(slack_cells) if slack_cells > 0 else self.occ
        at = (np.array([z.real, z.imag]) - (self.x0, self.y0)) / self.cell
        ix, iy = np.clip(np.floor(at), 0, self.resolution - 1).astype(int)
        return bool(occ[iy, ix])

    def _dilated(self, cells: int) -> np.ndarray:
        """The grid dilated by `cells` 4-connected steps, computed once per
        (occ array, cells); a reassigned `occ` is dilated afresh."""
        hit = self._dilations.get(cells)
        if hit is None or hit[0] is not self.occ:
            hit = (self.occ, _dilate_cells(self.occ, cells))
            self._dilations[cells] = hit
        return hit[1]

    def run_length_rows(self) -> list[list[tuple[int, int]]]:
        """Per-row [start, length] runs of occupied cells (for JSON export)."""
        padded = np.zeros((self.occ.shape[0], self.occ.shape[1] + 2), dtype=np.int8)
        padded[:, 1:-1] = self.occ
        edges = np.diff(padded, axis=1)
        run_rows, starts = np.nonzero(edges == 1)
        _, stops = np.nonzero(edges == -1)
        rows: list[list[tuple[int, int]]] = [[] for _ in range(self.occ.shape[0])]
        for r, a, b in zip(run_rows.tolist(), starts.tolist(), stops.tolist()):
            rows[r].append((a, b - a))
        return rows


def _dilate_cells(occ: np.ndarray, steps: int) -> np.ndarray:
    """occ grown by `steps` 4-neighbour steps, nothing beyond the grid edge.

    After rows + cols - 2 steps every cell is within reach of any occupied
    one, so larger requests (a slack of millions of cells around a tiny
    image) cost no more than that.
    """
    rows, cols = occ.shape
    if steps >= rows + cols - 2:
        return np.full(occ.shape, bool(occ.any()))
    out = occ.copy()
    for _ in range(steps):
        prev = out.copy()
        out[1:] |= prev[:-1]
        out[:-1] |= prev[1:]
        out[:, 1:] |= prev[:, :-1]
        out[:, :-1] |= prev[:, 1:]
    return out


def _bounded_holes(occ: np.ndarray) -> np.ndarray:
    """Free cells that no 4-connected path of free cells joins to the
    outside of the grid.

    The free cells of the grid framed by one free cell on every side are
    cut into row runs; runs in adjacent rows whose columns overlap are
    joined by a vectorized union-find (hook every edge's larger root to
    its smaller one, then jump pointers until every run points at its
    root).  The frame's first row is run 0, so the outside is the
    component with root 0, and every other run is a hole.

    Only the bounding box of the occupied cells is searched: a free cell
    outside it reaches the border in a straight line, so it is never a hole.
    Every array that spans the box is int8 or bool; the run and union-find
    arrays are as long as the runs.
    """
    used_rows, used_cols = np.flatnonzero(occ.any(axis=1)), np.flatnonzero(occ.any(axis=0))
    if used_rows.size == 0:
        return np.zeros_like(occ)
    box = np.s_[used_rows[0] : used_rows[-1] + 1, used_cols[0] : used_cols[-1] + 1]
    rows, cols = occ[box].shape
    free = np.ones((rows + 2, cols + 2), dtype=np.int8)
    np.logical_not(occ[box], out=free[1:-1, 1:-1])
    # Runs [start, stop) in row-major order; keys order them across rows.
    # edges is the difference of free framed by a zero column on each side.
    width = cols + 3
    edges = np.empty((rows + 2, width), dtype=np.int8)
    edges[:, 0], edges[:, -1] = free[:, 0], -free[:, -1]
    np.subtract(free[:, 1:], free[:, :-1], out=edges[:, 1:-1])
    del free
    run_row, start = np.nonzero(edges == 1)
    _, stop = np.nonzero(edges == -1)
    del edges
    # Runs of the row above that overlap a run: stop above > start and
    # start above < stop, a contiguous range [lo, hi) of run numbers.
    lower = np.nonzero(run_row > 0)[0]
    above = (run_row[lower] - 1) * width
    lo = np.searchsorted(run_row * width + stop, above + start[lower], side="right")
    hi = np.searchsorted(run_row * width + start, above + stop[lower], side="left")
    count = np.maximum(hi - lo, 0)
    first = np.cumsum(count) - count
    u = np.repeat(lower, count)
    v = np.repeat(lo - first, count) + np.arange(count.sum())
    parent = np.arange(run_row.size)
    while True:
        pu, pv = parent[u], parent[v]
        joined = pu != pv
        if not joined.any():
            break
        u, v, pu, pv = u[joined], v[joined], pu[joined], pv[joined]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    hole = parent != 0
    # Runs in a row are disjoint and separated, so no start meets a stop.
    paint = np.zeros((rows + 2, width), dtype=np.int8)
    paint[run_row[hole], start[hole]] = 1
    paint[run_row[hole], stop[hole]] = -1
    np.cumsum(paint, axis=1, dtype=np.int8, out=paint)
    holes = np.zeros_like(occ)
    np.greater(paint[1:-1, 1 : cols + 1], 0, out=holes[box])
    return holes


def polynomial_hull_2d(region: PlanarRegion) -> PlanarRegion:
    """Fill the bounded components of the complement (flood from the border).

    Idempotent at fixed grid and monotone: the input is contained in the
    output, finite point sets come back unchanged.
    """
    occ = region.occ
    return PlanarRegion(
        x0=region.x0,
        y0=region.y0,
        cell=region.cell,
        occ=occ | _bounded_holes(occ),
        provenance=f"hull({region.provenance})",
    )


# ---------------------------------------------------------------------------
# Essential spectrum from boundary sampling
# ---------------------------------------------------------------------------


def _boundary_grid_counts(k: int, samples: int) -> tuple[int, int]:
    """Sphere-direction and torus-direction sample counts for one group."""
    if k == 2:
        return max(64, samples // 16), 64
    per_axis = max(8, int(round(samples ** (1.0 / (2 * (k - 1))))))
    return per_axis, per_axis


def boundary_sample_count(k: int, samples: int) -> int:
    """Number of points `boundary_image_values` samples for one group: the
    sigma multi-indices with sum <= n_sigma - 1 times the torus grid."""
    if k == 1:
        return 1
    n_sigma, n_tau = _boundary_grid_counts(k, samples)
    return math.comb(n_sigma + k - 2, k - 1) * n_tau ** (k - 1)


def boundary_image_values(c: PseudoHomogeneousSymbol, samples: int = 4096) -> np.ndarray:
    """Symbol values over a quasi-uniform sample of the unit sphere.

    The parameter grid is sigma in the sampled simplex (rows) times the
    first k - 1 torus coordinates on a uniform grid (columns), with the last
    torus coordinate fixed to 1 by the diagonal invariance; for k = 2 the
    result is the (n_sigma, n_tau) grid of (sigma, tau).
    """
    k = c.dim
    if k == 1:
        return np.asarray(c(np.ones((1, 1)), np.ones((1, 1), dtype=complex))).reshape(1, 1)
    n_sigma, n_tau = _boundary_grid_counts(k, samples)
    grids = np.meshgrid(*([np.linspace(0.0, 1.0, n_sigma)] * (k - 1)), indexing="ij")
    sigma = np.stack([g.ravel() for g in grids], axis=1)
    sigma = sigma[sigma.sum(axis=1) <= 1.0 + 1e-12]
    s_full = np.sqrt(np.hstack([sigma, np.maximum(1.0 - sigma.sum(1, keepdims=True), 0.0)]))
    tau = torus_grid(k - 1, n_tau)
    t_full = np.hstack([tau, np.ones((tau.shape[0], 1), dtype=complex)])
    s_b = np.repeat(s_full, t_full.shape[0], axis=0)
    t_b = np.tile(t_full, (s_full.shape[0], 1))
    return np.asarray(c(s_b, t_b)).reshape(s_full.shape[0], t_full.shape[0])


def _face_triangles(k: int, n_sigma: int, n_tau: int):
    """Triangles tiling the 2-faces of the sampled simplex x torus grid.

    The grid is the one `boundary_image_values` samples for k >= 2: sigma
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


# (line, triangle) cells per chunk of the fill: float temporaries of 128 KiB
_FILL_CHUNK = 1 << 14


def _fill_triangles(region: PlanarRegion, points: np.ndarray, triangles: np.ndarray) -> None:
    """Mark every cell of `region` that meets a triangle.

    `points` are complex vertices and `triangles` an (n, 3) array of
    indices into them; degenerate triangles (segments and points) mark the
    cells they touch.  A cell is the half-open square [c, c+1) x [r, r+1)
    in grid units, so a point marks cell clip(floor((z - origin) / cell),
    0, res - 1) and a segment along a grid line marks one row of cells,
    not two; vertices are clipped to the grid box.
    For each (triangle, row) pair the x-extent of the triangle inside the
    row's band comes from its vertices in the band and its edges'
    crossings of the band's two lines.  Each crossing is computed once per
    (triangle, grid line) and serves both rows that share the line; the
    triangles are taken in order of height, so each chunk is a (line,
    triangle) array with little padding.  The row spans are summed in a
    difference array over the rows the triangles cover, so only int32 and
    bool arrays span the grid.
    """
    res = region.resolution
    px = np.clip((points.real - region.x0) / region.cell, 0.0, res)
    py = np.clip((points.imag - region.y0) / region.cell, 0.0, res)
    y0, y1, y2 = (py[c] for c in triangles.T)
    first = np.minimum(np.floor(np.minimum(np.minimum(y0, y1), y2)), res - 1)
    last = np.minimum(np.floor(np.maximum(np.maximum(y0, y1), y2)), res - 1)
    nrows = (last - first).astype(np.intp) + 1
    top, bottom = int(first.min()), int(last.max()) + 1
    del y0, y1, y2, last
    order = np.argsort(nrows)
    nrows = nrows[order]
    diff = np.zeros((bottom - top, res + 1), dtype=np.int32)
    flat = diff.reshape(-1)
    one = np.int32(1)
    lo = 0
    while lo < len(order):
        lines = nrows[lo : lo + _FILL_CHUNK // (nrows[lo] + 1)] + 1
        hi = lo + max(1, int(np.count_nonzero(lines * np.arange(1, lines.size + 1) <= _FILL_CHUNK)))
        height = int(nrows[hi - 1])
        chunk = order[lo:hi]
        corners = triangles.take(chunk, axis=0).T
        x, y = px[corners], py[corners]
        line = first[chunk] + np.arange(height + 1, dtype=float)[:, None]
        lmin = lmax = None
        for v in range(3):
            w = (v + 1) % 3
            dy = y[w] - y[v]
            slope = (x[w] - x[v]) / np.where(dy == 0.0, 1.0, dy)
            crosses = (np.minimum(y[v], y[w]) <= line) & (np.maximum(y[v], y[w]) >= line)
            # an edge on a line contributes only its end points
            xc = np.where(crosses, x[v] + (line - y[v]) * slope, np.nan)
            lmin = xc if lmin is None else np.fmin(lmin, xc)
            lmax = xc if lmax is None else np.fmax(lmax, xc)
        # row r lies between lines r and r + 1; rows past a triangle's own are padding
        xmin = np.fmin(lmin[:-1], lmin[1:]).reshape(-1)
        xmax = np.fmax(lmax[:-1], lmax[1:]).reshape(-1)
        # A vertex at height y lies in row min(floor(y), res - 1).  At an
        # integer y it also bounds the row below, where it is the crossing
        # of the edge leaving it, x + 0 * slope, so it needs no entry there.
        at = (np.minimum(np.floor(y), res - 1) - first[chunk]).astype(np.intp) * (hi - lo)
        at += np.arange(hi - lo)
        for v in range(3):
            xmin[at[v]] = np.fmin(xmin[at[v]], x[v])
            xmax[at[v]] = np.fmax(xmax[at[v]], x[v])
        own = (np.arange(height)[:, None] < nrows[lo:hi]).reshape(-1)
        row = (line[:-1].reshape(-1)[own] - top).astype(np.intp) * (res + 1)
        np.add.at(flat, row + np.clip(np.floor(xmin[own]), 0, res - 1).astype(np.intp), one)
        np.add.at(flat, row + np.clip(np.floor(xmax[own]), 0, res - 1).astype(np.intp) + 1, -one)
        lo = hi
    region.occ[top:bottom] |= np.cumsum(diff, axis=1, out=diff)[:, :res] > 0


def boundary_samples(c: PseudoHomogeneousSymbol, samples: int = 4096) -> np.ndarray:
    """`boundary_image_values` of a symbol that declares the continuity
    flag, every one of them finite."""
    if not c.boundary_continuous:
        raise SpectraError(
            f"symbol {c.label!r} does not declare a continuous boundary extension"
        )
    # a non-finite sample is reported below, in place of numpy's warnings
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = boundary_image_values(c, samples)
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise SpectraError(
            f"symbol {c.label!r} is not finite at {bad} of its {values.size} boundary samples"
        )
    return values


def essential_spectrum_estimate(
    c: PseudoHomogeneousSymbol,
    samples: int | np.ndarray = 4096,
    *,
    resolution: int = 512,
) -> PlanarRegion:
    """Rasterized boundary image c(sphere); requires the continuity flag.

    ``samples`` is the sample count, or the values `boundary_samples`
    returned for c, which are then not computed again.
    The image is filled, not outlined: each 2-face of the sampled
    simplex x torus parameter grid (for k = 2 each (sigma, tau) cell, tau
    wrapping around) is cut into two triangles, and every cell that the
    image triangle of sample values meets is marked, then the grid is
    dilated by one cell.  The declared continuity licenses filling
    between neighbouring samples; a segment or point image (a real or
    constant symbol) marks just the cells it touches, and k = 1, whose
    grid is one point and has no faces, marks the cell of its one value.
    The region keeps the samples, which the benchmark's tracer reads.
    """
    values = samples if isinstance(samples, np.ndarray) else boundary_samples(c, samples)
    flat = values.ravel()
    region = PlanarRegion.framing(flat, resolution, "boundary image")
    region.samples = flat
    k, (rows, cols) = c.dim, values.shape
    if k == 1:
        region.mark(flat)
    else:
        # the grid's counts from its shape: (n_sigma, n_tau), equal for k > 2
        n_tau = round(cols ** (1.0 / (k - 1)))
        for triangles in _face_triangles(k, rows if k == 2 else n_tau, n_tau):
            region.mark(flat, triangles)
    region.occ = _dilate_cells(region.occ, 1)
    return region


# ---------------------------------------------------------------------------
# Berezin probing
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KernelProbe:
    """Berezin values against degree-d normalized reproducing kernels."""

    group: int
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
    model: AlgebraModel,
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
        group=j,
        w=tuple(complex(v) for v in w),
        degrees=degrees,
        values=tuple(values),
        norm_devs=tuple(norm_devs),
        boundary_value=boundary,
    )


# ---------------------------------------------------------------------------
# Spectrum with hull, accumulation, inverse-closedness
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SpectralContext:
    """Memoized eigen and region data on top of a configured model."""

    model: AlgebraModel
    eig_tol: float = 1e-8
    hull_resolution: int = 512
    ess_samples: int = 4096

    def __post_init__(self):
        self._eigen: dict[tuple[int, int], EigenData] = {}
        self._samples: dict[int, np.ndarray] = {}
        self._ess: dict[int, PlanarRegion] = {}
        self._hulled: dict[int, PlanarRegion] = {}

    @property
    def cfg(self):
        return self.model.cfg

    def eigen(self, j: int, d: int) -> EigenData:
        key = (j, d)
        if key not in self._eigen:
            self._eigen[key] = block_eigenvalues(
                self.model.block(j, d), self.eig_tol, group=j, d=d
            )
        return self._eigen[key]

    def distinct(self, j: int, d: int) -> np.ndarray:
        return self.eigen(j, d).distinct

    def boundary_samples(self, j: int) -> np.ndarray:
        """The boundary image values of group j's symbol at the context's
        sample count, once per group; a group without a symbol images to 1.
        Every raster of the group is filled from them."""
        if j not in self._samples:
            sym = self.model.symbols.get(j)
            self._samples[j] = (np.ones((1, 1), dtype=complex) if sym is None
                                else boundary_samples(sym, self.ess_samples))
        return self._samples[j]

    def boundary_raster(self, j: int, resolution: int) -> PlanarRegion:
        """The boundary image of group j rasterized afresh on the grid it
        frames at ``resolution``, from the group's boundary samples."""
        sym = self.model.symbols.get(j)
        if sym is None:
            one = self.boundary_samples(j).ravel()
            region = PlanarRegion.framing(one, resolution, "boundary image")
            region.mark(one)
            region.occ = _dilate_cells(region.occ, 1)
            return region
        return essential_spectrum_estimate(sym, self.boundary_samples(j), resolution=resolution)

    def ess_region(self, j: int) -> PlanarRegion:
        """The boundary raster of group j at the context's resolution, once
        per group; every region of the group at that resolution lives on
        this grid."""
        if j not in self._ess:
            self._ess[j] = self.boundary_raster(j, self.hull_resolution)
        return self._ess[j]

    def hulled_ess_region(self, j: int) -> PlanarRegion:
        if j not in self._hulled:
            self._hulled[j] = polynomial_hull_2d(self.ess_region(j))
        return self._hulled[j]


@dataclass(frozen=True, eq=False)
class SpectrumWithHull:
    """A group's boundary raster, its hull and point spectrum on one grid;
    sp = points | raster and hull = points | hulled raster are joined when
    first read, so a caller of the hull alone builds no sp grid."""

    ess_region: PlanarRegion
    hulled_region: PlanarRegion
    point_region: PlanarRegion
    point_values: tuple[complex, ...]

    def _with_points(self, region: PlanarRegion) -> PlanarRegion:
        return PlanarRegion(region.x0, region.y0, region.cell, region.occ | self.point_region.occ,
                            f"({region.provenance})|(point spectrum)")

    @cached_property
    def sp_region(self) -> PlanarRegion:
        return self._with_points(self.ess_region)

    @cached_property
    def hull_region(self) -> PlanarRegion:
        return self._with_points(self.hulled_region)

    @cached_property
    def extra_cells(self) -> int:
        """Hull minus spectrum, in grid cells."""
        return int((self.hull_region.occ & ~self.sp_region.occ).sum())

    @property
    def polynomially_convex(self) -> bool:
        """The spectrum counts as polynomially convex when its hull adds at
        most 100 cells; the generator algebra is inverse-closed iff every
        group's is."""
        return self.extra_cells <= 100


def spectrum_with_hull(
    ctx: SpectralContext, j: int, Dmax: int, *, resolution: int | None = None
) -> SpectrumWithHull:
    """sp = point spectrum union ess-sp; hull = point spectrum union hull(ess-sp).

    The point spectrum is marked on the grid of the memoized boundary
    raster `ctx.ess_region(j)`, whose frame pads the sampled image by a
    tenth on every side, and joined to that raster and to its hull; an
    eigenvalue outside the frame raises instead of being clipped.  At any
    other resolution (the 2x drift pass of `hull`) the raster and its hull
    are built for this call only, and nothing keeps them.
    """
    res = resolution or ctx.hull_resolution
    memoized = res == ctx.hull_resolution
    ess = ctx.ess_region(j) if memoized else ctx.boundary_raster(j, res)
    pts = np.concatenate([ctx.distinct(j, d) for d in range(Dmax + 1)])
    at = np.stack([pts.real - ess.x0, pts.imag - ess.y0]) / ess.cell
    outside = pts[((at < 0) | (at >= res)).any(axis=0)]
    if outside.size:
        raise SpectraError(f"group {j}: block eigenvalue {complex(outside[0]):.6g} lies outside "
                           "the frame of the sampled boundary image; raise hull.ess_samples")
    marked = PlanarRegion(ess.x0, ess.y0, ess.cell, np.zeros_like(ess.occ), "point spectrum")
    marked.mark(pts)
    hulled = ctx.hulled_ess_region(j) if memoized else polynomial_hull_2d(ess)
    return SpectrumWithHull(ess, hulled, marked, tuple(complex(v) for v in pts))


def resolution_drift_cells(base: PlanarRegion, fine: PlanarRegion) -> int:
    """Base cells on which a region and its rasterization at twice the
    resolution disagree, beyond the one-cell dilation of either raster.

    Both grids share one frame, so each 2x2 block of fine cells is one base
    cell, and the fine region is reduced to the base grid by OR.  Each
    raster is dilated by one of its own cells, so a cell within one base
    cell of the other region is within tolerance; what is left is area
    that one resolution fills and the other does not.
    """
    res = base.resolution
    refined = PlanarRegion(base.x0, base.y0, base.cell / 2, fine.occ, "")
    if fine.resolution != 2 * res or not refined.same_grid(fine):
        raise SpectraError("the fine region must be the base grid refined twice")
    f = fine.occ
    coarse = f[0::2, 0::2] | f[1::2, 0::2] | f[0::2, 1::2] | f[1::2, 1::2]
    return int(
        (base.occ & ~_dilate_cells(coarse, 1)).sum()
        + (coarse & ~base._dilated(1)).sum()
    )


@dataclass(frozen=True)
class AccumulationReport:
    group: int
    candidates: tuple[complex, ...]
    violations: tuple[complex, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def accumulation_check(ctx: SpectralContext, j: int, Dmax: int) -> AccumulationReport:
    """Detected accumulation points of the point spectrum must sit inside
    (a 0.05-neighborhood of) the essential-spectrum estimate, which is
    rasterized only when there is a candidate to test.

    A point is an accumulation candidate when eigenvalues from at least 5
    distinct degrees fall within ten cluster tolerances.
    """
    pairs: list[tuple[int, complex]] = []
    radius = 0.0
    for d in range(Dmax + 1):
        e = ctx.eigen(j, d)
        radius = max(radius, 10.0 * e.cluster_tol)
        pairs.extend((d, complex(v)) for v in e.distinct)
    radius = max(radius, 1e-7)
    candidates: list[complex] = []
    for _, v in pairs:
        degrees_near = {d for d, u in pairs if abs(u - v) <= radius}
        if len(degrees_near) >= 5:
            if not any(abs(v - c) <= radius for c in candidates):
                candidates.append(v)
    ctx.boundary_samples(j)  # a non-finite sample raises, candidates or not
    violations: tuple[complex, ...] = ()
    if candidates:
        ess = ctx.ess_region(j)
        slack = max(1, int(math.ceil(0.05 / ess.cell)))
        violations = tuple(z for z in candidates if not ess.contains_point(z, slack_cells=slack))
    return AccumulationReport(group=j, candidates=tuple(candidates), violations=violations)
