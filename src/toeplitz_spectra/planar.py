"""Planar regions, polynomial hulls and the spectral-invariance decision,
which only `spectrum`, `hull` and `verify` load.

Every region is an empty grid from `PlanarRegion.framing` marked by
`PlanarRegion.mark`, which fills triangles (points and curves as degenerate
ones) in one vectorized pass, computing each edge's crossing once per
(triangle, grid line).  In the plane the polynomially convex hull of a
compact set is the set together with the bounded components of its
complement, which a union-find over the row runs of the complement inside
the box of occupied cells computes exactly at fixed resolution.  Both mark
the same cells, bit for bit, as a row-by-row fill and a whole-grid search.

`spectrum_with_hull` fills a group's boundary image once at twice the hull
resolution (`spectra.essential_spectrum_estimate`), reads the raster at the
resolution off that fill by 2x2 OR, marks the point spectrum and takes the
hull on both grids.  Fills are built afresh per call.  The point spectrum
lies in the numerical range, inside the convex hull of the true image, so
it fits in the frame of the sampled image when the sampling resolves the
image; `spectrum_with_hull` checks that it does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpectraError
from .spectra import essential_spectrum_estimate, sample_triangles


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
        """Whether an occupied cell lies within Manhattan distance
        ``slack_cells`` of z's cell (what as many 4-neighbour dilation steps
        reach), read from that window alone.  A point outside the frame
        takes the edge cell it faces (as in the fill), a non-finite one is outside."""
        if not np.isfinite(z):
            return False
        at = (np.array([z.real, z.imag]) - (self.x0, self.y0)) / self.cell
        ix, iy = np.clip(np.floor(at), 0, self.resolution - 1).astype(int).tolist()
        r0, c0 = max(iy - slack_cells, 0), max(ix - slack_cells, 0)
        rows, cols = np.nonzero(self.occ[r0 : iy + slack_cells + 1, c0 : ix + slack_cells + 1])
        return bool(np.any(abs(rows + (r0 - iy)) + abs(cols + (c0 - ix)) <= slack_cells))

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


def _dilate_cells(occ: np.ndarray) -> np.ndarray:
    """occ grown by one 4-neighbour step, nothing beyond the grid edge."""
    out = occ.copy()
    out[1:] |= occ[:-1]
    out[:-1] |= occ[1:]
    out[:, 1:] |= occ[:, :-1]
    out[:, :-1] |= occ[:, 1:]
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
    crossings of the band's two lines, each clamped to its edge's x-range,
    so it is monotone along the edge.  Each crossing is computed once per
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
            # an edge on a line contributes only its end points; taken from v, a
            # crossing of w's line can round past x[w], so it is clamped to the edge
            xc = line - y[v]
            xc *= slope
            xc += x[v]
            xc = np.where(crosses, xc, np.nan)
            np.minimum(xc, np.maximum(x[v], x[w]), out=xc)
            np.maximum(xc, np.minimum(x[v], x[w]), out=xc)
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
    np.cumsum(diff, axis=1, out=diff)
    np.logical_or(region.occ[top:bottom], diff[:, :res], out=region.occ[top:bottom])


# ---------------------------------------------------------------------------
# Spectrum with hull, accumulation, inverse-closedness
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectrumWithHull:
    """A group's spectrum sp = points | boundary raster and its hull
    hull = points | hulled raster on one grid, and hull_2x at twice it."""

    sp_region: PlanarRegion
    hull_region: PlanarRegion
    hull_2x: PlanarRegion
    point_values: tuple[complex, ...]
    extra_cells: int  # hull minus spectrum, in grid cells

    @property
    def polynomially_convex(self) -> bool:
        """The spectrum counts as polynomially convex when its hull adds at
        most 100 cells; the generator algebra is inverse-closed iff every
        group's is."""
        return self.extra_cells <= 100


def spectrum_with_hull(model: "AlgebraModel", j: int, Dmax: int) -> SpectrumWithHull:
    """sp = point spectrum union ess-sp; hull = point spectrum union hull(ess-sp),
    at the model's resolution and at twice it.

    Group j's boundary samples are filled once, at twice the resolution, on
    the frame that pads the sampled image by a tenth on every side.  A fine
    cell is exactly half a base cell and clamped crossings are monotone along
    their edges, so the fill at the resolution is the fine fill with each
    2x2 block of cells ORed into one.  An eigenvalue outside the frame
    raises instead of being clipped.  Each raster, the fill dilated by one
    cell, is hulled; the point spectrum is marked on it and on both hulls.
    """
    samples = model.boundary_samples(j)
    fine = PlanarRegion.framing(samples, 2 * model.hull_resolution, "boundary image")
    essential_spectrum_estimate(fine, samples, model.cfg.k[j - 1])
    pts = np.concatenate([model.eigen(j, d).distinct for d in range(Dmax + 1)])
    at = np.stack([pts.real - fine.x0, pts.imag - fine.y0]) / fine.cell
    outside = pts[((at < 0) | (at >= fine.resolution)).any(axis=0)]
    if outside.size:
        raise SpectraError(f"group {j}: block eigenvalue {complex(outside[0]):.6g} lies outside "
                           "the frame of the sampled boundary image; raise hull.ess_samples")
    ess = PlanarRegion(fine.x0, fine.y0, 2 * fine.cell, _coarsened(fine.occ), fine.provenance)
    fine.occ = _dilate_cells(fine.occ)
    hull_2x = polynomial_hull_2d(fine)
    del fine  # before the points' fill: of the fine grid only its hull is kept
    hull_2x.mark(pts)
    ess.occ = _dilate_cells(ess.occ)
    hull = polynomial_hull_2d(ess)
    ess.mark(pts)
    hull.occ |= ess.occ  # the hull holds the raster, so this adds the points
    for region in (ess, hull, hull_2x):
        region.provenance = f"({region.provenance})|(point spectrum)"
    return SpectrumWithHull(ess, hull, hull_2x, tuple(pts.tolist()), hull.count() - ess.count())


def _coarsened(occ: np.ndarray) -> np.ndarray:
    """occ with each 2x2 block of cells ORed into one cell."""
    return occ[0::2, 0::2] | occ[1::2, 0::2] | occ[0::2, 1::2] | occ[1::2, 1::2]


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
    coarse = _coarsened(fine.occ)
    return int(
        (base.occ & ~_dilate_cells(coarse)).sum()
        + (coarse & ~_dilate_cells(base.occ)).sum()
    )


@dataclass(frozen=True)
class AccumulationReport:
    candidates: tuple[complex, ...]
    violations: tuple[complex, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def accumulation_check(model: "AlgebraModel", j: int, Dmax: int) -> AccumulationReport:
    """Detected accumulation points of the point spectrum must sit inside
    (a 0.05-neighborhood of) the essential-spectrum estimate.

    A point is an accumulation candidate when eigenvalues from at least 5
    distinct degrees fall within ten cluster tolerances.
    """
    pairs: list[tuple[int, complex]] = []
    radius = 0.0
    for d in range(Dmax + 1):
        e = model.eigen(j, d)
        radius = max(radius, 10.0 * e.cluster_tol)
        pairs.extend((d, complex(v)) for v in e.distinct)
    radius = max(radius, 1e-7)
    candidates: list[complex] = []
    for _, v in pairs:
        degrees_near = {d for d, u in pairs if abs(u - v) <= radius}
        if len(degrees_near) >= 5:
            if not any(abs(v - c) <= radius for c in candidates):
                candidates.append(v)
    model.boundary_samples(j)  # a non-finite sample raises, candidates or not
    violations = _off_image(model, j, candidates) if candidates else ()
    return AccumulationReport(candidates=tuple(candidates), violations=violations)


def _off_image(model: "AlgebraModel", j: int, points) -> tuple[complex, ...]:
    """The points that the boundary raster of group j at the model's
    resolution (the fill of `essential_spectrum_estimate` dilated by one
    cell) refuses with a slack of 0.05 in `contains_point`, reading only the
    cells within that reach of each point.

    The samples' cells come first: each sample is a vertex of the fill, so a
    hit is final.  For a miss, the face triangles whose cell box (a cell
    wider, for the rounding of edge crossings) meets the window are filled.
    """
    samples = model.boundary_samples(j)
    flat = samples.ravel()
    image = PlanarRegion.framing(flat, model.hull_resolution, "boundary image")
    image.mark(flat)
    reach = max(1, int(math.ceil(0.05 / image.cell))) + 1  # and the raster's own dilation

    def cells(z):  # grid coordinates, clipped to the grid as the fill clips them
        xy = np.stack([z.real - image.x0, z.imag - image.y0])
        return np.clip(xy / image.cell, 0, image.resolution)

    grid, faces, off = cells(flat), None, []
    for z in points:
        if not image.contains_point(z, reach):
            if faces is None:  # each triangle with its box, once
                faces = [(t, grid[:, t].min(axis=2), grid[:, t].max(axis=2))
                         for t in sample_triangles(model.cfg.k[j - 1], samples)]
            lo, hi = cells(np.array([z])) - reach - 2, cells(np.array([z])) + reach + 2
            for triangles, low, high in faces:
                near = ((high >= lo) & (low <= hi)).all(axis=0)
                if near.any():
                    image.mark(flat, triangles[near])
            if not image.contains_point(z, reach):
                off.append(z)
    return tuple(off)
