import math
import timeit
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import ndimage
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import char_poly_coeffs, fill_triangles_rowwise
from toeplitz_spectra.assembly import AlgebraModel, assemble_block
from toeplitz_spectra.cli import COMMANDS, build_setup, validate_config
from toeplitz_spectra.errors import SpectraError
from toeplitz_spectra.lattice import PartitionConfig
from toeplitz_spectra import spectra
from toeplitz_spectra.spectra import (
    PlanarRegion,
    accumulation_check,
    berezin_sequence,
    block_eigenvalues,
    essential_spectrum_estimate,
    is_inverse_closed,
    polynomial_hull_2d,
    resolution_drift_cells,
    spectrum_with_hull,
    SpectralContext,
)
from toeplitz_spectra.symbols import (
    QuasiRadialSymbol,
    builtin_quasi_homogeneous,
    constant_symbol,
    expression_symbol,
    profile_symbol,
)


class TestBlockEigenvalues:
    def test_diagonal_block(self):
        mat = np.diag([1.0, 1.0, 2.0]).astype(complex)
        e = block_eigenvalues(mat)
        assert np.allclose(e.distinct, [1.0, 2.0])
        assert list(e.multiplicities) == [2, 1]
        assert int(e.multiplicities.sum()) == 3

    def test_strictly_triangular_block_exact_zeros(self):
        mat = np.zeros((6, 6), dtype=complex)
        for i in range(5):
            mat[i, i + 1] = 0.3 + 0.1 * i
        e = block_eigenvalues(mat)
        assert e.n_distinct == 1
        assert e.distinct[0] == 0.0  # structural, not merely small

    def test_random_block_vs_characteristic_polynomial(self):
        rng = np.random.default_rng(17)
        mat = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        mat[0, 1] = 0.7  # ensure both triangles populated
        mat[1, 0] = -0.2
        e = block_eigenvalues(mat)
        roots = np.sort_complex(np.roots(char_poly_coeffs(mat)))
        assert np.max(np.abs(np.sort_complex(e.values) - roots)) < 1e-8

    def test_direct_sum_is_multiset_union(self):
        sym = profile_symbol(1, 2, "s1*s1 + 0.125")
        blocks = [assemble_block(sym, 1, d) for d in range(4)]
        direct = np.zeros((sum(b.shape[0] for b in blocks),) * 2, dtype=complex)
        at = 0
        union = []
        for b in blocks:
            direct[at : at + b.shape[0], at : at + b.shape[0]] = b
            union.extend(np.diag(b))
            at += b.shape[0]
        got = np.sort_complex(block_eigenvalues(direct).values)
        assert np.max(np.abs(got - np.sort_complex(np.array(union)))) < 1e-10

    def test_cluster_warning(self):
        mat = np.diag([0.0, 1e-9, 1.0]).astype(complex)
        e = block_eigenvalues(mat, tol=1e-10)
        assert e.warnings


class TestPointSpectrum:
    def test_constant_symbol(self):
        cfg = PartitionConfig(k=(2,))
        model = AlgebraModel(cfg=cfg, symbols={1: constant_symbol(1, 2, 1.0)})
        flat = spectrum_with_hull(SpectralContext(model=model), 1, 4).point_values
        assert np.allclose(flat, 1.0)

    def test_profile_diagonal_moments(self):
        # b(s) profiles produce the Dirichlet moments on the diagonal.
        cfg = PartitionConfig(k=(2,))
        model = AlgebraModel(cfg=cfg, symbols={1: profile_symbol(1, 2, "s1^2")})
        ctx = SpectralContext(model=model)
        for d, e in ((d, ctx.eigen(1, d)) for d in range(4)):
            want = sorted((a1 + 1) / (d + 2) for a1 in range(d + 1))
            assert np.allclose(np.sort(e.values.real), want)

    def test_quasi_homogeneous_all_zero(self, nilpotent_ctx):
        assert all(
            e.n_distinct == 1 and e.distinct[0] == 0.0
            for e in (nilpotent_ctx.eigen(2, d) for d in range(6))
        )


class TestResolutionDrift:
    @staticmethod
    def _pair(res=32):
        base = PlanarRegion.empty((0.0, 1.0, 0.0, 1.0), res)
        fine = PlanarRegion.empty((0.0, 1.0, 0.0, 1.0), 2 * res)
        return base, fine

    def test_matching_segment_rasters_do_not_drift(self):
        # A segment and its one-cell dilation at each resolution: the
        # dilation rings differ in width, which is not drift.
        base, fine = self._pair()
        base.occ[9:12, 4:20] = True
        fine.occ[19:22, 9:39] = True
        assert resolution_drift_cells(base, fine) == 0

    def test_hull_filled_at_one_resolution_drifts(self):
        base, fine = self._pair()
        base.occ[4:20, 4:20] = True  # the base hull fills the square
        fine.occ[8:40, 8:40] = True
        fine.occ[10:38, 10:38] = False  # the fine one keeps only its rim
        # base cells 6..17 square lie more than one cell from the rim
        assert resolution_drift_cells(base, fine) == 12 * 12
        refined = np.repeat(np.repeat(base.occ, 2, axis=0), 2, axis=1)
        assert resolution_drift_cells(base, PlanarRegion(0.0, 0.0, base.cell / 2, refined, "")) == 0

    def test_grids_must_share_the_frame(self):
        base, fine = self._pair()
        with pytest.raises(SpectraError):
            resolution_drift_cells(base, base)
        shifted = PlanarRegion.empty((0.5, 1.5, 0.0, 1.0), 64)
        with pytest.raises(SpectraError):
            resolution_drift_cells(base, shifted)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPlanarRegion:
    def test_circle_hull_area(self):
        circle = np.exp(2j * np.pi * np.arange(1000) / 1000)
        region = PlanarRegion.from_curve(circle, 512)
        hull = polynomial_hull_2d(region)
        assert abs(hull.area() - math.pi) / math.pi < 0.01
        assert hull.count() > region.count()

    def test_finite_sets_are_polynomially_convex(self):
        pts = np.array([0.0, 1.0, 1j, -0.7 - 0.2j])
        region = PlanarRegion.from_points(pts, 256)
        hull = polynomial_hull_2d(region)
        assert np.array_equal(hull.occ, region.occ)

    def test_hull_idempotent_and_monotone(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        region = PlanarRegion.from_curve(pts, 256)
        hull = polynomial_hull_2d(region)
        assert np.all(hull.occ >= region.occ)
        assert np.array_equal(polynomial_hull_2d(hull).occ, hull.occ)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_hull_star_shaped_vs_double_resolution(self, seed):
        rng = np.random.default_rng(seed)
        angles = np.sort(rng.uniform(0, 2 * np.pi, 24))
        radii = rng.uniform(0.5, 1.0, 24)
        curve = radii * np.exp(1j * angles)
        # the curve is closed and star-shaped around 0; hull area must be
        # stable under doubling the grid (within a perimeter-cell band)
        r1 = PlanarRegion.from_curve(curve, 256)
        r2 = PlanarRegion.from_curve(curve, 512)
        a1 = polynomial_hull_2d(r1).area()
        a2 = polynomial_hull_2d(r2).area()
        assert abs(a1 - a2) < 14 * r1.cell  # perimeter < ~2pi + slack

    def test_rigid_motion_invariance_up_to_cells(self):
        rng = np.random.default_rng(9)
        pts = np.exp(2j * np.pi * np.arange(300) / 300)
        shift = 0.37 - 0.81j
        rot = np.exp(0.6j)
        a = polynomial_hull_2d(PlanarRegion.from_curve(pts, 256)).area()
        b = polynomial_hull_2d(PlanarRegion.from_curve(rot * pts + shift, 256)).area()
        assert abs(a - b) / a < 0.02

    def test_empty_rejected(self):
        with pytest.raises(SpectraError):
            PlanarRegion.from_points([], 64)

    def test_contains_point_dilates_once(self, monkeypatch):
        rng = np.random.default_rng(3)
        region = PlanarRegion.from_points(rng.standard_normal(30) + 1j * rng.standard_normal(30), 128)
        fresh = ndimage.binary_dilation(region.occ, iterations=2)
        calls = []
        dilate = spectra._dilate_cells

        def counting(occ, steps):
            calls.append(steps)
            return dilate(occ, steps)

        monkeypatch.setattr(spectra, "_dilate_cells", counting)
        zs = rng.uniform(-3, 3, 300) + 1j * rng.uniform(-3, 3, 300)
        got = [region.contains_point(z, slack_cells=2) for z in zs]
        assert calls == [2]
        iy, ix = region._indices(zs)
        assert got == [bool(v) for v in fresh[iy, ix]]
        # a reassigned grid is dilated afresh
        region.occ = np.zeros_like(region.occ)
        assert not any(region.contains_point(z, slack_cells=2) for z in zs[:5])
        assert calls == [2, 2]

    def test_run_length_rows_matches_loop(self):
        def loop_runs(occ):
            rows = []
            for row in occ:
                runs, start = [], None
                for i, v in enumerate(row):
                    if v and start is None:
                        start = i
                    elif not v and start is not None:
                        runs.append((start, i - start))
                        start = None
                if start is not None:
                    runs.append((start, len(row) - start))
                rows.append(runs)
            return rows

        rng = np.random.default_rng(11)
        for density in (0.1, 0.5, 0.9):
            occ = rng.random((40, 37)) < density
            occ[3] = True
            occ[7] = False
            region = PlanarRegion.empty((0.0, 1.0, 0.0, 1.0), 40)
            region.occ = occ
            got = region.run_length_rows()
            assert got == loop_runs(occ)
            assert all(type(v) is int for row in got for run in row for v in run)


def _separating_axis_oracle(region, tri):
    """Cells whose closed square meets a triangle, by the separating axis test.

    Closed and half-open cells differ only for triangles touching a grid
    line, which random vertices never do."""
    res = region.resolution
    gx = (tri.real - region.x0) / region.cell
    gy = (tri.imag - region.y0) / region.cell
    iy, ix = np.mgrid[0:res, 0:res]
    corners = np.stack(
        [np.stack([ix + a, iy + b], axis=-1) for a in (0, 1) for b in (0, 1)], axis=-2
    )
    occ = np.zeros((res, res), dtype=bool)
    for vx, vy in zip(gx, gy):
        verts = np.stack([vx, vy], axis=1)
        axes = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        for a in range(3):
            ex, ey = verts[(a + 1) % 3] - verts[a]
            axes.append(np.array([-ey, ex]))
        separated = np.zeros((res, res), dtype=bool)
        for axis in axes:
            t, q = verts @ axis, corners @ axis
            separated |= (q.max(axis=-1) < t.min()) | (q.min(axis=-1) > t.max())
        occ |= ~separated
    return occ


def _fill(region, tri, fill=spectra._fill_triangles):
    tri = np.asarray(tri, dtype=complex)
    fill(region, tri.ravel(), np.arange(tri.size).reshape(-1, 3))


def _edge_case_triangles(rng, res, n):
    """n triangles in grid units of a res x res grid, each drawn from the
    fill's edge cases: vertices on grid points, a horizontal or a vertical
    edge on a grid line or half-way between two, segments, points, vertices
    clipped at the grid box, and slivers spanning a third of the rows or
    more (100 or more at res 512)."""
    def half_step():
        return rng.integers(0, 2 * res + 1) / 2

    tris = []
    for kind in rng.integers(0, 7, n):
        if kind == 0:
            tri = rng.integers(0, res + 1, 3) + 1j * rng.integers(0, res + 1, 3)
        elif kind == 1:
            tri = rng.uniform(0, res, 3) + 1j * np.array([half_step()] * 2 + [rng.uniform(0, res)])
        elif kind == 2:
            tri = np.array([half_step()] * 2 + [rng.uniform(0, res)]) + 1j * rng.uniform(0, res, 3)
        elif kind == 3:
            a, b = rng.uniform(0, res, 2) + 1j * rng.uniform(0, res, 2)
            tri = np.array([a, b, b])
        elif kind == 4:
            tri = np.full(3, half_step() + 1j * rng.choice([half_step(), rng.uniform(0, res)]))
        elif kind == 5:
            tri = rng.uniform(-0.5 * res, 1.5 * res, 3) + 1j * rng.uniform(-0.5 * res, 1.5 * res, 3)
        else:
            height = rng.uniform(res / 3, res)
            y = rng.uniform(0, res - height)
            x = rng.uniform(0, res)
            tri = np.array([x + 1j * y, x + rng.uniform(-2, 2) + 1j * (y + height),
                            x + rng.uniform(-0.01, 0.01) + 1j * (y + rng.uniform(0, height))])
        tris.append(rng.permutation(tri))
    return np.array(tris)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRasterizer:
    def test_fill_matches_separating_axis_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            region = PlanarRegion.empty((0.0, 1.0, 0.0, 1.0), 32)
            n = int(rng.integers(1, 5))
            tri = rng.uniform(0.02, 0.98, (n, 3)) + 1j * rng.uniform(0.02, 0.98, (n, 3))
            _fill(region, tri)
            assert np.array_equal(region.occ, _separating_axis_oracle(region, tri))

    def test_segments_and_points_mark_their_cells(self):
        region = PlanarRegion.empty((0.0, 8.0, 0.0, 8.0), 8)
        # a point inside cell (row 2, column 5), one on a grid corner, a
        # horizontal segment inside row 6, a vertical one on the line x = 1
        # and one along the top edge of the grid box
        tri = np.array([
            [5.5 + 2.5j] * 3,
            [3.0 + 4.0j] * 3,
            [0.25 + 6.5j, 2.75 + 6.5j, 2.75 + 6.5j],
            [1.0 + 0.5j, 1.0 + 1.5j, 1.0 + 0.5j],
            [6.5 + 8.0j, 7.5 + 8.0j, 7.5 + 8.0j],
        ])
        _fill(region, tri)
        want = np.zeros((8, 8), dtype=bool)
        want[2, 5] = True
        want[4, 3] = True  # a cell owns its lower and left edges
        want[6, 0:3] = True
        want[0:2, 1] = True
        want[7, 6:8] = True  # clipped into the grid, as points are
        assert np.array_equal(region.occ, want)
        # points land in the cells `_indices` gives them
        iy, ix = region._indices(tri[:2, 0])
        assert region.occ[iy, ix].all()

    def test_span_starting_left_of_the_grid_keeps_its_row(self):
        # the edge from 0.625 + 7.9j meets y = 3 at its end 3j, computed
        # as x = -1.1e-16: its span starts in column 0, not in the sentinel
        # column of the row below
        region = PlanarRegion.empty((0.0, 8.0, 0.0, 8.0), 8)
        _fill(region, [[0.625 + 7.9j, 3j, 3 + 3.5j]])
        assert region.occ[3].tolist() == [True] * 4 + [False] * 4
        assert not region.occ[:3].any()

    @pytest.mark.parametrize("res, sets", [(16, 300), (512, 12)])
    def test_fill_matches_rowwise_reference(self, res, sets):
        rng = np.random.default_rng(res)
        for _ in range(sets):
            tri = _edge_case_triangles(rng, res, int(rng.integers(1, 40)))
            got, want = (PlanarRegion.empty((0.0, res, 0.0, res), res) for _ in range(2))
            _fill(got, tri)
            _fill(want, tri, fill_triangles_rowwise)
            assert np.array_equal(got.occ, want.occ)

    @pytest.mark.parametrize("samples", [16, 4096, 10**5])
    def test_boundary_sample_count_is_the_sampled_size(self, samples):
        for dim, text in [(1, "1 + 0*s1"), (2, "s1*s2*t1*conj(t2)"), (3, "s1*s2*s3"), (4, "s4^2")]:
            c = expression_symbol(1, dim, text, boundary_continuous=True)
            want = spectra.boundary_image_values(c, samples).size
            assert spectra.boundary_sample_count(dim, samples) == want, dim

    @pytest.mark.parametrize("res", [512, 1024])
    @pytest.mark.parametrize("dim, text", [
        (2, "s1^2*t1*conj(t2) + 0.4*s2^2 - 0.3*s1*s2"),
        (3, "s1*s2*t1*conj(t2) + 0.5*s3^2*t2*conj(t3) + 0.2*s1^2"),
    ], ids=["k2", "k3"])
    def test_boundary_faces_match_rowwise_reference(self, dim, text, res):
        c = expression_symbol(1, dim, text, boundary_continuous=True)
        flat = spectra.boundary_image_values(c, 4096).ravel()
        x0, y0, cell = PlanarRegion._frame(flat, res)
        bbox = (x0, x0 + res * cell, y0, y0 + res * cell)
        got, want = (PlanarRegion.empty(bbox, res) for _ in range(2))
        for triangles in spectra._face_triangles(dim, *spectra._boundary_grid_counts(dim, 4096)):
            spectra._fill_triangles(got, flat, triangles)
            fill_triangles_rowwise(want, flat, triangles)
        assert got.count() > res
        assert np.array_equal(got.occ, want.occ)

    def test_k2_faces_wrap_in_tau(self):
        (tri,) = spectra._face_triangles(2, 2, 3)  # flat index = 3 * sigma + tau
        want = [[t, 3 + t, (t + 1) % 3] for t in range(3)]
        want += [[3 + t, 3 + (t + 1) % 3, (t + 1) % 3] for t in range(3)]
        assert sorted(tri.tolist()) == sorted(want)

    def test_k3_faces_cover_the_sample(self):
        n = 4
        batches = list(spectra._face_triangles(3, n, n))
        assert len(batches) == 6  # pairs of the four parameter axes
        n_points = (n * (n + 1) // 2) * n * n
        used = np.unique(np.concatenate([b.ravel() for b in batches]))
        assert used.tolist() == list(range(n_points))

    def test_k1_image_marks_one_cell(self):
        region = essential_spectrum_estimate(constant_symbol(1, 1, 0.3 - 0.2j), resolution=64)
        iy, ix = region._indices(np.array([0.3 - 0.2j]))
        dot = np.zeros_like(region.occ)
        dot[iy, ix] = True
        assert np.array_equal(region.occ, ndimage.binary_dilation(dot))

    def test_constant_symbol_marks_its_cells(self):
        value = 0.7 + 0.1j
        region = essential_spectrum_estimate(constant_symbol(1, 2, value), 256, resolution=64)
        dot = PlanarRegion.empty(
            (region.x0, region.x0 + 64 * region.cell, region.y0, region.y0 + 64 * region.cell), 64
        )
        _fill(dot, np.full((1, 3), value))
        assert 1 <= dot.count() <= 4
        assert np.array_equal(region.occ, ndimage.binary_dilation(dot.occ))

    def test_real_segment_image_is_its_cells(self):
        # the boundary image of s1^2 is [0, 1]: filled faces add nothing to it
        region = essential_spectrum_estimate(profile_symbol(1, 2, "s1^2"), 1024, resolution=256)
        line = PlanarRegion.empty(
            (region.x0, region.x0 + 256 * region.cell, region.y0, region.y0 + 256 * region.cell), 256
        )
        _fill(line, [[0.0, 1.0, 1.0]])
        assert np.array_equal(region.occ, ndimage.binary_dilation(line.occ))

    @pytest.mark.parametrize("p", [(1, -1), (2, -2), (1, -1, 0)])
    def test_quasi_homogeneous_disk_is_polynomially_convex(self, p):
        # |z1 conj(z2)| / |z|^2 and its k = 3 analogue fill a closed disk
        region = essential_spectrum_estimate(builtin_quasi_homogeneous(1, p))
        assert polynomial_hull_2d(region).minus_count(region) == 0


class TestEssentialSpectrum:
    def test_constant(self):
        region = essential_spectrum_estimate(constant_symbol(1, 2, 1.0), 256)
        assert region.contains_point(1.0 + 0j)
        assert region.count() < 60  # a dot, not a blob

    def test_profile_segment(self):
        # boundary image of s1^2 is the segment [0, 1]
        region = essential_spectrum_estimate(profile_symbol(1, 2, "s1^2"), 1024)
        assert region.contains_point(0.0, 1)
        assert region.contains_point(0.5, 1)
        assert region.contains_point(1.0, 1)
        assert not region.contains_point(0.5 + 0.4j)
        hull = polynomial_hull_2d(region)
        assert hull.minus_count(region) == 0  # segments are polynomially convex

    def test_circle_image(self):
        sym = expression_symbol(1, 2, "exp(2*pi*i*s1^2)", boundary_continuous=True)
        region = essential_spectrum_estimate(sym, 4096, resolution=512)
        for angle in np.linspace(0, 2 * np.pi, 17):
            assert region.contains_point(np.exp(1j * angle), 2)
        assert not region.contains_point(0.0, 2)

    def test_flag_required(self):
        sym = expression_symbol(1, 2, "s1^2", boundary_continuous=False)
        with pytest.raises(SpectraError):
            essential_spectrum_estimate(sym, 64)


def _probe_model(c) -> AlgebraModel:
    return AlgebraModel(cfg=PartitionConfig(k=(c.dim,)), symbols={1: c})


class TestBerezin:
    def test_constant_sequence(self):
        c = constant_symbol(1, 2, 1.0)
        probe = berezin_sequence(_probe_model(c), 1, (0.3, 0.4), [1, 5, 20])
        assert np.allclose(probe.values, 1.0)
        assert max(probe.norm_devs) < 1e-12

    def test_moduli_squared_limit(self):
        # c(z) = |z1|^2 as radial factor r^2 times angular profile s1^2.
        c = profile_symbol(1, 2, "s1^2")
        radial = QuasiRadialSymbol.from_expression(1, "r1^2")
        probe = berezin_sequence(
            _probe_model(c), 1, (0.3, 0.4), [50, 100, 200], radial_profile=radial
        )
        assert probe.boundary_value == pytest.approx(0.36)
        errs = [abs(v - 0.36) for v in probe.values]
        assert errs[1] < 0.02
        assert errs[2] < errs[0]
        # closed form (d x + 1) / (d + 3) for this probe
        for d, v in zip(probe.degrees, probe.values):
            assert v.real == pytest.approx((d * 0.36 + 1) / (d + 3), rel=1e-10)

    def test_degenerate_base_point(self):
        c = constant_symbol(1, 2, 1.0)
        with pytest.raises(SpectraError):
            berezin_sequence(_probe_model(c), 1, (0.0, 0.0), [3])
        with pytest.raises(SpectraError):
            berezin_sequence(_probe_model(c), 1, (1.0, 0.3), [3])

    def test_probes_the_model_symbol_of_the_group(self):
        model = AlgebraModel(
            cfg=PartitionConfig(k=(2, 2)), symbols={2: constant_symbol(2, 2, 3.0)}
        )
        probe = berezin_sequence(model, 2, (0.3, 0.4), [2])
        assert probe.boundary_value == pytest.approx(3.0)
        with pytest.raises(SpectraError, match="group 1 has no symbol"):
            berezin_sequence(model, 1, (0.3, 0.4), [2])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSpectrumHull:
    def test_trivial(self):
        cfg = PartitionConfig(k=(2,))
        model = AlgebraModel(cfg=cfg, symbols={1: constant_symbol(1, 2, 1.0)})
        ctx = SpectralContext(model=model, hull_resolution=256)
        swh = spectrum_with_hull(ctx, 1, 3)
        assert swh.extra_cells == 0
        assert swh.sp_region.contains_point(1.0)

    def test_circle_symbol_fills(self):
        cfg = PartitionConfig(k=(2,))
        sym = expression_symbol(1, 2, "exp(2*pi*i*s1^2)", boundary_continuous=True)
        model = AlgebraModel(cfg=cfg, symbols={1: sym}, block_order=32)
        ctx = SpectralContext(model=model, hull_resolution=512)
        swh = spectrum_with_hull(ctx, 1, 4)
        assert swh.extra_cells > 100
        assert swh.hull_region.contains_point(0.0)

    def test_real_symbol_hull_equals_spectrum(self, diagonal_ctx):
        swh = spectrum_with_hull(diagonal_ctx, 2, 5)
        assert swh.extra_cells == 0


class TestAccumulation:
    def test_profile_accumulates_in_segment(self, diagonal_ctx):
        report = accumulation_check(diagonal_ctx, 2, 10)
        assert report.candidates  # the moments cluster inside [0,1]
        assert report.ok

    def test_constant_symbol_trivial(self):
        cfg = PartitionConfig(k=(2,))
        model = AlgebraModel(cfg=cfg, symbols={1: constant_symbol(1, 2, 1.0)})
        ctx = SpectralContext(model=model, hull_resolution=256)
        report = accumulation_check(ctx, 1, 8)
        assert report.ok
        for z in report.candidates:
            assert abs(z - 1.0) < 1e-9

    def test_nilpotent_zero_in_essential(self, nilpotent_ctx):
        report = accumulation_check(nilpotent_ctx, 2, 8)
        assert report.ok
        assert any(abs(z) < 1e-9 for z in report.candidates)


class TestInverseClosed:
    def test_real_family_true(self, diagonal_ctx):
        report = is_inverse_closed(diagonal_ctx, 5)
        assert report.inverse_closed

    def test_circle_family_false(self):
        cfg = PartitionConfig(k=(1, 2))
        sym = expression_symbol(2, 2, "exp(2*pi*i*s1^2)", boundary_continuous=True)
        model = AlgebraModel(cfg=cfg, symbols={2: sym}, block_order=32)
        ctx = SpectralContext(model=model, hull_resolution=512)
        report = is_inverse_closed(ctx, 4)
        assert not report.inverse_closed
        assert report.per_group[2]["extra_cells"] > 100
        assert report.per_group[1]["polynomially_convex"]

    def test_constants_true(self):
        cfg = PartitionConfig(k=(1, 1))
        model = AlgebraModel(
            cfg=cfg,
            symbols={1: constant_symbol(1, 1, 2.0), 2: constant_symbol(2, 1, 1j)},
        )
        ctx = SpectralContext(model=model, hull_resolution=256)
        assert is_inverse_closed(ctx, 4).inverse_closed


def _label_hull(occ):
    """The polynomial hull by ndimage: occ plus every 4-connected component
    of the complement that does not reach the grid border."""
    padded = np.pad(~occ, 1, constant_values=True)
    labels, _ = ndimage.label(padded, structure=ndimage.generate_binary_structure(2, 1))
    return occ | (labels != labels[0, 0])[1:-1, 1:-1]


def _spiral(n, closed):
    """Square spiral walls on every other ring: the free corridor winds
    from the left border to the centre, about n^2 / 2 cells long; closed,
    its entrance is walled off and the whole corridor is a hole."""
    occ = np.zeros((n, n), dtype=bool)
    top, left, bottom, right = 1, 1, n - 2, n - 2
    while bottom - top >= 2 and right - left >= 2:
        occ[top, left : right + 1] = True
        occ[top : bottom + 1, right] = True
        occ[bottom, left : right + 1] = True
        occ[top + 2 : bottom + 1, left] = True
        top, left, bottom, right = top + 2, left + 2, bottom - 2, right - 2
    occ[2, 0] = closed
    return occ


def _hull_occ(occ):
    region = PlanarRegion.empty((0.0, 1.0, 0.0, 1.0), occ.shape[0])
    region.occ = occ
    return polynomial_hull_2d(region).occ


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMorphology:
    def test_dilation_matches_ndimage(self):
        rng = np.random.default_rng(4)
        for rows, cols in [(1, 1), (1, 7), (9, 1), (13, 8), (32, 32)]:
            for density in (0.0, 0.02, 0.3):
                occ = rng.random((rows, cols)) < density
                for steps in (1, 2, 7, rows + cols - 3, rows + cols - 2, rows + cols, 10**6):
                    if steps < 1:
                        continue
                    want = ndimage.binary_dilation(occ, iterations=steps)
                    assert np.array_equal(spectra._dilate_cells(occ, steps), want), (rows, cols, steps)
        occ = np.zeros((512, 512), dtype=bool)
        occ[300, 17] = True
        for steps in (1, 1024, 10**6):
            want = ndimage.binary_dilation(occ, iterations=steps)
            assert np.array_equal(spectra._dilate_cells(occ, steps), want)

    def test_hull_matches_label_on_random_grids(self):
        rng = np.random.default_rng(6)
        grids = []
        for _ in range(200):
            rows = int(rng.integers(1, 40))
            grids.append(rng.random((rows, rows)) < rng.uniform(0.0, 0.9))
        # sparse grids, whose occupied box is a small part of the grid
        empty = np.zeros((24, 24), dtype=bool)
        one, corner, ring = empty.copy(), empty.copy(), empty.copy()
        one[7, 11] = True
        corner[19:, 18:] = rng.random((5, 6)) < 0.5
        corner[19:22, 21:24] = [[1, 1, 1], [1, 0, 1], [1, 1, 1]]
        ring[0:6, 5:12] = True
        ring[1:5, 6:11] = False
        grids += [empty, one, corner] + [np.rot90(ring, quarter) for quarter in range(4)]
        for occ in grids:
            assert np.array_equal(_hull_occ(occ), _label_hull(occ))

    def test_hull_fills_nested_rings(self):
        yy, xx = np.mgrid[:256, :256]
        r = np.hypot(yy - 127.5, xx - 127.5)
        occ = np.zeros((256, 256), dtype=bool)
        for radius in range(6, 120, 9):  # the outermost ring is 114 <= r < 116
            occ |= (r >= radius) & (r < radius + 2)
        hull = _hull_occ(occ)
        assert np.array_equal(hull, _label_hull(occ))
        assert np.array_equal(hull, r < 116)

    def test_hole_search_memory_is_bounded(self):
        # A circle one cell wide across a 1024^2 grid, the size of hull's 2x
        # drift pass.  Differencing the int8 free grid against int64 zeros
        # made two int64 copies of it, a traced peak of about 15 MB.
        yy, xx = np.mgrid[:1024, :1024]
        r = np.hypot(yy - 511.5, xx - 511.5)
        occ = (r >= 460) & (r < 462)
        tracemalloc.start()
        try:
            holes = spectra._bounded_holes(occ)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(holes, r < 460)
        assert peak <= 4 << 20

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_hull_of_a_spiral_corridor(self, closed):
        occ = _spiral(512, closed)
        hull = _hull_occ(occ)
        assert np.array_equal(hull, _label_hull(occ))
        assert hull[2:-2, 2:-2].all() == closed
        seconds = min(timeit.repeat(lambda: _hull_occ(occ), number=1, repeat=3))
        assert seconds < 0.1


README_CONFIG = {
    "partition": {"k": [1, 2], "lambda": 0.0},
    "degree_cap": 6,
    "quasi_radial": {"kind": "expression", "text": "1 - r1^2*r2^2"},
    "symbols": [{"group": 2, "kind": "quasi_homogeneous", "p": [1, -1]}],
    "radical": {"group": 2, "level": 1, "gamma": {"kind": "geometric_decay", "rate": 0.5}},
}
# The benchmark's expr config at seed 1.
EXPR_CONFIG = {
    "partition": {"k": [2, 3], "lambda": 0.5},
    "degree_cap": 6,
    "quasi_radial": {"kind": "expression", "text": "1 - 0.546*r1^2*r2^2"},
    "symbols": [
        {"group": 1, "kind": "expression", "boundary_continuous": True,
         "text": "0.421*s1^2 + 0.969*s1*s2*(t1*conj(t2)+t2*conj(t1)) + 0.832*s2^2"},
        {"group": 2, "kind": "profile", "text": "s1^2 + 0.995*s2*s3 + 0.329*s3^2"},
    ],
    "hull": {"resolution": 256, "ess_samples": 1024},
    "radical": {"group": 1, "level": 1, "gamma": {"kind": "geometric_decay", "rate": 0.518}},
}


def _setup(raw, tmp_path):
    return build_setup(validate_config(dict(raw)), out=str(tmp_path))


def _assert_point_spectrum_in_frame(ctx, D):
    for j in range(1, ctx.cfg.m + 1):
        region = ctx.ess_region(j)
        side = region.resolution * region.cell
        pts = np.concatenate([ctx.distinct(j, d) for d in range(D + 1)])
        assert np.all((pts.real >= region.x0) & (pts.real < region.x0 + side)), j
        assert np.all((pts.imag >= region.y0) & (pts.imag < region.y0 + side)), j


class TestOneGrid:
    """Every region of a group at one resolution lives on the grid framed
    by the group's boundary image."""

    @pytest.mark.parametrize("raw", [README_CONFIG, EXPR_CONFIG], ids=["readme", "expr"])
    def test_point_spectrum_lies_in_the_boundary_frame(self, raw, tmp_path):
        setup = _setup(raw, tmp_path)
        _assert_point_spectrum_in_frame(setup.ctx, raw["degree_cap"])

    @given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_point_spectrum_of_compiled_expressions_lies_in_the_frame(self, coeffs):
        a, b, c, e = coeffs
        text = (f"{a}*s1^2 + {b}*s1*s2*t1*conj(t2) + {c}*s1*s2*t2*conj(t1) "
                f"+ {e}*s2^2*(t1*conj(t2))^2")
        sym = expression_symbol(1, 2, text, boundary_continuous=True)
        assert sym.modes is not None
        model = AlgebraModel(cfg=PartitionConfig(k=(2,)), symbols={1: sym})
        _assert_point_spectrum_in_frame(
            SpectralContext(model=model, hull_resolution=64, ess_samples=256), 6
        )

    @pytest.mark.parametrize("raw", [README_CONFIG, EXPR_CONFIG], ids=["readme", "expr"])
    def test_boundary_image_is_rasterized_and_hulled_once(self, raw, tmp_path, monkeypatch):
        rasters, hulls = Counter(), Counter()
        estimate, hull = spectra.essential_spectrum_estimate, spectra.polynomial_hull_2d

        def counted_estimate(c, samples=4096, *, resolution=512):
            rasters[(c.group, resolution)] += 1
            return estimate(c, samples, resolution=resolution)

        def counted_hull(region):
            hulls[(region.x0, region.y0, region.resolution)] += 1
            return hull(region)

        monkeypatch.setattr(spectra, "essential_spectrum_estimate", counted_estimate)
        monkeypatch.setattr(spectra, "polynomial_hull_2d", counted_hull)
        setup = _setup(raw, tmp_path)
        for command in ("spectrum", "hull", "gelfand", "radical"):
            COMMANDS[command](setup)
        res = setup.ctx.hull_resolution
        groups = [spec["group"] for spec in raw["symbols"]]
        assert rasters == {(j, r): 1 for j in groups for r in (res, 2 * res)}
        assert len(hulls) == 2 * setup.cfg.m and set(hulls.values()) == {1}

    def test_point_spectrum_outside_a_coarse_frame_raises(self):
        # For k = 3 the default sampling has 8 levels of s1^2, so it misses
        # the peak at s1^2 = 1/2 and frames values up to about 0.006, while
        # the degree-0 block (the mean of c over the sphere) is about 0.056.
        sym = expression_symbol(1, 3, "exp(-1000*(s1^2-0.5)^2)", boundary_continuous=True)
        model = AlgebraModel(cfg=PartitionConfig(k=(3,)), symbols={1: sym})
        ctx = SpectralContext(model=model, hull_resolution=64)
        with pytest.raises(SpectraError, match="outside the frame.*ess_samples"):
            spectrum_with_hull(ctx, 1, 1)
        # 9 levels per axis sample s1^2 = 1/2, and the frame holds the spectrum.
        fine = SpectralContext(model=model, hull_resolution=64, ess_samples=9**4)
        swh = spectrum_with_hull(fine, 1, 1)
        assert swh.sp_region.count() >= fine.ess_region(1).count()
