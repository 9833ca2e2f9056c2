import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divlab as dl
from divlab.lattice import site_sq_distances, smoothstep


class TestGrid:
    def test_unknown_counts(self):
        assert dl.make_grid(1, 1, 8).n_nodes == 7
        assert dl.make_grid(2, 2, 4).n_nodes == 49
        assert dl.make_grid(1, 1, 8, bc="neumann").n_nodes == 9

    def test_spacing_consistency(self):
        g = dl.make_grid(2, 3, 16)
        assert g.cells_per_side == 48
        assert g.h * g.n_per_side == 1.0

    @pytest.mark.parametrize("bad", [
        dict(d=4, L=1, n_per_side=8),
        dict(d=0, L=1, n_per_side=8),
        dict(d=1, L=0, n_per_side=8),
        dict(d=1, L=-2, n_per_side=8),
        dict(d=1, L=1, n_per_side=1),
        dict(d=1, L=1, n_per_side=8, bc="periodic"),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            dl.make_grid(**bad)

    def test_embed_restrict_roundtrip(self):
        for bc in ("dirichlet", "neumann"):
            g = dl.make_grid(2, 1, 5, bc=bc)
            u = np.arange(g.n_nodes, dtype=float)
            assert np.array_equal(g.restrict(g.embed(u)), u)

    def test_embed_zero_boundary(self):
        g = dl.make_grid(1, 1, 6)
        full = g.embed(np.ones(g.n_nodes))
        assert full[0] == 0.0 and full[-1] == 0.0


class TestEquidistributedSeq:
    def test_midpoints_1d(self):
        g = dl.make_grid(1, 2, 8)
        seq = dl.equidistributed_sequence(g, 1.0, 0.25)
        assert np.allclose(sorted(seq.centers[:, 0]), [-0.5, 0.5])

    def test_delta_at_half_period_rejected(self):
        g = dl.make_grid(1, 2, 8)
        with pytest.raises(ValueError):
            dl.equidistributed_sequence(g, 1.0, 0.5)

    def test_explicit_violation_reports_offender(self):
        g = dl.make_grid(1, 2, 8)
        with pytest.raises(ValueError, match="0.9"):
            dl.equidistributed_sequence(g, 1.0, 0.25, mode="explicit",
                                        centers=[[-0.5], [0.9]])

    def test_explicit_valid(self):
        g = dl.make_grid(1, 2, 8)
        seq = dl.equidistributed_sequence(g, 1.0, 0.25, mode="explicit",
                                          centers=[[-0.3], [0.6]])
        assert seq.centers.shape == (2, 1)

    def test_random_mode_contained_and_seeded(self):
        g = dl.make_grid(2, 2, 4)
        a = dl.equidistributed_sequence(g, 1.0, 0.2, mode="random", seed=9)
        b = dl.equidistributed_sequence(g, 1.0, 0.2, mode="random", seed=9)
        assert np.array_equal(a.centers, b.centers)
        mids = -1.0 + 1.0 * (np.indices((2, 2)).reshape(2, -1).T + 0.5)
        assert np.all(np.abs(a.centers - mids) <= 0.5 - 0.2 + 1e-12)

    def test_period_must_divide_side(self):
        g = dl.make_grid(1, 3, 8)
        with pytest.raises(ValueError):
            dl.equidistributed_sequence(g, 2.0, 0.3)


def _measure(mask):
    """h^d times the number of member nodes of the full lattice."""
    return mask.grid.h**mask.grid.d * np.count_nonzero(mask.full_node_mask)


class TestBallMask:
    def test_two_interval_measure(self):
        g = dl.make_grid(1, 2, 64)
        seq = dl.equidistributed_sequence(g, 1.0, 0.25)
        assert abs(_measure(dl.ball_mask(g, seq)) - 1.0) <= 4 * g.h

    def test_tiny_radius_measure(self):
        g = dl.make_grid(1, 2, 16)
        seq = dl.equidistributed_sequence(g, 1.0, g.h / 2)
        assert _measure(dl.ball_mask(g, seq)) <= 2 * g.h + 1e-15

    def test_disc_area(self):
        # one disc of radius 1/4: area pi/16, node-count error O(h * perimeter)
        exact = math.pi * 0.25**2
        errs = []
        for n in (32, 64, 128):
            g = dl.make_grid(2, 1, n)
            seq = dl.equidistributed_sequence(g, 1.0, 0.25)
            errs.append(abs(_measure(dl.ball_mask(g, seq)) - exact))
            assert errs[-1] <= 2.0 * (2 * math.pi * 0.25) * g.h
        assert errs[-1] <= errs[0]

    def test_radius_override_monotone(self):
        g = dl.make_grid(1, 2, 32)
        seq = dl.equidistributed_sequence(g, 1.0, 0.3)
        small = dl.ball_mask(g, seq, radius=0.15)
        assert _measure(small) <= _measure(dl.ball_mask(g, seq))
        with pytest.raises(ValueError):
            dl.ball_mask(g, seq, radius=0.4)


def _all_pairs_d2(pts, centers):
    """Oracle: squared distance from every point to every site."""
    return ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _cell_local_seq(d, L, G, centres):
    g = dl.make_grid(d, L, 4)
    delta = 0.3 * G
    rng = np.random.default_rng(100 * d + 10 * L + int(G))
    if centres == "random":
        return g, dl.equidistributed_sequence(g, G, delta, mode="random", seed=rng)
    mid = dl.equidistributed_sequence(g, G, delta).centers
    corner = mid + (G / 2 - delta) * rng.choice([-1.0, 1.0], size=mid.shape)
    return g, dl.equidistributed_sequence(g, G, delta, mode="explicit", centers=corner)


class TestSiteSqDistances:
    @pytest.mark.parametrize("centres", ["random", "margin"])
    @pytest.mark.parametrize("L, G", [(2, 1.0), (3, 1.0), (4, 2.0), (2, 2.0)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_lookup_and_ball_masks_match_all_pairs(self, d, L, G, centres):
        g, seq = _cell_local_seq(d, L, G, centres)
        rng = np.random.default_rng(d)
        outside = rng.uniform(-L / 2 - 1.5 * G, L / 2 + 1.5 * G, size=(40, d))
        outside[:, 0] = np.where(outside[:, 0] < 0, -L / 2 - 0.3, L / 2 + 0.3)
        point_sets = [g.full_node_points, g.cell_centers, outside] \
            + [g.face_points(k) for k in range(d)]
        for reach in (seq.delta, 2 * seq.delta, seq.delta + 0.45 * G, 1.3 * G):
            m = math.ceil(reach / G)
            for pts in point_sets:
                d2, idx = site_sq_distances(seq, pts, reach)
                assert d2.shape == idx.shape == (len(pts), (2 * m + 1) ** d)
                oracle = _all_pairs_d2(pts, seq.centers)
                rows = np.broadcast_to(np.arange(len(pts))[:, None], idx.shape)
                listed = np.isfinite(d2)
                hits = np.zeros(oracle.shape, dtype=int)
                np.add.at(hits, (rows[listed], idx[listed]), 1)
                assert hits.max(initial=0) <= 1
                assert np.array_equal(d2[listed], oracle[rows[listed], idx[listed]])
                near = oracle <= reach * reach
                assert np.all(hits[near] == 1)
        for r in (seq.delta, seq.delta / 2):
            mask = dl.ball_mask(g, seq, radius=r)

            def in_balls(pts):
                return _all_pairs_d2(pts, seq.centers).min(axis=1) < r * r

            assert np.array_equal(mask.full_node_mask.ravel(), in_balls(g.full_node_points))
            assert np.array_equal(mask.node_mask, in_balls(g.node_points))
            for k in range(d):
                assert np.array_equal(mask.face_mask(k).ravel(), in_balls(g.face_points(k)))

    @pytest.mark.parametrize("L, G", [(2, 1.0), (3, 1.0), (4, 2.0)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_entry_is_the_distance_to_its_site(self, d, L, G):
        # random points, half of them moved onto a G-cell face along one axis; each
        # entry against the site of its cell, offsets row-major, summed in axis order
        g, seq = _cell_local_seq(d, L, G, "random")
        rng = np.random.default_rng(7 * d + L)
        pts = rng.uniform(-L / 2 - G, L / 2 + G, size=(30, d))
        faces = rng.integers(0, round(L / G) + 1, size=15)
        pts[:15, 0] = -L / 2 + G * faces
        pts[15:23, d - 1] = -L / 2 + G * faces[:8]
        k = round(L / G)
        for reach in (seq.delta, 1.3 * G):
            m = math.ceil(reach / G)
            d2, idx = site_sq_distances(seq, pts, reach)
            for i, p in enumerate(pts):
                own = [math.floor((x + L / 2) / G) for x in p]
                for j, off in enumerate(np.ndindex(*(2 * m + 1,) * d)):
                    cell = [c + o - m for c, o in zip(own, off)]
                    site = 0
                    for c in cell:
                        site = site * k + min(max(c, 0), k - 1)
                    dist = 0.0
                    for x, z in zip(p, seq.centers[site]):
                        dist += (x - z) ** 2
                    assert idx[i, j] == site
                    assert d2[i, j] == (dist if all(0 <= c < k for c in cell) else math.inf)


class TestCutoff:
    def test_plateau_and_support(self):
        g = dl.make_grid(2, 2, 16)
        phi = dl.cutoff(g, [0.1, 0.0], 0.2)
        assert phi([[0.1, 0.0]])[0] == 1.0
        assert phi([[0.1 + 0.4, 0.0]])[0] == 0.0
        assert phi([[0.1, 0.15]])[0] == 1.0

    def test_indicator_sandwich_nodewise(self):
        g = dl.make_grid(2, 2, 16)
        x0, r = np.array([0.1, -0.2]), 0.2
        phi = dl.cutoff(g, x0, r)
        pts = g.full_node_points
        vals = phi(pts)
        rho = np.linalg.norm(pts - x0, axis=1)
        assert np.all(vals[rho < r] == 1.0)
        assert np.all(vals[rho >= 2 * r] == 0.0)
        assert np.all((0.0 <= vals) & (vals <= 1.0))

    def test_discrete_gradient_bound(self):
        g = dl.make_grid(1, 1, 128)
        r = 0.2
        phi = dl.cutoff(g, [0.0], r)
        grad = dl.discrete_gradient(g, phi(g.node_points))
        peak = max(np.abs(c).max() for c in grad.comps)
        assert peak <= 1.5 / r * 1.05
        assert peak <= 2.0 / r

    def test_ball_containment_required(self):
        g = dl.make_grid(1, 1, 16)
        with pytest.raises(ValueError):
            dl.cutoff(g, [0.3], 0.2)


class TestDiscreteGradient:
    def test_affine_exact(self):
        g = dl.make_grid(1, 1, 10, bc="neumann")
        u = g.node_points[:, 0]
        grad = dl.discrete_gradient(g, u)
        assert np.allclose(grad.comps[0], 1.0, atol=1e-14)

    def test_constant_zero(self):
        g = dl.make_grid(2, 1, 6, bc="neumann")
        grad = dl.discrete_gradient(g, np.full(g.n_nodes, 3.7))
        assert all(np.all(c == 0) for c in grad.comps)

    def test_quadratic_exact_at_face_midpoints(self):
        g = dl.make_grid(1, 1, 10, bc="neumann")
        u = g.node_points[:, 0] ** 2
        grad = dl.discrete_gradient(g, u)
        mids = g.face_points(0)[:, 0]
        assert np.allclose(grad.comps[0], 2 * mids, atol=1e-13)


def _full_mask(grid):
    return dl.SubsetMask(grid=grid, fn=lambda pts: np.ones(pts.shape[0], dtype=bool))


class TestSubsetNorm2:
    def test_full_mask_equals_plain_norm(self):
        rng = np.random.default_rng(3)
        for bc in ("dirichlet", "neumann"):
            g = dl.make_grid(2, 1, 7, bc=bc)
            u = rng.standard_normal(g.n_nodes)
            plain = g.h**g.d * u @ u
            assert dl.subset_norm2(u, _full_mask(g)) == pytest.approx(plain, abs=0, rel=1e-15)

    def test_empty_mask(self):
        g = dl.make_grid(1, 1, 8)
        empty = dl.SubsetMask(grid=g, fn=lambda pts: np.zeros(pts.shape[0], dtype=bool))
        assert dl.subset_norm2(np.ones(g.n_nodes), empty) == 0.0

    def test_cosine_mass_on_center_ball(self):
        # oracle: 2 * int_{-1/4}^{1/4} cos^2(pi x) dx = 1/2 + 1/pi
        oracle = 0.5 + 1.0 / math.pi
        g = dl.make_grid(1, 1, 256)
        psi = math.sqrt(2.0) * np.cos(math.pi * g.node_points[:, 0])
        val = dl.subset_norm2(psi, dl.ball(g, [0.0], 0.25))
        assert val == pytest.approx(oracle, abs=4 * g.h)

    def test_grid_mismatch_rejected(self):
        g1, g2 = dl.make_grid(1, 1, 8), dl.make_grid(1, 1, 16)
        with pytest.raises(ValueError):
            dl.subset_norm2(np.ones(g1.n_nodes), _full_mask(g2))

    def test_face_field_full_mask_matches_norm2(self):
        g = dl.make_grid(2, 1, 9)
        u = np.random.default_rng(1).standard_normal(g.n_nodes)
        grad = dl.discrete_gradient(g, u)
        plain = g.h**g.d * sum(np.sum(c * c) for c in grad.comps)
        assert dl.subset_norm2(grad, _full_mask(g)) == pytest.approx(plain, rel=1e-14)

    def test_face_masks_are_evaluated_once_per_axis(self):
        g = dl.make_grid(2, 1, 9)
        calls = []

        def fn(pts):
            calls.append(pts.shape[0])
            return pts[:, 0] < 0.1

        mask = dl.SubsetMask(grid=g, fn=fn)
        grad = dl.discrete_gradient(g, np.random.default_rng(2).standard_normal(g.n_nodes))
        first = dl.subset_norm2(grad, mask)
        assert dl.subset_norm2(grad, mask) == first
        assert calls == [math.prod(g.face_shape(k)) for k in range(g.d)]


class TestSmoothSwitch:
    def test_plateaus_and_center(self):
        assert dl.smooth_switch(-2.0, 1.0) == -1.0
        assert dl.smooth_switch(2.0, 1.0) == 0.0
        assert dl.smooth_switch(0.3, 0.1, shift=0.3) == -0.5
        assert dl.smooth_switch(0.3 - 0.2, 0.1, shift=0.3) == -1.0
        assert dl.smooth_switch(0.3 + 0.2, 0.1, shift=0.3) == 0.0

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            dl.smooth_switch(0.0, 0.0)

    @given(st.floats(-10, 10), st.floats(0.01, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_bounded(self, shift, eps):
        xs = np.linspace(shift - 3 * eps, shift + 3 * eps, 301)
        vals = dl.smooth_switch(xs, eps, shift=shift)
        assert np.all(np.diff(vals) >= -1e-14)
        assert np.all((-1.0 <= vals) & (vals <= 0.0))
        slopes = np.abs(np.diff(vals)) / np.diff(xs)
        assert slopes.max() <= 1.0 / eps + 1e-9

    @given(st.floats(-5, 5), st.floats(0.01, 2.0), st.floats(-20, 20))
    @settings(max_examples=120, deadline=None)
    def test_smearing_dominates_window_indicator(self, center, eps, x):
        # indicator of [E-eps, E+eps] <= switch(x-(E-2eps)) - switch(x-(E+2eps))
        lhs = 1.0 if center - eps <= x <= center + eps else 0.0
        rhs = dl.smooth_switch(x, eps, shift=center - 2 * eps) \
            - dl.smooth_switch(x, eps, shift=center + 2 * eps)
        assert rhs >= lhs - 1e-12


def test_smoothstep_slope_cap():
    t = np.linspace(0, 1, 2001)
    slopes = np.diff(smoothstep(t)) / np.diff(t)
    assert slopes.max() <= 1.5 + 1e-9
