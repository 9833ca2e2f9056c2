import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divlab as dl
from divlab.fields import EllipticityError, _site_bumps


class TestConstantField:
    def test_identity_metadata(self):
        g = dl.make_grid(2, 1, 4)
        f = dl.constant_field(g, np.eye(2))
        assert (f.theta_minus, f.theta_plus) == (1.0, 1.0)
        assert f.theta_lip == 0.0 and f.dir_ok

    def test_diagonal_eigenvalues(self):
        g = dl.make_grid(2, 1, 4)
        f = dl.constant_field(g, np.diag([2.0, 3.0]))
        assert (f.theta_minus, f.theta_plus) == (2.0, 3.0)

    def test_indefinite_rejected(self):
        g = dl.make_grid(2, 1, 4)
        with pytest.raises(EllipticityError):
            dl.constant_field(g, np.array([[1.0, 5.0], [5.0, 1.0]]))

    def test_asymmetric_rejected(self):
        g = dl.make_grid(2, 1, 4)
        with pytest.raises(ValueError, match="symmetric"):
            dl.constant_field(g, np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_offdiagonal_breaks_dir_flag(self):
        g = dl.make_grid(2, 1, 4)
        f = dl.constant_field(g, np.array([[2.0, 0.5], [0.5, 2.0]]))
        assert not f.dir_ok


class TestSampledField:
    def test_sine_ellipticity_scan(self):
        g = dl.make_grid(1, 1, 256)
        f = dl.scalar_field(g, lambda p: 1 + 0.5 * np.sin(2 * np.pi * p[:, 0]))
        assert f.theta_minus == pytest.approx(0.5, abs=1e-3)
        assert f.theta_plus == pytest.approx(1.5, abs=1e-3)

    def test_checkerboard_values(self):
        g = dl.make_grid(1, 1, 32)
        f = dl.checkerboard_field(g, 1.0, 2.0)
        assert (f.theta_minus, f.theta_plus) == (1.0, 2.0)
        assert f.theta_lip is None and f.lip_provenance == "none"

    def test_constant_generator_matches_constant_field(self):
        g = dl.make_grid(2, 1, 5)
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        f1 = dl.sampled_field(g, lambda p: np.broadcast_to(m, (p.shape[0], 2, 2)))
        f2 = dl.constant_field(g, m)
        assert np.array_equal(f1.cells, f2.cells)

    def test_asymmetric_cell_reported(self):
        g = dl.make_grid(2, 1, 4)

        def gen(p):
            out = np.broadcast_to(np.eye(2), (p.shape[0], 2, 2)).copy()
            out[3, 0, 1] = 0.2
            return out

        with pytest.raises(ValueError, match="asymmetric at cell"):
            dl.sampled_field(g, gen)


class TestChecks:
    def test_ellipticity_cross_matrix(self):
        g = dl.make_grid(2, 1, 4)
        f = dl.constant_field(g, np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert dl.check_ellipticity(f) == (pytest.approx(1.0), pytest.approx(3.0))

    def test_lipschitz_values(self):
        g = dl.make_grid(1, 1, 64)
        assert dl.check_lipschitz(dl.identity_field(g)) == 0.0
        lin = dl.scalar_field(g, lambda p: 2.0 + p[:, 0])
        assert dl.check_lipschitz(lin) == pytest.approx(1.0, rel=1e-12)
        cb = dl.checkerboard_field(g)
        assert dl.check_lipschitz(cb) == pytest.approx(1.0 / g.h, rel=1e-12)

    def test_dir_condition(self):
        g = dl.make_grid(2, 1, 6)
        ok, bad = dl.check_dir_condition(dl.identity_field(g))
        assert ok and not bad
        f = dl.constant_field(g, np.array([[1.0, 0.1], [0.1, 1.0]]))
        ok, bad = dl.check_dir_condition(f)
        assert not ok and len(bad) > 0

        # off-diagonals forced to zero on the boundary cell layer pass
        centers = g.axis_cells()
        lo, hi = centers[0], centers[-1]

        def gen(p):
            out = np.zeros((p.shape[0], 2, 2))
            out[:, 0, 0] = out[:, 1, 1] = 2.0
            interior = np.all((p > lo + 1e-9) & (p < hi - 1e-9), axis=1)
            out[:, 0, 1] = out[:, 1, 0] = 0.3 * interior
            return out

        ok, bad = dl.check_dir_condition(dl.sampled_field(g, gen))
        assert ok


class TestMollify:
    def test_constant_field_fixed_in_interior(self):
        # beyond 1/ell of the cube boundary the kernel sees only the constant
        g = dl.make_grid(1, 1, 64)
        f = dl.scalar_field(g, lambda p: np.full(p.shape[0], 2.0))
        ell = 8
        smooth = dl.mollify(f, ell=ell, eps=0.5)
        centers = g.cell_centers[:, 0]
        interior = np.abs(centers) < 0.5 - 1.0 / ell - g.h
        assert np.allclose(smooth.cells[interior, 0, 0], f.cells[interior, 0, 0], atol=1e-13)
        assert not np.allclose(smooth.cells[~interior, 0, 0], f.cells[~interior, 0, 0])

    def test_checkerboard_interior_unchanged(self):
        g = dl.make_grid(1, 1, 128)
        f = dl.checkerboard_field(g)
        ell = 8
        smooth = dl.mollify(f, ell=ell, eps=0.5)
        centers = g.cell_centers[:, 0]
        far = (np.abs(centers) > 1.0 / ell + g.h) & (np.abs(centers) < 0.5 - 1.0 / ell - g.h)
        assert far.sum() > 10
        assert np.allclose(smooth.cells[far, 0, 0], f.cells[far, 0, 0], atol=1e-13)

    def test_jump_midpoint_average(self):
        # symmetric kernel at a 1<->2 jump: the two cells nearest 0 average to 1.5
        g = dl.make_grid(1, 1, 128)
        smooth = dl.mollify(dl.checkerboard_field(g), ell=8, eps=0.5)
        n = g.cells_per_side
        mid = 0.5 * (smooth.cells[n // 2 - 1, 0, 0] + smooth.cells[n // 2, 0, 0])
        assert mid == pytest.approx(1.5, abs=1e-12)

    def test_ellipticity_window_certified_and_scanned(self):
        g = dl.make_grid(2, 1, 24)
        f = dl.checkerboard_field(g, 1.0, 3.0)
        eps = 0.25
        smooth = dl.mollify(f, ell=4, eps=eps)
        assert smooth.theta_minus == f.theta_minus - eps
        assert smooth.theta_plus == f.theta_plus
        evs = np.linalg.eigvalsh(smooth.cells.reshape(-1, 2, 2))
        assert evs.min() >= f.theta_minus - eps - 1e-12
        assert evs.max() <= f.theta_plus + 1e-12

    def test_pointwise_convergence_at_continuity_points(self):
        g = dl.make_grid(1, 1, 256)
        f = dl.checkerboard_field(g)
        x_star = 0.25  # continuity point
        idx = int(np.argmin(np.abs(g.cell_centers[:, 0] - x_star)))
        devs = [abs(dl.mollify(f, ell, 0.5).cells[idx, 0, 0] - f.cells[idx, 0, 0])
                for ell in (2, 4, 8, 16)]
        assert devs[-1] == 0.0
        assert all(a >= b - 1e-15 for a, b in zip(devs, devs[1:]))

    def test_eps_window_enforced(self):
        g = dl.make_grid(1, 1, 32)
        f = dl.identity_field(g)
        with pytest.raises(ValueError):
            dl.mollify(f, 4, 1.0)
        with pytest.raises(ValueError):
            dl.mollify(f, 4, 0.0)
        with pytest.raises(ValueError):
            dl.mollify(f, 0, 0.5)


def _simple_model(n=32, L=2, dist=None, bump="plateau"):
    g = dl.make_grid(1, L, n)
    seq = dl.equidistributed_sequence(g, 1.0, 0.2)
    return dl.alloy_model(dl.identity_field(g), seq, c_minus=1.0, c_plus=2.0,
                          delta_plus=0.45, bump=bump,
                          dist=dist or dl.CouplingDistribution("uniform", 1.0))


class TestAlloy:
    def test_point_mass_zero_reproduces_base(self):
        model = _simple_model(dist=dl.CouplingDistribution("point", 0.0))
        sample = dl.sample_alloy(model, 0)
        assert np.array_equal(sample.field.cells, model.base.cells)

    def test_single_site_plateau_value(self):
        g = dl.make_grid(1, 1, 32)
        seq = dl.equidistributed_sequence(g, 1.0, 0.2)
        model = dl.alloy_model(dl.identity_field(g), seq, c_minus=1.0, c_plus=2.0,
                               delta_plus=0.45,
                               dist=dl.CouplingDistribution("point", 1.0))
        sample = dl.sample_alloy(model, 0)
        assert sample.omega[0] == 1.0
        assert sample.v(seq.centers)[0] == pytest.approx(1.0, abs=1e-14)

    def test_uniform_mean_monte_carlo(self):
        rng = np.random.default_rng(77)
        dist = dl.CouplingDistribution("uniform", 1.0)
        draws = dist.sample(rng, 10_000)
        assert draws.mean() == pytest.approx(0.5, abs=0.02)

    def test_bump_sandwich_nodewise(self):
        for bump in ("plateau", "indicator"):
            model = _simple_model(bump=bump)
            g = model.base.grid
            pts = g.full_node_points
            values, idx = _site_bumps(model, pts)
            u = np.zeros((len(pts), len(model.seq.centers)))
            np.add.at(u, (np.arange(len(pts))[:, None], idx), values)
            rho = np.abs(pts[:, 0:1] - model.seq.centers.T)
            lower = model.c_minus * (rho < model.delta_minus)
            upper = model.c_plus * (rho < model.delta_plus)
            assert np.all(u >= lower - 1e-12)
            assert np.all(u <= upper + 1e-12)

    def test_potential_matches_all_pairs_bumps(self):
        g = dl.make_grid(2, 4, 8)
        seq = dl.equidistributed_sequence(g, 1.0, 0.2, mode="random", seed=3)
        model = dl.alloy_model(dl.identity_field(g), seq, c_minus=1.0, c_plus=2.0,
                               delta_plus=1.2)
        sample = dl.sample_alloy(model, 4)
        pts = np.concatenate([g.full_node_points, g.cell_centers])
        rho = np.sqrt(((pts[:, None, :] - seq.centers[None, :, :]) ** 2).sum(axis=2))
        bumps = model.c_minus * np.clip((model.delta_plus - rho)
                                        / (model.delta_plus - model.delta_minus), 0.0, 1.0)
        assert np.max(np.abs(sample.v(pts) - bumps @ sample.omega)) <= 1e-14
        assert np.max(np.abs(dl.single_site_sum(model)(pts) - bumps.sum(axis=1))) <= 1e-14

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sample_nonnegative_and_sup_bounded(self, seed):
        model = _simple_model(n=8)
        sample = dl.sample_alloy(model, seed)
        vals = sample.v(model.base.grid.full_node_points)
        assert np.all(vals >= 0.0)
        bound = model.dist.support_max * (2 + model.delta_plus) ** 1 * model.c_plus
        assert np.all(vals <= bound + 1e-12)

    def test_metadata_conservative(self):
        model = _simple_model()
        sample = dl.sample_alloy(model, 5)
        assert sample.field.theta_minus == model.base.theta_minus
        assert sample.field.theta_plus == model.base.theta_plus + model.v_sup_bound

    def test_validation(self):
        g = dl.make_grid(1, 2, 16)
        seq = dl.equidistributed_sequence(g, 1.0, 0.2)
        with pytest.raises(ValueError):
            dl.alloy_model(dl.identity_field(g), seq, c_minus=2.0, c_plus=1.0)
        with pytest.raises(ValueError):
            dl.alloy_model(dl.identity_field(g), seq, delta_plus=0.1)


class TestTentMinorant:
    def test_values(self):
        # 1D, one period-2 cell centered at 0, delta = 0.5, dhat = 0.25
        g = dl.make_grid(1, 2, 32)
        seq = dl.equidistributed_sequence(g, 2.0, 0.5)
        tent = dl.tent_minorant(dl.as_scalar_field(1.0), seq, g)
        assert tent(seq.centers)[0] == 1.0
        assert tent([[0.5]])[0] == 0.0
        assert tent([[0.375]])[0] == pytest.approx(0.5, abs=1e-14)

    def test_sandwich_and_slope(self):
        g = dl.make_grid(1, 2, 64)
        seq = dl.equidistributed_sequence(g, 1.0, 0.3)
        w = dl.ball_plateau_field(seq)
        tent = dl.tent_minorant(w, seq, g)
        pts = g.full_node_points
        dhat = seq.delta / 2
        inner = dl.ball_mask(g, seq, radius=dhat).full_node_mask.ravel()
        tv = tent(pts)
        assert np.all(w(pts) >= tv - 1e-12)
        assert np.all(tv[inner] >= 1.0 - 1e-12)
        grad = dl.discrete_gradient(g, tent.on_nodes(g))
        assert max(np.abs(c).max() for c in grad.comps) <= 1.0 / dhat + 1e-9

    def test_precondition_violation_reported(self):
        g = dl.make_grid(1, 2, 16)
        seq = dl.equidistributed_sequence(g, 1.0, 0.3)
        with pytest.raises(ValueError, match="dominate"):
            dl.tent_minorant(dl.as_scalar_field(0.5), seq, g)


class TestModulus:
    def test_values(self):
        assert dl.modulus_of_continuity(dl.CouplingDistribution("uniform", 1.0), 0.1) == 0.1
        assert dl.modulus_of_continuity(dl.CouplingDistribution("uniform", 2.0), 5.0) == 1.0
        assert dl.modulus_of_continuity(dl.CouplingDistribution("bernoulli", 1.0, p=0.5), 0.1) == 0.5
        assert dl.modulus_of_continuity(dl.CouplingDistribution("point", 0.3), 0.0) == 1.0

    @given(st.floats(0, 3), st.floats(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, e1, e2):
        lo, hi = sorted((e1, e2))
        for dist in (dl.CouplingDistribution("uniform", 1.5),
                     dl.CouplingDistribution("bernoulli", 1.0, p=0.3)):
            assert dist.modulus(lo) <= dist.modulus(hi) + 1e-15


def test_ball_plateau_field_profile():
    g = dl.make_grid(1, 2, 32)
    seq = dl.equidistributed_sequence(g, 1.0, 0.25)
    w = dl.ball_plateau_field(seq)
    assert w(seq.centers)[0] == 1.0
    assert w([[seq.centers[0, 0] + 0.25]])[0] == 1.0
    assert w([[seq.centers[0, 0] + 0.51]])[0] < 1.0
    mask = dl.ball_mask(g, seq)
    assert np.all(w(g.full_node_points)[mask.full_node_mask.ravel()] >= 1.0 - 1e-12)


def test_field_hash_deterministic_and_sensitive():
    g = dl.make_grid(1, 1, 16)
    f1 = dl.identity_field(g)
    f2 = dl.identity_field(g)
    f3 = dl.scalar_field(g, lambda p: np.full(p.shape[0], 2.0))
    assert f1.content_hash() == f2.content_hash()
    assert f1.content_hash() != f3.content_hash()
