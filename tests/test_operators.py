import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divlab as dl
from divlab.fields import EllipticityError
from divlab.operators import perturbation_operator


def _random_spd_field(grid, rng, scale=1.0):
    d = grid.d

    def gen(pts):
        n = pts.shape[0]
        a = rng.standard_normal((n, d, d)) * 0.2 * scale
        sym = 0.5 * (a + np.swapaxes(a, 1, 2))
        base = (1.0 + rng.random(n) * scale)[:, None, None] * np.eye(d)
        return base + sym @ np.swapaxes(sym, 1, 2)

    return dl.sampled_field(grid, gen)


class TestAssembly:
    def test_1d_tridiagonal_stencil(self):
        g = dl.make_grid(1, 1, 8)
        H = dl.assemble(g, dl.identity_field(g)).dense() * g.h**2
        assert np.allclose(np.diag(H), 2.0, atol=1e-14)
        assert np.allclose(np.diag(H, 1), -1.0, atol=1e-14)
        assert np.allclose(np.diag(H, -1), -1.0, atol=1e-14)
        assert np.all(H[np.abs(np.subtract.outer(range(7), range(7))) > 1] == 0)

    def test_2d_five_point_interior_row(self):
        g = dl.make_grid(2, 1, 6)
        H = dl.assemble(g, dl.identity_field(g)).dense() * g.h**2
        m = g.unknown_shape[0]
        row = H[(m // 2) * m + m // 2].reshape(m, m)
        i, j = m // 2, m // 2
        assert row[i, j] == pytest.approx(4.0)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert row[i + di, j + dj] == pytest.approx(-1.0)
        assert np.count_nonzero(row) == 5

    def test_scalar_multiple(self):
        g = dl.make_grid(2, 1, 5)
        h1 = dl.assemble(g, dl.identity_field(g)).dense()
        h3 = dl.assemble(g, dl.constant_field(g, 3.0 * np.eye(2))).dense()
        assert np.allclose(h3, 3.0 * h1, atol=1e-12)

    def test_neumann_annihilates_constants(self):
        rng = np.random.default_rng(0)
        for d in (1, 2):
            g = dl.make_grid(d, 1, 5, bc="neumann")
            f = _random_spd_field(g, rng)
            op = dl.assemble(g, f)
            assert np.abs(op.matrix @ np.ones(op.dim)).max() < 1e-12

    def test_exact_symmetry(self):
        rng = np.random.default_rng(1)
        for d, bc in ((2, "dirichlet"), (2, "neumann"), (3, "dirichlet")):
            g = dl.make_grid(d, 1, 4, bc=bc)
            op = dl.assemble(g, _random_spd_field(g, rng))
            asym = abs(op.matrix - op.matrix.T)
            assert asym.max() == 0.0

    def test_definiteness(self):
        rng = np.random.default_rng(2)
        g = dl.make_grid(2, 1, 5)
        evs = np.linalg.eigvalsh(dl.assemble(g, _random_spd_field(g, rng)).dense())
        assert evs.min() > 0
        gn = dl.make_grid(2, 1, 5, bc="neumann")
        evs = np.linalg.eigvalsh(dl.assemble(gn, _random_spd_field(gn, rng)).dense())
        assert evs.min() > -1e-11

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_linearity_in_field(self, seed):
        rng = np.random.default_rng(seed)
        g = dl.make_grid(2, 1, 4)
        fa = _random_spd_field(g, rng)
        fb = _random_spd_field(g, rng)
        summed = dl.sampled_field(g, lambda p: fa.cells.reshape(-1, 2, 2)
                                  + fb.cells.reshape(-1, 2, 2))
        ha = dl.assemble(g, fa).dense()
        hb = dl.assemble(g, fb).dense()
        hs = dl.assemble(g, summed).dense()
        assert np.allclose(hs, ha + hb, atol=1e-11)

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_two_sided_ellipticity_transfer(self, seed):
        rng = np.random.default_rng(seed)
        for bc in ("dirichlet", "neumann"):
            g = dl.make_grid(2, 1, 4, bc=bc)
            f = _random_spd_field(g, rng)
            op = dl.assemble(g, f)
            u = rng.standard_normal(g.n_nodes)
            form = op.form(u)
            gn = dl.discrete_gradient(g, u).norm2()
            assert form >= f.theta_minus * gn * (1 - 1e-12)
            assert form <= f.theta_plus * gn * (1 + 1e-12)

    def test_identity_form_equals_gradient_norm(self):
        rng = np.random.default_rng(5)
        for bc in ("dirichlet", "neumann"):
            g = dl.make_grid(2, 1, 6, bc=bc)
            op = dl.assemble(g, dl.identity_field(g))
            u = rng.standard_normal(g.n_nodes)
            assert op.form(u) == pytest.approx(dl.discrete_gradient(g, u).norm2(), rel=1e-13)

    def test_rejects_bad_inputs(self):
        g = dl.make_grid(1, 1, 8)
        other = dl.make_grid(1, 1, 16)
        with pytest.raises(ValueError):
            dl.assemble(other, dl.identity_field(g))
        f = dl.identity_field(g)
        broken = dl.MatrixField(grid=g, cells=f.cells, theta_minus=0.0, theta_plus=1.0,
                                theta_lip=0.0)
        with pytest.raises(EllipticityError):
            dl.assemble(g, broken)

    def test_perturbation_operator_matches_identity_assembly(self):
        g = dl.make_grid(2, 1, 5)
        pert = perturbation_operator(g, dl.as_scalar_field(1.0))
        base = dl.assemble(g, dl.identity_field(g)).matrix
        assert abs(pert - base).max() < 1e-13
        with pytest.raises(ValueError):
            perturbation_operator(g, dl.as_scalar_field(-1.0))


class TestRescale:
    def test_identity_scale(self):
        g = dl.make_grid(1, 2, 16)
        f = dl.sampled_field(g, lambda p: 1 + 0.25 * np.cos(np.pi * p[:, 0]))
        out, factor = dl.rescale(f, 1.0, 16)
        assert factor == 1.0
        assert np.array_equal(out.cells, f.cells)

    def test_relabel_gives_exact_eigenvalue_factor(self):
        # m = 1: same cells, operators differ exactly by G^2
        g = dl.make_grid(1, 2, 16)
        f = dl.sampled_field(g, lambda p: 1 + 0.25 * np.cos(np.pi * p[:, 0]))
        out, factor = dl.rescale(f, 2.0, 32)
        assert factor == 4.0
        h_src = dl.assemble(g, f).dense()
        h_tgt = dl.assemble(out.grid, out).dense()
        assert np.allclose(h_tgt, factor * h_src, rtol=1e-13)

    def test_laplacian_eigenvalues_map(self):
        g = dl.make_grid(1, 2, 16)
        out, factor = dl.rescale(dl.identity_field(g), 2.0, 32)
        e_src = dl.eigensolve(dl.assemble(g, dl.identity_field(g)), k=3).energies
        e_tgt = dl.eigensolve(dl.assemble(out.grid, out), k=3).energies
        assert np.allclose(e_tgt, factor * e_src, rtol=1e-12)

    def test_lipschitz_constant_scales(self):
        g = dl.make_grid(1, 3, 12)
        f = dl.sampled_field(g, lambda p: 2.0 + 0.1 * p[:, 0], theta_lip=0.1)
        out, _ = dl.rescale(f, 3.0, 12)
        assert out.theta_lip == pytest.approx(0.3)

    def test_composition(self):
        g = dl.make_grid(1, 4, 8)
        f = dl.sampled_field(g, lambda p: 1 + 0.1 * np.sin(p[:, 0]))
        once, f1 = dl.rescale(f, 2.0, 16)
        twice, f2 = dl.rescale(once, 2.0, 32)
        direct, fd = dl.rescale(f, 4.0, 32)
        assert f1 * f2 == fd == 16.0
        assert np.allclose(twice.cells, direct.cells)

    def test_incompatible_resolution_rejected(self):
        g = dl.make_grid(1, 2, 16)
        f = dl.identity_field(g)
        with pytest.raises(ValueError, match="odd"):
            dl.rescale(f, 2.0, 16)  # m = 2, cell centers land on source nodes
        with pytest.raises(ValueError):
            dl.rescale(f, 3.0, 16)  # G does not divide L
