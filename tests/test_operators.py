from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import divlab as dl
from divlab import operators
from divlab.fields import EllipticityError
from divlab.operators import _triplets, perturbation_operator

from _alloy_oracle import alloy_field


def _form(op, u):
    """The quadratic form h^d u^T H u."""
    return op.grid.h**op.grid.d * u @ (op.matrix @ u)


def _gradient_norm2(grid, u):
    """h^d times the sum of squared face gradients."""
    return grid.h**grid.d * sum(np.sum(c * c) for c in dl.discrete_gradient(grid, u).comps)


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
        op = dl.assemble(g, dl.sampled_field(g, lambda p: 1.0 + p[:, 0] ** 2))
        diag, off = op.tridiagonal
        assert np.array_equal(diag, op.matrix.diagonal())
        assert np.array_equal(off, op.matrix.diagonal(1))

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
            form = _form(op, u)
            gn = _gradient_norm2(g, u)
            assert form >= f.theta_minus * gn * (1 - 1e-12)
            assert form <= f.theta_plus * gn * (1 + 1e-12)

    def test_identity_form_equals_gradient_norm(self):
        rng = np.random.default_rng(5)
        for bc in ("dirichlet", "neumann"):
            g = dl.make_grid(2, 1, 6, bc=bc)
            op = dl.assemble(g, dl.identity_field(g))
            u = rng.standard_normal(g.n_nodes)
            assert _form(op, u) == pytest.approx(_gradient_norm2(g, u), rel=1e-13)

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


def _reference_matrix(grid, cells):
    """The stencil operator through scipy: sum the terms, symmetrize, restrict, divide."""
    rows, cols, vals = _triplets(grid, cells)
    size = (grid.cells_per_side + 1) ** grid.d
    mat = sp.coo_matrix((vals[:, 0], (rows, cols)), shape=(size, size)).tocsr()
    mat = 0.5 * (mat + mat.T)
    if grid.bc == "dirichlet":
        keep = grid.restrict(np.arange(size).reshape(grid.full_shape)).astype(int)
        mat = mat[keep][:, keep]
    return (mat / grid.h**grid.d).tocsr()


def _diagonal_fields(grid):
    yield dl.identity_field(grid)
    yield dl.sampled_field(grid, lambda p: 1.0 + 0.5 * np.sin(np.pi * p[:, 0]))
    yield dl.checkerboard_field(grid, 1.0, 3.0)


class TestAssemblyOracle:
    """`assemble` against the scipy recipe (`_reference_matrix`).  h^d is a power of
    two only for h = 1/32, so 1/48 and 1/6 tell scaling by 1 / h^d from dividing."""

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("d, n", [(1, 32), (1, 48), (1, 6), (2, 32), (2, 48), (2, 6),
                                      (3, 32), (3, 48), (3, 6)])
    def test_diagonal_fields_bit_for_bit(self, d, n, bc):
        g = dl.make_grid(d, 1 if d == 3 else 2, n, bc)
        for f in _diagonal_fields(g):
            got, want = dl.assemble(g, f).matrix, _reference_matrix(g, f.cells)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)
        # w Id's operator keeps the stencil's pattern, with zeros off the support of w
        # where scipy's sum drops them
        w = dl.as_scalar_field(lambda p: np.maximum(0.0, 0.25 - np.sum(p * p, axis=1)))
        cells = w.on_cells(g).reshape(g.cells_shape)[..., None, None] * np.eye(d)
        got, want = perturbation_operator(g, w), _reference_matrix(g, cells)
        assert abs(got - want).max() == 0.0
        assert np.count_nonzero(got.data) == want.nnz

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("d, n", [(2, 32), (2, 48), (2, 6), (3, 6)])
    def test_offdiagonal_fields_on_the_same_pattern(self, d, n, bc):
        # rows of the mixed stencil hold many terms; scipy may sum them in another order
        g = dl.make_grid(d, 2 if d == 2 else 1, n, bc)
        off = np.ones((d, d)) - np.eye(d)
        fields = [dl.constant_field(g, np.eye(d) + 0.3 * off),
                  _random_spd_field(g, np.random.default_rng(n + d))]
        for f in fields:
            got, want = dl.assemble(g, f).matrix, _reference_matrix(g, f.cells)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.abs(got.data - want.data).max() <= 1e-14 * np.abs(want.data).max()


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


def _alloy_case(d, bc, base, bump, law, n=None):
    """A small alloy model: L = 2, unit sites with delta = 0.2 and delta_plus = 0.45."""
    g = dl.make_grid(d, 2, n or {1: 16, 2: 6, 3: 3}[d], bc)
    if base == "identity":
        field = dl.identity_field(g)
    elif base == "sine":
        field = dl.sampled_field(g, lambda p: 1.0 + 0.5 * np.sin(np.pi * p[:, 0]))
    else:  # a constant off-diagonal coupling (a constant scalar for d = 1)
        field = dl.constant_field(g, np.eye(d) + 0.3 * (np.ones((d, d)) - np.eye(d)) + 0.5 * (d == 1))
    seq = dl.equidistributed_sequence(g, 1.0, 0.2, mode="random", seed=d)
    return dl.alloy_model(field, seq, delta_plus=0.45, bump=bump,
                          dist=dl.CouplingDistribution(law, 2.0))


# every d, boundary condition and base field, with bump shape and law alternating
_ALLOY_CASES = [(d, bc, base, ("plateau", "indicator")[i % 2], ("uniform", "bernoulli")[i // 2 % 2])
                for i, (d, bc, base) in enumerate(product((1, 2, 3), ("dirichlet", "neumann"),
                                                          ("identity", "sine", "offdiagonal")))]


def _site_bump_table(model):
    """Dense (cells, sites) matrix of the single-site bumps at the cell centers."""
    values, idx = model.cell_bumps
    out = np.zeros((values.shape[0], len(model.seq.centers)))
    np.add.at(out, (np.arange(values.shape[0])[:, None], idx), values)
    return out


def _cell_lookup(g, pts, cell_values):
    """The cell values at points that are the grid's cell centers, in their order."""
    assert np.array_equal(pts, g.cell_centers)
    return cell_values


class TestAlloyOperators:
    @pytest.mark.parametrize("d, bc, base, bump, law", _ALLOY_CASES)
    def test_sample_operator_matches_assembly(self, d, bc, base, bump, law):
        model = _alloy_case(d, bc, base, bump, law)
        g = model.base.grid
        ops = dl.alloy_operators(g, model)
        rng = np.random.default_rng(11)
        for _ in range(20):
            omega = dl.sample_alloy(model, rng)
            want = dl.assemble(g, alloy_field(model, omega))
            got = ops.at(omega)
            assert np.array_equal(got.matrix.indptr, want.matrix.indptr)
            assert np.array_equal(got.matrix.indices, want.matrix.indices)
            assert abs(got.matrix - got.matrix.T).max() == 0.0
            scale = np.abs(want.matrix.data).max()
            assert np.abs(got.matrix.data - want.matrix.data).max() <= 1e-14 * scale
            # a window around the 4th to 8th eigenvalues, its edges in spectral gaps
            ev = np.linalg.eigvalsh(want.dense())
            lo, hi = 0.5 * (ev[2] + ev[3]), 0.5 * (ev[7] + ev[8])
            edges = [lo, 0.5 * (lo + hi), hi]
            counts = dl.count_eigenvalues(got, edges)
            assert np.array_equal(counts, dl.count_eigenvalues(want, edges))
            expected = int(counts[2] - counts[0])
            np.testing.assert_allclose(dl.eigenpairs(got, lo, hi, expected).energies,
                                       dl.eigenpairs(want, lo, hi, expected).energies,
                                       rtol=1e-12, atol=0)

    def test_the_pattern_is_the_base_pattern_for_every_draw(self):
        # Bernoulli couplings vanish on some sites: no entry of H(omega) may vanish with them
        model = _alloy_case(2, "dirichlet", "offdiagonal", "plateau", "bernoulli")
        g = model.base.grid
        ops = dl.alloy_operators(g, model)
        n_sites = len(model.seq.centers)
        bumps = _site_bump_table(model)
        for omega in [np.zeros(n_sites), *2.0 * np.eye(n_sites)]:
            cells = model.base.cells + (bumps @ omega).reshape(g.cells_shape)[..., None, None] \
                * np.eye(g.d)
            field = dl.MatrixField(grid=g, cells=cells, theta_minus=model.base.theta_minus,
                                   theta_plus=np.inf, theta_lip=None)
            want, got = dl.assemble(g, field).matrix, ops.at(omega).matrix
            assert np.array_equal(got.indptr, ops.base.matrix.indptr)
            assert np.array_equal(got.indices, ops.base.matrix.indices)
            assert np.array_equal(want.indptr, got.indptr)
            assert np.array_equal(want.indices, got.indices)
            assert np.all(got.data != 0)
        assert np.array_equal(ops.at(np.zeros(n_sites)).matrix.data, ops.base.matrix.data)

    def test_site_columns_are_the_site_operators(self):
        # at h = 1/6 and 1/48, h^d is not a power of two: a site path that scaled by h^d
        # another way than `perturbation_operator` would differ in the last bit
        for d, bc, base, n in ((2, "neumann", "sine", None), (1, "dirichlet", "identity", 48),
                               (3, "dirichlet", "offdiagonal", 6)):
            model = _alloy_case(d, bc, base, "plateau", "uniform", n)
            g = model.base.grid
            ops = dl.alloy_operators(g, model)
            bumps = _site_bump_table(model)
            for s in range(bumps.shape[1]):
                h_s = perturbation_operator(g, lambda p, s=s: _cell_lookup(g, p, bumps[:, s]))
                on_pattern = ops.base.matrix.copy()
                on_pattern.data = ops.sites[:, [s]].toarray().ravel()
                assert abs(on_pattern - h_s).max() == 0.0
                assert abs(on_pattern - on_pattern.T).max() == 0.0  # exactly symmetric

    def test_one_stencil_pass_over_the_base_field(self, monkeypatch):
        # `assemble` reads A once; the sites are the bump fields u_s Id, one field axis,
        # placed on the pattern that `assemble` returned
        model = _alloy_case(2, "dirichlet", "offdiagonal", "plateau", "uniform")
        g = model.base.grid
        seen, triplets = [], operators._triplets

        def spy(grid, cells):
            seen.append(cells)
            return triplets(grid, cells)

        monkeypatch.setattr(operators, "_triplets", spy)
        dl.alloy_operators(g, model)
        assert len(seen) == 2 and seen[0] is model.base.cells
        bumps = _site_bump_table(model).reshape(*g.cells_shape, -1)
        assert np.array_equal(seen[1], bumps[..., None, None] * np.eye(g.d))

    def test_bands_need_a_tridiagonal_base(self):
        model = _alloy_case(2, "dirichlet", "identity", "plateau", "uniform")
        ops = dl.alloy_operators(model.base.grid, model)
        with pytest.raises(ValueError, match="three central diagonals"):
            ops.bands(np.ones((len(model.seq.centers), 2)))

    def test_grid_mismatch_rejected(self):
        model = _alloy_case(1, "dirichlet", "identity", "plateau", "uniform")
        with pytest.raises(ValueError, match="different grid"):
            dl.alloy_operators(dl.make_grid(1, 2, 8), model)

