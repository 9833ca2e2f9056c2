import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import divlab as dl
from divlab import spectral
from divlab.operators import DiscreteOperator, perturbation_operator
from divlab.spectral import EigensolveError


def _dirichlet_stencil_energies(L, n, d, k):
    h = 1.0 / n
    per_axis = 4 / h**2 * np.sin(np.arange(1, L * n) * math.pi * h / (2 * L)) ** 2
    mesh = per_axis
    for _ in range(d - 1):
        mesh = np.add.outer(mesh, per_axis).ravel()
    return np.sort(mesh)[:k]


def _block_eigenvalues(dmat):
    """Eigenvalues of the (1x1 / 2x2) block diagonal factor of an LDL^T factorization."""
    n = dmat.shape[0]
    out = np.empty(n)
    i = 0
    while i < n:
        if i + 1 < n and (dmat[i + 1, i] != 0.0 or dmat[i, i + 1] != 0.0):
            a, c = dmat[i, i], dmat[i + 1, i + 1]
            b = dmat[i + 1, i] if dmat[i + 1, i] != 0.0 else dmat[i, i + 1]
            mid = 0.5 * (a + c)
            rad = np.hypot(0.5 * (a - c), b)
            out[i], out[i + 1] = mid - rad, mid + rad
            i += 2
        else:
            out[i] = dmat[i, i]
            i += 1
    return out


def _dense_ldl_pivots(op, energy):
    """Eigenvalues of the block pivots of one dense Bunch-Kaufman LDL^T of H - E, and
    the magnitude at or below which the oracle takes one as zero."""
    a = op.dense() - energy * np.eye(op.dim)
    _, dmat, _ = scipy.linalg.ldl(a, lower=True)
    return _block_eigenvalues(dmat), 1e-12 * max(1.0, float(np.abs(a).max()))


def _dense_ldl_count(op, energy):
    """Oracle: inertia of the dense H - E, near-zero pivots counted as <= E."""
    evs, tol = _dense_ldl_pivots(op, energy)
    return int(np.count_nonzero((evs < 0) | (np.abs(evs) <= tol)))


def _offdiag_field(g):
    # c(x) in [-0.4, 0.4] keeps I + c (ones - I) positive definite for d <= 3
    def gen(p):
        c = 0.4 * np.sin(2 * np.pi * p[:, 0] / g.L)
        return np.eye(g.d) + c[:, None, None] * (np.ones((g.d, g.d)) - np.eye(g.d))
    return dl.sampled_field(g, gen)


def _alloy_field(base, seed):
    seq = dl.equidistributed_sequence(base.grid, 1.0, 0.2)
    model = dl.alloy_model(base, seq, c_minus=1.0, c_plus=2.0, delta_plus=0.45,
                           dist=dl.CouplingDistribution("uniform", 2.0))
    return dl.sample_alloy(model, seed).field


# (d, L, n_per_side, bc, field): unknowns per axis-0 layer and per slab vary, and
# several node counts are not a multiple of the slab size (63 = 3*16 + 15,
# 18 = 16 + 2, 81 = 4*18 + 9)
COUNT_MATRICES = [
    (1, 2, 32, "dirichlet", "alloy"),
    (1, 1, 17, "neumann", "alloy"),
    (2, 1, 10, "dirichlet", "offdiag"),
    (2, 1, 10, "dirichlet", "alloy-offdiag"),
    (2, 1, 7, "neumann", "alloy"),
    (3, 1, 6, "dirichlet", "alloy-offdiag"),
    (3, 1, 3, "neumann", "offdiag"),
]


def _count_matrix(d, L, n, bc, kind):
    """One COUNT_MATRICES operator, six energies across its spectrum, and their dense
    LDL^T counts."""
    g = dl.make_grid(d, L, n, bc=bc)
    base = _offdiag_field(g) if "offdiag" in kind else dl.identity_field(g)
    field = _alloy_field(base, 5) if "alloy" in kind else base
    op = dl.assemble(g, field)
    rng = np.random.default_rng(d * 100 + n)
    energies = rng.uniform(0.0, 1.1 * np.abs(op.dense()).sum(axis=1).max(), size=6)
    return op, energies, [_dense_ldl_count(op, e) for e in energies]


def _ldl_count(op, energy):
    """The sparse path's count at one energy, or None when a certificate fails."""
    tol = spectral._zero_tol(op, np.array([energy]))[0]
    rhs = np.random.default_rng(spectral._RHS_SEED).standard_normal(op.dim)
    return spectral._ldl_count(op.matrix.tocsc(), op.matrix.diagonal(), energy, tol, rhs)


def _superlu(op, energy):
    """The factorization `_ldl_count` certifies, for checking a test's premise."""
    a = (op.matrix - energy * scipy.sparse.identity(op.dim, format="csr")).tocsc()
    return scipy.sparse.linalg.splu(a, permc_spec="COLAMD", diag_pivot_thresh=0,
                                    options={"SymmetricMode": True})


class TestEigensolve:
    def test_1d_closed_form(self):
        g = dl.make_grid(1, 1, 64)
        spec = dl.eigensolve(dl.assemble(g, dl.identity_field(g)), k=5)
        exact = _dirichlet_stencil_energies(1, 64, 1, 5)
        assert np.abs(spec.energies - exact).max() / exact.max() < 1e-12

    def test_2d_closed_form_small(self):
        g = dl.make_grid(2, 1, 12)
        spec = dl.eigensolve(dl.assemble(g, dl.identity_field(g)), k=6)
        exact = _dirichlet_stencil_energies(1, 12, 2, 6)
        assert np.abs(spec.energies - exact).max() / exact.max() < 1e-12

    def test_continuum_limit(self):
        errs = []
        for n in (16, 32, 64):
            g = dl.make_grid(1, 1, n)
            e1 = dl.eigensolve(dl.assemble(g, dl.identity_field(g)), k=1).energies[0]
            errs.append(abs(e1 - math.pi**2))
        order = np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0]
        assert -order >= 1.9

    def test_neumann_zero_mode(self):
        g = dl.make_grid(2, 1, 6, bc="neumann")
        spec = dl.eigensolve(dl.assemble(g, dl.identity_field(g)), k=2)
        assert abs(spec.energies[0]) < 1e-10
        v = spec.vectors[:, 0]
        assert np.abs(v - v[0]).max() < 1e-8

    def test_normalization_orthogonality_residuals(self):
        g = dl.make_grid(1, 2, 48)
        f = dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(np.pi * p[:, 0]))
        spec = dl.eigensolve(dl.assemble(g, f), k=6)
        gram = spec.vectors.T @ spec.vectors * g.h**g.d
        assert np.abs(np.diag(gram) - 1.0).max() < 1e-10
        assert np.abs(gram - np.eye(6)).max() < 1e-8
        assert np.all(spec.residuals <= 1e-9 * (1 + np.abs(spec.energies)) + 1e-7)

    def test_deterministic_including_sparse_path(self):
        g = dl.make_grid(2, 1, 48)  # 2209 unknowns: Lanczos path
        op = dl.assemble(g, dl.identity_field(g))
        s1 = dl.eigensolve(op, k=4)
        s2 = dl.eigensolve(op, k=4)
        assert np.array_equal(s1.energies, s2.energies)
        assert np.array_equal(s1.vectors, s2.vectors)
        exact = _dirichlet_stencil_energies(1, 48, 2, 4)
        assert np.abs(s1.energies - exact).max() / exact.max() < 1e-10

    def test_bad_arguments(self):
        g = dl.make_grid(1, 1, 8)
        op = dl.assemble(g, dl.identity_field(g))
        with pytest.raises(ValueError):
            dl.eigensolve(op, k=0)
        with pytest.raises(ValueError):
            dl.eigensolve(op, k=100)

    def test_sign_convention(self):
        g = dl.make_grid(1, 1, 32)
        spec = dl.eigensolve(dl.assemble(g, dl.identity_field(g)), k=3)
        for j in range(3):
            col = spec.vectors[:, j]
            first = np.nonzero(np.abs(col) > 1e-8 * np.abs(col).max())[0][0]
            assert col[first] > 0


class TestCountEigenvalues:
    def test_counts_threshold(self):
        g = dl.make_grid(1, 1, 64)
        op = dl.assemble(g, dl.identity_field(g))
        assert dl.count_eigenvalues(op, 50.0) == 2
        assert dl.count_eigenvalues(op, 5.0) == 0
        assert dl.count_eigenvalues(op, 1e9) == op.dim

    def test_energy_at_an_eigenvalue_counts_it(self):
        g = dl.make_grid(1, 1, 16)
        op = dl.assemble(g, dl.identity_field(g))
        e2 = dl.eigensolve(op, k=2).energies[1]
        assert dl.count_eigenvalues(op, e2) == 2
        assert dl.count_eigenvalues(op, e2 + 1.0) == 2

    @pytest.mark.parametrize("d, L, n, bc, kind", COUNT_MATRICES)
    def test_slab_counts_match_dense_ldl(self, d, L, n, bc, kind):
        g = dl.make_grid(d, L, n, bc=bc)
        base = _offdiag_field(g) if "offdiag" in kind else dl.identity_field(g)
        field = _alloy_field(base, 5) if "alloy" in kind else base
        op = dl.assemble(g, field)
        rng = np.random.default_rng(d * 100 + n)
        energies = rng.uniform(0.0, 1.1 * np.abs(op.dense()).sum(axis=1).max(), size=6)
        counts = dl.count_eigenvalues(op, energies)
        assert counts.tolist() == [_dense_ldl_count(op, e) for e in energies]
        assert [dl.count_eigenvalues(op, e) for e in energies] == counts.tolist()

    @pytest.mark.parametrize("d, L, n, bc, kind", COUNT_MATRICES)
    def test_slab_path_matches_dense_ldl(self, d, L, n, bc, kind):
        op, energies, oracle = _count_matrix(d, L, n, bc, kind)
        assert spectral.slab_count_eigenvalues(op, energies).tolist() == oracle

    @pytest.mark.parametrize("d, L, n, bc, kind", COUNT_MATRICES)
    def test_sparse_path_matches_dense_ldl_without_fallback(self, d, L, n, bc, kind):
        op, energies, oracle = _count_matrix(d, L, n, bc, kind)
        for e in energies:  # premise: no oracle pivot is near zero
            evs, tol = _dense_ldl_pivots(op, e)
            assert np.abs(evs).min() > tol
        assert [_ldl_count(op, e) for e in energies] == oracle

    def test_forced_certificate_failure_returns_the_slab_count(self, monkeypatch):
        # every factorization reports an off-diagonal pivot, so every energy falls back
        g = dl.make_grid(2, 1, 10)
        op = dl.assemble(g, _alloy_field(_offdiag_field(g), 5))
        energies = np.r_[np.linalg.eigvalsh(op.dense())[7], 50.0, 200.0]
        splu = scipy.sparse.linalg.splu

        def off_diagonal_pivots(a, **kw):
            lu = splu(a, **kw)
            return SimpleNamespace(perm_r=lu.perm_r[::-1], perm_c=lu.perm_c, U=lu.U,
                                   solve=lu.solve)

        monkeypatch.setattr(spectral.spla, "splu", off_diagonal_pivots)
        counts = dl.count_eigenvalues(op, energies)
        assert counts.tolist() == spectral.slab_count_eigenvalues(op, energies).tolist()

    def test_energy_at_a_2d_eigenvalue_falls_back(self):
        g = dl.make_grid(2, 1, 10)
        op = dl.assemble(g, _alloy_field(dl.identity_field(g), 5))
        energies = np.linalg.eigvalsh(op.dense())[[0, 1, 10, 40]]
        assert [_ldl_count(op, e) for e in energies] == [None] * 4  # a pivot near zero
        counts = dl.count_eigenvalues(op, energies)
        slab = spectral.slab_count_eigenvalues(op, energies)
        assert counts.tolist() == slab.tolist() == [1, 2, 11, 41]

    def test_off_diagonal_pivot_falls_back(self):
        # E = H_00 zeroes the first pivot of the COLAMD order, so SuperLU swaps rows:
        # a stable LU, but not an LDL^T, so diag(U) carries no inertia
        g = dl.make_grid(2, 1, 10)
        op = dl.assemble(g, _alloy_field(dl.identity_field(g), 5))
        e = op.matrix.diagonal()[0]
        lu = _superlu(op, e)
        assert lu.perm_c[0] == 0 and not np.array_equal(lu.perm_r, lu.perm_c)
        assert _ldl_count(op, e) is None
        assert dl.count_eigenvalues(op, e) == _dense_ldl_count(op, e)

    def test_unstable_factorization_falls_back(self):
        # a first pivot of relative size 1e-9 clears the near-zero tolerance, but the
        # element growth it causes shows in the backward error of the solve
        g = dl.make_grid(2, 1, 10)
        op = dl.assemble(g, _alloy_field(dl.identity_field(g), 5))
        e = op.matrix.diagonal()[0] * (1 - 1e-9)
        lu = _superlu(op, e)
        assert lu.perm_c[0] == 0 and np.array_equal(lu.perm_r, lu.perm_c)
        assert np.abs(lu.U.diagonal()).min() > spectral._zero_tol(op, np.array([e]))[0]
        assert _ldl_count(op, e) is None
        assert dl.count_eigenvalues(op, e) == _dense_ldl_count(op, e)

    def test_singular_schur_block_is_counted(self):
        # E at an eigenvalue of the first 16-node slab makes S_0 singular while
        # H - E is not: the count stays exact, not shifted
        g = dl.make_grid(1, 1, 34)
        op = dl.assemble(g, dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(3 * p[:, 0])))
        exact = np.linalg.eigvalsh(op.dense())
        for e in np.linalg.eigvalsh(op.dense()[:16, :16])[[0, 7, 15]]:
            assert np.abs(exact - e).min() > 1e-6 * exact.max()
            assert dl.count_eigenvalues(op, e) == int(np.count_nonzero(exact <= e))

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_1d_scalar_pivots_match_dense_ldl(self, bc):
        g = dl.make_grid(1, 2, 32, bc=bc)
        for seed in range(4):
            op = dl.assemble(g, _alloy_field(dl.identity_field(g), seed))
            top = 1.1 * np.abs(op.dense()).sum(axis=1).max()
            energies = np.random.default_rng(seed).uniform(0.0, top, size=8)
            counts = dl.count_eigenvalues(op, energies)
            assert counts.tolist() == [_dense_ldl_count(op, e) for e in energies]

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_1d_zero_pivots_are_counted(self, bc):
        # E = H_00 makes the first pivot exactly zero; an eigenvalue of a leading
        # principal block makes a later one zero; H - E itself stays regular
        g = dl.make_grid(1, 2, 32, bc=bc)
        op = dl.assemble(g, _alloy_field(dl.identity_field(g), 7))
        dense = op.dense()
        exact = np.linalg.eigvalsh(dense)
        block = np.linalg.eigvalsh(dense[:21, :21])[[0, 10, 20]]
        for e in np.r_[dense[0, 0], block]:
            assert np.abs(exact - e).min() > 1e-6 * exact.max()
            count = dl.count_eigenvalues(op, e)
            assert count == int(np.count_nonzero(exact <= e)) == _dense_ldl_count(op, e)

    def test_1d_operator_must_be_tridiagonal(self):
        g = dl.make_grid(1, 1, 8)
        mat = dl.assemble(g, dl.identity_field(g)).matrix.tolil()
        mat[0, 2] = mat[2, 0] = -1.0
        op = DiscreteOperator(grid=g, matrix=mat.tocsr())
        with pytest.raises(ValueError, match="three central diagonals"):
            dl.count_eigenvalues(op, 10.0)
        with pytest.raises(ValueError, match="three central diagonals"):
            dl.window_eigenvalues(op, 0.0, 100.0, 1)

    def test_no_size_cap(self):
        # 95 x 95 = 9025 unknowns, over the former dense limit of 8000
        g = dl.make_grid(2, 4, 24)
        op = dl.assemble(g, dl.identity_field(g))
        assert op.dim == 9025
        exact = _dirichlet_stencil_energies(4, 24, 2, op.dim)
        levels = np.unique(exact.round(9))
        mids = 0.5 * (levels[:-1] + levels[1:])
        energies = mids[[0, 40, 400, 2000, len(mids) - 1]]
        expected = [int(np.count_nonzero(exact <= e)) for e in energies]
        assert dl.count_eigenvalues(op, energies).tolist() == expected

    def test_matches_eigensolve_on_varied_fields(self):
        rng = np.random.default_rng(10)
        g = dl.make_grid(1, 2, 24)
        for _ in range(5):
            c = 1.0 + rng.random()
            f = dl.sampled_field(g, lambda p, c=c: c + 0.3 * np.sin(2 * np.pi * p[:, 0]))
            op = dl.assemble(g, f)
            spec = dl.eigensolve(op, k=op.dim)
            for e in rng.uniform(0, 40, size=4):
                assert dl.count_eigenvalues(op, e) == int(np.sum(spec.energies <= e))


class TestWindowEigenvalues:
    def _op(self):
        g = dl.make_grid(2, 1, 12)
        return dl.assemble(g, _alloy_field(_offdiag_field(g), 3))

    def test_matches_full_eigensolve_in_window(self):
        op = self._op()
        full = dl.eigensolve(op, k=op.dim).energies
        for lo, hi in ((20.0, 80.0), (150.0, 160.0), (0.0, 5.0)):
            expected = dl.count_eigenvalues(op, hi) - dl.count_eigenvalues(op, lo)
            got = dl.window_eigenvalues(op, lo, hi, expected)
            want = full[(full > lo) & (full <= hi)]
            assert got.size == want.size == expected
            assert np.abs(got - want).max(initial=0.0) <= 1e-9 * max(1.0, abs(hi))

    def test_wrong_expected_count_raises(self):
        op = self._op()
        lo, hi = 20.0, 80.0
        expected = dl.count_eigenvalues(op, hi) - dl.count_eigenvalues(op, lo)
        assert expected > 0
        for wrong in (expected - 1, expected + 1):
            with pytest.raises(EigensolveError, match="Ritz values"):
                dl.window_eigenvalues(op, lo, hi, wrong)

    def test_ghost_copy_raises(self, monkeypatch):
        # a Lanczos ghost: one window eigenpair returned twice, another one missed,
        # so residuals and the count both look right
        op = self._op()
        lo, hi = 20.0, 80.0
        evals, evecs = np.linalg.eigh(op.dense())
        inside = np.nonzero((evals > lo) & (evals <= hi))[0]
        assert inside.size >= 2
        pick = np.r_[inside[0], inside[0], inside[2:], inside[-1] + 1, inside[-1] + 2]
        monkeypatch.setattr(spectral, "_eigsh", lambda *a, **kw: (evals[pick], evecs[:, pick]))
        with pytest.raises(EigensolveError, match="orthonormal"):
            dl.window_eigenvalues(op, lo, hi, inside.size)

    def _op_1d(self):
        g = dl.make_grid(1, 2, 32)
        return dl.assemble(g, _alloy_field(dl.identity_field(g), 3))

    def test_1d_matches_dense_eigh_in_window(self):
        op = self._op_1d()
        full = np.linalg.eigvalsh(op.dense())
        for lo, hi in ((20.0, 200.0), (3000.0, 3100.0), (0.0, 5.0), (0.0, 1e5)):
            expected = dl.count_eigenvalues(op, hi) - dl.count_eigenvalues(op, lo)
            got = dl.window_eigenvalues(op, lo, hi, expected)
            want = full[(full > lo) & (full <= hi)]
            assert got.size == want.size == expected
            assert np.abs(got - want).max(initial=0.0) <= 1e-9 * max(1.0, abs(hi))

    def test_1d_wrong_expected_count_raises(self):
        op = self._op_1d()
        lo, hi = 20.0, 200.0
        expected = dl.count_eigenvalues(op, hi) - dl.count_eigenvalues(op, lo)
        assert expected > 0
        for wrong in (expected - 1, expected + 1):
            with pytest.raises(EigensolveError, match="Ritz values"):
                dl.window_eigenvalues(op, lo, hi, wrong)

    def test_1d_solver_failure_raises(self, monkeypatch):
        op = self._op_1d()
        dstevd = scipy.linalg.lapack.dstevd
        monkeypatch.setattr(scipy.linalg.lapack, "dstevd",
                            lambda d, e: (*dstevd(d, e)[:2], 3))
        with pytest.raises(EigensolveError, match="dstevd"):
            dl.window_eigenvalues(op, 20.0, 200.0, 2)

    def test_1d_ghost_copy_raises(self, monkeypatch):
        # one window eigenpair in place of its neighbour: residuals and the count
        # both look right, only orthonormality catches it
        op = self._op_1d()
        lo, hi = 20.0, 200.0
        expected = dl.count_eigenvalues(op, hi) - dl.count_eigenvalues(op, lo)
        evals, evecs, _ = scipy.linalg.lapack.dstevd(op.matrix.diagonal(), op.matrix.diagonal(1))
        inside = np.nonzero((evals > lo) & (evals <= hi))[0]
        assert inside.size == expected >= 2
        evals[inside[1]], evecs[:, inside[1]] = evals[inside[0]], evecs[:, inside[0]]
        monkeypatch.setattr(scipy.linalg.lapack, "dstevd", lambda d, e: (evals, evecs, 0))
        with pytest.raises(EigensolveError, match="orthonormal"):
            dl.window_eigenvalues(op, lo, hi, expected)

    def test_whole_spectrum_on_a_small_operator(self):
        g = dl.make_grid(1, 1, 6)
        op = dl.assemble(g, dl.identity_field(g))
        exact = _dirichlet_stencil_energies(1, 6, 1, op.dim)
        got = dl.window_eigenvalues(op, 0.0, 1e3, op.dim)
        assert np.abs(got - exact).max() <= 1e-9 * exact.max()


class TestMonotonicity:
    def test_eigenvalues_monotone_in_field(self):
        g = dl.make_grid(1, 2, 24)
        f1 = dl.sampled_field(g, lambda p: 1 + 0.2 * np.sin(np.pi * p[:, 0]))
        bump = dl.cutoff(g, [0.3], 0.2)
        f2 = dl.sampled_field(g, lambda p: (1 + 0.2 * np.sin(np.pi * p[:, 0])) + 0.7 * bump(p))
        e1 = dl.eigensolve(dl.assemble(g, f1), k=6).energies
        e2 = dl.eigensolve(dl.assemble(g, f2), k=6).energies
        assert np.all(e2 >= e1 - 1e-11)


class TestLiftingCurve:
    def test_identity_w_gives_exact_linear_rows(self):
        g = dl.make_grid(1, 1, 32)
        f = dl.identity_field(g)
        curve = dl.lifting_curve(g, f, 1.0, t_max=1.0, t_steps=5, indices=[0, 1])
        e0 = curve.energies[:, :1]
        expected = e0 * (1.0 + curve.ts)[None, :]
        assert np.allclose(curve.energies, expected, rtol=1e-12)

    def test_zero_w_gives_flat_rows(self):
        g = dl.make_grid(1, 1, 32)
        curve = dl.lifting_curve(g, dl.identity_field(g), 0.0, 1.0, 4, [0, 1])
        assert np.allclose(curve.energies, curve.energies[:, :1], rtol=1e-13)
        assert np.allclose(curve.hf_values, 0.0, atol=1e-15)

    def test_left_half_slope_matches_halved_energy(self):
        # psi1 = sqrt(2) cos(pi x): the left half carries half the gradient energy
        g = dl.make_grid(1, 1, 64)
        w = dl.ScalarField(fn=lambda p: (p[:, 0] < 0).astype(float))
        curve = dl.lifting_curve(g, dl.identity_field(g), w, 1e-3, 2, [0])
        assert curve.hf_values[0, 0] == pytest.approx(math.pi**2 / 2, rel=0.05)

    def test_rows_nondecreasing_for_nonnegative_w(self):
        g = dl.make_grid(1, 2, 32)
        f = dl.sampled_field(g, lambda p: 1 + 0.4 * np.sin(np.pi * p[:, 0]))
        seq = dl.equidistributed_sequence(g, 1.0, 0.3)
        curve = dl.lifting_curve(g, f, dl.ball_plateau_field(seq), 1.0, 6, [0, 1, 2])
        assert np.all(np.diff(curve.energies, axis=1) >= -1e-11)


class TestHellmannFeynman:
    def test_unit_w_reproduces_rayleigh_energy(self):
        g = dl.make_grid(1, 1, 48)
        op = dl.assemble(g, dl.identity_field(g))
        spec = dl.eigensolve(op, k=3)
        for i in range(3):
            e, psi = spec.pair(i)
            assert dl.hf_derivative(op, e, psi, 1.0) == pytest.approx(e, rel=1e-12)
            assert dl.hf_derivative(op, e, psi, 0.0) == 0.0

    def test_matches_central_difference(self):
        g = dl.make_grid(1, 2, 32)
        f = dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(np.pi * p[:, 0]))
        seq = dl.equidistributed_sequence(g, 1.0, 0.3)
        w = dl.ball_plateau_field(seq)
        base = dl.assemble(g, f)
        pert = perturbation_operator(g, w)
        t, tau = 0.4, 1e-4
        op_t = base.shifted(pert, t)
        spec = dl.eigensolve(op_t, k=3)
        for i in range(3):
            e, psi = spec.pair(i)
            hf = dl.hf_derivative(op_t, e, psi, w)
            ep = dl.eigensolve(base.shifted(pert, t + tau), k=3).energies[i]
            em = dl.eigensolve(base.shifted(pert, t - tau), k=3).energies[i]
            fd = (ep - em) / (2 * tau)
            assert hf == pytest.approx(fd, rel=1e-3)

    def test_form_affine_in_t(self):
        g = dl.make_grid(1, 1, 24)
        f = dl.identity_field(g)
        seq = dl.equidistributed_sequence(g, 1.0, 0.25)
        w = dl.ball_plateau_field(seq)
        base = dl.assemble(g, f)
        pert = perturbation_operator(g, w)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(g.n_nodes)
        f0 = base.form(u)
        slope = g.h * (u @ (pert @ u))
        for t in (0.1, 0.7, 2.3):
            assert base.shifted(pert, t).form(u) == pytest.approx(f0 + t * slope, rel=1e-13)

    def test_rayleigh_identity(self):
        g = dl.make_grid(2, 1, 10)
        f = dl.constant_field(g, np.array([[2.0, 0.4], [0.4, 1.0]]))
        op = dl.assemble(g, f)
        spec = dl.eigensolve(op, k=4)
        for i in range(4):
            e, psi = spec.pair(i)
            assert op.form(psi) == pytest.approx(e * g.norm2(psi), rel=1e-10)


class TestProjectorSample:
    def test_one_dimensional_span(self):
        g = dl.make_grid(1, 1, 32)
        spec = dl.eigensolve(dl.assemble(g, dl.identity_field(g)), k=3)
        psi = dl.projector_sample(spec, (spec.energies[0] - 1, spec.energies[0] + 1), 0)
        overlap = abs(psi @ spec.vectors[:, 0]) * g.h
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_empty_interval_rejected(self):
        g = dl.make_grid(1, 1, 32)
        spec = dl.eigensolve(dl.assemble(g, dl.identity_field(g)), k=3)
        with pytest.raises(ValueError):
            dl.projector_sample(spec, (1e6, 2e6), 0)

    def test_samples_unit_norm(self):
        g = dl.make_grid(1, 1, 32)
        spec = dl.eigensolve(dl.assemble(g, dl.identity_field(g)), k=5)
        out = dl.projector_sample(spec, (0.0, 1e9), 7, n_samples=1000)
        norms = np.sqrt(g.h * (out**2).sum(axis=0))
        assert np.abs(norms - 1.0).max() < 1e-10
