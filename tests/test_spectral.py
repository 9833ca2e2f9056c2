import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import divlab as dl
from divlab import cli, spectral
from divlab.operators import DiscreteOperator, perturbation_operator
from divlab.spectral import EigensolveError

from _alloy_oracle import alloy_field


def _window(op, lo, hi, expected):
    """The certified eigenvalues in (lo, hi]: the energies of `eigenpairs`."""
    return dl.eigenpairs(op, lo, hi, expected).energies


def _laplacian_energies(d, L, n, bc):
    """Every eigenvalue of the identity-field operator, in closed form: the sums over
    axes of (2 - 2 cos(pi j / M)) / h^2, with j = 1..N-1 and M = N under Dirichlet
    conditions and j = 0..N and M = N + 1 under Neumann conditions (N = L n cells
    per side)."""
    cells = L * n
    j, m = (np.arange(1, cells), cells) if bc == "dirichlet" else (np.arange(cells + 1), cells + 1)
    per_axis = (2 - 2 * np.cos(np.pi * j / m)) * n**2
    mesh = per_axis
    for _ in range(d - 1):
        mesh = np.add.outer(mesh, per_axis).ravel()
    return np.sort(mesh)


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
    return alloy_field(model, dl.sample_alloy(model, seed))


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


_CLOSED_FORM_ENERGIES = np.array([30.0, 100.0])


def _closed_form_operator(d, L, n, bc, expected, gap):
    """The identity-field operator, after checking its closed-form counts at
    _CLOSED_FORM_ENERGIES and that every eigenvalue lies far from each energy:
    1e9 eps ||H||, far outside the count's tol and its ambiguity radius unless
    the element growth passes 1e8."""
    g = dl.make_grid(d, L, n, bc=bc)
    op = dl.assemble(g, dl.identity_field(g))
    exact = _laplacian_energies(d, L, n, bc)
    assert exact.size == op.dim
    assert [int(np.count_nonzero(exact <= e)) for e in _CLOSED_FORM_ENERGIES] == expected
    dist = np.abs(exact[:, None] - _CLOSED_FORM_ENERGIES).min()
    assert dist == pytest.approx(gap, rel=0.05)
    assert dist > 1e9 * np.finfo(float).eps * abs(op.matrix).sum(1).max()
    return op


def _first_pivot(op):
    """The node a multiple minimum degree order of H (on the pattern of H + H^T)
    eliminates first, at every energy: an energy H_ff puts a zero pivot first."""
    lu = scipy.sparse.linalg.splu(op.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                  diag_pivot_thresh=0, options={"SymmetricMode": True})
    return int(np.flatnonzero(lu.perm_c == 0)[0])


def _recording(monkeypatch, module, name):
    """Replace module.name by a wrapper and return the list its calls append to."""
    calls, wrapped = [], getattr(module, name)

    def record(*args, **kwargs):
        calls.append(1)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(module, name, record)
    return calls


def _failing_dstemr(*args, **kwargs):
    """`lapack.dstemr` returning info = 22, as it does on an exact multiplet."""
    m, w, z, _ = _DSTEMR(*args, **kwargs)
    return m, w, z, 22


_DSTEMR = scipy.linalg.lapack.dstemr


class TestEigensolve:
    def test_1d_closed_form(self):
        g = dl.make_grid(1, 1, 64)
        spec = dl.eigensolve(dl.assemble(g, dl.identity_field(g)), k=5)
        exact = _laplacian_energies(1, 1, 64, "dirichlet")[:5]
        assert np.abs(spec.energies - exact).max() / exact.max() < 1e-12

    def test_2d_closed_form_small(self):
        g = dl.make_grid(2, 1, 12)
        spec = dl.eigensolve(dl.assemble(g, dl.identity_field(g)), k=6)
        exact = _laplacian_energies(2, 1, 12, "dirichlet")[:6]
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
        exact = _laplacian_energies(2, 1, 48, "dirichlet")[:4]
        assert np.abs(s1.energies - exact).max() / exact.max() < 1e-10

    def test_bad_arguments(self):
        g = dl.make_grid(1, 1, 8)
        op = dl.assemble(g, dl.identity_field(g))
        with pytest.raises(ValueError):
            dl.eigensolve(op, k=0)
        with pytest.raises(ValueError):
            dl.eigensolve(op, k=100)

    def test_ghost_copy_raises(self, monkeypatch):
        # an uncertified solve passes the same certificate on (-inf, inf]: the second
        # pair returned as a copy of the first has a small residual, and only
        # orthonormality catches it
        g = dl.make_grid(1, 2, 24)
        op = dl.assemble(g, dl.identity_field(g))
        dense_eigh = spectral._dense_eigh

        def ghost(op, k):
            evals, evecs = dense_eigh(op, k)
            evals[1], evecs[:, 1] = evals[0], evecs[:, 0]
            return evals, evecs

        monkeypatch.setattr(spectral, "_dense_eigh", ghost)
        with pytest.raises(EigensolveError, match="not orthonormal"):
            dl.eigensolve(op, k=4)

    @given(st.integers(1, 6), st.integers(1, 6), st.booleans(),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(-1e3, 1e3)),
                    max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_matrix_scale_reads_the_compressed_arrays(self, rows, cols, csc, entries):
        # empty rows or columns (where reduceat repeats a neighbour's entry) and
        # duplicate, unsorted entries (which count by their sum) included
        major, minor = (cols, rows) if csc else (rows, cols)
        lines = np.array([i % major for i, _, _ in entries], dtype=int)
        order = np.argsort(lines, kind="stable")  # within a line, the drawn order
        indices = np.array([j % minor for _, j, _ in entries], dtype=int)[order]
        data = np.array([v for _, _, v in entries], dtype=float)[order]
        indptr = np.r_[0, np.cumsum(np.bincount(lines, minlength=major))]
        fmt = scipy.sparse.csc_matrix if csc else scipy.sparse.csr_matrix
        mat = fmt((data, indices, indptr), shape=(rows, cols))
        got = spectral._matrix_scale(mat)
        assert np.array_equal(mat.data, data) and np.array_equal(mat.indices, indices)
        assert got == float(abs(mat).sum(axis=0 if csc else 1).max())

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_1d_dense_solve_reads_the_bands(self, monkeypatch, bc):
        # MRRR on the bands gives eigh's pairs bit for bit, so every k does; a
        # lifting_curve operator H(A + t w Id) included
        g = dl.make_grid(1, 4, 16, bc=bc)
        sine = dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(3 * p[:, 0]))
        ops = [dl.assemble(g, sine), dl.assemble(g, dl.checkerboard_field(g, 1.0, 3.0))]
        w = dl.as_scalar_field(lambda p: 1.0 + np.cos(p[:, 0]))
        ops.append(ops[0].shifted(perturbation_operator(g, w), 0.7))
        calls = _recording(monkeypatch, scipy.linalg.lapack, "dstemr")
        reductions = _recording(monkeypatch, scipy.linalg.lapack, "dsytrd")
        for op in ops:
            evals, evecs = spectral._dense_eigh(op, op.dim)
            want_evals, want_evecs = scipy.linalg.eigh(op.dense())
            assert np.array_equal(evals, want_evals) and np.array_equal(evecs, want_evecs)
        assert len(calls) == len(ops) and not reductions

    def test_1d_dense_solve_falls_back_to_eigh(self, monkeypatch):
        g = dl.make_grid(1, 2, 16)
        op = dl.assemble(g, dl.identity_field(g))
        want = dl.eigensolve(op, k=4)
        monkeypatch.setattr(scipy.linalg.lapack, "dstemr", _failing_dstemr)
        calls = _recording(monkeypatch, scipy.linalg, "eigh")
        spec = dl.eigensolve(op, k=4)
        assert calls
        assert np.array_equal(spec.energies, want.energies)
        assert np.array_equal(spec.vectors, want.vectors)

    def test_1d_dense_solve_of_a_csr_matrix_with_bands_left_out(self, monkeypatch):
        # a diagonal matrix stores no subdiagonal, an entry dropped after it cancelled
        # leaves a gap in one band: both are zeros, as in op.dense(), and the banded
        # solve still gives eigh's pairs; so are a zero stored below the subdiagonal and
        # two duplicate entries there that cancel, by the band rule of the 1D count,
        # which reads their bands too; an entry below the subdiagonal takes the
        # reduction to a tridiagonal, as d >= 2 does
        g = dl.make_grid(1, 2, 16)
        base = dl.assemble(g, dl.identity_field(g)).matrix
        gap = base.tolil()
        gap[4, 3] = gap[3, 4] = 0.0
        wide = base.tolil()
        wide[2, 0] = wide[0, 2] = -1.0
        coo = base.tocoo()

        def listed(rows, cols, vals):  # base and these entries, duplicates left unsummed
            r, c = np.r_[coo.row, rows], np.r_[coo.col, cols]
            order = np.argsort(r, kind="stable")
            indptr = np.r_[0, np.cumsum(np.bincount(r, minlength=base.shape[0]))]
            return scipy.sparse.csr_matrix((np.r_[coo.data, vals][order], c[order], indptr),
                                           shape=base.shape)

        stored_zero = listed([5, 2], [2, 5], [0.0, 0.0])
        cancelled = listed([7, 7, 0, 0], [0, 0, 7, 7], [1.5, -1.5, 1.5, -1.5])
        assert stored_zero.nnz == base.nnz + 2 and not cancelled.has_canonical_format
        mats = [scipy.sparse.diags(np.arange(1.0, base.shape[0] + 1), format="csr"),
                gap.tocsr(), stored_zero, cancelled, wide.tocsr()]
        mats[1].eliminate_zeros()
        calls = _recording(monkeypatch, scipy.linalg.lapack, "dsytrd")
        for mat in mats:
            op = DiscreteOperator(grid=g, matrix=mat)
            spec = dl.eigensolve(op, k=4)
            evals, evecs = scipy.linalg.eigh(op.dense())
            assert np.array_equal(spec.energies, evals[:4])
            assert np.array_equal(spec.vectors, spectral._fix_signs(
                evecs[:, :4] / g.h ** 0.5))
            if mat is stored_zero or mat is cancelled:
                assert dl.count_eigenvalues(op, evals[3] + 1e-6) == 4
        assert len(calls) == 1

    @pytest.mark.parametrize("d, L, n, bc", [(2, 1, 10, "dirichlet"), (2, 1, 12, "neumann"),
                                             (2, 2, 8, "dirichlet"), (3, 1, 6, "neumann"),
                                             (3, 2, 4, "dirichlet")])
    def test_dense_solve_of_d2_d3_equals_eigh(self, monkeypatch, d, L, n, bc):
        # every eigenvalue bit for bit; the k returned vectors, back-transformed alone,
        # within 1e-14 of eigh's and h^d-orthonormal; sine, checkerboard and constant
        # fields with off-diagonal entries, so every dstemr call succeeds
        g = dl.make_grid(d, L, n, bc=bc)
        fields = [dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(3 * p[:, 0])),
                  dl.checkerboard_field(g, 1.0, 3.0),
                  dl.constant_field(g, np.eye(d) + 0.3 * (np.ones((d, d)) - np.eye(d)))]
        columns = []
        dormqr = scipy.linalg.lapack.dormqr
        monkeypatch.setattr(scipy.linalg.lapack, "dormqr", lambda *args: (
            columns.append(args[4].shape[1]) or dormqr(*args)))
        for field, k in zip(fields, (1, 3, 5)):
            op = dl.assemble(g, field)
            want_evals, want_evecs = scipy.linalg.eigh(op.dense())
            evals, evecs = spectral._dense_eigh(op, k)
            assert np.array_equal(evals, want_evals[:k])
            assert np.abs(evecs - want_evecs[:, :k]).max() <= 1e-14
            spec = dl.eigensolve(op, k)
            assert np.array_equal(spec.energies, want_evals[:k])
            gram = spec.vectors.T @ spec.vectors * g.h**d
            assert np.abs(gram - np.eye(k)).max() <= 1e-13
        # each back-transformation took the k returned columns alone, and none fell back
        assert columns == [1, 1, 3, 3, 5, 5]

    def test_dense_solve_of_the_whole_spectrum_is_eigh(self):
        g = dl.make_grid(2, 1, 12)
        op = dl.assemble(g, _offdiag_field(g))
        evals, evecs = spectral._dense_eigh(op, op.dim)
        want_evals, want_evecs = scipy.linalg.eigh(op.dense())
        assert np.array_equal(evals, want_evals) and np.array_equal(evecs, want_evecs)

    @pytest.mark.parametrize("d, n", [(1, 64), (2, 12)])
    def test_dense_solve_keeps_no_n_by_n_array(self, d, n):
        # dstemr returns all n vectors: the spectrum's k columns are an array of their
        # own, not a view that keeps the n x n one alive
        g = dl.make_grid(d, 1, n)
        spec = dl.eigensolve(dl.assemble(g, dl.sampled_field(
            g, lambda p: 1 + 0.5 * np.sin(3 * p[:, 0]))), k=3)
        assert spec.complete and spec.vectors.base is None

    @pytest.mark.parametrize("d, n, bc", [(2, 10, "dirichlet"), (3, 6, "dirichlet"),
                                          (2, 16, "neumann")])
    def test_identity_field_multiplets_fall_back_to_eigh(self, monkeypatch, d, n, bc):
        # the exact multiplets of the identity field's Laplacian stop dstemr, and
        # the pairs are eigh's own, bit for bit
        g = dl.make_grid(d, 1, n, bc=bc)
        op = dl.assemble(g, dl.identity_field(g))
        infos = []

        def dstemr(*args):
            out = _DSTEMR(*args)
            infos.append(out[3])
            return out

        monkeypatch.setattr(scipy.linalg.lapack, "dstemr", dstemr)
        evals, evecs = spectral._dense_eigh(op, 4)
        want_evals, want_evecs = scipy.linalg.eigh(op.dense())
        assert infos[0] > 0
        assert np.array_equal(evals, want_evals[:4]) and np.array_equal(evecs, want_evecs[:, :4])

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
    def test_slab_path_matches_dense_ldl(self, monkeypatch, d, L, n, bc, kind):
        # the Schur update is elementwise when every layer coupling is diagonal (the
        # identity and its alloys) and a BLAS product otherwise (off-diagonal fields)
        op, energies, oracle = _count_matrix(d, L, n, bc, kind)
        calls = _recording(monkeypatch, scipy.linalg.blas, "dgemm")
        assert dl.count_eigenvalues(op, energies).tolist() == oracle
        if d == 1:  # a Sturm sweep: no slab, no Schur update
            assert not calls
            return
        diag, coup, _ = spectral._slab_blocks(op)
        assert diag.shape[0] > 1  # premise: a Schur update per slab after the first
        general = spectral._coupling_diagonals(coup) is None
        assert general == ("offdiag" in kind)
        assert len(calls) == (energies.size * (diag.shape[0] - 1) if general else 0)

    @pytest.mark.parametrize("d, L, n, bc", [(2, 1, 6, "dirichlet"), (2, 2, 5, "neumann"),
                                             (3, 1, 4, "dirichlet"), (3, 1, 4, "neumann")])
    def test_closed_form_matches_dense(self, d, L, n, bc):
        g = dl.make_grid(d, L, n, bc=bc)
        dense = np.linalg.eigvalsh(dl.assemble(g, dl.identity_field(g)).dense())
        exact = _laplacian_energies(d, L, n, bc)
        assert np.abs(exact - dense).max() <= 1e-14 * dense.max()

    # (L, n, bc, counts at E = 30 and 100, smallest distance from E to the spectrum):
    # 3D sizes a dense oracle cannot reach, the Neumann one with its zero mode
    @pytest.mark.parametrize("L, n, bc, expected, gap", [
        (2, 8, "dirichlet", [11, 105], 0.031),   # dim 3375
        (2, 8, "neumann", [51, 247], 0.0048),    # dim 4913
        (2, 12, "dirichlet", [11, 96], 0.56),    # dim 12167
    ])
    def test_sparse_count_matches_closed_form_in_3d(self, monkeypatch, L, n, bc, expected,
                                                    gap):
        # one energy at a time, and every Schur update elementwise: the identity
        # field's layer couplings are diagonal, so the BLAS branch must not run
        op = _closed_form_operator(3, L, n, bc, expected, gap)
        calls = _recording(monkeypatch, scipy.linalg.blas, "dgemm")
        assert [dl.count_eigenvalues(op, e) for e in _CLOSED_FORM_ENERGIES] == expected
        assert not calls

    # (d, L, n, bc, counts at E = 30 and 100, smallest distance from E to the spectrum)
    @pytest.mark.parametrize("d, L, n, bc, expected, gap", [
        (3, 2, 8, "dirichlet", [11, 105], 0.031),   # dim 3375
        (3, 2, 8, "neumann", [51, 247], 0.0048),    # dim 4913
        (2, 8, 16, "dirichlet", [139, 496], 0.084),  # dim 16129, the ucp_2d grid
    ])
    def test_slab_count_matches_closed_form(self, d, L, n, bc, expected, gap):
        op = _closed_form_operator(d, L, n, bc, expected, gap)
        assert dl.count_eigenvalues(op, _CLOSED_FORM_ENERGIES).tolist() == expected

    @pytest.mark.parametrize("d, L, n, bc, kind",
                             [m for m in COUNT_MATRICES if m[0] >= 2]
                             + [(2, 2, 12, "dirichlet", "alloy")])  # dim 529
    def test_slab_count_is_eigenvalues_up_to_e_plus_tol(self, monkeypatch, d, L, n, bc, kind):
        # E at every eigenvalue and 0.1 tol below each, so E + tol lies tol or 0.9 tol
        # above it; at some of these energies the recursion's element growth reaches
        # 9e10 ||H - E|| (E + tol near an eigenvalue of a leading block of slabs)
        op = _count_matrix(d, L, n, bc, kind)[0]
        exact = np.linalg.eigvalsh(op.dense())
        dsytrf, blocks = scipy.linalg.lapack.dsytrf, []

        def recording(a, **kw):
            ldu, piv, info = dsytrf(a, **kw)
            blocks.append(np.count_nonzero(piv < 0) // 2)
            return ldu, piv, info

        monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", recording)
        for energies in (exact, exact - 0.1 * spectral._zero_tol(op, exact)):
            top = energies + spectral._zero_tol(op, energies)
            want = np.count_nonzero(exact[None, :] <= top[:, None], axis=1)
            assert dl.count_eigenvalues(op, energies).tolist() == want.tolist()
        assert sum(blocks) > 0  # premise: the counts went through 2x2 pivot blocks

    def test_diagonal_and_general_schur_updates_agree(self, monkeypatch):
        # E at every eigenvalue and 0.1 tol below each, as above, on a dim 529 alloy
        g = dl.make_grid(2, 2, 12)
        op = dl.assemble(g, _alloy_field(dl.identity_field(g), 5))
        exact = np.linalg.eigvalsh(op.dense())
        energies = np.r_[exact, exact - 0.1 * spectral._zero_tol(op, exact)]
        calls = _recording(monkeypatch, scipy.linalg.blas, "dgemm")
        diagonal = dl.count_eigenvalues(op, energies)
        assert not calls
        monkeypatch.setattr(spectral, "_coupling_diagonals", lambda coup: None)
        general = dl.count_eigenvalues(op, energies)
        assert calls  # premise: the second pass took the BLAS branch
        assert general.tolist() == diagonal.tolist()

    # (d, L, n, bc, field): a 2D and a 3D alloy; a constant field with off-diagonal
    # entries, whose layer couplings are not diagonal (the BLAS update); layers of 7
    # and 9 unknowns, below _MIN_SLAB, so a slab spans several layers and the last
    # slab is short (49 = 2*21 + 7, 27 = 18 + 9)
    @pytest.mark.parametrize("d, L, n, bc, kind", [
        (2, 2, 8, "dirichlet", "alloy"), (3, 1, 6, "neumann", "alloy"),
        (2, 2, 6, "neumann", "constant-offdiag"), (3, 1, 4, "dirichlet", "constant-offdiag"),
        (2, 1, 8, "dirichlet", "alloy"), (3, 1, 4, "dirichlet", "alloy")])
    def test_one_sweep_equals_the_scalar_counts(self, d, L, n, bc, kind):
        g = dl.make_grid(d, L, n, bc=bc)
        if kind == "alloy":
            field = _alloy_field(dl.identity_field(g), 3)
        else:
            field = dl.constant_field(g, np.eye(d) + 0.3 * (np.ones((d, d)) - np.eye(d)))
        op = dl.assemble(g, field)
        diag, coup, layer = spectral._slab_blocks(op)
        assert (spectral._coupling_diagonals(coup) is None) == (kind != "alloy")
        if layer < spectral._MIN_SLAB:  # premise: several layers per slab, a short last one
            assert diag.shape[1] > layer and op.dim % diag.shape[1]
        exact = np.linalg.eigvalsh(op.dense())
        picks = np.random.default_rng(d * 10 + n).uniform(0.0, 1.1 * exact[-1], size=4)
        energies = picks[[2, 0, 3, 0, 1, 2]]  # unsorted, with repeats
        counts = dl.count_eigenvalues(op, energies)
        assert counts.tolist() == [dl.count_eigenvalues(op, e) for e in energies]
        assert counts.tolist() == [int(np.count_nonzero(exact <= e)) for e in energies]
        assert dl.count_eigenvalues(op, []).tolist() == []

    def test_breakdown_names_the_first_failing_energy_and_its_slab(self, monkeypatch):
        # with tol = 0, an energy equal to an entry of a diagonal H leaves an exactly
        # zero pivot in that entry's slab; the error names the first failing energy in
        # the order given and its slab, as a count of that energy alone would
        g = dl.make_grid(2, 1, 8)  # 49 unknowns: slabs of 21, 21 and 7
        values = np.arange(1.0, 50.0)
        op = DiscreteOperator(grid=g, matrix=scipy.sparse.diags(values, format="csr"))
        monkeypatch.setattr(spectral, "_zero_tol", lambda op, energies: 0.0 * energies)
        assert dl.count_eigenvalues(op, [0.5, 20.5]).tolist() == [0, 20]
        for energies, e, slab in (([100.0, 46.0, 4.0], 46, 2), ([4.0, 46.0], 4, 0),
                                  ([30.0], 30, 1)):
            with pytest.raises(EigensolveError, match=f"slab count at E = {e}: exactly zero "
                                                      f"or unsplit pivot block in slab {slab}"):
                dl.count_eigenvalues(op, energies)

    def test_more_energies_than_one_sweep_takes(self, monkeypatch):
        # 20 energies on 3 slabs: sweeps of 8, 8 and 4 energies
        g = dl.make_grid(2, 1, 8)  # 49 unknowns: slabs of 21, 21 and 7
        op = dl.assemble(g, _alloy_field(dl.identity_field(g), 3))
        assert spectral._slab_blocks(op)[0].shape[0] == 3
        exact = np.linalg.eigvalsh(op.dense())
        energies = np.random.default_rng(20).uniform(0.0, 1.1 * exact[-1], size=20)
        counts = dl.count_eigenvalues(op, energies)
        assert counts.tolist() == [dl.count_eigenvalues(op, e) for e in energies]
        assert counts.tolist() == [int(np.count_nonzero(exact <= e)) for e in energies]
        # the breakdown names the first failing energy in the order given, whichever
        # sweep holds it (tol = 0 and a diagonal H, as above)
        diagonal = DiscreteOperator(grid=g, matrix=scipy.sparse.diags(np.arange(1.0, 50.0),
                                                                      format="csr"))
        monkeypatch.setattr(spectral, "_zero_tol", lambda op, energies: 0.0 * energies)
        energies = np.arange(20) * 2.5 + 0.25  # no entry of H
        assert dl.count_eigenvalues(diagonal, energies).tolist() == np.floor(energies).tolist()
        for fails, e, slab in (({10: 30.0, 17: 4.0}, 30, 1), ({18: 46.0}, 46, 2),
                               ({3: 22.0, 12: 5.0}, 22, 1)):
            hit = energies.copy()
            hit[list(fails)] = list(fails.values())
            with pytest.raises(EigensolveError, match=f"slab count at E = {e}: exactly zero "
                                                      f"or unsplit pivot block in slab {slab}"):
                dl.count_eigenvalues(diagonal, hit)

    def test_energy_at_a_2d_double_eigenvalue_counts_one_of_the_pair(self):
        # one alloy site at the centre: a symmetric field with the double eigenvalue
        # lambda_1 = lambda_2, which a combination of the pair vanishing on the middle
        # layer shares with a leading block of slabs, so the element growth of the slab
        # count reaches 6e12 ||H - E||; there it takes one of the pair, the dense LDL^T
        # both
        g = dl.make_grid(2, 1, 10)
        op = dl.assemble(g, _alloy_field(dl.identity_field(g), 5))
        exact = np.linalg.eigvalsh(op.dense())
        assert exact[2] - exact[1] < 1e-12 * exact[2]
        energies = exact[[0, 1, 10, 40]]
        counts = dl.count_eigenvalues(op, energies)
        dense = [_dense_ldl_count(op, e) for e in energies]
        assert counts.tolist() == [1, 2, 11, 41] and dense == [1, 3, 11, 41]

    def test_energy_at_a_diagonal_entry_counts_as_the_dense_ldl(self):
        # E = H_ff, a diagonal entry of H, puts an exactly zero entry on the diagonal of
        # H - E (f is the node a minimum-degree order eliminates first); the slab count
        # still equals the dense LDL^T
        g = dl.make_grid(2, 1, 10)
        op = dl.assemble(g, _alloy_field(dl.identity_field(g), 5))
        e = op.matrix.diagonal()[_first_pivot(op)]
        assert dl.count_eigenvalues(op, e) == _dense_ldl_count(op, e)

    def test_energy_near_a_diagonal_entry_counts_as_the_dense_ldl(self):
        # E within 1e-9 relative of H_ff leaves a diagonal entry of H - E that small;
        # the slab count still equals the dense LDL^T
        g = dl.make_grid(2, 1, 10)
        op = dl.assemble(g, _alloy_field(dl.identity_field(g), 5))
        e = op.matrix.diagonal()[_first_pivot(op)] * (1 - 1e-9)
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
            _window(op, 0.0, 100.0, 1)

    def test_a_1d_sample_reads_its_bands_once(self, monkeypatch):
        # the count and the window of one operator share one tridiagonal extraction
        g = dl.make_grid(1, 2, 24)
        op = dl.assemble(g, _alloy_field(dl.identity_field(g), 3))
        prop = DiscreteOperator.__dict__["tridiagonal"]
        calls = []
        read = prop.func
        monkeypatch.setattr(prop, "func", lambda self: calls.append(1) or read(self))
        c = dl.count_eigenvalues(op, [5.0, 40.0])
        _window(op, 5.0, 40.0, int(c[1] - c[0]))
        assert len(calls) == 1

    def test_zero_tolerance_reads_the_csr_arrays(self):
        # the off-diagonal maximum straight from CSR equals the one after sum_duplicates,
        # also for a matrix with duplicate entries
        g = dl.make_grid(2, 1, 6)
        op = dl.assemble(g, _offdiag_field(g))
        m, end = op.matrix, op.matrix.indptr[1]  # row 0's last entry is off the diagonal
        dup = DiscreteOperator(grid=g, matrix=scipy.sparse.csr_matrix(
            (np.insert(m.data, end, 1e3 * np.abs(m.data).max()),  # its sum sets off_max
             np.insert(m.indices, end, m.indices[end - 1]),
             np.r_[0, m.indptr[1:] + 1]), shape=m.shape))
        assert not dup.matrix.has_canonical_format
        energies = np.array([0.0, 3.0, 1e4])
        for o in (op, dup):
            ref = o.matrix.tocoo()
            ref.sum_duplicates()
            off_max = np.abs(ref.data[ref.row != ref.col]).max()
            shift = np.abs(ref.tocsr().diagonal()[None, :] - energies[:, None]).max(axis=1)
            want = spectral._ZERO_RTOL * np.maximum(max(1.0, off_max), shift)
            assert np.array_equal(spectral._zero_tol(o, energies), want)

    def test_no_size_cap(self):
        # 95 x 95 = 9025 unknowns, over the former dense limit of 8000
        g = dl.make_grid(2, 4, 24)
        op = dl.assemble(g, dl.identity_field(g))
        assert op.dim == 9025
        exact = _laplacian_energies(2, 4, 24, "dirichlet")
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


_LAWS = {"uniform": dl.CouplingDistribution("uniform", 2.0),
         "bernoulli": dl.CouplingDistribution("bernoulli", 2.0, 0.5)}


def _alloy_batch(bc, law, n_samples, n_per_side=32):
    """The operators of a 1D alloy model and a batch of its couplings (sites x samples)."""
    g = dl.make_grid(1, 2, n_per_side, bc=bc)
    seq = dl.equidistributed_sequence(g, 1.0, 0.2)
    model = dl.alloy_model(dl.identity_field(g), seq, c_minus=1.0, c_plus=2.0,
                           delta_plus=0.45, dist=law)
    rng = np.random.default_rng(5)
    omegas = np.column_stack([dl.sample_alloy(model, rng) for _ in range(n_samples)])
    return dl.alloy_operators(g, model), omegas


def _scalar_sturm(diag, off, energy, tol):
    """Reference for the batched sweep: the Sturm count of the tridiagonal H - E in
    Python floats, one pivot at a time, and the last pivot."""
    count, q = 0, 1.0
    for a, b2 in zip(diag.tolist(), [0.0] + (off * off).tolist()):
        p = (a - energy) - b2 / q
        if abs(p) <= tol:
            count, q = count + 1, -tol
        else:
            count, q = count + (p < 0), p
    return count, p


class TestTridiagonalCounts:
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("law", sorted(_LAWS))
    def test_batch_equals_per_operator_counts_and_oracle(self, bc, law):
        ops, omegas = _alloy_batch(bc, _LAWS[law], n_samples=8)
        samples = [ops.at(w) for w in omegas.T]
        # per sample, energies that zero a pivot: H_00 the first one, eigenvalues of a
        # leading block a later one; each is a generic energy for the other samples
        energies = []
        for op in samples:
            dense = op.dense()
            energies += [dense[0, 0], *np.linalg.eigvalsh(dense[:21, :21])[[0, 10, 20]]]
        top = max(np.abs(op.dense()).sum(axis=1).max() for op in samples)
        energies = np.r_[energies, np.random.default_rng(3).uniform(0.0, 1.1 * top, 6)]
        diag, off = ops.bands(omegas)
        got = spectral.tridiagonal_counts(diag, off, energies)
        assert got.shape == (len(samples), energies.size)
        clear = 0
        for j, op in enumerate(samples):
            assert np.array_equal(diag[:, j], op.tridiagonal[0])
            assert np.array_equal(off[:, j], op.tridiagonal[1])
            assert np.array_equal(got[j], dl.count_eigenvalues(op, energies))
            tols = spectral._zero_tol(op, energies)
            assert got[j].tolist() == [_scalar_sturm(diag[:, j], off[:, j], e, t)[0]
                                       for e, t in zip(energies.tolist(), tols.tolist())]
            # the oracles where no eigenvalue is near E (all-zero Bernoulli couplings
            # leave the free Laplacian, which has H_00 as an eigenvalue)
            exact = np.linalg.eigvalsh(op.dense())
            far = np.abs(exact[:, None] - energies).min(axis=0) > 1e-9 * exact.max()
            clear += far[4 * j:4 * j + 4].sum()
            assert got[j, far].tolist() == [_dense_ldl_count(op, e) for e in energies[far]]
            assert got[j, far].tolist() == [int(np.sum(exact <= e)) for e in energies[far]]
        assert clear >= 2 * len(samples)  # most zero-pivot energies are checked

    def test_each_matrix_has_its_own_zero_tolerance(self):
        # E just below an eigenvalue of matrix 0 leaves its last Sturm pivot positive,
        # between its own zero tolerance and that of matrix 1 (couplings 1e6 times
        # larger): only matrix 0's own tolerance keeps that eigenvalue out of the count
        ops, omegas = _alloy_batch("dirichlet", _LAWS["uniform"], n_samples=1, n_per_side=8)
        omegas = np.c_[omegas, 1e6 * omegas]
        diag, off = ops.bands(omegas)
        op = ops.at(omegas[:, 0])
        exact = np.linalg.eigvalsh(op.dense())
        lam = exact[exact.size // 2]
        tol = spectral._zero_tol(op, np.array([lam]))[0]
        lo, hi = lam - 1e-3, lam  # the last pivot falls from large to ~0 over (lo, hi]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            pivot = _scalar_sturm(diag[:, 0], off[:, 0], mid, 0.0)[1]
            lo, hi = (mid, hi) if pivot > 100 * tol else (lo, mid)
        e = lo
        pivot = _scalar_sturm(diag[:, 0], off[:, 0], e, 0.0)[1]
        tols = spectral._pivot_tol(np.abs(off).max(axis=0), diag, np.array([e]))[:, 0]
        assert tols[0] < pivot <= tols[1]
        assert lam - e > 1e-6 * tol
        got = spectral.tridiagonal_counts(diag, off, [e])[0, 0]
        assert got == dl.count_eigenvalues(op, e) == int(np.count_nonzero(exact <= e))


class TestWindowEigenvalues:
    def _op(self):
        g = dl.make_grid(2, 1, 12)
        return dl.assemble(g, _alloy_field(_offdiag_field(g), 3))

    def test_matches_full_eigensolve_in_window(self, monkeypatch):
        op = self._op()
        full = dl.eigensolve(op, k=op.dim).energies
        orders, splu = [], scipy.sparse.linalg.splu
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda *a, **kw: orders.append(kw.get("permc_spec")) or splu(*a, **kw))
        for lo, hi in ((20.0, 80.0), (150.0, 160.0), (0.0, 5.0)):
            expected = dl.count_eigenvalues(op, hi) - dl.count_eigenvalues(op, lo)
            got = _window(op, lo, hi, expected)
            want = full[(full > lo) & (full <= hi)]
            assert got.size == want.size == expected
            assert np.abs(got - want).max(initial=0.0) <= 1e-9 * max(1.0, abs(hi))
        # each certified window solve factors H - sigma once, in the minimum-degree order
        assert orders == ["MMD_AT_PLUS_A"] * 3

    def test_wrong_expected_count_raises(self):
        op = self._op()
        lo, hi = 20.0, 80.0
        expected = dl.count_eigenvalues(op, hi) - dl.count_eigenvalues(op, lo)
        assert expected > 0
        for wrong in (expected - 1, expected + 1):
            with pytest.raises(EigensolveError, match="Ritz values"):
                _window(op, lo, hi, wrong)

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
            _window(op, lo, hi, inside.size)

    def _op_1d(self):
        g = dl.make_grid(1, 2, 32)
        return dl.assemble(g, _alloy_field(dl.identity_field(g), 3))

    def test_1d_matches_dense_eigh_in_window(self):
        op = self._op_1d()
        full = np.linalg.eigvalsh(op.dense())
        for lo, hi in ((20.0, 200.0), (3000.0, 3100.0), (0.0, 5.0), (0.0, 1e5)):
            expected = dl.count_eigenvalues(op, hi) - dl.count_eigenvalues(op, lo)
            got = _window(op, lo, hi, expected)
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
                _window(op, lo, hi, wrong)

    def test_1d_solver_failure_raises(self, monkeypatch):
        # a pivot of T - sigma at zero, at the midpoint and at the moved shift alike
        op = self._op_1d()
        lu = spectral._band_lu

        def singular(bands, sides, sigma):
            solve, pivots = lu(bands, sides, sigma)
            pivots[:, -1] = 0.0
            return solve, pivots

        monkeypatch.setattr(spectral, "_band_lu", singular)
        with pytest.raises(EigensolveError, match="pivot within .* of zero"):
            _window(op, 20.0, 200.0, 2)

    def test_1d_inverse_iteration_failure_raises(self, monkeypatch):
        # shift-invert Lanczos that never meets its tolerance: after n steps the basis
        # spans R^n, and the solve names its failure; 63 steps fit the first basis, 127
        # take it past _WINDOW_STEPS
        monkeypatch.setattr(spectral, "_residual_tol",
                            lambda evals, scale: np.full_like(evals, 1e-300))
        for n_per_side in (32, 64):
            g = dl.make_grid(1, 2, n_per_side)
            op = dl.assemble(g, _alloy_field(dl.identity_field(g), 3))
            with pytest.raises(EigensolveError, match=f"unconverged after {op.dim} steps"):
                _window(op, 20.0, 200.0, 2)
        assert op.dim > spectral._WINDOW_STEPS

    def test_1d_ghost_copy_raises(self, monkeypatch):
        # one window eigenpair in place of its neighbour: residuals and the count
        # both look right, only orthonormality catches it
        op = self._op_1d()
        lo, hi = 20.0, 200.0
        expected = dl.count_eigenvalues(op, hi) - dl.count_eigenvalues(op, lo)
        assert expected >= 2
        ritz_test = spectral._ritz_test

        def ghost(*args):  # both copies of the first value in (lo, hi] get its one vector
            theta, x, resid, worst = ritz_test(*args)
            inside = np.flatnonzero((theta[0] > lo) & (theta[0] <= hi))
            assert inside.size == expected
            for a in (theta, x, resid):
                a[0, inside[1]] = a[0, inside[0]]
            return theta, x, resid, worst

        monkeypatch.setattr(spectral, "_ritz_test", ghost)
        with pytest.raises(EigensolveError, match="orthonormal"):
            _window(op, lo, hi, expected)

    def test_1d_batch_column_equals_its_one_column_solve(self):
        # every reduction runs along one matrix's node axis: a matrix's window, pairs
        # and failure do not depend on the batch it is solved in
        ops, omegas = _alloy_batch("dirichlet", _LAWS["uniform"], n_samples=12)
        diag, off = ops.bands(omegas)
        lo, hi = 11.0, 14.0
        expected = np.diff(spectral.tridiagonal_counts(diag, off, [lo, hi]), axis=1)[:, 0]
        assert expected.max() > 0
        windows, failures = spectral.tridiagonal_windows(diag, off, lo, hi, expected)
        assert failures == [None] * 12
        bands, sides = np.ascontiguousarray(diag.T), np.ascontiguousarray(off.T)
        ks = np.minimum(expected + 2, diag.shape[0])
        batch = spectral._window_pairs(bands, sides, spectral._band_scale(bands, sides),
                                       0.5 * (lo + hi), ks)
        for j in range(12):
            one, why = spectral.tridiagonal_windows(diag[:, j:j + 1], off[:, j:j + 1], lo, hi,
                                                    expected[j:j + 1])
            assert why == [None]
            assert np.array_equal(one[0], windows[j, :one.shape[1]], equal_nan=True)
            single = spectral._window_pairs(bands[j:j + 1], sides[j:j + 1],
                                            spectral._band_scale(bands[j:j + 1],
                                                                 sides[j:j + 1]),
                                            0.5 * (lo + hi), ks[j:j + 1])
            for got, want in zip(single[:3], batch[:3]):
                assert np.array_equal(got[0], want[j, :got.shape[1]], equal_nan=True)

    def _shifts(self, monkeypatch):
        """The shifts of every factorization of the window solve's T - sigma."""
        shifts, lu = [], spectral._band_lu

        def recorded(bands, sides, sigma):
            shifts.append(sigma.tolist())
            return lu(bands, sides, sigma)

        monkeypatch.setattr(spectral, "_band_lu", recorded)
        return shifts

    def _certifies(self, op, lo, hi):
        expected = int(np.diff(dl.count_eigenvalues(op, [lo, hi]))[0])
        assert expected > 0
        got = _window(op, lo, hi, expected)
        full = np.linalg.eigvalsh(op.dense())
        want = full[(full > lo) & (full <= hi)]
        assert got.size == want.size == expected
        assert np.abs(got - want).max() <= 1e-9 * hi

    def test_1d_midpoint_at_an_eigenvalue_moves_the_shift(self, monkeypatch):
        # T - sigma singular but for rounding: its last pivot is within _NEAR_SHIFT
        # (||T||_inf + |sigma|) of zero, so the shift moves 10 such radii down, and the
        # window certifies from the second factor
        op = self._op_1d()
        mid = float(np.linalg.eigvalsh(op.dense())[5])
        shifts = self._shifts(monkeypatch)
        self._certifies(op, mid - 40.0, mid + 40.0)
        scale = spectral._matrix_scale(op.matrix)
        assert shifts == [[mid], [mid - 10 * spectral._NEAR_SHIFT * (scale + abs(mid))]]

    def test_1d_midpoint_at_a_leading_block_eigenvalue_certifies(self, monkeypatch):
        # H_00, the eigenvalue of the leading 1 x 1 block, zeroes the first pivot of an
        # LU without pivoting; partial pivoting takes the off-diagonal entry instead, so
        # the window certifies from the one factor at the midpoint
        op = self._op_1d()
        mid = float(op.tridiagonal[0][0])
        shifts = self._shifts(monkeypatch)
        self._certifies(op, mid - 40.0, mid + 40.0)
        assert shifts == [[mid]]

    def test_1d_above_the_dense_cutoff(self, monkeypatch):
        # one 1D route at every size: 2047 unknowns, no Lanczos
        def forbidden(*args, **kwargs):
            raise AssertionError("a 1D window called shift-invert Lanczos")

        monkeypatch.setattr(spectral, "_eigsh", forbidden)
        g = dl.make_grid(1, 8, 256)
        op = dl.assemble(g, _alloy_field(dl.identity_field(g), 3))
        assert op.dim == 2047 > spectral._DENSE_CUTOFF
        # every eigenvalue by bisection (`dstebz`) to the smallest tolerance: QL's values
        # (`eigvalsh`) lie up to 2e-10 = 1e-12 hi from it in (20, 200], the window's 1.2e-11
        _, full, _, _, info = scipy.linalg.lapack.dstebz(*op.tridiagonal, 0, 0.0, 0.0, 0, 0,
                                                         np.finfo(float).tiny, "E")
        assert info == 0
        for lo, hi in ((20.0, 200.0), (1e5, 1.02e5)):
            expected = dl.count_eigenvalues(op, hi) - dl.count_eigenvalues(op, lo)
            got = _window(op, lo, hi, expected)
            want = full[(full > lo) & (full <= hi)]
            assert got.size == want.size == expected > 0
            assert np.abs(got - want).max() <= 1e-12 * hi

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_1d_fewer_unknowns_than_pairs(self, n):
        # dims 1, 2 and 3: expected + 2 exceeds the dimension, and at dim 1 the
        # off-diagonal is empty
        g = dl.make_grid(1, 1, n)
        op = dl.assemble(g, dl.identity_field(g))
        exact = _laplacian_energies(1, 1, n, "dirichlet")
        assert op.dim == n - 1
        for lo, hi, want in ((0.0, 1e3, exact), (0.0, 1.5 * exact[0], exact[:1])):
            got = _window(op, lo, hi, want.size)
            assert got.size == want.size
            assert np.abs(got - want).max() <= 1e-12 * exact.max()

    def test_whole_spectrum_on_a_small_operator(self):
        g = dl.make_grid(1, 1, 6)
        op = dl.assemble(g, dl.identity_field(g))
        exact = _laplacian_energies(1, 1, 6, "dirichlet")
        got = _window(op, 0.0, 1e3, op.dim)
        assert np.abs(got - exact).max() <= 1e-9 * exact.max()

    def test_d2_window_wider_than_one_krylov_space(self):
        # the identity field on 4 x 4 nodes has 16 eigenvalues but 9 distinct ones, so a
        # Krylov space from one start vector closes after about 9 steps; the 12 pairs
        # nearest the midpoint need the fresh start that follows
        g = dl.make_grid(2, 1, 5)
        op = dl.assemble(g, dl.identity_field(g))
        exact = _laplacian_energies(2, 1, 5, "dirichlet")
        assert np.unique(exact.round(8)).size == 9
        lo, hi = -1.0, 112.5
        expected = dl.count_eigenvalues(op, hi) - dl.count_eigenvalues(op, lo)
        assert expected == 10 and expected + 2 < op.dim  # the Lanczos path
        got = _window(op, lo, hi, expected)
        assert np.abs(got - exact[:expected]).max() <= 1e-10 * hi


    def test_d2_window_of_few_unknowns_takes_the_dense_solve(self, monkeypatch):
        # expected + 2 >= dim, the whole spectrum, solved densely: eigh's values, bit for bit
        g = dl.make_grid(2, 1, 5)
        op = dl.assemble(g, _offdiag_field(g))
        want = scipy.linalg.eigh(op.dense())[0]
        reductions = _recording(monkeypatch, scipy.linalg.lapack, "dsytrd")
        for lo, hi in ((0.0, 1e4), (want[0], 1e4)):
            expected = dl.count_eigenvalues(op, hi) - dl.count_eigenvalues(op, lo)
            got = _window(op, lo, hi, expected)
            assert np.array_equal(got, want[(want > lo) & (want <= hi)])
        assert len(reductions) == 2


class TestEigenpairsContract:
    """`eigenpairs(op, lo, hi, expected)` returns the `expected` counted pairs in (lo, hi]
    and no other, ascending, on every route; only the dense solve is `complete`."""

    @staticmethod
    def _op(d):
        # a sine field that no swap of axes maps to itself: dims 63, 529 and 343, so
        # d = 1 thresholds take the dense solve and d >= 2 solves take Lanczos
        g = dl.make_grid(*{1: (1, 2, 32), 2: (2, 2, 12), 3: (3, 2, 4)}[d])
        return dl.assemble(g, dl.sampled_field(
            g, lambda p: 1 + 0.5 * np.sin(3 * p[:, 0] + 2 * p[:, -1])))

    @pytest.mark.parametrize("kind", ["threshold", "window", "empty-threshold",
                                      "empty-window"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_returns_exactly_the_counted_pairs(self, d, kind):
        op = self._op(d)
        ev = np.linalg.eigvalsh(op.dense())
        gap = ev[6] - ev[5]
        assert gap > 1e-6 * ev[6]
        lo, hi = {"threshold": (-np.inf, 0.5 * (ev[9] + ev[10])),
                  "window": (0.5 * (ev[4] + ev[5]), 0.5 * (ev[11] + ev[12])),
                  "empty-threshold": (-np.inf, 0.5 * ev[0]),
                  "empty-window": (ev[5] + 0.25 * gap, ev[5] + 0.75 * gap)}[kind]
        below_lo = 0 if lo == -np.inf else dl.count_eigenvalues(op, lo)
        expected = dl.count_eigenvalues(op, hi) - below_lo
        want = ev[(ev > lo) & (ev <= hi)]
        assert expected == want.size == {"threshold": 10, "window": 7}.get(kind, 0)
        spec = dl.eigenpairs(op, lo, hi, expected)
        assert spec.k == expected and spec.energies.shape == spec.residuals.shape == (expected,)
        assert spec.vectors.shape == (op.dim, expected)
        assert np.all((spec.energies > lo) & (spec.energies <= hi))
        assert np.all(np.diff(spec.energies) > 0)
        assert np.abs(spec.energies - want).max(initial=0.0) <= 1e-9 * abs(hi)
        gram = spec.vectors.T @ spec.vectors * op.grid.h ** d
        assert np.abs(gram - np.eye(expected)).max(initial=0.0) <= 1e-8
        assert spec.complete == (d == 1 and lo == -np.inf)

    # one route for a 1D window at every size: 63 and 2047 unknowns, either side of
    # the dense cutoff
    @pytest.mark.parametrize("L, n", [(2, 32), (8, 256)])
    def test_1d_window_solves_from_the_bands(self, monkeypatch, L, n):
        def forbidden(*args, **kwargs):
            raise AssertionError("a 1D window left the bands")

        solves, window_pairs = [], spectral._window_pairs

        def spy(bands, sides, scale, sigma, ks):
            solves.append((bands.shape, sigma, ks.tolist()))
            return window_pairs(bands, sides, scale, sigma, ks)

        monkeypatch.setattr(spectral, "_window_pairs", spy)
        for name in ("_dense_eigh", "_eigsh", "_tridiagonal_pairs"):
            monkeypatch.setattr(spectral, name, forbidden)
        for name in ("dsterf", "dstein"):
            monkeypatch.setattr(scipy.linalg.lapack, name, forbidden)
        g = dl.make_grid(1, L, n)
        op = dl.assemble(g, _alloy_field(dl.identity_field(g), 3))
        assert (op.dim > spectral._DENSE_CUTOFF) == (n == 256)
        lo, hi = 20.0, 200.0
        expected = int(np.diff(dl.count_eigenvalues(op, [lo, hi]))[0])
        spec = dl.eigenpairs(op, lo, hi, expected)
        # the batched window solve on one matrix: the expected + 2 pairs nearest the
        # window midpoint, as `tridiagonal_windows` takes them
        assert solves == [((1, op.dim), 0.5 * (lo + hi), [expected + 2])]
        assert spec.k == expected > 0 and not spec.complete


class TestCertifiedStoppingRule:
    """A count-certified Lanczos solve stops at tol = _RTOL / (||H||_inf + |sigma|), which
    bounds every returned residual ||H x - lambda x|| by _RTOL."""

    @staticmethod
    def _solves(monkeypatch, *, tol=None):
        """Record each `_lanczos` result and count the applications of each certified
        solve's (H - sigma)^-1; with `tol` given, the solve stops there instead."""
        results, applications = [], []
        mmd_inverse, lanczos = spectral._mmd_inverse, spectral._lanczos

        def counted_inverse(mat, sigma):
            solve = mmd_inverse(mat, sigma)
            applications.append(0)

            def counted(x):
                applications[-1] += 1
                return solve(x)
            return counted

        def recorded(solve, v0, k, sigma, certified_tol, *rest):
            results.append(lanczos(solve, v0, k, sigma,
                                   certified_tol if tol is None else tol, *rest))
            return results[-1]

        monkeypatch.setattr(spectral, "_mmd_inverse", counted_inverse)
        monkeypatch.setattr(spectral, "_lanczos", recorded)
        return results, applications

    @staticmethod
    def _assert_within_rtol(op, results):
        for evals, evecs in results:
            resid = np.linalg.norm(op.matrix @ evecs - evecs * evals, axis=0)
            assert resid.max() <= spectral._RTOL

    @pytest.mark.parametrize("bc, dim, top", [("dirichlet", 1521, 80.0),
                                              ("neumann", 1681, 60.0)])
    def test_threshold_solve_meets_rtol_in_fewer_applications(self, monkeypatch, bc, dim, top):
        grid = dl.make_grid(2, 2, 20, bc)
        field = cli._build_field({"field": {"kind": "sine"}}, grid)
        op = dl.assemble(grid, field)
        assert op.dim == dim
        with monkeypatch.context() as patch:
            results, applications = self._solves(patch)
            spec = cli._spectrum_upto(grid, field, top)  # raises unless the count agrees
        assert len(results) == len(applications) == 1 and not spec.complete
        self._assert_within_rtol(op, results)
        assert spec.residuals.max() <= spectral._RTOL
        with monkeypatch.context() as patch:
            # machine precision, LAPACK's dlamch('E'), for which ARPACK's default tol = 0 stands
            _, at_eps = self._solves(patch, tol=np.finfo(float).eps / 2)
            full = cli._spectrum_upto(grid, field, top)
        assert applications[0] < at_eps[0]
        assert full.k == spec.k
        assert np.abs(full.energies - spec.energies).max() <= 1e-10

    # identity fields, whose eigenvalues come in multiplets (up to 6 copies under Neumann
    # in 3D): a single-vector Krylov space meets a second copy only through rounding.  At
    # d = 3, L = 2, n = 8 the first walk converges with a copy missing, and the walk that
    # starts again orthogonal to the pairs it locked finds it
    @pytest.mark.parametrize("d, L, n, bc, top", [(2, 1, 64, "dirichlet", 100.0),
                                                  (2, 1, 64, "dirichlet", 200.0),
                                                  (3, 1, 16, "dirichlet", 100.0),
                                                  (3, 1, 16, "neumann", 60.0),
                                                  (3, 2, 8, "dirichlet", 60.0)])
    def test_threshold_solve_finds_every_copy_of_a_multiplet(self, d, L, n, bc, top):
        grid = dl.make_grid(d, L, n, bc)  # 3969, 3375 and 4913 unknowns: the Lanczos path
        exact = _laplacian_energies(d, L, n, bc)
        below = int(np.count_nonzero(exact <= top))
        assert np.unique(exact[:below + 1].round(8)).size < below  # multiplets in the count
        spec = cli._spectrum_upto(grid, dl.identity_field(grid), top)  # raises unless found
        assert not spec.complete and spec.k == below
        assert np.abs(spec.energies - exact[:below]).max() <= 1e-10 * top

    def test_no_convergence_at_the_bound_raises(self, monkeypatch):
        # a Ritz test that no pair can pass (tol < 0) runs the walk to its bound: all of H
        g = dl.make_grid(2, 1, 12)
        op = dl.assemble(g, _offdiag_field(g))
        assert op.dim == 121
        count = (0.0, 100.0, int(np.diff(dl.count_eigenvalues(op, [0.0, 100.0]))[0]))
        monkeypatch.setattr(spectral, "_RTOL", -1.0)
        factors = _recording(monkeypatch, scipy.sparse.linalg, "splu")
        with pytest.raises(dl.EigensolveError, match="shift-invert Lanczos failed: 3 Ritz "
                                                     "pairs unconverged after 121 steps"):
            spectral._eigsh(op, 3, 50.0, count)
        assert len(factors) == 1  # only a shift at an eigenvalue is moved

    def test_window_midpoint_at_a_double_eigenvalue_moves_the_shift(self, monkeypatch):
        # the window (31.6, 56.6] of the identity field on 4 x 4 nodes has its midpoint at
        # the double eigenvalue 44.098: H - mid is singular but for rounding, which the
        # solves then spread over the other pairs.  The walk stops at its first Ritz
        # test, and a second factor at a shift just below takes the window
        g = dl.make_grid(2, 1, 5)
        op = dl.assemble(g, dl.identity_field(g))
        exact = _laplacian_energies(2, 1, 5, "dirichlet")
        lo, hi = 0.5 * (exact[0] + exact[1]), 0.5 * (exact[2] + exact[3])
        mid = 0.5 * (lo + hi)
        assert exact[1] == pytest.approx(exact[2]) == pytest.approx(mid, rel=1e-14)
        results, applications = self._solves(monkeypatch)
        got = _window(op, lo, hi, 2)
        assert len(applications) == 2 and len(results) == 1 and applications[0] == 4
        self._assert_within_rtol(op, results)
        assert np.abs(got - exact[1:3]).max() <= 1e-12 * hi

    # the identity field on n x n cells: the window midpoint 144 (n = 6, Neumann) or 324
    # (n = 9, Dirichlet) is an eigenvalue to the last bit, so SuperLU finds H - mid
    # exactly singular; a second factor at a shift just below takes the window
    @pytest.mark.parametrize("n, bc, mid", [(6, "neumann", 144.0), (9, "dirichlet", 324.0)])
    def test_window_midpoint_exactly_at_an_eigenvalue_moves_the_shift(self, monkeypatch,
                                                                       n, bc, mid):
        g = dl.make_grid(2, 1, n, bc)
        op = dl.assemble(g, dl.identity_field(g))
        exact = _laplacian_energies(2, 1, n, bc)
        distinct = np.unique(exact.round(8))
        a, b = np.searchsorted(distinct, [0.72 * mid, 1.28 * mid])
        lo, hi = 0.5 * (distinct[a - 1:a + 1].sum()), 0.5 * (distinct[b - 1:b + 1].sum())
        assert 0.5 * (lo + hi) == mid and mid in exact
        expected = int(np.diff(dl.count_eigenvalues(op, [lo, hi]))[0])
        factors = _recording(monkeypatch, scipy.sparse.linalg, "splu")
        got = _window(op, lo, hi, expected)
        assert len(factors) == 2
        assert np.abs(got - exact[(exact > lo) & (exact <= hi)]).max() <= 1e-10 * hi

    # a d = 2 Wegner sample (uniform-L4 of `suite wegner` at n = 32, run seed 0, sample
    # 9): ||H||_inf is 24482, so a shift within 0.0245 of an eigenvalue moves.  The window
    # midpoint 12.5 lies 0.0041 above 12.49588, and 2 * 0.0245 below it lies 0.0133
    # above 12.43766; 10 * 0.0245 below it clears both
    def test_shift_moves_clear_of_two_eigenvalues_below_it(self, monkeypatch):
        g = dl.make_grid(2, 4, 32)
        model = dl.alloy_model(dl.identity_field(g), dl.equidistributed_sequence(g, 1.0, 0.2),
                               delta_plus=0.45, dist=dl.CouplingDistribution("uniform", 2.0))
        op = dl.alloy_operators(g, model).at(np.array([
            0.9997684386034078, 1.7664344266045686, 1.3692560994381635, 1.7543515210925353,
            1.2875808782541756, 1.3420236472809215, 1.5426467106100028, 1.5591307942082866,
            1.190775029876258, 1.0507212836920818, 0.8998551295984745, 1.8469622736444162,
            0.5122100808487196, 0.7998842007935199, 1.2322575351017138, 1.9885768493511846]))
        assert op.dim == 16129
        lo, hi = 11.0, 14.0
        expected = int(np.diff(dl.count_eigenvalues(op, [lo, hi]))[0])
        assert expected == 3
        shifts = []
        mmd_inverse = spectral._mmd_inverse
        monkeypatch.setattr(spectral, "_mmd_inverse",
                            lambda mat, sigma: shifts.append(sigma) or mmd_inverse(mat, sigma))
        got = _window(op, lo, hi, expected)
        assert shifts[0] == 12.5 and shifts[1] == pytest.approx(12.2551, abs=1e-4)
        assert got == pytest.approx([11.01429791, 12.43765999, 12.49588255], abs=1e-8)

    # the constant field diag(1, 1.001) on 64 x 64 cells: the pair of eigenvalues
    # mu_1 + 1.001 mu_2 and mu_2 + 1.001 mu_1 lies 0.0296 apart, and ||H||_inf = 32784
    # moves a shift within 0.0328 of either.  The window's midpoint lies 0.01 above the
    # upper one, and 2 * 0.0328 below the midpoint lies 0.026 below the lower one;
    # 10 * 0.0328 below it clears the pair
    def test_shift_moves_clear_of_a_close_pair(self, monkeypatch):
        g = dl.make_grid(2, 1, 64)
        op = dl.assemble(g, dl.constant_field(g, np.diag([1.0, 1.001])))
        mu = (2 - 2 * np.cos(np.pi * np.arange(1, 3) / 64)) * 64**2
        pair = np.sort([mu[0] + 1.001 * mu[1], mu[1] + 1.001 * mu[0]])
        assert np.diff(pair)[0] == pytest.approx(0.0296, abs=1e-4)
        lo, hi = pair[1] + 0.01 - 5.0, pair[1] + 0.01 + 5.0
        assert int(np.diff(dl.count_eigenvalues(op, [lo, hi]))[0]) == 2
        factors = _recording(monkeypatch, scipy.sparse.linalg, "splu")
        got = _window(op, lo, hi, 2)
        assert len(factors) == 2
        assert np.abs(got - pair).max() <= 1e-9 * hi
        # a window narrower than the step: the moved shift lies below it, and the pair
        # is still among the k = 4 pairs nearest that shift
        got = _window(op, pair[1] - 0.1, pair[1] + 0.1, 2)
        assert len(factors) == 4
        assert np.abs(got - pair).max() <= 1e-9 * hi

    @staticmethod
    def _passes_per_step(monkeypatch):
        """Record the Gram-Schmidt passes `_cgs2` takes at each Lanczos step: 1, or 2 where
        the first cancelled.  `_fresh`'s passes are not counted."""
        steps, in_step = [], [False]
        cgs, cgs2 = spectral._cgs, spectral._cgs2

        def counted_pass(basis, w):
            if in_step[0]:
                steps[-1] += 1
            return cgs(basis, w)

        def step(basis, w):
            steps.append(0)
            in_step[0] = True
            try:
                return cgs2(basis, w)
            finally:
                in_step[0] = False

        monkeypatch.setattr(spectral, "_cgs", counted_pass)
        monkeypatch.setattr(spectral, "_cgs2", step)
        return steps

    def test_a_step_takes_one_pass_where_none_cancels(self, monkeypatch):
        # a sine-field threshold solve above the dense cutoff: after the three-term
        # recurrence one global pass leaves the basis orthonormal to rounding
        grid = dl.make_grid(2, 2, 20)
        field = cli._build_field({"field": {"kind": "sine"}}, grid)
        op = dl.assemble(grid, field)
        assert op.dim == 1521
        steps = self._passes_per_step(monkeypatch)
        spec = cli._spectrum_upto(grid, field, 80.0)
        assert not spec.complete and spec.k > 20
        assert len(steps) > spec.k and set(steps) == {1}
        gram = grid.h ** grid.d * spec.vectors.T @ spec.vectors  # the Ritz vectors' Gram matrix
        assert np.abs(gram - np.eye(spec.k)).max() <= 1e-10
        dense = scipy.linalg.eigvalsh(op.dense())[:spec.k]
        assert np.abs(spec.energies - dense).max() <= 1e-10 * dense.max()

    def test_cancelling_pass_takes_the_second(self, monkeypatch):
        # the window at the double eigenvalue 44.098 of the identity field on 4 x 4 nodes:
        # the nearly singular first factor, and the second walk's Krylov space as it fills
        # all 16 dimensions, make the first pass cancel
        g = dl.make_grid(2, 1, 5)
        op = dl.assemble(g, dl.identity_field(g))
        exact = _laplacian_energies(2, 1, 5, "dirichlet")
        lo, hi = 0.5 * (exact[0] + exact[1]), 0.5 * (exact[2] + exact[3])
        steps = self._passes_per_step(monkeypatch)
        got = _window(op, lo, hi, 2)
        assert set(steps) == {1, 2}
        assert np.abs(got - exact[1:3]).max() <= 1e-12 * hi

    def test_3d_alloy_window_meets_rtol(self, monkeypatch):
        # one sample of wegner_mc's 3D run: identity base, d = 3, L = 2, n = 6, window
        # (E - 3 eps, E + 3 eps] at E = 30, eps = 1
        g = dl.make_grid(3, 2, 6)
        op = dl.assemble(g, _alloy_field(dl.identity_field(g), 0))
        assert op.dim == 1331
        lo, hi = 27.0, 33.0
        expected = int(np.diff(dl.count_eigenvalues(op, [lo, hi]))[0])
        results, applications = self._solves(monkeypatch)
        window = _window(op, lo, hi, expected)  # raises unless certified
        assert len(results) == len(applications) == 1 and window.size == expected > 0
        self._assert_within_rtol(op, results)
        want = np.linalg.eigvalsh(op.dense())
        assert np.abs(window - want[(want > lo) & (want <= hi)]).max() <= 1e-9 * hi


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

    def test_records_hf_derivative(self):
        g = dl.make_grid(1, 2, 32)
        f = dl.sampled_field(g, lambda p: 1 + 0.4 * np.sin(np.pi * p[:, 0]))
        w = dl.ball_plateau_field(dl.equidistributed_sequence(g, 1.0, 0.3))
        curve = dl.lifting_curve(g, f, w, 1.0, 3, [0, 2])
        base, pert = dl.assemble(g, f), perturbation_operator(g, w)
        for it, t in enumerate(curve.ts):
            spec = dl.eigensolve(base.shifted(pert, float(t)), k=4)
            for row, n in enumerate(curve.indices):
                assert curve.hf_values[row, it] == dl.hf_derivative(g, spec.pair(n)[1], w)

    def test_evaluates_w_twice_per_curve(self):
        # once for the perturbation operator and once for the face weights of every form
        # derivative, not once per derivative (test_records_hf_derivative holds each
        # derivative to hf_derivative's, bit for bit)
        g = dl.make_grid(1, 2, 32)
        f = dl.sampled_field(g, lambda p: 1 + 0.4 * np.sin(np.pi * p[:, 0]))
        tent = dl.ball_plateau_field(dl.equidistributed_sequence(g, 1.0, 0.3))
        points = []
        spy = dl.ScalarField(fn=lambda p: points.append(len(p)) or tent.fn(p),
                             lip=tent.lip, sup=tent.sup)
        dl.lifting_curve(g, f, spy, 1.0, 5, [0, 1, 2])
        assert points == [g.cells_per_side] * 2

    def test_index_beyond_the_dimension_raises_before_solving(self, monkeypatch):
        g = dl.make_grid(1, 1, 4)  # 3 unknowns
        solves, solve = [], spectral.eigensolve
        monkeypatch.setattr(spectral, "eigensolve",
                            lambda *a, **kw: solves.append(1) or solve(*a, **kw))
        with pytest.raises(ValueError, match="index 3 out of range for spectrum of size 3"):
            dl.lifting_curve(g, dl.identity_field(g), 1.0, 1.0, 3, [0, 3])
        assert solves == []
        dl.lifting_curve(g, dl.identity_field(g), 1.0, 1.0, 3, [0, 2])
        assert len(solves) == 3  # the spy sees every solve of a curve

    @pytest.mark.parametrize("indices", [[1.5, 0.2], [True, 1], ["1"]])
    def test_non_integer_indices_rejected(self, indices):
        g = dl.make_grid(1, 1, 16)
        with pytest.raises(ValueError, match="indices must be integers"):
            dl.lifting_curve(g, dl.identity_field(g), 1.0, 1.0, 3, indices)

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
            assert dl.hf_derivative(g, psi, 1.0) == pytest.approx(e, rel=1e-12)
            assert dl.hf_derivative(g, psi, 0.0) == 0.0

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
            hf = dl.hf_derivative(g, psi, w)
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
        f0 = g.h * (u @ (base.matrix @ u))
        slope = g.h * (u @ (pert @ u))
        for t in (0.1, 0.7, 2.3):
            form = g.h * (u @ (base.shifted(pert, t).matrix @ u))
            assert form == pytest.approx(f0 + t * slope, rel=1e-13)

    def test_rayleigh_identity(self):
        g = dl.make_grid(2, 1, 10)
        f = dl.constant_field(g, np.array([[2.0, 0.4], [0.4, 1.0]]))
        op = dl.assemble(g, f)
        spec = dl.eigensolve(op, k=4)
        for i in range(4):
            e, psi = spec.pair(i)
            form = g.h**g.d * psi @ (op.matrix @ psi)
            assert form == pytest.approx(e * g.h**g.d * psi @ psi, rel=1e-10)


class TestProjectorSample:
    def test_one_dimensional_span(self):
        g = dl.make_grid(1, 1, 32)
        spec = dl.eigensolve(dl.assemble(g, dl.identity_field(g)), k=3)
        psi = dl.projector_sample(spec, (spec.energies[0] - 1, spec.energies[0] + 1), 0)[:, 0]
        overlap = abs(psi @ spec.vectors[:, 0]) * g.h
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_empty_interval_rejected(self):
        g = dl.make_grid(1, 1, 32)
        spec = dl.eigensolve(dl.assemble(g, dl.identity_field(g)), k=3)
        with pytest.raises(ValueError):
            dl.projector_sample(spec, (1e6, 2e6), 0)

    def test_one_sample_is_a_column(self):
        g = dl.make_grid(1, 1, 32)
        spec = dl.eigensolve(dl.assemble(g, dl.identity_field(g)), k=3)
        out = dl.projector_sample(spec, (0.0, 1e9), 7, n_samples=1)
        assert out.shape == (g.n_nodes, 1)

    def test_samples_unit_norm(self):
        g = dl.make_grid(1, 1, 32)
        spec = dl.eigensolve(dl.assemble(g, dl.identity_field(g)), k=5)
        out = dl.projector_sample(spec, (0.0, 1e9), 7, n_samples=1000)
        norms = np.sqrt(g.h * (out**2).sum(axis=0))
        assert np.abs(norms - 1.0).max() < 1e-10
