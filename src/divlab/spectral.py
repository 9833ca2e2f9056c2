"""Eigenpairs, inertia-based eigenvalue counting, window solves, lifting curves, form derivatives."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lattice import Grid, ScalarField, as_scalar_field, discrete_gradient
from .operators import DiscreteOperator, assemble, edge_coefficients, perturbation_operator

_DENSE_CUTOFF = 1400
_MIN_SLAB = 16  # unknowns per inertia slab of a d >= 2 grid whose axis-0 layers are small
_RTOL = 1e-9
_ZERO_RTOL = 1e-12  # relative size at or below which an inertia pivot counts as zero
_GAP_RTOL = 1e-8  # relative eigenvalue gap below which a lifting sample is degenerate
_V0_SEED = 20210 + 4  # fixed Lanczos start vector seed: deterministic, symmetry-free


class EigensolveError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues with h^d-orthonormal eigenvectors and their residuals."""

    energies: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    complete: bool

    @property
    def k(self) -> int:
        return self.energies.size

    def pair(self, i: int) -> tuple[float, np.ndarray]:
        return float(self.energies[i]), self.vectors[:, i]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip, in place, each column whose first entry above 1e-8 of its max magnitude is negative."""
    # no |V| temporary: a dim x k copy would raise the eigensolve's peak memory
    thr = 1e-8 * np.maximum(vectors.max(axis=0), -vectors.min(axis=0))
    first = np.argmax((vectors > thr) | (vectors < -thr), axis=0)
    flip = vectors[first, np.arange(vectors.shape[1])] < 0
    return np.negative(vectors, out=vectors, where=flip)


def _canonical(mat: sp.csr_matrix | sp.csc_matrix):
    """`mat`, or a copy with sorted indices and summed duplicates when it lacks them."""
    if not mat.has_canonical_format:  # a duplicate entry counts by its sum
        mat = mat.copy()
        mat.sum_duplicates()
    return mat


def _matrix_scale(mat: sp.csr_matrix | sp.csc_matrix) -> float:
    """max_i sum_j |mat_ij| over the compressed axis (||H||_inf of a CSR matrix),
    read from the compressed arrays: `abs(mat).sum(axis=1).max()` without a new matrix."""
    mat = _canonical(mat)
    nonempty = np.flatnonzero(np.diff(mat.indptr))  # reduceat gives no 0 for an empty row
    return float(np.add.reduceat(np.abs(mat.data), mat.indptr[nonempty]).max(initial=0.0))


def _check_residuals(resid: np.ndarray, scale: float, evals: np.ndarray) -> np.ndarray:
    """`resid`, unless a residual misses _RTOL (1 + |E|) + 100 eps ||H|| (then raises)."""
    tol = _RTOL * (1.0 + np.abs(evals)) + 100 * np.finfo(float).eps * scale
    bad = resid > tol
    if np.any(bad):
        worst = int(np.argmax(resid / tol))
        raise EigensolveError(
            f"{int(bad.sum())} eigenpairs unconverged; worst residual {resid[worst]:.3e} "
            f"for eigenvalue {evals[worst]:.6g} (tolerance {tol[worst]:.3e})")
    return resid


def _checked_residuals(op: DiscreteOperator, evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """Residual norms of the pairs; raises when one misses _RTOL (1 + |E|) + 100 eps ||H||."""
    resid = np.linalg.norm(op.matrix @ evecs - evecs * evals[None, :], axis=0)
    return _check_residuals(resid, _matrix_scale(op.matrix), evals)


def eigensolve(op: DiscreteOperator, k: int, *, upto: float | None = None) -> Spectrum:
    """Lowest-k eigenpairs.

    Dense symmetric solve below the size cutoff, shift-invert Lanczos above,
    with a fixed start vector so results are reproducible.  Unconverged pairs
    raise instead of being returned, and eigenvector signs follow the
    first-significant-component-positive convention.  The dense solve
    (`_dense_eigh`) computes every eigenvalue, bit for bit as
    `scipy.linalg.eigh` does, and back-transforms only the k vectors it
    returns; for d >= 2 these match `eigh`'s to about 1 ulp.

    `upto`: an inertia count certifies that the k - 1 lowest eigenvalues lie
    in [0, upto] and the k-th above it.  The Lanczos path then shifts to the
    middle of that interval, sigma = upto / 2, and takes `_eigsh`'s MMD
    factor.  As H is positive semidefinite, the k eigenvalues nearest
    upto / 2 are the k lowest: every one in [0, upto] lies within upto / 2
    of it, every other one farther.  Without `upto` the shift is 0
    (Dirichlet) or -0.05 (Neumann, below the zero mode) with ARPACK's own
    factor.  The count edge upto + tol is never the shift.
    """
    dim = op.dim
    if not (1 <= k <= dim):
        raise ValueError(f"k must lie in 1..{dim}, got {k}")

    complete = dim <= _DENSE_CUTOFF or k > dim - 2
    if complete:
        evals, evecs = _dense_eigh(op, k)
    elif upto is not None:
        evals, evecs = _eigsh(op, k, sigma=0.5 * upto, certified=True)
    else:
        evals, evecs = _eigsh(op, k, sigma=0.0 if op.grid.bc == "dirichlet" else -0.05,
                              certified=False)

    resid = _checked_residuals(op, evals, evecs)
    vectors = _fix_signs(evecs / op.grid.h ** (op.grid.d / 2.0))
    return Spectrum(energies=evals, vectors=vectors, residuals=resid, complete=complete)


def _dense_eigh(op: DiscreteOperator, k: int):
    """The lowest k eigenpairs of H, from every eigenvalue, as `scipy.linalg.eigh(op.dense())`
    computes them, without the n - k vectors it would drop.

    `eigh` calls LAPACK's `dsyevr`, which reduces H to a tridiagonal T = Q^T H Q (`dsytrd`,
    lower triangle), takes every eigenpair of T by MRRR (`dstemr`, range 'A'), and
    back-transforms all n vectors by Q (`dormtr`).  This makes the same calls with the
    workspace `dsyevr` hands each, but back-transforms the k returned vectors alone
    (`dormqr` on rows 2..n, as `dormtr` does for the lower triangle): at dim 961 that
    saves about a fifth of the solve.  The eigenvalues equal `eigh`'s bit for bit.  The
    vectors do for k = n; for k < n they agree to about 1 ulp (at most 4.9e-16 on the
    d >= 2 operators tried), as BLAS blocks a k-column product differently.  A tridiagonal
    H (d = 1, or a single unknown) skips the reduction: `dstemr` runs on its bands, and
    the pairs equal `eigh`'s bit for bit; a band entry the CSR matrix does not store is a
    zero, as in `op.dense()`.  Where `dstemr` fails, as the exact multiplets of the
    identity field's d >= 2 Laplacian make it, `dsyevr` turns to bisection and inverse
    iteration, and this to `eigh` itself.
    """
    n, lapack = op.dim, scipy.linalg.lapack
    banded = not sp.tril(op.matrix, -2).count_nonzero()  # d = 1, or a single unknown
    if banded:
        diag, off = op.matrix.diagonal(), op.matrix.diagonal(-1)
    else:
        lwork = int(lapack.dsyevr_lwork(n, lower=1)[0])
        a, diag, off, tau, _ = lapack.dsytrd(op.matrix.toarray(order="F"), lower=1,
                                             lwork=lwork - 5 * n, overwrite_a=1)
    # range 'A'; dstemr wants n entries of e and overwrites them
    _, evals, evecs, info = lapack.dstemr(diag, np.append(off, 0.0), 0, 0.0, 1.0, 1, n)
    if info:
        evals, evecs = scipy.linalg.eigh(op.dense())
    elif not banded:  # Q = diag(1, Q'), Q''s reflectors in a's columns below row 1
        reflectors = a.reshape(-1, order="F")[1:1 + n * (n - 1)].reshape(n, n - 1, order="F")
        evecs[1:, :k] = lapack.dormqr("L", "N", reflectors, tau, evecs[1:, :k],
                                      lwork - 2 * n)[0]
    return evals[:k], evecs[:, :k]


def _mmd_inverse(mat: sp.csr_matrix, sigma: float) -> spla.LinearOperator:
    """(H - sigma)^-1 by one SuperLU factor, partial pivoting, in the minimum-degree
    order of H - sigma + (H - sigma)^T; a shifted copy of H dies with this call."""
    shifted = mat if sigma == 0 else mat - sigma * sp.identity(mat.shape[0], format="csr")
    # the CSC view of the symmetric CSR, as ARPACK's own factor takes it
    lu = spla.splu(shifted.T, permc_spec="MMD_AT_PLUS_A")
    return spla.LinearOperator(mat.shape, matvec=lu.solve, dtype=mat.dtype)


def _eigsh(op: DiscreteOperator, k: int, sigma: float, *, certified: bool):
    """The k eigenpairs nearest sigma by shift-invert Lanczos, ascending.

    A `certified` solve, one that an inertia count checks, shifts to the
    middle of the interval its count certifies: the window midpoint
    (`window_eigenvalues`) or upto / 2 for a threshold spectrum
    (`eigensolve`), where the wanted pairs converge first.  It gets H - sigma
    factored once by `_mmd_inverse`: on the 2D grid of dim 16129 the
    minimum-degree order leaves 0.65 million entries in L and U against 1.19
    million for the COLAMD order of ARPACK's own factor, and a solve takes
    about half as long.  Any other solve keeps ARPACK's factor, so its values
    stay bit for bit.  An exactly singular H - sigma or no convergence raises
    EigensolveError.
    """
    rng = np.random.default_rng(_V0_SEED)
    v0 = rng.standard_normal(op.dim)
    try:  # the factor too; held by no name, it is freed before the sort below
        evals, evecs = spla.eigsh(op.matrix, k=k, sigma=sigma, which="LM", v0=v0,
                                  maxiter=max(1000, 20 * k),
                                  OPinv=_mmd_inverse(op.matrix, sigma) if certified else None)
    except RuntimeError as exc:  # no convergence, or H - sigma exactly singular
        raise EigensolveError(f"shift-invert Lanczos failed: {exc}") from exc
    order = np.argsort(evals)
    return evals[order], evecs[:, order]


def _check_window(lo: float, hi: float, expected: int) -> None:
    if not lo < hi:
        raise ValueError(f"empty window ({lo}, {hi}]")
    if expected < 0:
        raise ValueError(f"expected must be nonnegative, got {expected}")


def _certified_window(evals: np.ndarray, evecs: np.ndarray, lo: float, hi: float,
                      expected: int) -> np.ndarray:
    """The values in (lo, hi] of residual-checked pairs, unless the vectors are not
    orthonormal or the window holds other than `expected` values (then raises)."""
    if np.abs(evecs.T @ evecs - np.eye(evals.size)).max() > 1e-8:
        raise EigensolveError("Ritz vectors are not orthonormal: ghost eigenvalue copies")
    inside = evals[(evals > lo) & (evals <= hi)]
    if inside.size != expected:
        raise EigensolveError(f"{inside.size} Ritz values in ({lo:.6g}, {hi:.6g}], "
                              f"inertia counts {expected}")
    return inside


def window_eigenvalues(op: DiscreteOperator, lo: float, hi: float, expected: int) -> np.ndarray:
    """Eigenvalues in (lo, hi], certified complete by an inertia count.

    The `expected + 2` eigenpairs nearest the window midpoint are taken from
    shift-invert Lanczos there or, for d = 1, from the bands of the tridiagonal
    H (`tridiagonal_window`).  The vectors serve only the certificate.  Raises
    EigensolveError unless every residual meets the `eigensolve` tolerance,
    the vectors are orthonormal (so no eigenvalue is a ghost copy of another),
    and exactly `expected` of the values fall in the window; with `expected`
    taken from `count_eigenvalues`, a missed or spurious eigenvalue cannot pass.
    """
    if op.grid.d == 1:
        return tridiagonal_window(*op.tridiagonal, lo, hi, expected)
    _check_window(lo, hi, expected)
    k, mid = expected + 2, 0.5 * (lo + hi)
    if k >= op.dim:  # ARPACK needs k < dim
        evals, evecs = _dense_eigh(op, op.dim)
    else:
        evals, evecs = _eigsh(op, k, sigma=mid, certified=True)
    _checked_residuals(op, evals, evecs)
    return _certified_window(evals, evecs, lo, hi, expected)


def tridiagonal_window(diag: np.ndarray, off: np.ndarray, lo: float, hi: float,
                       expected: int) -> np.ndarray:
    """`window_eigenvalues` of the symmetric tridiagonal H with these bands.

    Every eigenvalue comes from LAPACK's root-free QL/QR (`dsterf`, values
    only), then vectors for the `expected + 2` values nearest the window
    midpoint alone by inverse iteration (`dstein`), so a window stores
    n (expected + 2) vector entries, not n^2.  The residuals, the scale
    ||H||_inf and so the three certificates are those of `window_eigenvalues`
    on the CSR operator, bit for bit: the band product sums each row's terms
    in CSR column order, and the row sums of |H| group as `np.add.reduceat`
    does.  The window shares no factorization with the count:
    `dsterf` forms no LDL^T, and `dstein` factors T - lambda with partial
    pivoting only at computed eigenvalues, never at a count edge.
    """
    _check_window(lo, hi, expected)
    k, mid = expected + 2, 0.5 * (lo + hi)
    e = off if off.size else np.zeros(1)  # the wrappers want n - 1 >= 1 entries
    evals, info = scipy.linalg.lapack.dsterf(diag, e)
    if info:
        raise EigensolveError(f"dsterf failed with info = {info}")
    evals = evals[np.sort(np.argsort(np.abs(evals - mid))[:k])]
    n = diag.size  # one block: iblock = 1 for every value, isplit = [n]
    evecs, info = scipy.linalg.lapack.dstein(diag, e, evals, np.ones(n, np.int32),
                                             np.full(n, n, np.int32))
    if info:
        raise EigensolveError(f"dstein failed with info = {info}")
    prod = diag[:, None] * evecs
    prod[1:] += off[:, None] * evecs[:-1]
    prod[:-1] += off[:, None] * evecs[1:]
    resid = np.linalg.norm(prod - evecs * evals[None, :], axis=0)
    row_sums = np.abs(diag)  # |H_{i,i-1}| + (|H_ii| + |H_{i,i+1}|), as in `_matrix_scale`
    row_sums[:-1] += np.abs(off)
    row_sums[1:] += np.abs(off)
    _check_residuals(resid, float(row_sums.max()), evals)
    return _certified_window(evals, evecs, lo, hi, expected)


def _zero_tol(op: DiscreteOperator, energies: np.ndarray) -> np.ndarray:
    """Per energy, the magnitude at or below which a pivot of H - E counts as zero
    (`_pivot_tol` with the largest stored off-diagonal |H|)."""
    mat = _canonical(op.matrix)
    rows = np.repeat(np.arange(op.dim), np.diff(mat.indptr))
    off_max = np.abs(mat.data[mat.indices != rows]).max(initial=0.0)
    return _pivot_tol(off_max, op.matrix.diagonal(), energies)


def _pivot_tol(off_max, diag: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """_ZERO_RTOL times the larger of max(1, off_max) and max_i |diag_i - E|, per energy.

    A 2-D `diag` holds one matrix per column and `off_max` one value per column;
    the result is then (columns, energies).  fl(d - E) is monotone in d, so the
    largest |diag_i - E| is that of the smallest or the largest diagonal entry.
    """
    lo, hi = diag.min(axis=0)[..., None], diag.max(axis=0)[..., None]
    shift = np.maximum(np.abs(lo - energies), np.abs(hi - energies))
    return _ZERO_RTOL * np.maximum(np.maximum(1.0, off_max)[..., None], shift)


def _slab_blocks(op: DiscreteOperator):
    """H as a block tridiagonal matrix over slabs of whole axis-0 layers.

    Returns the dense diagonal slab blocks (the last one zero-padded), the
    layer-by-layer couplings `coup[i] = H[first layer of slab i, last layer of
    slab i-1]` and the layer size.
    """
    layer = op.dim // op.grid.unknown_shape[0]
    size = layer * -(-_MIN_SLAB // layer)
    n_slabs = -(-op.dim // size)
    coo = op.matrix.tocoo()
    coo.sum_duplicates()
    r, c, v = coo.row, coo.col, coo.data
    if np.any(np.abs(r // layer - c // layer) > 1):
        raise ValueError("operator couples axis-0 layers that are not adjacent")
    sr, sc = r // size, c // size
    diag = np.zeros((n_slabs, size, size))
    same = sr == sc
    diag[sr[same], r[same] % size, c[same] % size] = v[same]
    low = sr == sc + 1
    coup = np.zeros((n_slabs, layer, layer))
    coup[sr[low], r[low] % size, c[low] % size - (size - layer)] = v[low]
    return diag, coup, layer


def _coupling_diagonals(coup: np.ndarray) -> np.ndarray | None:
    """The diagonals of the layer couplings `coup` when every coupling is diagonal
    (every built-in field's are), else None."""
    diagonals = np.diagonal(coup, axis1=1, axis2=2)
    return diagonals if np.count_nonzero(coup) == np.count_nonzero(diagonals) else None


def tridiagonal_counts(diag: np.ndarray, off: np.ndarray, energies) -> np.ndarray:
    """Eigenvalues <= E of symmetric tridiagonal matrices, for every (matrix, E) pair.

    Column j of `diag` (n, m) and of `off` (n - 1, m) holds the bands of matrix
    j; the result is an int array (m, energies).  One Sturm sweep over the node
    axis carries every pair: p_0 = a_0 - E and p_i = (a_i - E) - b_{i-1}^2 / p_{i-1},
    and the count is the number of negative pivots (Kahan: backward stable).  A
    pivot within the zero tolerance of its pair (`_pivot_tol`, per matrix and
    energy) counts as <= E, and the sweep goes on with -tol in its place.  The
    tolerance reads the off-diagonal maximum from `off`, which for a symmetric H
    is `_zero_tol`'s maximum over every stored off-diagonal entry.
    """
    energies = np.asarray(energies, dtype=float)
    tol = _pivot_tol(np.abs(off).max(axis=0, initial=0.0), diag, energies)
    b2 = off * off
    count = np.zeros(tol.shape, dtype=int)
    q = np.ones(tol.shape)
    for i in range(diag.shape[0]):
        p = diag[i, :, None] - energies
        if i:
            p -= b2[i - 1, :, None] / q
        zero = np.abs(p) <= tol
        count += (p < 0) | zero
        q = np.where(zero, -tol, p)
    return count


def _as_requested(energy, counts: np.ndarray):
    """An int for a scalar energy, the count array for a sequence."""
    return int(counts[0]) if np.ndim(energy) == 0 else counts


def count_eigenvalues(op: DiscreteOperator, energy):
    """Number of eigenvalues <= E + tol via the inertia of H, independent of eigensolve.

    tol is `_zero_tol` (1e-12 relative).  An eigenvalue within the ambiguity
    radius of a count edge may be counted on either side of it; every other
    eigenvalue is counted exactly.

    Lexicographic node order makes H - E block tridiagonal over slabs of axis-0
    layers (at least _MIN_SLAB unknowns each), so its inertia is the sum of the
    inertias of the Schur complements S_i = D_i - C_i S_{i-1}^{-1} C_i^T
    (Haynsworth).  For d = 1 the slabs are single nodes: one Sturm sweep at E
    (`tridiagonal_counts`) counts a pivot within tol of zero as <= E, as a sweep
    at about E + tol would, and the radius is a small multiple of eps ||H - E||
    (Kahan: backward stable).  For d >= 2 one sweep over the slabs carries every
    energy (`_slab_counts`): each S_i of H - (E + tol) is factored once by
    LAPACK's Bunch-Kaufman L D L^T (`dsytrf`) and counted by the signs of D's
    blocks (Sylvester), and the last-layer block of its inverse (`dsytri`,
    skipped on the last slab, whose inverse nothing reads) forms the next
    C S_i^{-1} C^T: elementwise, c_j c_k T_jk, when every coupling C_i is
    diagonal (every built-in field), by BLAS otherwise.  The copy of each D_i,
    the shifts, the elementwise update and the sign counts are done once per
    slab for all energies; per energy only the LAPACK calls (and a BLAS update)
    remain.
    As that is backward stable, the radius around E + tol is about
    eps (||H - E|| + max_i ||C_i S_{i-1}^{-1} C_i^T||).  The second term, the
    element growth, is unbounded as E + tol nears an eigenvalue of a leading
    block of slabs.  With E at the random test operators' eigenvalues it reached
    9e10 ||H - E||, and every count was exact; at a double eigenvalue of a
    symmetric field, which a leading block shares, it reached 6e12 ||H - E||,
    and the count took one of the pair.  An exactly zero pivot raises
    EigensolveError.

    The count stays independent of the eigenvalues it certifies: it factors
    H - (E + tol) slab by slab, while `eigensolve` and `window_eigenvalues`
    factor H - sigma by SuperLU with partial pivoting (in the minimum-degree
    order for the solves a count certifies, `_eigsh`), at a fixed shift, at the
    window midpoint or at half a threshold; an order only permutes the matrix
    it factors.  The Wegner edges E +- 3 eps and E +- eps_j are never the
    midpoint E, and a threshold edge top + tol is never top / 2, so no matrix
    is factored by both.  The 1D window solve takes its values from
    `dsterf` (root-free QL/QR, no LDL^T) and factors T - lambda in `dstein`
    only at those computed eigenvalues, with partial pivoting.

    `energy` may be a scalar (an int count) or a sequence (an int array).
    """
    energies = np.atleast_1d(np.asarray(energy, dtype=float))
    if op.dim == op.grid.unknown_shape[0]:
        diag, off = op.tridiagonal
        counts = tridiagonal_counts(diag[:, None], off[:, None], energies)[0]
        return _as_requested(energy, counts)
    diag, coup, layer = _slab_blocks(op)
    shifts = energies + _zero_tol(op, energies)
    # energies per sweep: its two work slabs of 2 m size^2 entries stay within twice
    # diag's, or 16 slab blocks when there are fewer than 8 slabs
    step = max(8, diag.shape[0])
    counts = np.zeros(energies.size, dtype=int)
    for lo in range(0, energies.size, step):
        part = slice(lo, lo + step)
        counts[part] = _slab_counts(diag, coup, layer, op.dim, energies[part], shifts[part])
    return _as_requested(energy, counts)


def _slab_counts(diag: np.ndarray, coup: np.ndarray, layer: int, dim: int,
                 energies: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """`count_eigenvalues` at each energy E from the `_slab_blocks` of H, with
    shifts[j] = E_j + tol_j: one sweep over the slabs carries every energy.

    Per slab, the copy of D_i, the shifts and an elementwise Schur update are done
    once for all energies, and so is the sign count of every D; per energy there
    remain the BLAS update of a coupling with off-diagonal entries, `dsytrf` and,
    but on the last slab, whose inverse feeds nothing, `dsytri`.  Each LAPACK call
    gets the lower triangle that a sweep of its energy alone would give, bit for
    bit: the elementwise update is T_jk (c_j c_k) either way.
    """
    n_slabs, size = diag.shape[:2]
    diagonals = _coupling_diagonals(coup)
    m = energies.size
    counts = np.zeros(m, dtype=int)
    failed = {}  # energy index -> first slab whose pivots do not count
    lapack, blas = scipy.linalg.lapack, scipy.linalg.blas
    work = np.empty((2, m * size * size))  # this slab's S_i and the last slab's inverses
    upper, cc = np.triu(np.ones((layer, layer), dtype=bool)), np.zeros((layer, layer))
    for i in range(n_slabs):
        b = size if i + 1 < n_slabs else dim - i * size
        # t[j] holds S_i^T at energy j in C order, so t[j].T is S_i in Fortran order,
        # which LAPACK factors and inverts in place: S_i's lower triangle is t[j]'s upper
        t = work[i % 2, :m * b * b].reshape(m, b, b)
        t[0] = diag[i, :b, :b].T
        t[1:] = t[0]
        t.reshape(m, -1)[:, ::b + 1] -= shifts[:, None]
        # tail T = prev[j][-layer:, -layer:].T, the last-layer block of S_{i-1}^{-1},
        # current in its lower triangle only
        if i and diagonals is not None:  # C_i = diag(c): C_i T C_i^T = c_j c_k T_jk; the
            # stale upper triangle would compound through single-layer slabs
            c, tails = diagonals[i], prev[:, -layer:, -layer:]
            np.multiply(c[:, None], c, out=cc, where=upper)  # 0 off T's lower triangle
            t[:, :layer, :layer] -= np.multiply(tails, cc, out=tails)  # prev is spent
        piv = np.empty((m, b), dtype=np.int32)
        bad = np.empty(m, dtype=bool)
        for j in range(m):
            if i and diagonals is None:  # scipy's BLAS alone, as alternating with numpy's
                # own OpenBLAS threads is slow
                tail = prev[j, -layer:, -layer:].T
                t[j, :layer, :layer] -= blas.dgemm(
                    1.0, coup[i], blas.dsymm(1.0, tail, coup[i].T, lower=1)).T
            _, piv[j], info = lapack.dsytrf(t[j].T, lower=1, lwork=32 * b,  # blocked
                                            overwrite_a=1)
            bad[j] = info > 0
        # a 1x1 block of D counts by its sign; a 2x2 block [[a, b], [b, c]] (a pair of
        # negative piv entries) has ac < b^2 by Bunch-Kaufman's choice: one negative
        d, two = t.reshape(m, -1)[:, ::b + 1], piv < 0
        rows, k = np.divmod(np.flatnonzero(two)[::2], b)
        bad[rows[d[rows, k] * d[rows, k + 1] >= t[rows, k, k + 1] ** 2]] = True
        counts += ((d < 0) & ~two).sum(axis=1) + two.sum(axis=1) // 2
        for j in np.flatnonzero(bad):
            failed.setdefault(j, i)
        if i + 1 < n_slabs:  # the last slab's inverse feeds nothing
            for j in range(m):
                lapack.dsytri(t[j].T, piv[j], lower=1, overwrite_a=1)
        prev = t
    if failed:  # the first energy in the order given, as one sweep per energy would
        j = min(failed)
        raise EigensolveError(f"slab count at E = {energies[j]:.6g}: exactly zero "
                              f"or unsplit pivot block in slab {failed[j]}")
    return counts


def hf_derivative(grid: Grid, psi: np.ndarray, w) -> float:
    """Derivative in t of a simple eigenvalue of H(A + t w Id), from its eigenvector.

    `psi` holds the eigenvector's unknown-node values on `grid`, h^d-normalized
    as `eigensolve` returns them; `w` is a nonnegative scalar field, callable or
    constant.  The value is the discrete integral of w |grad psi|^2, with w
    averaged from cells to faces exactly as the assembly does: the exact slope
    of the affine-in-t quadratic form.  It reads neither A nor t.
    """
    wc = as_scalar_field(w).on_cells(grid).reshape(grid.cells_shape)
    if np.any(wc < -1e-12):
        raise ValueError("w must be nonnegative")
    g = discrete_gradient(grid, psi)
    total = 0.0
    for k in range(grid.d):
        total += float(np.sum(edge_coefficients(grid, wc, k) * g.comps[k] ** 2))
    return grid.h**grid.d * total


@dataclass(frozen=True, eq=False)
class LiftingCurve:
    """Sorted-index eigenvalue trajectories of t |-> H(A + t w Id) on [0, T].

    Rows follow sorted positions, not analytic branches; `degenerate` marks
    samples where the gap to a neighboring eigenvalue falls under the
    detection threshold (derivative checks skip those).
    """

    grid: Grid
    ts: np.ndarray
    indices: tuple[int, ...]
    energies: np.ndarray      # (len(indices), len(ts))
    hf_values: np.ndarray     # same shape; exact form derivative at each sample
    degenerate: np.ndarray    # bool, same shape
    w: ScalarField
    field_hash: str


def lifting_curve(grid: Grid, field, w, t_max: float, t_steps: int, indices) -> LiftingCurve:
    """Eigensolve along an equispaced t grid and record each pair's `hf_derivative`."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if t_steps < 2:
        raise ValueError("need at least two t samples")
    if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in indices):
        raise ValueError(f"indices must be integers, got {list(indices)!r}")
    indices = tuple(int(i) for i in indices)
    if not indices or min(indices) < 0:
        raise ValueError("indices must be nonnegative")
    w = as_scalar_field(w)
    base = assemble(grid, field)
    pert = perturbation_operator(grid, w)

    k = min(max(indices) + 2, base.dim)
    ts = np.linspace(0.0, t_max, t_steps)
    energies = np.empty((len(indices), t_steps))
    hf_values = np.empty_like(energies)
    degenerate = np.zeros(energies.shape, dtype=bool)

    for it, t in enumerate(ts):
        spec = eigensolve(base.shifted(pert, float(t)), k=k)
        for row, n in enumerate(indices):
            if n >= spec.k:
                raise ValueError(f"index {n} out of range for spectrum of size {spec.k}")
            e, psi = spec.pair(n)
            energies[row, it] = e
            hf_values[row, it] = hf_derivative(grid, psi, w)
            gap = np.inf
            if n > 0:
                gap = min(gap, e - spec.energies[n - 1])
            if n + 1 < spec.k:
                gap = min(gap, spec.energies[n + 1] - e)
            degenerate[row, it] = gap < _GAP_RTOL * max(1.0, abs(e))

    return LiftingCurve(grid=grid, ts=ts, indices=indices, energies=energies,
                        hf_values=hf_values, degenerate=degenerate,
                        w=w, field_hash=field.content_hash())


def projector_sample(spectrum: Spectrum, interval: tuple[float, float], seed,
                     n_samples: int = 1) -> np.ndarray:
    """Seeded random unit vectors in the span of eigenvectors with energy in `interval`,
    one per column: shape (dim, n_samples)."""
    lo, hi = interval
    idx = np.nonzero((spectrum.energies >= lo) & (spectrum.energies <= hi))[0]
    if idx.size == 0:
        raise ValueError(f"interval {interval} contains no eigenvalues")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    coeff = rng.standard_normal((idx.size, n_samples))
    coeff /= np.linalg.norm(coeff, axis=0, keepdims=True)
    return spectrum.vectors[:, idx] @ coeff
