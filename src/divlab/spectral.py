"""Eigenpairs, inertia-based eigenvalue counting, window solves, lifting curves, form derivatives."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import MatrixField
from .lattice import Grid, ScalarField, as_scalar_field, discrete_gradient
from .operators import (DiscreteOperator, _canonical, _off_band, assemble, edge_coefficients,
                        perturbation_operator)

_DENSE_CUTOFF = 1400
_MIN_SLAB = 16  # unknowns per inertia slab of a d >= 2 grid whose axis-0 layers are small
_RTOL = 1e-9
_ZERO_RTOL = 1e-12  # relative size at or below which an inertia pivot counts as zero
_GAP_RTOL = 1e-8  # relative eigenvalue gap below which a lifting sample is degenerate
_V0_SEED = 20210 + 4  # fixed Lanczos start vector seed: deterministic, symmetry-free
_RITZ_EVERY = 3  # Lanczos steps between the Ritz tests of a certified solve, at least
_WINDOW_STEPS = 64  # a 1D window batch's first basis capacity; its solves take 13-35 steps
_NEAR_SHIFT = 1e-6  # |lambda - sigma| / (||H||_inf + |sigma|) below which a shift is moved
# a Ritz test's time per m (m + k) over a step's reorthogonalization time per m n, set
# against two Gram-Schmidt passes (45 over 1.5 ns).  On one OpenBLAS thread of a 2-core
# Xeon at n >= 3969 a test now takes 60-70 ns and the one-pass step 0.8: a ratio of about
# 80.  It stays 30, so that every solve tests, and takes its steps, as before.
_RITZ_COST = 30


class EigensolveError(RuntimeError):
    pass


class _ShiftAtEigenvalue(EigensolveError):
    """A Ritz value within _NEAR_SHIFT (||H||_inf + |sigma|) of a Lanczos shift sigma."""


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


def _matrix_scale(mat: sp.csr_matrix | sp.csc_matrix) -> float:
    """max_i sum_j |mat_ij| over the compressed axis (||H||_inf of a CSR matrix),
    read from the compressed arrays: `abs(mat).sum(axis=1).max()` without a new matrix."""
    mat = _canonical(mat)
    nonempty = np.flatnonzero(np.diff(mat.indptr))  # reduceat gives no 0 for an empty row
    return float(np.add.reduceat(np.abs(mat.data), mat.indptr[nonempty]).max(initial=0.0))


def _residual_tol(evals: np.ndarray, scale) -> np.ndarray:
    """_RTOL (1 + |E|) + 100 eps ||H||, the tolerance of every returned pair's residual."""
    return _RTOL * (1.0 + np.abs(evals)) + 100 * np.finfo(float).eps * scale


def _unconverged(resid: np.ndarray, tol: np.ndarray, evals: np.ndarray) -> str:
    """Why pairs whose residuals exceed `tol` fail: how many, and the worst."""
    worst = int(np.argmax(resid / tol))
    return (f"{int(np.count_nonzero(resid > tol))} eigenpairs unconverged; worst residual "
            f"{resid[worst]:.3e} for eigenvalue {evals[worst]:.6g} (tolerance {tol[worst]:.3e})")


def _residuals(op: DiscreteOperator, evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """||H x - E x|| of each pair (E, x), x a column of `evecs`."""
    return np.linalg.norm(op.matrix @ evecs - evecs * evals[None, :], axis=0)


def eigensolve(op: DiscreteOperator, k: int) -> Spectrum:
    """Lowest-k eigenpairs, with no count to certify them complete.

    Dense symmetric solve below the size cutoff (`_dense_eigh`: every eigenvalue,
    bit for bit as `scipy.linalg.eigh` computes it, and the k vectors alone,
    which for d >= 2 match `eigh`'s to about 1 ulp); above it ARPACK's
    shift-invert Lanczos at the shift 0 (Dirichlet) or -0.05 (Neumann, below the
    zero mode), with its own factor, default tol and a fixed start vector
    (`_arpack_eigsh`).  The pairs pass the certificate of `eigenpairs` on
    (-inf, inf] with k expected, so unconverged or non-orthonormal pairs raise.
    """
    if not (1 <= k <= op.dim):
        raise ValueError(f"k must lie in 1..{op.dim}, got {k}")
    complete = op.dim <= _DENSE_CUTOFF or k > op.dim - 2
    if complete:
        evals, evecs = _dense_eigh(op, k)
    else:
        evals, evecs = _arpack_eigsh(op, k, 0.0 if op.grid.bc == "dirichlet" else -0.05)
    return _certified(op, evals, evecs, -np.inf, np.inf, k, complete)


def eigenpairs(op: DiscreteOperator, lo: float, hi: float, expected: int) -> Spectrum:
    """The `expected` eigenpairs in (lo, hi], ascending: `expected` is the inertia count
    of the eigenvalues in (lo, hi] (`count_eigenvalues`), which certifies them complete.

    The solve takes the k = expected + 1 + [lo > -inf] pairs (at most dim) nearest sigma,
    the midpoint of the counted interval, lo = -inf read as 0 (H is positive semidefinite):
    every eigenvalue in (lo, hi] lies within (hi - lo) / 2 of sigma, and the wanted pairs
    converge first.  A 1D window takes them from the bands by the shift-invert Lanczos
    solve of `tridiagonal_windows` on a batch of one (`_window_pairs`), so a 1D Wegner
    sample's window is its own, bit for bit.  A 1D threshold spectrum up to the dense
    cutoff, or k > dim - 2, takes the dense solve (`_dense_eigh`, the one `complete`
    route): the lowest k pairs for lo = -inf, else every pair.  Otherwise `_eigsh` runs
    Lanczos at sigma, told the count.  All k pass `_certified_windows`, or EigensolveError
    names the reason: every residual meets _RTOL (1 + |E|) + 100 eps ||H||_inf, the
    vectors are orthonormal to 1e-8 (no ghost copies), and exactly `expected` values fall
    in (lo, hi].
    """
    _check_window(lo, hi, expected)
    k = min(expected + 1 + (lo > -np.inf), op.dim)
    sigma = 0.5 * ((0.0 if lo == -np.inf else lo) + hi)
    window_1d = op.grid.d == 1 and lo > -np.inf
    dense = not window_1d and ((op.grid.d == 1 and op.dim <= _DENSE_CUTOFF) or k > op.dim - 2)
    if window_1d:
        bands, sides = (band[None] for band in op.tridiagonal)
        evals, evecs, _, failures = _window_pairs(bands, sides, _band_scale(bands, sides),
                                                  sigma, np.array([k]))
        if failures[0] is not None:
            raise EigensolveError(failures[0])
        evals, evecs = evals[0], evecs[0].T
    elif dense:
        evals, evecs = _dense_eigh(op, k if lo == -np.inf else op.dim)
    else:
        evals, evecs = _eigsh(op, k, sigma, (lo, hi, expected))
    return _certified(op, evals, evecs, lo, hi, expected, dense)


def _certified(op: DiscreteOperator, evals: np.ndarray, evecs: np.ndarray, lo: float,
               hi: float, expected: int, complete: bool) -> Spectrum:
    """The Spectrum of the `expected` pairs in (lo, hi], h^d-normalized and sign-fixed, once
    `_certified_windows` passes all of a solve's ascending unit pairs: a view of them."""
    resid = _residuals(op, evals, evecs)
    _, failures = _certified_windows(evals[None], evecs.T[None], resid[None],
                                     _matrix_scale(op.matrix), lo, hi, [expected], [None])
    if failures[0] is not None:
        raise EigensolveError(failures[0])
    vectors = _fix_signs(evecs / op.grid.h ** (op.grid.d / 2.0))
    if evals.size > expected:  # the certificate counted `expected` values in (lo, hi]
        first = int(np.searchsorted(evals, lo, side="right"))
        keep = slice(first, first + expected)
        evals, vectors, resid = evals[keep], vectors[:, keep], resid[keep]
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
    banded = not _off_band(op.matrix)  # d = 1, or a single unknown
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


def _mmd_inverse(mat: sp.csr_matrix, sigma: float):
    """x -> (H - sigma)^-1 x by one SuperLU factor, partial pivoting, in the minimum-degree
    order of H - sigma + (H - sigma)^T; a shifted copy of H dies with this call."""
    shifted = mat if sigma == 0 else mat - sigma * sp.identity(mat.shape[0], format="csr")
    # the CSC view of the symmetric CSR: the format SuperLU factors
    return spla.splu(shifted.T, permc_spec="MMD_AT_PLUS_A").solve


def _start(n: int):
    """The fixed Lanczos start vector and the generator that drew it, for any fresh starts."""
    rng = np.random.default_rng(_V0_SEED)
    return rng.standard_normal(n), rng


def _arpack_eigsh(op: DiscreteOperator, k: int, sigma: float):
    """The k eigenpairs nearest sigma, ascending, by ARPACK's shift-invert Lanczos
    (`scipy.sparse.linalg.eigsh`) with its own factor and default tol, machine precision:
    the uncertified lowest-k solve, whose values the references pin bit for bit.  No
    convergence or an exactly singular H - sigma raises EigensolveError."""
    v0, _ = _start(op.dim)
    try:
        evals, evecs = spla.eigsh(op.matrix, k=k, sigma=sigma, which="LM", v0=v0,
                                  maxiter=max(1000, 20 * k))
    except RuntimeError as exc:
        raise EigensolveError(f"shift-invert Lanczos failed: {exc}") from exc
    order = np.argsort(evals)
    return evals[order], evecs[:, order]


def _eigsh(op: DiscreteOperator, k: int, sigma: float, count: tuple[float, float, int]):
    """The k eigenpairs nearest sigma, ascending, of a solve that an inertia count
    checks: `count` = (lo, hi, number) says H has `number` eigenvalues in (lo, hi].

    `eigenpairs` shifts it to the middle of the interval its count certifies: the window
    midpoint, or top / 2 for a threshold spectrum (-inf, top], where the wanted pairs
    converge first.  It runs `_lanczos` on H - sigma factored once by
    `_mmd_inverse`: on the 2D grid of dim 16129 the minimum-degree order leaves 0.65
    million entries in L and U against 1.19 million for the COLAMD order of ARPACK's
    own factor, and a solve takes about half as long.  It stops at the residual its
    certificate checks, tol = _RTOL / (||H||_inf + |sigma|), not at machine precision:
    a Ritz pair (theta, x) of T = (H - sigma)^-1 is accepted once its estimated
    ||T x - theta x|| is at most tol |theta|, and as
    H x - lambda x = -(H - sigma)(T x - theta x) / theta for lambda = sigma + 1 / theta,
    its residual in H is then about ||H - sigma||_2 tol <= (||H||_inf + |sigma|) tol =
    _RTOL.  The caller's certificate (`_certified_windows`) enforces
    _RTOL (1 + |lambda|) + 100 eps ||H|| on every returned pair.

    Where an eigenvalue lies within _NEAR_SHIFT (||H||_inf + |sigma|) of sigma,
    H - sigma is singular but for rounding, and the solves' error along that
    eigenvector, about eps ||H|| / |lambda - sigma| of the solution, swamps the other
    pairs: `_lanczos` raises at its first Ritz test, or SuperLU as it factors where sigma
    is an eigenvalue to the last bit.  Either way the solve factors once more at a shift
    10 _NEAR_SHIFT (||H||_inf + |sigma|) lower, which clears a close pair or multiplet
    around sigma (2 such radii did not).  The moved shift may leave a narrow window, as
    the certificate needs only the window's eigenvalues among the k nearest.  An
    eigenvalue at the moved shift too, no convergence, or any other failure raises
    EigensolveError.
    """
    scale = _matrix_scale(op.matrix)
    for moved in (False, True):
        v0, rng = _start(op.dim)
        try:
            try:
                solve = _mmd_inverse(op.matrix, sigma)
            except RuntimeError as exc:  # SuperLU: H - sigma exactly singular
                raise _ShiftAtEigenvalue(exc) from exc
            return _lanczos(solve, v0, k, sigma, _RTOL / (scale + abs(sigma)), rng, count,
                            _NEAR_SHIFT * (scale + abs(sigma)))
        except _ShiftAtEigenvalue as exc:
            if moved:
                raise EigensolveError(f"shift-invert Lanczos failed: {exc}") from exc
        except RuntimeError as exc:
            raise EigensolveError(f"shift-invert Lanczos failed: {exc}") from exc
        sigma -= 10 * _NEAR_SHIFT * (scale + abs(sigma))


def _lanczos(solve, v0: np.ndarray, k: int, sigma: float, tol: float,
             rng: np.random.Generator, count: tuple[float, float, int], near: float):
    """The k eigenpairs of H nearest sigma, ascending, by Lanczos on T = (H - sigma)^-1
    (`solve`) from v0, with full reorthogonalization; `count` = (lo, hi, number) is the
    inertia count the result must meet.

    Each step takes the three-term recurrence, w = T v_j - a v_j - beta_{j-1} v_{j-1}
    with a = v_j^T T v_j (no beta term on a walk's first step), then one classical
    Gram-Schmidt pass against every stored basis vector, the locked ones too, and a
    second only where the first cancelled (`_cgs2`, ARPACK's DGKS test): no Ritz value
    is a ghost copy of another, and as the recurrence leaves little but rounding for the
    pass, a step sweeps the basis once, not twice (no second pass in the 123 steps of
    the ucp_2d solve).  alpha_j is a plus the passes' coefficients on v_j.  From m = k on
    it takes the eigenpairs (theta, s) of the tridiagonal for the k largest |theta|
    (`_tridiagonal_pairs`) and stops once ARPACK's Ritz
    test holds for all k: |beta_m s_mi| <= tol |theta_i|.  In exact arithmetic
    |beta_m s_mi| is ||T x_i - theta_i x_i||; in floating point it is an estimate, as
    the tridiagonal leaves out the Gram-Schmidt coefficients off its bands.  The tests
    come every _RITZ_EVERY steps, or farther apart where a test, O(m (m + k)), costs
    more than a step's reorthogonalization, O(m n): then they cost about as much as the
    one-pass reorthogonalization between them (see _RITZ_COST).  The k Ritz vectors are
    one product V_m^T S, its columns in ascending lambda = sigma + 1 / theta.  The basis
    is allocated once, at ARPACK's bound of min(n, max(1000, 20 k)) vectors; rows never
    written never become resident.

    A single start vector meets the second copy of a multiple eigenvalue only through
    rounding.  Where the second pass cancels again, T v_j lies numerically in the
    basis: the Krylov space has closed on one copy of each eigenvalue it holds, beta = 0
    and the walk goes on from a fresh random vector orthogonal to the basis, as ARPACK's
    does.  Where the Ritz test holds but fewer than `number` values fall in (lo, hi], a
    copy is missing: the converged pairs in (lo, hi] are locked (their vectors replace
    the basis, their theta kept), and a fresh random vector orthogonal to them starts a
    new walk for the other k - p pairs, tested alone.  A walk that adds no value in
    (lo, hi] returns what it has, for the caller's certificate to reject.  No
    convergence at the bound raises EigensolveError, and a Ritz value within `near` of
    sigma raises _ShiftAtEigenvalue.
    """
    lo, hi, number = count
    n = v0.size
    cap = min(n, max(1000, 20 * k))
    basis = np.empty((cap, n))
    alpha, beta = np.zeros(cap), np.zeros(cap)
    w, p, test = v0, 0, k  # p locked pairs: vectors basis[:p], theta alpha[:p]
    j = 0
    while j < cap:
        basis[j] = w / np.linalg.norm(w)
        w = solve(basis[j])
        a = basis[j] @ w  # the three-term recurrence, then one global pass (or two)
        w -= a * basis[j]
        if j > p:  # not on a walk's first step, where beta[p - 1] is an ended walk's
            w -= beta[j - 1] * basis[j - 1]
        m = j = j + 1
        h, spanned = _cgs2(basis[:m], w)
        alpha[m - 1] = a + h[m - 1]
        beta[m - 1] = 0.0 if spanned else np.linalg.norm(w)
        if spanned:  # an invariant subspace: a fresh start orthogonal to it
            w = _fresh(rng, basis[:m])
        if m < test and m < cap:
            continue
        test = m + max(_RITZ_EVERY, -(-_RITZ_EVERY * _RITZ_COST * (m + k) // n))
        theta, s = _tridiagonal_pairs(alpha[p:m], beta[p:m - 1], k - p, lambda t: -np.abs(t))
        if near * np.abs(theta).max() >= 1.0:
            raise _ShiftAtEigenvalue(f"an eigenvalue within {near:.3g} of the shift {sigma:.6g}")
        if not np.all(np.abs(beta[m - 1] * s[-1]) <= tol * np.abs(theta)):
            continue
        evals = sigma + 1.0 / theta
        lock = (evals > lo) & (evals <= hi)
        if not 0 < np.count_nonzero(lock) < number - p or m == cap:
            break
        # a copy is missing: lock the new pairs in (lo, hi], and walk again for the rest
        q = p + np.count_nonzero(lock)
        basis[p:q] = s[:, lock].T @ basis[p:m]
        alpha[p:q] = theta[lock]
        p = j = q
        w, test = _fresh(rng, basis[:p]), k
    else:
        raise EigensolveError(f"{k} Ritz pairs unconverged after {cap} steps")
    theta = np.concatenate([alpha[:p], theta])
    ritz = np.zeros((m, k))  # the locked vectors as they stand, then the walk's
    ritz[np.arange(p), np.arange(p)] = 1.0
    ritz[p:, p:] = s
    evals = sigma + 1.0 / theta
    order = np.argsort(evals)
    return evals[order], (ritz[:, order].T @ basis[:m]).T


def _fresh(rng: np.random.Generator, basis: np.ndarray) -> np.ndarray:
    """A random vector orthogonal to the rows of `basis`, by two Gram-Schmidt passes."""
    w = rng.standard_normal(basis.shape[1])
    _cgs(basis, w)
    _cgs(basis, w)
    return w


def _cgs(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One classical Gram-Schmidt pass, w -= basis^T (basis w) in place; returns basis w."""
    h = basis @ w
    w -= h @ basis
    return h


def _cgs2(basis: np.ndarray, w: np.ndarray):
    """Orthogonalize w in place against the rows of `basis` by one classical Gram-Schmidt
    pass, and a second only where the first cancelled: where it left at most 0.717 of
    ||w|| (ARPACK's DGKS test).  Returns the summed coefficients and whether w lay
    numerically in their span: the second pass cancelled by the same ratio again."""
    before = np.linalg.norm(w)
    h = _cgs(basis, w)
    first = np.linalg.norm(w)
    if first > 0.717 * before:
        return h, False
    return h + _cgs(basis, w), np.linalg.norm(w) <= 0.717 * first


def _check_window(lo: float, hi: float, expected) -> None:
    if not lo < hi:
        raise ValueError(f"empty window ({lo}, {hi}]")
    if np.min(expected, initial=0) < 0:
        raise ValueError(f"expected must be nonnegative, got {np.min(expected)}")


def _certified_windows(evals: np.ndarray, vectors: np.ndarray, resid: np.ndarray, scale,
                       lo: float, hi: float, expected: np.ndarray, failures: list):
    """The windows of a batch of solves that pass the certificate, and why the others fail.

    Row j of `evals` (samples, k) holds solve j's values ascending, then NaN past its
    pairs (all NaN where failures[j] already says why it failed); `vectors` (samples, k, n)
    their unit vectors, zero past them; `resid` their residual norms and `scale[j]` the
    ||H||_inf of its matrix.  A row is certified unless a residual misses
    _RTOL (1 + |E|) + 100 eps ||H||, the vectors are not orthonormal to 1e-8 (so no
    eigenvalue is a ghost copy of another), or other than expected[j] values fall in
    (lo, hi]: each test runs on every row at once, and a row keeps the first it fails.
    Returns the windows (samples, max expected), row j's values in (lo, hi] ascending,
    then NaN (all NaN for a failed row), and the failures, None for a certified row.
    """
    tol = _residual_tol(evals, np.asarray(scale)[..., None])
    unconverged = resid > tol  # False past a row's pairs, where both are NaN
    gram = vectors @ vectors.transpose(0, 2, 1)
    k = np.arange(evals.shape[1])
    gram[:, k, k] -= ~np.isnan(evals)
    ghosts = np.abs(gram).max(axis=(1, 2), initial=0.0) > 1e-8
    inside = (evals > lo) & (evals <= hi)
    found = np.count_nonzero(inside, axis=1)
    failures = list(failures)
    for j in np.flatnonzero(unconverged.any(axis=1) | ghosts | (found != expected)):
        if failures[j] is not None:
            continue
        if unconverged[j].any():
            pairs = ~np.isnan(evals[j])
            failures[j] = _unconverged(resid[j, pairs], tol[j, pairs], evals[j, pairs])
        elif ghosts[j]:
            failures[j] = "Ritz vectors are not orthonormal: ghost eigenvalue copies"
        else:
            failures[j] = (f"{found[j]} Ritz values in ({lo:.6g}, {hi:.6g}], "
                           f"inertia counts {expected[j]}")
    inside &= np.array([f is None for f in failures])[:, None]
    windows = np.sort(np.where(inside, evals, np.nan), axis=1)  # NaN sorts last
    return windows[:, :np.max(expected, initial=0)], failures


def tridiagonal_windows(diag: np.ndarray, off: np.ndarray, lo: float, hi: float,
                        expected) -> tuple[np.ndarray, list]:
    """The energies of `eigenpairs` on a 1D window, for a batch of symmetric tridiagonal
    matrices: column j of `diag` (n, samples) and of `off` (n - 1, samples) holds the
    bands of matrix j, whose eigenvalues in (lo, hi] its inertia count expected[j] must
    certify.

    One shift-invert Lanczos solve runs on every matrix at once (`_window_pairs`), as
    `eigenpairs` runs it on one: the k = expected[j] + 2 pairs (at most n) nearest the
    window midpoint sigma, by Rayleigh-Ritz with T itself, each matrix's pairs accepted
    on their band residuals.  The certificate then runs on every matrix at once
    (`_certified_windows`).  The residuals, the scale ||H||_inf and so each matrix's
    certificate are those of the CSR operator's, bit for bit: the band product sums each
    row's terms in CSR column order, and the row sums of |H| group as `np.add.reduceat`
    does.  The window shares no factorization with the count: it factors T - sigma only
    at the midpoint (or 10 _NEAR_SHIFT radii below it), never at a count edge, and it
    takes its eigenvalues from Rayleigh-Ritz, not from a count; their number in (lo, hi]
    is then compared with the inertia count.

    Returns the windows (samples, max expected), row j's certified values ascending,
    then NaN, and per matrix None or why it failed (its row then all NaN): the solve's
    (a pivot at both shifts, no convergence in n steps, a solve that is not finite) or
    the certificate's.  A bad window raises ValueError.
    """
    expected = np.asarray(expected)
    _check_window(lo, hi, expected)
    bands, sides = np.ascontiguousarray(diag.T), np.ascontiguousarray(off.T)
    scale = _band_scale(bands, sides)
    evals, vectors, resid, failures = _window_pairs(bands, sides, scale, 0.5 * (lo + hi),
                                                    np.minimum(expected + 2, diag.shape[0]))
    return _certified_windows(evals, vectors, resid, scale, lo, hi, expected, failures)


def _band_scale(bands: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """||T||_inf of each matrix: row j of `bands` (m, n) and `sides` (m, n - 1) holds the
    bands of matrix j."""
    row_sums = np.abs(bands)  # |H_{i,i-1}| + (|H_ii| + |H_{i,i+1}|), as in `_matrix_scale`
    row_sums[:, :-1] += np.abs(sides)
    row_sums[:, 1:] += np.abs(sides)
    return row_sums.max(axis=1)


def _band_product(bands: np.ndarray, sides: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T x for each matrix: row j of x (m, n), or (m, k, n), holds vectors of matrix j."""
    if x.ndim == 3:
        bands, sides = bands[:, None], sides[:, None]
    prod = bands * x
    prod[..., 1:] += sides * x[..., :-1]
    prod[..., :-1] += sides * x[..., 1:]
    return prod


def _band_lu(bands: np.ndarray, sides: np.ndarray, sigma: np.ndarray):
    """x (m, n) -> (T_j - sigma_j)^-1 x_j for every matrix j, and the pivots (m, n).

    One LAPACK LU with partial pivoting (`dgttrf`) factors a tridiagonal holding every
    T_j - sigma_j as an uncoupled diagonal block, then three unit entries (the wrapper
    wants n >= 3), and one substitution (`dgttrs`) solves it.  A zero coupling keeps
    each block's elimination and substitution to its own entries, so a matrix's bits do
    not depend on the batch; a NaN in one block's right-hand side would cross it.
    """
    m, n = bands.shape
    lapack = scipy.linalg.lapack
    coupling = np.zeros((m, n))
    coupling[:, :-1] = sides
    coupling = np.append(coupling, [0.0, 0.0])
    dl, d, du, du2, ipiv, _ = lapack.dgttrf(
        coupling, np.append(bands - sigma[:, None], [1.0, 1.0, 1.0]), coupling)

    def solve(x: np.ndarray) -> np.ndarray:
        return lapack.dgttrs(dl, d, du, du2, ipiv, np.append(x, [0.0, 0.0, 0.0]))[0]\
            [:m * n].reshape(m, n)
    return solve, d[:m * n].reshape(m, n).copy()


def _window_pairs(bands: np.ndarray, sides: np.ndarray, scale: np.ndarray, sigma: float,
                  ks: np.ndarray):
    """The ks[j] eigenpairs nearest sigma of each symmetric tridiagonal T_j, ascending, by
    one shift-invert Lanczos run on every matrix at once: row j of `bands` (m, n) and
    `sides` (m, n - 1) holds the bands of T_j, scale[j] its ||T_j||_inf.

    T_j - sigma is factored once for all matrices, with partial pivoting (`_band_lu`).
    A pivot within _NEAR_SHIFT (||T_j||_inf + |sigma|) of zero, where sigma is an
    eigenvalue of T_j but for rounding, moves that matrix's shift 10 such radii down and
    factors again, as `_eigsh` moves its shift; a small pivot there too fails the
    matrix.  (An eigenvalue of a leading block zeroes no pivot: partial pivoting takes
    the off-diagonal entry.  Without pivoting it would, and the multipliers next to a
    pivot just outside that radius stalled Lanczos at n = 511.)  Lanczos then runs on
    every matrix together from the fixed start vector: each step applies
    (T_j - sigma_j)^-1, takes the three-term recurrence, and orthogonalizes against
    every basis vector by one classical Gram-Schmidt pass, and a second where the first
    cancelled (ARPACK's DGKS test, as `_cgs2`); where the second cancels again the
    Krylov space is invariant and the walk goes on from a fresh random vector.  The
    projected matrix V^T T V gains a column per step.  A matrix is first tested at
    step 2 k_j + _RITZ_EVERY, then as its worst ratio of residual to half its
    tolerance falls: the next test comes once that ratio's decades, at the rate they
    fell since the last test, would be gone (1 to 2 _RITZ_EVERY steps on, _RITZ_EVERY
    after a first or stalled test).  A test takes the k_j eigenpairs of V^T T V nearest
    sigma_j (Rayleigh-Ritz with T) and accepts them once every band residual
    ||T x - theta x|| is within half the certificate's tolerance,
    _RTOL (1 + |theta|) + 100 eps ||T||.  A matrix's tests depend on its own residuals
    alone, and every product runs along the node axis of one matrix at a time, so its
    pairs do not depend on the batch.  The basis is step-major, in one array of
    _WINDOW_STEPS steps (at most n), twice as many whenever a matrix needs more: steps
    never taken never become resident, and a batch of many long chains does not ask
    for n^2 m entries of address space at once.

    Returns the values (m, max k), ascending then NaN; their unit vectors (m, max k, n),
    zero past them; their band residuals, NaN past them; and per matrix None or why it
    failed (its rows then NaN and zero): a pivot at both shifts, a solve that is not
    finite, or no acceptance by step n, where the basis spans R^n.
    """
    m, n = bands.shape
    kmax = int(ks.max(initial=0))
    evals, resid = np.full((m, kmax), np.nan), np.full((m, kmax), np.nan)
    vectors = np.zeros((m, kmax, n))
    failures = [None] * m
    sigma = np.full(m, float(sigma))
    near = _NEAR_SHIFT * (scale + np.abs(sigma))
    solve, pivots = _band_lu(bands, sides, sigma)
    small = ~(np.abs(pivots) > near[:, None]).all(axis=1)  # NaN counts as small
    if small.any():
        first = sigma.copy()
        sigma[small] -= 10 * near[small]
        near = _NEAR_SHIFT * (scale + np.abs(sigma))
        solve, pivots = _band_lu(bands, sides, sigma)
        small = ~(np.abs(pivots) > near[:, None]).all(axis=1)
        for j in np.flatnonzero(small):
            failures[j] = (f"shift-invert Lanczos failed: T - sigma has a pivot within "
                           f"{near[j]:.3g} of zero at sigma = {first[j]:.6g} and at the "
                           f"moved shift {sigma[j]:.6g}")
        if small.any():  # the failed matrices solve with the identity
            solve, _ = _band_lu(np.where(small[:, None], sigma[:, None] + 1.0, bands),
                                 np.where(small[:, None], 0.0, sides), sigma)
    active = ~small
    basis = np.empty((min(n, _WINDOW_STEPS), m, n))
    columns = []  # column j of V^T T V, its rows :j + 1 (m, j + 1), from step j
    start = _start(n)[0]
    w = np.tile(start, (m, 1))
    beta = np.zeros(m)
    due = 2 * ks + _RITZ_EVERY  # the step of each matrix's next test
    last_step, last_decades = np.full(m, -1), np.zeros(m)
    for j in range(n):
        s = j + 1
        if j == len(basis):  # a slow matrix: twice the steps, up to n
            basis = np.concatenate([basis, np.empty((min(j, n - j), m, n))])
        v = np.divide(w, np.sqrt(np.einsum("mn,mn->m", w, w))[:, None], out=basis[j])
        columns.append(_project(basis[:s], _band_product(bands, sides, v)))
        tested = np.flatnonzero(active & ((due <= s) | (s == n)))
        if tested.size:
            theta, x, r, worst = _ritz_test(bands, sides, scale, sigma, ks, columns,
                                            basis[:s], tested)
            ok = worst <= 1.0
            done, k = tested[ok], theta.shape[1]
            evals[done, :k], vectors[done, :k], resid[done, :k] = theta[ok], x[ok], r[ok]
            active[done] = False
            more, decades = tested[~ok], np.log10(worst[~ok])
            rate = (last_decades[more] - decades) / (s - last_step[more])
            falls = (last_step[more] >= 0) & (rate > 0)
            steps = np.full(more.size, _RITZ_EVERY)
            steps[falls] = np.clip(np.ceil(decades[falls] / rate[falls]), 1, 2 * _RITZ_EVERY)
            due[more] = s + steps
            last_step[more], last_decades[more] = s, decades
        if not active.any() or s == n:
            break
        w = solve(v)
        a = np.einsum("mn,mn->m", v, w)
        w -= a[:, None] * v
        if j:
            w -= beta[:, None] * basis[j - 1]
        beta = _batch_cgs2(basis[:s], w, s)
        broken = ~np.isfinite(beta)
        if broken.any():  # a NaN would cross the zero couplings of the batched solve
            for i in np.flatnonzero(broken & active):
                failures[i] = (f"shift-invert Lanczos failed: a solve with T - sigma at "
                               f"step {s} is not finite")
            active &= ~broken
            w[broken], beta[broken] = start, 0.0
    for j in np.flatnonzero(active):
        failures[j] = (f"shift-invert Lanczos failed: {ks[j]} Ritz pairs unconverged "
                       f"after {n} steps")
    return evals, vectors, resid, failures


def _project(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """V_j^T x_j for each matrix j: basis (steps, m, n), x (m, n); returns (m, steps).
    One BLAS product per matrix, along its node axis, so a matrix's bits do not depend
    on the batch."""
    return np.matmul(basis.transpose(1, 0, 2), x[..., None])[..., 0]


def _batch_cgs2(basis: np.ndarray, w: np.ndarray, step: int) -> np.ndarray:
    """Orthogonalize each row j of w (m, n) in place against row j of every basis vector
    (steps, m, n) by `_cgs2`'s passes, and return each row's norm; a row that lay in its
    basis' span becomes a fresh random vector orthogonal to it (drawn per `step`, the
    same for every matrix), its norm 0."""
    def cgs(basis, w):  # w_j -= V_j (V_j^T w_j), one BLAS product per matrix
        w -= np.matmul(_project(basis, w)[:, None], basis.transpose(1, 0, 2))[:, 0]

    before = np.sqrt(np.einsum("mn,mn->m", w, w))
    cgs(basis, w)
    norm = np.sqrt(np.einsum("mn,mn->m", w, w))
    again = np.flatnonzero(norm <= 0.717 * before)
    if again.size:
        part = w[again]
        cgs(basis[:, again], part)
        first, norm[again] = norm[again], np.sqrt(np.einsum("mn,mn->m", part, part))
        w[again] = part
        for i in again[norm[again] <= 0.717 * first]:
            fresh = np.random.default_rng([_V0_SEED, step]).standard_normal((1, w.shape[1]))
            cgs(basis[:, i:i + 1], fresh)
            cgs(basis[:, i:i + 1], fresh)
            w[i], norm[i] = fresh[0], 0.0
    return norm


def _ritz_test(bands, sides, scale, sigma, ks, columns, basis, tested):
    """Rayleigh-Ritz with T on the Lanczos basis (steps, m, n) of each tested matrix: the
    ks[j] eigenpairs of its V^T T V (`columns`, column i holding rows :i + 1) nearest
    sigma[j], ascending, padded with NaN values and zero vectors; their band residuals;
    and the worst ratio of residual to half the certificate's tolerance: at most 1 where
    every pair is accepted, NaN where a residual is."""
    s, t, kmax = basis.shape[0], tested.size, int(ks[tested].max())
    projected = np.zeros((t, s, s))  # eigh reads the lower triangle: row i, column j <= i
    for i, column in enumerate(columns):
        projected[:, i, :i + 1] = column[tested]
    theta, y = np.linalg.eigh(projected)
    nearest = np.argsort(np.abs(theta - sigma[tested, None]), axis=1, kind="stable")
    nearest = nearest[:, :kmax]
    kept = np.arange(nearest.shape[1]) < ks[tested, None]
    pick = np.sort(np.where(kept, nearest, s), axis=1)  # ascending values, the rest last
    kept = pick < s
    pick = np.minimum(pick, s - 1)
    theta = np.where(kept, np.take_along_axis(theta, pick, axis=1), np.nan)
    coeffs = np.zeros((bands.shape[0], pick.shape[1], s))  # the untested matrices' are 0
    coeffs[tested] = (np.take_along_axis(y, pick[:, None], axis=2) * kept[:, None])\
        .transpose(0, 2, 1)
    x = np.matmul(coeffs, basis.transpose(1, 0, 2))[tested]
    prod = _band_product(bands[tested], sides[tested], x)
    prod -= x * theta[..., None]
    resid = np.linalg.norm(prod, axis=2)
    ratio = resid / (0.5 * _residual_tol(theta, scale[tested, None]))
    return theta, x, resid, np.where(kept, ratio, 0.0).max(axis=1)


def _tridiagonal_pairs(diag: np.ndarray, off: np.ndarray, k: int, key):
    """The k eigenpairs, ascending, of the symmetric tridiagonal with these bands whose
    eigenvalues have the smallest key(eigenvalue): every eigenvalue by LAPACK's root-free
    QL/QR (`dsterf`, values only), vectors for the k alone by inverse iteration (`dstein`).
    It serves `_lanczos`' Ritz tests, on the small Lanczos tridiagonal."""
    lapack = scipy.linalg.lapack
    e = off if off.size else np.zeros(1)  # the wrappers want n - 1 >= 1 entries
    evals, info = lapack.dsterf(diag, e)
    if info:
        raise EigensolveError(f"dsterf failed with info = {info}")
    evals = evals[np.sort(np.argsort(key(evals))[:k])]
    n = diag.size  # one block: iblock = 1 for every value, isplit = [n]
    evecs, info = lapack.dstein(diag, e, evals, np.ones(n, np.int32), np.full(n, n, np.int32))
    if info:
        raise EigensolveError(f"dstein failed with info = {info}")
    return evals, evecs


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
    H - (E + tol) slab by slab, while the solves factor H - sigma by SuperLU
    with partial pivoting: `eigenpairs` in the minimum-degree order (`_eigsh`)
    at the midpoint of the interval it certifies, a window's or [0, top]'s, and
    the uncertified `eigensolve` in ARPACK's at a fixed shift; an order only
    permutes the matrix it factors.  The Wegner edges E +- 3 eps and E +- eps_j
    are never the midpoint E, and a threshold edge top + tol is never top / 2,
    so no matrix is factored by both.  The 1D window solve (`tridiagonal_windows`)
    factors T - sigma, with partial pivoting, only at the window midpoint (or 10
    _NEAR_SHIFT radii below it); it takes its eigenvalues from Rayleigh-Ritz with T,
    accepts them on their band residuals, and then compares their number in the window
    with this count.  That is not bisection, which would locate the eigenvalues by this
    count's own Sturm sweeps.

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
    return _hf_value(grid, psi, _face_weights(grid, as_scalar_field(w).on_cells(grid)))


def _face_weights(grid: Grid, wc: np.ndarray) -> list[np.ndarray]:
    """w on each axis's faces from its cell values `wc`, averaged as the assembly
    averages; raises ValueError where w is negative."""
    wc = wc.reshape(grid.cells_shape)
    if np.any(wc < -1e-12):
        raise ValueError("w must be nonnegative")
    return [edge_coefficients(grid, wc, k) for k in range(grid.d)]


def _hf_value(grid: Grid, psi: np.ndarray, weights: list[np.ndarray]) -> float:
    """`hf_derivative` from w's `_face_weights`."""
    g = discrete_gradient(grid, psi)
    total = 0.0
    for k in range(grid.d):
        total += float(np.sum(weights[k] * g.comps[k] ** 2))
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
    field: MatrixField


def lifting_curve(grid: Grid, field, w, t_max: float, t_steps: int, indices) -> LiftingCurve:
    """Eigensolve along an equispaced t grid and record each pair's `hf_derivative`,
    from w's face weights, computed once per curve."""
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
    weights = _face_weights(grid, w.on_cells(grid))

    if max(indices) >= base.dim:  # before any solve
        raise ValueError(f"index {max(indices)} out of range for spectrum of size {base.dim}")
    k = min(max(indices) + 2, base.dim)
    ts = np.linspace(0.0, t_max, t_steps)
    energies = np.empty((len(indices), t_steps))
    hf_values = np.empty_like(energies)
    degenerate = np.zeros(energies.shape, dtype=bool)

    for it, t in enumerate(ts):
        spec = eigensolve(base.shifted(pert, float(t)), k=k)
        for row, n in enumerate(indices):
            e, psi = spec.pair(n)
            energies[row, it] = e
            hf_values[row, it] = _hf_value(grid, psi, weights)
            gap = np.inf
            if n > 0:
                gap = min(gap, e - spec.energies[n - 1])
            if n + 1 < spec.k:
                gap = min(gap, spec.energies[n + 1] - e)
            degenerate[row, it] = gap < _GAP_RTOL * max(1.0, abs(e))

    return LiftingCurve(grid=grid, ts=ts, indices=indices, energies=energies,
                        hf_values=hf_values, degenerate=degenerate,
                        w=w, field=field)


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
