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
# A sparse LDL^T without pivoting is only as stable as its element growth allows.
# On alloy samples of dims 961 to 16129 the solves of certified factorizations
# left normwise backward errors of at most 1.1e4 eps (growth ||L||U|| / ||H - E||
# up to 1e5).  A first pivot of relative size 1e-9, which clears the near-zero
# tolerance, left 7e6 eps.  1e5 eps sits ten times above the first and seventy
# times below the second.
_BACKWARD_ERR_EPS = 1e5
_RHS_SEED = 20210 + 9  # fixed right-hand side of the backward error check
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

    def indices_below(self, threshold: float) -> np.ndarray:
        return np.nonzero(self.energies < threshold)[0]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip, in place, each column whose first entry above 1e-8 of its max magnitude is negative."""
    # no |V| temporary: a dim x k copy would raise the eigensolve's peak memory
    thr = 1e-8 * np.maximum(vectors.max(axis=0), -vectors.min(axis=0))
    first = np.argmax((vectors > thr) | (vectors < -thr), axis=0)
    flip = vectors[first, np.arange(vectors.shape[1])] < 0
    return np.negative(vectors, out=vectors, where=flip)


def _matrix_scale(mat: sp.csr_matrix) -> float:
    return float(abs(mat).sum(axis=1).max())


def _checked_residuals(op: DiscreteOperator, evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """Residual norms of the pairs; raises when one misses _RTOL (1 + |E|) + 100 eps ||H||."""
    resid = np.linalg.norm(op.matrix @ evecs - evecs * evals[None, :], axis=0)
    scale = _matrix_scale(op.matrix)
    tol = _RTOL * (1.0 + np.abs(evals)) + 100 * np.finfo(float).eps * scale
    bad = resid > tol
    if np.any(bad):
        worst = int(np.argmax(resid / tol))
        raise EigensolveError(
            f"{int(bad.sum())} eigenpairs unconverged; worst residual {resid[worst]:.3e} "
            f"for eigenvalue {evals[worst]:.6g} (tolerance {tol[worst]:.3e})")
    return resid


def eigensolve(op: DiscreteOperator, k: int) -> Spectrum:
    """Lowest-k eigenpairs.

    Dense symmetric solve below the size cutoff, shift-invert Lanczos above,
    with a fixed start vector so results are reproducible.  Unconverged pairs
    raise instead of being returned, and eigenvector signs follow the
    first-significant-component-positive convention.
    """
    dim = op.dim
    if not (1 <= k <= dim):
        raise ValueError(f"k must lie in 1..{dim}, got {k}")

    complete = dim <= _DENSE_CUTOFF or k > dim - 2
    if complete:
        evals, evecs = scipy.linalg.eigh(op.dense())
    else:
        evals, evecs = _eigsh(op, k, sigma=0.0 if op.grid.bc == "dirichlet" else -0.05)
    evals, evecs = evals[:k], evecs[:, :k]

    resid = _checked_residuals(op, evals, evecs)
    vectors = _fix_signs(evecs / op.grid.h ** (op.grid.d / 2.0))
    return Spectrum(energies=evals, vectors=vectors, residuals=resid, complete=complete)


def _eigsh(op: DiscreteOperator, k: int, sigma: float):
    """The k eigenpairs nearest sigma by shift-invert Lanczos, ascending."""
    rng = np.random.default_rng(_V0_SEED)
    v0 = rng.standard_normal(op.dim)
    try:
        evals, evecs = spla.eigsh(op.matrix, k=k, sigma=sigma, which="LM", v0=v0,
                                  maxiter=max(1000, 20 * k))
    except RuntimeError as exc:  # no convergence, or H - sigma exactly singular
        raise EigensolveError(f"shift-invert Lanczos failed: {exc}") from exc
    order = np.argsort(evals)
    return evals[order], evecs[:, order]


def window_eigenvalues(op: DiscreteOperator, lo: float, hi: float, expected: int) -> np.ndarray:
    """Eigenvalues in (lo, hi], certified complete by an inertia count.

    The `expected + 2` eigenpairs nearest the window midpoint are taken from
    shift-invert Lanczos there or, for d = 1 up to _DENSE_CUTOFF unknowns, from
    all the pairs that LAPACK's divide and conquer (`dstevd`) returns for the
    tridiagonal H; their vectors serve only the certificate.  Raises
    EigensolveError unless every residual meets the `eigensolve` tolerance, the
    vectors are orthonormal (so no eigenvalue is a ghost copy of another), and
    exactly `expected` of the values fall in the window; with `expected` taken
    from `count_eigenvalues`, a missed or spurious eigenvalue cannot pass.
    Divide and conquer forms no LDL^T of H - E (it splits H by rank-one tears,
    solves secular equations and leaves the small blocks to implicit QL/QR), so
    the 1D window and the 1D count share no factorization.
    """
    if not lo < hi:
        raise ValueError(f"empty window ({lo}, {hi}]")
    if expected < 0:
        raise ValueError(f"expected must be nonnegative, got {expected}")
    k, mid = expected + 2, 0.5 * (lo + hi)
    if op.grid.d == 1 and op.dim <= _DENSE_CUTOFF:  # dstevd stores all n^2 vector entries
        diag, off = _tridiagonal(op)
        evals, evecs, info = scipy.linalg.lapack.dstevd(diag, off if off.size else np.zeros(1))
        if info:
            raise EigensolveError(f"dstevd failed with info = {info}")
        near = np.sort(np.argsort(np.abs(evals - mid))[:k])
        evals, evecs = evals[near], evecs[:, near]
    elif k >= op.dim:  # ARPACK needs k < dim
        evals, evecs = scipy.linalg.eigh(op.dense())
    else:
        evals, evecs = _eigsh(op, k, sigma=mid)
    _checked_residuals(op, evals, evecs)
    if np.abs(evecs.T @ evecs - np.eye(evals.size)).max() > 1e-8:
        raise EigensolveError("Ritz vectors are not orthonormal: ghost eigenvalue copies")
    inside = evals[(evals > lo) & (evals <= hi)]
    if inside.size != expected:
        raise EigensolveError(f"{inside.size} Ritz values in ({lo:.6g}, {hi:.6g}], "
                              f"inertia counts {expected}")
    return inside


def _zero_tol(op: DiscreteOperator, energies: np.ndarray) -> np.ndarray:
    """Per energy, the magnitude at or below which a pivot of H - E counts as zero:
    _ZERO_RTOL times the larger of max(1, max off-diagonal |H|) and max |diag(H - E)|."""
    coo = op.matrix.tocoo()
    coo.sum_duplicates()
    off_max = float(np.abs(coo.data[coo.row != coo.col]).max(initial=0.0))
    diag_shift = np.abs(op.matrix.diagonal()[None, :] - energies[:, None]).max(axis=1)
    return _ZERO_RTOL * np.maximum(max(1.0, off_max), diag_shift)


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


def _tridiagonal(op: DiscreteOperator) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal and first off-diagonal of H; raises unless H is tridiagonal."""
    mat = op.matrix
    rows = np.repeat(np.arange(op.dim), np.diff(mat.indptr))
    if np.any((np.abs(mat.indices - rows) > 1) & (mat.data != 0)):
        raise ValueError("operator has entries off the three central diagonals")
    return mat.diagonal(), mat.diagonal(1)


def _pivot_counts(op: DiscreteOperator, energies: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """The slab recursion with one-node slabs: the Sturm pivots of tridiagonal H - E,
    p_0 = a_0 - E and p_i = (a_i - E) - b_{i-1}^2 / p_{i-1}, in Python floats."""
    diag, off = _tridiagonal(op)
    a, b2 = diag.tolist(), [0.0] + (off * off).tolist()
    counts = []
    for e, t in zip(energies.tolist(), tol.tolist()):
        count, q = 0, 1.0
        for ai, bi2 in zip(a, b2):
            p = (ai - e) - bi2 / q
            if abs(p) <= t:
                count, q = count + 1, -t
            else:
                count, q = count + (p < 0), p
        counts.append(count)
    return np.array(counts, dtype=int)


def _as_requested(energy, counts: np.ndarray):
    """An int for a scalar energy, the count array for a sequence."""
    return int(counts[0]) if np.ndim(energy) == 0 else counts


def slab_count_eigenvalues(op: DiscreteOperator, energy):
    """`count_eigenvalues` by the slab Schur recursion alone, at any d.

    Lexicographic node order makes H - E block tridiagonal over slabs of axis-0
    layers, so its inertia is the sum of the inertias of the Schur complements
    S_i = D_i - C_i S_{i-1}^{-1} C_i^T (Haynsworth).  Slabs hold whole layers and
    at least _MIN_SLAB unknowns; all energies go through one batched pass.  When
    a layer is one node (d = 1), H is tridiagonal and every slab is one node:
    the recursion is then scalar Sturm pivots, one energy at a time
    (`_pivot_counts`).  Schur eigenvalues or pivots within _ZERO_RTOL of zero
    (relative to max |H - E|) count as <= E; the recursion goes on with -tol
    in their place.
    """
    energies = np.atleast_1d(np.asarray(energy, dtype=float))
    tol = _zero_tol(op, energies)[:, None]
    if op.dim == op.grid.unknown_shape[0]:
        return _as_requested(energy, _pivot_counts(op, energies, tol[:, 0]))
    diag, coup, layer = _slab_blocks(op)
    n_slabs, size = diag.shape[:2]
    last = op.dim - (n_slabs - 1) * size
    counts = np.zeros(energies.size, dtype=int)
    inv_tail = None  # last-layer block of S_{i-1}^{-1}, per energy
    for i in range(n_slabs):
        b = size if i + 1 < n_slabs else last
        s = np.repeat(diag[i, None, :b, :b], energies.size, axis=0)
        s[:, np.arange(b), np.arange(b)] -= energies[:, None]
        if i:
            s[:, :layer, :layer] -= coup[i] @ inv_tail @ coup[i].T
        lam, vec = np.linalg.eigh(s)
        near = np.abs(lam) <= tol
        counts += np.count_nonzero((lam < 0) | near, axis=1)
        tail = vec[:, -layer:, :]
        inv_tail = (tail / np.where(near, -tol, lam)[:, None, :]) @ tail.transpose(0, 2, 1)
    return _as_requested(energy, counts)


def _ldl_count(mat: sp.csc_matrix, diag: np.ndarray, energy: float, tol: float,
               rhs: np.ndarray) -> int | None:
    """Number of negative pivots of a certified sparse LDL^T of H - E, or None.

    `mat` is H in CSC form and is not modified.  SuperLU with diagonal pivots
    only and a symmetric COLAMD order factors P (H - E) P^T = L D L^T with
    D = diag(U) when it takes no off-diagonal pivot (perm_r == perm_c); by
    Sylvester's law of inertia the count is then the number of negative
    pivots.  None when that fails, when a pivot lies within `tol` of zero, or
    when solving against `rhs` leaves a normwise backward error above
    _BACKWARD_ERR_EPS eps.
    """
    a = mat.copy()
    a.setdiag(diag - energy)  # every diagonal entry is stored: no structural insert
    try:
        lu = spla.splu(a, permc_spec="COLAMD", diag_pivot_thresh=0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # an exactly zero pivot
        return None
    pivots = lu.U.diagonal()
    if not np.array_equal(lu.perm_r, lu.perm_c) or np.abs(pivots).min() <= tol:
        return None
    x = lu.solve(rhs)
    norm = float(abs(a).sum(axis=0).max())  # ||H - E||_inf of the symmetric matrix
    eta = np.abs(rhs - a @ x).max() / (norm * np.abs(x).max() + np.abs(rhs).max())
    if not eta <= _BACKWARD_ERR_EPS * np.finfo(float).eps:
        return None
    return int(np.count_nonzero(pivots < 0))


def count_eigenvalues(op: DiscreteOperator, energy):
    """Number of eigenvalues <= energy via the inertia of H - E, independent of eigensolve.

    For d >= 2 each energy is counted by one certified sparse LDL^T (`_ldl_count`):
    no off-diagonal pivot, no pivot within the near-zero tolerance of the slab
    path, and a backward error within _BACKWARD_ERR_EPS eps on a fixed-seed
    solve.  An eigenvalue closer to E than that backward error (about
    _BACKWARD_ERR_EPS eps ||H - E||) may be counted on either side of it.  An
    energy that fails a certificate, and every energy for d = 1, is counted by
    `slab_count_eigenvalues`; for d = 1 that is the scalar Sturm recursion on
    the tridiagonal H (Kahan: its negative-pivot count is backward stable).

    The count stays independent of the eigenvalues it certifies.  It factors
    H - E at the count energies with diagonal pivots; `eigensolve` and
    `window_eigenvalues` factor H - sigma inside ARPACK, at their fixed shift or
    at the window midpoint, with partial pivoting.  The Wegner edges E +- 3 eps
    and E +- eps_j are never the midpoint E, so no matrix is factored by both.
    The 1D window solve (`dstevd`, divide and conquer) factors no H - E at all.

    `energy` may be a scalar (an int count) or a sequence (an int array).
    """
    energies = np.atleast_1d(np.asarray(energy, dtype=float))
    counts = np.zeros(energies.size, dtype=int)
    slab = np.ones(energies.size, dtype=bool)
    if op.grid.d >= 2:
        mat, diag = op.matrix.tocsc(), op.matrix.diagonal()
        tol = _zero_tol(op, energies)
        rhs = np.random.default_rng(_RHS_SEED).standard_normal(op.dim)
        for j, e in enumerate(energies):
            c = _ldl_count(mat, diag, e, tol[j], rhs)
            if c is not None:
                counts[j], slab[j] = c, False
    if slab.any():
        counts[slab] = slab_count_eigenvalues(op, energies[slab])
    return _as_requested(energy, counts)


def _edge_weight_arrays(grid: Grid, w_cells: np.ndarray) -> list[np.ndarray]:
    shaped = w_cells.reshape(grid.cells_shape)
    return [edge_coefficients(grid, shaped, k) for k in range(grid.d)]


def hf_derivative(op: DiscreteOperator, energy: float, psi: np.ndarray, w) -> float:
    """Derivative of the eigenvalue along t |-> A + t w Id at a simple eigenpair.

    Equals the discrete integral of w |grad psi|^2 with w averaged from cells
    to faces exactly as the assembly does, so the value is the exact slope of
    the affine-in-t quadratic form.
    """
    w = as_scalar_field(w)
    grid = op.grid
    wc = w.on_cells(grid)
    if np.any(wc < -1e-12):
        raise ValueError("w must be nonnegative")
    return _hf_from_weights(grid, psi, _edge_weight_arrays(grid, wc))


def _hf_from_weights(grid: Grid, psi: np.ndarray, weights: list[np.ndarray]) -> float:
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
    field_hash: str


def lifting_curve(grid: Grid, field, w, t_max: float, t_steps: int, indices) -> LiftingCurve:
    """Eigensolve along an equispaced t grid and record exact form derivatives."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if t_steps < 2:
        raise ValueError("need at least two t samples")
    indices = tuple(int(i) for i in indices)
    if not indices or min(indices) < 0:
        raise ValueError("indices must be nonnegative")
    w = as_scalar_field(w)
    wc = w.on_cells(grid)
    if np.any(wc < -1e-12):
        raise ValueError("w must be nonnegative")
    base = assemble(grid, field)
    pert = perturbation_operator(grid, w)
    weights = _edge_weight_arrays(grid, wc)

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
            hf_values[row, it] = _hf_from_weights(grid, psi, weights)
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
    """Seeded random unit vectors in the span of eigenvectors with energy in `interval`."""
    lo, hi = interval
    idx = np.nonzero((spectrum.energies >= lo) & (spectrum.energies <= hi))[0]
    if idx.size == 0:
        raise ValueError(f"interval {interval} contains no eigenvalues")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    coeff = rng.standard_normal((idx.size, n_samples))
    coeff /= np.linalg.norm(coeff, axis=0, keepdims=True)
    out = spectrum.vectors[:, idx] @ coeff
    return out[:, 0] if n_samples == 1 else out
