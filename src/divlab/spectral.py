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
_MIN_SLAB = 16  # unknowns per inertia slab; one-node slabs make 1D counts Python-bound
_RTOL = 1e-9
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

    Shift-invert Lanczos at the window midpoint returns the `expected + 2`
    eigenvalues nearest to it; their vectors serve only the certificate.  Raises
    EigensolveError unless every residual meets the `eigensolve` tolerance, the
    Ritz vectors are orthonormal (so no eigenvalue is a ghost copy of another),
    and exactly `expected` Ritz values fall in the window; with `expected` taken
    from `count_eigenvalues`, a missed or spurious eigenvalue cannot pass.
    """
    if not lo < hi:
        raise ValueError(f"empty window ({lo}, {hi}]")
    if expected < 0:
        raise ValueError(f"expected must be nonnegative, got {expected}")
    k = expected + 2
    if k >= op.dim:  # ARPACK needs k < dim
        evals, evecs = scipy.linalg.eigh(op.dense())
    else:
        evals, evecs = _eigsh(op, k, sigma=0.5 * (lo + hi))
    _checked_residuals(op, evals, evecs)
    if np.abs(evecs.T @ evecs - np.eye(evals.size)).max() > 1e-8:
        raise EigensolveError("Ritz vectors are not orthonormal: ghost eigenvalue copies")
    inside = evals[(evals > lo) & (evals <= hi)]
    if inside.size != expected:
        raise EigensolveError(f"{inside.size} Ritz values in ({lo:.6g}, {hi:.6g}], "
                              f"inertia counts {expected}")
    return inside


def _slab_blocks(op: DiscreteOperator):
    """H as a block tridiagonal matrix over slabs of whole axis-0 layers.

    Returns the dense diagonal slab blocks (the last one zero-padded), the
    layer-by-layer couplings `coup[i] = H[first layer of slab i, last layer of
    slab i-1]`, the layer size, and the largest off-diagonal magnitude.
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
    return diag, coup, layer, float(np.abs(v[r != c]).max(initial=0.0))


def count_eigenvalues(op: DiscreteOperator, energy, return_flag: bool = False):
    """Number of eigenvalues <= energy via the inertia of H - E, independent of eigensolve.

    Lexicographic node order makes H - E block tridiagonal over slabs of
    axis-0 layers, so its inertia is the sum of the inertias of the Schur
    complements S_i = D_i - C_i S_{i-1}^{-1} C_i^T (Haynsworth).  Slabs hold
    whole layers and at least _MIN_SLAB unknowns.  Schur eigenvalues within
    1e-12 of zero (relative to max |H - E|) count as <= E, flag the count as
    boundary-ambiguous, and are inverted with that sign.

    `energy` may be a scalar or a sequence; a sequence is counted in one
    batched pass and gives arrays of counts (and flags).
    """
    energies = np.atleast_1d(np.asarray(energy, dtype=float))
    diag, coup, layer, off_max = _slab_blocks(op)
    n_slabs, size = diag.shape[:2]
    last = op.dim - (n_slabs - 1) * size
    diag_shift = np.abs(op.matrix.diagonal()[None, :] - energies[:, None]).max(axis=1)
    tol = 1e-12 * np.maximum(max(1.0, off_max), diag_shift)[:, None]
    counts = np.zeros(energies.size, dtype=int)
    flags = np.zeros(energies.size, dtype=bool)
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
        flags |= near.any(axis=1)
        tail = vec[:, -layer:, :]
        inv_tail = (tail / np.where(near, -tol, lam)[:, None, :]) @ tail.transpose(0, 2, 1)
    if np.ndim(energy) == 0:
        counts, flags = int(counts[0]), bool(flags[0])
    return (counts, flags) if return_flag else counts


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
