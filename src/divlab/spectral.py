"""Eigenpairs, inertia-based eigenvalue counting, lifting curves, form derivatives."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lattice import Grid, ScalarField, as_scalar_field, discrete_gradient
from .operators import DiscreteOperator, assemble, edge_coefficients, perturbation_operator

_DENSE_CUTOFF = 1400
_V0_SEED = 20210 + 4  # fixed Lanczos start vector seed: deterministic, symmetry-free


class EigensolveError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues with h^d-orthonormal eigenvectors and their residuals."""

    grid: Grid
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
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        big = np.abs(col) > 1e-8 * np.abs(col).max()
        first = int(np.argmax(big))
        if col[first] < 0:
            vectors[:, j] = -col
    return vectors


def _matrix_scale(mat: sp.csr_matrix) -> float:
    return float(abs(mat).sum(axis=1).max())


def eigensolve(op: DiscreteOperator, k: int, rtol: float = 1e-9) -> Spectrum:
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
        evals, evecs = _eigsh_lowest(op, k)
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]
    evals, evecs = evals[:k], evecs[:, :k]

    resid = np.linalg.norm(op.matrix @ evecs - evecs * evals[None, :], axis=0)
    scale = _matrix_scale(op.matrix)
    tol = rtol * (1.0 + np.abs(evals)) + 100 * np.finfo(float).eps * scale
    bad = resid > tol
    if np.any(bad):
        worst = int(np.argmax(resid / tol))
        raise EigensolveError(
            f"{int(bad.sum())} eigenpairs unconverged; worst residual {resid[worst]:.3e} "
            f"for eigenvalue {evals[worst]:.6g} (tolerance {tol[worst]:.3e})")

    vectors = _fix_signs(evecs / op.grid.h ** (op.grid.d / 2.0))
    return Spectrum(grid=op.grid, energies=evals, vectors=vectors,
                    residuals=resid, complete=complete)


def _eigsh_lowest(op: DiscreteOperator, k: int):
    rng = np.random.default_rng(_V0_SEED)
    v0 = rng.standard_normal(op.dim)
    sigma = 0.0 if op.grid.bc == "dirichlet" else -0.05
    try:
        evals, evecs = spla.eigsh(op.matrix, k=k, sigma=sigma, which="LM", v0=v0,
                                  maxiter=max(1000, 20 * k))
    except spla.ArpackNoConvergence as exc:
        raise EigensolveError(f"shift-invert Lanczos failed to converge: {exc}") from exc
    order = np.argsort(evals)
    return evals[order], evecs[:, order]


def _block_eigenvalues(dmat: np.ndarray) -> np.ndarray:
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


def count_eigenvalues(op: DiscreteOperator, energy: float, return_flag: bool = False):
    """Number of eigenvalues <= energy via the inertia of H - E, independent of eigensolve.

    A symmetric indefinite factorization gives the signs (Sylvester); block
    eigenvalues within 1e-12 of zero (relative to the matrix scale) flag the
    count as boundary-ambiguous.
    """
    if op.dim > 8000:
        raise ValueError("inertia counting is limited to 8000 unknowns; refine in pieces")
    a = op.dense() - energy * np.eye(op.dim)
    _, dmat, _ = scipy.linalg.ldl(a, lower=True)
    evs = _block_eigenvalues(dmat)
    scale = max(1.0, float(np.abs(a).max()))
    near_zero = np.abs(evs) <= 1e-12 * scale
    count = int(np.count_nonzero((evs < 0) | near_zero))
    if return_flag:
        return count, bool(near_zero.any())
    return count


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
    residuals: np.ndarray     # same shape; eigenpair residuals
    degenerate: np.ndarray    # bool, same shape
    w: ScalarField
    w_min_nodes: float
    field_hash: str


def lifting_curve(grid: Grid, field, w, t_max: float, t_steps: int,
                  indices, *, rtol: float = 1e-9, gap_rtol: float = 1e-8) -> LiftingCurve:
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
    residuals = np.empty_like(energies)
    degenerate = np.zeros(energies.shape, dtype=bool)

    for it, t in enumerate(ts):
        spec = eigensolve(base.shifted(pert, float(t)), k=k, rtol=rtol)
        for row, n in enumerate(indices):
            if n >= spec.k:
                raise ValueError(f"index {n} out of range for spectrum of size {spec.k}")
            e, psi = spec.pair(n)
            energies[row, it] = e
            hf_values[row, it] = _hf_from_weights(grid, psi, weights)
            residuals[row, it] = spec.residuals[n]
            gap = np.inf
            if n > 0:
                gap = min(gap, e - spec.energies[n - 1])
            if n + 1 < spec.k:
                gap = min(gap, spec.energies[n + 1] - e)
            degenerate[row, it] = gap < gap_rtol * max(1.0, abs(e))

    w_min = float(np.min(w.on_full_nodes(grid)))
    fh = field.content_hash()
    return LiftingCurve(grid=grid, ts=ts, indices=indices, energies=energies,
                        hf_values=hf_values, residuals=residuals, degenerate=degenerate,
                        w=w, w_min_nodes=w_min, field_hash=fh)


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
