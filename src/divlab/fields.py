"""Coefficient matrix fields: construction, certification, mollification, random alloys.

A MatrixField stores one symmetric d x d matrix per grid cell (piecewise
constant interpretation) together with its ellipticity bounds and, where
available, a Lipschitz constant.  Random alloy perturbations add a
nonnegative multiple of the identity built from localized single-site bumps
with independent couplings.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .lattice import EquidistributedSeq, Grid, ScalarField, ball_mask, site_sq_distances


class EllipticityError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class MatrixField:
    """Cell-sampled symmetric coefficient field with its bounds.

    theta_minus / theta_plus bound the cell-matrix eigenvalues from below and
    above.  theta_lip is a certified Lipschitz constant, or None when no
    constructor certifies one.
    """

    grid: Grid
    cells: np.ndarray
    theta_minus: float
    theta_plus: float
    theta_lip: float | None

    @property
    def d(self) -> int:
        return self.grid.d

    def content_hash(self) -> str:
        payload = np.ascontiguousarray(self.cells, dtype=float)
        head = f"{self.grid.d},{self.grid.L},{self.grid.n_per_side},{self.grid.bc}".encode()
        return hashlib.sha256(head + payload.tobytes()).hexdigest()[:16]


def _eig_range(cells: np.ndarray, d: int) -> tuple[float, float, int, int]:
    evals = np.linalg.eigvalsh(cells.reshape(-1, d, d))
    mins = evals[:, 0]
    maxs = evals[:, -1]
    return float(mins.min()), float(maxs.max()), int(mins.argmin()), int(maxs.argmax())


def _dir_violations(grid: Grid, cells: np.ndarray) -> list[tuple[int, ...]]:
    d = grid.d
    if d == 1:
        return []
    n = grid.cells_per_side
    offdiag = cells.copy()
    for j in range(d):
        offdiag[..., j, j] = 0.0
    boundary = np.zeros(grid.cells_shape, dtype=bool)
    for axis in range(d):
        idx = [slice(None)] * d
        idx[axis] = 0
        boundary[tuple(idx)] = True
        idx[axis] = n - 1
        boundary[tuple(idx)] = True
    bad = boundary & np.any(offdiag != 0.0, axis=(-2, -1))
    return [tuple(int(i) for i in idx) for idx in np.argwhere(bad)]


def _build(grid: Grid, cells: np.ndarray, theta_lip) -> MatrixField:
    tmin, tmax, _, _ = _eig_range(cells, grid.d)
    return MatrixField(grid=grid, cells=cells, theta_minus=tmin, theta_plus=tmax,
                       theta_lip=theta_lip)


def constant_field(grid: Grid, matrix=None) -> MatrixField:
    """Spatially constant field, the identity by default; rejects non-symmetric or
    non-positive-definite input."""
    m = np.eye(grid.d) if matrix is None else np.asarray(matrix, dtype=float)
    if m.shape != (grid.d, grid.d):
        raise ValueError(f"matrix must be {grid.d}x{grid.d}, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not symmetric")
    evals = np.linalg.eigvalsh(m)
    if evals[0] <= 0:
        raise EllipticityError(f"matrix is not positive definite (min eigenvalue {evals[0]})")
    cells = np.broadcast_to(m, grid.cells_shape + (grid.d, grid.d)).copy()
    return _build(grid, cells, theta_lip=0.0)


def identity_field(grid: Grid) -> MatrixField:
    return constant_field(grid)


def sampled_field(grid: Grid, generator: Callable, theta_lip: float | None = None) -> MatrixField:
    """Sample a generator at cell centers.

    The generator maps a point array (m, d) to matrices (m, d, d) or to
    scalars (m,), the latter meaning a(x) * Id.  Asymmetric output is rejected
    at the first offending cell.  theta_lip is stored as given: the caller's
    certified Lipschitz constant of the generator, or None.
    """
    pts = grid.cell_centers
    out = np.asarray(generator(pts), dtype=float)
    if out.shape == (pts.shape[0],):
        mats = out[:, None, None] * np.eye(grid.d)[None, :, :]
    elif out.shape == (pts.shape[0], grid.d, grid.d):
        mats = out
    else:
        raise ValueError(f"generator returned shape {out.shape}, expected "
                         f"({pts.shape[0]},) or ({pts.shape[0]}, {grid.d}, {grid.d})")
    asym = np.abs(mats - np.swapaxes(mats, -1, -2)).max(axis=(-2, -1))
    if np.any(asym > 0):
        flat = int(np.argmax(asym > 0))
        idx = np.unravel_index(flat, grid.cells_shape)
        raise ValueError(f"generator output is asymmetric at cell {idx}")
    cells = mats.reshape(grid.cells_shape + (grid.d, grid.d))
    return _build(grid, cells, theta_lip=None if theta_lip is None else float(theta_lip))


def checkerboard_field(grid: Grid, low: float = 1.0, high: float = 2.0, axis: int = 0) -> MatrixField:
    """Discontinuous two-valued field: `low` where x_axis < 0, `high` where x_axis >= 0."""
    a = np.where(grid.cell_centers[:, axis] < 0, float(low), float(high))
    cells = (a[:, None, None] * np.eye(grid.d)).reshape(grid.cells_shape + (grid.d, grid.d))
    return _build(grid, cells, theta_lip=None)


def check_ellipticity(field: MatrixField) -> tuple[float, float]:
    """Exact min/max cell-matrix eigenvalues; raises if the field degenerates."""
    tmin, tmax, argmin, _ = _eig_range(field.cells, field.d)
    if tmin <= 0:
        idx = np.unravel_index(argmin, field.grid.cells_shape)
        raise EllipticityError(f"min eigenvalue {tmin} <= 0 at cell {idx}")
    return tmin, tmax


def check_dir_condition(field: MatrixField) -> tuple[bool, list[tuple[int, ...]]]:
    """Off-diagonal entries must vanish on the boundary layer of cells."""
    bad = _dir_violations(field.grid, field.cells)
    return (not bad), bad


# radial cubic bump for the mollifier: value 1 at 0, 0 with zero slope at 1
def _bump_profile(t):
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return (1.0 - t) ** 2 * (1.0 + 2.0 * t)


def _mollifier_kernel(grid: Grid, ell: int) -> np.ndarray:
    radius = 1.0 / ell
    k = int(math.floor(radius / grid.h + 1e-12))
    offsets = np.indices((2 * k + 1,) * grid.d).reshape(grid.d, -1).T - k
    rho = np.sqrt((offsets**2).sum(axis=1)) * grid.h
    vals = _bump_profile(rho / radius)
    vals[rho > radius] = 0.0
    kern = vals.reshape((2 * k + 1,) * grid.d)
    return kern / kern.sum()


def _convolve(arr: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """`scipy.ndimage.convolve(arr, kern, mode="constant", cval=0.0)` for an odd-sized
    kernel, bit for bit, as a sum of shifted copies of the zero-padded array: the
    flipped kernel's weights above DBL_EPSILON in magnitude, added in C order from 0.0."""
    flipped = kern[(slice(None, None, -1),) * kern.ndim]
    padded = np.pad(arr, kern.shape[0] // 2)
    out = np.zeros(arr.shape)
    for at in zip(*np.nonzero(np.abs(flipped) > np.finfo(float).eps)):
        out += padded[tuple(slice(a, a + n) for a, n in zip(at, arr.shape))] * flipped[at]
    return out


def mollify(field: MatrixField, ell: int, eps: float) -> MatrixField:
    """Smooth a field by discrete convolution, trading eps of lower ellipticity.

    Splits A = B + (A - B) with B = (theta_minus - eps) * Id, extends A - B by
    zero outside the cube and convolves it with a normalized radial bump of
    support radius 1/ell.  The result has cellwise eigenvalues in
    [theta_minus - eps, theta_plus]; its Lipschitz constant, O(ell^{d+1}), is
    not certified, so theta_lip is None.
    """
    if not (0 < eps < field.theta_minus):
        raise ValueError(f"need 0 < eps < theta_minus={field.theta_minus}, got eps={eps}")
    if not isinstance(ell, (int, np.integer)) or ell < 1:
        raise ValueError(f"ell must be a positive integer, got {ell!r}")
    grid = field.grid
    d = grid.d
    base = (field.theta_minus - eps) * np.eye(d)
    shifted = field.cells - base
    kern = _mollifier_kernel(grid, int(ell))
    out = np.empty_like(shifted)
    for j in range(d):
        for k in range(j, d):
            conv = _convolve(shifted[..., j, k], kern)
            out[..., j, k] = conv
            out[..., k, j] = conv
    cells = out + base
    # the bounds are certified by construction and tighter than a scan of the cells
    return MatrixField(grid=grid, cells=cells, theta_minus=field.theta_minus - eps,
                       theta_plus=field.theta_plus, theta_lip=None)


@dataclass(frozen=True)
class CouplingDistribution:
    """Per-site coupling law with support in [0, m] and its modulus of continuity.

    kinds: 'uniform' on [0, m]; 'bernoulli' on {0, m} with P(m) = p;
    'point' mass at m.
    """

    kind: str
    m: float
    p: float = 0.5

    def __post_init__(self):
        if self.kind not in ("uniform", "bernoulli", "point"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.m < 0:
            raise ValueError("support bound m must be nonnegative")
        if self.kind == "uniform" and self.m <= 0:
            raise ValueError("uniform law needs m > 0")
        if not (0 <= self.p <= 1):
            raise ValueError("bernoulli weight must lie in [0, 1]")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(0.0, self.m, size=size)
        if self.kind == "bernoulli":
            return self.m * (rng.random(size) < self.p)
        return np.full(size, self.m)

    def modulus(self, eps: float) -> float:
        """Largest mass any length-eps interval can carry."""
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.kind == "uniform":
            return min(1.0, eps / self.m)
        if self.kind == "point":
            return 1.0
        if eps >= self.m:
            return 1.0
        return max(self.p, 1.0 - self.p)


@dataclass(frozen=True, eq=False)
class AlloyModel:
    """Random multiple-of-identity perturbation from localized single-site bumps.

    Sites sit at a (1, delta_minus)-equidistributed sequence; every bump is
    sandwiched between c_minus on the inner ball and c_plus on the outer ball.
    Couplings are i.i.d. with the given law.  Bump shapes: 'plateau' (c_minus
    inside delta_minus, linear decay to zero at delta_plus, Lipschitz) or
    'indicator' (c_minus on the inner ball, discontinuous).
    """

    base: MatrixField
    seq: EquidistributedSeq
    c_minus: float
    c_plus: float
    delta_plus: float
    bump: str
    dist: CouplingDistribution

    @property
    def delta_minus(self) -> float:
        return self.seq.delta

    def bump_lip(self) -> float | None:
        if self.bump != "plateau":
            return None
        return self.c_minus / (self.delta_plus - self.delta_minus)

    @cached_property
    def cell_bumps(self) -> tuple[np.ndarray, np.ndarray]:
        """`_site_bumps` at the base grid's cell centers, looked up once per model."""
        return _site_bumps(self, self.base.grid.cell_centers)


def alloy_model(base: MatrixField, seq: EquidistributedSeq, *, c_minus: float = 1.0,
                c_plus: float = 2.0, delta_plus: float | None = None, bump: str = "plateau",
                dist: CouplingDistribution | None = None) -> AlloyModel:
    if seq.G != 1.0:
        raise ValueError("alloy sites must come from a (1, delta)-equidistributed sequence")
    if not (0 < seq.delta < 0.5):
        raise ValueError("inner radius delta_minus must lie in (0, 1/2)")
    dp = 2.0 * seq.delta if delta_plus is None else float(delta_plus)
    if not (seq.delta < dp):
        raise ValueError(f"need delta_minus < delta_plus, got {seq.delta} >= {dp}")
    if not (0 < c_minus < c_plus):
        raise ValueError(f"need 0 < c_minus < c_plus, got {c_minus}, {c_plus}")
    if bump not in ("plateau", "indicator"):
        raise ValueError(f"unknown bump shape {bump!r}")
    return AlloyModel(base=base, seq=seq, c_minus=float(c_minus), c_plus=float(c_plus),
                      delta_plus=dp, bump=bump,
                      dist=dist or CouplingDistribution("uniform", 1.0))


def _site_bumps(model: AlloyModel, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bump values of the sites near each point and those sites' indices, per point."""
    d2, idx = site_sq_distances(model.seq, pts, model.delta_plus)
    rho = np.sqrt(d2)
    if model.bump == "indicator":
        return model.c_minus * (rho < model.delta_minus), idx
    ramp = (model.delta_plus - rho) / (model.delta_plus - model.delta_minus)
    return model.c_minus * np.clip(ramp, 0.0, 1.0), idx


def single_site_sum(model: AlloyModel) -> ScalarField:
    """Sum of all single-site bumps (the perturbation direction for a unit shift)."""
    def fn(pts):
        return _site_bumps(model, pts)[0].sum(axis=1)
    ov = (2.0 + 2.0 * model.delta_plus) ** model.base.grid.d
    return ScalarField(fn=fn, lip=model.bump_lip(), sup=model.c_plus * ov)


def sample_alloy(model: AlloyModel, seed) -> np.ndarray:
    """Draw the couplings omega of one sample; its operator is `AlloyOperators.at(omega)`."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return model.dist.sample(rng, len(model.seq.centers))


def ball_plateau_field(seq: EquidistributedSeq, inner: float | None = None,
                       outer: float | None = None) -> ScalarField:
    """Max over sites of a plateau tent: 1 on B(z_j, inner), 0 outside B(z_j, outer).

    Defaults inner = seq.delta, outer = 2 inner, so the field dominates the
    ball-union indicator and is Lipschitz with constant 1/(outer - inner).
    """
    inner = seq.delta if inner is None else float(inner)
    outer = 2.0 * inner if outer is None else float(outer)
    if not (0 < inner < outer):
        raise ValueError("need 0 < inner < outer")

    def fn(pts):
        rho = np.sqrt(site_sq_distances(seq, pts, outer)[0])
        return np.clip((outer - rho) / (outer - inner), 0.0, 1.0).max(axis=1)

    return ScalarField(fn=fn, lip=1.0 / (outer - inner), sup=1.0)


def tent_minorant(w: ScalarField, seq: EquidistributedSeq, grid: Grid) -> ScalarField:
    """Lipschitz minorant of w: tents of height 1 and slope 2/delta on each ball.

    With dhat = delta/2 the result equals 1 on B(z_j, dhat), vanishes outside
    B(z_j, delta), and satisfies w >= tent >= indicator of the dhat-ball union
    nodewise (verified for the node values of w on construction).
    """
    dhat = seq.delta / 2.0
    nodes = grid.full_node_points
    wn = w(nodes)
    if np.any(wn < -1e-12):
        j = int(np.argmin(wn))
        raise ValueError(f"w must be nonnegative; w({tuple(nodes[j])}) = {wn[j]}")
    inside = ball_mask(grid, seq).full_node_mask.ravel()
    deficit = wn[inside] < 1.0 - 1e-12
    if np.any(deficit):
        j = int(np.argmax(deficit))
        pt = nodes[inside][j]
        raise ValueError(f"w must dominate the ball-union indicator; w({tuple(pt)}) < 1")
    return ball_plateau_field(seq, dhat, seq.delta)
