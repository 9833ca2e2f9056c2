"""Cube grids, discrete calculus, equidistributed ball unions, cutoff and switch functions.

Everything here is geometry and quadrature: the cube (-L/2, L/2)^d with a
uniform tensor grid, node/cell/face coordinate maps, forward-difference
gradients, masked squared norms, and the two families of auxiliary functions
(radial cutoffs, smooth step switches) used by the verification checks.
All objects are immutable after construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


def smoothstep(t):
    """Cubic ramp 3t^2 - 2t^3, clamped to [0, 1].  Max slope 1.5 at t = 1/2."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on the open cube (-L/2, L/2)^d, spacing h = 1/n_per_side.

    Dirichlet grids keep only interior nodes as unknowns; Neumann grids keep
    every node.  Cells are the h-cubes between nodes; faces sit between node
    pairs along one axis and carry the discrete gradient.
    """

    d: int
    L: int
    n_per_side: int
    bc: str = DIRICHLET

    @property
    def h(self) -> float:
        return 1.0 / self.n_per_side

    @property
    def cells_per_side(self) -> int:
        return self.L * self.n_per_side

    @property
    def full_shape(self) -> tuple[int, ...]:
        return (self.cells_per_side + 1,) * self.d

    @property
    def cells_shape(self) -> tuple[int, ...]:
        return (self.cells_per_side,) * self.d

    @property
    def unknown_shape(self) -> tuple[int, ...]:
        n = self.cells_per_side
        if self.bc == DIRICHLET:
            return (n - 1,) * self.d
        return (n + 1,) * self.d

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.unknown_shape))

    def axis_nodes(self) -> np.ndarray:
        n = self.cells_per_side
        return (np.arange(n + 1) - n / 2.0) * self.h

    def axis_cells(self) -> np.ndarray:
        n = self.cells_per_side
        return (np.arange(n) + 0.5 - n / 2.0) * self.h

    def _mesh(self, axes) -> np.ndarray:
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    @cached_property
    def full_node_points(self) -> np.ndarray:
        return self._mesh([self.axis_nodes()] * self.d)

    @cached_property
    def node_points(self) -> np.ndarray:
        """Coordinates of the unknown nodes, row-major, shape (n_nodes, d)."""
        ax = self.axis_nodes()
        if self.bc == DIRICHLET:
            ax = ax[1:-1]
        return self._mesh([ax] * self.d)

    @cached_property
    def cell_centers(self) -> np.ndarray:
        return self._mesh([self.axis_cells()] * self.d)

    def face_shape(self, axis: int) -> tuple[int, ...]:
        n = self.cells_per_side
        return tuple(n if k == axis else n + 1 for k in range(self.d))

    def face_points(self, axis: int) -> np.ndarray:
        """Face midpoints along `axis` (cell-center coordinate on that axis)."""
        axes = [self.axis_cells() if k == axis else self.axis_nodes() for k in range(self.d)]
        return self._mesh(axes)

    def embed(self, u) -> np.ndarray:
        """Unknown-node vector -> full-lattice array (zeros on a Dirichlet boundary)."""
        u = np.asarray(u, dtype=float)
        if u.size != self.n_nodes:
            raise ValueError(f"node field has size {u.size}, grid has {self.n_nodes} unknowns")
        full = np.zeros(self.full_shape)
        if self.bc == DIRICHLET:
            inner = tuple(slice(1, -1) for _ in range(self.d))
            full[inner] = u.reshape(self.unknown_shape)
        else:
            full[...] = u.reshape(self.unknown_shape)
        return full

    def restrict(self, full) -> np.ndarray:
        full = np.asarray(full, dtype=float)
        if self.bc == DIRICHLET:
            inner = tuple(slice(1, -1) for _ in range(self.d))
            return full[inner].ravel().copy()
        return full.ravel().copy()


def make_grid(d: int, L: int, n_per_side: int, bc: str = DIRICHLET) -> Grid:
    if d not in (1, 2, 3):
        raise ValueError(f"dimension {d} not supported (need 1, 2 or 3)")
    if isinstance(L, bool) or not isinstance(L, (int, np.integer)) or L < 1:
        raise ValueError(f"side length must be a positive integer, got {L!r}")
    if (isinstance(n_per_side, bool) or not isinstance(n_per_side, (int, np.integer))
            or n_per_side < 2):
        raise ValueError(f"n_per_side must be an integer >= 2, got {n_per_side!r}")
    if bc not in (DIRICHLET, NEUMANN):
        raise ValueError(f"unknown boundary condition {bc!r}")
    return Grid(d=int(d), L=int(L), n_per_side=int(n_per_side), bc=bc)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """A scalar function on the cube, evaluable at arbitrary point arrays.

    `lip` and `sup` are optional certified bounds on the Lipschitz constant
    and the sup norm, carried along so perturbation checks can quote them.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lip: float | None = None
    sup: float | None = None

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        out = np.asarray(self.fn(pts), dtype=float)
        return out.reshape(pts.shape[0])

    def on_full_nodes(self, grid: Grid) -> np.ndarray:
        return self(grid.full_node_points)

    def on_cells(self, grid: Grid) -> np.ndarray:
        return self(grid.cell_centers)


def as_scalar_field(obj) -> ScalarField:
    if isinstance(obj, ScalarField):
        return obj
    if callable(obj):
        return ScalarField(fn=obj)
    value = float(obj)
    return ScalarField(fn=lambda pts: np.full(pts.shape[0], value), lip=0.0, sup=abs(value))


@dataclass(frozen=True, eq=False)
class FaceField:
    """Per-face values, one array per axis; comps[k] has shape grid.face_shape(k)."""

    grid: Grid
    comps: tuple[np.ndarray, ...]


def discrete_gradient(grid: Grid, u) -> FaceField:
    """Forward differences (u_{i+e_k} - u_i)/h along each axis, boundary values included."""
    full = grid.embed(u)
    comps = tuple(np.diff(full, axis=k) / grid.h for k in range(grid.d))
    return FaceField(grid=grid, comps=comps)


@dataclass(frozen=True, eq=False)
class EquidistributedSeq:
    """One ball center per G-cell of the cube, each ball B(z_j, delta) inside its cell.

    Cells tile (-L/2, L/2)^d from the lower corner: cell with multi-index i
    covers -L/2 + G*[i, i+1)^d.  Centers are stored row-major by cell
    multi-index.  The containment invariant is verified on construction.
    """

    L: int
    G: float
    delta: float
    centers: np.ndarray

    @property
    def d(self) -> int:
        return self.centers.shape[1]


def _validate_centers(L, G, delta, centers, multi, mid) -> None:
    margin = G / 2.0 - delta
    off = np.abs(centers - mid)
    bad = np.any(off > margin + 1e-12, axis=1)
    if np.any(bad):
        j = int(np.argmax(bad))
        corner = tuple(np.round(-L / 2.0 + G * multi[j], 12))
        raise ValueError(
            f"center {j} = {tuple(centers[j])} violates ball containment: "
            f"B(z, {delta}) not inside the cell with corner {corner}"
        )


def equidistributed_sequence(grid: Grid, G: float, delta: float, mode: str = "midpoint",
                             seed=None, centers=None) -> EquidistributedSeq:
    """Build and verify a (G, delta)-equidistributed sequence on the grid's cube.

    Modes: 'midpoint' puts every center at its cell midpoint, 'random' draws
    uniformly from the delta-shrunken cell (seeded), 'explicit' validates
    caller-supplied centers (ordered row-major by cell).
    """
    if G <= 0:
        raise ValueError(f"period G must be positive, got {G}")
    if not (0 < delta < G / 2):
        raise ValueError(f"need 0 < delta < G/2, got delta={delta}, G={G}")
    ratio = grid.L / G
    k = int(round(ratio))
    if k < 1 or abs(ratio - k) > 1e-9:
        raise ValueError(f"period G={G} must divide the side length L={grid.L}")
    d = grid.d
    multi = np.indices((k,) * d).reshape(d, -1).T
    mid = -grid.L / 2.0 + G * (multi + 0.5)
    if mode == "midpoint":
        pts = mid
    elif mode == "random":
        rng = np.random.default_rng(seed)
        margin = G / 2.0 - delta
        pts = mid + rng.uniform(-margin, margin, size=mid.shape)
    elif mode == "explicit":
        if centers is None:
            raise ValueError("explicit mode needs a centers array")
        pts = np.atleast_2d(np.asarray(centers, dtype=float))
        if pts.shape != (k**d, d):
            raise ValueError(f"expected {k ** d} centers of dimension {d}, got shape {pts.shape}")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    _validate_centers(grid.L, G, delta, pts, multi, mid)
    return EquidistributedSeq(L=grid.L, G=float(G), delta=float(delta), centers=pts)


@dataclass(frozen=True, eq=False)
class SubsetMask:
    """Node-sampled membership in a subset of the cube.

    A node belongs iff its coordinates do; face fields are masked by their
    face midpoint.
    """

    grid: Grid
    fn: Callable[[np.ndarray], np.ndarray]

    @cached_property
    def full_node_mask(self) -> np.ndarray:
        return np.asarray(self.fn(self.grid.full_node_points), dtype=bool).reshape(self.grid.full_shape)

    @cached_property
    def node_mask(self) -> np.ndarray:
        return np.asarray(self.fn(self.grid.node_points), dtype=bool).ravel()

    @cached_property
    def _face_masks(self) -> tuple[np.ndarray, ...]:
        g = self.grid
        return tuple(np.asarray(self.fn(g.face_points(k)), dtype=bool).reshape(g.face_shape(k))
                     for k in range(g.d))

    def face_mask(self, axis: int) -> np.ndarray:
        return self._face_masks[axis]


def site_sq_distances(seq: EquidistributedSeq, pts, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances d2 and indices idx of the sites near each point, shape (n_points, (2m+1)^d).

    The sites are those of the G-cells within m = ceil(reach / G) cells of the point's own cell
    along every axis; cells outside the cube give d2 = inf.  Each site lies inside its own cell,
    so every site within `reach` of a point, inside the cube or not, is listed.  The cell offsets
    run row-major, and d2 sums the squared coordinate differences in axis order.
    """
    pts = np.asarray(pts, dtype=float)
    n, d = pts.shape
    k = int(round(seq.L / seq.G))
    m = math.ceil(reach / seq.G)
    own = np.floor((pts + seq.L / 2.0) / seq.G).astype(int)
    # axis a's cell of a (point, offset) pair varies along dimension a + 1 alone, so the
    # cell index builds up axis by axis with no (points, offsets, d) array
    idx, outside = 0, False
    for a in range(d):
        shape = (n,) + (1,) * a + (2 * m + 1,) + (1,) * (d - a - 1)
        cell = (own[:, a, None] + np.arange(-m, m + 1)).reshape(shape)
        outside = outside | (cell < 0) | (cell >= k)
        idx = idx * k + np.clip(cell, 0, k - 1)
    idx = idx.reshape(n, (2 * m + 1) ** d)
    d2 = (pts[:, 0, None] - seq.centers[:, 0][idx]) ** 2
    for a in range(1, d):
        d2 += (pts[:, a, None] - seq.centers[:, a][idx]) ** 2
    d2[outside.reshape(idx.shape)] = np.inf
    return d2, idx


def ball_mask(grid: Grid, seq: EquidistributedSeq) -> SubsetMask:
    """Mask of the union of the balls B(z_j, seq.delta) intersected with the cube."""
    if seq.d != grid.d or seq.L != grid.L:
        raise ValueError("sequence and grid live on different cubes")
    r = seq.delta
    return SubsetMask(grid=grid, fn=lambda pts: site_sq_distances(seq, pts, r)[0].min(axis=1) < r * r)


def ball(grid: Grid, x0, r: float) -> SubsetMask:
    x0 = np.asarray(x0, dtype=float).reshape(grid.d)
    return SubsetMask(grid=grid, fn=lambda p: ((p - x0) ** 2).sum(axis=1) < r * r)


def subset_norm2(x, mask: SubsetMask) -> float:
    """h^d-weighted sum of squares over masked entries of a node or face field."""
    grid = mask.grid
    w = grid.h**grid.d
    if isinstance(x, FaceField):
        if x.grid != grid:
            raise ValueError("face field and mask live on different grids")
        total = 0.0
        for k, comp in enumerate(x.comps):
            total += float(np.sum(comp[mask.face_mask(k)] ** 2))
        return w * total
    u = np.asarray(x, dtype=float).ravel()
    if u.size != grid.n_nodes:
        raise ValueError(f"node field has size {u.size}, grid has {grid.n_nodes} unknowns")
    return float(w * np.sum(u[mask.node_mask] ** 2))


def cutoff(grid: Grid, x0, r: float) -> ScalarField:
    """Radial cutoff: 1 on B(x0, r), 0 outside B(x0, 2r), cubic ramp between.

    The ramp slope never exceeds 1.5/r.  Requires B(x0, 2r) inside the cube.
    """
    x0 = np.asarray(x0, dtype=float).reshape(grid.d)
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    if np.any(np.abs(x0) + 2 * r > grid.L / 2 + 1e-12):
        raise ValueError(f"B({tuple(x0)}, {2 * r}) is not contained in the cube of side {grid.L}")

    def fn(pts):
        rho = np.sqrt(((pts - x0) ** 2).sum(axis=1))
        return smoothstep((2 * r - rho) / r)

    return ScalarField(fn=fn, lip=1.5 / r, sup=1.0)


def smooth_switch(values, epsilon: float, shift: float = 0.0):
    """Monotone switch into [-1, 0]: -1 left of shift-epsilon, 0 right of shift+epsilon.

    Smoothstep-based, so the slope is at most 0.75/epsilon.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    x = (np.asarray(values, dtype=float) - shift) / epsilon
    out = smoothstep((x + 1.0) / 2.0) - 1.0
    if np.isscalar(values) or np.ndim(values) == 0:
        return float(out)
    return out
