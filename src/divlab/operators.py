"""Assembly of the discrete divergence-form operator and the coordinate rescaling.

The quadratic form sum_faces h^d (grad u)^T A_face (grad u) is realized by an
exactly symmetric stencil: axis terms use forward differences weighted by the
arithmetic mean of the adjacent cell coefficients, mixed terms contract
plaquette-averaged forward differences against the cell's off-diagonal
entries.  The scheme is linear in the coefficient field and transfers the
cellwise ellipticity bounds to the discrete form without slack:

    theta_minus * |grad u|^2  <=  u^T K u  <=  theta_plus * |grad u|^2

with |grad u|^2 the uniform h^d-weighted squared face-gradient norm.

By that linearity the operator of an alloy sample A + sum_s omega_s u_s Id is
H_0 + sum_s omega_s H_s, with H_0 the operator of A and H_s that of u_s Id;
`alloy_operators` assembles these once per model, so a sample costs one sparse
matrix-vector product.
Every operator runs the same code, `_operator`: `_triplets` lists the stencil
terms of one field or of several on a field axis, and one 0/1 product sums them
per entry of a CSR pattern.  `alloy_operators` runs it once on all the u_s Id
together, on H_0's pattern, so each H_s is, entry for entry, the
`perturbation_operator` of u_s.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
import scipy.sparse as sp

from .fields import AlloyModel, EllipticityError, MatrixField
from .lattice import Grid, as_scalar_field, make_grid


def _pad_average(arr: np.ndarray, axis: int) -> np.ndarray:
    """Cell values -> transverse node positions by two-point means, replicated ends."""
    lead = np.moveaxis(arr, axis, 0)
    padded = np.concatenate([lead[:1], lead, lead[-1:]], axis=0)
    avg = 0.5 * (padded[:-1] + padded[1:])
    return np.moveaxis(avg, 0, axis)


def edge_coefficients(grid: Grid, cells_scalar: np.ndarray, axis: int) -> np.ndarray:
    """Arithmetic mean of a per-cell scalar over the cells adjacent to each axis-face."""
    abar = cells_scalar
    for t in range(grid.d):
        if t != axis:
            abar = _pad_average(abar, axis=t)
    return abar


def _axis_weight(grid: Grid, cells_kk: np.ndarray, k: int) -> np.ndarray:
    """h^d abar / h^2 on each axis-k face, abar the face mean of the cells' A_kk; a
    trailing axis of `cells_kk` past the d cell axes carries separate fields."""
    return grid.h**grid.d * edge_coefficients(grid, cells_kk, k) / (grid.h * grid.h)


def _triplets(grid: Grid, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and values of every stencil term over all (n + 1)^d nodes.

    `cells` holds a d x d matrix per cell, optionally for several fields on an axis
    before the matrix axes; the values have one column per field (one without that
    axis).  They are linear in `cells`; the rows and columns depend only on the grid
    and on which off-diagonal entries of `cells` are nonzero anywhere.
    """
    d, h, n = grid.d, grid.h, grid.cells_per_side
    if cells.ndim == d + 2:
        cells = cells[..., None, :, :]
    lin = np.arange((n + 1) ** d).reshape(grid.full_shape)
    hd = h**d
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(np.asarray(v, dtype=float).reshape(r.size, -1))

    for k in range(d):
        w = _axis_weight(grid, cells[..., k, k], k)
        lo = [slice(None)] * d
        hi = [slice(None)] * d
        lo[k] = slice(0, n)
        hi[k] = slice(1, n + 1)
        a, b = lin[tuple(lo)], lin[tuple(hi)]
        add(a, a, w)
        add(b, b, w)
        add(a, b, -w)
        add(b, a, -w)

    def corner_block(bits):
        sl = tuple(slice(bits.get(t, 0), n + bits.get(t, 0)) for t in range(d))
        return lin[sl]

    for j in range(d):
        for k in range(j + 1, d):
            ajk = cells[..., j, k]
            if not np.any(ajk):
                continue
            rest = [t for t in range(d) if t not in (j, k)]
            for rest_bits in product((0, 1), repeat=len(rest)):
                bits0 = dict(zip(rest, rest_bits))
                nodes = {}
                for bj, bk in product((0, 1), repeat=2):
                    nodes[(bj, bk)] = corner_block({**bits0, j: bj, k: bk})
                cj = {(0, 0): -1.0, (0, 1): -1.0, (1, 0): 1.0, (1, 1): 1.0}
                ck = {(0, 0): -1.0, (0, 1): 1.0, (1, 0): -1.0, (1, 1): 1.0}
                wgt = 2.0 ** (3 - d) * hd * ajk / (4.0 * h * h)
                for p in nodes:
                    for q in nodes:
                        coef = 0.5 * (cj[p] * ck[q] + ck[p] * cj[q])
                        if coef:
                            add(nodes[p], nodes[q], wgt * coef)

    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _entry_sums(grid: Grid, cells: np.ndarray, pattern: sp.csr_matrix | None):
    """The CSR `pattern` (by default the stencil pattern of `cells`), the per-entry
    sums K of the stencil terms between unknowns, one column per field, and the entry
    of each entry's transpose.  One product with the 0/1 term -> entry matrix, whose
    columns list the terms in `_triplets` order, sums each entry in that order from 0."""
    r, c, vals = _triplets(grid, cells)
    n_terms = vals.shape[0]
    # each term's row and column among the unknowns, -1 for a Dirichlet boundary node
    unknown = grid.embed(np.arange(1, grid.n_nodes + 1)).ravel().astype(np.int32) - 1
    r, c = unknown[r], unknown[c]
    kept = (r >= 0) & (c >= 0)
    r, c = r[kept], c[kept]
    if pattern is None:
        pattern = sp.csr_matrix((np.ones(r.size, dtype=bool), (r, c)), shape=(grid.n_nodes,) * 2)
    entry = sp.csr_matrix((np.arange(pattern.nnz), pattern.indices, pattern.indptr),
                          shape=pattern.shape)
    # each term's entry, nnz for a term with a boundary node; int32, as scipy would
    # otherwise copy the indices down to int32
    at = np.full(n_terms, pattern.nnz, dtype=np.int32)
    at[kept] = np.asarray(entry[r, c]).ravel()
    to_entry = sp.csc_matrix((np.ones(n_terms), at, np.arange(n_terms + 1, dtype=np.int32)),
                             shape=(pattern.nnz + 1, n_terms))
    # the pattern is symmetric, so its transpose lists the same entries
    return pattern, (to_entry @ vals)[:-1], entry.T.tocsr().data


def _operator(grid: Grid, cells: np.ndarray, pattern: sp.csr_matrix | None = None):
    """H = K / h^d of the cell matrices `cells` on the CSR `pattern`, by default their
    stencil's; with a field axis in `cells` (see `_triplets`), each field's entries of
    H on `pattern`, one column per field, as a sparse (nnz, fields) matrix.

    The per-entry sums K come from `_entry_sums`, so every term is freed before K is
    symmetrized as 0.5 (K + K^T) and scaled by 1 / h^d, as scipy adds, transposes and
    divides.  A scalar field's terms are the axis terms, which lie on the stencil
    pattern of any field on the grid.
    """
    pattern, k, transposed = _entry_sums(grid, cells, pattern)
    hk = 0.5 * (k + k[transposed]) * (1.0 / grid.h**grid.d)
    if cells.ndim > grid.d + 2:
        return sp.csr_matrix(hk)
    return sp.csr_matrix((hk[:, 0], pattern.indices, pattern.indptr), shape=pattern.shape)


def _canonical(mat: sp.csr_matrix | sp.csc_matrix):
    """`mat`, or a copy with sorted indices and summed duplicates when it lacks them."""
    if not mat.has_canonical_format:  # a duplicate entry counts by its sum
        mat = mat.copy()
        mat.sum_duplicates()
    return mat


def _band_offsets(mat: sp.csr_matrix) -> np.ndarray:
    """Column minus row of each entry stored in `mat.data`."""
    return mat.indices - np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))


def _off_band(mat: sp.csr_matrix) -> bool:
    """Whether `mat` has a nonzero entry, duplicates summed, more than one place off the
    diagonal; a stored zero is no entry.  The one band rule: of the 1D band reads
    (`_band_positions`) and of the dense solve's choice of the bands over a reduction
    (`spectral._dense_eigh`)."""
    mat = _canonical(mat)
    return bool(np.any((np.abs(_band_offsets(mat)) > 1) & (mat.data != 0)))


def _band_positions(mat: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """The positions in `mat.data` of the diagonal and of the first superdiagonal;
    raises unless `mat` is tridiagonal (`_off_band`) and stores each band entry exactly once."""
    if _off_band(mat):
        raise ValueError("operator has entries off the three central diagonals")
    offset = _band_offsets(mat)
    diag, sup = np.flatnonzero(offset == 0), np.flatnonzero(offset == 1)
    if diag.size != mat.shape[0] or sup.size != mat.shape[0] - 1:
        raise ValueError("operator does not store each band entry exactly once")
    return diag, sup


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Sparse symmetric realization H = K / h^d acting on unknown-node vectors."""

    grid: Grid
    matrix: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def shifted(self, other: sp.csr_matrix, t: float) -> "DiscreteOperator":
        return DiscreteOperator(grid=self.grid, matrix=(self.matrix + t * other).tocsr())

    @cached_property
    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """The diagonal and first off-diagonal of H; raises unless H is tridiagonal."""
        diag, sup = _band_positions(self.matrix)
        return self.matrix.data[diag], self.matrix.data[sup]


def assemble(grid: Grid, field: MatrixField) -> DiscreteOperator:
    if field.grid != grid:
        raise ValueError("field was sampled on a different grid")
    if field.theta_minus <= 0:
        raise EllipticityError(f"field is not uniformly elliptic (theta_minus={field.theta_minus})")
    return DiscreteOperator(grid=grid, matrix=_operator(grid, field.cells))


def _scalar_cells(grid: Grid, wc: np.ndarray) -> np.ndarray:
    """The cell matrices of the field w * Id from the cell values of w; a trailing
    axis of `wc` past the cell axis carries separate fields."""
    return wc.reshape(*grid.cells_shape, *wc.shape[1:])[..., None, None] * np.eye(grid.d)


def perturbation_operator(grid: Grid, w) -> sp.csr_matrix:
    """Operator matrix of the field w * Id for a nonnegative scalar w.

    Not required to be elliptic; used as the derivative direction t |-> A + t w Id.
    """
    wc = as_scalar_field(w).on_cells(grid)
    if np.any(wc < -1e-12):
        raise ValueError("perturbation w must be nonnegative")
    return _operator(grid, _scalar_cells(grid, wc))


@dataclass(frozen=True, eq=False)
class AlloyOperators:
    """The operators H(omega) = H_0 + sum_s omega_s H_s of an alloy model's samples.

    `sites` holds each H_s on H_0's CSR pattern, the stencil's: row p, column s is
    the entry of H_s at H_0's stored entry p.  Every H(omega) has that pattern.
    """

    base: DiscreteOperator
    sites: sp.csr_matrix

    def at(self, omega: np.ndarray) -> DiscreteOperator:
        """H(omega), the sample operator for the couplings omega."""
        m = self.base.matrix
        mat = sp.csr_matrix((m.data + self.sites @ omega, m.indices, m.indptr), shape=m.shape)
        return DiscreteOperator(grid=self.base.grid, matrix=mat)

    def bands(self, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The diagonals (dim, samples) and first off-diagonals (dim - 1, samples) of
        the tridiagonal H(omega) of each column of `omegas` (sites x samples): one
        product H_0.data + K @ omegas, read at the band positions of H_0, whose pattern
        every H(omega) has.  Column j equals `at(omegas[:, j]).tridiagonal` bit for bit."""
        diag, sup = _band_positions(self.base.matrix)
        data = self.base.matrix.data[:, None] + self.sites @ omegas
        return data[diag], data[sup]


def alloy_operators(grid: Grid, model: AlloyModel) -> AlloyOperators:
    """H_0 = assemble(grid, model.base) and, on H_0's pattern, one H_s per site: the
    `perturbation_operator` of the site's bump at the cell centers (`model.cell_bumps`).

    Every site is built by one `_operator` call on the bump fields u_s Id, a site
    axis before the matrix axes, so each column is H_s bit for bit.
    """
    base = assemble(grid, model.base)
    values, idx = model.cell_bumps
    # bumps[c, s]: a site meets a cell at most once with a nonzero value (a repeat is a
    # clipped cell outside the cube, value 0), so placing the nonzero values fills it
    cell, near = np.nonzero(values)
    bumps = np.zeros((idx.shape[0], len(model.seq.centers)))
    bumps[cell, idx[cell, near]] = values[cell, near]
    return AlloyOperators(base=base, sites=_operator(grid, _scalar_cells(grid, bumps), base.matrix))


def rescale(field: MatrixField, G: float, target_n_per_side: int) -> tuple[MatrixField, float]:
    """Pull a field on the cube of side G*L back to the unit-scaled cube of side L.

    The map x -> G x must send target cell centers to source cell centers,
    which holds iff m = G * n_src / n_tgt is an odd integer (m = 1 relabels
    the same cells; odd m > 1 subsamples).  Eigenvalues of the rescaled
    operator are G^2 times those of the source; the returned factor is G^2.
    Ellipticity bounds carry over; a Lipschitz constant scales by G.
    """
    src = field.grid
    if G <= 0:
        raise ValueError("scale factor G must be positive")
    ratio = src.L / G
    L_tgt = int(round(ratio))
    if L_tgt < 1 or abs(ratio - L_tgt) > 1e-9:
        raise ValueError(f"G={G} must divide the source side length {src.L}")
    m_exact = G * src.n_per_side / target_n_per_side
    m = int(round(m_exact))
    if abs(m_exact - m) > 1e-9 or m < 1 or m % 2 == 0:
        raise ValueError(
            f"incompatible resolutions: G*n_src/n_tgt = {m_exact} must be an odd integer "
            "so cell centers map to cell centers")
    grid_t = make_grid(src.d, L_tgt, int(target_n_per_side), src.bc)
    idx = (m - 1) // 2 + m * np.arange(grid_t.cells_per_side)
    take = np.ix_(*([idx] * src.d))
    cells = field.cells[take].copy()
    out = MatrixField(
        grid=grid_t, cells=cells,
        theta_minus=field.theta_minus, theta_plus=field.theta_plus,
        theta_lip=None if field.theta_lip is None else G * field.theta_lip,
    )
    return out, float(G) ** 2
