"""Serialization: flat-text field dumps and JSON reports."""
from __future__ import annotations

import json

import numpy as np

from .fields import MatrixField, _build
from .lattice import make_grid


def save_field(field: MatrixField, path) -> None:
    """Text dump: header `d L n_per_side`, then one row per cell (row-major),
    matrix entries row-major within the row."""
    grid = field.grid
    flat = field.cells.reshape(-1, grid.d * grid.d)
    header = f"{grid.d} {grid.L} {grid.n_per_side}"
    np.savetxt(path, flat, header=header, comments="# ")


def load_field(path, bc: str = "dirichlet") -> MatrixField:
    with open(path) as fh:
        header = fh.readline().lstrip("# ").split()
    d, L, n = (int(x) for x in header[:3])
    grid = make_grid(d, L, n, bc)
    flat = np.loadtxt(path)
    flat = np.atleast_2d(flat)
    cells = flat.reshape(grid.cells_shape + (d, d))
    return _build(grid, cells, theta_lip=None)


def save_report_json(report, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (set, tuple)):
        return list(obj)
    raise TypeError(f"cannot serialize {type(obj)}")
