"""Oracles for one alloy sample, built the long way from its single-site bumps.

divlab forms a Wegner sample's operator from its couplings alone
(`AlloyOperators.at(omega)`); the tests compare it with `assemble` of the
field these helpers rebuild.
"""
import numpy as np

import divlab as dl
from divlab.fields import _site_bumps


def v_sup_bound(model):
    """Conservative sup bound m (2 + delta_plus)^d c_plus of V for any coupling draw."""
    return model.dist.m * (2.0 + model.delta_plus) ** model.base.grid.d * model.c_plus


def alloy_potential(model, omega):
    """V = sum_s omega_s u_s, evaluable at any points."""
    def fn(pts):
        values, idx = _site_bumps(model, pts)
        return (values * omega[idx]).sum(axis=1)
    return dl.ScalarField(fn=fn, sup=v_sup_bound(model))


def alloy_field(model, omega):
    """A + V Id with conservative bounds; V at the cell centres from the model's table."""
    grid = model.base.grid
    values, idx = model.cell_bumps
    vcells = (values * omega[idx]).sum(axis=1).reshape(grid.cells_shape)
    return dl.MatrixField(
        grid=grid, cells=model.base.cells + vcells[..., None, None] * np.eye(grid.d),
        theta_minus=model.base.theta_minus,
        theta_plus=model.base.theta_plus + v_sup_bound(model),
        theta_lip=None,  # assembly reads only the cells and theta_minus
    )
