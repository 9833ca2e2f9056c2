"""Layer timings at fixed sizes, for d = 1, 2 and 3 (pytest-benchmark).

The tier-1 run skips them (`--benchmark-skip` in pyproject's addopts).  Run them with

    PYTHONPATH=src python -m pytest tests/test_layer_timings.py --benchmark-only
"""
import numpy as np
import pytest

import divlab as dl
from divlab import spectral

# (d, L, n_per_side) of Dirichlet grids with 255, 961 and 729 unknowns
_DENSE_GRIDS = {"d1-dim255": (1, 4, 64), "d2-dim961": (2, 2, 16), "d3-dim729": (3, 1, 10)}


@pytest.mark.parametrize("grid", list(_DENSE_GRIDS))
def test_dense_solve_of_the_two_lowest_pairs(benchmark, grid):
    # a sine field that no swap of axes maps to itself: no exact multiplets, which
    # slow MRRR down or make it fall back to eigh
    g = dl.make_grid(*_DENSE_GRIDS[grid])
    field = dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(3 * p[:, 0] + 2 * p[:, -1]))
    op = dl.assemble(g, field)
    evals, evecs = benchmark(spectral._dense_eigh, op, 2)
    assert evals.shape == (2,) and evecs.shape == (op.dim, 2)
