"""Layer timings at fixed sizes, for d = 1, 2 and 3 (pytest-benchmark): assembly, the
alloy operator map, the dense solve, the shift-invert Lanczos solves that an
inertia count certifies, a d >= 2 Wegner sample's inertia count, the 1D Wegner window
batch, and one 1D Wegner run.

The tier-1 run runs each body once, untimed (`--benchmark-disable` in pyproject's
addopts), so a timing whose code has moved fails there.  Time them with

    PYTHONPATH=src python -m pytest tests/test_layer_timings.py --benchmark-enable --benchmark-only
"""
import numpy as np
import pytest

import divlab as dl
from divlab import cli, spectral

# (d, L, n_per_side) of Dirichlet grids with 255, 961 and 729 unknowns
_DENSE_GRIDS = {"d1-dim255": (1, 4, 64), "d2-dim961": (2, 2, 16), "d3-dim729": (3, 1, 10)}

# (d, L, n_per_side) of the benchmark's Wegner runs: suite_all's d = 1 run at L = 4 and
# wegner_mc's d = 2 and d = 3 runs
_ALLOY_GRIDS = {"d1-L4-n32": (1, 4, 32), "d2-L2-n16": (2, 2, 16), "d3-L2-n6": (3, 2, 6)}


def _alloy_model(g):
    seq = dl.equidistributed_sequence(g, 1.0, 0.2)
    return dl.alloy_model(dl.identity_field(g), seq, delta_plus=0.45,
                          dist=dl.CouplingDistribution("uniform", 2.0))


@pytest.mark.parametrize("grid", list(_ALLOY_GRIDS))
def test_assemble(benchmark, grid):
    g = dl.make_grid(*_ALLOY_GRIDS[grid])
    op = benchmark(dl.assemble, g, dl.identity_field(g))
    assert op.dim == g.n_nodes


@pytest.mark.parametrize("grid", list(_ALLOY_GRIDS))
def test_alloy_operators(benchmark, grid):
    # H_0 and every site's H_s, as one Wegner run builds them; the bump lookup at the
    # cell centres is cached on the model (`AlloyModel.cell_bumps`), so it is timed once
    g = dl.make_grid(*_ALLOY_GRIDS[grid])
    model = _alloy_model(g)
    ops = benchmark(dl.alloy_operators, g, model)
    assert ops.sites.shape == (ops.base.matrix.nnz, len(model.seq.centers))


def test_assemble_d2_dim16129(benchmark):
    # the ucp_2d workload's operator: sine field, d = 2, L = 8, n = 16
    g = dl.make_grid(2, 8, 16)
    op = benchmark(dl.assemble, g, cli._build_field({"field": {"kind": "sine"}}, g))
    assert op.dim == 16129


@pytest.mark.parametrize("grid", list(_DENSE_GRIDS))
def test_dense_solve_of_the_two_lowest_pairs(benchmark, grid):
    # a sine field that no swap of axes maps to itself: no exact multiplets, which
    # slow MRRR down or make it fall back to eigh
    g = dl.make_grid(*_DENSE_GRIDS[grid])
    field = dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(3 * p[:, 0] + 2 * p[:, -1]))
    op = dl.assemble(g, field)
    evals, evecs = benchmark(spectral._dense_eigh, op, 2)
    assert evals.shape == (2,) and evecs.shape == (op.dim, 2)


def test_certified_threshold_solve_d2_dim3969(benchmark):
    # the shift-invert Lanczos layer of a threshold spectrum, as `divlab.cli` runs it:
    # the below + 1 pairs nearest top / 2, which return every pair <= top
    # (`eigenpairs(op, -inf, top, below)`)
    g = dl.make_grid(2, 4, 16)
    field = dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(3 * p[:, 0] + 2 * p[:, -1]))
    op = dl.assemble(g, field)
    assert op.dim == 3969
    top = 30.0
    below = dl.count_eigenvalues(op, top)
    spec = benchmark(dl.eigenpairs, op, -np.inf, top, below)
    assert not spec.complete and spec.k == below and spec.energies.max() <= top


def test_certified_threshold_solve_d2_dim16129(benchmark):
    # the ucp_2d workload's solve: sine field, d = 2, L = 8, n = 16, 63 pairs solved for
    # the 62 <= e_max = 12
    g = dl.make_grid(2, 8, 16)
    op = dl.assemble(g, cli._build_field({"field": {"kind": "sine"}}, g))
    assert op.dim == 16129
    top = 12.0
    below = dl.count_eigenvalues(op, top)
    spec = benchmark(dl.eigenpairs, op, -np.inf, top, below)
    assert spec.k == below == 62 and spec.energies.max() <= top


def test_certified_threshold_solve_of_many_pairs_d2_dim3969(benchmark):
    # many pairs of a small matrix, where Ritz tests, O(m (m + k)) each, cost more than
    # the steps between them: the identity field, d = 2, L = 4, n = 16, top 150 (184 pairs
    # solved for 183)
    g = dl.make_grid(2, 4, 16)
    op = dl.assemble(g, dl.identity_field(g))
    assert op.dim == 3969
    top = 150.0
    below = dl.count_eigenvalues(op, top)
    spec = benchmark(dl.eigenpairs, op, -np.inf, top, below)
    assert spec.k == below == 183 and spec.energies.max() <= top


# the 8 count edges of a wegner_mc sample, in the check's order: E -+ 3 eps, -+ eps,
# -+ eps / 2 and -+ eps / 4 at E = 30, eps = 1
_WEGNER_EDGES = 30.0 + np.array([-3.0, 3.0, -1.0, 1.0, -0.5, 0.5, -0.25, 0.25])


def _wegner_sample(grid):
    """Sample 0 of the benchmark's wegner_mc alloy model on one of its grids."""
    g = dl.make_grid(*_ALLOY_GRIDS[grid])
    model = _alloy_model(g)
    return dl.alloy_operators(g, model).at(dl.sample_alloy(model, 0))


@pytest.mark.parametrize("grid, dim", [("d2-L2-n16", 961), ("d3-L2-n6", 1331)])
def test_wegner_count_at_eight_edges(benchmark, grid, dim):
    # one wegner_mc sample's inertia counts at its 8 edges, one slab LDL^T sweep per edge
    op = _wegner_sample(grid)
    assert op.dim == dim
    counts = benchmark(dl.count_eigenvalues, op, _WEGNER_EDGES)
    inside = counts[1::2] - counts[::2]  # the counts in the four nested windows
    assert counts.shape == (8,) and inside[0] > 0 and np.all(np.diff(inside) <= 0)


def test_window_solve_d2_dim961(benchmark):
    # one d = 2 Wegner sample's certified window solve, on wegner_mc's 2D grid and alloy
    # model: window (E - 3 eps, E + 3 eps], E = 30, eps = 1
    op = _wegner_sample("d2-L2-n16")
    assert op.dim == 961
    lo, hi = 27.0, 33.0
    expected = int(np.diff(dl.count_eigenvalues(op, [lo, hi]))[0])
    spec = benchmark(dl.eigenpairs, op, lo, hi, expected)
    assert spec.k == expected > 0


def test_window_solve_d3_dim1331(benchmark):
    # one d = 3 Wegner sample's certified window solve, on the 3D grid and alloy model
    # of the benchmark's wegner_mc workload: window (E - 3 eps, E + 3 eps], E = 30, eps = 1
    op = _wegner_sample("d3-L2-n6")
    assert op.dim == 1331
    lo, hi = 27.0, 33.0
    expected = int(np.diff(dl.count_eigenvalues(op, [lo, hi]))[0])
    spec = benchmark(dl.eigenpairs, op, lo, hi, expected)
    assert spec.k == expected > 0


# (L, n_per_side) of 1D grids with 127 and 511 unknowns: the suite's uniform-L4 Wegner
# grid, and the same cube at four times its resolution
_WINDOW_GRIDS = {"n127": (4, 32), "n511": (4, 128)}


@pytest.mark.parametrize("grid", list(_WINDOW_GRIDS))
def test_window_batch_d1(benchmark, grid):
    # the window solve of a 1D Wegner run: 200 samples' windows (E - 3 eps, E + 3 eps],
    # E = 12.5, eps = 0.5, solved and certified by one `tridiagonal_windows` call
    g = dl.make_grid(1, *_WINDOW_GRIDS[grid])
    model = _alloy_model(g)
    rng = np.random.default_rng(0)
    omegas = np.column_stack([dl.sample_alloy(model, rng) for _ in range(200)])
    diag, off = dl.alloy_operators(g, model).bands(omegas)
    lo, hi = 11.0, 14.0
    expected = np.diff(spectral.tridiagonal_counts(diag, off, [lo, hi]), axis=1)[:, 0]
    windows, failures = benchmark(spectral.tridiagonal_windows, diag, off, lo, hi, expected)
    assert g.n_nodes == int(grid[1:]) and failures == [None] * 200
    assert np.array_equal(np.count_nonzero(~np.isnan(windows), axis=1), expected)


def test_wegner_run_d1_L4(benchmark):
    # one of `divlab suite all`'s two 1D Wegner runs, as it runs it: the uniform-L4 config
    # (d = 1, L = 4, n = 32, 127 unknowns), 200 samples counted by one Sturm sweep and
    # their windows solved and certified by `tridiagonal_windows`, seed 0
    config = next(c for c in cli.suite_configs("wegner") if c["label"] == "uniform-L4")
    rep = benchmark(cli.execute, {**config, "seed": 0})
    assert rep.ok and rep.inputs["n_samples"] == 200 and rep.observed["failures"] == 0
