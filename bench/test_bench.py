"""Tests of the benchmark itself: span accounting, wrapping, output check, traced workloads.

    python3 -m pytest -q bench/test_bench.py

The traced-workload tests run one traced pass of each workload (about 30 s).
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import spans  # noqa: E402
from run import BLAS_THREADS, THREAD_VARS  # noqa: E402
from workload import DEFAULT_SEED, check_reports, compare  # noqa: E402

# share of the traced wall time that no layer's span may leave uncovered
COVERAGE_SLACK = 0.02


def test_self_time_subtracts_union_of_child_intervals():
    #        parent [0, 10]; children [1, 4] and [3, 6] overlap, [8, 12] is clipped to 10
    starts = [0.0, 1.0, 3.0, 8.0, 1.5]
    ends = [10.0, 4.0, 6.0, 12.0, 2.0]
    parents = [-1, 0, 0, 0, 1]   # the grandchild [1.5, 2] only counts against its parent
    own = spans.self_times(starts, ends, parents)
    assert own == pytest.approx([10 - 5 - 2, 3 - 0.5, 3.0, 4.0, 0.5])


def test_tracer_records_nesting_with_its_clock():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0])
    tr = spans.Tracer(clock=lambda: next(ticks))
    a = tr.open("cli.run")
    b = tr.open("spectral.eigensolve")
    assert tr.enclosing("cli.run") == a and tr.enclosing("verify.wegner_mc") is None
    tr.close(b)
    c = tr.open("io.save_report_json")
    tr.close(c)
    tr.close(a)
    assert tr.parents == [-1, a, a]
    assert tr.self_times() == pytest.approx([7.0 - 1.0 - 1.0, 1.0, 1.0])


def _public_functions(mod):
    import inspect
    return {name: obj for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__.startswith("divlab")}


def test_install_wraps_every_binding_and_uninstall_restores():
    import divlab
    import divlab.cli  # noqa: F401  (not imported by the package itself)
    import divlab.io  # noqa: F401
    mods = [divlab] + [getattr(divlab, name) for name in spans.LAYERS]
    before = {(m.__name__, n): f for m in mods for n, f in _public_functions(m).items()}
    cached = divlab.lattice.SubsetMask.__dict__["node_mask"]
    inst = spans.Instrumentation(spans.Tracer())
    inst.install()
    try:
        for mod in mods:
            for name, fn in _public_functions(mod).items():
                assert hasattr(fn, "__wrapped__"), f"{mod.__name__}.{name} is not traced"
        # names imported from another module are traced too
        assert divlab.verify.eigensolve is not before[("divlab.spectral", "eigensolve")]
        assert divlab.cli.assemble.__wrapped__ is before[("divlab.operators", "assemble")]
        assert divlab.lattice.SubsetMask.__dict__["node_mask"] is not cached
    finally:
        inst.uninstall()
    after = {(m.__name__, n): f for m in mods for n, f in _public_functions(m).items()}
    assert after == before
    assert divlab.lattice.SubsetMask.__dict__["node_mask"] is cached


def test_counters_follow_the_calls():
    import divlab
    from divlab import lattice
    tr = spans.Tracer()
    inst = spans.Instrumentation(tr)
    inst.install()
    try:
        grid = lattice.make_grid(1, 2, 8)
        seq = lattice.equidistributed_sequence(grid, 1.0, 0.3)
        mask = lattice.ball_mask(grid, seq)
        lattice.subset_norm2(lattice.discrete_gradient(grid, grid.node_points[:, 0]), mask)
        mask.node_mask
        op = divlab.assemble(grid, divlab.identity_field(grid))
        divlab.count_eigenvalues(op, 10.0)
    finally:
        inst.uninstall()
    m = spans.layer_metrics(tr, wall_s=1.0)
    assert m["lattice.face_mask.calls"] == 1
    assert m["lattice.mask_points"] == grid.face_shape(0)[0] + grid.n_nodes
    assert m["operators.assemble.nnz"] == op.matrix.nnz
    assert m["spectral.count_eigenvalues.dim_max"] == op.dim
    assert tr.stack == [] and tr.args == {}


def test_compare_is_exact_except_for_floats():
    ref = {"status": "pass", "n": 3, "x": 1.0, "xs": [0.5, 2.0], "tiny": 1e-20}
    assert compare(dict(ref, x=1.0 + 1e-9, tiny=3e-19), ref) == []
    assert compare(dict(ref, x=1.001), ref) == ["x: 1.001 != 1.0"]
    assert compare(dict(ref, n=4), ref) == ["n: 4 != 3"]
    assert compare(dict(ref, status="fail"), ref) == ["status: 'fail' != 'pass'"]
    assert compare(dict(ref, xs=[0.5]), ref) == ["xs: length 1 != 2"]
    assert compare(dict(ref, xs=[0.5, 3.0]), ref, skip=("xs",)) == []


def _wegner_report(**observed):
    obs = {"crosscheck_agreement": 1.0, "smear_chain_fraction": 1.0, "failures": 0, **observed}
    return {"name": "wegner_mc[bounded_w]:x", "status": "pass", "observed": obs,
            "inputs": {"n_samples": 4}}


def test_check_reports_counts_checks_and_samples():
    ok = {"ok": True}
    assert check_reports("wegner_mc", 5, [_wegner_report()], [ok], None) == (5, 0, [])
    attempted, failed, problems = check_reports(
        "wegner_mc", 5, [_wegner_report(failures=1, smear_chain_fraction=0.75)], [ok], None)
    assert (attempted, failed) == (5, 2) and problems == [
        "wegner_mc[bounded_w]:x: smear_chain_fraction = 0.75"]
    assert check_reports("wegner_mc", 5, [_wegner_report()], [{"ok": False}], None)[1] == 1
    # at another seed, seed-dependent fields are not compared with the reference
    ref = {"seed": 0, "reports": [_wegner_report(means=[1.0])]}
    assert check_reports("wegner_mc", 5, [_wegner_report(means=[2.0])], [ok], ref)[1] == 0
    assert check_reports("wegner_mc", 0, [_wegner_report(means=[2.0])], [ok], ref)[1] == 1


# -- traced passes of the real workloads -------------------------------------

@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           **{v: str(BLAS_THREADS) for v in THREAD_VARS}}
    out = {}
    for workload in ("suite_all", "wegner_mc", "ucp_2d"):
        cmd = [sys.executable, str(BENCH_DIR / "workload.py"), "--workload", workload,
               "--seed", str(DEFAULT_SEED), "--trace", "1",
               "--out", str(tmp_path_factory.mktemp(workload)),
               "--spawned-at", repr(time.monotonic())]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=300, check=True)
        out[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def _declared_layers():
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


# per-layer metrics each workload must move off zero; suite_all runs every layer
NOT_EXERCISED = ("verify.wegner_mc.samples_failed", "trace.uncovered_s", "trace.overhead_s")
EXERCISED = {
    "suite_all": tuple(n for n in _declared_layers() if n not in NOT_EXERCISED),
    "wegner_mc": ("fields.sample_alloy.calls", "operators.assemble.calls",
                  "spectral.eigensolve.dense_calls", "spectral.count_eigenvalues.calls",
                  "spectral.count_eigenvalues.dim_max", "verify.wegner_mc.samples"),
    "ucp_2d": ("lattice.face_mask.calls", "lattice.mask_points",
               "lattice.subset_norm2.self_s", "spectral.eigensolve.calls",
               "spectral.eigensolve.pairs_returned"),
}
# predicted zeros: ucp_2d counts no eigenvalues and draws no alloy samples
ZERO = {"ucp_2d": ("spectral.count_eigenvalues.calls", "fields.sample_alloy.calls",
                   "spectral.eigensolve.dense_calls", "verify.wegner_mc.samples")}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_pass_is_correct_and_fires_its_spans(traced, workload):
    rec = traced[workload]
    assert rec["failed"] == 0, rec["problems"]
    layers = rec["layers"]
    # trace.overhead_s needs an untraced pass too, so run.py adds it
    assert set(_declared_layers()) - {"trace.overhead_s"} <= set(layers)
    for name in EXERCISED[workload]:
        assert layers[name] > 0, name
    for name in ZERO.get(workload, ()):
        assert layers[name] == 0, name


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_layer_self_times_sum_to_traced_wall(traced, workload):
    layers = traced[workload]["layers"]
    total = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert math.isclose(total, layers["trace.wall_s"], rel_tol=COVERAGE_SLACK)


def test_wegner_time_is_spectral(traced):
    layers = traced["wegner_mc"]["layers"]
    assert layers["spectral.self_s"] >= 0.9 * layers["trace.wall_s"]


def test_ucp_useful_pairs_are_the_last_window(traced):
    rep = json.loads((BENCH_DIR / "reference" / "ucp_2d.json").read_text())["reports"][0]
    layers = traced["ucp_2d"]["layers"]
    # _spectrum_upto doubles k from 8 to 64; only the last call's in-window pairs are read
    assert layers["spectral.eigensolve.pairs_returned"] == 8 + 16 + 32 + 64
    assert layers["spectral.eigensolve.useful_ratio"] == pytest.approx(
        len(rep["observed"]["per_eigenfunction"]) / 120)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "suite_all",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
