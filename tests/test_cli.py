import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import yaml

import divlab as dl
from divlab import cli, io, verify


def _read_reports(outdir):
    manifest = json.loads((outdir / "manifest.json").read_text())
    return {m["name"]: json.loads((outdir / m["file"]).read_text()) for m in manifest}


class TestSingleRuns:
    def test_minimal_eigensolve_matches_stencil(self, tmp_path):
        config = {"experiment": "eigensolve",
                  "grid": {"d": 1, "L": 1, "n_per_side": 32},
                  "field": {"kind": "identity"},
                  "check": {"k": 3}}
        status = cli.run([config], tmp_path)
        assert status == 0
        reports = _read_reports(tmp_path)
        rep = reports["eigensolve"]
        h = 1 / 32
        exact = [4 / h**2 * math.sin(k * math.pi * h / 2) ** 2 for k in (1, 2, 3)]
        assert np.allclose(rep["observed"]["energies"], exact, rtol=1e-12)
        assert rep["observed"]["stencil_rel_error"] < 1e-10
        assert (tmp_path / "summary.tsv").exists()
        assert (tmp_path / "resolved_config.yaml").exists()

    def test_invalid_delta_names_field(self, tmp_path):
        config = {"experiment": "ucp_gradient",
                  "grid": {"d": 1, "L": 2, "n_per_side": 16},
                  "field": {"kind": "sine"},
                  "sequence": {"G": 1.0, "delta": 0.5},
                  "constants": {"e_min": 1.0, "e_max": 10.0}}
        with pytest.raises(cli.ConfigError, match="sequence"):
            cli.execute(config)

    def test_unknown_experiment_lists_valid(self):
        with pytest.raises(cli.ConfigError, match="eigensolve"):
            cli.execute({"experiment": "nope"})

    def test_missing_required_field(self):
        with pytest.raises(cli.ConfigError, match="check.e_center"):
            cli.execute({"experiment": "wegner",
                         "grid": {"d": 1, "L": 2, "n_per_side": 16},
                         "sequence": {"G": 1.0, "delta": 0.2},
                         "constants": {"e_min": 1.0, "e_max": 30.0}})

    def test_negative_control_flows_through_exit_status(self, tmp_path):
        config = {"experiment": "ucp_gradient", "expect": "fail",
                  "grid": {"d": 1, "L": 2, "n_per_side": 24, "bc": "neumann"},
                  "field": {"kind": "identity"},
                  "sequence": {"G": 1.0, "delta": 0.3},
                  "check": {"variant": "low_energy", "negative_control": True},
                  "constants": {"e_min": 1e-6, "e_max": 0.001}}
        assert cli.run([config], tmp_path) == 0
        rep = next(iter(_read_reports(tmp_path).values()))
        assert rep["status"] == "fail" and rep["expected_failure"]

    def test_rerun_is_bit_identical(self, tmp_path):
        config = {"experiment": "wegner", "seed": 99,
                  "grid": {"d": 1, "L": 2, "n_per_side": 24},
                  "field": {"kind": "identity"},
                  "sequence": {"G": 1.0, "delta": 0.2},
                  "check": {"e_center": 12.5, "eps": 0.5, "n_samples": 25,
                            "delta_plus": 0.45,
                            "dist": {"kind": "uniform", "m": 2.0}},
                  "constants": {"e_min": 1.0, "e_max": 30.0}}
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.run([config], out1)
        resolved = yaml.safe_load((out1 / "resolved_config.yaml").read_text())["runs"]
        cli.run(resolved, out2)
        r1 = _read_reports(out1)
        r2 = _read_reports(out2)
        for name in r1:
            d1, d2 = r1[name], r2[name]
            d1.pop("walltime"), d2.pop("walltime")
            assert d1 == d2

    def test_random_centres_follow_the_run_seed(self):
        config = {"experiment": "ucp_gradient",
                  "grid": {"d": 1, "L": 2, "n_per_side": 24},
                  "field": {"kind": "sine"},
                  "sequence": {"G": 1.0, "delta": 0.2, "mode": "random"},
                  "constants": {"e_min": 1.0, "e_max": 30.0}}
        resolved = cli._resolve(config, seed=5)
        first, again = cli.execute(resolved).to_dict(), cli.execute(resolved).to_dict()
        first.pop("walltime"), again.pop("walltime")
        assert first == again
        grid = cli._build_grid(resolved)
        centres = [cli._build_sequence(cli._resolve(config, seed=s), grid).centers
                   for s in (5, 5, 6)]
        assert np.array_equal(centres[0], centres[1])
        assert not np.array_equal(centres[0], centres[2])

    def test_unresolved_random_centres_draw_with_seed_zero(self):
        # a config that skips `_resolve` (no top-level seed) must not draw from OS entropy
        config = {"experiment": "ucp_gradient",
                  "grid": {"d": 1, "L": 2, "n_per_side": 24},
                  "field": {"kind": "sine"},
                  "sequence": {"G": 1.0, "delta": 0.2, "mode": "random"},
                  "constants": {"e_min": 1.0, "e_max": 30.0}}
        first, again = cli.execute(config).to_dict(), cli.execute(config).to_dict()
        seeded = cli.execute({**config, "seed": 0}).to_dict()
        for rep in (first, again, seeded):
            rep.pop("walltime")
        assert first == again == seeded

    def test_walltime_is_set_by_the_runner_only(self):
        dist = {"kind": "uniform", "m": 1.0}
        rep = cli.execute({"experiment": "pi_singular", "check": {"dist": dist}})
        assert rep.walltime > 0
        direct = verify.pi_singular_check(dl.CouplingDistribution("uniform", 1.0),
                                          lambda x: np.asarray(x, dtype=float),
                                          a=-0.1, b=1.1, eps=0.1)
        assert direct.status == rep.status == "pass"
        assert direct.walltime == 0.0


class TestSuites:
    def test_unknown_suite_rejected(self):
        with pytest.raises(cli.ConfigError, match="scaling"):
            cli.suite_configs("bogus")

    def test_wegner_suite_sample_override_flags_low_power(self, tmp_path):
        configs = cli.suite_configs("wegner", samples=10)
        wegner_runs = [c for c in configs if c["experiment"] == "wegner"]
        assert all(c["check"]["n_samples"] == 10 for c in wegner_runs)
        all_wegner = [c for c in cli.suite_configs("all", samples=10) if c["experiment"] == "wegner"]
        assert all_wegner and all(c["check"]["n_samples"] == 10 for c in all_wegner)
        rep = cli.execute(wegner_runs[0])
        assert any("low" in n for n in rep.notes)

    def test_scaling_suite_passes(self, tmp_path):
        assert cli.suite("scaling", tmp_path) == 0

    def test_mollify_suite_passes(self, tmp_path):
        assert cli.suite("mollify", tmp_path) == 0


class TestWorkers:
    def test_process_pool_matches_serial(self, tmp_path):
        configs = [{"experiment": "eigensolve", "grid": {"d": 1, "L": 1, "n_per_side": 16}},
                   {"experiment": "pi_singular", "check": {"dist": {"kind": "uniform", "m": 1.0}}}]
        assert cli.run(configs, tmp_path / "serial", workers=1) == 0
        assert cli.run(configs, tmp_path / "pool", workers=2) == 0
        serial, pool = _read_reports(tmp_path / "serial"), _read_reports(tmp_path / "pool")
        assert list(serial) == list(pool) == ["eigensolve", "pi_singular"]
        for name in serial:
            serial[name].pop("walltime"), pool[name].pop("walltime")
            assert serial[name] == pool[name]


_MATRIX = [[2.0, 0.5], [0.5, 1.0]]


def _anisotropic_cells(p):
    """diag(1 + cos(2 pi x / L) / 4, 2 + cos(2 pi y / L) / 4) on L = 2."""
    out = np.zeros((p.shape[0], 2, 2))
    for k in range(2):
        out[:, k, k] = k + 1 + 0.25 * np.cos(np.pi * p[:, k])
    return out


def _field_run(field):
    return {"experiment": "eigensolve", "grid": {"d": 2, "L": 2, "n_per_side": 8},
            "field": field, "check": {"k": 3}}


def _lifting_run(w, variant):
    return {"experiment": "lifting", "grid": {"d": 1, "L": 2, "n_per_side": 24},
            "field": {"kind": "identity"}, "sequence": {"G": 1.0, "delta": 0.3},
            "check": {"variant": variant, "w": w, "t_steps": 5},
            "constants": {"e_min": 1.0, "e_max": 60.0}}


_RECIPES = {
    "field-constant": (_field_run({"kind": "constant", "matrix": _MATRIX}),
                       lambda rep, g: rep.inputs["field"] == dl.constant_field(
                           g, _MATRIX).content_hash()),
    "field-anisotropic": (_field_run({"kind": "anisotropic"}),
                          lambda rep, g: rep.inputs["field"] == dl.sampled_field(
                              g, _anisotropic_cells).content_hash()),
    "field-file": (_field_run({"kind": "file"}),
                   lambda rep, g: rep.inputs["field"] == dl.checkerboard_field(
                       g).content_hash()),
    "w-constant": (_lifting_run({"kind": "constant", "value": 1.0}, "elementary"),
                   lambda rep, g: rep.inputs["config"]["w_sup"] == 1.0),
    "w-tent_plus_one": (_lifting_run({"kind": "tent_plus_one"}, "bounded_w"),
                        lambda rep, g: rep.inputs["config"]["w_sup"] == 2.0),
    "phi-softplus": ({"experiment": "pi_singular",
                      "check": {"dist": {"kind": "uniform", "m": 1.0}, "phi": "softplus"}},
                     lambda rep, g: 0.0 < rep.lhs < 0.1),  # softplus' < 1: below the linear eps
}


@pytest.mark.parametrize("recipe", sorted(_RECIPES))
def test_recipe_without_a_suite_run(tmp_path, recipe):
    config, holds = _RECIPES[recipe]
    config = json.loads(json.dumps(config))
    grid = dl.make_grid(2, 2, 8)
    if recipe == "field-file":
        config["field"]["path"] = str(tmp_path / "field.txt")
        io.save_field(dl.checkerboard_field(grid), config["field"]["path"])
    rep = cli.execute(config)
    assert rep.status == "pass"
    assert holds(rep, grid)


def test_file_recipe_without_a_path_is_a_config_error():
    with pytest.raises(cli.ConfigError, match="field.path: required field is missing"):
        cli.execute(_field_run({"kind": "file"}))


class TestForwardedKeys:
    _SCALING = {"experiment": "scaling", "grid": {"d": 1, "L": 4, "n_per_side": 48},
                "field": {"kind": "sine"}, "check": {"target_n": 32}}

    def test_set_key_reaches_the_callee(self):
        config = json.loads(json.dumps(self._SCALING))
        config["check"]["eig_rtol"] = 0.5
        assert cli.execute(config).rhs == 0.5

    def test_absent_key_gets_the_callee_default(self):
        assert cli.execute(self._SCALING).rhs == 0.02

    def test_null_key_counts_as_absent(self):
        assert cli._given({"p": None, "q": "1.5"}, p=float, q=float, r=int) == {"q": 1.5}


class TestMain:
    def test_run_command(self, tmp_path):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(yaml.safe_dump({
            "experiment": "eigensolve",
            "grid": {"d": 1, "L": 1, "n_per_side": 16},
            "check": {"k": 2}}))
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg_file), "--out", str(out)]) == 0
        assert (out / "summary.tsv").exists()

    def test_resolution_multiplier(self, tmp_path):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(yaml.safe_dump({
            "experiment": "eigensolve",
            "grid": {"d": 1, "L": 1, "n_per_side": 16},
            "check": {"k": 2}}))
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg_file), "--out", str(out),
                         "--resolution-mult", "2"]) == 0
        resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
        assert resolved["runs"][0]["grid"]["n_per_side"] == 32

    @pytest.mark.parametrize("mult", ["0", "-1"])
    def test_nonpositive_resolution_multiplier_rejected(self, tmp_path, mult):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(yaml.safe_dump({
            "experiment": "eigensolve",
            "grid": {"d": 1, "L": 1, "n_per_side": 16}}))
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg_file), "--out", str(out),
                         "--resolution-mult", mult]) == 2
        assert not (out / "summary.tsv").exists()

    def test_environment_does_not_reach_a_run(self, tmp_path, monkeypatch):
        for name in ("SEED", "OUTPUT", "WORKERS", "RESOLUTION_MULT", "SAMPLES"):
            monkeypatch.setenv(f"DIVLAB_{name}", "7")
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(yaml.safe_dump({
            "experiment": "eigensolve", "seed": 3,
            "grid": {"d": 1, "L": 1, "n_per_side": 16}}))
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg_file), "--out", str(out)]) == 0
        resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())["runs"][0]
        assert resolved["seed"] == 3 and resolved["grid"]["n_per_side"] == 16
        monkeypatch.setenv("DIVLAB_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0

    def test_config_error_exit_code(self, tmp_path):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(yaml.safe_dump({"experiment": "bogus"}))
        assert cli.main(["run", str(cfg_file), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("config, message", [
        ({"experiment": "wegner", "grid": {"d": 1, "L": 2, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.2},
          "check": {"e_center": 12.5, "eps": 0.5, "n_samples": 1},
          "constants": {"e_min": 1.0, "e_max": 30.0}},
         "wegner: need n_samples >= 2"),
        ({"experiment": "ucp_gradient", "grid": {"d": 1, "L": 2, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.45}, "check": {"variant": "low_energy"},
          "constants": {"e_min": 0.005, "e_max": 30.0}},
         "ucp_gradient: window top 30.0 exceeds kappa"),
        ({"experiment": "wegner", "grid": {"d": 1, "L": 2, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.2},
          "check": {"e_center": 12.5, "eps": 0.5, "n_sample": 500},
          "constants": {"e_min": 1.0, "e_max": 30.0}},
         "check.n_sample: unknown key; valid: ['bump', 'c_minus', 'c_plus', 'delta_plus', "
         "'dist', 'e_center', 'eps', 'n_samples', 'variant']"),
        ({"experiment": "lifting", "grid": {"d": 1, "L": 2, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.3},
          "check": {"t_step": 5}, "constants": {"e_min": 1.0, "e_max": 60.0}},
         "check.t_step: unknown key; valid: ['indices', 't_max', 't_steps', 'variant', 'w']"),
        ({"experiment": "eigensolve", "check": [3]},
         "check: must be a mapping of keys to values"),
        ({"experiment": "eigensolve", "grids": {"d": 1, "L": 1, "n_per_side": 16}},
         "grids: unknown key; valid: ['check', 'constants', 'expect', 'experiment', 'field', "
         "'grid', 'label', 'seed', 'sequence']"),
        ({"experiment": "eigensolve", "grid": {"d": 1, "L": 1, "n_per_sid": 64}},
         "grid.n_per_sid: unknown key; valid: ['L', 'bc', 'd', 'n_per_side']"),
        ({"experiment": "eigensolve", "grid": {"d": 1, "L": 1, "n_per_side": 16},
          "field": {"kind": "sine", "amplitud": 0.9}},
         "field.amplitud: unknown key; valid: ['amplitude', 'frequency', 'kind']"),
        ({"experiment": "eigensolve", "grid": {"d": 1, "L": 1, "n_per_side": 16},
          "field": {"kind": "sine", "matrix": [[1]]}},
         "field.matrix: unknown key; valid: ['amplitude', 'frequency', 'kind']"),
        ({"experiment": "ucp_function", "grid": {"d": 1, "L": 2, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.3, "mod": "random"},
          "constants": {"e_min": 1.0, "e_max": 30.0}},
         "sequence.mod: unknown key; valid: ['G', 'centers', 'delta', 'mode', 'seed']"),
        ({"experiment": "lifting", "grid": {"d": 1, "L": 2, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.3},
          "check": {"w": 5}, "constants": {"e_min": 1.0, "e_max": 60.0}},
         "check.w: must be a mapping of keys to values"),
        ({"experiment": "pi_singular", "check": {"dist": {"mm": 3}}},
         "check.dist.mm: unknown key; valid: ['kind', 'm', 'p']"),
        ({"experiment": "eigensolve", "grid": {"d": 1, "L": 1, "n_per_side": 16}, "field": 3},
         "field: must be a mapping of keys to values"),
        ({"experiment": "eigensolve", "grid": {"d": 1, "L": 2.5, "n_per_side": 16}},
         "grid: side length must be a positive integer, got 2.5"),
        ({"experiment": "weyl", "grid": {"d": 1, "L": 1, "n_per_side": 16},
          "check": {"sides": [1.5, 2]}},
         "weyl: side length must be a positive integer, got 1.5"),
    ], ids=["wegner-one-sample", "low-energy-above-kappa", "wegner-unknown-key",
            "lifting-unknown-key", "check-not-a-mapping", "unknown-top-level-block",
            "grid-unknown-key", "field-unknown-key", "field-key-of-another-recipe",
            "sequence-unknown-key", "check-w-not-a-mapping", "check-dist-unknown-key",
            "field-not-a-mapping", "fractional-grid-side", "fractional-weyl-side"])
    def test_rejected_check_input_is_a_config_error(self, tmp_path, capsys, config, message):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(yaml.safe_dump(config))
        assert cli.main(["run", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("3", "run: must be a mapping of keys to values"),
        ("- 3", "run: must be a mapping of keys to values"),
        ("runs: [3]", "run: must be a mapping of keys to values"),
        ("", "experiment: required field is missing"),
    ], ids=["scalar", "list-of-scalars", "runs-entry-scalar", "empty"])
    def test_non_mapping_run_is_a_config_error(self, tmp_path, capsys, text, message):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(text)
        assert cli.main(["run", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err


class TestSpectrumUpto:
    """Threshold spectra are sized and certified by the inertia count."""

    @staticmethod
    def _sine(d, L, n, bc="dirichlet"):
        grid = dl.make_grid(d, L, n, bc)
        return grid, cli._build_field({"field": {"kind": "sine"}}, grid)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_lanczos_size_matches_count_and_dense(self, bc):
        grid, field = self._sine(2, 2, 20, bc)  # 1521 / 1681 unknowns: Lanczos path
        op = dl.assemble(grid, field)
        top = 60.0
        spec = cli._spectrum_upto(grid, field, top)
        below = dl.count_eigenvalues(op, top)
        assert not spec.complete and below > 8
        assert spec.k == below + 1
        assert np.count_nonzero(spec.energies <= top) == below
        assert spec.energies[-1] > top
        dense = scipy.linalg.eigvalsh(op.dense())[:spec.k]
        assert np.abs(spec.energies - dense).max() <= 1e-10
        if bc == "neumann":  # the constant zero mode is counted and returned
            assert abs(spec.energies[0]) < 1e-10

    def test_dropped_pair_raises(self, monkeypatch):
        grid, field = self._sine(1, 2, 24)
        solve = cli.eigensolve

        def drop_first(op, k):
            spec = solve(op, k)
            return dl.Spectrum(energies=spec.energies[1:], vectors=spec.vectors[:, 1:],
                               residuals=spec.residuals[1:], complete=spec.complete)

        monkeypatch.setattr(cli, "eigensolve", drop_first)
        with pytest.raises(dl.EigensolveError, match="inertia counts"):
            cli._spectrum_upto(grid, field, 30.0)

    def test_top_above_the_spectrum_returns_every_pair(self):
        grid, field = self._sine(1, 2, 24)
        op = dl.assemble(grid, field)
        spec = cli._spectrum_upto(grid, field, 1e6)
        assert spec.k == op.dim == dl.count_eigenvalues(op, 1e6)


BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _reports_and_bench_reference(tmp_path, workload, cli_args):
    """Run `python -m divlab.cli *cli_args --out tmp_path` with BLAS on one thread and
    pair every report, minus `walltime`, with its entry in `bench/reference/<workload>.json`.

    A threaded BLAS reduction can move the last bits of a float (the 2D scaling
    check's eigenvalue error does).  The reference file is only read.
    """
    reference = json.loads((BENCH_DIR / "reference" / f"{workload}.json").read_text())
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIVLAB_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(dl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-m", "divlab.cli", *cli_args, "--out", str(tmp_path)],
                   env=env, check=True, capture_output=True)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert reference["seed"] == 0
    assert [m["name"] for m in manifest] == [r["name"] for r in reference["reports"]]
    reports = [json.loads((tmp_path / m["file"]).read_text()) for m in manifest]
    for rep in reports:
        del rep["walltime"]
    return list(zip(reports, reference["reports"]))


def test_suite_all_equals_bench_reference(tmp_path):
    """`divlab suite all --seed 0` reproduces the committed reference reports exactly."""
    for rep, ref in _reports_and_bench_reference(tmp_path, "suite_all",
                                                 ["suite", "all", "--seed", "0"]):
        assert rep == ref, rep["name"]


@pytest.mark.parametrize("workload", ["wegner_mc", "ucp_2d"])
def test_d2_d3_workloads_match_bench_reference(tmp_path, workload):
    """The seed-0 `wegner_mc` (sparse inertia counts at d = 2 and 3) and `ucp_2d`
    (a d = 2 threshold spectrum) workload configs reproduce their reference reports.

    Compared as the bench compares them: integers and strings exactly, floats
    within `FLOAT_RTOL`.  The ucp_2d reference was written when threshold
    spectra came from a 64-pair solve, so its energies differ from today's
    one-solve spectrum in the last bits.
    """
    spec = importlib.util.spec_from_file_location("bench_workload", BENCH_DIR / "workload.py")
    bench_workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_workload)
    config = tmp_path / "runs.yaml"
    config.write_text(yaml.safe_dump({"runs": bench_workload.WORKLOADS[workload](0)}))
    for rep, ref in _reports_and_bench_reference(tmp_path / "out", workload,
                                                 ["run", str(config)]):
        assert bench_workload.compare(rep, ref) == [], rep["name"]
