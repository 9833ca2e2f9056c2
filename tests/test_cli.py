import dataclasses
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
import yaml

import divlab as dl
from divlab import cli, io, spectral, verify


def _no_solve(*args, **kwargs):
    raise AssertionError("the run reached an eigensolve")


# the 13 `constants` keys, as the unknown-key message lists them
_CONSTANTS_VALID = ("unknown key; valid: ['L', 'e_max', 'e_min', 'm_exponent', 'n_exponent', "
                    "'neumann_a', 'neumann_b', 'neumann_c', 'neumann_prefactor', 'theta_lip', "
                    "'theta_minus', 'theta_plus', 'weyl_constant']")
_SINE_BALLS = {"grid": {"d": 1, "L": 2, "n_per_side": 16}, "field": {"kind": "sine"},
               "sequence": {"G": 1.0, "delta": 0.3}}
_PERIOD_2_BALLS = {"grid": {"d": 1, "L": 4, "n_per_side": 16}, "field": {"kind": "sine"},
                   "sequence": {"G": 2.0, "delta": 0.3}}
_PERIOD_2_MESSAGE = "the bounds are stated for period G = 1, got G = 2.0"


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

    # `run` writes YAML with libyaml where PyYAML has it: the bytes are those of the
    # pure-Python safe dialect, and they load back as the configs
    @pytest.mark.parametrize("name", sorted(cli._SUITES) + ["all"])
    def test_resolved_config_is_the_safe_dialect(self, name):
        runs = {"runs": [cli._resolve(c) for c in cli.suite_configs(name)]}
        text = yaml.dump(runs, Dumper=cli._YAML_DUMPER, sort_keys=True)
        assert text == yaml.dump(runs, Dumper=yaml.SafeDumper, sort_keys=True)
        assert yaml.safe_load(text) == runs

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

    def test_zero_sample_override_is_a_config_error(self, tmp_path, capsys):
        assert all(c["check"]["n_samples"] == 0
                   for c in cli.suite_configs("wegner", samples=0) if c["experiment"] == "wegner")
        assert cli.main(["suite", "wegner", "--samples", "0", "--out", str(tmp_path)]) == 2
        assert "config error: wegner: need n_samples >= 2" in capsys.readouterr().err

    def test_sample_override_sets_the_projector_samples(self):
        def projector_samples(**kwargs):
            return [c["check"]["n_samples"] for c in cli.suite_configs("all", **kwargs)
                    if c["experiment"] == "projector_ucp"]

        assert projector_samples() == [300]
        assert projector_samples(samples=10) == [10]

    def test_zero_projector_samples_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        projector = next(c for c in cli.suite_configs("ucp") if c["experiment"] == "projector_ucp")
        solved, solve = [], cli._spectrum_upto

        def spy(grid, field, top):
            solved.append((grid.L, grid.n_per_side))
            return solve(grid, field, top)

        monkeypatch.setattr(cli, "_spectrum_upto", spy)
        assert cli.main(["suite", "ucp", "--samples", "0", "--out", str(tmp_path)]) == 2
        assert ("config error: projector_ucp: need n_samples >= 1 for the Monte Carlo "
                "cross-check, got 0") in capsys.readouterr().err
        # the runs before it solved; the projector run stopped before its solve
        grid = projector["grid"]
        assert solved and (grid["L"], grid["n_per_side"]) not in solved

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

    def test_real_key_takes_an_int_as_a_float(self):
        out = cli._block({"x": 2, "y": 0.5}, "b", x=cli._real, y=cli._real)
        assert out == {"x": 2.0, "y": 0.5} and type(out["x"]) is float

    def test_null_key_counts_as_absent(self):
        assert cli._block({"p": None, "q": "1.5"}, "b", p=float, q=float, r=cli._int) == {"q": 1.5}

    _NULLS = {
        "field.amplitude": {"experiment": "eigensolve", "grid": {"d": 1, "L": 1, "n_per_side": 16},
                            "field": {"kind": "sine", "amplitude": None}},
        "check.w.value": _lifting_run({"kind": "constant", "value": None}, "elementary"),
        "check.dist.m": {"experiment": "pi_singular",
                         "check": {"dist": {"kind": "uniform", "m": None}}},
        "constants.e_max": {"experiment": "ucp_gradient", "sequence": {"delta": 0.3},
                            "constants": {"e_max": None}},
    }

    @pytest.mark.parametrize("key", sorted(_NULLS))
    def test_null_value_runs_the_default(self, key):
        *blocks, last = key.split(".")
        absent = json.loads(json.dumps(self._NULLS[key]))
        node = absent
        for block in blocks:
            node = node[block]
        del node[last]
        with_null, without = cli.execute(self._NULLS[key]).to_dict(), cli.execute(absent).to_dict()
        with_null.pop("walltime"), without.pop("walltime")
        assert with_null == without


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
        # a scaling run refines its target grid with its source, so G n_src / n_tgt
        # stays an odd integer
        cfg_file.write_text(yaml.safe_dump(
            next(c for c in cli.suite_configs("scaling") if c["label"] == "G2-d1")))
        assert cli.main(["run", str(cfg_file), "--out", str(out),
                         "--resolution-mult", "2"]) == 0
        resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())["runs"][0]
        assert resolved["grid"]["n_per_side"] == 96 and resolved["check"]["target_n"] == 64

    def test_resolution_multiplier_refines_the_default_grid(self):
        # a run without a grid block builds make_grid's default, n_per_side 32, which the
        # multiplier refines as it refines a written one; a run that reads no grid gets none
        assert cli._build_grid(cli._resolve({"experiment": "eigensolve"})).n_per_side == 32
        for mult, n_per_side in ((1, 32), (2, 64), (1.5, 48)):
            resolved = cli._resolve({"experiment": "eigensolve"}, resolution_mult=mult)
            assert cli._build_grid(resolved).n_per_side == n_per_side
        assert "grid" not in cli._resolve({"experiment": "eigensolve"})
        pi = {"experiment": "pi_singular", "check": {"dist": {"kind": "uniform", "m": 1.0}}}
        assert "grid" not in cli._resolve(pi, resolution_mult=2)
        assert cli.execute(cli._resolve(pi, resolution_mult=2)).ok

    # every curated run, resolved at each multiplier, builds its inputs without a solve: a
    # recipe that leaves a resolution key unscaled fails here
    @pytest.mark.parametrize("mult", [1, 2, 3])
    def test_every_suite_run_builds_at_each_resolution(self, mult):
        for config in cli.suite_configs("all"):
            resolved = cli._resolve(config, resolution_mult=mult)
            if "grid" not in config:  # pi_singular reads no grid
                continue
            grid = cli._build_grid(resolved)
            assert grid.n_per_side == config["grid"]["n_per_side"] * mult
            field = cli._build_field(resolved, grid)
            if "sequence" in resolved:
                cli._build_sequence(resolved, grid)
            if resolved["experiment"] == "scaling":
                check = resolved["check"]
                dl.equidistributed_sequence(grid, check["G"], check["delta"])
                dl.rescale(field, check["G"], check["target_n"])

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
        ({"experiment": "eigensolve", "check": {"k": 2.5}},
         "check.k: must be an integer, got 2.5"),
        ({"experiment": "eigensolve", "field": {"kind": "checkerboard", "axis": 0.7}},
         "field.axis: must be an integer, got 0.7"),
        ({"experiment": "wegner", "grid": {"d": 1, "L": 2, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.2},
          "check": {"e_center": 12.5, "eps": 0.5, "n_samples": 2.9},
          "constants": {"e_min": 1.0, "e_max": 30.0}},
         "check.n_samples: must be an integer, got 2.9"),
        ({"experiment": "ucp_gradient", "grid": {"d": 1, "L": 2, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.3}, "check": {"negative_control": "false"},
          "constants": {"e_min": 1.0, "e_max": 30.0}},
         "check.negative_control: must be a boolean, got 'false'"),
        ({"experiment": "lifting", "grid": {"d": 1, "L": 2, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.3},
          "check": {"indices": 3}, "constants": {"e_min": 1.0, "e_max": 60.0}},
         "check.indices: must be a list, got 3"),
        ({"experiment": "weyl", "check": {"sides": 3}}, "check.sides: must be a list, got 3"),
        ({"experiment": "neumann_trend", "check": {"sides": 3}},
         "check.sides: must be a list, got 3"),
        ({"experiment": "mollification", "check": {"ells": 4}},
         "check.ells: must be a list, got 4"),
        ({"experiment": "eigensolve", "seed": 2.5}, "seed: must be an integer, got 2.5"),
        ({"experiment": "ucp_function", "grid": {"d": 1, "L": 2, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.3, "mode": "random", "seed": 2.5},
          "constants": {"e_min": 1.0, "e_max": 30.0}},
         "sequence.seed: must be an integer, got 2.5"),
        ({"experiment": "eigensolve", "expect": "fial"},
         "expect: must be 'pass' or 'fail', got 'fial'"),
        ({"experiment": "pi_singular", "check": {"eps": True}},
         "check.eps: must be a real number, got True"),
        ({"experiment": "pi_singular", "check": {"eps": "0.1"}},
         "check.eps: must be a real number, got '0.1'"),
        ({"experiment": "pi_singular", "check": {"dist": {"kind": "uniform", "m": True}}},
         "check.dist.m: must be a real number, got True"),
        ({"experiment": "pi_singular", "check": {"dist": {"kind": "uniform", "m": "2"}}},
         "check.dist.m: must be a real number, got '2'"),
        ({"experiment": "ucp_gradient", "sequence": {"delta": 0.3},
          "constants": {"e_min": True}},
         "constants.e_min: must be a real number, got True"),
        ({"experiment": "ucp_gradient", "sequence": {"delta": 0.3},
          "constants": {"d": 2.0}},
         f"constants.d: {_CONSTANTS_VALID}"),
        ({"experiment": "eigensolve", "grid": {"d": 1, "L": 1, "n_per_side": 16, "bc": True}},
         "grid.bc: must be a string, got True"),
        ({"experiment": "pi_singular", "check": {"phi": 1}}, "check.phi: must be a string, got 1"),
        ({"experiment": "eigensolve", "label": 7}, "label: must be a string, got 7"),
        ({"experiment": "lifting", "grid": {"d": 1, "L": 2, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.3},
          "check": {"indices": [1.5, 0.2]}, "constants": {"e_min": 1.0, "e_max": 60.0}},
         "lifting: indices must be integers, got [1.5, 0.2]"),
        ({"experiment": "lifting", "grid": {"d": 1, "L": 2, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.3},
          "check": {"indices": [True, 1]}, "constants": {"e_min": 1.0, "e_max": 60.0}},
         "lifting: indices must be integers, got [True, 1]"),
        ({"experiment": "mollification", "grid": {"d": 1, "L": 1, "n_per_side": 64},
          "field": {"kind": "checkerboard"}, "check": {"ells": [4.7, 8.9]}},
         "mollification: ells must be integers, got [4.7, 8.9]"),
        ({"experiment": "mollification", "grid": {"d": 1, "L": 1, "n_per_side": 64},
          "field": {"kind": "checkerboard"}, "check": {"ells": [False, 8]}},
         "mollification: ells must be integers, got [False, 8]"),
        # relative eigenvalue errors are undefined at the Neumann constant mode's 0
        ({"experiment": "scaling", "grid": {"d": 1, "L": 4, "n_per_side": 48, "bc": "neumann"},
          "field": {"kind": "sine"}, "check": {"target_n": 32}},
         "scaling: the lowest eigenvalue of a Neumann grid is 0 (the constant mode)"),
        ({"experiment": "mollification",
          "grid": {"d": 1, "L": 1, "n_per_side": 64, "bc": "neumann"},
          "field": {"kind": "checkerboard"}},
         "mollification: the lowest eigenvalue of a Neumann grid is 0 (the constant mode)"),
        # too few entries: each check names the key and its minimum
        ({"experiment": "neumann_trend", "check": {"sides": []}},
         "neumann_trend: need at least 2 cube sides in sides for a trend, got []"),
        ({"experiment": "neumann_trend", "check": {"sides": [2]}},
         "neumann_trend: need at least 2 cube sides in sides for a trend, got [2]"),
        ({"experiment": "mollification", "grid": {"d": 1, "L": 1, "n_per_side": 64},
          "field": {"kind": "checkerboard"}, "check": {"ells": []}},
         "mollification: need at least 1 entry in ells, got none"),
        ({"experiment": "weyl", "grid": {"d": 1, "L": 1, "n_per_side": 16},
          "check": {"sides": []}},
         "weyl: need at least 1 cube side in sides, got none"),
        ({"experiment": "projector_ucp", "grid": {"d": 1, "L": 4, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.45}, "check": {"lam": 0.01, "n_samples": 0},
          "constants": {"e_min": 0.001, "e_max": 0.05}},
         "projector_ucp: need n_samples >= 1 for the Monte Carlo cross-check, got 0"),
        ({"experiment": "projector_ucp", "grid": {"d": 1, "L": 4, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.45}, "check": {"lam": 10.0},
          "constants": {"e_min": 0.001, "e_max": 0.05}},
         "projector_ucp: lam = 10.0 exceeds kappa_prime = "),
        # no eigenvalue lies below lam = -1: the check would pass vacuously
        ({"experiment": "projector_ucp", "grid": {"d": 1, "L": 4, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.45}, "check": {"lam": -1.0},
          "constants": {"e_min": 0.001, "e_max": 0.05}},
         "projector_ucp: lam must be positive, got -1.0"),
        # the Neumann zero mode lies within the count tolerance above lam = 0, and the
        # threshold solve returned it at +2.7e-13: a solver breakdown before this check
        ({"experiment": "projector_ucp",
          "grid": {"d": 2, "L": 2, "n_per_side": 20, "bc": "neumann"},
          "field": {"kind": "identity"}, "sequence": {"G": 1.0, "delta": 0.45},
          "check": {"lam": 0.0}, "constants": {"e_min": 0.001, "e_max": 0.05}},
         "projector_ucp: lam must be positive, got 0.0"),
        ({"experiment": "ucp_function",
          "grid": {"d": 1, "L": 2, "n_per_side": 16, "bc": "neumann"},
          "field": {"kind": "sine"}, "sequence": {"G": 1.0, "delta": 0.3},
          "constants": {"e_min": 1.0, "e_max": 30.0}},
         "ucp_function: function-level bound is stated for Dirichlet grids"),
        ({"experiment": "constants"}, "experiment: must be one of ["),
        # a block the experiment never reads
        ({"experiment": "eigensolve", "grid": {"d": 1, "L": 1, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.3}},
         "sequence: experiment 'eigensolve' does not read this block; it reads ['grid', 'field']"),
        ({"experiment": "eigensolve", "grid": {"d": 1, "L": 1, "n_per_side": 16},
          "constants": {"e_min": 1.0, "e_max": 30.0}},
         "constants: experiment 'eigensolve' does not read this block; "
         "it reads ['grid', 'field']"),
        ({"experiment": "pi_singular", "grid": {"d": 1, "L": 1, "n_per_side": 16}},
         "grid: experiment 'pi_singular' does not read this block; it reads []"),
        # a value the run works out itself: d from the grid, delta and G from the sequence,
        # t_max, w_sup and w_lip from the lifting direction
        ({"experiment": "ucp_gradient", **_SINE_BALLS,
          "constants": {"e_min": 1.0, "e_max": 30.0, "d": 1}},
         f"constants.d: {_CONSTANTS_VALID}"),
        ({"experiment": "ucp_function", **_SINE_BALLS,
          "constants": {"e_min": 1.0, "e_max": 30.0, "delta": 0.3}},
         f"constants.delta: {_CONSTANTS_VALID}"),
        ({"experiment": "projector_ucp", "grid": {"d": 1, "L": 4, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.45},
          "constants": {"e_min": 0.001, "e_max": 0.05, "G": 2.0}},
         f"constants.G: {_CONSTANTS_VALID}"),
        ({"experiment": "lifting", **_SINE_BALLS, "check": {"t_steps": 3},
          "constants": {"e_min": 1.0, "e_max": 60.0, "t_max": 1.0}},
         f"constants.t_max: {_CONSTANTS_VALID}"),
        ({"experiment": "wegner", "grid": {"d": 1, "L": 2, "n_per_side": 16},
          "sequence": {"G": 1.0, "delta": 0.2},
          "check": {"e_center": 12.5, "eps": 0.5, "n_samples": 2, "delta_plus": 0.45},
          "constants": {"e_min": 1.0, "e_max": 30.0, "w_sup": 3.0}},
         f"constants.w_sup: {_CONSTANTS_VALID}"),
        ({"experiment": "lifting", **_SINE_BALLS, "check": {"t_steps": 3},
          "constants": {"e_min": 1.0, "e_max": 60.0, "w_lip": 2.0}},
         f"constants.w_lip: {_CONSTANTS_VALID}"),
        # every bound is stated for (1, delta)-equidistributed sequences
        ({"experiment": "ucp_function", **_PERIOD_2_BALLS,
          "constants": {"e_min": 1.0, "e_max": 30.0}},
         f"ucp_function: {_PERIOD_2_MESSAGE}"),
        ({"experiment": "ucp_gradient", **_PERIOD_2_BALLS,
          "constants": {"e_min": 1.0, "e_max": 30.0}},
         f"ucp_gradient: {_PERIOD_2_MESSAGE}"),
        ({"experiment": "projector_ucp", "grid": {"d": 1, "L": 4, "n_per_side": 16},
          "sequence": {"G": 2.0, "delta": 0.45}, "constants": {"e_min": 0.001, "e_max": 0.05}},
         f"projector_ucp: {_PERIOD_2_MESSAGE}"),
        # a pair count or index out of range, named by its key before any assembly
        ({"experiment": "scaling", "grid": {"d": 1, "L": 4, "n_per_side": 48},
          "check": {"target_n": 32, "k": 0}}, "check.k: must be at least 1, got 0"),
        ({"experiment": "scaling", "grid": {"d": 1, "L": 4, "n_per_side": 48},
          "check": {"target_n": 32, "k": -1}}, "check.k: must be at least 1, got -1"),
        ({"experiment": "reverse_caccioppoli", "grid": {"d": 1, "L": 2, "n_per_side": 64},
          "check": {"index": -1}}, "check.index: must be at least 0, got -1"),
        ({"experiment": "eigensolve", "grid": {"d": 1, "L": 1, "n_per_side": 16},
          "check": {"k": 0}}, "check.k: must be at least 1, got 0"),
        ({"experiment": "mollification", "grid": {"d": 1, "L": 1, "n_per_side": 64},
          "field": {"kind": "checkerboard"}, "check": {"k": 0}},
         "check.k: must be at least 1, got 0"),
    ], ids=["wegner-one-sample", "low-energy-above-kappa", "wegner-unknown-key",
            "lifting-unknown-key", "check-not-a-mapping", "unknown-top-level-block",
            "grid-unknown-key", "field-unknown-key", "field-key-of-another-recipe",
            "sequence-unknown-key", "check-w-not-a-mapping", "check-dist-unknown-key",
            "field-not-a-mapping", "fractional-grid-side", "fractional-weyl-side",
            "fractional-eigensolve-k", "fractional-checkerboard-axis",
            "fractional-wegner-samples", "string-negative-control", "scalar-lifting-indices",
            "scalar-weyl-sides", "scalar-neumann-trend-sides", "scalar-mollification-ells",
            "fractional-seed", "fractional-sequence-seed", "misspelled-expect",
            "bool-real", "string-real", "bool-nested-real", "string-nested-real",
            "bool-constant", "fractional-constants-d", "bool-text", "number-text",
            "number-label", "fractional-lifting-indices", "bool-lifting-indices",
            "fractional-mollification-ells", "bool-mollification-ells",
            "neumann-scaling-zero-mode", "neumann-mollification-zero-mode",
            "neumann-trend-no-sides", "neumann-trend-one-side", "mollification-no-ells",
            "weyl-no-sides", "projector-ucp-no-samples", "projector-ucp-lam-above-kappa-prime",
            "projector-ucp-negative-lam", "projector-ucp-zero-lam-neumann",
            "ucp-function-neumann-grid", "constants-is-not-an-experiment",
            "eigensolve-unread-sequence", "eigensolve-unread-constants",
            "pi-singular-unread-grid", "constants-d", "constants-delta", "constants-G",
            "constants-t-max", "constants-w-sup", "constants-w-lip",
            "ucp-function-period-2", "ucp-gradient-period-2", "projector-ucp-period-2",
            "scaling-zero-k", "scaling-negative-k", "reverse-caccioppoli-negative-index",
            "eigensolve-zero-k", "mollification-zero-k"])
    def test_rejected_check_input_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                   config, message):
        # every input is rejected before the solve: a ball-union check's threshold
        # solve, or any lowest-k one
        if config["experiment"] in ("ucp_function", "ucp_gradient", "projector_ucp"):
            monkeypatch.setattr(cli, "_spectrum_upto", _no_solve)
        for module in (cli, verify):
            monkeypatch.setattr(module, "eigensolve", _no_solve)
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(yaml.safe_dump(config))
        assert cli.main(["run", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    # none of these rejections needs a solve, so each comes before the curve's first one
    @pytest.mark.parametrize("config, message", [
        ({"experiment": "lifting", **_PERIOD_2_BALLS,
          "constants": {"e_min": 1.0, "e_max": 60.0}},
         f"lifting: {_PERIOD_2_MESSAGE}"),
        ({"experiment": "lifting", **_SINE_BALLS, "check": {"variant": "tent"},
          "constants": {"e_min": 1.0, "e_max": 60.0}},
         "lifting: unknown variant 'tent'; pick one of ('standard', 'bounded_w', "),
        ({"experiment": "lifting", **_SINE_BALLS,
          "check": {"w": {"kind": "constant", "value": 0.5}},
          "constants": {"e_min": 1.0, "e_max": 60.0}},
         "lifting: w must dominate the ball-union indicator"),
        ({"experiment": "lifting", "grid": {"d": 3, "L": 2, "n_per_side": 4},
          "sequence": {"G": 1.0, "delta": 0.3}, "check": {"variant": "neumann"}},
         "lifting: Neumann lifting needs a Neumann grid"),
        ({"experiment": "lifting", **_SINE_BALLS,
          "grid": {**_SINE_BALLS["grid"], "bc": "neumann"},
          "constants": {"e_min": 1.0, "e_max": 60.0}},
         "lifting: the bounded_w lifting slope is stated for Dirichlet grids"),
    ], ids=["period-2", "unknown-variant", "w-below-the-balls", "neumann-on-dirichlet",
            "bounded-w-on-neumann"])
    def test_lifting_rejects_before_solving(self, tmp_path, capsys, monkeypatch, config,
                                            message):
        solves, solve = [], spectral.eigensolve

        def spy(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(spectral, "eigensolve", spy)
        accepted = {"experiment": "lifting", **_SINE_BALLS, "check": {"t_steps": 3},
                    "constants": {"e_min": 1.0, "e_max": 60.0}}
        cli.execute(accepted)
        assert len(solves) == 3  # the spy sees every solve of a curve
        solves.clear()
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(yaml.safe_dump(config))
        assert cli.main(["run", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert solves == []

    @pytest.mark.parametrize("n", [4, 8])
    def test_empty_window_is_an_error(self, tmp_path, capsys, n):
        # the d = 2 twin of the suite's checkerboard-low-energy run: no eigenvalue lies
        # below its window top 0.0253, so the check makes no comparison
        config = next(c for c in cli.suite_configs("ucp")
                      if c.get("label") == "checkerboard-low-energy")
        config["grid"] = {**config["grid"], "d": 2, "n_per_side": n}
        rep = cli.execute(config)
        assert rep.status == "error" and not rep.ok
        assert rep.lhs is None and "no eigenvalues in the window: vacuous" in rep.notes
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(yaml.safe_dump(config))
        assert cli.main(["run", str(cfg_file), "--out", str(tmp_path / "o")]) == 1
        assert "[BAD] ucp_gradient[low_energy]" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["step", "checkerboard"])
    def test_uncertified_step_is_a_config_error_under_lipschitz(self, tmp_path, capsys,
                                                                monkeypatch, kind):
        # the checkerboard's own step, sampled with no certified Lipschitz constant
        def step_field(grid):
            return dl.sampled_field(grid, lambda p: np.where(p[:, 0] < 0, 1.0, 2.0))

        monkeypatch.setitem(cli._FIELDS, "step", (step_field, {}))
        monkeypatch.setattr(cli, "_spectrum_upto", _no_solve)
        grid = dl.make_grid(1, 2, 24)
        assert step_field(grid).theta_lip is None
        assert np.array_equal(step_field(grid).cells, dl.checkerboard_field(grid).cells)
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(yaml.safe_dump({
            "experiment": "ucp_gradient", "grid": {"d": 1, "L": 2, "n_per_side": 24},
            "field": {"kind": kind}, "sequence": {"G": 1.0, "delta": 0.3},
            "check": {"variant": "lipschitz"},
            "constants": {"e_min": 1.0, "e_max": 12.0, "theta_plus": 2.0}}))
        assert cli.main(["run", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
        assert ("config error: ucp_gradient: field carries no Lipschitz constant"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("experiment, check", [
        ("lifting", {"variant": "standard"}),
        ("lifting", {"variant": "bounded_w"}),
        ("wegner", {"e_center": 20.0, "eps": 0.5, "n_samples": 20}),
    ], ids=["lifting-standard", "lifting-bounded-w", "wegner"])
    def test_lifting_slopes_carry_the_lipschitz_hypotheses(self, tmp_path, capsys, monkeypatch,
                                                           experiment, check):
        # the lifting slopes of `bounds.c_evl_family` are the UCP gradient bound of the
        # Lipschitz variant, so the checkerboard it rejects (above) is rejected by every
        # run taking them, before the first solve
        monkeypatch.setattr(spectral, "eigensolve", _no_solve)
        monkeypatch.setattr(verify, "alloy_operators", _no_solve)
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(yaml.safe_dump({
            "experiment": experiment, "grid": {"d": 1, "L": 2, "n_per_side": 48},
            "field": {"kind": "checkerboard"}, "sequence": {"G": 1.0, "delta": 0.3},
            "check": check, "constants": {"e_min": 1.0, "e_max": 60.0}}))
        assert cli.main(["run", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
        assert (f"config error: {experiment}: field carries no Lipschitz constant"
                in capsys.readouterr().err)

    def test_readme_example_config_runs(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
        assert cli.execute(yaml.safe_load(example)).ok

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


class TestConstantsKeys:
    """A ConstantsConfig field is a `constants:` key or a value every check sets."""

    @staticmethod
    def _checks_taking_constants():
        return sorted(name for name, fn in vars(verify).items()
                      if inspect.isfunction(fn) and fn.__module__ == verify.__name__
                      and not name.startswith("_")
                      and any(p.annotation == "ConstantsConfig"
                              for p in inspect.signature(fn).parameters.values()))

    def test_every_field_is_a_key_or_set_by_every_check(self):
        names = [f.name for f in dataclasses.fields(dl.ConstantsConfig)]
        assert len(cli._CONSTANTS_KEYS) == 13 and set(cli._CONSTANTS_KEYS) <= set(names)
        run_fields = [name for name in names if name not in cli._CONSTANTS_KEYS]
        base = dl.ConstantsConfig(e_min=1.0, e_max=30.0, theta_minus=0.5, theta_plus=1.5)
        # each field a check must set, at a value that no check below derives
        odd = dataclasses.replace(base, **{name: getattr(base, name) + 7.25
                                           for name in run_fields})
        g = dl.make_grid(1, 2, 16)
        f = cli._build_field({"field": {"kind": "sine"}}, g)
        seq = dl.equidistributed_sequence(g, 1.0, 0.3)
        spec = cli._spectrum_upto(g, f, 30.0)
        curve = dl.lifting_curve(g, f, dl.ball_plateau_field(seq), 1.0, 3, [0])
        model = dl.alloy_model(dl.identity_field(g), dl.equidistributed_sequence(g, 1.0, 0.2),
                               delta_plus=0.45)
        reports = {
            "ucp_function_check": verify.ucp_function_check(g, f, spec, seq, odd),
            "ucp_gradient_check": verify.ucp_gradient_check(g, f, spec, seq, odd),
            "projector_ucp_check": verify.projector_ucp_check(g, f, spec, seq, 0.01, 2, 0, odd),
            "lifting_check": verify.lifting_check(curve, odd, seq, variant="bounded_w"),
            "wegner_mc": verify.wegner_mc(model, g, 12.5, 0.5, 2, 0, odd),
        }
        assert sorted(reports) == self._checks_taking_constants()
        for check, rep in reports.items():
            used = rep.inputs["config"]
            assert used["d"] == 1 and used["G"] == 1.0, check
            for name in run_fields:
                assert used[name] != getattr(odd, name), (check, name)
            for name in cli._CONSTANTS_KEYS:
                assert used[name] == getattr(odd, name), (check, name)


class TestSpectrumUpto:
    """Threshold spectra are sized and certified by the inertia count."""

    @staticmethod
    def _sine(d, L, n, bc="dirichlet"):
        grid = dl.make_grid(d, L, n, bc)
        return grid, cli._build_field({"field": {"kind": "sine"}}, grid)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_lanczos_size_matches_count_and_dense(self, monkeypatch, bc):
        grid, field = self._sine(2, 2, 20, bc)  # 1521 / 1681 unknowns: Lanczos path
        op = dl.assemble(grid, field)
        top = 60.0
        orders, splu = [], scipy.sparse.linalg.splu
        certified, lanczos = [], spectral._lanczos
        arpack, eigsh = [], scipy.sparse.linalg.eigsh

        def spy(*args, **kwargs):
            orders.append(kwargs.get("permc_spec"))
            return splu(*args, **kwargs)

        def lanczos_spy(solve, v0, k, sigma, tol, *rest):
            certified.append((sigma, tol))
            return lanczos(solve, v0, k, sigma, tol, *rest)

        def eigsh_spy(*args, **kwargs):
            arpack.append((kwargs.get("sigma"), kwargs.get("tol")))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
        monkeypatch.setattr(spectral, "_lanczos", lanczos_spy)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh_spy)
        spec = cli._spectrum_upto(grid, field, top)
        assert orders == ["MMD_AT_PLUS_A"]  # one minimum-degree factor for the certified solve
        assert arpack == []  # which is `_lanczos`', not ARPACK's
        # shifted to the middle of the counted interval [0, top], and stopped at the
        # residual its certificate checks: _RTOL in H
        norm_inf = abs(op.matrix).sum(axis=1).max()
        assert certified == [(top / 2, pytest.approx(spectral._RTOL / (norm_inf + top / 2),
                                                     rel=1e-12))]
        below = dl.count_eigenvalues(op, top)
        assert orders == ["MMD_AT_PLUS_A"]  # the count factors no sparse matrix
        plain = dl.eigensolve(op, below + 1)  # the counted pairs and the next one
        assert orders == ["MMD_AT_PLUS_A"]  # the uncertified solve keeps ARPACK's own factor
        assert len(certified) == 1  # and is ARPACK's, at its fixed shift and with
        # ARPACK's default tol: its values stay bit for bit
        assert arpack == [(0.0 if bc == "dirichlet" else -0.05, None)]
        assert np.abs(plain.energies[:below] - spec.energies).max() <= 1e-10
        assert not spec.complete and below > 8
        assert spec.k == below  # the counted pairs alone
        assert np.count_nonzero(spec.energies <= top) == below
        assert plain.energies[below] > top
        dense = scipy.linalg.eigvalsh(op.dense())[:spec.k]
        assert np.abs(spec.energies - dense).max() <= 1e-10
        if bc == "neumann":  # the constant zero mode is counted and returned
            assert abs(spec.energies[0]) < 1e-10

    # top below the lowest eigenvalue: the count is 0, and the solve of the one pair
    # nearest top / 2, the lowest, certifies that none lies at or below top
    @pytest.mark.parametrize("bc, top", [("dirichlet", 1.0), ("neumann", -1.0)])
    def test_top_below_the_spectrum_returns_no_pair(self, monkeypatch, bc, top):
        grid, field = self._sine(2, 2, 20, bc)  # 1521 / 1681 unknowns: Lanczos path
        op = dl.assemble(grid, field)
        solves, eigsh = [], spectral._eigsh

        def spy(op, k, sigma, count):
            out = eigsh(op, k, sigma, count)
            solves.append((k, sigma, out[0]))
            return out

        monkeypatch.setattr(spectral, "_eigsh", spy)
        spec = cli._spectrum_upto(grid, field, top)
        assert not spec.complete and dl.count_eigenvalues(op, top) == 0 and spec.k == 0
        assert spec.vectors.shape == (op.dim, 0) and spec.residuals.shape == (0,)
        [(k, sigma, solved)] = solves
        assert k == 1 and sigma == top / 2 and solved[0] > top
        lowest = scipy.linalg.eigvalsh(op.dense(), subset_by_index=[0, 0])
        assert abs(solved[0] - lowest[0]) <= 1e-10

    def test_window_solve_shifts_to_its_midpoint(self, monkeypatch):
        # the threshold rule above, sigma = top / 2 and k = count + 1, beside the window
        # rule: sigma = (lo + hi) / 2 and k = count + 2, one solve each
        grid, field = self._sine(2, 2, 12)
        op = dl.assemble(grid, field)
        assert op.dim == 529
        solves, eigsh = [], spectral._eigsh

        def spy(op, k, sigma, count):
            solves.append((k, sigma, count))
            return eigsh(op, k, sigma, count)

        monkeypatch.setattr(spectral, "_eigsh", spy)
        top, lo, hi = 60.0, 40.0, 100.0
        below = dl.count_eigenvalues(op, top)
        expected = int(np.diff(dl.count_eigenvalues(op, [lo, hi]))[0])
        spec = cli._spectrum_upto(grid, field, top)
        window = dl.eigenpairs(op, lo, hi, expected)
        assert solves == [(below + 1, top / 2, (-np.inf, top, below)),
                          (expected + 2, (lo + hi) / 2, (lo, hi, expected))]
        # each returns the counted pairs alone
        assert spec.k == below and window.k == expected > 2
        dense = scipy.linalg.eigvalsh(op.dense())
        assert np.abs(spec.energies - dense[:below]).max() <= 1e-10 * top
        assert np.abs(window.energies - dense[(dense > lo) & (dense <= hi)]).max() \
            <= 1e-10 * hi

    def test_dropped_pair_raises(self, monkeypatch):
        grid, field = self._sine(1, 2, 24)
        dense_eigh = spectral._dense_eigh

        def drop_first(op, k):
            evals, evecs = dense_eigh(op, k)
            return evals[1:], evecs[:, 1:]

        monkeypatch.setattr(spectral, "_dense_eigh", drop_first)
        with pytest.raises(dl.EigensolveError, match="inertia counts"):
            cli._spectrum_upto(grid, field, 30.0)

    def test_ghost_copy_raises(self, monkeypatch):
        # the second pair returned as a copy of the first: the residuals and the count
        # both look right, and only orthonormality catches it
        grid, field = self._sine(1, 2, 24)
        dense_eigh = spectral._dense_eigh

        def ghost(op, k):
            evals, evecs = dense_eigh(op, k)
            evals[1], evecs[:, 1] = evals[0], evecs[:, 0]
            return evals, evecs

        monkeypatch.setattr(spectral, "_dense_eigh", ghost)
        with pytest.raises(dl.EigensolveError, match="not orthonormal"):
            cli._spectrum_upto(grid, field, 30.0)

    # Bunch-Kaufman never leaves an exactly zero 1x1 pivot or a 2x2 block with
    # ac >= b^2 at a regular slab; both are forced here
    @pytest.mark.parametrize("breakdown", ["zero-pivot", "unsplit-block"])
    def test_slab_pivot_breakdown_is_a_solver_breakdown(self, tmp_path, capsys, monkeypatch,
                                                        breakdown):
        dsytrf = scipy.linalg.lapack.dsytrf

        def broken(a, **kw):
            ldu, piv, info = dsytrf(a, **kw)
            if breakdown == "zero-pivot":
                return ldu, piv, 1
            piv[:2] = -2  # rows 0 and 1 as a 2x2 block [[1, 0], [0, 1]]
            ldu[0, 0], ldu[1, 1], ldu[1, 0] = 1.0, 1.0, 0.0
            return ldu, piv, info

        monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", broken)
        monkeypatch.setattr(cli, "eigenpairs", _no_solve)  # the count fails first
        config = {"experiment": "ucp_gradient", "grid": {"d": 2, "L": 2, "n_per_side": 6},
                  "sequence": {"G": 1.0, "delta": 0.3}, "check": {"variant": "lipschitz"},
                  "constants": {"e_min": 1.0, "e_max": 12.0}}
        with pytest.raises(dl.EigensolveError, match="slab count at E = 12: exactly zero "
                                                     "or unsplit pivot block in slab 0"):
            cli.execute(config)
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(yaml.safe_dump(config))
        assert cli.main(["run", str(cfg_file), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver breakdown: slab count at E = 12:")
        assert "Traceback" not in err

    @staticmethod
    def _run_with_singular_factors(tmp_path, monkeypatch, solve, singular_factors):
        """`cli.main(["run", ...])` of a threshold or a window config whose first
        `singular_factors` minimum-degree factors SuperLU finds exactly singular; returns
        the exit status and the number of factors tried."""
        calls, splu = [], scipy.sparse.linalg.splu

        def singular(*args, **kwargs):
            calls.append(1)
            if len(calls) <= singular_factors:
                raise RuntimeError("Factor is exactly singular")
            return splu(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        if solve == "threshold":  # 1521 unknowns: above the dense cutoff
            config = {"experiment": "ucp_gradient", "grid": {"d": 2, "L": 2, "n_per_side": 20},
                      "sequence": {"G": 1.0, "delta": 0.3}, "check": {"variant": "lipschitz"},
                      "constants": {"e_min": 1.0, "e_max": 12.0}}
        else:  # 121 unknowns, every window solved by shift-invert Lanczos
            config = {"experiment": "wegner", "grid": {"d": 2, "L": 2, "n_per_side": 6},
                      "sequence": {"G": 1.0, "delta": 0.2},
                      "check": {"e_center": 30.0, "eps": 1.0, "n_samples": 3,
                                "delta_plus": 0.45, "dist": {"kind": "uniform", "m": 2.0}},
                      "constants": {"e_min": 1.0, "e_max": 33.0}}
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(yaml.safe_dump(config))
        return cli.main(["run", str(cfg_file), "--out", str(tmp_path / "o")]), len(calls)

    # the minimum-degree factor is built inside `_eigsh`'s try: an exactly singular
    # H - sigma moves the shift once, and a singular factor at the moved shift too is a
    # solver breakdown (exit status 3, or an excluded Wegner sample), not a traceback
    @pytest.mark.parametrize("solve", ["threshold", "window"])
    def test_singular_factor_is_a_solver_breakdown(self, tmp_path, capsys, monkeypatch, solve):
        status, factors = self._run_with_singular_factors(tmp_path, monkeypatch, solve, 2)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if solve == "threshold":
            assert status == 3 and factors == 2
            assert err.startswith("solver breakdown: shift-invert Lanczos failed: "
                                  "Factor is exactly singular")
        else:  # the first sample is excluded, the other two are solved
            rep = _read_reports(tmp_path / "o")["wegner_mc[bounded_w]"]
            assert status == 1 and rep["status"] == "fail"
            assert rep["observed"]["failures"] == 1 and factors == 4

    @pytest.mark.parametrize("solve", ["threshold", "window"])
    def test_one_singular_factor_is_solved_at_the_moved_shift(self, tmp_path, capsys,
                                                              monkeypatch, solve):
        status, factors = self._run_with_singular_factors(tmp_path, monkeypatch, solve, 1)
        assert not capsys.readouterr().err
        if solve == "threshold":
            reports = _read_reports(tmp_path / "o").values()
            assert status == 0 and factors == 2
            assert all(r["status"] == "pass" for r in reports)
        else:  # one factor per sample, and a second at the first sample's moved shift
            rep = _read_reports(tmp_path / "o")["wegner_mc[bounded_w]"]
            assert rep["observed"]["failures"] == 0 and factors == 4

    def test_top_above_the_spectrum_returns_every_pair(self):
        grid, field = self._sine(1, 2, 24)
        op = dl.assemble(grid, field)
        spec = cli._spectrum_upto(grid, field, 1e6)
        assert spec.k == op.dim == dl.count_eigenvalues(op, 1e6)


BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _cli_reports(out, cli_args, threads=1):
    """Run `python -m divlab.cli *cli_args --out out` with BLAS on `threads` threads;
    return its manifest and every report, minus `walltime`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIVLAB_")}
    env.update({f"{lib}_NUM_THREADS": str(threads) for lib in ("OPENBLAS", "OMP", "MKL")})
    src = str(Path(dl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-m", "divlab.cli", *cli_args, "--out", str(out)],
                   env=env, check=True, capture_output=True)
    manifest = json.loads((out / "manifest.json").read_text())
    reports = [json.loads((out / m["file"]).read_text()) for m in manifest]
    for rep in reports:
        del rep["walltime"]
    return manifest, reports


def _bench_workload():
    """`bench/workload.py`, read and not changed."""
    spec = importlib.util.spec_from_file_location("bench_workload", BENCH_DIR / "workload.py")
    bench_workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_workload)
    return bench_workload


def _reports_and_bench_reference(tmp_path, workload, cli_args):
    """Run `python -m divlab.cli *cli_args --out tmp_path` with BLAS on one thread and
    pair every report, minus `walltime`, with its entry in `bench/reference/<workload>.json`.

    A threaded BLAS reduction can move the last bits of a float (the 2D scaling
    check's eigenvalue error does).  The reference file is only read.
    """
    reference = json.loads((BENCH_DIR / "reference" / f"{workload}.json").read_text())
    manifest, reports = _cli_reports(tmp_path, cli_args)
    assert reference["seed"] == 0
    assert [m["name"] for m in manifest] == [r["name"] for r in reference["reports"]]
    return list(zip(reports, reference["reports"]))


def test_reports_agree_across_blas_thread_counts(tmp_path):
    """`divlab suite scaling --seed 0` at 1 and at 2 BLAS threads gives equal statuses
    and reports that agree as the bench compares them (floats within `FLOAT_RTOL`).
    Bits are reproducible only at a fixed thread count: G2-d2's last bits move."""
    runs = [_cli_reports(tmp_path / str(threads), ["suite", "scaling", "--seed", "0"], threads)
            for threads in (1, 2)]
    (manifest_1, reports_1), (manifest_2, reports_2) = runs
    assert ([(m["name"], m["status"]) for m in manifest_1]
            == [(m["name"], m["status"]) for m in manifest_2])
    compare = _bench_workload().compare
    for rep_1, rep_2 in zip(reports_1, reports_2):
        assert compare(rep_2, rep_1) == [], rep_1["name"]


def test_suite_all_equals_bench_reference(tmp_path):
    """`divlab suite all --seed 0` reproduces the committed reference reports exactly."""
    for rep, ref in _reports_and_bench_reference(tmp_path, "suite_all",
                                                 ["suite", "all", "--seed", "0"]):
        assert rep == ref, rep["name"]


def test_suite_all_at_another_seed_passes_the_bench_output_check(tmp_path):
    """`divlab suite all --seed 7` passes the bench's output check against the committed
    seed-0 reference: every check ok, every Monte Carlo sample kept, and every field
    outside `seed_dependent` equal as `compare` compares them."""
    bench_workload = _bench_workload()
    reference = json.loads((BENCH_DIR / "reference" / "suite_all.json").read_text())
    manifest, reports = _cli_reports(tmp_path, ["suite", "all", "--seed", "7"])
    attempted, failed, problems = bench_workload.check_reports("suite_all", 7, reports,
                                                               manifest, reference)
    assert (attempted, failed, problems) == (420, 0, [])


@pytest.mark.parametrize("workload", ["wegner_mc", "ucp_2d"])
def test_d2_d3_workloads_match_bench_reference(tmp_path, workload):
    """The seed-0 `wegner_mc` (slab inertia counts and certified window solves at
    d = 2 and 3) and `ucp_2d` (a d = 2 threshold spectrum) workload configs
    reproduce their reference reports.

    Compared as the bench compares them: integers and strings exactly, floats
    within `FLOAT_RTOL`.  The ucp_2d reference was written when threshold
    spectra came from a 64-pair ARPACK solve, so its energies differ from
    today's one-solve spectrum in the last bits.
    """
    bench_workload = _bench_workload()
    config = tmp_path / "runs.yaml"
    config.write_text(yaml.safe_dump({"runs": bench_workload.WORKLOADS[workload](0)}))
    for rep, ref in _reports_and_bench_reference(tmp_path / "out", workload,
                                                 ["run", str(config)]):
        assert bench_workload.compare(rep, ref) == [], rep["name"]
