import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate  # the oracle of `verify._qags`; divlab itself does not load it
import scipy.linalg

import divlab as dl
from divlab import bounds, cli, operators, spectral, verify
from divlab.bounds import ConstantsConfig
from divlab.spectral import EigensolveError


def _sine_setup(n=48, L=2, delta=0.25):
    g = dl.make_grid(1, L, n)
    f = dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(np.pi * p[:, 0]), theta_lip=0.5 * np.pi)
    seq = dl.equidistributed_sequence(g, 1.0, delta)
    spec = dl.eigensolve(dl.assemble(g, f), k=8)
    cfg = ConstantsConfig(e_min=1.0, e_max=30.0, theta_minus=0.5, theta_plus=1.5)
    return g, f, seq, spec, cfg


@pytest.mark.parametrize("expected_failure", [False, True])
@pytest.mark.parametrize("status", ["pass", "fail", "error"])
def test_ok_is_the_expected_comparison_outcome(status, expected_failure):
    rep = verify.CheckReport(name="c", statement="s", status=status,
                             expected_failure=expected_failure)
    ok = {("pass", False), ("fail", True)}  # an error is never ok
    assert rep.ok == ((status, expected_failure) in ok)


def test_fixed_slack_boundary():
    g = dl.make_grid(1, 2, 48)
    rhs = 3.0
    edge = rhs * (1.0 - verify.DEFAULT_TOL - verify.DEFAULT_DISC_SLACK * g.h)
    assert verify._pass_with_slack(edge, rhs, g)
    assert not verify._pass_with_slack(np.nextafter(edge, 0.0), rhs, g)


class TestReverseCaccioppoli:
    def test_passes_for_eigenfunction(self):
        g, f, _, spec, _ = _sine_setup()
        e, psi = spec.pair(1)
        rep = verify.reverse_caccioppoli_check(g, f, e, psi, [0.1], 0.2, 1.0)
        assert rep.status == "pass" and rep.margin > 0

    def test_skipped_below_energy_floor(self):
        g, f, _, spec, _ = _sine_setup()
        e, psi = spec.pair(0)
        rep = verify.reverse_caccioppoli_check(g, f, e, psi, [0.0], 0.2, e_min=e + 1.0)
        assert rep.status == "error" and not rep.ok and rep.lhs is None

    def test_tiny_radius_trivial_pass(self):
        g, f, _, spec, _ = _sine_setup(n=64)
        e, psi = spec.pair(1)
        rep = verify.reverse_caccioppoli_check(g, f, e, psi, [0.0], 0.02, 1.0)
        assert rep.status == "pass"

    def test_geometry_enforced(self):
        g, f, _, spec, _ = _sine_setup()
        e, psi = spec.pair(1)
        with pytest.raises(ValueError):
            verify.reverse_caccioppoli_check(g, f, e, psi, [0.9], 0.2, 1.0)


class TestUcpFunction:
    def test_sine_field_passes(self):
        g, f, seq, spec, cfg = _sine_setup()
        rep = verify.ucp_function_check(g, f, spec, seq, cfg)
        assert rep.status == "pass"
        assert rep.observed["observed_constant"] > rep.rhs

    def test_wide_balls_cover_domain(self):
        g, f, seq, spec, cfg = _sine_setup(delta=0.49)
        rep = verify.ucp_function_check(g, f, spec, seq, cfg)
        assert rep.status == "pass"
        assert rep.lhs > 0.9

    def test_vacuous_when_bound_below_spectrum(self):
        g, f, seq, spec, cfg = _sine_setup()
        cfg = ConstantsConfig(e_min=0.001, e_max=0.01, theta_minus=0.5, theta_plus=1.5)
        rep = verify.ucp_function_check(g, f, spec, seq, cfg)
        assert rep.status == "error" and not rep.ok and "vacuous" in rep.notes[0]

    def test_needs_lipschitz_certificate(self):
        g, f, seq, spec, cfg = _sine_setup()
        cb = dl.checkerboard_field(g)
        with pytest.raises(ValueError, match="Lipschitz"):
            verify.ucp_function_check(g, cb, spec, seq, cfg)

    def test_constants_use_the_grid_dimension(self):
        g = dl.make_grid(2, 2, 8)
        f = dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(np.pi * p[:, 0]),
                             theta_lip=0.5 * np.pi)
        seq = dl.equidistributed_sequence(g, 1.0, 0.3)
        spec = dl.eigensolve(dl.assemble(g, f), k=4)
        cfg = ConstantsConfig(e_min=1.0, e_max=30.0, theta_minus=0.5, theta_plus=1.5)
        rep = verify.ucp_function_check(g, f, spec, seq, cfg)
        assert rep.inputs["config"]["d"] == 2
        at_d2 = ConstantsConfig(**{**cfg.snapshot(), "d": 2, "delta": 0.3})
        assert rep.observed["delta0"] == bounds.delta0(at_d2, G=1.0)
        grad = verify.ucp_gradient_check(g, f, spec, seq, cfg)
        assert grad.inputs["config"] == rep.inputs["config"]


class TestUcpGradient:
    def test_lipschitz_variant_passes(self):
        g, f, seq, spec, cfg = _sine_setup()
        rep = verify.ucp_gradient_check(g, f, spec, seq, cfg)
        assert rep.status == "pass"

    def test_scalar_scaling_leaves_ratio_invariant(self):
        # eigenfunctions of c * identity do not depend on c
        out = {}
        for c in (1.0, 2.0):
            g = dl.make_grid(1, 2, 32)
            f = dl.constant_field(g, np.array([[c]]))
            seq = dl.equidistributed_sequence(g, 1.0, 0.3)
            spec = dl.eigensolve(dl.assemble(g, f), k=4)
            cfg = ConstantsConfig(e_min=0.5 * c, e_max=40.0 * c, theta_plus=c)
            rep = verify.ucp_gradient_check(g, f, spec, seq, cfg)
            out[c] = rep.lhs
        assert out[1.0] == pytest.approx(out[2.0], rel=1e-10)

    def test_low_energy_variant_checkerboard(self):
        g = dl.make_grid(1, 24, 16)
        f = dl.checkerboard_field(g)
        seq = dl.equidistributed_sequence(g, 1.0, 0.45)
        cfg = ConstantsConfig(e_min=0.005, e_max=0.0253, theta_minus=1.0, theta_plus=2.0,
                              delta=0.45)
        kap = bounds.kappa_family(cfg).kappa
        assert cfg.e_max <= kap
        spec = dl.eigensolve(dl.assemble(g, f), k=6)
        rep = verify.ucp_gradient_check(g, f, spec, seq, cfg, variant="low_energy")
        assert rep.status == "pass"
        assert len(rep.observed["energies"]) >= 1

    def test_masked_mass_monotone_in_delta(self):
        g, f, _, spec, cfg = _sine_setup()
        prev = -1.0
        for delta in (0.1, 0.2, 0.3, 0.4):
            seq = dl.equidistributed_sequence(g, 1.0, delta)
            rep = verify.ucp_gradient_check(g, f, spec, seq, cfg)
            assert rep.lhs >= prev - 1e-15
            prev = rep.lhs

    def test_window_top_enforced(self):
        g, f, seq, spec, cfg = _sine_setup()
        with pytest.raises(ValueError, match="kappa"):
            verify.ucp_gradient_check(g, f, spec, seq, cfg, variant="low_energy")

    def test_neumann_needs_d3(self):
        g = dl.make_grid(1, 2, 16, bc="neumann")
        f = dl.identity_field(g)
        seq = dl.equidistributed_sequence(g, 1.0, 0.3)
        spec = dl.eigensolve(dl.assemble(g, f), k=3)
        cfg = ConstantsConfig(e_min=0.01, e_max=0.02)
        with pytest.raises(ValueError, match="d >= 3"):
            verify.ucp_gradient_check(g, f, spec, seq, cfg, variant="neumann")

    def test_neumann_zero_mode_negative_control(self):
        g = dl.make_grid(1, 2, 32, bc="neumann")
        f = dl.identity_field(g)
        seq = dl.equidistributed_sequence(g, 1.0, 0.3)
        spec = dl.eigensolve(dl.assemble(g, f), k=2)
        cfg = ConstantsConfig(e_min=1e-8, e_max=1e-3, delta=0.3)
        rep = verify.ucp_gradient_check(g, f, spec, seq, cfg, variant="low_energy",
                                        negative_control=True)
        # constant eigenfunction: zero gradient mass, any positive bound fails
        assert rep.status == "fail" and rep.expected_failure and rep.ok
        assert rep.lhs == pytest.approx(0.0, abs=1e-20)


class TestProjectorUcp:
    def _low_energy_setup(self, L=20, delta=0.45):
        g = dl.make_grid(1, L, 16)
        f = dl.checkerboard_field(g)
        seq = dl.equidistributed_sequence(g, 1.0, delta)
        cfg = ConstantsConfig(e_min=0.001, e_max=0.05, theta_minus=1.0, theta_plus=2.0,
                              delta=delta)
        spec = dl.eigensolve(dl.assemble(g, f), k=10)
        return g, f, seq, cfg, spec

    def test_exact_and_mc_agree(self):
        g, f, seq, cfg, spec = self._low_energy_setup()
        kp = bounds.kappa_family(cfg).kappa_prime
        rep = verify.projector_ucp_check(g, f, spec, seq, kp, 400, 11, cfg)
        assert rep.status == "pass"
        assert rep.observed["mc_vs_exact_rel"] <= 0.05
        assert rep.observed["mc_min"] >= rep.observed["exact_min"] - 1e-12

    def test_lambda_gate(self):
        g, f, seq, cfg, spec = self._low_energy_setup()
        with pytest.raises(ValueError, match="kappa_prime"):
            verify.projector_ucp_check(g, f, spec, seq, 10.0, 10, 0, cfg)

    def test_no_samples_rejected(self):
        g, f, seq, cfg, spec = self._low_energy_setup()
        kp = bounds.kappa_family(cfg).kappa_prime
        with pytest.raises(ValueError, match="need n_samples >= 1"):
            verify.projector_ucp_check(g, f, spec, seq, kp, 0, 0, cfg)

    def test_vacuous_flagged(self):
        g, f, seq, cfg, spec = self._low_energy_setup(L=2)
        kp = bounds.kappa_family(cfg).kappa_prime
        rep = verify.projector_ucp_check(g, f, spec, seq, kp, 10, 0, cfg)
        assert rep.status == "error" and not rep.ok and rep.observed["span_dim"] == 0

    def test_full_domain_mask_gives_unit_minimum(self):
        g = dl.make_grid(1, 20, 16)
        f = dl.checkerboard_field(g)
        cfg = ConstantsConfig(e_min=0.001, e_max=0.05, theta_minus=1.0, theta_plus=2.0,
                              delta=0.45)
        spec = dl.eigensolve(dl.assemble(g, f), k=4)
        idx = np.nonzero(spec.energies < 0.1)[0]
        vecs = spec.vectors[:, idx]
        compressed = vecs.T @ vecs * g.h
        assert np.linalg.eigvalsh(compressed)[0] == pytest.approx(1.0, abs=1e-10)


class TestLifting:
    def test_bounded_w_margin_positive(self):
        g, f, seq, _, cfg = _sine_setup()
        w = dl.ball_plateau_field(seq)
        curve = dl.lifting_curve(g, f, w, 1.0, 7, [0, 1, 2])
        rep = verify.lifting_check(curve, cfg, seq, variant="bounded_w")
        assert rep.status == "pass"
        assert rep.observed["min_margin"] > 0
        assert rep.observed["monotone"]

    def test_elementary_exact_linear(self):
        g = dl.make_grid(1, 2, 32)
        f = dl.identity_field(g)
        seq = dl.equidistributed_sequence(g, 1.0, 0.3)
        curve = dl.lifting_curve(g, f, 1.0, 1.0, 7, [0, 1])
        cfg = ConstantsConfig(e_min=1.0, e_max=60.0)
        rep = verify.lifting_check(curve, cfg, seq, variant="elementary")
        assert rep.status == "pass"

    def test_w_must_dominate_ball_union(self):
        g, f, seq, _, cfg = _sine_setup()
        curve = dl.lifting_curve(g, f, 0.0, 1.0, 4, [0])
        with pytest.raises(ValueError, match="dominate"):
            verify.lifting_check(curve, cfg, seq, variant="bounded_w")

    def test_out_of_window_rows_excluded(self):
        g, f, seq, _, _ = _sine_setup()
        w = dl.ball_plateau_field(seq)
        curve = dl.lifting_curve(g, f, w, 1.0, 5, [0, 1, 2])
        cfg = ConstantsConfig(e_min=1.0, e_max=3.0, theta_minus=0.5, theta_plus=1.5)
        rep = verify.lifting_check(curve, cfg, seq, variant="bounded_w")
        assert len(rep.observed["excluded_indices"]) >= 1

    def test_no_row_in_window_is_an_error(self):
        g, f, seq, _, _ = _sine_setup()
        w = dl.ball_plateau_field(seq)
        curve = dl.lifting_curve(g, f, w, 1.0, 5, [0, 1])
        # both rows start below e_min
        cfg = ConstantsConfig(e_min=40.0, e_max=60.0, theta_minus=0.5, theta_plus=1.5)
        rep = verify.lifting_check(curve, cfg, seq, variant="bounded_w")
        assert rep.status == "error" and not rep.ok and rep.lhs is None
        assert rep.observed["excluded_indices"] == [0, 1]
        assert "no rows stay inside the window on [0, T]: vacuous" in rep.notes


class TestWegner:
    def _model(self, dist, L=2, delta=0.2, delta_plus=0.45):
        g = dl.make_grid(1, L, 24)
        seq = dl.equidistributed_sequence(g, 1.0, delta)
        model = dl.alloy_model(dl.identity_field(g), seq, c_minus=1.0, c_plus=2.0,
                               delta_plus=delta_plus, dist=dist)
        return g, model

    def test_frozen_couplings_off_resonance_mean_zero(self):
        g, model = self._model(dl.CouplingDistribution("point", 0.0))
        spec = dl.eigensolve(dl.assemble(g, model.base), k=3)
        e_mid = 0.5 * (spec.energies[1] + spec.energies[2])
        cfg = ConstantsConfig(e_min=0.1, e_max=40.0)
        rep = verify.wegner_mc(model, g, e_mid, 0.05, 20, 0, cfg)
        assert rep.observed["means"][0] == 0.0
        assert rep.status == "pass"

    def test_frozen_couplings_on_eigenvalue_counts_multiplicity(self):
        g, model = self._model(dl.CouplingDistribution("point", 0.0))
        spec = dl.eigensolve(dl.assemble(g, model.base), k=3)
        cfg = ConstantsConfig(e_min=0.1, e_max=40.0)
        rep = verify.wegner_mc(model, g, float(spec.energies[1]), 0.05, 10, 0, cfg)
        assert rep.observed["means"][0] == 1.0

    def test_uniform_model_statistics(self):
        g, model = self._model(dl.CouplingDistribution("uniform", 2.0))
        cfg = ConstantsConfig(e_min=1.0, e_max=30.0)
        rep = verify.wegner_mc(model, g, 12.5, 0.5, 120, 3, cfg)
        assert rep.status == "pass"
        assert rep.observed["smear_chain_fraction"] == 1.0
        assert rep.observed["crosscheck_agreement"] == 1.0
        assert rep.lhs <= rep.rhs

    def test_config_error_in_a_sample_propagates(self, monkeypatch):
        g, model = self._model(dl.CouplingDistribution("uniform", 2.0))
        cfg = ConstantsConfig(e_min=1.0, e_max=30.0)

        def misconfigured(*args, **kwargs):
            raise ValueError("misconfigured window")

        # the batched 1D window solve
        monkeypatch.setattr(spectral, "_window_pairs", misconfigured)
        with pytest.raises(ValueError, match="misconfigured window"):
            verify.wegner_mc(model, g, 12.5, 0.5, 5, 0, cfg)

    @staticmethod
    def _singular_samples(monkeypatch, samples):
        """Give the window solve's T - sigma of each sample in `samples` a zero pivot, at
        the midpoint and at the moved shift alike: those samples' solves fail."""
        lu = spectral._band_lu

        def singular(bands, sides, sigma):
            solve, pivots = lu(bands, sides, sigma)
            pivots[samples, -1] = 0.0
            return solve, pivots

        monkeypatch.setattr(spectral, "_band_lu", singular)

    def test_solver_breakdown_is_an_exclusion(self, monkeypatch):
        g, model = self._model(dl.CouplingDistribution("uniform", 2.0))
        cfg = ConstantsConfig(e_min=1.0, e_max=30.0)
        self._singular_samples(monkeypatch, [0])
        rep = verify.wegner_mc(model, g, 12.5, 0.5, 20, 0, cfg)
        assert rep.observed["failures"] == 1
        assert rep.observed["crosscheck_agreement"] == 1.0
        assert rep.status == "fail"
        assert "1 sample failures exceed the 1% budget" in rep.notes

    @pytest.mark.parametrize("n_broken", [20, 19])
    def test_fewer_than_two_valid_samples_is_an_error(self, monkeypatch, n_broken):
        # pytest errors on RuntimeWarning, so no mean of an empty slice is taken
        g, model = self._model(dl.CouplingDistribution("uniform", 2.0))
        cfg = ConstantsConfig(e_min=1.0, e_max=30.0)
        self._singular_samples(monkeypatch, list(range(n_broken)))
        rep = verify.wegner_mc(model, g, 12.5, 0.5, 20, 0, cfg)
        assert rep.status == "error" and not rep.ok
        assert rep.lhs is None and rep.margin is None
        assert rep.observed["failures"] == n_broken
        assert f"{20 - n_broken} valid samples: a mean and its standard error need 2" in rep.notes

    @pytest.mark.parametrize("fault", ["pivot", "solve"])
    def test_window_solve_failure_excludes_that_sample_only(self, monkeypatch, fault):
        # sample 7 of 12 fails its window solve: a zero pivot of its T - sigma, or a
        # substitution that returns NaN in its block of the batched LAPACK solve; that
        # sample is excluded and every other one keeps the counts and window of an
        # unbroken run, bit for bit
        g, model = self._model(dl.CouplingDistribution("uniform", 2.0))
        edges = np.array([11.0, 14.0, 12.0, 13.0])
        children = np.random.SeedSequence(2).spawn(12)
        want_counts, want_windows, want_failures = verify._wegner_samples(
            model, g, children, edges)
        assert want_failures == [None] * 12
        calls, n = [], g.n_nodes
        if fault == "pivot":
            self._singular_samples(monkeypatch, [7])
            message = "pivot within"
        else:
            dgttrs = scipy.linalg.lapack.dgttrs

            def nan_in_sample_7(*args):
                calls.append(args[-1].size)
                x, info = dgttrs(*args)
                x[7 * n:8 * n] = np.nan
                return x, info

            monkeypatch.setattr(scipy.linalg.lapack, "dgttrs", nan_in_sample_7)
            message = "is not finite"
        counts, windows, failures = verify._wegner_samples(model, g, children, edges)
        # one batched substitution per Lanczos step, every sample's block in it
        assert set(calls) <= {12 * n + 3} and (fault == "pivot" or calls)
        assert [i for i, f in enumerate(failures) if f is not None] == [7]
        assert message in failures[7]
        assert np.isnan(windows[7]).all()
        keep = np.arange(12) != 7
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(windows[keep], want_windows[keep], equal_nan=True)
        calls.clear()
        rep = verify.wegner_mc(model, g, 12.5, 0.5, 12, 2, ConstantsConfig(e_min=1.0, e_max=30.0))
        assert rep.observed["failures"] == 1
        assert rep.observed["crosscheck_agreement"] == rep.observed["smear_chain_fraction"] == 1.0

    def test_1d_samples_need_neither_lanczos_nor_dense_eigh(self, monkeypatch):
        # d = 1 samples are counted by scalar pivots and solved by the batched
        # shift-invert Lanczos on their bands: no full eigenvector set, no per-sample QL
        # or inverse iteration, and no eigensolve of a matrix of the operator's size
        g, model = self._model(dl.CouplingDistribution("uniform", 2.0))
        dim, sizes, eigh = g.n_nodes, [], np.linalg.eigh

        def forbidden(*args, **kwargs):
            raise AssertionError("a 1D Wegner sample called a d >= 2 or full-spectrum solver")

        def small_eigh(a, *args, **kwargs):
            sizes.append(a.shape[-1])
            if a.shape[-1] >= dim:
                raise AssertionError(f"an eigensolve of size {a.shape[-1]} >= dim {dim}")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(spectral, "_eigsh", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", small_eigh)
        for name in ("dstevd", "dsterf", "dstein"):
            monkeypatch.setattr(scipy.linalg.lapack, name, forbidden)
        cfg = ConstantsConfig(e_min=1.0, e_max=30.0)
        rep = verify.wegner_mc(model, g, 12.5, 0.5, 10, 0, cfg)
        assert rep.observed["failures"] == 0
        assert rep.observed["crosscheck_agreement"] == 1.0
        assert rep.status == "pass"
        assert sizes and max(sizes) < dim

    @pytest.mark.parametrize("label", ["uniform-L2", "uniform-L4"])
    def test_suite_1d_wegner_runs_exclude_no_sample(self, label):
        # the suite's two 1D Wegner configs, 200 samples each, at seeds 0-9: every
        # sample's window solve is certified
        config = next(c for c in cli.suite_configs("wegner") if c["label"] == label)
        for seed in range(10):
            rep = cli.execute({**config, "seed": seed})
            assert rep.ok and rep.inputs["n_samples"] == 200
            assert rep.observed["failures"] == 0, seed
            assert rep.observed["crosscheck_agreement"] == 1.0

    def test_one_assembly_per_model_and_one_draw_per_sample(self, monkeypatch):
        # each sample's operator is H_0 + sum_s omega_s H_s: no per-sample assembly
        g, model = self._model(dl.CouplingDistribution("uniform", 2.0))
        cfg = ConstantsConfig(e_min=1.0, e_max=30.0)
        calls = {"assemble": 0, "sample_alloy": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for mod in (operators, verify):
            monkeypatch.setattr(mod, "assemble", counted("assemble", dl.assemble))
        monkeypatch.setattr(verify, "sample_alloy", counted("sample_alloy", dl.sample_alloy))
        rep = verify.wegner_mc(model, g, 12.5, 0.5, 20, 0, cfg)
        assert rep.observed["failures"] == 0
        assert calls == {"assemble": 1, "sample_alloy": 20}

    @pytest.mark.parametrize("law", [dl.CouplingDistribution("uniform", 2.0),
                                     dl.CouplingDistribution("bernoulli", 2.0, 0.5)],
                             ids=["uniform", "bernoulli"])
    def test_1d_samples_form_no_sample_operator(self, monkeypatch, law):
        # every 1D sample is counted and solved from its bands; its counts and window
        # are those of the per-operator API on H(omega)
        g, model = self._model(law)
        edges = np.array([11.0, 14.0, 12.0, 13.0, 12.25, 12.75, 12.375, 12.625])
        children = np.random.SeedSequence(4).spawn(12)
        ops = dl.alloy_operators(g, model)
        want = []
        for child in children:
            op = ops.at(dl.sample_alloy(model, np.random.default_rng(child)))
            c = dl.count_eigenvalues(op, edges)
            want.append((c, dl.eigenpairs(op, edges[0], edges[1], int(c[1] - c[0])).energies))

        def forbidden(*args, **kwargs):
            raise AssertionError("a 1D Wegner sample went through the per-operator path")

        monkeypatch.setattr(operators.AlloyOperators, "at", forbidden)
        for name in ("count_eigenvalues", "eigenpairs"):
            monkeypatch.setattr(verify, name, forbidden)
        counts, windows, failures = verify._wegner_samples(model, g, children, edges)
        assert len(counts) == len(windows) == len(failures) == len(want)
        assert failures == [None] * len(want)
        for c, window, (c_want, window_want) in zip(counts, windows, want):
            assert np.array_equal(c, c_want)
            # the window's values, then NaN up to the widest window
            assert np.array_equal(window[:window_want.size], window_want)
            assert np.isnan(window[window_want.size:]).all()
        rep = verify.wegner_mc(model, g, 12.5, 0.5, 20, 0, ConstantsConfig(e_min=1.0, e_max=30.0))
        assert rep.status == "pass" and rep.observed["failures"] == 0

    def test_2d_samples_go_through_the_sample_operator(self, monkeypatch):
        g = dl.make_grid(2, 2, 6)
        seq = dl.equidistributed_sequence(g, 1.0, 0.2)
        model = dl.alloy_model(dl.identity_field(g), seq, c_minus=1.0, c_plus=2.0,
                               delta_plus=0.45, dist=dl.CouplingDistribution("uniform", 2.0))
        calls = []
        at = operators.AlloyOperators.at

        def counted(self, omega):
            calls.append(1)
            return at(self, omega)

        def forbidden(*args, **kwargs):
            raise AssertionError("a 2D Wegner sample went through the 1D band path")

        monkeypatch.setattr(operators.AlloyOperators, "at", counted)
        for name in ("tridiagonal_counts", "tridiagonal_windows"):
            monkeypatch.setattr(verify, name, forbidden)
        rep = verify.wegner_mc(model, g, 12.5, 0.5, 4, 0, ConstantsConfig(e_min=1.0, e_max=30.0))
        assert rep.observed["failures"] == 0
        assert len(calls) == 4

    def test_window_precondition(self):
        g, model = self._model(dl.CouplingDistribution("uniform", 1.0))
        cfg = ConstantsConfig(e_min=1.0, e_max=2.0)
        with pytest.raises(ValueError, match="inside"):
            verify.wegner_mc(model, g, 1.5, 0.5, 10, 0, cfg)

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_fewer_than_two_samples_rejected(self, n_samples):
        g, model = self._model(dl.CouplingDistribution("uniform", 2.0))
        cfg = ConstantsConfig(e_min=1.0, e_max=30.0)
        with pytest.raises(ValueError, match="n_samples >= 2"):
            verify.wegner_mc(model, g, 12.5, 0.5, n_samples, 0, cfg)

    def test_weak_sites_rejected_for_bound(self):
        g = dl.make_grid(1, 2, 24)
        seq = dl.equidistributed_sequence(g, 1.0, 0.2)
        model = dl.alloy_model(dl.identity_field(g), seq, c_minus=0.5, c_plus=2.0,
                               delta_plus=0.45)
        cfg = ConstantsConfig(e_min=1.0, e_max=30.0)
        with pytest.raises(ValueError, match="c_minus"):
            verify.wegner_mc(model, g, 12.5, 0.5, 10, 0, cfg)

    def test_means_monotone_in_eps(self):
        g, model = self._model(dl.CouplingDistribution("uniform", 2.0))
        cfg = ConstantsConfig(e_min=1.0, e_max=30.0)
        rep = verify.wegner_mc(model, g, 12.5, 0.5, 60, 5, cfg)
        means = rep.observed["means"]
        assert means[0] >= means[1] >= means[2]

    def test_deterministic_reports(self):
        g, model = self._model(dl.CouplingDistribution("uniform", 2.0))
        cfg = ConstantsConfig(e_min=1.0, e_max=30.0)
        r1 = verify.wegner_mc(model, g, 12.5, 0.5, 30, 5, cfg)
        r2 = verify.wegner_mc(model, g, 12.5, 0.5, 30, 5, cfg)
        assert r1.to_dict(with_walltime=False) == r2.to_dict(with_walltime=False)


class TestPiSingular:
    def test_uniform_linear_reference(self):
        dist = dl.CouplingDistribution("uniform", 1.0)
        rep = verify.pi_singular_check(dist, lambda x: np.asarray(x, float),
                                       a=-0.1, b=1.1, eps=0.1)
        assert rep.status == "pass"
        assert rep.lhs == pytest.approx(0.1, rel=1e-9)
        assert rep.rhs == pytest.approx(0.13, rel=1e-9)

    def test_constant_phi(self):
        dist = dl.CouplingDistribution("uniform", 1.0)
        rep = verify.pi_singular_check(dist, lambda x: np.full_like(np.asarray(x, float), 2.0),
                                       a=-0.1, b=1.1, eps=0.2)
        assert rep.status == "pass" and rep.lhs == pytest.approx(0.0, abs=1e-12)

    def test_point_mass(self):
        dist = dl.CouplingDistribution("point", 0.5)
        rep = verify.pi_singular_check(dist, lambda x: np.asarray(x, float),
                                       a=-0.1, b=1.0, eps=0.2)
        assert rep.status == "pass"
        assert rep.lhs == pytest.approx(0.2, rel=1e-12)
        assert rep.rhs == pytest.approx(1.0 * (1.2 + 0.1), rel=1e-12)

    def test_support_and_monotonicity_enforced(self):
        dist = dl.CouplingDistribution("uniform", 1.0)
        with pytest.raises(ValueError, match="support"):
            verify.pi_singular_check(dist, lambda x: np.asarray(x, float), 0.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="non-decreasing"):
            verify.pi_singular_check(dist, lambda x: -np.asarray(x, float), -0.1, 1.1, 0.1)

    _PHIS = {"linear": lambda x: np.asarray(x, float),
             "softplus": lambda x: np.logaddexp(0.0, np.asarray(x, float)),
             "tanh": lambda x: np.tanh(3 * np.asarray(x, float)),
             "arctan": lambda x: np.arctan(10 * np.asarray(x, float) - 3),
             "arctan-steep": lambda x: np.arctan(300 * np.asarray(x, float) - 90)}

    # the uniform-law average of `pi_singular_check`, integrand and all, against
    # `quad(..., limit=200)`: bit for bit where quad bisects at most once (neval <= 63),
    # before its extrapolation can run; elsewhere within quad's tolerance
    @pytest.mark.parametrize("phi", sorted(_PHIS))
    def test_quadrature_is_quad(self, phi):
        phi = self._PHIS[phi]
        for m in (0.25, 0.5, 1.0, 2.0, 3.0):
            for eps in (1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25, 0.5):
                f = lambda lam: (phi(lam + eps) - phi(lam)) / m
                quad = scipy.integrate.quad(f, 0.0, m, limit=200, full_output=1)
                assert len(quad) == 3  # no warning message: quad met its tolerance
                got = verify._qags(f, 0.0, m)
                if quad[2]["neval"] <= 63:
                    assert got == quad[0]
                else:
                    assert abs(got - quad[0]) <= 1.49e-8 * max(1.0, abs(quad[0]))

    def test_unmet_panel_budget_raises(self, monkeypatch):
        f = lambda lam: np.arctan(300 * lam - 60) - np.arctan(300 * lam - 90)
        assert verify._qags(f, 0.0, 1.0) == pytest.approx(0.3123626990326353, rel=1e-8)
        monkeypatch.setattr(verify, "_QUAD_LIMIT", 8)
        with pytest.raises(ValueError, match=r"over \[0.0, 1.0\] missed its tolerance "
                                             "in 8 panels"):
            verify._qags(f, 0.0, 1.0)

    def test_import_leaves_integrate_unloaded(self):
        code = ("import sys, divlab, divlab.cli, divlab.verify; "
                "loaded = {'scipy.integrate', 'scipy.optimize'} & set(sys.modules); "
                "assert not loaded, f'{sorted(loaded)} imported'")
        src = str(Path(dl.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestWeyl:
    def test_reference_counts(self):
        grids = [dl.make_grid(1, L, 64) for L in (1, 2, 4)]
        rep = verify.weyl_check(grids, dl.identity_field, e_plus=100.0)
        assert rep.observed["counts"] == [3, 6, 12]
        assert rep.observed["ratios"][0] == pytest.approx(3.0)
        assert rep.status == "pass"

    def test_below_ground_state(self):
        grids = [dl.make_grid(1, L, 32) for L in (1, 2)]
        rep = verify.weyl_check(grids, dl.identity_field, e_plus=1.0)
        assert rep.observed["counts"] == [0, 0]
        assert rep.status == "pass"

    def test_stiffer_field_halves_counts(self):
        grids = [dl.make_grid(1, 2, 64)]
        soft = verify.weyl_check(grids, dl.identity_field, e_plus=200.0)
        stiff = verify.weyl_check(
            grids, lambda g: dl.constant_field(g, 2.0 * np.eye(1)), e_plus=200.0)
        half = verify.weyl_check(grids, dl.identity_field, e_plus=100.0)
        assert stiff.observed["counts"] == half.observed["counts"]
        assert soft.observed["counts"][0] > stiff.observed["counts"][0]

    def test_configured_constant_can_fail(self):
        grids = [dl.make_grid(1, 1, 32)]
        rep = verify.weyl_check(grids, dl.identity_field, e_plus=100.0, weyl_constant=1.0)
        assert rep.status == "fail"


class TestScaling:
    def test_aligned_midpoint_case(self):
        g = dl.make_grid(1, 4, 48)
        f = dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(np.pi * p[:, 0] / 2))
        seq = dl.equidistributed_sequence(g, 2.0, 0.75)
        rep = verify.scaling_check(f, 2.0, seq, 32)
        assert rep.status == "pass"
        assert max(rep.observed["grad_rel"]) < 0.02

    def test_unit_scale_exact(self):
        g = dl.make_grid(1, 2, 32)
        f = dl.identity_field(g)
        seq = dl.equidistributed_sequence(g, 1.0, 0.25)
        rep = verify.scaling_check(f, 1.0, seq, 32)
        assert rep.status == "pass"
        assert max(rep.observed["eig_rel"]) < 1e-11
        assert max(rep.observed["grad_rel"]) < 1e-11

    def test_2d_small_radius_improves_under_refinement(self):
        # delta = 0.4 discs: the ball-union boundary dominates the O(h) error;
        # frozen measured levels, halving roughly with h
        vals = {}
        for n_t in (32, 64):
            g = dl.make_grid(2, 2, int(3 * n_t / 2))
            f = dl.identity_field(g)
            seq = dl.equidistributed_sequence(g, 2.0, 0.4)
            rep = verify.scaling_check(f, 2.0, seq, n_t, eig_rtol=0.02, grad_rtol=0.05)
            assert rep.status == "pass"
            vals[n_t] = max(rep.observed["grad_rel"])
        assert vals[32] < 0.05 and vals[64] < 0.02
        assert vals[64] < 0.5 * vals[32]

    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_k_rejected_before_any_assembly(self, monkeypatch, k):
        g = dl.make_grid(1, 2, 32)
        seq = dl.equidistributed_sequence(g, 1.0, 0.25)
        assembled = []

        def spy(*args, **kwargs):
            assembled.append(1)
            return dl.assemble(*args, **kwargs)

        monkeypatch.setattr(verify, "assemble", spy)
        with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
            verify.scaling_check(dl.identity_field(g), 1.0, seq, 32, k=k)
        assert assembled == []
        assert verify.scaling_check(dl.identity_field(g), 1.0, seq, 32, k=1).ok
        assert assembled == [1, 1]

    def test_incompatible_resolution(self):
        g = dl.make_grid(1, 4, 32)
        seq = dl.equidistributed_sequence(g, 2.0, 0.5)
        with pytest.raises(ValueError, match="odd"):
            verify.scaling_check(dl.identity_field(g), 2.0, seq, 32)


class TestMollificationConvergence:
    def test_checkerboard_sweep(self):
        g = dl.make_grid(1, 1, 256)
        rep = verify.mollification_convergence(dl.checkerboard_field(g), 0.25,
                                               [4, 8, 16, 32, 64], 3)
        assert rep.status == "pass"
        devs = np.array(rep.observed["deviations"])
        assert np.all(devs[-1] <= devs[0])

    def test_subcell_kernel_is_exact(self):
        # support radius below the spacing: the kernel is a single cell
        g = dl.make_grid(1, 1, 32)
        f = dl.sampled_field(g, lambda p: 2.0 + 0.5 * np.sin(2 * np.pi * p[:, 0]))
        rep = verify.mollification_convergence(f, 0.25, [64, 128], 3)
        devs = np.array(rep.observed["deviations"])
        assert np.all(devs == 0.0)

    def test_eps_gate(self):
        g = dl.make_grid(1, 1, 32)
        with pytest.raises(ValueError):
            verify.mollification_convergence(dl.identity_field(g), 1.5, [2, 4], 2)

    @pytest.mark.parametrize("ells", [[4.7, 8.9], [True, 4], [4, "8"]])
    def test_non_integer_ells_rejected(self, ells):
        g = dl.make_grid(1, 1, 32)
        with pytest.raises(ValueError, match="ells must be integers"):
            verify.mollification_convergence(dl.checkerboard_field(g), 0.25, ells, 2)


def test_neumann_trend_decreases():
    rep = verify.neumann_gradient_decay_trend(1, [2, 4, 8], 16, 0.3)
    assert rep.status == "pass"
    assert rep.observed["ratios"][0] > rep.observed["ratios"][-1]
    assert rep.observed["energies"][0] > rep.observed["energies"][-1]


def test_report_serialization_roundtrip(tmp_path):
    from divlab import io
    g, f, seq, spec, cfg = _sine_setup()
    rep = verify.ucp_gradient_check(g, f, spec, seq, cfg)
    path = tmp_path / "rep.json"
    io.save_report_json(rep, path)
    import json
    loaded = json.loads(path.read_text())
    assert loaded["name"] == rep.name
    assert loaded["status"] == "pass"
    assert loaded["lhs"] == rep.lhs
