"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; the runtime budgets are
asserted, not just reported.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

import divlab as dl
from divlab import bounds, verify
from divlab.bounds import ConstantsConfig
from divlab.operators import perturbation_operator


class _Criterion:
    def __init__(self, number, name, budget_s):
        self.number, self.name, self.budget = number, name, budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number:2d} {self.name}: {status} ({elapsed:.1f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"runtime {elapsed:.1f}s exceeds budget {self.budget}s"
        return False


def _stencil_energies(L, n, d, k):
    h = 1.0 / n
    per = 4 / h**2 * np.sin(np.arange(1, L * n) * math.pi * h / (2 * L)) ** 2
    mesh = per
    for _ in range(d - 1):
        mesh = np.add.outer(mesh, per).ravel()
    return np.sort(mesh)[:k]


def test_criterion_01_spectral_correctness():
    with _Criterion(1, "spectral correctness", 10):
        for d in (1, 2):
            g = dl.make_grid(d, 1, 64)
            spec = dl.eigensolve(dl.assemble(g, dl.identity_field(g)), k=6)
            exact = _stencil_energies(1, 64, d, 6)
            rel = np.abs(spec.energies - exact).max() / exact.max()
            assert rel < 1e-10, f"d={d}: stencil mismatch {rel}"
            # continuum convergence of the ground state at fitted order >= 1.9
            errs = []
            for n in (16, 32, 64):
                gg = dl.make_grid(d, 1, n)
                e1 = dl.eigensolve(dl.assemble(gg, dl.identity_field(gg)), k=1).energies[0]
                errs.append(abs(e1 - d * math.pi**2))
            order = -np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0]
            assert order >= 1.9, f"d={d}: fitted order {order}"


def test_criterion_02_hellmann_feynman():
    with _Criterion(2, "form derivative vs finite differences", 60):
        tau = 1e-4
        cases = []
        g1 = dl.make_grid(1, 2, 48)
        f1 = dl.sampled_field(g1, lambda p: 1 + 0.5 * np.sin(np.pi * p[:, 0]))
        seq1 = dl.equidistributed_sequence(g1, 1.0, 0.3)
        cases.append((g1, f1, dl.ball_plateau_field(seq1)))
        g2 = dl.make_grid(1, 1, 64)
        cases.append((g2, dl.identity_field(g2), dl.cutoff(g2, [0.05], 0.1)))
        g3 = dl.make_grid(2, 1, 16)

        def aniso(p):
            out = np.zeros((p.shape[0], 2, 2))
            out[:, 0, 0] = 1.0 + 0.25 * np.cos(2 * np.pi * p[:, 0])
            out[:, 1, 1] = 2.0 + 0.25 * np.cos(2 * np.pi * p[:, 1])
            return out

        seq3 = dl.equidistributed_sequence(g3, 1.0, 0.3)
        cases.append((g3, dl.sampled_field(g3, aniso), dl.ball_plateau_field(seq3)))

        for grid, field, w in cases:
            base = dl.assemble(grid, field)
            pert = perturbation_operator(grid, w)
            op_t = base.shifted(pert, 0.3)
            k = 8
            spec = dl.eigensolve(op_t, k=k)
            checked = 0
            up = dl.eigensolve(base.shifted(pert, 0.3 + tau), k=k).energies
            down = dl.eigensolve(base.shifted(pert, 0.3 - tau), k=k).energies
            for i in range(k - 1):
                gap = min(abs(spec.energies[i] - spec.energies[j])
                          for j in range(k) if j != i)
                if gap < 1e-6 * max(1.0, abs(spec.energies[i])):
                    continue  # derivative formula is per analytic branch only
                e, psi = spec.pair(i)
                hf = dl.hf_derivative(grid, psi, w)
                fd = (up[i] - down[i]) / (2 * tau)
                assert abs(hf - fd) / abs(fd) < 1e-3, (grid.d, i, hf, fd)
                checked += 1
                if checked == 5:
                    break
            assert checked >= 5


def _revcacc_battery(n_1d, n_2d):
    # 1D radii and centers sit on nodes of both refinement levels, so the
    # masked quadrature endpoints are exact and margins converge cleanly
    margins = []
    g = dl.make_grid(1, 2, n_1d)
    fields = [dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(np.pi * p[:, 0])),
              dl.constant_field(g, np.array([[2.0]]))]
    for f in fields:
        spec = dl.eigensolve(dl.assemble(g, f), k=4)
        for x0 in ([0.0], [0.15], [-0.2]):
            for r in (0.1, 0.15, 0.2):
                e, psi = spec.pair(2)
                rep = verify.reverse_caccioppoli_check(g, f, e, psi, x0, r, e_min=1.0)
                assert rep.status == "pass", (x0, r)
                margins.append(rep.margin)
    g2 = dl.make_grid(2, 1, n_2d)
    f2 = dl.identity_field(g2)
    spec2 = dl.eigensolve(dl.assemble(g2, f2), k=2)
    for x0 in ([0.0, 0.0], [0.05, -0.05]):
        for r in (0.12, 0.15):
            e, psi = spec2.pair(0)
            rep = verify.reverse_caccioppoli_check(g2, f2, e, psi, x0, r, e_min=5.0)
            assert rep.status == "pass", (x0, r)
            margins.append(rep.margin)
    return np.array(margins)


def test_criterion_03_reverse_caccioppoli():
    with _Criterion(3, "double-ball gradient lower bound", 120):
        coarse = _revcacc_battery(40, 32)
        fine = _revcacc_battery(80, 64)
        assert coarse.size >= 20
        assert np.all(coarse >= 0) and np.all(fine >= 0)
        # margins improve or stay within a 10% stability band per case,
        # with no systematic degradation across the battery
        assert np.all(fine >= coarse - 0.10 * np.abs(coarse) - 1e-9)
        assert fine.mean() >= coarse.mean() * 0.98


def test_criterion_04_gradient_ucp():
    with _Criterion(4, "gradient unique continuation battery", 300):
        n_cases = 0
        # Lipschitz-field variant, 1D
        for L in (1, 2):
            g = dl.make_grid(1, L, 48)
            fields = [
                dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(np.pi * p[:, 0]),
                                 theta_lip=0.5 * np.pi),
                dl.constant_field(g, np.array([[2.0]])),
                dl.sampled_field(g, lambda p: 1.5 + 0.25 * np.cos(np.pi * p[:, 0] / L),
                                 theta_lip=0.25 * np.pi / L),
            ]
            for f in fields:
                spec = dl.eigensolve(dl.assemble(g, f), k=8)
                for delta in (0.15, 0.25, 0.35):
                    seq = dl.equidistributed_sequence(g, 1.0, delta)
                    cfg = ConstantsConfig(e_min=1.0, e_max=30.0,
                                          theta_minus=f.theta_minus,
                                          theta_plus=f.theta_plus)
                    rep = verify.ucp_gradient_check(g, f, spec, seq, cfg)
                    assert rep.ok and rep.observed["energies"], (L, delta)
                    n_cases += 1
        # 2D, midpoint and random sequences
        for kind in ("identity", "aniso"):
            g = dl.make_grid(2, 1, 24)
            if kind == "identity":
                f = dl.identity_field(g)
            else:
                def gen(p):
                    out = np.zeros((p.shape[0], 2, 2))
                    out[:, 0, 0] = 1.0 + 0.2 * np.cos(2 * np.pi * p[:, 0])
                    out[:, 1, 1] = 1.5 + 0.2 * np.cos(2 * np.pi * p[:, 1])
                    return out
                f = dl.sampled_field(g, gen, theta_lip=0.4 * np.pi)
            spec = dl.eigensolve(dl.assemble(g, f), k=6)
            for delta, mode, seed in ((0.2, "midpoint", None), (0.3, "midpoint", None),
                                      (0.2, "random", 5), (0.3, "random", 6)):
                seq = dl.equidistributed_sequence(g, 1.0, delta, mode=mode, seed=seed)
                cfg = ConstantsConfig(e_min=5.0, e_max=60.0, theta_minus=f.theta_minus,
                                      theta_plus=f.theta_plus)
                rep = verify.ucp_gradient_check(g, f, spec, seq, cfg)
                assert rep.ok and rep.observed["energies"], (kind, delta, mode)
                n_cases += 1
        # discontinuous checkerboard under the low-energy variant
        for delta, L in ((0.42, 32), (0.45, 24)):
            g = dl.make_grid(1, L, 16)
            f = dl.checkerboard_field(g)
            spec = dl.eigensolve(dl.assemble(g, f), k=6)
            seq = dl.equidistributed_sequence(g, 1.0, delta)
            kap = bounds.kappa_family(ConstantsConfig(delta=delta)).kappa
            cfg = ConstantsConfig(e_min=0.002, e_max=kap, theta_minus=1.0,
                                  theta_plus=2.0, delta=delta)
            rep = verify.ucp_gradient_check(g, f, spec, seq, cfg, variant="low_energy")
            assert rep.ok and rep.observed["energies"], delta
            n_cases += 1
        # Neumann d = 3 coarse case
        g3 = dl.make_grid(3, 8, 2, bc="neumann")
        f3 = dl.identity_field(g3)
        spec3 = dl.eigensolve(dl.assemble(g3, f3), k=5)
        seq3 = dl.equidistributed_sequence(g3, 1.0, 0.35)
        cfg3 = ConstantsConfig(d=3, delta=0.35, L=8.0, e_min=0.1, e_max=0.175)
        rep = verify.ucp_gradient_check(g3, f3, spec3, seq3, cfg3, variant="neumann")
        assert rep.ok and rep.observed["energies"]
        n_cases += 1
        # negative control: the Neumann zero mode must fail
        gn = dl.make_grid(1, 2, 32, bc="neumann")
        fn = dl.identity_field(gn)
        specn = dl.eigensolve(dl.assemble(gn, fn), k=2)
        seqn = dl.equidistributed_sequence(gn, 1.0, 0.3)
        cfgn = ConstantsConfig(e_min=1e-8, e_max=1e-3, delta=0.3)
        rep = verify.ucp_gradient_check(gn, fn, specn, seqn, cfgn, variant="low_energy",
                                        negative_control=True)
        assert rep.status == "fail" and rep.expected_failure and rep.ok
        n_cases += 1
        assert n_cases >= 30, n_cases


def test_criterion_05_projector_uncertainty():
    with _Criterion(5, "span-compressed projector lower bound", 120):
        cases = []
        for L in (16, 20, 24, 32):
            cases.append((L, "checkerboard", 0.45))
        for L in (24, 32):
            cases.append((L, "identity", 0.45))
            cases.append((L, "sine", 0.4))
        cases.append((20, "checkerboard", 0.4))
        cases.append((16, "identity", 0.4))
        assert len(cases) >= 10
        for L, kind, delta in cases:
            g = dl.make_grid(1, L, 16)
            if kind == "checkerboard":
                f = dl.checkerboard_field(g)
            elif kind == "sine":
                f = dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(2 * np.pi * p[:, 0] / L))
            else:
                f = dl.identity_field(g)
            seq = dl.equidistributed_sequence(g, 1.0, delta)
            cfg = ConstantsConfig(e_min=1e-4, e_max=0.2, theta_minus=f.theta_minus,
                                  theta_plus=f.theta_plus, delta=delta)
            kp = bounds.kappa_family(cfg).kappa_prime
            spec = dl.eigensolve(dl.assemble(g, f), k=12)
            rep = verify.projector_ucp_check(g, f, spec, seq, kp, 1000, 17, cfg)
            assert rep.status == "pass", (L, kind)
            assert rep.observed["span_dim"] >= 1, (L, kind)
            assert rep.observed["mc_vs_exact_rel"] <= 0.05


def test_criterion_06_eigenvalue_lifting():
    with _Criterion(6, "linear eigenvalue lifting", 300):
        n_cases = 0
        configs = []
        for L in (2, 3):
            for delta in (0.25, 0.3, 0.35):
                configs.append((1, L, 48, "sine", delta))
        configs.append((1, 2, 48, "const2", 0.2))
        configs.append((1, 2, 48, "const2", 0.3))
        configs.append((1, 3, 48, "const2", 0.3))
        configs.append((2, 1, 16, "identity", 0.3))
        configs.append((2, 1, 16, "aniso", 0.3))
        for d, L, n, kind, delta in configs:
            g = dl.make_grid(d, L, n)
            if kind == "sine":
                f = dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(np.pi * p[:, 0]),
                                     theta_lip=0.5 * np.pi)
            elif kind == "const2":
                f = dl.constant_field(g, 2.0 * np.eye(d))
            elif kind == "identity":
                f = dl.identity_field(g)
            else:
                def gen(p):
                    out = np.zeros((p.shape[0], 2, 2))
                    out[:, 0, 0] = 1.0 + 0.2 * np.cos(2 * np.pi * p[:, 0])
                    out[:, 1, 1] = 1.5 + 0.2 * np.cos(2 * np.pi * p[:, 1])
                    return out
                f = dl.sampled_field(g, gen, theta_lip=0.4 * np.pi)
            seq = dl.equidistributed_sequence(g, 1.0, delta)
            w = dl.ball_plateau_field(seq)
            curve = dl.lifting_curve(g, f, w, t_max=1.0, t_steps=6, indices=[0, 1, 2])
            cfg = ConstantsConfig(e_min=0.5, e_max=80.0, theta_minus=f.theta_minus,
                                  theta_plus=f.theta_plus)
            for variant in ("standard", "bounded_w"):
                rep = verify.lifting_check(curve, cfg, seq, variant=variant)
                assert rep.status == "pass", (kind, delta, variant)
                assert rep.observed["monotone"]
                assert rep.observed["min_margin"] > 0, (kind, delta, variant)
            # tent sandwich nodewise on every configuration
            tent = dl.tent_minorant(w, seq, g)
            pts = g.full_node_points
            half = dl.ball_mask(g, dataclasses.replace(seq, delta=seq.delta / 2))
            half = half.full_node_mask.ravel()
            tv = tent(pts)
            assert np.all(w(pts) >= tv - 1e-12)
            assert np.all(tv[half] >= 1.0 - 1e-12)
            n_cases += 1
        assert n_cases >= 10
        # w >= 1 everywhere: the elementary slope bound at every interior sample
        for kind in ("identity", "sine"):
            g = dl.make_grid(1, 2, 48)
            f = dl.identity_field(g) if kind == "identity" else \
                dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(np.pi * p[:, 0]))
            seq = dl.equidistributed_sequence(g, 1.0, 0.3)
            plateau = dl.ball_plateau_field(seq)
            w1 = dl.ScalarField(fn=lambda p: 1.0 + plateau(p), lip=plateau.lip, sup=2.0)
            curve = dl.lifting_curve(g, f, w1, t_max=1.0, t_steps=7, indices=[0, 1])
            cfg = ConstantsConfig(e_min=0.5, e_max=80.0, theta_minus=f.theta_minus,
                                  theta_plus=f.theta_plus)
            rep = verify.lifting_check(curve, cfg, seq, variant="elementary")
            assert rep.status == "pass", kind


def test_criterion_07_wegner_monte_carlo():
    with _Criterion(7, "averaged eigenvalue-count bound", 900):
        e_center, eps, e_max = 12.5, 0.5, 30.0
        # calibrate the count density on the base operators over the cube sweep
        grids = [dl.make_grid(1, L, 32) for L in (2, 4)]
        weyl = verify.weyl_check(grids, dl.identity_field, e_plus=e_max)
        c_weyl = weyl.observed["calibrated_weyl_constant"]
        assert weyl.status == "pass"
        for L in (2, 4):
            g = dl.make_grid(1, L, 32)
            seq = dl.equidistributed_sequence(g, 1.0, 0.2)
            model = dl.alloy_model(dl.identity_field(g), seq, c_minus=1.0, c_plus=2.0,
                                   delta_plus=0.45,
                                   dist=dl.CouplingDistribution("uniform", 2.0))
            cfg = ConstantsConfig(e_min=1.0, e_max=e_max, weyl_constant=c_weyl)
            rep = verify.wegner_mc(model, g, e_center, eps, 500, 42, cfg)
            assert rep.status == "pass", L
            assert rep.lhs <= rep.rhs
            assert rep.observed["smear_chain_fraction"] == 1.0
            assert rep.observed["crosscheck_agreement"] == 1.0
            assert 0.7 <= rep.observed["fitted_exponent"] <= 1.3, rep.observed
            assert rep.observed["failures"] == 0


def test_criterion_08_scaling():
    with _Criterion(8, "coordinate scaling identities", 120):
        for d, L_src in ((1, 4), (2, 2)):
            g = dl.make_grid(d, L_src, 48)
            f = dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(np.pi * p[:, 0] / 2))
            seq = dl.equidistributed_sequence(g, 2.0, 0.75)
            rep = verify.scaling_check(f, 2.0, seq, 32, eig_rtol=0.02, grad_rtol=0.02)
            assert rep.status == "pass", (d, 32, rep.observed)
        for d, L_src in ((1, 4), (2, 2)):
            g = dl.make_grid(d, L_src, 96)
            f = dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(np.pi * p[:, 0] / 2))
            seq = dl.equidistributed_sequence(g, 2.0, 0.75)
            rep = verify.scaling_check(f, 2.0, seq, 64, eig_rtol=0.005, grad_rtol=0.005)
            assert rep.status == "pass", (d, 64, rep.observed)


def test_criterion_09_mollification():
    with _Criterion(9, "mollified-field eigenvalue convergence", 180):
        g = dl.make_grid(1, 1, 256)
        f = dl.checkerboard_field(g)
        eps = 0.25
        for ell in (4, 16, 64):
            smooth = dl.mollify(f, ell, eps)
            assert smooth.theta_minus == f.theta_minus - eps
            assert smooth.theta_plus == f.theta_plus
            evs = np.linalg.eigvalsh(smooth.cells.reshape(-1, 1, 1))
            assert evs.min() >= f.theta_minus - eps - 1e-12
            assert evs.max() <= f.theta_plus + 1e-12
        rep = verify.mollification_convergence(f, eps, [4, 8, 16, 32, 64], 3, rtol=0.01)
        assert rep.status == "pass"
        devs = np.array(rep.observed["deviations"])
        assert np.all(devs[-1] < devs[0])
        assert rep.lhs < 0.01


def test_criterion_10_constants():
    with _Criterion(10, "closed-form constants", 5):
        # hand-derived reference values at 1e-12 relative
        c0 = ConstantsConfig(d=1, theta_minus=1.0, theta_plus=1.0, theta_lip=0.0)
        assert bounds.delta0(c0) == pytest.approx(
            2.0 / (330.0 * math.e**2 * 2.0 ** (5 / 3)), rel=1e-12)
        assert bounds.c_gradient(1.0, 1.0, 1.0) == pytest.approx(1 / 18, rel=1e-12)
        got = bounds.c_sfucp_family(ConstantsConfig(delta=0.5, e_min=1.0, e_max=1.0))
        assert got.function_constant == pytest.approx(0.25, rel=1e-12)
        assert got.gradient_constant == pytest.approx((0.25 / 16.5) * 0.0625, rel=1e-12)
        low = bounds.kappa_family(ConstantsConfig(delta=0.25))
        assert low.kappa_prime == pytest.approx(0.03125, rel=1e-12)
        assert low.kappa == pytest.approx(0.0078125, rel=1e-12)
        neu = bounds.kappa_family(ConstantsConfig(d=3, delta=0.5, L=4.0))
        assert neu.neumann_function_constant == pytest.approx(
            0.125 * (1 / 3 + math.log(2)) ** -2, rel=1e-12)
        assert bounds.c_evl_family(ConstantsConfig(
            e_min=1.0, e_max=2.0, t_max=1.0, w_sup=1.0)).elementary_slope \
            == pytest.approx(0.5, rel=1e-12)
        assert bounds.c_wegner(ConstantsConfig(d=1), 0.01, 0.5) == pytest.approx(
            1000.0, rel=1e-12)

        # monotone in delta, the energy floor, and the period
        for key, values in (("delta", np.linspace(0.05, 0.5, 20)),
                            ("e_min", np.linspace(0.1, 2.9, 20))):
            vals = [bounds.c_sfucp_family(ConstantsConfig(**{key: v, "e_max": 3.0})
                                          ).gradient_constant for v in values]
            assert all(a <= b + 1e-18 for a, b in zip(vals, vals[1:])), key
        ds = [bounds.delta0(ConstantsConfig(theta_lip=0.0), G=G) for G in (1.0, 2.0, 4.0)]
        assert ds[1] == pytest.approx(2 * ds[0], rel=1e-12)
        assert ds[2] == pytest.approx(4 * ds[0], rel=1e-12)

        # two-sided bracket across a 20-point delta sweep
        e_min, e_max, tp = 2.0, 5.0, 1.5
        x = 1.0 + e_max ** (2 / 3)
        c1 = 2 * e_min**2 / (tp * (8 * tp + e_min))
        c2 = e_min**2 / (4 * tp**2)
        for delta in np.linspace(0.02, 1.0, 20):
            got = bounds.c_sfucp_family(ConstantsConfig(
                delta=delta, e_min=e_min, e_max=e_max, theta_plus=tp)).gradient_constant
            assert c1 * (delta / 2) ** (2 + x) <= got * (1 + 1e-12)
            assert got <= c2 * (delta / 2) ** x * (1 + 1e-12)
