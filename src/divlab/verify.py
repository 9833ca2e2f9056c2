"""Executable inequality checks and Monte Carlo experiments, one CheckReport each.

Every check compares an independently computed left-hand side against the
closed-form constant from `bounds`, records full input provenance, and is a
pure function of (inputs, seeds).  Negative controls are ordinary checks whose
reports carry expected_failure=True; a suite treats their failure as success.

Inequality checks allow a fixed relative discretization slack of
DEFAULT_TOL + DEFAULT_DISC_SLACK * h (1e-6 + 10 h) on top of the exact
comparison; refinement studies are the authoritative criterion whenever that
slack binds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np
import scipy.integrate

from . import bounds
from .bounds import ConstantsConfig
from .fields import (AlloyModel, MatrixField, check_dir_condition, check_ellipticity,
                     identity_field, mollify, sample_alloy, single_site_sum)
from .lattice import (EquidistributedSeq, Grid, ball, ball_mask,
                      discrete_gradient, equidistributed_sequence, make_grid,
                      smooth_switch, subset_norm2)
from .operators import assemble, rescale
from .spectral import (EigensolveError, LiftingCurve, Spectrum, count_eigenvalues,
                       eigensolve, projector_sample, window_eigenvalues)

DEFAULT_TOL = 1e-6
DEFAULT_DISC_SLACK = 10.0  # multiplies h in the relative slack term
_HF_RTOL = 1e-3  # form derivative vs centered finite difference, relative
_PHI_GRID_POINTS = 4001  # monotonicity probe of phi on [a, b + eps]
_EPS_FACTORS = (1.0, 0.5, 0.25)  # Wegner eps sweep, as multiples of eps
_EXPONENT_BAND = (0.7, 1.3)  # accepted fitted exponent of the mean count in eps


@dataclass
class CheckReport:
    """Outcome of one verification run: sides, margin, provenance, status.

    `walltime` is set by the runner (`cli.execute`) and stays 0.0 when a
    check is called directly.
    """

    name: str
    statement: str
    status: str                    # 'pass' | 'fail' | 'skipped' | 'error' (no comparison made)
    lhs: float | None = None
    rhs: float | None = None
    expected_failure: bool = False
    observed: dict = dc_field(default_factory=dict)
    inputs: dict = dc_field(default_factory=dict)
    notes: list = dc_field(default_factory=list)
    walltime: float = 0.0

    @property
    def margin(self) -> float | None:
        if self.lhs is None or self.rhs is None:
            return None
        return self.lhs - self.rhs

    @property
    def ratio(self) -> float | None:
        if self.lhs is None or self.rhs is None or self.rhs == 0:
            return None
        return self.lhs / self.rhs

    @property
    def ok(self) -> bool:
        """Pass, or fail exactly where failure was declared expected."""
        if self.status == "skipped":
            return True
        if self.expected_failure:
            return self.status == "fail"
        return self.status == "pass"

    def to_dict(self, with_walltime: bool = True) -> dict:
        out = {
            "name": self.name,
            "statement": self.statement,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "ratio": self.ratio,
            "expected_failure": self.expected_failure,
            "observed": self.observed,
            "inputs": self.inputs,
            "notes": list(self.notes),
        }
        if with_walltime:
            out["walltime"] = self.walltime
        return out


def _grid_info(grid: Grid) -> dict:
    return {"d": grid.d, "L": grid.L, "n_per_side": grid.n_per_side, "bc": grid.bc}


def _seq_info(seq: EquidistributedSeq) -> dict:
    return {"G": seq.G, "delta": seq.delta, "n_sites": len(seq.centers)}


def _pass_with_slack(lhs: float, rhs: float, grid: Grid) -> bool:
    return lhs >= rhs * (1.0 - DEFAULT_TOL - DEFAULT_DISC_SLACK * grid.h)


def reverse_caccioppoli_check(grid: Grid, field: MatrixField, energy: float,
                              psi: np.ndarray, x0, r: float, e_min: float) -> CheckReport:
    """Gradient mass on B(x0, 2r) dominates the lower-bound constant times the
    function mass on B(x0, r), for eigenvalues above e_min."""
    x0 = np.asarray(x0, dtype=float).reshape(grid.d)
    if np.any(np.abs(x0) + 2 * r > grid.L / 2 + 1e-12):
        raise ValueError(f"B({tuple(x0)}, {2 * r}) is not contained in the cube")
    inputs = {"grid": _grid_info(grid), "field": field.content_hash(),
              "x0": tuple(x0), "r": r, "e_min": e_min, "energy": energy}
    rep = CheckReport(
        name="reverse_caccioppoli",
        statement="|grad psi|^2_{B(x0,2r)} >= C_grad(r) |psi|^2_{B(x0,r)}",
        status="skipped", inputs=inputs)
    if energy <= e_min:
        rep.notes.append(f"eigenvalue {energy} <= e_min {e_min}: hypothesis not met, skipped")
        return rep
    lhs = subset_norm2(discrete_gradient(grid, psi), ball(grid, x0, 2 * r))
    const = bounds.c_gradient(r, e_min, field.theta_plus).value
    rhs = const * subset_norm2(psi, ball(grid, x0, r))
    rep.lhs, rep.rhs = lhs, rhs
    rep.observed = {"constant": const, "theta_plus": field.theta_plus}
    rep.status = "pass" if _pass_with_slack(lhs, rhs, grid) else "fail"
    return rep


def _require_field_hypotheses(field: MatrixField, need_lip: bool, need_dir: bool) -> None:
    check_ellipticity(field)
    if need_lip and field.theta_lip is None:
        raise ValueError("field carries no Lipschitz constant (required by this variant)")
    if need_dir:
        ok, bad = check_dir_condition(field)
        if not ok:
            raise ValueError(f"off-diagonal boundary condition violated at cells {bad[:5]}")


def ucp_function_check(grid: Grid, field: MatrixField, spectrum: Spectrum,
                       seq: EquidistributedSeq, cfg: ConstantsConfig, *,
                       v_bound: float | None = None, clamp_delta: bool = False) -> CheckReport:
    """Eigenfunction mass on the ball union dominates the function-level constant.

    Applies to every eigenfunction with |E| <= v_bound (the constant is
    evaluated with that bound as the potential sup).  The admissible-radius
    gate delta <= delta0/2 is recorded; set clamp_delta to substitute
    min(delta, delta0) into the constant instead.
    """
    if grid.bc != "dirichlet":
        raise ValueError("function-level bound is stated for Dirichlet grids")
    _require_field_hypotheses(field, need_lip=True, need_dir=True)
    vb = cfg.e_max if v_bound is None else float(v_bound)
    cfg = replace(cfg, delta=seq.delta, d=grid.d)
    consts = bounds.c_sfucp_family(cfg, v_sup=vb, clamp_delta=clamp_delta)
    mask = ball_mask(grid, seq)
    idx = [i for i in range(spectrum.k) if abs(spectrum.energies[i]) <= vb]
    rep = CheckReport(
        name="ucp_function",
        statement="|psi|^2_{S} >= C_ucp |psi|^2 for eigenfunctions with |E| <= sup V",
        status="skipped",
        inputs={"grid": _grid_info(grid), "field": field.content_hash(),
                "seq": _seq_info(seq), "v_bound": vb, "config": cfg.snapshot(),
                "clamp_delta": clamp_delta})
    if not idx:
        rep.notes.append("no eigenvalues within the potential bound: vacuous")
        rep.status = "pass"
        return rep
    masses = np.array([subset_norm2(spectrum.vectors[:, i], mask) for i in idx])
    rep.lhs = float(masses.min())
    rep.rhs = consts.function_constant
    rep.observed = {
        "per_eigenfunction": dict(zip(map(int, idx), map(float, masses))),
        "observed_constant": float(masses.min()),
        "delta0": consts.delta0,
        "delta_within_gate": seq.delta <= consts.delta0 / 2,
        "delta_effective": consts.delta_effective,
    }
    if not rep.observed["delta_within_gate"] and not clamp_delta:
        rep.notes.append("delta exceeds delta0/2; constant evaluated at raw delta "
                         "(set clamp_delta for the min(delta, delta0) variant)")
    rep.status = "pass" if _pass_with_slack(rep.lhs, rep.rhs, grid) else "fail"
    return rep


def ucp_gradient_check(grid: Grid, field: MatrixField, spectrum: Spectrum,
                       seq: EquidistributedSeq, cfg: ConstantsConfig, *,
                       variant: str = "lipschitz", negative_control: bool = False) -> CheckReport:
    """Gradient mass of in-window eigenfunctions on the ball union dominates the
    applicable constant.

    variants: 'lipschitz' (Lipschitz + boundary-diagonal field, window
    (e_min, e_max)); 'low_energy' (any elliptic field, window top <= kappa);
    'neumann' (d >= 3, Neumann grid, window top <= kappa_neumann).
    A negative control skips the positive-energy gate and is expected to fail.
    """
    cfg = replace(cfg, delta=seq.delta, d=grid.d)
    low = bounds.kappa_family(cfg)
    if variant == "lipschitz":
        if grid.bc != "dirichlet":
            raise ValueError("the Lipschitz-field variant is stated for Dirichlet grids")
        _require_field_hypotheses(field, need_lip=True, need_dir=True)
        rhs = bounds.c_sfucp_family(cfg).gradient_constant
        window_top = cfg.e_max
    elif variant == "low_energy":
        # a negative control deliberately runs outside the stated hypotheses
        if grid.bc != "dirichlet" and not negative_control:
            raise ValueError("the low-energy variant is stated for Dirichlet grids")
        _require_field_hypotheses(field, need_lip=False, need_dir=False)
        rhs = low.gradient_constant_low
        window_top = low.kappa
        if cfg.e_max > window_top + 1e-12:
            raise ValueError(f"window top {cfg.e_max} exceeds kappa = {window_top}")
    elif variant == "neumann":
        if grid.bc != "neumann":
            raise ValueError("the Neumann variant needs a Neumann grid")
        if not low.neumann_supported:
            raise ValueError(f"the Neumann variant requires d >= 3 (grid has d = {grid.d})")
        _require_field_hypotheses(field, need_lip=False, need_dir=False)
        rhs = low.neumann_gradient_constant
        window_top = low.kappa_neumann
        if cfg.e_max > window_top + 1e-12:
            raise ValueError(f"window top {cfg.e_max} exceeds kappa_neumann = {window_top}")
    else:
        raise ValueError(f"unknown variant {variant!r}")

    lo = -math.inf if negative_control else cfg.e_min
    idx = [i for i in range(spectrum.k)
           if lo < spectrum.energies[i] < min(cfg.e_max, window_top) + 1e-15]
    rep = CheckReport(
        name=f"ucp_gradient[{variant}]",
        statement="|grad psi|^2_{S} >= C |psi|^2 for in-window eigenfunctions",
        status="skipped", expected_failure=negative_control,
        inputs={"grid": _grid_info(grid), "field": field.content_hash(),
                "seq": _seq_info(seq), "variant": variant, "config": cfg.snapshot(),
                "negative_control": negative_control})
    if not idx:
        rep.notes.append("no eigenvalues in the window: vacuous")
        rep.status = "pass"
        return rep
    mask = ball_mask(grid, seq)
    masses = np.array([subset_norm2(discrete_gradient(grid, spectrum.vectors[:, i]), mask)
                       for i in idx])
    rep.lhs = float(masses.min())
    rep.rhs = float(rhs)
    rep.observed = {
        "per_eigenfunction": dict(zip(map(int, idx), map(float, masses))),
        "observed_constant": float(masses.min()),
        "window_top": float(window_top),
        "energies": [float(spectrum.energies[i]) for i in idx],
    }
    rep.status = "pass" if _pass_with_slack(rep.lhs, rep.rhs, grid) else "fail"
    return rep


def projector_ucp_check(grid: Grid, field: MatrixField, spectrum: Spectrum,
                        seq: EquidistributedSeq, lam: float, n_samples: int,
                        seed, cfg: ConstantsConfig) -> CheckReport:
    """Mass on the ball union of every state in the span below lam stays >= kappa_prime.

    The exact minimum comes from the smallest eigenvalue of the span-compressed
    mask quadratic form (independent of the sampling); seeded random span
    elements provide the Monte Carlo cross-check.
    """
    cfg = replace(cfg, delta=seq.delta, d=grid.d)
    kp = bounds.kappa_family(cfg).kappa_prime
    if lam > kp + 1e-12:
        raise ValueError(f"lam = {lam} exceeds kappa_prime = {kp}")
    rep = CheckReport(
        name="projector_ucp",
        statement="min over span(E < lam) of |psi|^2_{S} >= kappa_prime",
        status="skipped",
        inputs={"grid": _grid_info(grid), "field": field.content_hash(),
                "seq": _seq_info(seq), "lam": lam, "n_samples": n_samples,
                "seed": seed, "config": cfg.snapshot()})
    idx = spectrum.indices_below(lam)
    if idx.size == 0:
        rep.notes.append("no eigenvalues below lam: vacuous (flagged)")
        rep.status = "pass"
        rep.observed = {"kappa_prime": kp, "span_dim": 0}
        return rep
    mask = ball_mask(grid, seq)
    vecs = spectrum.vectors[:, idx]
    w = grid.h**grid.d
    compressed = (vecs[mask.node_mask, :].T @ vecs[mask.node_mask, :]) * w
    exact_min = float(np.linalg.eigvalsh(compressed)[0])
    samples = projector_sample(spectrum, (-math.inf, float(spectrum.energies[idx[-1]])),
                               seed, n_samples=n_samples)
    samples = samples.reshape(grid.n_nodes, -1)
    mc = np.array([subset_norm2(samples[:, j], mask) for j in range(samples.shape[1])])
    mc_min = float(mc.min())
    rep.lhs, rep.rhs = exact_min, kp
    rep.observed = {"kappa_prime": kp, "span_dim": int(idx.size),
                    "exact_min": exact_min, "mc_min": mc_min,
                    "mc_vs_exact_rel": abs(mc_min - exact_min) / exact_min}
    rep.status = "pass" if _pass_with_slack(exact_min, kp, grid) else "fail"
    return rep


_LIFT_VARIANTS = ("standard", "bounded_w", "low_energy", "neumann", "elementary")


def lifting_check(curve: LiftingCurve, cfg: ConstantsConfig,
                  seq: EquidistributedSeq, *, variant: str) -> CheckReport:
    """Every in-window eigenvalue row grows at least linearly with the variant's slope.

    Also asserts row monotonicity and cross-checks the recorded form
    derivatives against centered finite differences of the rows (Simpson
    average, skipping samples flagged as degenerate).
    """
    if variant not in _LIFT_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; pick one of {_LIFT_VARIANTS}")
    grid = curve.grid
    w_nodes = curve.w.on_full_nodes(grid)
    w_sup = curve.w.sup if curve.w.sup is not None else float(np.max(w_nodes))
    w_lip = curve.w.lip if curve.w.lip is not None else cfg.w_lip
    cfg = replace(cfg, delta=seq.delta, d=grid.d, t_max=float(curve.ts[-1]),
                  w_sup=float(w_sup), w_lip=float(w_lip))
    lift = bounds.c_evl_family(cfg)
    low = bounds.kappa_family(cfg)
    window_top = cfg.e_max
    if variant == "elementary":
        if w_nodes.min() < 1.0 - 1e-12:
            raise ValueError("elementary slope bound needs w >= 1 on the whole cube")
        const = lift.elementary_slope
    elif variant == "standard":
        if curve.w.lip is None:
            raise ValueError("standard variant needs a certified Lipschitz bound on w")
        const = lift.standard
    elif variant == "bounded_w":
        const = lift.bounded_w
    elif variant == "low_energy":
        const = lift.low_energy
        window_top = min(window_top, low.kappa)
    else:
        if not low.neumann_supported:
            raise ValueError("Neumann lifting requires d >= 3")
        if grid.bc != "neumann":
            raise ValueError("Neumann lifting needs a Neumann grid")
        const = low.neumann_gradient_constant
        window_top = min(window_top, low.kappa_neumann)

    if variant != "elementary":
        inside = ball_mask(grid, seq).full_node_mask.ravel()
        w_on_balls = w_nodes[inside]
        if w_on_balls.size and w_on_balls.min() < 1.0 - 1e-12:
            raise ValueError("w must dominate the ball-union indicator")

    ts = curve.ts
    in_window, excluded = [], []
    for row, n in enumerate(curve.indices):
        e0, eT = curve.energies[row, 0], curve.energies[row, -1]
        if cfg.e_min < e0 and eT < window_top:
            in_window.append(row)
        else:
            excluded.append(n)

    rep = CheckReport(
        name=f"lifting[{variant}]",
        statement="E_n(t) >= E_n(0) + t * C for in-window rows; rows non-decreasing",
        status="skipped",
        inputs={"grid": _grid_info(grid), "field": curve.field_hash,
                "seq": _seq_info(seq), "variant": variant, "config": cfg.snapshot(),
                "indices": list(curve.indices)})
    rep.observed["excluded_indices"] = excluded
    rep.observed["constant"] = float(const)
    if not in_window:
        rep.notes.append("no rows stay inside the window on [0, T]: vacuous")
        rep.status = "pass"
        return rep

    margins, mono_ok, slope_ok, hf_devs = [], True, True, []
    for row in in_window:
        e = curve.energies[row]
        # t = 0 is an identity; the bound is informative for t > 0
        margins.append(float((e[1:] - e[0] - ts[1:] * const).min()))
        scale = max(1.0, abs(e).max())
        if np.any(np.diff(e) < -1e-10 * scale):
            mono_ok = False
        if variant == "elementary":
            mid = slice(1, len(ts) - 1)
            slopes = (e[2:] - e[:-2]) / (ts[2:] - ts[:-2])
            active = e[mid] >= cfg.e_min
            good = ~curve.degenerate[row, mid]
            if np.any(slopes[active & good] < const * (1.0 - DEFAULT_TOL)):
                slope_ok = False
        # centered-difference vs recorded form derivative (Simpson average)
        for i in range(1, len(ts) - 1):
            if curve.degenerate[row, i - 1:i + 2].any():
                continue
            fd = (e[i + 1] - e[i - 1]) / (ts[i + 1] - ts[i - 1])
            simpson = (curve.hf_values[row, i - 1] + 4 * curve.hf_values[row, i]
                       + curve.hf_values[row, i + 1]) / 6.0
            hf_devs.append(abs(fd - simpson) / max(abs(simpson), 1e-12))

    worst = min(margins)
    rep.lhs, rep.rhs = worst, 0.0
    rep.observed.update({
        "min_margin": worst,
        "rows_checked": [int(curve.indices[r]) for r in in_window],
        "monotone": mono_ok,
        "hf_fd_max_rel_dev": max(hf_devs) if hf_devs else None,
    })
    hf_ok = (not hf_devs) or max(hf_devs) <= _HF_RTOL
    cond = worst >= -DEFAULT_TOL * max(1.0, abs(const)) and mono_ok and slope_ok and hf_ok
    if not hf_ok:
        rep.notes.append("form-derivative / finite-difference cross-check exceeded tolerance")
    rep.status = "pass" if cond else "fail"
    return rep


def pi_singular_check(dist, phi, a: float, b: float, eps: float) -> CheckReport:
    """Averaged increment of a smooth monotone function under the coupling law
    stays below the modulus of continuity times the total increment."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not (a < 0 <= dist.support_max < b):
        raise ValueError(f"support [0, {dist.support_max}] must lie strictly inside ({a}, {b})")
    xs = np.linspace(a, b + eps, _PHI_GRID_POINTS)
    vals = np.asarray(phi(xs), dtype=float)
    if np.any(np.diff(vals) < -1e-12 * max(1.0, np.abs(vals).max())):
        raise ValueError("phi must be non-decreasing on [a, b + eps]")
    if dist.kind == "uniform":
        lhs = scipy.integrate.quad(lambda lam: (phi(lam + eps) - phi(lam)) / dist.m,
                                   0.0, dist.m, limit=200)[0]
    elif dist.kind == "bernoulli":
        atoms = [(0.0, 1.0 - dist.p), (dist.m, dist.p)]
        lhs = sum(p * (phi(x + eps) - phi(x)) for x, p in atoms)
    else:
        lhs = phi(dist.m + eps) - phi(dist.m)
    s = dist.modulus(eps)
    rhs = s * (phi(b + eps) - phi(a))
    return CheckReport(
        name="pi_singular",
        statement="int Phi(l+eps) - Phi(l) dmu <= s(eps) (Phi(b+eps) - Phi(a))",
        status="pass" if lhs <= rhs * (1.0 + 1e-9) else "fail",
        lhs=float(lhs), rhs=float(rhs),
        observed={"modulus": s},
        inputs={"dist": {"kind": dist.kind, "m": dist.m, "p": dist.p},
                "a": a, "b": b, "eps": eps})


def weyl_check(grids, field_factory, e_plus: float, *,
               weyl_constant: float | None = None) -> CheckReport:
    """Eigenvalue counts below e_plus grow at most proportionally to the volume.

    With weyl_constant=None the run calibrates it as the max observed
    count / L^d ratio (recorded with provenance 'empirical').
    """
    ratios, counts = [], []
    for grid in grids:
        field = field_factory(grid)
        op = assemble(grid, field)
        c = count_eigenvalues(op, e_plus)
        counts.append(int(c))
        ratios.append(c / grid.L**grid.d)
    calibrated = max(ratios)
    limit = calibrated if weyl_constant is None else float(weyl_constant)
    return CheckReport(
        name="weyl",
        statement="count(E <= E_plus) <= C_weyl L^d across the cube sweep",
        status="pass" if all(r <= limit * (1 + 1e-12) for r in ratios) else "fail",
        lhs=float(max(ratios)), rhs=float(limit),
        observed={"counts": counts, "ratios": [float(r) for r in ratios],
                  "calibrated_weyl_constant": float(calibrated),
                  "provenance": "empirical" if weyl_constant is None else "configured"},
        inputs={"grids": [_grid_info(g) for g in grids], "e_plus": e_plus})


def scaling_check(field_src: MatrixField, G: float, seq: EquidistributedSeq,
                  target_n_per_side: int, *, k: int = 1,
                  eig_rtol: float = 0.02, grad_rtol: float = 0.02) -> CheckReport:
    """Pull a cube of side G*L back to side L and verify the three scaling facts:
    eigenvalues match after multiplying by G^2, masked gradient norms match
    through the G^{d-2} identity, and the mapped centers stay equidistributed."""
    src = field_src.grid
    if seq.G != G or seq.L != src.L:
        raise ValueError("sequence must be (G, delta)-equidistributed on the source cube")
    field_tgt, factor = rescale(field_src, G, target_n_per_side)
    tgt = field_tgt.grid
    m = int(round(G * src.n_per_side / target_n_per_side))

    op_src = assemble(src, field_src)
    op_tgt = assemble(tgt, field_tgt)
    spec_src = eigensolve(op_src, k=k + 1)
    spec_tgt = eigensolve(op_tgt, k=k + 1)
    eig_rel = np.abs(spec_tgt.energies[:k] - factor * spec_src.energies[:k]) \
        / np.abs(spec_tgt.energies[:k])

    # mapped sequence must be (1, delta/G)-equidistributed: rebuilt with validation
    seq_tgt = equidistributed_sequence(tgt, 1.0, seq.delta / G, mode="explicit",
                                       centers=seq.centers / G)

    grad_rels = []
    for i in range(k):
        _, u = spec_src.pair(i)
        lhs = subset_norm2(discrete_gradient(src, u), ball_mask(src, seq))
        full = src.embed(u)
        sub = full[tuple(slice(None, None, m) for _ in range(src.d))]
        u_t = tgt.restrict(sub)
        rhs = G ** (src.d - 2) * subset_norm2(discrete_gradient(tgt, u_t),
                                              ball_mask(tgt, seq_tgt))
        grad_rels.append(abs(lhs - rhs) / abs(lhs))

    ok = bool(np.all(eig_rel <= eig_rtol) and np.all(np.array(grad_rels) <= grad_rtol))
    return CheckReport(
        name="scaling",
        statement="eig(target) = G^2 eig(source) and masked gradient norms agree via G^{d-2}",
        status="pass" if ok else "fail",
        lhs=float(max(max(eig_rel), max(grad_rels))), rhs=float(max(eig_rtol, grad_rtol)),
        observed={"eig_rel": [float(x) for x in eig_rel],
                  "grad_rel": [float(x) for x in grad_rels],
                  "factor": factor, "subsample_stride": m},
        inputs={"source_grid": _grid_info(src), "target_grid": _grid_info(tgt),
                "field": field_src.content_hash(), "seq": _seq_info(seq), "k": k})


def mollification_convergence(field: MatrixField, eps: float, ells, k: int, *,
                              rtol: float = 0.01) -> CheckReport:
    """Eigenvalues of the smoothed operators approach those of the rough one.

    Pass requires the per-eigenvalue deviation to be non-increasing over the
    tail of the ell sweep and below rtol (relative) at the largest ell.
    """
    ells = sorted(int(l) for l in ells)
    grid = field.grid
    base = eigensolve(assemble(grid, field), k=k)
    devs = []
    ellip = []
    for ell in ells:
        smooth = mollify(field, ell, eps)
        ellip.append((smooth.theta_minus, smooth.theta_plus))
        spec = eigensolve(assemble(grid, smooth), k=k)
        devs.append(np.abs(spec.energies - base.energies))
    devs = np.array(devs)  # (n_ells, k)
    rel_final = float((devs[-1] / np.abs(base.energies)).max())
    tail = devs[len(ells) // 2:]
    trend_ok = bool(np.all(np.diff(tail, axis=0) <= 1e-12 + 0.05 * tail[:-1]))
    return CheckReport(
        name="mollification",
        statement="eigenvalues of the smoothed operators converge to the rough ones",
        status="pass" if (rel_final <= rtol and trend_ok) else "fail",
        lhs=rel_final, rhs=rtol,
        observed={"deviations": devs.tolist(), "ells": ells,
                  "base_energies": base.energies.tolist(),
                  "ellipticity": ellip, "tail_non_increasing": trend_ok},
        inputs={"grid": _grid_info(grid), "field": field.content_hash(),
                "eps": eps, "k": k})


# ---------------------------------------------------------------------------
# Monte Carlo averaged eigenvalue counting
# ---------------------------------------------------------------------------

def _wegner_one_sample(model: AlloyModel, grid: Grid, seed, e_center: float, eps: float,
                       eps_levels):
    """Counts in (E - eps_j, E + eps_j] by inertia, and the eigenvalues in
    (E - 3 eps, E + 3 eps], the support of the smearing chain, by a window
    solve certified against the inertia count of that window."""
    sample = sample_alloy(model, seed)
    op = assemble(grid, sample.field)
    edges = [e_center - 3 * eps, e_center + 3 * eps]
    for e in eps_levels:
        edges += [e_center - e, e_center + e]
    c = count_eigenvalues(op, edges)
    window = window_eigenvalues(op, edges[0], edges[1], int(c[1] - c[0]))
    return [int(c[j + 1] - c[j]) for j in range(2, len(edges), 2)], window


def wegner_mc(model: AlloyModel, grid: Grid, e_center: float, eps: float,
              n_samples: int, seed: int, cfg: ConstantsConfig, *,
              variant: str = "bounded_w") -> CheckReport:
    """Empirical mean eigenvalue count in [E-eps, E+eps] against the averaged bound.

    Counting goes through matrix inertia; a window eigensolve on
    (E-3eps, E+3eps], certified complete by the inertia count of that window,
    provides the per-sample smearing-chain verification and the exact
    cross-check on every sample.  Also reports the fitted scaling exponent of
    the mean over the eps sweep.
    """
    if variant not in ("bounded_w", "lipschitz"):
        raise ValueError(f"unknown variant {variant!r}")
    if n_samples < 2:
        raise ValueError(f"need n_samples >= 2 for a mean and its standard error, got {n_samples}")
    if not (cfg.e_min <= e_center - 3 * eps and e_center + 3 * eps <= cfg.e_max):
        raise ValueError(f"[E-3eps, E+3eps] must lie inside [{cfg.e_min}, {cfg.e_max}]")
    if model.c_minus < 1.0:
        raise ValueError("theoretical bound needs c_minus >= 1 so the site sum "
                         "dominates the ball-union indicator")
    if variant == "lipschitz" and model.bump_lip() is None:
        raise ValueError("lipschitz variant needs Lipschitz single-site bumps")

    m_sup = model.dist.support_max
    w_all = single_site_sum(model)
    lift_cfg = replace(cfg, d=grid.d, delta=model.delta_minus, t_max=eps + m_sup + 1.0,
                       w_sup=w_all.sup, w_lip=w_all.lip if w_all.lip is not None else 0.0)
    lifts = bounds.c_evl_family(lift_cfg)
    lifting_constant = lifts.bounded_w if variant == "bounded_w" else lifts.standard
    cw = bounds.c_wegner(lift_cfg, lifting_constant, model.delta_plus)
    s_eps = model.dist.modulus(eps)
    rhs = cw * s_eps * float(grid.L) ** (2 * grid.d)

    eps_levels = [eps * f for f in _EPS_FACTORS]
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(n_samples)
    counts = np.zeros((n_samples, len(eps_levels)), dtype=int)
    valid = np.zeros(n_samples, dtype=bool)
    smear_ok = 0
    cross_ok = 0
    failures = 0
    for i, child in enumerate(children):
        try:
            cs, energies = _wegner_one_sample(
                model, grid, np.random.default_rng(child), e_center, eps, eps_levels)
        except (EigensolveError, np.linalg.LinAlgError):  # solver breakdown: exclusion
            failures += 1
            continue
        counts[i] = cs
        valid[i] = True
        # per-sample smearing chain at the base eps:
        # indicator of [E-eps, E+eps] <= switch(. - (E-2eps)) - switch(. - (E+2eps))
        smear = smooth_switch(energies, eps, shift=e_center - 2 * eps) \
            - smooth_switch(energies, eps, shift=e_center + 2 * eps)
        if cs[0] <= float(np.sum(smear)) + 1e-9:
            smear_ok += 1
        direct = int(np.count_nonzero(
            (energies >= e_center - eps) & (energies <= e_center + eps)))
        if direct == cs[0]:
            cross_ok += 1

    good = int(valid.sum())
    rep = CheckReport(
        name=f"wegner_mc[{variant}]",
        statement="mean count in [E-eps, E+eps] <= C_w s(eps) L^{2d}; smearing chain per sample",
        status="error", rhs=float(rhs), observed={"failures": failures},
        inputs={"grid": _grid_info(grid), "field": model.base.content_hash(),
                "seq": _seq_info(model.seq), "e_center": e_center, "eps": eps,
                "n_samples": n_samples, "seed": seed, "variant": variant,
                "config": lift_cfg.snapshot()})
    if failures > 0.01 * n_samples:
        rep.notes.append(f"{failures} sample failures exceed the 1% budget")
    if n_samples < 100:
        rep.notes.append(f"low statistical power: only {n_samples} samples")
    if good < 2:
        rep.notes.append(f"{good} valid samples: a mean and its standard error need 2")
        return rep
    means = counts[valid].mean(axis=0)
    stderr = counts[valid, 0].std(ddof=1) / math.sqrt(good)

    # fitted scaling exponent over the eps sweep (positive means only)
    pos = means > 0
    if pos.sum() >= 2:
        slope = np.polyfit(np.log(np.array(eps_levels)[pos]), np.log(means[pos]), 1)[0]
    else:
        slope = math.nan
    exponent_ok = (not math.isnan(slope)) and _EXPONENT_BAND[0] <= slope <= _EXPONENT_BAND[1]

    ok = (means[0] <= rhs) and smear_ok == good and cross_ok == good and failures <= 0.01 * n_samples
    rep.status, rep.lhs = "pass" if ok else "fail", float(means[0])
    rep.observed = {
        "means": [float(x) for x in means],
        "eps_levels": [float(x) for x in eps_levels],
        "stderr": float(stderr),
        "fitted_exponent": None if math.isnan(slope) else float(slope),
        "exponent_in_band": bool(exponent_ok),
        "smear_chain_fraction": smear_ok / good,
        "crosscheck_agreement": cross_ok / good,
        "wegner_constant": float(cw),
        "lifting_constant": float(lifting_constant),
        "modulus": float(s_eps),
        "mean_per_volume": float(means[0] / grid.L**grid.d),
        "mean_per_volume_sq": float(means[0] / grid.L**(2 * grid.d)),
        "failures": failures,
    }
    return rep


def neumann_gradient_decay_trend(d: int, sides, n_per_side: int, delta: float) -> CheckReport:
    """Negative-control trend: on growing Neumann cubes the smallest positive
    eigenvalue sinks toward zero and the observed gradient-mass ratio of its
    eigenfunction decreases with the side length."""
    ratios, energies = [], []
    for L in sides:
        grid = make_grid(d, L, n_per_side, "neumann")
        seq = equidistributed_sequence(grid, 1.0, delta)
        spec = eigensolve(assemble(grid, identity_field(grid)), k=2)
        e, psi = spec.pair(1)  # index 0 is the constant zero mode
        ratios.append(subset_norm2(discrete_gradient(grid, psi), ball_mask(grid, seq)))
        energies.append(e)
    decreasing = bool(np.all(np.diff(ratios) < 0))
    return CheckReport(
        name="neumann_gradient_decay_trend",
        statement="observed gradient-mass ratio decreases as the Neumann cube grows",
        status="pass" if decreasing else "fail",
        lhs=float(ratios[-1]), rhs=float(ratios[0]),
        observed={"sides": list(sides), "ratios": [float(r) for r in ratios],
                  "energies": [float(e) for e in energies]},
        inputs={"d": d, "n_per_side": n_per_side, "delta": delta})
