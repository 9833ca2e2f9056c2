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

from . import bounds
from .bounds import ConstantsConfig
from .fields import (AlloyModel, MatrixField, check_dir_condition, check_ellipticity,
                     identity_field, mollify, sample_alloy, single_site_sum)
from .lattice import (EquidistributedSeq, Grid, ScalarField, ball, ball_mask,
                      discrete_gradient, equidistributed_sequence, make_grid,
                      smooth_switch, subset_norm2)
from .operators import alloy_operators, assemble, rescale
from .spectral import (EigensolveError, LiftingCurve, Spectrum, count_eigenvalues,
                       eigenpairs, eigensolve, projector_sample, tridiagonal_counts,
                       tridiagonal_windows)

DEFAULT_TOL = 1e-6
DEFAULT_DISC_SLACK = 10.0  # multiplies h in the relative slack term
_HF_RTOL = 1e-3  # form derivative vs centered finite difference, relative
_PHI_GRID_POINTS = 4001  # monotonicity probe of phi on [a, b + eps]
_EPS_FACTORS = (1.0, 0.5, 0.25)  # Wegner eps sweep, as multiples of eps
_EXPONENT_BAND = (0.7, 1.3)  # accepted fitted exponent of the mean count in eps
_QUAD_LIMIT = 200  # panels of the uniform-law average (`_qags`), as `quad(..., limit=200)`
_QUAD_TOL = 1.49e-8  # its absolute and relative tolerance, `quad`'s defaults
# QUADPACK's 21-point Gauss-Kronrod rule (`dqk21`), as scipy's `_quadrature_gk21` lists
# it: the Kronrod abscissae x_1 > ... > x_10 > 0 (x_2, x_4, ..., x_10 are the 10-point
# Gauss ones), their Kronrod weights and the centre's, and the Gauss weights
_XGK = np.array([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                 0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                 0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                 0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                 0.294392862701460198131126603103866, 0.148874338981631210884826001129720])
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WGK_CENTRE = 0.149445554002916905664936468389821
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


@dataclass
class CheckReport:
    """Outcome of one verification run: sides, margin, provenance, status.

    `walltime` is set by the runner (`cli.execute`) and stays 0.0 when a
    check is called directly.
    """

    name: str
    statement: str
    status: str                    # 'pass' | 'fail' | 'error' (no comparison made)
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
        """Pass, or fail exactly where failure was declared expected; never an error."""
        return self.status == ("fail" if self.expected_failure else "pass")

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


def _require_no_zero_mode(grid: Grid) -> None:
    """Relative eigenvalue errors need nonzero eigenvalues from index 0 up."""
    if grid.bc == "neumann":
        raise ValueError("the lowest eigenvalue of a Neumann grid is 0 (the constant mode), "
                         "where relative eigenvalue errors are undefined")


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
        status="error", inputs=inputs)
    if energy <= e_min:
        rep.notes.append(f"eigenvalue {energy} <= e_min {e_min}: hypothesis not met, skipped")
        return rep
    lhs = subset_norm2(discrete_gradient(grid, psi), ball(grid, x0, 2 * r))
    const = bounds.c_gradient(r, e_min, field.theta_plus)
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


def _require_sfucp_hypotheses(grid: Grid, field: MatrixField, bound: str) -> None:
    """Raise ValueError unless the grid is Dirichlet and the field elliptic, certified
    Lipschitz and dir: the hypotheses of `bounds.c_sfucp_family` and `c_evl_family`."""
    if grid.bc != "dirichlet":
        raise ValueError(f"{bound} is stated for Dirichlet grids")
    _require_field_hypotheses(field, need_lip=True, need_dir=True)


def _run_config(cfg: ConstantsConfig, grid: Grid, seq: EquidistributedSeq, *,
                t_max: float = 0.0, w_sup: float = 0.0, w_lip: float = 0.0) -> ConstantsConfig:
    """`cfg` with the fields a run sets itself: d from the grid, delta and G from the
    sequence, the lifting horizon and the bounds on w (0 without lifting).  Raises
    ValueError for G != 1, since every bound in `bounds` is stated for period 1."""
    if seq.G != 1.0:
        raise ValueError(f"the bounds are stated for period G = 1, got G = {seq.G}")
    return replace(cfg, d=grid.d, delta=seq.delta, G=1.0, t_max=t_max, w_sup=w_sup, w_lip=w_lip)


def _ucp_function_config(grid: Grid, field: MatrixField, seq: EquidistributedSeq,
                         cfg: ConstantsConfig) -> ConstantsConfig:
    """The config at the run's values; raises ValueError unless the grid, the field and the
    sequence meet the bound's hypotheses.  A runner calls it before the solve as well."""
    _require_sfucp_hypotheses(grid, field, "function-level bound")
    return _run_config(cfg, grid, seq)


def ucp_function_check(grid: Grid, field: MatrixField, spectrum: Spectrum,
                       seq: EquidistributedSeq, cfg: ConstantsConfig, *,
                       clamp_delta: bool = False) -> CheckReport:
    """Eigenfunction mass on the ball union dominates the function-level constant.

    Applies to every eigenfunction with |E| <= cfg.e_max, the bound that the
    constant takes as the potential sup (recorded as `inputs.v_bound`).  The
    admissible-radius gate delta <= delta0/2 is recorded; set clamp_delta to
    substitute min(delta, delta0) into the constant instead.
    """
    cfg = _ucp_function_config(grid, field, seq, cfg)
    consts = bounds.c_sfucp_family(cfg, clamp_delta=clamp_delta)
    mask = ball_mask(grid, seq)
    idx = [i for i in range(spectrum.k) if abs(spectrum.energies[i]) <= cfg.e_max]
    rep = CheckReport(
        name="ucp_function",
        statement="|psi|^2_{S} >= C_ucp |psi|^2 for eigenfunctions with |E| <= sup V",
        status="error",
        inputs={"grid": _grid_info(grid), "field": field.content_hash(),
                "seq": _seq_info(seq), "v_bound": cfg.e_max, "config": cfg.snapshot(),
                "clamp_delta": clamp_delta})
    if not idx:
        rep.notes.append("no eigenvalues within the potential bound: vacuous")
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


def _ucp_gradient_bound(grid: Grid, field: MatrixField, seq: EquidistributedSeq,
                        cfg: ConstantsConfig, variant: str = "lipschitz",
                        negative_control: bool = False):
    """The config at the run's values, the variant's constant and its window top; raises
    ValueError when the grid, the field, the sequence or cfg.e_max breaks the variant's
    hypotheses.  A runner calls it before the spectrum solve as well."""
    cfg = _run_config(cfg, grid, seq)
    low = bounds.kappa_family(cfg)
    if variant == "lipschitz":
        _require_sfucp_hypotheses(grid, field, "the Lipschitz-field variant")
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
    return cfg, rhs, window_top


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
    cfg, rhs, window_top = _ucp_gradient_bound(grid, field, seq, cfg, variant,
                                               negative_control)
    lo = -math.inf if negative_control else cfg.e_min
    idx = [i for i in range(spectrum.k)
           if lo < spectrum.energies[i] < min(cfg.e_max, window_top) + 1e-15]
    rep = CheckReport(
        name=f"ucp_gradient[{variant}]",
        statement="|grad psi|^2_{S} >= C |psi|^2 for in-window eigenfunctions",
        status="error", expected_failure=negative_control,
        inputs={"grid": _grid_info(grid), "field": field.content_hash(),
                "seq": _seq_info(seq), "variant": variant, "config": cfg.snapshot(),
                "negative_control": negative_control})
    if not idx:
        rep.notes.append("no eigenvalues in the window: vacuous")
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


def _projector_kappa_prime(grid: Grid, seq: EquidistributedSeq, lam: float | None,
                           cfg: ConstantsConfig, n_samples: int):
    """The config at the run's values and its kappa_prime; raises ValueError when
    n_samples < 1, lam <= 0, the sequence's G != 1 or lam (None: kappa_prime itself)
    exceeds kappa_prime.  A runner calls it before the spectrum solve as well."""
    if n_samples < 1:
        raise ValueError(f"need n_samples >= 1 for the Monte Carlo cross-check, got {n_samples}")
    if lam is not None and lam <= 0:  # no span below it, or the Neumann zero mode's alone,
        # whose count edge lam + tol the rounding of the solved zero mode straddles
        raise ValueError(f"lam must be positive, got {lam}")
    cfg = _run_config(cfg, grid, seq)
    kp = bounds.kappa_family(cfg).kappa_prime
    if lam is not None and lam > kp + 1e-12:
        raise ValueError(f"lam = {lam} exceeds kappa_prime = {kp}")
    return cfg, kp


def projector_ucp_check(grid: Grid, field: MatrixField, spectrum: Spectrum,
                        seq: EquidistributedSeq, lam: float, n_samples: int,
                        seed, cfg: ConstantsConfig) -> CheckReport:
    """Mass on the ball union of every state in the span below lam stays >= kappa_prime.

    The exact minimum comes from the smallest eigenvalue of the span-compressed
    mask quadratic form (independent of the sampling); n_samples >= 1 seeded
    random span elements provide the Monte Carlo cross-check.
    """
    cfg, kp = _projector_kappa_prime(grid, seq, lam, cfg, n_samples)
    rep = CheckReport(
        name="projector_ucp",
        statement="min over span(E < lam) of |psi|^2_{S} >= kappa_prime",
        status="error",
        inputs={"grid": _grid_info(grid), "field": field.content_hash(),
                "seq": _seq_info(seq), "lam": lam, "n_samples": n_samples,
                "seed": seed, "config": cfg.snapshot()})
    idx = np.nonzero(spectrum.energies < lam)[0]
    if idx.size == 0:
        rep.notes.append("no eigenvalues below lam: vacuous (flagged)")
        rep.observed = {"kappa_prime": kp, "span_dim": 0}
        return rep
    mask = ball_mask(grid, seq)
    vecs = spectrum.vectors[:, idx]
    w = grid.h**grid.d
    compressed = (vecs[mask.node_mask, :].T @ vecs[mask.node_mask, :]) * w
    exact_min = float(np.linalg.eigvalsh(compressed)[0])
    samples = projector_sample(spectrum, (-math.inf, float(spectrum.energies[idx[-1]])),
                               seed, n_samples=n_samples)
    mc = np.array([subset_norm2(samples[:, j], mask) for j in range(samples.shape[1])])
    mc_min = float(mc.min())
    rep.lhs, rep.rhs = exact_min, kp
    rep.observed = {"kappa_prime": kp, "span_dim": int(idx.size),
                    "exact_min": exact_min, "mc_min": mc_min,
                    "mc_vs_exact_rel": abs(mc_min - exact_min) / exact_min}
    rep.status = "pass" if _pass_with_slack(exact_min, kp, grid) else "fail"
    return rep


_LIFT_VARIANTS = ("standard", "bounded_w", "low_energy", "neumann", "elementary")


def _lifting_bound(grid: Grid, field: MatrixField, w: ScalarField, seq: EquidistributedSeq,
                   cfg: ConstantsConfig, t_max: float, variant: str):
    """The config at the run's values, the variant's slope and its window top; raises
    ValueError on an unknown variant or broken hypotheses.  A runner calls it first too."""
    if variant not in _LIFT_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; pick one of {_LIFT_VARIANTS}")
    if variant in ("standard", "bounded_w"):
        _require_sfucp_hypotheses(grid, field, f"the {variant} lifting slope")
    w_nodes = w.on_full_nodes(grid)
    cfg = _run_config(cfg, grid, seq, t_max=float(t_max),
                      w_sup=float(w.sup if w.sup is not None else np.max(w_nodes)),
                      w_lip=float(w.lip if w.lip is not None else 0.0))
    lift = bounds.c_evl_family(cfg)
    low = bounds.kappa_family(cfg)
    window_top = cfg.e_max
    if variant == "elementary":
        if w_nodes.min() < 1.0 - 1e-12:
            raise ValueError("elementary slope bound needs w >= 1 on the whole cube")
        const = lift.elementary_slope
    elif variant == "standard":
        if w.lip is None:
            raise ValueError("standard variant needs a certified Lipschitz bound on w")
        const = lift.standard
    elif variant == "bounded_w":
        const = lift.bounded_w
    elif variant == "low_energy":
        const = low.gradient_constant_low
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
    return cfg, const, window_top


def lifting_check(curve: LiftingCurve, cfg: ConstantsConfig,
                  seq: EquidistributedSeq, *, variant: str) -> CheckReport:
    """Every in-window eigenvalue row grows at least linearly with the variant's slope.

    Also asserts row monotonicity and cross-checks the recorded form
    derivatives against centered finite differences of the rows (Simpson
    average, skipping samples flagged as degenerate).
    """
    grid, ts = curve.grid, curve.ts
    cfg, const, window_top = _lifting_bound(grid, curve.field, curve.w, seq, cfg, ts[-1], variant)

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
        status="error",
        inputs={"grid": _grid_info(grid), "field": curve.field.content_hash(),
                "seq": _seq_info(seq), "variant": variant, "config": cfg.snapshot(),
                "indices": list(curve.indices)})
    rep.observed["excluded_indices"] = excluded
    rep.observed["constant"] = float(const)
    if not in_window:
        rep.notes.append("no rows stay inside the window on [0, T]: vacuous")
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


def _qk21(f, a: float, b: float):
    """QUADPACK's `dqk21` on [a, b]: the Kronrod value, its error estimate and the
    integral of |f - mean| (resasc).  f takes the 21 nodes as one array; the sums
    run in `dqk21`'s order, the centre first, then the Gauss pairs, then the Kronrod-only
    pairs, so each value is that of `scipy.integrate.quad` bit for bit."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    absc = hlgth * _XGK
    fv = np.asarray(f(np.concatenate(([centr], centr - absc, centr + absc))), dtype=float)
    fc, fv1, fv2 = float(fv[0]), fv[1:11].tolist(), fv[11:].tolist()
    resg, resk = 0.0, _WGK_CENTRE * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        fsum = fv1[j] + fv2[j]
        if j % 2:
            resg += _WG[j // 2] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    reskh = resk * 0.5
    resasc = _WGK_CENTRE * abs(fc - reskh)
    for j in range(10):
        resasc += _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    dhlgth = abs(hlgth)
    resabs *= dhlgth
    resasc *= dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    eps = np.finfo(float).eps
    if resabs > np.finfo(float).tiny / (50.0 * eps):
        abserr = max(50.0 * eps * resabs, abserr)
    return resk * hlgth, abserr, resasc


def _qags(f, a: float, b: float) -> float:
    """The integral of f over [a, b] by QUADPACK's globally adaptive `dqagse`, as
    `scipy.integrate.quad(f, a, b, limit=_QUAD_LIMIT)` runs it, without its epsilon-algorithm
    extrapolation.

    A first `_qk21` panel is accepted when its error estimate is 0, or at most
    max(_QUAD_TOL, _QUAD_TOL |result|) and unequal to resasc.  Otherwise the panel with
    the largest error is bisected: the half with the larger error takes its slot, the
    other is appended, and the running sums of values and errors are updated as
    `dqagse` updates them, until the error sum meets the tolerance on the running value.
    The result is then the panels' values summed in storage order.  Where `quad` needs
    at most one bisection this is its result bit for bit; where it would extrapolate
    the two agree within the tolerance.  A tolerance not met in _QUAD_LIMIT panels raises
    ValueError (`quad` only warns).
    """
    result, abserr, resasc = _qk21(f, a, b)
    if abserr == 0.0 or (abserr <= max(_QUAD_TOL, _QUAD_TOL * abs(result))
                         and abserr != resasc):
        return result
    panels = [(a, b, result, abserr)]  # (left, right, value, error)
    area, errsum = result, abserr
    while len(panels) < _QUAD_LIMIT:
        i = max(range(len(panels)), key=lambda p: panels[p][3])
        a1, b2, value, error = panels[i]
        b1 = 0.5 * (a1 + b2)
        left, right = (a1, b1, *_qk21(f, a1, b1)[:2]), (b1, b2, *_qk21(f, b1, b2)[:2])
        errsum = errsum + (left[3] + right[3]) - error
        area = area + (left[2] + right[2]) - value
        if right[3] > left[3]:
            left, right = right, left
        panels[i] = left
        panels.append(right)
        if errsum <= max(_QUAD_TOL, _QUAD_TOL * abs(area)):
            total = 0.0
            for panel in panels:
                total += panel[2]
            return total
    raise ValueError(f"the integral over [{a}, {b}] missed its tolerance in {_QUAD_LIMIT} panels")


def pi_singular_check(dist, phi, a: float, b: float, eps: float) -> CheckReport:
    """Averaged increment of a smooth monotone function under the coupling law
    stays below the modulus of continuity times the total increment."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not (a < 0 <= dist.m < b):
        raise ValueError(f"support [0, {dist.m}] must lie strictly inside ({a}, {b})")
    xs = np.linspace(a, b + eps, _PHI_GRID_POINTS)
    vals = np.asarray(phi(xs), dtype=float)
    if np.any(np.diff(vals) < -1e-12 * max(1.0, np.abs(vals).max())):
        raise ValueError("phi must be non-decreasing on [a, b + eps]")
    if dist.kind == "uniform":
        lhs = _qags(lambda lam: (phi(lam + eps) - phi(lam)) / dist.m, 0.0, dist.m)
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
    if len(grids) < 1:
        raise ValueError("need at least 1 cube side in sides, got none")
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
    if k < 1:  # before any grid is built or solved
        raise ValueError(f"k must be at least 1, got {k}")
    src = field_src.grid
    _require_no_zero_mode(src)
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
    if any(isinstance(l, bool) or not isinstance(l, (int, np.integer)) for l in ells):
        raise ValueError(f"ells must be integers, got {list(ells)!r}")
    if len(ells) < 1:
        raise ValueError("need at least 1 entry in ells, got none")
    ells = sorted(int(l) for l in ells)
    grid = field.grid
    _require_no_zero_mode(grid)
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

def _wegner_samples(model: AlloyModel, grid: Grid, children, edges: np.ndarray):
    """Every sample's inertia counts at `edges` (samples, edges), its eigenvalues in
    (edges[0], edges[1]] from a window solve certified against the count of that window
    (samples, widest window; a row's values ascending, then NaN), and per sample None or
    why a solver broke down (the sample is then excluded, its row all NaN).

    Every sample draws its couplings first (`sample_alloy`, one child seed each).
    For d = 1, one product gives every sample's bands (`AlloyOperators.bands`),
    one Sturm sweep counts every (sample, edge) pair and `tridiagonal_windows`
    solves and certifies every window.  For d >= 2, each sample's operator is
    `AlloyOperators.at`, counted and solved in turn, into the same arrays.
    """
    ops = alloy_operators(grid, model)
    omegas = np.column_stack([sample_alloy(model, np.random.default_rng(c)) for c in children])
    if grid.d == 1:
        diag, off = ops.bands(omegas)
        counts = tridiagonal_counts(diag, off, edges)
        windows, failures = tridiagonal_windows(diag, off, edges[0], edges[1],
                                                counts[:, 1] - counts[:, 0])
        return counts, windows, failures
    counts = np.zeros((len(children), edges.size), dtype=int)
    solved, failures = [], []
    for i in range(len(children)):
        op = ops.at(omegas[:, i])
        try:
            counts[i] = count_eigenvalues(op, edges)
            window = eigenpairs(op, *edges[:2], int(counts[i, 1] - counts[i, 0])).energies
            failure = None
        except (EigensolveError, np.linalg.LinAlgError) as exc:  # solver breakdown
            window, failure = np.empty(0), str(exc)
        solved.append(window)
        failures.append(failure)
    windows = np.full((len(children), max(w.size for w in solved)), np.nan)
    for i, window in enumerate(solved):
        windows[i, :window.size] = window
    return counts, windows, failures


def wegner_mc(model: AlloyModel, grid: Grid, e_center: float, eps: float,
              n_samples: int, seed: int, cfg: ConstantsConfig, *,
              variant: str = "bounded_w") -> CheckReport:
    """Empirical mean eigenvalue count in [E-eps, E+eps] against the averaged bound.

    Counting goes through matrix inertia; a window eigensolve on
    (E-3eps, E+3eps], certified complete by the inertia count of that window,
    provides the per-sample smearing-chain verification and the exact
    cross-check on every sample.  Also reports the fitted scaling exponent of
    the mean over the eps sweep.  Each sample draws its couplings with
    `sample_alloy`; its operator H_0 + sum_s omega_s H_s comes from the model's
    `alloy_operators`, assembled once per call (`_wegner_samples`).  The lifting
    slope of the bound carries the hypotheses of the Lipschitz UCP variant, which
    the base field and the grid must meet before any sample is drawn.
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
    _require_sfucp_hypotheses(grid, model.base, "the lifting slope of the Wegner bound")

    w_all = single_site_sum(model)
    lift_cfg = _run_config(cfg, grid, model.seq, t_max=eps + model.dist.m + 1.0, w_sup=w_all.sup,
                           w_lip=w_all.lip if w_all.lip is not None else 0.0)
    lifts = bounds.c_evl_family(lift_cfg)
    lifting_constant = lifts.bounded_w if variant == "bounded_w" else lifts.standard
    cw = bounds.c_wegner(lift_cfg, lifting_constant, model.delta_plus)
    s_eps = model.dist.modulus(eps)
    rhs = cw * s_eps * float(grid.L) ** (2 * grid.d)

    eps_levels = [eps * f for f in _EPS_FACTORS]
    # counts in (E - eps_j, E + eps_j] and the window (E - 3 eps, E + 3 eps], the
    # support of the smearing chain
    edges = np.array([e_center - 3 * eps, e_center + 3 * eps,
                      *[x for e in eps_levels for x in (e_center - e, e_center + e)]])
    children = np.random.SeedSequence(seed).spawn(n_samples)
    c, windows, reasons = _wegner_samples(model, grid, children, edges)
    valid = np.array([r is None for r in reasons])
    failures = int(n_samples - valid.sum())
    counts = c[:, 3::2] - c[:, 2::2]
    # per-sample smearing chain at the base eps, on each window's values:
    # indicator of [E-eps, E+eps] <= switch(. - (E-2eps)) - switch(. - (E+2eps))
    smear = smooth_switch(windows, eps, shift=e_center - 2 * eps) \
        - smooth_switch(windows, eps, shift=e_center + 2 * eps)
    smear_ok = int(np.count_nonzero(valid & (counts[:, 0] <= np.nansum(smear, axis=1) + 1e-9)))
    direct = np.count_nonzero((windows >= e_center - eps) & (windows <= e_center + eps), axis=1)
    cross_ok = int(np.count_nonzero(valid & (direct == counts[:, 0])))

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
    if len(sides) < 2:
        raise ValueError(f"need at least 2 cube sides in sides for a trend, got {list(sides)!r}")
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
