"""Configuration-driven experiment runner with reproducible, machine-readable output.

A run is a pure function of its config and the command-line flags: the
resolved config is archived next to the reports, and re-running it
reproduces every numeric field bit-identically.  `_resolve` fills in only
`seed` and `expect`; every other default belongs to the function it
configures, and a runner forwards a key only when the config sets it.
Suites bundle curated desk-scale configs per topic; negative controls
declare `expect: fail` so the suite exit status treats their failure as
success.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import bounds, io, verify
from .fields import (CouplingDistribution, alloy_model, ball_plateau_field,
                     checkerboard_field, constant_field, identity_field,
                     sampled_field)
from .lattice import (ScalarField, as_scalar_field,
                      equidistributed_sequence, make_grid)
from .operators import assemble
from .spectral import EigensolveError, eigensolve, lifting_curve, slab_count_eigenvalues


class ConfigError(ValueError):
    """Validation failure with the offending field path in the message."""


def _get(cfg: dict, path: str, default=None, required: bool = False):
    """The value at dotted `path`; a key that is absent or null gives `default`."""
    node = cfg
    for part in path.split("."):
        node = node.get(part) if isinstance(node, dict) else None
    if node is None and required:
        raise ConfigError(f"{path}: required field is missing")
    return default if node is None else node


def _block(node, path: str, keys) -> dict:
    """`node`, the config block at `path` ("" for a whole run), as a mapping; {} when null.

    A value that is not a mapping, or a key outside `keys`, is a ConfigError.
    """
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{path or 'run'}: must be a mapping of keys to values")
    unknown = sorted(set(node) - set(keys), key=str)
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown key; valid: {sorted(keys)}".lstrip("."))
    return node


def _run_seed(cfg: dict) -> int:
    """The seed of every draw of a run: the config's `seed`, or 0 when it sets none.

    `run` and `suite` always set one (`_resolve`); a config passed straight to
    `execute` may not, and must still draw the same numbers every time.
    """
    return int(_get(cfg, "seed", 0))


def _given(node, **casts) -> dict:
    """Keyword arguments for the keys `node` sets (not null), each through its cast.

    A key the config leaves out is not passed, so the callee's default applies.
    """
    node = node if isinstance(node, dict) else {}
    return {k: cast(node[k]) for k, cast in casts.items() if node.get(k) is not None}


def _build_grid(cfg: dict):
    g = _block(_get(cfg, "grid"), "grid", ("d", "L", "n_per_side", "bc"))
    try:
        return make_grid(_get(cfg, "grid.d", 1), _get(cfg, "grid.L", 1),
                         _get(cfg, "grid.n_per_side", 32), **_given(g, bc=str))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


# the keys each `field.kind` recipe reads besides `kind`
_FIELD_KEYS = {"identity": (), "constant": ("matrix",), "sine": ("amplitude", "frequency"),
               "checkerboard": ("low", "high", "axis"), "anisotropic": ("base", "amplitude"),
               "file": ("path",)}


def _build_field(cfg: dict, grid):
    kind = _get(cfg, "field.kind", "identity")
    if not isinstance(kind, str) or kind not in _FIELD_KEYS:
        raise ConfigError(f"field.kind: unknown recipe {kind!r}; valid: {sorted(_FIELD_KEYS)}")
    f = _block(_get(cfg, "field"), "field", ("kind", *_FIELD_KEYS[kind]))
    if kind == "identity":
        return identity_field(grid)
    if kind == "constant":
        matrix = np.asarray(f.get("matrix", np.eye(grid.d).tolist()), dtype=float)
        return constant_field(grid, matrix)
    if kind == "sine":
        amp = float(f.get("amplitude", 0.5))
        freq = float(f.get("frequency", 1.0))
        if not (0 <= amp < 1):
            raise ConfigError("field.amplitude: need 0 <= amplitude < 1 for ellipticity")
        om = 2 * math.pi * freq / grid.L
        return sampled_field(grid, lambda p: 1.0 + amp * np.sin(om * p[:, 0]),
                             theta_lip=amp * om)
    if kind == "checkerboard":
        return checkerboard_field(grid, **_given(f, low=float, high=float, axis=int))
    if kind == "anisotropic":
        # diagonal field with distinct smooth axis coefficients
        base = float(f.get("base", 1.0))
        amp = float(f.get("amplitude", 0.25))

        def gen(pts):
            out = np.zeros((pts.shape[0], grid.d, grid.d))
            for k in range(grid.d):
                out[:, k, k] = base * (k + 1) + amp * np.cos(2 * math.pi * pts[:, k] / grid.L)
            return out

        return sampled_field(grid, gen, theta_lip=2 * math.pi * amp / grid.L)
    return io.load_field(_get(cfg, "field.path", required=True), bc=grid.bc)


def _build_sequence(cfg: dict, grid):
    s = _block(_get(cfg, "sequence"), "sequence", ("G", "delta", "mode", "seed", "centers"))
    delta = float(_get(cfg, "sequence.delta", required=True))
    try:
        return equidistributed_sequence(grid, float(_get(cfg, "sequence.G", 1.0)), delta,
                                        seed=_get(cfg, "sequence.seed", _run_seed(cfg)),
                                        centers=s.get("centers"), **_given(s, mode=str))
    except ValueError as exc:
        raise ConfigError(f"sequence: {exc}") from exc


def _build_constants(cfg: dict) -> bounds.ConstantsConfig:
    try:
        return bounds.ConstantsConfig(**_get(cfg, "constants", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"constants: {exc}") from exc


def _build_balls(cfg: dict):
    """Grid, field, ball sequence and constants: the inputs of a ball-union check."""
    grid = _build_grid(cfg)
    return grid, _build_field(cfg, grid), _build_sequence(cfg, grid), _build_constants(cfg)


def _build_w(cfg: dict, seq):
    w = _block(_get(cfg, "check.w"), "check.w", ("kind", "value"))
    kind = w.get("kind", "tent")
    if kind == "tent":
        return ball_plateau_field(seq)
    if kind == "constant":
        return as_scalar_field(float(w.get("value", 1.0)))
    if kind == "tent_plus_one":
        tent = ball_plateau_field(seq)
        return ScalarField(fn=lambda pts: 1.0 + tent(pts), lip=tent.lip, sup=2.0)
    raise ConfigError(f"check.w.kind: unknown recipe {kind!r}")


def _dist_from(node) -> CouplingDistribution:
    node = _block(node, "check.dist", ("kind", "m", "p"))
    return CouplingDistribution(node.get("kind", "uniform"), float(node.get("m", 1.0)),
                                **_given(node, p=float))


# --------------------------------------------------------------------------
# experiment dispatch
# --------------------------------------------------------------------------

_EXPERIMENTS: dict = {}  # experiment name -> (runner, the `check` keys it reads)


def _experiment(name: str, *check_keys: str):
    """Register a runner as experiment `name`; `execute` rejects any other `check` key."""
    def register(runner):
        _EXPERIMENTS[name] = (runner, check_keys)
        return runner
    return register


@_experiment("eigensolve", "k")
def _run_eigensolve(cfg: dict) -> verify.CheckReport:
    grid = _build_grid(cfg)
    field = _build_field(cfg, grid)
    k = int(_get(cfg, "check.k", 3))
    spec = eigensolve(assemble(grid, field), k=k)
    rep = verify.CheckReport(
        name="eigensolve", statement="lowest eigenpairs converge to residual tolerance",
        status="pass", lhs=float(spec.residuals.max()), rhs=1e-9,
        observed={"energies": spec.energies.tolist(), "residuals": spec.residuals.tolist()},
        inputs={"grid": verify._grid_info(grid), "field": field.content_hash(), "k": k})
    if (_get(cfg, "field.kind", "identity") == "identity") and grid.bc == "dirichlet":
        h, L = grid.h, grid.L
        per_axis = 4 / h**2 * np.sin(np.arange(1, grid.cells_per_side) * math.pi * h / (2 * L))**2
        mesh = per_axis
        for _ in range(grid.d - 1):
            mesh = np.add.outer(mesh, per_axis).ravel()
        exact = np.sort(mesh)[:k]
        rel = float(np.abs(spec.energies - exact).max() / np.abs(exact).max())
        rep.observed["stencil_rel_error"] = rel
        if rel > 1e-10:
            rep.status = "fail"
            rep.notes.append("eigenvalues deviate from the closed-form stencil values")
    return rep


@_experiment("reverse_caccioppoli", "index", "x0", "r", "e_min")
def _run_reverse_caccioppoli(cfg: dict) -> verify.CheckReport:
    grid = _build_grid(cfg)
    field = _build_field(cfg, grid)
    n = int(_get(cfg, "check.index", 0))
    spec = eigensolve(assemble(grid, field), k=n + 1)
    e, psi = spec.pair(n)
    return verify.reverse_caccioppoli_check(
        grid, field, e, psi,
        x0=_get(cfg, "check.x0", [0.0] * grid.d),
        r=float(_get(cfg, "check.r", 0.2)),
        e_min=float(_get(cfg, "check.e_min", 1.0)))


def _spectrum_upto(grid, field, top: float):
    """Every eigenpair <= top and the next one; the inertia count sizes and certifies the solve.

    The count is the slab one at every d (scalar Sturm pivots for d = 1).  The
    sparse count would raise peak RSS.  The bench's `workload.probe()` frees
    about 16 MB of numpy temporaries before divlab runs, which raises glibc's
    dynamic mmap threshold; the SuperLU storage of a sparse count, and the `lu.L` / `lu.U`
    copies that reading `lu.U` builds (8 MB at dim 16129), then stay in the
    heap.  After a sparse count RSS stood at 113.7 MB against 90.9 MB after
    the slab count, and the peak RSS of the ucp_2d bench workload (d = 2,
    dim 16129) rose from 137-141 to 152-153 MB.
    """
    op = assemble(grid, field)
    below = slab_count_eigenvalues(op, top)
    spec = eigensolve(op, k=min(below + 1, op.dim))
    found = int(np.count_nonzero(spec.energies <= top))
    if found != below:
        raise EigensolveError(f"{found} solved eigenvalues <= {top:.6g}, inertia counts {below}")
    return spec


@_experiment("ucp_function", "clamp_delta")
def _run_ucp_function(cfg: dict) -> verify.CheckReport:
    grid, field, seq, consts = _build_balls(cfg)
    spec = _spectrum_upto(grid, field, consts.e_max)
    return verify.ucp_function_check(grid, field, spec, seq, consts,
                                     **_given(_get(cfg, "check"), clamp_delta=bool))


@_experiment("ucp_gradient", "variant", "negative_control")
def _run_ucp_gradient(cfg: dict) -> verify.CheckReport:
    grid, field, seq, consts = _build_balls(cfg)
    spec = _spectrum_upto(grid, field, consts.e_max)
    return verify.ucp_gradient_check(
        grid, field, spec, seq, consts,
        **_given(_get(cfg, "check"), variant=str, negative_control=bool))


@_experiment("projector_ucp", "lam", "n_samples")
def _run_projector_ucp(cfg: dict) -> verify.CheckReport:
    grid, field, seq, consts = _build_balls(cfg)
    consts = replace(consts, delta=seq.delta, d=grid.d)
    lam = _get(cfg, "check.lam")
    lam = bounds.kappa_family(consts).kappa_prime if lam is None else float(lam)
    spec = _spectrum_upto(grid, field, lam)
    return verify.projector_ucp_check(
        grid, field, spec, seq, lam,
        n_samples=int(_get(cfg, "check.n_samples", 200)),
        seed=_run_seed(cfg), cfg=consts)


@_experiment("lifting", "w", "t_max", "t_steps", "indices", "variant")
def _run_lifting(cfg: dict) -> verify.CheckReport:
    grid, field, seq, consts = _build_balls(cfg)
    curve = lifting_curve(grid, field, _build_w(cfg, seq),
                          t_max=float(_get(cfg, "check.t_max", 1.0)),
                          t_steps=int(_get(cfg, "check.t_steps", 7)),
                          indices=_get(cfg, "check.indices", [0, 1]))
    return verify.lifting_check(curve, consts, seq,
                                variant=_get(cfg, "check.variant", "bounded_w"))


@_experiment("wegner", "c_minus", "c_plus", "delta_plus", "bump", "dist", "e_center",
             "eps", "n_samples", "variant")
def _run_wegner(cfg: dict) -> verify.CheckReport:
    grid, field, seq, consts = _build_balls(cfg)
    check = _get(cfg, "check")
    model = alloy_model(field, seq, **_given(check, c_minus=float, c_plus=float,
                                             delta_plus=float, bump=str, dist=_dist_from))
    return verify.wegner_mc(
        model, grid,
        e_center=float(_get(cfg, "check.e_center", required=True)),
        eps=float(_get(cfg, "check.eps", 0.1)),
        n_samples=int(_get(cfg, "check.n_samples", 200)),
        seed=_run_seed(cfg), cfg=consts, **_given(check, variant=str))


@_experiment("pi_singular", "dist", "phi", "a", "b", "eps")
def _run_pi_singular(cfg: dict) -> verify.CheckReport:
    dist = _dist_from(_get(cfg, "check.dist"))
    phi_kind = _get(cfg, "check.phi", "linear")
    if phi_kind == "linear":
        phi = lambda x: np.asarray(x, dtype=float)
    elif phi_kind == "softplus":
        phi = lambda x: np.logaddexp(0.0, np.asarray(x, dtype=float))
    else:
        raise ConfigError(f"check.phi: unknown recipe {phi_kind!r}")
    return verify.pi_singular_check(dist, phi,
                                    a=float(_get(cfg, "check.a", -0.1)),
                                    b=float(_get(cfg, "check.b", dist.m + 0.1)),
                                    eps=float(_get(cfg, "check.eps", 0.1)))


@_experiment("weyl", "sides", "e_plus", "weyl_constant")
def _run_weyl(cfg: dict) -> verify.CheckReport:
    base = _build_grid(cfg)
    grids = [make_grid(base.d, L, base.n_per_side, base.bc)
             for L in _get(cfg, "check.sides", [1, 2, 4])]
    return verify.weyl_check(grids, lambda g: _build_field(cfg, g),
                             e_plus=float(_get(cfg, "check.e_plus", 100.0)),
                             **_given(_get(cfg, "check"), weyl_constant=float))


@_experiment("scaling", "G", "delta", "mode", "target_n", "k", "eig_rtol", "grad_rtol")
def _run_scaling(cfg: dict) -> verify.CheckReport:
    grid = _build_grid(cfg)  # source grid, side G*L
    field = _build_field(cfg, grid)
    check = _get(cfg, "check")
    G = float(_get(cfg, "check.G", 2.0))
    seq = equidistributed_sequence(grid, G, float(_get(cfg, "check.delta", 0.75)),
                                   seed=_run_seed(cfg), **_given(check, mode=str))
    return verify.scaling_check(field, G, seq,
                                target_n_per_side=int(_get(cfg, "check.target_n", required=True)),
                                **_given(check, k=int, eig_rtol=float, grad_rtol=float))


@_experiment("mollification", "eps", "ells", "k", "rtol")
def _run_mollification(cfg: dict) -> verify.CheckReport:
    grid = _build_grid(cfg)
    field = _build_field(cfg, grid)
    return verify.mollification_convergence(
        field, eps=float(_get(cfg, "check.eps", 0.25)),
        ells=_get(cfg, "check.ells", [4, 8, 16, 32]),
        k=int(_get(cfg, "check.k", 3)), **_given(_get(cfg, "check"), rtol=float))


@_experiment("neumann_trend", "sides", "delta")
def _run_neumann_trend(cfg: dict) -> verify.CheckReport:
    grid = _build_grid(cfg)
    return verify.neumann_gradient_decay_trend(
        grid.d, _get(cfg, "check.sides", [1, 2, 4]), grid.n_per_side,
        delta=float(_get(cfg, "check.delta", 0.3)))


@_experiment("constants", "delta_plus")
def _run_constants(cfg: dict) -> verify.CheckReport:
    consts = _build_constants(cfg)
    report = bounds.constants_report(consts, delta_plus=_get(cfg, "check.delta_plus"))
    again = report.recompute()
    identical = report.to_dict() == again.to_dict()
    return verify.CheckReport(
        name="constants", statement="formula table re-evaluates bit-identically",
        status="pass" if identical else "fail",
        observed={"entries": {k: v.value for k, v in report.entries.items()}},
        inputs={"config": consts.snapshot()})


# the keys of a run config; the builder that reads a block checks its keys
_RUN_KEYS = "experiment label seed expect grid field sequence check constants".split()


def execute(config: dict) -> verify.CheckReport:
    """Run one experiment config and return its report (no files written)."""
    config = _block(config, "", _RUN_KEYS)
    kind = _get(config, "experiment", required=True)
    if not isinstance(kind, str) or kind not in _EXPERIMENTS:
        raise ConfigError(f"experiment: unknown kind {kind!r}; valid: {sorted(_EXPERIMENTS)}")
    runner, check_keys = _EXPERIMENTS[kind]
    _block(_get(config, "check"), "check", check_keys)
    t0 = time.perf_counter()
    try:
        report = runner(config)
    except (ConfigError, np.linalg.LinAlgError):  # a LinAlgError is a solver breakdown
        raise
    except ValueError as exc:  # the experiment rejected an input of the config
        raise ConfigError(f"{kind}: {exc}") from exc
    report.walltime = time.perf_counter() - t0
    if _get(config, "expect", "pass") == "fail":
        report.expected_failure = True
    label = _get(config, "label")
    if label:
        report.name = f"{report.name}:{label}"
    return report


def _resolve(config: dict, seed: int | None = None, resolution_mult: float = 1.0) -> dict:
    out = json.loads(json.dumps(_block(config, "", _RUN_KEYS)))  # deep copy, normalized types
    out.setdefault("seed", 1234)
    out.setdefault("expect", "pass")
    if seed is not None:
        out["seed"] = seed
    if not resolution_mult > 0:
        raise ConfigError(f"--resolution-mult: must be positive, got {resolution_mult}")
    if resolution_mult != 1 and "grid" in out:
        n_per_side = int(_build_grid(out).n_per_side * resolution_mult)
        out["grid"] = {**(out["grid"] or {}), "n_per_side": n_per_side}
    return out


def run(configs, output_dir, workers: int = 1, seed: int | None = None,
        resolution_mult: float = 1.0) -> int:
    """Run a list of experiment configs, write reports and a summary, return exit status."""
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    resolved = [_resolve(c, seed, resolution_mult) for c in configs]
    with open(outdir / "resolved_config.yaml", "w") as fh:
        yaml.safe_dump({"runs": resolved}, fh, sort_keys=True)

    reports: list[verify.CheckReport] = []
    if workers > 1 and len(resolved) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(execute, resolved))
    else:
        for c in resolved:
            reports.append(execute(c))

    manifest = []
    for i, rep in enumerate(reports):
        fname = f"{i:03d}_{rep.name.replace('[', '_').replace(']', '').replace(':', '_')}.json"
        io.save_report_json(rep, outdir / fname)
        manifest.append({"file": fname, "name": rep.name, "status": rep.status,
                         "ok": rep.ok, "expected_failure": rep.expected_failure})
    with open(outdir / "summary.tsv", "w") as fh:
        fh.write("name\tstatus\tok\tlhs\trhs\tmargin\twalltime\n")
        for rep in reports:
            fh.write(f"{rep.name}\t{rep.status}\t{rep.ok}\t{rep.lhs}\t{rep.rhs}\t"
                     f"{rep.margin}\t{rep.walltime:.3f}\n")
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)

    n_bad = sum(not r.ok for r in reports)
    for rep in reports:
        flag = "ok " if rep.ok else "BAD"
        print(f"[{flag}] {rep.name:40s} {rep.status:7s} walltime={rep.walltime:.2f}s")
    return 0 if n_bad == 0 else 1


# --------------------------------------------------------------------------
# curated suites (desk scale)
# --------------------------------------------------------------------------

def _suite_ucp() -> list[dict]:
    runs = []
    for delta in (0.2, 0.3):
        for experiment in ("ucp_function", "ucp_gradient"):
            runs.append({"experiment": experiment, "label": f"sine-d{delta}",
                         "grid": {"d": 1, "L": 2, "n_per_side": 48},
                         "field": {"kind": "sine"},
                         "sequence": {"G": 1.0, "delta": delta},
                         "constants": {"e_min": 1.0, "e_max": 30.0, "theta_plus": 1.5,
                                       "theta_minus": 0.5}})
    runs.append({"experiment": "ucp_gradient", "label": "checkerboard-low-energy",
                 "grid": {"d": 1, "L": 24, "n_per_side": 16},
                 "field": {"kind": "checkerboard"},
                 "sequence": {"G": 1.0, "delta": 0.45},
                 "check": {"variant": "low_energy"},
                 "constants": {"e_min": 0.005, "e_max": 0.0253, "theta_plus": 2.0,
                               "theta_minus": 1.0}})
    runs.append({"experiment": "reverse_caccioppoli", "label": "sine",
                 "grid": {"d": 1, "L": 2, "n_per_side": 64},
                 "field": {"kind": "sine"},
                 "check": {"x0": [0.1], "r": 0.2, "e_min": 1.0, "index": 1}})
    runs.append({"experiment": "projector_ucp", "label": "checkerboard",
                 "grid": {"d": 1, "L": 20, "n_per_side": 16},
                 "field": {"kind": "checkerboard"},
                 "sequence": {"G": 1.0, "delta": 0.45},
                 "constants": {"e_min": 0.001, "e_max": 0.05, "theta_minus": 1.0,
                               "theta_plus": 2.0},
                 "check": {"n_samples": 300}})
    # negative control: the Neumann zero mode has no gradient mass anywhere
    runs.append({"experiment": "ucp_gradient", "label": "neumann-zero-mode",
                 "expect": "fail",
                 "grid": {"d": 1, "L": 2, "n_per_side": 32, "bc": "neumann"},
                 "field": {"kind": "identity"},
                 "sequence": {"G": 1.0, "delta": 0.3},
                 "check": {"variant": "low_energy", "negative_control": True},
                 "constants": {"e_min": 1e-6, "e_max": 0.001}})
    runs.append({"experiment": "neumann_trend", "label": "domain-growth",
                 "grid": {"d": 1, "L": 1, "n_per_side": 32, "bc": "neumann"},
                 "check": {"sides": [2, 4, 8], "delta": 0.3}})
    return runs


def _suite_lifting() -> list[dict]:
    runs = []
    for delta, L in ((0.3, 2), (0.4, 2), (0.3, 3)):
        runs.append({"experiment": "lifting", "label": f"tent-L{L}-d{delta}",
                     "grid": {"d": 1, "L": L, "n_per_side": 48},
                     "field": {"kind": "sine"},
                     "sequence": {"G": 1.0, "delta": delta},
                     "check": {"variant": "bounded_w", "t_max": 1.0, "t_steps": 7,
                               "indices": [0, 1, 2]},
                     "constants": {"e_min": 0.5, "e_max": 60.0, "theta_minus": 0.5,
                                   "theta_plus": 1.5}})
    runs.append({"experiment": "lifting", "label": "elementary",
                 "grid": {"d": 1, "L": 2, "n_per_side": 48},
                 "field": {"kind": "identity"},
                 "sequence": {"G": 1.0, "delta": 0.3},
                 "check": {"variant": "elementary", "t_max": 1.0, "t_steps": 7,
                           "indices": [0, 1], "w": {"kind": "constant", "value": 1.0}},
                 "constants": {"e_min": 1.0, "e_max": 60.0}})
    return runs


def _suite_wegner(samples: int = 200) -> list[dict]:
    runs = []
    for L in (2, 4):
        runs.append({"experiment": "wegner", "label": f"uniform-L{L}",
                     "grid": {"d": 1, "L": L, "n_per_side": 32},
                     "field": {"kind": "identity"},
                     "sequence": {"G": 1.0, "delta": 0.2},
                     "check": {"e_center": 12.5, "eps": 0.5, "n_samples": samples,
                               "delta_plus": 0.45,
                               "dist": {"kind": "uniform", "m": 2.0}},
                     "constants": {"e_min": 1.0, "e_max": 30.0}})
    runs.append({"experiment": "pi_singular", "label": "uniform-linear",
                 "check": {"dist": {"kind": "uniform", "m": 1.0}, "phi": "linear",
                           "a": -0.1, "b": 1.1, "eps": 0.1}})
    runs.append({"experiment": "weyl", "label": "identity",
                 "grid": {"d": 1, "L": 1, "n_per_side": 64},
                 "check": {"sides": [1, 2, 4], "e_plus": 100.0}})
    return runs


def _suite_scaling() -> list[dict]:
    runs = []
    for d, L_src in ((1, 4), (2, 2)):
        runs.append({"experiment": "scaling", "label": f"G2-d{d}",
                     "grid": {"d": d, "L": L_src, "n_per_side": 48},
                     "field": {"kind": "sine"},
                     "check": {"G": 2.0, "delta": 0.75, "target_n": 32}})
    return runs


def _suite_mollify() -> list[dict]:
    return [{"experiment": "mollification", "label": "checkerboard",
             "grid": {"d": 1, "L": 1, "n_per_side": 256},
             "field": {"kind": "checkerboard"},
             "check": {"eps": 0.25, "ells": [4, 8, 16, 32], "k": 3}}]


_SUITES = {
    "ucp": _suite_ucp,
    "lifting": _suite_lifting,
    "wegner": _suite_wegner,
    "scaling": _suite_scaling,
    "mollify": _suite_mollify,
}


def suite_configs(name: str, samples: int | None = None) -> list[dict]:
    if name != "all" and name not in _SUITES:
        raise ConfigError(f"suite: unknown name {name!r}; valid: {sorted(_SUITES) + ['all']}")
    runs = []
    for key, fn in _SUITES.items():
        if name in ("all", key):
            runs.extend(fn(samples) if key == "wegner" and samples else fn())
    return runs


def suite(name: str, output_dir="out", workers: int = 1, samples: int | None = None,
          seed: int | None = None, resolution_mult: float = 1.0) -> int:
    t0 = time.time()
    status = run(suite_configs(name, samples), output_dir, workers=workers, seed=seed,
                 resolution_mult=resolution_mult)
    elapsed = time.time() - t0
    if elapsed > 1800:
        print(f"warning: suite runtime {elapsed:.0f}s exceeds the 30 minute budget",
              file=sys.stderr)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="divlab",
        description="Run verification experiments for divergence-form operator spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments from a YAML config file")
    p_run.add_argument("config", type=Path)
    p_suite = sub.add_parser("suite", help="run a curated suite")
    p_suite.add_argument("name", choices=sorted(_SUITES) + ["all"])
    p_suite.add_argument("--samples", type=int, help="override Monte Carlo sample counts")
    for p in (p_run, p_suite):
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--resolution-mult", type=float, default=1.0)

    args = parser.parse_args(argv)
    flags = {"workers": args.workers, "seed": args.seed,
             "resolution_mult": args.resolution_mult}
    try:
        if args.command == "run":
            with open(args.config) as fh:
                loaded = yaml.safe_load(fh)
            if isinstance(loaded, dict) and "runs" in loaded:
                loaded = _block(loaded, "", ("runs",))["runs"]
            return run(loaded if isinstance(loaded, list) else [loaded], args.out, **flags)
        return suite(args.name, args.out, samples=args.samples, **flags)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
