"""Configuration-driven experiment runner with reproducible, machine-readable output.

A run is a pure function of its config and the command-line flags: the
resolved config is archived next to the reports, and re-running it
reproduces every numeric field bit-identically.  `_block` reads every
config block: each key is declared once with its cast, and a null key
counts as absent.  `_resolve` fills in only `seed` and `expect`; every other
default is a keyword default of the runner or recipe that reads the key, or
of the function it forwards the key to.  Suites bundle curated desk-scale
configs per topic; negative controls declare `expect: fail` so the suite
exit status treats their failure as success.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import sys
import time
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
from .spectral import (EigensolveError, count_eigenvalues, eigenpairs, eigensolve,
                       lifting_curve)

# libyaml's emitter where PyYAML has it: the safe dialect's bytes, in about a fifth of
# the pure-Python time
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class ConfigError(ValueError):
    """Validation failure with the offending field path in the message."""


def _block(node, path: str, /, **casts) -> dict:
    """The keys the config block at `path` ("" for a whole run) sets, each through its cast.

    A null block or key counts as absent, so its reader's default applies.  A
    non-mapping block, a key outside `casts`, or a value its cast rejects is a
    ConfigError naming `<path>.<key>`."""
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{path or 'run'}: must be a mapping of keys to values")
    unknown = sorted(set(node) - set(casts), key=str)
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown key; valid: {sorted(casts)}".lstrip("."))
    out = {}
    for key, value in node.items():
        try:
            if value is not None:
                out[key] = casts[key](value)
        except ConfigError:  # from a nested block, already named
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}.{key}: {exc}".lstrip(".")) from exc
    return out


def _only(ok, what: str):
    """The cast that passes a value `ok` accepts and rejects any other as not `what`."""
    def cast(value):
        if not ok(value):
            raise ValueError(f"must be {what}, got {value!r}")
        return value
    return cast


_int = _only(lambda v: type(v) is int, "an integer")
_text = _only(lambda v: type(v) is str, "a string")
_bool = _only(lambda v: type(v) is bool, "a boolean")
_list = _only(lambda v: type(v) is list, "a list")
_expect = _only(lambda v: v in ("pass", "fail"), "'pass' or 'fail'")
_raw = _only(lambda v: True, "")  # a nested block, or a value its callee checks
_number = _only(lambda v: type(v) in (int, float), "a real number")
_count = _only(lambda v: _int(v) >= 1, "at least 1")  # a number of eigenpairs
_index = _only(lambda v: _int(v) >= 0, "at least 0")  # an eigenpair's index


def _real(value) -> float:
    """An int or a float, as a float; a bool or a numeric string is rejected."""
    return float(_number(value))


def _need(value, path: str):
    """`value`, which a config must set at `path`."""
    if value is None:
        raise ConfigError(f"{path}: required field is missing")
    return value


def _run_seed(cfg: dict) -> int:
    """The seed of every draw of a run: `seed`, or 0 for a config that skipped `_resolve`
    (passed straight to `execute`), which must still draw the same numbers every time."""
    return cfg.get("seed", 0)


def _take(keys: dict, *names) -> dict:
    """Remove the `names` that `keys` sets and return them, for a second callee."""
    return {name: keys.pop(name) for name in names if name in keys}


def _build_grid(cfg: dict):
    # make_grid checks that L and n_per_side are positive integers
    g = _block(cfg.get("grid"), "grid", d=_int, L=_raw, n_per_side=_raw, bc=_text)
    try:
        return make_grid(**{"d": 1, "L": 1, "n_per_side": 32, **g})
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _sine_field(grid, amplitude: float = 0.5, frequency: float = 1.0):
    if not (0 <= amplitude < 1):
        raise ConfigError("field.amplitude: need 0 <= amplitude < 1 for ellipticity")
    om = 2 * math.pi * frequency / grid.L
    return sampled_field(grid, lambda p: 1.0 + amplitude * np.sin(om * p[:, 0]),
                         theta_lip=amplitude * om)


def _anisotropic_field(grid, base: float = 1.0, amplitude: float = 0.25):
    """A diagonal field with distinct smooth axis coefficients."""
    def gen(pts):
        out = np.zeros((pts.shape[0], grid.d, grid.d))
        for k in range(grid.d):
            out[:, k, k] = base * (k + 1) + amplitude * np.cos(2 * math.pi * pts[:, k] / grid.L)
        return out
    return sampled_field(grid, gen, theta_lip=2 * math.pi * amplitude / grid.L)


def _file_field(grid, path: str | None = None):
    return io.load_field(_need(path, "field.path"), bc=grid.bc)


# each `field.kind` recipe: its builder and the keys it reads besides `kind`
_FIELDS = {"identity": (identity_field, {}),
           "constant": (constant_field, {"matrix": _list}),
           "sine": (_sine_field, {"amplitude": _real, "frequency": _real}),
           "checkerboard": (checkerboard_field, {"low": _real, "high": _real, "axis": _int}),
           "anisotropic": (_anisotropic_field, {"base": _real, "amplitude": _real}),
           "file": (_file_field, {"path": _text})}


def _build_field(cfg: dict, grid):
    node = cfg.get("field")
    kind = node.get("kind") if isinstance(node, dict) else None
    kind = "identity" if kind is None else kind
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise ConfigError(f"field.kind: unknown recipe {kind!r}; valid: {sorted(_FIELDS)}")
    recipe, casts = _FIELDS[kind]
    keys = _block(node, "field", kind=_text, **casts)
    return recipe(grid, **{k: v for k, v in keys.items() if k != "kind"})


def _build_sequence(cfg: dict, grid):
    s = _block(cfg.get("sequence"), "sequence",
               G=_real, delta=_real, mode=_text, seed=_int, centers=_list)
    _need(s.get("delta"), "sequence.delta")
    try:
        return equidistributed_sequence(grid, **{"G": 1.0, "seed": _run_seed(cfg), **s})
    except ValueError as exc:
        raise ConfigError(f"sequence: {exc}") from exc


# the ConstantsConfig fields a run cannot work out for itself; each check sets the other
# six (d, delta, G, t_max, w_sup, w_lip) from its grid, sequence and lifting direction
_CONSTANTS_KEYS = ("theta_minus", "theta_plus", "theta_lip", "e_min", "e_max", "L",
                   "n_exponent", "m_exponent", "neumann_a", "neumann_b", "neumann_c",
                   "neumann_prefactor", "weyl_constant")


def _build_constants(cfg: dict) -> bounds.ConstantsConfig:
    # ConstantsConfig checks the ranges
    keys = _block(cfg.get("constants"), "constants", **dict.fromkeys(_CONSTANTS_KEYS, _real))
    try:
        return bounds.ConstantsConfig(**keys)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"constants: {exc}") from exc


def _build_balls(cfg: dict):
    """Grid, field, ball sequence and constants: the inputs of a ball-union check."""
    grid = _build_grid(cfg)
    return grid, _build_field(cfg, grid), _build_sequence(cfg, grid), _build_constants(cfg)


def _build_w(seq, kind: str = "tent", value: float = 1.0):
    if kind == "tent":
        return ball_plateau_field(seq)
    if kind == "constant":
        return as_scalar_field(value)
    if kind == "tent_plus_one":
        tent = ball_plateau_field(seq)
        return ScalarField(fn=lambda pts: 1.0 + tent(pts), lip=tent.lip, sup=2.0)
    raise ConfigError(f"check.w.kind: unknown recipe {kind!r}")


def _coupling(node) -> CouplingDistribution:
    """The law of `check.dist`; uniform on [0, 1] when the block is absent."""
    law = _block(node, "check.dist", kind=_text, m=_real, p=_real)
    return CouplingDistribution(**{"kind": "uniform", "m": 1.0, **law})


# --------------------------------------------------------------------------
# experiment dispatch
# --------------------------------------------------------------------------

_EXPERIMENTS: dict = {}  # experiment name -> (runner, blocks it reads, casts of its `check` keys)
# the input blocks of a run config; a ball-union check reads them all (`_build_balls`)
_BLOCKS = ("grid", "field", "sequence", "constants")


def _experiment(name: str, *blocks: str, **check_casts):
    """Register a runner as experiment `name` that reads the input `blocks`; `execute`
    rejects a config that sets any other, and passes the runner the `check` keys a config
    sets, each through its cast in `check_casts`, rejecting any other key."""
    def register(runner):
        _EXPERIMENTS[name] = (runner, blocks, check_casts)
        return runner
    return register


@_experiment("eigensolve", "grid", "field", k=_count)
def _run_eigensolve(cfg: dict, k: int = 3) -> verify.CheckReport:
    grid = _build_grid(cfg)
    field = _build_field(cfg, grid)
    spec = eigensolve(assemble(grid, field), k=k)
    rep = verify.CheckReport(
        name="eigensolve", statement="lowest eigenpairs converge to residual tolerance",
        status="pass", lhs=float(spec.residuals.max()), rhs=1e-9,
        observed={"energies": spec.energies.tolist(), "residuals": spec.residuals.tolist()},
        inputs={"grid": verify._grid_info(grid), "field": field.content_hash(), "k": k})
    # every cell eigenvalue 1: the identity field, whose stencil eigenvalues are closed-form
    if field.theta_minus == field.theta_plus == 1.0 and grid.bc == "dirichlet":
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


@_experiment("reverse_caccioppoli", "grid", "field", index=_index, x0=_list, r=_real, e_min=_real)
def _run_reverse_caccioppoli(cfg: dict, index: int = 0, x0: list | None = None,
                             r: float = 0.2, e_min: float = 1.0) -> verify.CheckReport:
    grid = _build_grid(cfg)
    field = _build_field(cfg, grid)
    e, psi = eigensolve(assemble(grid, field), k=index + 1).pair(index)
    return verify.reverse_caccioppoli_check(
        grid, field, e, psi, x0=[0.0] * grid.d if x0 is None else x0, r=r, e_min=e_min)


def _spectrum_upto(grid, field, top: float):
    """Every eigenpair <= top, and no other: `eigenpairs` on (-inf, top], sized and
    certified by the inertia count of the eigenvalues <= top + tol (1e-12 relative).

    An eigenvalue in (top, top + tol], or within the count's ambiguity radius of its
    edge, can make the solved number differ from the count, which raises
    EigensolveError.
    """
    op = assemble(grid, field)
    return eigenpairs(op, -math.inf, top, count_eigenvalues(op, top))


@_experiment("ucp_function", *_BLOCKS, clamp_delta=_bool)
def _run_ucp_function(cfg: dict, **keys) -> verify.CheckReport:
    grid, field, seq, consts = _build_balls(cfg)
    verify._ucp_function_config(grid, field, seq, consts)  # before the solve
    spec = _spectrum_upto(grid, field, consts.e_max)
    return verify.ucp_function_check(grid, field, spec, seq, consts, **keys)


@_experiment("ucp_gradient", *_BLOCKS, variant=_text, negative_control=_bool)
def _run_ucp_gradient(cfg: dict, **keys) -> verify.CheckReport:
    grid, field, seq, consts = _build_balls(cfg)
    verify._ucp_gradient_bound(grid, field, seq, consts, **keys)  # before the solve
    spec = _spectrum_upto(grid, field, consts.e_max)
    return verify.ucp_gradient_check(grid, field, spec, seq, consts, **keys)


@_experiment("projector_ucp", *_BLOCKS, lam=_real, n_samples=_int)
def _run_projector_ucp(cfg: dict, lam: float | None = None,
                       n_samples: int = 200) -> verify.CheckReport:
    grid, field, seq, consts = _build_balls(cfg)
    # the input checks, before the solve
    consts, kp = verify._projector_kappa_prime(grid, seq, lam, consts, n_samples)
    lam = kp if lam is None else lam
    spec = _spectrum_upto(grid, field, lam)
    return verify.projector_ucp_check(grid, field, spec, seq, lam, n_samples=n_samples,
                                      seed=_run_seed(cfg), cfg=consts)


@_experiment("lifting", *_BLOCKS, w=lambda node: _block(node, "check.w", kind=_text, value=_real),
             t_max=_real, t_steps=_int, indices=_list, variant=_text)
def _run_lifting(cfg: dict, w: dict | None = None, t_max: float = 1.0, t_steps: int = 7,
                 indices=(0, 1), variant: str = "bounded_w") -> verify.CheckReport:
    grid, field, seq, consts = _build_balls(cfg)
    w_field = _build_w(seq, **(w or {}))
    verify._lifting_bound(grid, field, w_field, seq, consts, t_max, variant)  # before the solves
    curve = lifting_curve(grid, field, w_field, t_max=t_max, t_steps=t_steps, indices=indices)
    return verify.lifting_check(curve, consts, seq, variant=variant)


@_experiment("wegner", *_BLOCKS, c_minus=_real, c_plus=_real, delta_plus=_real, bump=_text,
             dist=_coupling, e_center=_real, eps=_real, n_samples=_int, variant=_text)
def _run_wegner(cfg: dict, e_center: float | None = None, eps: float = 0.1,
                n_samples: int = 200, **keys) -> verify.CheckReport:
    grid, field, seq, consts = _build_balls(cfg)
    mc_keys = _take(keys, "variant")  # the rest configure the alloy model
    return verify.wegner_mc(alloy_model(field, seq, **keys), grid,
                            e_center=_need(e_center, "check.e_center"), eps=eps,
                            n_samples=n_samples, seed=_run_seed(cfg), cfg=consts, **mc_keys)


@_experiment("pi_singular", dist=_coupling, phi=_text, a=_real, b=_real, eps=_real)
def _run_pi_singular(cfg: dict, dist=_coupling(None), phi: str = "linear", a: float = -0.1,
                     b: float | None = None, eps: float = 0.1) -> verify.CheckReport:
    if phi == "linear":
        fn = lambda x: np.asarray(x, dtype=float)
    elif phi == "softplus":
        fn = lambda x: np.logaddexp(0.0, np.asarray(x, dtype=float))
    else:
        raise ConfigError(f"check.phi: unknown recipe {phi!r}")
    return verify.pi_singular_check(dist, fn, a=a, b=dist.m + 0.1 if b is None else b, eps=eps)


@_experiment("weyl", "grid", "field", sides=_list, e_plus=_real, weyl_constant=_real)
def _run_weyl(cfg: dict, sides=(1, 2, 4), e_plus: float = 100.0, **keys) -> verify.CheckReport:
    base = _build_grid(cfg)
    grids = [make_grid(base.d, L, base.n_per_side, base.bc) for L in sides]
    return verify.weyl_check(grids, lambda g: _build_field(cfg, g), e_plus=e_plus, **keys)


@_experiment("scaling", "grid", "field", G=_real, delta=_real, mode=_text, target_n=_int,
             k=_count, eig_rtol=_real, grad_rtol=_real)
def _run_scaling(cfg: dict, G: float = 2.0, delta: float = 0.75, target_n: int | None = None,
                 **keys) -> verify.CheckReport:
    grid = _build_grid(cfg)  # source grid, side G*L
    field = _build_field(cfg, grid)
    seq = equidistributed_sequence(grid, G, delta, seed=_run_seed(cfg), **_take(keys, "mode"))
    return verify.scaling_check(field, G, seq,
                                target_n_per_side=_need(target_n, "check.target_n"), **keys)


@_experiment("mollification", "grid", "field", eps=_real, ells=_list, k=_count, rtol=_real)
def _run_mollification(cfg: dict, eps: float = 0.25, ells=(4, 8, 16, 32), k: int = 3,
                       **keys) -> verify.CheckReport:
    field = _build_field(cfg, _build_grid(cfg))
    return verify.mollification_convergence(field, eps=eps, ells=ells, k=k, **keys)


@_experiment("neumann_trend", "grid", sides=_list, delta=_real)
def _run_neumann_trend(cfg: dict, sides=(1, 2, 4), delta: float = 0.3) -> verify.CheckReport:
    grid = _build_grid(cfg)
    return verify.neumann_gradient_decay_trend(grid.d, sides, grid.n_per_side, delta=delta)


# the keys of a run config; each nested block is checked by the builder that reads it
_RUN_KEYS = {"experiment": _only(_EXPERIMENTS.__contains__, f"one of {sorted(_EXPERIMENTS)}"),
             "label": _text, "seed": _int, "expect": _expect, "grid": _raw, "field": _raw,
             "sequence": _raw, "check": _raw, "constants": _raw}


def execute(config: dict) -> verify.CheckReport:
    """Run one experiment config and return its report (no files written)."""
    config = _block(config, "", **_RUN_KEYS)
    kind = _need(config.get("experiment"), "experiment")
    runner, blocks, check_casts = _EXPERIMENTS[kind]
    unread = [name for name in _BLOCKS if name in config and name not in blocks]
    if unread:
        raise ConfigError(f"{unread[0]}: experiment {kind!r} does not read this block; "
                          f"it reads {list(blocks)}")
    check = _block(config.get("check"), "check", **check_casts)
    t0 = time.perf_counter()
    try:
        report = runner(config, **check)
    except (ConfigError, np.linalg.LinAlgError):  # a LinAlgError is a solver breakdown
        raise
    except ValueError as exc:  # the experiment rejected an input of the config
        raise ConfigError(f"{kind}: {exc}") from exc
    report.walltime = time.perf_counter() - t0
    if config.get("expect") == "fail":
        report.expected_failure = True
    label = config.get("label")
    if label:
        report.name = f"{report.name}:{label}"
    return report


def _resolve(config: dict, seed: int | None = None, resolution_mult: float = 1.0) -> dict:
    out = {"seed": 1234, "expect": "pass", **_block(config, "", **_RUN_KEYS)}
    out = json.loads(json.dumps(out))  # deep copy, normalized types
    if seed is not None:
        out["seed"] = seed
    if not resolution_mult > 0:
        raise ConfigError(f"--resolution-mult: must be positive, got {resolution_mult}")
    # a run without a grid block refines the default grid, if its experiment reads one
    blocks = _EXPERIMENTS[out["experiment"]][1] if "experiment" in out else ()
    if resolution_mult != 1 and ("grid" in out or "grid" in blocks):
        n_per_side = int(_build_grid(out).n_per_side * resolution_mult)
        out["grid"] = {**out.get("grid", {}), "n_per_side": n_per_side}
        check = out.get("check") if out.get("experiment") == "scaling" else None
        if isinstance(check, dict) and type(check.get("target_n")) is int:
            # the target grid refines with the source: G n_src / n_tgt stays as written
            out["check"] = {**check, "target_n": int(check["target_n"] * resolution_mult)}
    return out


def run(configs, output_dir, workers: int = 1, seed: int | None = None,
        resolution_mult: float = 1.0) -> int:
    """Run a list of experiment configs, write reports and a summary, return exit status."""
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    resolved = [_resolve(c, seed, resolution_mult) for c in configs]
    with open(outdir / "resolved_config.yaml", "w") as fh:
        yaml.dump({"runs": resolved}, fh, Dumper=_YAML_DUMPER, sort_keys=True)

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


def _suite_wegner() -> list[dict]:
    runs = []
    for L in (2, 4):
        runs.append({"experiment": "wegner", "label": f"uniform-L{L}",
                     "grid": {"d": 1, "L": L, "n_per_side": 32},
                     "field": {"kind": "identity"},
                     "sequence": {"G": 1.0, "delta": 0.2},
                     "check": {"e_center": 12.5, "eps": 0.5, "n_samples": 200,
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
    """The runs of suite `name`; `samples` sets `check.n_samples` wherever a run has one."""
    if name != "all" and name not in _SUITES:
        raise ConfigError(f"suite: unknown name {name!r}; valid: {sorted(_SUITES) + ['all']}")
    runs = [config for key, fn in _SUITES.items() if name in ("all", key) for config in fn()]
    if samples is not None:
        for config in runs:
            if "n_samples" in config.get("check", {}):
                config["check"]["n_samples"] = samples
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
                loaded = _block(loaded, "", runs=_list).get("runs")
            return run(loaded if isinstance(loaded, list) else [loaded], args.out, **flags)
        return suite(args.name, args.out, samples=args.samples, **flags)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EigensolveError, np.linalg.LinAlgError) as exc:
        print(f"solver breakdown: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
