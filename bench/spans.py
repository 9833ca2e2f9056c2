"""Span tracing of divlab's layers, installed from outside the package.

`Instrumentation.install()` replaces the public functions of every divlab
module (and a few methods) with wrappers that open a span named
`<module>.<function>` and update counters when the call returns.  divlab's
modules import each other's functions by name, so each function is replaced
at every module attribute that is bound to it, not only where it is defined.

A span's self time is its duration minus the union of its children's
intervals; summed over a module, that is the time the module itself was busy.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from collections import defaultdict

LAYERS = ("lattice", "fields", "operators", "spectral", "bounds", "verify", "cli", "io")

# field constructors whose self time is reported together as fields.build
FIELD_BUILDERS = ("constant_field", "identity_field", "sampled_field", "scalar_field",
                  "checkerboard_field", "mollify")

# private functions that are layer boundaries worth a span of their own
EXTRA_SPANS = ("cli._spectrum_upto",)

# (module, class, attribute, span name); cached properties are wrapped inside
METHODS = (
    ("lattice", "ScalarField", "__call__", "lattice.scalar_field"),
    ("lattice", "SubsetMask", "face_mask", "lattice.face_mask"),
    ("lattice", "SubsetMask", "node_mask", "lattice.node_mask"),
    ("lattice", "SubsetMask", "full_node_mask", "lattice.full_node_mask"),
    ("operators", "DiscreteOperator", "shifted", "operators.shifted"),
)


class Tracer:
    """In-memory span recorder for one thread: name, start, end and parent per span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.args: dict[int, tuple] = {}
        self.stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)

    def open(self, name: str, args: tuple | None = None) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(math.nan)
        self.stack.append(i)
        if args is not None:
            self.args[i] = args
        self.starts.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = self.clock()
        self.stack.pop()

    def enclosing(self, name: str) -> int | None:
        """Index of the innermost open span with this name."""
        for i in reversed(self.stack):
            if self.names[i] == name:
                return i
        return None

    def self_times(self) -> list[float]:
        return self_times(self.starts, self.ends, self.parents)


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the union of its children's intervals (clipped to it)."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = _union_length((max(starts[c], s), min(ends[c], e)) for c in children[i])
        out.append((e - s) - covered)
    return out


class Instrumentation:
    """Installs and removes the tracing wrappers on the imported divlab package."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        self._signatures: dict[str, inspect.Signature] = {}
        self._upto_spectra: set[int] = set()

    def install(self) -> None:
        divlab = importlib.import_module("divlab")
        mods = {name: importlib.import_module(f"divlab.{name}") for name in LAYERS}
        hooks = self._hooks()
        wrapped = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                span = f"{layer}.{name}"
                if name.startswith("_") and span not in EXTRA_SPANS:
                    continue
                wrapped[obj] = self._wrap(span, obj, hooks.get(span))
        for mod in (divlab, *mods.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, name, wrapped[obj])
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(mods[layer], cls_name)
            orig = cls.__dict__[attr]
            if isinstance(orig, functools.cached_property):
                new = functools.cached_property(self._wrap(span, orig.func, hooks.get(span)))
                new.__set_name__(cls, attr)
            else:
                new = self._wrap(span, orig, hooks.get(span))
            self._set(cls, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def _set(self, owner, name, new) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _wrap(self, span: str, fn, after=None):
        tracer = self.tracer
        keep_args = after is not None
        self._signatures[span] = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(span, (args, kwargs) if keep_args else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(i, out)
                tracer.args.pop(i, None)
            return out

        return traced

    # -- counters, updated when a span closes -------------------------------

    def _bound(self, i: int) -> dict:
        """Arguments of the call that opened span i, by parameter name."""
        args, kwargs = self.tracer.args[i]
        bound = self._signatures[self.tracer.names[i]].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _hooks(self) -> dict:
        c = self.tracer.counters
        tr = self.tracer

        def mask(points_of):
            def hook(i, out):
                c["lattice.mask_points"] += points_of(*tr.args[i][0])
            return hook

        def assemble(i, out):
            c["operators.assemble.nnz"] += out.matrix.nnz

        def eigensolve(i, out):
            c["spectral.eigensolve.pairs_returned"] += out.k
            c["spectral.eigensolve.dense_calls"] += bool(out.complete)
            if out.k:
                c["spectral.eigensolve.max_residual"] = max(
                    c["spectral.eigensolve.max_residual"], float(out.residuals.max()))
            w = tr.enclosing("verify.wegner_mc")
            if w is not None:
                # the smearing chain reads only pairs in [E - 3 eps, E + 3 eps]
                a = self._bound(w)
                lo, hi = a["e_center"] - 3 * a["eps"], a["e_center"] + 3 * a["eps"]
                c["spectral.eigensolve.pairs_used"] += int(
                    ((out.energies >= lo) & (out.energies <= hi)).sum())
            elif tr.enclosing("cli._spectrum_upto") is None:
                c["spectral.eigensolve.pairs_used"] += out.k

        def spectrum_upto(i, out):
            self._upto_spectra.add(id(out))

        def spectrum_check(i, out):
            # pairs of a grown spectrum that the check reads: its in-window set
            key = id(self._bound(i)["spectrum"])
            if key in self._upto_spectra:
                self._upto_spectra.discard(key)
                used = len(out.observed.get("per_eigenfunction", ())) \
                    or int(out.observed.get("span_dim", 0))
                c["spectral.eigensolve.pairs_used"] += used

        def count_eigenvalues(i, out):
            c["spectral.count_eigenvalues.dim_max"] = max(
                c["spectral.count_eigenvalues.dim_max"], self._bound(i)["op"].dim)

        def wegner_mc(i, out):
            c["verify.wegner_mc.samples"] += out.inputs["n_samples"]
            c["verify.wegner_mc.samples_failed"] += out.observed["failures"]

        def save_report_json(i, out):
            c["io.bytes_written"] += os.path.getsize(self._bound(i)["path"])

        hooks = {
            "lattice.face_mask": mask(lambda m, axis: math.prod(m.grid.face_shape(axis))),
            "lattice.node_mask": mask(lambda m: m.grid.n_nodes),
            "lattice.full_node_mask": mask(lambda m: math.prod(m.grid.full_shape)),
            "operators.assemble": assemble,
            "spectral.eigensolve": eigensolve,
            "spectral.count_eigenvalues": count_eigenvalues,
            "cli._spectrum_upto": spectrum_upto,
            "verify.wegner_mc": wegner_mc,
            "io.save_report_json": save_report_json,
        }
        for name in ("ucp_function_check", "ucp_gradient_check", "projector_ucp_check"):
            hooks[f"verify.{name}"] = spectrum_check
        return hooks


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass of `wall_s` seconds."""
    own = tracer.self_times()
    calls: defaultdict[str, int] = defaultdict(int)
    self_s: defaultdict[str, float] = defaultdict(float)
    for name, t in zip(tracer.names, own):
        calls[name] += 1
        self_s[name] += t
    layer_self = {layer: sum(t for n, t in self_s.items() if n.split(".")[0] == layer)
                  for layer in LAYERS}
    c = tracer.counters
    returned = c["spectral.eigensolve.pairs_returned"]
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update({
        "lattice.face_mask.calls": calls["lattice.face_mask"],
        "lattice.face_mask.self_s": self_s["lattice.face_mask"],
        "lattice.mask_points": c["lattice.mask_points"],
        "lattice.subset_norm2.self_s": self_s["lattice.subset_norm2"],
        "lattice.scalar_field.self_s": self_s["lattice.scalar_field"],
        "fields.sample_alloy.calls": calls["fields.sample_alloy"],
        "fields.sample_alloy.self_s": self_s["fields.sample_alloy"],
        "fields.build.self_s": sum(self_s[f"fields.{n}"] for n in FIELD_BUILDERS),
        "operators.assemble.calls": calls["operators.assemble"],
        "operators.assemble.self_s": self_s["operators.assemble"],
        "operators.assemble.nnz": c["operators.assemble.nnz"],
        "operators.perturbation_operator.self_s": self_s["operators.perturbation_operator"],
        "operators.shifted.self_s": self_s["operators.shifted"],
        "spectral.eigensolve.calls": calls["spectral.eigensolve"],
        "spectral.eigensolve.dense_calls": c["spectral.eigensolve.dense_calls"],
        "spectral.eigensolve.self_s": self_s["spectral.eigensolve"],
        "spectral.eigensolve.pairs_returned": returned,
        "spectral.eigensolve.useful_ratio":
            c["spectral.eigensolve.pairs_used"] / returned if returned else 0.0,
        "spectral.eigensolve.max_residual": c["spectral.eigensolve.max_residual"],
        "spectral.count_eigenvalues.calls": calls["spectral.count_eigenvalues"],
        "spectral.count_eigenvalues.self_s": self_s["spectral.count_eigenvalues"],
        "spectral.count_eigenvalues.dim_max": c["spectral.count_eigenvalues.dim_max"],
        "spectral.lifting_curve.self_s": self_s["spectral.lifting_curve"],
        "verify.checks": sum(n for name, n in calls.items() if name.startswith("verify.")),
        "verify.wegner_mc.samples": c["verify.wegner_mc.samples"],
        "verify.wegner_mc.samples_failed": c["verify.wegner_mc.samples_failed"],
        "cli.execute.self_s": self_s["cli.execute"],
        "io.save_report_json.calls": calls["io.save_report_json"],
        "io.save_report_json.self_s": self_s["io.save_report_json"],
        "io.bytes_written": c["io.bytes_written"],
        "trace.wall_s": wall_s,
        "trace.uncovered_s": wall_s - sum(layer_self.values()),
    })
    return out
