"""One pass of a benchmark workload in a fresh process, with its output check.

Run by `run.py`, once per pass:

    python3 bench/workload.py --workload NAME --seed N --trace 0|1 \
        --out DIR --spawned-at T [--setup-only] [--dump FILE]

`--spawned-at` is the parent's `time.monotonic()` just before it started this
process (the clock is system-wide), so `setup_s` covers interpreter start,
`import divlab` and config construction; the first run of `probe()` is left out.  The pass runs the workload's configs
through `divlab.cli.run` into DIR, reads the written reports back, checks them
and prints one JSON object as its last line of output.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

DEFAULT_SEED = 0
# Floats in a report may move in the last bits when a solver changes legitimately;
# values below FLOAT_ATOL are rounding noise at these grid sizes (e.g. the Neumann
# zero mode's gradient mass).
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9


def _wegner(d: int, n_per_side: int, seed: int) -> dict:
    return {"experiment": "wegner", "label": f"d{d}-L2-n{n_per_side}", "seed": seed,
            "grid": {"d": d, "L": 2, "n_per_side": n_per_side},
            "field": {"kind": "identity"},
            "sequence": {"G": 1.0, "delta": 0.2},
            "check": {"e_center": 30.0, "eps": 1.0, "n_samples": 2, "delta_plus": 0.45,
                      "dist": {"kind": "uniform", "m": 2.0}},
            # e_max = e_center + 3 eps, the narrowest window the check accepts
            "constants": {"e_min": 1.0, "e_max": 33.0}}


def suite_all(seed: int) -> list[dict]:
    from divlab import cli
    return [{**c, "seed": seed} for c in cli.suite_configs("all")]


def wegner_mc(seed: int) -> list[dict]:
    # 961 and 1331 unknowns: sized by how long the dense counting path takes
    return [_wegner(2, 16, seed), _wegner(3, 6, seed)]


def ucp_2d(seed: int) -> list[dict]:
    # 16129 unknowns (shift-invert Lanczos), 64 balls placed at random in their cells
    return [{"experiment": "ucp_gradient", "label": "sine-d2-L8-n16", "seed": seed,
             "grid": {"d": 2, "L": 8, "n_per_side": 16},
             "field": {"kind": "sine"},
             "sequence": {"G": 1.0, "delta": 0.3, "mode": "random", "seed": seed},
             "check": {"variant": "lipschitz"},
             "constants": {"e_min": 1.0, "e_max": 12.0}}]


WORKLOADS = {"suite_all": suite_all, "wegner_mc": wegner_mc, "ucp_2d": ucp_2d}

# Report fields that depend on the seed, by report-name prefix; every other field
# must match the reference at any seed.  make_reference.py verifies this list.
_WEGNER_SEEDED = ("lhs", "margin", "ratio", "observed.means", "observed.stderr",
                  "observed.fitted_exponent", "observed.exponent_in_band",
                  "observed.mean_per_volume", "observed.mean_per_volume_sq", "inputs.seed")
SEED_DEPENDENT = {
    "suite_all": {"wegner_mc": _WEGNER_SEEDED,
                  "projector_ucp": ("observed.mc_min", "observed.mc_vs_exact_rel",
                                    "inputs.seed")},
    "wegner_mc": {"wegner_mc": _WEGNER_SEEDED},
    "ucp_2d": {"ucp_gradient": ("lhs", "margin", "ratio", "observed.per_eigenfunction",
                                "observed.observed_constant")},
}


def seed_dependent(workload: str, report_name: str) -> tuple[str, ...]:
    return next((paths for prefix, paths in SEED_DEPENDENT[workload].items()
                 if report_name.startswith(prefix)), ())


def compare(got, want, path: str = "", skip=()) -> list[str]:
    """Mismatches between two JSON values: exact except floats (FLOAT_RTOL/ATOL)."""
    if path in skip:
        return []
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(set(got) ^ set(want))} differ"]
        return [m for k in want for m in compare(got[k], want[k], f"{path}.{k}".lstrip("."), skip)]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for g, w in zip(got, want) for m in compare(g, w, path, skip)]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL) or got == want:
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def check_reports(workload: str, seed: int, reports: list[dict], manifest: list[dict],
                  reference: dict | None) -> tuple[int, int, list[str]]:
    """Count attempted and failed operations (checks and MC samples) and list problems.

    A check fails when it is not `ok`, when a Wegner chain or crosscheck
    fraction is below 1, or when it differs from the stored reference (all
    fields at the reference seed, seed-independent fields at any other seed).
    A Monte Carlo sample fails when the check excluded it.
    """
    attempted = failed = 0
    problems = []
    if reference is not None and len(reference["reports"]) != len(reports):
        problems.append(f"{len(reports)} reports, reference has {len(reference['reports'])}")
        reference = None
    for i, (rep, entry) in enumerate(zip(reports, manifest)):
        bad = [] if entry["ok"] else [f"status {rep['status']} is not ok"]
        if rep["name"].startswith("wegner_mc"):
            obs = rep["observed"]
            for key in ("crosscheck_agreement", "smear_chain_fraction"):
                if obs[key] != 1:
                    bad.append(f"{key} = {obs[key]}")
            attempted += rep["inputs"]["n_samples"]
            failed += obs["failures"]
        if reference is not None:
            skip = () if seed == reference["seed"] else seed_dependent(workload, rep["name"])
            bad += compare(rep, reference["reports"][i], skip=skip)
        attempted += 1
        if bad:
            failed += 1
            problems += [f"{rep['name']}: {b}" for b in bad]
    return attempted, failed, problems


def load_reports(outdir: Path) -> tuple[list[dict], list[dict]]:
    manifest = json.loads((outdir / "manifest.json").read_text())
    reports = []
    for entry in manifest:
        rep = json.loads((outdir / entry["file"]).read_text())
        rep.pop("walltime")
        reports.append(rep)
    return reports, manifest


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter, memory-bound numpy, LAPACK and
    sparse work that does not involve divlab.

    The speed of a shared host drifts by tens of percent within minutes; run.py
    divides measured times by this probe's time in the same process to cancel
    most of that drift.
    """
    import numpy as np
    import scipy.linalg
    import scipy.sparse as sp
    rng = np.random.default_rng(0)
    a = rng.standard_normal((400, 400))
    a = a + a.T
    pts, centers = rng.standard_normal((16000, 2)), rng.standard_normal((64, 2))
    lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(20000, 20000), format="csr")
    v = rng.standard_normal(20000)
    t0 = time.perf_counter()
    for _ in range(3):
        scipy.linalg.eigh(a)
    for _ in range(2):
        ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    for _ in range(1200):
        lap @ v
    total = 0
    for i in range(500_000):
        total += i * i
    return time.perf_counter() - t0


def describe_machine(blas_threads: str) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "blas": blas, "blas_threads": blas_threads,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--dump", type=Path, help="also write the checked reports to this file")
    args = ap.parse_args(argv)

    import numpy  # noqa: F401  (divlab loads it anyway; the probe must not time imports)
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401
    t = time.monotonic()
    probe_before = probe()
    probe_wall = time.monotonic() - t   # left out of setup_s

    import divlab
    from divlab import cli, verify
    configs = WORKLOADS[args.workload](args.seed)
    t_first = time.monotonic()
    result = {"setup_s": t_first - args.spawned_at - probe_wall,
              "divlab": str(Path(divlab.__file__).resolve().parent)}
    if args.setup_only:
        result["probe_s"] = 0.5 * (probe_before + probe())
        print(json.dumps(result))
        return 0

    # valid samples and time inside wegner_mc, for mc_samples_per_s
    mc = {"samples": 0, "s": 0.0}
    wegner_mc = verify.wegner_mc

    def timed_wegner_mc(*a, **kw):
        t = time.perf_counter()
        rep = wegner_mc(*a, **kw)
        mc["s"] += time.perf_counter() - t
        mc["samples"] += rep.inputs["n_samples"] - rep.observed["failures"]
        return rep

    tracer = None
    if args.trace:
        from spans import Instrumentation, Tracer
        tracer = Tracer()
        Instrumentation(tracer).install()
    else:
        verify.wegner_mc = timed_wegner_mc

    t0 = time.perf_counter()
    try:
        cli.run(configs, args.out, workers=1)
    except Exception as exc:  # the pass is one failed run of every operation
        result.update(wall_s=time.perf_counter() - t0, attempted=len(configs),
                      failed=len(configs), problems=[f"run raised {exc!r}"])
        print(json.dumps(result))
        return 0
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reports, manifest = load_reports(args.out)
    ref_path = REFERENCE_DIR / f"{args.workload}.json"
    reference = json.loads(ref_path.read_text()) if ref_path.exists() else None
    attempted, failed, problems = check_reports(args.workload, args.seed, reports, manifest,
                                                reference)
    if reference is None:
        problems.append(f"no reference at {ref_path.name}")
        failed += 1
    if args.dump:
        args.dump.write_text(json.dumps({"seed": args.seed, "reports": reports}))
    result.update(
        wall_s=wall_s, probe_s=0.5 * (probe_before + probe()), peak_rss_mb=peak_rss_mb,
        attempted=attempted, failed=failed, problems=problems,
        mc_samples=mc["samples"], mc_s=mc["s"],
        machine=describe_machine(os.environ.get("OPENBLAS_NUM_THREADS", "unset")))
    if tracer is not None:
        from spans import layer_metrics
        result["layers"] = layer_metrics(tracer, wall_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
