"""divlab benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload suite_all|wegner_mc|ucp_2d --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Each pass of the workload is a fresh process
(`workload.py`): one caller, one check at a time, `--workers` 1, BLAS pinned
to BLAS_THREADS threads before numpy loads.  Passes repeat until the next one
would overrun `--seconds` (at least MIN_PASSES).  With `--trace 0` the end-to-end
metrics are medians over the passes, times in seconds of the reference machine
(see PROBE_REF_S); with `--trace 1` passes alternate
between untraced and traced, and the per-layer metrics are medians over the
traced ones.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from workload import WORKLOADS  # noqa: E402  (stdlib-only import)

BLAS_THREADS = 1          # no larger than nproc anywhere; one thread is the steadiest
MIN_PASSES = 3
MIN_SETUPS = 5            # setup_s is the median of at least this many process starts
PASS_TIMEOUT_S = 90       # a run must end within 180 s even if a pass hangs
# workload.probe()'s time on the machine the baseline was measured on: gated times are
# measured seconds * PROBE_REF_S / probe seconds, i.e. seconds on that machine
PROBE_REF_S = 0.33
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git (may not be a repo)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts the workload processes of one run and collects their JSON records."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                    **{v: str(BLAS_THREADS) for v in THREAD_VARS}}
        self.n = 0

    def spawn(self, traced: bool = False, setup_only: bool = False, extra=()) -> dict:
        """One workload process; a crash or timeout is one failed operation."""
        self.n += 1
        out = self.workdir / f"pass-{self.n}"
        cmd = [sys.executable, str(BENCH_DIR / "workload.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--trace", str(int(traced)), "--out", str(out)]
        if setup_only:
            cmd.append("--setup-only")
        cmd += extra
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=self.env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"attempted": 1, "failed": 1, "problems": ["pass timed out"]}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        try:
            rec = json.loads(lines[-1])
        except (IndexError, ValueError):
            tail = proc.stderr.strip().splitlines()[-3:]
            return {"attempted": 1, "failed": 1,
                    "problems": [f"pass exited {proc.returncode}: {' | '.join(tail)}"]}
        if Path(rec["divlab"]) != ROOT / "src" / "divlab":
            sys.exit(f"divlab was imported from {rec['divlab']}, not from this checkout")
        return rec


def reference_seconds(records, key: str) -> list[float]:
    """A time of each record in seconds on the reference machine (see PROBE_REF_S)."""
    return [r[key] * PROBE_REF_S / r["probe_s"] for r in records]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "divlab" / "__init__.py").is_file():
        print(f"error: no divlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, workdir)
    passes, traced = [], []
    try:
        t_start = time.monotonic()
        while True:
            want_traced = bool(args.trace) and len(traced) < len(passes)
            rec = runner.spawn(traced=want_traced)
            (traced if want_traced else passes).append(rec)
            elapsed = time.monotonic() - t_start
            per_pass = elapsed / (len(passes) + len(traced))
            if args.trace:
                done = passes and traced
            else:
                done = len(passes) >= MIN_PASSES
            if done and elapsed + per_pass > args.seconds:
                break
        setups = [r for r in passes if "probe_s" in r]
        for _ in range(0 if args.trace else MIN_SETUPS - len(setups)):
            rec = runner.spawn(setup_only=True)
            if "probe_s" in rec:
                setups.append(rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    runs = passes + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for problem in sorted({p for r in runs for p in r.get("problems", ())}):
        print(f"check failed: {problem}")
    good = [r for r in passes if "peak_rss_mb" in r]
    machine = next((r["machine"] for r in runs if "machine" in r), {})
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": len(passes), "traced_passes": len(traced),
              "commit": git_commit(ROOT), **machine,
              "failed_frac": failed / attempted if attempted else 1.0,
              "attempted": attempted, "failed": failed}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(mc_samples_per_s="1/s", setup_raw_s="s", wall_raw_s="s", probe_s="s")
    if args.trace:
        ok_traced = [r for r in traced if "layers" in r]
        samples = {name: [r["layers"][name] for r in ok_traced]
                   for name in (ok_traced[0]["layers"] if ok_traced else {})}
        if ok_traced and good:
            samples["trace.overhead_s"] = [
                statistics.median(reference_seconds(ok_traced, "wall_s"))
                - statistics.median(reference_seconds(good, "wall_s"))]
    else:
        samples = {"setup_s": reference_seconds(setups, "setup_s"),
                   "wall_s": reference_seconds(good, "wall_s"),
                   "peak_rss_mb": [r["peak_rss_mb"] for r in good],
                   # as measured, before dividing out the host's speed
                   "setup_raw_s": [r["setup_s"] for r in setups],
                   "wall_raw_s": [r["wall_s"] for r in good],
                   "probe_s": [r["probe_s"] for r in good]}
        # printed only: it exists on the workloads that run Wegner checks
        if any(r["mc_samples"] for r in good):
            samples["mc_samples_per_s"] = [r["mc_samples"] / r["mc_s"] for r in good]
    metrics = {}
    for name, vals in samples.items():
        if not vals:
            continue
        metrics[name] = max(vals) if name.endswith("max_residual") else statistics.median(vals)
        q1, q3 = quartiles(vals)
        print(f"{name:40s} {metrics[name]:12.6g} {units.get(name, ''):6s} median of {len(vals)}"
              f" (quartiles {q1:.6g} .. {q3:.6g})")
    print(f"{'failed_frac':40s} {record['failed_frac']:12.6g} {'1':6s} {failed} of {attempted}"
          " operations (checks and Monte Carlo samples)")
    record["metrics"] = metrics
    print("record " + json.dumps(record))
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {"correct": failed == 0 and attempted > 0 and set(declared) <= set(metrics),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in declared if k in metrics}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
