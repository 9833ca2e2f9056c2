"""Regenerate the stored reference reports that workload.py checks passes against.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs each workload at DEFAULT_SEED and two more seeds, requires every field
that differs between the seeds to be declared in SEED_DEPENDENT, and writes
the DEFAULT_SEED reports to bench/reference/<workload>.json.  Run it only when
a change to divlab is meant to change report contents, and say so in the change.
"""
from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

from run import Runner, ROOT
from workload import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS, compare, seed_dependent


def dump_reports(workload: str, seed: int, tmp: Path) -> list[dict]:
    runner = Runner(workload, seed, tmp)
    dump = tmp / f"{workload}-{seed}.json"
    rec = runner.spawn(extra=["--dump", str(dump)])
    if "wall_s" not in rec or not dump.exists():
        sys.exit(f"{workload} seed {seed}: pass failed: {rec.get('problems')}")
    return json.loads(dump.read_text())["reports"]


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or sorted(WORKLOADS)
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in names:
            t0 = time.monotonic()
            base = dump_reports(workload, DEFAULT_SEED, Path(tmp))
            for seed in (DEFAULT_SEED + 1, DEFAULT_SEED + 2):
                other = dump_reports(workload, seed, Path(tmp))
                for got, want in zip(other, base):
                    diff = compare(got, want, skip=seed_dependent(workload, want["name"]))
                    if diff:
                        sys.exit(f"{workload}: undeclared seed-dependent fields: {diff}")
            for rep in base:
                if rep["status"] not in ("skipped", "fail" if rep["expected_failure"] else "pass"):
                    sys.exit(f"{workload}: {rep['name']} is not ok at seed {DEFAULT_SEED}")
            path = REFERENCE_DIR / f"{workload}.json"
            path.write_text(json.dumps({"seed": DEFAULT_SEED, "reports": base}, indent=1) + "\n")
            print(f"{workload}: {len(base)} reports -> {path.relative_to(ROOT)} "
                  f"({time.monotonic() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
