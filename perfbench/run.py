"""Benchmark launcher for inghamlab.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 20 --trace 0

Builds nothing: the package runs from ``src`` of the checkout.  The
launcher pins BLAS to one thread, measures set-up in fresh processes,
then runs the workload in a process of its own (so peak RSS is the
workload's) and prints every metric by name and unit.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced replay with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPS = 3
TIME_LIMIT_S = 170.0
BLAS_THREADS = "1"

# metric name -> unit, as BENCHMARK.json lists them
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name == "io.bytes_written":
        return "bytes"
    if name.endswith(("_dev", "_ratio", "_frac")):
        return "fraction"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # one BLAS thread: below nproc on any machine, and steadier when
    # other processes share the cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: list[str], deadline: float) -> list[str]:
    """Run worker.py to completion; its stdout lines, or SystemExit."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SystemExit("error: time limit reached before the run finished")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
            env=child_env(), capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise SystemExit("error: worker exceeded the time limit") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker exited with {proc.returncode}")
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "inghamlab" / "cli.py").is_file():
        print("error: no inghamlab sources under src/ of this checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    run_args = ["run", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPS):
            lines = run_child(["setup"], deadline)
            setups.append(json.loads(lines[-1])["setup_s"])
    lines = run_child(run_args, deadline)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    values = dict(result["metrics"])
    if args.trace:
        units = {name: per_layer_unit(name) for name in values}
    else:
        values["setup_s"] = statistics.median(setups)
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
        units = END_TO_END_UNITS
    for name in sorted(values):
        print(f"metric {args.workload} {name} = {values[name]:.6g} {units[name]}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
