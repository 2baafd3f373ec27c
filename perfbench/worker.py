"""One benchmark process: set-up, or one workload run in-process.

Started by ``run.py``, which supplies the environment (``PYTHONPATH``
pointing at ``src`` and pinned BLAS threads).  ``setup`` prints the
set-up seconds of a fresh process; ``run`` drives ``inghamlab.cli.main``
in a closed loop with one client and prints report lines followed by
one JSON line with the measurements.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"


def import_package() -> float:
    """Import the CLI and everything it pulls in; returns seconds taken."""
    start = time.perf_counter()
    import inghamlab.cli  # noqa: F401
    return time.perf_counter() - start


def warm_caches() -> float:
    """Fill the one-time lazy state: the group calibration constants."""
    from inghamlab import groups, schrodinger
    start = time.perf_counter()
    for sign in (1.0, -1.0):
        schrodinger.calibrate_group_constant(groups.sl2c(), sign)
    return time.perf_counter() - start


def freeze_heap():
    """Move everything set-up created out of the garbage collector's view.

    Ops then start from a collection that costs nothing, instead of
    paying at random for a full scan of the imported modules.
    """
    gc.collect()
    gc.freeze()


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    if not os.path.exists("/proc/self/maps"):
        return None
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
    }


class Runner:
    """Runs ops through the CLI, checks them, and keeps the results."""

    def __init__(self, workload: str, seed: int):
        import inghamlab.cli
        self.cli = inghamlab.cli
        self.seed = seed
        self.out_root = OUT_ROOT / f"{workload}-{os.getpid()}"
        self.results: list[dict] = []

    def run(self, index: int, op) -> dict:
        out = self.out_root / f"op{index:05d}"
        out.mkdir(parents=True)
        argv = list(op.argv) + ["--out", str(out)]
        if op.config is not None:
            (out / "config.json").write_text(json.dumps(op.config))
            argv += ["--config", str(out / "config.json")]
        sink = io.StringIO()
        error = None
        # no garbage left by the previous op or check bills this one
        gc.collect()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # an op that crashes counts as failed
                rc, error = None, traceback.format_exc(limit=3)
            latency = time.perf_counter() - start
        rng = random.Random(workloads.SEED_STRIDE * self.seed + index)
        devs, reason = checks.check(op, rc, out, rng)
        shutil.rmtree(out)
        result = {"index": index, "kind": op.kind, "latency": latency,
                  "devs": devs, "failure": error or reason}
        self.results.append(result)
        return result

    def close(self):
        shutil.rmtree(self.out_root, ignore_errors=True)


def _dev_maxima(results) -> dict:
    out = {name: 0.0 for name in checks.DEV_METRICS}
    for r in results:
        for name, value in r["devs"].items():
            out[name] = max(out[name], value)
    return out


def _report_failures(results):
    for r in results:
        if r["failure"]:
            print(f"failed op {r['index']} ({r['kind']}): {r['failure']}")


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    import_package()
    warm_caches()
    freeze_heap()
    runner = Runner(workload, seed)
    stride = workloads.stop_stride(workload)
    start = time.perf_counter()
    try:
        for index, op in enumerate(workloads.iter_ops(workload, seed)):
            if index % stride == 0 and time.perf_counter() - start >= seconds:
                break
            runner.run(index, op)
    finally:
        runner.close()
    results = runner.results
    latencies = [r["latency"] for r in results]
    failed = sum(1 for r in results if r["failure"])
    tail_value, tail_pct, beyond = stats.tail(latencies)
    _report_failures(results)
    for kind in sorted({r["kind"] for r in results}):
        lat = [r["latency"] for r in results if r["kind"] == kind]
        print(f"ops {kind}: {len(lat)} ran, median {statistics.median(lat):.4f} s")
    print(f"latency tail: p{tail_pct:.1f} of {len(latencies)} samples, "
          f"{beyond} beyond it")
    for name, value in _dev_maxima(results).items():
        print(f"check {name} = {value:.3e} (max over ops)")
    return {
        "attempted": len(results),
        "failed": failed,
        "metrics": {
            "ops_per_s": len(results) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_value,
            "ok_frac": (len(results) - failed) / len(results),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def run_traced(workload: str, seed: int) -> dict:
    """Replay the workload's trace prefix with spans.

    Set-up is traced too, so the calibration misses show.  Each of the
    first quarter of the ops (at least one) also runs untraced right
    next to its traced run, untraced first on every other op; the ratio
    of their latencies gives the tracing overhead.
    """
    import tracer as tracing
    import_package()
    ops = workloads.trace_ops(workload, seed)
    repeat = max(1, len(ops) // 4)
    tracer = tracing.Tracer()
    runner = Runner(workload, seed)
    traced, untraced = [], []
    tracer.install()
    try:
        warm_caches()
        freeze_heap()
        for index, op in enumerate(ops):
            tracer.op = index
            if index < repeat and index % 2:
                tracer.uninstall()
                untraced.append(runner.run(index, op))
                tracer.install()
            traced.append(runner.run(index, op))
            if index < repeat and not index % 2:
                tracer.uninstall()
                untraced.append(runner.run(index, op))
                tracer.install()
    finally:
        tracer.uninstall()
        runner.close()
    overhead = (sum(r["latency"] for r in traced[:repeat])
                / sum(r["latency"] for r in untraced) - 1.0)

    summary = tracer.summary()
    metrics = {}
    for name, entry in summary.items():
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
    for name in tracing.COUNTERS:
        metrics[name] = tracer.counts.get(name, 0)
    calib = summary["schrodinger.calibrate_group_constant"]["calls"]
    hits = tracer.counts.get("schrodinger.calibrate_group_constant.hits", 0)
    metrics["schrodinger.calibrate_group_constant.cache_hit_ratio"] = (
        hits / calib if calib else 0.0)
    metrics.update(_dev_maxima(traced))
    metrics["trace.overhead_frac"] = overhead

    _report_failures(traced + untraced)
    by_kind: dict[str, dict[str, float]] = {}
    for span in tracer.spans:
        kind = ops[span.op].kind if span.op >= 0 else "setup"
        per = by_kind.setdefault(kind, {})
        per[span.name] = per.get(span.name, 0.0) + span.self_s
    for kind, per in sorted(by_kind.items()):
        top = max(per, key=per.get)
        share = per[top] / sum(per.values())
        print(f"largest self time in {kind}: {top} "
              f"({per[top]:.4f} s, {100 * share:.1f}% of traced time)")
    print(f"traced {len(ops)} ops; tracing overhead {100 * overhead:+.2f}% "
          f"over {repeat} ops repeated untraced")

    OUT_ROOT.mkdir(exist_ok=True)
    spans_path = OUT_ROOT / f"spans-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "ops": [{"kind": op.kind, "argv": list(op.argv), "config": op.config}
                for op in ops],
        "spans": tracer.span_records()}))
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return {
        "attempted": len(traced),
        "failed": sum(1 for r in traced if r["failure"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        print(json.dumps({"setup_s": import_package() + warm_caches()}))
        return 0
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
