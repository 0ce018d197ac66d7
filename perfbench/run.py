"""Run one workload of the topoloc benchmark and print its report.

From the root of a checkout:

    python3 perfbench/run.py --workload lcd-s2 --seed 1 --seconds 20 --trace 0

The process pins the BLAS/OpenMP pools to one thread before numpy loads,
imports ``topoloc`` from the checkout's ``src/`` (and from nowhere else),
sets the workload up several times, then runs whole rounds of operations
until ``--seconds`` have passed and checks every round's outputs.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it holds the machine
facts and diagnostics.  Reports and span traces are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Pool-size variables of OpenBLAS, OpenMP, MKL and friends.  One thread:
# with a second busy process on a 2-CPU machine, OpenBLAS's default pool
# made per-frame times wander by tens of percent between identical runs.
POOL_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
POOL_SIZE = 1

# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "frames_per_s": "1/s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
}
LAYER_UNITS = {
    "motion.calls": "count",
    "motion.busy_s": "s",
    "motion.call_ms_p50": "ms",
    "motion.calls_per_frame": "calls/frame",
    "measurement.calls": "count",
    "measurement.busy_s": "s",
    "measurement.call_ms_p50": "ms",
    "measurement.bytes_computed": "bytes",
    "measurement.calls_per_frame": "calls/frame",
    "filtering.forward_busy_s": "s",
    "filtering.smooth_busy_s": "s",
    "filtering.decide_calls": "count",
    "filtering.decide_busy_s": "s",
    "tasks.self_s": "s",
    "formats.read_s": "s",
    "formats.write_s": "s",
    "simulate.world_s": "s",
    "simulate.render_s": "s",
    "mapping.build_map_s": "s",
    "mapping.n_nodes": "count",
    "evaluate.label_s": "s",
    "evaluate.score_s": "s",
    "trace.overhead_pct": "%",
}


def pin_pools():
    if "numpy" in sys.modules:
        raise RuntimeError("numpy loaded before the BLAS pool size was fixed")
    for var in POOL_VARS:
        os.environ[var] = str(POOL_SIZE)


def import_program():
    """Import ``topoloc`` from this checkout's ``src/``; fail if it is not there."""
    src = ROOT / "src"
    if not (src / "topoloc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no topoloc sources under {src}")
    sys.path.insert(0, str(src))
    import topoloc

    if Path(topoloc.__file__).resolve().parent != (src / "topoloc").resolve():
        raise SystemExit(f"perfbench: topoloc imported from {topoloc.__file__}, not {src}")


def blas_facts() -> dict:
    """BLAS name and version from numpy's build info, pool size from the library."""
    import ctypes
    import glob

    import numpy as np

    facts = {"blas": None, "blas_version": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"], facts["blas_version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, ValueError):
        pass
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas_facts(),
        "pool_vars": {v: os.environ.get(v) for v in POOL_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, workdir: Path):
    import stats
    import tracing
    import workloads

    tracer = tracing.Tracer() if traced else None
    setup_times = []
    wl = None
    for n in range(SETUP_REPEATS):
        # Every set-up starts from scratch: drop the previous one first.
        wl = None
        gc.collect()
        wl = workloads.WORKLOADS[name](seed, workdir)
        # Only the last set-up is traced, so per-layer figures cover one.
        if tracer and n == SETUP_REPEATS - 1:
            tracer.install()
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    if tracer:
        tracer.uninstall()
    wl.prepare()

    # With tracing, odd rounds run traced and even rounds untraced; the
    # difference between the two is the tracing overhead.
    rounds, traced_flags = [], []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        inp = wl.make_input(i)
        on = tracer is not None and i % 2 == 1
        if on:
            tracer.install()
        try:
            out = wl.operate(i, inp)
        finally:
            if on:
                tracer.uninstall()
        wl.check(inp, out)
        out.outputs = None
        rounds.append(out)
        traced_flags.append(on)
        i += 1
    wall = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    measured = [r for r, on in zip(rounds, traced_flags) if not on]
    latencies = [s for r in measured for s in r.op_seconds]
    diagnostics = {
        "rounds": len(rounds),
        "measure_wall_s": wall,
        "measure_user_s": usage1.ru_utime - usage0.ru_utime,
        "measure_sys_s": usage1.ru_stime - usage0.ru_stime,
        "measure_minor_faults": usage1.ru_minflt - usage0.ru_minflt,
        "setup_s_all": setup_times,
        "n_nodes": wl.n_nodes,
    }
    p95 = stats.tail_percentile(latencies, 95.0)
    diagnostics["op_ms_p95"] = None if p95 is None else 1e3 * p95
    diagnostics["op_samples"] = len(latencies)
    diagnostics.update(wl.diagnostics())

    if tracer:
        traced_rounds = [r for r, on in zip(rounds, traced_flags) if on]
        per_op = lambda rs: stats.median([r.seconds / r.attempted for r in rs])
        overhead = (
            100.0 * (per_op(traced_rounds) / per_op(measured) - 1.0)
            if traced_rounds and measured
            else 0.0
        )
        metrics = tracing.layer_metrics(tracer, wl.n_nodes, overhead)
        diagnostics["absent"] = tracer.absent
        diagnostics["spans"] = len(tracer.spans)
        units = LAYER_UNITS
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{name}-seed{seed}.spans.jsonl")
    else:
        metrics = {
            "setup_s": stats.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "frames_per_s": stats.median([r.frames / r.seconds for r in measured]),
            "ops_per_s": stats.median([r.attempted / r.seconds for r in measured]),
            "op_ms_p50": 1e3 * stats.median(latencies),
        }
        units = E2E_UNITS
    result = {
        "correct": True,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("lcd-s2", "wakeup-s2", "online-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")

    pin_pools()
    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import checks

    facts = machine_facts()
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, diagnostics = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    except checks.CheckError as exc:
        traceback.print_exc()
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        diagnostics = {"check_failed": str(exc)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "diagnostics": diagnostics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    report_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps({**info, "result": result}, indent=2) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
