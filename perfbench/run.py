"""Benchmark of the rcadmm identifier; see perfbench/README.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from a plain checkout: it puts the checkout's `src/` on the import
path itself and works from any working directory.  With `--trace 0` it
prints the end-to-end metrics, with `--trace 1` the per-layer metrics of
a traced run and the tracing overhead.  The last line of standard output
is one JSON object; the exit code is 0 only when every check passed.
"""
import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
NAMES = ("study-cli", "to-tol", "large-lift", "study-pool")
# One BLAS thread per process on every workload: the arrays are small
# (a 41x20 SVD, a 920x60 or 3640x120 Q), so threads add synchronisation
# rather than speed, and study-pool's two workers then use two cores.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_PROBE = "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import rcadmm; print(time.perf_counter() - t)"


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds():
    """`import rcadmm` timed in fresh interpreters, one sample each."""
    samples = []
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None):
    args = parse(argv)
    if not (SRC / "rcadmm" / "__init__.py").is_file():
        print(f"error: no rcadmm sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import rcadmm

    imports = [time.perf_counter() - start]
    if Path(rcadmm.__file__).resolve().parent != SRC / "rcadmm":
        print(f"error: imported rcadmm from {rcadmm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workloads.WORKLOADS[args.workload](), tracing, str(workdir), imports)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, tracing, workdir, imports):
    problems = wl.prepare(workdir)
    tracer = tracing.Tracer() if args.trace else None

    builds = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        if tracer:
            tracer.install()
        start = time.perf_counter()
        inputs = wl.build(args.seed)
        builds.append(time.perf_counter() - start)
        if tracer:
            tracer.uninstall()

    # Whole rounds of the same operations until the next one would not fit.
    # A traced run alternates untraced and traced rounds, for the overhead.
    plain, traced = [], []
    attempted = failed = 0
    iterations = set()
    fingerprint = None
    began = time.perf_counter()
    while True:
        tracing_round = tracer is not None and len(plain) > len(traced)
        if tracing_round:
            tracer.phase = len(traced) + 1
            tracer.install()
        start = time.perf_counter()
        out = wl.run(inputs)
        elapsed = time.perf_counter() - start
        if tracing_round:
            tracer.uninstall()
        (traced if tracing_round else plain).append(elapsed)
        result = wl.check(inputs, out)
        attempted += result.attempted
        failed += result.failed
        iterations.add(result.iterations)
        problems += result.problems
        if fingerprint is None and hasattr(wl, "fingerprint"):
            fingerprint = wl.fingerprint(inputs)
        rounds = len(plain) + len(traced)
        enough = rounds >= (2 if tracer else 1)
        if enough and time.perf_counter() - began + elapsed > args.seconds:
            break
    if len(iterations) != 1:
        problems.append(f"accepted iterations differ between identical rounds: {sorted(iterations)}")

    if fingerprint:
        print(f"{wl.name} output fingerprint (seed {args.seed}): sha256 {fingerprint}")
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    if tracer:
        tracer.write(str(OUT / f"trace-{wl.name}.csv.gz"))
        layer = tracer.layer_metrics(len(traced))
        layer["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(plain) - 1.0
        )
        metrics = {name: {"value": value, "unit": unit(name)} for name, value in layer.items()}
    else:
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak_mb = (self_kb + wl.pool_workers * worker_kb) / 1024.0
        wall = statistics.median(plain)
        setup = statistics.median(imports + import_seconds()) + statistics.median(builds)
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "iters_per_s": {"value": next(iter(iterations)) / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


def unit(name):
    """Unit of a per-layer metric, read off its name."""
    for suffix, label in (("_us", "us"), ("_s", "s"), ("bytes", "B"), ("_pct", "%"), ("_per_iter", "rows/iter")):
        if name.endswith(suffix):
            return label
    return "count"

if __name__ == "__main__":
    sys.exit(main())
