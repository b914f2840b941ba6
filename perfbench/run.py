"""compsum benchmark: one workload per process, single-threaded, checked.

    python3 perfbench/run.py --workload oracle --seed 0 --seconds 15 --trace 0

Runs whole rounds of the workload's operations until ``--seconds`` of
timed work have passed, checks every output, and prints one JSON object as
the last line of standard output::

    {"correct": true, "attempted": 90, "failed": 9, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace
1`` reports its per-layer metrics, measured by wrapping the package's
public functions (see tracing.py), and writes the spans to
``perfbench/out/``. See README.md for the workloads and the metrics.
"""

import os

# One BLAS/OpenMP thread in this process and in every process it starts.
# These must be set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# fresh interpreters timed per run for setup_s, spread over the run so
# that a slow spell of the machine touches only some of them; the median
# is reported
SETUP_PROBES = 9


def import_compsum():
    """Import the package from this checkout's ``src``, never from
    anywhere else on the path."""
    sys.path.insert(0, SRC)
    try:
        import compsum
    except ImportError as exc:
        raise SystemExit(f"cannot import compsum from {SRC}: {exc}")
    origin = os.path.realpath(compsum.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"compsum was imported from {origin}, not {SRC}")
    return compsum


def blas_threads():
    """OpenBLAS's own thread count, read through ctypes; None if no
    OpenBLAS library is loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def env_info():
    import numpy

    from compsum import backend_name

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=30).stdout.strip()
    except OSError:
        commit = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "backend": backend_name(),
        "commit": commit or "unknown",
    }


def build(name, seed, size, workdir):
    import workloads

    return workloads.WORKLOADS[name](seed, workloads.SIZES[name][size],
                                     workdir)


class SetupProbe:
    """Times fresh interpreters that import compsum, build the workload's
    inputs and exit (``--setup-probe``)."""

    def __init__(self, args):
        self.cmd = [sys.executable, os.path.abspath(__file__),
                    "--setup-probe", "--workload", args.workload,
                    "--seed", str(args.seed), "--size", args.size]
        self.times = []

    def run_until(self, count):
        while len(self.times) < count:
            t0 = time.perf_counter()
            proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=120)
            self.times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise SystemExit(f"setup probe failed:\n{proc.stderr}")


def measure(workload, seconds, tracer=None, probe=None):
    """Whole rounds until ``seconds`` of timed work. Checks, and the setup
    probes due by then, run between rounds, outside the timing."""
    times, items, failed, errors = [], 0, 0, []
    while not times or sum(times) < seconds:
        if probe is not None:
            done = min(1.0, sum(times) / seconds) if seconds else 1.0
            probe.run_until(max(1, math.ceil(SETUP_PROBES * done)))
        t0 = time.perf_counter()
        if tracer is None:
            out = workload.run_round()
        else:
            with tracer.span("round"):
                out = workload.run_round(tracer)
        times.append(time.perf_counter() - t0)
        n, f, e = workload.check(out)
        items, failed, errors = items + n, failed + f, errors + e
    if probe is not None:
        probe.run_until(SETUP_PROBES)
    return times, items, failed, errors


def declared_metrics(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def run(args, workdir):
    workload = build(args.workload, args.seed, args.size, workdir)
    if not args.trace:
        probe = SetupProbe(args)
        times, items, failed, errors = measure(workload, args.seconds,
                                               probe=probe)
        values = {
            "setup_s": statistics.median(probe.times),
            "wall_s": statistics.median(times),
            "items_per_s": items / len(times) / statistics.median(times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = declared_metrics("end_to_end")
    else:
        from tracing import Tracer

        # one untraced round first: the baseline for the tracing overhead
        base, items, failed, errors = measure(workload, 0.0)
        tracer = Tracer()
        tracer.install()
        try:
            times, n, f, e = measure(workload, args.seconds, tracer)
        finally:
            tracer.remove()
        items, failed, errors = items + n, failed + f, errors + e
        if tracer.start_count_mismatches():
            errors.append("gradient evaluations could not be split by start")
        values = tracer.layer_metrics(len(times))
        values["trace.overhead_pct"] = \
            100.0 * (statistics.median(times) / base[0] - 1.0)
        declared = declared_metrics("per_layer")
        tracer.write(
            os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed,
             "rounds": len(times), "metrics": values})
    if set(values) != set(declared):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(declared))} "
                         f"differ from BENCHMARK.json")
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": items,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": declared[k]}
                    for k in declared},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle", "learning_bound", "verify",
                                 "train"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="import compsum, build the inputs and exit")
    args = parser.parse_args(argv)

    import_compsum()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        if args.setup_probe:
            build(args.workload, args.seed, args.size, workdir)
            return 0
        env = env_info()
        print(f"env: {json.dumps(env)}", file=sys.stderr)
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(dict(result, env=env, args=vars(args)), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
