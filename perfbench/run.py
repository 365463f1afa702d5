"""Run one mgipm benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload par1d-3lvl --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: the package is imported from
the checkout's ``src`` directory, never from an installed copy.  With
``--trace 0`` the last line of standard output holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The
line before it records the environment and the sample counts.  The exit
code is 0 only if every solve converged and passed its output checks.
"""

import os

# BLAS threads must be pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# glibc mallopt parameters
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def pin_allocator():
    """Fix glibc's malloc thresholds; return whether that succeeded.

    By default glibc serves every block above 128 KiB with a fresh mmap and
    adapts that threshold to the blocks the process has freed so far.  The
    solver's temporaries sit near that size, so the default makes a solve
    page-fault on each temporary and makes its speed depend on what ran
    before it in the process.  Fixed thresholds keep such blocks on the
    heap.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        return (libc.mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
                and libc.mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1)
    except (OSError, AttributeError):
        return False


def _import_program():
    """Import mgipm from the checkout; exit 2 if the checkout lacks it."""
    if not os.path.isfile(os.path.join(SRC, "mgipm", "__init__.py")):
        print(f"perfbench: no mgipm sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    import mgipm

    if os.path.dirname(os.path.dirname(os.path.abspath(mgipm.__file__))) != SRC:
        print(f"perfbench: mgipm imported from {mgipm.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def environment(allocator_pinned):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "malloc_thresholds_pinned": allocator_pinned,
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pinned = pin_allocator()
    _import_program()
    import bench
    import tracer

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r};"
                     f" choose from {', '.join(bench.WORKLOADS)}")
    seed = bench.DEFAULT_SEED if args.seed is None else args.seed
    out_dir = os.path.join(ROOT, ".perfbench_out", args.workload)
    if args.trace:
        tally, values, samples = bench.measure_traced(args.workload, seed, args.seconds, out_dir)
        units = tracer.PER_LAYER
    else:
        tally, values, samples = bench.measure(args.workload, seed, args.seconds, out_dir)
        units = bench.END_TO_END
    metrics = {key: {"value": values[key], "unit": unit}
               for key, unit in units if key in values}
    correct = tally.failed == 0 and len(metrics) == len(units)
    info = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "samples": {key: len(vals) for key, vals in samples.items()},
        "fastest": {key: min(vals) for key, vals in samples.items() if vals},
        "slowest": {key: max(vals) for key, vals in samples.items() if vals},
        "failed_ratio": tally.failed / max(tally.attempted, 1),
        "env": environment(pinned),
    }
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(os.path.join(out_dir, f"result-seed{seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**info, **result, "raw_samples": samples}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
