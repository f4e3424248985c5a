"""Run one benchmark workload and print its result.

    python3 bench/run.py --workload ssl-pretrain --seed 0 --seconds 15 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory. With ``--trace 0`` the result holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run. The last
line of standard output is the result as one JSON object; the line before it,
starting with ``# record``, is the full record (environment, sample counts,
checks). A traced run also writes its spans to
``.bench_traces/<workload>-seed<seed>.npz``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("ssl-pretrain", "bag-infer", "mil-train")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters
MMAP_THRESHOLD = 32 << 20  # the ceiling of glibc's dynamic mmap threshold on 64-bit
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD  # what the dynamic rule pairs with that ceiling


def pin_blas_threads() -> int:
    """Pin the BLAS pool to at most 2 threads and at most nproc; call before numpy loads."""
    threads = max(1, min(2, len(os.sched_getaffinity(0))))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def pin_malloc() -> str:
    """Fix glibc's malloc thresholds at the values its dynamic rule converges to.

    Left dynamic, the thresholds depend on the process's allocation history:
    some processes reuse heap memory for numpy temporaries and others map and
    fault them in afresh, which made bag-infer requests take 19 ms in some
    runs and 32 ms in others. Fixed, every run allocates the same way.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return "default (no glibc mallopt)"
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1 or \
            mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) != 1:
        return "default (mallopt refused)"
    return f"glibc mmap threshold {MMAP_THRESHOLD}, trim threshold {TRIM_THRESHOLD}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "patchmil" / "__init__.py").is_file():
        print(f"error: no patchmil package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    malloc = pin_malloc()
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    trace_path = ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.npz"
    try:
        record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               workdir, trace_path=trace_path if args.trace else None)
        record["env"]["malloc"] = malloc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(record)
    return 0


def emit(record: dict) -> None:
    """Print the record line, then the result object as the last line."""
    print("# record " + json.dumps(record))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
