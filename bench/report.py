"""Run every workload untraced and traced, and print every metric.

    python3 bench/report.py [--seed 0] [--workloads ssl-pretrain ...]

Each run is its own process (``bench/run.py``) and lasts BENCHMARK.json's
``run_seconds``. For each workload this prints every end-to-end metric with
its unit and sample count, the minor page faults of the timed loop, the
failed ratio, the per-layer metrics of the traced run grouped by layer, the
tracing overhead (traced minus untraced items/s) and whether the traced run
reproduced the untraced loss_final and test_acc. Exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES as WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]
LAYERS = ("tensor", "backbone", "selfsup", "mil", "pipeline", "data", "bench", "trace")


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run bench/run.py of checkout `root` in a child process; returns its record."""
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    for line in proc.stdout.splitlines():
        if line.startswith("# record "):
            return json.loads(line[len("# record "):])
    raise RuntimeError(f"no record line in the output of {' '.join(cmd)}")


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _samples(name: str, rec: dict) -> str:
    s = rec["samples"]
    if name == "setup_s":
        return f"median of {s['setups']} set-ups"
    if name == "items_per_s":
        return f"{s['items']} items in {s['steps']} steps"
    if name == "step_ms_p50":
        return f"{s['steps']} steps"
    if name == "step_ms_p90":
        return f"{s['steps']} steps, {s['beyond_p90']} beyond"
    if name in ("loss_final", "test_acc"):
        return "first round"
    return "whole process"


def report(untraced: dict, traced: dict) -> bool:
    """Print one workload's section; returns True when every check passed."""
    env = untraced["env"]
    print(f"== {untraced['workload']}  seed {untraced['seed']}, {untraced['seconds']:g} s, "
          f"closed loop, 1 client ==")
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}, {env['machine']}")
    print(f"timings are for the pinned allocator: {env['malloc']}")
    print(f"  {'end-to-end (untraced)':<28}{'value':>14}  {'unit':<10}samples")
    for name, m in {**untraced["metrics"], **untraced["quality"]}.items():
        print(f"  {name:<28}{_fmt(m['value']):>14}  {m['unit']:<10}{_samples(name, untraced)}")
    faults = untraced["minor_faults"]
    print(f"  {'minor_faults':<28}{_fmt(faults['loop']):>14}  {'count':<10}"
          f"timed loop, checks left out ({faults['per_step']:.6g} per step)")
    same = traced["quality"] == untraced["quality"]
    failed = untraced["failed"] + traced["failed"] + (0 if same else 1)
    attempted = untraced["attempted"] + traced["attempted"] + 1
    print(f"  {'failed_ratio':<28}{_fmt(failed / attempted):>14}  {'fraction':<10}"
          f"{failed} of {attempted} checks (untraced, traced, traced-vs-untraced)")
    for name in untraced["failures"] + traced["failures"]:
        print(f"    failed: {name}")
    if not same:
        print(f"    failed: traced quality {traced['quality']} != untraced {untraced['quality']}")
    fast = untraced["metrics"]["items_per_s"]["value"]
    slow = traced["metrics"]["trace.run.items_per_s"]["value"]
    print(f"  tracing overhead: traced {slow:.6g} - untraced {fast:.6g} = {slow - fast:+.6g} "
          f"items/s ({(slow - fast) / fast:+.1%}; one process each, so host speed drift "
          f"between them is included)")
    print(f"  traced run reproduces loss_final and test_acc: {'yes' if same else 'NO'}")
    print(f"  per-layer (traced: one set-up and one round of {traced['samples']['steps']} steps)")
    metrics = traced["metrics"]
    for layer in LAYERS:
        names = [n for n in metrics if n.split(".", 1)[0] == layer]
        for name in names:
            m = metrics[name]
            print(f"    {name:<40}{_fmt(m['value']):>16}  {m['unit']}")
    print()
    return failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args(argv)
    root = BENCH_DIR.parent
    ok = True
    for workload in args.workloads:
        untraced = run_once(root, workload, args.seed, RUN_SECONDS, 0)
        traced = run_once(root, workload, args.seed, RUN_SECONDS, 1)
        ok = report(untraced, traced) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
