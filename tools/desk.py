"""Seed spread of the desk experiment, written as one BENCH_<n>.json record.

The desk is the fixed-seed experiment of `tests/test_acceptance.py`: the
default synthetic corpus, then `pipeline.ablation` with the slim encoder and
the per-stage budgets. This tool loads that file by path and takes the desk
from it: the configs of `desk_configs(seed)`, the fine-tune budget and the
gates' `gate_margins`, so the desk has one definition.
Each seed runs in its own child process, so one seed's heap does not shape
the next one's peak RSS.

For each seed the record holds the stage wall seconds (corpus generation plus
`ablation`'s stages), the total wall seconds, CPU seconds (the child itself
plus its reaped children), peak RSS (the child's own, and the largest of its
reaped children's, such as the block embedders `parallel.fork_map` forks, so
memory moved into a child still shows), the child's own peak RSS at the end of
each stage, the full report and its sha256, and the margin of each of the three
desk gates. Peak RSS only rises, so a stage raised the child's peak when its
mark is above that of the stage that ended before it; `ablation` alternates
its probes and SSL rows, so each of the two is marked at its last end. Over
the seeds it holds the mean, std and min of each of these numbers, the
`DESK_*` constants, the environment and the git revision.

The gates are judged at `DESK_SEED` only: the exit code is 1 when one fails
there. A gate that fails at another seed is recorded, not re-seeded. Five
seeds take about 20 minutes on a 2-vCPU host; run them for a change that
moves float order, not for every change.

    PYTHONPATH=src python3 tools/desk.py --out BENCH_1.json
    PYTHONPATH=src python3 tools/desk.py --one 3 --out seed3.json   # one seed, in process
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GATE_FILE = ROOT / "tests" / "test_acceptance.py"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS = (0, 1, 2, 3, 4)  # holds the gate file's DESK_SEED, where the gates are judged


def gate_file():
    """The acceptance gate file as a module: the desk's constants, configs and gates."""
    spec = importlib.util.spec_from_file_location("desk_gate_file", GATE_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def desk_constants() -> dict:
    """The DESK_* names of the acceptance gate file."""
    return {k: v for k, v in vars(gate_file()).items() if k.startswith("DESK_")}


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def run_seed(seed: int) -> dict:
    """One desk at `seed`, in this process; returns its record."""
    from patchmil import data as D
    from patchmil import metrics as MM
    from patchmil import pipeline as P

    gate = gate_file()
    corpus_cfg, ssl_cfg, mil_cfg = gate.desk_configs(seed)
    marks = {}
    timed = P._timed

    @contextmanager
    def marked(seconds, stage):  # `ablation`'s stage timer, with the peak RSS at its end
        with timed(seconds, stage):
            yield
        marks[stage] = _own_peak_rss_mb()

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="desk-") as tmp:
        corpus = Path(tmp) / "corpus"
        D.generate_corpus(corpus_cfg, corpus)
        corpus_s = time.perf_counter() - start
        corpus_mark = _own_peak_rss_mb()
        P._timed = marked
        try:
            report, stage_seconds = P.ablation(corpus, ssl_cfg, mil_cfg, gate.DESK_FT_EPOCHS)
        finally:
            P._timed = timed
    wall = time.perf_counter() - start
    own, children = (resource.getrusage(who)
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {
        "seed": seed,
        "stage_s": {"corpus": corpus_s, **stage_seconds},
        "stage_peak_rss_mb": {"corpus": corpus_mark, **{k: marks[k] for k in stage_seconds}},
        "wall_s": wall,
        "cpu_s": own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime,
        "peak_rss_mb": own.ru_maxrss / 1024,  # Linux reports KiB
        "children_peak_rss_mb": children.ru_maxrss / 1024,  # the largest reaped child's
        "report": report,
        "report_sha256": hashlib.sha256(MM.report_json(report).encode()).hexdigest(),
        "gates": gate.gate_margins(report),
    }


def numbers(record: dict) -> dict:
    """A seed record's numbers by flat name: times, memory, report metrics, gate margins."""
    flat = {f"stage_s.{k}": v for k, v in record["stage_s"].items()}
    flat.update({f"stage_peak_rss_mb.{k}": v for k, v in record["stage_peak_rss_mb"].items()})
    flat.update(wall_s=record["wall_s"], cpu_s=record["cpu_s"], peak_rss_mb=record["peak_rss_mb"],
                children_peak_rss_mb=record["children_peak_rss_mb"])
    for row, metrics in record["report"].items():
        flat.update({f"report.{row}.{k}": v for k, v in metrics.items()})
    flat.update({f"gates.{k}.margin": g["margin"] for k, g in record["gates"].items()})
    return flat


def summary(records: list) -> dict:
    """Mean, std (sample; 0 for one seed) and min of each number over the seeds."""
    columns = [numbers(r) for r in records]
    out = {}
    for name in columns[0]:
        values = [col[name] for col in columns]
        out[name] = {
            "mean": statistics.fmean(values),
            "std": statistics.stdev(values) if len(values) > 1 else 0.0,
            "min": min(values),
        }
    return out


def _git(*args) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def environment() -> dict:
    import numpy
    import scipy

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),  # the CPUs parallel.fork_map sizes its pools by
        "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def run_children(seeds) -> list:
    """Each seed's record from its own child process, in seed order."""
    records = []
    with tempfile.TemporaryDirectory(prefix="desk-records-") as tmp:
        for seed in seeds:
            path = Path(tmp) / f"seed{seed}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--one", str(seed),
                   "--out", str(path)]
            subprocess.run(cmd, check=True)
            r = json.loads(path.read_text())
            print(f"desk: seed {seed} {r['wall_s']:.0f} s, cpu {r['cpu_s']:.0f} s, "
                  f"peak RSS {r['peak_rss_mb']:.1f} MB (children {r['children_peak_rss_mb']:.1f})",
                  file=sys.stderr)
            records.append(r)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--one", type=int, metavar="SEED",
                        help="run this one seed in process and write only its record")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.one is not None:
        args.out.write_text(json.dumps(run_seed(args.one), indent=2) + "\n")
        return 0
    constants = desk_constants()
    desk_seed = constants["DESK_SEED"]
    if desk_seed not in SEEDS:
        parser.error(f"DESK_SEED {desk_seed} is not among the seeds {SEEDS}")
    records = run_children(SEEDS)
    bench = {
        "what": "desk experiment of tests/test_acceptance.py, one child process per seed",
        "env": environment(),
        "desk_constants": constants,
        "desk_seed": desk_seed,
        "seeds": records,
        "summary": summary(records),
    }
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    failed = [name for r in records if r["seed"] == desk_seed
              for name, g in r["gates"].items() if not g["passed"]]
    if failed:
        print(f"desk: gates failed at seed {desk_seed}: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
