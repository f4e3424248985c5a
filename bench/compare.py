"""Compare the end-to-end results of two commits.

Run alternating pairs of the parent (base) and the change (head), then judge:

    python3 bench/compare.py run BASE_CHECKOUT HEAD_CHECKOUT --pairs 10 --out pairs.jsonl
    python3 bench/compare.py judge pairs.jsonl

Pair i runs both sides at seed ``seed + i``; even pairs run the base first,
odd pairs the head first. For every workload and end-to-end metric the judge
prints one row with each side's median and quartiles and a verdict:

- ``gain``: the head wins at least 9 of 10 pairs (ties count for neither
  side) and the medians differ by more than the base's interquartile distance;
- ``regression``: the head's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json;
- ``unresolved``: the base's own spread (interquartile distance over median)
  is wider than the bound, unless every head run beats every base run;
- ``no regression`` otherwise.

A gain does not count when the head failed more checks than the base. Both
sides of a pair run at one seed, so the judge also counts the pairs whose
loss_final or test_acc differ: arithmetic drift.

Every run lasts BENCHMARK.json's ``run_seconds``, the length the bounds were
set for. The exit code is 1 on any regression or a workload with too few
pairs, else 3 if any metric is unresolved, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

import stats
from report import WORKLOADS, run_once

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
REGRESSION, UNRESOLVED = 1, 3  # exit codes


def bench_digest(root: Path) -> str:
    """Hash of a checkout's benchmark sources, to confirm both sides run the same code."""
    h = hashlib.sha256()
    for path in sorted((root / "bench").rglob("*.py")) + [root / "BENCHMARK.json"]:
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_pairs(base: Path, head: Path, pairs: int, seed: int, seconds: float,
              workloads, out: Path) -> list:
    rows = []
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        for i in range(pairs):
            sides = (("base", base), ("head", head))
            if i % 2:
                sides = sides[::-1]
            for workload in workloads:
                for order, (side, root) in enumerate(sides):
                    rec = run_once(root, workload, seed + i, seconds, 0)
                    row = {"pair": i, "order": order, "side": side, "workload": workload,
                           "seed": seed + i, "failed": rec["failed"], "attempted": rec["attempted"],
                           "metrics": {k: v["value"] for k, v in rec["metrics"].items()},
                           "quality": rec["quality"]}
                    fh.write(json.dumps(row) + "\n")
                    fh.flush()
                    rows.append(row)
                    print(f"pair {i} {side} {workload}: done", file=sys.stderr)
    return rows


def verdict(base: list, head: list, better: str, bound: float, head_failed: int,
            base_failed: int) -> tuple:
    """(verdict, head wins) for one metric's paired base and head values."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    b_med, h_med = statistics.median(base), statistics.median(head)
    b_q1, _, b_q3 = stats.quartiles(base)
    worse_share = sign * (b_med - h_med) / abs(b_med) if b_med else 0.0
    head_beats_all = all(sign * (h - b) > 0 for h in head for b in base)
    if stats.spread(base) > bound and not head_beats_all:
        return "unresolved", wins
    if worse_share > bound:
        return "regression", wins
    if wins >= 0.9 * len(base) and abs(h_med - b_med) > (b_q3 - b_q1):
        return ("gain" if head_failed <= base_failed else "gain void: more checks failed"), wins
    return "no regression", wins


def judge(rows: list) -> int:
    """Print one row per workload and metric; returns the exit code."""
    code = 0
    print(f"{'workload':<14}{'metric':<14}{'base median [q1, q3]':>34}"
          f"{'head median [q1, q3]':>34}  wins  verdict")
    for workload in sorted({r["workload"] for r in rows}):
        by_side = {"base": {}, "head": {}}
        quality = {"base": {}, "head": {}}
        failed = {"base": 0, "head": 0}
        for r in rows:
            if r["workload"] == workload:
                by_side[r["side"]][r["pair"]] = r["metrics"]
                quality[r["side"]][r["pair"]] = r["quality"]
                failed[r["side"]] += r["failed"]
        pairs = sorted(set(by_side["base"]) & set(by_side["head"]))
        drift = sum(quality["base"][p] != quality["head"][p] for p in pairs)
        print(f"{workload:<14}loss_final and test_acc differ in {drift} of {len(pairs)} pairs; "
              f"failed checks: base {failed['base']}, head {failed['head']}")
        if len(pairs) < 4:
            print(f"{workload:<14}too few complete pairs ({len(pairs)}) to judge")
            code = REGRESSION
            continue
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            base = [by_side["base"][p][name] for p in pairs]
            head = [by_side["head"][p][name] for p in pairs]
            v, wins = verdict(base, head, metric["better"], metric["bound"],
                              failed["head"], failed["base"])
            if v == "regression":
                code = REGRESSION
            elif v == "unresolved" and code != REGRESSION:
                code = UNRESOLVED
            cells = []
            for values in (base, head):
                q1, med, q3 = stats.quartiles(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{workload:<14}{name:<14}{cells[0]:>34}{cells[1]:>34}"
                  f"  {wins:>2}/{len(pairs):<2} {v}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run_p = sub.add_parser("run", help="run alternating pairs, then judge them")
    run_p.add_argument("base", type=Path)
    run_p.add_argument("head", type=Path)
    run_p.add_argument("--pairs", type=int, default=10)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    run_p.add_argument("--out", type=Path,
                       default=BENCH_DIR.parent / ".bench_results" / "pairs.jsonl")
    judge_p = sub.add_parser("judge", help="judge pairs written by `run`")
    judge_p.add_argument("pairs_file", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "run":
        base, head = args.base.resolve(), args.head.resolve()
        if bench_digest(base) != bench_digest(head):
            print("error: the two checkouts carry different benchmark code", file=sys.stderr)
            return 2
        rows = run_pairs(base, head, args.pairs, args.seed, BENCHMARK["run_seconds"],
                         args.workloads, args.out)
    else:
        rows = [json.loads(line) for line in args.pairs_file.read_text().splitlines() if line]
    return judge(rows)


if __name__ == "__main__":
    sys.exit(main())
