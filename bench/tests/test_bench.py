"""Tests of the benchmark's own code: tracer, workloads at tiny size, compare rule."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import run
import stats
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY = workloads.Sizes(corpus_counts=(3, 1, 2), mil_epochs=2, min_steps=3, setup_repeats=2)


def _fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_on_synthetic_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    tracer = tracing.Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    ids = {n: tracer.name_id(n) for n in ("root", "a", "a1", "b")}
    root = tracer.open(ids["root"])
    a = tracer.open(ids["a"])
    a1 = tracer.open(ids["a1"])
    tracer.close(a1)
    tracer.close(a)
    b = tracer.open(ids["b"])
    tracer.close(b)
    tracer.close(root)
    arr = tracer.arrays()
    assert list(arr["parent"]) == [-1, root, a, root]
    own = tracing.self_times(arr["start"], arr["end"], arr["parent"])
    assert list(own) == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == arr["end"][root] - arr["start"][root]


def test_stats_percentile_leaves_ten_beyond_p90():
    values = list(range(100))
    assert stats.percentile(values, 0.9) == 89
    assert stats.beyond(100, 0.9) == 10
    assert stats.beyond(99, 0.9) == 9


def _patchmil_bindings():
    from patchmil import metrics, mil, selfsup  # noqa: F401  (metrics loads lazily)
    from patchmil import tensor as T

    bound = {}
    for name, module in sys.modules.items():
        if name == "patchmil" or name.startswith("patchmil."):
            bound.update({(name, k): v for k, v in vars(module).items()})
    for cls in (T.Tensor, selfsup.Adam, mil.Adam):
        bound.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return bound


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_restores_wrappers_and_repeats_counts(workload, tmp_path):
    before = _patchmil_bindings()
    first = workloads.run(workload, 0, 0.01, True, tmp_path / "a", sizes=TINY,
                          trace_path=tmp_path / "spans.npz")
    after = _patchmil_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "a wrapper was left installed"
    assert first["failed"] == 0, first["failures"]
    assert first["metrics"]["tensor.matmul.calls"]["value"] > 0
    assert 0.9 < first["metrics"]["trace.run.coverage"]["value"] <= 1.0
    spans = np.load(tmp_path / "spans.npz")
    assert len(spans["start"]) == len(spans["parent"]) > 0

    second = workloads.run(workload, 0, 0.01, True, tmp_path / "b", sizes=TINY)
    counts = [n for n, m in first["metrics"].items()
              if m["unit"] in ("count", "nodes/step", "bytes", "patches")]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}
    assert first["quality"] == second["quality"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, tmp_path, capsys):
    expected = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for trace in (0, 1):
        record = workloads.run(workload, 0, 0.01, bool(trace), tmp_path / str(trace), sizes=TINY)
        run.emit(record)
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected[trace]
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert record["quality"].keys() == {"loss_final", "test_acc"}


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == tracing.per_layer_spec()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    assert list(spec["workloads"]) == list(workloads.WORKLOADS)


def test_run_without_source_tree_exits_nonzero(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mil-train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [v * 1.2 for v in base]
    slower = [v * 0.8 for v in base]
    assert compare.verdict(base, faster, "higher", 0.1, 0, 0) == ("gain", 10)
    assert compare.verdict(base, slower, "higher", 0.1, 0, 0)[0] == "regression"
    assert compare.verdict(base, base, "higher", 0.1, 0, 0)[0] == "no regression"
    assert compare.verdict(base, faster, "higher", 0.1, 1, 0)[0].startswith("gain void")
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1, 0, 0)[0] == "unresolved"


def _pair_rows(base: list, head: list) -> list:
    rows = []
    for i, (b, h) in enumerate(zip(base, head)):
        for side, value in (("base", b), ("head", h)):
            metrics = {m["name"]: 1.0 for m in BENCHMARK["end_to_end"]}
            metrics["step_ms_p50"] = value
            rows.append({"pair": i, "side": side, "workload": "mil-train", "failed": 0,
                         "metrics": metrics, "quality": {}})
    return rows


def test_compare_exit_codes():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.judge(_pair_rows(steady, steady)) == 0
    assert compare.judge(_pair_rows(steady, [v * 1.4 for v in steady])) == compare.REGRESSION
    # a noisy base hides how much worse the head is: unresolved, and not a pass
    assert compare.judge(_pair_rows(noisy, [v * 1.4 for v in noisy])) == compare.UNRESOLVED
