"""The ordered fork-pool maps: order, window, inherited state, errors, dead workers,
nested maps, no leftovers, no orphans."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from patchmil import backbone as bb
from patchmil import selfsup as S
from patchmil import tensor as T
from patchmil.errors import FormatError, WorkerError
from patchmil.parallel import fork_imap, fork_map


@pytest.fixture
def one_cpu():
    """Pin the process to one CPU, so that one worker takes every item."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def test_results_come_back_in_input_order():
    def slow_first(i):
        time.sleep(0.05 if i < 2 else 0.0)  # the first items finish last
        return i * i

    assert fork_map(slow_first, range(12)) == [i * i for i in range(12)]
    assert multiprocessing.active_children() == []


def test_closure_and_default_dtype_reach_the_children():
    table = {i: np.full(3, i) for i in range(5)}  # reached through the closure, not pickled

    def lookup(i):
        return os.getpid(), T.parameter(table[i]).data

    with T.default_dtype(np.float64):
        out = fork_map(lookup, range(5))
    assert all(pid != os.getpid() for pid, _ in out)
    assert [a.dtype for _, a in out] == [np.float64] * 5
    assert [a.tolist() for _, a in out] == [[float(i)] * 3 for i in range(5)]


def test_no_items_starts_no_child():
    assert fork_map(lambda i: os._exit(1), []) == []


def test_child_exception_keeps_its_type_and_message():
    def refuse(i):
        if i == 3:
            raise FormatError(f"item {i} is malformed")
        return i

    with pytest.raises(FormatError, match="item 3 is malformed") as info:
        fork_map(refuse, range(8))
    assert "refuse" in str(info.value.__cause__)  # the child's traceback
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("die_at", [0, 5])
def test_dying_worker_raises_worker_error(die_at):
    def die(i):
        if i == die_at:
            os._exit(1)
        return i

    start = time.monotonic()
    with pytest.raises(WorkerError, match="exited without a result"):
        fork_map(die, range(8))
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []


def test_pool_works_again_after_an_error():
    with pytest.raises(ZeroDivisionError):
        fork_map(lambda i: 1 // (i - 2), range(4))
    assert fork_map(lambda i: -i, range(4)) == [0, -1, -2, -3]
    assert multiprocessing.active_children() == []


def test_imap_yields_in_order_with_at_most_window_in_flight():
    taken = []

    def items():
        for i in range(10):
            taken.append(i)
            yield i

    def slow_first(i):
        time.sleep(0.05 if i % 3 == 0 else 0.0)
        return i * i

    for k, result in enumerate(fork_imap(slow_first, items(), 3)):
        assert result == k * k
        # item k is being yielded; items k + 1 to k + 3 are in flight
        assert len(taken) == min(10, k + 4)
    assert multiprocessing.active_children() == []


def test_imap_of_no_items_starts_no_child():
    assert list(fork_imap(lambda i: os._exit(1), [], 2)) == []


def test_imap_closed_early_joins_every_child():
    results = fork_imap(lambda i: i + 1, range(100), 2)
    assert next(results) == 1
    results.close()
    assert multiprocessing.active_children() == []


def test_imap_child_exception_keeps_its_type():
    def refuse(i):
        if i == 4:
            raise FormatError(f"item {i} is malformed")
        return i

    results = fork_imap(refuse, range(8), 2)
    assert [next(results) for _ in range(4)] == [0, 1, 2, 3]
    with pytest.raises(FormatError, match="item 4 is malformed") as info:
        next(results)
    assert "refuse" in str(info.value.__cause__)  # the child's traceback
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("die_at", [0, 5])
def test_imap_dying_worker_raises_worker_error(die_at):
    def die(i):
        if i == die_at:
            os._exit(1)
        return i

    start = time.monotonic()
    with pytest.raises(WorkerError, match="exited without a result"):
        list(fork_imap(die, range(8), 2))
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []


def test_nested_maps_in_a_worker_that_takes_several_items(one_cpu):
    assert fork_map(lambda i: sum(fork_map(lambda j: i * j, range(3))), range(8)) == [
        3 * i for i in range(8)
    ]
    nested = fork_map(lambda i: list(fork_imap(lambda j: i * j, range(3), 2)), range(4))
    assert nested == [[0, i, 2 * i] for i in range(4)]
    assert multiprocessing.active_children() == []


def test_pretrain_in_a_worker_equals_pretrain_here(one_cpu):
    arch = bb.ArchConfig(side=16, local_channels=(4, 4, 8), global_dim=8, embed_dim=8, parts=2)
    cfg = S.SSLConfig(arch=arch, epochs=2, batch_size=4, lr=0.01, seed=5)
    patches = np.random.default_rng(3).uniform(size=(10, 16, 16, 3))
    groups = ("student", "student_heads", "teacher", "teacher_heads")

    def params(_):
        state = S.pretrain(patches, cfg)
        return {g: {k: v.data for k, v in getattr(state, g).items()} for g in groups}

    here = params(None)
    for there in fork_map(params, range(2)):  # one worker: the second pretrain follows the first
        for g in groups:
            assert there[g].keys() == here[g].keys()
            for key in here[g]:
                assert there[g][key].tobytes() == here[g][key].tobytes(), (g, key)
    assert multiprocessing.active_children() == []


def test_ctrl_c_stops_the_caller_and_no_child_writes_a_traceback():
    code = (
        "import time\n"
        "from patchmil.parallel import fork_imap\n"
        "for r in fork_imap(lambda i: time.sleep(0.05) or i, range(10**6), 2):\n"
        "    print(r, flush=True)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    # a shell's background job starts with SIGINT ignored; the child must get Python's handler
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        assert proc.stdout.readline() == "0\n"
        os.killpg(proc.pid, signal.SIGINT)  # Ctrl-C reaches the whole process group
        _, err = proc.communicate(timeout=20)
    finally:
        proc.kill()
    assert proc.returncode != 0
    assert err.count("Traceback") == 1 and err.rstrip().endswith("KeyboardInterrupt")
    with pytest.raises(ProcessLookupError):  # no child is left in the group
        os.killpg(proc.pid, 0)


def test_children_end_when_the_caller_dies_without_shutting_its_pool(tmp_path):
    code = (
        "import os, time\n"
        "from patchmil.parallel import fork_imap\n"
        "for r in fork_imap(lambda i: time.sleep(0.01) or i, range(10**6), 2):\n"
        "    if r == 3:\n"
        "        os._exit(3)  # no pool shutdown, no join\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    # a file, not a pipe: an orphaned child holding the pipe would block a reader
    with open(tmp_path / "out.txt", "w") as out:
        proc = subprocess.Popen([sys.executable, "-c", code], env=env, start_new_session=True,
                                stdout=out, stderr=out)
    try:
        assert proc.wait(timeout=30) == 3
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break  # no child is left in the group
            time.sleep(0.05)
        else:
            pytest.fail("pool children outlived their caller by 5 s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
