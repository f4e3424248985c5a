"""The ordered fork-pool map: order, inherited state, errors, dead workers, no leftovers."""

import multiprocessing
import os
import time

import numpy as np
import pytest

from patchmil import tensor as T
from patchmil.errors import FormatError, WorkerError
from patchmil.parallel import fork_map


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
