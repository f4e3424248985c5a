"""Ordered maps over forked worker processes, one per available CPU.

`fork_map(fn, items)` equals `[fn(item) for item in items]`, and
`fork_imap(fn, items, window)` yields the same results one by one with at
most `window` items in flight, for a consumer that works on each result as
it comes. The function reaches the children through a module global set
before they are forked, so a closure needs no pickling and every child
starts with the parent's state (its `tensor.default_dtype`, say); only the
items and results are pickled. Both need the `fork` start method, and a
child may run a map of its own. On Linux a child ends when the process that
made its pool does, even one that dies without shutting the pool down.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os
import signal
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from itertools import islice

from .errors import WorkerError

_FN = None  # the mapped function, inherited by the forked children


def _call(item):
    return _FN(item)


def _child_init(creator: int) -> None:
    """Set up a pool child: ignore Ctrl-C, and end when the pool's creator ends."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    prctl = getattr(ctypes.CDLL(None), "prctl", None)  # Linux only
    if prctl is not None:
        prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
        prctl.restype = ctypes.c_int
        prctl(1, signal.SIGKILL, 0, 0, 0)  # 1: PR_SET_PDEATHSIG, from <linux/prctl.h>
    if os.getppid() != creator:  # the creator ended before prctl took effect
        os._exit(1)


@contextmanager
def _pool(fn, workers: int):
    """A pool of `workers` forked children that call `fn`, all joined on exit.

    An exception raised by `fn` in a child is raised with its type (the
    child's traceback as its cause). A child that exits without a result
    raises WorkerError.
    """
    global _FN
    caller_fn, _FN = _FN, fn  # a pool child that maps again restores its own fn
    # children fork at the first submit, so they see _FN; on Ctrl-C the caller
    # stops the pool, and a child finishes the item it has
    pool = ProcessPoolExecutor(workers, mp_context=mp.get_context("fork"),
                               initializer=_child_init, initargs=(os.getpid(),))
    try:
        yield pool
    except BrokenProcessPool as exc:
        raise WorkerError(f"a worker process exited without a result: {exc}") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        _FN = caller_fn


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


def fork_map(fn, items) -> list:
    """`[fn(item) for item in items]`, computed in forked children, in input order."""
    items = list(items)
    if not items:
        return []
    workers = min(len(items), _cpus())
    # about 8 chunks a worker: sending one item costs the parent about 0.3 ms
    # (rendering one corpus image takes about 2 ms), and the parent shares
    # the CPUs with the workers
    chunk = max(1, len(items) // (8 * workers))
    with _pool(fn, workers) as pool:
        return list(pool.map(_call, items, chunksize=chunk))


def fork_imap(fn, items, window: int):
    """Yield `fn(item)` for each item, computed in forked children, in input order.

    `items` is consumed lazily: at most `window` items are in flight, that
    is taken from `items` and not yet yielded, so the children run at most
    `window` items ahead of the consumer. Closing the generator joins every
    child.
    """
    items = iter(items)
    first = list(islice(items, window))
    if not first:
        return
    with _pool(fn, min(len(first), _cpus())) as pool:
        pending = deque(pool.submit(_call, item) for item in first)
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(_call, item) for item in islice(items, 1))
            yield result
