"""One ordered map over forked worker processes, one per available CPU.

`fork_map(fn, items)` equals `[fn(item) for item in items]`. The function
reaches the children through a module global set before they are forked, so
a closure needs no pickling and every child starts with the parent's state
(its `tensor.default_dtype`, say); only the items and results are pickled.
It needs the `fork` start method.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .errors import WorkerError

_FN = None  # the mapped function, inherited by the forked children


def _call(item):
    return _FN(item)


def fork_map(fn, items) -> list:
    """`[fn(item) for item in items]`, computed in forked children, in input order.

    An exception raised by `fn` in a child is raised here with its type. A
    child that exits without a result raises WorkerError. Every child has
    been joined when this returns or raises.
    """
    global _FN
    items = list(items)
    if not items:
        return []
    workers = min(len(items), len(os.sched_getaffinity(0)))
    # about 8 chunks a worker: sending one item costs the parent about 0.3 ms
    # (rendering one corpus image takes about 2 ms), and the parent shares
    # the CPUs with the workers
    chunk = max(1, len(items) // (8 * workers))
    _FN = fn
    # children fork at the first submit, so they see _FN
    pool = ProcessPoolExecutor(workers, mp_context=mp.get_context("fork"))
    try:
        return list(pool.map(_call, items, chunksize=chunk))
    except BrokenProcessPool as exc:
        raise WorkerError(f"a worker process exited without a result: {exc}") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        _FN = None
