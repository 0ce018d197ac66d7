"""Contiguous row blocks of one whole-array stage, run across the CPUs.

numpy's ufuncs and BLAS calls release the GIL, so the blocks of a stage run in
parallel on a process-wide thread pool.  A stage whose rows depend only on
themselves computes the same bits however its rows are split.  The worker count
is the number of CPUs this process may run on; there is no setting for it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_WORKERS = _usable_cpus()
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    global _pool, _pool_lock
    # a pool inherited across fork has no threads (its submit would hang), and
    # the lock may have been held by a thread that does not exist in the child
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(_WORKERS - 1, 1), thread_name_prefix="topoloc-block")
        return _pool


def run_blocks(fn, rows: int, size: int) -> None:
    """Call ``fn(lo, hi)`` on the blocks ``[0, size)``, ``[size, 2 size)``, ... of ``range(rows)``.

    The calling thread and ``_WORKERS - 1`` pool threads take the blocks in
    order from one queue, so a thread that another process slows down takes
    fewer of them.  With one worker, or at most one block, the blocks run
    inline, in order.  Every block taken finishes before this returns; after a
    block raises no further block is taken, and the lowest failing block's
    exception is raised, as a serial loop over the blocks would raise it.
    """
    starts = range(0, rows, size)
    if _WORKERS < 2 or len(starts) < 2:
        for lo in starts:
            fn(lo, min(lo + size, rows))
        return
    queue, queue_lock, errors = iter(starts), threading.Lock(), {}

    def take_blocks():
        while not errors:
            with queue_lock:
                lo = next(queue, None)
            if lo is None:
                return
            try:
                fn(lo, min(lo + size, rows))
            except Exception as error:  # raised in the caller's thread below
                errors[lo] = error

    pool = _executor()
    helpers = [pool.submit(take_blocks) for _ in range(min(_WORKERS, len(starts)) - 1)]
    take_blocks()
    for helper in helpers:
        helper.result()
    if errors:
        raise errors[min(errors)]
