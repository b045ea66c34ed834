"""The one worker thread that the encoder and the recurrent layer hand
work to, and the one rule for when they do.

A pass over more than one row may run two independent parts of its work
at once: the recurrent layer its two directions, an encoder block its
two batch halves. ``both`` runs the first part on a persistent worker
thread, started on first use, and the second on the calling thread, and
returns once both have finished. Whether it hands work over at all is
``threaded``: not for one row, where the hand-off costs more than the
second core saves; not where the process may use one CPU; and not where
the process's BLAS runs more than one thread, since the two parts' matrix
products would then contend for the same cores and run slower than one
part at a time.

Whatever runs on the worker writes only arrays the calling thread made
before the hand-off: it takes nothing from an arena, touches no tape and
allocates no whole-batch array.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading

# the thread-count getters of the BLAS builds numpy ships with
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads", "MKL_Get_Max_Threads")


@functools.cache
def blas_threads() -> int | None:
    """The thread count of the BLAS library loaded into this process,
    read once; None where it cannot be found (no ``/proc/self/maps``, or
    no known getter)."""
    import numpy  # noqa: F401 -- loads the BLAS whose count is read
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() or "mkl" in line.lower()})
    except OSError:
        return None
    import ctypes
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def threaded(b: int) -> bool:
    """Whether a pass over ``b`` rows hands half its work to the worker:
    only for more than one row, more than one usable CPU and a BLAS not
    known to run more than one thread."""
    if b < 2:
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return cpus > 1 and (blas_threads() or 1) < 2


_WORKER = None
_WORKER_LOCK = threading.Lock()


def _worker():
    """The one worker thread, started on first use; a forked child starts
    its own."""
    global _WORKER
    with _WORKER_LOCK:
        if _WORKER is None:
            # imported here, so that a process that never hands work over
            # (one row, one CPU) does not load it
            from concurrent.futures import ThreadPoolExecutor
            _WORKER = ThreadPoolExecutor(1, thread_name_prefix="sebertnets-worker")
        return _WORKER


def _forget_worker() -> None:
    # in a forked child: the parent's worker thread does not exist there,
    # and another parent thread may have held the lock
    global _WORKER, _WORKER_LOCK
    _WORKER, _WORKER_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def both(b: int, first, second):
    """``(first(), second())``, two independent parts of one pass over
    ``b`` rows. When ``threaded(b)``, ``first`` runs on the worker thread,
    in the caller's context (numpy's error state), while ``second`` runs
    here; else both run here, ``first`` first. Returns once both have
    finished, and only then raises an exception either raised."""
    if not threaded(b):
        return first(), second()
    future = _worker().submit(contextvars.copy_context().run, first)
    try:
        out = second()
    finally:
        future.exception()  # waits until the worker's part has finished
    return future.result(), out
