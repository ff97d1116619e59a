"""The package's one worker pool.

Sampling, ``ks_two_sample``, ``identities`` and ``limits`` share it. It is a
``ThreadPoolExecutor`` with one worker per CPU the process may run on,
created on first use, so importing htmix starts no thread. Every task runs
in a copy of the submitting thread's context, so context variables such as
numpy's ``errstate`` reach the work done on the pool, and in that copy
``in_task()`` is true.

Tasks never submit work to the pool and wait on it: a task that waited on
another task could hold the last free worker, so only callers outside the
pool fan out, and code that may run either way (sampling, reached from the
CLI and from ``verify``'s side tasks and ``limits``' summation blocks, and
``ks_two_sample``) asks ``in_task()`` and runs inline on a pool thread.
Results are always collected in submission order, so output never depends
on the number of workers.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterable, Iterator

_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()
_IN_TASK = contextvars.ContextVar("htmix_pool_task", default=False)


def executor() -> ThreadPoolExecutor:
    """The package's worker pool, created on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:
                workers = os.cpu_count() or 1
            _POOL = ThreadPoolExecutor(workers, thread_name_prefix="htmix")
        return _POOL


def in_task() -> bool:
    """True in code running as a task on the pool."""
    return _IN_TASK.get()


def _task(fn: Callable, *args):
    _IN_TASK.set(True)
    return fn(*args)


def submit(fn: Callable, /, *args) -> Future:
    """Run fn(*args) on the pool in a copy of the caller's context."""
    return executor().submit(contextvars.copy_context().run, _task, fn, *args)


def imap(fn: Callable, items: Iterable) -> Iterator:
    """fn(item) for every item on the pool; results are yielded in item order.

    All items are submitted at once, as with ``Executor.map``, each in its
    own copy of the caller's context.
    """
    calls = [(contextvars.copy_context(), item) for item in items]
    return executor().map(lambda call: call[0].run(_task, fn, call[1]), calls)
