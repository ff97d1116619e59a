"""The package's one worker pool.

Sampling, ``identities``, ``limits`` and the CLI's CSV writer share it;
``verify`` runs its CF and Laplace distances on it while ``ks_two_sample``,
which uses no pool, runs on the calling thread. It is a
``ThreadPoolExecutor`` with one worker per CPU the process may run on,
created on first use, so importing htmix starts no thread. Its one entry
point is ``imap``, which also decides where the work runs.

Called from outside the pool, ``imap`` submits every item at once, each in
a copy of the caller's context, so context variables such as numpy's
``errstate`` reach the work done on the pool. Called from a task, it runs
the items inline, one by one as they are read: a task that waited on other
tasks could hold the last free worker, so no task ever waits on the pool,
and callers never need to know whether they run in one. Results always come
back in item order, so output never depends on the number of workers.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
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


def _task(fn: Callable, item):
    _IN_TASK.set(True)
    return fn(item)


def imap(fn: Callable, items: Iterable) -> Iterator:
    """fn(item) for every item, yielded in item order.

    Outside the pool every item is submitted at once, as with
    ``Executor.map``, each in its own copy of the caller's context. Inside a
    task this is the plain lazy ``map(fn, items)``.
    """
    if _IN_TASK.get():
        return map(fn, items)
    calls = [(contextvars.copy_context(), item) for item in items]
    return executor().map(lambda call: call[0].run(_task, fn, call[1]), calls)
