"""The package's one worker pool, shared by ``limits`` and ``identities``.

The pool is a ``ThreadPoolExecutor`` with one worker per CPU the process
may run on, created on first use, so importing htmix starts no thread.
Every task runs in a copy of the submitting thread's context, so context
variables such as numpy's ``errstate`` reach the work done on the pool.

Tasks never submit work to the pool and wait on it: a task that waited on
another task could hold the last free worker, so only callers outside the
pool fan out. Results are always collected in submission order, so output
never depends on the number of workers.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterable, Iterator

_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


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


def submit(fn: Callable, /, *args) -> Future:
    """Run fn(*args) on the pool in a copy of the caller's context."""
    return executor().submit(contextvars.copy_context().run, fn, *args)


def imap(fn: Callable, items: Iterable) -> Iterator:
    """fn(item) for every item on the pool; results are yielded in item order.

    All items are submitted at once, as with ``Executor.map``, each in its
    own copy of the caller's context.
    """
    calls = [(contextvars.copy_context(), item) for item in items]
    return executor().map(lambda call: call[0].run(fn, call[1]), calls)
