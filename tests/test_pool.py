"""Tests for the package's one worker pool."""

import contextlib
import hashlib
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from htmix import _pool
from htmix.distributions import DistSpec, sample
from htmix.streams import RandomStream
from test_golden import BLOCK_CORNERS, SAMPLE_SPECS


def test_import_starts_no_thread():
    code = "import threading, htmix; print(threading.active_count())"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "1"


def test_tasks_run_in_a_copy_of_the_callers_context():
    with np.errstate(over="raise"):
        assert _pool.submit(np.geterr).result(timeout=60)["over"] == "raise"
        assert [e["over"] for e in _pool.imap(lambda _: np.geterr(), range(4))] == [
            "raise"
        ] * 4
    assert _pool.submit(np.geterr).result(timeout=60)["over"] == "warn"


def test_imap_yields_in_item_order():
    def slow_first(item):
        if item == 0:
            time.sleep(0.05)
        return item, threading.current_thread().name

    out = list(_pool.imap(slow_first, range(6)))
    assert [item for item, _ in out] == list(range(6))
    assert all(name.startswith("htmix") for _, name in out)


def test_in_task_marks_pool_tasks_only():
    assert not _pool.in_task()
    assert _pool.submit(_pool.in_task).result(timeout=60)
    assert list(_pool.imap(lambda _: _pool.in_task(), range(3))) == [True] * 3
    assert not _pool.in_task()


# Sampling: the draws stay on the caller's thread and the elementwise
# transforms run in blocks on the pool, so the bytes of a sample must not
# depend on the worker count, nor on whether sample() runs inside a task
# (where the blocks run inline), for every route and its corners. BLOCK_N
# spans several blocks and ends in a short one.
BLOCK_N = 3 * 2**16 + 5


@contextlib.contextmanager
def _workers(count):
    saved = _pool._POOL
    _pool._POOL = pool = ThreadPoolExecutor(count, thread_name_prefix="htmix")
    try:
        yield
    finally:
        _pool._POOL = saved
        # Cancelling what is still queued lets a deadlocked task end.
        pool.shutdown(cancel_futures=True)


def _all_routes():
    specs = [(key, DistSpec(family, params, method))
             for key, family, params, method in SAMPLE_SPECS]
    specs += [(f"{family}{params}{method}", DistSpec(family, params, method))
              for family, params, method, _ in BLOCK_CORNERS]
    for index, (key, spec) in enumerate(specs):
        yield key, spec, RandomStream(5, index)


def _sample_bytes(spec, stream):
    return sample(spec, BLOCK_N, stream).values.tobytes()


def test_sample_bytes_do_not_depend_on_worker_count():
    digests = {}
    for workers in (1, 2, 8):
        with _workers(workers):
            for key, spec, stream in _all_routes():
                digest = hashlib.sha256(_sample_bytes(spec, stream)).hexdigest()
                digests.setdefault(key, set()).add(digest)
    assert {key: len(d) for key, d in digests.items()} == {key: 1 for key in digests}


def test_sample_inside_a_task_on_one_worker_runs_inline():
    with _workers(1):
        for key, spec, stream in _all_routes():
            inline = _pool.submit(_sample_bytes, spec, stream).result(timeout=60)
            assert inline == _sample_bytes(spec, stream), key
