"""Tests for the package's one worker pool."""

import contextlib
import hashlib
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from htmix import _pool, cli, identities
from htmix.distributions import DistSpec, sample
from htmix.limits import run_thm7
from htmix.streams import RandomStream
from test_golden import BLOCK_CORNERS, SAMPLE_SPECS


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


# Far above what any call below takes on one worker.
TIMEOUT_S = 30


def _finishes(fn):
    """fn() on a helper thread; fails, instead of hanging, if it has not
    returned after TIMEOUT_S, as when a pool task waits on the pool."""
    out = []

    def run():
        try:
            out.append(fn())
        except BaseException as exc:
            out.append(exc)

    waiter = threading.Thread(target=run, daemon=True)
    waiter.start()
    waiter.join(TIMEOUT_S)
    assert not waiter.is_alive(), f"no result after {TIMEOUT_S} s"
    if isinstance(out[0], BaseException):
        raise out[0]
    return out[0]


def _in_a_task(fn, *args):
    """fn(*args) run as one pool task."""
    return _finishes(lambda: next(_pool.imap(lambda _: fn(*args), [None])))


def test_import_starts_no_thread():
    code = "import threading, htmix; print(threading.active_count())"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "1"


def test_tasks_run_in_a_copy_of_the_callers_context():
    def over(_):
        return np.geterr()["over"]

    with np.errstate(over="raise"):
        assert list(_pool.imap(over, range(4))) == ["raise"] * 4
    assert list(_pool.imap(over, range(4))) == ["warn"] * 4


def test_imap_yields_in_item_order():
    def slow_first(item):
        if item == 0:
            time.sleep(0.05)
        return item, threading.current_thread().name

    out = list(_pool.imap(slow_first, range(6)))
    assert [item for item, _ in out] == list(range(6))
    assert all(name.startswith("htmix") for _, name in out)


def test_nested_imap_runs_on_the_calling_worker():
    def name(_):
        return threading.current_thread().name

    def outer(_):
        return name(None), list(_pool.imap(name, range(3)))

    with _workers(2):
        out = _finishes(lambda: list(_pool.imap(outer, range(4))))
    for worker, nested in out:
        assert worker.startswith("htmix")
        assert nested == [worker] * 3


# Sampling: the draws stay on the caller's thread and the elementwise
# transforms run in blocks on the pool, so the bytes of a sample must not
# depend on the worker count, nor on whether sample() runs inside a task
# (where the blocks run inline), for every route and its corners. BLOCK_N
# spans several blocks and ends in a short one.
BLOCK_N = 3 * 2**16 + 5


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
            inline = _in_a_task(_sample_bytes, spec, stream)
            assert inline == _sample_bytes(spec, stream), key


def _verify_bytes():
    report = identities.verify(identities.get_case("I09"), {"d": 0.5}, 2000)
    return report.to_json().encode()


def _thm7_bytes():
    report = run_thm7(2.0, 1.0, (100, 300), 2000, 5, summand="uniform")
    return report.to_json().encode() + report.final_sample.tobytes()


def _csv_bytes():
    values = sample(DistSpec("normal", {}), BLOCK_N, RandomStream(5)).values
    return b"".join(cli._sample_csv(values))


@pytest.mark.parametrize("call", [_verify_bytes, _thm7_bytes, _csv_bytes])
def test_fan_out_inside_a_task_on_one_worker_runs_inline(call):
    # Each of these fans out through _pool.imap; in a task on a one-worker
    # pool, waiting on the pool would never return.
    with _workers(1):
        assert _in_a_task(call) == call()
