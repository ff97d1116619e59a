"""Tests for the package's one worker pool."""

import subprocess
import sys
import threading
import time

import numpy as np

from htmix import _pool


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
