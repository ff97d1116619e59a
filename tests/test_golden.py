"""Byte-level determinism: SHA-256 digests of limit reports and CLI output.

The package promises that the same seed and the same numpy version give the
same bytes. These digests pin that promise for every limit theorem and mode
(report JSON plus the raw bytes of the retained final sample) and for the
CLI's ``limit``, ``list`` and ``sample`` output. A refactor that keeps the
digests keeps the output.

numpy's Generator streams are stable within a numpy release but not
guaranteed across releases, and its special functions may move in the last
ulp, so the digests are checked only under the numpy version they were
captured with (``GOLDEN_NUMPY``); under any other version the test skips.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import numpy as np
import pytest

from htmix import cli
from htmix.limits import (
    LimitExperiment,
    run_experiment,
    run_lemma14,
    run_thm6,
    run_thm7,
    run_thm8,
)

GOLDEN_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=f"digests were captured under numpy {GOLDEN_NUMPY}",
)


def _normal_summand(rng, m):
    return rng.standard_normal(m)


REPORTS = {
    "lemma14": lambda: run_lemma14(1.0, (0.05, 0.01), 5000, 7),
    "thm6": lambda: run_thm6(1.5, 2.0, (20,), 2000, 5),
    "thm7_rademacher": lambda: run_thm7(1.5, 2.0, (50, 150), 2000, 5),
    "thm7_uniform": lambda: run_thm7(2.0, 1.0, (100,), 2000, 5, summand="uniform"),
    "thm7_custom": lambda: run_thm7(
        2.0, 1.0, (100,), 2000, 5, summand=(_normal_summand, 0.0, 1.0)
    ),
    "thm7_control": lambda: run_thm7(
        1.5, 2.0, (100,), 2000, 5, control="fixed-index"
    ),
    "thm8": lambda: run_thm8(1.5, 2.0, (50,), 2000, 5),
    "thm8_control": lambda: run_thm8(
        2.0, 1.0, (100,), 2000, 5, control="fixed-index"
    ),
    "thm8_sigma": lambda: run_thm8(
        2.0, 1.0, (80,), 2000, 9, statistic={"sigma": 2.5, "theta": -1.0}
    ),
    "experiment_thm6": lambda: run_experiment(
        LimitExperiment("thm6", 1.0, alpha=2.0, grid=(20,), replications=2000,
                        seed=11)
    ),
}

REPORT_DIGESTS = {
    "experiment_thm6": "be421cf6f52bb78d86272fab1e54d56f1f3b1881484d141f43f827059e947567",
    "lemma14": "749c487ce4cc7f933dded7f05a71a2f85e66a4a8de59bb29708cd7a68d83e06a",
    "thm6": "7d7b3695705a0065f4938753b7a22ba8ba68519f99007d54116122017c5d5e8d",
    "thm7_control": "79eb434cdcbadecd72615b9e8ab7d4132527238952fa52584fb1dbcac68dcae7",
    "thm7_custom": "5e578b0323ee845a21929bb7233068f7e15a077ff3eeaa65878b46a43b300432",
    "thm7_rademacher": "1f18246d3fd1d042d6c681979a9b8ecb3ace4d1390b5dd83093daeb44da87217",
    "thm7_uniform": "415c9d66427c1b7de9f29c82266b660108e913e86283c1f558e67fec4abb6511",
    "thm8": "8b05964b42389d47c5a92774d1b2da714b433b133b8d5b43315dd79b218bcdd2",
    "thm8_control": "70f00584c5757d512feee61e6dd7bd7130edd9bb5d02c51940908c4e562fdb9e",
    "thm8_sigma": "93a8c3d8fead4bedd1449daa6efe2a0b97d7fa5bb0a907c5e4777999c8e52fb1",
}

CLI_RUNS = {
    "limit_csv": ["limit", "--theorem", "thm6", "--alpha", "2", "--nu", "1",
                  "--n-grid", "20", "--reps", "2000", "--seed", "5"],
    "limit_json": ["limit", "--theorem", "thm8", "--alpha", "1.5", "--nu", "2",
                   "--n-grid", "100", "--reps", "2000", "--seed", "5",
                   "--format", "json"],
    "limit_lemma14": ["limit", "--theorem", "lemma14", "--nu", "0.5",
                      "--p-grid", "0.05,0.01", "--reps", "2000", "--seed", "3"],
    "limit_control": ["limit", "--theorem", "thm7", "--alpha", "1.5", "--nu", "2",
                      "--n-grid", "100", "--reps", "2000", "--seed", "5",
                      "--summand", "uniform", "--control", "fixed-index"],
    "list": ["list"],
    "sample": ["sample", "--dist", "gen-linnik", "--alpha", "1.5", "--nu", "0.8",
               "--n", "200", "--seed", "3"],
    "sample_method": ["sample", "--dist", "linnik", "--alpha", "1.2",
                      "--method", "laplace-ratio", "--n", "200", "--seed", "4"],
}

CLI_DIGESTS = {
    "limit_control": "b1bd0e356d0017e66f81133585ac0b037992369c3b7ab7ec21a19579b75bb2d2",
    "limit_csv": "3d1863681c99e26fd17655fb53ae613644d3c443b4dbf130ccd9b0736af884a5",
    "limit_json": "cf67f9d5daae3145e20dec82b52909c9e251d200b54cdfab10b8ff0bcd6c4191",
    "limit_lemma14": "9f26821aae32878f854643300103042464236996fe902b304e746b162e2fcd50",
    "list": "1d14b1896bb5d39160ae98232ff96b0560e0278d008b1527c2264eb28eeeb94b",
    "sample": "b7c0fe05c73829007ff39c1125600ed68485ef1217aca896e3ab9370dd540a77",
    "sample_method": "11d4e3d78e97b446f06fdd4963651a1d64a814e395abf730b08ebbfcf20619e5",
}


def _report_bytes(report) -> bytes:
    return report.to_json().encode() + report.final_sample.tobytes()


def _cli_bytes(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}".encode()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes(name):
    assert _sha(_report_bytes(REPORTS[name]())) == REPORT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_bytes(name, monkeypatch):
    monkeypatch.delenv("HTM_SEED", raising=False)
    assert _sha(_cli_bytes(CLI_RUNS[name])) == CLI_DIGESTS[name]
