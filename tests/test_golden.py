"""Byte-level determinism: SHA-256 digests of samples, reports and CLI output.

The package promises that the same seed and the same numpy version give the
same bytes. These digests pin that promise for every family and sampling
route, for the closed transforms, for the characteristic-function inversion
(scalar values and ``InversionCdf`` builds), for every limit theorem and mode
(report JSON plus the raw bytes of the retained final sample), for the
identity registry and for the CLI's ``limit``, ``list``, ``sample`` and
``verify`` output. A refactor that keeps the digests keeps the output.

numpy's Generator streams are stable within a numpy release but not
guaranteed across releases, and its special functions may move in the last
ulp, so the digests are checked only under the numpy version they were
captured with (``GOLDEN_NUMPY``); under any other version the test skips.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from htmix import cli, identities
from htmix.distributions import DistSpec, analytic_cf, analytic_lst, sample
from htmix.limits import (
    LimitExperiment,
    run_experiment,
    run_lemma14,
    run_thm6,
    run_thm7,
    run_thm8,
)
from htmix.special import InversionCdf, cdf_by_inversion, pdf_by_inversion
from htmix.streams import RandomStream

GOLDEN_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=f"digests were captured under numpy {GOLDEN_NUMPY}",
)


# Every family and every sampling route: key, family, params, method. Spec i
# draws SAMPLE_N values on RandomStream(SAMPLE_SEED, i).
SAMPLE_SPECS = (
    ("normal", "normal", None, None),
    ("laplace", "laplace", None, None),
    ("exponential", "exponential", None, None),
    ("weibull", "weibull", {"gamma": 0.7}, None),
    ("gamma", "gamma", {"r": 2.5}, None),
    ("gen_gamma", "gen_gamma", {"r": 2.0, "alpha": 1.5}, None),
    ("exp_power", "exp_power", {"nu": 0.5}, None),
    ("neg_binom", "neg_binom", {"nu": 2.0, "p": 0.01}, None),
    ("stable.symmetric", "stable", {"alpha": 1.5}, None),
    ("stable.one_sided", "stable", {"alpha": 0.6, "theta": "one_sided"}, None),
    ("stable_ratio", "stable_ratio", {"delta": 0.6}, None),
    ("z_mix", "z_mix", {"r": 0.5}, None),
    ("mittag_leffler.stable_weibull", "mittag_leffler", {"delta": 0.7},
     "stable_weibull"),
    ("mittag_leffler.exp_ratio", "mittag_leffler", {"delta": 0.7}, "exp_ratio"),
    ("gen_mittag_leffler", "gen_mittag_leffler", {"delta": 0.7, "nu": 2.0}, None),
    ("linnik.stable_weibull", "linnik", {"alpha": 1.5}, "stable_weibull"),
    ("linnik.normal_ml", "linnik", {"alpha": 1.5}, "normal_ml"),
    ("linnik.laplace_ratio", "linnik", {"alpha": 1.5}, "laplace_ratio"),
    ("gen_linnik.stable_gamma", "gen_linnik", {"alpha": 1.5, "nu": 0.8},
     "stable_gamma"),
    ("gen_linnik.normal_genml", "gen_linnik", {"alpha": 1.5, "nu": 0.8},
     "normal_genml"),
    ("gen_linnik.linnik_z", "gen_linnik", {"alpha": 1.5, "nu": 0.8}, "linnik_z"),
    ("gen_linnik.stable_genml", "gen_linnik", {"alpha": 1.5, "nu": 0.8},
     "stable_genml"),
)
SAMPLE_N = 2000
SAMPLE_SEED = 11

SAMPLE_DIGESTS = {
    "normal": "8f9d1b72260b1812049fad4f232d859c72dd9313baad2a5a422dfa55fa9b0497",
    "laplace": "db184c836835214d82c7281418c0e2e0000169534658f0cc7b8399906ff093ef",
    "exponential": "0958e55c89de01efefbfd6919ed6d0d2f652e1a55f20cde09b67c55701035b91",
    "weibull": "5c4b422122bff1d612e84668cd3975dc4c00efeaded3f3db9a4d148c9f5ed368",
    "gamma": "b576f5d71b2909a3c067edc5aa9d63e2eafab61eb7c9d6e110b75d6441c54f8c",
    "gen_gamma": "7f53940d5eba2741ba374f681926ff39a819bc880fc9d0d28a610548a807c890",
    "exp_power": "b900fb2d213fccdf8636c669325a8d575e38b68a0dffe479c55178b49df463f8",
    "neg_binom": "4bc62da194ff57a32d790a3e08159b05c9cbf652a86311dbc2566fb6fc74a666",
    "stable.symmetric": "4d47e5e806345e96e7f30687233f507412d7627c29c164337eca977ec892b74d",
    "stable.one_sided": "a25ddc661ab7445b4a19a366f990165c110bb66f1bbb2d856ab1400bfb6ef073",
    "stable_ratio": "7240e1ed3af74400cb79b1a7aae0374523d5f535503e7f25cb516ed072e69abf",
    "z_mix": "486edba6628a14a7ac07a2a3f0136a73174805e382e3b69916f7ca2bcec1c6b1",
    "mittag_leffler.stable_weibull": "bcd183c886c8344ffa87c19ec5ffc5c5920fe4aba6dd4b5f181267bc1d18df09",
    "mittag_leffler.exp_ratio": "075ac4123686729974f0f984d59c011b7c6e9528e8ab4b51153175e3bdd087bf",
    "gen_mittag_leffler": "8f969e48defb9fbe7e075d57ac37cdd3c5e6a8defb405b4dcd43fd708de8d9c9",
    "linnik.stable_weibull": "ae24875e71ed2abebc83fa06948e4cd1480350e86ea39385f1c236ce95444226",
    "linnik.normal_ml": "1446decee6c3c4bc3360016abb3a0c05e9d7dcbed0fd440864b3d49f649ae26a",
    "linnik.laplace_ratio": "d06ae65cb63972a0c42c9a00cf853cc4a1774f52f9a2ae4caaf353dc9092d790",
    "gen_linnik.stable_gamma": "1ab252c3c74bdd06692b612a4e7eb20c62681dc4347589e15c7a1fb4d7a5ed12",
    "gen_linnik.normal_genml": "3f82f42efe88eabc9d5d44af8dabf6c604c1798fb9e99f4618c22489a02c9fbc",
    "gen_linnik.linnik_z": "d158bba58b74f92eb30a5095d37b912857d445faa655ac71439a27a8d22bfb4a",
    "gen_linnik.stable_genml": "dd16f80c0c9e070250b579ccb9db9209ca33f617db2070d8c549ea1c07dd3ac8",
}

TRANSFORM_POINTS = (0.5, 1.0, 2.0)
TRANSFORM_DIGEST = (
    "12e73db384b03905a5cb0ba1cda69d6ec78256268143967e91fe29e9beff4ded"
)
REGISTRY_DIGEST = (
    "08f6e6d58f83e89c8b05076e6a77c6f29238c7465b8d908313551e423424dde3"
)
GRID_DIGEST = (
    "a70f3792600da4b48fa28ecb3e5900e0ec27bbf159a79f6a1e4fdc2e8f54b950"
)


# Characteristic-function inversion: scalar values over alpha * nu on both
# sides of 1 and |x| up to 5e3, and InversionCdf builds over the x_max range
# the limit theorems reach, evaluated on INVERSION_PROBE.
INVERSION_PARAMS = ((0.6, 0.5), (1.0, 0.3), (2.0, 0.25), (0.8, 3.0), (1.5, 2.0),
                    (2.0, 1.0))
INVERSION_X = (-5000.0, -37.5, -1.0, -1e-3, 0.0, 0.05, 0.7, 3.0, 25.0, 26.0,
               310.0, 5000.0)
INVERSION_PROBE = np.sinh(np.linspace(-9.0, 9.0, 181))

CDF_INVERSION_DIGEST = (
    "2c842c53a8455906cd89315224cd1b076a2410a9e0aad53a80fd4f0f0aaa93b9"
)
PDF_INVERSION_DIGEST = (
    "7474dd13fa874549369d8ee21202b34ec6ec5038a2a99590e155adce46dc428c"
)
INVERSION_CDF_DIGESTS = {
    (2.0, 1.0, 12.2): "747a2804def63bf832c1acb085b4bcab074d74d124f420d4b97d9c2aade01d80",
    (1.5, 2.0, 929.4): "96a05cc861203d5295fa802f8d64bbfdc159a4ee9f61a9444188b94150f6c284",
    (1.5, 2.0, 2642.4): "5e2ab11d25ecbcda5d129970f03535996dc641bdb2e0bd88a4ac15d4d0d38b02",
}


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
    "verify_I22": ["verify", "--identity", "I22", "--alpha", "1.5", "--nu", "0.6",
                   "--n", "20000", "--seed", "3", "--format", "json"],
}

CLI_DIGESTS = {
    "limit_control": "b1bd0e356d0017e66f81133585ac0b037992369c3b7ab7ec21a19579b75bb2d2",
    "limit_csv": "3d1863681c99e26fd17655fb53ae613644d3c443b4dbf130ccd9b0736af884a5",
    "limit_json": "cf67f9d5daae3145e20dec82b52909c9e251d200b54cdfab10b8ff0bcd6c4191",
    "limit_lemma14": "9f26821aae32878f854643300103042464236996fe902b304e746b162e2fcd50",
    "list": "1d14b1896bb5d39160ae98232ff96b0560e0278d008b1527c2264eb28eeeb94b",
    "sample": "b7c0fe05c73829007ff39c1125600ed68485ef1217aca896e3ab9370dd540a77",
    "sample_method": "11d4e3d78e97b446f06fdd4963651a1d64a814e395abf730b08ebbfcf20619e5",
    "verify_I22": "ace6e7c7d35d6be9ac4cbb9cd4ced1dd175c40781696396ea420abea3cebc719",
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


@pytest.mark.parametrize("index", range(len(SAMPLE_SPECS)))
def test_sample_bytes(index):
    key, family, params, method = SAMPLE_SPECS[index]
    batch = sample(DistSpec(family, params, method), SAMPLE_N,
                   RandomStream(SAMPLE_SEED, index))
    assert _sha(batch.values.tobytes()) == SAMPLE_DIGESTS[key]


def _transform_values(transform):
    if transform is None:
        return None
    return [repr(transform(x)) for x in TRANSFORM_POINTS]


def test_transform_values():
    table = {}
    for key, family, params, _ in SAMPLE_SPECS:
        spec = DistSpec(family, params)
        table[key] = [
            _transform_values(analytic_cf(spec)),
            _transform_values(analytic_lst(spec)),
        ]
    assert _sha(json.dumps(table).encode()) == TRANSFORM_DIGEST


def test_registry_json():
    assert _sha(json.dumps(identities.registry_json()).encode()) == REGISTRY_DIGEST


def test_registry_grids():
    grids = [
        [case.id, [[sorted(point.params.items()), point.n] for point in case.grid]]
        for case in identities.registry()
    ]
    assert _sha(json.dumps(grids).encode()) == GRID_DIGEST


def test_inversion_values():
    cdf = [cdf_by_inversion(a, v, x) for a, v in INVERSION_PARAMS for x in INVERSION_X]
    pdf = [pdf_by_inversion(a, v, x) for a, v in INVERSION_PARAMS if a * v > 1
           for x in INVERSION_X]
    assert _sha(np.array(cdf).tobytes()) == CDF_INVERSION_DIGEST
    assert _sha(np.array(pdf).tobytes()) == PDF_INVERSION_DIGEST


@pytest.mark.parametrize("build", sorted(INVERSION_CDF_DIGESTS))
def test_inversion_cdf_bytes(build):
    cdf = InversionCdf(*build)
    assert _sha(cdf(INVERSION_PROBE).tobytes()) == INVERSION_CDF_DIGESTS[build]
