"""Byte-level determinism: SHA-256 digests of samples, reports and CLI output.

The package promises that the same seed, the same numpy version and the
same numpy SIMD dispatch give the same bytes (the digests are the AVX512,
X86_V4, bytes: with that level disabled, np.power, np.exp, np.log and
np.tan return other bits). These digests pin that promise for every family and sampling
route, for the closed transforms, for the characteristic-function inversion
(scalar values and ``InversionCdf`` builds), for every limit theorem and mode
(report JSON plus the raw bytes of the retained final sample), for the
identity registry, for every identity case's reports over its canonical
grid and for the CLI's ``limit``, ``list``, ``sample`` and
``verify`` output, and for the Mittag-Leffler function, density and CDF. A
refactor that keeps the digests keeps the output.

numpy's Generator streams are stable within a numpy release but not
guaranteed across releases, and its special functions may move in the last
ulp, so the digests are checked only under the numpy version they were
captured with (``GOLDEN_NUMPY``) and on its X86_V4 dispatch; under any
other version, or where numpy runs a lower dispatch level (a CPU without
AVX512, or X86_V4 named in ``NPY_DISABLE_CPU_FEATURES``), the test skips.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from htmix import cli, identities, special
from htmix.distributions import DistSpec, analytic_cf, analytic_lst, sample
from htmix.identities import GridPoint
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

pytestmark = [
    pytest.mark.skipif(
        np.__version__ != GOLDEN_NUMPY,
        reason=f"digests were captured under numpy {GOLDEN_NUMPY}",
    ),
    pytest.mark.skipif(
        not __cpu_features__.get("X86_V4", False),
        reason="digests are the bytes of numpy's X86_V4 (AVX512) dispatch, "
        "which this CPU or NPY_DISABLE_CPU_FEATURES turns off",
    ),
]


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
    "stable.symmetric": "38cf9de9227f1dd57d7ab865a5f3c31bcdf2e54f340d840f606ab28d8fffec13",
    "stable.one_sided": "4747dd31e01ef60a0ddfc89c7f31a3c676889b800dcda6cd12617771c7feebe7",
    "stable_ratio": "f4ac2d6e242e8c5c65ef9d21aa5d3a58dbe7a43e27b46ba9944228c2799f211d",
    "z_mix": "486edba6628a14a7ac07a2a3f0136a73174805e382e3b69916f7ca2bcec1c6b1",
    "mittag_leffler.stable_weibull": "50041e3d8856b16f0564f5e969b28eff678c99451f46a870a5f2216100b1e7f4",
    "mittag_leffler.exp_ratio": "ce51eb7e2931c7858bc35c9e50061393e399ebaf643509501406c2984fd05935",
    "gen_mittag_leffler": "0328fc3b03d0d96c325841482c8b426d5ddb6e4c6d03dd2f01447a806d3b1419",
    "linnik.stable_weibull": "1baf1d184f7bad024f7fe5f717e87d8bd5358b7033830afe5bc70a0cb6ca0982",
    "linnik.normal_ml": "0fb0750a84971dce1d71c3c109ef96b4eb77babc6b65883c41f42d8b4f1ee4a1",
    "linnik.laplace_ratio": "bda3c949473a9f4ffdd38c94792d22aa242419d1ff68e4da20e88c63c6ffb72b",
    "gen_linnik.stable_gamma": "0eee89e0e408bdf24e8086d99c70d4eaa531ce8d21c7908533a209bcb6468734",
    "gen_linnik.normal_genml": "0a20bbdd3185614e2a3653c33de0e44275a815c8ac8deefb9f9f9d108142d89f",
    "gen_linnik.linnik_z": "e6b6fe786c4a6fe3157df286962e2d03c10012553370eee5b67efa3a6da30ed1",
    "gen_linnik.stable_genml": "4d09800066f0a19633981b3ef72cd6be2de2ebfb729ec6e576853dde1e125bd9",
}

# The same specs and streams at BLOCK_SAMPLE_N draws: past one sampling
# block, so the elementwise transforms run in several blocks, and the last
# one is short.
BLOCK_SAMPLE_N = 3 * 2**16 + 5

BLOCK_SAMPLE_DIGESTS = {
    "normal": "8792a73f0f594af486ad5c13f897f58cb3ca3b01b40b9cebbed852bbbf60567e",
    "laplace": "dfd880cd8d942eea9be65ba25c9c6bdafc702e8a5f49b06e154ec9a1e4a2c375",
    "exponential": "f71b3b358532a20a5519eec521001b556f58624513421c77d67b3ffb7e694362",
    "weibull": "76aa40bc295f1a493582f6fdeeeb01a5f12e00f424da68a068cf8e27b45df227",
    "gamma": "43fb8a6298b78d62365c2ad31625c1d0c6b0ad005ea5b245e2874f61fdbae99b",
    "gen_gamma": "173aa3fcc9d11b6eb873c93619d3bfac7df458a9160d51280dcccedd65cec8aa",
    "exp_power": "36bcab27a2ddab59649a31bceffc9b9beba017af9642134a571ff9670b5ccf23",
    "neg_binom": "7faa033677a607573321aa54756dfad10c25f5c161ba36b6d887fe655ce12303",
    "stable.symmetric": "3f823ca83ba3c5aca5c5d0d6e9a77b3e5dd4fcc3f27db8f72e828b409bc5a4a2",
    "stable.one_sided": "bf207ed4e905d576f7e15d89dafedb25feaae3ed5ad7b090c3338268522196e8",
    "stable_ratio": "62a40967919315325db606634e11683e48e0d8c9b2c7125f32ecee5eb7d165a2",
    "z_mix": "2d70fe9ae0c092d5342df656763861284fffb78d41405e04cf22e5b7854f0f2a",
    "mittag_leffler.stable_weibull": "e242a22b2fd92fd5e985e1db3eaefc7633c2afed56c6f7a9232a0e5b1add5c1f",
    "mittag_leffler.exp_ratio": "845fabeaf19f99220e3f8d3e6ee1ea94caf0b0c97b4250afe9f6d685748b5c52",
    "gen_mittag_leffler": "2563faa43c6883b712c3a8338a5479ed0f2e7d3957072e501704cb2dcc8a2829",
    "linnik.stable_weibull": "09794a5588ebe1d35a1cf3d3cb88478e7a303e87a12b6ace3b82a44862fbb41b",
    "linnik.normal_ml": "eabe05f64308c61ab2c475cb207247070306733336ba6a0ecf55bf6b5d5384b7",
    "linnik.laplace_ratio": "14de7ba609387375e973fcba0cc3d3c306abee8540660f2c4dabffde82745808",
    "gen_linnik.stable_gamma": "daa067cf9182ae6e9165863d34cc7d4465f02f4d6bcf44780992c19a8f8702b4",
    "gen_linnik.normal_genml": "478b69c289e89e015831e4f0b4cbbde5d00940c143db24b0f582816f4ad0877a",
    "gen_linnik.linnik_z": "13e1a434959481404ba85df1a67d257e71413436eec5c8dc79d5c1dd3a979b36",
    "gen_linnik.stable_genml": "240f2110000a7bc4180769da057f13f003f336e375b20efb96e806bc8705a9d1",
}

# Degenerate and closed-form corners of the routes (alpha = 1 or 2, delta = 1,
# r = 1, exponents 1/alpha of 0.5, 1 and 2), each at BLOCK_SAMPLE_N draws on
# RandomStream(SAMPLE_SEED, 100 + i): family, params, method, digest.
BLOCK_CORNERS = (
    ("stable", {"alpha": 2.0}, None,
     "1302a8dbd9335daa88e872550b4c6f8afafb665272882a993875c4f85106110b"),
    ("stable", {"alpha": 1.0}, None,
     "2b8daa2c5eea37a0ab83337f64b268d375f6e1b9d7de74488659747246a6992b"),
    ("stable", {"alpha": 1.0, "theta": "one_sided"}, None,
     "da98ca04debf00f171c3310722dd222f94283380c09c60162883d1cef8b11049"),
    ("z_mix", {"r": 1.0, "mu": 2.0}, None,
     "d406a67c6e27762f600b73adccac3931a755ac60f4c40b962d2c67611db464c9"),
    ("mittag_leffler", {"delta": 1.0}, "stable_weibull",
     "3d783b300789c7ea5822dac994edee6711719a62d55605159b0d1d1dc11b1a29"),
    ("mittag_leffler", {"delta": 1.0}, "exp_ratio",
     "b3fbbc2de155de223bda8e64b1493c198ec25fd4258393acfcddd8fd141dacfb"),
    ("gen_mittag_leffler", {"delta": 1.0, "nu": 0.5}, None,
     "da4d71c6fcc7024df4bab388801eb3646b1889359884529b93dd2fef28f4ed82"),
    ("linnik", {"alpha": 2.0}, "stable_weibull",
     "be7b626a85903e0d7cd48e569d16afcab92738d0f460b5c41ea547efe6675b43"),
    ("linnik", {"alpha": 2.0}, "normal_ml",
     "15c7a251bf831454864d770793b2775ee6a0d3b7b6bd79b248c1d4ded732b5a0"),
    ("linnik", {"alpha": 1.0}, "laplace_ratio",
     "07b000a3e7d8991ad2c39d0e951acc18a13326e59c6ebf2c9931a57f0287c928"),
    ("gen_linnik", {"alpha": 2.0, "nu": 1.0}, "stable_gamma",
     "c31bb69afb8eaac4c8cbf0695cf00a7bc33d2634a702d8242de50b77ae66f5fd"),
    ("gen_linnik", {"alpha": 2.0, "nu": 1.0}, "normal_genml",
     "aaf8a85c479db4bace14dd85501004e0b44aa5a773e946d3daddb2e1a96d9043"),
    ("gen_linnik", {"alpha": 2.0, "nu": 1.0}, "linnik_z",
     "1d1974fa4cd980108818748e94c069aba14ca6b47e253bfda036301c016a7947"),
    ("gen_linnik", {"alpha": 1.0, "nu": 0.5}, "linnik_z",
     "9fc75f881feabbb052c9c085360c20780d68cf5865f8eb5480adcbaa194ebcbc"),
    ("gen_linnik", {"alpha": 2.0, "nu": 1.5}, "stable_genml",
     "74dd7ea4e26f75a91f97ee593e8c1cad6f7aa2fb6b76c7123cdb3df3ebe5e833"),
    ("gen_linnik", {"alpha": 0.4, "nu": 3.0}, "stable_genml",
     "54949d53e9f9e1277826abd58d8966501213b6d0dfef5df4ab111a92b3e3922f"),
    ("weibull", {"gamma": 2.0}, None,
     "4a16943b3bc6998d1de8316b0152eab1cc088a7e83891cb83d014f11808d8c00"),
    ("weibull", {"gamma": 0.5}, None,
     "592c241bec1f2f1cc2fa49803c329750f4ec7e15f72d7488cc43a143db9d1c3f"),
    ("exp_power", {"nu": 2.0}, None,
     "ff0434fc5bbde1add61b19f2d6fd77c91125a735f1a89785c17a5d29e39f36af"),
    ("gen_gamma", {"r": 1.5, "alpha": -1.0}, None,
     "d4389c05ca6007069d58cd33b254f22ab92fdd3d27d21832006d3be8ba179753"),
    ("gen_gamma", {"r": 1.5, "alpha": 0.5}, None,
     "bbd062af1795be354448f107fd8c1735934913ee9c736d06eff6a055e2252b4c"),
    ("neg_binom", {"nu": 0.5, "p": 0.3}, None,
     "7e2fdfcf3230e2624336255cf641d29d5d5ff2c1b1108ab5eb920786aa34cf06"),
    ("stable_ratio", {"delta": 0.3}, None,
     "ca9a58241c7bf2850f4ccb6e7607ab491003066aac50f73e4069748fa11449e7"),
)

TRANSFORM_POINTS = (0.5, 1.0, 2.0)
TRANSFORM_DIGEST = (
    "12e73db384b03905a5cb0ba1cda69d6ec78256268143967e91fe29e9beff4ded"
)
REGISTRY_DIGEST = (
    "a69a67a7d5b3b8c4fa4408ba9567e257b2060b57595cf2b5c31631500d07a7cd"
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
    "411d60a190a7681950249fb48dee657a4e9a81ab31b933af32d5494769c88a98"
)
PDF_INVERSION_DIGEST = (
    "09faf6720559ece9a00c94907f68fe28e4dea99ab2bab5091b76fdfb17977885"
)
INVERSION_CDF_DIGESTS = {
    (2.0, 1.0, 12.2): "2745bdc26d3172f2be95d4f033b59ba54d18e656d7b0376249486ebf347295ba",
    (1.5, 2.0, 929.4): "340d922cde0553b411c2483edcb596c3f6a3a296ac75e79b9ee6cdff4b8bebdf",
    (1.5, 2.0, 2642.4): "efb6d2f85c4594f22d1706d71f96799145629b877c35875bc6f073eb55af95c3",
}


# The Mittag-Leffler function, density and CDF at 40 log-spaced points on
# [1e-2, 1e3] for each delta (E at -x, and at a few positive z too): the grid
# reaches the series, tail and spectral branches and the positive series.
ML_DELTAS = (0.3, 0.6, 0.9)
ML_X = np.logspace(-2.0, 3.0, 40)
ML_POSITIVE_Z = (0.1, 1.0, 5.0)
ML_DIGESTS = {
    "mittag_leffler": "a6d0bd08cfda3f03da336a9b54ef9c9e085af35fe7d88d5723354481f2906880",
    "ml_density": "dcc421186b29669cb6ee1d5a61d9cd01bbe8c328abef57838238d9e8baef19c8",
    "ml_cdf": "02587b41a4d1bfbdead72eef8afba598ce2e185d6d19d98a44ec6c743588ef9e",
}


def _normal_summand(rng, m):
    return rng.standard_normal(m)


REPORTS = {
    "lemma14": lambda: run_lemma14(1.0, (0.05, 0.01), 5000, 7),
    "thm6": lambda: run_thm6(1.5, 2.0, (20,), 2000, 5),
    "thm7_rademacher": lambda: run_thm7(1.5, 2.0, (50, 150), 2000, 5),
    "thm7_uniform": lambda: run_thm7(2.0, 1.0, (100,), 2000, 5, summand="uniform"),
    "thm7_custom": lambda: run_thm7(
        2.0, 1.0, (100,), 2000, 5, summand=_normal_summand
    ),
    "thm7_control": lambda: run_thm7(
        1.5, 2.0, (100,), 2000, 5, control="fixed-index"
    ),
    "thm8": lambda: run_thm8(1.5, 2.0, (50,), 2000, 5),
    "thm8_control": lambda: run_thm8(
        2.0, 1.0, (100,), 2000, 5, control="fixed-index"
    ),
    "experiment_thm6": lambda: run_experiment(
        LimitExperiment("thm6", 1.0, alpha=2.0, grid=(20,), replications=2000,
                        seed=11)
    ),
    # Multi-row (1.5, 2) experiments of the limit_lab benchmark at 20,000
    # reps: every row's KS distance against one experiment-wide reference.
    "thm7_multi": lambda: run_thm7(1.5, 2.0, (100, 10000), 20000, 1729),
    "thm8_multi": lambda: run_thm8(1.5, 2.0, (100, 1000, 10000), 20000, 1729),
    "thm7_control_multi": lambda: run_thm7(
        1.5, 2.0, (100, 1000, 10000), 20000, 1729, control="fixed-index"
    ),
}

REPORT_DIGESTS = {
    "experiment_thm6": "bbb88ae13e5442ec855a8f2e00a7be222a8ce3c11a68ae90c2120dcc0cf41982",
    "lemma14": "749c487ce4cc7f933dded7f05a71a2f85e66a4a8de59bb29708cd7a68d83e06a",
    "thm6": "cb48812df98f0522f6b08877d3e0b06259c3917dc1339e23f4f404d7c03e0b8d",
    "thm7_control": "38a6aa7848731e8c8d73956576fec04e1ccdba61088cfb18ef059f5cb6f3ead3",
    "thm7_custom": "9a7b38917202c729c1e21ef2e391e8c3e686653778a8cbc577c0112294248705",
    "thm7_rademacher": "5e294cd784d717f6fed996424890d7ce83d9acb9eda6e9fe17a73a495ce10671",
    "thm7_uniform": "7f7b5f86623f68cb2893663f6a5df2488b011a46f9767406c2a093f477ed8a04",
    "thm8": "53cb8aeeeec8acae6dfcd4925e607574a118a08d52932bf5e94b04ae12b0c70a",
    "thm8_control": "df6ba81bf0230ffbc982595b85c91f34a6e44d101e8dc6694851b849e5e6e673",
    "thm7_multi": "fc9ad45af17c04b06709e580b0442fbf9bedce7cf343df14765b60f6963cf818",
    "thm8_multi": "5a5d8b059cd6d48ed066a071cf4c9eab02296bc94ecbd1939e1b7e77f19bf065",
    "thm7_control_multi": "b2798510b7c32bb2f98d82583df2e4caaa94e8733f30148bd48fe6a89b10592c",
}

# The raw bytes of the retained final sample alone, apart from the report
# JSON and its params.
FINAL_SAMPLE_DIGESTS = {
    "thm8": "3d76a5cabc213f4d10e697cdbfbe00b2e9a7f68fd00a8d1d58f6be80d3c0efc5",
    "thm8_control": "f23c22ab0f015027d37c78392f4ac551e7b507fe4bfd9b2f9f1fcc772964765f",
    "thm8_multi": "7cf9631c2d46f63df1efb74fb8785265784469df4bb87cc4a9b60a9e768b3539",
}

CLI_RUNS = {
    "limit_csv": ["limit", "--theorem", "thm6", "--alpha", "2", "--nu", "1",
                  "--n-grid", "20", "--reps", "2000", "--seed", "5"],
    "limit_json": ["limit", "--theorem", "thm8", "--alpha", "1.5", "--nu", "2",
                   "--n-grid", "100", "--reps", "2000", "--seed", "5",
                   "--format", "json"],
    "limit_thm8_csv": ["limit", "--theorem", "thm8", "--alpha", "1.5", "--nu",
                       "2", "--n-grid", "100,1000", "--reps", "2000", "--seed",
                       "5"],
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
    "limit_control": "775c199606a04936c9f817a92269a9955b1ed0ac52a886fa830fb2057a222f95",
    "limit_csv": "5165c8726e8b6ceb65f89d945f37e25c3361516bf9f0af2d9175cbffa57acc93",
    "limit_json": "2c4e31cafe21c10821ad65fa3066bdc733ea33c02d4aef3456039088ff208370",
    "limit_thm8_csv": "47141e0802662a408f0519657500d6714a191ad6febd2fae70a3f23caa54359d",
    "limit_lemma14": "9f26821aae32878f854643300103042464236996fe902b304e746b162e2fcd50",
    "list": "1d14b1896bb5d39160ae98232ff96b0560e0278d008b1527c2264eb28eeeb94b",
    "sample": "b7c0fe05c73829007ff39c1125600ed68485ef1217aca896e3ab9370dd540a77",
    "sample_method": "11d4e3d78e97b446f06fdd4963651a1d64a814e395abf730b08ebbfcf20619e5",
    "verify_I22": "0cdff92571c082a9fd6c85b9bc182bad1276725a1a385ecb6a4a749ff9bd5945",
}

# Every identity case over its canonical grid, as run_grid runs it (seed
# DEFAULT_SEED, substream 1000 * index), at VERIFY_N draws per side: the
# report JSONs of a case, concatenated.
VERIFY_N = 20_000
VERIFY_DIGESTS = {
    "I01": "d7dbad088d17b85b038b3891efb4acf44b103a3de7c2eb6bf0c478e5ed3388da",
    "I02": "93b0bcfbf89f49cd5ff049ef41f65be9fe1a4766414b16dbaeb4c45c36ef6be6",
    "I03": "21df883c8096015ed781bd8a19d00f3ecce882625deb6157694220a25661edaf",
    "I04": "10ae898b678fa2753c6d4f907907ff07590434760295b63b4265cc6c1bce31f3",
    "I05": "4c0492ee5273a9a6376f73e05db44b3ac9ccd794e4a35b2923c41c4a099463de",
    "I06": "53ce1cd13ce1554447ffb6ed7a08b9eb856e658d980da9745e28e485e00d264b",
    "I07": "860ef47dcedfa0774d165f3a92959548f1988887730221723a039b81cef09207",
    "I08": "fa6a5b66bf0449cc4f60623ccd507335df400f0fe9a62200eb32037367b41685",
    "I09": "c95bb22051fa1fc80d4d179f0fb1d592b268d853fee896270d302ba24cc47eba",
    "I10": "926c8f90cd99c97181884feeaa554e0261932b6ff887741a144d1a8252e10d8b",
    "I11": "013ebe53d992368100f3015955997f6aa939543268653bbfe57bde4f34e4c698",
    "I12": "e8d830d2efab01b76da3b6c90048aa01cd63627606dd20bb3f90cebd6ff83c46",
    "I13": "3a4b05160bb27c498033f02eac731af042ad4b15f34caa79608d1eb6b4753f44",
    "I14": "ef13a8fbca43fc48b7227cd6ac9e0c3e909b8420dcb4cc841e6304eae90d8242",
    "I15": "d2fd2f8ae3cc47b0371425bbaa17163f977887cc60fac9159c5195c7a2bab4f1",
    "I16": "5b4a01c7e507f93c3ddd2f2dbd987c3e7337c451f99abf15ac847adea1aa4e6e",
    "I17": "b927112c5b9c6033464bfa9e7c273900913c5a5f449e62a067e26c4fd05689e2",
    "I18": "0f8ebc6808e68fe5ae1478ffee4a30e93219677619088a376d7cc98f9c493b57",
    "I19": "8d75829e633fab2755cdde112cdbd993c5e50a65dfb89e9155558d512f74ce53",
    "I20": "3a99ae7b760a15d9fd87699145dfa08e23b4e0459f349673d7a7c5b5906787b3",
    "I21": "9cca423d90a7e2acc5504505363ab158e800922382ef714055e208ab9bacf197",
    "I22": "7acc739081f664c6f78e53c68b03123625c05b8e0ec3a3c82f39bcfde349e03f",
    "I23": "8ed8552fc068eca9ea35debed9fe41eb489469d7e93efc1bb30daf2fa8f43d2b",
    "I24": "c9559521f90a1ef233d992202b8deabd267442c2a9048a044acc349adbf04b87",
    "I25": "2e723a19314d73d99968bbba4477429362b6175723272d52e5d9d68ef768ac5e",
    "I26": "a93f69612d7a154aea498212d2d4fd01dcb9949dc5184fef4a932688c7000485",
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


@pytest.mark.parametrize("name", sorted(FINAL_SAMPLE_DIGESTS))
def test_final_sample_bytes(name):
    report = REPORTS[name]()
    assert _sha(report.final_sample.tobytes()) == FINAL_SAMPLE_DIGESTS[name]


@pytest.mark.parametrize("case_id", sorted(VERIFY_DIGESTS))
def test_verify_grid_bytes(case_id):
    case = identities.get_case(case_id)
    small = dataclasses.replace(
        case, grid=tuple(GridPoint(p.params, VERIFY_N) for p in case.grid)
    )
    data = b"".join(r.to_json().encode() for r in identities.run_grid(small))
    assert _sha(data) == VERIFY_DIGESTS[case_id]


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


@pytest.mark.parametrize("index", range(len(SAMPLE_SPECS)))
def test_block_sample_bytes(index):
    key, family, params, method = SAMPLE_SPECS[index]
    batch = sample(DistSpec(family, params, method), BLOCK_SAMPLE_N,
                   RandomStream(SAMPLE_SEED, index))
    assert _sha(batch.values.tobytes()) == BLOCK_SAMPLE_DIGESTS[key]


@pytest.mark.parametrize("index", range(len(BLOCK_CORNERS)))
def test_block_corner_bytes(index):
    family, params, method, digest = BLOCK_CORNERS[index]
    batch = sample(DistSpec(family, params, method), BLOCK_SAMPLE_N,
                   RandomStream(SAMPLE_SEED, 100 + index))
    assert _sha(batch.values.tobytes()) == digest


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


@pytest.mark.parametrize("name", sorted(ML_DIGESTS))
def test_mittag_leffler_values(name):
    if name == "mittag_leffler":
        values = [special.mittag_leffler(d, -x) for d in ML_DELTAS for x in ML_X]
        values += [special.mittag_leffler(d, z) for d in ML_DELTAS for z in ML_POSITIVE_Z]
    else:
        fn = getattr(special, name)
        values = [fn(d, x) for d in ML_DELTAS for x in ML_X]
    assert _sha(np.array(values).tobytes()) == ML_DIGESTS[name]


@pytest.mark.parametrize("build", sorted(INVERSION_CDF_DIGESTS))
def test_inversion_cdf_bytes(build):
    cdf = InversionCdf(*build)
    assert _sha(cdf(INVERSION_PROBE).tobytes()) == INVERSION_CDF_DIGESTS[build]
