"""Byte-level determinism: SHA-256 digests of samples, reports and CLI output.

The package promises that the same seed and the same numpy version give the
same bytes. These digests pin that promise for every family and sampling
route, for the closed transforms, for the characteristic-function inversion
(scalar values and ``InversionCdf`` builds), for every limit theorem and mode
(report JSON plus the raw bytes of the retained final sample), for the
identity registry, for every identity case's reports over its canonical
grid and for the CLI's ``limit``, ``list``, ``sample`` and
``verify`` output. A refactor that keeps the digests keeps the output.

numpy's Generator streams are stable within a numpy release but not
guaranteed across releases, and its special functions may move in the last
ulp, so the digests are checked only under the numpy version they were
captured with (``GOLDEN_NUMPY``); under any other version the test skips.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest

from htmix import cli, identities
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
    "stable.symmetric": "4b7335d438e49d31b90b03d76f8405e4820fe04fabbd84d26eba28e99ad012fa",
    "stable.one_sided": "fa8d5da5d94cf061130e7a9d0f2f45ae47a13d6fd74eaee007716295dbdd15b1",
    "stable_ratio": "6137d3fdc2b20f979c67f2a8b1927bd8ea7cd54903c95b31526d43e5dd250678",
    "z_mix": "486edba6628a14a7ac07a2a3f0136a73174805e382e3b69916f7ca2bcec1c6b1",
    "mittag_leffler.stable_weibull": "2d2ce7cc8ba758aa5439682f405feddc59588363c23ace726e883b6a46aa1080",
    "mittag_leffler.exp_ratio": "531e1cce5acf6372f73f790453b87c9f46e60ff38e2fe13230670cfdf62365ba",
    "gen_mittag_leffler": "c3eaf6fd61acef169f33b979c312a28875f1714d054da3a1246da13a1e670dd8",
    "linnik.stable_weibull": "c10cf421feed309c39dcafc613f6850fed75a8c5a8b2caee2a5e22a4207c92d8",
    "linnik.normal_ml": "fed11e6e91dbd9c7a0ec1c7fa1ac7acc9ab859342414ae3349d9e609918c1cab",
    "linnik.laplace_ratio": "ae617a5d918acf1782828150ec3cce27d12cb36a2424a8429d0eee63066d305a",
    "gen_linnik.stable_gamma": "853ea03d974cb130cbeb1ff92d78767dd4579abf48bcd40205a63c4305f08a0f",
    "gen_linnik.normal_genml": "21dc8e1dc7c2739b8a0357fa7c3fa00add27ac3d3cb3931eb7892e34e34ec107",
    "gen_linnik.linnik_z": "c2849a7ce9de1bfa8d079bf26fbbcf15256d8995e624086ad2e46c53363afc95",
    "gen_linnik.stable_genml": "88e5d11599610851fe7544e3af9b71275222189929e50cd180eb2b004b042406",
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
    "stable.symmetric": "5aa9a9170068877bc7c38915b5bacb44834d4be0e16fbcfb4b513c3f37fa8513",
    "stable.one_sided": "1f8cbf71acf3abb47d85377b1503e740cadc09145ae53d6b93354792f061a480",
    "stable_ratio": "523c7932f9ec1c4ffd613031620bbf3820c41b719d70223c556ae59ddaa3ae7a",
    "z_mix": "2d70fe9ae0c092d5342df656763861284fffb78d41405e04cf22e5b7854f0f2a",
    "mittag_leffler.stable_weibull": "478041fdc96e7c5d0929b2a9964c5d91f290f10b3ec8c299f3c82f7d926fba13",
    "mittag_leffler.exp_ratio": "a577cc23b0e31de36ad0e6a008adced282dbf171cba484c57c8fbd41e8653300",
    "gen_mittag_leffler": "ab6b9fc98052db5e547af5844f987bf7856293f0e6783277233da673e521c022",
    "linnik.stable_weibull": "6b912dc7f9da656bfd8c0f1dfdbb517b090af887180b79972af4f0a24107ef9b",
    "linnik.normal_ml": "80ecb1428bd0a38657a99a0c045b6ecdca8474ded8e1a03d121c077da0d630c2",
    "linnik.laplace_ratio": "d2add5f8aa828c7eda08c87f574d8ed9a582b53e260dfd6972dbba142bd5672c",
    "gen_linnik.stable_gamma": "7e6c1effaf85218db60085e0eae2d53c9a4c406ec2f086dc84189b50292f319c",
    "gen_linnik.normal_genml": "c39d9ffe2f3c32c9b3afcc96a90e0c3e6f754daa7c02f6501ae4aef7767a5400",
    "gen_linnik.linnik_z": "11579ffbc5c314ea3261b522566b3920d968218735578451a3f2db99a326e33a",
    "gen_linnik.stable_genml": "7d2d9aeb77d3ee42b3482bc6c59f5b21e5159a39f3b449e429f9fef44361f4d2",
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
     "e7d3808a6a9541f67c6145f62a2260931fbeeaecef1c3f1aa975ca8f7722a819"),
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
     "68b1d16ad4dc6cbf5f3b68550df037f07e6fddf1d93279b5909da80255ccf5ca"),
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
     "6904897dc8f890c86cdb6181df768a7c4415d6ea31ee81f9bb1f9a23763e6170"),
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
    "experiment_thm6": "2cb40d307c0f62fb5bab87a80c9b38b0cd0ea5b93992494cdaabcae9b786adf5",
    "lemma14": "749c487ce4cc7f933dded7f05a71a2f85e66a4a8de59bb29708cd7a68d83e06a",
    "thm6": "9b6415e9abe8a490163c741ec56dafd2d5875c909cef3ee1665500be85f21fe5",
    "thm7_control": "79eb434cdcbadecd72615b9e8ab7d4132527238952fa52584fb1dbcac68dcae7",
    "thm7_custom": "9a7b38917202c729c1e21ef2e391e8c3e686653778a8cbc577c0112294248705",
    "thm7_rademacher": "1f18246d3fd1d042d6c681979a9b8ecb3ace4d1390b5dd83093daeb44da87217",
    "thm7_uniform": "7f7b5f86623f68cb2893663f6a5df2488b011a46f9767406c2a093f477ed8a04",
    "thm8": "53cb8aeeeec8acae6dfcd4925e607574a118a08d52932bf5e94b04ae12b0c70a",
    "thm8_control": "df6ba81bf0230ffbc982595b85c91f34a6e44d101e8dc6694851b849e5e6e673",
    "thm7_multi": "797c09b2d9760e89d8521b077128fa4577337dd84d548c5f82571450722bf94e",
    "thm8_multi": "5a5d8b059cd6d48ed066a071cf4c9eab02296bc94ecbd1939e1b7e77f19bf065",
    "thm7_control_multi": "f464ed2d8201c877b20f5e289b98a22302253fb230689f8c5d5e76837eab9dc0",
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
    "verify_I22": "3f8bcb7fbf7d9cec12da1ddfac322a182f7b0615d0c7162fc5f14a67af8d62fb",
}

# Every identity case over its canonical grid, as run_grid runs it (seed
# DEFAULT_SEED, substream 1000 * index), at VERIFY_N draws per side: the
# report JSONs of a case, concatenated.
VERIFY_N = 20_000
VERIFY_DIGESTS = {
    "I01": "3324f01e8449236462963f2a33563db05171f90c7ebd9586319223770e5d5d10",
    "I02": "93b0bcfbf89f49cd5ff049ef41f65be9fe1a4766414b16dbaeb4c45c36ef6be6",
    "I03": "4f0fe5b879bc940a0275013650ef9b47d33837484c3f6fa64123c6a04a4ade29",
    "I04": "10ae898b678fa2753c6d4f907907ff07590434760295b63b4265cc6c1bce31f3",
    "I05": "4c0492ee5273a9a6376f73e05db44b3ac9ccd794e4a35b2923c41c4a099463de",
    "I06": "53ce1cd13ce1554447ffb6ed7a08b9eb856e658d980da9745e28e485e00d264b",
    "I07": "860ef47dcedfa0774d165f3a92959548f1988887730221723a039b81cef09207",
    "I08": "fa6a5b66bf0449cc4f60623ccd507335df400f0fe9a62200eb32037367b41685",
    "I09": "1ac6018f8501ca5dd2210371f28a41c5d0a41934054c0f23c9e32edf984376f5",
    "I10": "0568a60bc7fa439b728caaf0b7fa4281b65b86ccc733ea358ddaaa840b3bdcc2",
    "I11": "e717c73e64105891fd1f1a13188e2eb1df59d5f5ee9237a05d55e4e98c9a0088",
    "I12": "2425b8339623c0cefc4ac4c3ffaf296de416c50b7c07027d525d70a4503a72de",
    "I13": "394d78268ecaaedd24b34d22b9df179451167f6c8a033ed90bc04ed4cd971121",
    "I14": "f3c03ca7f88f63ef4c59631b3acd794941311a139cdc1383dbd74de2e011834b",
    "I15": "55f30468296263875c407cd67ebce116a5f973a6f46a914d65356feaf102b170",
    "I16": "5b4a01c7e507f93c3ddd2f2dbd987c3e7337c451f99abf15ac847adea1aa4e6e",
    "I17": "840fdd1cc9c90cd9979117f68a45e3342f88ba5d4d93766608e5e68f4b74355f",
    "I18": "eda0dfdd21ffa32daddcf1026000d14cb43a0ab6e73711c6241cfef50bec0448",
    "I19": "8d75829e633fab2755cdde112cdbd993c5e50a65dfb89e9155558d512f74ce53",
    "I20": "5fbae402790eb8696ab4cb780f4bfcf1ab54b3d72faff193d14c04ce8f07abd4",
    "I21": "cc4fe3647c96039f7cb13eb6998473e37dd87bd73a3b6bc2b1e0c59a49bb0123",
    "I22": "707c1899b0810d2a4767b30341418c97df0505ff1be95a9470575ab1a254f74f",
    "I23": "fb302ace008589a519f8b8c20e011f004fab4e3ed4da497f2c01e94ddb389b3d",
    "I24": "c9559521f90a1ef233d992202b8deabd267442c2a9048a044acc349adbf04b87",
    "I25": "bead552cdf1b6074d363e91ad710865995d8169c1c68f73b534aa319afbc769a",
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


@pytest.mark.parametrize("build", sorted(INVERSION_CDF_DIGESTS))
def test_inversion_cdf_bytes(build):
    cdf = InversionCdf(*build)
    assert _sha(cdf(INVERSION_PROBE).tobytes()) == INVERSION_CDF_DIGESTS[build]
