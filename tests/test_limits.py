"""Tests for the random-sum convergence experiments.

Full-size convergence runs live in the acceptance suite; here the runs are
small and mostly exercise plumbing, validation, and the verdict rules.
"""

import json
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import htmix.limits as limits
from htmix import _pool
from htmix.errors import AccuracyError, DomainError
from htmix.limits import (
    NONCONVERGENCE_FLOOR,
    SUMMANDS,
    THEOREMS,
    ConvergenceReport,
    ConvergenceRow,
    LimitExperiment,
    run_experiment,
    run_lemma14,
    run_thm6,
    run_thm7,
    run_thm8,
)
from htmix.streams import RandomStream


def make_report(ks_values, threshold=0.5, replications=100_000, mode="convergence"):
    rows = tuple(
        ConvergenceRow(float(100 * (i + 1)), ks, threshold)
        for i, ks in enumerate(ks_values)
    )
    return ConvergenceReport(
        "thm7", {"replications": replications}, mode, 1, rows
    )


class TestRows:
    def test_passed(self):
        assert ConvergenceRow(100.0, 0.01, 0.015).passed
        assert not ConvergenceRow(100.0, 0.02, 0.015).passed

    def test_to_dict_plain(self):
        d = ConvergenceRow(100.0, 0.01, 0.015).to_dict()
        assert d == {"n": 100.0, "ks": 0.01, "threshold": 0.015, "pass": True}

    def test_to_dict_control(self):
        d = ConvergenceRow(100.0, 0.2, 0.015, ks_normal=0.004).to_dict()
        assert list(d) == ["n", "ks", "threshold", "pass", "ks_normal"]
        assert d["ks_normal"] == 0.004


class TestVerdict:
    def test_passes_when_decreasing_below_threshold(self):
        report = make_report([0.04, 0.02, 0.012], threshold=0.015)
        assert report.verdict

    def test_fails_when_last_row_over_threshold(self):
        report = make_report([0.04, 0.03, 0.02], threshold=0.015)
        assert not report.verdict

    def test_fails_on_resolvable_increase(self):
        # +54% between steps, far above the Monte-Carlo resolution.
        report = make_report(
            [0.10, 0.13, 0.20], threshold=0.5, replications=1_000_000
        )
        assert not report.verdict

    def test_tolerates_noise_floor_wiggle(self):
        # A +30% step is fine when both values sit at the sampling noise
        # scale 1/sqrt(replications).
        report = make_report([0.0028, 0.0037, 0.0028], threshold=0.015)
        assert report.verdict

    def test_empty_report_fails(self):
        report = ConvergenceReport("thm7", {}, "convergence", 1, ())
        assert not report.verdict

    def test_control_verdict_needs_both_halves(self):
        def control(ks, ks_normal):
            row = ConvergenceRow(1000.0, ks, 0.015, ks_normal=ks_normal)
            return ConvergenceReport(
                "thm7", {}, "negative-control", 1, (row,)
            )

        assert control(0.2, 0.005).verdict
        assert not control(0.2, 0.02).verdict  # never reached the normal law
        assert not control(0.03, 0.005).verdict  # too close to the target
        assert control(0.2, 0.005).flags_nonconvergence
        assert not control(0.03, 0.005).flags_nonconvergence

    def test_flags_nonconvergence_is_control_only(self):
        assert not make_report([0.2]).flags_nonconvergence


class TestSerialization:
    def test_to_dict_sorts_params(self):
        report = ConvergenceReport(
            "thm6", {"nu": 1.0, "alpha": 2.0}, "convergence", 9,
            (ConvergenceRow(100.0, 0.01, 0.015),),
        )
        d = report.to_dict()
        assert list(d) == ["theorem", "params", "mode", "seed", "rows", "verdict"]
        assert list(d["params"]) == ["alpha", "nu"]
        assert json.loads(report.to_json()) == d

    def test_csv_plain(self):
        report = make_report([0.0123456789], threshold=0.015)
        lines = report.csv_lines()
        assert lines[0] == "n,ks,threshold,pass"
        assert lines[1] == "100,0.0123456789,0.015,true"

    def test_csv_control_column(self):
        row = ConvergenceRow(100.0, 0.2, 0.015, ks_normal=0.004)
        report = ConvergenceReport("thm8", {}, "negative-control", 1, (row,))
        lines = report.csv_lines()
        assert lines[0] == "n,ks,threshold,pass,ks_normal"
        assert lines[1] == "100,0.2,0.015,false,0.004"


GROUPED_STREAM = RandomStream(31, 5)


def integer_draws(rng, m):
    # Integer-valued floats: every summation order gives the same sums.
    return rng.integers(0, 1000, m).astype(float)


def block_draws(stream, total, block):
    """The draws of _grouped_sums laid end to end, cut every `block` draws."""
    return np.concatenate([
        integer_draws(stream.block_generator(b), min(block, total - b * block))
        for b in range(-(-total // block))
    ])


class TestGroupedSums:
    def test_matches_direct_loop(self, monkeypatch):
        counts = np.random.default_rng(7).integers(1, 60, size=300)
        total = int(counts.sum())
        # The default block holds every draw; 997 cuts through replications.
        for block in (limits._BLOCK, 997):
            monkeypatch.setattr(limits, "_BLOCK", block)
            sums = limits._grouped_sums(integer_draws, counts, GROUPED_STREAM)
            flat = block_draws(GROUPED_STREAM, total, block)
            direct = np.empty(counts.size)
            pos = 0
            for i, c in enumerate(counts):
                direct[i] = flat[pos:pos + c].sum()
                pos += c
            assert np.array_equal(sums, direct)

    def test_single_huge_count_path(self, monkeypatch):
        monkeypatch.setattr(limits, "_BLOCK", 1000)
        counts = np.array([5, 2500, 3])
        sizes = []

        def draw(rng, m):
            sizes.append(m)
            return integer_draws(rng, m)

        sums = limits._grouped_sums(draw, counts, GROUPED_STREAM)
        flat = block_draws(GROUPED_STREAM, 2508, 1000)
        assert sums[0] == flat[:5].sum()
        assert sums[1] == flat[5:2505].sum()
        assert sums[2] == flat[2505:].sum()
        # The 2500-draw replication is drawn across three blocks, none over _BLOCK.
        assert sorted(sizes) == [508, 1000, 1000]

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr(limits, "_TOTAL_DRAW_BUDGET", 10_000)
        with pytest.raises(AccuracyError):
            limits._grouped_sums(
                lambda rng, m: np.zeros(m), np.array([6000, 6000]), GROUPED_STREAM
            )

    def test_same_bytes_on_one_and_two_workers(self, monkeypatch):
        monkeypatch.setattr(limits, "_BLOCK", 4096)
        counts = np.random.default_rng(8).integers(1, 400, size=2000)

        def draw(rng, m):
            return limits._stable_symmetric_values(rng, m, 1.5)

        out = []
        # 8 workers on a short switch interval stress the hand-over of blocks.
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for workers in (1, 2, 8):
                with ThreadPoolExecutor(workers) as pool:
                    monkeypatch.setattr(_pool, "_POOL", pool)
                    sums = limits._grouped_sums(draw, counts, GROUPED_STREAM)
                    report = run_thm6(1.5, 2.0, (20,), 2000, 5)
                out.append(sums.tobytes() + report.final_sample.tobytes())
        finally:
            sys.setswitchinterval(interval)
        assert out[0] == out[1] == out[2]

    def test_block_keys_never_alias_a_stream(self):
        def key(generator):
            return generator.bit_generator.state["state"]["state"]

        streams = {key(RandomStream(1729, s).generator()) for s in range(64)}
        blocks = {
            key(RandomStream(1729, s).block_generator(b))
            for s in range(64)
            for b in range(64)
        }
        assert len(streams) == 64
        assert len(blocks) == 64 * 64
        assert not streams & blocks
        # numpy splits spawn keys into 32-bit words, so substream
        # 3 + 2**32 would alias block 1 of substream 3.
        with pytest.raises(DomainError):
            RandomStream(1729, 3 + 2**32)


class TestRademacherSums:
    def test_parity_and_range(self):
        rng = np.random.default_rng(3)
        counts = np.array([1, 2, 3, 10, 999, 10**7])
        sums = limits._rademacher_sums(rng, counts)
        assert np.all(np.abs(sums) <= counts)
        assert np.all((sums - counts) % 2 == 0)

    def test_variance_scaling(self):
        rng = np.random.default_rng(4)
        counts = np.full(20_000, 400)
        sums = limits._rademacher_sums(rng, counts)
        assert abs(sums.mean()) < 3 * 20 / np.sqrt(20_000)
        assert abs(sums.var() / 400 - 1) < 0.05


class TestValidators:
    def test_replications_floor(self):
        with pytest.raises(DomainError):
            run_lemma14(1.0, (0.1,), 999)
        with pytest.raises(DomainError):
            run_lemma14(1.0, (0.1,), 1000.5)

    @pytest.mark.parametrize("grid", [(), (0.5, 0.5), (0.1, 0.2), (1.0,), (0.0,)])
    def test_bad_p_grid(self, grid):
        with pytest.raises(DomainError):
            run_lemma14(1.0, grid, 1000)

    @pytest.mark.parametrize("grid", [(), (100, 100), (200, 100), (0,)])
    def test_bad_n_grid(self, grid):
        with pytest.raises(DomainError):
            run_thm7(2.0, 1.0, grid, 1000)

    def test_alpha_range(self):
        with pytest.raises(DomainError):
            run_thm6(2.5, 1.0, (100,), 1000)
        with pytest.raises(DomainError):
            run_thm8(0.0, 1.0, (100,), 1000)

    def test_bad_control(self):
        with pytest.raises(DomainError):
            run_thm7(2.0, 1.0, (100,), 1000, control="bogus")

    def test_bad_summand(self):
        with pytest.raises(DomainError):
            run_thm7(2.0, 1.0, (100,), 1000, summand="cauchy")
        with pytest.raises(DomainError):
            run_thm7(2.0, 1.0, (100,), 1000,
                     summand=(lambda rng, m: rng.standard_normal(m), 0.5, 1.0))

    def test_tuple_summand_rejected(self):
        # A summand is a name or a callable; a (draw, mean, variance) triple
        # declared moments that nothing used.
        triple = (lambda rng, m: rng.standard_normal(m), 0.0, 1.0)
        with pytest.raises(DomainError, match="callable"):
            run_thm7(2.0, 1.0, (100,), 1000, summand=triple)

    def test_bad_statistic(self):
        with pytest.raises(DomainError):
            run_thm8(2.0, 1.0, (100,), 1000, statistic="median")

    def test_mapping_statistic_rejected(self):
        # sigma and theta cancel out of the normalized statistic, so a
        # statistic is named, never described by them.
        with pytest.raises(DomainError, match="sample_mean"):
            run_thm8(2.0, 1.0, (100,), 1000,
                     statistic={"sigma": 1.0, "theta": 0.0})


class TestSmallRuns:
    def test_lemma14_structure_and_pass(self):
        report = run_lemma14(1.0, (0.01, 0.001), 50_000, 11)
        assert report.theorem == "lemma14"
        assert report.mode == "convergence"
        assert [r.x for r in report.rows] == [0.01, 0.001]
        assert all(r.threshold == 0.01 for r in report.rows)
        assert report.verdict
        assert report.final_sample is not None
        assert report.final_sample.shape == (50_000,)

    def test_lemma14_deterministic(self):
        a = run_lemma14(0.5, (0.05,), 2000, 7)
        b = run_lemma14(0.5, (0.05,), 2000, 7)
        assert a.rows == b.rows
        assert np.array_equal(a.final_sample, b.final_sample)

    def test_thm6_small(self):
        report = run_thm6(2.0, 1.0, (20, 50), 2000, 5, threshold=0.2)
        assert report.theorem == "thm6"
        assert len(report.rows) == 2
        assert all(np.isfinite(r.ks) for r in report.rows)
        assert all(r.threshold == 0.2 for r in report.rows)
        assert report.final_sample.shape == (2000,)

    def test_thm7_small(self):
        report = run_thm7(2.0, 1.0, (50, 150), 2000, 5, threshold=0.2)
        assert report.theorem == "thm7"
        assert report.mode == "convergence"
        assert all(r.ks_normal is None for r in report.rows)
        assert report.verdict

    def test_thm7_uniform_summand(self):
        report = run_thm7(2.0, 1.0, (100,), 2000, 5, summand="uniform",
                          threshold=0.2)
        assert np.isfinite(report.rows[0].ks)

    def test_thm7_custom_summand_callable(self):
        report = run_thm7(2.0, 1.0, (100,), 2000, 5,
                          summand=lambda rng, m: rng.standard_normal(m),
                          threshold=0.2)
        assert np.isfinite(report.rows[0].ks)
        assert report.params["summand"] == "custom"

    @pytest.mark.parametrize("size", [lambda m: m // 2, lambda m: m + 1],
                             ids=["half", "one_more"])
    def test_thm7_wrong_length_summand_raises(self, size):
        # Unchecked, too few draws would fail inside add.reduceat, and one
        # too many would silently join a block's last replication.
        with pytest.raises(DomainError, match="shape"):
            run_thm7(2.0, 1.0, (100,), 2000, 5,
                     summand=lambda rng, m: rng.standard_normal(size(m)),
                     threshold=0.2)

    def test_thm7_control_columns(self):
        report = run_thm7(1.5, 2.0, (100,), 2000, 5, control="fixed-index")
        assert report.mode == "negative-control"
        assert report.rows[0].ks_normal is not None
        assert report.rows[0].ks > NONCONVERGENCE_FLOOR
        assert report.flags_nonconvergence
        assert report.csv_lines()[0] == "n,ks,threshold,pass,ks_normal"

    def test_thm8_small(self):
        report = run_thm8(2.0, 1.0, (50, 150), 2000, 5, threshold=0.2)
        assert report.theorem == "thm8"
        assert [r.x for r in report.rows] == [50.0, 150.0]

    def test_thm8_params_echo_statistic(self):
        report = run_thm8(2.0, 1.0, (50,), 1000, 5, threshold=0.5)
        assert report.params == {"alpha": 2.0, "nu": 1.0,
                                 "replications": 1000,
                                 "statistic": "sample_mean"}

    def test_default_thresholds(self):
        assert run_thm7(2.0, 1.0, (50,), 1000).rows[0].threshold == 0.01
        assert run_thm7(1.5, 1.0, (50,), 1000).rows[0].threshold == 0.015
        assert run_thm8(2.0, 1.0, (50,), 1000).rows[0].threshold == 0.015


class TestReferenceCdf:
    """One reference CDF per experiment, built out to its largest |statistic|."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        builds, samples = [], []
        real_cdf, real_ks = limits.InversionCdf, limits.ks_one_sample

        def counting_cdf(alpha, nu, x_max):
            builds.append(x_max)
            return real_cdf(alpha, nu, x_max)

        def recording_ks(sample, cdf):
            if cdf is not limits._normal_cdf:
                samples.append(sample)
            return real_ks(sample, cdf)

        monkeypatch.setattr(limits, "InversionCdf", counting_cdf)
        monkeypatch.setattr(limits, "ks_one_sample", recording_ks)
        return builds, samples

    @pytest.mark.parametrize("run", [
        lambda: run_thm6(2.0, 1.0, (20, 50), 2000, 5, threshold=0.5),
        lambda: run_thm7(1.5, 2.0, (50, 150, 400), 2000, 5, threshold=0.5),
        lambda: run_thm8(1.5, 2.0, (50, 150), 2000, 5, threshold=0.5),
        lambda: run_thm7(1.5, 2.0, (50, 150), 2000, 5, control="fixed-index"),
    ], ids=["thm6", "thm7", "thm8", "fixed-index"])
    def test_one_build_per_experiment(self, recorded, run):
        builds, samples = recorded
        report = run()
        assert len(samples) == len(report.rows) > 1
        assert samples[-1] is report.final_sample
        assert builds == [max(2.5, max(float(np.abs(s).max()) for s in samples))]

    def test_lemma14_builds_none(self, recorded):
        run_lemma14(1.0, (0.05, 0.01), 2000, 7)
        assert recorded[0] == []


class TestIndexOverflow:
    @pytest.mark.parametrize("run,alpha", [(run_thm7, 0.3), (run_thm8, 0.5)])
    def test_index_past_int64_is_accuracy_error(self, run, alpha):
        # At these alpha some round(n * V) pass 2^63; the index must not wrap.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AccuracyError, match="64-bit integer"):
                run(alpha, 1.0, (10, 100), 2000, 1729)

    @pytest.mark.parametrize("run", [
        lambda: run_lemma14(1.0, (1e-300,), 1000, 1),
        lambda: run_lemma14(1.0, (1e-308,), 1000, 1),
        lambda: run_thm6(2.0, 1.0, (10**20,), 1000, 1),
    ], ids=["lemma14_p1e-300", "lemma14_p1e-308", "thm6_n1e20"])
    def test_negative_binomial_rate_past_numpy_limit_is_accuracy_error(self, run):
        with pytest.raises(AccuracyError, match="Poisson rate"):
            run()


class TestExperimentRecord:
    def test_valid_construction_normalizes(self):
        exp = LimitExperiment("thm7", 2, alpha=1.5, grid=[100, 1000])
        assert exp.grid == (100, 1000)
        assert exp.nu == 2.0
        assert exp.alpha == 1.5

    def test_lemma14_takes_p_grid(self):
        exp = LimitExperiment("lemma14", 1.0, grid=[0.1, 0.01])
        assert exp.grid == (0.1, 0.01)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theorem": "thm9", "nu": 1.0, "grid": (100,)},
            {"theorem": "thm6", "nu": 1.0, "grid": (100,)},  # alpha missing
            {"theorem": "thm6", "nu": -1.0, "alpha": 2.0, "grid": (100,)},
            {"theorem": "lemma14", "nu": 1.0, "grid": (0.1, 0.2)},
            {"theorem": "thm7", "nu": 1.0, "alpha": 2.0, "grid": (100,),
             "replications": 10},
            {"theorem": "thm6", "nu": 1.0, "alpha": 2.0, "grid": (100,),
             "control": "fixed-index"},
            {"theorem": "thm7", "nu": 1.0, "alpha": 2.0, "grid": (100,),
             "control": "anything-else"},
            {"theorem": "thm7", "nu": 1.0, "alpha": 2.0, "grid": (100,),
             "summand": "cauchy"},
            {"theorem": "thm8", "nu": 1.0, "alpha": 2.0, "grid": (100,),
             "statistic": "median"},
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(DomainError):
            LimitExperiment(**kwargs)

    @pytest.mark.parametrize(
        "threshold", ["x", object(), float("nan"), float("inf"), -1.0, 0.0]
    )
    def test_rejects_bad_threshold_before_drawing(self, threshold, monkeypatch):
        def no_draws(stream):
            raise AssertionError("drew before validating the threshold")

        monkeypatch.setattr(limits.RandomStream, "generator", no_draws)
        with pytest.raises(DomainError, match="threshold"):
            LimitExperiment("thm6", 1.0, alpha=2.0, grid=(100,), threshold=threshold)
        with pytest.raises(DomainError, match="threshold"):
            run_lemma14(1.0, (0.1,), 1000, threshold=threshold)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"theorem": "lemma14", "alpha": 2.0, "grid": (0.1,)}, "alpha"),
            ({"theorem": "lemma14", "grid": (0.1,), "control": "fixed-index"},
             "control"),
            ({"theorem": "thm6", "alpha": 2.0, "grid": (100,),
              "summand": "uniform"}, "summand"),
            ({"theorem": "thm8", "alpha": 2.0, "grid": (100,),
              "summand": "rademacher"}, "summand"),
            ({"theorem": "thm6", "alpha": 2.0, "grid": (100,),
              "statistic": "sample_mean"}, "statistic"),
            ({"theorem": "thm7", "alpha": 2.0, "grid": (100,),
              "statistic": {"sigma": 1.0, "theta": 0.0}}, "statistic"),
        ],
    )
    def test_rejects_fields_the_theorem_does_not_read(self, kwargs, field):
        with pytest.raises(DomainError, match=field):
            LimitExperiment(nu=1.0, **kwargs)

    def test_fills_in_defaults(self):
        thm7 = LimitExperiment("thm7", 1.0, alpha=2.0, grid=(100,))
        assert (thm7.summand, thm7.statistic, thm7.threshold) == (
            "rademacher", None, 0.01
        )
        thm8 = LimitExperiment("thm8", 1.0, alpha=2.0, grid=(100,))
        assert (thm8.summand, thm8.statistic, thm8.threshold) == (
            None, "sample_mean", 0.015
        )
        assert LimitExperiment("thm6", 1.0, alpha=1.5, grid=(9,)).threshold == 0.015
        assert LimitExperiment("lemma14", 1.0, grid=(0.1,)).threshold == 0.01
        exp = LimitExperiment("thm6", 1.0, alpha=2.0, grid=(9,), threshold=0.3)
        assert exp.threshold == 0.3

    def test_dispatch_matches_direct_call(self):
        exp = LimitExperiment("lemma14", 1.0, grid=(0.05,), replications=2000,
                              seed=7)
        via_exp = run_experiment(exp)
        direct = run_lemma14(1.0, (0.05,), 2000, 7)
        assert via_exp.rows == direct.rows

    def test_dispatch_each_theorem(self):
        for theorem in THEOREMS:
            if theorem == "lemma14":
                exp = LimitExperiment(theorem, 1.0, grid=(0.05,),
                                      replications=1000)
            else:
                exp = LimitExperiment(theorem, 1.0, alpha=2.0, grid=(30,),
                                      replications=1000, threshold=0.5)
            assert run_experiment(exp).theorem == theorem

    def test_dispatch_rejects_other_types(self):
        with pytest.raises(DomainError):
            run_experiment({"theorem": "thm6"})

    def test_summands_tuple(self):
        assert SUMMANDS == ("rademacher", "uniform")
