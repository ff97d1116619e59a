import inspect
import json
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from htmix import _pool, verification
from htmix.distributions import DistSpec, NegBinParams, sample
from htmix.errors import DomainError
from htmix.streams import RandomStream
from htmix.verification import (
    DEFAULT_S_GRID,
    DEFAULT_T_GRID,
    MetricEntry,
    VerificationReport,
    ecf_distance,
    hill_is_unstable,
    hill_tail_index,
    ks_one_sample,
    ks_one_sample_threshold,
    ks_two_sample,
    ks_two_sample_threshold,
    lst_distance,
)


def ks_two_sample_oracle(a, b):
    # The searchsorted-over-both formula: both ECDFs at every point of the
    # concatenated sample.
    x = np.sort(np.asarray(a, dtype=float))
    y = np.sort(np.asarray(b, dtype=float))
    both = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, both, side="right") / x.size
    cdf_y = np.searchsorted(y, both, side="right") / y.size
    return float(np.abs(cdf_x - cdf_y).max())


def _oracle_pairs():
    rng = RandomStream(77, 0).generator()
    nb = DistSpec("neg_binom", NegBinParams(2.0, 0.2))
    ties_a = sample(nb, 50_000, RandomStream(77, 1)).values
    ties_b = sample(nb, 30_000, RandomStream(77, 2)).values
    normal = rng.standard_normal(200_000)
    zeros = np.array([-0.0, 0.0, 0.0, -0.0, 1.0, -1.0, -0.0])
    with_inf = normal[:5000].copy()
    with_inf[::125] = np.inf
    moved = np.sort(normal)
    moved[150_000] = np.nextafter(moved[150_000], np.inf)
    rounded = np.round(normal, 3)
    # The sup, 30/n, is at x = 4998 alone: y moves its 30 points below it to
    # 4998.5. Index 4998 is a checkpoint of no spacing 1 < k < 4999 (prime).
    grid = np.arange(10_000.0)
    bump = np.concatenate([grid[:4969], np.full(30, 4998.5), grid[4999:]])
    return {
        "heavy_ties": (ties_a, ties_b),
        "ties_shifted": (ties_a, ties_b + 1.0),
        "one_vs_seven": (np.array([0.3]), rng.standard_normal(7)),
        "seven_vs_one": (rng.standard_normal(7), np.array([-0.2])),
        "1000_vs_200000": (rng.standard_normal(1000) + 0.1, normal),
        "identical": (normal[:5000], normal[:5000].copy()),
        "disjoint": (rng.uniform(0, 1, 300), rng.uniform(2, 3, 500)),
        "signed_zeros": (zeros, np.array([0.0, -0.0, 0.0, 2.0])),
        "signed_zeros_only": (np.array([-0.0, -0.0]), np.array([0.0])),
        # Three -inf values, fewer than the checkpoint spacing: the first
        # range must start at index 0, not after the -inf values.
        "neg_inf_run": (np.r_[np.full(3, -np.inf), np.ones(9997)], np.ones(10_000)),
        "pos_inf_one_side": (with_inf, normal[5000:10_000]),
        "sup_between_checkpoints": (grid, bump),
        "identical_200000": (normal, normal.copy()),
        "one_ulp": (normal, np.nextafter(normal, np.inf)),
        # D = 1/n, at one point deep in the third block of the search.
        "one_point_moved": (normal, moved),
        # D = 0, so every range is searched, and most hold tied points.
        "identical_ties": (rounded, rounded[::-1].copy()),
        "constant": (np.full(1000, 2.5), np.full(700, 2.5)),
        "constants_apart": (np.full(1000, 2.5), np.full(700, -2.5)),
        # The spacing k is 20 at these sizes, so x's last stride is one
        # short of k, exactly k, or one over.
        "stride_short": (normal[:19_999], normal[100_000:120_000]),
        "stride_exact": (normal[:20_000], normal[100_000:120_000]),
        "stride_long": (normal[:20_001], normal[100_000:120_000]),
    }


ORACLE_PAIRS = _oracle_pairs()


class TestKsTwoSample:
    @pytest.mark.parametrize("name", sorted(ORACLE_PAIRS))
    def test_matches_concatenated_oracle_bitwise(self, name):
        a, b = ORACLE_PAIRS[name]
        want = ks_two_sample_oracle(a, b)
        got = ks_two_sample(a, b)
        assert got.hex() == want.hex()
        assert ks_two_sample(b, a).hex() == want.hex()
        # Inside a pool task too.
        (inline,) = _pool.imap(lambda pair: ks_two_sample(*pair), [(a, b)])
        assert inline.hex() == want.hex()

    def test_sup_between_checkpoints_is_where_claimed(self):
        x, y = ORACLE_PAIRS["sup_between_checkpoints"]
        both = np.concatenate([x, y])
        gaps = np.abs(np.searchsorted(x, both, "right") / x.size
                      - np.searchsorted(y, both, "right") / y.size)
        assert set(both[gaps == gaps.max()]) == {4998.0}
        assert gaps.max() == pytest.approx(30 / 10_000)

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.tuples(st.integers(1, 3000), st.integers(1, 3000)),
        seed=st.integers(0, 2**32 - 1),
        ties=st.sampled_from([0, 3, 100, 3000]),
        special=st.floats(0.0, 0.3),
        resampled=st.booleans(),
    )
    def test_matches_oracle_on_random_pairs(self, sizes, seed, ties, special, resampled):
        # ties > 0 rounds onto a grid of 1/ties; special is the share of
        # -inf, +inf, -0.0 and 0.0; resampled draws b from a's values.
        rng = np.random.default_rng(seed)

        def draw(size):
            values = rng.standard_normal(size)
            if ties:
                values = np.round(values * ties) / ties
            odd = rng.random(size) < special
            values[odd] = rng.choice([-np.inf, np.inf, -0.0, 0.0], odd.sum())
            return values

        a = draw(sizes[0])
        b = rng.choice(a, sizes[1]) if resampled else draw(sizes[1])
        want = ks_two_sample_oracle(a, b)
        assert ks_two_sample(a, b).hex() == want.hex()
        assert ks_two_sample(b, a).hex() == want.hex()

    @pytest.mark.parametrize("block", [7, verification._BLOCK])
    def test_runs_cover_each_range_once_in_blocks(self, monkeypatch, block):
        monkeypatch.setattr(verification, "_BLOCK", block)
        rng = np.random.default_rng(5)
        stops = np.cumsum(rng.integers(0, 40, 3000))
        starts = stops - rng.integers(0, 30, 3000).clip(max=np.diff(stops, prepend=0))
        blocks = list(verification._runs(starts, stops))
        assert all(0 < idx.size <= block for idx in blocks)
        want = np.concatenate([np.arange(lo, hi) for lo, hi in zip(starts, stops)])
        assert np.array_equal(np.concatenate(blocks), want)

    def test_submits_no_pool_task(self, monkeypatch):
        def no_pool():
            raise AssertionError("ks_two_sample used the pool")

        monkeypatch.setattr(_pool, "executor", no_pool)
        a, b = ORACLE_PAIRS["1000_vs_200000"]
        assert ks_two_sample(a, b).hex() == ks_two_sample_oracle(a, b).hex()

    def test_matches_scipy(self):
        rng = RandomStream(2024, 0).generator()
        a = rng.standard_normal(700)
        b = rng.standard_normal(900) + 0.2
        want = scipy.stats.ks_2samp(a, b).statistic
        assert ks_two_sample(a, b) == pytest.approx(want, abs=1e-12)

    def test_identical_is_zero(self):
        a = np.array([1.0, 2.0, 3.0])
        assert ks_two_sample(a, a) == 0.0

    def test_disjoint_is_one(self):
        assert ks_two_sample(np.arange(5.0), np.arange(10.0, 15.0)) == 1.0

    def test_ties_handled(self):
        a = np.array([1.0, 1.0, 1.0, 2.0])
        b = np.array([1.0, 2.0, 2.0, 2.0])
        want = scipy.stats.ks_2samp(a, b).statistic
        assert ks_two_sample(a, b) == pytest.approx(want, abs=1e-12)

    def test_threshold_values(self):
        # c(q) = sqrt(-ln(q/2)/2): 1.6276 at 1%, 1.9495 at 0.1%.
        thr = ks_two_sample_threshold(200_000, 200_000, q=0.01)
        assert thr == pytest.approx(1.6276 * math.sqrt(2 / 200_000), rel=1e-3)
        thr = ks_two_sample_threshold(100, 400, q=0.001)
        assert thr == pytest.approx(1.9495 * math.sqrt(500 / 40_000), rel=1e-3)

    def test_threshold_domain(self):
        with pytest.raises(DomainError):
            ks_two_sample_threshold(100, 100, q=0.0)

    def test_accepts_batch_objects(self):
        class Box:
            values = np.array([1.0, 2.0])

        assert ks_two_sample(Box(), Box()) == 0.0


class TestKsOneSample:
    def test_matches_scipy(self):
        x = RandomStream(2024, 1).generator().random(1000)
        want = scipy.stats.kstest(x, "uniform").statistic
        assert ks_one_sample(x, lambda v: np.clip(v, 0, 1)) == pytest.approx(
            want, abs=1e-12
        )

    def test_scalar_only_or_wrong_shape_cdf_raises(self):
        # The cdf is called once, on the whole sorted sample.
        x = RandomStream(2024, 2).generator().random(500)

        def scalar_cdf(v):
            if isinstance(v, np.ndarray):
                raise TypeError("scalars only")
            return min(max(v, 0.0), 1.0)

        with pytest.raises(TypeError, match="scalars only"):
            ks_one_sample(x, scalar_cdf)
        for wrong in (lambda v: 0.5, lambda v: np.clip(v[:-1], 0, 1),
                      lambda v: np.clip(v, 0, 1)[:, None]):
            with pytest.raises(DomainError, match="cdf returned shape"):
                ks_one_sample(x, wrong)

    def test_threshold(self):
        assert ks_one_sample_threshold(10_000, q=0.01) == pytest.approx(
            1.6276 / 100.0, rel=1e-3
        )


class TestEcfDistance:
    def test_normal_within_envelope(self):
        x = RandomStream(2024, 3).generator().standard_normal(200_000)
        d = ecf_distance(x, lambda t: math.exp(-0.5 * t * t))
        assert d < 4.0 / math.sqrt(200_000)

    def test_wrong_cf_is_flagged(self):
        x = RandomStream(2024, 4).generator().standard_normal(200_000)
        d = ecf_distance(x, lambda t: math.exp(-abs(t)))
        assert d > 0.05

    def test_imaginary_part_counts(self):
        """A shifted sample fails through the sine term."""
        x = RandomStream(2024, 5).generator().standard_normal(100_000) + 0.5
        d = ecf_distance(x, lambda t: math.exp(-0.5 * t * t))
        assert d > 0.1

    def test_default_grid(self):
        assert DEFAULT_T_GRID == (0.25, 0.5, 1.0, 2.0, 4.0)
        # The grid is fixed: no caller ever set another one.
        assert list(inspect.signature(ecf_distance).parameters) == ["a", "cf"]

    @pytest.mark.parametrize("scale", [1.0, 1e9])
    def test_doubling_matches_per_t_calls(self, scale):
        # Cauchy draws times scale, with |x| up to 1e15, where every
        # per-t cos and sin needs a long range reduction.
        x = RandomStream(2024, 9).generator().standard_cauchy(20_000) * scale
        x[:2] = (1e15, -7.3e14)
        means = {}
        for t in DEFAULT_T_GRID:
            means[t] = (float(np.cos(t * x).mean()), float(np.sin(t * x).mean()))

        def oracle(cf):
            return max(max(abs(c - cf(t)), abs(s)) for t, (c, s) in means.items())

        # A target 0.5 off the mean cosine at one t in turn, and on it
        # elsewhere, so that each t's cosine term decides the max once.
        for off in DEFAULT_T_GRID:
            def cf(t, off=off):
                return means[t][0] + (0.5 if t == off else 0.0)

            d = ecf_distance(x, cf)
            assert d == pytest.approx(oracle(cf), abs=1e-13)
            assert d == pytest.approx(0.5, abs=1e-13)
        # On the mean cosine everywhere, the sine terms decide it.
        assert ecf_distance(x, lambda t: means[t][0]) == pytest.approx(
            oracle(lambda t: means[t][0]), abs=1e-13)


class TestLstDistance:
    def test_exponential_within_envelope(self):
        x = RandomStream(2024, 7).generator().standard_exponential(200_000)
        d = lst_distance(x, lambda s: 1.0 / (1.0 + s))
        assert d < 1.5 / math.sqrt(200_000)

    def test_rejects_negative_values(self):
        with pytest.raises(DomainError):
            lst_distance(np.array([1.0, -0.5]), lambda s: 1.0)

    def test_default_grid(self):
        assert DEFAULT_S_GRID == (0.5, 1.0, 2.0)
        # The grid is fixed: no caller ever set another one.
        assert list(inspect.signature(lst_distance).parameters) == ["a", "lst"]


class TestHill:
    def test_pareto_index_recovered(self):
        a = 3.0
        rng = RandomStream(11, 0).generator()
        x = (1.0 / rng.random(500_000)) ** (1.0 / a)
        assert hill_tail_index(x) == pytest.approx(a, abs=0.15)

    def test_k_override(self):
        rng = RandomStream(11, 1).generator()
        x = (1.0 / rng.random(100_000)) ** 0.5
        est = hill_tail_index(x, k=5000)
        assert est == pytest.approx(2.0, abs=0.2)

    def test_pareto_is_stable(self):
        rng = RandomStream(11, 2).generator()
        x = (1.0 / rng.random(500_000)) ** (1.0 / 1.5)
        assert not hill_is_unstable(x)

    def test_bounded_support_is_unstable(self):
        """No power tail at all: the doubled-k estimate collapses."""
        rng = RandomStream(11, 3).generator()
        assert hill_is_unstable(rng.random(500_000))

    def test_k_bounds(self):
        with pytest.raises(DomainError):
            hill_tail_index(np.ones(10) + np.arange(10), k=10)

    def test_needs_positive_top(self):
        with pytest.raises(DomainError):
            hill_tail_index(-np.arange(1.0, 100.0))


class TestReports:
    def test_metric_entry(self):
        m = MetricEntry("ks", 0.002, 0.005)
        assert m.passed
        assert m.to_dict() == {
            "name": "ks",
            "value": 0.002,
            "threshold": 0.005,
            "pass": True,
        }

    def test_report_verdict_conjunction(self):
        good = MetricEntry("a", 0.1, 0.2)
        bad = MetricEntry("b", 0.3, 0.2)
        r = VerificationReport("x", {}, {"lhs": 10}, 0, (good,))
        assert r.verdict
        r = VerificationReport("x", {}, {"lhs": 10}, 0, (good, bad))
        assert not r.verdict

    def test_json_field_order(self):
        r = VerificationReport(
            "I99",
            {"b": 2.0, "a": 1.0},
            {"rhs": 5, "lhs": 5},
            17,
            (MetricEntry("ks", 0.0, 1.0),),
        )
        d = json.loads(r.to_json())
        assert list(d) == ["label", "params", "n", "seed", "metrics", "verdict"]
        assert list(d["params"]) == ["a", "b"]
        assert list(d["n"]) == ["lhs", "rhs"]

    def test_json_deterministic(self):
        r = VerificationReport("x", {"a": 1.0}, {"lhs": 3}, 0,
                               (MetricEntry("ks", 0.0, 1.0),))
        assert r.to_json() == r.to_json()

    def test_metrics_type_checked(self):
        with pytest.raises(DomainError):
            VerificationReport("x", {}, {}, 0, ({"name": "ks"},))


class TestInputShapes:
    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ks_two_sample(np.array([]), np.array([1.0]))

    def test_multidim_rejected(self):
        with pytest.raises(DomainError):
            ks_one_sample(np.zeros((3, 3)), lambda v: v)


class TestNanRejected:
    # A NaN compares false with everything, so it would silently drop out of
    # every metric; each metric rejects it and says how many there are.
    SAMPLE = np.array([1.0, 2.0, np.nan, 0.5, np.nan])

    @pytest.mark.parametrize(
        "metric",
        [
            lambda a: ks_two_sample(a, np.array([1.0, 2.0])),
            lambda a: ks_two_sample(np.array([1.0, 2.0]), a),
            lambda a: ks_one_sample(a, lambda v: np.clip(v, 0, 1)),
            lambda a: ecf_distance(a, lambda t: 1.0),
            lambda a: lst_distance(a, lambda s: 1.0),
            lambda a: hill_tail_index(a, k=2),
        ],
        ids=["ks_two_sample_lhs", "ks_two_sample_rhs", "ks_one_sample",
             "ecf_distance", "lst_distance", "hill_tail_index"],
    )
    def test_nan_raises_with_count(self, metric):
        with pytest.raises(DomainError, match="2 NaN values of 5"):
            metric(self.SAMPLE)

    def test_ecf_and_lst_no_longer_pass_silently(self):
        with pytest.raises(DomainError, match="1 NaN"):
            ecf_distance(np.array([1.0, 2.0, np.nan]), lambda t: 1.0)
        with pytest.raises(DomainError, match="1 NaN"):
            lst_distance(np.array([1.0, np.nan]), lambda s: 1.0)


class TestEcfNonFinite:
    # An infinite value makes a mean NaN, which max() would skip, so the
    # ECF would drop that grid point silently.
    def test_infinite_values_raise_with_count(self):
        with pytest.raises(DomainError, match="1 infinite values of 3"):
            ecf_distance(np.array([np.inf, 1.0, 2.0]), lambda t: 0.123)
        with pytest.raises(DomainError, match="2 infinite values of 4"):
            ecf_distance(np.array([np.inf, 1.0, -np.inf, 2.0]), lambda t: 0.123)

    def test_doubling_path_keeps_every_grid_point(self):
        # 4 * 1e308 overflows, but doubling from 0.25 * x never forms it, so
        # the t = 4 term, about 4 away from this target, must count.
        x = np.array([1e308, -1e308, 0.5])
        d = ecf_distance(x, lambda t: 5.0 if t == 4.0 else 0.0)
        assert d >= 4.0
