import dataclasses
import gc
import inspect
import math
import sys
import threading
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sc
import scipy.stats
from hypothesis import given, settings, strategies as st
from scipy import integrate

from htmix import special
from htmix.distributions import DistSpec, analytic_cf, analytic_lst
from htmix.errors import AccuracyError, DomainError, UnsupportedRegimeError
from htmix.special import (
    DEFAULT_ACCURACY,
    Accuracy,
    InversionCdf,
    cdf_by_inversion,
    gamma_fn,
    genlinnik_cf,
    genml_lst,
    gg_density,
    gleser_mixing_density,
    mittag_leffler,
    ml_cdf,
    ml_density,
    pdf_by_inversion,
    snedecor_fisher_density,
    stable_ratio_density,
)


def ml_reference(delta, z):
    """Extended-precision Mittag-Leffler value via mpmath.

    Series when it converges comfortably; otherwise the completely monotone
    spectral integral (z < 0 only).
    """
    if z == 0:
        return 1.0
    peak = abs(z) ** (1.0 / delta)
    if peak < 400:
        mp.mp.dps = 60 + int(1.2 * peak / math.log(10))
        zm = mp.mpf(z)
        total = mp.mpf(1)
        n = 0
        while True:
            n += 1
            term = zm**n / mp.gamma(mp.mpf(delta) * n + 1)
            total += term
            if abs(term) < mp.mpf(10) ** (-40) and n > 3 * peak / delta + 20:
                mp.mp.dps = 15
                return float(total)
    assert z < 0
    mp.mp.dps = 40
    x = mp.mpf(-z)
    d = mp.mpf(delta)
    c = mp.cos(mp.pi * d)
    w = float(mp.sin(mp.pi * (1 - d)))
    fn = lambda v: mp.e ** (-((x * v) ** (1 / d))) / (v * v + 2 * v * c + 1)
    pts = sorted({0.0, 0.25, max(1 - 3 * w, 1e-8), 1.0, 1 + 3 * w, 4.0,
                  float(1 / x), float(4 / x)})
    out = float(mp.sin(mp.pi * d) / (mp.pi * d) * mp.quad(fn, pts + [mp.inf]))
    mp.mp.dps = 15
    return out


def ml_density_reference(delta, x):
    if x < 200:
        mp.mp.dps = 60 + int(1.2 * x / math.log(10))
        xm = mp.mpf(x)
        d = mp.mpf(delta)
        total = mp.mpf(0)
        n = 0
        while True:
            n += 1
            term = xm ** (d * n - 1) / mp.gamma(d * n)
            total += (-1) ** (n - 1) * term
            if n > 3 * x / delta + 30 and abs(term) < mp.mpf(10) ** (-40):
                mp.mp.dps = 15
                return float(total)
    mp.mp.dps = 40
    xm = mp.mpf(x)
    d = mp.mpf(delta)
    c = mp.cos(mp.pi * d)
    sn = mp.sin(mp.pi * d)
    weight = lambda t: sn / mp.pi * t ** (d - 1) / (1 + t ** (2 * d) + 2 * t**d * c)
    fn = lambda t: t * mp.e ** (-xm * t) * weight(t)
    pts = sorted({0.0, float(1 / x), float(4 / x), float(20 / x), 1.0})
    out = float(mp.quad(fn, pts + [mp.inf]))
    mp.mp.dps = 15
    return out


def spectral_band(name, delta, x):
    """Whether special.<name>(delta, x) (at -x for mittag_leffler) reaches
    the damped inversion: neither the series nor the tail takes it, by the
    predicates bench/layers.py's ml_branch uses."""
    acc, density = DEFAULT_ACCURACY, name == "ml_density"
    return (special._ml_series(delta, x, density, acc) is None
            and special._alternating_tail(delta, x, acc, density=density) is None)


# delta at the edges of (0, 1), at x in the band between the series and the
# tail: (x, delta) pairs, the x as the tests below take it. At delta = 0.003
# powers u^(1/delta) pass float64 in the band; the inversion forms them from
# ln u.
ML_SPECTRAL_EDGE = [(-1.12, 0.05), (-10.0, 0.99), (-8.0, 0.999), (-20.0, 0.999),
                    (-1.0, 0.003)]
DENSITY_SPECTRAL_EDGE = [(5.0, 0.05), (30.0, 0.05), (10.0, 0.99), (8.0, 0.999), (20.0, 0.999),
                         (1.0, 0.003)]


class TestGammaFn:
    def test_matches_math_gamma(self):
        for s in (0.1, 0.5, 1.0, 2.5, 10.0, 100.0):
            assert gamma_fn(s) == pytest.approx(math.gamma(s), rel=1e-14)

    def test_domain(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                gamma_fn(bad)

    def test_overflow_is_accuracy_error(self):
        with pytest.raises(AccuracyError):
            gamma_fn(200.0)


class TestMittagLeffler:
    def test_half_anchor(self):
        assert mittag_leffler(0.5, -1.0) == pytest.approx(
            0.4275835761, abs=1e-9
        )

    def test_delta_one_is_exp(self):
        for z in (-30.0, -2.0, 0.0, 1.0, 5.0):
            assert mittag_leffler(1.0, z) == pytest.approx(math.exp(z), rel=1e-14)

    def test_half_is_erfc_scaled(self):
        # E_{1/2}(z) = e^{z^2} erfc(-z) = erfcx(-z) for z <= 0.
        for z in (-40.0, -9.0, -2.0, -0.5, 0.0):
            assert mittag_leffler(0.5, z) == pytest.approx(
                float(sc.erfcx(-z)), rel=1e-11
            )
        for z in (0.7, 3.0):
            want = math.exp(z * z) * sc.erfc(-z)
            assert mittag_leffler(0.5, z) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("z, delta", [
        (z, delta) for z in (-30.0, -5.0, -1.0, -0.1, 0.5, 2.0) for delta in (0.3, 0.7, 0.9)
    ] + ML_SPECTRAL_EDGE)
    def test_against_mpmath(self, delta, z):
        if (z, delta) in ML_SPECTRAL_EDGE:
            assert spectral_band("mittag_leffler", delta, -z)
        assert mittag_leffler(delta, z) == pytest.approx(
            ml_reference(delta, z), abs=1e-10
        )

    def test_band_past_the_float_range(self):
        # E_delta(-x) = 1 - F(x^(1/delta)): where x^(1/delta) overflows or
        # underflows, the inversion takes ln(x) / delta. To first order in
        # delta, E_delta(-x) = 1/(1 + x) - gamma delta x / (1 + x)^2.
        for delta, x in [(1e-4, 1.1), (1e-6, 1.01), (1e-6, 1.1), (1e-6, 0.995), (1e-6, 0.999)]:
            assert spectral_band("mittag_leffler", delta, x)
            assert special._power(x, 1.0 / delta) in (0.0, math.inf)
            got = mittag_leffler(delta, -x)
            assert abs(got - 1.0 / (1.0 + x)) <= delta * x / (1.0 + x) ** 2
        # delta log-uniform in [1e-6, 1] and x in [1e-3, 1e4]: no point raises.
        rng = np.random.default_rng(0)
        deltas = np.exp(rng.uniform(math.log(1e-6), 0.0, 4000))
        xs = np.exp(rng.uniform(math.log(1e-3), math.log(1e4), 4000))
        assert all(0.0 <= mittag_leffler(d, -x) <= 1.0 for d, x in zip(deltas, xs))

    def test_completely_monotone_tail(self):
        xs = np.linspace(0.1, 80.0, 60)
        vals = [mittag_leffler(0.6, -x) for x in xs]
        assert all(v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, -1.0)
        with pytest.raises(DomainError):
            mittag_leffler(1.2, -1.0)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, math.inf)


class TestMlDensity:
    def test_delta_one_is_exponential(self):
        for x in (0.0, 0.5, 3.0, 40.0):
            assert ml_density(1.0, x) == pytest.approx(math.exp(-x), rel=1e-14)

    def test_origin_divergence(self):
        assert ml_density(0.7, 0.0) == math.inf

    @pytest.mark.parametrize("x, delta", [
        (x, delta) for x in (0.05, 1.0, 8.0, 50.0, 1000.0) for delta in (0.3, 0.5, 0.9)
    ] + DENSITY_SPECTRAL_EDGE)
    def test_against_mpmath(self, delta, x):
        if (x, delta) in DENSITY_SPECTRAL_EDGE:
            assert spectral_band("ml_density", delta, x)
        assert ml_density(delta, x) == pytest.approx(
            ml_density_reference(delta, x), abs=1e-10
        )

    def test_cdf_is_integral_of_density(self):
        val, err = integrate.quad(lambda u: ml_density(0.6, u), 0.0, 2.0,
                                  limit=200)
        assert err < 1e-9
        assert ml_cdf(0.6, 2.0) == pytest.approx(val, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            ml_density(0.5, -0.1)


class TestMlCdf:
    def test_exponential_anchor(self):
        assert ml_cdf(1.0, 1.0) == pytest.approx(0.6321205588, abs=1e-9)

    def test_bounds_and_monotone(self):
        xs = np.linspace(0.0, 50.0, 40)
        vals = [ml_cdf(0.4, x) for x in xs]
        assert vals[0] == 0.0
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_heavy_tail_is_slow(self):
        # delta < 1 has a power tail; far slower than exponential.
        assert 1.0 - ml_cdf(0.5, 100.0) > 0.05


# The Mittag-Leffler grid of tests/test_golden.py: every (function, delta,
# argument) its ML digests evaluate, E at -x and at a few positive z.
ML_GRID_DELTAS = (0.3, 0.6, 0.9)
ML_GRID_X = np.logspace(-2.0, 3.0, 40)
ML_GRID_Z = (0.1, 1.0, 5.0)
ML_GRID = (
    [(fn, d, sign * x) for fn, sign in ((mittag_leffler, -1.0), (ml_density, 1.0),
                                        (ml_cdf, 1.0))
     for d in ML_GRID_DELTAS for x in ML_GRID_X]
    + [(mittag_leffler, d, z) for d in ML_GRID_DELTAS for z in ML_GRID_Z]
)
# The scipy whose real-input _logsumexp special._logsumexp replicates step by
# step; the golden pins install it.
LSE_SCIPY = "1.17.1"


def _series_table(delta, density):
    """The series terms of special._ml_table."""
    return special._ml_table(delta, density)[0]


def _tail_table(delta, density):
    """The tail terms of special._ml_table."""
    return special._ml_table(delta, density)[1]


class TestMittagLefflerTerms:
    def test_logsumexp_replica_matches_scipy(self, monkeypatch):
        replica, seen = special._logsumexp, {}

        def record(a):
            seen.setdefault(key, []).append(a.copy())
            return replica(a)

        monkeypatch.setattr(special, "_logsumexp", record)
        for fn, d, arg in ML_GRID:
            key = "positive" if arg > 0 and fn is mittag_leffler else fn.__name__
            fn(d, arg)
        assert set(seen) == {"mittag_leffler", "ml_density", "ml_cdf", "positive"}
        edges = [np.array([-3.5]), np.array([2.0, 7.25, -1.0, 7.25, 7.25, 0.5]),
                 np.full(9, -1.25), np.array([1e-300, 0.0, -0.0]),
                 np.array([700.0, -700.0, 699.0])]
        for a in [a for vectors in seen.values() for a in vectors] + edges:
            got, want = replica(a), float(sc.logsumexp(a))
            if scipy.__version__ == LSE_SCIPY:
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), a
            else:
                assert abs(got - want) <= 2 * np.spacing(abs(want)), a

    @pytest.mark.parametrize("table, args", [
        (_series_table, (0.6, False)),
        (_series_table, (0.6, True)),
        (_tail_table, (0.6, False)),
        (_tail_table, (0.6, True)),
    ])
    def test_cached_tables_are_read_only(self, table, args):
        for a in table(*args):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_series_cache_holds_both_series_of_64_deltas(self):
        # One bounded cache serves the series and the tail of E_delta(-x) and
        # of the density, as two of 64 did for each.
        assert special._ml_table.cache_info().maxsize == 128

    def test_shuffled_grid_keeps_the_bits(self):
        # Against each point on freshly built tables, so that a table which
        # depended on the calls before it would show in either order.
        def values(order, fresh):
            out = np.empty(len(ML_GRID))
            for i in order:
                if fresh or i == order[0]:
                    special._ml_table.cache_clear()
                fn, d, arg = ML_GRID[i]
                out[i] = fn(d, arg)
            return out.tobytes()

        in_order = list(range(len(ML_GRID)))
        want = values(in_order, fresh=True)
        assert values(in_order, fresh=False) == want
        assert values(list(np.random.default_rng(19).permutation(len(ML_GRID))), False) == want


class TestStableRatioDensity:
    @pytest.mark.parametrize("delta", [0.2, 0.5, 0.8])
    def test_reciprocal_involution(self, delta):
        for x in (0.1, 0.7, 1.0, 3.0, 20.0):
            lhs = stable_ratio_density(delta, x)
            rhs = stable_ratio_density(delta, 1.0 / x) / (x * x)
            assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)

    @pytest.mark.parametrize("delta", [0.3, 0.6, 0.9])
    def test_normalization(self, delta):
        val, err = integrate.quad(
            lambda u: stable_ratio_density(delta, u), 0.0, np.inf, limit=400
        )
        assert val == pytest.approx(1.0, abs=max(1e-8, 10 * err))

    def test_degenerate_delta_refused(self):
        with pytest.raises(DomainError):
            stable_ratio_density(1.0, 1.0)

    def test_subnormal_x_past_the_float_range(self):
        # x^(delta - 1) passes the float64 range: an AccuracyError, not an
        # OverflowError or a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AccuracyError):
                stable_ratio_density(0.01, 5e-324)
            assert math.isfinite(stable_ratio_density(0.5, 5e-324))

    def test_domain(self):
        with pytest.raises(DomainError):
            stable_ratio_density(0.5, 0.0)
        with pytest.raises(DomainError):
            stable_ratio_density(0.5, -2.0)


class TestGGDensity:
    def test_alpha_one_is_gamma(self):
        for x in (0.2, 1.0, 4.0):
            want = scipy.stats.gamma.pdf(x, a=1.7, scale=1 / 2.5)
            assert gg_density(1.7, 1.0, 2.5, x) == pytest.approx(want, rel=1e-12)

    def test_negative_alpha_is_reciprocal_law(self):
        for x in (0.3, 1.0, 2.0):
            lhs = gg_density(1.3, -0.8, 1.0, x)
            rhs = gg_density(1.3, 0.8, 1.0, 1.0 / x) / (x * x)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("alpha", [-1.5, 0.5, 2.0])
    def test_normalization(self, alpha):
        val, err = integrate.quad(
            lambda u: gg_density(0.9, alpha, 1.4, u), 0.0, np.inf, limit=400
        )
        assert val == pytest.approx(1.0, abs=max(1e-8, 10 * err))

    def test_domain(self):
        with pytest.raises(DomainError):
            gg_density(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            gg_density(-1.0, 1.0, 1.0, 1.0)

    def test_overflowing_power_gives_zero(self):
        assert gg_density(2.0, 1.5, 1.0, 1e300) == 0.0
        assert gg_density(2.0, -1.5, 1.0, 1e-300) == 0.0

    def test_subnormal_x_past_the_float_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AccuracyError):
                gg_density(0.01, 1.0, 1.0, 5e-324)
            assert gg_density(0.01, -1.0, 1.0, 5e-324) == 0.0


class TestGleserDensity:
    def test_zero_below_support(self):
        assert gleser_mixing_density(0.4, 2.0, 1.9) == 0.0
        assert gleser_mixing_density(0.4, 2.0, 2.0) == 0.0

    @pytest.mark.parametrize("r,mu", [(0.3, 1.0), (0.5, 2.0), (0.8, 0.5)])
    def test_normalization(self, r, mu):
        val, err = integrate.quad(
            lambda z: gleser_mixing_density(r, mu, z), mu, np.inf, limit=400
        )
        assert val == pytest.approx(1.0, abs=max(1e-7, 10 * err))

    def test_domain(self):
        # ZParams' domain short of its point-mass end r = 1; mu = inf gave 0.0.
        for r, mu in [(1.0, 1.0), (0.5, math.inf), (0.5, 0.0), (0.5, -1.0), (1.5, 1.0),
                      (0.0, 1.0), (math.nan, 1.0), (0.5, math.nan)]:
            with pytest.raises(DomainError):
                gleser_mixing_density(r, mu, 2.0)

    def test_subnormal_x_past_the_float_range(self):
        # (z - mu)^(-r) passes the float64 range at a subnormal z - mu, and
        # so can the product after it: an AccuracyError, not an OverflowError,
        # an inf or a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r, mu, z in [(0.99, 1e-300, 1.0000000000000002e-300),
                             (0.99, 5e-324, 1e-323),
                             (0.9, 1e-300, 1.0000000000000004e-300)]:
                with pytest.raises(AccuracyError):
                    gleser_mixing_density(r, mu, z)
            assert math.isfinite(gleser_mixing_density(0.5, 1e-300, 1.0000000000000004e-300))


class TestSnedecorFisherDensity:
    @pytest.mark.parametrize("r", [0.25, 0.5, 0.75])
    def test_matches_fractional_f_distribution(self, r):
        """The law is F with degree pair (2(1-r), 2r)."""
        for x in (0.1, 0.8, 1.0, 5.0):
            want = scipy.stats.f.pdf(x, 2 * (1 - r), 2 * r)
            assert snedecor_fisher_density(r, x) == pytest.approx(want, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            snedecor_fisher_density(0.5, 0.0)

    def test_subnormal_x_past_the_float_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AccuracyError):
                snedecor_fisher_density(0.99, 5e-324)
            assert math.isfinite(snedecor_fisher_density(0.5, 5e-324))


class TestTransforms:
    def test_genlinnik_cf_values(self):
        assert genlinnik_cf(2.0, 1.0, 1.0) == pytest.approx(0.5, abs=0)
        assert genlinnik_cf(1.5, 2.0, 0.0) == 1.0
        assert genlinnik_cf(0.7, 0.5, -2.0) == genlinnik_cf(0.7, 0.5, 2.0)

    def test_genlinnik_cf_is_laplace_at_two_one(self):
        for t in (0.3, 1.0, 4.0):
            assert genlinnik_cf(2.0, 1.0, t) == pytest.approx(
                1.0 / (1.0 + t * t), rel=1e-14
            )

    def test_genlinnik_cf_overflowing_power_gives_zero(self):
        assert genlinnik_cf(1.5, 2.0, 1e300) == 0.0
        assert genlinnik_cf(1.5, 2.0, -1e300) == 0.0

    def test_genml_lst_values(self):
        assert genml_lst(1.0, 1.0, 1.0) == pytest.approx(0.5)
        assert genml_lst(0.5, 2.0, 0.0) == 1.0
        assert genml_lst(0.5, 2.0, 4.0) == pytest.approx(1.0 / 9.0, rel=1e-14)

    def test_family_table_transforms_to_the_bit(self):
        # Past the double range |t|^alpha is inf and the cf 0; (1 + s^delta)
        # to the -nu underflows to 0 at nu = 10.
        far = (0.0, 5e-324, 0.5, 3.0, 1e10, 1e300, 1.7976931348623157e308)
        for alpha, nu in [(0.3, 0.5), (1.0, 2.0), (1.5, 10.0), (2.0, 1.0)]:
            cf = analytic_cf(DistSpec("gen_linnik", {"alpha": alpha, "nu": nu}))
            for t in far + tuple(-t for t in far):
                assert genlinnik_cf(alpha, nu, t).hex() == cf(t).hex()
        for delta, nu in [(0.3, 0.5), (0.7, 2.0), (1.0, 10.0)]:
            lst = analytic_lst(DistSpec("gen_mittag_leffler", {"delta": delta, "nu": nu}))
            for s in far:
                assert genml_lst(delta, nu, s).hex() == lst(s).hex()
        assert genlinnik_cf(2.0, 1.0, 1e300) == genml_lst(1.0, 10.0, 1e300) == 0.0

    def test_domains(self):
        with pytest.raises(DomainError):
            genlinnik_cf(2.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            genlinnik_cf(2.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            genml_lst(0.5, 1.0, -1.0)
        with pytest.raises(DomainError):
            genml_lst(1.3, 1.0, 1.0)


def laplace_cdf(x):
    return 0.5 * math.exp(x) if x < 0 else 1.0 - 0.5 * math.exp(-x)


class TestInversion:
    def test_laplace_anchor(self):
        assert cdf_by_inversion(2.0, 1.0, 1.0) == pytest.approx(
            0.8160602794, abs=1e-4
        )

    @pytest.mark.parametrize("x", [-2.5, -1.0, -0.3, 0.3, 1.0, 2.5])
    def test_laplace_cdf_grid(self, x):
        assert cdf_by_inversion(2.0, 1.0, x) == pytest.approx(
            laplace_cdf(x), abs=1e-4
        )

    def test_symmetry_and_center(self):
        assert cdf_by_inversion(1.5, 2.0, 0.0) == 0.5
        for x in (0.4, 1.7, 6.0):
            hi = cdf_by_inversion(1.5, 2.0, x)
            lo = cdf_by_inversion(1.5, 2.0, -x)
            assert hi + lo == pytest.approx(1.0, abs=2e-4)

    def test_monotone(self):
        xs = np.linspace(-8.0, 8.0, 33)
        vals = [cdf_by_inversion(0.8, 3.0, x) for x in xs]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_pdf_laplace(self):
        assert pdf_by_inversion(2.0, 1.0, 1.0) == pytest.approx(
            0.5 * math.exp(-1.0), abs=1e-6
        )
        assert pdf_by_inversion(2.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_pdf_origin_closed_form(self):
        alpha, nu = 1.5, 2.0
        want = (
            sc.gamma(1 / alpha) * sc.gamma(nu - 1 / alpha)
            / (sc.gamma(nu) * alpha * math.pi)
        )
        assert pdf_by_inversion(alpha, nu, 0.0) == pytest.approx(want, rel=1e-10)

    def test_pdf_unsupported_regime(self):
        # At alpha * nu <= 1 the density is infinite at 0, and only there.
        for alpha, nu in ((0.5, 1.0), (1.0, 1.0), (0.6, 0.5)):
            for x in (0.0, -0.0):
                with pytest.raises(UnsupportedRegimeError):
                    pdf_by_inversion(alpha, nu, x)
            assert pdf_by_inversion(alpha, nu, 1.0) > 0.0

    def test_pdf_mass_matches_cdf(self):
        mass, err = integrate.quad(
            lambda u: pdf_by_inversion(1.5, 2.0, u), -30.0, 30.0, limit=300
        )
        want = cdf_by_inversion(1.5, 2.0, 30.0) - cdf_by_inversion(1.5, 2.0, -30.0)
        assert want > 0.99
        assert mass == pytest.approx(want, abs=1e-5)

    def test_interpolant_tracks_pointwise_cdf(self):
        cdf = InversionCdf(1.5, 2.0, 12.0)
        for x in (-9.0, -2.0, -0.7, 0.0, 0.4, 1.0, 5.0, 11.0):
            assert float(cdf(x)) == pytest.approx(
                cdf_by_inversion(1.5, 2.0, x), abs=3e-4
            )

    def test_interpolant_vectorized_and_clamped(self):
        cdf = InversionCdf(2.0, 1.0, 5.0)
        out = cdf(np.array([-50.0, 0.0, 50.0]))
        assert out.shape == (3,)
        # Beyond x_max the interpolant clamps to its edge values.
        assert out[0] == pytest.approx(float(cdf(-5000.0)), abs=0)
        assert out[1] == pytest.approx(0.5, abs=1e-9)
        assert out[2] == pytest.approx(float(cdf(5000.0)), abs=0)
        assert out[0] == pytest.approx(laplace_cdf(-5.0), abs=1e-4)
        assert out[2] == pytest.approx(laplace_cdf(5.0), abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            cdf_by_inversion(2.2, 1.0, 0.5)
        with pytest.raises(DomainError):
            cdf_by_inversion(1.5, -1.0, 0.5)

    @pytest.mark.parametrize("x_max", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_interpolant_needs_positive_finite_x_max(self, x_max):
        with pytest.raises(DomainError):
            InversionCdf(1.5, 2.0, x_max)


# Extended-precision values (mpmath, 25 digits): a graded quadrature up to a
# zero of the oscillation past t = 1, then quadosc over the oscillatory tail.
CDF_PINS = {
    (0.6, 0.5): (0.71875811444147935, 0.87776410219589085,
                 0.97676919238432423, 0.99219640787212341),
    (1.0, 0.3): (0.73753173165393156, 0.92861392262457349,
                 0.99682039362002992, 0.99952254706502558),
    (2.0, 0.25): (0.65936997744922253, 0.9455641032769545,
                  0.99999999999999835, 1.0),
}
CDF_PIN_X = (0.05, 1.0, 30.0, 200.0)
PDF_PINS = {0.5: 0.21241555909985796, 3.0: 0.046969060945771586,
            10.0: 0.002520610098313219}
# alpha * nu = 0.3 < 1, from mpmath on the imaginary axis:
# f(x) = (1/pi) int_0^inf e^(-ux) Im[(1 + u^0.6 e^(-0.3 i pi))^(-0.5)] du.
SMALL_PDF_PINS = {0.3: 0.18222102459164097, 1.0: 0.047277366794654138,
                  5.0: 0.0059001184739073368}


class TestInversionAccuracy:
    @pytest.mark.parametrize("alpha,nu", sorted(CDF_PINS))
    @pytest.mark.parametrize("i", range(len(CDF_PIN_X)))
    def test_cdf_pinned(self, alpha, nu, i):
        x = CDF_PIN_X[i]
        assert cdf_by_inversion(alpha, nu, x) == pytest.approx(
            CDF_PINS[alpha, nu][i], abs=1e-9
        )

    @pytest.mark.parametrize("x", sorted(PDF_PINS))
    def test_pdf_pinned(self, x):
        assert pdf_by_inversion(1.5, 2.0, x) == pytest.approx(PDF_PINS[x], abs=1e-9)

    @pytest.mark.parametrize("x", sorted(SMALL_PDF_PINS))
    def test_pdf_pinned_below_alpha_nu_one(self, x):
        assert pdf_by_inversion(0.6, 0.5, x) == pytest.approx(
            SMALL_PDF_PINS[x], rel=1e-12)
        assert pdf_by_inversion(0.6, 0.5, -x) == pdf_by_inversion(0.6, 0.5, x)
        # And the slope of the CDF, by a central difference.
        h = 1e-4
        slope = (cdf_by_inversion(0.6, 0.5, x + h) - cdf_by_inversion(0.6, 0.5, x - h)) / (2 * h)
        assert slope == pytest.approx(SMALL_PDF_PINS[x], rel=1e-6)

    def test_cdf_against_live_mpmath(self):
        mp.mp.dps = 25
        try:
            a, v = mp.mpf("0.6"), mp.mpf("0.5")
            fn = lambda t: mp.sin(t) / t * (1 + t**a) ** (-v)
            grading = [mp.mpf(10) ** -k for k in range(12, 0, -1)]
            head = mp.quad(fn, [0] + grading + [1, 2, mp.pi])
            tail = mp.quadosc(fn, [mp.pi, mp.inf], omega=1)
            want = float(mp.mpf(0.5) + (head + tail) / mp.pi)
        finally:
            mp.mp.dps = 15
        assert cdf_by_inversion(0.6, 0.5, 1.0) == pytest.approx(want, abs=1e-9)

    def test_unreachable_tolerance_raises(self):
        tight = Accuracy(abs_tol=1e-17)
        with pytest.raises(AccuracyError):
            cdf_by_inversion(0.6, 0.5, 1.0, accuracy=tight)
        with pytest.raises(AccuracyError):
            pdf_by_inversion(1.5, 2.0, 3.0, accuracy=tight)
        with pytest.raises(AccuracyError):
            InversionCdf(1.5, 2.0, 5.0, n_linear=4, n_log=4, accuracy=tight)
        with pytest.raises(AccuracyError):
            special._cdf_values(1.5, 2.0, np.linspace(-40.0, 40.0, 81), tight)

    def test_small_alpha_nu_interpolant(self):
        cdf = InversionCdf(0.6, 0.5, 1e3)
        probe = np.linspace(-1e3, 1e3, 2001)
        vals = cdf(probe)
        assert np.all(np.diff(vals) >= 0)
        np.testing.assert_allclose(vals + vals[::-1], 1.0, atol=1e-12)
        for x in (-700.0, -3.0, 0.5, 4.0, 90.0):
            assert float(cdf(x)) == pytest.approx(
                cdf_by_inversion(0.6, 0.5, x), abs=3e-4
            )


# Gil-Pelaez values at mpmath's 25 digits, computed as for CDF_PINS, near and
# at alpha = 2, where the damped ray tilts off the imaginary axis.
NEAR_TWO_PINS = {
    (1.99, 0.25): (0.66016249616684196, 0.94554587903040897, 0.99999855673320301),
    (1.99, 0.5): (0.56589954492309398, 0.89549459294402211, 0.99999710841634792),
    (1.999, 0.25): (0.65944900598013271, 0.94556231106715434, 0.99999985950375573),
    (1.999, 0.5): (0.56549823513286945, 0.89550236314929257, 0.99999971852172975),
    (2.0, 0.25): (0.65936997744922253, 0.9455641032769545, 0.99999999999999835),
    (2.0, 0.5): (0.56545390153562746, 0.89550316849767384, 0.99999999999999332),
}
NEAR_TWO_X = (0.05, 1.0, 30.0)


class TestInversionEdges:
    """The far ends of the line, the origin, and alpha near 2."""

    def test_far_tail(self):
        assert cdf_by_inversion(2.0, 1.0, 1e7) == 1.0
        assert cdf_by_inversion(1.5, 2.0, 1e100) == 1.0
        assert cdf_by_inversion(1.5, 2.0, -1e300) == 0.0
        # 1 - F(x) against its leading term nu Gamma(alpha) sin(pi alpha/2) / pi x^-alpha
        xs = np.array([1e7, 1e100])
        lead = 2.0 * math.gamma(1.5) * math.sin(0.75 * math.pi) / math.pi * xs**-1.5
        tail = special._upper(1.5, 2.0, xs, False, None).values
        np.testing.assert_allclose(tail, lead, rtol=1e-9)
        assert cdf_by_inversion(1.5, 2.0, -1e100) == pytest.approx(lead[1], rel=1e-14)

    @pytest.mark.parametrize("alpha,nu,xs", [(0.3, 0.7, (1e30, 1e100, 1e300)),
                                             (0.05, 2.0, (1e200, 1e300))])
    def test_far_lower_tail_at_small_alpha(self, alpha, nu, xs):
        # F(-x) = 1 - F(x) decays like x^-alpha, with the next term x^-alpha
        # smaller still (below 1e-9 here). At small alpha much of it lies far
        # below the damped window, where only the closed far-left term is.
        xs = np.array(xs)
        lead = nu * math.gamma(alpha) * math.sin(math.pi * alpha / 2) / math.pi * xs**-alpha
        got = [cdf_by_inversion(alpha, nu, -x) for x in xs]
        np.testing.assert_allclose(got, lead, rtol=1e-8)

    @pytest.mark.parametrize("alpha,nu", [(1.5, 2.0), (2.0, 2.0), (0.8, 4.0)])
    @pytest.mark.parametrize("x", [1e-9, 1e-20, 1e-300, 5e-324])
    def test_pdf_at_the_origin(self, alpha, nu, x):
        # alpha nu >= 3: f(x) - f(0) is of order x^2, below abs_tol here.
        want = pdf_by_inversion(alpha, nu, 0.0)
        assert pdf_by_inversion(alpha, nu, x) == pytest.approx(
            want, abs=DEFAULT_ACCURACY.abs_tol)
        assert pdf_by_inversion(alpha, nu, -x) == pdf_by_inversion(alpha, nu, x)

    @pytest.mark.parametrize("alpha,nu", [(1.5, 1.2), (0.9, 2.0), (2.0, 0.75)])
    @pytest.mark.parametrize("x", [1e-9, 1e-12, 1e-20, 1e-300, 5e-324])
    def test_pdf_near_the_origin_against_mpmath(self, alpha, nu, x):
        # 1 < alpha nu < 3: f(x) = f(0) - c x^(alpha nu - 1) + O(x^2), with
        # c = -Gamma(1 - alpha nu) cos(pi (alpha nu - 1)/2) / pi (the cf's
        # t^(-alpha nu) tail; Gradshteyn & Ryzhik 3.823).
        p = mp.mpf(alpha) * nu
        c = -mp.gamma(1 - p) * mp.cos(mp.pi * (p - 1) / 2) / mp.pi
        want = pdf_by_inversion(alpha, nu, 0.0) - float(c * mp.mpf(x) ** (p - 1))
        assert pdf_by_inversion(alpha, nu, x) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("alpha,nu", sorted(NEAR_TWO_PINS))
    @pytest.mark.parametrize("i", range(len(NEAR_TWO_X)))
    def test_near_two_pinned(self, alpha, nu, i):
        x = NEAR_TWO_X[i]
        assert cdf_by_inversion(alpha, nu, x) == pytest.approx(
            NEAR_TWO_PINS[alpha, nu][i], abs=1e-12)

    @pytest.mark.parametrize("nu", [0.75, 2.5, 10.0])
    def test_alpha_two_density_against_mpmath(self, nu):
        # The variance-gamma density 2^(1/2-nu) x^(nu-1/2) K_(nu-1/2)(x) / (sqrt(pi) Gamma(nu)).
        for x in (0.01, 1.0, 7.0, 40.0):
            v = mp.mpf(nu)
            want = (2 ** (0.5 - v) * mp.mpf(x) ** (v - 0.5) * mp.besselk(v - 0.5, x)
                    / (mp.sqrt(mp.pi) * mp.gamma(v)))
            assert pdf_by_inversion(2.0, nu, x) == pytest.approx(float(want), abs=1e-13)

    @pytest.mark.parametrize("alpha,nu", [(1.99, 10.0), (1.9, 30.0), (0.8, 100.0)])
    def test_large_nu_near_and_off_two(self, alpha, nu):
        # The tilted ray keeps |1 + t^alpha| >= 1, so alpha near 2 loses no
        # digits at large nu; panels narrow as alpha nu grows.
        xs = np.array([0.1, 1.0, 5.0, 30.0])
        inv = special._cdf_values(alpha, nu, np.concatenate([-xs, xs]), None)
        np.testing.assert_allclose(inv.values[:4] + inv.values[4:], 1.0, atol=1e-15)
        assert np.all(np.diff(inv.values[4:]) > 0)
        assert inv.errors.max() < 1e-13


class TestBatchedInversion:
    """One batched pass gives each point the bits of a batch of one."""

    def test_batch_matches_pointwise(self):
        # About 300 rows over several row blocks, whose windows start at many
        # different lattice panels; 5000 and -3210.5 lie far from the rest.
        side = np.linspace(0.1, 40.0, 150)
        xs = np.concatenate([-side, [0.0], side, [5000.0, -3210.5]])
        got = special._cdf_values(1.5, 2.0, xs, None).values
        want = np.array([cdf_by_inversion(1.5, 2.0, x) for x in xs])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha,nu", [(1.5, 2.0), (0.1, 0.3), (1.9, 3.0)])
    def test_shuffled_points_across_windows(self, alpha, nu):
        # |x| from 1e-300 to 1e300: windows below the coarse lattice, inside
        # it and far above it, on the imaginary axis (1.5, 2), with coarse
        # panels wider than the fine ones and a partial panel (0.1, 0.3), and
        # on a tilted ray (1.9, 3). The shuffle interleaves their row blocks.
        side = np.concatenate([np.geomspace(1e-300, 1e300, 301), np.linspace(0.05, 300.0, 200)])
        xs = np.random.default_rng(3).permutation(np.concatenate([-side, side, [0.0]]))
        got = special._cdf_values(alpha, nu, xs, None)
        one = [special._cdf_values(alpha, nu, np.array([x]), None) for x in xs]
        for field in ("values", "nodes", "errors"):
            want = np.concatenate([getattr(inv, field) for inv in one])
            assert getattr(got, field).tobytes() == want.tobytes()

    def test_rows_summing_different_panel_counts(self):
        # At small alpha the points of one row block sum different numbers of
        # coarse panels before their windows, and the densities too.
        xs = np.geomspace(1e-300, 1e12, 97)
        inv = special._cdf_values(0.1, 0.3, xs, None)
        assert np.unique(inv.nodes).size > 5
        want = np.array([cdf_by_inversion(0.1, 0.3, x) for x in xs])
        assert inv.values.tobytes() == want.tobytes()
        dens = special._upper(0.8, 3.0, xs, True, None).values
        assert np.maximum(dens, 0.0).tobytes() == np.array(
            [pdf_by_inversion(0.8, 3.0, x) for x in xs]).tobytes()

    def test_grid_values_are_pointwise_values(self):
        cdf = InversionCdf(2.0, 1.0, 30.0, n_linear=20, n_log=30)
        xs = cdf._interp.x
        want = np.maximum.accumulate([cdf_by_inversion(2.0, 1.0, x) for x in xs])
        assert cdf._interp(xs).tobytes() == np.clip(want, 0.5, 1.0).tobytes()

    @pytest.mark.parametrize("alpha,nu",
                             [(0.6, 0.5), (1.0, 1.0), (2.0, 0.5), (1.5, 1.0)])
    def test_interpolant_resolves_the_cusp(self, alpha, nu):
        cdf = InversionCdf(alpha, nu, 1e3)
        xs = np.union1d(np.geomspace(1e-6, 2.0, 60), np.linspace(0.01, 2.0, 50))
        want = special._cdf_values(alpha, nu, xs, None).values
        np.testing.assert_allclose(cdf(xs), want, rtol=0, atol=2e-5)
        np.testing.assert_allclose(cdf(-xs), 1.0 - want, rtol=0, atol=2e-5)

    def test_build_counters_are_deterministic(self):
        first = InversionCdf(0.6, 0.5, 50.0)
        second = InversionCdf(0.6, 0.5, 50.0)
        counters = ("points", "nodes", "rule_difference")
        assert [getattr(first, c) for c in counters] == [
            getattr(second, c) for c in counters
        ]
        assert first.points == first._interp.x.size
        # Each point past 0 sums a damped window of 17 fine panels of 32
        # nodes; the two rules agree to well inside abs_tol.
        assert first.nodes >= 32 * 17 * (first.points - 1)
        assert 0.0 < first.rule_difference <= 1e-14


INVERSION_CACHES = (special._plan, special._lattice, special._heads, special._coarse)


def clear_inversion_caches():
    for cache in INVERSION_CACHES:
        cache.cache_clear()


def outcome(fn, *args):
    """The bytes of what fn(*args) returns (all three fields of an inversion),
    or the text of the AccuracyError it raises."""
    try:
        got = fn(*args)
    except AccuracyError as exc:
        return f"AccuracyError: {exc}"
    fields = got if isinstance(got, tuple) else [got]
    return b"".join(np.asarray(a).tobytes() for a in fields)


# |x| from 1e-300 to 1e300 and on (0.05, 30) for 1 - F and f: on the imaginary
# axis (1.5, 2), with partial panels below the windows (0.1, 0.3; 0.6, 0.5)
# and on a tilted ray (1.9, 3); then the Mittag-Leffler band, whose inversion
# runs on the transform's own rays.
PLAN_XS = np.concatenate([np.geomspace(1e-300, 1e300, 25), np.linspace(0.05, 30.0, 8)])
PLAN_CALLS = (
    [(special._upper, alpha, nu, np.array([x]), density, None)
     for alpha, nu in [(1.5, 2.0), (0.1, 0.3), (0.6, 0.5), (1.9, 3.0)]
     for density in (False, True) for x in PLAN_XS]
    + [(fn, delta, sign * x)
       for fn, sign in ((mittag_leffler, -1.0), (ml_density, 1.0), (ml_cdf, 1.0))
       for delta in (0.05, 0.3, 0.9, 0.999) for x in (2.0, 5.0, 8.0, 12.0, 20.0)]
)


class TestInversionPlans:
    """The x-free terms are cached per law; no value depends on that."""

    def test_order_and_warmth_keep_the_bits(self):
        want = []
        for fn, *args in PLAN_CALLS:
            clear_inversion_caches()
            want.append(outcome(fn, *args))
        assert any(isinstance(w, str) for w in want) and any(isinstance(w, bytes) for w in want)
        clear_inversion_caches()
        order = np.random.default_rng(23).permutation(len(PLAN_CALLS))
        got = {i: outcome(*PLAN_CALLS[i]) for i in order}
        assert [got[i] for i in range(len(PLAN_CALLS))] == want
        # A batch over the same caches, warm now, gives each point its bits.
        inv = special._upper(1.9, 3.0, PLAN_XS, False, None)
        for i, x in enumerate(PLAN_XS):
            one = special._upper(1.9, 3.0, np.array([x]), False, None)
            assert [f[i:i + 1].tobytes() for f in inv] == [f.tobytes() for f in one]

    def test_threads_give_the_serial_bits(self):
        calls = PLAN_CALLS[::3]
        clear_inversion_caches()
        want = [outcome(*call) for call in calls]
        clear_inversion_caches()
        results = [None] * 8

        def work(k):
            order = np.random.default_rng(k).permutation(len(calls))
            got = {i: outcome(*calls[i]) for i in order}
            results[k] = [got[i] for i in range(len(calls))]

        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 8

    def test_warm_calls_evaluate_no_kernel(self, monkeypatch):
        kernel, count = special._kernel, [0]

        def counted(*args):
            count[0] += 1
            return kernel(*args)

        monkeypatch.setattr(special, "_kernel", counted)
        calls = [lambda: cdf_by_inversion(0.6, 0.5, 1.7), lambda: pdf_by_inversion(1.5, 2.0, 3.3),
                 lambda: pdf_by_inversion(1.9, 3.0, 1e-200),
                 lambda: mittag_leffler(0.9, -12.0), lambda: ml_density(0.3, 8.0),
                 lambda: InversionCdf(1.5, 2.0, 200.0)(1.0)]
        for call in calls:
            clear_inversion_caches()
            count[0] = 0
            call()
            assert count[0] > 0
            count[0] = 0
            call()
            assert count[0] == 0
        # The range and panel-count errors raise before any kernel work, on
        # every call: they are not cached.
        for _ in range(2):
            with pytest.raises(AccuracyError, match="below the inversion's range"):
                special._upper(1e-310, 1.0, np.array([1.0]), False, None)
            with pytest.raises(AccuracyError, match="too many panels"):
                cdf_by_inversion(2.0, 1e6, 1.0)
        assert count[0] == 0

    def test_cached_arrays_are_read_only(self):
        # A law with coarse panels below its windows, and one on a tilted ray.
        law, tilted = (0.1, 0.3, False, False), (1.9, 3.0, True, False)
        plan = special._plan(*law)
        c = math.floor((30.0 * math.log(10.0) - 38.0) / plan.ray.fine) // special._CHUNK
        for a in [plan.grow, special._lattice(law, c), *special._heads(law, c),
                  special._coarse(law, 0), special._lattice(tilted, -3)]:
            with pytest.raises(ValueError):
                a.flat[0] = 1.0

    def test_caches_are_bounded(self):
        assert all(cache.cache_info().maxsize is not None for cache in INVERSION_CACHES)
        clear_inversion_caches()
        gc.collect()
        tracemalloc.start()
        try:
            for alpha, nu in [(1.5, 300.0), (1.0, 1000.0)]:
                for x in np.geomspace(5e-324, 1e300, 16):
                    for fn in (cdf_by_inversion, pdf_by_inversion):
                        outcome(fn, alpha, nu, x)
            gc.collect()
            cached = tracemalloc.get_traced_memory()[0]
            clear_inversion_caches()
            gc.collect()
            cached -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < cached <= 8 * 2**20


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
    nu=st.floats(min_value=0.05, max_value=10.0),
    xs=st.lists(st.floats(min_value=1e-3, max_value=1e4), min_size=3, max_size=3),
)
def test_inversion_properties_over_domain(alpha, nu, xs):
    """Either a valid, warning-free CDF (and density) or an AccuracyError."""
    xs = sorted(xs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            upper = [cdf_by_inversion(alpha, nu, x) for x in xs]
            lower = [cdf_by_inversion(alpha, nu, -x) for x in xs]
            dens = [pdf_by_inversion(alpha, nu, x) for x in xs]
        except AccuracyError:
            return
    tol = 2 * DEFAULT_ACCURACY.abs_tol
    assert all(math.isfinite(v) for v in upper + lower + dens)
    assert all(0.5 <= v <= 1.0 for v in upper)
    for hi, lo in zip(upper, lower):
        assert hi + lo == pytest.approx(1.0, abs=tol)
    assert all(b >= a - tol for a, b in zip(upper, upper[1:]))
    assert all(d >= 0.0 for d in dens)


class TestConfigRecords:
    def test_accuracy_validation(self):
        with pytest.raises(DomainError):
            Accuracy(abs_tol=0.0)
        assert Accuracy(abs_tol=1e-8).abs_tol == 1e-8
        # The series and quadrature caps are fixed; abs_tol is the one knob.
        assert [f.name for f in dataclasses.fields(Accuracy)] == ["abs_tol"]

    def test_inversion_grid_knob_removed(self):
        # The inversion has no truncation point left to override.
        assert not hasattr(special, "InversionGrid")
        for fn in (cdf_by_inversion, pdf_by_inversion):
            assert "grid" not in inspect.signature(fn).parameters
