import dataclasses
import inspect
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sc
import scipy.stats
from hypothesis import given, settings, strategies as st
from scipy import integrate

from htmix import special
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

    @pytest.mark.parametrize("delta", [0.3, 0.7, 0.9])
    @pytest.mark.parametrize("z", [-30.0, -5.0, -1.0, -0.1, 0.5, 2.0])
    def test_against_mpmath(self, delta, z):
        assert mittag_leffler(delta, z) == pytest.approx(
            ml_reference(delta, z), abs=1e-10
        )

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

    @pytest.mark.parametrize("delta", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("x", [0.05, 1.0, 8.0, 50.0, 1000.0])
    def test_against_mpmath(self, delta, x):
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
        with pytest.raises(DomainError):
            gleser_mixing_density(1.0, 1.0, 2.0)


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

    def test_genml_lst_values(self):
        assert genml_lst(1.0, 1.0, 1.0) == pytest.approx(0.5)
        assert genml_lst(0.5, 2.0, 0.0) == 1.0
        assert genml_lst(0.5, 2.0, 4.0) == pytest.approx(1.0 / 9.0, rel=1e-14)

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
        with pytest.raises(UnsupportedRegimeError):
            pdf_by_inversion(0.5, 1.0, 1.0)
        with pytest.raises(UnsupportedRegimeError):
            pdf_by_inversion(1.0, 1.0, 1.0)

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


class TestBatchedInversion:
    """One batched pass gives each point the bits of a batch of one."""

    def test_batch_matches_pointwise(self):
        # |x| <= 8 pi shares k0 = 8 (about 190 rows, many row blocks); up to
        # 40 spans five more k0 groups; 5000 and -3210.5 have more panels per
        # row than one block holds.
        side = np.linspace(0.1, 40.0, 150)
        xs = np.concatenate([-side, [0.0], side, [5000.0, -3210.5]])
        got = special._cdf_values(1.5, 2.0, xs, None).values
        want = np.array([cdf_by_inversion(1.5, 2.0, x) for x in xs])
        assert got.tobytes() == want.tobytes()

    def test_shuffled_points_over_many_k0_groups(self):
        # |x| up to 300 spans about 90 k0 groups, some of one point; the
        # shuffle interleaves the groups and their row blocks.
        side = np.linspace(0.05, 300.0, 500)
        xs = np.random.default_rng(3).permutation(np.concatenate([-side, side, [0.0]]))
        got = special._cdf_values(1.5, 2.0, xs, None)
        one = [special._cdf_values(1.5, 2.0, np.array([x]), None) for x in xs]
        for field in ("values", "panels", "rounds"):
            want = np.concatenate([getattr(inv, field) for inv in one])
            assert getattr(got, field).tobytes() == want.tobytes()

    def test_rows_refining_longer_than_their_neighbours(self):
        # Near the roundoff floor the rows of one k0 = 8 block (68 edges a
        # row) stop after different numbers of refinement rounds.
        tight = Accuracy(abs_tol=1e-15)
        xs = np.linspace(0.05, 25.0, 60)
        inv = special._cdf_values(0.1, 0.3, xs, tight)
        assert np.unique(inv.rounds[: special._BLOCK // 68]).size > 1
        want = np.array([cdf_by_inversion(0.1, 0.3, x, accuracy=tight) for x in xs])
        assert inv.values.tobytes() == want.tobytes()

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
        counters = ("points", "head_panels", "max_rounds")
        assert [getattr(first, c) for c in counters] == [
            getattr(second, c) for c in counters
        ]
        assert first.points == first._interp.x.size
        # Each point past 0 evaluates at least 67 head panels, then 134.
        assert first.head_panels >= 3 * 67 * (first.points - 1)
        assert 1 <= first.max_rounds <= 7


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
            dens = [pdf_by_inversion(alpha, nu, x) for x in xs] if alpha * nu > 1 else []
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
