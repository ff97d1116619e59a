import math
import warnings

import numpy as np
import pytest
import scipy.special as sc
import scipy.stats
from hypothesis import given, settings, strategies as st

from htmix.distributions import (
    _POISSON_MAX,
    _cos,
    _sin,
    _stable_one_sided_values,
    _stable_symmetric_values,
    DistSpec,
    FAMILIES,
    GammaParams,
    LinnikParams,
    METHODS,
    MLParams,
    NegBinParams,
    SampleBatch,
    StableParams,
    StableRatioParams,
    ZParams,
    analytic_cf,
    analytic_lst,
    sample,
)
from htmix.errors import AccuracyError, DomainError
from htmix.streams import RandomStream
from htmix.verification import (
    ecf_distance,
    ks_one_sample,
    ks_two_sample,
    ks_two_sample_threshold,
    lst_distance,
)
from test_golden import SAMPLE_SPECS

N = 100_000
STREAM = RandomStream(321, 0)


def spec_of(family, **params):
    method = params.pop("method", None)
    return DistSpec(family, params or None, method)


class TestParamRecords:
    @pytest.mark.parametrize(
        "ctor,kwargs",
        [
            (StableParams, dict(alpha=2.5)),
            (StableParams, dict(alpha=0.0)),
            (StableParams, dict(alpha=1.5, theta="one_sided")),
            (StableParams, dict(alpha=1.0, theta="positive")),
            (StableRatioParams, dict(delta=1.0)),
            (GammaParams, dict(r=-2.0)),
            (MLParams, dict(delta=1.1)),
            (MLParams, dict(delta=0.5, nu=0.0)),
            (LinnikParams, dict(alpha=2.2)),
            (NegBinParams, dict(nu=1.0, p=1.0)),
            (ZParams, dict(r=1.5)),
            (ZParams, dict(r=0.5, mu=0.0)),
        ],
    )
    def test_rejects(self, ctor, kwargs):
        with pytest.raises(DomainError):
            ctor(**kwargs)

    def test_coerces_to_float(self):
        p = GammaParams(r=2, lam=3)
        assert isinstance(p.r, float) and p.r == 2.0
        assert isinstance(p.lam, float) and p.lam == 3.0

    def test_one_sided_alpha_one_allowed(self):
        assert StableParams(1.0, "one_sided").alpha == 1.0


class TestDistSpec:
    def test_mapping_coercion(self):
        spec = DistSpec("gen_linnik", {"alpha": 1.5, "nu": 2.0})
        assert isinstance(spec.params, LinnikParams)
        assert spec.params.alpha == 1.5

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            DistSpec("lognormal")

    def test_basic_family_takes_no_params(self):
        with pytest.raises(DomainError):
            DistSpec("normal", {"mu": 0.0})

    @pytest.mark.parametrize(
        "family,params,message",
        [
            ("neg_binom", {"nu": 1.5}, "needs: p"),
            ("gen_gamma", {}, "needs: alpha, r"),
            ("weibull", {"gamma": 1.0, "alpha": 2.0}, "does not take: alpha"),
            ("stable", {"alpha": 1.0, "beta": 0.0, "mu": 1.0},
             "does not take: beta, mu"),
        ],
    )
    def test_mapping_fields_named(self, family, params, message):
        with pytest.raises(DomainError, match=message):
            DistSpec(family, params)

    @pytest.mark.parametrize(
        "family,params,positive",
        [
            ("normal", None, False),
            ("exponential", None, True),
            ("neg_binom", {"nu": 2.0, "p": 0.3}, True),
            ("stable", {"alpha": 0.7}, False),
            ("stable", {"alpha": 0.7, "theta": "one_sided"}, True),
            ("z_mix", {"r": 0.5}, True),
            ("mittag_leffler", {"delta": 0.7}, True),
            ("gen_mittag_leffler", {"delta": 0.7, "nu": 2.0}, True),
            ("linnik", {"alpha": 1.5}, False),
            ("gen_linnik", {"alpha": 1.5, "nu": 0.8}, False),
        ],
    )
    def test_positive_matches_draws(self, family, params, positive):
        spec = DistSpec(family, params)
        assert spec.positive is positive
        assert bool(np.all(sample(spec, 2000, STREAM).values > 0)) is positive

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            DistSpec("linnik", {"alpha": 1.0}, "quantile")
        with pytest.raises(DomainError):
            DistSpec("gamma", {"r": 1.0}, "stable_weibull")

    def test_method_constraints(self):
        with pytest.raises(DomainError):
            DistSpec("linnik", {"alpha": 2.0}, "laplace_ratio")
        with pytest.raises(DomainError):
            DistSpec("gen_linnik", {"alpha": 1.0, "nu": 2.0}, "linnik_z")
        DistSpec("gen_linnik", {"alpha": 1.0, "nu": 1.0}, "linnik_z")

    def test_resolved_method_defaults(self):
        assert spec_of("linnik", alpha=1.0).resolved_method() == "stable_weibull"
        assert spec_of("gen_linnik", alpha=1.0, nu=2.0).resolved_method() == (
            "stable_gamma"
        )
        assert spec_of("normal").resolved_method() is None

    def test_describe(self):
        s = DistSpec("gen_linnik", {"alpha": 1.5, "nu": 2.0}, "normal_genml")
        assert s.describe() == "gen_linnik(alpha=1.5,nu=2)[normal_genml]"
        assert spec_of("normal").describe() == "normal"


class TestSampleBatch:
    def test_len_and_meta(self):
        b = sample(spec_of("normal"), 17, STREAM)
        assert len(b) == 17
        meta = b.meta()
        assert meta == {"spec": "normal", "seed": 321, "substream": 0, "n": 17}

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            SampleBatch(np.zeros((2, 2)), "x", 0, 0)
        with pytest.raises(DomainError):
            SampleBatch(np.zeros(0), "x", 0, 0)


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            spec_of("gen_linnik", alpha=1.5, nu=2.0),
            spec_of("stable", alpha=0.7, theta="one_sided"),
            spec_of("neg_binom", nu=2.0, p=0.25),
        ],
        ids=lambda s: s.family,
    )
    def test_bit_identical_repeat(self, spec):
        a = sample(spec, 500, RandomStream(99, 4))
        b = sample(spec, 500, RandomStream(99, 4))
        np.testing.assert_array_equal(a.values, b.values)

    def test_substream_changes_draws(self):
        spec = spec_of("linnik", alpha=1.0)
        a = sample(spec, 500, RandomStream(99, 0))
        b = sample(spec, 500, RandomStream(99, 1))
        assert not np.array_equal(a.values, b.values)


class TestBasicFamilies:
    def test_weibull_matches_scipy(self):
        b = sample(spec_of("weibull", gamma=1.7), N, STREAM)
        d = ks_one_sample(b, lambda x: scipy.stats.weibull_min.cdf(x, 1.7))
        assert d < 1.949 * math.sqrt(1.0 / N)

    def test_gamma_matches_scipy(self):
        b = sample(spec_of("gamma", r=2.3, lam=1.5), N, STREAM)
        d = ks_one_sample(b, lambda x: scipy.stats.gamma.cdf(x, 2.3, scale=1 / 1.5))
        assert d < 1.949 * math.sqrt(1.0 / N)

    @pytest.mark.parametrize("alpha", [0.6, 2.0, -1.2])
    def test_gen_gamma_matches_scipy(self, alpha):
        b = sample(spec_of("gen_gamma", r=1.4, alpha=alpha, lam=1.0), N, STREAM)
        d = ks_one_sample(b, lambda x: scipy.stats.gengamma.cdf(x, 1.4, alpha))
        assert d < 1.949 * math.sqrt(1.0 / N)

    def test_exp_power_cdf(self):
        nu = 1.8
        b = sample(spec_of("exp_power", nu=nu), N, STREAM)
        d = ks_one_sample(b, lambda x: sc.gammainc(nu, np.maximum(x, 0.0) ** (1 / nu)))
        assert d < 1.949 * math.sqrt(1.0 / N)

    def test_neg_binom_support_and_mean(self):
        nu, p = 2.0, 0.25
        b = sample(spec_of("neg_binom", nu=nu, p=p), N, STREAM)
        v = b.values
        assert v.min() >= 1.0
        assert np.all(v == np.round(v))
        want_mean = 1.0 + nu * (1.0 - p) / p
        assert np.mean(v) == pytest.approx(want_mean, rel=0.02)

    def test_neg_binom_pmf(self):
        """Counts on {1,2,...} follow a shifted negative binomial pmf."""
        nu, p = 1.5, 0.4
        v = sample(spec_of("neg_binom", nu=nu, p=p), N, STREAM).values
        for k in (1, 2, 3, 5, 8):
            want = scipy.stats.nbinom.pmf(k - 1, nu, p)
            got = float(np.mean(v == k))
            sd = math.sqrt(want * (1 - want) / N)
            assert abs(got - want) < 5 * sd + 1e-12

    @pytest.mark.parametrize("nu, p", [(1.0, 1e-300), (1.0, 1e-308), (0.01, 5e-324)])
    def test_neg_binom_rate_past_numpy_limit_is_accuracy_error(self, nu, p):
        # 1e-308 overflows some rates to inf, and at 5e-324 a zero gamma
        # draw times an infinite (1 - p) / p is nan.
        with pytest.raises(AccuracyError, match="Poisson rate"):
            sample(spec_of("neg_binom", nu=nu, p=p), 1000, RandomStream(1))

    def test_poisson_limit_is_numpys(self):
        rng = np.random.default_rng(0)
        rng.poisson(_POISSON_MAX)
        with pytest.raises(ValueError):
            rng.poisson(np.nextafter(_POISSON_MAX, np.inf))


class TestStable:
    @pytest.mark.parametrize("alpha", [0.5, 1.2, 1.95, 2.0])
    def test_symmetric_ecf(self, alpha):
        b = sample(DistSpec("stable", StableParams(alpha)), N, STREAM)
        cf = analytic_cf(DistSpec("stable", StableParams(alpha)))
        assert ecf_distance(b, cf) < 4.0 / math.sqrt(N)

    def test_alpha_one_is_cauchy(self):
        b = sample(DistSpec("stable", StableParams(1.0)), N, STREAM)
        d = ks_one_sample(b, scipy.stats.cauchy.cdf)
        assert d < 1.949 * math.sqrt(1.0 / N)

    def test_alpha_two_is_root_two_normal(self):
        b = sample(DistSpec("stable", StableParams(2.0)), N, STREAM)
        d = ks_one_sample(b, lambda x: scipy.stats.norm.cdf(x, scale=math.sqrt(2)))
        assert d < 1.949 * math.sqrt(1.0 / N)

    @pytest.mark.parametrize("alpha", [0.3, 0.8, 1.0])
    def test_one_sided_lst(self, alpha):
        b = sample(DistSpec("stable", StableParams(alpha, "one_sided")), N, STREAM)
        lst = analytic_lst(DistSpec("stable", StableParams(alpha, "one_sided")))
        assert lst_distance(b, lst) < 1.5 / math.sqrt(N)

    def test_one_sided_half_is_levy(self):
        b = sample(DistSpec("stable", StableParams(0.5, "one_sided")), N, STREAM)
        d = ks_one_sample(b, lambda x: sc.erfc(1.0 / (2.0 * np.sqrt(x))))
        assert d < 1.949 * math.sqrt(1.0 / N)

    def test_one_sided_alpha_one_degenerates(self):
        b = sample(DistSpec("stable", StableParams(1.0, "one_sided")), 100, STREAM)
        np.testing.assert_array_equal(b.values, np.ones(100))

    def test_positive_support(self):
        b = sample(DistSpec("stable", StableParams(0.4, "one_sided")), 10_000, STREAM)
        assert b.values.min() > 0


class TestStableRatio:
    def test_reciprocal_same_law(self):
        spec = DistSpec("stable_ratio", StableRatioParams(0.6))
        a = sample(spec, N, RandomStream(5, 0))
        b = sample(spec, N, RandomStream(5, 50))
        d = ks_two_sample(a.values, 1.0 / b.values)
        assert d < ks_two_sample_threshold(N, N)

    def test_matches_closed_density(self):
        from scipy import integrate

        from htmix.special import stable_ratio_density

        delta = 0.7
        b = sample(DistSpec("stable_ratio", StableRatioParams(delta)), 50_000, STREAM)

        def cdf(x):
            val, _ = integrate.quad(
                lambda u: stable_ratio_density(delta, u), 0.0, x, limit=200
            )
            return val

        xs = np.quantile(b.values, [0.1, 0.3, 0.5, 0.7, 0.9])
        emp = np.searchsorted(np.sort(b.values), xs, side="right") / b.n
        for x, e in zip(xs, emp):
            assert abs(cdf(float(x)) - e) < 0.01

    def test_delta_one_rejected(self):
        with pytest.raises(DomainError):
            sample(DistSpec("stable_ratio", StableRatioParams(1.0)), 10, STREAM)


class TestZMix:
    def test_support_above_mu(self):
        b = sample(DistSpec("z_mix", ZParams(0.4, 2.0)), 10_000, STREAM)
        assert b.values.min() >= 2.0

    def test_degenerate_r_one(self):
        b = sample(DistSpec("z_mix", ZParams(1.0, 3.0)), 100, STREAM)
        np.testing.assert_array_equal(b.values, np.full(100, 3.0))

    def test_matches_mixing_density(self):
        from scipy import integrate

        from htmix.special import gleser_mixing_density

        r, mu = 0.3, 1.0
        b = sample(DistSpec("z_mix", ZParams(r, mu)), 50_000, STREAM)

        def cdf(x):
            val, _ = integrate.quad(
                lambda u: gleser_mixing_density(r, mu, u), mu, x, limit=200
            )
            return val

        xs = np.quantile(b.values, [0.2, 0.5, 0.8])
        emp = np.searchsorted(np.sort(b.values), xs, side="right") / b.n
        for x, e in zip(xs, emp):
            assert abs(cdf(float(x)) - e) < 0.01


class TestMittagLefflerFamily:
    @pytest.mark.parametrize("method", METHODS["mittag_leffler"])
    def test_lst(self, method):
        b = sample(DistSpec("mittag_leffler", MLParams(0.6), method), N, STREAM)
        lst = analytic_lst(DistSpec("mittag_leffler", MLParams(0.6)))
        assert lst_distance(b, lst) < 1.5 / math.sqrt(N)

    def test_methods_agree(self):
        a = sample(DistSpec("mittag_leffler", MLParams(0.4)), N, RandomStream(8, 0))
        spec = DistSpec("mittag_leffler", MLParams(0.4), "exp_ratio")
        b = sample(spec, N, RandomStream(8, 7))
        assert ks_two_sample(a, b) < ks_two_sample_threshold(N, N)

    def test_delta_one_is_exponential(self):
        b = sample(DistSpec("mittag_leffler", MLParams(1.0)), N, STREAM)
        d = ks_one_sample(b, scipy.stats.expon.cdf)
        assert d < 1.949 * math.sqrt(1.0 / N)

    def test_nu_must_be_one(self):
        # Rejected at construction, so analytic_lst cannot silently return
        # the nu = 1 transform for a nu != 1 spec.
        with pytest.raises(DomainError, match="gen_mittag_leffler"):
            DistSpec("mittag_leffler", {"delta": 0.5, "nu": 2})
        with pytest.raises(DomainError):
            DistSpec("mittag_leffler", MLParams(0.5, 2.0), "exp_ratio")


class TestGenMittagLeffler:
    @pytest.mark.parametrize("delta,nu", [(0.5, 0.7), (0.8, 2.5), (1.0, 3.0)])
    def test_lst(self, delta, nu):
        b = sample(DistSpec("gen_mittag_leffler", MLParams(delta, nu)), N, STREAM)
        lst = analytic_lst(DistSpec("gen_mittag_leffler", MLParams(delta, nu)))
        assert lst_distance(b, lst) < 1.5 / math.sqrt(N)

    def test_nu_one_matches_ordinary(self):
        spec = DistSpec("gen_mittag_leffler", MLParams(0.6, 1.0))
        a = sample(spec, N, RandomStream(3, 0))
        b = sample(DistSpec("mittag_leffler", MLParams(0.6)), N, RandomStream(3, 9))
        assert ks_two_sample(a, b) < ks_two_sample_threshold(N, N)

    def test_delta_one_is_gamma(self):
        b = sample(DistSpec("gen_mittag_leffler", MLParams(1.0, 2.5)), N, STREAM)
        d = ks_one_sample(b, lambda x: scipy.stats.gamma.cdf(x, 2.5))
        assert d < 1.949 * math.sqrt(1.0 / N)


class TestLinnikFamily:
    @pytest.mark.parametrize("method", METHODS["linnik"])
    def test_ecf(self, method):
        b = sample(DistSpec("linnik", LinnikParams(1.5), method), N, STREAM)
        cf = analytic_cf(DistSpec("linnik", LinnikParams(1.5)))
        assert ecf_distance(b, cf) < 4.0 / math.sqrt(N)

    def test_alpha_two_is_laplace(self):
        b = sample(DistSpec("linnik", LinnikParams(2.0)), N, STREAM)
        d = ks_one_sample(b, scipy.stats.laplace.cdf)
        assert d < 1.949 * math.sqrt(1.0 / N)

    def test_methods_agree_pairwise(self):
        batches = [
            sample(DistSpec("linnik", LinnikParams(1.2), m), N, RandomStream(4, 10 * i))
            for i, m in enumerate(METHODS["linnik"])
        ]
        thr = ks_two_sample_threshold(N, N)
        for i in range(len(batches)):
            for j in range(i + 1, len(batches)):
                assert ks_two_sample(batches[i], batches[j]) < thr

    def test_nu_must_be_one(self):
        # Rejected at construction, so analytic_cf cannot silently return
        # the nu = 1 transform for a nu != 1 spec.
        with pytest.raises(DomainError, match="gen_linnik"):
            DistSpec("linnik", {"alpha": 1.0, "nu": 2.0})
        with pytest.raises(DomainError):
            DistSpec("linnik", LinnikParams(1.5, 0.5), "normal_ml")


class TestGenLinnik:
    @pytest.mark.parametrize(
        "method", ["stable_gamma", "normal_genml", "stable_genml"]
    )
    def test_ecf(self, method):
        p = LinnikParams(1.5, 2.0)
        b = sample(DistSpec("gen_linnik", p, method), N, STREAM)
        cf = analytic_cf(DistSpec("gen_linnik", p))
        assert ecf_distance(b, cf) < 4.0 / math.sqrt(N)

    def test_linnik_z_method(self):
        p = LinnikParams(1.5, 0.8)
        b = sample(DistSpec("gen_linnik", p, "linnik_z"), N, STREAM)
        cf = analytic_cf(DistSpec("gen_linnik", p))
        assert ecf_distance(b, cf) < 4.0 / math.sqrt(N)

    def test_nu_one_matches_linnik(self):
        spec = DistSpec("gen_linnik", LinnikParams(1.0, 1.0))
        a = sample(spec, N, RandomStream(6, 0))
        b = sample(DistSpec("linnik", LinnikParams(1.0)), N, RandomStream(6, 11))
        assert ks_two_sample(a, b) < ks_two_sample_threshold(N, N)

    def test_alpha_two_is_normal_gamma_mixture(self):
        nu = 3.0
        a = sample(DistSpec("gen_linnik", LinnikParams(2.0, nu)), N, RandomStream(7, 0))
        rng = RandomStream(7, 21).generator()
        direct = rng.standard_normal(N) * np.sqrt(2.0 * rng.standard_gamma(nu, N))
        assert ks_two_sample(a.values, direct) < ks_two_sample_threshold(N, N)


class TestTransformTables:
    def test_cf_only_for_symmetric_families(self):
        assert analytic_cf(spec_of("exponential")) is None
        assert analytic_cf(spec_of("stable", alpha=0.5, theta="one_sided")) is None
        assert analytic_cf(spec_of("normal"))(0.0) == 1.0

    @pytest.mark.parametrize("family, params", [
        ("stable", {"alpha": 1.5}),
        ("linnik", {"alpha": 1.5}),
        ("gen_linnik", {"alpha": 1.5, "nu": 2.0}),
    ])
    def test_cf_overflowing_power_gives_zero(self, family, params):
        cf = analytic_cf(DistSpec(family, params))
        assert cf(1e300) == 0.0
        assert cf(-1e300) == 0.0

    def test_lst_only_for_nonnegative_families(self):
        assert analytic_lst(spec_of("normal")) is None
        assert analytic_lst(spec_of("stable", alpha=1.5)) is None
        assert analytic_lst(spec_of("gamma", r=2.0, lam=3.0))(0.0) == 1.0


class TestDispatcherGuards:
    def test_spec_type(self):
        with pytest.raises(DomainError):
            sample("normal", 10, STREAM)

    def test_n_validation(self):
        with pytest.raises(DomainError):
            sample(spec_of("normal"), 0, STREAM)
        with pytest.raises(DomainError):
            sample(spec_of("normal"), 2.5, STREAM)

    def test_stream_type(self):
        with pytest.raises(DomainError):
            sample(spec_of("normal"), 10, np.random.default_rng(0))


BELOW_PI = math.nextafter(math.pi, 0.0)  # the largest double below pi
HALF_PI = math.pi / 2  # the double nearest pi/2


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


@pytest.mark.parametrize("helper,libm,edge,points", [
    (_sin, np.sin, BELOW_PI,
     (BELOW_PI, -BELOW_PI, math.nextafter(BELOW_PI, 0.0), 3.0)),
    (_cos, np.cos, HALF_PI,
     (math.nextafter(HALF_PI, 0.0), math.nextafter(-HALF_PI, 0.0), math.pi / 4,
      math.nextafter(math.pi / 4, 1.0), math.nextafter(math.pi / 4, 0.0))),
], ids=["sin", "cos"])
def test_tan_based_trig_matches_libm(helper, libm, edge, points):
    """The kernels' sin (|x| < pi) and cos (|x| <= pi/2), built on tan, are
    within 4 ulp of numpy's sin and cos over their domains."""
    x = np.concatenate([
        np.linspace(-edge, edge, 2_000_001),
        [0.0, -0.0, 1e-300, -1e-300, 1e-20, HALF_PI, -HALF_PI], points,
    ])
    before = x.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = helper(x, np.empty_like(x))
        want = libm(x)
    assert np.array_equal(x, before)  # out= is where the values go
    nonzero = want != 0.0
    assert np.array_equal(got[~nonzero], want[~nonzero])
    assert _ulps(got[nonzero], want[nonzero]).max() <= 4.0
    # In place, as the kernels call them, the values are the same.
    assert np.array_equal(helper(x, x), got)


def test_tan_based_cos_at_minus_half_pi():
    # cms draws phi = -pi/2 exactly when U = 0; cos(phi) then keeps libm's
    # positive value, 6.123e-17, not just a value within 4 ulp of it.
    assert _cos(np.array([-HALF_PI]), np.empty(1))[0] == np.cos(-HALF_PI) > 0.0


# The log-form Chambers-Mallows-Stuck kernels the direct-form ones replaced,
# kept as oracles: same draws, same order, the transform summed in logs.
def log_form_symmetric(rng, n, alpha):
    phi = rng.uniform(-math.pi / 2, math.pi / 2, n)
    w = rng.standard_exponential(n)
    ln_abs = (
        np.log(np.abs(np.sin(alpha * phi)))
        - np.log(np.cos(phi)) / alpha
        + ((1.0 - alpha) / alpha)
        * (np.log(np.cos((1.0 - alpha) * phi)) - np.log(w))
    )
    return np.sign(np.sin(alpha * phi)) * np.exp(ln_abs)


def log_form_one_sided(rng, n, alpha):
    u = rng.random(n)
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    w = rng.standard_exponential(n)
    ln_a = (
        np.log(np.sin((1.0 - alpha) * math.pi * u))
        + (alpha / (1.0 - alpha)) * np.log(np.sin(alpha * math.pi * u))
        - (1.0 / (1.0 - alpha)) * np.log(np.sin(math.pi * u))
    )
    return np.exp(((1.0 - alpha) / alpha) * (ln_a - np.log(w)))


@pytest.mark.parametrize(
    "kernel,oracle,alpha",
    [(_stable_symmetric_values, log_form_symmetric, a)
     for a in (0.05, 0.1, 0.3, 0.6, 1.5, 1.99)]
    + [(_stable_one_sided_values, log_form_one_sided, a)
       for a in (0.05, 0.3, 0.6, 0.95)],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_direct_form_kernel_matches_log_form(kernel, oracle, alpha):
    n = 1_000_000
    with np.errstate(all="ignore"):
        want = oracle(RandomStream(99, 0).generator(), n, alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = kernel(RandomStream(99, 0).generator(), n, alpha)
    assert not np.isnan(got).any()
    assert (~np.isfinite(got)).sum() <= (~np.isfinite(want)).sum()
    both = np.isfinite(got) & np.isfinite(want)
    rel = np.abs(got[both] - want[both]) / np.abs(want[both])
    assert rel.max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(min_value=0.05, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_symmetric_stable_always_finite(alpha, seed):
    """The direct-form sampler stays finite down to alpha = 0.05."""
    b = sample(DistSpec("stable", StableParams(alpha)), 500, RandomStream(seed, 0))
    assert np.all(np.isfinite(b.values))


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(min_value=0.05, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_one_sided_stable_finite_and_positive(alpha, seed):
    spec = DistSpec("stable", StableParams(alpha, "one_sided"))
    b = sample(spec, 500, RandomStream(seed, 0))
    assert np.all(np.isfinite(b.values))
    assert np.all(b.values > 0)


@settings(max_examples=20, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(min_value=1, max_value=64),
)
def test_every_family_draws_requested_length(family, n):
    params = {
        "weibull": {"gamma": 1.3},
        "gamma": {"r": 1.2},
        "gen_gamma": {"r": 1.2, "alpha": -0.7},
        "exp_power": {"nu": 0.9},
        "neg_binom": {"nu": 1.5, "p": 0.3},
        "stable": {"alpha": 1.4},
        "stable_ratio": {"delta": 0.5},
        "z_mix": {"r": 0.5},
        "mittag_leffler": {"delta": 0.8},
        "gen_mittag_leffler": {"delta": 0.8, "nu": 2.0},
        "linnik": {"alpha": 1.1},
        "gen_linnik": {"alpha": 1.1, "nu": 0.6},
    }.get(family)
    b = sample(DistSpec(family, params), n, RandomStream(0, 0))
    assert len(b) == n
    assert np.all(np.isfinite(b.values))


def test_every_route_has_a_golden_digest():
    """No family route can be added or renamed without a sample digest."""
    routes = {
        (family, method)
        for family in FAMILIES
        for method in METHODS.get(family, (None,))
    }
    pinned = {(family, method) for _, family, _, method in SAMPLE_SPECS}
    assert routes == pinned
