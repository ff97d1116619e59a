"""Tests for the distributional-identity registry and its checker."""

import inspect
import itertools
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from htmix import _pool
from htmix.distributions import DistSpec, sample
from htmix.errors import DomainError
from htmix.identities import (
    Abs,
    Draw,
    IdentityCase,
    Power,
    Product,
    Reciprocal,
    Scale,
    evaluate,
    get_case,
    instantiate,
    registry,
    run_grid,
    verify,
)
from htmix.streams import DEFAULT_SEED, RandomStream
from htmix.verification import ks_two_sample, ks_two_sample_threshold

EXPECTED_PARAMS = {
    "I01": ("a", "b"),
    "I02": ("a", "b"),
    "I03": ("a",),
    "I04": ("g", "b"),
    "I05": ("g",),
    "I06": ("r", "m"),
    "I07": ("r", "a", "m"),
    "I08": ("d",),
    "I09": ("d",),
    "I10": ("d", "b"),
    "I11": ("a",),
    "I12": ("a", "b"),
    "I13": ("a",),
    "I14": ("a", "b"),
    "I15": ("a",),
    "I16": ("d",),
    "I17": ("a", "v"),
    "I18": ("a", "v"),
    "I19": ("d", "v"),
    "I20": ("a", "v"),
    "I21": ("a", "b", "v"),
    "I22": ("a", "v"),
    "I23": ("a", "v"),
    "I24": ("d", "v"),
    "I25": ("d", "b", "v"),
    "I26": ("r", "a", "m"),
}


class TestRegistry:
    def test_has_26_cases_in_id_order(self):
        cases = registry()
        assert len(cases) == 26
        assert [c.id for c in cases] == [f"I{i:02d}" for i in range(1, 27)]

    def test_param_names(self):
        for case in registry():
            assert case.param_names == EXPECTED_PARAMS[case.id]

    def test_anchors_are_equations(self):
        for case in registry():
            assert "=d=" in case.anchor
            assert case.anchor.isascii()

    def test_every_case_has_at_least_three_grid_points(self):
        for case in registry():
            assert len(case.grid) >= 3
            for point in case.grid:
                assert case.in_domain(point.params)
                assert point.n == 200_000

    def test_get_case_roundtrip(self):
        for case in registry():
            assert get_case(case.id) is case

    def test_get_case_unknown(self):
        with pytest.raises(DomainError):
            get_case("I99")



class TestDomains:
    @pytest.mark.parametrize(
        "case_id,params,ok",
        [
            ("I20", {"a": 1.5, "v": 2.5}, True),
            ("I20", {"a": 2.5, "v": 1.0}, False),
            ("I22", {"a": 1.5, "v": 1.5}, False),
            ("I22", {"a": 1.5, "v": 1.0}, True),
            ("I24", {"d": 0.7, "v": 1.2}, False),
            ("I13", {"a": 2.0}, True),
            ("I13", {"a": 1.99}, True),
            ("I21", {"a": 1.5, "b": 1.0, "v": 2.0}, True),
            ("I21", {"a": 1.5, "b": 0.8, "v": 2.0}, True),
            ("I06", {"r": 1.0, "m": 1.0}, True),
            ("I07", {"r": 0.5, "a": 1.2, "m": 1.0}, False),
            ("I26", {"r": 0.5, "a": -1.5, "m": 2.0}, True),
            ("I26", {"r": 0.5, "a": 0.0, "m": 2.0}, False),
            ("I01", {"a": 2.0, "b": 1.0}, True),
            ("I02", {"a": 1.5, "b": 0.5}, False),
            ("I07", {"r": 1.0, "a": 0.6, "m": 2.0}, True),
        ],
    )
    def test_membership(self, case_id, params, ok):
        assert get_case(case_id).in_domain(params) is ok

    def test_wrong_key_set_is_out(self):
        case = get_case("I20")
        assert not case.in_domain({"a": 1.5})
        assert not case.in_domain({"a": 1.5, "v": 2.0, "x": 1.0})

    def test_non_finite_is_out(self):
        assert not get_case("I03").in_domain({"a": float("nan")})
        assert not get_case("I03").in_domain({"a": float("inf")})

    @pytest.mark.parametrize(
        "case_id,params",
        [
            ("I06", {"r": 1.0, "m": 1.0}),
            ("I07", {"r": 1.0, "a": 0.6, "m": 2.0}),
            ("I13", {"a": 2.0}),
            ("I21", {"a": 1.5, "b": 1.0, "v": 2.0}),
        ],
    )
    def test_closed_endpoints_hold(self, case_id, params):
        # The records accept these endpoints (Z(1,m) is the point mass at m,
        # R(1) is dropped, M(1,v) is a gamma power), and the identity holds.
        report = verify(get_case(case_id), params, 200_000, DEFAULT_SEED)
        assert report.verdict, report.to_json()

    def test_domain_is_where_both_sides_build(self):
        # in_domain and instantiate read the same param records, so they
        # agree at every point of a lattice across the records' bounds.
        values = (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, float("nan"))
        stream = RandomStream(3, 0)
        for case in registry():
            for point in itertools.product(values, repeat=len(case.param_names)):
                params = dict(zip(case.param_names, point))
                try:
                    instantiate(case, params, 1, stream)
                    built = True
                except DomainError:
                    built = False
                assert case.in_domain(params) is built, (case.id, params)

    @pytest.mark.parametrize(
        "anchor",
        [
            "L(a) =d= Q(a) * W(1)",  # unknown symbol
            "L(a) =d= S(a,0 * W(1)^(1/a)",  # unbalanced parenthesis
            "L(a) =d= S(a,0) W(1)",  # trailing tokens
            "L(a) =d= S(a,0) + W(1)",  # an operator outside the notation
            "L(a) =d= S(a) * W(1)",  # a law with the wrong argument count
        ],
    )
    def test_malformed_anchor_is_refused(self, anchor):
        with pytest.raises(DomainError, match=re.escape(anchor)):
            IdentityCase("T01", anchor, "a in (0,2]", ())


class TestExpressionNodes:
    def test_draw_rejects_non_spec(self):
        with pytest.raises(DomainError):
            Draw("normal")

    def test_product_needs_two_factors(self):
        with pytest.raises(DomainError):
            Product((Draw(DistSpec("normal")),))

    def test_power_fractional_needs_positive_base(self):
        with pytest.raises(DomainError):
            Power(Draw(DistSpec("normal")), 0.5)
        # Integer powers of signed bases are fine.
        Power(Draw(DistSpec("normal")), 2)

    def test_power_exponent_nonzero(self):
        with pytest.raises(DomainError):
            Power(Draw(DistSpec("exponential")), 0.0)

    def test_reciprocal_needs_positive_base(self):
        with pytest.raises(DomainError):
            Reciprocal(Draw(DistSpec("laplace")))
        assert Reciprocal(Draw(DistSpec("exponential"))).positive

    def test_scale_factor_nonzero(self):
        with pytest.raises(DomainError):
            Scale(Draw(DistSpec("exponential")), 0.0)
        assert not Scale(Draw(DistSpec("exponential")), -2.0).positive

    def test_abs_is_positive(self):
        assert Abs(Draw(DistSpec("normal"))).positive

    def test_positivity_of_stable_depends_on_branch(self):
        one_sided = Draw(DistSpec("stable", {"alpha": 0.7, "theta": "one_sided"}))
        symmetric = Draw(DistSpec("stable", {"alpha": 0.7, "theta": "symmetric"}))
        assert one_sided.positive
        assert not symmetric.positive

    def test_evaluate_rejects_non_expression(self):
        with pytest.raises(DomainError):
            evaluate(3.0, 100, RandomStream(1, 0))


class TestInstantiate:
    def test_labels_carry_side_and_description(self):
        lhs, rhs = instantiate(
            get_case("I01"), {"a": 2.0, "b": 0.6}, 100, RandomStream(5, 0)
        )
        assert lhs.spec.startswith("I01:lhs ")
        assert rhs.spec.startswith("I01:rhs ")
        assert lhs.n == rhs.n == 100

    def test_out_of_domain_rejected(self):
        with pytest.raises(DomainError):
            instantiate(get_case("I22"), {"a": 1.5, "v": 1.5}, 100, RandomStream(5, 0))

    def test_bad_n_rejected(self):
        with pytest.raises(DomainError):
            instantiate(get_case("I03"), {"a": 1.5}, 0, RandomStream(5, 0))

    def test_both_sides_exponential_when_shapes_are_one(self):
        # Unit Weibull shape on both sides leaves two plain exponentials.
        lhs, rhs = instantiate(
            get_case("I04"), {"g": 1.0, "b": 1.0}, 200_000, RandomStream(11, 0)
        )
        for batch in (lhs, rhs):
            xs = np.sort(batch.values)
            grid = (np.arange(batch.n) + 0.5) / batch.n
            gap = np.max(np.abs((1.0 - np.exp(-xs)) - grid))
            assert gap < 1.95 / np.sqrt(batch.n)

    def test_degenerate_one_sided_factor_is_identity(self):
        # At b=1 the one-sided factor is the constant 1, so the product
        # collapses to the bare symmetric draw from its own substream.
        stream = RandomStream(23, 0)
        _, rhs = instantiate(get_case("I01"), {"a": 1.3, "b": 1.0}, 5000, stream)
        bare = sample(
            DistSpec("stable", {"alpha": 1.3, "theta": "symmetric"}),
            5000,
            stream.shifted(1),
        )
        assert np.array_equal(rhs.values, bare.values)

    def test_laplace_boundary_case(self):
        # At a=2 the left side is Laplace and the right side is a normal
        # times a root-exponential scale; same law either way.
        lhs, rhs = instantiate(
            get_case("I11"), {"a": 2.0}, 200_000, RandomStream(31, 0)
        )
        stat = ks_two_sample(lhs.values, rhs.values)
        assert stat < ks_two_sample_threshold(lhs.n, rhs.n, 0.01)


class TestVerify:
    def test_theorem_style_case_passes(self):
        report = verify(get_case("I20"), {"a": 1.5, "v": 2.0}, 200_000, 7)
        assert report.verdict
        assert report.label == "I20"
        assert report.params == {"a": 1.5, "v": 2.0}

    def test_symmetric_mixture_case_passes(self):
        report = verify(get_case("I15"), {"a": 1.0}, 200_000, 7)
        assert report.verdict

    def test_cauchy_type_boundary_passes(self):
        report = verify(get_case("I17"), {"a": 1.0, "v": 1.0}, 200_000, 7)
        assert report.verdict

    def test_symmetric_lhs_adds_cf_metrics(self):
        report = verify(get_case("I15"), {"a": 1.3}, 20_000, 3)
        assert [m.name for m in report.metrics] == ["ks", "ecf_lhs", "ecf_rhs"]

    def test_one_sided_lhs_adds_lst_metrics(self):
        report = verify(get_case("I08"), {"d": 0.6}, 20_000, 3)
        assert [m.name for m in report.metrics] == ["ks", "lst_lhs", "lst_rhs"]

    def test_composite_lhs_keeps_ks_only(self):
        # I26 has a generalized-gamma left side with no closed transform here.
        report = verify(
            get_case("I26"), {"r": 0.7, "a": -1.2, "m": 1.0}, 20_000, 3
        )
        assert [m.name for m in report.metrics] == ["ks"]

    def test_report_serializes(self):
        report = verify(get_case("I05"), {"g": 0.8}, 10_000, 3)
        d = report.to_dict()
        assert d["label"] == "I05"
        assert d["n"] == {"lhs": 10_000, "rhs": 10_000}

    def test_same_bytes_on_one_two_and_eight_workers(self, monkeypatch):
        # Sides and metrics run on the pool; the report must not depend on
        # how many workers there are or on how their steps interleave.
        points = (
            ("I15", {"a": 1.3}),
            ("I08", {"d": 0.6}),
            ("I07", {"r": 0.7, "a": 0.6, "m": 2.0}),
            ("I23", {"a": 1.3, "v": 0.7}),
        )
        out = []
        # 8 workers on a short switch interval stress the hand-over of tasks.
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for workers in (1, 2, 8):
                with ThreadPoolExecutor(workers) as pool:
                    monkeypatch.setattr(_pool, "_POOL", pool)
                    out.append(b"".join(
                        verify(get_case(case_id), params, 20_000, 5).to_json().encode()
                        for case_id, params in points
                    ))
        finally:
            sys.setswitchinterval(interval)
        assert out[0] == out[1] == out[2]

    def test_ks_is_ks_two_sample_bit_for_bit(self):
        # verify's KS is ks_two_sample of the sides instantiate draws, lhs
        # first.
        for case_id, params in (
            ("I15", {"a": 1.3}),
            ("I08", {"d": 0.6}),
            ("I07", {"r": 0.7, "a": 0.6, "m": 2.0}),
            ("I23", {"a": 1.3, "v": 0.7}),
        ):
            case = get_case(case_id)
            lhs, rhs = instantiate(case, params, 20_000, RandomStream(5))
            ks = verify(case, params, 20_000, 5).metrics[0]
            assert ks.name == "ks"
            assert ks.value.hex() == ks_two_sample(lhs, rhs).hex()

    def test_run_grid_covers_canonical_points(self):
        case = get_case("I03")
        reports = run_grid(case, seed=1729)
        assert len(reports) == len(case.grid)
        assert all(r.verdict for r in reports)


class TestSubstreamDiscipline:
    def _ratio_expr(self):
        return Product(
            (
                Draw(DistSpec("exponential")),
                Reciprocal(Draw(DistSpec("exponential"))),
            )
        )

    def test_same_law_sanity(self):
        # The same expression drawn twice on disjoint substreams gives two
        # independent samples of one law.
        expr = self._ratio_expr()
        a = evaluate(expr, 200_000, RandomStream(41, 0))
        b = evaluate(expr, 200_000, RandomStream(41, 100))
        assert ks_two_sample(a, b) < ks_two_sample_threshold(len(a), len(b), 0.01)

    def test_shared_substreams_break_the_law(self):
        # Drawing both leaves on one substream makes the ratio collapse to
        # the constant 1, which the two-sample check must catch.
        honest = evaluate(self._ratio_expr(), 50_000, RandomStream(41, 0))
        leaf = Draw(DistSpec("exponential"))
        shared = evaluate(leaf, 50_000, RandomStream(41, 0)) * (
            1.0 / evaluate(leaf, 50_000, RandomStream(41, 0))
        )
        assert np.allclose(shared, 1.0)
        stat = ks_two_sample(honest, shared)
        assert stat > ks_two_sample_threshold(len(honest), len(shared), 0.01)

    def test_sides_use_disjoint_offsets(self):
        # Rerunning each side alone, the rhs on the stream shifted past the
        # lhs leaf, reproduces the instantiate() output bit for bit.
        case = get_case("I09")
        stream = RandomStream(53, 0)
        lhs, rhs = instantiate(case, {"d": 0.5}, 1000, stream)
        assert np.array_equal(lhs.values, evaluate(case.lhs({"d": 0.5}), 1000, stream))
        rhs_again = evaluate(case.rhs({"d": 0.5}), 1000, stream.shifted(1))
        assert np.array_equal(rhs.values, rhs_again)
        # Leaves always take offsets 0, 1, 2, ... depth-first.
        assert list(inspect.signature(evaluate).parameters) == ["expr", "n", "stream"]
