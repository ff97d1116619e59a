"""End-to-end tests for the htmix command line, run in-process."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import htmix
from htmix import cli, identities, limits
from htmix.cli import _ROWS, _fmt, _sample_csv, main
from htmix.distributions import DistSpec, sample
from htmix.streams import DEFAULT_SEED, RandomStream
from htmix.verification import MetricEntry, VerificationReport


def run(*argv):
    return main(list(argv))


class TestSample:
    def test_degenerate_stable_writes_ones(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run("sample", "--dist", "stable", "--alpha", "1", "--theta",
                   "one-sided", "--n", "3", "--seed", "42", "--out", str(out))
        assert code == 0
        assert out.read_text() == "index,value\n0,1\n1,1\n2,1\n"

    def test_sidecar_records_resolved_call(self, tmp_path):
        out = tmp_path / "g.csv"
        run("sample", "--dist", "gen-linnik", "--alpha", "1.5", "--nu", "2",
            "--n", "10", "--seed", "5", "--out", str(out))
        meta = json.loads((out.with_suffix(".csv.json")).read_text())
        assert meta == {
            "command": "sample",
            "dist": "gen_linnik",
            "params": {"alpha": 1.5, "nu": 2.0},
            "method": "stable_gamma",
            "n": 10,
            "seed": 5,
            "substream": 0,
        }

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sample", "--dist", "mittag-leffler", "--delta", "0.7",
                "--n", "200", "--seed", "11"]
        run(*argv, "--out", str(a))
        run(*argv, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_out(self, capsys):
        assert run("sample", "--dist", "exponential", "--n", "2",
                   "--seed", "1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,value"
        assert len(lines) == 3

    def test_csv_is_the_fmt_join_on_file_and_stdout(self, tmp_path, capsys):
        # Past several row blocks, with a short last block.
        n = 300_001
        argv = ["sample", "--dist", "gen-linnik", "--alpha", "1.5", "--nu", "2",
                "--n", str(n), "--seed", "1729"]
        values = sample(DistSpec("gen_linnik", {"alpha": 1.5, "nu": 2.0}), n,
                        RandomStream(1729)).values
        out = tmp_path / "g.csv"
        assert run(*argv, "--out", str(out)) == 0
        _assert_is_fmt_join(out.read_bytes().decode("ascii"), values)
        capsys.readouterr()
        assert run(*argv) == 0
        _assert_is_fmt_join(capsys.readouterr().out, values)

    def test_rows_come_one_block_at_a_time(self):
        values = np.arange(2 * _ROWS + 3, dtype=float)
        blocks = list(_sample_csv(values))
        assert blocks[0] == b"index,value\n"
        assert [block.count(b"\n") for block in blocks[1:]] == [_ROWS, _ROWS, 3]

    def test_stdout_text_written_before_the_bytes_stays_first(self, capsys):
        print("earlier text")
        cli._write(None, [b"a,1\n", b"b,2\n"])
        assert capsys.readouterr().out == "earlier text\na,1\nb,2\n"

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out = tmp_path / "e.csv"
        monkeypatch.setenv("HTM_SEED", "99")
        run("sample", "--dist", "normal", "--n", "5", "--out", str(out))
        meta = json.loads((tmp_path / "e.csv.json").read_text())
        assert meta["seed"] == 99

    def test_default_seed_without_env(self, tmp_path, monkeypatch):
        out = tmp_path / "d.csv"
        monkeypatch.delenv("HTM_SEED", raising=False)
        run("sample", "--dist", "normal", "--n", "5", "--out", str(out))
        meta = json.loads((tmp_path / "d.csv.json").read_text())
        assert meta["seed"] == DEFAULT_SEED

    def test_bad_env_seed_is_domain_error(self, monkeypatch, capsys):
        monkeypatch.setenv("HTM_SEED", "not-a-number")
        assert run("sample", "--dist", "normal", "--n", "5") == 2

    def test_out_of_range_parameter(self, capsys):
        assert run("sample", "--dist", "stable", "--alpha", "2.5",
                   "--theta", "symmetric", "--n", "10") == 2
        assert "htmix:" in capsys.readouterr().err

    def test_extra_parameter_rejected(self, capsys):
        assert run("sample", "--dist", "normal", "--alpha", "1.5",
                   "--n", "10") == 2

    def test_missing_parameter_named_in_message(self, capsys):
        assert run("sample", "--dist", "neg-binom", "--nu", "1.5",
                   "--n", "10") == 2
        assert "needs: p" in capsys.readouterr().err

    def test_shape_parameter_defaults_to_one(self, tmp_path):
        out = tmp_path / "one.csv"
        run("sample", "--dist", "gen-linnik", "--alpha", "1.5", "--n", "5",
            "--seed", "3", "--out", str(out))
        meta = json.loads((tmp_path / "one.csv.json").read_text())
        assert meta["params"] == {"alpha": 1.5}

    def test_unwritable_path_is_io_error(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert run("sample", "--dist", "normal", "--n", "5",
                   "--out", str(target)) == 3

    def test_method_override(self, tmp_path):
        out = tmp_path / "m.csv"
        run("sample", "--dist", "linnik", "--alpha", "1.2", "--method",
            "laplace-ratio", "--n", "10", "--seed", "3", "--out", str(out))
        meta = json.loads((tmp_path / "m.csv.json").read_text())
        assert meta["method"] == "laplace_ratio"


class TestEval:
    def test_single_point_grid(self, capsys):
        assert run("eval", "--fn", "gamma", "--grid", "1:1:1") == 0
        assert capsys.readouterr().out == "x,value\n1,1\n"

    def test_negative_grid_values(self, capsys):
        assert run("eval", "--fn", "genlinnik-cf", "--alpha", "1.5",
                   "--nu", "2", "--grid", "-0.2:0.2:0.2") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("-0.2,")
        assert len(lines) == 4

    def test_overflowing_cf_power_prints_zero(self, capsys):
        assert run("eval", "--fn", "genlinnik-cf", "--alpha", "1.5", "--nu", "2",
                   "--grid", "1e300:1e300:1") == 0
        assert capsys.readouterr().out == "x,value\n1e+300,0\n"

    def test_inversion_far_out(self, capsys):
        # The inversion's cost does not grow with |x|: far out it still
        # gives the lower tail and the upper CDF, 1 to double precision.
        assert run("eval", "--fn", "genlinnik-cdf", "--alpha", "1.5", "--nu", "2",
                   "--grid", "-1e7:1e7:2e7") == 0
        assert capsys.readouterr().out == "x,value\n-10000000,1.261566261e-11\n10000000,1\n"

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["eval", "--fn", "ml-density", "--delta", "0.6",
                "--grid", "0.1:2:0.1"]
        run(*argv, "--out", str(a))
        run(*argv, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_flag_is_named(self, capsys):
        assert run("eval", "--fn", "ml-density", "--grid", "0:1:0.5") == 2
        assert "--delta" in capsys.readouterr().err

    def test_lambda_flag_spelling(self, capsys):
        assert run("eval", "--fn", "gg-density", "--r", "0.5", "--alpha",
                   "1.0", "--grid", "0.5:1:0.5") == 2
        assert "--lambda" in capsys.readouterr().err

    def test_unsupported_inversion_regime(self, capsys):
        assert run("eval", "--fn", "genlinnik-pdf", "--alpha", "0.5",
                   "--nu", "1", "--grid", "0:1:0.5") == 4
        assert "unsupported regime" in capsys.readouterr().err

    def test_density_off_the_origin_below_alpha_nu_one(self, capsys):
        # alpha * nu = 0.3: the density is infinite only at 0.
        assert run("eval", "--fn", "genlinnik-pdf", "--alpha", "0.6",
                   "--nu", "0.5", "--grid", "1:1:1") == 0
        assert capsys.readouterr().out == "x,value\n1,0.04727736679\n"

    def test_parameter_flag_the_function_does_not_take(self, capsys):
        assert run("eval", "--fn", "gamma", "--alpha", "7",
                   "--grid", "1:2:1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "does not take --alpha" in captured.err

    def test_bad_grid_shapes(self, capsys):
        assert run("eval", "--fn", "gamma", "--grid", "1:2") == 2
        assert run("eval", "--fn", "gamma", "--grid", "2:1:0.5") == 2
        assert run("eval", "--fn", "gamma", "--grid", "1:2:0") == 2
        assert run("eval", "--fn", "gamma", "--grid", "a:b:c") == 2

    @pytest.mark.parametrize("grid", ["nan:1:0.1", "0:inf:1", "1:2:inf", "0:1:nan"])
    def test_non_finite_grid_values_exit_2(self, capsys, grid):
        assert run("eval", "--fn", "gamma", "--grid", grid) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid values must be finite" in captured.err

    @pytest.mark.parametrize("grid", ["0:1:1e-300", "-1e308:1e308:1", "0:1e6:1"])
    def test_grid_over_a_million_points_exits_2(self, capsys, grid):
        assert run("eval", "--fn", "gamma", "--grid", grid) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid holds more than 1000000 points" in captured.err

    def test_grid_of_a_million_points_is_accepted(self):
        grid = cli._parse_grid("0:999999:1")
        assert (len(grid), grid[-1]) == (10**6, 999999.0)

    # Steps below the spacing of doubles: lo + step * i gave 9,993 points of
    # which 451 differ, and 21 of which 6 differ.
    @pytest.mark.parametrize("grid", ["1:1.0000000000001:1e-17",
                                      "1e16:1.000000000000001e16:0.5"])
    def test_grid_with_repeated_points_exits_2(self, capsys, grid):
        assert run("eval", "--fn", "genml-lst", "--delta", "0.5", "--nu", "1",
                   "--grid", grid) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid step is below the spacing of doubles" in captured.err


class TestVerify:
    def test_single_identity_json(self, capsys):
        code = run("verify", "--identity", "I04", "--gamma", "1", "--b", "1",
                   "--n", "20000", "--seed", "7")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["label"] == "I04"
        assert report["verdict"] is True
        assert report["params"] == {"g": 1.0, "b": 1.0}

    def test_single_identity_csv(self, capsys):
        code = run("verify", "--identity", "I08", "--delta", "0.6",
                   "--n", "2000", "--seed", "7", "--format", "csv")
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "metric,value,threshold,pass"
        assert [l.split(",")[0] for l in lines[1:]] == [
            "ks", "lst_lhs", "lst_rhs"
        ]

    def test_unknown_identity(self, capsys):
        assert run("verify", "--identity", "I99", "--n", "100") == 2

    def test_out_of_domain_cites_constraint(self, capsys):
        code = run("verify", "--identity", "I22", "--alpha", "1.5",
                   "--nu", "1.5", "--n", "100")
        assert code == 2
        assert "v in (0,1]" in capsys.readouterr().err.replace(", ", ",")

    def test_wrong_flag_for_identity(self, capsys):
        assert run("verify", "--identity", "I03", "--delta", "0.5",
                   "--n", "100") == 2
        err = capsys.readouterr().err
        assert "--delta" in err

    @pytest.mark.parametrize("flags,flag", [
        (["--alpha", "1.5"], "--alpha"),
        (["--n", "10"], "--n"),
    ])
    def test_all_rejects_point_flags(self, flags, flag, capsys):
        assert run("verify", "--identity", "all", *flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.rstrip().endswith(f"does not take {flag}")

    def test_missing_flag_for_identity(self, capsys):
        assert run("verify", "--identity", "I20", "--alpha", "1.5",
                   "--n", "100") == 2
        assert "--nu" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "--identity", "I15", "--alpha", "1.0",
                "--n", "5000", "--seed", "7"]
        run(*argv, "--out", str(a))
        run(*argv, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestVerifyAll:
    """verify --identity all over canned run_grid reports: case Ik gets
    margins 0.02 k and 0.025 (27 - k) on two points, so either point may be
    the worst, and a failing case a third metric at 1.5."""

    @pytest.fixture
    def canned(self, monkeypatch):
        calls, failing = [], set()

        def run_grid(case, seed, q):
            calls.append((case.id, seed, q))
            k = int(case.id[1:])
            metrics = [MetricEntry("ks", 0.01 * k, 0.5), MetricEntry("ecf_lhs", 0.001 * (27 - k), 0.04)]
            if case.id in failing:
                metrics.append(MetricEntry("lst_rhs", 0.75, 0.5))
            return [VerificationReport(case.id, {}, {"lhs": 10}, seed, tuple(m))
                    for m in (metrics[:1], metrics[1:])]

        monkeypatch.setattr(identities, "run_grid", run_grid)
        return calls, failing

    @staticmethod
    def margins():
        return {c.id: max(0.01 * k / 0.5, 0.001 * (27 - k) / 0.04)
                for c in identities.registry() for k in [int(c.id[1:])]}

    def test_csv_rows(self, canned, capsys):
        calls, _ = canned
        assert run("verify", "--identity", "all", "--seed", "5", "--q", "0.05",
                   "--format", "csv") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "identity,worst_margin,pass"
        assert lines[1:] == [f"{cid},{_fmt(m)},true" for cid, m in self.margins().items()]
        assert calls == [(c.id, 5, 0.05) for c in identities.registry()]

    def test_json_rows(self, canned, capsys):
        assert run("verify", "--identity", "all", "--seed", "5") == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(list(row) == ["identity", "worst_margin", "pass"] for row in rows)
        assert [(r["identity"], r["worst_margin"], r["pass"]) for r in rows] == [
            (cid, m, True) for cid, m in self.margins().items()]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_failing_case_exits_1(self, canned, capsys, fmt):
        canned[1].add("I07")
        assert run("verify", "--identity", "all", "--format", fmt) == 1
        out = capsys.readouterr().out
        if fmt == "csv":
            assert out.splitlines()[7] == f"I07,{_fmt(1.5)},false"
            assert out.count(",false") == 1
        else:
            rows = json.loads(out)
            assert [r["identity"] for r in rows if not r["pass"]] == ["I07"]
            assert rows[6]["worst_margin"] == 1.5


class TestLimit:
    def test_lemma14_csv(self, capsys):
        code = run("limit", "--theorem", "lemma14", "--nu", "1",
                   "--p-grid", "0.01,0.001", "--reps", "50000", "--seed", "3")
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,ks,threshold,pass"
        assert len(lines) == 3
        assert lines[1].startswith("0.01,")

    def test_json_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["limit", "--theorem", "thm7", "--alpha", "2", "--nu", "1",
                "--n-grid", "50,150", "--reps", "2000", "--seed", "5",
                "--threshold", "0.2", "--format", "json"]
        run(*argv, "--out", str(a))
        run(*argv, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["theorem"] == "thm7"
        assert [row["n"] for row in payload["rows"]] == [50, 150]

    def test_control_adds_column(self, capsys):
        code = run("limit", "--theorem", "thm8", "--alpha", "1.5", "--nu", "2",
                   "--n-grid", "100", "--reps", "2000", "--seed", "5",
                   "--control", "fixed-index")
        assert code == 1  # control run does not reach the normal law this fast
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,ks,threshold,pass,ks_normal"

    def test_index_overflow_exits_four(self, capsys):
        code = run("limit", "--theorem", "thm8", "--alpha", "0.5", "--nu", "1",
                   "--n-grid", "10,100", "--reps", "2000")
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "64-bit integer" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv,label",
        [
            (["limit", "--theorem", "thm8", "--alpha", "0.5", "--nu", "1",
              "--n-grid", "10,100", "--reps", "2000"], "htmix: accuracy limit: "),
            (["eval", "--fn", "genlinnik-pdf", "--alpha", "0.5", "--nu", "1",
              "--grid", "0:1:0.5"], "htmix: unsupported regime: "),
            (["sample", "--dist", "neg-binom", "--nu", "1", "--p", "1e-300",
              "--n", "10"], "htmix: accuracy limit: "),
            (["limit", "--theorem", "thm6", "--alpha", "2", "--nu", "1",
              "--n-grid", "100000000000000000000", "--reps", "1000"],
             "htmix: accuracy limit: "),
            (["eval", "--fn", "gleser-density", "--r", "0.99", "--mu", "1e-300", "--grid",
              "1.0000000000000002e-300:1.0000000000000002e-300:1"],
             "htmix: accuracy limit: "),
        ],
    )
    def test_exit_four_names_its_cause(self, argv, label, capsys):
        assert run(*argv) == 4
        err = capsys.readouterr().err
        assert err.startswith(label)
        assert err.count("htmix:") == 1

    def test_statistic_choices_follow_the_table(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        action = next(a for a in sub.choices["limit"]._actions
                      if a.dest == "statistic")
        assert action.choices == [s.replace("_", "-") for s in limits.STATISTICS]

    def test_thm6_rejects_control(self, capsys):
        assert run("limit", "--theorem", "thm6", "--alpha", "2", "--nu", "1",
                   "--n-grid", "100", "--reps", "1000",
                   "--control", "fixed-index") == 2

    @pytest.mark.parametrize(
        "theorem_args,flag",
        [
            (["lemma14", "--p-grid", "0.1", "--control", "fixed-index",
              "--alpha", "9", "--n-grid", "5"], "--n-grid"),
            (["lemma14", "--p-grid", "0.1", "--alpha", "9"], "alpha"),
            (["lemma14", "--p-grid", "0.1", "--control", "fixed-index"],
             "control"),
            (["thm6", "--alpha", "2", "--n-grid", "100", "--summand",
              "uniform"], "summand"),
            (["thm8", "--alpha", "2", "--n-grid", "100", "--summand",
              "rademacher"], "summand"),
            (["thm7", "--alpha", "2", "--n-grid", "100", "--statistic",
              "sample-mean"], "statistic"),
            (["thm7", "--alpha", "2", "--n-grid", "100", "--p-grid", "0.1"],
             "--p-grid"),
        ],
    )
    def test_unread_flag_rejected(self, theorem_args, flag, capsys):
        assert run("limit", "--theorem", *theorem_args, "--nu", "1",
                   "--reps", "1000") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "0"])
    def test_bad_threshold_rejected(self, threshold, capsys):
        assert run("limit", "--theorem", "lemma14", "--nu", "1", "--p-grid",
                   "0.1", "--reps", "1000", "--threshold", threshold) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threshold" in captured.err

    def test_missing_grid(self, capsys):
        assert run("limit", "--theorem", "thm7", "--alpha", "2",
                   "--nu", "1", "--reps", "1000") == 2
        assert run("limit", "--theorem", "lemma14", "--nu", "1",
                   "--reps", "1000") == 2

    def test_missing_alpha(self, capsys):
        assert run("limit", "--theorem", "thm8", "--nu", "1",
                   "--n-grid", "100", "--reps", "1000") == 2

    def test_bad_grid_list(self, capsys):
        assert run("limit", "--theorem", "thm7", "--alpha", "2", "--nu", "1",
                   "--n-grid", "100,abc", "--reps", "1000") == 2

    def test_failing_run_exits_one(self, capsys):
        code = run("limit", "--theorem", "thm7", "--alpha", "1.5", "--nu", "2",
                   "--n-grid", "20", "--reps", "1000", "--seed", "3",
                   "--threshold", "0.001")
        assert code == 1


class TestList:
    def test_identities_section(self, capsys):
        assert run("list", "--identities") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "identities:"
        assert len(lines) == 27
        assert lines[1].split()[0] == "I01"
        assert "=d=" in lines[1]

    def test_dists_section(self, capsys):
        assert run("list", "--dists") == 0
        out = capsys.readouterr().out
        assert "gen-mittag-leffler: delta in (0, 1], nu > 0" in out
        assert "[methods:" in out
        assert "stable-gamma" in out

    def test_theorems_section(self, capsys):
        assert run("list", "--theorems") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["theorems:", "  lemma14", "  thm6", "  thm7", "  thm8"]

    def test_default_prints_everything(self, capsys):
        assert run("list") == 0
        out = capsys.readouterr().out
        assert "distributions:" in out
        assert "identities:" in out
        assert "theorems:" in out


class TestParsing:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    def test_unknown_eval_fn_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("eval", "--fn", "zeta", "--grid", "1:2:1")
        assert exc.value.code == 2

    def test_leading_dash_grid_parses(self, capsys):
        # A bare "-5:5:1" after --grid must not be read as an option.
        assert run("eval", "--fn", "genlinnik-cf", "--alpha", "2", "--nu", "1",
                   "--grid", "-5:5:1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12


def _csv_text(values):
    return b"".join(_sample_csv(values)).decode("ascii")


def _assert_is_fmt_join(text, values):
    expected = "index,value\n" + "".join(
        f"{i},{_fmt(v)}\n" for i, v in enumerate(values)
    )
    # Rows first, so that a failure names the first differing row cheaply.
    assert text.splitlines() == expected.splitlines()
    assert text == expected


class TestSampleRows:
    """The vectorized sample CSV writer against Python's own "%.10g"."""

    # Ties at the 10th digit, roundings that carry into a new exponent, the
    # edges of the vectorized range and values that take the scalar path.
    EDGES = [
        1234567890.5, 1234567891.5, 123456789.25, 12345.678905, 0.5, 2.5e-5,
        9999999999.5, 9999999998.5, 0.99999999995, 9.9999999995e-5,
        9.9999999995e-14, 1e-4, 1e-5, 1e-13, 1e10, 1e9, 1.0, 10.0,
        math.nextafter(1e-13, 0.0), math.nextafter(1e10, 0.0),
        math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0),
        0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        math.inf, -math.inf, math.nan,
    ]

    # Every power of ten in the vectorized range and its two neighbours,
    # where the decimal exponent changes.
    POWERS = [
        x for j in range(-13, 11)
        for x in (10.0**j, math.nextafter(10.0**j, 0.0), math.nextafter(10.0**j, math.inf))
    ]

    def test_edges(self):
        values = np.array(self.EDGES + self.POWERS)
        values = np.concatenate([values, -values])
        _assert_is_fmt_join(_csv_text(values), values)

    def test_ten_up_is_the_smallest_double_at_or_above_each_power(self):
        assert cli._TEN_UP.size == 23
        for j, x in zip(range(-13, 10), cli._TEN_UP.tolist()):
            power = Fraction(10) ** j
            assert Fraction(x) >= power
            assert Fraction(math.nextafter(x, 0.0)) < power

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), min_size=1, max_size=64))
    def test_any_float(self, xs):
        values = np.array(xs, dtype=float)
        _assert_is_fmt_join(_csv_text(values), values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        _assert_is_fmt_join(_csv_text(values), values)

    def test_bulk_across_blocks(self):
        # Several row blocks of log-uniform magnitudes over the whole fast
        # range and past both ends, dyadic values with exact ties, eleven-digit
        # decimals ending in 5 (most of them scale to exactly half way
        # between two integers) and raw bit patterns.
        rng = np.random.default_rng(20)
        n = 150_000
        values = np.concatenate([
            np.exp(rng.uniform(math.log(1e-16), math.log(1e12), n))
            * rng.choice([-1.0, 1.0], n),
            np.ldexp(rng.integers(1, 2**34, n).astype(float),
                     rng.integers(-40, 1, n)),
            (rng.integers(10**9, 10**10, n) * 10 + 5) / 10.0 ** rng.integers(1, 22, n),
            rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        ])
        _assert_is_fmt_join(_csv_text(values), values)


# scipy submodules that pull in optimize, sparse and linalg. The package
# uses only scipy.special, loaded on first use (the gamma-function values,
# the Mittag-Leffler series and tail tables, and the normal and gamma CDFs
# of the limit theorems); InversionCdf interpolates with its own PCHIP.
HEAVY_SCIPY = ("scipy.optimize", "scipy.sparse", "scipy.linalg", "scipy.integrate",
               "scipy.interpolate")
IMPORT_HTMIX = "import htmix"
CLI_LIST = "from htmix import cli; cli.main(['list'])"
CLI_SAMPLE = ("from htmix import cli; cli.main(['sample', '--dist', 'gen-linnik', '--alpha',"
              " '1.5', '--nu', '2', '--n', '1000'])")
CLI_VERIFY = ("from htmix import cli; cli.main(['verify', '--identity', 'I01', '--alpha',"
              " '1.5', '--b', '0.5', '--n', '2000'])")


def scipy_modules_after(code: str, modules: str) -> str:
    """The last line a fresh interpreter prints after running code: the
    sorted names in sys.modules that the expression modules keeps."""
    env = {**os.environ, "PYTHONPATH": str(Path(htmix.__file__).parents[1])}
    script = f"{code}\nimport sys\nprint(sorted({modules}))"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.splitlines()[-1]


@pytest.mark.parametrize("code", [
    IMPORT_HTMIX, CLI_LIST, CLI_SAMPLE, CLI_VERIFY,
    "from htmix import special; special.mittag_leffler(0.6, -6.3); special.ml_density(0.9, 10.9)",
    "from htmix import special; special.InversionCdf(1.5, 2, 10)",
    "from htmix import cli; cli.main(['limit', '--theorem', 'thm6', '--alpha', '1.5', '--nu',"
    " '2', '--n-grid', '10', '--reps', '1000'])",
])
def test_heavy_scipy_stays_off_the_import_path(code):
    assert scipy_modules_after(code, f"set({HEAVY_SCIPY!r}) & set(sys.modules)") == "[]"


@pytest.mark.parametrize("code", [IMPORT_HTMIX, CLI_LIST, CLI_SAMPLE, CLI_VERIFY])
def test_no_scipy_module_is_loaded(code):
    modules = "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')"
    assert scipy_modules_after(code, modules) == "[]"
