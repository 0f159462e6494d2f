"""Tests for the command-line front end: output contract, exit codes,
determinism, the command-line grammar."""

import json
import os
import subprocess
import sys
import weakref
from types import SimpleNamespace

import pytest

from qtoda import __version__, cli, operators, symbolic, whittaker
from qtoda.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    main,
)
from qtoda.fixed_points import all_degrees
from qtoda.operators import ModuleContext
from qtoda.symbolic import (ArithmeticDomainError, DegeneracyError,
                            EvaluationError, UsageError)


def expire_after_first(monkeypatch, key, count=1):
    """A fake clock that passes the time budget as soon as the first `count`
    records with `key` are written."""
    now = [0.0]
    seen = [0]
    emit = cli.Reporter.emit

    def emit_then_expire(rep, record):
        emit(rep, record)
        if key in record:
            seen[0] += 1
            if seen[0] >= count:
                now[0] = 1e9

    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(cli.Reporter, "emit", emit_then_expire)
    monkeypatch.setenv("QTODA_TIME_BUDGET", "60")


@pytest.fixture
def expire_after_first_verdict(monkeypatch):
    expire_after_first(monkeypatch, "status")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out.splitlines()


def parsed(lines):
    return [json.loads(line) for line in lines]


class TestEnumerate:
    def test_basic(self, capsys):
        code, lines = run(capsys, "enumerate", "--n", "3", "--degree", "1,1")
        assert code == EXIT_PASS
        records = parsed(lines)
        points = [r for r in records if "point" in r]
        assert len(points) == 2
        check = [r for r in records if r.get("check")][0]
        assert check["status"] == "pass" and check["count"] == 2
        assert records[-1]["summary"] is True

    def test_single_point(self, capsys):
        code, lines = run(capsys, "enumerate", "--n", "2", "--degree", "5")
        assert code == EXIT_PASS
        assert len([r for r in parsed(lines) if "point" in r]) == 1

    def test_budget_stops_after_the_first_point(self, capsys, monkeypatch):
        expire_after_first(monkeypatch, "point")
        code, lines = run(capsys, "enumerate", "--n", "4", "--degree", "2,2,2")
        assert code == EXIT_BUDGET
        records = parsed(lines)
        assert [r for r in records if "point" in r] == [records[1]]
        # the summary counts the config echo and the one point
        assert records[2:] == [{"summary": True, "complete": False,
                                "counts": {}, "records": 2}]

    def test_usage_errors(self, capsys):
        assert main(["enumerate", "--n", "1", "--degree", "0"]) == EXIT_USAGE
        capsys.readouterr()
        assert main(["enumerate", "--n", "3", "--degree", "1"]) == EXIT_USAGE
        capsys.readouterr()
        assert main(["enumerate", "--n", "3", "--degree", "x,y"]) == EXIT_USAGE
        capsys.readouterr()
        assert main(["nonsense"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "3", "--degree", "1_0,0"],
    ["enumerate", "--n", "3", "--degree", "١,1"],
    ["enumerate", "--n", "3", "--degree", "+1,1"],
    ["enumerate", "--n", "3", "--degree", " 1,1"],
    ["characters", "--n", "2", "--degree", "1_0"],
    ["whittaker", "--n", "2", "--degree", "٢"],
    ["toda", "--n", "٢", "--box", "1"],
    ["toda", "--n", "2", "--box", "1_0"],
    ["verify", "--n", "+2", "--box", "0"],
    ["verify", "--n", "2", "--box", "0", "--seed", "1_0"],
    ["verify", "--n", "3", "--box", "0", "--suite", "summation",
     "--i", "١"],
], ids=lambda argv: " ".join(argv))
def test_loose_integers_are_rejected(capsys, tmp_path, argv):
    # every integer is read as `from_json` reads one: ASCII digits and
    # an optional minus sign, nothing else.  int() would read 1_0 as
    # 10 and non-ASCII digits as numbers
    out = tmp_path / "r.jsonl"
    code, lines = run(capsys, *argv, "--out", str(out))
    assert code == EXIT_USAGE and lines == []
    assert not out.exists()


class TestCharacters:
    def test_oracle_equivalence_records(self, capsys):
        code, lines = run(capsys, "characters", "--n", "3", "--degree", "1,1")
        assert code == EXIT_PASS
        records = [r for r in parsed(lines) if r.get("check")]
        assert all(r["status"] == "pass" for r in records)
        tangent = [r for r in records
                   if r["check"] == "tangent-character-oracle-equivalence"]
        assert len(tangent) == 2
        assert all(r["dimension"] == 4 for r in tangent)

    def test_zero_degree(self, capsys):
        code, lines = run(capsys, "characters", "--n", "2", "--degree", "0")
        assert code == EXIT_PASS
        tangent = [r for r in parsed(lines)
                   if r.get("check") == "tangent-character-oracle-equivalence"]
        assert tangent[0]["dimension"] == 0


class TestWhittakerCommand:
    def test_vectors_and_checks(self, capsys):
        code, lines = run(capsys, "whittaker", "--n", "2", "--degree", "2")
        assert code == EXIT_PASS
        records = parsed(lines)
        vectors = [r for r in records if "vector" in r]
        assert {r["vector"] for r in vectors} == {"structure-sheaf", "dual"}
        checks = [r for r in records if r.get("check")]
        assert checks and all(r["status"] == "pass" for r in checks)


class TestTodaCommand:
    def test_eigen_records_then_series(self, capsys):
        code, lines = run(capsys, "toda", "--n", "2", "--box", "2")
        assert code == EXIT_PASS
        records = parsed(lines)[1:-1]
        checks = [r for r in records if r.get("check")]
        assert records[:len(checks)] == checks
        assert [r["check"] for r in checks] == \
            ["sum-op-eigen"] * 3 + ["difference-op-eigen"] * 3 \
            + ["shift-sign-calibration"]
        assert all(r["status"] == "pass" for r in checks)
        assert [(r["series"], r["degree"]) for r in records[len(checks):]] \
            == [(s, [d]) for s in "IJ" for d in range(3)]


    def test_budget_stops_after_the_first_series_line(self, capsys,
                                                      monkeypatch):
        expire_after_first(monkeypatch, "series")
        code, lines = run(capsys, "toda", "--n", "2", "--box", "2")
        assert code == EXIT_BUDGET
        records = parsed(lines)
        series = [r for r in records if "series" in r]
        assert [(r["series"], r["degree"]) for r in series] == [("I", [0])]
        assert records[-2] == series[0]
        assert records[-1]["complete"] is False


class TestVerify:
    def test_full_suite_small(self, capsys):
        code, lines = run(capsys, "verify", "--n", "2", "--box", "2",
                          "--seed", "1")
        assert code == EXIT_PASS
        summary = parsed(lines)[-1]
        assert summary["complete"] is True
        assert summary["counts"].get("fail", 0) == 0
        assert summary["counts"]["pass"] > 20

    def test_summation_suite(self, capsys):
        code, lines = run(capsys, "verify", "--n", "4", "--box", "1",
                          "--suite", "summation", "--i", "3", "--seed", "7")
        assert code == EXIT_PASS
        checks = [r for r in parsed(lines) if r.get("check")]
        assert len(checks) == 1 and checks[0]["status"] == "pass"
        assert "mode" not in checks[0]

    @pytest.mark.parametrize("row", ["0", "3", "5"])
    def test_bad_row_index_rejected_before_any_record(self, capsys, row):
        code, lines = run(capsys, "verify", "--n", "3", "--box", "1",
                          "--i", row)
        assert code == EXIT_USAGE
        assert not [r for r in parsed(lines) if r.get("check")]

    @pytest.mark.parametrize("suite", ["relations", "whittaker", "toda"])
    def test_row_index_rejected_outside_the_summation_suites(self, capsys,
                                                             suite):
        code, lines = run(capsys, "verify", "--n", "2", "--box", "1",
                          "--suite", suite, "--i", "1")
        assert code == EXIT_USAGE
        assert lines == []

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--n", "3", "--degree", "1"],
        ["characters", "--n", "3", "--degree=1,-1"],
        ["whittaker", "--n", "3", "--degree", "1,1,1"],
        ["whittaker", "--n", "2", "--degree=-2"],
        ["enumerate", "--n", "2", "--degree", "x"],
    ], ids=lambda x: " ".join(x))
    def test_bad_degree_rejected_before_any_record(self, capsys, argv):
        code, lines = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert lines == []

    def test_unknown_suite_rejected(self, capsys):
        assert main(["verify", "--n", "2", "--box", "1",
                     "--suite", "bogus"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["verify", "--box", "1", "--trials", "5"],
        ["verify", "--box", "1", "--convention", "B"],
        ["toda", "--box", "1", "--series", "I"],
        ["toda", "--box", "1", "--operator", "G"],
        ["toda", "--box", "1", "--seed", "1"],
        ["enumerate", "--degree", "1", "--seed", "1"],
        ["characters", "--degree", "1", "--seed", "1"],
        ["whittaker", "--degree", "1", "--seed", "1"],
    ], ids=lambda x: " ".join(x[0:1] + x[-2:-1]))
    def test_removed_flags_rejected(self, capsys, argv):
        assert main([argv[0], "--n", "2", *argv[1:]]) == EXIT_USAGE

    def test_config_echo(self, capsys):
        _, lines = run(capsys, "verify", "--n", "2", "--box", "0",
                       "--suite", "relations", "--seed", "3")
        assert parsed(lines)[0]["config"] == {
            "command": "verify", "n": 2, "box": 0, "seed": 3,
            "suite": "relations"}

    def test_budget_exceeded(self, capsys, monkeypatch):
        monkeypatch.setenv("QTODA_TIME_BUDGET", "0.000001")
        code, lines = run(capsys, "verify", "--n", "3", "--box", "2",
                          "--suite", "relations")
        assert code == EXIT_BUDGET
        assert parsed(lines)[-1]["complete"] is False

    @pytest.mark.parametrize("suite", ["relations", "whittaker", "toda",
                                       "summation"])
    def test_budget_stops_between_records(self, capsys, monkeypatch, suite,
                                          expire_after_first_verdict):
        # the deadline passes as soon as the first verdict is out.  The
        # relation suite may then do at most one more record's worth of
        # point checks (one `_decide_point` call per basis vector of a
        # degree); the toda suite has built the degree-0 localization sum
        # `sheaf_rgamma`, whose transfer reads the suffix sums of degree 0
        # alone, and nothing else.
        calls = []
        counted = {"relations": (operators, "_decide_point"),
                   "toda": (whittaker, "suffix_sum")}
        if suite in counted:
            module, name = counted[suite]
            original = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a: calls.append(a) or original(*a))
        code, lines = run(capsys, "verify", "--n", "3", "--box", "2",
                          "--suite", suite)
        assert code == EXIT_BUDGET
        records = parsed(lines)
        assert records[-1]["complete"] is False
        assert len([r for r in records if "status" in r]) == 1
        if suite == "relations":
            per_record = max(len(ModuleContext(3).points(d))
                             for d in all_degrees(3, 2))
            assert len(calls) <= per_record
        if suite == "toda":
            assert {(row, tail) for _, row, tail in calls} \
                == {((0,), (0,)), ((0, 0), ())}

    @pytest.mark.parametrize("count", [1, 2, 26, 27, 28, 29, 54, 55])
    def test_budget_cut_toda_stream_is_a_prefix(self, capsys, monkeypatch,
                                                count):
        # the sum-type records come out as their degrees are decided and the
        # difference-type records from kept verdicts after them, so a run
        # cut after any record has written exactly the full run's first
        # records: the config echo and `count` verdicts
        argv = ("verify", "--n", "4", "--box", "2", "--suite", "toda")
        _, full = run(capsys, *argv)
        expire_after_first(monkeypatch, "status", count)
        code, lines = run(capsys, *argv)
        assert code == EXIT_BUDGET
        assert lines[:-1] == full[:count + 1]
        assert parsed(lines[-1:]) == [{
            "summary": True, "complete": False,
            "counts": {"pass": count}, "records": count + 1}]

    @pytest.mark.parametrize("count", [1, 2, 82, 83, 84, 244, 245, 496])
    def test_budget_cut_whittaker_stream_is_a_prefix(self, capsys,
                                                     monkeypatch, count):
        # the adjoint records come out as their (row, degree) is decided and
        # the eigen records from the verdicts kept per key after them, so a
        # run cut after any record, at either side of each family boundary,
        # has written exactly the full run's first records: the config echo
        # and `count` verdicts
        argv = ("verify", "--n", "4", "--box", "2", "--suite", "whittaker")
        _, full = run(capsys, *argv)
        expire_after_first(monkeypatch, "status", count)
        code, lines = run(capsys, *argv)
        assert code == EXIT_BUDGET
        assert lines[:-1] == full[:count + 1]
        assert parsed(lines[-1:]) == [{
            "summary": True, "complete": False,
            "counts": {"pass": count}, "records": count + 1}]

    @pytest.mark.parametrize("count", [27, 28, 54, 55, 81, 82, 83, 108, 109,
                                       243, 244, 245, 513, 514])
    def test_budget_cut_relations_stream_is_a_prefix(self, capsys,
                                                     monkeypatch, count):
        # the suite's groups come out one after another: first the
        # diagonal consistency of each row i, a group of one relation with
        # 27 verdicts (1-27, 28-54 and 55-81), then the relations of each
        # (i, j): (1, 1) has verdicts 82-243, its first relation's 27
        # streamed as their degrees are decided and the other five
        # relations' kept verdicts after them from 109; (1, 2) has 244-513.
        # A run cut at, or one record past, the first or last record of a
        # group has written exactly the full run's first records: the
        # config echo and `count` verdicts
        argv = ("verify", "--n", "4", "--box", "2", "--suite", "relations")
        _, full = run(capsys, *argv)
        expire_after_first(monkeypatch, "status", count)
        code, lines = run(capsys, *argv)
        assert code == EXIT_BUDGET
        assert lines[:-1] == full[:count + 1]
        statuses = {}
        for r in parsed(full[1:count + 1]):
            statuses[r["status"]] = statuses.get(r["status"], 0) + 1
        assert parsed(lines[-1:]) == [{
            "summary": True, "complete": False,
            "counts": dict(sorted(statuses.items())), "records": count + 1}]

    def test_whittaker_command_stops_between_records(
            self, capsys, expire_after_first_verdict):
        code, lines = run(capsys, "whittaker", "--n", "4", "--degree", "2,2,2")
        assert code == EXIT_BUDGET
        records = parsed(lines)
        assert records[-1]["complete"] is False
        assert [r["check"] for r in records if "status" in r] == \
            ["whittaker-pairing-two-path"]

    @pytest.mark.parametrize("argv", [
        ["characters", "--n", "3", "--degree", "1,1"],
        ["whittaker", "--n", "3", "--degree", "1,1"],
        ["toda", "--n", "3", "--box", "2"],
        ["verify", "--n", "3", "--box", "1"],
    ], ids=lambda x: x[0])
    def test_every_subcommand_stops_after_the_first_verdict(
            self, capsys, argv, expire_after_first_verdict):
        code, lines = run(capsys, *argv)
        assert code == EXIT_BUDGET
        records = parsed(lines)
        assert records[-1]["complete"] is False
        assert len([r for r in records if "status" in r]) == 1

    def test_bad_budget_value(self, capsys, monkeypatch):
        monkeypatch.setenv("QTODA_TIME_BUDGET", "soon")
        assert main(["verify", "--n", "2", "--box", "1"]) == EXIT_USAGE

    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_budget_must_be_positive(self, capsys, monkeypatch, value):
        # a budget that was asked for is never dropped: usage error, before
        # the config echo
        monkeypatch.setenv("QTODA_TIME_BUDGET", value)
        code, lines = run(capsys, "verify", "--n", "2", "--box", "1")
        assert code == EXIT_USAGE and lines == []

    def test_empty_budget_means_no_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("QTODA_TIME_BUDGET", "")
        code, lines = run(capsys, "verify", "--n", "2", "--box", "1")
        assert code == EXIT_PASS and parsed(lines)[-1]["complete"] is True


def cyclic():
    loop = []
    loop.append(loop)
    return loop


class TestErrorRecords:
    """An error raised while the records are made becomes one error record
    and an incomplete summary; one found before the config echo is still a
    usage error with nothing on stdout."""

    @pytest.mark.parametrize("error", [
        DegeneracyError, ArithmeticDomainError, EvaluationError, UsageError,
        MemoryError, RuntimeError], ids=lambda e: e.__name__)
    def test_an_error_mid_stream_becomes_a_record(self, capsys, monkeypatch,
                                                  error):
        def suite(ctx, box):
            yield {"check": "first", "status": "pass"}
            raise error("no such weight")

        monkeypatch.setitem(cli.SUITES, "whittaker", suite)
        code, lines = run(capsys, "verify", "--n", "3", "--box", "1",
                          "--suite", "whittaker")
        assert code == EXIT_FAIL
        assert parsed(lines)[1:] == [
            {"check": "first", "status": "pass"},
            {"status": "error", "error": f"{error.__name__}: no such weight"},
            {"summary": True, "complete": False,
             "counts": {"error": 1, "pass": 1}, "records": 3}]

    def test_a_kernel_out_of_memory_keeps_the_records_made(self, capsys,
                                                          monkeypatch):
        # a MemoryError from the term accumulator halfway through the toda
        # suite: the records made before it, then one error record, written
        # once the suite's context is freed, then an incomplete summary
        args = ("verify", "--n", "3", "--box", "2", "--suite", "toda")
        calls = [0]
        accumulate = symbolic._accumulate

        def counted(acc, terms, by):
            calls[0] += 1
            if calls[0] == limit:
                raise MemoryError()
            return accumulate(acc, terms, by)

        limit = None
        monkeypatch.setattr(symbolic, "_accumulate", counted)
        code, lines = run(capsys, *args)
        assert code == EXIT_PASS
        full = parsed(lines)
        limit, calls[0] = calls[0] // 2, 0
        contexts, alive_at_error = [], []
        emit = cli.Reporter.emit

        def emit_noting_contexts(rep, record):
            if record.get("status") == "error":
                alive_at_error.extend(ref() is not None for ref in contexts)
            emit(rep, record)

        def noted_context(n):
            ctx = ModuleContext(n)
            contexts.append(weakref.ref(ctx))
            return ctx

        monkeypatch.setattr(cli, "ModuleContext", noted_context)
        monkeypatch.setattr(cli.Reporter, "emit", emit_noting_contexts)
        code, lines = run(capsys, *args)
        *made, error, summary = parsed(lines)
        assert code == EXIT_FAIL
        assert 1 < len(made) < len(full) - 1 and made == full[:len(made)]
        assert error == {"status": "error", "error": "MemoryError: "}
        assert summary["complete"] is False
        assert summary["records"] == len(made) + 1
        assert alive_at_error == [False]

    @pytest.mark.parametrize("bad,error", [
        (object(), "TypeError: Object of type object is not JSON serializable"),
        # records are trees: the writer keeps no markers, so a cycle recurses
        (cyclic(), "RecursionError: "),
    ], ids=["unencodable", "cycle"])
    def test_a_record_that_fails_to_encode_is_not_counted(self, capsys,
                                                          monkeypatch, bad,
                                                          error):
        def suite(ctx, box):
            yield {"check": "first", "status": "pass"}
            yield {"check": "second", "status": "pass", "value": bad}
            yield {"check": "third", "status": "pass"}

        monkeypatch.setitem(cli.SUITES, "whittaker", suite)
        code, lines = run(capsys, "verify", "--n", "3", "--box", "1",
                          "--suite", "whittaker")
        *made, failed, summary = parsed(lines)
        assert code == EXIT_FAIL
        assert made[1:] == [{"check": "first", "status": "pass"}]
        assert failed["status"] == "error"
        assert failed["error"].startswith(error)
        assert summary == {"summary": True, "complete": False,
                           "counts": {"error": 1, "pass": 1}, "records": 3}

    def test_a_usage_error_before_the_echo_still_exits_2(self, capsys,
                                                        monkeypatch):
        made = []

        def suite(ctx, box):
            made.append(box)
            raise UsageError("unreached")
            yield

        monkeypatch.setitem(cli.SUITES, "whittaker", suite)
        code = main(["verify", "--n", "3", "--box", "-1", "--suite",
                     "whittaker"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and made == []
        assert captured.out == ""
        assert captured.err == "error: box must be nonnegative\n"


@pytest.fixture(params=["c", "fallback"])
def writer(request, monkeypatch):
    """The record writer chosen at import (the C encoder wherever the
    accelerator is there), or the fallback chosen where it is not."""
    if request.param == "fallback":
        monkeypatch.setattr(cli, "_encode", cli._ENCODER.encode)
    return request.param


def handed_to_emit(monkeypatch):
    """Every record handed to `Reporter.emit`, in order."""
    records = []
    emit = cli.Reporter.emit

    def noting(rep, record):
        records.append(record)
        emit(rep, record)

    monkeypatch.setattr(cli.Reporter, "emit", noting)
    return records


class TestRecordWriter:
    """Each record is written as exactly json.dumps(record, sort_keys=True),
    one line per record."""

    def test_every_record_of_a_full_run(self, capsys, monkeypatch, writer):
        records = handed_to_emit(monkeypatch)
        code, lines = run(capsys, "verify", "--n", "3", "--box", "2")
        assert code == EXIT_PASS and len(lines) > 400
        assert lines == [json.dumps(r, sort_keys=True) for r in records]

    def test_text_nesting_and_wide_ints(self, capsys, monkeypatch, writer):
        record = {"status": "pass", "check": "für n ≥ 2 \"q\"\t\u2028",
                  "witness": {"source": [[0], [1, 2]], "target": [],
                              "entry": {"num": [[[-1, 2, 0], -3]],
                                        "den": [{"s": 2 ** 64 + 1}]}},
                  "big": 2 ** 64, "wide": -(2 ** 200), "neg": -1, "zero": 0}
        monkeypatch.setitem(cli.SUITES, "whittaker",
                            lambda ctx, box: iter([record]))
        code, lines = run(capsys, "verify", "--n", "3", "--box", "1",
                          "--suite", "whittaker")
        assert code == EXIT_PASS
        assert lines[1] == json.dumps(record, sort_keys=True)

    @pytest.mark.skipif(json.encoder.c_make_encoder is None,
                        reason="no C accelerator: each record builds one")
    def test_no_encoder_is_built_while_records_are_written(self, capsys,
                                                           monkeypatch):
        built = []
        make = json.encoder.c_make_encoder
        monkeypatch.setattr(json.encoder, "c_make_encoder",
                            lambda *args: built.append(args) or make(*args))
        code, lines = run(capsys, "verify", "--n", "3", "--box", "2",
                          "--suite", "relations")
        assert code == EXIT_PASS and len(lines) > 300
        assert built == []


class TestVerifyToda:
    def test_box_zero_skips_the_sign_calibration(self, capsys):
        # at degree 0 both signs pass, so the calibration cannot be decided
        code, lines = run(capsys, "verify", "--n", "3", "--box", "0",
                          "--suite", "toda")
        assert code == EXIT_PASS
        [cal] = [r for r in parsed(lines)
                 if r.get("check") == "shift-sign-calibration"]
        assert cal["status"] == "skipped-out-of-box"


    def test_frontier_box_three(self, capsys):
        # (n, box) = (4, 3): out of reach before rat_sum cancelled binomials
        code, lines = run(capsys, "verify", "--n", "4", "--box", "3",
                          "--suite", "toda")
        assert code == EXIT_PASS
        records = parsed(lines)
        assert records[-1]["counts"] == {"pass": 129}


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for p in paths:
            code = main(["verify", "--n", "2", "--box", "3", "--seed", "11",
                         "--out", str(p)])
            assert code == EXIT_PASS
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unwritable_out_path_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.jsonl"
        code = main(["verify", "--n", "2", "--box", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}")
        assert captured.out == ""
        assert not out.exists()

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        main(["toda", "--n", "2", "--box", "1", "--out", str(out)])
        capsys.readouterr()
        code = main(["toda", "--n", "2", "--box", "1"])
        stdout = capsys.readouterr().out
        assert out.read_text() == stdout


# a value each flag accepts; --out takes a path under the test's tmp_path
SAMPLE = {"--n": "2", "--degree": "1", "--box": "0", "--suite": "relations",
          "--seed": "3", "--i": "1"}
FLAG_ROWS = [(name, flag) for name, _, _, flags in cli.SUBCOMMANDS
             for flag, _ in flags]
ALL_FLAGS = sorted({flag for _, flag in FLAG_ROWS})


def flags_of(command):
    return [flag for name, flag in FLAG_ROWS if name == command]


def required_flags(command, skip=None):
    """The command's required flags but `skip`, each with its sample."""
    [flags] = [flags for name, _, _, flags in cli.SUBCOMMANDS
               if name == command]
    return [token for flag, options in flags
            if options.get("required") and flag != skip
            for token in (flag, SAMPLE[flag])]


def usage_errors():
    """A flag of another command, a flag with no value (last, or followed
    by a flag), and a stray positional after each command; an unknown
    command; an empty argv."""
    cases = []
    for command, _, _, _ in cli.SUBCOMMANDS:
        base = [command, *required_flags(command)]
        cases += [base + [flag, "1"] for flag in ALL_FLAGS
                  if flag not in flags_of(command)]
        cases += [base + [flag] for flag in flags_of(command)]
        cases += [[command, flag, *required_flags(command)]
                  for flag in flags_of(command)]
        cases += [base + ["stray"], base + ["--n=2", "stray"]]
    return cases + [["nonsense"], ["nonsense", "--n", "2"], []]


class TestCommandLineGrammar:
    @pytest.mark.parametrize("command,flag", FLAG_ROWS)
    def test_both_flag_forms_read_alike(self, capsys, tmp_path, command,
                                        flag):
        out = tmp_path / "r.jsonl"
        value = str(out) if flag == "--out" else SAMPLE[flag]
        reports = []
        for form in ([flag, value], [f"{flag}={value}"]):
            code = main([command, *required_flags(command, flag), *form])
            stdout = capsys.readouterr().out
            reports.append((code, out.read_text() if flag == "--out"
                            else stdout))
        assert reports[0] == reports[1]
        code, report = reports[0]
        assert code == EXIT_PASS
        config = json.loads(report.splitlines()[0])["config"]
        if flag != "--out":
            assert str(config[flag[2:]]) == value

    @pytest.mark.parametrize("argv", usage_errors(),
                             ids=lambda argv: " ".join(argv) or "empty")
    def test_errors_exit_2_with_one_error_line(self, capsys, tmp_path,
                                               argv):
        out = tmp_path / "r.jsonl"
        if argv and argv[0] != "nonsense":
            argv = [argv[0], "--out", str(out), *argv[1:]]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_top_level_help_names_every_command(self, capsys, flag):
        assert main([flag]) == EXIT_PASS
        words = capsys.readouterr().out.split()
        assert all(name in words for name, _, _, _ in cli.SUBCOMMANDS)
        assert "--version" in words

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", [row[0] for row in cli.SUBCOMMANDS])
    @pytest.mark.parametrize("first", [True, False],
                             ids=["alone", "after-flags"])
    def test_command_help_names_every_flag(self, capsys, tmp_path, flag,
                                           command, first):
        out = tmp_path / "r.jsonl"
        argv = [command, flag] if first else \
            [command, "--out", str(out), *required_flags(command), flag]
        assert main(argv) == EXIT_PASS
        captured = capsys.readouterr()
        assert captured.err == ""
        assert not [line for line in captured.out.splitlines()
                    if line.startswith("{")]
        words = captured.out.split()
        assert all(f in words for f in flags_of(command))
        assert not out.exists()

    def test_version(self, capsys):
        assert main(["--version"]) == EXIT_PASS
        assert capsys.readouterr().out == __version__ + "\n"

    def test_argv_defaults_to_the_process_arguments(self, capsys,
                                                    monkeypatch):
        # the console script calls main() with no arguments
        monkeypatch.setattr(sys, "argv", ["qtoda", "enumerate", "--n", "2",
                                          "--degree", "1"])
        assert main() == EXIT_PASS
        lines = capsys.readouterr().out.splitlines()
        assert parsed(lines)[0]["config"] == {
            "command": "enumerate", "n": 2, "degree": "1"}

    def test_flags_are_not_abbreviated(self, capsys):
        assert main(["verify", "--n", "2", "--box", "0",
                     "--su", "toda"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: verify has no flag --su\n"

    def test_a_toda_run_imports_no_parser_introspection_or_rationals(self):
        # with -S no site module is imported, so sys.modules holds what
        # the interpreter and qtoda import.  A toda run loads no argument
        # parser (argparse, gettext, locale), no dataclasses (inspect, ast,
        # dis), no exact rationals (fractions, decimal) and no random; the
        # summation suite then imports random itself and still passes
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        unwanted = {"argparse", "gettext", "locale", "dataclasses",
                    "inspect", "ast", "dis", "fractions", "decimal",
                    "random"}
        script = "\n".join([
            "import io, json, sys",
            f"sys.path.insert(0, {src!r})",
            "from qtoda.cli import main",
            "out, sys.stdout = sys.stdout, io.StringIO()",
            "codes = [main(['verify', '--n', '2', '--box', '0',"
            " '--suite', 'toda'])]",
            "loaded = sorted(set(sys.modules).intersection(",
            f"    {sorted(unwanted)!r}))",
            "codes.append(main(['verify', '--n', '4', '--box', '0',"
            " '--suite', 'summation']))",
            "sys.stdout = out",
            "print(json.dumps([codes, loaded]))"])
        result = subprocess.run([sys.executable, "-S", "-c", script],
                                capture_output=True, text=True, check=True)
        assert json.loads(result.stdout) == [[EXIT_PASS, EXIT_PASS], []]


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_command_lines():
    """The `qtoda ...` lines of the fenced block under README's "Command
    line" heading, as argument lists without the program name."""
    with open(README) as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith("qtoda ")]


class TestReadmeExamples:
    def test_block_is_found(self):
        assert len(readme_command_lines()) == 6

    @pytest.mark.parametrize("argv", readme_command_lines(),
                             ids=lambda argv: " ".join(argv))
    def test_runs_to_a_complete_passing_report(self, capsys, argv):
        code, lines = run(capsys, *argv)
        assert code == EXIT_PASS
        summary = json.loads(lines[-1])
        assert summary["summary"] is True and summary["complete"] is True
