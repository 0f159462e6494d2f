"""Tests of the benchmark's own helpers.

Run from the root of the repository:  python3 -m pytest qbench/test_qbench.py
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402


def ticking_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_excludes_nested_spans():
    tracer = tracing.Tracer(ticking_clock([0.0, 1.0, 3.0, 4.0, 5.0, 10.0]))
    inner = tracer.wrap("inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    outer()
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.self_s["inner"] == pytest.approx(3.0)
    assert tracer.self_s["outer"] == pytest.approx(7.0)
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_self_time_of_recursive_spans_sums_to_outer_duration():
    tracer = tracing.Tracer(ticking_clock(range(100)))

    class Node:
        def down(self, k):
            return self.down(k - 1) if k else 0

    Node.down = tracer.wrap("down", Node.down)
    Node().down(2)
    # starts at 0, 1, 2 and ends at 3, 4, 5: durations 1, 3 and 5
    assert tracer.calls["down"] == 3
    assert tracer.self_s["down"] == pytest.approx(5.0)
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer(ticking_clock([0.0, 2.0, 5.0, 6.0]))

    def fail():
        raise ValueError("boom")

    inner = tracer.wrap("inner", fail)

    def outer_body():
        with pytest.raises(ValueError):
            inner()

    tracer.wrap("outer", outer_body)()
    assert tracer.self_s == {"inner": 3.0, "outer": 3.0}
    assert not tracer._open


def test_quartiles():
    assert run.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (1.5, 3.0, 4.5)
    assert run.quartiles([7.0]) == (7.0, 7.0, 7.0)
    with pytest.raises(ValueError):
        run.quartiles([])


EXPECT = {"pass": 2, "skipped-out-of-box": 1}


def stream(statuses):
    records = [{"config": {"n": 3}, "version": "0.1.0"}]
    records += [{"check": "c", "i": k, "status": s} for k, s in enumerate(statuses)]
    counts = {}
    for s in statuses:
        counts[s] = counts.get(s, 0) + 1
    records.append({"summary": True, "complete": True,
                    "counts": dict(sorted(counts.items())),
                    "records": len(records)})
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def call(statuses, exit_code=0):
    return {"exit": exit_code, "error": None,
            "stream": stream(statuses)}


def test_gate_accepts_a_correct_stream():
    assert run.gate(call(["pass", "skipped-out-of-box", "pass"]), EXPECT) == []


def test_gate_rejects_a_doctored_stream_with_a_fail_record():
    doctored = call(["pass", "skipped-out-of-box", "fail"], exit_code=1)
    problems = run.gate(doctored, EXPECT)
    assert "1 fail and 0 error records" in problems
    assert "exit code 1" in problems
    # the same fail record with a clean exit code is still rejected
    assert run.gate(call(["pass", "skipped-out-of-box", "fail"]), EXPECT)


def test_gate_rejects_incomplete_and_crashed_calls():
    cut = call(["pass", "skipped-out-of-box", "pass"])
    cut["stream"] = cut["stream"].replace('"complete": true', '"complete": false')
    assert run.gate(cut, EXPECT) == ["no complete summary at the end of the stream"]
    crashed = {"error": "Traceback ...\nValueError: boom\n"}
    assert run.gate(crashed, EXPECT) == ["ValueError: boom"]
    short = call(["pass", "skipped-out-of-box"])
    assert run.gate(short, EXPECT)


def test_gate_all_requires_one_stream_across_calls():
    calls = [call(["pass", "skipped-out-of-box", "pass"]) for _ in range(3)]
    calls[2]["stream"] = calls[2]["stream"].replace('"i": 0', '"i": 9')
    run.gate_all(calls, EXPECT)
    assert calls[0]["problems"] == calls[1]["problems"] == []
    assert calls[2]["problems"] == ["record stream differs from the first call's"]


def test_traced_calls_match_untraced_stream_and_repeat_counts(tmp_path):
    argv = ["verify", "--n", "3", "--box", "1", "--suite", "full", "--seed", "2"]
    plain = run.launch(argv)
    spans = str(tmp_path / "spans.tsv.gz")
    traced = run.launch(argv, trace=True, spans_out=spans)
    assert plain["exit"] == traced["exit"] == 0
    assert traced["stream"] == plain["stream"]
    assert traced["missing"] == []
    layers = traced["layers"]
    assert set(layers) | {n for n, _ in tracing.RUN_METRICS} \
        == set(tracing.metric_units())
    # the CLI imported these by name; the wrappers must still see the calls
    for name in ("cli.suite_relations", "operators.verify_relations",
                 "operators.diagonality_check", "cli.suite_toda",
                 "toda.check_eigen", "whittaker.whittaker_pair_localized",
                 "symbolic.poly_mul", "symbolic.rat_sum"):
        assert layers[name + ".calls"] > 0, name
    assert os.path.getsize(spans) > 0
    again = run.launch(argv, trace=True)["layers"]
    units = tracing.metric_units()
    assert {k: v for k, v in again.items() if units[k] != "s"} \
        == {k: v for k, v in layers.items() if units[k] != "s"}


def test_benchmark_json_names_what_run_reports():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == tracing.metric_units()
