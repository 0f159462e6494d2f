"""Benchmark of `qtoda verify`: end-to-end timings and, traced, per-layer work.

Usage, from the root of a checkout:

    python3 qbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every qtoda call runs in a fresh child process (qbench/child.py), one at a
time, on the package under src/.  With --trace 0 this script repeats the
workload's `verify` call until the next call would end after S seconds (at
least MIN_CALLS calls), with a few short probe launches for set-up and
first-verdict samples, and reports medians, times in multiples of a fixed
reference workload timed in the same children.  With --trace 1 it makes one
untraced call and two traced ones, and reports the per-layer spans and work
counters of qbench/tracing.py.

Every call must pass the correctness gate: exit code 0, a complete summary,
no fail or error record, the workload's expected status counts, and a record
stream identical to the other calls of the run.  A call that fails the gate
is never timed as a success, and its checks count as failed.

The last line of stdout is one JSON object with the keys "correct",
"attempted", "failed" and "metrics"; the line before it records the run
environment.  A full report goes to .qbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import tracing  # beside this script, so on sys.path already

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Why each workload is here: see BENCHMARK.json.  "expect" holds the status
# counts of every correct run; they do not depend on the seed.  The summation
# suite is left out: its seed picks the rows it checks, which changes its
# work by up to 70% from one seed to the next.
WORKLOADS: Dict[str, dict] = {
    "relations-n4b2": {
        "argv": ["verify", "--n", "4", "--box", "2", "--suite", "relations"],
        "expect": {"pass": 1689, "skipped-out-of-box": 579},
    },
    "toda-n4b2": {
        "argv": ["verify", "--n", "4", "--box", "2", "--suite", "toda"],
        "expect": {"pass": 55},
    },
    "whittaker-n4b2": {
        "argv": ["verify", "--n", "4", "--box", "2", "--suite", "whittaker"],
        "expect": {"pass": 497},
    },
}

END_TO_END = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "checks_per_ref": "1/ref",
    "first_verdict_ref": "ref",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "correct_share": "ratio",
}

MIN_CALLS = 3
PROBE_EVERY_S = 2.0
PROBE_LIMIT_S = 0.25
CALL_TIMEOUT_S = 150.0
RUNS_DIR = ".qbench_runs"


# -- statistics ----------------------------------------------------------------

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles
    gives them; a single value is all three."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- correctness gate ----------------------------------------------------------

def gate(call: dict, expect: Dict[str, int]) -> List[str]:
    """Reasons the call is not a correct run; empty when it passes."""
    if call.get("error"):
        return [call["error"].strip().splitlines()[-1]]
    problems = []
    if call["exit"] != 0:
        problems.append(f"exit code {call['exit']}")
    try:
        records = [json.loads(line) for line in call["stream"].splitlines()]
    except ValueError:
        return problems + ["record stream is not JSON lines"]
    summary = records[-1] if records else {}
    if not (summary.get("summary") is True and summary.get("complete") is True):
        problems.append("no complete summary at the end of the stream")
    tally = Counter(r["status"] for r in records if "status" in r)
    if tally["fail"] or tally["error"]:
        problems.append(f"{tally['fail']} fail and {tally['error']} error records")
    if dict(tally) != expect:
        problems.append(f"status counts {dict(tally)}, expected {expect}")
    if summary.get("counts") != dict(tally):
        problems.append("summary counts disagree with the records")
    return problems


def gate_all(calls: List[dict], expect: Dict[str, int]) -> None:
    """Gate every call, and require one record stream across the calls."""
    reference = None
    for call in calls:
        call["problems"] = gate(call, expect)
        if call["problems"]:
            continue
        call["digest"] = hashlib.sha256(call["stream"].encode()).hexdigest()
        if reference is None:
            reference = call["digest"]
        elif call["digest"] != reference:
            call["problems"].append("record stream differs from the first call's")


# -- child processes -----------------------------------------------------------

def launch(argv: Optional[List[str]], probe: bool = False, trace: bool = False,
           spans_out: Optional[str] = None) -> dict:
    """Run one child; setup_s runs from launch until qtoda.cli is imported."""
    spec = {"src": os.path.join(ROOT, "src"), "argv": argv, "probe": probe,
            "trace": trace, "spans_out": spans_out}
    env = dict(os.environ, PYTHONPATH=spec["src"])
    env.pop("QTODA_TIME_BUDGET", None)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env) as proc:
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if ready != b"ready\n":
        return {"error": f"child exited with code {code} before qtoda was "
                         f"imported", "elapsed": elapsed}
    lines = rest.splitlines()
    if code != 0 or (argv is not None and not lines):
        return {"error": f"child exited with code {code}", "setup_s": setup_s,
                "elapsed": elapsed}
    result = json.loads(lines[-1]) if argv is not None else {}
    result.update(setup_s=setup_s, elapsed=elapsed)
    return result


def timed_run(workload: dict, argv: List[str], seconds: float) -> dict:
    launch(None)  # untimed: a fresh checkout compiles its bytecode here
    deadline = time.perf_counter() + seconds
    calls: List[dict] = []
    probes: List[dict] = []
    while True:
        calls.append(launch(argv))
        # Short probe launches after each call add set-up samples and,
        # where the first verdict comes early, first-verdict samples, which
        # a few milliseconds of noise would swamp.
        early = (calls[0].get("first_verdict_s") or PROBE_LIMIT_S) < PROBE_LIMIT_S
        for _ in range(1 + int(calls[-1]["elapsed"] / PROBE_EVERY_S)):
            probes.append(launch(argv if early else None, probe=early))
        typical = statistics.median(c["elapsed"] for c in calls)
        if len(calls) >= MIN_CALLS and time.perf_counter() + typical > deadline:
            break
    expect = workload["expect"]
    gate_all(calls, expect)
    good = [c for c in calls if not c["problems"]]
    timed = good or [c for c in calls if c.get("first_verdict_s") is not None]
    if not timed:
        raise RuntimeError("no call produced a result: "
                           + "; ".join(c["problems"][0] for c in calls))
    per_call = expect["pass"]  # verdict records of a correct call
    attempted = per_call * len(calls)
    failed = per_call * (len(calls) - len(good))
    samples = {
        "wall_s": [c["wall_s"] for c in timed],
        "cpu_s": [c["cpu_s"] for c in timed],
        "ref_s": [c["ref_s"] for c in timed],
        "first_verdict_s": [c["first_verdict_s"] for c in timed + probes
                            if c.get("first_verdict_s") is not None],
        "peak_rss_mib": [c["maxrss_kib"] / 1024 for c in timed],
        "setup_s": [c["setup_s"] for c in probes + calls if "setup_s" in c],
    }
    median = {k: statistics.median(v) for k, v in samples.items()}
    # Other tenants of the host change its speed by up to 30% from one
    # minute to the next.  Times in multiples of the reference work, timed
    # right after each call in the same child, cancel most of that drift;
    # the seconds go to the report.
    ref = median["ref_s"]
    metrics = {
        "wall_ref": median["wall_s"] / ref,
        "cpu_ref": median["cpu_s"] / ref,
        "checks_per_ref": per_call * ref / median["wall_s"],
        "first_verdict_ref": median["first_verdict_s"] / ref,
        "peak_rss_mib": median["peak_rss_mib"],
        "setup_s": median["setup_s"],
        "correct_share": 1 - failed / attempted,
    }
    return {
        "correct": len(good) == len(calls),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "quartiles": {k: quartiles(v) for k, v in samples.items()},
        "calls": calls,
    }


def traced_run(workload: dict, argv: List[str], label: str) -> dict:
    launch(None)  # untimed: a fresh checkout compiles its bytecode here
    os.makedirs(os.path.join(ROOT, RUNS_DIR), exist_ok=True)
    plain = launch(argv)
    traced = [launch(argv, trace=True, spans_out=os.path.join(
        ROOT, RUNS_DIR, f"{label}-spans{k}.tsv.gz")) for k in (1, 2)]
    calls = [plain] + traced
    gate_all(calls, workload["expect"])
    layered = [c for c in traced if "layers" in c]
    if not layered or "wall_s" not in plain:
        raise RuntimeError("no traced call produced a result: "
                           + "; ".join(p for c in calls for p in c["problems"]))
    units = tracing.metric_units()
    # work counters should repeat exactly, so they come from the first call
    metrics = {name: statistics.median(c["layers"][name] for c in layered)
               if units[name] == "s" else layered[0]["layers"][name]
               for name in layered[0]["layers"]}
    drift = [name for name in metrics if units[name] != "s"
             and len({c["layers"][name] for c in layered}) > 1]
    metrics["trace.overhead_ratio"] = (
        statistics.median(c["wall_s"] for c in layered) / plain["wall_s"])
    metrics["trace.counter_drift"] = len(drift)
    metrics["trace.spans"] = statistics.median(c["spans"] for c in layered)
    per_call = workload["expect"]["pass"]
    failed = per_call * sum(1 for c in calls if c["problems"])
    return {
        "correct": failed == 0,
        "attempted": per_call * len(calls),
        "failed": failed,
        "metrics": metrics,
        "drifting_counters": drift,
        "missing_targets": layered[0]["missing"],
        "calls": calls,
    }


# -- environment -----------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(args: argparse.Namespace, samples: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


# -- entry point -------------------------------------------------------------------

def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qtoda", "cli.py")):
        print(f"error: no qtoda sources under {ROOT}/src", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    call_argv = workload["argv"] + ["--seed", str(args.seed)]
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            run = traced_run(workload, call_argv, label)
            units = tracing.metric_units()
        else:
            run = timed_run(workload, call_argv, args.seconds)
            units = END_TO_END
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = environment(args, len(run["calls"]))
    for call in run["calls"]:
        for problem in call["problems"]:
            print(f"gate: {problem}", file=sys.stderr)
        call.pop("stream", None)
    if run.get("drifting_counters"):
        print("drift: counters differ between two traced calls: "
              + ", ".join(run["drifting_counters"]), file=sys.stderr)
    os.makedirs(os.path.join(ROOT, RUNS_DIR), exist_ok=True)
    with open(os.path.join(ROOT, RUNS_DIR, label + ".json"), "w") as fh:
        json.dump({"env": env, **run}, fh, indent=1, sort_keys=True)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
