"""One qtoda call in a fresh process, launched by run.py.

Usage: python3 child.py SPEC

SPEC is a JSON object: "src" (the directory holding the qtoda package),
"argv" (the arguments for qtoda.cli.main, or null to stop once the import is
done), "probe" (stop the call at its first verdict record), "trace" (wrap the
layers with tracing.Tracer) and "spans_out" (where a traced call writes its
spans, or null).

The process writes "ready" to stdout as soon as qtoda.cli is imported, then
runs the call with stdout captured, times reference_work, and writes one JSON
line: wall and CPU seconds, the reference seconds, seconds to the first
record with a status, peak RSS, the exit code, the record stream and, when
traced, the per-layer numbers.  A probe reports only the seconds to the
first verdict.
"""

from __future__ import annotations

import gc
import io
import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction


def reference_work() -> Fraction:
    """Fixed work that times the host rather than qtoda.

    It repeats the two loops that dominate qtoda's time, a sparse product of
    dict polynomials with tuple exponents and an exact Fraction evaluation,
    on fixed data.  The *_ref metrics are multiples of its duration, so
    changing it changes their unit.
    """
    rng = random.Random(7)

    def poly(size):
        return {tuple(rng.randint(-3, 3) for _ in range(5)): rng.randint(1, 9)
                for _ in range(size)}

    a, b = poly(150), poly(150)
    for _ in range(8):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
    point = [Fraction(rng.randint(2, 1 << 20)) for _ in range(5)]
    total = Fraction(0)
    for e, c in list(out.items())[:300]:
        term = Fraction(c)
        for value, k in zip(point, e):
            if k:
                term *= value ** k
        total += term
    return total


def time_reference() -> float:
    """Seconds of reference_work, without the collector's pauses, which
    depend on what the call before it left on the heap."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class FirstVerdict(BaseException):
    """Ends a probe; not an Exception, so no handler in qtoda catches it."""


class Capture(io.TextIOBase):
    """Text sink that notes when the first verdict record is written."""

    def __init__(self, probe: bool) -> None:
        self.parts = []
        self.first_verdict = None
        self.probe = probe

    def write(self, text: str) -> int:
        # Reporter.emit writes a whole record per call, keys sorted
        if self.first_verdict is None and '"status": ' in text:
            self.first_verdict = time.perf_counter()
            if self.probe:
                raise FirstVerdict()
        self.parts.append(text)
        return len(text)


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import qtoda.cli

    if not os.path.abspath(qtoda.cli.__file__).startswith(src + os.sep):
        print(f"qtoda was imported from {qtoda.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    if spec["argv"] is None:
        return 0

    tracer = missing = None
    if spec["trace"]:
        import tracing  # beside this script, so on sys.path already

        tracer = tracing.Tracer()
        missing = tracing.install(tracer)

    capture = Capture(spec["probe"])
    error = None
    sys.stdout = capture
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        code = qtoda.cli.main(spec["argv"])
    except FirstVerdict:
        code = None
    except Exception:
        code, error = None, traceback.format_exc()
    finally:
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        sys.stdout = out
    first_verdict_s = (capture.first_verdict - t0
                       if capture.first_verdict is not None else None)
    if spec["probe"]:
        out.write(json.dumps({"first_verdict_s": first_verdict_s}) + "\n")
        return 0
    result = {
        "exit": code,
        "error": error,
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "first_verdict_s": first_verdict_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stream": "".join(capture.parts),
    }
    # after the peak RSS reading, which the reference work would raise
    result["ref_s"] = time_reference()
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        result["missing"] = missing
        if spec["spans_out"]:
            tracer.write_spans(spec["spans_out"])
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
