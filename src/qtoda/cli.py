"""Batch command-line front end.

Subcommands expose enumeration, character comparison, the verification
suites, the Whittaker data, and the difference-Toda eigen checks.  Output
is JSON-lines: one record per check, then a trailing summary object.
Identical configuration and seed produce byte-identical output.

Exit codes: 0 all pass; 1 at least one failing check; 2 usage error;
3 time budget exceeded (set via the QTODA_TIME_BUDGET env var, seconds).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, TextIO

from . import __version__
from .characters import (
    char_dimension,
    corr_tangent_char,
    corr_tangent_char_oracle,
    tangent_char,
    tangent_char_oracle,
)
from .fixed_points import (
    FixedPoint,
    all_degrees,
    enumerate_points,
    kostant_count,
    raise_moves,
)
from .operators import (
    ModuleContext,
    ModuleVector,
    Truncation,
    apply_op,
    basis_vector,
    diagonality_check,
    op_E,
    op_F,
    verify_summation_identity,
    verify_relations,
)
from .symbolic import RatFunc, UsageError, eq_exact
from .toda import (
    apply_difference_op,
    apply_sum_op,
    check_eigen,
    coefficient_sum_series,
    eigen_records,
    sign_calibration,
    whittaker_pair_series,
)
from .whittaker import (
    dual_eigen_check,
    line_pushforward_sides,
    lowering_eigen_check,
    partial_fraction_identity,
    rgamma_char,
    shapovalov_pair,
    whittaker_k,
    whittaker_pair_closed,
    whittaker_pair_localized,
    whittaker_w,
)

# Everything imported so far lives as long as the process; keep the cyclic
# collector from rescanning it on every older-generation pass.
gc.freeze()

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

BUDGET_ENV = "QTODA_TIME_BUDGET"


class BudgetExceeded(Exception):
    pass


class Reporter:
    """Collects records, enforces the time budget, writes JSON lines."""

    def __init__(self, stream: TextIO, budget: Optional[float]):
        self.stream = stream
        self.deadline = time.monotonic() + budget if budget else None
        self.counts: Dict[str, int] = {}
        self.records_written = 0

    def emit(self, record: dict) -> None:
        status = record.get("status")
        if status:
            self.counts[status] = self.counts.get(status, 0) + 1
        self.stream.write(json.dumps(record, sort_keys=True) + "\n")
        self.records_written += 1

    def checkpoint(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded()

    def summary(self, complete: bool) -> dict:
        return {
            "summary": True,
            "complete": complete,
            "counts": dict(sorted(self.counts.items())),
            "records": self.records_written,
        }

    def exit_code(self, complete: bool) -> int:
        if not complete:
            return EXIT_BUDGET
        return EXIT_FAIL if self.counts.get("fail") else EXIT_PASS


def _parse_degree(text: str, n: int) -> tuple:
    try:
        degree = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse degree vector {text!r}")
    if len(degree) != n - 1:
        raise UsageError(f"degree vector must have {n - 1} components")
    return degree


def _vector_json(x: ModuleVector) -> dict:
    entries = []
    for p in sorted(x.coeffs, key=lambda q: q.rows):
        entries.append({"point": [list(r) for r in p.rows],
                        "value": x.coeffs[p].to_json()})
    return {"degree": list(x.degree), "coeffs": entries}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_enumerate(args, rep: Reporter) -> None:
    degree = _parse_degree(args.degree, args.n)
    points = enumerate_points(args.n, degree)
    for p in points:
        rep.emit({"point": [list(r) for r in p.rows]})
    expected = kostant_count(args.n, degree)
    rep.emit({
        "check": "count-matches-root-combinations",
        "count": len(points),
        "expected": expected,
        "status": "pass" if len(points) == expected else "fail",
    })


def cmd_characters(args, rep: Reporter) -> None:
    degree = _parse_degree(args.degree, args.n)
    ctx = ModuleContext(args.n)
    ring = ctx.ring
    for p in enumerate_points(args.n, degree):
        rep.checkpoint()
        chi = tangent_char(ring, p)
        ok = chi == tangent_char_oracle(ring, p)
        dim_ok = char_dimension(chi) == 2 * sum(degree)
        rep.emit({
            "check": "tangent-character-oracle-equivalence",
            "point": [list(r) for r in p.rows],
            "dimension": char_dimension(chi),
            "status": "pass" if ok and dim_ok else "fail",
        })
        for i in range(1, args.n):
            for _, j in raise_moves(p, i):
                chi_c = corr_tangent_char(ring, p, i, j)
                ok = chi_c == corr_tangent_char_oracle(ring, p, i, j)
                dim_ok = char_dimension(chi_c) == 2 * sum(degree) + 1
                rep.emit({
                    "check": "correspondence-character-oracle-equivalence",
                    "point": [list(r) for r in p.rows],
                    "i": i,
                    "j": j,
                    "status": "pass" if ok and dim_ok else "fail",
                })


def cmd_whittaker(args, rep: Reporter) -> None:
    degree = _parse_degree(args.degree, args.n)
    ctx = ModuleContext(args.n)
    k = whittaker_k(ctx, degree)
    w = whittaker_w(ctx, degree)
    pairing = whittaker_pair_localized(ctx, degree)
    rep.emit({"vector": "structure-sheaf", **_vector_json(k)})
    rep.emit({"vector": "dual", **_vector_json(w)})
    rep.emit({"pairing": pairing.to_json(),
              "rgamma": rgamma_char(ctx, k).to_json()})
    ok = eq_exact(pairing, whittaker_pair_closed(ctx, degree))
    rep.emit({"check": "whittaker-pairing-two-path",
              "degree": list(degree),
              "status": "pass" if ok else "fail"})
    for i in range(1, args.n):
        if degree[i - 1] == 0:
            continue
        lower = tuple(d - (1 if kk == i else 0)
                      for kk, d in enumerate(degree, 1))
        rep.emit({"check": "structure-sheaf-vector-eigen", "i": i,
                  "degree": list(lower),
                  "status": "pass" if lowering_eigen_check(ctx, i, lower)
                  else "fail"})
        rep.emit({"check": "dual-vector-eigen", "i": i,
                  "degree": list(lower),
                  "status": "pass" if dual_eigen_check(ctx, i, lower)
                  else "fail"})


def cmd_toda(args, rep: Reporter) -> None:
    ctx = ModuleContext(args.n)
    builders = {"I": whittaker_pair_series, "J": coefficient_sum_series}
    operators = {"S": apply_sum_op, "G": apply_difference_op}
    pairs = [(args.series or "I", args.operator or "S")] \
        if (args.series or args.operator) else [("I", "S"), ("J", "G")]
    for series_name, op_name in pairs:
        rep.checkpoint()
        s = builders[series_name](ctx, args.box)
        applied = operators[op_name](ctx.ring, s)
        for r in check_eigen(ctx.ring, s, applied):
            rep.emit({"check": f"eigen-{series_name}-{op_name}", **r})
        for d in sorted(s.coeffs):
            rep.emit({"series": series_name, "degree": list(d),
                      "value": s.coeffs[d].to_json()})


# -- verification suites -----------------------------------------------------

def _suite_relations(args, rep: Reporter, ctx: ModuleContext) -> None:
    tr = Truncation(args.n, args.box)
    for r in verify_relations(ctx, tr):
        rep.emit(r)
        rep.checkpoint()
    for i in range(1, args.n):
        for r in diagonality_check(ctx, i, tr):
            rep.emit(r)
            rep.checkpoint()


def _random_admissible_rows(i: int, rng: random.Random) -> List[List[int]]:
    low = [rng.randint(0, 3) for _ in range(i + 1)]
    mid = [low[j] + rng.randint(0, 3) for j in range(i)]
    upper = [mid[j] + rng.randint(0, 3) for j in range(i - 1)]
    return [upper, mid, low]


def _suite_summation(args, rep: Reporter, ctx: ModuleContext) -> None:
    rng = random.Random(args.seed)
    targets = [args.i] if args.i else list(range(1, min(args.n, 5)))
    for i in targets:
        if not 1 <= i <= args.n - 1:
            raise UsageError(f"row index {i} out of range for n={args.n}")
        rows = _random_admissible_rows(i, rng)
        ok = verify_summation_identity(args.n, i, rows)
        rep.emit({"check": "commutator-summation-identity", "i": i,
                  "rows": rows, "status": "pass" if ok else "fail"})
        rep.checkpoint()


def _suite_whittaker(args, rep: Reporter, ctx: ModuleContext) -> None:
    n, box = args.n, args.box
    z = basis_vector(ctx, FixedPoint.zero(n))
    ok = eq_exact(shapovalov_pair(ctx, z, z), RatFunc.one(ctx.ring))
    rep.emit({"check": "pairing-normalization",
              "status": "pass" if ok else "fail"})
    tr = Truncation(n, box + 1)
    for i in range(1, n):
        E, F = op_E(ctx, i), op_F(ctx, i)
        for d in all_degrees(n, box):
            target = tuple(x + (1 if kk == i else 0)
                           for kk, x in enumerate(d, 1))
            ps = [basis_vector(ctx, p) for p in ctx.points(d)]
            qs = [basis_vector(ctx, q) for q in ctx.points(target)]
            eps = [apply_op(E, p, tr) for p in ps]
            fqs = [apply_op(F, q, tr) for q in qs]
            ok = True
            for p, ep in zip(ps, eps):
                for q, fq in zip(qs, fqs):
                    if not eq_exact(shapovalov_pair(ctx, ep, q),
                                    shapovalov_pair(ctx, p, fq)):
                        ok = False
            rep.emit({"check": "raising-lowering-adjoint", "i": i,
                      "degree": list(d), "status": "pass" if ok else "fail"})
            rep.checkpoint()
    for i in range(1, n):
        for d in all_degrees(n, box):
            rep.emit({"check": "structure-sheaf-vector-eigen", "i": i,
                      "degree": list(d),
                      "status": "pass" if lowering_eigen_check(ctx, i, d)
                      else "fail"})
            rep.emit({"check": "dual-vector-eigen", "i": i,
                      "degree": list(d),
                      "status": "pass" if dual_eigen_check(ctx, i, d)
                      else "fail"})
            rep.checkpoint()
    # the pushforward identity behind the dual eigen-property, on real rows
    for i in range(1, n):
        for d in all_degrees(n, min(box, 2)):
            for p in ctx.points(d):
                upper = p.rows[i - 2] if i >= 2 else ()
                mid = p.rows[i - 1]
                lhs, rhs = line_pushforward_sides(n, i, upper, mid)
                rep.emit({"check": "line-pushforward-identity", "i": i,
                          "point": [list(r) for r in p.rows],
                          "status": "pass" if eq_exact(lhs, rhs) else "fail"})
            rep.checkpoint()
    for i in range(1, 5):
        rep.emit({"check": "partial-fraction-identity", "i": i,
                  "status": "pass" if partial_fraction_identity(i)
                  else "fail"})
    for d in all_degrees(n, box):
        ok = eq_exact(whittaker_pair_closed(ctx, d),
                      whittaker_pair_localized(ctx, d))
        rep.emit({"check": "whittaker-pairing-two-path", "degree": list(d),
                  "status": "pass" if ok else "fail"})
        rep.checkpoint()


def _suite_toda(args, rep: Reporter, ctx: ModuleContext) -> None:
    ring = ctx.ring
    pair = whittaker_pair_series(ctx, args.box)
    sheaf = coefficient_sum_series(ctx, args.box)
    records = eigen_records(ring, pair, sheaf)
    for r in records:
        rep.emit(r)
    rep.checkpoint()
    if args.box == 0:
        # at degree 0 both signs pass, so the opposite sign cannot fail
        status = "skipped-out-of-box"
    else:
        cal = sign_calibration(ring, pair, sheaf, records, min(args.box, 2))
        status = "pass" if cal[-1] and not cal[1] else "fail"
    rep.emit({"check": "shift-sign-calibration",
              "working_sign": -1,
              "status": status})


SUITES = {
    "relations": _suite_relations,
    "summation": _suite_summation,
    "whittaker": _suite_whittaker,
    "toda": _suite_toda,
}


def cmd_verify(args, rep: Reporter) -> None:
    ctx = ModuleContext(args.n)
    if args.suite == "full":
        names: Iterable[str] = SUITES
    else:
        if args.suite not in SUITES:
            raise UsageError(f"unknown suite {args.suite!r}")
        names = [args.suite]
    for name in names:
        SUITES[name](args, rep, ctx)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtoda",
        description="Exact verification engine for the fixed-point module, "
                    "its operator relations, and the difference-Toda "
                    "eigen-equations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degree=False, box=False):
        p.add_argument("--n", type=int, required=True,
                       help="rank parameter (>= 2)")
        p.add_argument("--seed", type=int, default=0,
                       help="picks the summation suite's random rows")
        p.add_argument("--out", help="write the report to this path")
        if degree:
            p.add_argument("--degree", required=True,
                           help="comma-separated degree vector")
        if box:
            p.add_argument("--box", type=int, required=True,
                           help="componentwise degree cap")

    p = sub.add_parser("enumerate", help="list fixed points and cross-check "
                                         "the count")
    common(p, degree=True)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("characters", help="compare closed-form characters "
                                          "against the chain oracle")
    common(p, degree=True)
    p.set_defaults(fn=cmd_characters)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p, box=True)
    p.add_argument("--suite", default="full",
                   choices=("full",) + tuple(SUITES))
    p.add_argument("--i", type=int, help="restrict the summation-identity "
                                         "suite to one row index")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("whittaker", help="emit Whittaker data at one degree")
    common(p, degree=True)
    p.set_defaults(fn=cmd_whittaker)

    p = sub.add_parser("toda", help="difference-Toda eigen checks")
    common(p, box=True)
    p.add_argument("--series", choices=("I", "J"))
    p.add_argument("--operator", choices=("S", "G"))
    p.set_defaults(fn=cmd_toda)

    return parser


def _budget() -> Optional[float]:
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise UsageError(f"{BUDGET_ENV} must be a number of seconds")
    return value if value > 0 else None


def _config_echo(args) -> dict:
    keys = ("command", "n", "degree", "box", "seed", "suite", "i", "series",
            "operator")
    cfg = {k: getattr(args, k) for k in keys
           if getattr(args, k, None) is not None}
    return {"version": __version__, "config": cfg}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    stream = sys.stdout
    close = False
    try:
        budget = _budget()
        if args.n < 2:
            raise UsageError("rank parameter must be at least 2")
        if getattr(args, "box", None) is not None and args.box < 0:
            raise UsageError("box must be nonnegative")
        if args.out:
            stream = open(args.out, "w")
            close = True
        rep = Reporter(stream, budget)
        rep.emit(_config_echo(args))
        complete = True
        try:
            args.fn(args, rep)
        except BudgetExceeded:
            complete = False
        rep.emit(rep.summary(complete))
        return rep.exit_code(complete)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if close:
            stream.close()


if __name__ == "__main__":
    sys.exit(main())
