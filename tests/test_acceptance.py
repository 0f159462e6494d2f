"""Acceptance gate: the eleven top-level criteria, one pass/fail line each.

Each test computes its verdict, prints a single line
``[criterion N] PASS|FAIL: description`` and then asserts, so the verdict
line is emitted even on failure (run with -s to see all lines live).
"""

import itertools
import random
import time

from qtoda.characters import (
    char_dimension,
    corr_tangent_char,
    corr_tangent_char_oracle,
    tangent_char,
    tangent_char_oracle,
)
from qtoda.cli import EXIT_PASS, main
from qtoda.fixed_points import (
    FixedPoint,
    all_degrees,
    enumerate_points,
    kostant_count,
    raise_moves,
)
from qtoda.operators import (
    ModuleContext,
    Truncation,
    apply_op,
    basis_vector,
    diagonality_check,
    summation_identity_sides,
    summation_identity_sides_generic,
    op_E,
    op_F,
    verify_summation_identity,
    verify_relations,
)
from qtoda.symbolic import RatFunc, eq_exact
from qtoda.toda import verify_toda
from qtoda.whittaker import (
    dual_eigen_check,
    line_pushforward_sides,
    lowering_eigen_check,
    partial_fraction_identity,
    shapovalov_pair,
    whittaker_pair_closed,
    whittaker_pair_localized,
)


def report(num, ok, description):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {verdict}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def degrees_upto(n, total):
    for d in itertools.product(range(total + 1), repeat=n - 1):
        if sum(d) <= total:
            yield d


def test_criterion_01_fixed_point_counts():
    t0 = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        for d in degrees_upto(n, 6):
            if len(enumerate_points(n, d)) != kostant_count(n, d):
                ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10
    report(1, ok, "fixed-point count equals root-combination count, "
                  f"n in 2..4, |d| <= 6 ({elapsed:.1f}s)")


def test_criterion_02_tangent_characters():
    t0 = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        ctx = ModuleContext(n)
        ring = ctx.ring
        for d in degrees_upto(n, 4):
            for p in enumerate_points(n, d):
                chi = tangent_char(ring, p)
                if chi != tangent_char_oracle(ring, p):
                    ok = False
                if char_dimension(chi) != 2 * sum(d):
                    ok = False
                for i in range(1, n):
                    for _, j in raise_moves(p, i):
                        cc = corr_tangent_char(ring, p, i, j)
                        if cc != corr_tangent_char_oracle(ring, p, i, j):
                            ok = False
                        if char_dimension(cc) != 2 * sum(d) + 1:
                            ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    report(2, ok, "closed tangent/correspondence characters match the chain "
                  f"oracle with correct dimensions, n <= 4, |d| <= 4 "
                  f"({elapsed:.1f}s)")


def test_criterion_03_two_path_entries():
    t0 = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        ctx = ModuleContext(n)
        for d in degrees_upto(n, 4):
            for i in range(1, n):
                pairs = [(op_E(ctx, i, "closed"), op_E(ctx, i, "geometric")),
                         (op_F(ctx, i, "closed"), op_F(ctx, i, "geometric"))]
                for p in enumerate_points(n, d):
                    for closed, geom in pairs:
                        a = dict((q.rows, c) for q, c in closed.terms(p))
                        b = dict((q.rows, c) for q, c in geom.terms(p))
                        if a.keys() != b.keys():
                            ok = False
                            continue
                        for key in a:
                            if not eq_exact(a[key], b[key]):
                                ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    report(3, ok, "closed operator entries equal localization-ratio entries, "
                  f"same ranges ({elapsed:.1f}s)")


def test_criterion_04_relation_suite():
    t0 = time.monotonic()
    ok = True
    for n, box in ((2, 4), (3, 3), (4, 2)):
        records = verify_relations(ModuleContext(n), Truncation(n, box))
        if any(r["status"] == "fail" for r in records):
            ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600
    report(4, ok, "full defining-relation suite (plain and twisted "
                  f"generators) over (2,4),(3,3),(4,2) ({elapsed:.1f}s)")


def test_criterion_05_commutator_diagonality():
    ok = True
    for n, box in ((2, 4), (3, 3), (4, 2)):
        ctx = ModuleContext(n)
        tr = Truncation(n, box)
        for i in range(1, n):
            records = list(diagonality_check(ctx, i, tr))
            if any(r["status"] == "fail" for r in records):
                ok = False
            if not any(r["status"] == "pass" for r in records):
                ok = False
    report(5, ok, "off-diagonal entries of the raising/lowering commutator "
                  "vanish over the same ranges")


def test_criterion_06_summation_identity():
    ok = True
    # exact for i <= 2 in both variable systems
    for n, i, rows in ((2, 1, [[], [3], [1, 0]]),
                       (3, 1, [[], [2], [2, 1]]),
                       (3, 2, [[4], [3, 1], [2, 1, 0]]),
                       (4, 2, [[3], [2, 2], [1, 0, 1]])):
        lo, ro = summation_identity_sides(n, i, rows)
        ls, rs = summation_identity_sides_generic(i)
        if not (eq_exact(lo, ro) and eq_exact(ls, rs)):
            ok = False
    # exact in both variable systems for i = 3, 4 with random admissible rows
    rng = random.Random(23)
    for i in (3, 4):
        low = [rng.randint(0, 3) for _ in range(i + 1)]
        mid = [low[j] + rng.randint(0, 3) for j in range(i)]
        upper = [mid[j] + rng.randint(0, 3) for j in range(i - 1)]
        if not verify_summation_identity(i + 1, i, [upper, mid, low]):
            ok = False
    # exact spot-check on one randomized instance
    lo, ro = summation_identity_sides(4, 3, [[3, 2], [2, 1, 1], [1, 1, 0, 0]])
    if not eq_exact(lo, ro):
        ok = False
    report(6, ok, "diagonal-commutator summation identity: exact through "
                  "i=4 in both variable systems, plus an exact torus-variable "
                  "spot-check at i=3")


def test_criterion_07_pairing_suite():
    ok = True
    for n in (2, 3):
        ctx = ModuleContext(n)
        z = basis_vector(ctx, FixedPoint.zero(n))
        if not eq_exact(shapovalov_pair(ctx, z, z), RatFunc.one(ctx.ring)):
            ok = False
        box = 3
        tr = Truncation(n, box + 1)
        for i in range(1, n):
            E, F = op_E(ctx, i), op_F(ctx, i)
            for d in all_degrees(n, box):
                target = tuple(x + (1 if k == i else 0)
                               for k, x in enumerate(d, 1))
                ps = [basis_vector(ctx, p) for p in ctx.points(d)]
                qs = [basis_vector(ctx, q) for q in ctx.points(target)]
                eps = [apply_op(E, p, tr) for p in ps]
                fqs = [apply_op(F, q, tr) for q in qs]
                for p, ep in zip(ps, eps):
                    for q, fq in zip(qs, fqs):
                        if not eq_exact(shapovalov_pair(ctx, ep, q),
                                        shapovalov_pair(ctx, p, fq)):
                            ok = False
    report(7, ok, "pairing normalization at the lowest vector and "
                  "raising/lowering adjointness for all basis pairs, "
                  "n <= 3, box 3")


def test_criterion_08_whittaker_suite():
    ok = True
    for n, box in ((2, 3), (3, 2)):
        ctx = ModuleContext(n)
        for i in range(1, n):
            for d in all_degrees(n, box):
                if not lowering_eigen_check(ctx, i, d):
                    ok = False
                if not dual_eigen_check(ctx, i, d):
                    ok = False
        # the pushforward identity behind the eigen-property, on real rows
        for i in range(1, n):
            for d in all_degrees(n, min(box, 2)):
                for p in ctx.points(d):
                    upper = p.rows[i - 2] if i >= 2 else ()
                    lhs, rhs = line_pushforward_sides(n, i, upper,
                                                      p.rows[i - 1])
                    if not eq_exact(lhs, rhs):
                        ok = False
    for i in (1, 2, 3, 4):
        if not partial_fraction_identity(i):
            ok = False
    report(8, ok, "Whittaker eigen-properties at every in-box degree, the "
                  "line-pushforward identity, and the partial-fraction "
                  "identity through i=4")


def test_criterion_09_whittaker_pairing_two_path():
    ok = True
    for n in (2, 3):
        ctx = ModuleContext(n)
        for d in degrees_upto(n, 3):
            if not eq_exact(whittaker_pair_closed(ctx, d),
                            whittaker_pair_localized(ctx, d)):
                ok = False
    report(9, ok, "closed Whittaker-pairing product equals the direct "
                  "localized pairing, n <= 3, |d| <= 3")


def test_criterion_10_toda_eigen_equations():
    t0 = time.monotonic()
    ok = True
    for n, box in ((2, 4), (3, 2)):
        records = verify_toda(ModuleContext(n), box)
        if not records or any(r["status"] != "pass" for r in records):
            ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300
    report(10, ok, "difference-Toda eigen-equations for both series over "
                   f"(2,4) and (3,2), calibrated sign convention "
                   f"({elapsed:.1f}s)")


def test_criterion_11_determinism(tmp_path):
    paths = [tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"]
    ok = True
    for p in paths:
        if main(["verify", "--n", "2", "--box", "3", "--seed", "4",
                 "--out", str(p)]) != EXIT_PASS:
            ok = False
    ok = ok and paths[0].read_bytes() == paths[1].read_bytes()
    report(11, ok, "full verification suite run twice with one seed emits "
                   "byte-identical reports")
