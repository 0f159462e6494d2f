"""Acceptance gate: the eleven top-level criteria, one pass/fail line each.

Each test computes its verdict, prints a single line
``[criterion N] PASS|FAIL: description`` and then asserts, so the verdict
line is emitted even on failure (run with -s to see all lines live).
"""

import functools
import itertools
import random
import time

from qtoda.characters import character_records
from qtoda.cli import EXIT_PASS, main
from qtoda.fixed_points import enumerate_points, kostant_count
from qtoda.operators import (
    ModuleContext,
    _random_admissible_rows,
    op_E,
    op_F,
    relation_records,
    summation_identity_sides,
    summation_identity_sides_generic,
    verify_summation_identity,
)
from qtoda.symbolic import eq_exact
from qtoda.toda import toda_records
from qtoda.whittaker import whittaker_records


def report(num, ok, description):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {verdict}: {description}")
    assert ok, f"criterion {num} failed: {description}"


@functools.lru_cache(maxsize=None)
def suite_records(records, n, box):
    """The records a `verify` suite emits at (n, box), computed once for all
    the criteria that read them."""
    return tuple(records(ModuleContext(n), box))


def checks_pass(records, checks):
    """Every record of the named checks passes, and each check has one."""
    picked = [r for r in records if r["check"] in checks]
    return {r["check"] for r in picked} == set(checks) and \
        all(r["status"] == "pass" for r in picked)


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
        ring = ModuleContext(n).ring
        for d in degrees_upto(n, 4):
            records = list(character_records(ring, d))
            if not records or any(r["status"] != "pass" for r in records):
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
        records = suite_records(relation_records, n, box)
        if any(r["status"] == "fail" for r in records
               if r["check"] != "commutator-diagonality"):
            ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600
    report(4, ok, "full defining-relation suite (plain and twisted "
                  f"generators) over (2,4),(3,3),(4,2) ({elapsed:.1f}s)")


def test_criterion_05_commutator_diagonality():
    ok = True
    for n, box in ((2, 4), (3, 3), (4, 2)):
        records = suite_records(relation_records, n, box)
        for i in range(1, n):
            rows = [r for r in records
                    if r["check"] == "commutator-diagonality" and r["i"] == i]
            if any(r["status"] == "fail" for r in rows):
                ok = False
            if not any(r["status"] == "pass" for r in rows):
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
        if not verify_summation_identity(i + 1, i,
                                         _random_admissible_rows(i, rng)):
            ok = False
    # exact spot-check on one randomized instance
    lo, ro = summation_identity_sides(4, 3, [[3, 2], [2, 1, 1], [1, 1, 0, 0]])
    if not eq_exact(lo, ro):
        ok = False
    report(6, ok, "diagonal-commutator summation identity: exact through "
                  "i=4 in both variable systems, plus an exact torus-variable "
                  "spot-check at i=3")


WHITTAKER_BOXES = ((2, 3), (3, 3))


def test_criterion_07_pairing_suite():
    ok = all(checks_pass(suite_records(whittaker_records, n, box),
                         ("pairing-normalization", "raising-lowering-adjoint"))
             for n, box in WHITTAKER_BOXES)
    report(7, ok, "pairing normalization at the lowest vector and "
                  "raising/lowering adjointness for all basis pairs, "
                  "n <= 3, box 3")


def test_criterion_08_whittaker_suite():
    checks = ("structure-sheaf-vector-eigen", "dual-vector-eigen",
              "line-pushforward-identity", "partial-fraction-identity")
    ok = all(checks_pass(suite_records(whittaker_records, n, box), checks)
             for n, box in WHITTAKER_BOXES)
    report(8, ok, "Whittaker eigen-properties at every in-box degree, the "
                  "line-pushforward identity, and the partial-fraction "
                  "identity through i=4, n <= 3, box 3")


def test_criterion_09_whittaker_pairing_two_path():
    ok = True
    for n, box in WHITTAKER_BOXES:
        records = suite_records(whittaker_records, n, box)
        ok = ok and checks_pass(records, ("whittaker-pairing-two-path",))
        decided = {tuple(r["degree"]) for r in records
                   if r["check"] == "whittaker-pairing-two-path"}
        ok = ok and decided >= set(degrees_upto(n, 3))
    report(9, ok, "closed Whittaker-pairing product equals the direct "
                  "localized pairing, n <= 3, |d| <= 3")


def test_criterion_10_toda_eigen_equations():
    t0 = time.monotonic()
    ok = True
    for n, box in ((2, 4), (3, 2)):
        records = suite_records(toda_records, n, box)
        ok = ok and checks_pass(records, ("sum-op-eigen", "difference-op-eigen",
                                          "shift-sign-calibration"))
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
