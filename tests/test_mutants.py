"""The kill table: mutants of the code that every suite runs through, each
with the records it must fail.

A check that cannot fail passes vacuously, so each mutant below names
every record family it kills, with its failing records, when all four
suites run at (n, box) = (3, 2); together the rows kill every family those
runs emit.  Rescaling a whole function by a degree-dependent unit reaches
neither Serre relation, the commutator diagonality nor the
partial-fraction identity; the shape mutants change an entry or a factor
list instead.  The scale mutants multiply a diagonal scalar, a prefactor,
a closed product, a point weight, a closed monomial or the Toda
eigenvalue by a power of v: the adjoint and eigen records must see each
monomial they fold in.  The zero twist sets Sevostyanov's c(i, j) to 0
and must break the twisted relations alone.  The piece mutant moves one
run of the last piece of the tangent character by one: `tangent_char`
and the Toda transfer's piece factors both read that routine, so it is
the row of the closed tangent character too.

Each mutant is bound wherever qtoda binds its original (the
`bind_everywhere` fixture), since `from m import f` copies the name into
each importer.
"""

import json
from collections import Counter

import pytest

from qtoda import characters, operators, toda, whittaker
from qtoda.cli import SUITES
from qtoda.fixed_points import FixedPoint, all_degrees
from qtoda.operators import (ModuleContext, diagonality_check, op_E, op_F,
                             relation_suite, sevostyanov_c, verify_relations)
from qtoda.symbolic import RatFunc, rat_sum
from test_characters import last_piece_run_shifted
from test_operators import decide, replays_witness

# each mutated function as it is before any mutant is bound
raising_product = operators.raising_product
lowering_product = operators.lowering_product
from_binomials = RatFunc.from_binomials
k_form = ModuleContext.k_form
l_form = ModuleContext.l_form
raise_prefactor = operators._raise_prefactor
lower_prefactor = operators._lower_prefactor
pairing_prefactor = whittaker.pairing_prefactor
closed_monomial = whittaker._closed_monomial
eigenvalue_monomial_sum = toda.eigenvalue_monomial_sum
det_weight = characters.det_weight
piece_char = characters.piece_char
dual_whittaker_prefactor = whittaker.dual_whittaker_prefactor


def raising_mid_row_mutant(ring, upper, mid, j):
    # every mid-row v exponent 2b - 2a (k != j) raised by 2, through b + 1
    return raising_product(
        ring, upper, [b + (k != j) for k, b in enumerate(mid, start=1)], j)


def lowering_low_row_mutant(ring, mid, low, j):
    # every low-row v exponent 2a - 2b raised by 2, through b - 1
    return lowering_product(ring, mid, [b - 1 for b in low], j)


def raising_times_v2_mutant(ring, upper, mid, j):
    # every closed raising entry times v^2
    return raising_product(ring, upper, mid, j).scale_poly(ring.v(2))


def drop_last_factor_mutant(ring, unit, pairs):
    # the keyed constructor drops its last binomial: every closed entry,
    # piece factor and `RatFunc.from_factors` list passes through it
    return from_binomials(ring, unit, list(pairs)[:-1])


def slope_plus_2e_i(original):
    """original(ctx, i), a degree-linear form, with 2e_i added to each
    slope: the diagonal operator then acts on degree d by v^{2d_i} more,
    wherever its form is read."""
    def mutant(ctx, i):
        return [(tuple(s + 2 * (c == i) for c, s in enumerate(slope, start=1)),
                 poly) for slope, poly in original(ctx, i)]
    return mutant


def times_v(original, v_power):
    """original(first, *rest) times v^{v_power(*rest)}, the first argument
    a context or a ring."""
    def mutant(first, *rest):
        ring = first.ring if isinstance(first, ModuleContext) else first
        return original(first, *rest) * ring.v(v_power(*rest))
    return mutant


# (original, mutant, {family: failing records at (3, 2)})
KILL_TABLE = {
    "raising_product": (raising_product, raising_mid_row_mutant,
                        {"serre-raising": 2, "serre-twisted-raising": 2,
                         "raising-lowering-commutator": 6,
                         "twisted-commutator": 6, "commutator-diagonality": 2,
                         "commutator-summation-identity": 1,
                         "raising-lowering-adjoint": 9,
                         "line-pushforward-identity": 14}),
    "lowering_product": (lowering_product, lowering_low_row_mutant,
                         {"raising-lowering-commutator": 16,
                          "twisted-commutator": 16, "serre-lowering": 4,
                          "serre-twisted-lowering": 4,
                          "commutator-summation-identity": 2,
                          "raising-lowering-adjoint": 18,
                          "structure-sheaf-vector-eigen": 18,
                          "dual-vector-eigen": 18}),
    "RatFunc.from_factors": (from_binomials, drop_last_factor_mutant,
                             {"raising-lowering-commutator": 14,
                              "twisted-commutator": 14, "serre-raising": 4,
                              "serre-twisted-raising": 4, "serre-lowering": 2,
                              "serre-twisted-lowering": 2,
                              "commutator-summation-identity": 2,
                              # 17, not 18: the adjoint record (1, (0, 1))
                              # is decided from piece factors, each short
                              # of its own last factor, and still holds
                              "raising-lowering-adjoint": 17,
                              "structure-sheaf-vector-eigen": 18,
                              "dual-vector-eigen": 18,
                              "line-pushforward-identity": 28,
                              "partial-fraction-identity": 3,
                              "sum-op-eigen": 8, "difference-op-eigen": 8,
                              "shift-sign-calibration": 1}),
    # one run of the last piece of the tangent character off by one: every
    # sym factor and the transfer's last piece factors read it
    "piece_char": (piece_char, last_piece_run_shifted,
                   {"raising-lowering-adjoint": 6,
                    "structure-sheaf-vector-eigen": 6,
                    "dual-vector-eigen": 6, "sum-op-eigen": 4,
                    "difference-op-eigen": 4, "shift-sign-calibration": 1}),
    "zero sevostyanov_c": (sevostyanov_c, lambda i, j: 0,
                           {"twisted-commutator": 8,
                            "serre-twisted-raising": 4,
                            "serre-twisted-lowering": 4}),
}

# the scale mutants: d_i is degree[i - 1] and |d| the degree's sum; the
# diagonal rows scale K_i or L_i by v^{2d_i} in its degree-linear form
SCALE_ROWS = {
    "ModuleContext.k_form": (
        k_form, slope_plus_2e_i(k_form),
        {"diagonal-consistency": 12, "structure-sheaf-vector-eigen": 12,
         "dual-vector-eigen": 12, "raising-lowering-commutator": 6,
         "twisted-commutator": 6}),
    "ModuleContext.l_form": (
        l_form, slope_plus_2e_i(l_form),
        {"diagonal-consistency": 14, "diagonal-conjugates-raising": 12,
         "diagonal-conjugates-lowering": 12,
         "diagonal-conjugates-twisted-raising": 12,
         "diagonal-conjugates-twisted-lowering": 12}),
    "constant raising_product": (
        raising_product, raising_times_v2_mutant,
        {"raising-lowering-commutator": 12, "twisted-commutator": 12,
         "commutator-summation-identity": 2, "raising-lowering-adjoint": 18,
         "line-pushforward-identity": 28}),
    "_raise_prefactor": (
        raise_prefactor, times_v(raise_prefactor, lambda i, d: 2),
        {"raising-lowering-commutator": 12, "twisted-commutator": 12,
         "raising-lowering-adjoint": 18}),
    "_lower_prefactor": (
        lower_prefactor, times_v(lower_prefactor, lambda i, d: 2),
        {"raising-lowering-adjoint": 18, "structure-sheaf-vector-eigen": 18,
         "dual-vector-eigen": 18, "raising-lowering-commutator": 12,
         "twisted-commutator": 12}),
    "pairing_prefactor": (
        pairing_prefactor, times_v(pairing_prefactor, lambda d: 2 * sum(d)),
        {"raising-lowering-adjoint": 18, "whittaker-pairing-two-path": 8}),
    "constant pairing_prefactor": (
        pairing_prefactor, times_v(pairing_prefactor, lambda d: 2),
        {"pairing-normalization": 1, "whittaker-pairing-two-path": 9}),
    "_closed_monomial": (
        closed_monomial, times_v(closed_monomial, lambda d: 2 * sum(d)),
        {"whittaker-pairing-two-path": 8, "sum-op-eigen": 8,
         "shift-sign-calibration": 1}),
    "eigenvalue_monomial_sum": (
        eigenvalue_monomial_sum,
        times_v(eigenvalue_monomial_sum, lambda *sigma: 2),
        {"sum-op-eigen": 9, "difference-op-eigen": 9,
         "shift-sign-calibration": 1}),
    "det_weight": (
        det_weight, times_v(det_weight, lambda p: 2 * sum(p.degree)),
        {"raising-lowering-adjoint": 18, "dual-vector-eigen": 18}),
    "dual_whittaker_prefactor": (
        dual_whittaker_prefactor,
        times_v(dual_whittaker_prefactor, lambda d: 2 * sum(d)),
        {"dual-vector-eigen": 18, "whittaker-pairing-two-path": 8}),
}
KILL_TABLE.update(SCALE_ROWS)


def records(n, box):
    """Every suite's records at (n, box), on a fresh context, the summation
    suite drawn from seed 0."""
    ctx = ModuleContext(n)
    return [r for name, suite in SUITES.items() for r in suite(
        ctx, *((0, None) if name == "summation" else (box,)))]


def failures(n, box):
    """{family: failing records} over every suite at (n, box)."""
    return Counter(r["check"] for r in records(n, box)
                   if r["status"] == "fail")


def test_the_unmutated_suites_fail_nothing():
    assert failures(3, 2) == Counter()


def test_the_table_kills_every_family_the_suites_emit():
    emitted = {r["check"] for r in records(3, 2)}
    killed = {family for *_, kills in KILL_TABLE.values() for family in kills}
    assert killed == emitted and len(emitted) == 23


@pytest.mark.parametrize("name", list(KILL_TABLE))
def test_mutant_fails_its_families(bind_everywhere, name):
    original, mutant, killed = KILL_TABLE[name]
    assert bind_everywhere(original, mutant)
    failed = failures(3, 2)
    assert failed == killed, failed


# the twist mutant of `test_operators.test_twist_calibration` that the
# table has no row for
TWISTS = {"transposed twist": lambda c: lambda i, j: c(j, i)}


@pytest.mark.parametrize("n,box", [(3, 2), (4, 1), (4, 2)],
                         ids=lambda x: str(x))
@pytest.mark.parametrize("name", ["unmutated", *KILL_TABLE, *TWISTS])
def test_relation_records_match_the_point_loop(bind_everywhere, monkeypatch,
                                               name, n, box):
    # every relation record, decided with the other relations of its (i, j)
    # from shared lifts, has the status, mode and witness, byte for byte,
    # of the point loop `decide` over the relation's own unfolded terms
    if name in TWISTS:
        monkeypatch.setattr(operators, "sevostyanov_c",
                            TWISTS[name](operators.sevostyanov_c))
    elif name in KILL_TABLE:
        original, mutant, _ = KILL_TABLE[name]
        assert bind_everywhere(original, mutant)
    ctx = ModuleContext(n)
    records = {(r["check"], r["i"], r.get("j"), tuple(r["degree"])): r
               for r in verify_relations(ctx, box)}
    failed = Counter()
    for check, params, terms in relation_suite(ctx):
        limit = operators._in_box_limit(box, terms)
        for d in all_degrees(n, box):
            rec = records.pop((check, params["i"], params.get("j"), d))
            if not all(a <= b for a, b in zip(d, limit)):
                assert rec["status"] == "skipped-out-of-box"
                continue
            status, mode, witness = decide(ctx, terms, d)
            assert json.dumps([rec["status"], rec["mode"],
                               rec.get("witness")]) \
                == json.dumps([status, mode, witness]), (check, params, d)
            failed[check] += status == "fail"
    assert not records
    # non-vacuity: at (3, 2) the point loop fails, family by family, the
    # relation records the table's row kills, and the twist some
    if (n, box) == (3, 2):
        if name in TWISTS:
            assert +failed
        else:
            killed = KILL_TABLE[name][2] if name in KILL_TABLE else {}
            assert +failed == Counter({family: count for family, count
                                       in killed.items() if family in failed})


def test_commutator_diagonality_failures_carry_replayable_witnesses(
        bind_everywhere):
    # the mid-row raising mutant breaks E_i F_i - F_i E_i off the diagonal;
    # each failing record names the first entry that does not vanish, and
    # the entry replays from its JSON against the paths of both words
    original, mutant, killed = KILL_TABLE["raising_product"]
    assert bind_everywhere(original, mutant)
    ctx = ModuleContext(3)
    records = [r for i in (1, 2) for r in diagonality_check(ctx, i, 2)]
    failed = [r for r in records if r["status"] == "fail"]
    assert len(failed) == killed["commutator-diagonality"] == 2
    assert all("witness" not in r for r in records if r["status"] != "fail")
    for rec in failed:
        E, F = op_E(ctx, rec["i"]), op_F(ctx, rec["i"])
        source = FixedPoint.from_json(rec["witness"]["source"])
        target = FixedPoint.from_json(rec["witness"]["target"])
        assert source.degree == tuple(rec["degree"]) and target != source
        parts = [c for q, c in operators._paths((E, F), source)
                 if q == target] \
            + [-c for q, c in operators._paths((F, E), source) if q == target]
        assert replays_witness(ctx, rec["witness"], rat_sum(ctx.ring, parts))
