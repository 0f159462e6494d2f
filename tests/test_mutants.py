"""The kill table: mutants of the code that every suite runs through, each
with the records it must fail.

A check that cannot fail passes vacuously, so each mutant below names the
record families it kills when all four suites run at (n, box) = (3, 2).
Rescaling a whole function by a degree-dependent unit reaches neither
Serre relation, the commutator diagonality nor the partial-fraction
identity; these mutants change the shape of an entry or of a factor list
instead.

Each mutant is bound wherever qtoda binds its original (the
`bind_everywhere` fixture), since `from m import f` copies the name into
each importer.
"""

from collections import Counter

import pytest

from qtoda import operators
from qtoda.cli import SUITES
from qtoda.operators import ModuleContext
from qtoda.symbolic import RatFunc

# each mutated function as it is before any mutant is bound
raising_product = operators.raising_product
lowering_product = operators.lowering_product
from_factors = RatFunc.from_factors


def raising_mid_row_mutant(ring, upper, mid, j):
    # every mid-row v exponent 2b - 2a (k != j) raised by 2, through b + 1
    return raising_product(
        ring, upper, [b + (k != j) for k, b in enumerate(mid, start=1)], j)


def lowering_low_row_mutant(ring, mid, low, j):
    # every low-row v exponent 2a - 2b raised by 2, through b - 1
    return lowering_product(ring, mid, [b - 1 for b in low], j)


def drop_last_factor_mutant(ring, unit, factor_list):
    return from_factors(ring, unit, list(factor_list)[:-1])


# (original, mutant, {family: failing records at (3, 2)})
KILL_TABLE = {
    "raising_product": (raising_product, raising_mid_row_mutant,
                        {"serre-raising": 2, "commutator-diagonality": 2}),
    "lowering_product": (lowering_product, lowering_low_row_mutant,
                         {"serre-lowering": 4}),
    "RatFunc.from_factors": (from_factors, drop_last_factor_mutant,
                             {"partial-fraction-identity": 3}),
}


def failures(n, box):
    """{family: failing records} over every suite at (n, box), on a fresh
    context, the summation suite drawn from seed 0."""
    ctx = ModuleContext(n)
    records = [r for name, suite in SUITES.items() for r in suite(
        ctx, *((0, None) if name == "summation" else (box,)))]
    return Counter(r["check"] for r in records if r["status"] == "fail")


def test_the_unmutated_suites_fail_nothing():
    assert failures(3, 2) == Counter()


@pytest.mark.parametrize("name", list(KILL_TABLE))
def test_mutant_fails_its_families(bind_everywhere, name):
    original, mutant, killed = KILL_TABLE[name]
    assert bind_everywhere(original, mutant)
    failed = failures(3, 2)
    assert {family: failed[family] for family in killed} == killed, failed
