"""Deterministic work counts of the relation, whittaker and toda suites at
(n, box) = (4, 2).

Times on a shared host wander by tens of percent from one run to the next;
these counts repeat exactly, so a change that makes a suite do more work
fails here even when no timing could show it.  The relation bounds are the
counts measured when every relation of one (i, j) began to be decided
together at each degree: each distinct chain walked once per point with
no coefficient, the parts that reach a target lifted once, and each
relation a `combination_is_zero` of those numerators.  Before that the
same run made 9,610 RatFunc products, 1,554 zero tests, 2,364
`_over_common_den` calls and 30,939 term products.  The RatFunc product
and term product bounds were tightened when every diagonal operator began
to act by a Laurent polynomial, the Cartan term's 1/(v - v^-1) moving into
its coefficient, and the commutator diagonality began to negate its F E
parts instead of multiplying each by -1; before that the same run made
2,927 RatFunc products and 11,509 term products.  The term product bound
was tightened, and the `_over_common_den` bound raised, when each
K_i = L_{i-1}^-1 L_i^2 L_{i+1}^-1 identity became one more relation of
the suite: before that the same run made 11,338 term products and 798
`_over_common_den` calls.  The 74 calls more are those records' own lifts:
the K_3 identity holds only modulo the determinant, so it was decided at
each of the 74 fixed points of the box, each with a one-part lift.  The
`_over_common_den` bound was tightened when that identity, whose one
shape has no chain, began to be decided at the first point of each degree
alone: before that the same run made 872 calls.  `_fold` runs once per
relation, 81 times at n = 4 (3 diagonal consistencies and 78 relations of
the (i, j)), since each diagonal operator became a degree-linear form;
before that `_shape_multipliers` folded every relation at every in-box
degree, 1,335 times, and 1,635 before a relation with no diagonal operator
was folded once per group.  The relation suite divides no binomial.  The
closed-product bounds are the counts measured when each closed entry began to be built
once per (row pair, column); before that the run made 171 + 171.  The
whittaker bounds are the counts measured when each module's twin code
paths were folded into one owner, but for the RatFunc product bound: that
is the count measured when each eigen target part -W(p) / (1 - v^2)
began to be built once per (degree, vector) and shared by every row.
Before that the same run made 1,230 RatFunc products.  The whittaker
bounds were tightened when the adjoint and both eigen records began to be
decided once per (i, row i - 1, row i, row i + 1), from the two pieces of
the tangent character that read row i, in place of whole sym factors
along every lowering edge: before that the same run made 934 RatFunc
products, 891 zero tests, 925 `_over_common_den` calls, 6,597 term
products and 185 `tangent_char` calls.  The 74 left are the points of the
box, whose sym factors the pairing records read.  The whittaker bounds
were set again when every quantity the suite reads began to be built once,
keyed by what it reads: each sym factor as the product of its n - 1 piece
factors, which the local deciders had already built, in place of a whole
tangent character (`tangent_char` 74 -> 0, and 148 = (n - 2) * 74
RatFunc products more, 814 -> 962), and the pushforward identity as the
sum of the closed raising entries E_i had already built (`raising_product`
214 -> 130); term products went 4,789 -> 4,709.  The whittaker bounds
were set again when the pairing weight became c_d det(p) times the sym
factor's inverted unit monomial over its negated factor powers (no
`RatFunc.inv`), 1/(1 - v^2) began to be built once per context, and each
line-pushforward identity became one `sum_is_zero` over the closed
raising entries and minus its right side, in place of a `rat_sum` tree
compared with `eq_exact`: before that the same run made 962 RatFunc
products, 593 `_over_common_den` calls, 65 `binomial_quotient` calls, 37
`sorted` calls and 3,474 accumulated terms (now 888, 559, 0, 0 and
3,420).  The term product bound was raised then, 4,709 -> 4,881: the one
zero test lifts the i + 1 parts over one common factor, where the tree
cancelled as it went, which trades 65 divisions and 37 sorts for 172 term
products, and the trade is faster.  The toda bounds
are the counts measured when each degree began to be decided from one
lift shared by both operators and both signs; before that each family
lifted its own parts, and the same run made 100 `_over_common_den` calls
and 13,715 term products.  The `binomial_quotient` bounds are the counts
measured when `rat_sum` stopped cancelling a nested group's lone sum
again against the binomials of its denominator, which `_add` had already
tried; before that the toda run made 558 calls and the whittaker run 65.
The toda bounds were set again when the coefficient sums began to be
built by the transfer over adjacent rows, from the piece factors of the
tangent character, in place of the per-point sym factors nested by rows:
before that the same run made no RatFunc product, 74 `_over_common_den`
calls, 8,508 term products and 250 `binomial_quotient` calls.  The 75
RatFunc products are the transfer's own, each piece g_i times a suffix
sum F_{i+1}; the run builds no tangent character of a point
(`tangent_char` 0), so no per-point sym factor and no structure-sheaf
component.  The toda term product bound was tightened when each
operator row began to read its squared shifts from the shift cache and to
build each sum-type multiplier as one monomial: before that the same run
made 7,955 term products, two one-term products per sum-type multiplier.
"sorted" counts the `sorted` calls of `symbolic`; at toda the binomial
division is the only caller.  Its bound is the count measured when the
division began to sum the line through the least key before sorting: 43,
one per division that succeeds, where 182 of the 248 divisions (every one
with p(1) = 0) sorted before.  The relation and whittaker "sorted" bounds
are the counts measured when each tracked factor began to be held by the
key s of its binomial 1 - x^s: before that the factor key of every factor
that did not arrive as 1 - x^s was sorted, 1 call at relations and 77 at
whittaker.

Each counted function is wrapped in every qtoda module that binds it
(`whittaker` imports its own `sum_is_zero`, `toda` its own
`_over_common_den`, and `eq_exact` calls the one in `symbolic`), so no
call escapes the count.  "term products" counts len(a) * len(b) over every
LaurentPoly product a * b, and "accumulated terms" counts the terms that
`symbolic._accumulate`, the one routine every sum, general product and
zero test adds through, reads: the first count of the work of sums and
zero tests.  Its bounds are the counts measured when that routine became
the only one, tightened when the closed products' binomials 1 - x began
to be built from x's key, so that building one adds no terms: before
that a fresh process read 21,901 at relations and 3,527 at whittaker, and
fewer when a suite that shares binomials had filled the process-wide
cache first.  No process-wide cache adds to a count now, so every count
here is a fresh process's whatever ran before
(`test_suite_counts_do_not_depend_on_what_ran_before`).

The term product and accumulated-term bounds of all three suites were
tightened when every tracked binomial began to be held as its key from
the moment it is built until it is expanded: each factor list goes to
`RatFunc.from_binomials` as (key, power) pairs, and each expansion of
(1 - x^s)^e is one copy of the polynomial and one shifted, scaled add per
power (`symbolic._times_binomial`), with no binomial polynomial and no
product.  Before that the relations, whittaker and toda runs made 11,203,
4,881 and 7,845 term products, read 21,865, 3,420 and 12,817 accumulated
terms, and built 1,712, 1,178 and 531 binomials by `symbolic._binomial`;
their RatFunc products, 2,756, 888 and 75, did not change.
"""

import itertools
import json
import os
import subprocess
import sys

import pytest

from qtoda import characters, operators, symbolic, toda, whittaker
from qtoda.operators import ModuleContext, relation_records
from qtoda.symbolic import EvalPoint, LaurentPoly, RatFunc, eq_exact, rat_sum
from qtoda.toda import toda_records
from qtoda.fixed_points import all_degrees
from qtoda.whittaker import local_key, sheaf_rgamma, whittaker_records

MODULES = (symbolic, characters, operators, whittaker, toda)
FUNCTIONS = ("sum_is_zero", "_over_common_den", "raising_product",
             "lowering_product", "binomial_quotient", "_fold", "tangent_char")


def count_work(monkeypatch, suite):
    """The records of suite(ModuleContext(4), 2) and the calls each counted
    function made while they were made."""
    counts = dict.fromkeys(("RatFunc.__mul__", "term products",
                            "accumulated terms", "sorted") + FUNCTIONS, 0)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def poly_mul(a, b):
        counts["term products"] += len(a.terms) * len(b.terms)
        return mul(a, b)

    def accumulate(acc, terms, by):
        counts["accumulated terms"] += len(terms) * len(by)
        return add(acc, terms, by)

    mul = LaurentPoly.__mul__
    add = symbolic._accumulate
    monkeypatch.setattr(LaurentPoly, "__mul__", poly_mul)
    monkeypatch.setattr(symbolic, "_accumulate", accumulate)
    monkeypatch.setattr(RatFunc, "__mul__",
                        counted("RatFunc.__mul__", RatFunc.__mul__))
    monkeypatch.setattr(symbolic, "sorted", counted("sorted", sorted),
                        raising=False)
    for module in MODULES:
        for name in FUNCTIONS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    return list(suite(ModuleContext(4), 2)), counts


def test_transfer_divides_smaller_numerators_than_the_point_sum(
        monkeypatch):
    # at (5; 2,2,2,2) the transfer sums each suffix while its numerator is
    # small, so it passes fewer terms to the binomial division than the
    # flat sum of the sym factors of the degree's points
    ctx = ModuleContext(5)
    degree = (2, 2, 2, 2)
    terms = []
    original = symbolic.binomial_quotient

    def counted(p, s_key):
        terms.append(len(p.terms))
        return original(p, s_key)

    monkeypatch.setattr(symbolic, "binomial_quotient", counted)
    transfer = sheaf_rgamma(ctx, degree)
    transfer_terms = sum(terms)
    terms.clear()
    flat = rat_sum(ctx.ring, [ctx.sym_factor(p) for p in ctx.points(degree)])
    assert eq_exact(transfer, flat)
    assert 0 < transfer_terms < sum(terms)


def test_relation_suite_work_stays_within_its_counts(monkeypatch):
    bounds = {
        "RatFunc.__mul__": 2756,
        "sum_is_zero": 42,
        "_over_common_den": 825,
        "term products": 3168,
        "accumulated terms": 17806,
        "raising_product": 49,
        "lowering_product": 46,
        "binomial_quotient": 0,
        "_fold": 81,
        "sorted": 0,
    }
    records, counts = count_work(monkeypatch, relation_records)
    assert len(records) == 2268
    assert not [r for r in records if r["status"] == "fail"]
    assert all(counts[name] <= bound for name, bound in bounds.items()), counts
    # non-vacuity: every kernel with a nonzero bound ran
    assert all(counts[name] for name, bound in bounds.items() if bound), counts


@pytest.mark.parametrize("suite,n_records,bounds", [
    (whittaker_records, 497, {"RatFunc.__mul__": 888, "sum_is_zero": 559,
                              "_over_common_den": 559,
                              "term products": 2873,
                              "accumulated terms": 2416,
                              "raising_product": 130,
                              "lowering_product": 98,
                              "binomial_quotient": 0,
                              "sorted": 0, "tangent_char": 0}),
    # the toda suite reads sheaf_rgamma alone: no closed entry and no
    # point's tangent character, since the transfer multiplies piece
    # factors (its only RatFunc products, piece times suffix sum); its
    # eigen checks lift each degree once and call no sum_is_zero
    (toda_records, 55, {"RatFunc.__mul__": 75, "sum_is_zero": 0,
                        "_over_common_den": 57, "term products": 1330,
                        "accumulated terms": 9554,
                        "raising_product": 0, "lowering_product": 0,
                        "binomial_quotient": 248, "sorted": 43,
                        "tangent_char": 0}),
], ids=["whittaker", "toda"])
def test_suite_work_stays_within_its_counts(monkeypatch, suite, n_records,
                                            bounds):
    records, counts = count_work(monkeypatch, suite)
    assert len(records) == n_records
    assert not [r for r in records if r["status"] == "fail"]
    assert all(counts[name] <= bound for name, bound in bounds.items()), counts
    # non-vacuity: every kernel with a nonzero bound ran
    assert all(counts[name] for name, bound in bounds.items() if bound), counts


def test_whittaker_quantities_are_products(monkeypatch):
    # at (4, 2) no pairing weight inverts a sym factor (RatFunc.inv splits
    # its unit again), 1/(1 - v^2) is built once for the context, and the
    # only sum is the normalization's pairing, each pushforward identity
    # being one zero test
    calls = {"inv": 0, "from_frac": 0, "rat_sum": 0, "normalization": 0}
    inside = []
    inv, from_frac = RatFunc.inv, RatFunc.from_frac

    def counted_inv(self):
        calls["inv"] += 1
        return inv(self)

    def counted_from_frac(num, den):
        calls["from_frac"] += 1
        return from_frac(num, den)

    def counted_rat_sum(ring, parts):
        calls["rat_sum"] += 1
        calls["normalization"] += bool(inside)
        return sum_of(ring, parts)

    def pairing(ctx, x, y):
        inside.append(True)
        try:
            return shapovalov_pair(ctx, x, y)
        finally:
            inside.pop()

    sum_of, shapovalov_pair = symbolic.rat_sum, whittaker.shapovalov_pair
    monkeypatch.setattr(RatFunc, "inv", counted_inv)
    monkeypatch.setattr(RatFunc, "from_frac", staticmethod(counted_from_frac))
    for module in MODULES:
        if hasattr(module, "rat_sum"):
            monkeypatch.setattr(module, "rat_sum", counted_rat_sum)
    monkeypatch.setattr(whittaker, "shapovalov_pair", pairing)
    records = list(whittaker_records(ModuleContext(4), 2))
    assert len(records) == 497
    assert not [r for r in records if r["status"] == "fail"]
    assert calls == {"inv": 0, "from_frac": 1, "rat_sum": 1,
                     "normalization": 1}


SUITES = {"relations": relation_records, "whittaker": whittaker_records,
          "toda": toda_records}


@pytest.mark.parametrize("suite", list(SUITES.values()), ids=list(SUITES))
def test_no_suite_builds_a_binomial_polynomial(monkeypatch, suite):
    # every tracked binomial is a key from the factor list to the
    # expansion, so no suite at (4, 2) calls `symbolic._binomial`, wrapped
    # in every qtoda module that binds it
    calls = []
    binomial = symbolic._binomial
    for module in MODULES:
        if hasattr(module, "_binomial"):
            monkeypatch.setattr(module, "_binomial",
                                lambda *a: calls.append(a) or binomial(*a))
    records = list(suite(ModuleContext(4), 2))
    assert records and not [r for r in records if r["status"] == "fail"]
    assert calls == []
    # non-vacuity: evaluation still builds its binomials through the wrapper
    ring = ModuleContext(4).ring
    r = RatFunc.from_frac(ring.one(), ring.one() - ring.v(2))
    r.eval(EvalPoint.of(*range(2, ring.nvars + 2)))
    assert len(calls) == 1


def counts_in_order(order):
    """{suite: counts} of `count_work` for each suite of order, run one
    after another in a fresh interpreter."""
    here = os.path.dirname(os.path.abspath(__file__))
    script = "\n".join([
        "import json, sys",
        f"sys.path[:0] = [{os.path.join(here, os.pardir, 'src')!r}, {here!r}]",
        "import pytest, test_work_counts as w",
        "out = {}",
        f"for name in {list(order)!r}:",
        "    with pytest.MonkeyPatch.context() as mp:",
        "        out[name] = w.count_work(mp, w.SUITES[name])[1]",
        "print(json.dumps(out))"])
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def test_suite_counts_do_not_depend_on_what_ran_before():
    # every suite makes the same counts first in a fresh process and after
    # the other two in either order: no cache that outlives a context adds
    # to a count
    runs = [counts_in_order(order)
            for order in itertools.permutations(SUITES)]
    for name in SUITES:
        assert all(run[name] == runs[0][name] for run in runs), name
    # non-vacuity: a count that reads each suite's sums
    assert all(runs[0][name]["accumulated terms"] for name in SUITES)


def test_whittaker_suite_decides_each_local_key_once(monkeypatch):
    # at (5, 2) the adjoint and eigen records read 1,620 (row, point)
    # pairs, which share 330 keys (i, row i - 1, row i, row i + 1); each
    # key's verdicts are built once
    keys = []
    memo = ModuleContext.memo

    def recording(self, kind, key, build):
        if kind == "local_verdicts":
            return memo(self, kind, key, lambda: keys.append(key) or build())
        return memo(self, kind, key, build)

    monkeypatch.setattr(ModuleContext, "memo", recording)
    ctx = ModuleContext(5)
    records = list(whittaker_records(ctx, 2))
    assert not [r for r in records if r["status"] == "fail"]
    pairs = [(i, p) for i in range(1, 5) for d in all_degrees(5, 2)
             for p in ctx.points(d)]
    assert len(pairs) == 1620
    assert len(keys) == len(set(keys)) <= 330
    assert set(keys) == {local_key(i, p) for i, p in pairs}


def test_whittaker_suite_builds_each_local_scalar_once(monkeypatch):
    # at (5, 2) the 330 local keys read 72 distinct (i, d_{i-1}, d_i,
    # d_{i+1}): 9 + 27 + 27 + 9 over the rows 1..4; the degree monomials of
    # the local parts are built once per such key
    keys = []
    memo = ModuleContext.memo

    def recording(self, kind, key, build):
        if kind == "local_scalars":
            return memo(self, kind, key, lambda: keys.append(key) or build())
        return memo(self, kind, key, build)

    monkeypatch.setattr(ModuleContext, "memo", recording)
    ctx = ModuleContext(5)
    records = list(whittaker_records(ctx, 2))
    assert not [r for r in records if r["status"] == "fail"]
    assert 0 < len(keys) == len(set(keys)) <= 72
    padded_rows = [(i, tuple(d[k - 1] if abs(k - i) <= 1 else 0
                             for k in range(1, 5)))
                   for i in range(1, 5) for d in all_degrees(5, 2)]
    assert set(keys) == set(padded_rows)
