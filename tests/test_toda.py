"""Tests for the difference-Toda eigen-equations on the generating series."""

import sys
from functools import lru_cache

import pytest

from qtoda import toda, whittaker
from qtoda.fixed_points import all_degrees
from qtoda.operators import ModuleContext
from qtoda.symbolic import RatFunc, eq_exact, rat_sum
from qtoda.toda import (
    difference_op_at,
    eigenvalue_monomial_sum,
    sum_op_at,
    toda_records,
)
from qtoda.whittaker import sheaf_rgamma, whittaker_pair_closed


def shift_monomial(ring, j, degree, sigma=-1):
    """The multiplier picked up by the j-th lattice shift at degree d,
    t_j^sigma v^{d_j - d_{j-1}} (j runs 1..n, d_0 = d_n = 0): the
    reference the operator rows are compared with, built as one monomial
    apart from the shift cache the rows read."""
    d = (0,) + tuple(degree) + (0,)
    return ring.t_monomial({j: sigma}, v_power=d[j] - d[j - 1])


def filled_series(ctx, box):
    """The eigen records, then the pairing series and the coefficient-sum
    series over the box as {degree: coefficient} dicts, read from the
    context that toda_records filled."""
    records = list(toda_records(ctx, box))
    degrees = all_degrees(ctx.n, box)
    return (records,
            {d: whittaker_pair_closed(ctx, d) for d in degrees},
            {d: sheaf_rgamma(ctx, d) for d in degrees})


def eigen_verdicts(ring, pairs, sigma, box):
    """{(operator, degree): verdict} for every (series, operator) pair at
    every degree <= box, without stopping at a failure.  The reference
    applies the operator's table to the series, sums with rat_sum and
    compares with eq_exact, where the records use one zero test with -lam
    folded into the diagonal multiplier."""
    lam = eigenvalue_monomial_sum(ring, sigma)
    return {(op.__name__, d): eq_exact(
                rat_sum(ring, [s[src].scale_poly(m)
                               for src, m in op(ring, d, sigma)]),
                s[d].scale_poly(lam))
            for s, op in pairs for d in sorted(s) if max(d) <= box}


@lru_cache(maxsize=None)
def calibration_case(n, box):
    """The calibration record of toda_records at (n, box), and {sigma:
    all-pass} of the exhaustive reference over degrees <= min(box, 2)."""
    ctx = ModuleContext(n)
    records, pair, sheaf = filled_series(ctx, box)
    pairs = ((pair, sum_op_at), (sheaf, difference_op_at))
    reference = {sigma: all(eigen_verdicts(ctx.ring, pairs, sigma,
                                           min(box, 2)).values())
                 for sigma in (-1, 1)}
    return records[-1], reference


CALIBRATION_BOXES = [(2, 3), (3, 2), (4, 1), (4, 2)]


class TestShiftMonomial:
    def test_values(self):
        ctx = ModuleContext(3)
        ring = ctx.ring
        # j = 1 at degree (2, 0): t_1^{-1} v^{2 - 0}
        assert shift_monomial(ring, 1, (2, 0)) == \
            ring.t_monomial({1: -1}, v_power=2)
        # j = 3 at degree (1, 2): d_3 = 0, d_2 = 2 -> t_3^{-1} v^{-2}
        assert shift_monomial(ring, 3, (1, 2)) == \
            ring.t_monomial({3: -1}, v_power=-2)

    def test_eigenvalue_sum(self):
        ctx = ModuleContext(2)
        ring = ctx.ring
        assert eigenvalue_monomial_sum(ring) == \
            ring.t_monomial({1: -2}) + ring.t_monomial({2: -2})


class TestSeries:
    def test_zero_degree_coefficients(self):
        ctx = ModuleContext(2)
        _, pair, sheaf = filled_series(ctx, 1)
        for series in (pair, sheaf):
            assert eq_exact(series[(0,)], RatFunc.one(ctx.ring))

    @pytest.mark.parametrize("op", [sum_op_at, difference_op_at],
                             ids=lambda op: op.__name__)
    def test_negative_degree_is_zero(self, op):
        # at degree 0 every source degree d - e_i is negative, so only the
        # diagonal remains, and there every shift is t_j^sigma
        ring = ModuleContext(3).ring
        assert op(ring, (0, 0)) == [((0, 0), eigenvalue_monomial_sum(ring))]

    @pytest.mark.parametrize("sigma", [-1, 1])
    def test_rows_match_the_shift_monomials(self, sigma):
        # each row's entries, read from the shift cache or built as one
        # monomial, equal the recursions written with shift_monomial
        ring = ModuleContext(4).ring

        def shift(j, x):
            return shift_monomial(ring, j, x, sigma)

        for d in all_degrees(4, 3):
            diagonal = sum((shift(j, d) ** 2 for j in range(2, 5)),
                           shift(1, d) ** 2)
            sources = [(i, d[:i - 1] + (d[i - 1] - 1,) + d[i:])
                       for i in range(1, 4) if d[i - 1]]
            assert sum_op_at(ring, d, sigma) == [(d, diagonal)] + [
                (src, ring.v(-2) * shift(i, src) * shift(i + 1, src))
                for i, src in sources]
            assert difference_op_at(ring, d, sigma) == [(d, diagonal)] + [
                (src, -(shift(i + 1, d) ** 2)) for i, src in sources]

    @pytest.mark.parametrize("op", [sum_op_at, difference_op_at],
                             ids=lambda op: op.__name__)
    def test_table_sources(self, op):
        # the diagonal first, then every d - e_i without a negative component
        ring = ModuleContext(4).ring
        assert [src for src, _ in op(ring, (1, 0, 2))] == \
            [(1, 0, 2), (0, 0, 2), (1, 0, 1)]

    def test_filled_on_a_larger_box_equals_smaller_fill(self):
        ctx = ModuleContext(3)
        _, *small = filled_series(ctx, 1)
        _, *big = filled_series(ctx, 2)
        for s, b in zip(small, big):
            for d, c in s.items():
                assert eq_exact(b[d], c)


EIGEN_BOXES = [(2, 4), (3, 2)]


class TestEigenEquations:
    @pytest.mark.parametrize("n,box", EIGEN_BOXES, ids=lambda x: str(x))
    def test_both_eigen_equations(self, n, box):
        records, pair, _ = filled_series(ModuleContext(n), box)
        assert {r["check"] for r in records} == {
            "sum-op-eigen", "difference-op-eigen", "shift-sign-calibration"}
        assert len(records) == 2 * len(pair) + 1
        assert all(r["status"] == "pass" for r in records)

    @pytest.mark.parametrize("n,box", CALIBRATION_BOXES,
                             ids=lambda x: str(x))
    def test_sign_calibration(self, n, box):
        # sigma = -1 is the working convention; the opposite sign must fail
        record, reference = calibration_case(n, box)
        assert reference == {-1: True, 1: False}
        assert record == {"check": "shift-sign-calibration",
                          "working_sign": -1, "status": "pass"}

    @pytest.mark.parametrize("n,box", CALIBRATION_BOXES,
                             ids=lambda x: str(x))
    def test_early_stop_calibration_matches_exhaustive(self, n, box):
        # the record stops trying the opposite sign at its first failing
        # degree; the reference decides every degree <= min(box, 2) for both
        # signs.  Box 0, where both signs pass, is skipped (see test_cli).
        record, reference = calibration_case(n, box)
        want = "pass" if reference[-1] and not reference[1] else "fail"
        assert record["status"] == want

    def test_opposite_sign_stops_at_its_first_failure(self, monkeypatch):
        # at (4, 2) the opposite sign passes both families at degree 0 and
        # fails the sum-type family at the next degree, (0, 0, 1); no table
        # of that sign is built after it
        tried = []

        def counted(op):
            def table(ring, d, sigma=toda.DEFAULT_SIGMA):
                if sigma != toda.DEFAULT_SIGMA:
                    tried.append((op.__name__, d))
                return op(ring, d, sigma)
            return table

        for op in (sum_op_at, difference_op_at):
            monkeypatch.setattr(toda, op.__name__, counted(op))
        records = list(toda_records(ModuleContext(4), 2))
        assert records[-1]["status"] == "pass"
        assert tried == [("sum_op_at", (0, 0, 0)),
                         ("difference_op_at", (0, 0, 0)),
                         ("sum_op_at", (0, 0, 1))]

    def test_verdicts_do_not_depend_on_the_box(self):
        # so the calibration may read a sign's verdict from a larger box
        ctx = ModuleContext(2)
        _, *small = filled_series(ctx, 2)
        _, *big = filled_series(ctx, 4)
        ops = (sum_op_at, difference_op_at)
        for sigma in (-1, 1):
            assert eigen_verdicts(ctx.ring, zip(big, ops), sigma, 2) == \
                eigen_verdicts(ctx.ring, zip(small, ops), sigma, 2)

    def test_cross_mismatch_is_detected(self):
        # the difference-type operator is NOT diagonal on the pairing series:
        # the eigen checks are non-vacuous
        ctx = ModuleContext(2)
        _, pair, _ = filled_series(ctx, 3)
        verdicts = eigen_verdicts(ctx.ring, [(pair, difference_op_at)], -1, 3)
        assert not all(verdicts.values())

    def test_sum_op_on_sheaf_series_mismatch(self):
        ctx = ModuleContext(2)
        _, _, sheaf = filled_series(ctx, 3)
        verdicts = eigen_verdicts(ctx.ring, [(sheaf, sum_op_at)], -1, 3)
        assert not all(verdicts.values())


def expected_records(ctx, box):
    """The record stream of toda_records at (ctx.n, box) as the reference
    decides it: every eigen verdict from eigen_verdicts, the calibration
    from the verdicts of both signs over degrees <= min(box, 2)."""
    _, pair, sheaf = filled_series(ctx, box)
    pairs = ((pair, sum_op_at), (sheaf, difference_op_at))
    verdicts = eigen_verdicts(ctx.ring, pairs, -1, box)
    cut = min(box, 2)
    working = all(eigen_verdicts(ctx.ring, pairs, -1, cut).values())
    opposite = all(eigen_verdicts(ctx.ring, pairs, 1, cut).values())
    return [{"check": check, "degree": list(d),
             "status": "pass" if verdicts[op.__name__, d] else "fail"}
            for check, op in (("sum-op-eigen", sum_op_at),
                              ("difference-op-eigen", difference_op_at))
            for d in all_degrees(ctx.n, box)] + [
        {"check": "shift-sign-calibration", "working_sign": -1,
         "status": "pass" if working and not opposite else "fail"}]


# each mutated function as it is before any mutant is bound
ORIGINAL = {f.__name__: f for f in (
    whittaker._closed_monomial, toda.eigenvalue_monomial_sum, toda._shift,
    toda._table, toda.difference_op_at)}


def closed_monomial_mutant(ring, degree):
    # m_d times v^{2|d|}: a unit, but one that depends on the degree
    return ORIGINAL["_closed_monomial"](ring, degree) \
        * ring.v(2 * sum(degree))


def eigenvalue_mutant(ring, sigma=toda.DEFAULT_SIGMA):
    return ORIGINAL["eigenvalue_monomial_sum"](ring, sigma) * ring.v(2)


def shift_mutant(ring, j, step, sigma):
    # shift_2 times v; every shift monomial, cached or not, comes from here
    m = ORIGINAL["_shift"](ring, j, step, sigma)
    return m * ring.v(1) if j == 2 else m


def diagonal_mutant(ring, d, sigma, multiplier):
    # the diagonal times v^{2 d_1}: unchanged where d_1 = 0
    (src, diagonal), *lower = ORIGINAL["_table"](ring, d, sigma, multiplier)
    return [(src, diagonal * ring.v(2 * d[0]))] + lower


def difference_diagonal_mutant(ring, d, sigma=toda.DEFAULT_SIGMA):
    # the same, in the difference-type table alone: the two tables' diagonals
    # differ, and only difference-type records fail
    (src, diagonal), *lower = ORIGINAL["difference_op_at"](ring, d, sigma)
    return [(src, diagonal * ring.v(2 * d[0]))] + lower


MUTANTS = {"_closed_monomial": closed_monomial_mutant,
           "eigenvalue_monomial_sum": eigenvalue_mutant,
           "_shift": shift_mutant,
           "_table": diagonal_mutant,
           "difference_op_at": difference_diagonal_mutant}


@lru_cache(maxsize=None)
def mutant_context(n):
    # none of the mutants reaches the context's memo (the sheaf_rgamma sums
    # and what they are built from), so one context serves them all
    return ModuleContext(n)


@pytest.mark.parametrize("n,box", [(3, 2), (4, 2)], ids=str)
@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_fails_exactly_the_reference_failures(bind_everywhere, n,
                                                     box, name):
    # the shared lift, the division by m_d and the key-shift zero test
    # decide every record as the rat_sum + eq_exact reference does, on
    # mutated code too
    ctx = mutant_context(n)
    assert list(toda_records(ctx, box)) == expected_records(ctx, box)
    # this module's reference reads the tables through its own names too
    assert bind_everywhere(ORIGINAL[name], MUTANTS[name],
                           sys.modules[__name__])
    records = list(toda_records(ctx, box))
    assert records == expected_records(ctx, box)
    assert [r for r in records if r["status"] == "fail"]
