"""Tests for the difference-Toda eigen-equations on the generating series."""

from functools import lru_cache

import pytest

from qtoda import toda
from qtoda.fixed_points import all_degrees
from qtoda.operators import ModuleContext
from qtoda.symbolic import RatFunc, UsageError, eq_exact, rat_sum
from qtoda.toda import (
    difference_op_at,
    eigenvalue_monomial_sum,
    shift_monomial,
    sum_op_at,
    toda_records,
)
from qtoda.whittaker import sheaf_rgamma, whittaker_pair_closed


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

    def test_index_validation(self):
        ctx = ModuleContext(2)
        with pytest.raises(UsageError):
            shift_monomial(ctx.ring, 3, (1,))

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
        # at (4, 2) the opposite sign passes at degree 0 of the sum-type
        # family and fails at the next degree, (0, 0, 1)
        tried = []
        eigen_holds = toda._eigen_holds

        def counted(ring, s, op, d, sigma=toda.DEFAULT_SIGMA):
            if sigma != toda.DEFAULT_SIGMA:
                tried.append((op.__name__, d))
            return eigen_holds(ring, s, op, d, sigma)

        monkeypatch.setattr(toda, "_eigen_holds", counted)
        records = list(toda_records(ModuleContext(4), 2))
        assert records[-1]["status"] == "pass"
        assert tried == [("sum_op_at", (0, 0, 0)), ("sum_op_at", (0, 0, 1))]

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
