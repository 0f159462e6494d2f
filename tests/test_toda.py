"""Tests for the difference-Toda eigen-equations on the generating series."""

import pytest

from qtoda.operators import ModuleContext
from qtoda.symbolic import RatFunc, UsageError, eq_exact
from qtoda.toda import (
    TodaSeries,
    apply_difference_op,
    apply_sum_op,
    calibrate_sign,
    check_eigen,
    coefficient_sum_series,
    eigen_records,
    eigenvalue_monomial_sum,
    shift_monomial,
    sign_calibration,
    verify_toda,
    whittaker_pair_series,
)


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
        for series in (whittaker_pair_series(ctx, 1),
                       coefficient_sum_series(ctx, 1)):
            assert eq_exact(series.coeffs[(0,)], RatFunc.one(ctx.ring))

    def test_box_validation(self):
        ctx = ModuleContext(2)
        with pytest.raises(UsageError):
            TodaSeries(2, 1, {(2,): RatFunc.one(ctx.ring)})

    def test_missing_degree_is_error_but_negative_is_zero(self):
        ctx = ModuleContext(2)
        s = coefficient_sum_series(ctx, 1)
        assert s.coeff(ctx.ring, (-1,)).is_zero()
        with pytest.raises(UsageError):
            s.coeff(ctx.ring, (2,))

    def test_truncate_equals_smaller_build(self):
        ctx = ModuleContext(3)
        for build in (whittaker_pair_series, coefficient_sum_series):
            small, cut = build(ctx, 1), build(ctx, 2).truncate(1)
            assert cut.box == 1 and sorted(cut.coeffs) == sorted(small.coeffs)
            for d, c in small.coeffs.items():
                assert eq_exact(cut.coeffs[d], c)


EIGEN_BOXES = [(2, 4), (3, 2)]


class TestEigenEquations:
    @pytest.mark.parametrize("n,box", EIGEN_BOXES, ids=lambda x: str(x))
    def test_both_eigen_equations(self, n, box):
        ctx = ModuleContext(n)
        records = verify_toda(ctx, box)
        assert records and all(r["status"] == "pass" for r in records)

    def test_sign_calibration(self):
        # sigma = -1 is the working convention; the opposite sign must fail
        ctx = ModuleContext(2)
        out = calibrate_sign(ctx, 2)
        assert out[-1] is True
        assert out[1] is False

    @pytest.mark.parametrize("n,box,cut", [(2, 3, 2), (3, 2, 2), (4, 1, 1),
                                           (2, 1, 0)],
                             ids=lambda x: str(x))
    def test_early_stop_calibration_matches_exhaustive(self, n, box, cut):
        # the calibration stops at the first failing degree; the reference
        # runs both signs' eigen records over the whole truncated series.
        # At cut 0 only degree 0 counts, where both signs pass.
        ctx = ModuleContext(n)
        ring = ctx.ring
        pair = whittaker_pair_series(ctx, box)
        sheaf = coefficient_sum_series(ctx, box)
        records = eigen_records(ring, pair, sheaf)
        reference = {
            sigma: all(r["status"] == "pass" for r in eigen_records(
                ring, pair.truncate(cut), sheaf.truncate(cut), sigma))
            for sigma in (-1, 1)}
        assert sign_calibration(ring, pair, sheaf, records, cut) == reference

    def test_verdicts_do_not_depend_on_the_box(self):
        # so the calibration may read a sign's verdict from a larger box
        ctx = ModuleContext(2)
        for sigma in (-1, 1):
            inner = [r for r in verify_toda(ctx, 4, sigma)
                     if max(r["degree"]) <= 2]
            assert inner == verify_toda(ctx, 2, sigma)

    def test_cross_mismatch_is_detected(self):
        # the difference-type operator is NOT diagonal on the pairing series:
        # the eigen checks are non-vacuous
        ctx = ModuleContext(2)
        s = whittaker_pair_series(ctx, 3)
        records = check_eigen(ctx.ring, s, apply_difference_op(ctx.ring, s))
        assert any(r["status"] == "fail" for r in records)

    def test_sum_op_on_sheaf_series_mismatch(self):
        ctx = ModuleContext(2)
        s = coefficient_sum_series(ctx, 3)
        records = check_eigen(ctx.ring, s, apply_sum_op(ctx.ring, s))
        assert any(r["status"] == "fail" for r in records)
