"""Tests for the bilinear pairing and the Whittaker vectors."""

import itertools

import pytest

from qtoda import characters, whittaker
from qtoda.characters import det_weight
from qtoda.fixed_points import FixedPoint, all_degrees, enumerate_points
from qtoda.operators import (
    GradedOperator,
    ModuleContext,
    apply_op,
    basis_vector,
    op_E,
    op_F,
)
from qtoda.symbolic import RatFunc, UsageError, eq_exact, rat_sum
from qtoda.whittaker import (
    dual_eigen_check,
    line_pushforward_sides,
    lowering_edges,
    lowering_eigen_check,
    pairing_prefactor,
    pairing_weight,
    partial_fraction_identity,
    shapovalov_pair,
    sheaf_rgamma,
    whittaker_k,
    whittaker_pair_closed,
    whittaker_records,
    whittaker_w,
)
from test_characters import last_piece_run_shifted


class TestPairing:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_normalization(self, n):
        ctx = ModuleContext(n)
        z = basis_vector(ctx, FixedPoint.zero(n))
        assert eq_exact(shapovalov_pair(ctx, z, z), RatFunc.one(ctx.ring))

    @pytest.mark.parametrize("n", [2, 3])
    def test_degree_orthogonality(self, n):
        ctx = ModuleContext(n)
        d0 = (0,) * (n - 1)
        d1 = (1,) + (0,) * (n - 2)
        x = basis_vector(ctx, FixedPoint.zero(n))
        y = basis_vector(ctx, enumerate_points(n, d1)[0])
        assert shapovalov_pair(ctx, x, y).is_zero()
        assert x.degree == d0

    def test_pairing_weight_computed_once_per_point(self):
        ctx = ModuleContext(3)
        for p in enumerate_points(3, (1, 2)):
            theta = pairing_weight(ctx, p)
            assert pairing_weight(ctx, p) is theta
            fresh = RatFunc.from_poly(pairing_prefactor(ctx.ring, p.degree)
                                      * det_weight(ctx.ring, p)) \
                / ModuleContext(3).sym_factor(p)
            assert eq_exact(theta, fresh)

    def test_prefactor_at_zero_is_one(self):
        ctx = ModuleContext(3)
        assert pairing_prefactor(ctx.ring, (0, 0)) == ctx.ring.one()

    @pytest.mark.parametrize("n,box", [(2, 3), (3, 2)], ids=lambda x: str(x))
    def test_raising_lowering_adjoint(self, n, box):
        ctx = ModuleContext(n)
        for i in range(1, n):
            E, F = op_E(ctx, i), op_F(ctx, i)
            for d in itertools.product(range(box + 1), repeat=n - 1):
                target = tuple(x + (1 if k == i else 0)
                               for k, x in enumerate(d, start=1))
                for p in enumerate_points(n, d):
                    for q in enumerate_points(n, target):
                        lhs = shapovalov_pair(
                            ctx, apply_op(E, basis_vector(ctx, p), box + 1),
                            basis_vector(ctx, q))
                        rhs = shapovalov_pair(
                            ctx, basis_vector(ctx, p),
                            apply_op(F, basis_vector(ctx, q), box + 1))
                        assert eq_exact(lhs, rhs)

    def test_symmetric(self):
        ctx = ModuleContext(2)
        d = (2,)
        x = whittaker_k(ctx, d)
        y = whittaker_w(ctx, d)
        assert eq_exact(shapovalov_pair(ctx, x, y),
                        shapovalov_pair(ctx, y, x))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sheaf_rgamma_at_degree_zero_is_one(self, n):
        ctx = ModuleContext(n)
        assert eq_exact(sheaf_rgamma(ctx, (0,) * (n - 1)),
                        RatFunc.one(ctx.ring))


class TestWhittakerVectors:
    @pytest.mark.parametrize("n", [2, 3])
    def test_degree_zero_components_are_unit(self, n):
        ctx = ModuleContext(n)
        z = FixedPoint.zero(n)
        for vec in (whittaker_k(ctx, z.degree), whittaker_w(ctx, z.degree)):
            assert set(vec.coeffs) == {z}
            assert eq_exact(vec.coeffs[z], RatFunc.one(ctx.ring))

    @pytest.mark.parametrize("n,box", [(2, 3), (3, 2)], ids=lambda x: str(x))
    def test_structure_sheaf_vector_eigen(self, n, box):
        ctx = ModuleContext(n)
        for i in range(1, n):
            for d in itertools.product(range(box + 1), repeat=n - 1):
                assert lowering_eigen_check(ctx, i, d,
                                            lowering_edges(ctx, i, d))

    @pytest.mark.parametrize("n,box", [(2, 3), (3, 2)], ids=lambda x: str(x))
    def test_dual_vector_eigen(self, n, box):
        ctx = ModuleContext(n)
        for i in range(1, n):
            for d in itertools.product(range(box + 1), repeat=n - 1):
                assert dual_eigen_check(ctx, i, d, lowering_edges(ctx, i, d))


class TestPushforwardIdentity:
    @pytest.mark.parametrize("i,upper,mid", [
        (1, (), (3,)),
        (2, (3,), (2, 1)),
        (2, (5,), (0, 4)),
        (3, (4, 2), (3, 1, 2)),
        (4, (7, 5, 3), (6, 4, 2, 1)),
    ], ids=lambda x: str(x))
    def test_exact_low_rank(self, i, upper, mid):
        lhs, rhs = line_pushforward_sides(i + 1, i, upper, mid)
        assert eq_exact(lhs, rhs)

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_partial_fractions(self, i):
        assert partial_fraction_identity(i)

    def test_row_validation(self):
        with pytest.raises(UsageError):
            line_pushforward_sides(3, 2, (1, 2), (1, 1))

    def test_sides_live_in_the_context_ring(self):
        lhs, rhs = line_pushforward_sides(3, 1, (), (1,))
        assert lhs.ring is ModuleContext(3).ring
        assert rhs.ring is ModuleContext(3).ring


def pushforward_records(ctx, box):
    return [r for r in whittaker_records(ctx, box)
            if r["check"] == "line-pushforward-identity"]


class TestPushforwardOncePerRowPair:
    """The identity reads only (i, row i - 1, row i), so the suite decides
    it once per such triple and reports it at every point."""

    def test_one_decision_per_row_pair(self, monkeypatch):
        calls = []
        sides = whittaker.line_pushforward_sides

        def counted(n, i, upper, mid):
            calls.append((i, upper, mid))
            return sides(n, i, upper, mid)

        monkeypatch.setattr(whittaker, "line_pushforward_sides", counted)
        records = pushforward_records(ModuleContext(4), 2)
        assert len(calls) == len(set(calls)) == 50
        assert len(records) == 222
        assert all(r["status"] == "pass" for r in records)

    def test_broken_product_fails_every_point(self, monkeypatch):
        raising = whittaker.raising_product

        def scaled(ring, *rows_and_column):
            return raising(ring, *rows_and_column).scale_poly(ring.v(1))

        monkeypatch.setattr(whittaker, "raising_product", scaled)
        ctx = ModuleContext(4)
        records = pushforward_records(ctx, 2)
        assert all(r["status"] == "fail" for r in records)
        assert [(r["i"], r["point"]) for r in records] == [
            (i, [list(row) for row in p.rows]) for i in range(1, 4)
            for d in all_degrees(4, 2) for p in ctx.points(d)]


class TestWhittakerPairing:
    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_matches_localized(self, n):
        ctx = ModuleContext(n)
        for d in itertools.product(range(4), repeat=n - 1):
            if sum(d) > 3:
                continue
            assert eq_exact(whittaker_pair_closed(ctx, d), shapovalov_pair(
                ctx, whittaker_k(ctx, d), whittaker_w(ctx, d)))

    def test_zero_degree_value(self):
        ctx = ModuleContext(3)
        assert eq_exact(whittaker_pair_closed(ctx, (0, 0)),
                        RatFunc.one(ctx.ring))

    def test_failing_pairing_names_its_point(self, monkeypatch):
        # theta_p scaled by v at one point of degree (1, 1) breaks the
        # pointwise identity there and nowhere else
        rows = ((1,), (1, 0))
        weight = whittaker.pairing_weight

        def scaled(ctx, p):
            theta = weight(ctx, p)
            return theta.scale_poly(ctx.ring.v(1)) if p.rows == rows else theta

        monkeypatch.setattr(whittaker, "pairing_weight", scaled)
        failed = [r for r in whittaker_records(ModuleContext(3), 2)
                  if r["check"] == "whittaker-pairing-two-path"
                  and r["status"] != "pass"]
        assert failed == [{"check": "whittaker-pairing-two-path",
                           "degree": [1, 1], "status": "fail",
                           "point": [[1], [1, 0]]}]


def point_sum(ctx, degree):
    """The coefficient sum the old way, the reference for the transfer: one
    flat rat_sum of sym_factor(p) over the points of the degree."""
    return rat_sum(ctx.ring, [ctx.sym_factor(p) for p in ctx.points(degree)])


class TestTransfer:
    """sheaf_rgamma sums the products of the adjacent-row pieces by the
    transfer over rows; its value is the point-by-point sum's."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_transfer_equals_the_point_sum(self, n):
        ctx = ModuleContext(n)
        for d in all_degrees(n, 2):
            assert eq_exact(sheaf_rgamma(ctx, d), point_sum(ctx, d)), d

    def test_a_shifted_run_of_the_last_piece_fails(self, bind_everywhere):
        # the mutant moves one framing run of the last piece, which only
        # points with a_{n-1,1} > 0 carry: degree 0 still agrees
        degrees = all_degrees(4, 2)
        reference = ModuleContext(4)
        want = {d: point_sum(reference, d) for d in degrees}
        assert bind_everywhere(characters._add_piece, last_piece_run_shifted)
        ctx = ModuleContext(4)
        wrong = [d for d in degrees if not eq_exact(sheaf_rgamma(ctx, d),
                                                    want[d])]
        assert wrong and (0, 0, 0) not in wrong


def broken_lowering(n, i, degree, edit):
    """A context whose F_i (closed entries) is the real operator except at
    the point of `degree` with the most entries, where edit(ring, terms)
    replaces its terms; returns the context and that point."""
    ctx = ModuleContext(n)
    real = op_F(ModuleContext(n), i)
    p0 = max(ctx.points(degree), key=lambda p: len(real.terms(p)))

    def fn(p):
        return edit(ctx.ring, real.terms(p)) if p == p0 else real.terms(p)

    ctx.memo("F", (i, "closed"), lambda: GradedOperator(real.label,
                                                        real.shift, fn))
    return ctx, p0


def scale_first_entry_by_v(ring, terms):
    (q, c), *rest = terms
    return [(q, c.scale_poly(ring.v(1)))] + rest


def drop_last_entry(ring, terms):
    return terms[:-1]


def failing(ctx, box, check):
    """The (i, degree) of every record of `check` that does not pass."""
    return [(r["i"], tuple(r["degree"])) for r in whittaker_records(ctx, box)
            if r["check"] == check and r["status"] != "pass"]


class TestBrokenOperatorsFail:
    """The entrywise adjoint and eigen checks are not vacuous: a lowering
    operator with one wrong or missing entry fails exactly the records that
    read it."""

    @pytest.mark.parametrize("edit,i,degree", [
        (scale_first_entry_by_v, 1, (1, 0)),
        (scale_first_entry_by_v, 2, (1, 2)),
        (drop_last_entry, 2, (1, 2)),
    ], ids=["scaled-row-1", "scaled-row-2", "dropped-row-2"])
    def test_adjoint_fails(self, edit, i, degree):
        ctx, p0 = broken_lowering(3, i, degree, edit)
        if edit is drop_last_entry:
            assert len(op_F(ModuleContext(3), i).terms(p0)) \
                == 2  # one of two entries is dropped
        below = tuple(x - (1 if k == i else 0)
                      for k, x in enumerate(degree, 1))
        assert failing(ctx, 1, "raising-lowering-adjoint") == [(i, below)]

    @pytest.mark.parametrize("edit,i,degree", [
        (scale_first_entry_by_v, 1, (1, 0)),
        (scale_first_entry_by_v, 2, (0, 1)),
        (drop_last_entry, 2, (1, 2)),
    ], ids=["scaled-row-1", "scaled-row-2", "dropped-row-2"])
    def test_every_reader_of_the_broken_entry_fails(self, edit, i, degree):
        # the adjoint check and both eigen checks read the one list of
        # lowering edges F_i[q -> p] S(T_q) of (i, d)
        ctx, _ = broken_lowering(3, i, degree, edit)
        below = tuple(x - (1 if k == i else 0)
                      for k, x in enumerate(degree, 1))
        failed = [(r["check"], r["i"], tuple(r["degree"]))
                  for r in whittaker_records(ctx, 2) if r["status"] != "pass"]
        assert failed == [(check, i, below) for check in (
            "raising-lowering-adjoint", "structure-sheaf-vector-eigen",
            "dual-vector-eigen")]

    def test_structure_sheaf_eigen_fails(self):
        ctx, _ = broken_lowering(3, 1, (1, 0), scale_first_entry_by_v)
        assert failing(ctx, 1, "structure-sheaf-vector-eigen") == [(1, (0, 0))]
        assert failing(ModuleContext(3), 1,
                       "structure-sheaf-vector-eigen") == []
