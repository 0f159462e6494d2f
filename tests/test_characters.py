"""Tests for tangent characters and localization weights.

The closed multiplicity formulas are validated against the independent
sheaf-Hom chain oracle across a grid of ranks and degrees.
"""

import itertools
from fractions import Fraction

import pytest

from qtoda.characters import (
    based_correction,
    char_dimension,
    corr_tangent_char,
    corr_tangent_char_oracle,
    det_weight,
    line_weight,
    modification_weight,
    piece_char,
    sym_inverse,
    tangent_char,
    tangent_char_oracle,
    weight_inverse,
    weight_ratio,
)
from qtoda.fixed_points import (FixedPoint, all_degrees, enumerate_points,
                                raise_moves)
from qtoda.operators import ModuleContext
from qtoda.symbolic import (DegeneracyError, EvalPoint, RatFunc, UsageError,
                            eq_exact, geometric_block, poly_sum, tv_ring)


def grid(max_n, max_total):
    for n in range(2, max_n + 1):
        ring = tv_ring(n)
        for degree in itertools.product(range(max_total + 1), repeat=n - 1):
            if sum(degree) > max_total:
                continue
            yield n, ring, degree


class TestTangentChar:
    @pytest.mark.parametrize("n,ring,degree", list(grid(4, 4)),
                             ids=lambda x: str(x))
    def test_closed_form_matches_oracle(self, n, ring, degree):
        for p in enumerate_points(n, degree):
            assert tangent_char(ring, p) == tangent_char_oracle(ring, p)

    @pytest.mark.parametrize("n,ring,degree", list(grid(4, 3)),
                             ids=lambda x: str(x))
    def test_dimension(self, n, ring, degree):
        # the moduli space is smooth of dimension 2 * (total degree)
        for p in enumerate_points(n, degree):
            assert char_dimension(tangent_char(ring, p)) == 2 * sum(degree)

    def test_isolated_and_multiplicity_positive(self):
        ring = tv_ring(3)
        for p in enumerate_points(3, (2, 3)):
            chi = tangent_char(ring, p)
            for exps, mult in chi.sorted_terms():
                assert mult > 0
                assert any(e != 0 for e in exps)

    def test_rank_two_by_hand(self):
        # single row (d): weights v^{2l} and t2^2 t1^{-2} v^{2l} for l = 1..d
        ring = tv_ring(2)
        d = 3
        p = FixedPoint(2, ((d,),))
        chi = tangent_char(ring, p)
        expected = ring.zero()
        for l in range(1, d + 1):
            expected = expected + ring.v(2 * l)
            expected = expected + ring.t_monomial({2: 2, 1: -2}, v_power=2 * l)
        assert chi == expected


def block_sum_tangent_char(ring, p):
    """The closed character as a sum of geometric blocks, one per run of
    v-powers, minus the framing correction: the reference for the one-pass
    multiplicity dict, bound included."""
    n = ring.n
    total = ring.zero()
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            m = weight_ratio(ring, k, j)
            if j < k:
                a = p.entry(k - 1, j)
                total = total + geometric_block(0, a, m)
                total = total - geometric_block(a - p.entry(k, k) + 1, a, m)
            for i in range(max(j, k), n):
                lo = p.entry(i, j) - p.entry(i, k) + 1
                hi = p.entry(i, j) - p.entry(i + 1, k)
                total = total + geometric_block(lo, hi, m)
    return total - based_correction(ring)


class TestOnePassTangentChar:
    @pytest.mark.parametrize("n,box", [(2, 4), (3, 3), (4, 2), (5, 2),
                                       (6, 1)], ids=lambda x: str(x))
    def test_matches_the_block_sum_and_the_oracle(self, n, box):
        ring = tv_ring(n)
        for d in all_degrees(n, box):
            for p in enumerate_points(n, d):
                chi = tangent_char(ring, p)
                want = block_sum_tangent_char(ring, p)
                assert chi.terms == want.terms
                assert chi.bound == want.bound
                assert chi == tangent_char_oracle(ring, p)


def last_piece_run_shifted(ring, i, upper, lower):
    """`piece_char` with one run off by one: in the last piece, the framing
    run l = 1..a_{n-1,1} of the weight t_n^2 t_1^{-2} v^{2l} moves to
    l = 2..a_{n-1,1} + 1."""
    piece = piece_char(ring, i, upper, lower)
    a = upper[0]
    if i < ring.n - 1 or not a:
        return piece
    return piece + weight_ratio(ring, ring.n, 1, 2 * (a + 1)) \
        - weight_ratio(ring, ring.n, 1, 2)


def pieces(p):
    """(i, row i, row i + 1) for i = 1..n-1, row n zero."""
    rows = p.rows + ((0,) * p.n,)
    return [(i, rows[i - 1], rows[i]) for i in range(1, p.n)]


class TestPieces:
    """The tangent character splits into pieces, piece i reading rows i and
    i + 1 alone; the Toda series sums their factors by a transfer."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_pieces_sum_to_the_oracle(self, n):
        ring = tv_ring(n)
        for d in all_degrees(n, 2):
            for p in enumerate_points(n, d):
                total = poly_sum(ring, [piece_char(ring, *x)
                                        for x in pieces(p)])
                assert total == tangent_char_oracle(ring, p), p

    @pytest.mark.parametrize("n", [4, 5])
    def test_piece_factors_multiply_to_the_sym_factor(self, n):
        ctx = ModuleContext(n)
        for d in all_degrees(n, 2):
            for p in ctx.points(d):
                product = RatFunc.one(ctx.ring)
                for x in pieces(p):
                    product = product * ctx.piece_factor(*x)
                whole = sym_inverse(tangent_char(ctx.ring, p))
                assert eq_exact(product, whole), p
                # sym_factor is that product: the same num/den, to the byte
                assert ctx.sym_factor(p).to_json() == whole.to_json(), p

    def test_a_piece_may_carry_negative_multiplicities(self):
        # piece 1 of [[0]; [0, 1]] is -t_2^2 t_1^{-2}, which piece 2 takes
        # back, and its factor tracks 1 - w upstairs
        ring = tv_ring(3)
        chi = piece_char(ring, 1, (0,), (0, 1))
        assert chi == -weight_ratio(ring, 2, 1)
        with pytest.raises(DegeneracyError):
            sym_inverse(chi)
        assert eq_exact(weight_inverse(chi) * weight_inverse(-chi),
                        RatFunc.one(ring))

    def test_trivial_weight_rejected(self):
        ring = tv_ring(2)
        with pytest.raises(DegeneracyError):
            weight_inverse(ring.v(2) - ring.one())

    @pytest.mark.parametrize("i,upper,lower", [
        (0, (), (0,)), (3, (0, 0, 0), (0, 0, 0, 0)), (1, (1,), (0,)),
        (2, (1,), (0, 0, 0))])
    def test_rows_must_fit_the_piece(self, i, upper, lower):
        with pytest.raises(UsageError):
            piece_char(tv_ring(3), i, upper, lower)


class TestCorrespondenceChar:
    @pytest.mark.parametrize("n,ring,degree", list(grid(4, 3)),
                             ids=lambda x: str(x))
    def test_closed_form_matches_oracle(self, n, ring, degree):
        for p in enumerate_points(n, degree):
            for i in range(1, n):
                for _, j in raise_moves(p, i):
                    assert corr_tangent_char(ring, p, i, j) == \
                        corr_tangent_char_oracle(ring, p, i, j)

    @pytest.mark.parametrize("n,ring,degree", list(grid(4, 3)),
                             ids=lambda x: str(x))
    def test_dimension(self, n, ring, degree):
        # the modification correspondence is smooth of dimension 2|d| + 1
        for p in enumerate_points(n, degree):
            for i in range(1, n):
                for _, j in raise_moves(p, i):
                    chi = corr_tangent_char(ring, p, i, j)
                    assert char_dimension(chi) == 2 * sum(degree) + 1

    def test_isolated(self):
        ring = tv_ring(3)
        for p in enumerate_points(3, (1, 2)):
            for i in (1, 2):
                for _, j in raise_moves(p, i):
                    chi = corr_tangent_char(ring, p, i, j)
                    for exps, mult in chi.sorted_terms():
                        assert mult > 0
                        assert any(e != 0 for e in exps)

    def test_modification_weight(self):
        ring = tv_ring(3)
        p = FixedPoint(3, ((2,), (1, 3)))
        assert modification_weight(ring, p, 2, 1) == line_weight(ring, 1, 1)
        assert modification_weight(ring, p, 2, 2) == line_weight(ring, 2, 3)

    def test_a_raise_that_breaks_a_column_raises(self):
        # raising entry (2, 1) of [[1]; [1, 0]] puts 2 below 1 in column 1;
        # the closed form once returned a character there, holding the
        # trivial weight at multiplicity -1
        ring = tv_ring(3)
        p = FixedPoint(3, ((1,), (1, 0)))
        assert 1 not in [j for _, j in raise_moves(p, 2)]
        for fn in (corr_tangent_char, corr_tangent_char_oracle,
                   modification_weight):
            with pytest.raises(UsageError):
                fn(ring, p, 2, 1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_every_position_but_a_raise_raises(self, n):
        # the three functions are defined at the raising moves alone
        ring = tv_ring(n)
        for d in all_degrees(n, 2):
            for p in enumerate_points(n, d):
                for i in range(n + 1):
                    moves = ({j for _, j in raise_moves(p, i)}
                             if 1 <= i <= n - 1 else set())
                    for j in range(i + 2):
                        if j in moves:
                            modification_weight(ring, p, i, j)
                            continue
                        for fn in (corr_tangent_char,
                                   corr_tangent_char_oracle,
                                   modification_weight):
                            with pytest.raises(UsageError):
                                fn(ring, p, i, j)


class TestSymInverse:
    def test_simple(self):
        ring = tv_ring(2)
        chi = ring.t_monomial({1: 2}) + ring.const(2) * ring.v(2)
        s = sym_inverse(chi)
        den = (ring.one() - ring.t_monomial({1: 2})) \
            * (ring.one() - ring.v(2)) * (ring.one() - ring.v(2))
        # the expanded product is no tracked binomial: s is compared with
        # 1/den by cross-multiplication and by exact evaluation
        num, s_den = s.num_den()
        assert num * den == s_den
        point = EvalPoint.of(2, Fraction(-3, 5), 3)
        assert s.eval(point) == 1 / den.eval(point)

    def test_orientations_differ_by_sign_and_monomial(self):
        # the opposite orientation inverts every weight:
        # 1/(1-w^{-1}) == -w/(1-w)
        ring = tv_ring(2)
        w = ring.t_monomial({2: 2, 1: -2}, v_power=1)
        w_inv = ring.t_monomial({2: -2, 1: 2}, v_power=-1)
        assert eq_exact(sym_inverse(w_inv), -(sym_inverse(w).scale_poly(w)))

    def test_trivial_weight_rejected(self):
        ring = tv_ring(2)
        with pytest.raises(DegeneracyError):
            sym_inverse(ring.one() + ring.v(2))

    def test_negative_multiplicity_rejected(self):
        ring = tv_ring(2)
        with pytest.raises(DegeneracyError):
            sym_inverse(-ring.v(2))

    def test_structure_sheaf_coeffs(self):
        ring = tv_ring(2)
        [p] = enumerate_points(2, (2,))
        chi = tangent_char(ring, p)
        prod = RatFunc.one(ring)
        for exps, mult in chi.sorted_terms():
            for _ in range(mult):
                prod = prod * RatFunc.from_poly(ring.one() - ring.monomial(exps))
        assert eq_exact(sym_inverse(chi) * prod, RatFunc.one(ring))


class TestDetWeight:
    def test_zero_point_is_one(self):
        ring = tv_ring(3)
        assert det_weight(ring, FixedPoint.zero(3)).is_one()

    def test_raise_cocycle(self):
        # raising entry (i, j) from a multiplies the weight by t_j^{-2} v^{2a}
        ring = tv_ring(3)
        for p in enumerate_points(3, (1, 2)):
            for i in (1, 2):
                for q, j in raise_moves(p, i):
                    a = p.entry(i, j)
                    step = ring.t_monomial({j: -2}, v_power=2 * a)
                    assert det_weight(ring, q) == det_weight(ring, p) * step

    def test_explicit_value(self):
        ring = tv_ring(2)
        p = FixedPoint(2, ((3,),))
        assert det_weight(ring, p) == ring.t_monomial({1: -6}, v_power=6)


def test_sym_inverse_nonzero_at_generic_point():
    ring = tv_ring(3)
    p = enumerate_points(3, (2, 1))[0]
    s = sym_inverse(tangent_char(ring, p))
    pt = EvalPoint.of(2, 3, 5, 7)
    assert s.eval(pt) != 0
