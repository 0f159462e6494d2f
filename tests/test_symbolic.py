"""Tests for the exact Laurent / rational-function core."""

import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtoda import characters, symbolic
from qtoda.symbolic import (
    SLOT_LIMIT,
    ArithmeticDomainError,
    EvalPoint,
    EvaluationError,
    LaurentPoly,
    RatFunc,
    Ring,
    TVRing,
    UsageError,
    binomial_quotient,
    combination_is_zero,
    eq_exact,
    generic_ring,
    geometric_block,
    pack,
    poly_product,
    poly_sum,
    rat_sum,
    sum_is_zero,
    tv_ring,
    unpack,
)

R2 = tv_ring(2)


def poly_strategy(ring, max_terms=5, max_exp=3, max_coeff=9):
    exps = st.tuples(*[st.integers(-max_exp, max_exp)] * ring.nvars)
    term = st.tuples(exps, st.integers(-max_coeff, max_coeff))
    return st.lists(term, max_size=max_terms).map(
        lambda items: LaurentPoly.from_json(ring, [[list(e), c] for e, c in items])
    )


class TestLaurentPoly:
    def test_zero_and_one(self):
        assert R2.zero().is_zero()
        assert R2.one().is_one()
        assert (R2.one() - R2.one()).is_zero()

    def test_t_and_v_constructors(self):
        p = R2.t(1) * R2.t(2, -2) * R2.v(3)
        assert p.sorted_terms() == [((1, -2, 6), 1)]
        assert R2.t_monomial({}, v_doubled_extra=1).sorted_terms() \
            == [((0, 0, 1), 1)]
        assert R2.t_monomial({2: 4}, v_power=-1, coeff=-3).sorted_terms() \
            == [((0, 4, -2), -3)]

    def test_bad_index(self):
        with pytest.raises(UsageError):
            R2.t(3)
        with pytest.raises(UsageError):
            R2.t(0)

    @given(poly_strategy(R2), poly_strategy(R2), poly_strategy(R2))
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + R2.zero() == a
        assert a * R2.one() == a
        assert (a - a).is_zero()

    @given(poly_strategy(R2), poly_strategy(R2))
    @settings(max_examples=40, deadline=None)
    def test_eval_is_homomorphism(self, a, b):
        point = EvalPoint.of(2, 3, Fraction(1, 2))
        assert (a * b).eval(point) == a.eval(point) * b.eval(point)
        assert (a + b).eval(point) == a.eval(point) + b.eval(point)

    @given(poly_strategy(R2))
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip(self, a):
        assert LaurentPoly.from_json(R2, a.to_json()) == a

    @pytest.mark.parametrize("data", [
        None,                        # not a list: TypeError
        [[[0, 1, 0]]],               # a term without its coefficient
        [[[0, 1, 0], "1", "2"]],     # a term with an extra field
        [[7, "1"]],                  # exponents not a list: TypeError
        [[[0, "x", 0], "1"]],        # exponent not an integer
        [[[0, 1, 0], "one"]],        # coefficient not an integer
        [[[0, 1, 0], None]],         # coefficient None: TypeError
        [[[0, 1, 0], 2.5]],          # int() would truncate it to 2
        [[[0, 1.5, 0], "1"]],        # int() would truncate it to 1
        [[[0, 1, 0], True]],         # int() would read it as 1
        [[[0, False, 0], "1"]],      # int() would read it as 0
        [[[0, 1, 0], " 12 "]],       # int() strips the spaces
        [[["0", "1_0", "0"], "1"]],  # int() reads it as 10
        [[[0, 1, 0], "+5"]],         # to_json never writes a plus sign
        [[[0, 1, 0], "\u0663"]],     # int() reads Arabic-Indic 3 as 3
        [[[0, "\uff11\uff12", 0], "1"]],  # int() reads fullwidth 12
        [["120", "7"]],              # would read 7 t1 t2^2, digit by digit
    ], ids=["none", "short-term", "long-term", "exponents-int",
            "exponent-text", "coefficient-text", "coefficient-none",
            "coefficient-float", "exponent-float", "coefficient-bool",
            "exponent-bool", "coefficient-spaces", "exponent-underscore",
            "coefficient-plus", "coefficient-arabic-indic",
            "exponent-fullwidth", "exponents-text"])
    def test_malformed_json_is_a_usage_error(self, data):
        with pytest.raises(UsageError):
            LaurentPoly.from_json(R2, data)

    @pytest.mark.parametrize("text", [
        "0", "7", "-7", "007", "-007", "", "-", "--1", "-+1", "+1", " 1",
        "1 ", "1\n", "1_0", "1.0", "1e3", "\u0663", "\uff11", "\u00b2",
        "-\u0663", "12a"])
    def test_json_int_reads_the_decimal_form_alone(self, text):
        # the reference is the pattern -?[0-9]+ that to_json writes
        if re.fullmatch("-?[0-9]+", text):
            assert symbolic.json_int(text) == int(text)
        else:
            with pytest.raises(UsageError):
                symbolic.json_int(text)

    def test_pow(self):
        p = R2.one() + R2.t(1)
        three = R2.const(3)
        assert p ** 3 == R2.one() + three * R2.t(1) + three * R2.t(1, 2) + R2.t(1, 3)
        with pytest.raises(UsageError):
            p ** -1

    def test_substitute_det_one(self):
        # t1*t2 -> 1 and t2^2 -> t1^{-2} for n=2
        assert R2.substitute_det_one(R2.t(1) * R2.t(2)) == R2.one()
        assert R2.substitute_det_one(R2.t(2, 2)) == R2.t(1, -2)
        p = R2.t(1) * R2.v(1) - R2.t(2, -1) * R2.v(1)
        assert R2.substitute_det_one(p).is_zero()

    def test_sorted_terms_canonical(self):
        p = R2.t(2) + R2.t(1) + R2.v(1) + R2.const(5)
        exps = [e for e, _ in p.sorted_terms()]
        assert exps == [(0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 2)]


def grlex(exps):
    return (sum(exps), exps)


def exps_strategy(nvars, limit=SLOT_LIMIT):
    """Exponent vectors whose every key digit, total degree included, is in
    range."""
    return st.tuples(*[st.integers(-limit, limit)] * nvars).filter(
        lambda e: abs(sum(e)) <= SLOT_LIMIT)


def digit_bound(p):
    """The largest key digit magnitude p really has."""
    return max((max(abs(sum(e)), *map(abs, e)) for e, _ in p.sorted_terms()),
               default=0)


def naive_product(a, b):
    """Reference product on exponent tuples."""
    out = {}
    for ea, ca in a.sorted_terms():
        for eb, cb in b.sorted_terms():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return sorted(((e, c) for e, c in out.items() if c), key=lambda t: grlex(t[0]))


class TestValueSemantics:
    """Rings and evaluation points compare and hash by their fields: the
    `lru_cache`s `weight_ratio`, `_one_minus` and `toda._shift` are keyed
    by a ring."""

    def test_a_fresh_tv_ring_equals_the_cached_one_and_hashes_alike(self):
        cached = tv_ring(3)
        fresh = TVRing(names=cached.names, n=3)
        assert fresh is not cached
        assert fresh == cached and hash(fresh) == hash(cached)
        # so a cache keyed by the ring serves both: the cached ring builds
        # the entry, and the fresh one finds it
        built = characters.weight_ratio(cached, 1, 2, 2)
        assert characters.weight_ratio(fresh, 1, 2, 2) is built
        assert TVRing(names=cached.names, n=2) != cached
        assert TVRing(names=cached.names[::-1], n=3) != cached

    def test_a_ring_never_equals_a_tv_ring(self):
        torus = tv_ring(2)
        plain = generic_ring(torus.names)
        assert plain != torus and torus != plain
        assert not plain == torus and not torus == plain
        assert len({plain, torus}) == 2
        again = Ring(torus.names)
        assert plain == again and hash(plain) == hash(again)

    def test_an_eval_point_with_a_zero_coordinate_is_a_usage_error(self):
        for values in [(2, 0, 3), (0,), (Fraction(0, 5), 1)]:
            with pytest.raises(UsageError):
                EvalPoint.of(*values)
        with pytest.raises(UsageError):
            EvalPoint((Fraction(1), Fraction(0)))
        point = EvalPoint.of(2, Fraction(1, 2))
        assert point.values == (Fraction(2), Fraction(1, 2))
        assert point == EvalPoint((Fraction(2), Fraction(1, 2)))
        assert hash(point) == hash(EvalPoint.of(2, Fraction(1, 2)))
        assert point != EvalPoint.of(Fraction(1, 2), 2)

    def test_reprs_name_the_fields(self):
        assert repr(tv_ring(1)) == "TVRing(names=('t1', 'v'), n=1)"
        assert repr(generic_ring(["a", "b"])) == "Ring(names=('a', 'b'))"
        assert (repr(EvalPoint.of(2, Fraction(1, 2)))
                == "EvalPoint(values=(Fraction(2, 1), Fraction(1, 2)))")


class TestPacking:
    @given(st.integers(1, 6).flatmap(exps_strategy))
    @settings(max_examples=200, deadline=None)
    def test_unpack_inverts_pack(self, exps):
        assert unpack(pack(exps), len(exps)) == exps

    @given(st.integers(1, 6).flatmap(exps_strategy))
    @settings(max_examples=200, deadline=None)
    def test_key_bound_reads_the_slot_bound_off_the_key(self, exps):
        assert symbolic._key_bound(pack(exps)) == slot_bound(exps)

    @given(st.lists(exps_strategy(3), min_size=2, max_size=12, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_key_order_is_graded_lex(self, exps_list):
        by_key = [unpack(k, 3) for k in sorted(map(pack, exps_list))]
        assert by_key == sorted(exps_list, key=grlex)

    @given(poly_strategy(R2, max_exp=40), poly_strategy(R2, max_exp=40))
    @settings(max_examples=40, deadline=None)
    def test_product_matches_eval(self, a, b):
        point = EvalPoint.of(2, Fraction(-3, 5), Fraction(7, 2))
        assert (a * b).eval(point) == a.eval(point) * b.eval(point)

    @given(poly_strategy(R2, max_exp=SLOT_LIMIT // 6),
           poly_strategy(R2, max_exp=SLOT_LIMIT // 6))
    @settings(max_examples=60, deadline=None)
    def test_wide_exponents_against_tuple_reference(self, a, b):
        prod = a * b
        assert prod.sorted_terms() == naive_product(a, b)
        # the expanded binomial 1 - x^s of each term x^e, s = ±e
        binomials = [RatFunc.from_frac(R2.one(), one_minus(e)).num_den()[1]
                     for f in (a, b) for e, _ in f.sorted_terms() if any(e)]
        for p in (prod, a + b, a - b, -a, *binomials):
            assert digit_bound(p) <= p.bound <= SLOT_LIMIT

    def test_slot_at_the_limit_raises(self):
        assert R2.t(1, SLOT_LIMIT).sorted_terms() == [((SLOT_LIMIT, 0, 0), 1)]
        for bad in (SLOT_LIMIT + 1, -SLOT_LIMIT - 1):
            with pytest.raises(UsageError):
                R2.t(1, bad)
            with pytest.raises(UsageError):
                LaurentPoly.from_json(R2, [[[0, bad, 0], "1"]])
        # every exponent in range, but the total degree is not
        with pytest.raises(UsageError):
            R2.monomial((SLOT_LIMIT, 1, 0))

    def test_product_that_could_overflow_raises(self):
        assert R2.t(1, SLOT_LIMIT - 1) * R2.t(1) == R2.t(1, SLOT_LIMIT)
        with pytest.raises(UsageError):
            R2.t(1, SLOT_LIMIT) * R2.t(2)
        with pytest.raises(UsageError):
            R2.t(1, SLOT_LIMIT // 2 + 1) ** 2
        # the bound is checked, not the exponents: these would cancel
        with pytest.raises(UsageError):
            R2.t(1, SLOT_LIMIT) * R2.t(1, -1)

    def test_the_constructor_guards_the_bound(self):
        # every operation reaches the limit through this one check, so no
        # polynomial past it exists, one built by hand included
        assert LaurentPoly(R2, {0: 1}, SLOT_LIMIT).is_one()
        with pytest.raises(UsageError):
            LaurentPoly(R2, {0: 1}, SLOT_LIMIT + 1)


def one_minus(s):
    return R2.one() - R2.monomial(s)


def step_strategy(max_exp=3):
    """A nonzero step s with pack(s) > 0, so 1 - x^s is a tracked binomial."""
    return st.tuples(*[st.integers(-max_exp, max_exp)] * R2.nvars).filter(
        any).map(lambda s: s if pack(s) > 0 else tuple(-x for x in s))


def tracked_factor(max_exp=3):
    """c x^e or c x^e (1 - x^s), c = ±1 and pack(s) > 0: the two shapes of
    factor a RatFunc splits and tracks."""
    exps = st.tuples(*[st.integers(-max_exp, max_exp)] * R2.nvars)
    sign = st.sampled_from([1, -1])
    return st.one_of(
        st.tuples(exps, sign).map(lambda t: R2.monomial(*t)),
        st.tuples(exps, step_strategy(2), sign).map(
            lambda t: R2.monomial(t[0], t[2]) * one_minus(t[1])))


@st.composite
def binomial_lists(draw):
    """1-6 (1 - x^s, exponent) pairs, s of either sign, odd and even
    exponents, and at times a pair repeated with the opposite exponent, so
    it cancels."""
    signed_step = st.tuples(step_strategy(), st.sampled_from([1, -1])).map(
        lambda t: tuple(t[1] * x for x in t[0]))
    pairs = draw(st.lists(st.tuples(signed_step.map(one_minus),
                                    st.integers(-3, 3)),
                          min_size=1, max_size=5))
    if draw(st.booleans()):
        f, e = pairs[draw(st.integers(0, len(pairs) - 1))]
        pairs.append((f, -e))
    return pairs


class TestRatFunc:
    def test_div_and_cancel(self):
        one_minus_v2 = R2.one() - R2.v(2)
        a = RatFunc.from_frac(R2.one(), one_minus_v2)
        # multiplying by the same tracked factor cancels at the multiset level
        b = a * RatFunc.from_factors(R2, R2.one(), [(one_minus_v2, 1)])
        assert not b.factors
        assert b.num_den() == (R2.one(), R2.one())

    def test_zero_denominator_raises(self):
        with pytest.raises(ArithmeticDomainError):
            RatFunc.from_frac(R2.one(), R2.zero())
        with pytest.raises(ArithmeticDomainError):
            RatFunc.from_poly(R2.zero()).inv()

    def test_geometric_identity(self):
        # 1/(1-v^2) + 1/(1-v^{-2}) == 1
        a = RatFunc.from_frac(R2.one(), R2.one() - R2.v(2))
        b = RatFunc.from_frac(R2.one(), R2.one() - R2.v(-2))
        total = a + b
        assert eq_exact(total, RatFunc.one(R2))

    def test_monomial_factors_absorbed(self):
        # dividing by a pure monomial should not create a tracked factor
        r = RatFunc.from_frac(R2.t(1, 3) * R2.v(2), R2.t(2, -5))
        assert not r.factors
        assert r.unit == R2.t(1, 3) * R2.t(2, 5) * R2.v(2)

    def test_non_reduction_documented(self):
        # (t1^2 - v^2)/(t1 - v) is NOT reduced: no polynomial GCD is taken.
        num = R2.t(1, 2) - R2.v(2)
        den = R2.t(1) - R2.v(1)
        r = RatFunc.from_frac(num, den)
        assert r.num_den()[1] != R2.one()
        # but equality with the reduced form still holds
        assert eq_exact(r, RatFunc.from_poly(R2.t(1) + R2.v(1)))

    def test_sign_normalization_cancels(self):
        # (v^2 - 1) and -(1 - v^2) must share one canonical tracked factor
        a = RatFunc.from_frac(R2.one(), R2.v(2) - R2.one())
        b = RatFunc.from_factors(R2, R2.one(), [(R2.one() - R2.v(2), 1)])
        assert eq_exact(a * b, -RatFunc.one(R2))
        assert not (a * b).factors

    @given(tracked_factor(), poly_strategy(R2, max_terms=3),
           binomial_lists())
    @settings(max_examples=30, deadline=None)
    def test_field_axioms_random(self, f, p, pairs):
        # a unit inverts when it is itself a tracked factor
        a = RatFunc.from_factors(R2, f, pairs)
        assert eq_exact(a * a.inv(), RatFunc.one(R2))
        b = RatFunc.from_factors(R2, p, pairs)
        assert eq_exact(b - b, RatFunc.zero(R2))
        assert eq_exact(b + b, b.scale_poly(R2.const(2)))

    def test_eval(self):
        r = RatFunc.from_frac(R2.t(1) + R2.t(2), R2.one() - R2.v(2))
        # last coordinate is the value of v^(1/2), so v^2 evaluates to 2^4
        pt = EvalPoint.of(2, 3, 2)
        assert r.eval(pt) == Fraction(5, 1 - 16)

    def test_zero_over_zero_raises_whichever_factor_came_first(self):
        # (1 - v^4) / (1 - v^2) at v^(1/2) = 1: both binomials vanish, so
        # the value is no Fraction, whichever factor was tracked first
        num, den = R2.one() - R2.v(4), R2.one() - R2.v(2)
        for pairs in ([(num, 1), (den, -1)], [(den, -1), (num, 1)]):
            r = RatFunc.from_factors(R2, R2.one(), pairs)
            with pytest.raises(EvaluationError):
                r.eval(EvalPoint.of(2, 3, 1))
            # and away from it the value is 1 + v^2 = 1 + 2^4
            assert r.eval(EvalPoint.of(2, 3, 2)) == 17
        # a vanishing numerator binomial alone gives 0
        r = RatFunc.from_factors(R2, R2.t(1), [(num, 1), (one_minus((1, 0, 0)), -1)])
        assert r.eval(EvalPoint.of(2, 3, 1)) == 0

    def test_to_json_shape(self):
        r = RatFunc.from_frac(R2.t(1), R2.one() - R2.v(2))
        d = r.to_json()
        assert set(d) == {"num", "den"}
        assert LaurentPoly.from_json(R2, d["den"]) == R2.one() - R2.v(2)


class TestRatSumAndOracles:
    def test_rat_sum_common_denominator(self):
        one_minus_v2 = R2.one() - R2.v(2)
        a = RatFunc.from_frac(R2.one(), one_minus_v2)
        b = RatFunc.from_frac(R2.v(2), one_minus_v2)
        s = rat_sum(R2, [a, -b])
        assert s.num_den()[0] == one_minus_v2 * R2.one() \
            or eq_exact(s, RatFunc.one(R2))
        assert eq_exact(s, RatFunc.one(R2))

    def test_a_lone_part_prints_as_the_sum_of_its_pieces(self):
        # m (1 - v^2) / (1 - v^2), as a broken diagonal conjugation folds
        # its pieces m / (1 - v^2) and -v^2 m / (1 - v^2) into one part
        m = R2.t(1) ** 2 * R2.t(2) ** -2
        one_minus_v2 = R2.one() - R2.v(2)
        over = RatFunc.from_frac(R2.one(), one_minus_v2)
        lone = over.scale_poly(m * one_minus_v2)
        pieces = [over.scale_poly(m), over.scale_poly(-R2.v(2) * m)]
        assert lone.num_den() == (m * one_minus_v2, one_minus_v2)
        assert rat_sum(R2, [lone]).to_json() == rat_sum(R2, pieces).to_json() \
            == RatFunc.from_poly(m).to_json()
        # a binomial divides out only as often as the division is exact
        twice = over.scale_poly(m * one_minus_v2) * over
        assert rat_sum(R2, [twice]).num_den() == (m, one_minus_v2)
        # and one whose numerator it does not divide is left as it is
        assert rat_sum(R2, [over]).num_den() == over.num_den()

    def test_lazy_sum_zero(self):
        a = RatFunc.from_frac(R2.one(), R2.one() - R2.v(2))
        b = RatFunc.from_frac(R2.one(), R2.one() - R2.v(-2))
        parts = [a, b, -RatFunc.one(R2)]
        assert rat_sum(R2, parts).is_zero()
        assert not rat_sum(R2, parts + [RatFunc.from_poly(R2.t(1))]).is_zero()

    def test_mixed_ring_rejected(self):
        other = generic_ring(["x"])
        with pytest.raises(UsageError):
            eq_exact(RatFunc.one(R2), RatFunc.one(other))


class TestPolySum:
    @given(st.lists(poly_strategy(R2), max_size=5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_repeated_sum(self, polys, cancel):
        if cancel:
            polys = polys + [-p for p in reversed(polys)]
        total = poly_sum(R2, polys)
        repeated = R2.zero()
        for p in polys:
            repeated = repeated + p
        # and a reference that adds coefficients by exponent vector
        want = {}
        for p in polys:
            for e, c in p.sorted_terms():
                want[e] = want.get(e, 0) + c
        assert total == repeated
        assert dict(total.sorted_terms()) == {e: c for e, c in want.items()
                                              if c}
        assert total.bound == max((p.bound for p in polys), default=0)
        if cancel:
            assert total.is_zero()

    def test_empty_is_zero(self):
        total = poly_sum(R2, [])
        assert total.is_zero() and total.ring is R2 and total.bound == 0

    def test_mixed_rings_are_a_usage_error(self):
        other = tv_ring(3)
        for polys in ([R2.one(), other.one()], [other.one()],
                      [R2.zero(), other.zero()]):
            with pytest.raises(UsageError):
                poly_sum(R2, polys)
        with pytest.raises(UsageError):
            R2.one() + other.one()


class TestPolyProduct:
    @given(st.lists(poly_strategy(R2, max_terms=3), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_repeated_product(self, polys):
        # monomials, general polynomials and the zero polynomial alike
        repeated = R2.one()
        for p in polys:
            repeated = repeated * p
        total = poly_product(R2, polys)
        assert total == repeated
        assert digit_bound(total) <= total.bound \
            == sum(p.bound for p in polys)

    def test_empty_is_one_and_monomials_need_no_product(self, monkeypatch):
        assert poly_product(R2, []) == R2.one()
        monkeypatch.setattr(LaurentPoly, "__mul__", None)
        m = poly_product(R2, [R2.t(1, 2), R2.const(-3), R2.v(-1),
                              R2.t(2) + R2.v(1)])
        # v^-1 is stored with doubled exponent -2
        assert m == LaurentPoly.from_json(R2, [[[2, 1, -2], -3],
                                                [[2, 0, 0], -3]])

    def test_mixed_rings_and_overflow_are_usage_errors(self):
        with pytest.raises(UsageError):
            poly_product(R2, [R2.one(), tv_ring(3).one()])
        big = R2.t(1, SLOT_LIMIT)
        with pytest.raises(UsageError):
            poly_product(R2, [big, R2.t(1)])
        with pytest.raises(UsageError):
            poly_product(R2, [big, R2.t(1) + R2.one()])


class TestCombinationIsZero:
    @given(poly_strategy(R2), st.lists(st.tuples(
        poly_strategy(R2, max_terms=3, max_exp=2), poly_strategy(R2)),
        max_size=4), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_the_sum_of_products(self, base, multiples, cancel):
        # multipliers of any number of terms, zero among them
        if cancel:
            base = -poly_sum(R2, [c * p for c, p in multiples])
        want = poly_sum(R2, [base] + [c * p for c, p in multiples])
        assert combination_is_zero(base, multiples) == want.is_zero()
        if cancel:
            assert combination_is_zero(base, multiples)

    def test_multi_term_multipliers_cancel_to_zero(self):
        # (v + v^-1) v^2 p - v p - v^3 p and (v + v^-1) q - (v + v^-1) q
        # both vanish, though no multiplier is a monomial
        v = R2.v
        p, q = R2.t(1) - R2.t(2, 2), R2.t(1) + v(3)
        vv = v(1) + v(-1)
        assert combination_is_zero(R2.zero(), [
            (vv * v(2), p), (-v(1), p), (-v(3), p),
            (vv, q), (-v(1) - v(-1), q)])
        assert not combination_is_zero(R2.zero(), [(vv, p), (-v(1), p)])
        assert combination_is_zero(R2.zero(), [])
        assert combination_is_zero(R2.zero(), [(R2.zero(), p)])

    def test_monomial_multipliers_shift_keys(self):
        p = R2.t(1) - R2.v(2)
        base = -(R2.t(2, 3) * p) + R2.const(2) * p
        assert combination_is_zero(base, [(R2.t(2, 3), p), (R2.const(-2), p)])
        assert not combination_is_zero(base, [(R2.t(2, 3), p)])

    def test_slot_limit_and_ring_are_checked(self):
        big = R2.t(1, SLOT_LIMIT)
        for c in (R2.t(1), R2.t(1) + R2.v(1)):
            with pytest.raises(UsageError):
                combination_is_zero(R2.zero(), [(c, big)])
        other = tv_ring(3)
        with pytest.raises(UsageError):
            combination_is_zero(R2.zero(), [(other.one(), R2.one())])
        with pytest.raises(UsageError):
            combination_is_zero(R2.zero(), [(R2.one(), other.one())])
        with pytest.raises(UsageError):
            combination_is_zero(other.one(), [(R2.one(), R2.one())])


class TestGeometricBlock:
    def test_basic(self):
        m = R2.t(1)
        assert geometric_block(0, 2, m) == m + m * R2.v(2) + m * R2.v(4)
        assert geometric_block(1, 0, m).is_zero()
        assert geometric_block(-1, -1, m) == m * R2.v(-2)

    def test_telescoping(self):
        m = R2.one()
        full = geometric_block(0, 5, m)
        assert full == geometric_block(0, 2, m) + geometric_block(3, 5, m)


def tuple_monomial(ring, exps, coeff=1):
    """Reference monomial, built through the exponent-tuple path."""
    return LaurentPoly.from_json(ring, [[list(exps), coeff]])


def slot_bound(exps):
    return max(abs(sum(exps)), *map(abs, exps))


nonzero_coeff = st.integers(-9, 9).filter(bool)
wide = st.integers(-SLOT_LIMIT - 2, SLOT_LIMIT + 2)


class TestKeyConstructors:
    """The constructors that build keys directly, against the tuple path."""

    def test_one_torus_ring_per_rank(self):
        assert tv_ring(4) is tv_ring(4)
        assert tv_ring(3) is not tv_ring(4)
        for _ in range(2):
            with pytest.raises(UsageError):
                tv_ring(0)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_v_power_matches_the_tuple_monomial(self, n):
        ring = tv_ring(n)
        for k in range(-6, 7):
            got, want = ring.v(k), ring.monomial([0] * n + [2 * k])
            assert got.terms == want.terms and got.bound == want.bound

    @given(st.integers(1, 5).flatmap(
        lambda k: st.tuples(*[wide] * k)), nonzero_coeff)
    @settings(max_examples=150, deadline=None)
    def test_monomial(self, exps, c):
        ring = generic_ring([f"x{j}" for j in range(len(exps))])
        if slot_bound(exps) > SLOT_LIMIT:
            with pytest.raises(UsageError):
                ring.monomial(exps, c)
            return
        m = ring.monomial(exps, c)
        assert m.terms == {pack(exps): c}
        assert slot_bound(exps) <= m.bound <= SLOT_LIMIT

    @given(st.dictionaries(st.integers(1, 3), wide, max_size=3),
           st.integers(-SLOT_LIMIT // 2 - 1, SLOT_LIMIT // 2 + 1),
           st.integers(-3, 3), nonzero_coeff)
    @settings(max_examples=150, deadline=None)
    def test_t_monomial(self, t_exps, v_power, extra, c):
        ring = tv_ring(3)
        exps = [t_exps.get(i, 0) for i in (1, 2, 3)] + [2 * v_power + extra]
        if slot_bound(exps) > SLOT_LIMIT:
            with pytest.raises(UsageError):
                ring.t_monomial(t_exps, v_power, extra, c)
            return
        m = ring.t_monomial(t_exps, v_power, extra, c)
        assert m.terms == tuple_monomial(ring, exps, c).terms
        assert digit_bound(m) <= m.bound <= SLOT_LIMIT

    @given(poly_strategy(R2), st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=80, deadline=None)
    def test_geometric_block(self, m, lo, hi):
        want = R2.zero()
        for l in range(lo, hi + 1):
            want = want + m * tuple_monomial(R2, (0, 0, 4 * l))
        got = geometric_block(lo, hi, m)
        assert got.terms == want.terms
        assert digit_bound(got) <= got.bound <= SLOT_LIMIT

    @given(poly_strategy(R2), tracked_factor(max_exp=5),
           st.integers(-3, 3))
    @settings(max_examples=120, deadline=None)
    def test_with_factor(self, unit, f, e):
        r = RatFunc.from_factors(R2, unit, [(f, e)])
        # f = sign * x^low * (1 - x^s), low being f's graded-lex-least term
        low, c = f.sorted_terms()[0]
        sign = 1 if c > 0 or e % 2 == 0 else -1
        want = unit * tuple_monomial(R2, [x * e for x in low], sign)
        assert r.unit.terms == want.terms
        assert digit_bound(r.unit) <= r.unit.bound <= SLOT_LIMIT

    @given(exps_strategy(3, limit=200), st.sampled_from([1, -1, 2, -5]),
           st.integers(-6, 6))
    @settings(max_examples=120, deadline=None)
    def test_monomial_power(self, exps, c, k):
        m = tuple_monomial(R2, exps, c)
        if k < 0 and c not in (1, -1):
            with pytest.raises(UsageError):
                m ** k
            return
        got = m ** k
        assert got.terms == \
            tuple_monomial(R2, [x * k for x in exps], c ** abs(k)).terms
        assert digit_bound(got) <= got.bound <= SLOT_LIMIT

    def test_digit_past_the_limit_raises(self):
        with pytest.raises(UsageError):
            R2.t_monomial({}, v_doubled_extra=SLOT_LIMIT + 1)
        with pytest.raises(UsageError):
            R2.t_monomial({1: SLOT_LIMIT, 2: 1})
        with pytest.raises(UsageError):
            R2.t(1, SLOT_LIMIT // 3 + 1) ** -3
        with pytest.raises(UsageError):
            geometric_block(0, SLOT_LIMIT // 4 + 1, R2.one())
        with pytest.raises(UsageError):
            RatFunc.from_factors(R2, R2.t(2, SLOT_LIMIT // 2),
                                 [(R2.one() - R2.t(1, -(SLOT_LIMIT // 2)), 2)])
        # the span s of a two-term factor has digits up to twice its bound:
        # here t_1^(2h + 2) with h = SLOT_LIMIT // 2, whose digits would wrap
        h = SLOT_LIMIT // 2
        with pytest.raises(UsageError):
            RatFunc.from_frac(R2.one(), R2.t(1, -(h + 2)) - R2.t(1, h + 2))
        with pytest.raises(UsageError):
            RatFunc.from_factors(R2, R2.one(),
                                 [(R2.t(1, h + 1) - R2.t(1, -(h + 1)), 1)])

    def test_a_wide_factor_whose_span_fits_is_tracked_exactly(self):
        # t_1^h - t_1^(h+3) = t_1^h (1 - t_1^3) has bound h + 3 and span 3
        h = SLOT_LIMIT // 2
        f = R2.t(1, h) - R2.t(1, h + 3)
        r = RatFunc.from_factors(R2, R2.one(), [(f, -1)])
        assert r.factors == {pack((3, 0, 0)): -1}
        num, den = r.num_den()
        assert num == R2.t(1, -h) and den == R2.one() - R2.t(1, 3)

    def test_factor_shifts_that_cancel_leave_the_unit_as_it_is(self):
        # f = 1 - t_1^-h = -t_1^-h (1 - t_1^h) shifts the unit by t_1^-h and
        # f^-1 shifts it back: the unit is not moved, so the bound the two
        # shifts would add up to is never given to a polynomial
        unit = R2.t(2, SLOT_LIMIT // 2)
        f = R2.one() - R2.t(1, -(SLOT_LIMIT // 2))
        r = RatFunc.from_factors(R2, unit, [(f, 1), (f, -1)])
        assert r.unit is unit and not r.factors
        # g = -(1 - t_1) has sign -1 and no shift: the unit is only negated
        g = R2.t(1) - R2.one()
        r = RatFunc.from_factors(R2, unit, [(f, 1), (f, -1), (g, 1)])
        assert r.unit == -unit and r.unit.bound == unit.bound

    def test_factor_shifts_that_partly_cancel_bound_the_net_shift(self):
        # f^2 f^-1 = f shifts the unit by t_1^-(h/5) once, so its bound
        # grows by h/5 once: h/2 + h/5 is in range, where the bounds of
        # the three shifts that f^2 and f^-1 make, summed, are not
        h = SLOT_LIMIT
        unit = R2.t(2) ** (h // 2)
        f = R2.one() - R2.t(1, -(h // 5))
        r = RatFunc.from_factors(R2, unit, [(f, 2), (f, -1)])
        want = RatFunc.from_factors(R2, unit, [(f, 1)])
        # f = -t_1^-h/5 (1 - t_1^h/5): the unit takes the monomial, and the
        # binomial stays tracked
        assert r.unit == want.unit == -(R2.t(1, -(h // 5)) * unit)
        assert r.factors == want.factors
        assert r.unit.bound == h // 2 + h // 5 <= SLOT_LIMIT

    def test_the_unit_bound_does_not_depend_on_factor_order(self):
        # f and g share their least term t_1^-1, whose own bound is 1; g's
        # bound is 10 (its v^5), which must not leak into the shift
        f = R2.t(1, -1) - R2.one()
        g = R2.t(1, -1) * (R2.one() - R2.v(5))
        fg = RatFunc.from_factors(R2, R2.one(), [(f, 1), (g, 1)])
        gf = RatFunc.from_factors(R2, R2.one(), [(g, 1), (f, 1)])
        assert fg.unit == gf.unit == R2.t(1, -2)
        assert fg.unit.bound == gf.unit.bound == 2

    def test_a_net_shift_past_the_limit_raises(self):
        # f^7 f^-1 = f^6 shifts t_1 by -6 (h / 5), which is past the limit
        h = SLOT_LIMIT
        f = R2.one() - R2.t(1, -(h // 5))
        with pytest.raises(UsageError):
            RatFunc.from_factors(R2, R2.t(2) ** (h // 2), [(f, 7), (f, -1)])

    def test_negative_power_of_a_non_monomial_raises(self):
        for p in (R2.t(1) - R2.v(1), R2.zero(), R2.const(3),
                  R2.t_monomial({1: 2}, coeff=-2)):
            with pytest.raises(UsageError):
                p ** -1

    def test_a_unit_monomial_inverts_exactly(self):
        # the unit of a sym factor, +-x^a, as the pairing weight inverts it
        for c in (1, -1):
            m = R2.t_monomial({1: -3, 2: 2}, v_power=5, coeff=c)
            assert (m ** -1).terms == {-k: c for k in m.terms}
            assert (m * m ** -1).is_one()


def sorted_reference_quotient(p, s_key):
    """The residue-sorted division with no line pre-check: every numerator
    with p(1) = 0 is sorted, residue class by residue class in key order,
    and the first line that fails to close rejects it."""
    terms = p.terms
    if sum(terms.values()) or 2 * p.bound > SLOT_LIMIT:
        return None
    span = 2 * p.bound // slot_bound(unpack(s_key, p.ring.nvars))
    keys = sorted(terms)
    keys.sort(key=s_key.__rmod__)
    q = {}
    prefix = 0
    for key, after in zip(keys, keys[1:]):
        prefix += terms[key]
        if prefix:
            steps, off = divmod(after - key, s_key)
            if off or steps > span:
                return None
            q[key] = prefix
            for m in range(1, steps):
                q[key + m * s_key] = prefix
    return LaurentPoly(p.ring, q, p.bound)


def on_line(e0, e, s):
    """Whether e lies on the lattice line e0 + Z s."""
    d = [x - y for x, y in zip(e, e0)]
    k = next(i for i, x in enumerate(s) if x)
    return d[k] % s[k] == 0 and all(x == d[k] // s[k] * y
                                    for x, y in zip(d, s))


def least_line_sum(p, s):
    """The coefficient sum of p on the line through its least term, read
    from exponent tuples."""
    terms = p.sorted_terms()
    return sum(c for e, c in terms if on_line(terms[0][0], e, s))


def binomial_pair(e, u):
    """x^e (1 - x^u), whose coefficients sum to 0; its terms lie on one
    line in direction s only when u is a multiple of s."""
    return R2.monomial(e) - R2.monomial(tuple(x + y for x, y in zip(e, u)))


small_exps = st.tuples(*[st.integers(-3, 3)] * R2.nvars)


class TestBinomialQuotient:
    @given(poly_strategy(R2, max_terms=12, max_exp=3), step_strategy(2))
    @settings(max_examples=100, deadline=None)
    def test_divisible_inputs_match_the_sorted_reference(self, p, s):
        target = p * one_minus(s)
        assert binomial_quotient(target, pack(s)) == p
        assert sorted_reference_quotient(target, pack(s)) == p

    @given(poly_strategy(R2, max_terms=8, max_exp=3), step_strategy(2),
           small_exps, small_exps, nonzero_coeff)
    @settings(max_examples=100, deadline=None)
    def test_an_open_least_line_rejects_before_any_sort(self, p, s, e, u,
                                                         c):
        target = p * one_minus(s) + binomial_pair(e, u) * R2.const(c)
        assume(least_line_sum(target, s))
        assert not sum(target.terms.values())
        assert sorted_reference_quotient(target, pack(s)) is None
        with mock.patch.object(symbolic, "sorted", create=True,
                               side_effect=AssertionError("sorted")):
            assert binomial_quotient(target, pack(s)) is None

    @given(step_strategy(2), small_exps, small_exps, nonzero_coeff)
    @settings(max_examples=100, deadline=None)
    def test_a_closed_least_line_leaves_the_rest_to_the_sort(self, s, e, u,
                                                              c):
        # x^a (1 - x^s) with a far below every other term: the least line
        # closes, and the line of x^e may not
        a = (-20, -20, -20)
        target = binomial_pair(a, s) + binomial_pair(e, u) * R2.const(c)
        assume(not least_line_sum(target, s))
        want = sorted_reference_quotient(target, pack(s))
        assume(want is None)
        with mock.patch.object(symbolic, "sorted", create=True,
                               wraps=sorted) as sort:
            assert binomial_quotient(target, pack(s)) is None
        assert sort.call_count == 1

    @given(step_strategy(), st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_the_zero_polynomial_divides_to_zero(self, s, bound):
        zero = LaurentPoly(R2, {}, bound)
        assert binomial_quotient(zero, pack(s)).is_zero()
        assert sorted_reference_quotient(zero, pack(s)).is_zero()

    @given(poly_strategy(R2, max_exp=6), step_strategy())
    @settings(max_examples=80, deadline=None)
    def test_every_quotient_multiplies_back(self, p, s):
        for target in (p, p * one_minus(s)):
            q = binomial_quotient(target, pack(s))
            if q is not None:
                assert one_minus(s) * q == target
                assert q.bound <= target.bound
        assert binomial_quotient(p * one_minus(s), pack(s)) == p

    @given(poly_strategy(R2, max_exp=6), step_strategy(),
           st.tuples(*[st.integers(-9, 9)] * R2.nvars),
           st.integers(-9, 9).filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_non_multiple_gives_none(self, p, s, e, c):
        # adding one monomial moves the sum of its line off 0
        assert binomial_quotient(p * one_minus(s) + R2.monomial(e, c),
                                 pack(s)) is None

    @given(st.integers(1, 5), st.integers(1, 4),
           exps_strategy(3, SLOT_LIMIT // 2 - 30).filter(
               lambda e: abs(sum(e)) <= SLOT_LIMIT // 2 - 30))
    @settings(max_examples=80, deadline=None)
    def test_keys_equal_mod_the_step_on_distinct_lines(self, a, k, e):
        # s = (0, a, -a) and d = (-k a, k a, 0) are not parallel, yet
        # pack(d) = -k 2**24 pack(s): the keys of x^e and x^(e+d) agree mod
        # pack(s), so they share a residue class but lie on distinct lines.
        # The digits reach up to the largest bound the division accepts.
        s, d = (0, a, -a), (-k * a, k * a, 0)
        assert pack(d) % pack(s) == 0
        far = R2.monomial(tuple(x + y for x, y in zip(e, d)))
        pair = R2.monomial(e) - far
        assert binomial_quotient(pair, pack(s)) is None
        assert binomial_quotient(pair * one_minus(s), pack(s)) == pair

    def test_digits_at_the_limit_never_give_a_wrong_quotient(self):
        s = (0, 1, -1)
        e = (SLOT_LIMIT - 4, -(SLOT_LIMIT - 4), SLOT_LIMIT - 8)
        pair = R2.monomial(e) - R2.monomial((e[0] - 1, e[1] + 1, e[2]))
        for p in (pair, pair * one_minus(s)):
            q = binomial_quotient(p, pack(s))
            assert q is None or one_minus(s) * q == p


class TestNoZeroCoefficient:
    """Terms that cancel leave no zero coefficient behind: every sum and
    product adds through one accumulator, which deletes them."""

    @given(poly_strategy(R2), poly_strategy(R2), st.sets(st.integers(0, 4)),
           step_strategy())
    @settings(max_examples=80, deadline=None)
    def test_cancelling_inputs_store_no_zero(self, p, q, picked, s):
        # minus the picked terms of p, so p + part cancels them
        part = poly_sum(R2, [R2.monomial(e, -c) for j, (e, c)
                             in enumerate(p.sorted_terms()) if j in picked])
        got = [
            (p + q) * (p - q),  # the cross terms p q - q p cancel
            p * q - q * p, p + part, part - p, p - p, -part + part,
            poly_sum(R2, [p, q, part, -q]),
            poly_sum(R2, [p * q, -(q * p), part]),
            binomial_quotient(p * one_minus(s), pack(s)),
            binomial_quotient((p + part) * one_minus(s), pack(s)),
        ]
        for r in got:
            assert 0 not in r.terms.values(), r
        assert got[1].is_zero() and got[4].is_zero() and got[5].is_zero()
        assert got[6] == p + part == got[9]


def ratfunc_strategy(max_factors=3):
    """unit * prod (1 - x^s)^e over a few shared steps, so sums share
    denominators and cancel."""
    steps = [(0, 0, 2), (1, -1, 0), (0, 1, 2), (1, 0, -2)]
    factor = st.tuples(st.sampled_from(steps), st.integers(-2, 1))
    return st.tuples(poly_strategy(R2, max_terms=3, max_exp=2),
                     st.lists(factor, max_size=max_factors)).map(
        lambda uf: RatFunc.from_factors(
            R2, uf[0], [(one_minus(s), e) for s, e in uf[1]]))


@st.composite
def factor_lists(draw):
    """1-6 (factor, exponent) pairs: unit monomials, shifted binomials
    whose least key is negative and whose lead may be negative, and at
    times a factor repeated with the opposite exponent, so it cancels."""
    exps = st.tuples(*[st.integers(-3, 0)] * R2.nvars)
    sign = st.sampled_from([1, -1])
    factor = st.one_of(
        st.tuples(exps, sign).map(lambda t: R2.monomial(*t)),
        st.tuples(exps, step_strategy(2), sign).map(
            lambda t: R2.monomial(t[0], t[2]) * one_minus(t[1])))
    pairs = draw(st.lists(st.tuples(factor, st.integers(-3, 3)),
                          min_size=1, max_size=5))
    if draw(st.booleans()):
        f, e = pairs[draw(st.integers(0, len(pairs) - 1))]
        pairs.append((f, -e))
    return pairs


class TestFromFactors:
    @given(poly_strategy(R2, max_terms=3, max_exp=2), factor_lists())
    @settings(max_examples=120, deadline=None)
    def test_one_pass_matches_the_product_of_single_factors(self, unit,
                                                            pairs):
        got = RatFunc.from_factors(R2, unit, pairs)
        want = RatFunc.from_poly(unit)
        for f, e in pairs:
            want = want * RatFunc.from_factors(R2, R2.one(), [(f, e)])
        assert eq_exact(got, want)
        assert got.factors == want.factors
        assert got.unit.terms == want.unit.terms
        assert digit_bound(got.unit) <= got.unit.bound <= SLOT_LIMIT

    def test_zero_unit_and_zero_factors(self):
        zero = RatFunc.from_poly(R2.zero())
        assert zero._with_factors([(R2.zero(), -1)]) is zero
        f = one_minus((0, 0, 2))
        with pytest.raises(ArithmeticDomainError):
            RatFunc.from_factors(R2, R2.one(), [(f, 1), (R2.zero(), -1)])
        r = RatFunc.from_factors(R2, R2.t(1), [(f, -1), (R2.zero(), 2)])
        assert r.is_zero() and not r.factors
        assert not RatFunc.from_factors(R2, R2.t(1), [(R2.zero(), 0)]) \
            .is_zero()


class TestTrackedBinomials:
    @given(poly_strategy(R2, max_terms=3, max_exp=2).filter(
        lambda p: not p.is_zero()), binomial_lists())
    @settings(max_examples=150, deadline=None)
    def test_binomials_of_either_sign_match_the_tuple_reference(self, unit,
                                                               pairs):
        # 1 - x^s is tracked under pack(s) for pack(s) > 0, and
        # 1 - x^-s = -x^-s (1 - x^s) moves -x^-s into the unit
        got = RatFunc.from_factors(R2, unit, pairs)
        powers, want = {}, unit
        for f, e in pairs:
            [s] = [x for x, _ in f.sorted_terms() if any(x)]
            if pack(s) < 0:
                want = want * tuple_monomial(R2, s, -1) ** e
                s = tuple(-x for x in s)
            powers[pack(s)] = powers.get(pack(s), 0) + e
        assert got.factors == {k: e for k, e in powers.items() if e}
        assert got.unit.terms == want.terms
        assert digit_bound(got.unit) <= got.unit.bound <= SLOT_LIMIT
        for point in POINTS:
            vals = [f.eval(point) for f, _ in pairs]
            if 0 in vals:
                continue
            value = unit.eval(point)
            for val, (_, e) in zip(vals, pairs):
                value *= val ** e
            assert got.eval(point) == value

    def test_equal_binomials_share_one_key(self):
        s = (0, 1, 2)
        minus_s = tuple(-x for x in s)
        a = RatFunc.from_factors(R2, R2.one(), [(one_minus(s), -1)])
        b = RatFunc.from_factors(R2, R2.t(1), [(one_minus(s), 2)])
        c = RatFunc.from_factors(R2, R2.one(), [(one_minus(minus_s), 1)])
        assert a.factors == {pack(s): -1}
        assert b.factors == {pack(s): 2}
        assert c.factors == {pack(s): 1}
        assert (a * b * c).factors == {pack(s): 2}


@st.composite
def tagged_factors(draw):
    """(factor, s): c x^e (1 - x^s) with c = ±1 and pack(s) > 0, or a general
    nonzero polynomial with s = None."""
    if draw(st.booleans()):
        e = draw(st.tuples(*[st.integers(-3, 3)] * R2.nvars))
        s = draw(step_strategy())
        c = draw(st.sampled_from([1, -1]))
        return R2.monomial(e, c) * one_minus(s), pack(s)
    return draw(poly_strategy(R2, max_terms=4, max_exp=3).filter(
        lambda p: not p.is_zero())), None


class TestFactorSplit:
    @given(tagged_factors())
    @settings(max_examples=200, deadline=None)
    def test_the_key_is_read_off_the_factor(self, tagged):
        # read from exponent tuples: f = c x^low (1 - x^step) with c = ±1
        # and step the largest minus the least exponents, or c x^low, or a
        # factor that raises
        f, s = tagged
        terms = f.sorted_terms()
        (low, c), (high, last) = terms[0], terms[-1]
        step = tuple(x - y for x, y in zip(high, low))
        if len(terms) > 2 or c not in (1, -1) or any(step) and last != -c:
            assert s is None
            with pytest.raises(UsageError):
                RatFunc.from_factors(R2, R2.one(), [(f, 1)])
            return
        r = RatFunc.from_factors(R2, R2.one(), [(f, 1)])
        assert r.factors == ({pack(step): 1} if any(step) else {})
        assert r.unit.terms == {pack(low): c}
        if s is not None:
            assert r.factors == {s: 1}

    @pytest.mark.parametrize("f", [
        R2.one() - R2.v(2) * R2.const(2),        # a coefficient 2
        (R2.one() - R2.v(2)) ** 2,               # three terms
        R2.one() + R2.v(2),                      # both signs +
        R2.const(2), R2.t(1, 3) * R2.const(-3),  # monomials, not units
        R2.t(1) + R2.t(2) + R2.v(1),
    ], ids=["one-minus-2v2", "square", "one-plus", "two", "minus-3-t1",
            "three-monomials"])
    def test_any_other_factor_raises(self, f):
        for e in (1, -1, 2):
            with pytest.raises(UsageError):
                RatFunc.from_factors(R2, R2.t(1), [(f, e)])
        with pytest.raises(UsageError):
            RatFunc.from_frac(R2.one(), f)
        with pytest.raises(UsageError):
            RatFunc.from_poly(f).inv()

    def test_every_tracked_key_is_a_positive_int(self):
        r = RatFunc.from_factors(R2, R2.t(1), [
            (one_minus((0, 0, 2)), -2), (one_minus((0, 0, -2)), 1),
            (R2.v(1) - R2.v(-1), -1), (-R2.t(2), 3)])
        # (1 - v)^-2 (1 - v^-1) = -v^-1 (1 - v)^-1, and
        # v - v^-1 = -v^-1 (1 - v^2)
        assert r.factors == {pack((0, 0, 2)): -1, pack((0, 0, 4)): -1}
        assert all(type(s) is int and s > 0 and type(e) is int and e
                   for s, e in r.factors.items())


class TestRingCheck:
    """A tracked key means nothing outside its ring, so each constructor
    checks the ring of the unit and of every factor."""

    def test_a_factor_from_another_ring_raises(self):
        R3 = tv_ring(3)
        foreign = R3.one() - R3.v(2)
        with pytest.raises(UsageError):
            RatFunc.from_factors(R2, R2.one(), [(foreign, -1)])
        with pytest.raises(UsageError):
            RatFunc.from_factors(R2, R2.one(), [(R3.t(1), 1)])
        with pytest.raises(UsageError):
            RatFunc.from_frac(R2.one(), foreign)

    def test_a_unit_from_another_ring_raises(self):
        R3 = tv_ring(3)
        with pytest.raises(UsageError):
            RatFunc.from_factors(R2, R3.one(), [])
        with pytest.raises(UsageError):
            RatFunc.from_factors(R2, R3.t(1), [(one_minus((0, 0, 2)), -1)])
        with pytest.raises(UsageError):
            RatFunc(R2, R3.v(1), {}).inv()
        # an equal ring built afresh is the same ring
        fresh = TVRing(names=R2.names, n=2)
        r = RatFunc.from_factors(fresh, R2.t(1), [(one_minus((0, 0, 2)), -1)])
        assert eq_exact(r, RatFunc.from_frac(R2.t(1), one_minus((0, 0, 2))))


POINTS = [EvalPoint.of(2, 3, Fraction(1, 2)),
          EvalPoint.of(Fraction(-3, 5), 7, 3),
          EvalPoint.of(5, Fraction(2, 7), -2)]


class TestTreeSum:
    @given(st.lists(ratfunc_strategy(), max_size=9), ratfunc_strategy(),
           st.sampled_from([(0, 0, 2), (1, -1, 0)]))
    @settings(max_examples=80, deadline=None)
    def test_tree_sum_matches_evaluation(self, parts, r, s):
        # r/(1 - x^s) - x^s r/(1 - x^s) == r: a pair that must cancel
        split = [r * RatFunc.from_factors(R2, m, [(one_minus(s), -1)])
                 for m in (R2.one(), -R2.monomial(s))]
        parts = parts[:len(parts) // 2] + split + parts[len(parts) // 2:]
        total = rat_sum(R2, parts)
        for point in POINTS:
            try:
                want = sum((p.eval(point) for p in parts), Fraction(0))
            except EvaluationError:
                continue
            assert total.eval(point) == want

    def test_cancellation_reaches_the_reduced_form(self):
        one_minus_v2 = one_minus((0, 0, 4))
        a = RatFunc.from_frac(R2.one(), one_minus_v2)
        b = RatFunc.from_frac(R2.v(2), one_minus_v2)
        s = rat_sum(R2, [a, -b])
        assert s.unit == R2.one() and not s.factors
        # 1 + v^2 (1 - v^2) / (1 - v^2)^2 collapses to 1 / (1 - v^2)
        c = RatFunc.from_factors(R2, R2.v(2), [(one_minus_v2, -2)])
        s = rat_sum(R2, [a, -b, c, -c.scale_poly(R2.v(2))])
        assert s.num_den() == (R2.one(), one_minus_v2)


def retracked(r):
    """r with its numerator expanded and its denominator binomials tracked
    again, one factor per power, from their exponent tuples."""
    num, _ = r.num_den()
    return RatFunc.from_factors(R2, num, [
        (one_minus(unpack(s, R2.nvars)), -1)
        for s, e in r.factors.items() for _ in range(-e)])


class TestEqExact:
    @given(ratfunc_strategy(), ratfunc_strategy(), ratfunc_strategy(),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_stripped_equality_agrees_with_the_difference(self, a, b, shared,
                                                          same):
        # shared factors on both sides; with same, b is a refactored copy of a
        if same:
            b = retracked(a)
        a, b = a * shared, b * shared
        assert eq_exact(a, b) == (a - b).is_zero()
        if same:
            assert eq_exact(a, b)


# Tracked factors that no part of ratfunc_strategy carries; 1 - v^3 is
# divisible by the 1 - v that those parts may have in their denominators,
# and t_2 v - t_1 = -t_1 (1 - t_1^-1 t_2 v) brings a sign and a shift.
SHARED = [one_minus((1, 1, 0)), one_minus((0, 0, 6)),
          R2.t(2) * R2.v(1) - R2.t(1)]


def tracked(f):
    """The key s under which f is tracked."""
    [s] = RatFunc.from_factors(R2, R2.one(), [(f, 1)]).factors
    return s


class TestSharedNumeratorFactors:
    @given(st.lists(st.tuples(ratfunc_strategy(), st.integers(1, 3)),
                    min_size=2, max_size=7),
           st.sampled_from(range(len(SHARED))))
    @settings(max_examples=80, deadline=None)
    def test_shared_factor_stays_tracked(self, parts_powers, which):
        f = SHARED[which]
        parts = [r * RatFunc.from_factors(R2, R2.one(), [(f, k)])
                 for r, k in parts_powers]
        total = rat_sum(R2, parts)
        for point in POINTS:
            try:
                want = sum((p.eval(point) for p in parts), Fraction(0))
            except EvaluationError:
                continue
            assert total.eval(point) == want
        live = [k for (r, k) in parts_powers if not r.is_zero()]
        if not total.is_zero():
            assert total.factors[tracked(f)] == min(live)

    def test_shared_power_is_the_smaller_one(self):
        f = SHARED[0]
        a = RatFunc.from_factors(R2, R2.t(1), [(f, 3), (one_minus((0, 0, 2)), -1)])
        b = RatFunc.from_factors(R2, R2.v(1), [(f, 2)])
        total = a + b
        assert total.factors[tracked(f)] == 2
        assert eq_exact(total, RatFunc.from_factors(
            R2, R2.t(1) * f + R2.v(1) * one_minus((0, 0, 2)),
            [(f, 2), (one_minus((0, 0, 2)), -1)]))

    def test_a_cancelled_partial_sum_expands_no_factor(self):
        # the tree adds 2f and -2f first; their zero sum, which carries no
        # factor, must not lift f out of the remaining part
        f = SHARED[0]
        parts = [RatFunc.from_factors(R2, R2.const(c), [(f, 1)])
                 for c in (1, 2, -2)]
        total = rat_sum(R2, parts)
        assert total.factors == {tracked(f): 1} and total.unit.is_one()
        assert (parts[1] + parts[2]) + parts[0] is parts[0]


class TestProductFastPaths:
    @given(poly_strategy(R2, max_terms=1, max_exp=SLOT_LIMIT // 6),
           poly_strategy(R2, max_terms=1, max_exp=SLOT_LIMIT // 6))
    @settings(max_examples=150, deadline=None)
    def test_one_term_product_matches_the_tuple_reference(self, a, b):
        for x, y in ((a, b), (b, a)):
            prod = x * y
            assert prod.sorted_terms() == naive_product(x, y)
            assert digit_bound(prod) <= prod.bound == x.bound + y.bound

    @given(st.integers(1, 5), st.integers(-9, 9).filter(bool))
    @settings(max_examples=40, deadline=None)
    def test_zero_operand_on_either_side(self, e, c):
        m = R2.t(1, e) * R2.const(c)
        zero = m - m
        assert (zero * m).is_zero() and (m * zero).is_zero()
        assert (R2.zero() * m).is_zero() and (m * R2.zero()).is_zero()

    @given(st.integers(1, 40), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_one_term_bound_past_the_limit_raises(self, over, slot):
        exps = [0, 0, 0]
        exps[slot] = over
        big, small = R2.t(1, SLOT_LIMIT), R2.monomial(exps)
        for x, y in ((big, small), (small, big)):
            with pytest.raises(UsageError):
                x * y
        # the bound is checked before the zero operand is seen
        with pytest.raises(UsageError):
            big * (small - small)

    @given(ratfunc_strategy(), poly_strategy(R2, max_terms=3, max_exp=2),
           st.sampled_from(SHARED + [one_minus((0, 0, 2))]),
           st.integers(-2, 2).filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_shared_factor_dict_is_never_mutated(self, x, p, f, e):
        # at least one factor
        x = x._with_factors([(one_minus((1, 0, 1)), -1)])
        y = RatFunc.from_poly(p)
        before = dict(x.factors)
        for prod in (x * y, y * x, -x, x.scale_poly(p)):
            if prod.is_zero():
                continue
            assert prod.factors is x.factors
            changed = prod._with_factors([(f, e)])
            assert changed.factors is not x.factors
            assert x.factors == before and not y.factors
            assert prod.factors == before


class TestSharedFactorDict:
    @given(ratfunc_strategy(), st.lists(
        poly_strategy(R2, max_terms=3, max_exp=2).filter(
            lambda p: not p.is_zero()), min_size=2, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_shared_dict_shortcut_matches_the_general_path(self, r, units):
        # parts that carry one factor dict object, as the products of one
        # entry with untracked scalars do, against parts with equal copies:
        # either way every factor is common and nothing is expanded, and
        # `common` is a new dict, since `_add` changes it
        shared = [RatFunc(R2, u, r.factors) for u in units]
        copied = [RatFunc(R2, u, dict(r.factors)) for u in units]
        polys, common = symbolic._over_common_den(shared)
        want_polys, want_common = symbolic._over_common_den(copied)
        assert [p.terms for p in polys] == [p.terms for p in want_polys]
        assert [p.bound for p in polys] == [p.bound for p in want_polys]
        assert common == want_common
        assert common is not r.factors


def loop_over_common_den(parts):
    """The lift of `symbolic._over_common_den` as a loop over every tracked
    key alone, with no shortcut for parts that carry equal factor dicts:
    the reference of the shortcut."""
    ring = parts[0].ring
    polys = [r.unit for r in parts]
    keys = {}
    for r in reversed(parts):
        keys.update(r.factors)
    common = {}
    for s in keys:
        powers = [r.factors.get(s, 0) for r in parts]
        m = min(powers)
        if m:
            common[s] = m
        for k, e in enumerate(powers):
            if e != m:
                polys[k] = polys[k] * symbolic._binomial(ring, s) ** (e - m)
    return polys, common


@st.composite
def lift_parts(draw):
    """1-5 nonzero parts whose factor dicts are all equal (one dict object,
    or equal copies built in another order), mixed, or all empty."""
    layout = draw(st.sampled_from(["equal", "reordered", "mixed", "empty"]))
    units = draw(st.lists(poly_strategy(R2, max_terms=3, max_exp=2).filter(
        lambda p: not p.is_zero()), min_size=1, max_size=5))
    if layout == "mixed":
        return [RatFunc(R2, u, draw(ratfunc_strategy()).factors)
                for u in units]
    factors = {} if layout == "empty" else draw(ratfunc_strategy()).factors
    if layout == "reordered":
        return [RatFunc(R2, u, dict(reversed(list(factors.items()))
                                    if k % 2 else factors))
                for k, u in enumerate(units)]
    return [RatFunc(R2, u, factors) for u in units]


class TestLiftShortcut:
    @given(lift_parts())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_loop(self, parts):
        polys, common = symbolic._over_common_den(parts)
        want_polys, want_common = loop_over_common_den(parts)
        assert [p.terms for p in polys] == [p.terms for p in want_polys]
        assert [p.bound for p in polys] == [p.bound for p in want_polys]
        # the same dict, in the same order, which `_add` cancels in
        assert list(common.items()) == list(want_common.items())
        assert all(common is not r.factors for r in parts)

    def test_each_layout_is_covered(self):
        f = one_minus((0, 0, 2))
        g = one_minus((1, -1, 0))
        a = RatFunc.from_factors(R2, R2.t(1), [(f, -1), (g, 2)])
        b = RatFunc(R2, R2.v(1), dict(reversed(list(a.factors.items()))))
        c = RatFunc.from_factors(R2, R2.t(2), [(f, -2)])
        e = RatFunc.from_poly(R2.t(1) + R2.v(1))
        for parts in ([a], [a, b], [b, a, a], [a, c], [c, e], [e, e]):
            polys, common = symbolic._over_common_den(parts)
            want_polys, want_common = loop_over_common_den(parts)
            assert [p.terms for p in polys] \
                == [p.terms for p in want_polys]
            assert list(common.items()) == list(want_common.items())


# Steps s whose 1 - x^s is nonzero at every point of POINTS, so a sum of
# parts built from them evaluates there without a pole.
ZERO_TEST_STEPS = [(0, 0, 2), (1, -1, 0), (0, 1, 2), (1, 0, -2), (1, 1, 0),
                   (0, 0, 6)]


@st.composite
def zero_test_parts(draw):
    """0-5 parts over tracked 1 - x^s factors, laid out so that one factor
    is shared by every denominator, each part has a denominator factor of
    its own, or every part carries a positive power of one factor.  Half the
    time the parts are closed to sum to zero: each is followed by its
    negation refactored as expanded -num over its denominator binomials,
    tracked again (`retracked`), and one negation may be split
    in two along a binomial, m/(1-x^s) - x^s m/(1-x^s) == m."""
    layout = draw(st.sampled_from(["shared", "disjoint", "positive"]))
    step = st.sampled_from(ZERO_TEST_STEPS)
    common = draw(step)
    parts = []
    for k in range(draw(st.integers(0, 5))):
        factors = [(one_minus(s), e) for s, e in draw(st.lists(
            st.tuples(step, st.integers(-2, 1)), max_size=2))]
        if layout == "shared":
            factors.append((one_minus(common), -draw(st.integers(1, 2))))
        elif layout == "disjoint":
            factors.append((one_minus(ZERO_TEST_STEPS[k]), -1))
        else:
            factors.append((one_minus(common), draw(st.integers(1, 3))))
        unit = draw(poly_strategy(R2, max_terms=3, max_exp=2))
        parts.append(RatFunc.from_factors(R2, unit, factors))
    if draw(st.booleans()):
        mirror = [-retracked(p) for p in parts]
        if mirror and draw(st.booleans()):
            s, m = draw(step), mirror.pop(0)
            mirror += [m * RatFunc.from_factors(R2, c, [(one_minus(s), -1)])
                       for c in (R2.one(), -R2.monomial(s))]
        parts = parts + mirror
    return parts


class TestSumIsZero:
    @given(zero_test_parts())
    @settings(max_examples=150, deadline=None)
    def test_verdict_agrees_with_the_tree_sum_and_evaluation(self, parts):
        verdict = sum_is_zero(parts)
        assert verdict == rat_sum(R2, parts).is_zero()
        values = [sum((p.eval(point) for p in parts), Fraction(0))
                  for point in POINTS]
        if verdict:
            assert values == [0, 0, 0]

    def test_a_sum_that_closes_only_over_three_parts(self):
        # 1/(1 - v^2) - v^2/(1 - v^2) - 1 == 0, though no two parts cancel
        f = one_minus((0, 0, 4))
        a = RatFunc.from_frac(R2.one(), f)
        b = RatFunc.from_frac(R2.v(2), f)
        one = RatFunc.one(R2)
        assert sum_is_zero([a, -b, -one])
        for pair in ([a, -b], [a, -one], [-b, -one]):
            assert not sum_is_zero(pair)
        assert not sum_is_zero([a])

    def test_empty_and_all_zero_parts_sum_to_zero(self):
        assert sum_is_zero([])
        zero = RatFunc.from_factors(R2, R2.zero(), [(one_minus((0, 0, 2)), -1)])
        assert sum_is_zero([RatFunc.zero(R2)])
        assert sum_is_zero([zero, RatFunc.zero(R2), -zero])

    def test_mixed_rings_raise(self):
        other = tv_ring(3)
        for parts in ([RatFunc.one(R2), RatFunc.one(other)],
                      [RatFunc.zero(R2), RatFunc.zero(other)],
                      [RatFunc.one(R2), RatFunc.one(R2), RatFunc.zero(other)]):
            with pytest.raises(UsageError):
                sum_is_zero(parts)


@st.composite
def weight_keys(draw):
    """(ring, key, bound) of a weight w: a `weight_ratio` monomial
    t_k^2 t_j^-2 v^l, k = j and l = 0 giving key 0, with its own bound, or
    a weight of a piece character of a fixed point with its character's
    bound; keys of both signs come up."""
    from qtoda.fixed_points import all_degrees, enumerate_points
    n = draw(st.integers(2, 4))
    ring = tv_ring(n)
    if draw(st.booleans()):
        w = characters.weight_ratio(ring, draw(st.integers(1, n)),
                                    draw(st.integers(1, n)),
                                    draw(st.integers(-8, 8)))
        [key] = w.terms
        return ring, key, w.bound
    points = enumerate_points(n, draw(st.sampled_from(all_degrees(n, 2))))
    p = draw(st.sampled_from(points))
    i = draw(st.integers(1, n - 1))
    chi = characters.piece_char(ring, i, p.row(i), p.row(i + 1))
    assume(chi.terms)
    return ring, draw(st.sampled_from(sorted(chi.terms))), chi.bound


def inline_one_minus(ring, key, bound):
    """1 - x^key as the closed products and `weight_inverse` wrote it
    before `symbolic._binomial` built it: zero at key 0, the bound the
    caller held."""
    return LaurentPoly(ring, {0: 1, key: -1} if key else {}, bound)


class TestOneBinomialBuilder:
    """`symbolic._binomial` builds every 1 - x^k: for keys of either sign
    and for k = 0 it has the terms of the inline forms it replaced, the
    exact bound of its keys, and every factor split it feeds is
    unchanged."""

    @given(weight_keys())
    @settings(max_examples=200, deadline=None)
    def test_the_builder_matches_the_inline_binomial(self, drawn):
        ring, key, bound = drawn
        got = symbolic._binomial(ring, key)
        want = inline_one_minus(ring, key, bound)
        assert got.terms == want.terms
        # exact: the largest digit of the key, at most the caller's bound
        exps = unpack(key, ring.nvars)
        assert got.bound == max(abs(sum(exps)), *map(abs, exps)) <= bound
        for e in (-2, -1, 1, 3):
            if not key and e < 0:
                continue
            a = RatFunc.from_factors(ring, ring.t(1), [(got, e)])
            b = RatFunc.from_factors(ring, ring.t(1), [(want, e)])
            assert (a.unit.terms, a.unit.bound, a.factors) == \
                (b.unit.terms, b.unit.bound, b.factors)

    def test_key_zero_gives_zero(self):
        ring = tv_ring(3)
        zero = symbolic._binomial(ring, 0)
        assert zero.is_zero() and zero.bound == 0

    @pytest.mark.parametrize("n", [3, 4])
    def test_piece_factors_are_unchanged(self, n):
        # weight_inverse of every piece character against its factors built
        # from the inline binomial at the character's bound
        from qtoda.fixed_points import all_degrees, enumerate_points
        ring = tv_ring(n)
        for d in all_degrees(n, 2):
            for p in enumerate_points(n, d):
                for i in range(1, n):
                    chi = characters.piece_char(ring, i, p.row(i),
                                                p.row(i + 1))
                    got = characters.weight_inverse(chi)
                    want = RatFunc.from_factors(ring, ring.one(), [
                        (inline_one_minus(ring, key, chi.bound), -mult)
                        for key, mult in sorted(chi.terms.items())])
                    assert (got.unit.terms, got.unit.bound, got.factors) \
                        == (want.unit.terms, want.unit.bound, want.factors)
                    assert list(got.factors) == list(want.factors)
