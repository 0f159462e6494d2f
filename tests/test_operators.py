"""Tests for the graded-module operators and the relation suite.

The two independent construction paths for every non-diagonal operator
(closed factored entries vs localization ratios) are compared entrywise,
and the full defining-relation suite is run over truncation boxes.
"""

import itertools
import json

import pytest

from qtoda import operators, whittaker

from qtoda.fixed_points import FixedPoint, all_degrees, enumerate_points
from qtoda.operators import (
    ModuleContext,
    ModuleVector,
    apply_op,
    basis_vector,
    compose,
    diagonality_check,
    form_at,
    grouped,
    op_E,
    op_F,
    op_K,
    op_L,
    op_e,
    op_f,
    relation_suite,
    summation_records,
    verify_summation_identity,
    verify_relations,
)
from qtoda.symbolic import (SLOT_LIMIT, LaurentPoly, RatFunc, UsageError,
                            eq_exact, rat_sum, sum_is_zero, unpack, v_shifted)


def test_grouped_keeps_first_seen_key_and_item_order():
    groups = grouped([("b", 1), ("a", 2), ("b", 3), ("c", 4), ("a", 5),
                      ("b", 0)])
    assert list(groups.items()) == [("b", [1, 3, 0]), ("a", [2, 5]),
                                    ("c", [4])]
    assert grouped([]) == {}


def degree_grid(max_n, max_total):
    for n in range(2, max_n + 1):
        for degree in itertools.product(range(max_total + 1), repeat=n - 1):
            if sum(degree) <= max_total:
                yield n, degree


class TestDiagonalScalars:
    def test_k_scalar_examples(self):
        ctx2 = ModuleContext(2)
        assert ctx2.k_scalar(1, (0,)) == \
            ctx2.ring.t_monomial({2: 1, 1: -1}, v_power=1)
        ctx3 = ModuleContext(3)
        assert ctx3.k_scalar(1, (1, 1)) == \
            ctx3.ring.t_monomial({2: 1, 1: -1}, v_power=2)

    def test_l_form_examples(self):
        ctx3 = ModuleContext(3)
        # i = 1, d = 0: t_1^{-1} v^{0 + 1*(3-1)/2} = t_1^{-1} v
        assert form_at(ctx3.l_form(1), (0, 0)) == \
            ctx3.ring.t_monomial({1: -1}, v_power=1)
        # i = 2, d = (0, 1): t_1^{-1} t_2^{-1} v^{1 + 2*(3-2)/2}
        assert form_at(ctx3.l_form(2), (0, 1)) == \
            ctx3.ring.t_monomial({1: -1, 2: -1}, v_power=2)

    def test_forms_give_the_closed_scalars(self):
        # the scalars written out here, not read from any form: K_i acts on
        # degree d by t_{i+1} t_i^-1 v^{2d_i - d_{i-1} - d_{i+1} + 1} and L_i
        # by t_1^-1 .. t_i^-1 v^{d_i + i(n-i)/2}, with d_0 = d_n = 0; the
        # last exponent of a monomial counts half units of v
        n = 4
        ctx = ModuleContext(n)
        ring = ctx.ring
        checked = 0
        for degree in all_degrees(n, 2):
            d = (0, *degree, 0)
            for i in range(1, n):
                kappa = ring.monomial(
                    [-(k == i) + (k == i + 1) for k in range(1, n + 1)]
                    + [2 * (2 * d[i] - d[i - 1] - d[i + 1] + 1)])
                ell = ring.monomial([-(k <= i) for k in range(1, n + 1)]
                                    + [2 * d[i] + i * (n - i)])
                assert ctx.k_scalar(i, degree) == kappa
                assert form_at(ctx.l_form(i), degree) == ell
                for power in (-1, 1, 2):
                    assert form_at(op_K(ctx, i, power).form, degree) \
                        == kappa ** power
                    assert form_at(op_L(ctx, i, power).form, degree) \
                        == ell ** power
                cartan = operators._cartan_commutator_rhs(ctx, i)
                assert form_at(cartan.form, degree) == kappa - kappa ** -1
                checked += 1
        assert checked == 3 * 27

    def test_row_index_validation(self):
        ctx = ModuleContext(3)
        with pytest.raises(UsageError):
            ctx.k_scalar(3, (0, 0))
        with pytest.raises(UsageError):
            op_L(ctx, 0)

    def test_k_inverse_power(self):
        ctx = ModuleContext(2)
        K = op_K(ctx, 1)
        Kinv = op_K(ctx, 1, -1)
        p = FixedPoint(2, ((2,),))
        [(q, a)] = K.terms(p)
        [(r, b)] = Kinv.terms(p)
        assert q == p and r == p
        from qtoda.symbolic import RatFunc
        assert eq_exact(a * b, RatFunc.one(ctx.ring))


class TestTwoPathAgreement:
    @pytest.mark.parametrize("n,degree", list(degree_grid(4, 4)),
                             ids=lambda x: str(x))
    def test_raising_entries(self, n, degree):
        ctx = ModuleContext(n)
        for i in range(1, n):
            closed, geom = op_E(ctx, i, "closed"), op_E(ctx, i, "geometric")
            for p in enumerate_points(n, degree):
                a = dict((q.rows, c) for q, c in closed.terms(p))
                b = dict((q.rows, c) for q, c in geom.terms(p))
                assert a.keys() == b.keys()
                for key in a:
                    assert eq_exact(a[key], b[key])

    @pytest.mark.parametrize("n,degree", list(degree_grid(4, 4)),
                             ids=lambda x: str(x))
    def test_lowering_entries(self, n, degree):
        ctx = ModuleContext(n)
        for i in range(1, n):
            closed, geom = op_F(ctx, i, "closed"), op_F(ctx, i, "geometric")
            for p in enumerate_points(n, degree):
                a = dict((q.rows, c) for q, c in closed.terms(p))
                b = dict((q.rows, c) for q, c in geom.terms(p))
                assert a.keys() == b.keys()
                for key in a:
                    assert eq_exact(a[key], b[key])

    @pytest.mark.parametrize("n,degree", list(degree_grid(3, 3)),
                             ids=lambda x: str(x))
    def test_twisted_composite_vs_direct(self, n, degree):
        ctx = ModuleContext(n)
        for i in range(1, n):
            for make in (op_e, op_f):
                comp, direct = make(ctx, i, "composite"), make(ctx, i, "direct")
                for p in enumerate_points(n, degree):
                    a = dict((q.rows, c) for q, c in comp.terms(p))
                    b = dict((q.rows, c) for q, c in direct.terms(p))
                    assert a.keys() == b.keys()
                    for key in a:
                        assert eq_exact(a[key], b[key])


class TestModuleAction:
    def test_lowering_kills_degree_zero(self):
        ctx = ModuleContext(3)
        x = basis_vector(ctx, FixedPoint.zero(3))
        for i in (1, 2):
            assert apply_op(op_F(ctx, i), x, 2).coeffs == {}

    def test_truncation_drops_out_of_box_targets(self):
        ctx = ModuleContext(2)
        x = basis_vector(ctx, FixedPoint(2, ((1,),)))
        raised = apply_op(op_E(ctx, 1), x, 1)
        assert raised.degree == (2,) and raised.coeffs == {}

    def test_compose_matches_sequential_application(self):
        ctx = ModuleContext(2)
        E, F = op_E(ctx, 1), op_F(ctx, 1)
        x = basis_vector(ctx, FixedPoint(2, ((1,),)))
        a = apply_op(compose(F, E), x, 3)
        b = apply_op(F, apply_op(E, x, 3), 3)
        assert a.degree == b.degree
        assert a.coeffs.keys() == b.coeffs.keys()
        for p in a.coeffs:
            assert eq_exact(a.coeffs[p], b.coeffs[p])

    def test_shift_validation(self):
        ctx = ModuleContext(2)
        x = basis_vector(ctx, FixedPoint.zero(2))
        with pytest.raises(UsageError):
            from qtoda.operators import ModuleVector
            from qtoda.symbolic import RatFunc
            ModuleVector((1,), {FixedPoint.zero(2): RatFunc.one(ctx.ring)})


def test_module_vector_compares_by_value_and_rejects_a_wrong_degree_key():
    ctx = ModuleContext(3)
    one = RatFunc.one(ctx.ring)
    p, q = enumerate_points(3, (1, 1))[:2]
    # one key of the wrong degree among keys of the right one
    with pytest.raises(UsageError, match="wrong degree"):
        ModuleVector((1, 1), {p: one, FixedPoint.zero(3): one})
    x = ModuleVector((1, 1), {p: one, q: one})
    assert x == ModuleVector((1, 1), {q: one, p: one})
    assert x != ModuleVector((1, 1), {p: one})
    assert ModuleVector((1, 1), {}) != ModuleVector((1, 0), {})
    with pytest.raises(TypeError):  # mutable, so unhashable
        hash(x)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_sevostyanov_c_is_the_antisymmetrized_standard_n(n):
    def n_standard(i, j):
        if i == j:
            return -2 * i
        return i if abs(i - j) == 1 else 0

    for i, j in itertools.product(range(1, n), repeat=2):
        assert operators.sevostyanov_c(i, j) \
            == n_standard(i, j) - n_standard(j, i)


WRONG_TWIST_FAILS = {"twisted-commutator": 8, "serre-twisted-raising": 4,
                     "serre-twisted-lowering": 4}


@pytest.mark.parametrize("twist,fails", [
    ("standard", {}),
    ("transpose", WRONG_TWIST_FAILS),
    ("zero", WRONG_TWIST_FAILS),
])
def test_twist_calibration(monkeypatch, twist, fails):
    # only the standard twist makes the twisted relations hold; the
    # transposed and the zero twist each break exactly the twisted
    # commutators and the twisted Serre relations
    c = operators.sevostyanov_c
    twists = {"standard": c, "transpose": lambda i, j: c(j, i),
               "zero": lambda i, j: 0}
    monkeypatch.setattr(operators, "sevostyanov_c", twists[twist])
    counts = {}
    for r in verify_relations(ModuleContext(3), 2):
        if r["status"] == "fail":
            counts[r["check"]] = counts.get(r["check"], 0) + 1
    assert counts == fails


SUITE_BOXES = [(2, 4), (3, 3), (4, 2)]


def walked_orbit_in_box(box, degree, terms):
    """Every intermediate degree of every term's chain stays at most box,
    walked term by term: the reference for the in-box limit."""
    for _, chain in terms:
        cum = list(degree)
        for op in reversed(chain):
            cum = [a + b for a, b in zip(cum, op.shift)]
            if any(c > box for c in cum):
                return False
    return True


def test_max_prefix_shift_decides_the_box_like_the_walk():
    # the in-box limit, box minus the largest prefix shift, of every
    # relation and of the diagonality chains E_i F_i and F_i E_i
    ctx = ModuleContext(4)
    one = RatFunc.one(ctx.ring)
    diagonality = [("commutator-diagonality", {"i": i},
                    [(one, (op_E(ctx, i), op_F(ctx, i))),
                     (-one, (op_F(ctx, i), op_E(ctx, i)))])
                   for i in range(1, 4)]
    for name, params, terms in [*relation_suite(ctx), *diagonality]:
        for box in range(4):
            limit = operators._in_box_limit(box, terms)
            for d in all_degrees(4, 3):
                walked = walked_orbit_in_box(box, d, terms)
                assert all(a <= b for a, b in zip(d, limit)) == walked, \
                    (name, params, box, d)


@pytest.mark.parametrize("n,box", [(3, 2), (4, 2)])
def test_diagonality_skips_where_the_walk_leaves_the_box(n, box):
    ctx = ModuleContext(n)
    one = RatFunc.one(ctx.ring)
    for i in range(1, n):
        E, F = op_E(ctx, i), op_F(ctx, i)
        terms = [(one, (E, F)), (-one, (F, E))]
        for rec in diagonality_check(ctx, i, box):
            walked = walked_orbit_in_box(box, rec["degree"], terms)
            assert (rec["status"] != "skipped-out-of-box") == walked, rec


class TestRelationSuite:
    @pytest.mark.parametrize("n,box", SUITE_BOXES, ids=lambda x: str(x))
    def test_all_relations_hold(self, n, box):
        ctx = ModuleContext(n)
        records = list(verify_relations(ctx, box))
        fails = [r for r in records if r["status"] == "fail"]
        assert fails == []
        # non-vacuity: a healthy share of records actually ran
        ran = [r for r in records if r["status"] == "pass"]
        assert len(ran) > len(records) // 2

    def test_boundary_diagonal_needs_determinant(self):
        # for n = 2 the K_1 = L_1^2 identity only holds on the SL torus
        ctx = ModuleContext(2)
        records = verify_relations(ctx, 1)
        diag = [r for r in records if r["check"] == "diagonal-consistency"]
        assert diag and all(r["status"] == "pass" for r in diag)
        assert all(r["mode"] == "modulo-det" for r in diag)

    def test_interior_diagonal_is_free(self):
        ctx = ModuleContext(4)
        records = verify_relations(ctx, 1)
        interior = [r for r in records
                    if r["check"] == "diagonal-consistency" and r["i"] == 2]
        assert interior and all(r["mode"] == "free" for r in interior)

    def test_broken_relation_fails_with_witness(self, monkeypatch):
        # E_1 F_1 - F_1 E_1 without its Cartan term is nonzero on [0]
        ctx = ModuleContext(2)
        E, F = op_E(ctx, 1), op_F(ctx, 1)
        one = RatFunc.one(ctx.ring)
        broken = [("broken-commutator", {"i": 1, "j": 1},
                   [(one, (E, F)), (-one, (F, E))])]
        monkeypatch.setattr(operators, "relation_suite", lambda ctx: broken)
        records = verify_relations(ctx, 1)
        [rec] = [r for r in records if r["check"] == "broken-commutator"
                 and r["degree"] == [0]]
        assert rec["status"] == "fail" and rec["mode"] == "modulo-det"
        entry = rec["witness"]["entry"]
        assert not LaurentPoly.from_json(ctx.ring, entry["num"]).is_zero()
        assert rec["witness"]["source"] == FixedPoint.zero(2).to_json()
        # replay the witness from its JSON alone
        source = FixedPoint.from_json(rec["witness"]["source"])
        target = FixedPoint.from_json(rec["witness"]["target"])
        replayed = RatFunc.from_frac(
            LaurentPoly.from_json(ctx.ring, entry["num"]),
            LaurentPoly.from_json(ctx.ring, entry["den"]))
        [(_, _, terms)] = broken
        parts = [c for coeff, chain in terms
                 for q, c in operators._paths(chain, source, coeff)
                 if q == target]
        assert eq_exact(replayed, rat_sum(ctx.ring, parts))
        assert not operators._zero_mod_det(ctx.ring, replayed)

    @pytest.mark.parametrize("v_power", [0, 2])
    def test_relation_modulo_det(self, monkeypatch, v_power):
        # (t1 t2 v^k - 1) E_1 is zero on the SL_2 torus for k = 0 only: it
        # passes in mode modulo-det there, and for k = 2 it fails with a
        # witness that replays from its JSON alone
        ctx = ModuleContext(2)
        ring = ctx.ring
        E = op_E(ctx, 1)
        det = RatFunc.from_poly(ring.t_monomial({1: 1, 2: 1}, v_power=v_power))
        terms = [(det, (E,)), (-RatFunc.one(ring), (E,))]
        monkeypatch.setattr(operators, "relation_suite",
                            lambda ctx: [("det-relation", {"i": 1, "j": 1},
                                          terms)])
        records = {tuple(r["degree"]): r for r in verify_relations(ctx, 2)
                   if r["check"] == "det-relation"}
        assert records[(2,)]["status"] == "skipped-out-of-box"
        for d in ((0,), (1,)):
            rec = records[d]
            assert json.dumps([rec["status"], rec["mode"],
                               rec.get("witness")]) \
                == json.dumps(decide(ctx, terms, d))
            assert rec["mode"] == "modulo-det"
            if v_power == 0:
                assert rec["status"] == "pass" and "witness" not in rec
                continue
            assert rec["status"] == "fail"
            source = FixedPoint.from_json(rec["witness"]["source"])
            target = FixedPoint.from_json(rec["witness"]["target"])
            parts = [c for coeff, chain in terms
                     for q, c in operators._paths(chain, source, coeff)
                     if q == target]
            assert source.degree == d and parts
            replayed = rat_sum(ring, parts)
            assert replays_witness(ctx, rec["witness"], replayed)
            assert not operators._zero_mod_det(ring, replayed)

    def test_tracked_coefficients_decide_like_the_point_loop(
            self, monkeypatch):
        # the commutator of row 1 times c = 1/(1 - v^4): its chains carry
        # c's tracked factor, and its Cartan term K_1 - K_1^-1 has the
        # coefficient c * -1/(v - v^-1), which carries c's and the
        # (1 - v^2)^-1 of 1/(v - v^-1).  Scaled right it holds; with one
        # term off by v^2 it is (v^2 - 1) c E_1 F_1, which fails where F_1
        # moves a point, with the point loop's witness
        ctx = ModuleContext(3)
        ring = ctx.ring
        E, F = op_E(ctx, 1), op_F(ctx, 1)
        cartan = operators._cartan_commutator_rhs(ctx, 1)
        c = RatFunc.from_frac(ring.one(), ring.one() - ring.v(4))
        over_v = RatFunc.from_frac(-ring.one(), ring.v(1) - ring.v(-1))
        suite = [(name, {"i": 1, "j": 1},
                  [(c.scale_poly(ring.v(k)), (E, F)), (-c, (F, E)),
                   (c * over_v, (cartan,))])
                 for name, k in (("scaled", 0), ("scaled-wrong", 2))]
        # c's tracked factor is on every term, and both are on the Cartan
        # term
        for _, _, terms in suite:
            assert all(c.factors.keys() <= coeff.factors.keys()
                       for coeff, _ in terms)
            assert len(terms[-1][0].factors) == len(c.factors) + 1 == 2
        monkeypatch.setattr(operators, "relation_suite", lambda ctx: suite)
        records = {(r["check"], tuple(r["degree"])): r
                   for r in verify_relations(ctx, 2) if "j" in r}
        statuses = {}
        for name, _, terms in suite:
            for d in in_box_degrees(3, 2, terms):
                rec = records[(name, d)]
                assert json.dumps([rec["status"], rec["mode"],
                                   rec.get("witness")]) \
                    == json.dumps(decide(ctx, terms, d))
                statuses.setdefault(name, set()).add(rec["status"])
        assert statuses["scaled"] == {"pass"}
        assert "fail" in statuses["scaled-wrong"]

    @pytest.mark.parametrize("n,box", SUITE_BOXES, ids=lambda x: str(x))
    def test_commutator_diagonality(self, n, box):
        ctx = ModuleContext(n)
        for i in range(1, n):
            records = list(diagonality_check(ctx, i, box))
            assert all(r["status"] in ("pass", "skipped-out-of-box")
                       for r in records)
            assert any(r["status"] == "pass" for r in records)


def in_box_degrees(n, box, terms):
    limit = operators._in_box_limit(box, terms)
    return [d for d in all_degrees(n, box)
            if all(a <= b for a, b in zip(d, limit))]


def decide(ctx, terms, d):
    """(status, mode, witness) of terms over the points of degree d, walked
    as they are: at each point the parts of each target, one per path of
    each term, are added in reach order.  A target whose sum is not zero
    makes the mode modulo-det, and the first whose sum is not zero modulo
    the determinant either is the witness."""
    mode = "free"
    for p in ctx.points(d):
        reached = grouped((q.rows, c) for coeff, chain in terms
                          for q, c in operators._paths(chain, p, coeff))
        for rows, parts in reached.items():
            if sum_is_zero(parts):
                continue
            mode = "modulo-det"
            r = rat_sum(ctx.ring, parts)
            if not operators._zero_mod_det(ctx.ring, r):
                return "fail", mode, {
                    "source": p.to_json(),
                    "target": FixedPoint(p.n, rows).to_json(),
                    "entry": r.to_json(),
                }
    return "pass", mode, None


def replays_witness(ctx, witness, r):
    """Whether r is the witness's entry: the entry's numerator is nonzero
    and r.num * den == num * r.den as Laurent polynomials.  The entry's
    expanded denominator is a product of binomials, which a RatFunc does
    not track as one factor, so it is cross-multiplied, not divided by."""
    entry = witness["entry"]
    num = LaurentPoly.from_json(ctx.ring, entry["num"])
    den = LaurentPoly.from_json(ctx.ring, entry["den"])
    r_num, r_den = r.num_den()
    return not num.is_zero() and r_num * den == num * r_den


def scale_l_by_total_degree(monkeypatch, ctx):
    """L_i acts on degree d by its scalar times v^{|d|}: each slope of its
    form one more in every component.  A constant factor would cancel in
    L_i X_j L_i^{-1}; this one leaves v^{±1} there for every X_j, so each
    conjugation breaks wherever X_j moves a point."""
    original = ctx.l_form
    monkeypatch.setattr(ctx, "l_form", lambda i: [
        (tuple(s + 1 for s in slope), c) for slope, c in original(i)])


def plain_commutator_fold(ctx, i):
    """The terms of the plain (i, i) commutator, their fold and shapes, and
    the key of the Cartan shape, the one with no chain."""
    [terms] = [terms for name, params, terms in relation_suite(ctx)
               if name == "raising-lowering-commutator"
               and params == {"i": i, "j": i}]
    shapes = {}
    fold = operators._fold(ctx.ring, terms, shapes)
    [cartan_key] = [key for key in fold if not shapes[key][0]]
    return terms, shapes, fold, cartan_key


class TestDegreeFold:
    """`_fold` folds each relation's diagonal operators once, into one
    degree-linear form per shape; the unfolded terms are the reference."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_conjugations_and_inner_consistencies_fold_to_nothing(self, n):
        # no shape is left at any degree, not just at the in-box ones; the
        # outermost consistency keeps one shape with no chain and one pair
        ctx = ModuleContext(n)
        checked = 0
        for name, params, terms in relation_suite(ctx):
            if name != "diagonal-consistency" \
                    and not name.startswith("diagonal-conjugates"):
                continue
            shapes = {}
            fold = operators._fold(ctx.ring, terms, shapes)
            if name == "diagonal-consistency" and params["i"] == n - 1:
                [(key, form)] = fold.items()
                assert shapes[key][0] == () and len(form) == 1
            else:
                assert fold == {}
            checked += 1
        assert checked == (n - 1) + 4 * (n - 1) ** 2

    def test_plain_commutator_folds_to_three_shapes(self):
        # at every in-box degree of (3, 2), E_i F_i - F_i E_i - the Cartan
        # term folds to its two chains and the Cartan shape: no chain, the
        # part 1/(1 - v^2) and the multiplier v (kappa - kappa^-1)
        ctx = ModuleContext(3)
        ring = ctx.ring
        cartan_part = RatFunc.from_frac(ring.one(), ring.one() - ring.v(2))
        checked = 0
        for i in (1, 2):
            terms, shapes, fold, cartan_key = plain_commutator_fold(ctx, i)
            assert len(fold) == 3
            assert eq_exact(shapes[cartan_key][1], cartan_part)
            for d in in_box_degrees(3, 2, terms):
                mults = {key: operators.form_at(form, d)
                         for key, form in fold.items()}
                assert not any(m.is_zero() for m in mults.values())
                kappa = ctx.k_scalar(i, d)
                assert mults[cartan_key] == ring.v(1) * (kappa - kappa ** -1)
                checked += 1
        assert checked == 12

    def test_a_degree_shift_past_the_slot_limit_raises(self):
        ring = ModuleContext(3).ring
        nvars = ring.nvars
        # the total digit: t_1^{L-2} takes v^1 (digit L) but not v^2
        big = ring.t(1, SLOT_LIMIT - 2)
        [key] = v_shifted(big, 1).terms
        assert unpack(key, nvars) == (SLOT_LIMIT - 2, 0, 0, 2)
        with pytest.raises(UsageError):
            v_shifted(big, 2)
        # the v digit, both ways: v^1 takes v^{±k} but not v^{±(k+1)}
        k = (SLOT_LIMIT - 2) // 2
        for sign in (1, -1):
            [key] = v_shifted(ring.v(1), sign * k).terms
            assert unpack(key, nvars) == (0, 0, 0, 2 + 2 * sign * k)
            with pytest.raises(UsageError):
                v_shifted(ring.v(1), sign * (k + 1))
        # so a relation at a far degree raises before it checks a point
        ctx = ModuleContext(3)
        terms, shapes, fold, _ = plain_commutator_fold(ctx, 1)
        # <slope, far> = 2 * far_1 for K_1's slope (2, -1): a v digit past
        # SLOT_LIMIT once doubled
        far = (SLOT_LIMIT // 4 + 1, 0)
        limit = operators._in_box_limit(SLOT_LIMIT, terms)
        assert all(a <= b for a, b in zip(far, limit))
        group = [("raising-lowering-commutator", {"i": 1, "j": 1}, limit,
                  fold)]
        with pytest.raises(UsageError):
            operators._relations_at_degree(ctx, group, far, shapes)
        with pytest.raises(UsageError):
            ctx.k_scalar(1, far)

    def test_broken_diagonal_fails_where_the_reference_fails(
            self, monkeypatch):
        ctx = ModuleContext(4)
        scale_l_by_total_degree(monkeypatch, ctx)
        records = {(r["check"], r["i"], r["j"], tuple(r["degree"])): r
                   for r in verify_relations(ctx, 2)
                   if r["check"].startswith("diagonal-conjugates")}
        failed = 0
        for name, params, terms in relation_suite(ctx):
            if not name.startswith("diagonal-conjugates"):
                continue
            [(_, Z)] = terms[1:]
            for d in in_box_degrees(4, 2, terms):
                rec = records[(name, params["i"], params["j"], d)]
                status, mode, witness = decide(ctx, terms, d)
                moves = any(operators._paths(Z, p) for p in ctx.points(d))
                assert rec["status"] == status == ("fail" if moves
                                                   else "pass")
                assert json.dumps([rec["mode"], rec.get("witness")]) \
                    == json.dumps([mode, witness])
                failed += status == "fail"
        assert failed > 0

    def test_diagonal_scalar_is_the_terms_entry(self):
        ctx = ModuleContext(4)
        diagonal = [op(ctx, i, power) for i in range(1, 4)
                    for op in (op_K, op_L) for power in (1, -1, 2)]
        diagonal += [operators._cartan_commutator_rhs(ctx, i)
                     for i in range(1, 4)]
        for op in diagonal:
            for d in all_degrees(4, 2):
                scalar = form_at(op.form, d)
                assert isinstance(scalar, LaurentPoly)
                for p in ctx.points(d):
                    [(q, entry)] = op.terms(p)
                    assert q == p and not entry.factors
                    assert entry.unit == scalar
        assert all(op(ctx, 1).form is None
                   for op in (op_E, op_F, op_e, op_f))


def test_closed_entries_are_built_once_per_rows_and_column(monkeypatch):
    built = {}
    for kind, name in (("raising", "raising_product"),
                       ("lowering", "lowering_product")):
        original = getattr(operators, name)

        def counted(ring, a, b, j, kind=kind, original=original):
            key = (kind, a, b, j)
            built[key] = built.get(key, 0) + 1
            return original(ring, a, b, j)

        monkeypatch.setattr(operators, name, counted)
    records = list(whittaker.whittaker_records(ModuleContext(4), 2))
    assert all(r["status"] == "pass" for r in records)
    assert {kind for kind, *_ in built} == {"raising", "lowering"}
    assert set(built.values()) == {1}


class TestSummationIdentity:
    def test_exact_rank_one(self):
        assert verify_summation_identity(2, 1, [[], [2], [1, 0]])
        assert verify_summation_identity(3, 1, [[], [3], [2, 0]])

    def test_exact_rank_two(self):
        assert verify_summation_identity(3, 2, [[3], [2, 1], [1, 1, 0]])
        assert verify_summation_identity(4, 2, [[4], [3, 2], [2, 0, 0]])

    @pytest.mark.parametrize("i,rows", [
        (3, [[5, 4], [3, 2, 1], [2, 1, 1, 0]]),
        (4, [[7, 6, 5], [5, 4, 3, 2], [4, 2, 1, 1, 0]]),
    ], ids=lambda x: str(x))
    def test_exact_higher_rank(self, i, rows):
        assert verify_summation_identity(i + 1, i, rows)

    def test_row_length_validation(self):
        with pytest.raises(UsageError):
            verify_summation_identity(3, 2, [[1], [2], [1, 1, 0]])


def break_product(monkeypatch, name):
    """Scale the closed product `name` by v in every module that binds it."""
    original = getattr(operators, name)

    def scaled(ring, *rows_and_column):
        return original(ring, *rows_and_column).scale_poly(ring.v(1))

    for module in (operators, whittaker):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, scaled)


class TestLemmaChecksReadTheOperatorsProducts:
    """The pushforward and summation identities sum the products that E and
    F are built from, so a wrong closed entry fails them."""

    def test_broken_raising_product_fails_the_pushforward_identity(
            self, monkeypatch):
        break_product(monkeypatch, "raising_product")
        records = [r for r in whittaker.whittaker_records(ModuleContext(3), 2)
                   if r["check"] == "line-pushforward-identity"]
        assert len(records) == 28
        assert all(r["status"] == "fail" for r in records)

    @pytest.mark.parametrize("name", ["raising_product", "lowering_product"])
    def test_broken_product_fails_the_summation_identity(self, monkeypatch,
                                                         name):
        break_product(monkeypatch, name)
        records = list(summation_records(ModuleContext(5), 3))
        assert len(records) == 4
        assert all(r["status"] == "fail" for r in records)
