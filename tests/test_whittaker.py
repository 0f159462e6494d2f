"""Tests for the bilinear pairing and the Whittaker vectors."""

import itertools

import pytest

from qtoda import characters, whittaker
from qtoda.characters import det_weight, sym_inverse, tangent_char
from qtoda.fixed_points import (FixedPoint, all_degrees, enumerate_points,
                                shifted)
from qtoda.operators import (
    GradedOperator,
    ModuleContext,
    _closed_entry,
    apply_op,
    basis_vector,
    compose,
    grouped,
    op_E,
    op_F,
    op_K,
    op_f,
)
from qtoda.symbolic import RatFunc, UsageError, eq_exact, rat_sum, sum_is_zero
from qtoda.whittaker import (
    LOCAL_CHECKS,
    line_pushforward_parts,
    local_key,
    local_parts,
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
from test_mutants import KILL_TABLE


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

    @pytest.mark.parametrize("n,box", [(4, 2), (3, 3)])
    def test_pairing_weight_is_the_quotient(self, n, box):
        # theta_p, built from S(p)'s inverted unit and negated factor
        # powers, is c_d det(p) / S(p) at every point of the box, with the
        # same unit and the same factor dict
        ctx = ModuleContext(n)
        points = [p for d in all_degrees(n, box) for p in ctx.points(d)]
        assert len(points) > 20
        for p in points:
            theta = pairing_weight(ctx, p)
            want = RatFunc.from_poly(pairing_prefactor(ctx.ring, p.degree)
                                     * det_weight(ctx.ring, p)) \
                / ctx.sym_factor(p)
            assert eq_exact(theta, want)
            assert theta.unit.terms == want.unit.terms
            assert list(theta.factors.items()) == list(want.factors.items())

    def test_pairing_weight_computed_once_per_point(self):
        ctx = ModuleContext(3)
        for p in enumerate_points(3, (1, 2)):
            theta = pairing_weight(ctx, p)
            assert pairing_weight(ctx, p) is theta
            fresh = RatFunc.from_poly(pairing_prefactor(ctx.ring, p.degree)
                                      * det_weight(ctx.ring, p)) \
                / sym_inverse(tangent_char(ctx.ring, p))
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

    @pytest.mark.parametrize("n", [3, 4])
    def test_components_hold_the_points_in_the_order_of_the_rows(self, n):
        # the `whittaker` subcommand prints the coefficients in the order a
        # component holds them, unsorted
        ctx = ModuleContext(n)
        for d in all_degrees(n, 2):
            rows = [p.rows for p in enumerate_points(n, d)]
            assert rows == sorted(rows)
            for vec in (whittaker_k(ctx, d), whittaker_w(ctx, d)):
                assert [p.rows for p in vec.coeffs] == rows

    @pytest.mark.parametrize("n,box", [(2, 3), (3, 2)], ids=lambda x: str(x))
    def test_structure_sheaf_vector_eigen(self, n, box):
        # f_i applied to the structure-sheaf vector at d + e_i, as a sparse
        # matrix-vector product, is its degree-d component over 1 - v^2
        ctx = ModuleContext(n)
        scale = RatFunc.from_frac(ctx.ring.one(), ctx.ring.one() - ctx.ring.v(2))
        for i in range(1, n):
            for d in all_degrees(n, box):
                image = apply_op(op_f(ctx, i), whittaker_k(ctx, shifted(d, i)),
                                 box)
                assert_component(image, whittaker_k(ctx, d), scale)

    @pytest.mark.parametrize("n,box", [(2, 3), (3, 2)], ids=lambda x: str(x))
    def test_dual_vector_eigen(self, n, box):
        # K_i^{2i} f_i, the pairing-adjoint of the twisted raising
        # generator, does the same to the dual vector
        ctx = ModuleContext(n)
        scale = RatFunc.from_frac(ctx.ring.one(), ctx.ring.one() - ctx.ring.v(2))
        for i in range(1, n):
            op = compose(op_K(ctx, i, 2 * i), op_f(ctx, i))
            for d in all_degrees(n, box):
                image = apply_op(op, whittaker_w(ctx, shifted(d, i)), box)
                assert_component(image, whittaker_w(ctx, d), scale)


def assert_component(image, vector, scale):
    """image == scale * vector, coefficient by coefficient, over every
    point of the vector's degree."""
    assert image.degree == vector.degree
    assert set(image.coeffs) <= set(vector.coeffs)
    zero = RatFunc.zero(scale.ring)
    for p, c in vector.coeffs.items():
        assert eq_exact(image.coeffs.get(p, zero), c * scale), p


def line_pushforward_sides(ctx, i, upper, mid):
    """Both sides of the line-pushforward identity, summed: the left side
    the `rat_sum` tree of the closed raising entries of E_i, the right side
    t_i^2 v^{2 d_{i-1} - 2 d_i} / (1 - v^2) built from its fraction.  The
    reference of the one zero test of `line_pushforward_parts`."""
    ring = ctx.ring
    lhs = rat_sum(ring, [
        _closed_entry(ctx, "raising", whittaker.raising_product, tuple(upper),
                      tuple(mid), j) for j in range(1, i + 1)])
    rhs = RatFunc.from_frac(
        ring.t_monomial({i: 2}, v_power=2 * sum(upper) - 2 * sum(mid)),
        ring.one() - ring.v(2))
    return lhs, rhs


def row_pairs(n, box):
    """Every (i, row i - 1, row i) that the whittaker suite decides the
    line-pushforward identity at, in the box capped at 2."""
    ctx = ModuleContext(n)
    return sorted({(i, p.row(i - 1), p.row(i)) for i in range(1, n)
                   for d in all_degrees(n, min(box, 2))
                   for p in ctx.points(d)})


class TestPushforwardIdentity:
    @pytest.mark.parametrize("i,upper,mid", [
        (1, (), (3,)),
        (2, (3,), (2, 1)),
        (2, (5,), (0, 4)),
        (3, (4, 2), (3, 1, 2)),
        (4, (7, 5, 3), (6, 4, 2, 1)),
    ], ids=lambda x: str(x))
    def test_exact_low_rank(self, i, upper, mid):
        ctx = ModuleContext(i + 1)
        assert eq_exact(*line_pushforward_sides(ctx, i, upper, mid))
        assert sum_is_zero(line_pushforward_parts(ctx, i, upper, mid))

    def test_zero_test_gives_the_summed_verdict(self, bind_everywhere):
        # at every row pair of (4, 2), with the closed raising entries
        # right and with them scaled by v, the one zero test agrees with
        # the tree-summed sides
        keys = row_pairs(4, 2)
        assert len(keys) == 50
        for broken in (False, True):
            if broken:
                raising = whittaker.raising_product

                def scaled(ring, *rows_and_column):
                    return raising(ring, *rows_and_column).scale_poly(
                        ring.v(1))

                assert bind_everywhere(raising, scaled)
            ctx = ModuleContext(4)
            for key in keys:
                verdict = sum_is_zero(line_pushforward_parts(ctx, *key))
                assert verdict == eq_exact(*line_pushforward_sides(ctx, *key))
                assert verdict is not broken, key

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_partial_fractions(self, i):
        assert partial_fraction_identity(i)

    def test_row_validation(self):
        with pytest.raises(UsageError):
            line_pushforward_parts(ModuleContext(3), 2, (1, 2), (1, 1))

    def test_parts_live_in_the_context_ring(self):
        ctx = ModuleContext(3)
        parts = line_pushforward_parts(ctx, 1, (), (1,))
        assert parts and all(r.ring is ctx.ring for r in parts)

    def test_left_side_reads_the_raising_entries_of_E(self, monkeypatch):
        # E_2 at [1; 0, 0] moves both columns, so it has built every
        # closed entry of the rows ((1,), (0, 0)); the zero test reads
        # those and builds no product of its own
        ctx = ModuleContext(3)
        p = FixedPoint(3, ((1,), (0, 0)))
        assert [q.row(2) for q, _ in op_E(ctx, 2).terms(p)] \
            == [(1, 0), (0, 1)]
        monkeypatch.setattr(whittaker, "raising_product", None)
        assert sum_is_zero(line_pushforward_parts(ctx, 2, (1,), (0, 0)))


def pushforward_records(ctx, box):
    return [r for r in whittaker_records(ctx, box)
            if r["check"] == "line-pushforward-identity"]


class TestPushforwardOncePerRowPair:
    """The identity reads only (i, row i - 1, row i), so the suite decides
    it once per such triple and reports it at every point."""

    def test_one_decision_per_row_pair(self, monkeypatch):
        calls = []
        parts = whittaker.line_pushforward_parts

        def counted(ctx, i, upper, mid):
            calls.append((i, upper, mid))
            return parts(ctx, i, upper, mid)

        monkeypatch.setattr(whittaker, "line_pushforward_parts", counted)
        records = pushforward_records(ModuleContext(4), 2)
        assert len(calls) == len(set(calls)) == 50
        assert len(records) == 222
        assert all(r["status"] == "pass" for r in records)

    def test_broken_product_fails_every_point(self, bind_everywhere):
        # the identity sums the closed entries that E_i builds, so the
        # broken product is bound wherever the entries are made
        raising = whittaker.raising_product

        def scaled(ring, *rows_and_column):
            return raising(ring, *rows_and_column).scale_poly(ring.v(1))

        assert bind_everywhere(raising, scaled)
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
    flat rat_sum of the sym factors of the points of the degree, each from
    its whole tangent character rather than from the transfer's pieces."""
    return rat_sum(ctx.ring, [sym_inverse(tangent_char(ctx.ring, p))
                              for p in ctx.points(degree)])


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
        assert bind_everywhere(characters.piece_char, last_piece_run_shifted)
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
        # the adjoint check and both eigen checks at p read the entry
        # F_i[q -> p] of every q that E_i reaches from p; each failing
        # record names the point the broken entry lands on
        ctx, p0 = broken_lowering(3, i, degree, edit)
        real = op_F(ModuleContext(3), i).terms(p0)
        target, _ = real[0] if edit is scale_first_entry_by_v else real[-1]
        below = tuple(x - (1 if k == i else 0)
                      for k, x in enumerate(degree, 1))
        failed = [(r["check"], r["i"], tuple(r["degree"]), r["point"])
                  for r in whittaker_records(ctx, 2) if r["status"] != "pass"]
        assert failed == [(check, i, below, [list(r) for r in target.rows])
                          for check in LOCAL_CHECKS]

    def test_structure_sheaf_eigen_fails(self):
        ctx, _ = broken_lowering(3, 1, (1, 0), scale_first_entry_by_v)
        assert failing(ctx, 1, "structure-sheaf-vector-eigen") == [(1, (0, 0))]
        assert failing(ModuleContext(3), 1,
                       "structure-sheaf-vector-eigen") == []


def reference_verdicts(ctx, i, degree):
    """{p.rows: [adjoint, structure-sheaf eigen, dual eigen]} at every point
    p of degree d, decided point by point with whole sym factors, as the
    suite decided them before each was decided once per local key.

    S(p) is sym_inverse(tangent_char(p)), built from the whole tangent
    character and not from the pieces the suite multiplies, and so are the
    coefficients S(p) and S(p) omega(d) / det(p) of both Whittaker vectors.
    Every entry of F_i from d + e_i down to d is read as a lowering edge
    (q, p, B_qp = F_i[q -> p] S(q)).  The adjoint pair (p, q) is
    E_i[p -> q] theta_q - F_i[q -> p] theta_p times S(p) S(q); the eigen
    parts at p are those of f_i and of K_i^{2i} f_i applied to the
    Whittaker vectors at d + e_i, each less the vector's own coefficient at
    p over 1 - v^2.  The qtoda functions are read through their modules,
    so a mutant bound there reaches them."""
    ring = ctx.ring
    E, F = op_E(ctx, i), op_F(ctx, i)
    up = shifted(degree, i)
    syms = {}

    def sym(p):
        if p.rows not in syms:
            syms[p.rows] = characters.sym_inverse(
                characters.tangent_char(ring, p))
        return syms[p.rows]

    edges = [(q, p, entry * sym(q)) for q in ctx.points(up)
             for p, entry in F.terms(q)]
    det = whittaker._det
    c_up = whittaker.pairing_prefactor(ring, up)
    minus_c = -whittaker.pairing_prefactor(ring, degree)
    adjoint = grouped(itertools.chain(
        (((p.rows, q.rows), (entry * sym(p)).scale_poly(c_up * det(ctx, q)))
         for p in ctx.points(degree) for q, entry in E.terms(p)),
        (((p.rows, q.rows), b.scale_poly(minus_c * det(ctx, p)))
         for q, p, b in edges)))
    minus_scale = RatFunc.from_frac(-ring.one(), ring.one() - ring.v(2))
    k = ctx.k_scalar(i, degree)
    dual_pref = whittaker.dual_whittaker_prefactor(ring, up)
    dual_here = whittaker.dual_whittaker_prefactor(ring, degree)

    def eigen(coeff, parts):
        return grouped(itertools.chain(
            ((p.rows, coeff(p) * minus_scale) for p in ctx.points(degree)),
            parts))

    sheaf = eigen(sym, ((p.rows, b.scale_poly(k ** -i)) for _, p, b in edges))
    dual = eigen(
        lambda p: sym(p).scale_poly(dual_here * det(ctx, p) ** -1),
        ((p.rows, b.scale_poly(k ** i * dual_pref * det(ctx, q) ** -1))
         for q, p, b in edges))
    return {p.rows: [all(sum_is_zero(parts) for (source, _), parts
                         in adjoint.items() if source == p.rows),
                     sum_is_zero(sheaf[p.rows]), sum_is_zero(dual[p.rows])]
            for p in ctx.points(degree)}


def reference_records(ctx, box):
    """{(check, i, degree): (status, first failing point)} of the adjoint
    and both eigen families, from `reference_verdicts`."""
    out = {}
    for i in range(1, ctx.n):
        for d in all_degrees(ctx.n, box):
            verdicts = reference_verdicts(ctx, i, d)
            for index, check in enumerate(LOCAL_CHECKS):
                bad = [p for p in ctx.points(d) if not verdicts[p.rows][index]]
                out[check, i, d] = ("fail", [list(r) for r in bad[0].rows]) \
                    if bad else ("pass", None)
    return out


# the broken lowering operators of `TestBrokenOperatorsFail`, at n = 3,
# where every local key is a whole point (for n >= 4 see
# `TestLocality.test_a_fault_at_one_point_is_seen_at_its_keys_first_point`)
BROKEN = {"scaled-row-1": (scale_first_entry_by_v, 1, (1, 0)),
          "scaled-row-2": (scale_first_entry_by_v, 2, (1, 2)),
          "scaled-row-2-low": (scale_first_entry_by_v, 2, (0, 1)),
          "dropped-row-2": (drop_last_entry, 2, (1, 2))}

# records whose local verdict differs from the point-by-point one.  The
# mutant drops the last factor of every factor list: of the one tangent
# character of a point, but of each piece of a local sym factor, so the two
# paths divide by different factors.  The row-1 adjoint identity at the
# degrees (0, 1, ..) then still holds locally at every point.
DIFFERENCES = {
    ("RatFunc.from_factors", 3, 2): {("raising-lowering-adjoint", 1, (0, 1))},
    ("RatFunc.from_factors", 4, 1): {("raising-lowering-adjoint", 1, (0, 1, d))
                                     for d in range(2)},
    ("RatFunc.from_factors", 4, 2): {("raising-lowering-adjoint", 1, (0, 1, d))
                                     for d in range(3)},
}


@pytest.mark.parametrize("n,box,name", [
    (n, box, name) for n, box in [(3, 2), (4, 1), (4, 2)]
    for name in ["unmutated", *KILL_TABLE]] + [
    (3, 2, name) for name in BROKEN], ids=lambda x: str(x))
def test_records_match_the_point_by_point_deciders(bind_everywhere, n, box,
                                                   name):
    # every adjoint and eigen record, decided once per local key, has the
    # status and the witness of the whole-point deciders, unmutated, under
    # every mutant of the kill table and under each broken operator
    if name in BROKEN:
        ctx, _ = broken_lowering(n, BROKEN[name][1], BROKEN[name][2],
                                 BROKEN[name][0])
    else:
        if name in KILL_TABLE:
            original, mutant, _ = KILL_TABLE[name]
            assert bind_everywhere(original, mutant)
        ctx = ModuleContext(n)
    got = {(r["check"], r["i"], tuple(r["degree"])):
           (r["status"], r.get("point"))
           for r in whittaker_records(ctx, box) if r["check"] in LOCAL_CHECKS}
    want = reference_records(ctx, box)
    assert got.keys() == want.keys()
    differ = {key for key in want if got[key] != want[key]}
    assert differ == DIFFERENCES.get((name, n, box), set())
    # the passing side of a difference is the local one
    assert all(got[key][0] == "pass" for key in differ)


class TestLocality:
    """The three identities of row i at p read only rows i - 1, i and
    i + 1 of p, so one decision serves every point with those rows."""

    def test_points_that_share_a_key_share_their_parts(self):
        ctx = ModuleContext(5)
        points = [p for d in all_degrees(5, 2) for p in ctx.points(d)]
        compared = 0
        for i in range(1, 5):
            by_key = grouped((local_key(i, p), p) for p in points)
            for first, *rest in by_key.values():
                want = flat_parts(local_parts(ctx, i, first))
                for p in rest:
                    got = flat_parts(local_parts(ctx, i, p))
                    assert len(got) == len(want) and all(
                        eq_exact(a, b) for a, b in zip(got, want)), (i, p)
                    compared += p.rows != first.rows
        assert compared == 1620 - 330

    def test_keys_are_shared_across_degrees(self):
        ctx = ModuleContext(5)
        p = FixedPoint(5, ((1,), (1, 0), (1, 0, 0), (0, 0, 0, 0)))
        q = FixedPoint(5, ((1,), (1, 0), (1, 0, 0), (1, 0, 0, 0)))
        assert p.degree != q.degree and local_key(2, p) == local_key(2, q)
        assert local_key(3, p) != local_key(3, q)

    def test_a_fault_at_one_point_is_seen_at_its_keys_first_point(self):
        # the records trust that entries are local: an F_1 wrong at one
        # point of (1, 1, 1) alone lands on a point whose key was decided
        # at a point of degree (0, 1, 0), so every record passes where the
        # point loop fails the three records of (1, (0, 1, 1)); the parts
        # test below is what catches such an operator
        ctx, p0 = broken_lowering(4, 1, (1, 1, 1), scale_first_entry_by_v)
        assert p0.rows == ((1,), (0, 1), (0, 0, 1))
        records = [r for r in whittaker_records(ctx, 2)
                   if r["check"] in LOCAL_CHECKS]
        assert all(r["status"] == "pass" for r in records)
        want = reference_records(ctx, 2)
        assert {key for key, (status, _) in want.items()
                if status == "fail"} == {
            (check, 1, (0, 1, 1)) for check in LOCAL_CHECKS}

    def test_a_fault_at_one_point_breaks_locality(self):
        # an F_i wrong at one point of d + e_i alone is not local: the
        # parts of the point its entry lands on differ from those of a
        # point with the same key whose entries are right
        ctx, p0 = broken_lowering(4, 1, (1, 1, 1), scale_first_entry_by_v)
        (p, _), *_ = op_F(ModuleContext(4), 1).terms(p0)
        twin = next(x for d in all_degrees(4, 2) for x in ctx.points(d)
                    if local_key(1, x) == local_key(1, p) and x != p)
        got = flat_parts(local_parts(ctx, 1, p))
        want = flat_parts(local_parts(ctx, 1, twin))
        assert not all(eq_exact(a, b) for a, b in zip(got, want))


def flat_parts(parts):
    adjoint, sheaf, dual = parts
    return [part for pair in adjoint for part in pair] + sheaf + dual


def test_entry_times_local_sym_expands_to_one_bound_either_way():
    # the adjoint parts multiply E_i[p -> q] by sigma_i(p) (`local_parts`):
    # expanded, the product has the same bounds in either order, since each
    # tracked binomial 1 - x^s expands with the bound of its own key s
    ctx = ModuleContext(4)
    compared = 0
    for i in range(1, 4):
        E = op_E(ctx, i)
        for d in all_degrees(4, 2):
            for p in ctx.points(d):
                sigma = whittaker.local_sym(ctx, i, p)
                for _, e in E.terms(p):
                    ab, ba = (e * sigma).num_den(), (sigma * e).num_den()
                    assert ab == ba
                    assert [x.bound for x in ab] == [x.bound for x in ba], \
                        (i, p)
                    compared += 1
    # the (4, 2) moves of rows 1, 2 and 3
    assert compared == 74 + 115 + 129
