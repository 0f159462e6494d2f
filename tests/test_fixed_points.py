"""Tests for the triangular-array fixed-point combinatorics."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoda.fixed_points import (
    FixedPoint,
    all_degrees,
    enumerate_points,
    kostant_count,
    lower_moves,
    padded,
    raise_moves,
    shifted,
)
from qtoda.operators import ModuleContext, op_E, op_F, op_e, op_f
from qtoda.symbolic import UsageError


class TestFixedPoint:
    def test_validation(self):
        FixedPoint(3, ((2,), (1, 5)))
        with pytest.raises(UsageError):
            FixedPoint(3, ((2,), (3, 0)))  # column 1 increases downward
        with pytest.raises(UsageError):
            FixedPoint(3, ((2,), (1,)))  # wrong row length
        with pytest.raises(UsageError):
            FixedPoint(2, ((-1,),))

    def test_entry_conventions(self):
        p = FixedPoint(3, ((2,), (1, 5)))
        assert p.entry(1, 1) == 2
        assert p.entry(2, 2) == 5
        assert p.entry(0, 1) == 0
        assert p.entry(3, 2) == 0
        with pytest.raises(UsageError):
            p.entry(1, 2)

    def test_degree(self):
        p = FixedPoint(4, ((3,), (2, 4), (0, 1, 2)))
        assert p.degree == (3, 6, 3)

    def test_json_round_trip(self):
        p = FixedPoint(3, ((2,), (1, 5)))
        assert FixedPoint.from_json(p.to_json()) == p

    @pytest.mark.parametrize("data", [
        {"n": 3},                                # KeyError: rows
        {"rows": [[2], [1, 5]]},                 # KeyError: n
        [3, [[2], [1, 5]]],                      # not an object: TypeError
        {"n": None, "rows": [[2], [1, 5]]},      # TypeError
        {"n": 3, "rows": 7},                     # TypeError
        {"n": 3, "rows": [[2], [1, "x"]]},       # ValueError
        {"n": "three", "rows": [[2], [1, 5]]},   # ValueError
        {"n": 3, "rows": [[2], [3, 0]]},         # a column increases
        {"n": 3, "rows": [[2], [1, 2.5]]},       # int() would read (1, 2)
        {"n": 3.7, "rows": [[2], [1, 2]]},       # int() would read n = 3
        {"n": True, "rows": []},                 # int() would read n = 1
        {"n": 3, "rows": [[2], [1, True]]},      # int() would read 1
        {"n": " 3 ", "rows": [[2], [1, 5]]},     # int() strips the spaces
        {"n": 3, "rows": [[2], [1, "1_0"]]},     # int() would read 10
        {"n": "+3", "rows": [[2], [1, 5]]},      # no plus sign in to_json
        {"n": 3, "rows": [[2], [1, "\u0665"]]},  # Arabic-Indic 5
        {"n": "\uff13", "rows": [[2], [1, 5]]},  # fullwidth 3
        {"n": 2, "rows": "5"},                   # would read the point [5]
        {"n": 3, "rows": ["3", "21"]},           # would read [3; 2,1]
    ], ids=["no-rows", "no-n", "list", "n-none", "rows-int", "entry-text",
            "n-text", "invalid-array", "entry-float", "n-float", "n-bool",
            "entry-bool", "n-spaces", "entry-underscore", "n-plus",
            "entry-arabic-indic", "n-fullwidth", "rows-text", "row-text"])
    def test_malformed_json_is_a_usage_error(self, data):
        with pytest.raises(UsageError):
            FixedPoint.from_json(data)

    def test_zero_point(self):
        assert FixedPoint.zero(4).degree == (0, 0, 0)

    def test_degree_is_the_row_sums_however_the_point_is_built(self):
        p = FixedPoint(4, ((3,), (2, 4), (0, 1, 2)))
        raised, j = raise_moves(p, 2)[-1]  # entry (2, 2) raised to 5
        built = [p, FixedPoint.zero(4), raised,
                 FixedPoint.from_json(p.to_json())]
        built += enumerate_points(4, (2, 1, 2))
        for q in built:
            assert q.degree == tuple(sum(r) for r in q.rows)
        assert j == 2 and raised.degree == (3, 7, 3)

    def test_equality_and_hash_read_n_and_rows_only(self):
        p = FixedPoint(3, ((2,), (1, 5)))
        q = FixedPoint(3, ((2,), (1, 5)))
        # the stored degree is neither compared nor hashed
        object.__setattr__(q, "degree", (0, 0))
        assert p == q and hash(p) == hash(q)
        same_degree = FixedPoint(3, ((2,), (2, 4)))
        assert same_degree.degree == p.degree and same_degree != p
        assert FixedPoint(4, ((2,), (1, 5), (0, 0, 0))) != p


degree_cases = [
    (n, d)
    for n in (2, 3, 4)
    for d in itertools.product(range(4), repeat=n - 1)
]


class TestEnumeration:
    @pytest.mark.parametrize("n,degree", degree_cases)
    def test_count_matches_root_combinations(self, n, degree):
        pts = enumerate_points(n, degree)
        assert len(pts) == kostant_count(n, degree)

    def test_small_counts_by_hand(self):
        # single row of length 1: exactly one array per degree
        assert len(enumerate_points(2, (5,))) == 1
        # n=3, degree (1,1): arrays ((1),(0,1)) and ((1),(1,0))
        pts = enumerate_points(3, (1, 1))
        assert {p.rows for p in pts} == {((1,), (0, 1)), ((1,), (1, 0))}
        # n=3, degree (0,1): column 1 capped at 0, so only ((0),(0,1))
        assert [p.rows for p in enumerate_points(3, (0, 1))] == [((0,), (0, 1))]

    def test_all_points_valid_and_distinct(self):
        pts = enumerate_points(4, (2, 3, 1))
        assert len({p.rows for p in pts}) == len(pts)
        for p in pts:
            assert p.degree == (2, 3, 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_lexicographic_order(self, n):
        # every degree with components <= 2 against a brute force: each row
        # i is any i-tuple summing to d_i, and the array must be valid
        for degree in all_degrees(n, 2):
            rows = [[r for r in itertools.product(range(d + 1), repeat=i)
                     if sum(r) == d] for i, d in enumerate(degree, 1)]
            brute = []
            for array in itertools.product(*rows):
                try:
                    brute.append(FixedPoint(n, array).rows)
                except UsageError:
                    pass
            assert [p.rows for p in enumerate_points(n, degree)] == \
                sorted(brute)

    def test_bad_degree(self):
        with pytest.raises(UsageError):
            enumerate_points(3, (1,))
        with pytest.raises(UsageError):
            enumerate_points(2, (-1,))


class TestDegreeHelpers:
    def test_all_degrees(self):
        assert all_degrees(2, 2) == [(0,), (1,), (2,)]
        assert len(all_degrees(3, 2)) == 9


@st.composite
def fixed_point_strategy(draw):
    n = draw(st.integers(2, 4))
    degree = tuple(draw(st.integers(0, 3)) for _ in range(n - 1))
    pts = enumerate_points(n, degree)
    return pts[draw(st.integers(0, len(pts) - 1))]


class TestMoves:
    @given(fixed_point_strategy())
    @settings(max_examples=60, deadline=None)
    def test_moves_change_one_row_degree(self, p):
        for i in range(1, p.n):
            for q, j in lower_moves(p, i):
                assert q.degree == tuple(
                    d - (1 if k == i else 0) for k, d in enumerate(p.degree, 1)
                )
                assert q.entry(i, j) == p.entry(i, j) - 1
            for q, j in raise_moves(p, i):
                assert q.degree == tuple(
                    d + (1 if k == i else 0) for k, d in enumerate(p.degree, 1)
                )
                assert q.entry(i, j) == p.entry(i, j) + 1

    @given(fixed_point_strategy())
    @settings(max_examples=60, deadline=None)
    def test_moves_are_adjoint_pairs(self, p):
        # q is reached from p by lowering row i iff p is reached from q by raising
        for i in range(1, p.n):
            for q, j in lower_moves(p, i):
                assert (p, j) in [(r, c) for r, c in raise_moves(q, i)]
            for q, j in raise_moves(p, i):
                assert (p, j) in [(r, c) for r, c in lower_moves(q, i)]

    def test_moves_partition_target_degree(self):
        # every point of degree d+e_i is reached by exactly one raise from degree d
        n, degree, i = 3, (1, 2), 1
        target = tuple(d + (1 if k == i else 0) for k, d in enumerate(degree, 1))
        reached = []
        for p in enumerate_points(n, degree):
            reached.extend(q.rows for q, _ in raise_moves(p, i))
        target_rows = {p.rows for p in enumerate_points(n, target)}
        assert set(reached) <= target_rows

    @pytest.mark.parametrize("n,box", [(2, 4), (3, 3), (4, 2), (5, 2)],
                             ids=lambda x: str(x))
    def test_one_move_rule_matches_the_entry_edit(self, n, box):
        # the reference edits one entry of a copy of the rows, then builds
        # and validates a new point
        def reference(p, i, step):
            out = []
            for j in range(1, i + 1):
                a = p.entry(i, j)
                if step == 1 and (j == i or p.entry(i - 1, j) > a) \
                        or step == -1 and a > p.entry(i + 1, j):
                    rows = [list(r) for r in p.rows]
                    rows[i - 1][j - 1] = a + step
                    out.append((FixedPoint(n, tuple(map(tuple, rows))), j))
            return out

        def view(moves):
            return [(q.rows, q.degree, j) for q, j in moves]

        for d in all_degrees(n, box):
            for p in enumerate_points(n, d):
                for i in range(1, n):
                    assert view(raise_moves(p, i)) == view(reference(p, i, 1))
                    assert view(lower_moves(p, i)) == view(reference(p, i, -1))

    @pytest.mark.parametrize("n", [4, 5])
    def test_move_targets_are_the_validated_points(self, n):
        # a move builds its target without re-validating the array; each
        # target is the point FixedPoint(n, rows) builds and checks, equal,
        # hashed alike and with its degree
        for d in all_degrees(n, 2):
            for p in enumerate_points(n, d):
                for i in range(1, n):
                    for q, _ in raise_moves(p, i) + lower_moves(p, i):
                        fresh = FixedPoint(n, q.rows)
                        assert q == fresh and hash(q) == hash(fresh)
                        assert q.degree == fresh.degree

    def test_zero_point_has_no_lowers(self):
        p = FixedPoint.zero(3)
        assert lower_moves(p, 1) == [] and lower_moves(p, 2) == []
        assert len(raise_moves(p, 1)) == 1 and len(raise_moves(p, 2)) == 1



@pytest.mark.parametrize("n,box", [(4, 2), (3, 3)], ids=lambda x: str(x))
class TestLatticeConventions:
    """`padded` and `shifted` are the one statement of the degree lattice:
    the boundary slots d_0 = d_n = 0, and the moves of row i by ±e_i."""

    def test_padded_slots_are_the_row_sums(self, n, box):
        for d in all_degrees(n, box):
            for p in enumerate_points(n, d):
                assert [padded(p.degree)[k] for k in range(n + 1)] \
                    == [sum(p.row(k)) for k in range(n + 1)]

    def test_moves_land_on_the_shifted_degree(self, n, box):
        for d in all_degrees(n, box):
            for p in enumerate_points(n, d):
                for i in range(1, n):
                    for q, _ in raise_moves(p, i):
                        assert q.degree == shifted(p.degree, i)
                    for q, _ in lower_moves(p, i):
                        assert q.degree == shifted(p.degree, i, -1)

    def test_generators_declare_the_shifted_unit(self, n, box):
        ctx = ModuleContext(n)
        zero = (0,) * (n - 1)
        for i in range(1, n):
            for op, paths, step in ((op_E, ("closed", "geometric"), 1),
                                    (op_F, ("closed", "geometric"), -1),
                                    (op_e, ("composite", "direct"), 1),
                                    (op_f, ("composite", "direct"), -1)):
                for path in paths:
                    assert op(ctx, i, path).shift == shifted(zero, i, step)
