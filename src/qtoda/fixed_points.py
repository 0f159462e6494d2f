"""Torus fixed points of quasiflag spaces as triangular degree arrays.

A fixed point for rank parameter n and degree vector (d_1,..,d_{n-1}) is a
triangular array of nonnegative integers: row i (1-based, i = 1..n-1) has
entries (a_{i1},..,a_{ii}), row i sums to d_i, and each column is weakly
decreasing downwards (a_{ij} >= a_{i+1,j}).  Row i records the twist of the
j-th coordinate summand inside the i-th member of the flag of subsheaves.

The number of such arrays equals the number of ways to write the degree
vector as a sum of positive roots of sl_n (interval vectors); this module
provides both counts so the bijection can be tested.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .symbolic import UsageError, Value, json_int, json_list

DegreeVector = Tuple[int, ...]
Rows = Tuple[Tuple[int, ...], ...]


class FixedPoint(Value):
    """A triangular array indexing one torus fixed point."""

    def __init__(self, n: int, rows: Rows) -> None:
        self.n, self.rows = n, rows
        if self.n < 2:
            raise UsageError("rank parameter must be at least 2")
        if len(self.rows) != self.n - 1:
            raise UsageError(f"expected {self.n - 1} rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows, start=1):
            if len(row) != i:
                raise UsageError(f"row {i} must have {i} entries")
            for a in row:
                if a < 0:
                    raise UsageError("entries must be nonnegative")
        for i in range(1, self.n - 1):
            upper, lower = self.rows[i - 1], self.rows[i]
            for j in range(i):
                if upper[j] < lower[j]:
                    raise UsageError(
                        f"column {j + 1} increases from row {i} to row {i + 1}"
                    )
        # the row sums, set once here or by `_moves`; == and hash read
        # (n, rows) alone
        self.degree: DegreeVector = tuple(sum(r) for r in self.rows)

    @property
    def _key(self) -> tuple:
        # built per call, not stored: points are many and rarely hashed
        # (the hot groupings key by `rows`, see `operators.grouped`)
        return (self.n, self.rows)

    def entry(self, i: int, j: int) -> int:
        """Entry a_{ij}, with boundary conventions a_{0,*} = a_{n,*} = 0."""
        if i == 0 or i >= self.n:
            return 0
        if not 1 <= j <= i:
            raise UsageError(f"column {j} out of range for row {i}")
        return self.rows[i - 1][j - 1]

    def row(self, i: int) -> Tuple[int, ...]:
        """Row i, with the boundary rows a_{0,*} = () and a_{n,*} = 0."""
        if i == self.n:
            return (0,) * self.n
        return self.rows[i - 1] if i else ()

    def rows_json(self) -> List[List[int]]:
        """The rows as lists: a record's "point"."""
        return [list(r) for r in self.rows]

    def to_json(self) -> dict:
        return {"n": self.n, "rows": self.rows_json()}

    @staticmethod
    def from_json(data: dict) -> "FixedPoint":
        """The point `to_json` wrote: its rows and each row must be lists.
        Data of any other shape, a string in place of a list among it,
        raises UsageError."""
        try:
            n = json_int(data["n"])
            rows = tuple(tuple(json_int(a) for a in json_list(r))
                         for r in json_list(data["rows"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed fixed point JSON: {exc!r}") from exc
        return FixedPoint(n, rows)

    @staticmethod
    def zero(n: int) -> "FixedPoint":
        """The unique fixed point of degree zero."""
        return FixedPoint(n, tuple((0,) * i for i in range(1, n)))

    def __repr__(self) -> str:
        body = "; ".join(",".join(map(str, r)) for r in self.rows)
        return f"FixedPoint(n={self.n}, [{body}])"


def check_degree(n: int, degree: Sequence[int]) -> DegreeVector:
    """The degree as an int tuple, after checking that it has n - 1
    nonnegative components."""
    degree = tuple(int(d) for d in degree)
    if len(degree) != n - 1:
        raise UsageError(f"degree vector must have {n - 1} components")
    if any(d < 0 for d in degree):
        raise UsageError("degree components must be nonnegative")
    return degree


def check_row(n: int, i: int) -> None:
    """Raise UsageError unless i is a row of an array of rank n, 1..n-1."""
    if not 1 <= i <= n - 1:
        raise UsageError(f"row index {i} out of range for n={n}")


def check_rows(n: int, i: int, rows: Sequence[Sequence[int]]) -> Rows:
    """Rows i - 1, i, .. of an array of rank n as int tuples, after checking
    row i (`check_row`) and that the k-th given row has i - 1 + k
    entries."""
    check_row(n, i)
    rows = tuple(tuple(int(a) for a in r) for r in rows)
    lengths = range(i - 1, i - 1 + len(rows))
    if any(len(r) != m for r, m in zip(rows, lengths)):
        raise UsageError(f"row lengths must be {', '.join(map(str, lengths))}")
    return rows


def enumerate_points(n: int, degree: Sequence[int]) -> List[FixedPoint]:
    """All fixed points for the given rank and degree vector, in
    lexicographic order of rows.

    Row i is built from each array of rows 1..i-1 by `admissible_rows`.
    """
    degree = check_degree(n, degree)
    arrays: List[Rows] = [((),)]  # row 0 is empty
    for d in degree:
        arrays = [rows + (row,) for rows in arrays
                  for row in admissible_rows(rows[-1], d)]
    return [FixedPoint(n, rows[1:]) for rows in arrays]


def admissible_rows(upper: Sequence[int], d: int) -> List[Tuple[int, ...]]:
    """The rows summing to d that can follow the row `upper` in an array,
    in lexicographic order: the first len(upper) entries run over the
    product of 0..min(a, d), each capped by the entry a above it, and the
    last entry, where a new coordinate line enters the flag, takes what is
    left of d."""
    return [head + (d - sum(head),) for head in itertools.product(
        *(range(min(a, d) + 1) for a in upper)) if sum(head) <= d]


def _positive_interval_vectors(n: int) -> List[DegreeVector]:
    """Indicator vectors of intervals [j, i] inside 1..n-1 (positive roots)."""
    out = []
    for j in range(1, n):
        for i in range(j, n):
            out.append(tuple(1 if j <= k <= i else 0 for k in range(1, n)))
    return out


def kostant_count(n: int, degree: Sequence[int]) -> int:
    """Number of ways to write the degree vector as an N-combination of
    interval vectors.  Independent counting oracle for enumerate_points."""
    degree = check_degree(n, degree)
    roots = _positive_interval_vectors(n)

    @lru_cache(maxsize=None)
    def count(idx: int, rest: DegreeVector) -> int:
        if all(r == 0 for r in rest):
            return 1
        if idx == len(roots):
            return 0
        root = roots[idx]
        total = 0
        cur = rest
        while all(c >= 0 for c in cur):
            total += count(idx + 1, cur)
            cur = tuple(c - r for c, r in zip(cur, root))
        return total

    return count(0, degree)


def all_degrees(n: int, box: int) -> List[DegreeVector]:
    """All degree vectors with each component in 0..box, in lexicographic order."""
    return [tuple(d) for d in itertools.product(range(box + 1), repeat=n - 1)]


def padded(degree: Sequence[int]) -> Dict[int, int]:
    """The degree as {slot: d_slot} over slots 0..n, with the boundary
    slots d_0 = d_n = 0."""
    d = dict(enumerate(degree, start=1))
    d[0] = d[len(degree) + 1] = 0
    return d


def shifted(degree: Sequence[int], i: int, step: int = 1) -> DegreeVector:
    """d + step * e_i, for a degree vector or an array row d (i counted
    from 1)."""
    return tuple(x + step if k == i else x for k, x in enumerate(degree, 1))


# ---------------------------------------------------------------------------
# Elementary moves (simple raising / lowering of one row's total degree)
# ---------------------------------------------------------------------------

def _moves(p: FixedPoint, i: int, step: int) -> List[Tuple[FixedPoint, int]]:
    """The points reached by adding step (+1 or -1) to one entry of row i,
    as (new point, column) pairs in column order.

    Row i - step bounds the move: the row above caps a raise, and it has no
    column i, so the diagonal entry has no cap; the row below floors a
    lowering, with row n zero.  A move inside those bounds keeps every row
    and column condition, so each target is built from p's rows and the
    degree d + step e_i without running `FixedPoint.__init__`'s checks.
    """
    check_row(p.n, i)
    row, bound = p.row(i), p.row(i - step)
    degree = shifted(p.degree, i, step)
    out = []
    for j in range(1, i + 1):
        if j > len(bound) or step * (bound[j - 1] - row[j - 1]) > 0:
            rows = p.rows[:i - 1] + (shifted(row, j, step),) + p.rows[i:]
            q = object.__new__(FixedPoint)
            q.n, q.rows, q.degree = p.n, rows, degree
            out.append((q, j))
    return out


def lower_moves(p: FixedPoint, i: int) -> List[Tuple[FixedPoint, int]]:
    """Fixed points reachable by decrementing one entry of row i: column j
    when a_{ij} > a_{i+1,j} (see `_moves`).  The new point has row-i degree
    lowered by one."""
    return _moves(p, i, -1)


def raise_moves(p: FixedPoint, i: int) -> List[Tuple[FixedPoint, int]]:
    """Fixed points reachable by incrementing one entry of row i: column j
    when j == i or a_{i-1,j} > a_{ij} (see `_moves`).  The new point has
    row-i degree raised by one."""
    return _moves(p, i, 1)
