"""Raising/lowering/diagonal operators on the graded module of fixed-point
classes, and exhaustive verification of the quantum-group relations.

The module M = ⊕_d M_d has one basis vector per fixed point.  A diagonal
operator acts on M_d by a Laurent polynomial whose v-exponents are affine
in d, the weights of the universal Verma module.  So each is given once,
by its degree-linear `Form`: (slope, polynomial) pairs acting on degree d
by the sum of polynomial * v^{<slope, d>}.  `ModuleContext.k_form` and
`l_form` own the forms of K_i and L_i, and `form_at` and the relation fold
read them.  One builder, `_move_op`,
makes every raising and lowering generator (E_i, F_i and the direct e_i,
f_i): it walks the single-entry increments of row i of the triangular array
to raise, the decrements to lower, and scales each entry by the
generator's degree prefactor.  Off-adjacency entries vanish.  The closed
entries are built once per context, row pair and column.

Every non-diagonal operator has two independent construction paths:

- "closed": the factored product formula for each matrix entry, written
  once over rows (`raising_product`, `lowering_product`); the pushforward
  and summation identities sum the same products;
- "geometric": the localization ratio S(correspondence) / S(source) of
  symmetric-algebra characters, scaled by the tautological line weight for
  the raising direction.

Their entrywise agreement is an acceptance test, not an assumption.

Each quantum-group relation is written once per generator set (X, Y, c):
the plain E, F with c = 0, and Sevostyanov's twisted e_i = E_i K_i^i,
f_i = K_i^{-i} F_i with the twist c = `sevostyanov_c`, whose relations are
the plain ones deformed by powers v^c.  The relations write e_i and f_i as
the inline chains (E_i, K_i^i) and (K_i^{-i}, F_i), so at each degree a
twisted chain is the plain chain times monomials.

Relation checks take the box as an int, as every other suite does, and
run over the degrees with every component in 0..box.  A check at a basis
vector is attempted only when the whole relation orbit (every intermediate
degree) stays inside the box; degrees below zero are genuinely absent from
the module and need no special casing.  Identities that fail in the free
parameter ring are retried modulo the determinant constraint
t_1 ... t_n = 1 (the natural parameter space is the SL_n torus), and the
mode is reported per record.

The relations of one (i, j) are decided together, degree by degree; each
row's diagonal consistency K_i = L_{i-1}^{-1} L_i^2 L_{i+1}^{-1} comes
first, a group of its own.  Each relation is folded once, before the
degree loop: every diagonal operator's form multiplies its term's
coefficient, and terms left with the same operators are added slope by
slope, so the relation becomes one degree-linear form per shape, and its
multiplier at a degree d is that form at d.  The fold is exact because
operators are homogeneous: all paths of a chain pass the same degrees, so
a diagonal operator scales every one of them alike.  The diagonal
conjugations fold to nothing at all and check no point at any degree, and
so does every diagonal consistency but the outermost row's, which keeps
one shape with no chain and holds only modulo the determinant; its sum is
the same constant at every point, so the degree's first point decides it.
What is left are a few chains shared by the plain and the twisted
relations; at each point each is walked once, the paths that reach one
target are lifted once over their common tracked factor, and each relation
is a combination of those numerators with its own multipliers.  That walk
and lift alone decide each relation: where a combination does not vanish,
the relation's parts at the target are summed once and tried modulo the
determinant, and a sum that survives there is the record's witness.
"""

from __future__ import annotations

import itertools
from functools import partial, reduce
from operator import add, le, mul
from typing import (TYPE_CHECKING, Any, Callable, Dict, Hashable, Iterable,
                    Iterator, List, Optional, Sequence, Tuple, TypeVar)

from .characters import (
    corr_tangent_char,
    line_weight,
    modification_weight,
    piece_char,
    sym_inverse,
    weight_inverse,
    weight_ratio,
)
from .fixed_points import (
    DegreeVector,
    FixedPoint,
    Rows,
    all_degrees,
    check_row,
    check_rows,
    enumerate_points,
    lower_moves,
    padded,
    raise_moves,
    shifted,
)
from .symbolic import (
    LaurentPoly,
    RatFunc,
    TVRing,
    UsageError,
    Value,
    _over_common_den,
    combination_is_zero,
    eq_exact,
    generic_ring,
    poly_product,
    poly_sum,
    rat_sum,
    sum_is_zero,
    tv_ring,
    v_shifted,
)

if TYPE_CHECKING:  # summation_records imports it when it runs
    import random

T = TypeVar("T")
K = TypeVar("K", bound=Hashable)
_UNBUILT = object()

# A degree-linear form: (slope, polynomial) pairs, acting on degree d by the
# sum of polynomial * v^{<slope, d>} (`form_at`); a slope has one entry per
# row 1..n-1.
Form = List[Tuple[Tuple[int, ...], LaurentPoly]]


def sevostyanov_c(i: int, j: int) -> int:
    """The twist exponent c(i, j) = n_ij - n_ji of the twisted generators
    e_i = E_i K_i^i, f_i = K_i^{-i} F_i, for the standard n (n_ii = -2i,
    n_{i,i±1} = i, else 0): -1 just above the diagonal, 1 just below, else
    0."""
    return i - j if abs(i - j) == 1 else 0


class ModuleVector(Value):
    """An element of one graded piece, as coefficients on fixed points.
    Compared by value; mutable, so unhashable."""

    __hash__ = None

    def __init__(self, degree: DegreeVector,
                 coeffs: Dict[FixedPoint, RatFunc]) -> None:
        if any(p.degree != tuple(degree) for p in coeffs):
            raise UsageError("coefficient key has the wrong degree")
        self.degree, self.coeffs = degree, coeffs
        self._key = (degree, coeffs)

    def __repr__(self) -> str:
        return f"ModuleVector(degree={self.degree!r}, coeffs={self.coeffs!r})"


class GradedOperator:
    """A degree-homogeneous operator given by its action on basis vectors.

    A diagonal operator also gives its degree-linear `form` (None for any
    other operator): `form_at(form, d)` is the Laurent polynomial it
    multiplies every basis vector of degree d by.  The relation checks fold
    the form into their multipliers once per relation (see `_fold`), so they
    never walk a diagonal operator's `terms`."""

    def __init__(self, label: str, shift: Tuple[int, ...],
                 fn: Callable[[FixedPoint], List[Tuple[FixedPoint, RatFunc]]],
                 form: Optional[Form] = None):
        self.label = label
        self.shift = shift
        self.form = form
        self._fn = fn
        self._cache: Dict[Rows, List[Tuple[FixedPoint, RatFunc]]] = {}

    def terms(self, p: FixedPoint) -> List[Tuple[FixedPoint, RatFunc]]:
        out = self._cache.get(p.rows)
        if out is None:
            out = self._fn(p)
            for q, _ in out:
                if tuple(a + b for a, b in zip(p.degree, self.shift)) != q.degree:
                    raise UsageError(f"{self.label}: entry violates declared shift")
            self._cache[p.rows] = out
        return out


class ModuleContext:
    """The owner of everything derived from (n, point) or (n, degree): the
    ring, the fixed points, the localization factors, the raising and
    lowering operators and the Whittaker data.

    `memo` builds each item the first time it is asked for and keeps it for
    the life of the context, so every check that needs it shares one copy.
    Cached values are immutable by convention: callers build new objects
    instead of changing the ones they are given.
    """

    def __init__(self, n: int):
        self.n = n
        self.ring: TVRing = tv_ring(n)
        self._memo: Dict[str, Dict[Hashable, Any]] = {}

    def memo(self, kind: str, key: Hashable, build: Callable[[], T]) -> T:
        """The `kind` item at `key`, made by build() on first use."""
        table = self._memo.get(kind)
        if table is None:
            table = self._memo[kind] = {}
        got = table.get(key, _UNBUILT)
        if got is _UNBUILT:
            got = table[key] = build()
        return got

    @property
    def _sym(self) -> Dict[Hashable, Any]:
        """The sym_factor table by point rows (the bench tracer counts its
        hits)."""
        return self._memo.get("sym", {})

    def points(self, degree: Sequence[int]) -> List[FixedPoint]:
        key = tuple(degree)
        return self.memo("points", key, lambda: enumerate_points(self.n, key))

    def sym_factor(self, p: FixedPoint) -> RatFunc:
        """S-character of the tangent space at p (the localization factor),
        sym_inverse(tangent_char(p)): the product of its pieces
        g_i(row i, row i + 1), i = 1..n-1 (`piece_factor`, row n zero),
        which the local deciders and the transfer share.  Built once per
        point and context."""
        return self.memo("sym", p.rows, lambda: reduce(mul, [
            self.piece_factor(i, p.row(i), p.row(i + 1))
            for i in range(1, self.n)]))

    def piece_factor(self, i: int, upper: Tuple[int, ...],
                     lower: Tuple[int, ...]) -> RatFunc:
        """g_i = prod_w (1 - w)^{-mult} over piece i of the tangent
        character, for row i = upper and row i + 1 = lower: the sym factor
        of a point is the product of its pieces'."""
        return self.memo("piece", (i, upper, lower), lambda: weight_inverse(
            piece_char(self.ring, i, upper, lower)))

    def corr_sym_factor(self, p: FixedPoint, i: int, j: int) -> RatFunc:
        """S-character of the correspondence tangent space at (p, p+e_{ij})."""
        return self.memo("corr_sym", (p.rows, i, j), lambda: sym_inverse(
            corr_tangent_char(self.ring, p, i, j)))

    # -- diagonal scalars --------------------------------------------------

    def k_form(self, i: int) -> Form:
        """K_i acts on degree d by t_{i+1} t_i^{-1} v^{2d_i - d_{i-1} - d_{i+1}
        + 1} (d_0 = d_n = 0): slope 2e_i - e_{i-1} - e_{i+1} over the rows
        1..n-1, t_{i+1} t_i^{-1} v at d = 0."""
        check_row(self.n, i)
        return self.memo("k_form", i, lambda: [(
            tuple(2 * (c == i) - (abs(c - i) == 1) for c in range(1, self.n)),
            self.ring.t_monomial({i + 1: 1, i: -1}, v_power=1))])

    def l_form(self, i: int) -> Form:
        """L_i acts on degree d by t_1^{-1}..t_i^{-1} v^{d_i + i(n-i)/2}, a
        half-integer v-exponent: slope e_i."""
        check_row(self.n, i)
        return self.memo("l_form", i, lambda: [(
            tuple(int(c == i) for c in range(1, self.n)),
            self.ring.t_monomial({k: -1 for k in range(1, i + 1)},
                                 v_doubled_extra=i * (self.n - i)))])

    def k_scalar(self, i: int, degree: DegreeVector) -> LaurentPoly:
        return form_at(self.k_form(i), degree)


# ---------------------------------------------------------------------------
# Diagonal operators
# ---------------------------------------------------------------------------

def form_at(form: Form, d: Sequence[int]) -> LaurentPoly:
    """The polynomial that `form` acts on degree d by: one key shift per
    pair (`v_shifted`), the shifted pairs added when there are several."""
    polys = [v_shifted(c, sum(map(mul, slope, d))) for slope, c in form]
    return polys[0] if len(polys) == 1 else poly_sum(polys[0].ring, polys)


def op_diagonal(ctx: ModuleContext, form: Form, label: str) -> GradedOperator:
    """The diagonal operator of `form`: its `terms` entry at p is its scalar
    at p's degree, with no tracked factor."""
    return GradedOperator(label, (0,) * (ctx.n - 1), lambda p: [
        (p, RatFunc.from_poly(form_at(form, p.degree)))], form)


def _monomial_op(ctx: ModuleContext, name: str, form: Form, i: int,
                 power: int) -> GradedOperator:
    """The diagonal operator `name`_i^power of the one-pair `form` of
    `name`_i: slope times power, monomial to the power."""
    [(slope, c)] = form
    return op_diagonal(ctx, [(tuple(power * s for s in slope), c ** power)],
                       f"{name}{i}^{power}")


def op_K(ctx: ModuleContext, i: int, power: int = 1) -> GradedOperator:
    return _monomial_op(ctx, "K", ctx.k_form(i), i, power)


def op_L(ctx: ModuleContext, i: int, power: int = 1) -> GradedOperator:
    return _monomial_op(ctx, "L", ctx.l_form(i), i, power)


# ---------------------------------------------------------------------------
# Raising / lowering operators
# ---------------------------------------------------------------------------

def _ratio_key(ring: TVRing, t_num: int, t_den: int, v_power: int) -> int:
    """The key of t_{t_num}^2 t_{t_den}^{-2} v^{v_power} (`weight_ratio`):
    the closed products pass 1 minus this monomial to
    `RatFunc.from_binomials` as its key; it is 0, the zero binomial, when
    t_num = t_den and v_power = 0."""
    [key] = weight_ratio(ring, t_num, t_den, v_power).terms
    return key


def _raise_prefactor(ctx: ModuleContext, i: int, degree: DegreeVector) -> LaurentPoly:
    """-t_{i+1}^{-i-1} t_i^{i-1} v^{(i-1)d_{i-1} + (i+1)d_{i+1} - 2i d_i - i}."""
    d = padded(degree)
    return ctx.ring.t_monomial(
        {i + 1: -i - 1, i: i - 1},
        v_power=(i - 1) * d[i - 1] + (i + 1) * d[i + 1] - 2 * i * d[i] - i,
        coeff=-1,
    )


def _lower_prefactor(ctx: ModuleContext, i: int, degree: DegreeVector) -> LaurentPoly:
    """t_{i+1}^i t_i^{-i} v^{2i d_i - i d_{i-1} - i d_{i+1} - i}."""
    d = padded(degree)
    return ctx.ring.t_monomial(
        {i + 1: i, i: -i},
        v_power=2 * i * d[i] - i * d[i - 1] - i * d[i + 1] - i,
    )


def _twisted_raise_prefactor(ctx: ModuleContext, i: int,
                             degree: DegreeVector) -> LaurentPoly:
    """-t_{i+1}^{-1} t_i^{-1} v^{d_{i+1} - d_{i-1}}, the prefactor of the
    direct e_i."""
    d = padded(degree)
    return ctx.ring.t_monomial(
        {i + 1: -1, i: -1}, v_power=d[i + 1] - d[i - 1], coeff=-1)


def raising_product(ring: TVRing, upper: Sequence[int], mid: Sequence[int],
                    j: int) -> RatFunc:
    """The closed raising entry at column j of row i = len(mid), without the
    degree prefactor, for rows a_{i-1,*} = upper and a_{i,*} = mid
    (a = mid_j):
      t_j^2 v^{-2a} (1-v^2)^{-1}
            prod_{k<=i, k!=j} (1 - t_j^2 t_k^{-2} v^{2a_ik - 2a})^{-1}
            prod_{k<=i-1}     (1 - t_j^2 t_k^{-2} v^{2a_{i-1,k} - 2a}),
    each binomial given to `RatFunc.from_binomials` by its `_ratio_key`."""
    a = mid[j - 1]
    # 1 - v^2 is the binomial with k = j
    pairs = [(_ratio_key(ring, j, j, 2), -1)]
    for k, b in enumerate(mid, start=1):
        if k != j:
            pairs.append((_ratio_key(ring, j, k, 2 * b - 2 * a), -1))
    for k, b in enumerate(upper, start=1):
        pairs.append((_ratio_key(ring, j, k, 2 * b - 2 * a), 1))
    return RatFunc.from_binomials(ring, line_weight(ring, j, a), pairs)


def lowering_product(ring: TVRing, mid: Sequence[int], low: Sequence[int],
                     j: int) -> RatFunc:
    """The closed lowering entry at column j of row i = len(mid), without
    the degree prefactor, for rows a_{i,*} = mid and a_{i+1,*} = low
    (a = mid_j):
      (1-v^2)^{-1} prod_{k<=i, k!=j} (1 - t_k^2 t_j^{-2} v^{2a - 2a_ik})^{-1}
                   prod_{k<=i+1}     (1 - t_k^2 t_j^{-2} v^{2a - 2a_{i+1,k}}),
    each binomial given to `RatFunc.from_binomials` by its `_ratio_key`."""
    a = mid[j - 1]
    pairs = [(_ratio_key(ring, j, j, 2), -1)]
    for k, b in enumerate(mid, start=1):
        if k != j:
            pairs.append((_ratio_key(ring, k, j, 2 * a - 2 * b), -1))
    for k, b in enumerate(low, start=1):
        pairs.append((_ratio_key(ring, k, j, 2 * a - 2 * b), 1))
    return RatFunc.from_binomials(ring, ring.one(), pairs)


def _raise_entry_geometric(ctx: ModuleContext, p: FixedPoint, i: int,
                           j: int) -> RatFunc:
    lam = modification_weight(ctx.ring, p, i, j)
    return (ctx.corr_sym_factor(p, i, j) / ctx.sym_factor(p)).scale_poly(lam)


def _lower_entry_geometric(ctx: ModuleContext, p: FixedPoint, q: FixedPoint,
                           i: int, j: int) -> RatFunc:
    # the correspondence pair is (q, p): q is the lower point raised at (i, j)
    return ctx.corr_sym_factor(q, i, j) / ctx.sym_factor(p)


def _move_op(ctx: ModuleContext, label: str, i: int, step: int,
             prefactor: Callable[[DegreeVector], LaurentPoly],
             entry: Callable[[FixedPoint, FixedPoint, int], RatFunc]
             ) -> GradedOperator:
    """Row i's generator along single-entry moves: `raise_moves` for step 1,
    `lower_moves` for step -1.  The entry from p to q = p ± e_{ij} is
    entry(p, q, j) times prefactor(p.degree), the prefactor built once per
    degree and kept for as long as the operator lives."""
    moves = raise_moves if step == 1 else lower_moves
    prefactors: Dict[DegreeVector, LaurentPoly] = {}

    def fn(p: FixedPoint) -> List[Tuple[FixedPoint, RatFunc]]:
        pref = prefactors.get(p.degree)
        if pref is None:
            pref = prefactors[p.degree] = prefactor(p.degree)
        return [(q, entry(p, q, j).scale_poly(pref)) for q, j in moves(p, i)]

    return GradedOperator(f"{label}{i}", shifted((0,) * (ctx.n - 1), i, step),
                          fn)


def _closed_entry(ctx: ModuleContext, kind: str,
                  product: Callable[[TVRing, Sequence[int], Sequence[int], int],
                                    RatFunc],
                  a: Tuple[int, ...], b: Tuple[int, ...], j: int) -> RatFunc:
    """product(ring, a, b, j), built once per context, kind, row pair and
    column: the product reads only the two rows, whose lengths fix i, so
    every point that shares them shares the entry."""
    return ctx.memo(kind, (a, b, j), lambda: product(ctx.ring, a, b, j))


def _generator(ctx: ModuleContext, name: str, i: int, path: str,
               builds: Dict[str, Callable[[], GradedOperator]]
               ) -> GradedOperator:
    """Generator `name`_i along `path`, one of the keys of `builds`, made by
    its build() once per context, row and path.  A row out of range or an
    unknown path raises UsageError before anything is built."""
    check_row(ctx.n, i)
    if path not in builds:
        raise UsageError(f"unknown operator path {path!r}")
    return ctx.memo(name, (i, path), builds[path])


def op_E(ctx: ModuleContext, i: int, path: str = "closed") -> GradedOperator:
    """The raising operator for row i: degree d -> d + e_i.  One operator,
    and so one entry cache, per context, row and path."""
    move = partial(_move_op, ctx, "E", i, 1, partial(_raise_prefactor, ctx, i))
    return _generator(ctx, "E", i, path, {
        "closed": lambda: move(lambda p, q, j: _closed_entry(
            ctx, "raising", raising_product, p.row(i - 1), p.row(i), j)),
        "geometric": lambda: move(
            lambda p, q, j: _raise_entry_geometric(ctx, p, i, j))})


def op_F(ctx: ModuleContext, i: int, path: str = "closed") -> GradedOperator:
    """The lowering operator for row i: degree d -> d - e_i.  One operator,
    and so one entry cache, per context, row and path."""
    move = partial(_move_op, ctx, "F", i, -1, partial(_lower_prefactor, ctx, i))
    return _generator(ctx, "F", i, path, {
        "closed": lambda: move(lambda p, q, j: _closed_entry(
            ctx, "lowering", lowering_product, p.row(i), p.row(i + 1), j)),
        "geometric": lambda: move(
            lambda p, q, j: _lower_entry_geometric(ctx, p, q, i, j))})


def op_e(ctx: ModuleContext, i: int, path: str = "composite") -> GradedOperator:
    """Twisted raising generator: E_i K_i^i as a composite, or directly the
    geometric kernel with its own monomial prefactor.  One operator, and so
    one entry cache, per context, row and path."""
    return _generator(ctx, "e", i, path, {
        "composite": lambda: compose(op_E(ctx, i), op_K(ctx, i, i),
                                     label=f"e{i}"),
        "direct": lambda: _move_op(
            ctx, "e", i, 1, partial(_twisted_raise_prefactor, ctx, i),
            lambda p, q, j: _raise_entry_geometric(ctx, p, i, j))})


def op_f(ctx: ModuleContext, i: int, path: str = "composite") -> GradedOperator:
    """Twisted lowering generator: K_i^{-i} F_i as a composite, or directly
    the plain pushforward-pullback kernel.  One operator, and so one entry
    cache, per context, row and path."""
    return _generator(ctx, "f", i, path, {
        "composite": lambda: compose(op_K(ctx, i, -i), op_F(ctx, i),
                                     label=f"f{i}"),
        "direct": lambda: _move_op(
            ctx, "f", i, -1, lambda d: ctx.ring.one(),
            lambda p, q, j: _lower_entry_geometric(ctx, p, q, i, j))})


# ---------------------------------------------------------------------------
# Operator algebra on basis vectors
# ---------------------------------------------------------------------------

def _paths(chain: Sequence[GradedOperator], p: FixedPoint,
           coeff: Optional[RatFunc] = None) -> List[Tuple[FixedPoint, RatFunc]]:
    """coeff * chain applied to [p], ops right to left, as (target,
    coefficient) pairs: one per path through the chain, so a target that
    several paths reach appears once per path.  An empty chain, the
    identity, needs its coeff and gives [(p, coeff)]."""
    if not chain:
        return [(p, coeff)]
    *rest, first = chain
    frontier = first.terms(p)
    # a constant 1 coefficient multiplies nothing
    if coeff is not None and (coeff.factors or not coeff.unit.is_one()):
        frontier = [(r, entry * coeff) for r, entry in frontier]
    for op in reversed(rest):
        frontier = [(r, entry * c) for q, c in frontier
                    for r, entry in op.terms(q)]
    return frontier


def compose(*ops: GradedOperator, label: Optional[str] = None) -> GradedOperator:
    """Composition; ops are applied right to left, as written.  Its terms
    hold one entry per path (see `_paths`): `apply_op` and the relation
    buckets add the entries of a target that several paths reach."""
    if not ops:
        raise UsageError("empty composition")
    shift = tuple(sum(s) for s in zip(*(op.shift for op in ops)))
    return GradedOperator(label or "∘".join(op.label for op in ops), shift,
                          lambda p: _paths(ops, p))


def grouped(pairs: Iterable[Tuple[K, T]]) -> Dict[K, List[T]]:
    """{key: items} of (key, item) pairs, the keys and each key's items in
    first-seen order.  Every check that adds the parts of one target groups
    them here, keyed by `rows` tuples rather than by FixedPoint: a tuple's
    hash and == run in C, FixedPoint's in Python."""
    groups: Dict[K, List[T]] = {}
    for key, item in pairs:
        groups.setdefault(key, []).append(item)
    return groups


def apply_op(op: GradedOperator, x: ModuleVector, box: int) -> ModuleVector:
    """Exact sparse matrix-vector product; targets outside 0..box drop.
    The tests' reference for operator action: no check here calls it."""
    target = tuple(a + b for a, b in zip(x.degree, op.shift))
    if not all(0 <= d <= box for d in target):
        return ModuleVector(target, {})
    out = grouped((q.rows, entry * c) for p, c in x.coeffs.items()
                  for q, entry in op.terms(p))
    coeffs = {FixedPoint(len(rows) + 1, rows): rat_sum(parts[0].ring, parts)
              for rows, parts in out.items()}
    return ModuleVector(target, {q: c for q, c in coeffs.items() if not c.is_zero()})


def basis_vector(ctx: ModuleContext, p: FixedPoint) -> ModuleVector:
    return ModuleVector(p.degree, {p: RatFunc.one(ctx.ring)})


# ---------------------------------------------------------------------------
# Relation verification
# ---------------------------------------------------------------------------

Term = Tuple[RatFunc, Tuple[GradedOperator, ...]]


def _in_box_limit(box: int, terms: Sequence[Term]) -> Tuple[int, ...]:
    """The largest degree, componentwise, whose orbit stays in the box:
    every intermediate degree of every term's chain, the operators applied
    right to left from degree d, stays at most box in every component
    exactly when d is at most this limit in every component.  It is box
    minus the componentwise largest shift over every nonempty prefix of
    every chain; empty when no term applies an operator.

    Degrees with negative components are fine: the module genuinely has no
    such graded pieces, so the operators vanish there by themselves.
    """
    prefixes = [cum for _, chain in terms for cum in itertools.accumulate(
        (op.shift for op in reversed(chain)),
        lambda a, b: tuple(x + y for x, y in zip(a, b)))]
    return tuple(box - m for m in map(max, zip(*prefixes)))


# A shape is a chain of non-diagonal operators and a coefficient made of
# tracked factors alone (1 when there are none); `_fold` keys it by (chain,
# factor powers).  A relation folds to one degree-linear form per shape.
Shape = Tuple[Tuple[GradedOperator, ...], RatFunc]
Fold = Dict[Hashable, Form]


def _fold(ring: TVRing, terms: Sequence[Term],
          shapes: Dict[Hashable, Shape]) -> Fold:
    """The terms as {shape key: form}: at every degree d their sum is the
    sum of form_at(form, d) * tracked * chain over the shapes, with each
    shape's (chain, tracked) put into `shapes`.  Built once per relation.

    Each chain is walked right to left from its source degree.  A diagonal
    operator at offset s from there acts on degree d + s, so each of its
    pairs (slope, c) becomes (slope, c v^{<slope, s>}), the offset absorbed
    by a key shift.  A term then expands into one pair per choice of a pair
    of each of its diagonal operators: the slopes add, and the polynomials
    multiply the unit of the term's coefficient, monomials by key
    arithmetic (`poly_product`); the coefficient's tracked factors alone
    stay in the shape.  Pairs of one shape and slope are added, and a zero
    sum and a shape left with no pair are dropped.  The fold is exact
    because operators are homogeneous (`GradedOperator.terms` enforces the
    declared shift): every path of a chain passes the same degrees, so a
    diagonal operator scales all of them by the same scalar.  So the plain
    and the twisted relations of (i, j) come out as the same few shapes, no
    coefficient becomes a RatFunc product, and a relation that folds to no
    shape holds at every degree."""
    zero = (0,) * (ring.n - 1)
    classes: Dict[Hashable, Dict[Tuple[int, ...], List[LaurentPoly]]] = {}
    for coeff, chain in terms:
        kept, forms, offset = [], [], zero
        for op in reversed(chain):
            if op.form is None:
                kept.append(op)
                offset = tuple(map(add, offset, op.shift))
            else:
                forms.append([(s, v_shifted(c, sum(map(mul, s, offset))))
                              for s, c in op.form])
        kept = tuple(reversed(kept))
        key = (kept, tuple(sorted(coeff.factors.items())))
        if key not in shapes:
            shapes[key] = (kept, RatFunc(ring, ring.one(), coeff.factors))
        by_slope = classes.setdefault(key, {})
        for choice in itertools.product(*forms):
            slope = tuple(map(sum, zip(zero, *(s for s, _ in choice))))
            by_slope.setdefault(slope, []).append(poly_product(
                ring, [coeff.unit, *(c for _, c in choice)]))
    fold = {key: [(slope, m) for slope, polys in by_slope.items()
                  if not (m := poly_sum(ring, polys)).is_zero()]
            for key, by_slope in classes.items()}
    return {key: form for key, form in fold.items() if form}


def _decide_point(ctx: ModuleContext, shapes: Dict[Hashable, Shape],
                  live: Dict[int, Dict[Hashable, LaurentPoly]],
                  records: List[dict], p: FixedPoint) -> None:
    """Decide at [p] each relation in `live`, given as {shape key:
    multiplier}, into its record in `records`; a relation that fails
    leaves `live` once the point is done.

    Each shape that a live relation reads is walked once from p, with no
    coefficient but its tracked part, and the parts that reach one target
    are lifted once over their common tracked factor.  A relation's sum at
    that target is its combination of the lifted numerators, each shape's
    multiplier applied by key shifts, times that common factor, which is
    nonzero: so it vanishes exactly when the combination does.  Where it
    does not, the record's mode becomes modulo-det and the sum itself, the
    `rat_sum` of the relation's parts at the target, is tried modulo the
    determinant; if it does not vanish there either, the record fails with
    the point, the target and that sum as its witness."""
    ring = ctx.ring
    zero = ring.zero()
    walked = {key: shapes[key] for mults in live.values() for key in mults}
    failed: List[int] = []
    for rows, pairs in grouped((q.rows, (key, c)) for key, (chain, part) in
                               walked.items()
                               for q, c in _paths(chain, p, part)).items():
        polys, _ = _over_common_den([c for _, c in pairs])
        for k, mults in live.items():
            if k in failed or combination_is_zero(zero, [
                    (mults[key], poly) for (key, _), poly in zip(pairs, polys)
                    if key in mults]):
                continue
            records[k]["mode"] = "modulo-det"
            r = rat_sum(ring, [c.scale_poly(mults[key]) for key, c in pairs
                               if key in mults])
            if not _zero_mod_det(ring, r):
                records[k].update(status="fail", witness={
                    "source": p.to_json(),
                    "target": FixedPoint(p.n, rows).to_json(),
                    "entry": r.to_json(),
                })
                failed.append(k)
    for k in failed:
        del live[k]


# A relation of the suite ready for the degree loop: name, params,
# `_in_box_limit` and `_fold`.
Relation = Tuple[str, dict, Tuple[int, ...], Fold]


def _relations_at_degree(ctx: ModuleContext,
                         group: Sequence[Relation], d: DegreeVector,
                         shapes: Dict[Hashable, Shape]) -> List[dict]:
    """The record of each relation of `group` at degree d, in order, the
    relations decided together by `_decide_point`, `shapes` the group's.

    A relation's multiplier of a shape at d is its form there; a shape
    whose multiplier is zero at d is dropped, and a relation left with no
    shape, one whose fold is empty among them, checks no point.  When no
    shape that a live relation reads has a chain, each relation's sum is
    the same constant at every point, so the degree's first point decides
    it: verdict, mode and witness.  A one-pair form is one key shift of a
    nonzero polynomial, never zero, so only a form of several pairs is
    zero-tested."""
    records, live = [], {}
    for k, (name, params, limit, fold) in enumerate(group):
        in_box = all(map(le, d, limit))
        records.append({"check": name, **params, "degree": list(d),
                        "mode": "free",
                        "status": "pass" if in_box else "skipped-out-of-box"})
        if not in_box:
            continue
        mults = {}
        for key, form in fold.items():
            if len(form) == 1:
                [(slope, c)] = form
                mults[key] = v_shifted(c, sum(map(mul, slope, d)))
            elif not (m := form_at(form, d)).is_zero():
                mults[key] = m
        if mults:
            live[k] = mults
    points = ctx.points(d) if live else []
    if not any(shapes[key][0] for mults in live.values() for key in mults):
        points = points[:1]
    for p in points:
        _decide_point(ctx, shapes, live, records, p)
        if not live:
            break
    return records


def _zero_mod_det(ring: TVRing, r: RatFunc) -> bool:
    """Is r zero after imposing t_1 ... t_n = 1?"""
    if r.is_zero():
        return True
    num, den = r.num_den()
    if ring.substitute_det_one(den).is_zero():
        raise UsageError("denominator degenerates under the determinant relation")
    return ring.substitute_det_one(num).is_zero()


def _cartan_commutator_rhs(ctx: ModuleContext, i: int) -> GradedOperator:
    """K_i - K_i^{-1} as a diagonal operator: the Cartan term of [E_i, F_i],
    whose 1/(v - v^{-1}) `relation_suite` writes in the term's coefficient.
    Its form is two pairs, K_i's and minus K_i^{-1}'s, of opposite
    slopes."""
    [(slope, kappa)] = ctx.k_form(i)
    return op_diagonal(ctx, [(slope, kappa),
                             (tuple(-s for s in slope), -kappa ** -1)],
                       f"K{i}-K{i}^-1")


def relation_suite(ctx: ModuleContext) -> Iterator[Tuple[str, dict, List[Term]]]:
    """All relation instances as (name, params, terms-summing-to-zero):
    first the diagonal consistency K_i = L_{i-1}^{-1} L_i^2 L_{i+1}^{-1}
    of each row i in order (L_0 = L_n = 1, so a row outside 1..n-1 is left
    out of the L chain), then the relations of each (i, j), those of one
    (i, j) one after another.

    Each relation is written once for a generator set (tag, X, Y, c): the
    plain E, F with c = 0, and the twisted e, f with c = sevostyanov_c.  A
    generator is a chain: E_i is (E_i,), and e_i = E_i K_i^i and f_i =
    K_i^{-i} F_i are written inline as (E_i, K_i^i) and (K_i^{-i}, F_i), so
    a twisted chain folds to the plain chain times monomials.
    """
    ring = ctx.ring
    rng = range(1, ctx.n)
    one = RatFunc.one(ring)
    L, Linv = ({i: op_L(ctx, i, power) for i in rng} for power in (1, -1))
    # K_i = L_{i-1}^{-1} L_i^2 L_{i+1}^{-1}, with L_0 = L_n = 1
    for i in rng:
        yield ("diagonal-consistency", {"i": i}, [
            (one, (op_K(ctx, i),)),
            (-one, tuple(Linv[k] if k != i else op_L(ctx, i, 2)
                         for k in (i - 1, i, i + 1) if k in rng))])
    v = lambda k: RatFunc.from_poly(ring.v(k))
    vv = RatFunc.from_poly(ring.v(1) + ring.v(-1))
    # the Cartan term -(K_i - K_i^{-1}) / (v - v^{-1}): its operator acts by
    # a Laurent polynomial, and its denominator is the coefficient's
    cartan_coeff = RatFunc.from_frac(-ring.one(), ring.v(1) - ring.v(-1))
    E, F, cartan = ({i: op(ctx, i) for i in rng} for op in (
        op_E, op_F, _cartan_commutator_rhs))
    sets = (("", {i: (E[i],) for i in rng}, {i: (F[i],) for i in rng},
             lambda i, j: 0),
            ("twisted-", {i: (E[i], op_K(ctx, i, i)) for i in rng},
             {i: (op_K(ctx, i, -i), F[i]) for i in rng}, sevostyanov_c))

    for i, j in itertools.product(rng, rng):
        ij = {"i": i, "j": j}
        # diagonal conjugation: L_i X_j L_i^{-1} = v^{±δ_ij} X_j
        for tag, X, Y, _ in sets:
            for way, Z, s in (("raising", X, 1), ("lowering", Y, -1)):
                yield (f"diagonal-conjugates-{tag}{way}", ij,
                       [(one, (L[i], *Z[j], Linv[i])),
                        (-v(s if i == j else 0), Z[j])])
        # X_i Y_j - v^{c(i,j)} Y_j X_i = δ_ij (K_i - K_i^{-1}) / (v - v^{-1})
        for tag, X, Y, c in sets:
            terms = [(one, X[i] + Y[j]), (-v(c(i, j)), Y[j] + X[i])]
            if i == j:
                terms.append((cartan_coeff, (cartan[i],)))
            yield f"{tag or 'raising-lowering-'}commutator", ij, terms
        for tag, X, Y, c in sets:
            for way, Z in (("raising", X), ("lowering", Y)):
                if abs(i - j) > 1:
                    yield (f"distant-{tag}{way}-commute", ij,
                           [(one, Z[i] + Z[j]), (-one, Z[j] + Z[i])])
                elif abs(i - j) == 1:
                    # In the deformed Serre relation the twist exponent is
                    # indexed by the outer generator first: v^{c(j,i)}, the
                    # transpose of the exponent appearing in the mixed
                    # commutator.  Verified by exhaustive probe over
                    # candidate exponents at low degrees.
                    k = c(j, i)
                    yield (f"serre-{tag}{way}", ij,
                           [(one, Z[i] + Z[i] + Z[j]),
                            (-(vv * v(k)), Z[i] + Z[j] + Z[i]),
                            (v(2 * k), Z[j] + Z[i] + Z[i])])


def verify_relations(ctx: ModuleContext, box: int) -> Iterator[dict]:
    """Run the whole relation suite over the degrees in 0..box.

    Yields one record per (relation, indices, degree); a record passes when
    the identity annihilates every basis vector of that degree.  Records
    are skipped when the relation orbit leaves the box.

    The relations that share their params, as `relation_suite` yields
    them one after another, are decided together, degree by degree
    (`_relations_at_degree`): each row's diagonal consistency alone, then
    the relations of each (i, j).  Each relation's terms are folded once,
    before the degree loop (`_fold`): each diagonal operator's degree-linear
    form becomes a factor of its term's multiplier, and terms left with the
    same operators are added slope by slope, so the multiplier of each
    shape at a degree is a sum of key-shifted polynomials, zero-tested
    there.  At each point every chain that a relation still reads is
    walked once, and the parts that reach one target are lifted once
    (`_decide_point`); a relation passes the target when its
    combination of the lifted numerators vanishes.  Where it does not, the
    record's mode becomes modulo-det, and the relation's sum at the target
    is tried modulo the determinant; the first target where that fails too
    gives the witness.  The fold is exact, so each target's parts add up to
    the rational function that the unfolded terms' parts do: verdict, mode
    and witness are those of the per-point loop over the unfolded terms,
    the tests checking them byte for byte.  A relation whose terms all
    cancel in the fold, as each diagonal conjugation and every diagonal
    consistency but the outermost row's does, holds at every degree and
    checks no point; the outermost one folds to one shape with no chain,
    the same constant at every point, and is tried modulo the determinant
    at the degree's first point only.

    The first relation of each group comes out as each degree is decided;
    the records of the others are kept and follow in suite order, so the
    stream is that of one relation after another and a run cut after any
    record has written a prefix of it.
    """
    for _, group in itertools.groupby(relation_suite(ctx),
                                      key=lambda rel: rel[1]):
        shapes: Dict[Hashable, Shape] = {}
        group = [(name, params, _in_box_limit(box, terms),
                  _fold(ctx.ring, terms, shapes))
                 for name, params, terms in group]
        later: List[List[dict]] = [[] for _ in group[1:]]
        for d in all_degrees(ctx.n, box):
            first, *rest = _relations_at_degree(ctx, group, d, shapes)
            yield first
            for kept, rec in zip(later, rest):
                kept.append(rec)
        for kept in later:
            yield from kept


def _off_diagonal_witness(ctx: ModuleContext, E: GradedOperator,
                          F: GradedOperator, d: DegreeVector
                          ) -> Optional[dict]:
    """The first off-diagonal entry of E F - F E at degree d that is not
    zero, as {source, target, entry}, the points and the targets tried in
    reach order; None when every one vanishes."""
    for p in ctx.points(d):
        # the parts of -F E are negated, not multiplied by -1
        reached = grouped([(q.rows, c) for q, c in _paths((E, F), p)]
                          + [(q.rows, -c) for q, c in _paths((F, E), p)])
        for rows, parts in reached.items():
            if rows != p.rows and not sum_is_zero(parts):
                return {"source": p.to_json(),
                        "target": FixedPoint(p.n, rows).to_json(),
                        "entry": rat_sum(ctx.ring, parts).to_json()}
    return None


def diagonality_check(ctx: ModuleContext, i: int, box: int) -> Iterator[dict]:
    """All off-diagonal entries of E_i F_i - F_i E_i must vanish exactly.
    Yields one record per degree; a failing one carries the first entry
    that does not vanish as its witness."""
    E, F = op_E(ctx, i), op_F(ctx, i)
    one = RatFunc.one(ctx.ring)
    limit = _in_box_limit(box, [(one, (E, F)), (-one, (F, E))])
    for d in all_degrees(ctx.n, box):
        rec = {"check": "commutator-diagonality", "i": i, "degree": list(d),
               "status": "skipped-out-of-box"}
        if all(map(le, d, limit)):
            witness = _off_diagonal_witness(ctx, E, F, d)
            rec.update({"status": "pass"} if witness is None
                       else {"status": "fail", "witness": witness})
        yield rec


def relation_records(ctx: ModuleContext, box: int) -> Iterator[dict]:
    """The relation suite over the box, then the commutator diagonality of
    every row."""
    yield from verify_relations(ctx, box)
    for i in range(1, ctx.n):
        yield from diagonality_check(ctx, i, box)


# ---------------------------------------------------------------------------
# The commutator summation identity
# ---------------------------------------------------------------------------

def summation_identity_sides(n: int, i: int,
                        rows: Sequence[Sequence[int]]) -> Tuple[RatFunc, RatFunc]:
    """Both sides of the diagonal-commutator summation identity, in the torus
    variables, for given row data (rows i-1, i, i+1 of a triangular array).

    The left side is the weighted difference of the two Cartan monomials;
    the right side is E_i F_i - F_i E_i at the diagonal without the degree
    prefactors: the sums over columns j of the operators' own closed
    products, R(upper, mid - e_j, j) L(mid, low, j) minus
    R(upper, mid, j) L(mid + e_j, low, j).  Their equality is what makes the
    raising/lowering commutator diagonal entries close into
    (K_i - K_i^{-1})/(v - v^{-1}).
    """
    if len(rows) != 3:
        raise UsageError("expected three consecutive rows of array data")
    upper, mid, low = check_rows(n, i, rows)
    ring = tv_ring(n)
    Du, Dm, Dl = sum(upper), sum(mid), sum(low)

    head = ring.t_monomial({i: 1, i + 1: -1}, v_power=Du - 2 * Dm + Dl - 1) \
        - ring.t_monomial({i: -1, i + 1: 1}, v_power=-Du + 2 * Dm - Dl + 1)
    scale = ring.t_monomial({i: 1, i + 1: 1}, v_power=Du - Dl)
    lhs = RatFunc.from_frac(head * scale, ring.v(1) - ring.v(-1))

    ef = rat_sum(ring, [raising_product(ring, upper, shifted(mid, j, -1), j)
                        * lowering_product(ring, mid, low, j)
                        for j in range(1, i + 1)])
    fe = rat_sum(ring, [raising_product(ring, upper, mid, j)
                        * lowering_product(ring, shifted(mid, j), low, j)
                        for j in range(1, i + 1)])
    return lhs, ef - fe


def summation_identity_sides_generic(i: int) -> Tuple[RatFunc, RatFunc]:
    """Both sides of the same identity in fully independent variables
    s_1..s_i, r_1..r_{i+1}, p_1..p_{i-1}, q (one variable per array slot)."""
    if i < 1:
        raise UsageError("need i >= 1")
    names = [f"s{j}" for j in range(1, i + 1)] \
        + [f"r{k}" for k in range(1, i + 2)] \
        + [f"p{k}" for k in range(1, i)] + ["q"]
    ring = generic_ring(names)
    s = [ring.var(j) for j in range(i)]
    r = [ring.var(i + k) for k in range(i + 1)]
    p = [ring.var(2 * i + 1 + k) for k in range(i - 1)]
    q = ring.var(ring.nvars - 1)

    big = poly_product(ring, [q, *(x ** -2 for x in s), *p, *r])
    lhs = RatFunc.from_poly((ring.one() - q) * (big - ring.one()))

    def columns(q_on_r: bool) -> List[RatFunc]:
        # one half of the right side, one part per column j
        parts = []
        for j in range(i):
            unit = s[j] ** -2
            factors: List[Tuple[LaurentPoly, int]] = []
            for rk in r:
                factors.append((s[j] - (q * rk if q_on_r else rk), 1))
            for pk in p:
                factors.append((pk - (s[j] if q_on_r else q * s[j]), 1))
            for k in range(i):
                if k == j:
                    continue
                if q_on_r:
                    factors.append((s[j] - q * s[k], -1))
                    factors.append((s[k] - s[j], -1))
                else:
                    factors.append((s[j] - s[k], -1))
                    factors.append((s[k] - q * s[j], -1))
            parts.append(RatFunc.from_factors(ring, unit, factors))
        return parts

    # the j-th parts of the two halves share the poles s_j - s_k, so each
    # pair is summed first
    rhs = rat_sum(ring, [rat_sum(ring, [a.scale_poly(q), -b])
                         for a, b in zip(columns(False), columns(True))])
    return lhs, rhs


def verify_summation_identity(n: int, i: int,
                              rows: Sequence[Sequence[int]]) -> bool:
    """Verify the summation identity exactly in both variable systems.

    The torus-variable form is checked for the supplied row data; the
    independent-variable form is checked once per i.
    """
    lhs_o, rhs_o = summation_identity_sides(n, i, rows)
    lhs_s, rhs_s = summation_identity_sides_generic(i)
    return eq_exact(lhs_o, rhs_o) and eq_exact(lhs_s, rhs_s)


def _random_admissible_rows(i: int, rng: random.Random) -> List[List[int]]:
    """Rows i-1, i and i+1 of a random admissible array: each entry is the
    entry below it plus 0..3."""
    low = [rng.randint(0, 3) for _ in range(i + 1)]
    mid = [low[j] + rng.randint(0, 3) for j in range(i)]
    upper = [mid[j] + rng.randint(0, 3) for j in range(i - 1)]
    return [upper, mid, low]


def summation_records(ctx: ModuleContext, seed: int,
                      i: Optional[int] = None) -> Iterator[dict]:
    """The summation identity for row i, or for every row up to 4, each on
    random admissible rows drawn from `seed`; one record per row."""
    import random
    rng = random.Random(seed)
    for row in range(1, min(ctx.n, 5)) if i is None else [i]:
        check_row(ctx.n, row)
        rows = _random_admissible_rows(row, rng)
        ok = verify_summation_identity(ctx.n, row, rows)
        yield {"check": "commutator-summation-identity", "i": row,
               "rows": rows, "status": "pass" if ok else "fail"}
