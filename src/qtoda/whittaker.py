"""Bilinear pairing on the graded module and the two Whittaker vectors.

The pairing is characterized by two properties: the degree-zero basis
vector pairs to 1 with itself, and the raising operator for each row is
adjoint to the lowering operator.  Geometrically it is a global-sections
pairing twisted by the determinant line, which localizes to a closed
per-point weight: a degree-dependent monomial times det-weight over the
orientation factor.

The two distinguished vectors are:

- the structure-sheaf vector, an eigenvector of every twisted lowering
  generator with eigenvalue 1/(1 - v^2);
- the inverse-determinant vector, an eigenvector of every pairing-adjoint
  twisted raising generator with the same eigenvalue.

The adjoint record and both eigen records of a row i and a degree d are
decided from one list of lowering edges: the products B_qp = F_i[q -> p]
sym_factor(q), one per entry of F_i from degree d + e_i down to d.  Every
other factor is a monomial per degree or per point (the K_i powers of the
twisted generators, the pairing prefactor, det_weight, the dual prefactor),
so no composite operator is walked, the pairing weight is built only in the
box and neither Whittaker vector is built at d + e_i.

Their pairing degree by degree has a closed form: a monomial m_d times the
coefficient sum of the structure-sheaf vector.  It rests on a per-point
identity, checked at every fixed point: the dual-vector coefficient times
the pairing weight is m_d, so the localized pairing sum is m_d times that
coefficient sum term by term.

The coefficient sum `sheaf_rgamma` is not summed point by point.  The sym
factor of a point is a product of pieces g_i, piece i reading only rows i
and i + 1, so the sum over the points of a degree is a transfer over the
rows: `suffix_sum` sums g_i times the suffix sum of the next row over the
rows that can follow row i, and each suffix sum is built once per
context, shared by every degree and every row above it.
"""

from __future__ import annotations

import itertools
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from .characters import det_weight
from .fixed_points import (DegreeVector, FixedPoint, Rows, admissible_rows,
                           all_degrees, check_degree, check_rows, padded,
                           shifted)
from .operators import (
    ModuleContext,
    ModuleVector,
    basis_vector,
    op_E,
    op_F,
    raising_product,
    vanishes,
)
from .symbolic import (
    LaurentPoly,
    RatFunc,
    TVRing,
    UsageError,
    eq_exact,
    generic_ring,
    rat_sum,
    sum_is_zero,
    tv_ring,
)


# ---------------------------------------------------------------------------
# The pairing
# ---------------------------------------------------------------------------

def pairing_prefactor(ring: TVRing, degree: DegreeVector) -> LaurentPoly:
    """Degree-dependent monomial c_d in the localized pairing weight:
    (-1)^{sum d} v^{sum 2i d_i^2 - sum_{i>=2} (2i-1) d_i d_{i-1}}
    prod_i t_i^{(2i-1)(d_{i-1} - d_i)}  (with d_0 = d_n = 0)."""
    d = padded(degree)
    m = len(degree)
    v_power = sum(2 * i * d[i] ** 2 for i in range(1, m + 1)) \
        - sum((2 * i - 1) * d[i] * d[i - 1] for i in range(2, m + 1))
    t_exps = {i: (2 * i - 1) * (d[i - 1] - d[i]) for i in range(1, m + 2)}
    sign = -1 if sum(degree) % 2 else 1
    return ring.t_monomial(t_exps, v_power=v_power, coeff=sign)


def _det(ctx: ModuleContext, p: FixedPoint) -> LaurentPoly:
    """det_weight(p), once per point and context."""
    return ctx.memo("det", p.rows, lambda: det_weight(ctx.ring, p))


def pairing_weight(ctx: ModuleContext, p: FixedPoint) -> RatFunc:
    """Per-point weight theta_p = c_d * det_weight(p) / sym_factor(p),
    computed once per point and kept in the context."""

    def build() -> RatFunc:
        pref = pairing_prefactor(ctx.ring, p.degree) * _det(ctx, p)
        return RatFunc.from_poly(pref) / ctx.sym_factor(p)

    return ctx.memo("theta", p.rows, build)


def shapovalov_pair(ctx: ModuleContext, x: ModuleVector,
                    y: ModuleVector) -> RatFunc:
    """The pairing of two graded vectors; distinct degrees are orthogonal."""
    if tuple(x.degree) != tuple(y.degree):
        return RatFunc.zero(ctx.ring)
    return rat_sum(ctx.ring, [xc * y.coeffs[p] * pairing_weight(ctx, p)
                              for p, xc in x.coeffs.items() if p in y.coeffs])


# ---------------------------------------------------------------------------
# The coefficient sum of the structure-sheaf vector, by a transfer over rows
# ---------------------------------------------------------------------------

def suffix_sum(ctx: ModuleContext, row: Tuple[int, ...],
               tail: Tuple[int, ...]) -> RatFunc:
    """F_i(row; tail), i = len(row): the sum over the rows i + 1..n-1 that
    can follow row i = `row`, of row sums `tail` = (d_{i+1}, .., d_{n-1}),
    of the product of the pieces g_i .. g_{n-1} of the sym factor
    (`ModuleContext.piece_factor`; row n is zero).

    F_{n-1}(row) = g_{n-1}(row, 0), and F_i(row; tail) is one flat
    `rat_sum` of g_i(row, low) F_{i+1}(low; tail[1:]) over the
    `admissible_rows` low of sum tail[0].  Each F is built once per
    context and key, so every degree and every row i - 1 above it share
    it."""
    def build() -> RatFunc:
        i = len(row)
        if not tail:
            return ctx.piece_factor(i, row, (0,) * (i + 1))
        return rat_sum(ctx.ring, [
            ctx.piece_factor(i, row, low) * suffix_sum(ctx, low, tail[1:])
            for low in admissible_rows(row, tail[0])])

    return ctx.memo("suffix_sum", (row, tail), build)


def sheaf_rgamma(ctx: ModuleContext, degree: Sequence[int]) -> RatFunc:
    """Global-sections character of the structure-sheaf Whittaker component
    at one degree: the sum of sym_factor(p) over the fixed points p of
    degree d.  The sym factor is the product of the pieces g_1..g_{n-1},
    piece i reading rows i and i + 1 alone, so the sum is the transfer
    F_1((d_1); d_2, .., d_{n-1}) of `suffix_sum`, built once per degree and
    context; the closed Whittaker pairing and the Toda coefficient-sum
    series share it."""
    degree = check_degree(ctx.n, degree)
    return suffix_sum(ctx, degree[:1], degree[1:])


# ---------------------------------------------------------------------------
# Whittaker vectors
# ---------------------------------------------------------------------------

def whittaker_k(ctx: ModuleContext, degree: Sequence[int]) -> ModuleVector:
    """Degree-d component of the structure-sheaf Whittaker vector: the
    localized structure-sheaf class, coefficient sym_factor(p) at p.  Built
    once per degree and context."""
    degree = tuple(degree)
    return ctx.memo("whittaker_k", degree, lambda: ModuleVector(
        degree, {p: ctx.sym_factor(p) for p in ctx.points(degree)}))


def dual_whittaker_prefactor(ring: TVRing, degree: DegreeVector) -> LaurentPoly:
    """Scalar in front of the inverse-determinant class:
    v^{sum (1-2i) d_i^2 - sum_{i>=2} (2-2i) d_i d_{i-1} - sum d_i}
    prod_i t_i^{(2-2i)(d_{i-1} - d_i)}."""
    d = padded(degree)
    m = len(degree)
    v_power = sum((1 - 2 * i) * d[i] ** 2 for i in range(1, m + 1)) \
        - sum((2 - 2 * i) * d[i] * d[i - 1] for i in range(2, m + 1)) \
        - sum(degree)
    t_exps = {i: (2 - 2 * i) * (d[i - 1] - d[i]) for i in range(1, m + 2)}
    return ring.t_monomial(t_exps, v_power=v_power)


def whittaker_w(ctx: ModuleContext, degree: Sequence[int]) -> ModuleVector:
    """Degree-d component of the dual Whittaker vector: the localized class
    of the inverse determinant line, scaled by its degree prefactor.  Built
    once per degree and context."""
    degree = tuple(degree)

    def build() -> ModuleVector:
        pref = dual_whittaker_prefactor(ctx.ring, degree)
        return ModuleVector(degree, {
            p: ctx.sym_factor(p).scale_poly(pref * _det(ctx, p) ** -1)
            for p in ctx.points(degree)})

    return ctx.memo("whittaker_w", degree, build)


# one lowering edge of row i landing on degree d: (q, p, F_i[q -> p] S(T_q))
# for q of degree d + e_i
Edge = Tuple[FixedPoint, FixedPoint, RatFunc]


def lowering_edges(ctx: ModuleContext, i: int,
                   degree: Sequence[int]) -> List[Edge]:
    """Every entry of F_i from degree d + e_i down to d as (q, p, B_qp),
    with B_qp = F_i[q -> p] sym_factor(q): one product per entry, in the
    order of the points of d + e_i and of their entries.

    The adjoint record and both eigen records of (i, d) are decided from
    these products alone; every other factor they need is a monomial per
    degree or per point.  That is exact for two reasons.  Operators are
    homogeneous (the reason `_fold` gives), so a diagonal K_i
    acts on every basis vector of one degree by the same scalar, and each
    entry of a twisted composite is an F_i entry times a monomial.  And the adjoint
    identity of a point pair is multiplied through by a nonzero rational
    function, a product of sym factors, which is the same as dividing by
    its inverse and changes no verdict."""
    F = op_F(ctx, i)
    return [(q, p, entry * ctx.sym_factor(q))
            for q in ctx.points(shifted(degree, i))
            for p, entry in F.terms(q)]


def _eigen_sums_vanish(ctx: ModuleContext,
                       vector: Callable[[ModuleContext, Sequence[int]],
                                        ModuleVector],
                       degree: Sequence[int],
                       parts: Iterable[Tuple[Rows, RatFunc]]) -> bool:
    """The parts (p.rows, part) of an operator applied to a vector at degree
    d + e_i, minus vector(d)(p) / (1 - v^2), sum to zero at every point p
    of degree d; each p's target part comes first.  The target parts are
    built once per context, vector and degree, so every row reads the same
    ones."""
    degree = tuple(degree)

    def build() -> List[Tuple[Rows, RatFunc]]:
        ring = ctx.ring
        minus_scale = RatFunc.from_frac(-ring.one(), ring.one() - ring.v(2))
        return [(p.rows, c * minus_scale)
                for p, c in vector(ctx, degree).coeffs.items()]

    return vanishes(itertools.chain(
        ctx.memo("eigen_target", (vector.__name__, degree), build), parts))


def lowering_eigen_check(ctx: ModuleContext, i: int, degree: Sequence[int],
                         edges: Sequence[Edge]) -> bool:
    """f_i = K_i^{-i} F_i applied to the structure-sheaf vector at degree
    d + e_i equals 1/(1-v^2) times its degree-d component.  Its coefficient
    at q is sym_factor(q), and K_i^{-i} acts on degree d by k_i(d)^{-i}, so
    the part of the edge q -> p is k_i(d)^{-i} B_qp, read from `edges`, the
    `lowering_edges` of (i, d)."""
    k = ctx.k_scalar(i, degree) ** -i
    return _eigen_sums_vanish(ctx, whittaker_k, degree, (
        (p.rows, b.scale_poly(k)) for _, p, b in edges))


def dual_eigen_check(ctx: ModuleContext, i: int, degree: Sequence[int],
                     edges: Sequence[Edge]) -> bool:
    """K_i^{2i} f_i, the pairing-adjoint of the twisted raising generator,
    applied to the dual vector at degree d + e_i equals 1/(1-v^2) times its
    degree-d component.  Its coefficient at q is omega(d + e_i) det(q)^{-1}
    sym_factor(q), with omega = `dual_whittaker_prefactor`, and K_i^{2i}
    K_i^{-i} acts on degree d by k_i(d)^i, so the part of the edge q -> p
    is k_i(d)^i omega(d + e_i) det(q)^{-1} B_qp, read from `edges`, the
    `lowering_edges` of (i, d)."""
    scalar = ctx.k_scalar(i, degree) ** i \
        * dual_whittaker_prefactor(ctx.ring, shifted(degree, i))
    return _eigen_sums_vanish(ctx, whittaker_w, degree, (
        (p.rows, b.scale_poly(scalar * _det(ctx, q) ** -1))
        for q, p, b in edges))


def eigen_records(ctx: ModuleContext, i: int, degree: Sequence[int],
                  edges: Optional[Sequence[Edge]] = None) -> Iterator[dict]:
    """Both Whittaker eigen records of row i landing on degree d, decided
    from one list of lowering edges, built here unless given."""
    if edges is None:
        edges = lowering_edges(ctx, i, degree)
    for check, holds in (("structure-sheaf-vector-eigen", lowering_eigen_check),
                         ("dual-vector-eigen", dual_eigen_check)):
        yield {"check": check, "i": i, "degree": list(degree),
               "status": "pass" if holds(ctx, i, degree, edges) else "fail"}


def _adjoint_holds(ctx: ModuleContext, i: int, degree: Sequence[int],
                   edges: Sequence[Edge]) -> bool:
    """E_i and F_i are adjoint on degrees d and d + e_i: for every point pair
    (p, q) that either operator links, E_i[p -> q] theta_q - F_i[q -> p]
    theta_p sums to zero (the pairing of E_i[p] with [q] against that of
    [p] with F_i[q]).

    Each pair's parts are multiplied by sym_factor(p) sym_factor(q), a
    nonzero rational function, which changes no verdict.  With theta_x =
    c_x det(x) / sym_factor(x), c = `pairing_prefactor`, they become
    E_i[p -> q] sym_factor(p) c_{d+e_i} det(q) and -B_qp c_d det(p) (see
    `lowering_edges`), so no theta is built."""
    E = op_E(ctx, i)
    c_up = pairing_prefactor(ctx.ring, shifted(degree, i))
    minus_c = -pairing_prefactor(ctx.ring, degree)
    return vanishes(itertools.chain(
        (((p.rows, q.rows), (entry * ctx.sym_factor(p)).scale_poly(
            c_up * _det(ctx, q)))
         for p in ctx.points(degree) for q, entry in E.terms(p)),
        (((p.rows, q.rows), b.scale_poly(minus_c * _det(ctx, p)))
         for q, p, b in edges)))


# ---------------------------------------------------------------------------
# The pushforward summation identity behind the dual eigen-property
# ---------------------------------------------------------------------------

def line_pushforward_sides(n: int, i: int, upper: Sequence[int],
                           mid: Sequence[int]) -> Tuple[RatFunc, RatFunc]:
    """Both sides of the identity expressing the pushforward of the
    tautological quotient line through the modification correspondence as a
    scalar multiple of the structure sheaf.

    For row data a_{i-1,*} = upper (length i-1) and a_{i,*} = mid (length
    i), the left side is sum_j raising_product(upper, mid, j), the closed
    raising entries of E_i without their degree prefactor, and the right
    side is t_i^2 v^{2 d_{i-1} - 2 d_i} (1-v^2)^{-1}.
    """
    upper, mid = check_rows(n, i, (upper, mid))
    ring = tv_ring(n)
    lhs = rat_sum(ring, [raising_product(ring, upper, mid, j)
                         for j in range(1, i + 1)])
    rhs = RatFunc.from_frac(
        ring.t_monomial({i: 2}, v_power=2 * sum(upper) - 2 * sum(mid)),
        ring.one() - ring.v(2))
    return lhs, rhs


def partial_fraction_identity(i: int) -> bool:
    """sum_{j<=i} prod_{k<=i-1} (p_k - s_j) prod_{k<=i, k!=j} (s_k - s_j)^{-1}
    equals 1, in fully independent variables."""
    if i < 1:
        raise UsageError("need i >= 1")
    names = [f"s{j}" for j in range(1, i + 1)] \
        + [f"p{k}" for k in range(1, i)]
    ring = generic_ring(names)
    s = [ring.var(j) for j in range(i)]
    p = [ring.var(i + k) for k in range(i - 1)]
    parts = []
    for j in range(i):
        factors: List[Tuple[LaurentPoly, int]] = []
        for pk in p:
            factors.append((pk - s[j], 1))
        for k in range(i):
            if k != j:
                factors.append((s[k] - s[j], -1))
        parts.append(RatFunc.from_factors(ring, ring.one(), factors))
    return sum_is_zero(parts + [-RatFunc.one(ring)])


# ---------------------------------------------------------------------------
# The pairing of the two Whittaker vectors
# ---------------------------------------------------------------------------

def _closed_monomial(ring: TVRing, degree: DegreeVector) -> LaurentPoly:
    """The monomial m_d in front of the closed Whittaker pairing:
    (-1)^{sum d} v^{sum d_i^2 - sum d_i d_{i-1} - sum d_i}
    prod_i t_i^{d_{i-1} - d_i}.  Written out on its own, not as the product
    of `pairing_prefactor` and `dual_whittaker_prefactor`: the two-path
    record compares that product against it."""
    d = padded(degree)
    m = len(degree)
    v_power = sum(d[i] ** 2 for i in range(1, m + 1)) \
        - sum(d[i] * d[i - 1] for i in range(2, m + 1)) - sum(degree)
    t_exps = {i: d[i - 1] - d[i] for i in range(1, m + 2)}
    sign = -1 if sum(degree) % 2 else 1
    return ring.t_monomial(t_exps, v_power=v_power, coeff=sign)


def whittaker_pair_closed(ctx: ModuleContext,
                          degree: Sequence[int]) -> RatFunc:
    """Closed form of the Whittaker pairing at one degree: m_d times the
    coefficient sum of the localized structure-sheaf class."""
    return sheaf_rgamma(ctx, degree).scale_poly(
        _closed_monomial(ctx.ring, degree))


def pairing_two_path_record(ctx: ModuleContext,
                            degree: Sequence[int]) -> dict:
    """The dual-vector coefficient times the pairing weight is m_d at every
    point of degree d: W_w(p) theta_p == m_d, the sym factor and det(p)
    cancelling and the two degree prefactors multiplying to m_d.

    The per-point identity implies the summed one: the localized pairing
    sum_p W_k(p) W_w(p) theta_p is then m_d sum_p W_k(p), the closed form.
    A failing record names the rows of the first point where it fails."""
    m_d = RatFunc.from_poly(_closed_monomial(ctx.ring, degree))
    record = {"check": "whittaker-pairing-two-path", "degree": list(degree)}
    for p, c in whittaker_w(ctx, degree).coeffs.items():
        if not eq_exact(c * pairing_weight(ctx, p), m_d):
            return {**record, "status": "fail",
                    "point": [list(r) for r in p.rows]}
    return {**record, "status": "pass"}


# ---------------------------------------------------------------------------
# The whittaker suite
# ---------------------------------------------------------------------------

def whittaker_records(ctx: ModuleContext, box: int) -> Iterator[dict]:
    """Every pairing and Whittaker check over the box, one record each.

    In order: the pairing normalization at the lowest vector; for each row
    and in-box degree, adjointness of E_i and F_i on every basis pair; both
    Whittaker eigen-properties; the line-pushforward identity on the real
    rows of every point up to degree 2, decided once per (i, row i - 1,
    row i) and reported per point; the partial-fraction identity for
    i <= 4; and the two-path Whittaker pairing at every in-box degree.

    Each (i, d) builds its `lowering_edges` once and decides its adjoint
    record and both eigen verdicts from them; no edge is kept for the next
    (i, d).  The adjoint records come out as they are decided;
    the eigen records are kept and follow them all, so a run cut after
    any record has written a prefix of the full stream.
    """
    n = ctx.n
    z = basis_vector(ctx, FixedPoint.zero(n))
    ok = eq_exact(shapovalov_pair(ctx, z, z), RatFunc.one(ctx.ring))
    yield {"check": "pairing-normalization",
           "status": "pass" if ok else "fail"}
    eigen: List[dict] = []
    for i in range(1, n):
        for d in all_degrees(n, box):
            edges = lowering_edges(ctx, i, d)
            ok = _adjoint_holds(ctx, i, d, edges)
            yield {"check": "raising-lowering-adjoint", "i": i,
                   "degree": list(d), "status": "pass" if ok else "fail"}
            eigen += eigen_records(ctx, i, d, edges)
    yield from eigen
    for i in range(1, n):
        for d in all_degrees(n, min(box, 2)):
            for p in ctx.points(d):
                upper, mid = p.row(i - 1), p.row(i)
                ok = ctx.memo("pushforward", (i, upper, mid), lambda: eq_exact(
                    *line_pushforward_sides(n, i, upper, mid)))
                yield {"check": "line-pushforward-identity", "i": i,
                       "point": [list(r) for r in p.rows],
                       "status": "pass" if ok else "fail"}
    for i in range(1, 5):
        yield {"check": "partial-fraction-identity", "i": i,
               "status": "pass" if partial_fraction_identity(i)
               else "fail"}
    for d in all_degrees(n, box):
        yield pairing_two_path_record(ctx, d)
