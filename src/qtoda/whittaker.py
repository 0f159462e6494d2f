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

Their pairing degree by degree has a closed form: a monomial m_d times the
coefficient sum of the structure-sheaf vector.  It rests on a per-point
identity, checked at every fixed point: the dual-vector coefficient times
the pairing weight is m_d, so the localized pairing sum is m_d times that
coefficient sum term by term.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, List, Sequence, Tuple

from .characters import det_weight
from .fixed_points import (DegreeVector, FixedPoint, all_degrees, check_rows,
                           padded, shifted)
from .operators import (
    GradedOperator,
    ModuleContext,
    ModuleVector,
    basis_vector,
    compose,
    grouped,
    op_E,
    op_F,
    op_K,
    op_f,
    raising_product,
    vanishes,
)
from .symbolic import (
    LaurentPoly,
    Parts,
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


def by_rows(pairs: Sequence[Tuple[FixedPoint, RatFunc]],
            row: int = 0) -> Parts:
    """The parts of (point, part) pairs nested the way the space fibres: one
    group per value of row 1, in it one group per value of row 2, and so on,
    the last row innermost.  `rat_sum` of the result sums each fibre of the
    map that forgets a stage before the fibres are added."""
    if not pairs or row == len(pairs[0][0].rows) - 1:
        return [part for _, part in pairs]
    groups = grouped((p.rows[row], (p, part)) for p, part in pairs)
    return [by_rows(g, row + 1) for g in groups.values()]


def shapovalov_pair(ctx: ModuleContext, x: ModuleVector,
                    y: ModuleVector) -> RatFunc:
    """The pairing of two graded vectors; distinct degrees are orthogonal."""
    if tuple(x.degree) != tuple(y.degree):
        return RatFunc.zero(ctx.ring)
    return rat_sum(ctx.ring, by_rows(
        [(p, xc * y.coeffs[p] * pairing_weight(ctx, p))
         for p, xc in x.coeffs.items() if p in y.coeffs]))


def rgamma_char(ctx: ModuleContext, x: ModuleVector) -> RatFunc:
    """Global-sections character of a localized class: the plain coefficient
    sum (each fixed-point class contributes 1)."""
    return rat_sum(ctx.ring, by_rows(list(x.coeffs.items())))


def sheaf_rgamma(ctx: ModuleContext, degree: Sequence[int]) -> RatFunc:
    """rgamma_char of the structure-sheaf Whittaker component at one degree,
    once per degree and context: the closed Whittaker pairing and the Toda
    coefficient-sum series share it."""
    degree = tuple(degree)
    return ctx.memo("sheaf_rgamma", degree,
                    lambda: rgamma_char(ctx, whittaker_k(ctx, degree)))


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


def dual_raising_op(ctx: ModuleContext, i: int):
    """The pairing-adjoint of the twisted raising generator: K_i^{2i} f_i."""
    return compose(op_K(ctx, i, 2 * i), op_f(ctx, i), label=f"e{i}*")


def _eigen_holds(ctx: ModuleContext, op: GradedOperator,
                 vector: Callable[[ModuleContext, Sequence[int]], ModuleVector],
                 i: int, degree: Sequence[int]) -> bool:
    """op maps the degree d + e_i component of the vector to 1/(1-v^2) times
    its degree-d component.  For each target q, the entries times the source
    coefficients and -(1-v^2)^{-1} times the degree-d coefficient at q must
    sum to zero."""
    src = shifted(degree, i)
    ring = ctx.ring
    minus_scale = RatFunc.from_frac(-ring.one(), ring.one() - ring.v(2))
    return vanishes(itertools.chain(
        ((q.rows, c * minus_scale)
         for q, c in vector(ctx, degree).coeffs.items()),
        ((q.rows, entry * c) for p, c in vector(ctx, src).coeffs.items()
         for q, entry in op.terms(p))))


def lowering_eigen_check(ctx: ModuleContext, i: int,
                         degree: Sequence[int]) -> bool:
    """f_i applied to the structure-sheaf vector at degree d + e_i equals
    1/(1-v^2) times its degree-d component."""
    return _eigen_holds(ctx, op_f(ctx, i), whittaker_k, i, degree)


def dual_eigen_check(ctx: ModuleContext, i: int,
                     degree: Sequence[int]) -> bool:
    """K_i^{2i} f_i applied to the dual vector at degree d + e_i equals
    1/(1-v^2) times its degree-d component."""
    return _eigen_holds(ctx, dual_raising_op(ctx, i), whittaker_w, i, degree)


def eigen_records(ctx: ModuleContext, i: int,
                  degree: Sequence[int]) -> Iterator[dict]:
    """Both Whittaker eigen records of row i landing on degree d."""
    for check, holds in (("structure-sheaf-vector-eigen", lowering_eigen_check),
                         ("dual-vector-eigen", dual_eigen_check)):
        yield {"check": check, "i": i, "degree": list(degree),
               "status": "pass" if holds(ctx, i, degree) else "fail"}


def _adjoint_holds(ctx: ModuleContext, i: int, degree: Sequence[int]) -> bool:
    """E_i and F_i are adjoint on degrees d and d + e_i: for every point pair
    (p, q) that either operator links, E_qp theta_q - F_pq theta_p sums to
    zero (the pairing of E_i[p] with [q] against that of [p] with F_i[q])."""
    E, F = op_E(ctx, i), op_F(ctx, i)
    target = shifted(degree, i)
    return vanishes(itertools.chain(
        (((p.rows, q.rows), entry * pairing_weight(ctx, q))
         for p in ctx.points(degree) for q, entry in E.terms(p)),
        (((p.rows, q.rows), -(entry * pairing_weight(ctx, p)))
         for q in ctx.points(target) for p, entry in F.terms(q))))


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
    """
    n = ctx.n
    z = basis_vector(ctx, FixedPoint.zero(n))
    ok = eq_exact(shapovalov_pair(ctx, z, z), RatFunc.one(ctx.ring))
    yield {"check": "pairing-normalization",
           "status": "pass" if ok else "fail"}
    for i in range(1, n):
        for d in all_degrees(n, box):
            yield {"check": "raising-lowering-adjoint", "i": i,
                   "degree": list(d),
                   "status": "pass" if _adjoint_holds(ctx, i, d) else "fail"}
    for i in range(1, n):
        for d in all_degrees(n, box):
            yield from eigen_records(ctx, i, d)
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
