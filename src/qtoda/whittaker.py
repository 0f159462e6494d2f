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
decided at each point p of d, and each identity reads only rows i - 1, i
and i + 1 of p.  The sym factor of a point is a product of pieces g_k,
piece k reading only rows k and k + 1, so every factor but the two pieces
that read row i is the same at p and at each point q = p + e_{ij} that
E_i reaches; it divides out, as does a monomial per degree or per point.
What is left reads the three rows alone: the entries E_i[p -> q] and
F_i[q -> p], the two pieces at p and at q, and monomials in d_{i-1}, d_i
and d_{i+1}.  So the three verdicts are decided once per (i, row i - 1,
row i, row i + 1) and read by every point, of any degree, with those rows;
no composite operator is walked, no pairing weight is built outside the
box and neither Whittaker vector is built at d + e_i.

Each quantity is built once, keyed by exactly what it reads, and as a
product of what the context has already built: the degree monomials of
those parts once per (i, d_{i-1}, d_i, d_{i+1}) (`local_scalars`), c_d
once per degree, the sym factor of a point as the product of its pieces
(`ModuleContext.sym_factor`), which the local deciders have already
built, the pairing weight from the sym factor's negated factor powers and
inverted unit monomial, with no factor split again, and the eigenvalue
1/(1 - v^2) once per context (`whittaker_eigenvalue`).  The
line-pushforward identity is one zero test over the closed raising
entries that E_i has built and minus its right side, as every other
identity here is decided: no side is summed.

The pairing of the two vectors, degree by degree, has a closed form: a
monomial m_d times the coefficient sum of the structure-sheaf vector.  It
rests on a per-point identity, checked at every fixed point: the
dual-vector coefficient times the pairing weight is m_d, so the localized
pairing sum is m_d times that coefficient sum term by term.

The coefficient sum `sheaf_rgamma` is not summed point by point either:
by the same pieces, the sum over the points of a degree is a transfer
over the rows.  `suffix_sum` sums g_i times the suffix sum of the next
row over the rows that can follow row i, and each suffix sum is built
once per context, shared by every degree and every row above it.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from .characters import det_weight
from .fixed_points import (DegreeVector, FixedPoint, Rows, admissible_rows,
                           all_degrees, check_degree, check_rows, padded,
                           shifted)
from .operators import (
    ModuleContext,
    ModuleVector,
    _closed_entry,
    basis_vector,
    op_E,
    op_F,
    raising_product,
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


def _pairing_prefactor(ctx: ModuleContext, degree: DegreeVector) -> LaurentPoly:
    """c_d (`pairing_prefactor`), once per degree and context."""
    return ctx.memo("pairing_prefactor", degree,
                    lambda: pairing_prefactor(ctx.ring, degree))


def pairing_weight(ctx: ModuleContext, p: FixedPoint) -> RatFunc:
    """Per-point weight theta_p = c_d * det_weight(p) * sym_factor(p)^-1,
    computed once per point and kept in the context.

    The sym factor S(p) is a product of piece factors prod (1 - w)^{-mult},
    so its unit is a monomial +-x^a: S(p)^-1 is that unit's inverse
    monomial over the negated factor powers, and no factor is split again
    (`LaurentPoly.__pow__` raises UsageError on a unit of any other
    shape)."""

    def build() -> RatFunc:
        s = ctx.sym_factor(p)
        unit = _pairing_prefactor(ctx, p.degree) * _det(ctx, p) \
            * s.unit ** -1
        return RatFunc(ctx.ring, unit, {k: -e for k, e in s.factors.items()})

    return ctx.memo("theta", p.rows, build)


def whittaker_eigenvalue(ctx: ModuleContext) -> RatFunc:
    """1/(1 - v^2), the eigenvalue of both Whittaker vectors, built once per
    context: the eigen targets and the right side of the line-pushforward
    identity are products of it."""
    ring = ctx.ring
    return ctx.memo("eigenvalue", None, lambda: RatFunc.from_frac(
        ring.one(), ring.one() - ring.v(2)))


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


# ---------------------------------------------------------------------------
# Adjointness and both eigen-properties, decided per three rows
# ---------------------------------------------------------------------------

# the records a local verdict triple decides, in its order
LOCAL_CHECKS = ("raising-lowering-adjoint", "structure-sheaf-vector-eigen",
                "dual-vector-eigen")


def local_key(i: int, p: FixedPoint) -> Tuple[int, Rows]:
    """(i, (row i - 1, row i, row i + 1)) of p, row 0 empty and row n
    zero: all that the three identities of row i at p read."""
    return i, (p.row(i - 1), p.row(i), p.row(i + 1))


def local_sym(ctx: ModuleContext, i: int, p: FixedPoint) -> RatFunc:
    """sigma_i(p) = g_{i-1}(row i - 1, row i) g_i(row i, row i + 1), the two
    pieces of sym_factor(p) that read row i (`ModuleContext.piece_factor`;
    there is no g_0).  Built once per context and `local_key`."""
    def build() -> RatFunc:
        upper, mid, low = p.row(i - 1), p.row(i), p.row(i + 1)
        g = ctx.piece_factor(i, mid, low)
        return ctx.piece_factor(i - 1, upper, mid) * g if i > 1 else g

    return ctx.memo("local_sym", local_key(i, p), build)


def local_parts(ctx: ModuleContext, i: int, p: FixedPoint
                ) -> Tuple[List[List[RatFunc]], List[RatFunc], List[RatFunc]]:
    """The parts of the three identities of row i at the point p of degree
    d, each divided by a nonzero factor that changes no verdict: the
    adjoint pair of every q that E_i reaches from p, then the parts of the
    structure-sheaf and of the dual eigen-equation at p.

    The sym factor of any point x is R_i sigma_i(x) (`local_sym`), and R_i,
    the product of the pieces that do not read row i, is the same at p and
    at every q = p + e_{ij}; every identity is divided by it.  With
    B_q = F_i[q -> p] sigma_i(q), c = `pairing_prefactor`, omega =
    `dual_whittaker_prefactor` and k = k_i(d), the parts are:
    - adjoint, E_i[p -> q] theta_q = F_i[q -> p] theta_p times
      S(p) S(q) / (R_i c_d det(p)):
      E_i[p -> q] sigma_i(p) (c_{d+e_i} / c_d) (det(q) / det(p)) and -B_q;
    - structure sheaf, f_i = K_i^{-i} F_i on the structure-sheaf vector
      at d + e_i, over R_i: k^{-i} B_q for each q, and
      -sigma_i(p) / (1 - v^2);
    - dual, K_i^{2i} f_i on the dual vector at d + e_i, over
      R_i omega(d) / det(p): k^i (omega(d + e_i) / omega(d))
      (det(p) / det(q)) B_q for each q, and -sigma_i(p) / (1 - v^2).
    The q read are those that E_i reaches from p, which are the points
    whose F_i entries land on p: both operators walk the single-entry moves
    of row i.

    Every monomial reads d_{i-1}, d_i and d_{i+1} alone, taken here from
    the row sums of the key, so the parts are those of any point with the
    same `local_key`.  The eigen target -sigma_i(p) / (1 - v^2), shared by
    both eigen-equations, is sigma_i(p) times the context's
    `whittaker_eigenvalue`, negated."""
    ring = ctx.ring
    E, F = op_E(ctx, i), op_F(ctx, i)
    d = tuple(sum(p.row(k)) if abs(k - i) <= 1 else 0
              for k in range(1, ctx.n))
    c_ratio, sheaf_scale, dual_scale = local_scalars(ctx, i, d)
    sigma_p = local_sym(ctx, i, p)
    det_p = _det(ctx, p)
    adjoint: List[List[RatFunc]] = []
    sheaf: List[RatFunc] = []
    dual: List[RatFunc] = []
    for q, e in E.terms(p):
        det_ratio = _det(ctx, q) * det_p ** -1
        f = next((f for x, f in F.terms(q) if x.rows == p.rows), None)
        b = RatFunc.zero(ring) if f is None else f * local_sym(ctx, i, q)
        adjoint.append([(e * sigma_p).scale_poly(c_ratio * det_ratio), -b])
        sheaf.append(b.scale_poly(sheaf_scale))
        dual.append(b.scale_poly(dual_scale * det_ratio ** -1))
    target = -(sigma_p * whittaker_eigenvalue(ctx))
    return adjoint, sheaf + [target], dual + [target]


def local_scalars(ctx: ModuleContext, i: int, d: DegreeVector
                  ) -> Tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """The degree monomials of the parts of row i at degree d, which read
    d_{i-1}, d_i and d_{i+1} alone: c_{d+e_i} / c_d, k_i(d)^{-i} and
    k_i(d)^i omega(d + e_i) / omega(d) (see `local_parts`).  Built from
    `pairing_prefactor`, `ModuleContext.k_scalar` and
    `dual_whittaker_prefactor` once per context, i and those three
    components, d being zero at every other row."""
    def build() -> Tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
        ring = ctx.ring
        up = shifted(d, i)
        k = ctx.k_scalar(i, d)
        return (pairing_prefactor(ring, up) * pairing_prefactor(ring, d) ** -1,
                k ** -i,
                k ** i * dual_whittaker_prefactor(ring, up)
                * dual_whittaker_prefactor(ring, d) ** -1)

    return ctx.memo("local_scalars", (i, d), build)


def local_verdicts(ctx: ModuleContext, i: int,
                   p: FixedPoint) -> Tuple[bool, bool, bool]:
    """Whether the adjoint, the structure-sheaf eigen and the dual eigen
    identity of row i hold at p, in the order of `LOCAL_CHECKS`: decided
    from `local_parts` once per context and `local_key`, so every point
    with the same three rows, at any degree, reads one triple."""
    def build() -> Tuple[bool, bool, bool]:
        adjoint, sheaf, dual = local_parts(ctx, i, p)
        return (all(sum_is_zero(pair) for pair in adjoint),
                sum_is_zero(sheaf), sum_is_zero(dual))

    return ctx.memo("local_verdicts", local_key(i, p), build)


def _local_record(ctx: ModuleContext, check: int, i: int,
                  degree: Sequence[int]) -> dict:
    """The record of LOCAL_CHECKS[check] for row i at degree d: the AND of
    its local verdict over the points of d.  A failing record names the
    rows of the first point, in `ctx.points` order, where it fails."""
    record = {"check": LOCAL_CHECKS[check], "i": i, "degree": list(degree)}
    for p in ctx.points(degree):
        if not local_verdicts(ctx, i, p)[check]:
            return {**record, "status": "fail",
                    "point": p.rows_json()}
    return {**record, "status": "pass"}


def adjoint_check(ctx: ModuleContext, i: int, degree: Sequence[int]) -> dict:
    """The record of: E_i and F_i are adjoint on degrees d and d + e_i."""
    return _local_record(ctx, 0, i, degree)


def lowering_eigen_check(ctx: ModuleContext, i: int,
                         degree: Sequence[int]) -> dict:
    """The record of: f_i = K_i^{-i} F_i applied to the structure-sheaf
    vector at degree d + e_i equals 1/(1-v^2) times its degree-d
    component."""
    return _local_record(ctx, 1, i, degree)


def dual_eigen_check(ctx: ModuleContext, i: int,
                     degree: Sequence[int]) -> dict:
    """The record of: K_i^{2i} f_i, the pairing-adjoint of the twisted
    raising generator, applied to the dual vector at degree d + e_i equals
    1/(1-v^2) times its degree-d component."""
    return _local_record(ctx, 2, i, degree)


def eigen_records(ctx: ModuleContext, i: int,
                  degree: Sequence[int]) -> Iterator[dict]:
    """Both Whittaker eigen records of row i landing on degree d."""
    yield lowering_eigen_check(ctx, i, degree)
    yield dual_eigen_check(ctx, i, degree)


# ---------------------------------------------------------------------------
# The pushforward summation identity behind the dual eigen-property
# ---------------------------------------------------------------------------

def line_pushforward_parts(ctx: ModuleContext, i: int, upper: Sequence[int],
                           mid: Sequence[int]) -> List[RatFunc]:
    """The parts of the identity expressing the pushforward of the
    tautological quotient line through the modification correspondence as a
    scalar multiple of the structure sheaf, which holds iff they sum to
    zero (`sum_is_zero`).

    For row data a_{i-1,*} = upper (length i-1) and a_{i,*} = mid (length
    i), the left side is sum_j raising_product(upper, mid, j), the closed
    raising entries of E_i without their degree prefactor, read from the
    context's memo that E_i fills; the right side is
    t_i^2 v^{2 d_{i-1} - 2 d_i} (1-v^2)^{-1}, a monomial times
    `whittaker_eigenvalue`.  The parts are the i entries and minus the
    right side: no side is summed, since only whether the sum vanishes
    matters.
    """
    upper, mid = check_rows(ctx.n, i, (upper, mid))
    minus_rhs = ctx.ring.t_monomial(
        {i: 2}, v_power=2 * sum(upper) - 2 * sum(mid), coeff=-1)
    return [_closed_entry(ctx, "raising", raising_product, upper, mid, j)
            for j in range(1, i + 1)] \
        + [whittaker_eigenvalue(ctx).scale_poly(minus_rhs)]


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
    A failing record names the rows of the first point where it fails.

    The loop stays per point, though c_d omega(d) = m_d alone would decide
    the prefactors once per degree: this is the only verify record that
    reads `whittaker_w` and theta_p at points p != 0, so it is what checks
    each point's dual-vector coefficient, omega(d) det(p)^-1 times the sym
    factor, which the `whittaker` subcommand prints, and each point's
    theta_p."""
    m_d = RatFunc.from_poly(_closed_monomial(ctx.ring, degree))
    record = {"check": "whittaker-pairing-two-path", "degree": list(degree)}
    for p, c in whittaker_w(ctx, degree).coeffs.items():
        if not eq_exact(c * pairing_weight(ctx, p), m_d):
            return {**record, "status": "fail",
                    "point": p.rows_json()}
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

    The adjoint record and both eigen records of (i, d) read the
    `local_verdicts` of the points of d, each decided once per (i, row
    i - 1, row i, row i + 1).  The adjoint records come out as they are
    decided; the eigen records follow them all and read the verdicts
    already decided, so a run cut after any record has written a prefix
    of the full stream.
    """
    n = ctx.n
    z = basis_vector(ctx, FixedPoint.zero(n))
    ok = eq_exact(shapovalov_pair(ctx, z, z), RatFunc.one(ctx.ring))
    yield {"check": "pairing-normalization",
           "status": "pass" if ok else "fail"}
    for i in range(1, n):
        for d in all_degrees(n, box):
            yield adjoint_check(ctx, i, d)
    for i in range(1, n):
        for d in all_degrees(n, box):
            yield from eigen_records(ctx, i, d)
    for i in range(1, n):
        for d in all_degrees(n, min(box, 2)):
            for p in ctx.points(d):
                upper, mid = p.row(i - 1), p.row(i)
                ok = ctx.memo("pushforward", (i, upper, mid),
                              lambda: sum_is_zero(line_pushforward_parts(
                                  ctx, i, upper, mid)))
                yield {"check": "line-pushforward-identity", "i": i,
                       "point": p.rows_json(),
                       "status": "pass" if ok else "fail"}
    for i in range(1, 5):
        yield {"check": "partial-fraction-identity", "i": i,
               "status": "pass" if partial_fraction_identity(i)
               else "fail"}
    for d in all_degrees(n, box):
        yield pairing_two_path_record(ctx, d)
