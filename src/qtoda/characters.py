"""Torus characters of tangent spaces and localization weights.

Everything here is exact Laurent arithmetic in the torus ring
Z[t_1^{±1},..,t_n^{±1},v^{±1/2}].  Conventions, fixed once:

- The j-th coordinate line of the framing carries weight t_j^2.
- Twisting by -a multiplies the fiber weight by v^{-2a}, so the summand
  with twist a in a flag stage contributes fiber weight t_j^2 v^{-2a}; the
  degree-l section of a length-d torsion quotient of the j-th line has
  weight t_j^2 v^{-2l}.

Tangent characters at a fixed point come in two independent forms: a
first-principles "chain" computation from sheaf-Hom characters of the flag
(the oracle), and a closed multiplicity formula used by the fast paths.
Their agreement is a test target, not an assumption.  The closed form is
a sum of pieces, piece i reading only rows i and i + 1 of the array: one
routine, `piece_char`, builds a piece from its runs of weights, and the
tangent character is the `poly_sum` of its pieces.  The oracle adds its Hom
blocks as polynomials, one `poly_sum` per chain, and the two share no
formula helper.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, Sequence, Tuple

from .fixed_points import (
    DegreeVector,
    FixedPoint,
    check_row,
    enumerate_points,
    raise_moves,
)
from .symbolic import (
    DegeneracyError,
    LaurentPoly,
    RatFunc,
    TVRing,
    UsageError,
    _binomial,
    geometric_block,
    poly_sum,
)

Stage = Tuple[int, ...]


def line_weight(ring: TVRing, j: int, twist: int) -> LaurentPoly:
    """Fiber weight t_j^2 v^{-2*twist} of the twisted j-th coordinate line."""
    return ring.t_monomial({j: 2}, v_power=-2 * twist)


@lru_cache(maxsize=None)
def weight_ratio(ring: TVRing, k: int, j: int, v_power: int = 0) -> LaurentPoly:
    """The monomial t_k^2 t_j^{-2} v^{v_power}, built once per ring and
    arguments: the chain oracle, the correspondence characters and the
    closed entries reuse the same few ratios."""
    exps = {k: 2, j: -2} if k != j else {}
    return ring.t_monomial(exps, v_power=v_power)


def _hom_into_quotient(ring: TVRing, sub: Stage, quot: Stage) -> LaurentPoly:
    """Character of Hom(U, W/U') for stages of twisted coordinate lines.

    U has summands (twist sub[j-1], line j); W/U' is torsion of length
    quot[k-1] on lines k <= len(quot) and the full line for k > len(quot).
    Hom from a twist-a line into the length-b torsion piece of line k
    contributes t_k^2 t_j^{-2} (v^{2(a-b+1)} + .. + v^{2a}); into the full
    line k it contributes t_k^2 t_j^{-2} (1 + v^2 + .. + v^{2a}).
    """
    return poly_sum(ring, [
        geometric_block(a - quot[k - 1] + 1 if k <= len(quot) else 0, a,
                        weight_ratio(ring, k, j))
        for j, a in enumerate(sub, start=1) for k in range(1, ring.n + 1)])


def based_correction(ring: TVRing) -> LaurentPoly:
    """Character of the strictly-upper-triangular framing directions, which a
    based (framed) moduli problem removes."""
    return poly_sum(ring, [weight_ratio(ring, k, j)
                           for j in range(1, ring.n + 1)
                           for k in range(j + 1, ring.n + 1)])


def chain_tangent_char(ring: TVRing, stages: Sequence[Stage]) -> LaurentPoly:
    """Tangent character of a based chain of twisted-line stages inside the
    trivial rank-n sheaf, from sheaf-Hom characters.

    The chain is U_1 <= U_2 <= .. <= U_L < W; the character is
    sum_l [Hom(U_l, W/U_l) - Hom(U_l, W/U_{l+1})] minus the framing
    correction.  This is the first-principles oracle.
    """
    return poly_sum(ring, [_hom_into_quotient(ring, stage, stage)
                           for stage in stages]
                    + [-_hom_into_quotient(ring, stage, after)
                       for stage, after in zip(stages, stages[1:])]
                    + [-based_correction(ring)])


def tangent_char_oracle(ring: TVRing, p: FixedPoint) -> LaurentPoly:
    """Tangent character at a fixed point, via the chain oracle."""
    _check_ring(ring, p)
    return chain_tangent_char(ring, p.rows)


@lru_cache(maxsize=None)
def _square_keys(ring: TVRing) -> Tuple[Tuple[int, ...], int]:
    """The keys of t_1^2, .., t_n^2 (at index k - 1) and of v^2, once per
    ring."""
    return (tuple(next(iter(ring.t(k, 2).terms))
                  for k in range(1, ring.n + 1)),
            next(iter(ring.v(2).terms)))


def piece_char(ring: TVRing, i: int, upper: Sequence[int],
               lower: Sequence[int]) -> LaurentPoly:
    """Piece i of the tangent character: every run of weights that reads
    only row i (`upper`) and row i + 1 (`lower`, zero for i = n - 1).  Its
    multiplicities can be negative; the pieces i = 1..n-1 of a point sum to
    its tangent_char.

    The weight t_k^2 t_j^{-2} v^{2l} has key 2 key(t_k) - 2 key(t_j) +
    l key(v^2), and the runs are:
    - for every pair of lines j, k <= i, l = a_{ij} - a_{ik} + 1 ..
      a_{ij} - a_{i+1,k} once;
    - the framing runs of column i + 1: for every j <= i, l = 1..a_{ij}
      once (l = 0 cancels the framing weight of the pair (j, i + 1)) and
      l = a_{ij} - a_{i+1,i+1} + 1 .. a_{ij} minus once.
    Each nonempty run l = lo..hi raises the bound, from 2 (the framing
    weights' own), to the weight's own bound (2, or 0 when j = k) plus
    4 max(|lo|, |hi|).
    """
    check_row(ring.n, i)
    if len(upper) != i or len(lower) != i + 1:
        raise UsageError(f"piece {i} needs rows of lengths {i} and {i + 1}")
    tsq, vsq = _square_keys(ring)
    mult: Dict[int, int] = {}
    bound = 2

    def run(base: int, lo: int, hi: int, w_bound: int, sign: int) -> None:
        nonlocal bound
        if lo > hi:
            return
        bound = max(bound, w_bound + 4 * max(abs(lo), abs(hi)))
        for key in range(base + lo * vsq, base + (hi + 1) * vsq, vsq):
            mult[key] = mult.get(key, 0) + sign

    for j, a in enumerate(upper, start=1):
        base = tsq[i] - tsq[j - 1]
        run(base, 1, a, 2, 1)
        run(base, a - lower[i] + 1, a, 2, -1)
        for k, b in enumerate(upper, start=1):
            run(tsq[k - 1] - tsq[j - 1], a - b + 1, a - lower[k - 1],
                2 if j != k else 0, 1)
    return LaurentPoly(ring, {key: m for key, m in mult.items() if m}, bound)


def tangent_char(ring: TVRing, p: FixedPoint) -> LaurentPoly:
    """Tangent character at a fixed point, closed multiplicity formula.

    For each ordered pair of lines (j, k) the multiplicity of the weight
    t_k^2 t_j^{-2} v^{2l} is read off the triangular array directly; no
    sheaf cohomology is recomputed.  Must agree with tangent_char_oracle.

    The character is the `poly_sum` of its pieces i = 1..n-1 (`piece_char`),
    the framing correction included; its bound is the largest of theirs.
    """
    _check_ring(ring, p)
    return poly_sum(ring, [piece_char(ring, i, p.row(i), p.row(i + 1))
                           for i in range(1, ring.n)])


def _raised(p: FixedPoint, i: int, j: int) -> FixedPoint:
    """p with entry (i, j) raised by one, the target of a `raise_moves`
    move; a raise that no move makes, which would leave the fixed points,
    raises UsageError."""
    for q, col in raise_moves(p, i):
        if col == j:
            return q
    raise UsageError(f"modification at ({i}, {j}) breaks column monotonicity"
                     " or leaves the array")


def _modification_stages(p: FixedPoint, i: int, j: int) -> List[Stage]:
    """Stage list for the chain with an extra colength-one stage at row i.

    The extra stage raises the (i, j) twist by one, so it sits between the
    original rows i-1 and i.
    """
    return [*p.rows[:i - 1], _raised(p, i, j).row(i), *p.rows[i - 1:]]


def corr_tangent_char_oracle(ring: TVRing, p: FixedPoint, i: int,
                             j: int) -> LaurentPoly:
    """Tangent character of the colength-one modification correspondence at
    the fixed pair (p, p raised at (i, j)), via the chain oracle."""
    _check_ring(ring, p)
    return chain_tangent_char(ring, _modification_stages(p, i, j))


def corr_tangent_char(ring: TVRing, p: FixedPoint, i: int, j: int) -> LaurentPoly:
    """Closed form of the correspondence tangent character.

    Equals the tangent character of the lower point plus the directions of
    moving the modification, minus the directions lost to the containment
    constraint from row i-1.  Must agree with corr_tangent_char_oracle.
    """
    _check_ring(ring, p)
    raised = _raised(p, i, j).row(i)
    a = p.entry(i, j)
    return poly_sum(ring, [tangent_char(ring, p)]
                    + [weight_ratio(ring, j, k, 2 * dk - 2 * a)
                       for k, dk in enumerate(raised, start=1)]
                    + [-weight_ratio(ring, j, k, 2 * p.entry(i - 1, k) - 2 * a)
                       for k in range(1, i)])


def modification_weight(ring: TVRing, p: FixedPoint, i: int, j: int) -> LaurentPoly:
    """Weight of the tautological quotient line at the fixed pair: the length-
    one torsion W_i / W'_i sits at twist a_{ij} of line j.  Defined at a
    raise alone (`raise_moves`)."""
    _check_ring(ring, p)
    _raised(p, i, j)
    return line_weight(ring, j, p.entry(i, j))


def char_dimension(chi: LaurentPoly) -> int:
    """Number of tangent weights counted with multiplicity."""
    return sum(chi.terms.values())


def weight_inverse(chi: LaurentPoly) -> RatFunc:
    """prod_w (1 - w)^{-mult} over the character's weights, for
    multiplicities of either sign.  Raises DegeneracyError if the trivial
    weight occurs."""
    ring = chi.ring
    if not isinstance(ring, TVRing):
        raise UsageError("character must live in a torus ring")
    if 0 in chi.terms:
        raise DegeneracyError("trivial weight in character: point not isolated")
    # 1 - w, straight from w's key
    return RatFunc.from_factors(ring, ring.one(), [
        (_binomial(ring, key), -mult) for key, mult in sorted(chi.terms.items())])


def sym_inverse(chi: LaurentPoly) -> RatFunc:
    """Inverse of the orientation product over the character's weights,
    prod_w (1 - w)^{-mult}.  Raises DegeneracyError if the trivial weight
    occurs or a multiplicity is negative.
    """
    if any(mult < 0 for mult in chi.terms.values()):
        raise DegeneracyError("negative weight multiplicity in character")
    return weight_inverse(chi)


def det_weight(ring: TVRing, p: FixedPoint) -> LaurentPoly:
    """Normalized determinant-of-cohomology weight of the tautological flag.

    Product over all entries a = a_{ij} of t_j^{-2a} v^{a(a-1)}, built as
    one monomial from the summed exponents; the normalization makes the
    zero-degree point carry weight 1.  Raising entry (i, j) by one
    multiplies the weight by t_j^{-2} v^{2a}.
    """
    _check_ring(ring, p)
    t_exps: Dict[int, int] = {}
    v_power = 0
    for i in range(1, p.n):
        for j in range(1, i + 1):
            a = p.entry(i, j)
            t_exps[j] = t_exps.get(j, 0) - 2 * a
            v_power += a * (a - 1)
    return ring.t_monomial(t_exps, v_power=v_power)


def _check_ring(ring: TVRing, p: FixedPoint) -> None:
    if ring.n != p.n:
        raise UsageError("ring rank and fixed-point rank differ")


def character_records(ring: TVRing, degree: DegreeVector) -> Iterator[dict]:
    """At every fixed point of one degree: the closed tangent character
    against the chain oracle, then each correspondence character at a
    raising move against its oracle, each with its dimension (2|d| and
    2|d| + 1).  One record per character."""
    for p in enumerate_points(ring.n, degree):
        chi = tangent_char(ring, p)
        ok = chi == tangent_char_oracle(ring, p)
        dim_ok = char_dimension(chi) == 2 * sum(degree)
        yield {
            "check": "tangent-character-oracle-equivalence",
            "point": p.rows_json(),
            "dimension": char_dimension(chi),
            "status": "pass" if ok and dim_ok else "fail",
        }
        for i in range(1, ring.n):
            for _, j in raise_moves(p, i):
                chi_c = corr_tangent_char(ring, p, i, j)
                ok = chi_c == corr_tangent_char_oracle(ring, p, i, j)
                dim_ok = char_dimension(chi_c) == 2 * sum(degree) + 1
                yield {
                    "check": "correspondence-character-oracle-equivalence",
                    "point": p.rows_json(),
                    "i": i,
                    "j": j,
                    "status": "pass" if ok and dim_ok else "fail",
                }
