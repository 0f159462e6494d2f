"""Difference-Toda operators acting on degree-indexed generating series.

A series here is a plain {degree: RatFunc} dict of exact rational
coefficients over a box of degree vectors, read from the module context:
the Whittaker pairing series from `whittaker_pair_closed` (a monomial times
`sheaf_rgamma`) and the coefficient-sum series from `sheaf_rgamma` itself,
so both read the one localization sum, built once per degree.
The two difference operators act through shift monomials: shifting slot j
of the degree lattice multiplies the coefficient by
t_j^sigma v^{d_j - d_{j-1}} (sigma = -1 in our conventions; the
calibration record checks that the opposite sign fails, deciding both
signs in the same loop that makes the eigen records).  Both
distinguished series are eigenfunctions with eigenvalue
sum_i t_i^{2 sigma}.

Coefficient recursions, with d_0 = d_n = 0 and absent (negative) degrees
contributing zero:

- sum-type operator:   (S s)_d = sum_j shift_j(d)^2 s_d
                        + v^{-2} sum_i shift_i(d-e_i) shift_{i+1}(d-e_i) s_{d-e_i}
- difference-type op:  (G s)_d = sum_j shift_j(d)^2 s_d
                        - sum_{j>=2} shift_j(d)^2 s_{d-e_{j-1}}

Each operator is written as a table: `sum_op_at(ring, d, sigma)` and
`difference_op_at(ring, d, sigma)` return the degree-d row of the operator
as (source degree, multiplier) pairs, so that (op s)_d is the sum of
multiplier * s[source].  Both rows come from one builder, `_table`: the
diagonal (d, sum_j shift_j(d)^2) first, then one pair per source d - e_i
with no negative component.  The tables read no series, so one
`_eigen_holds` applies either of them to either series: it folds -lam into
the diagonal multiplier and makes one zero test of the products.  Another
difference operator of the same family is one more table.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Tuple

from .fixed_points import DegreeVector, all_degrees, padded, shifted
from .operators import ModuleContext
from .symbolic import LaurentPoly, RatFunc, TVRing, UsageError, sum_is_zero
from .whittaker import sheaf_rgamma, whittaker_pair_closed

DEFAULT_SIGMA = -1

Series = Dict[DegreeVector, RatFunc]
# one row of an operator: (source degree, multiplier) pairs
Table = List[Tuple[DegreeVector, LaurentPoly]]


def shift_monomial(ring: TVRing, j: int, degree: DegreeVector,
                   sigma: int = DEFAULT_SIGMA) -> LaurentPoly:
    """Multiplier picked up by the j-th lattice shift at degree d:
    t_j^sigma v^{d_j - d_{j-1}}  (j runs 1..n, d_0 = d_n = 0)."""
    if not 1 <= j <= ring.n:
        raise UsageError(f"shift index {j} out of range 1..{ring.n}")
    d = padded(degree)
    return ring.t_monomial({j: sigma}, v_power=d[j] - d[j - 1])


def _table(ring: TVRing, d: DegreeVector, sigma: int,
           multiplier: Callable[[int, DegreeVector], LaurentPoly]) -> Table:
    """The degree-d row of an operator: the diagonal (d, sum_j
    shift_j(d)^2), then (d - e_i, multiplier(i, d - e_i)) for each
    i = 1..n-1 whose source d - e_i has no negative component."""
    diagonal = ring.zero()
    for j in range(1, ring.n + 1):
        diagonal = diagonal + shift_monomial(ring, j, d, sigma) ** 2
    table = [(d, diagonal)]
    for i in range(1, ring.n):
        src = shifted(d, i, -1)
        if min(src) >= 0:
            table.append((src, multiplier(i, src)))
    return table


def sum_op_at(ring: TVRing, d: DegreeVector,
              sigma: int = DEFAULT_SIGMA) -> Table:
    """The sum-type operator's degree-d row: the squared shifts, and at each
    d - e_i the v^{-2}-weighted nearest-neighbor product there."""
    return _table(ring, d, sigma, lambda i, src: ring.v(-2)
                  * shift_monomial(ring, i, src, sigma)
                  * shift_monomial(ring, i + 1, src, sigma))


def difference_op_at(ring: TVRing, d: DegreeVector,
                     sigma: int = DEFAULT_SIGMA) -> Table:
    """The difference-type operator's degree-d row: the squared shifts, and
    at each d - e_i minus the squared (i+1)-th shift at d."""
    return _table(ring, d, sigma,
                  lambda i, src: -(shift_monomial(ring, i + 1, d, sigma) ** 2))


def eigenvalue_monomial_sum(ring: TVRing,
                            sigma: int = DEFAULT_SIGMA) -> LaurentPoly:
    """The common eigenvalue sum_{i=1}^n t_i^{2 sigma}."""
    total = ring.zero()
    for i in range(1, ring.n + 1):
        total = total + ring.t_monomial({i: 2 * sigma})
    return total


def _eigen_holds(ring: TVRing, s: Series, op: Callable[..., Table],
                 d: DegreeVector, sigma: int = DEFAULT_SIGMA) -> bool:
    """(op s)_d == lam * s_d for the eigenvalue lam of this sign: each source
    coefficient times its multiplier, -lam folded into the diagonal one,
    sums to zero."""
    lam = eigenvalue_monomial_sum(ring, sigma)
    return sum_is_zero([s[src].scale_poly(m - lam if src == d else m)
                        for src, m in op(ring, d, sigma)])


def toda_records(ctx: ModuleContext, box: int) -> Iterator[dict]:
    """Both eigen-equations over the box, then the sign calibration.

    The sum-type operator is checked on the Whittaker pairing series, then
    the difference-type operator on the coefficient-sum series (the
    global-sections character of the localized structure-sheaf class).  Each
    series is filled one degree at a time in lexicographic order; every
    d - e_i is lex-smaller than d, so each record is decided as soon as its
    degree exists.  The calibration record comes last: the working sign
    must pass and the opposite sign must fail, over degrees <= 2.  Both
    verdicts are decided in the same loop, at each degree within that cut:
    the working sign's from the eigen record, the opposite sign's by one
    more eigen test, tried only until it first fails.
    """
    ring = ctx.ring
    cut = min(box, 2)
    working = opposite = True
    for check, op, coefficient in (
            ("sum-op-eigen", sum_op_at, whittaker_pair_closed),
            ("difference-op-eigen", difference_op_at, sheaf_rgamma)):
        s: Series = {}
        for d in all_degrees(ctx.n, box):
            s[d] = coefficient(ctx, d)
            ok = _eigen_holds(ring, s, op, d)
            if max(d) <= cut:
                working = working and ok
                opposite = opposite and _eigen_holds(ring, s, op, d,
                                                     -DEFAULT_SIGMA)
            yield {"check": check, "degree": list(d),
                   "status": "pass" if ok else "fail"}
    if box == 0:
        # at degree 0 both signs pass, so the opposite sign cannot fail
        status = "skipped-out-of-box"
    else:
        status = "pass" if working and not opposite else "fail"
    yield {"check": "shift-sign-calibration", "working_sign": DEFAULT_SIGMA,
           "status": status}
