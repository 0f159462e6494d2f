"""Difference-Toda operators and their eigen-equations on the generating
series.

Two series are tested, both read from the module context one degree at a
time: the Whittaker pairing series I_d = m_d J_d (`whittaker_pair_closed`,
the unit monomial `_closed_monomial` times `sheaf_rgamma`) and the
coefficient-sum series J_d = `sheaf_rgamma` itself, so both read the one
localization sum, built once per degree by the transfer over adjacent rows
(`whittaker.suffix_sum`): the suite builds no per-point sym factor.
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
with no negative component.  The tables read no series and make no
polynomial product: a shift monomial is built once per (j, d_j - d_{j-1},
sigma) by `_shift`, each squared shift is read from the same cache, and
each sum-type multiplier is built as one monomial.

Each degree is decided from one lift: `_over_common_den` writes J_d and
every J_{d-e_i} as numerators L over one common tracked factor, and every
eigen-equation at d, of either operator and either sign, is a zero test
of those numerators (`combination_is_zero`).  The diagonal is the same in
both tables, so P = L_d (diag - lam) is one product per sign (a table with
another diagonal would get its own), and each lower part is a monomial
times L_{d-e_i}, added into P by a key shift.
Another difference operator of the same family is one more table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, Tuple

from .fixed_points import DegreeVector, all_degrees, padded, shifted
from .operators import ModuleContext
from .symbolic import (LaurentPoly, TVRing, _over_common_den,
                       combination_is_zero, poly_sum)
from .whittaker import _closed_monomial, sheaf_rgamma

DEFAULT_SIGMA = -1

# one row of an operator: (source degree, multiplier) pairs
Table = List[Tuple[DegreeVector, LaurentPoly]]


@lru_cache(maxsize=None)
def _shift(ring: TVRing, j: int, step: int, sigma: int) -> LaurentPoly:
    """t_j^sigma v^step, built once per (ring, j, step, sigma)."""
    return ring.t_monomial({j: sigma}, v_power=step)


def _sources(d: DegreeVector) -> List[Tuple[int, DegreeVector]]:
    """(i, d - e_i) for each i = 1..n-1 whose d - e_i has no negative
    component."""
    lowered = (shifted(d, i, -1) for i in range(1, len(d) + 1))
    return [(i, src) for i, src in enumerate(lowered, 1) if min(src) >= 0]


def _squared_shift(ring: TVRing, j: int, d: Dict[int, int],
                   sigma: int) -> LaurentPoly:
    """shift_j(d)^2 = t_j^{2 sigma} v^{2(d_j - d_{j-1})}, from the `_shift`
    cache, for a padded degree d (d_0 = d_n = 0)."""
    return _shift(ring, j, 2 * (d[j] - d[j - 1]), 2 * sigma)


def _table(ring: TVRing, d: DegreeVector, sigma: int, multiplier) -> Table:
    """The degree-d row of an operator: the diagonal (d, sum_j
    shift_j(d)^2), then (d - e_i, multiplier(i, d - e_i)) for each source
    d - e_i (see `_sources`)."""
    full = padded(d)
    diagonal = poly_sum(ring, [_squared_shift(ring, j, full, sigma)
                               for j in range(1, ring.n + 1)])
    return [(d, diagonal)] + [(src, multiplier(i, src))
                              for i, src in _sources(d)]


def sum_op_at(ring: TVRing, d: DegreeVector,
              sigma: int = DEFAULT_SIGMA) -> Table:
    """The sum-type operator's degree-d row: the squared shifts, and at each
    source s = d - e_i the v^{-2}-weighted nearest-neighbor product there,
    v^{-2} shift_i(s) shift_{i+1}(s) = t_i^sigma t_{i+1}^sigma
    v^{s_{i+1} - s_{i-1} - 2}, built as one monomial."""
    def multiplier(i: int, src: DegreeVector) -> LaurentPoly:
        s = padded(src)
        return ring.t_monomial({i: sigma, i + 1: sigma},
                               v_power=s[i + 1] - s[i - 1] - 2)
    return _table(ring, d, sigma, multiplier)


def difference_op_at(ring: TVRing, d: DegreeVector,
                     sigma: int = DEFAULT_SIGMA) -> Table:
    """The difference-type operator's degree-d row: the squared shifts, and
    at each d - e_i minus the squared (i+1)-th shift at d."""
    full = padded(d)
    return _table(ring, d, sigma,
                  lambda i, src: -_squared_shift(ring, i + 1, full, sigma))


def eigenvalue_monomial_sum(ring: TVRing,
                            sigma: int = DEFAULT_SIGMA) -> LaurentPoly:
    """The common eigenvalue sum_{i=1}^n t_i^{2 sigma}."""
    return poly_sum(ring, [ring.t_monomial({i: 2 * sigma})
                           for i in range(1, ring.n + 1)])


def _eigen_verdicts(ring: TVRing, d: DegreeVector, sigma: int,
                    lam: LaurentPoly, lifted: Dict[DegreeVector, LaurentPoly],
                    ratios: Dict[DegreeVector, LaurentPoly]) -> Iterator[bool]:
    """The sum-type, then the difference-type eigen verdict at degree d for
    the sign sigma and its eigenvalue lam, each decided when asked for.

    `lifted` holds the numerator L_x of J_x over the degree's common factor
    at d and at each source, and `ratios` the monomial m_{d-e_i} / m_d at
    each source: the sum-type identity is divided by m_d, so its part at
    d - e_i is that ratio times the multiplier times L_{d-e_i}."""
    top = lifted[d]
    diagonal = product = None
    for op, scale in ((sum_op_at, ratios), (difference_op_at, None)):
        (_, diag), *lower = op(ring, d, sigma)
        if product is None or diag != diagonal:
            diagonal, product = diag, top * (diag - lam)
        yield combination_is_zero(product, [
            (m if scale is None else scale[src] * m, lifted[src])
            for src, m in lower])


def toda_records(ctx: ModuleContext, box: int) -> Iterator[dict]:
    """Both eigen-equations over the box, then the sign calibration.

    The sum-type operator is checked on the Whittaker pairing series I,
    the difference-type operator on the coefficient-sum series J (the
    global-sections character of the localized structure-sheaf class).
    Degrees run in lexicographic order; every d - e_i is lex-smaller than
    d, so each degree is decided as soon as J_d exists.  At each degree,
    J_d and the J_{d-e_i} are lifted over one common tracked factor once,
    and both families are decided from that lift.  The sum-type identity
    sum_x I_x c_x == lam I_d is divided by m_d first: m_d is a unit, so the
    division is exact, and I = m_d J holds by definition (the two-path
    pairing record certifies it pointwise), so it reads J alone.

    All sum-type records come first, each as soon as its degree is
    decided; the difference-type verdicts are kept and their records
    follow.  The calibration record comes last: the working sign must pass
    and the opposite sign must fail, over degrees <= 2.  The opposite
    sign's verdicts come from the same lifts, with their own product P and
    monomials, tried only until the first one fails; lam is built once per
    sign.
    """
    ring = ctx.ring
    cut = min(box, 2)
    lam = {sigma: eigenvalue_monomial_sum(ring, sigma)
           for sigma in (DEFAULT_SIGMA, -DEFAULT_SIGMA)}
    working = opposite = True
    differences = []
    closed = {}  # m_d by degree; every source is an earlier degree
    for d in all_degrees(ctx.n, box):
        sources = [src for _, src in _sources(d)]
        polys, _ = _over_common_den(
            [sheaf_rgamma(ctx, x) for x in [d] + sources])
        lifted = dict(zip([d] + sources, polys))
        closed[d] = _closed_monomial(ring, d)
        inverse = closed[d] ** -1
        ratios = {src: closed[src] * inverse for src in sources}
        ok, difference_ok = _eigen_verdicts(ring, d, DEFAULT_SIGMA,
                                            lam[DEFAULT_SIGMA], lifted, ratios)
        if max(d) <= cut:
            working = working and ok and difference_ok
            opposite = opposite and all(_eigen_verdicts(
                ring, d, -DEFAULT_SIGMA, lam[-DEFAULT_SIGMA], lifted, ratios))
        differences.append((d, difference_ok))
        yield {"check": "sum-op-eigen", "degree": list(d),
               "status": "pass" if ok else "fail"}
    for d, ok in differences:
        yield {"check": "difference-op-eigen", "degree": list(d),
               "status": "pass" if ok else "fail"}
    if box == 0:
        # at degree 0 both signs pass, so the opposite sign cannot fail
        status = "skipped-out-of-box"
    else:
        status = "pass" if working and not opposite else "fail"
    yield {"check": "shift-sign-calibration", "working_sign": DEFAULT_SIGMA,
           "status": status}
