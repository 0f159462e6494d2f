"""Exact sparse Laurent-polynomial and rational-function arithmetic.

The coefficient ring for everything downstream is the integer Laurent ring
Z[t_1^{±1},...,t_n^{±1}, v^{±1/2}], localized at the binomials 1 - x^s.
A Laurent polynomial is a dict from packed monomial keys to
arbitrary-precision ints; the zero polynomial is the empty dict.

A monomial with exponents (e_1, ..., e_N) is packed into one int: the digits
(e_1 + ... + e_N, e_1, ..., e_N) in balanced radix 2**W, the total degree
most significant.  Packing is linear, so a monomial product is one int add,
and while every digit stays strictly inside (-2**(W-1), 2**(W-1)) int order
is graded-lexicographic order.  Each polynomial carries an upper bound on
its largest digit magnitude, and the `LaurentPoly` constructor raises
UsageError on a bound past SLOT_LIMIT, so no key can wrap: a product,
shift or factor whose bound could leave the range raises instead.

Linearity also builds monomials: the key of (e_1, ..., e_N) is
sum_j e_j * key(x_j), and a monomial's k-th power is its key times k.
Constructors, factor shifts, v shifts (`v_shifted`), geometric blocks and
monomial powers work on keys alone; exponent tuples appear only at the
boundary (JSON, repr, evaluation and the determinant substitution).

Half-integer powers of v occur in a few diagonal operators, so the last
exponent slot counts units of v^(1/2): the monomial v^k is stored with last
exponent 2k.  Helper constructors on :class:`TVRing` hide this.

Rational functions keep numerator/denominator factors as multisets of
tracked binomials instead of expanded products.  Every localization
quantity in this package is born as a monomial times a product of
(1 - monomial) binomials, so a `RatFunc` is an element of the Laurent ring
localized at the binomials 1 - x^s, not of the whole fraction field.  A
binomial 1 - x^s with s > 0 is tracked by its packed key s alone, so equal
binomials cancel syntactically and nothing ever needs a multivariate GCD.
A binomial is held as its key from the moment it is built until it is
expanded: `RatFunc.from_binomials` takes unit * prod (1 - x^k)^e as
(k, e) pairs, and its accumulator, `RatFunc._with_binomials`, is the one
every factor list passes through, the polynomial factors of
`from_factors`, `from_frac` and `inv` each split once into a unit
monomial times 1 - x^s (any other factor raises UsageError).  One kernel,
`_times_binomial(p, s, e)`, expands a tracked power: p * (1 - x^s)^e as
one copy of p and one shifted, scaled add of p per power, no polynomial
product.

One accumulator, `_accumulate(acc, terms, by)`, adds by * terms into a
dict in place, one key shift and coefficient scale of terms per term of
by, and drops each coefficient that cancels: the general product,
`poly_sum` (and `+`, its two-part case), `sum_is_zero`,
`combination_is_zero` and the multiply-back check of `binomial_quotient`
all add through it.

Sums of rational functions are where expanded numerators appear.  Both
ways of adding keep every tracked factor at its smallest power over the
parts (`_over_common_den`), so only what is left of each part is expanded.
A verdict needs only a zero test: `sum_is_zero` adds the remainders once
and compares the sum with 0, and `eq_exact(a, b)` is
`sum_is_zero([a, -b])`.  Where the parts are small polynomial multiples of
a few numerators over one common factor, `combination_is_zero` adds each
multiple into one copy as key shifts.  A value comes from `rat_sum`, which
adds its parts pairwise in a balanced tree.  After each pairwise sum it
divides the numerator by every tracked binomial 1 - x^s that both summands
carry in their denominators, for as long as the division is exact (a
prefix sum along the lattice lines e + Z s, checked by multiplying back;
the line through the least key is summed first, so most divisions that
fail are rejected before the numerator is sorted into its lines).
Localization sums collapse to small rational functions, so the partial
sums stay small instead of growing to the lcm of every part's
denominator.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (TYPE_CHECKING, Dict, Iterable, List, Mapping, Sequence,
                    Tuple)

if TYPE_CHECKING:  # the exact evaluators import it when they run
    from fractions import Fraction

Exponent = Tuple[int, ...]
Terms = Dict[int, int]  # packed monomial key -> nonzero coefficient

W = 24  # bits per packed digit
_HALF = 1 << (W - 1)
SLOT_LIMIT = _HALF - 1  # largest digit magnitude a key may hold
_MASK = (1 << W) - 1


class UsageError(ValueError):
    """Raised when operands are structurally incompatible (e.g. mixed rings)."""


class ArithmeticDomainError(ZeroDivisionError):
    """Raised on division by the zero polynomial."""


class EvaluationError(ValueError):
    """Raised when an evaluation point hits a zero denominator."""


class DegeneracyError(ValueError):
    """Raised when a localization weight degenerates (trivial tangent weight)."""


def json_int(x: object) -> int:
    """An int, or a string in the decimal form -?[0-9]+ that `to_json`
    writes, read from JSON as an int.  Anything else raises UsageError:
    int() would read 2.5 as 2, true as 1, and ' 12 ', '1_000', '+5' or
    non-ASCII digits as numbers too."""
    if not (type(x) is int or isinstance(x, str)
            and _is_decimal(x[1:] if x[:1] == "-" else x)):
        raise UsageError(f"not an integer: {x!r}")
    return int(x)


def _is_decimal(text: str) -> bool:
    """Whether text is [0-9]+: ASCII digits alone, at least one.  Read
    without a regular expression, whose compilation the first command-line
    integer would otherwise wait for."""
    return text.isascii() and text.isdigit()


def json_list(x: object) -> list:
    """x when it is a list, as JSON reads an array.  Anything else raises
    UsageError: iterating a string would read "21" as the entries 2, 1."""
    if not isinstance(x, list):
        raise UsageError(f"not a list: {x!r}")
    return x


def pack(exps: Sequence[int]) -> int:
    """The key of the monomial with exponent vector exps (no range check)."""
    key = sum(exps)
    for e in exps:
        key = (key << W) + e
    return key


@lru_cache(maxsize=None)
def _bias(nvars: int) -> int:
    """2**(W-1) in each of the nvars + 1 digits: adding it to a key makes
    every digit nonnegative, so plain shifts and masks read them."""
    return _HALF * (((1 << (W * (nvars + 1))) - 1) // _MASK)


def unpack(key: int, nvars: int) -> Exponent:
    """The exponent vector of a key packed from nvars exponents."""
    u = key + _bias(nvars)
    return tuple(((u >> (W * j)) & _MASK) - _HALF
                 for j in range(nvars - 1, -1, -1))


@lru_cache(maxsize=None)
def _unit_keys(nvars: int) -> Tuple[int, ...]:
    """The key of each variable x_j (exponent 1 in slot j, total degree 1)."""
    return tuple(pack([int(i == j) for i in range(nvars)])
                 for j in range(nvars))


def _slot_bound(exps: Sequence[int]) -> int:
    """Largest digit magnitude of the key of exps, total degree included."""
    return max(abs(sum(exps)), max((abs(e) for e in exps), default=0))


@lru_cache(maxsize=None)
def _key_bound(key: int) -> int:
    """Largest digit magnitude of a key, total degree included: the
    `_slot_bound` of its exponents, read off the balanced digits of the key
    alone, once per key."""
    bound = 0
    while key:
        digit = ((key + _HALF) & _MASK) - _HALF
        bound = max(bound, abs(digit))
        key = (key - digit) >> W
    return bound


class Value:
    """Value semantics read from `_key`, the tuple of an object's fields:
    objects of one class are equal when their keys are, objects of two
    classes never are (a Ring never equals a TVRing), and the hash is the
    key's, so a hashable subclass is immutable by convention, like
    LaurentPoly."""

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._key == other._key if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)


class Ring(Value):
    """A parameter space: an ordered tuple of variable names."""

    def __init__(self, names: Tuple[str, ...]) -> None:
        self.names = names
        self._key = (names,)

    def __repr__(self) -> str:
        return f"Ring(names={self.names!r})"

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> "LaurentPoly":
        return LaurentPoly(self, {}, 0)

    def one(self) -> "LaurentPoly":
        return self.const(1)

    def const(self, c: int) -> "LaurentPoly":
        if c == 0:
            return self.zero()
        return LaurentPoly(self, {0: int(c)}, 0)

    def var(self, idx: int, power: int = 1) -> "LaurentPoly":
        exps = [0] * self.nvars
        exps[idx] = power
        return self.monomial(exps)

    def monomial(self, exps: Sequence[int], coeff: int = 1) -> "LaurentPoly":
        if len(exps) != self.nvars:
            raise UsageError(f"expected {self.nvars} exponents, got {len(exps)}")
        key = total = bound = 0
        for e, unit in zip(exps, _unit_keys(self.nvars)):
            e = int(e)
            key += e * unit
            total += e
            bound = max(bound, abs(e))
        return self._monomial_key(key, max(bound, abs(total)), coeff)

    def _monomial_key(self, key: int, bound: int, coeff: int) -> "LaurentPoly":
        """coeff * x^key, where bound is the key's largest digit magnitude."""
        if coeff == 0:
            return self.zero()
        return LaurentPoly(self, {key: int(coeff)}, bound)


class TVRing(Ring):
    """The torus character ring with t_1..t_n and the doubled-v slot."""

    def __init__(self, names: Tuple[str, ...], n: int = 0) -> None:
        self.names, self.n = names, n
        self._key = (names, n)

    def __repr__(self) -> str:
        return f"TVRing(names={self.names!r}, n={self.n})"

    def t(self, i: int, power: int = 1) -> "LaurentPoly":
        """The monomial t_i^power, 1-based index."""
        if not 1 <= i <= self.n:
            raise UsageError(f"t index {i} out of range 1..{self.n}")
        return self.var(i - 1, power)

    def v(self, power: int = 1) -> "LaurentPoly":
        """The monomial v^power (stored with doubled exponent)."""
        return self.t_monomial({}, v_power=power)

    def t_monomial(self, t_exps: Mapping[int, int], v_power: int = 0,
                   v_doubled_extra: int = 0, coeff: int = 1) -> "LaurentPoly":
        """Monomial coeff * prod t_i^{t_exps[i]} * v^{v_power + v_doubled_extra/2}."""
        units = _unit_keys(self.nvars)
        total = 2 * v_power + v_doubled_extra
        key = total * units[self.n]
        bound = abs(total)
        for i, e in t_exps.items():
            if not 1 <= i <= self.n:
                raise UsageError(f"t index {i} out of range 1..{self.n}")
            e = int(e)
            key += e * units[i - 1]
            total += e
            bound = max(bound, abs(e))
        return self._monomial_key(key, max(bound, abs(total)), coeff)

    def substitute_det_one(self, p: "LaurentPoly") -> "LaurentPoly":
        """Substitute t_n := (t_1 ... t_{n-1})^{-1}, leaving v untouched."""
        if p.ring != self:
            raise UsageError("polynomial from a different ring")
        monomials = []
        for key, c in p.terms.items():
            exps = unpack(key, self.nvars)
            en = exps[self.n - 1]
            monomials.append(self.monomial(
                [e - en for e in exps[:self.n]] + [exps[self.n]], c))
        return poly_sum(self, monomials)


@lru_cache(maxsize=None)
def tv_ring(n: int) -> TVRing:
    """The ring Z[t_1^{±1},..,t_n^{±1}, v^{±1/2}] for rank parameter n, one
    object per n, so every polynomial of one rank shares its ring by
    identity."""
    if n < 1:
        raise UsageError("need at least one t variable")
    return TVRing(names=tuple(f"t{i}" for i in range(1, n + 1)) + ("v",), n=n)


def generic_ring(names: Sequence[str]) -> Ring:
    """A plain Laurent ring in the named variables."""
    return Ring(names=tuple(names))


class LaurentPoly:
    """Immutable-by-convention sparse Laurent polynomial over Z.

    `terms` maps packed monomial keys to coefficients; `bound` is an upper
    bound on the magnitude of every digit of every key (see the module
    docstring).  A bound past SLOT_LIMIT raises UsageError here, so every
    operation that could carry a key out of range raises instead of
    wrapping.
    """

    __slots__ = ("ring", "terms", "bound")

    def __init__(self, ring: Ring, terms: Terms, bound: int):
        if bound > SLOT_LIMIT:
            raise UsageError(
                f"an exponent or total degree could exceed ±{SLOT_LIMIT}")
        self.ring = ring
        self.terms = terms
        self.bound = bound

    def _check(self, other: "LaurentPoly") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise UsageError("operands live in different rings")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return poly_sum(self.ring, [self, other])

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + -other

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.ring, {k: -c for k, c in self.terms.items()},
                           self.bound)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        bound = self.bound + other.bound
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(b) == 1 and a:
            # one term times one term: one key sum, no collision possible
            [(ka, ca)], [(kb, cb)] = a.items(), b.items()
            return LaurentPoly(self.ring, {ka + kb: ca * cb}, bound)
        out: Terms = {}
        _accumulate(out, b, a)
        return LaurentPoly(self.ring, out, bound)

    def __pow__(self, k: int) -> "LaurentPoly":
        if len(self.terms) == 1:
            [(key, c)] = self.terms.items()
            if k >= 0 or c in (1, -1):
                # a monomial: its key times k (1/c = c for a unit c)
                return self.ring._monomial_key(key * k, abs(k) * self.bound,
                                               c ** abs(k))
        if k < 0:
            raise UsageError("negative power of a general polynomial; use RatFunc")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return self.ring.one() if result is None else result

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def sorted_terms(self) -> List[Tuple[Exponent, int]]:
        """Terms in canonical (graded-lexicographic) order."""
        nvars = self.ring.nvars
        return [(unpack(k, nvars), c) for k, c in sorted(self.terms.items())]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def eval(self, point: "EvalPoint") -> Fraction:
        """Exact evaluation at a point with nonzero coordinates."""
        from fractions import Fraction
        if len(point.values) != self.ring.nvars:
            raise UsageError("evaluation point has wrong arity")
        total = Fraction(0)
        for k, c in self.terms.items():
            exps = unpack(k, self.ring.nvars)
            term = Fraction(c)
            for val, e in zip(point.values, exps):
                if e:
                    term *= val ** e
            total += term
        return total

    def to_json(self) -> list:
        """Canonical form: list of [exponent-vector, decimal-string] pairs.

        For torus rings the final exponent counts half-units of v.
        """
        return [[list(e), str(c)] for e, c in self.sorted_terms()]

    @staticmethod
    def from_json(ring: Ring, data: list) -> "LaurentPoly":
        """The polynomial of [exponent-vector, coefficient] pairs, as
        `to_json` writes them; like terms are added.  The pairs and each
        exponent vector must be lists, and data of any other shape, a
        string in place of a list among it, raises UsageError."""
        try:
            pairs = [(tuple(json_int(x) for x in json_list(exps)),
                      json_int(coeff)) for exps, coeff in json_list(data)]
        except (TypeError, ValueError) as exc:
            raise UsageError(f"malformed polynomial JSON: {exc!r}") from exc
        terms: Dict[Exponent, int] = {}
        for e, c in pairs:
            if len(e) != ring.nvars:
                raise UsageError("exponent vector has wrong arity")
            if c:
                terms[e] = terms.get(e, 0) + c
        kept = {e: c for e, c in terms.items() if c}
        return LaurentPoly(ring, {pack(e): c for e, c in kept.items()},
                           max(map(_slot_bound, kept), default=0))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps, c in self.sorted_terms():
            factors = [f"{name}^{e}" for name, e in zip(self.ring.names, exps) if e]
            mono = "*".join(factors) if factors else "1"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits)


class EvalPoint(Value):
    """Exact rational values, one per ring variable, all nonzero."""

    def __init__(self, values: Tuple[Fraction, ...]) -> None:
        if any(v == 0 for v in values):
            raise UsageError("evaluation point coordinates must be nonzero")
        self.values = values
        self._key = (values,)

    def __repr__(self) -> str:
        return f"EvalPoint(values={self.values!r})"

    @staticmethod
    def of(*values) -> "EvalPoint":
        from fractions import Fraction
        return EvalPoint(tuple(Fraction(v) for v in values))


# ---------------------------------------------------------------------------
# Rational functions with tracked factors
# ---------------------------------------------------------------------------

Factors = Dict[int, int]  # tracked key s > 0 of 1 - x^s -> nonzero power


def _binomial(ring: Ring, key: int) -> LaurentPoly:
    """1 - x^key for a key of either sign, with the exact bound of its keys;
    zero at key 0.  Evaluation reads it; every factor list holds its
    binomials as keys (`RatFunc.from_binomials`) and every expansion runs
    `_times_binomial`, so no verify run builds one."""
    if not key:
        return ring.zero()
    return LaurentPoly(ring, {0: 1, key: -1}, _key_bound(key))


def _times_binomial(p: LaurentPoly, s: int, e: int) -> LaurentPoly:
    """p * (1 - x^s)^e for e >= 1, from the key s alone: one copy of p's
    terms, then for each power k = 1..e one add of p shifted by k s and
    scaled by (-1)^k binomial(e, k).  The bound grows by e * _key_bound(s),
    as the product's would, and past SLOT_LIMIT it raises UsageError
    before any term is added."""
    out = LaurentPoly(p.ring, dict(p.terms), p.bound + e * _key_bound(s))
    scale = 1
    for k in range(1, e + 1):
        scale = -scale * (e - k + 1) // k
        _accumulate(out.terms, p.terms, {k * s: scale})
    return out


def _times_monomials(unit: LaurentPoly, lows: Mapping[int, int],
                     flip: int) -> LaurentPoly:
    """flip * unit * prod x^(net * low) over the (low, net) of lows, as one
    key shift of unit's terms.  Each distinct x^low is raised to its net
    exponent, whose digits are at most |net| * _key_bound(low), so the
    bound grows by what is left of the shifts, whatever the order of the
    factors they came from; shifts that cancel leave the keys, and so the
    bound, as they are."""
    shift = sum(net * low for low, net in lows.items())
    if not shift and flip > 0:
        return unit
    bound = unit.bound + sum(abs(net) * _key_bound(low) for low, net
                             in lows.items()) if shift else unit.bound
    return LaurentPoly(unit.ring, {k + shift: flip * c
                                   for k, c in unit.terms.items()}, bound)


def _add_powers(factors: Factors, powers: Iterable[Tuple[int, int]]) -> None:
    """Raise the power of each tracked binomial in place, by e != 0 for each
    (s, e) of powers, dropping a binomial at power 0."""
    for s, e in powers:
        ne = factors.get(s, 0) + e
        if ne:
            factors[s] = ne
        else:
            del factors[s]


def _split_factors(unit: LaurentPoly,
                   factor_list: Iterable[Tuple[LaurentPoly, int]]
                   ) -> Tuple[LaurentPoly, List[Tuple[int, int]]]:
    """(shifted, pairs) with unit * prod f^e = shifted * prod
    (1 - x^s)^e over the (s, e) of pairs.  Each f is split once into
    sign * x^low * (1 - x^s), where low is the key of f's least term and
    s = 0 for a monomial; the monomials shift the unit once
    (`_times_monomials`), and the zero polynomial is the zero binomial
    of key 0.  A factor of another ring, or of any other shape, raises
    UsageError, and so does an s with a digit past SLOT_LIMIT (the
    digits of high - low reach 2 * f.bound).  A zero unit splits
    nothing."""
    pairs: List[Tuple[int, int]] = []
    if unit.is_zero():
        return unit, pairs
    flip = 1
    lows: Dict[int, int] = {}  # low -> net exponent
    for f, e in factor_list:
        if e == 0:
            continue
        unit._check(f)
        terms = f.terms
        if not terms:
            pairs.append((0, e))
            continue
        low, high = min(terms), max(terms)
        sign, s = terms[low], high - low
        if len(terms) > 2 or sign not in (1, -1) or s and \
                terms[high] != -sign:
            raise UsageError(f"not ±x^a or ±x^a (1 - x^s): {f!r}")
        if s and 2 * f.bound > SLOT_LIMIT:
            # a digit of s may have wrapped: read the exponents of s
            n = unit.ring.nvars
            exps = [a - b for a, b in zip(unpack(high, n), unpack(low, n))]
            if _slot_bound(exps) > SLOT_LIMIT:
                raise UsageError("an exponent or total degree could "
                                 f"exceed ±{SLOT_LIMIT}")
        if sign < 0 and e % 2:
            flip = -flip
        if low:
            lows[low] = lows.get(low, 0) + e
        if s:
            pairs.append((s, e))
    return _times_monomials(unit, lows, flip), pairs


class RatFunc:
    """An element of a Laurent ring localized at the binomials 1 - x^s.

    Internally: a residual Laurent polynomial `unit` times a product of
    tracked binomials 1 - x^s, each held in `factors` as its packed key
    s > 0 with a nonzero (possibly negative) power.  This is not the whole
    fraction field: a factor other than a unit monomial times 1 - x^s
    raises UsageError.  Denominators are expanded only on demand; equal
    binomials cancel at the multiset level.  No polynomial GCD is ever
    computed, so num/den pairs need not be fully reduced.
    """

    __slots__ = ("ring", "unit", "factors")

    def __init__(self, ring: Ring, unit: LaurentPoly, factors: Factors):
        self.ring = ring
        self.unit = unit
        self.factors = factors

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RatFunc":
        return RatFunc(p.ring, p, {})

    @staticmethod
    def from_frac(num: LaurentPoly, den: LaurentPoly) -> "RatFunc":
        if den.is_zero():
            raise ArithmeticDomainError("zero denominator")
        return RatFunc.from_poly(num)._with_factors([(den, -1)])

    @staticmethod
    def from_factors(ring: Ring, unit: LaurentPoly,
                     factor_list: Iterable[Tuple[LaurentPoly, int]]) -> "RatFunc":
        """Build unit * prod f_i^{e_i} with factor tracking: each factor is
        split once (`_split_factors`) and the binomials go to
        `from_binomials`.  A unit or factor from another ring raises
        UsageError."""
        return RatFunc.from_binomials(ring, *_split_factors(unit, factor_list))

    @staticmethod
    def from_binomials(ring: Ring, unit: LaurentPoly,
                       pairs: Iterable[Tuple[int, int]]) -> "RatFunc":
        """unit * prod (1 - x^k)^e over the (k, e) of pairs, k the packed key
        of a monomial of ring (see `_with_binomials`): the constructor of
        every factor list, the keys of the sym, piece and closed-entry
        factors and the split factors of `from_factors` alike.  A unit from
        another ring raises UsageError."""
        if unit.ring is not ring and unit.ring != ring:
            raise UsageError("operands live in different rings")
        return RatFunc(ring, unit, {})._with_binomials(pairs)

    @staticmethod
    def one(ring: Ring) -> "RatFunc":
        return RatFunc(ring, ring.one(), {})

    @staticmethod
    def zero(ring: Ring) -> "RatFunc":
        return RatFunc(ring, ring.zero(), {})

    def _with_binomials(self, pairs: Iterable[Tuple[int, int]]) -> "RatFunc":
        """self * prod (1 - x^k)^e over the (k, e) of pairs: the one
        accumulator of tracked factors.  A binomial of key k > 0 is tracked
        as it is; one of key k < 0 is -x^k (1 - x^-k), whose monomial moves
        into the unit (`_times_monomials`); k = 0 is the zero binomial,
        which gives zero at e > 0 and raises ArithmeticDomainError at
        e < 0.  Pairs with e = 0 are skipped, a zero self is returned as it
        is, and the factor dict is copied once."""
        if self.unit.is_zero():
            return self
        tracked = []
        lows: Dict[int, int] = {}  # k < 0 -> net exponent
        flip = 1
        for k, e in pairs:
            if not e:
                continue
            if k < 0:
                lows[k] = lows.get(k, 0) + e
                if e % 2:
                    flip = -flip
                k = -k
            elif not k:
                if e < 0:
                    raise ArithmeticDomainError("zero denominator factor")
                return RatFunc.zero(self.ring)
            tracked.append((k, e))
        factors = dict(self.factors)
        _add_powers(factors, tracked)
        return RatFunc(self.ring, _times_monomials(self.unit, lows, flip),
                       factors)

    def _with_factors(self, factor_list: Iterable[Tuple[LaurentPoly, int]]
                      ) -> "RatFunc":
        """self * prod f^e: the factors split once (`_split_factors`), their
        binomials added to self's tracked ones (`_with_binomials`).  A zero
        self is returned as it is."""
        if self.unit.is_zero():
            return self
        unit, pairs = _split_factors(self.unit, factor_list)
        return RatFunc(self.ring, unit, self.factors)._with_binomials(pairs)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "RatFunc") -> None:
        self.unit._check(other.unit)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        if self.unit.is_zero() or other.unit.is_zero():
            return RatFunc.zero(self.ring)
        # factor dicts are never mutated once built, so a product with an
        # untracked side shares the other side's dict
        if not other.factors:
            factors = self.factors
        elif not self.factors:
            factors = other.factors
        else:
            factors = dict(self.factors)
            _add_powers(factors, other.factors.items())
        return RatFunc(self.ring, self.unit * other.unit, factors)

    def inv(self) -> "RatFunc":
        if self.unit.is_zero():
            raise ArithmeticDomainError("division by zero")
        factors = {s: -e for s, e in self.factors.items()}
        return RatFunc(self.ring, self.ring.one(), factors)._with_factors(
            [(self.unit, -1)])

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        return self * other.inv()

    def __neg__(self) -> "RatFunc":
        return RatFunc(self.ring, -self.unit, self.factors)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        return rat_sum(self.ring, [self, other])

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def scale_poly(self, p: LaurentPoly) -> "RatFunc":
        if p.is_zero():
            return RatFunc.zero(self.ring)
        return RatFunc(self.ring, self.unit * p, self.factors)

    # -- views --------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.unit.is_zero()

    def num_den(self) -> Tuple[LaurentPoly, LaurentPoly]:
        """The numerator and the denominator, expanded in one pass over the
        tracked factors."""
        num, den = self.unit, self.ring.one()
        for s, e in self.factors.items():
            if e > 0:
                num = _times_binomial(num, s, e)
            else:
                den = _times_binomial(den, s, -e)
        return num, den

    def eval(self, point: EvalPoint) -> Fraction:
        """The exact value at point.  A vanishing denominator binomial raises
        EvaluationError, even where a numerator binomial vanishes too."""
        vals = [(_binomial(self.ring, s).eval(point), e)
                for s, e in self.factors.items()]
        if any(not val and e < 0 for val, e in vals):
            raise EvaluationError("zero denominator factor at point")
        total = self.unit.eval(point)
        for val, e in vals:
            total *= val ** e
        return total

    def to_json(self) -> dict:
        num, den = self.num_den()
        return {"num": num.to_json(), "den": den.to_json()}

    def __repr__(self) -> str:
        num, den = self.num_den()
        return f"({num!r})/({den!r})"


def binomial_quotient(p: LaurentPoly, s_key: int) -> LaurentPoly | None:
    """q with (1 - x^s) q == p, or None when 1 - x^s does not divide p.

    s is given by its packed key (s_key > 0).  The quotient is
    q_e = sum_{k >= 0} p_{e - k s}, a prefix sum along each lattice line
    e + Z s, so the division is exact exactly when every line sums to 0.
    The keys of one line agree mod s_key.  Two keys of p that agree mod
    s_key and lie at most span = 2 * p.bound / |s|_max steps apart are on
    one line, where |s|_max is the largest digit magnitude of s (read once
    per s_key): both differences then have digits of at most 2 * p.bound,
    and packing is one-to-one there.  For the same reason every term of p
    on the line through its least key k0 lies at k0 + j s_key for some
    j = 0..span, and every term of p at such a key is on that line.  So the
    coefficients at those keys are summed first, walking whichever of the
    span + 1 keys and p's terms is shorter, and a sum other than 0 rejects
    the division before anything is sorted.  Otherwise each residue class,
    in key order, splits into its lines wherever two neighbours lie further
    apart than span steps.  No division is tried when 2 * p.bound could
    pass SLOT_LIMIT.  Every quotient is multiplied back before it is
    returned, and a mismatch raises.
    """
    terms = p.terms
    if sum(terms.values()) or 2 * p.bound > SLOT_LIMIT:
        return None
    span = 2 * p.bound // _key_bound(s_key)
    start = min(terms, default=0)
    line = range(start, start + span * s_key + 1, s_key)
    # the coefficient sum of the least key's line, read along whichever of
    # the line and the terms is shorter
    if len(line) <= len(terms):
        total = sum(terms.get(key, 0) for key in line)
    else:
        total = sum(c for key, c in terms.items() if key in line)
    if total:
        return None
    keys = sorted(terms)
    keys.sort(key=s_key.__rmod__)  # stable: each residue class in key order
    q: Terms = {}
    prefix = 0
    # Every line but the last is checked to close on 0; p(1) = 0 then closes
    # the last one too.
    for key, after in zip(keys, keys[1:]):
        prefix += terms[key]
        if prefix:
            # the line goes on, so its next term must be the next key
            steps, off = divmod(after - key, s_key)
            if off or steps > span:
                return None
            q[key] = prefix
            for m in range(1, steps):
                q[key + m * s_key] = prefix
    back = dict(q)
    _accumulate(back, q, {s_key: -1})
    if back != terms:
        raise ArithmeticError("binomial quotient failed its multiply-back check")
    # q's terms lie between terms of p on one line, so p's bound holds
    return LaurentPoly(p.ring, q, p.bound)


def _over_common_den(parts: Sequence[RatFunc]) -> Tuple[
        List[LaurentPoly], Factors]:
    """(polys, common) with parts[k] = polys[k] * common for every k.

    `common` holds each tracked factor at its smallest power over all parts,
    a part without the factor counting as power 0: the least common tracked
    denominator, times every positive factor power that all parts share.
    Only the remaining powers are expanded into the polys, each by
    `_times_binomial` from its key.  `common` is a
    new dict, which `_add` changes.  When every part carries the same
    factor powers, the units and a copy of the last part's dict are what
    the loop over the keys would return, key order included, and they are
    returned at once.
    """
    polys = [r.unit for r in parts]
    last = parts[-1].factors
    if all(r.factors == last for r in parts):
        return polys, dict(last)
    keys: Factors = {}
    for r in reversed(parts):
        keys.update(r.factors)
    common: Factors = {}
    for s in keys:
        powers = [r.factors.get(s, 0) for r in parts]
        m = min(powers)
        if m:
            common[s] = m
        for k, e in enumerate(powers):
            if e != m:
                polys[k] = _times_binomial(polys[k], s, e - m)
    return polys, common


def _accumulate(acc: Terms, terms: Terms, by: Terms) -> None:
    """acc += by * terms in place: for each (shift, scale) of by, add
    scale * x^shift * terms, deleting each coefficient that cancels to 0."""
    for shift, scale in by.items():
        for k, c in terms.items():
            k += shift
            if k in acc:
                nc = acc[k] + scale * c
                if nc:
                    acc[k] = nc
                else:
                    del acc[k]
            else:
                acc[k] = scale * c


def _merged(polys: Sequence[LaurentPoly]) -> Terms:
    """The terms of the sum of polys."""
    terms = dict(polys[0].terms)
    for p in polys[1:]:
        _accumulate(terms, p.terms, {0: 1})
    return terms


def poly_sum(ring: Ring, polys: Sequence[LaurentPoly]) -> LaurentPoly:
    """The sum of polys, merged in one pass, with the largest bound of the
    parts; zero when there are none.  A part from another ring raises
    UsageError."""
    if any(p.ring is not ring and p.ring != ring for p in polys):
        raise UsageError("operands live in different rings")
    if not polys:
        return ring.zero()
    return LaurentPoly(ring, _merged(polys), max(p.bound for p in polys))


def poly_product(ring: Ring, polys: Sequence[LaurentPoly]) -> LaurentPoly:
    """The product of polys; one when there are none.  The monomials among
    them multiply as one key sum and one coefficient product, applied to the
    product of the others in one pass, so a monomial costs no polynomial
    product.  A part from another ring raises UsageError."""
    shift, scale, bound, rest = 0, 1, 0, None
    for p in polys:
        if p.ring is not ring and p.ring != ring:
            raise UsageError("operands live in different rings")
        if len(p.terms) == 1:
            [(key, c)] = p.terms.items()
            shift, scale, bound = shift + key, scale * c, bound + p.bound
        else:
            rest = p if rest is None else rest * p
    if rest is not None:
        bound += rest.bound
    if rest is None:
        return LaurentPoly(ring, {shift: scale}, bound)
    return LaurentPoly(ring, {k + shift: scale * c
                              for k, c in rest.terms.items()}, bound)


def _add(a: RatFunc, b: RatFunc) -> RatFunc:
    """a + b as (pa + pb) * common (see `_over_common_den`), then cancelled.

    The shared numerator factor powers stay tracked on the sum, so only the
    remainders are expanded and added.  Each tracked 1 - x^s in the
    denominator of both a and b is then divided out of the numerator while
    the division stays exact.  A zero summand, such as a partial sum that
    cancelled, gives back the other summand as it is: lifting over it would
    expand every positive factor power of the other."""
    if a.unit.is_zero():
        return b
    if b.unit.is_zero():
        return a
    polys, common = _over_common_den([a, b])
    unit = poly_sum(a.ring, polys)
    if unit.is_zero():
        return RatFunc.zero(a.ring)
    return _cancelled(a.ring, unit, common, [
        s for s in common if a.factors.get(s, 0) < 0
        and b.factors.get(s, 0) < 0])


def _cancelled(ring: Ring, unit: LaurentPoly, factors: Factors,
               keys: Sequence[int]) -> RatFunc:
    """unit * factors, each tracked 1 - x^s with s in `keys`, a denominator
    factor, divided out of unit while the division stays exact; `factors`
    is updated in place."""
    for s in keys:
        e = factors[s]
        while e < 0:
            q = binomial_quotient(unit, s)
            if q is None:
                break
            unit, e = q, e + 1
        if e:
            factors[s] = e
        else:
            del factors[s]
    return RatFunc(ring, unit, factors)


def _tree_sum(parts: Sequence[RatFunc], lo: int, hi: int) -> RatFunc:
    if hi - lo == 1:
        return parts[lo]
    mid = (lo + hi) // 2
    return _add(_tree_sum(parts, lo, mid), _tree_sum(parts, mid, hi))


def rat_sum(ring: Ring, terms: Sequence[RatFunc]) -> RatFunc:
    """Sum of rational functions, added pairwise in a balanced tree.

    Each pairwise sum is taken over the least common tracked denominator and
    then cancels the tracked binomials it can (see `_add`), so the partial
    sums stay near the size of the reduced result instead of growing to the
    lcm of every part's denominator.  A lone part, the only nonzero one
    given, is cancelled the same way against each tracked binomial of its
    own denominator: a part that pieces of one denominator were folded into
    then prints as their sum does.  A relation witness reads this: with
    L_i's form mutated (the kill table's `ModuleContext.l_form` row), the
    folded witness of `diagonal-conjugates-raising` (i, j) = (1, 1) at
    degree 0 would print as t_1^2 t_2^-2 (1 - v^2) / (1 - v^2) where the
    point loop's sum prints t_1^2 t_2^-2.
    """
    live = [t for t in terms if not t.unit.is_zero()]
    if len(live) == 1:
        r = live[0]
        below = [s for s, e in r.factors.items() if e < 0]
        return _cancelled(ring, r.unit, dict(r.factors), below) if below \
            else r
    return _tree_sum(live, 0, len(live)) if live else RatFunc.zero(ring)


# ---------------------------------------------------------------------------
# Zero tests
# ---------------------------------------------------------------------------

def sum_is_zero(parts: Sequence[RatFunc]) -> bool:
    """True iff the parts sum to zero as rational functions.

    Every part is divided by the factor powers that all nonzero parts have in
    common (see `_over_common_den`): that keeps the verdict, and a factor
    power they share is never expanded.  The remainders are added and the
    sum is compared with 0; no binomial division is tried, since only
    whether the numerator vanishes matters.  An empty list sums to zero.
    """
    for r in parts[1:]:
        parts[0]._check(r)
    live = [r for r in parts if not r.unit.is_zero()]
    if not live:
        return True
    polys, _ = _over_common_den(live)
    return not _merged(polys)


def combination_is_zero(base: LaurentPoly, multiples: Iterable[
        Tuple[LaurentPoly, LaurentPoly]]) -> bool:
    """True iff base + sum_k c_k * p_k == 0, for (c_k, p_k) in multiples.

    Each multiple is added into one copy of base's terms, one key shift and
    coefficient scale per term of c_k, so no product c_k * p_k is built: a
    monomial c_k costs one pass over p_k's terms, a c_k of m terms m passes.
    """
    acc = dict(base.terms)
    for c, p in multiples:
        base._check(c)
        base._check(p)
        # no product is built, so no constructor checks its bound
        if c.bound + p.bound > SLOT_LIMIT:
            raise UsageError(
                f"an exponent or total degree could exceed ±{SLOT_LIMIT}")
        _accumulate(acc, p.terms, c.terms)
    return not acc


def eq_exact(a: RatFunc, b: RatFunc) -> bool:
    """True iff a == b as rational functions: a - b sums to zero."""
    return sum_is_zero([a, -b])


def v_shifted(p: LaurentPoly, k: int) -> LaurentPoly:
    """p * v^k for p in a torus ring, one key shift per term: the v digit
    and the total digit of every key move by 2k (the v slot counts half
    units), so the bound grows by 2|k|.  p itself when k = 0."""
    if not k:
        return p
    ring = p.ring
    step = 2 * k * _unit_keys(ring.nvars)[ring.n]
    return LaurentPoly(ring, {key + step: c for key, c in p.terms.items()},
                       p.bound + 2 * abs(k))


def geometric_block(lo: int, hi: int, m: LaurentPoly) -> LaurentPoly:
    """Sum_{l=lo}^{hi} v^{2l} * m; the zero polynomial when lo > hi."""
    ring = m.ring
    if not isinstance(ring, TVRing):
        raise UsageError("geometric_block needs a torus ring")
    return poly_sum(ring, [v_shifted(m, 2 * l) for l in range(lo, hi + 1)])
