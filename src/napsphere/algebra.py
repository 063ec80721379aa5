"""Exact verification of the identities behind the classification.

The polynomials themselves, alpha, chi^2, gamma, the condition value, the
equilateral factor and the centroid inner-product bracket, are defined once
in :mod:`napsphere.polynomials` with ring operations and integer constants
only, and re-exported here.  Called on ``Fraction``s, such a function
evaluates its polynomial exactly; the ``verify_*`` checks call it on
:class:`RationalPolynomial` arguments: integer numerators of the monomials
d0^i d1^j d2^k over one common denominator, each monomial under the packed
int key ``i | j << 21 | k << 42`` (every exponent below 2**20), and at most
one gcd per ring operation to keep them in lowest terms.  So the
identities are proved for the expressions the classifier evaluates, and a
``True`` is still an exact, coefficient-by-coefficient proof, with no
floating point involved.

The quantity chi (the triangle's triple product) enters these identities
only through its square, which is a polynomial in d; the one identity that
involves bare chi is verified after substituting the relation
2 chi = d0 + d1 + d2 - d0 d1 d2 that holds on the Napoleonic quadric.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Mapping, NamedTuple, Union

# Re-exported, so that the checks and the polynomials they prove come from one module.
from .polynomials import (
    alpha,
    centroid_bracket,
    chi_squared,
    condition,
    equilateral_factor,
    gamma,
    one_minus_pairs,
    sum_minus_product,
)

__all__ = [
    "RationalPolynomial",
    "D0",
    "D1",
    "D2",
    "ONE",
    "alpha",
    "chi_squared",
    "gamma",
    "condition",
    "equilateral_factor",
    "sum_minus_product",
    "one_minus_pairs",
    "centroid_bracket",
    "IdentityCheck",
    "verify_factorisation",
    "verify_sum_of_squares",
    "verify_final_identity",
    "verify_rotation_quadratic",
    "verify_all",
]

Exponents = tuple[int, int, int]
Scalar = Union[int, Fraction]

# The monomial d0^i d1^j d2^k is stored under the key i | j << 21 | k << 42.
# Every stored exponent is below 2**20, so the sum of two keys adds each pair
# of exponents in its own field without a carry into the next one, and a field
# of the sum reaches 2**20 exactly when its top bit, a bit of _CARRY, is set.
# A fourth variable would take the next field, << 63.
_SHIFT = 21
_EXP_LIMIT = 1 << 20
_FIELD = (1 << _SHIFT) - 1
_CARRY = _EXP_LIMIT * (1 | 1 << _SHIFT | 1 << 2 * _SHIFT)


def _key(exps) -> int:
    """The packed key of an exponent triple; ValueError unless three integers in [0, 2**20)."""
    try:
        fields = [operator.index(e) for e in exps]
    except TypeError:
        fields = []
    if len(fields) != 3 or not all(0 <= f < _EXP_LIMIT for f in fields):
        raise ValueError(f"exponents must be three integers in [0, 2**20), not {exps!r}")
    i, j, k = fields
    return i | j << _SHIFT | k << 2 * _SHIFT


def _exponents(key: int) -> Exponents:
    return key & _FIELD, key >> _SHIFT & _FIELD, key >> 2 * _SHIFT & _FIELD


class RationalPolynomial:
    """Sparse multivariate polynomial in d0, d1, d2 with rational coefficients.

    Stored as integer numerators ``{key: int}`` over one positive common
    denominator, in lowest terms and without zero numerators, so equal
    polynomials have equal representations.  The key of d0^i d1^j d2^k packs
    its exponents into one int, ``i | j << 21 | k << 42``, so a product of two
    monomials is one integer addition; every exponent must stay below 2**20
    (the constructor raises ``ValueError`` and ``*`` raises ``OverflowError``
    otherwise).  Arithmetic runs on Python ints with at most one gcd per result
    (Knuth, TAOCP Vol. 2, 4.5.1): operands over equal denominators add without
    rescaling, an ``int`` or ``Fraction`` operand scales the numerators (or,
    for a positive ``int`` divisor, the denominator), and a result over
    denominator 1 needs none.  A constant equals the ``int``, ``Fraction`` or
    finite ``float`` of its value (so a polynomial is unhashable), but a
    ``float`` operand is a ``TypeError``.  Immutable in practice: all
    arithmetic returns new instances.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Mapping[Exponents, Scalar] | None = None):
        fracs = {}
        for exps, c in (coeffs or {}).items():
            key = _key(exps)
            if q := Fraction(c):
                fracs[key] = q
        # Over the lcm of reduced denominators the numerators share no factor with it.
        self._den = math.lcm(*(q.denominator for q in fracs.values()))
        self._num = {e: q.numerator * (self._den // q.denominator) for e, q in fracs.items()}

    @property
    def coeffs(self) -> dict[Exponents, Fraction]:
        """The coefficients, as a fresh ``{exponents: Fraction}`` map."""
        return {_exponents(e): Fraction(n, self._den) for e, n in self._num.items()}

    @classmethod
    def constant(cls, c: Scalar) -> "RationalPolynomial":
        return cls({(0, 0, 0): c})

    @classmethod
    def variable(cls, index: int) -> "RationalPolynomial":
        return cls({tuple(int(i == index) for i in range(3)): 1})

    def _merge(self, other, sign: int = 1) -> "RationalPolynomial":
        """self + sign * other, for sign = +-1."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._den, other._den
        if a == b:
            out, sb = dict(self._num), sign
        else:
            g = math.gcd(a, b)
            sa, sb = b // g, a // g * sign
            out, a = {e: n * sa for e, n in self._num.items()}, a * sa
        get = out.get
        for e, n in other._num.items():
            out[e] = get(e, 0) + n * sb
        return _make(out, a)

    __add__ = __radd__ = _merge

    def __sub__(self, other) -> "RationalPolynomial":
        return self._merge(other, -1)

    def __rsub__(self, other) -> "RationalPolynomial":
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else other._merge(self, -1)

    def __mul__(self, other) -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            a, b = other.numerator, other.denominator
            if b == 1:
                # num/den in lowest terms: only the factors a shares with den cancel.
                g = math.gcd(a, self._den)
                a //= g
                return _wrap({e: n * a for e, n in self._num.items()} if a else {}, self._den // g)
            return _make({e: n * a for e, n in self._num.items()}, self._den * b)
        out: dict[int, int] = {}
        get = out.get
        for e1, n1 in self._num.items():
            for e2, n2 in other._num.items():
                e = e1 + e2
                out[e] = get(e, 0) + n1 * n2
        if functools.reduce(operator.or_, out, 0) & _CARRY:
            raise OverflowError("an exponent of the product reaches 2**20")
        return _make(out, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalPolynomial":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if isinstance(other, int) and other > 0:
            # The numerators share no factor with den: only those they share with other cancel.
            g = math.gcd(other, *self._num.values())
            return _wrap({e: n // g for e, n in self._num.items()}, self._den * (other // g))
        return self * (1 / Fraction(other))

    def __eq__(self, other) -> bool:
        if isinstance(other, float):  # equal to the constant of its exact value, as to that Fraction
            if not math.isfinite(other):
                return False
            other = Fraction(other)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def is_zero(self) -> bool:
        return not self._num

    def __repr__(self) -> str:
        coeffs = self.coeffs
        parts = []
        for exps in sorted(coeffs, key=lambda e: (sum(e), e), reverse=True):
            mono = " ".join(f"d{i}^{e}" if e > 1 else f"d{i}" for i, e in enumerate(exps) if e)
            parts.append(f"{coeffs[exps]}" + (f" {mono}" if mono else ""))
        return " + ".join(parts) or "0"


def _wrap(num: dict[int, int], den: int) -> RationalPolynomial:
    """Trusted constructor: num/den (den > 0) already in lowest terms, without zero numerators."""
    p = object.__new__(RationalPolynomial)
    p._num, p._den = num, den
    return p


def _make(num: dict[int, int], den: int) -> RationalPolynomial:
    """num/den (den > 0) brought to lowest terms, without zero numerators; one gcd unless den is 1."""
    if 0 in num.values():
        num = {e: n for e, n in num.items() if n}
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num, den = {e: n // g for e, n in num.items()}, den // g
    return _wrap(num, den)


def _coerce(other) -> RationalPolynomial:
    """*other* as a polynomial, for a polynomial, ``int`` or ``Fraction``; else NotImplemented."""
    if isinstance(other, RationalPolynomial):
        return other
    if isinstance(other, (int, Fraction)):
        return _make({0: other.numerator}, other.denominator)
    return NotImplemented


D0 = RationalPolynomial.variable(0)
D1 = RationalPolynomial.variable(1)
D2 = RationalPolynomial.variable(2)
ONE = RationalPolynomial.constant(1)


class IdentityCheck(NamedTuple):
    """Outcome of one exact identity check.

    Truthy iff the identity holds; on failure ``difference`` is the exact
    nonzero polynomial left-hand-side minus right-hand-side.
    """

    name: str
    holds: bool
    difference: RationalPolynomial

    def __bool__(self) -> bool:
        return self.holds


def _check(name: str, lhs: RationalPolynomial, rhs: RationalPolynomial) -> IdentityCheck:
    diff = lhs - rhs
    return IdentityCheck(name=name, holds=diff.is_zero(), difference=diff)


def verify_factorisation() -> IdentityCheck:
    """The product N+ N- of the two uniform-sign residuals
    N+- = alpha (sum d - prod d) +- chi (1 - sum dd), built from :func:`alpha`,
    :func:`sum_minus_product` and :func:`one_minus_pairs`, factorises as
    (gamma/12) (equilateral factor) (condition - 2).  For non-equilateral d, N+-
    vanishes exactly when the uniform-sign Napoleonisation with sign +-1 is
    equilateral."""
    n = alpha(D0, D1, D2) * sum_minus_product(D0, D1, D2)
    m = one_minus_pairs(D0, D1, D2)
    lhs = n * n - chi_squared(D0, D1, D2) * m * m
    rhs = gamma(D0, D1, D2) / 12 * equilateral_factor(D0, D1, D2) * (condition(D0, D1, D2) - 2)
    return _check("product-of-residuals factorisation", lhs, rhs)


def verify_sum_of_squares() -> IdentityCheck:
    """(d0 + d1/2 + d2/2)^2 + (3/4)(d1 + d2/3)^2 + (2/3) d2^2 equals
    d0^2 + d1^2 + d2^2 + d0 d1 + d1 d2 + d2 d0."""
    t1 = D0 + D1 / 2 + D2 / 2
    t2 = D1 + D2 / 3
    lhs = t1 * t1 + t2 * t2 * Fraction(3, 4) + D2 * D2 * Fraction(2, 3)
    return _check("positive-definite form of the condition", lhs, condition(D0, D1, D2))


def verify_final_identity(i: int) -> IdentityCheck:
    """The outward centroid inner-product bracket at index *i* reduces to a
    multiple of the condition residual.

    With chi replaced by its quadric value (d0 + d1 + d2 - d0 d1 d2)/2 and
    the outward signs e = (-1, -1, -1), the bracket that
    ``centroid_inner_closed_form`` evaluates satisfies

        (d_{i+2}^2+1)(d_i^2+1) + centroid_bracket(d, chi, e, i)
        = 2 (d_{i+2} d_i - 1)(condition - 2),

    which forces every centroid inner product to -1/3 on the quadric.  The chi
    substitution is exact there: 4 chi^2 - sum_minus_product^2 equals
    -(equilateral factor)(condition - 2), and sum_minus_product is positive.
    """
    d = (D0, D1, D2)
    di, dk = d[i % 3], d[(i + 2) % 3]
    chi = sum_minus_product(*d) / 2
    lhs = (dk * dk + 1) * (di * di + 1) + centroid_bracket(d, chi, (-1, -1, -1), i)
    rhs = 2 * (dk * di - 1) * (condition(*d) - 2)
    return _check(f"quadric centroid inner-product identity (i={i})", lhs, rhs)


def verify_rotation_quadratic() -> IdentityCheck:
    """2 X^2 + Y^2/2 + Z^2/2, expanded through the rotation, equals the
    condition polynomial.

    The rotated coordinates have irrational components but their squares are
    rational: 2 X^2 = 2 (d0+d1+d2)^2 / 3, Y^2/2 = (-2 d0+d1+d2)^2 / 12,
    Z^2/2 = (d2-d1)^2 / 4.
    """
    s = D0 + D1 + D2
    y = D1 + D2 - D0 * 2
    z = D2 - D1
    lhs = s * s * Fraction(2, 3) + y * y / 12 + z * z / 4
    return _check("rotated-frame quadric identity", lhs, condition(D0, D1, D2))


def verify_all() -> list[IdentityCheck]:
    """Run every exact identity check (final identity at all three indices)."""
    return [
        verify_factorisation(),
        verify_sum_of_squares(),
        verify_final_identity(0),
        verify_final_identity(1),
        verify_final_identity(2),
        verify_rotation_quadratic(),
    ]
