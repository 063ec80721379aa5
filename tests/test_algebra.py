"""Exact rational polynomial arithmetic and the identity checks."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from napsphere import algebra, sample_napoleonic_d
from napsphere.algebra import (
    D0,
    D1,
    D2,
    ONE,
    RationalPolynomial,
    alpha,
    centroid_bracket,
    chi_squared,
    condition,
    equilateral_factor,
    gamma,
    one_minus_pairs,
    sum_minus_product,
    verify_all,
    verify_factorisation,
    verify_final_identity,
    verify_rotation_quadratic,
    verify_sum_of_squares,
)
from napsphere.triangle import SideParameters


class TestRingOperations:
    def test_difference_of_squares(self):
        assert (D0 + D1) * (D0 - D1) == D0 * D0 - D1 * D1

    def test_alpha_polynomial_structure(self):
        # 2 alpha = d0^2 + d1^2 + d2^2 - 1
        two_alpha = alpha(D0, D1, D2) * 2
        expected = D0 * D0 + D1 * D1 + D2 * D2 - 1
        assert two_alpha == expected

    def test_chi_squared_polynomial_against_float_formula(self):
        poly = chi_squared(D0, D1, D2)
        for d in (
            SideParameters(0.3, 0.7, 1.1),
            SideParameters(1.0, 1.0, 1.0),
            SideParameters(0.9, 0.4, 1.5),
        ):
            assert float(_ref_evaluate(poly.coeffs, d)) == pytest.approx(chi_squared(*d), abs=1e-12)
            assert float(_ref_evaluate(alpha(D0, D1, D2).coeffs, d)) == pytest.approx(alpha(*d), abs=1e-12)

    def test_zero_coefficients_never_stored(self):
        p = D0 - D0
        assert p.is_zero()
        assert p.coeffs == {}
        q = (D0 + 1) * (D0 - 1) - D0 * D0
        assert q == RationalPolynomial.constant(-1)

    def test_exact_rational_evaluation(self):
        # evaluating a stored polynomial at rational points must agree with
        # rational evaluation of its construction expression
        point = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 4))
        d0, d1, d2 = point
        expr = (
            Fraction(1, 2) * (d0**2 + d1**2 + d2**2 - 1)
        )
        assert _ref_evaluate(alpha(D0, D1, D2).coeffs, point) == expr
        cond = d0**2 + d1**2 + d2**2 + d0 * d1 + d1 * d2 + d2 * d0
        assert _ref_evaluate(condition(D0, D1, D2).coeffs, point) == cond

    def test_power_and_scale(self):
        assert (D0 + 1) * (D0 + 1) == D0 * D0 + D0 * 2 + 1
        assert _ref_evaluate((D1 * Fraction(3, 2)).coeffs, (0, 2, 0)) == 3
        assert (D0 + 1) / 2 == (D0 + 1) * Fraction(1, 2)
        with pytest.raises(TypeError):
            D0 / 2.0

    @pytest.mark.parametrize("other", [1.5, "a"])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_unsupported_operands_raise_type_error(self, op, other):
        with pytest.raises(TypeError):
            op(other, D0)  # the reflected operator
        with pytest.raises(TypeError):
            op(D0, other)

    def test_constants_equal_finite_floats_of_their_value(self):
        assert ONE == 1.0 and 1.0 == ONE
        assert ONE / 2 == 0.5
        assert D0 != 1.0
        assert RationalPolynomial() == 0.0
        assert ONE / 3 != 1.0 / 3.0  # the float is a nearby binary fraction, not 1/3
        for value in (math.nan, math.inf, -math.inf):
            assert ONE != value
            assert not ONE == value


class TestPackedExponents:
    """Each monomial is one int key with a 21-bit field per exponent; every
    exponent stays below 2**20, so no field can carry into the next."""

    @pytest.mark.parametrize(
        "exps", [(1, 2), (1, 2, 3, 4), (), (-1, 0, 0), (0, 0, -1), (2**20, 0, 0), (0, 2**20, 0), (0, 0, 2**21), (1.5, 0, 0)]
    )
    def test_constructor_rejects_bad_exponents(self, exps):
        with pytest.raises(ValueError):
            RationalPolynomial({exps: 1})

    @pytest.mark.parametrize("var", [D0, D1, D2])
    def test_product_reaching_the_exponent_bound_overflows(self, var):
        p = var
        for _ in range(19):
            p = p * p
        assert list(p.coeffs.values()) == [1] and sum(next(iter(p.coeffs))) == 2**19
        with pytest.raises(OverflowError):
            p * p
        with pytest.raises(OverflowError):
            p * (p + 1)

    def test_largest_exponent_round_trips(self):
        exps = (0, 2**20 - 1, 3)
        p = RationalPolynomial({exps: Fraction(-2, 3), (1, 0, 0): 5})
        assert list(p.coeffs.items()) == [(exps, Fraction(-2, 3)), ((1, 0, 0), 5)]
        assert repr(p) == "-2/3 d1^1048575 d2^3 + 5 d0"
        assert (p * D0).coeffs == {(1, 2**20 - 1, 3): Fraction(-2, 3), (2, 0, 0): 5}
        with pytest.raises(OverflowError):
            p * D1


class TestSeparateFloatForms:
    """Float expressions kept outside ``algebra`` so that their rounding, and
    the outputs built on it, stay as they are; each equals its polynomial."""

    def test_gram_determinant_is_chi_squared(self):
        # ellipsoid.realize: 1 - c0^2 - c1^2 - c2^2 + 2 c0 c1 c2
        c0, c1, c2 = ((v * v - 1) / 2 for v in (D0, D1, D2))
        gram = 1 - c0 * c0 - c1 * c1 - c2 * c2 + 2 * c0 * c1 * c2
        assert gram == chi_squared(D0, D1, D2)

    def test_third_vertex_formula(self):
        # ellipsoid.realize places P2 = (A0 P0 + A1 P1 + sqrt(G) P0 x P1) / (1 - c2^2)
        # with <P0, P1> = c2 and |P0 x P1|^2 = 1 - c2^2.  Cleared of that
        # denominator: P2 is a unit vector, <P2, P0> = c1 and <P2, P1> = c0.
        c0, c1, c2 = ((v * v - 1) / 2 for v in (D0, D1, D2))
        gram = 1 - c0 * c0 - c1 * c1 - c2 * c2 + 2 * c0 * c1 * c2
        a0, a1, w = c1 - c2 * c0, c0 - c2 * c1, 1 - c2 * c2
        assert a0 * a0 + a1 * a1 + 2 * a0 * a1 * c2 + gram * w == w * w
        assert a0 + a1 * c2 == c1 * w
        assert a0 * c2 + a1 == c0 * w

    def test_epsilon_factor_is_minus_two_alpha(self):
        # tests/test_classify.py::_epsilon_from_d: 1 - d0^2 - d1^2 - d2^2
        assert 1 - D0 * D0 - D1 * D1 - D2 * D2 == -2 * alpha(D0, D1, D2)


class TestFactorisation:
    def test_identity_holds(self):
        check = verify_factorisation()
        assert check
        assert check.difference.is_zero()

    def test_mutated_chi_squared_fails(self, monkeypatch):
        monkeypatch.setattr(algebra, "chi_squared", lambda d0, d1, d2: chi_squared(d0, d1, d2) + 1)
        check = verify_factorisation()
        assert not check
        assert not check.difference.is_zero()

    def test_numeric_spot_check(self):
        d = (0.3, 0.7, 1.1)
        a = float(_ref_evaluate(alpha(D0, D1, D2).coeffs, d))
        chi2 = float(_ref_evaluate(chi_squared(D0, D1, D2).coeffs, d))
        sum_minus_prod = d[0] + d[1] + d[2] - d[0] * d[1] * d[2]
        one_minus_dd = 1.0 - d[0] * d[1] - d[1] * d[2] - d[2] * d[0]
        lhs = a * a * sum_minus_prod**2 - chi2 * one_minus_dd**2
        g = float(_ref_evaluate(gamma(D0, D1, D2).coeffs, d))
        eqf = float(_ref_evaluate(equilateral_factor(D0, D1, D2).coeffs, d))
        cond = float(_ref_evaluate(condition(D0, D1, D2).coeffs, d))
        rhs = g / 12.0 * eqf * (cond - 2.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSumOfSquares:
    def test_identity_holds(self):
        assert verify_sum_of_squares()

    def test_evaluation_at_ones(self):
        point = (1, 1, 1)
        assert _ref_evaluate(condition(D0, D1, D2).coeffs, point) == 6

    def test_evaluation_at_known_napoleonic_d(self):
        # the squared values are rational (2/25, 8/25, 18/25) but the d_i
        # themselves are not, so this spot check runs in floating point
        df = tuple(math.sqrt(2.0) / 5.0 * k for k in (1, 2, 3))
        assert float(_ref_evaluate(condition(D0, D1, D2).coeffs, df)) == pytest.approx(2.0, abs=1e-14)
        t1 = df[0] + df[1] / 2.0 + df[2] / 2.0
        t2 = df[1] + df[2] / 3.0
        lhs = t1**2 + 0.75 * t2**2 + (2.0 / 3.0) * df[2] ** 2
        assert lhs == pytest.approx(2.0, abs=1e-14)


class TestFinalIdentity:
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_identity_holds_all_cyclic_placements(self, i):
        check = verify_final_identity(i)
        assert check
        assert check.difference.is_zero()

    def test_chi_substitution_is_exact_on_the_quadric(self):
        # 4 chi^2 - (d0 + d1 + d2 - d0 d1 d2)^2 = -(equilateral factor)(condition - 2):
        # on the quadric chi is sum_minus_product / 2, the positive root.
        d = (D0, D1, D2)
        smp = sum_minus_product(*d)
        assert 4 * chi_squared(*d) - smp * smp == equilateral_factor(*d) * (2 - condition(*d))

    def test_perturbed_chi_substitution_fails(self):
        d = (D0, D1, D2)
        perturbed = chi_squared(*d) + D0 * D1 * D2
        smp = sum_minus_product(*d)
        assert 4 * perturbed - smp * smp != equilateral_factor(*d) * (2 - condition(*d))

    def test_numeric_evaluation_on_locus_samples(self):
        chi_poly = sum_minus_product(D0, D1, D2) / 2
        a_poly = alpha(D0, D1, D2)
        for d in sample_napoleonic_d(50, seed=50):
            dv = d.as_tuple()
            a = float(_ref_evaluate(a_poly.coeffs, dv))
            chi = float(_ref_evaluate(chi_poly.coeffs, dv))
            lhs = (
                (dv[2] ** 2 + 1.0) * (dv[0] ** 2 + 1.0)
                + 4.0 * (a * dv[2] * dv[0] - chi * (dv[2] + dv[0]))
                + (dv[2] ** 2 - 1.0) * (dv[0] ** 2 - 1.0)
                - 2.0 * (dv[1] ** 2 - 1.0)
            )
            assert lhs == pytest.approx(0.0, abs=1e-12)


class TestRotationQuadratic:
    def test_identity_holds(self):
        assert verify_rotation_quadratic()

    def test_single_variable_limit_point(self):
        point = (1, 0, 0)
        assert _ref_evaluate(condition(D0, D1, D2).coeffs, point) == 1
        s, y, z = 1, -2, 0
        assert Fraction(2, 3) * s**2 + Fraction(1, 12) * y**2 + Fraction(1, 4) * z**2 == 1

    def test_evaluation_at_known_napoleonic_d(self):
        df = tuple(math.sqrt(2.0) / 5.0 * k for k in (1, 2, 3))
        assert float(_ref_evaluate(condition(D0, D1, D2).coeffs, df)) == pytest.approx(2.0, abs=1e-14)


def test_verify_all_passes():
    checks = verify_all()
    assert len(checks) == 6
    for check in checks:
        assert check, f"{check.name} failed: {check.difference!r}"


def test_identity_check_repr_and_truth():
    # The record's repr is the one a frozen dataclass with these fields printed.
    failed = algebra.IdentityCheck(name="x", holds=False, difference=D0 - 1)
    assert repr(failed) == "IdentityCheck(name='x', holds=False, difference=1 d0 + -1)"
    assert not failed and failed.difference == D0 - 1
    assert algebra.IdentityCheck(name="y", holds=True, difference=ONE - ONE)


def test_polynomial_repr_is_readable():
    text = repr(condition(D0, D1, D2) - 2)
    assert "d0" in text and "d1" in text and "d2" in text
    assert repr(ONE - ONE) == "0"


# -- the ring operations against a plain {exponents: Fraction} reference ----

_exponents = st.tuples(*[st.integers(0, 3)] * 3)
_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))
_coefficient_maps = st.dictionaries(_exponents, _rationals, max_size=6)
_points = st.tuples(_rationals, _rationals, _rationals)


def _clean(ref):
    return {e: c for e, c in ref.items() if c != 0}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _clean(out)


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _clean(out)


def _ref_evaluate(ref, point):
    d0, d1, d2 = point
    return sum((c * d0**i * d1**j * d2**k for (i, j, k), c in ref.items()), Fraction(0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_coefficient_maps, _coefficient_maps, _rationals.filter(bool), st.integers(1, 12), _points)
def test_ring_operations_match_fraction_reference(a, b, k, n, point):
    expected = {}
    # The numerators of a and b (never a multiple of 7) over 7 and over 1 make
    # pairs with equal denominators.
    for den in (None, 7, 1):
        x, y = ({e: Fraction(c.numerator, den) for e, c in m.items()} if den else m for m in (a, b))
        p, q = RationalPolynomial(x), RationalPolynomial(y)
        tag = f"/{den}" if den else ""
        expected[f"p+q{tag}"] = (p + q, _ref_add(x, y))
        expected[f"p-q{tag}"] = (p - q, _ref_add(x, {e: -c for e, c in y.items()}))
        expected[f"q-p{tag}"] = (q - p, _ref_add(y, {e: -c for e, c in x.items()}))
        expected[f"p*q{tag}"] = (p * q, _ref_mul(x, y))
    p = RationalPolynomial(a)
    neg_a = {e: -c for e, c in a.items()}
    for c in (k, n, -n, 0):
        const = {(0, 0, 0): Fraction(c)}
        expected[f"p+{c}"] = (p + c, _ref_add(a, const))
        expected[f"{c}+p"] = (c + p, _ref_add(const, a))
        expected[f"p-{c}"] = (p - c, _ref_add(a, {(0, 0, 0): -Fraction(c)}))
        expected[f"{c}-p"] = (c - p, _ref_add(const, neg_a))
        expected[f"p*{c}"] = (p * c, _ref_mul(a, const))
        expected[f"{c}*p"] = (c * p, _ref_mul(const, a))
        if c:
            expected[f"p/{c}"] = (p / c, _clean({e: x / c for e, x in a.items()}))
    expected["p*p"] = (p * p, _ref_mul(a, a))
    for name, (poly, ref) in expected.items():
        assert poly.coeffs == ref, name
        # == compares the stored numerators and denominator, so this also checks lowest terms.
        assert poly == RationalPolynomial(ref), name
    for name in ("p+q", "p-q", "p*q", f"p/{k}", "p*p"):
        poly, ref = expected[name]
        assert _ref_evaluate(poly.coeffs, point) == _ref_evaluate(ref, point), name
    assert (p - p).is_zero()
    assert p.coeffs == _clean(a)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_coefficient_maps, _coefficient_maps)
def test_equal_polynomials_built_in_different_orders_compare_equal(a, b):
    p = RationalPolynomial(a)
    reordered = RationalPolynomial(dict(reversed(list(a.items()))))
    summed = sum((RationalPolynomial({e: c}) for e, c in reversed(list(a.items()))), RationalPolynomial())
    for other in (reordered, summed):
        assert p == other
    q = RationalPolynomial(b)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) - q == p


def test_constant_polynomials_equal_the_number_and_are_unhashable():
    assert ONE == 1 and ONE == Fraction(1) and ONE == 1.0
    assert D0 - D0 == 0
    assert ONE / 2 == Fraction(1, 2)
    # A constant equals the int, Fraction and float of its value, which would all have to hash alike.
    with pytest.raises(TypeError):
        hash(ONE)


def test_ring_expansions_match_evaluation_on_fractions():
    # Each polynomials function expanded in the ring, then evaluated, equals the same function
    # called on the point's Fractions; centroid_bracket with a rational chi, for every sign and index.
    rng = random.Random(33)
    d = (D0, D1, D2)
    for _ in range(5):
        *point, chi = (Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(4))
        for f in (alpha, chi_squared, gamma, condition, equilateral_factor, sum_minus_product, one_minus_pairs):
            assert _ref_evaluate(f(*d).coeffs, point) == f(*point), f.__name__
        for e in itertools.product((-1, 1), repeat=3):
            for i in range(3):
                expanded = centroid_bracket(d, chi, e, i)
                assert _ref_evaluate(expanded.coeffs, point) == centroid_bracket(point, chi, e, i), (e, i)
