"""Vector and unit-sphere primitives, and the package's trusted record constructor."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from napsphere import (
    OUTWARD,
    ClassificationReport,
    NapoleonisationResult,
    SphericalTriangle,
    ZeroSumError,
    barycentre,
    classify,
    cross,
    dot,
    napoleonise,
    new_triangle,
    spherical_distance,
    unit_vector,
)
from napsphere.core import _record

from conftest import (
    NAPOLEONIC_BARYCENTRE,
    NAPOLEONIC_CENTROIDS,
    NAPOLEONIC_D,
    NAPOLEONIC_NAPOLEON_BARYCENTRE,
    NAPOLEONIC_VERTICES,
    SCALENE_VERTICES,
)

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def triple(a, b, c) -> float:
    """Scalar triple product <a, b x c>, from the package's dot and cross."""
    return dot(a, cross(b, c))


def _unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


finite_components = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
raw_vectors = st.tuples(finite_components, finite_components, finite_components).filter(
    lambda v: 1e-3 < math.hypot(*v) < 20.0
)


def _pairwise_dots(a, b) -> bytes:
    """The bytes of ``float(a_i @ b_i)`` for each stacked pair of 3-vectors, one pair at a time."""
    pairs = zip(a.reshape(-1, 3), b.reshape(-1, 3))
    return np.array([float(x @ y) for x, y in pairs]).tobytes()


class TestDot:
    def test_orthogonal_axes(self):
        assert dot(EX, EY) == 0.0

    def test_known_triangle_edge(self):
        p0, p1, _ = NAPOLEONIC_VERTICES
        assert dot(p0, p1) == pytest.approx(-7.0 / 50.0, abs=1e-15)

    def test_unit_vector_self_product(self):
        rng = np.random.default_rng(1)
        for v in _unit_vectors(rng, 50):
            assert abs(dot(v, v) - 1.0) <= 1e-9

    @pytest.mark.parametrize("shape", [(10_000, 3), (1_000, 3, 3)])
    def test_stacked_entries_round_like_each_pair(self, shape):
        # The docstring's promise: each entry of a stack has the bits of ``a @ b`` of its pair.
        rng = np.random.default_rng(26)
        a, b = rng.normal(size=shape), rng.normal(size=shape)
        got = dot(a, b)
        assert got.shape == shape[:-1]
        assert got.tobytes() == _pairwise_dots(a, b)


@given(st.lists(st.tuples(raw_vectors, raw_vectors), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_stacked_dot_rounds_like_each_pair(pairs):
    a, b = np.array(pairs).transpose(1, 0, 2)
    assert dot(a, b).tobytes() == _pairwise_dots(a, b)


class TestCross:
    def test_basis_identity(self):
        assert np.array_equal(cross(EX, EY), EZ)

    def test_hand_expanded_determinant(self):
        # (1,0,0) x (-1/2, sqrt(3)/2, 0) = (0*0-0*s, 0*(-1/2)-1*0, 1*s-0*(-1/2))
        b = np.array([-0.5, math.sqrt(3.0) / 2.0, 0.0])
        expected = np.array([0.0, 0.0, math.sqrt(3.0) / 2.0])
        assert np.allclose(cross(EX, b), expected, atol=1e-15)

    def test_self_cross_is_zero(self):
        v = np.array([0.3, -0.4, 0.5])
        assert np.array_equal(cross(v, v), np.zeros(3))


class TestTriple:
    def test_unit_determinant(self):
        assert triple(EX, EY, EZ) == 1.0

    def test_cyclic_invariance_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b, c = _unit_vectors(rng, 3)
            t = triple(a, b, c)
            assert triple(b, c, a) == pytest.approx(t, abs=1e-12)
            assert triple(c, a, b) == pytest.approx(t, abs=1e-12)

    def test_known_triangle_matches_side_parameter_formula(self):
        # chi^2 from side parameters alone:
        # [2(1-a)(1+2a) + sum of d_i^2 d_j^2 + (d0 d1 d2)^2] / 4, a = (sum d^2 - 1)/2
        d0, d1, d2 = NAPOLEONIC_D
        a = (d0**2 + d1**2 + d2**2 - 1.0) / 2.0
        chi_sq = (
            2.0 * (1.0 - a) * (1.0 + 2.0 * a)
            + d0**2 * d1**2 + d1**2 * d2**2 + d2**2 * d0**2
            + d0**2 * d1**2 * d2**2
        ) / 4.0
        t = triple(*NAPOLEONIC_VERTICES)
        assert t > 0.0
        assert t == pytest.approx(math.sqrt(4.0 * chi_sq) / 2.0, abs=1e-12)


class TestSphericalDistance:
    def test_orthogonal_points(self):
        assert spherical_distance(EX, EY) == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_identical_points(self):
        assert spherical_distance(EX, EX) == 0.0

    def test_inner_product_rounded_past_one_is_clamped(self):
        # <p, p> rounds to 1.0000000000000002; unclamped, math.acos would raise.
        p = np.array([0.36486176735685877, 0.9240647543268905, -0.11393077078653184])
        assert dot(p, p) > 1.0
        assert spherical_distance(p, p) == 0.0
        assert spherical_distance(p, -p) == math.pi

    def test_known_centroid_pair(self):
        r0, r1, _ = NAPOLEONIC_CENTROIDS
        assert spherical_distance(r0, r1) == pytest.approx(math.acos(-1.0 / 3.0), abs=1e-12)
        assert math.acos(-1.0 / 3.0) == pytest.approx(1.9106332, abs=1e-7)


class TestBarycentre:
    def test_known_triangle(self):
        b = barycentre(*NAPOLEONIC_VERTICES)
        assert np.allclose(b, NAPOLEONIC_BARYCENTRE, atol=1e-5)

    def test_idempotent_on_equal_points(self):
        p = np.array([2.0, -3.0, 6.0]) / 7.0
        assert np.allclose(barycentre(p, p, p), p, atol=1e-15)

    def test_known_centroid_triple(self):
        b = barycentre(*NAPOLEONIC_CENTROIDS)
        assert np.allclose(b, NAPOLEONIC_NAPOLEON_BARYCENTRE, atol=1e-5)

    def test_zero_sum_rejected(self):
        p1 = np.array([-0.5, math.sqrt(3.0) / 2.0, 0.0])
        p2 = np.array([-0.5, -math.sqrt(3.0) / 2.0, 0.0])
        with pytest.raises(ZeroSumError):
            barycentre(EX, p1, p2)

    def test_small_vertex_sum_still_has_a_direction(self):
        # Unit vertices whose sum has norm 1e-8, ten times the 1e-9 cut-off.
        c = -0.5 + 5e-9
        s = math.sqrt(1.0 - c * c)
        p1, p2 = np.array([c, s, 0.0]), np.array([c, -s, 0.0])
        assert np.sqrt(dot(EX + p1 + p2, EX + p1 + p2)) == pytest.approx(1e-8, rel=1e-6)
        assert np.array_equal(barycentre(EX, p1, p2), EX)


class TestUnitVector:
    def test_accepts_and_renormalises(self):
        v = unit_vector((1.0 + 1e-10, 0.0, 0.0))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_far_from_unit(self):
        with pytest.raises(ValueError):
            unit_vector((1.1, 0.0, 0.0))

    def test_tolerance_is_on_the_squared_norm(self):
        assert np.array_equal(unit_vector((math.sqrt(1.0 + 5e-10), 0.0, 0.0)), EX)
        with pytest.raises(ValueError, match="not a unit vector"):
            unit_vector((math.sqrt(1.0 + 5e-9), 0.0, 0.0))

    def test_rejects_a_wrong_shape_before_a_non_finite_component(self):
        with pytest.raises(ValueError, match=r"^expected 3 components, got shape \(2,\)$"):
            unit_vector((math.nan, 0.0))
        with pytest.raises(ValueError, match="^vector components must be finite$"):
            unit_vector((math.inf, 0.0, 0.0))

    def test_stacked_points_match_one_at_a_time(self):
        v = _unit_vectors(np.random.default_rng(5), 4) * (1.0 + 1e-10)
        assert np.array_equal(unit_vector(v), np.array([unit_vector(p) for p in v]))
        v[2] *= 1.1
        with pytest.raises(ValueError, match="not a unit vector"):
            unit_vector(v)


@given(raw_vectors, raw_vectors)
@settings(max_examples=200, deadline=None)
def test_lagrange_identity(u, v):
    a = np.array(u)
    b = np.array(v)
    lhs = float(np.linalg.norm(cross(a, b))) ** 2 + dot(a, b) ** 2
    rhs = float(a @ a) * float(b @ b)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_distance_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        p, q, r = _unit_vectors(rng, 3)
        dpq = spherical_distance(p, q)
        assert spherical_distance(q, p) == pytest.approx(dpq, abs=1e-12)
        assert dpq <= spherical_distance(p, r) + spherical_distance(r, q) + 1e-12


@given(raw_vectors, raw_vectors, raw_vectors)
@settings(max_examples=200, deadline=None)
def test_triple_symmetries(u, v, w):
    a, b, c = np.array(u), np.array(v), np.array(w)
    t = triple(a, b, c)
    scale = max(1.0, abs(t))
    assert triple(b, c, a) == pytest.approx(t, abs=1e-12 * scale)
    assert triple(a, c, b) == pytest.approx(-t, abs=1e-12 * scale)


# The package's positional value order for each record, as its constructors pass it to ``_record``.
RECORD_FIELDS = {
    SphericalTriangle: ("vertices", "edge_inners", "edge_normals", "d", "chi", "orientation_swapped"),
    NapoleonisationResult: (
        "apexes", "centroids", "rr01", "rr12", "rr20", "equilateral_residual", "signs", "near_boundary",
    ),
    ClassificationReport: (
        "d", "alpha", "chi", "gamma", "condition_value", "condition_residual", "equilateral_factor",
        "verdict", "predicted_rr", "epsilon_sign", "note",
    ),
}


def _sample_record(cls):
    """A record of *cls* as the package builds it, every field distinct from the others."""
    t = new_triangle(*SCALENE_VERTICES)  # swapped, so orientation_swapped is True
    if cls is SphericalTriangle:
        return t
    if cls is NapoleonisationResult:
        return napoleonise(t, OUTWARD)
    return classify(new_triangle(*NAPOLEONIC_VERTICES))  # OutwardNapoleonic: predicted_rr and epsilon_sign set


def _field_bytes(value):
    """A field as comparable data: an array's dtype, shape, writeability and bytes, else its type and repr."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.flags.writeable, value.tobytes()
    return type(value), repr(value)


@pytest.mark.parametrize("cls", list(RECORD_FIELDS), ids=lambda cls: cls.__name__)
def test_trusted_record_matches_the_dataclass_init(cls):
    # ``_record`` fills fields in ``__dataclass_fields__`` order, so a field moved in the class
    # changes which value lands where and fails here.
    names = RECORD_FIELDS[cls]
    values = [getattr(_sample_record(cls), name) for name in names]
    trusted, init = _record(cls, *values), cls(**dict(zip(names, values)))
    assert [_field_bytes(getattr(trusted, n)) for n in names] == [_field_bytes(getattr(init, n)) for n in names]
    assert vars(trusted).keys() == vars(init).keys()
    assert repr(trusted) == repr(init)
    for record in (trusted, init):
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
