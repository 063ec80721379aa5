"""Triangle validation, side parameters, and the derived scalar invariants."""

import functools
import itertools
import math
import re
import warnings

import numpy as np
import pytest

from napsphere import (
    OUTWARD,
    BoundaryConditioningWarning,
    CogeodesicError,
    DegenerateError,
    NapsphereError,
    OutOfRangeError,
    SideParameters,
    TooWideError,
    Verdict,
    centroid_inner_closed_form,
    classify,
    classify_d,
    cross,
    dot,
    napoleonise,
    new_triangle,
    realize,
    sample_napoleonic_d,
    search_equilateral,
    side_parameters,
)
from napsphere import algebra
from napsphere.core import _first, unit_vector
from napsphere.triangle import (
    BOUNDARY_BAND,
    DEGENERACY_TOL,
    SQRT3,
    _in_range,
    _opposite_edges,
    _reject_degenerate,
    _reject_too_wide,
    _validate,
)

from conftest import NAPOLEONIC_D, SCALENE_VERTICES, equilateral_vertices, random_triangles

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])
BAND_TEXT = r"edge inner product -0\.49999\d* is within 1e-06 of -1/2; apex and centroid are ill-conditioned"


def _edge_at(c):
    """An edge from (1, 0, 0) whose endpoints have inner product *c*."""
    return EX, np.array([c, math.sqrt(1.0 - c * c), 0.0])


class TestNewTriangle:
    def test_known_napoleonic_vertices_accepted(self, napoleonic_triangle):
        assert napoleonic_triangle.chi > 0.0
        assert not napoleonic_triangle.orientation_swapped

    def test_cogeodesic_rejected(self):
        p0 = (1.0, 0.0, 0.0)
        p1 = (-0.5, math.sqrt(3.0) / 2.0, 0.0)
        p2 = (-0.5, -math.sqrt(3.0) / 2.0, 0.0)
        with pytest.raises(CogeodesicError):
            new_triangle(p0, p1, p2)

    def test_cogeodesic_bound_is_inclusive(self):
        # After validation the triple product is exactly the tolerance, 1e-9.
        with pytest.raises(CogeodesicError):
            new_triangle((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.6, 0.8, 1e-9))
        assert new_triangle((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.6, 0.8, 2e-9)).chi == 2e-9

    def test_too_wide_rejected(self):
        with pytest.raises(TooWideError):
            new_triangle((1.0, 0.0, 0.0), (-0.6, 0.8, 0.0), (0.0, 0.0, 1.0))

    def test_coincident_rejected(self):
        with pytest.raises(DegenerateError):
            new_triangle((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))

    @pytest.mark.parametrize("sep", [1.01e-9, 1e-8])
    def test_near_coincident_vertices_rejected(self, sep):
        # Far enough apart for the coincidence test, but <p0, p1> rounds so
        # that d2 = sqrt(1 + 2 <p0, p1>) equals sqrt(3).
        with pytest.raises(DegenerateError, match="vertices 0 and 1 coincide"):
            new_triangle(EX, (1.0, sep, 0.0), EZ)

    def test_close_vertices_accepted_and_classified(self):
        t = new_triangle(EX, (1.0, 1e-7, 0.0), EZ)
        assert side_parameters(t).d2 < SQRT3
        assert classify(t).verdict is Verdict.NOT_NAPOLEONIC

    def test_near_pairs_rejected_or_in_range(self):
        # Random vertex pairs 1.01e-9 to 2e-8 apart: new_triangle rejects
        # the triangle, or its side parameters are all in range.
        rng = np.random.default_rng(17)
        kinds = []
        for _ in range(500):
            p, u, r = rng.normal(size=(3, 3))
            p /= np.linalg.norm(p)
            u -= (u @ p) * p
            q = p + rng.uniform(1.01e-9, 2e-8) * u / np.linalg.norm(u)
            try:
                t = new_triangle(p, q / np.linalg.norm(q), r / np.linalg.norm(r))
            except NapsphereError as exc:
                kinds.append(exc.kind)
                continue
            side_parameters(t)
        assert "Degenerate" in kinds

    def test_antipodal_rejected(self):
        with pytest.raises(DegenerateError):
            new_triangle((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 0.0, 1.0))

    def test_orientation_swap_recorded(self):
        t = new_triangle(*SCALENE_VERTICES)
        assert t.orientation_swapped
        assert t.chi > 0.0
        # the stored triangle is the input with vertices 1 and 2 exchanged
        assert np.allclose(t.vertices[1], SCALENE_VERTICES[2])
        assert np.allclose(t.vertices[2], SCALENE_VERTICES[1])

    @pytest.mark.parametrize(
        "point",
        [(0.0, 1.1, 0.0), (0.0, 1.0), (0.0, math.nan, 1.0), None],
        ids=["non-unit", "two-components", "nan", "none"],
    )
    def test_malformed_point_rejected(self, point):
        with pytest.raises(ValueError) as exc:
            new_triangle(EX, point, EZ)
        assert not isinstance(exc.value, NapsphereError)

    @pytest.mark.parametrize(
        "points",
        [(EX, [[0.0, 1.0, 0.0]], EZ), ([EX], [EZ], [[0.0, 1.0, 0.0]]), (1.0, 0.0, 0.0), (np.eye(3),) * 3],
        ids=["one-nested", "all-nested", "scalars", "stacked"],
    )
    def test_points_of_wrong_shape_rejected(self, points):
        with pytest.raises(ValueError) as exc:
            new_triangle(*points)
        assert not isinstance(exc.value, NapsphereError)

    def test_revalidation_is_idempotent(self, napoleonic_triangle):
        t2 = new_triangle(*napoleonic_triangle.vertices)
        assert not t2.orientation_swapped
        for a, b in zip(t2.vertices, napoleonic_triangle.vertices):
            assert np.allclose(a, b, atol=1e-15)
        assert t2.chi == pytest.approx(napoleonic_triangle.chi, abs=1e-15)


def test_band_edge_is_inclusive():
    # The band is (-1/2, -1/2 + BOUNDARY_BAND]: its upper end warns, one ulp above it does not.
    c = -0.5 + BOUNDARY_BAND
    at, above = new_triangle(*_edge_at(c), EZ), new_triangle(*_edge_at(math.nextafter(c, 0.0)), EZ)
    assert at.edge_inners[2] == c and above.edge_inners[2] == math.nextafter(c, 0.0)
    with pytest.warns(BoundaryConditioningWarning, match=BAND_TEXT):
        assert napoleonise(at, OUTWARD).near_boundary
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundaryConditioningWarning)
        assert not napoleonise(above, OUTWARD).near_boundary


def test_napoleonise_band_warning_names_the_caller():
    t = new_triangle(*_edge_at(-0.5 + 1e-7), EZ)
    with pytest.warns(BoundaryConditioningWarning, match=BAND_TEXT) as record:
        assert napoleonise(t, OUTWARD).near_boundary
    assert [w.filename for w in record if w.category is BoundaryConditioningWarning] == [__file__]


class TestSideParameters:
    def test_known_triangle(self, napoleonic_triangle):
        d = side_parameters(napoleonic_triangle)
        assert d.as_tuple() == pytest.approx(NAPOLEONIC_D, abs=1e-15)

    def test_equilateral_third_sqrt(self):
        t = new_triangle(*equilateral_vertices(-1.0 / 3.0))
        d = side_parameters(t)
        expected = 1.0 / math.sqrt(3.0)
        assert d.as_tuple() == pytest.approx((expected,) * 3, abs=1e-12)

    def test_scalene_triangle_from_edge_inners(self):
        t = new_triangle(*SCALENE_VERTICES)
        d = side_parameters(t)
        # independent route: d_i = sqrt(1 + 2 c_i) from the stored edge inners
        expected = sorted(math.sqrt(1.0 + 2.0 * t.edge_inners[i]) for i in range(3))
        assert sorted(d.as_tuple()) == pytest.approx(expected, abs=1e-15)
        assert sorted(d.as_tuple()) == pytest.approx(
            sorted((1.6929339632083817, math.sqrt(2.0), math.sqrt(2.5))), abs=1e-12
        )

    def test_out_of_range_rejected(self):
        # SideParameters holds any three floats; the range rule runs where d enters.
        for d, bad in (((0.0, 1.0, 1.0), "d0 = 0.0"), ((1.0, 1.0, SQRT3), f"d2 = {SQRT3!r}")):
            assert SideParameters(*d).as_tuple() == d
            with pytest.raises(OutOfRangeError, match=re.escape(f"{bad} outside the open interval (0, sqrt(3))")):
                classify_d(SideParameters(*d))

    def test_swap_invariance_up_to_transposition(self):
        t_raw = new_triangle(*SCALENE_VERTICES)
        assert t_raw.orientation_swapped
        # relabelled input that needs no swap
        t_pre = new_triangle(SCALENE_VERTICES[0], SCALENE_VERTICES[2], SCALENE_VERTICES[1])
        assert not t_pre.orientation_swapped
        assert side_parameters(t_raw).as_tuple() == side_parameters(t_pre).as_tuple()


def test_stored_edge_inners_are_the_per_pair_products_exactly():
    # new_triangle evaluates the three edge inner products as one stacked
    # product before any swap; each must equal the plain product of its two
    # stored vertices bit for bit, swapped orientations included.
    triangles = []
    for t in random_triangles(100, seed=26):
        triangles += [t, new_triangle(*t.vertices[[0, 2, 1]])]
    assert any(t.orientation_swapped for t in triangles)
    for t in triangles:
        v = t.vertices
        stacked = dot(v.take([1, 2, 0], 0), v.take([2, 0, 1], 0))
        for i in range(3):
            expected = float(v[(i + 1) % 3] @ v[(i + 2) % 3])
            assert stacked[i] == expected and t.edge_inners[i] == expected


def test_stacked_validation_matches_one_triangle_at_a_time_exactly():
    v = np.array([t.vertices for t in random_triangles(3000, seed=7)])
    v[1::2] = v[1::2].take([0, 2, 1], axis=1)  # every other triangle entered with the opposite orientation
    triangles = [new_triangle(*row) for row in v]
    vertices, edge_inners, edge_normals, d, chi, swapped = _validate(v)
    assert vertices.tobytes() == np.array([t.vertices for t in triangles]).tobytes()
    assert edge_inners.tobytes() == np.array([t.edge_inners for t in triangles]).tobytes()
    assert edge_normals.tobytes() == np.array([t.edge_normals for t in triangles]).tobytes()
    assert d.tobytes() == np.array([t.d for t in triangles]).tobytes()
    assert chi.tolist() == [t.chi for t in triangles]
    assert swapped.tolist() == [t.orientation_swapped for t in triangles] == [False, True] * 1500


def test_stacked_validation_names_vertices_within_the_first_failing_triangle():
    v = np.array([SCALENE_VERTICES, (EX, EY, EY), SCALENE_VERTICES, (EX, EX, EZ)])
    with pytest.raises(DegenerateError, match="^vertices 1 and 2 coincide$"):
        _validate(v)


def test_stored_edge_frame_is_built_from_the_stored_vertices_exactly():
    # The constructions read edge_normals and d instead of recomputing them, so
    # each must be its stored edge's cross product and side parameter bit for
    # bit, signed zeros included: realize's canonical vertices hold exact zeros,
    # and after a swap b x a must not become -(a x b).
    realized = [realize(d) for d in sample_napoleonic_d(100, seed=28)]
    uniform = random_triangles(100, seed=29)
    entered = [t.vertices for t in realized + uniform]
    triangles = realized + [new_triangle(*v) for v in entered] + [new_triangle(*v[[0, 2, 1]]) for v in entered]
    assert [t.orientation_swapped for t in triangles] == [False] * 300 + [True] * 200
    for t in triangles:
        assert t.edge_normals.tobytes() == cross(*_opposite_edges(t.vertices)).tobytes()
        assert t.d.tobytes() == np.sqrt(1.0 + 2.0 * t.edge_inners).tobytes()
        for field in (t.edge_normals, t.d):
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 0.0


def test_swapped_input_gives_the_record_of_the_stored_order_exactly():
    # After a swap the frame is rebuilt from the stored vertices, so a record
    # must not depend on the order in which vertices 1 and 2 were entered; that
    # needs core.dot(a, b) to round exactly like core.dot(b, a).  A host whose
    # matmul breaks that symmetry fails here instead of changing outputs.
    v = np.array([t.vertices for t in random_triangles(500, seed=31)])
    stored, entered = _validate(v), _validate(v.take([0, 2, 1], axis=1))
    assert not stored[5].any() and entered[5].all()
    for a, b in zip(stored[:5], entered[:5]):
        assert a.tobytes() == b.tobytes()
    for row in v[:50]:
        a, b = new_triangle(*row), new_triangle(*row[[0, 2, 1]])
        for field in ("vertices", "edge_inners", "edge_normals", "d"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert a.chi == b.chi
    a, b = _opposite_edges(v)
    assert dot(a, b).tobytes() == dot(b, a).tobytes()


def _ungated_validate(v):
    """Reference: :func:`_validate`'s rules in their order, with the coincidence/antipodality
    test and the rounds-to-sqrt(3) test run on every input, and the swap as a gather."""
    v = unit_vector(v)
    a, b = _opposite_edges(v)
    _reject_degenerate(v, a, lambda i, how: f"vertices {i % 3} and {(i + 1) % 3} {how}")
    w = cross(a, b)
    t = dot(v[..., 0, :], w[..., 0, :])
    if _first(abs(t) <= DEGENERACY_TOL) is not None:
        raise CogeodesicError("vertices lie on a common great circle")
    c = dot(a, b)
    _reject_too_wide(c, lambda i, ci: f"edge opposite vertex {i % 3} has inner product {ci!r} <= -1/2")
    d = np.sqrt(1.0 + 2.0 * c)
    i = _first(d >= SQRT3)
    if i is not None:
        raise DegenerateError(f"vertices {(i + 1) % 3} and {(i + 2) % 3} coincide: d{i % 3} rounds to sqrt(3)")
    flip = np.asarray(t < 0.0)[..., None]
    v = np.where(flip[..., None], v.take([0, 2, 1], -2), v)
    c = np.where(flip, c.take([0, 2, 1], -1), c)
    d = np.where(flip, d.take([0, 2, 1], -1), d)
    return v, c, cross(*_opposite_edges(v)), d, abs(t), t < 0.0


def _outcome(validate, v):
    """The error kind and message *validate* raises for *v*, or the bytes of its record."""
    try:
        record = validate(v)
    except NapsphereError as exc:
        return exc.kind, str(exc)
    return tuple(np.asarray(field).tobytes() for field in record)


def _near_pairs():
    """Triples with one vertex pair 1e-12 to 1e-3 apart or that far from antipodal, at each
    position and in both orientations, rotated at random; and one pair 5e-9 apart, far
    enough for the coincidence test, whose side parameter rounds to sqrt(3)."""
    rng = np.random.default_rng(32)
    triples = []
    for sep in [10.0**-k for k in range(3, 13)] + [5e-9]:
        for sign in (1.0, -1.0) if sep != 5e-9 else (1.0,):
            rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            p, q = np.array([1.0, 0.0, 0.0]), sign * np.array([math.cos(sep), math.sin(sep), 0.0])
            r = np.array([0.2, -0.3, 1.0]) / math.sqrt(1.13)
            base = np.array([p, q, r]) @ rot.T
            for order in itertools.permutations(range(3)):
                triples.append(base[list(order)])
    return triples


def test_gate_changes_no_outcome_near_coincident_or_antipodal_pairs():
    # The exact tests run only where some |c| >= 1 - DEGENERACY_TOL; there and
    # everywhere else, every error and record must be the ungated reference's.
    triples = _near_pairs()
    outcomes = [_outcome(_ungated_validate, v) for v in triples]
    for v, expected in zip(triples, outcomes):
        assert _outcome(_validate, v) == expected
    assert {o[0] if isinstance(o[0], str) else "accepted" for o in outcomes} == {"Degenerate", "TooWide", "accepted"}
    assert any("rounds to sqrt(3)" in str(o[1]) for o in outcomes)
    # Stacks in which only one row is near: the gate opens for the whole stack.
    rows = np.array([t.vertices for t in random_triangles(9, seed=33)])
    for k, v in enumerate(triples):
        stack = rows.copy()
        stack[k % 9] = v
        assert _outcome(_validate, stack) == _outcome(_ungated_validate, stack)


@pytest.mark.parametrize("field", ["vertices", "edge_inners"])
def test_triangle_record_is_read_only(napoleonic_triangle, field):
    # edge_inners is stored, not recomputed: an in-place change to either
    # array would leave the two disagreeing.
    with pytest.raises(ValueError, match="read-only"):
        getattr(napoleonic_triangle, field)[0] = 0.0


class TestAlpha:
    def test_unit_sides(self):
        assert algebra.alpha(1.0, 1.0, 1.0) == 1.0

    def test_known_triangle(self):
        assert algebra.alpha(*NAPOLEONIC_D) == pytest.approx(3.0 / 50.0, abs=1e-15)

    def test_vanishes_on_unit_sphere_of_d(self):
        s = 1.0 / math.sqrt(3.0)
        assert algebra.alpha(s, s, s) == pytest.approx(0.0, abs=1e-15)


class TestChiSquared:
    def test_equilateral_value(self):
        s = 1.0 / math.sqrt(3.0)
        # (2*1*1 + 3/9 + 1/27) / 4 = 16/27
        assert algebra.chi_squared(s, s, s) == pytest.approx(16.0 / 27.0, abs=1e-15)
        t = new_triangle(*equilateral_vertices(-1.0 / 3.0))
        assert dot(t.vertices[0], cross(t.vertices[1], t.vertices[2])) ** 2 == pytest.approx(16.0 / 27.0, abs=1e-12)

    def test_matches_triple_product_on_random_triangles(self):
        for t in random_triangles(1000, seed=10):
            d = side_parameters(t)
            assert algebra.chi_squared(*d.as_tuple()) == pytest.approx(t.chi**2, abs=1e-10)

    def test_known_triangle_satisfies_double_chi_relation(self):
        d = SideParameters(*NAPOLEONIC_D)
        chi = math.sqrt(algebra.chi_squared(*d.as_tuple()))
        d0, d1, d2 = d.as_tuple()
        assert 2.0 * chi == pytest.approx(d0 + d1 + d2 - d0 * d1 * d2, abs=1e-12)


# The open-interval rule at each entry point that takes side parameters from outside.
RANGE_ENTRY_POINTS = {
    "realize": realize,
    "classify_d": classify_d,
    "centroid_inner_closed_form": lambda d: centroid_inner_closed_form(d, 0.5, OUTWARD, 0),
}
RANGE_INPUT_KINDS = {"list": list, "tuple": tuple, "array": np.array, "SideParameters": lambda d: SideParameters(*d)}
OUTSIDE = (0.0, -0.0, SQRT3, math.nan, math.inf, -math.inf, -1.0, 2.0)
ONE_ULP_INSIDE = (math.nextafter(0.0, 1.0), math.nextafter(SQRT3, 0.0))


@pytest.mark.parametrize("kind", RANGE_INPUT_KINDS)
@pytest.mark.parametrize("entry", RANGE_ENTRY_POINTS)
def test_range_rule_at_every_entry_point(entry, kind):
    call, make = RANGE_ENTRY_POINTS[entry], RANGE_INPUT_KINDS[kind]
    for i in range(3):
        for value in OUTSIDE:
            d = [0.9, 0.9, 0.9]
            d[i] = value
            message = f"d{i} = {value!r} outside the open interval (0, sqrt(3))"
            with pytest.raises(OutOfRangeError, match=f"^{re.escape(message)}$"):
                call(make(d))
        for value in ONE_ULP_INSIDE:
            d = [0.9, 0.9, 0.9]
            d[i] = value
            try:
                call(make(d))
            except OutOfRangeError:
                pytest.fail(f"{entry} rejected the in-range d{i} = {value!r}")
            except NapsphereError:  # realize may still find such a d too wide or unrealizable
                pass


def test_range_rule_names_the_first_failing_entry():
    with pytest.raises(OutOfRangeError, match=r"^d1 = nan "):
        classify_d([1.0, math.nan, 2.0])
    with pytest.raises(OutOfRangeError, match=r"^d0 = 2\.0 "):
        realize((2.0, math.nan, 0.0))


def test_range_rule_over_columns_matches_the_scalar_rule():
    d = np.array([[0.5, 1.0, 1.5], [0.5, SQRT3, 1.5], [0.5, 1.0, math.nan], [-0.0, 1.0, 1.0]])
    assert _in_range(d).all(axis=1).tolist() == [True, False, False, False]
    assert [_in_range(x) for x in d[0].tolist()] == [True, True, True]


@pytest.mark.parametrize("entry", RANGE_ENTRY_POINTS)
def test_count_rule_at_every_entry_point(entry):
    for n, make in itertools.product((0, 2, 4), (list, np.array)):
        with pytest.raises(ValueError, match=f"^expected three side parameters, got {n}$") as exc:
            RANGE_ENTRY_POINTS[entry](make([0.9] * n))
        assert type(exc.value) is ValueError


@pytest.mark.parametrize("entry", RANGE_ENTRY_POINTS)
def test_malformed_array_at_every_entry_point(entry):
    # An array is read with one ``tolist()``: a 0-d array, nested rows and complex entries are
    # TypeError, as the same values given as Python lists are.
    for bad in (np.array(0.9), np.full((1, 3), 0.9), np.full((3, 1), 0.9), np.array([0.9, 0.9, 0.9 + 0.1j])):
        with pytest.raises(TypeError):
            RANGE_ENTRY_POINTS[entry](bad)
        with pytest.raises(TypeError):
            RANGE_ENTRY_POINTS[entry](bad.tolist())


# A validated triangle for the entry points that take one, and the tolerances every entry point refuses.
_TOL_TRIANGLE = realize((1.0, 1.0, 1.0))
TOL_ENTRY_POINTS = {
    "classify": lambda tol: classify(_TOL_TRIANGLE, tol=tol),
    "classify_d": lambda tol: classify_d((1.0, 1.0, 1.0), tol=tol),
    "search_equilateral": lambda tol: search_equilateral(_TOL_TRIANGLE, tol),
}
BAD_TOLERANCES = (math.nan, -1.0, -math.inf)


@pytest.mark.parametrize("entry", TOL_ENTRY_POINTS)
def test_tolerance_rule_at_every_entry_point(entry):
    call = TOL_ENTRY_POINTS[entry]
    for tol in BAD_TOLERANCES:
        with pytest.raises(ValueError, match=f"^tol must be >= 0, got {re.escape(repr(tol))}$") as exc:
            call(tol)
        assert type(exc.value) is ValueError
    call(0.0)
    everything = call(math.inf)
    if entry == "search_equilateral":
        assert len(everything) == 8
    else:
        assert everything.verdict is Verdict.EQUILATERAL


def test_no_entry_point_error_names_a_private_function():
    bad_triples = ([], [0.9] * 2, [0.9] * 4, 0.9, [0.9, 0.9, None], [0.9, 0.9, "x"], [0.9, 0.9, 2.0])
    calls = [functools.partial(call, d) for call in RANGE_ENTRY_POINTS.values() for d in bad_triples]
    calls += [functools.partial(call, tol) for call in TOL_ENTRY_POINTS.values() for tol in BAD_TOLERANCES]
    for call in calls:
        with pytest.raises((TypeError, ValueError)) as exc:
            call()
        assert not re.search(r"\b_[A-Za-z]", str(exc.value)), str(exc.value)
