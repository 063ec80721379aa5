"""Quadric parametrization, seeded sampling, and triangle realization."""

import math

import numpy as np
import pytest

from napsphere import (
    OUTWARD,
    UnrealizableError,
    Verdict,
    classify,
    d_to_xyz,
    napoleonise,
    new_triangle,
    quadric_value,
    realize,
    sample_napoleonic_d,
    side_parameters,
)
from napsphere import algebra
from napsphere import ellipsoid
from napsphere.core import dot
from napsphere.ellipsoid import D_FLOOR, DIAGONAL_MARGIN, ROTATION, sample_napoleonic_d_with_attempts
from napsphere.errors import OutOfRangeError, SeedExhaustedError, TooWideError
from napsphere.triangle import SideParameters

from conftest import NAPOLEONIC_D


def _random_d(rng, n):
    out = []
    while len(out) < n:
        v = rng.uniform(1e-3, math.sqrt(3.0) - 1e-3, size=3)
        out.append(SideParameters(*v))
    return out


class TestRotation:
    def test_rows_orthonormal(self):
        assert np.allclose(ROTATION @ ROTATION.T, np.eye(3), atol=1e-15)

    def test_known_d_lands_on_quadric(self):
        p = d_to_xyz(NAPOLEONIC_D)
        assert quadric_value(p) == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_point_maps_to_axis(self):
        s = 1.0 / math.sqrt(3.0)
        x, y, z = d_to_xyz((s, s, s))
        assert x == pytest.approx(1.0, abs=1e-14)
        assert y == pytest.approx(0.0, abs=1e-14)
        assert z == pytest.approx(0.0, abs=1e-14)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(40)
        for d in _random_d(rng, 1000):
            back = ROTATION.T @ d_to_xyz(d.as_tuple())
            assert tuple(back) == pytest.approx(d.as_tuple(), abs=1e-12)

    def test_quadratic_form_equals_condition_value(self):
        rng = np.random.default_rng(41)
        for d in _random_d(rng, 200):
            assert quadric_value(d_to_xyz(d.as_tuple())) == pytest.approx(algebra.condition(*d.as_tuple()), abs=1e-12)


class TestSampler:
    def test_samples_lie_on_quadric(self):
        for d in sample_napoleonic_d(500, seed=42):
            assert quadric_value(d_to_xyz(d.as_tuple())) == pytest.approx(2.0, abs=1e-12)

    def test_samples_in_range_and_realizable(self):
        for d in sample_napoleonic_d(500, seed=43):
            assert all(0.0 < v < math.sqrt(3.0) for v in d.as_tuple())
            assert algebra.chi_squared(*d.as_tuple()) > 0.5  # the bound in _quadric_block's docstring
            arr = np.array(d.as_tuple())
            assert np.linalg.norm(arr - arr.mean()) >= 1e-6

    def test_deterministic_per_seed(self):
        a = sample_napoleonic_d(50, seed=7)
        b = sample_napoleonic_d(50, seed=7)
        assert [x.as_tuple() for x in a] == [y.as_tuple() for y in b]
        c = sample_napoleonic_d(50, seed=8)
        assert [x.as_tuple() for x in a] != [z.as_tuple() for z in c]

    def test_samples_classify_outward_napoleonic(self):
        for d in sample_napoleonic_d(200, seed=44):
            report = classify(realize(d))
            assert report.verdict in (Verdict.OUTWARD_NAPOLEONIC, Verdict.EQUILATERAL)
            # the diagonal margin keeps samples clear of the equilateral point
            assert report.verdict is Verdict.OUTWARD_NAPOLEONIC

    def test_acceptance_rate_and_measure(self):
        # P is the admissible share of the parametrization (sample_napoleonic_d_with_attempts);
        # a sample has equilateral_factor = 6 sin^2(theta), so a share sqrt(m/6) / (pi P) of the
        # samples has equilateral_factor < m.  Each count is binomial; the bound is 4 standard
        # deviations.
        P = 0.1322705
        samples = []
        for seed in (1, 2, 3):
            d, attempts = sample_napoleonic_d_with_attempts(100_000, seed)
            assert abs(len(d) - attempts * P) <= 4.0 * math.sqrt(attempts * P * (1.0 - P))
            samples.append(d)
        eqf = algebra.equilateral_factor(*np.concatenate(samples).T)
        n = len(eqf)
        for m in (1e-3, 1e-2):
            share = math.sqrt(m / 6.0) / (math.pi * P)
            assert abs(np.count_nonzero(eqf < m) - n * share) <= 4.0 * math.sqrt(n * share * (1.0 - share))

    def test_side_parameters_reach_the_floor(self):
        # Row 43 of this batch was d0 = 1.87e-8 without the floor: its realized
        # triangle came back with d0 = 1.05e-8 and classified NotNapoleonic.
        d, _ = sample_napoleonic_d_with_attempts(100, 305001684)
        assert d.min() >= 1e-6

    def test_points_at_the_floor_classify_outward_napoleonic(self):
        # Quadric points with d0 = D_FLOOR and d1, d2 >= D_FLOOR, through the
        # checks of the quadric-population benchmark workload.
        rng = np.random.default_rng(306)
        c = D_FLOOR
        top = math.sqrt(2.0 - 2.0 * c * c) - c  # d1 where d2 = D_FLOOR
        for d1 in rng.uniform(c, top, 400):
            b = d1 + c
            d2 = (-b + math.sqrt(b * b - 4.0 * (d1 * d1 + c * d1 + c * c - 2.0))) / 2.0
            t = realize((c, d1, d2))
            res = napoleonise(t, OUTWARD)
            assert res.equilateral_residual < 1e-9
            assert all(abs(rr + 1.0 / 3.0) <= 1e-9 for rr in res.centroid_inners)
            assert classify(t).verdict is Verdict.OUTWARD_NAPOLEONIC


def _reference_sampler(count, seed):
    """The sampler one draw at a time: samples, attempts, longest rejection run."""
    rng = np.random.default_rng(seed)
    out, attempts, run, longest = [], 0, 0, 0
    while len(out) < count:
        attempts += 1
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        p = [math.cos(theta), 2.0 * math.sin(theta) * math.cos(phi), 2.0 * math.sin(theta) * math.sin(phi)]
        d = ROTATION.T @ np.array(p)
        if np.all(d >= D_FLOOR) and np.all(d < math.sqrt(3.0)) and np.linalg.norm(d - float(d.mean())) >= DIAGONAL_MARGIN:
            sp = SideParameters(*map(float, d))
            # The sampler has no chi^2 test: it cannot fail on an admissible draw, which this one checks.
            if algebra.chi_squared(*sp.as_tuple()) > 1e-12:
                out.append(sp.as_tuple())
                run = 0
                continue
        run += 1
        longest = max(longest, run)
    return out, attempts, longest


class TestSamplerStream:
    # Block sampling must reproduce the one-draw-at-a-time stream exactly.
    # A host whose vectorised sin/cos round differently from libm fails here.
    @pytest.mark.parametrize("count", [1, 7, 100])
    def test_matches_reference_loop(self, count):
        for seed in range(50):
            expected, attempts, _ = _reference_sampler(count, seed)
            samples, got_attempts = sample_napoleonic_d_with_attempts(count, seed)
            assert samples.tolist() == [list(d) for d in expected]
            assert got_attempts == attempts

    @pytest.mark.parametrize("f, accepted", [(0.9, False), (1.1, True)])
    def test_diagonal_margin_boundary(self, f, accepted):
        # theta = asin(f * 1e-6 / 2) puts the point f * 1e-6 from the diagonal; the margin is
        # written out, not read from DIAGONAL_MARGIN, so a changed constant fails here
        _, ok = ellipsoid._quadric_block(np.array([[math.asin(f * 1e-6 / 2.0) / math.pi, 0.3]]))
        assert ok.tolist() == [accepted]

    @pytest.mark.parametrize(
        "u0, distance, accepted",
        [(1.591549430871888e-07, 1e-06, True), (1.5915494307678878e-07, 9.999999999125211e-07, False)],
    )
    def test_diagonal_margin_equality(self, u0, distance, accepted):
        # A draw whose rounded distance from the diagonal is exactly 1e-6 is
        # accepted. The distance is asserted first: a host whose sin/cos round
        # differently fails here instead of passing on another point.
        d, ok = ellipsoid._quadric_block(np.array([[u0, 0.5940539167324691]]))
        off = d - d.mean(axis=1, keepdims=True)
        assert np.sqrt(dot(off, off)).tolist() == [distance]
        assert ok.tolist() == [accepted]

    def test_exhausted_after_max_consecutive_rejections(self, monkeypatch):
        monkeypatch.setattr(ellipsoid, "_MAX_REJECTIONS", 50)
        monkeypatch.setattr(ellipsoid, "DIAGONAL_MARGIN", 10.0)
        with pytest.raises(SeedExhaustedError):
            sample_napoleonic_d_with_attempts(3, seed=0)

    def test_limit_counts_consecutive_rejections_across_blocks(self, monkeypatch):
        # With 7-draw blocks most rejection runs span a block boundary; a
        # limit above the stream's longest run passes, one equal to it raises.
        monkeypatch.setattr(ellipsoid, "_MAX_BLOCK", 7)
        expected, attempts, longest = _reference_sampler(300, seed=5)
        monkeypatch.setattr(ellipsoid, "_MAX_REJECTIONS", longest + 1)
        samples, got_attempts = sample_napoleonic_d_with_attempts(300, 5)
        assert samples.tolist() == [list(d) for d in expected]
        assert got_attempts == attempts
        monkeypatch.setattr(ellipsoid, "_MAX_REJECTIONS", longest)
        with pytest.raises(SeedExhaustedError):
            sample_napoleonic_d_with_attempts(300, 5)


def _stalled_block(n):
    """A ``_quadric_block`` that skips the trigonometry: every draw maps to one
    admissible point, and the mask rejects draws 0 ... n-1 of the stream."""
    seen = 0

    def block(u):
        nonlocal seen
        index = np.arange(seen, seen + len(u))
        seen += len(u)
        return np.broadcast_to(np.array(NAPOLEONIC_D), (len(u), 3)), index >= n

    return block


class TestSamplerStuckGuard:
    # The limit is written out, not read from _MAX_REJECTIONS, so a changed constant fails here.
    def test_one_rejection_short_of_the_limit_passes(self, monkeypatch):
        monkeypatch.setattr(ellipsoid, "_quadric_block", _stalled_block(999_999))
        samples, attempts = sample_napoleonic_d_with_attempts(3, seed=0)
        assert attempts == 1_000_002
        assert samples.tolist() == [list(NAPOLEONIC_D)] * 3

    def test_limit_raises(self, monkeypatch):
        monkeypatch.setattr(ellipsoid, "_quadric_block", _stalled_block(1_000_000))
        with pytest.raises(SeedExhaustedError, match=r"^1000000 consecutive rejections; sampler stuck$"):
            sample_napoleonic_d_with_attempts(3, seed=0)


class TestRealize:
    def test_known_d_reproduces_edge_inners(self):
        t = realize(SideParameters(*NAPOLEONIC_D))
        assert t.edge_inners[0] == pytest.approx(-23.0 / 50.0, abs=1e-14)
        assert t.edge_inners[1] == pytest.approx(-17.0 / 50.0, abs=1e-14)
        assert t.edge_inners[2] == pytest.approx(-7.0 / 50.0, abs=1e-14)
        assert t.chi > 0.0

    def test_equilateral_d(self):
        s = 1.0 / math.sqrt(3.0)
        t = realize(SideParameters(s, s, s))
        for i in range(3):
            assert t.edge_inners[i] == pytest.approx(-1.0 / 3.0, abs=1e-14)

    def test_canonical_placement(self):
        t = realize(SideParameters(*NAPOLEONIC_D))
        assert np.allclose(t.vertices[0], [1.0, 0.0, 0.0], atol=1e-15)
        assert t.vertices[1, 1] > 0.0 and t.vertices[1, 2] == pytest.approx(0.0, abs=1e-15)

    def test_round_trip_side_parameters(self):
        for d in sample_napoleonic_d(1000, seed=45):
            back = side_parameters(realize(d))
            assert back.as_tuple() == pytest.approx(d.as_tuple(), abs=1e-10)

    def test_realized_triangles_revalidate(self):
        for d in sample_napoleonic_d(200, seed=46):
            t = realize(d)
            t2 = new_triangle(*t.vertices)
            assert not t2.orientation_swapped
            assert t2.chi == pytest.approx(t.chi, abs=1e-12)
            assert t.chi == pytest.approx(dot(t.vertices[0], np.cross(t.vertices[1], t.vertices[2])), abs=1e-12)

    def test_congruent_napoleonisations_on_locus(self):
        for d in sample_napoleonic_d(300, seed=47):
            res = napoleonise(realize(d), OUTWARD)
            for rr in res.centroid_inners:
                assert rr == pytest.approx(-1.0 / 3.0, abs=1e-9)

    def test_unrealizable_rejected(self):
        # admissible box but negative squared triple product
        d = SideParameters(math.sqrt(2.0), math.sqrt(2.8), math.sqrt(0.4))
        assert algebra.chi_squared(*d.as_tuple()) < 0.0
        with pytest.raises(UnrealizableError):
            realize(d)

    def test_unrealizable_threshold(self):
        # Gram value 1.00009e-12 is realized, 7.99e-13 is not
        assert realize(SideParameters(math.sqrt(3.0 - 1e-12), 1.0, 1.0)).chi > 0.0
        with pytest.raises(UnrealizableError, match=r"squared triple 7\.99\d*e-13 <= 0"):
            realize(SideParameters(math.sqrt(3.0 - 8e-13), 1.0, 1.0))

    def test_tiny_side_parameter_is_too_wide(self):
        with pytest.raises(TooWideError) as exc:
            realize(SideParameters(1.0, 1e-9, 1.0))
        assert str(exc.value) == "edge opposite vertex 1 has inner product -0.5000000000000001 <= -1/2"
        assert realize(SideParameters(2e-8, 1.0, 1.0)).chi > 0.0

    def test_stacked_realize_reports_the_first_failing_row(self):
        d = np.array([NAPOLEONIC_D, (1.0, 1e-9, 1.0), NAPOLEONIC_D, (1e-9, 1.0, 1.0)])
        with pytest.raises(TooWideError) as exc:
            ellipsoid._realized(*d.T)
        assert str(exc.value) == "edge opposite vertex 1 has inner product -0.5000000000000001 <= -1/2"

    def test_stacked_realize_matches_one_row_at_a_time_exactly(self):
        rng = np.random.default_rng(49)
        ds = sample_napoleonic_d(2000, seed=50)
        ds += [
            d for d in map(SideParameters, *rng.uniform(1e-3, 1.73, size=(3, 4000)))
            if algebra.chi_squared(*d.as_tuple()) > 1e-9
        ]
        triangles = [realize(d) for d in ds]
        columns = np.array([d.as_tuple() for d in ds]).T
        vertices, edge_inners, edge_normals, d, chi, swapped = ellipsoid._realized(*columns)
        assert vertices.tobytes() == np.array([t.vertices for t in triangles]).tobytes()
        assert edge_inners.tobytes() == np.array([t.edge_inners for t in triangles]).tobytes()
        assert edge_normals.tobytes() == np.array([t.edge_normals for t in triangles]).tobytes()
        assert d.tobytes() == np.array([t.d for t in triangles]).tobytes()
        assert chi.tolist() == [t.chi for t in triangles]
        assert not swapped.any()

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRangeError, match=r"^d0 = 2\.0 outside the open interval \(0, sqrt\(3\)\)$"):
            realize(SideParameters(2.0, 1.0, 1.0))

    def test_random_realizable_d_round_trip(self):
        # The third-vertex formula is proved exactly in
        # test_algebra.py::TestSeparateFloatForms::test_third_vertex_formula.
        rng = np.random.default_rng(48)
        count = 0
        while count < 1000:
            v = rng.uniform(1e-3, math.sqrt(3.0) - 1e-3, size=3)
            d = SideParameters(*v)
            if algebra.chi_squared(*d.as_tuple()) <= 1e-12:
                continue
            count += 1
            t = realize(d)
            assert not t.orientation_swapped
            assert side_parameters(t).as_tuple() == pytest.approx(d.as_tuple(), abs=1e-9)
