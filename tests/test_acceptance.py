"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  All tolerances are pinned here, not configurable.

Criteria 4 and 5 are encoded exactly at their stated population margins
(equilateral_factor > 1e-3) and residual floor (1e-4).  Those two margins
are mutually inconsistent: both uniform-sign residuals decay continuously
to zero as a triangle approaches the equilateral family (empirically
~ 0.47 * equilateral_factor^(3/2), i.e. ~1.5e-5 at the 1e-3 margin), so any
honest seeded population that reaches the margin dips below the floor.  The
tests are kept faithful rather than weakened; see the companion regression
test in test_classify.py for the same statements at self-consistent margins.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from napsphere import (
    INWARD,
    OUTWARD,
    SignVector,
    barycentre,
    cross,
    dot,
    napoleonise,
    new_triangle,
    realize,
    sample_napoleonic_d,
    side_parameters,
    spherical_distance,
)
from napsphere import algebra
from napsphere.algebra import (
    verify_factorisation,
    verify_final_identity,
    verify_rotation_quadratic,
    verify_sum_of_squares,
)
from napsphere.cli import main as cli_main
from napsphere.errors import NapsphereError
from napsphere.triangle import SQRT3, SideParameters

from conftest import (
    NAPOLEONIC_APEXES,
    NAPOLEONIC_BARYCENTRE,
    NAPOLEONIC_NAPOLEON_BARYCENTRE,
    NAPOLEONIC_VERTICES,
    SCALENE_CENTROID_DISTANCES,
    SCALENE_VERTICES,
    random_triangles,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::napsphere.errors.BoundaryConditioningWarning"
)


def _criterion(number: int, label: str, limit_s: float, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {number} ({label}): FAIL  [{time.perf_counter() - start:.2f}s]")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({label}): PASS  [{elapsed:.2f}s]")
    assert elapsed < limit_s, f"criterion {number} exceeded its {limit_s}s budget"


def test_criterion_1_scalene_construction_values():
    def body():
        t = new_triangle(*SCALENE_VERTICES)
        res = napoleonise(t, OUTWARD)
        rs = res.centroids
        got = sorted(spherical_distance(rs[i], rs[(i + 1) % 3]) for i in range(3))
        expected = sorted(SCALENE_CENTROID_DISTANCES)
        assert got == pytest.approx(expected, abs=1e-5)

    _criterion(1, "scalene outward centroid distances", 1.0, body)


def test_criterion_2_known_napoleonic_triangle():
    def body():
        t = new_triangle(*NAPOLEONIC_VERTICES)
        res = napoleonise(t, OUTWARD)
        for got, expected in zip(res.apexes, NAPOLEONIC_APEXES):
            assert np.abs(got - expected).max() < 1e-12
        for rr in res.centroid_inners:
            assert abs(rr - (-1.0 / 3.0)) < 1e-12
        assert np.abs(barycentre(*t.vertices) - NAPOLEONIC_BARYCENTRE).max() < 1e-5
        assert np.abs(barycentre(*res.centroids) - NAPOLEONIC_NAPOLEON_BARYCENTRE).max() < 1e-5

    _criterion(2, "exact non-isosceles construction values", 1.0, body)


def test_criterion_3_forward_direction_on_quadric():
    def body():
        samples = sample_napoleonic_d(10000, seed=301)
        worst_residual = 0.0
        worst_rr = 0.0
        for d in samples:
            res = napoleonise(realize(d), OUTWARD)
            worst_residual = max(worst_residual, res.equilateral_residual)
            for rr in res.centroid_inners:
                worst_rr = max(worst_rr, abs(rr - (-1.0 / 3.0)))
        assert worst_residual < 1e-9, f"max equilateral residual {worst_residual:.3e}"
        assert worst_rr < 1e-9, f"max |rr + 1/3| = {worst_rr:.3e}"

    _criterion(3, "10^4 quadric samples all outward-equilateral", 30.0, body)


def test_criterion_4_reverse_direction_population():
    def body():
        rng = np.random.default_rng(401)
        kept = 0
        violations = []
        min_out = min_in = math.inf
        while kept < 10000:
            v = rng.normal(size=(3, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            try:
                t = new_triangle(v[0], v[1], v[2])
            except NapsphereError:
                continue
            d = side_parameters(t)
            if algebra.equilateral_factor(*d.as_tuple()) <= 1e-3:
                continue
            if abs(algebra.condition(*d.as_tuple()) - 2.0) <= 1e-3:
                continue
            kept += 1
            r_out = napoleonise(t, OUTWARD).equilateral_residual
            r_in = napoleonise(t, INWARD).equilateral_residual
            min_out = min(min_out, r_out)
            min_in = min(min_in, r_in)
            if r_out <= 1e-4 or r_in <= 1e-4:
                violations.append(
                    (r_out, r_in, algebra.equilateral_factor(*d.as_tuple()), algebra.condition(*d.as_tuple()) - 2.0)
                )
        assert not violations, (
            f"{len(violations)} of 10000 triangles dipped below the 1e-4 floor "
            f"(min outward {min_out:.3e}, min inward {min_in:.3e}); "
            f"worst cases (r_out, r_in, eq_factor, cond_res): {violations[:3]}"
        )

    _criterion(4, "10^4 off-quadric triangles keep residuals > 1e-4", 60.0, body)


def test_criterion_5_inward_impossibility_near_quadric():
    def body():
        base = sample_napoleonic_d(4000, seed=501)
        rng = np.random.default_rng(502)
        kept = 0
        violations = []
        min_in = math.inf
        for d in base:
            if kept >= 1000:
                break
            # push the point off the quadric by a distance log-uniform in
            # [1e-4, 1e-2], in a random direction
            delta = 10.0 ** rng.uniform(-4.0, -2.0)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            moved = np.array(d.as_tuple()) + delta * direction
            if not np.all((moved > 0.0) & (moved < SQRT3)):
                continue
            nd = SideParameters(*moved)
            if algebra.equilateral_factor(*nd.as_tuple()) <= 1e-3:  # criterion-4 population margin
                continue
            if algebra.chi_squared(*nd.as_tuple()) <= 1e-12:
                continue
            kept += 1
            r_in = napoleonise(realize(nd), INWARD).equilateral_residual
            min_in = min(min_in, r_in)
            if r_in < 1e-4:
                violations.append(
                    (r_in, algebra.equilateral_factor(*nd.as_tuple()), algebra.condition(*nd.as_tuple()) - 2.0, delta)
                )
        assert kept == 1000
        assert not violations, (
            f"{len(violations)} of 1000 near-quadric triangles have inward residual "
            f"< 1e-4 (minimum {min_in:.3e}); "
            f"worst cases (r_in, eq_factor, cond_res, delta): {violations[:3]}"
        )

    _criterion(5, "inward residual floor survives near the quadric", 60.0, body)


def test_criterion_6_closed_form_consistency():
    def body():
        all_signs = [SignVector(*e) for e in itertools.product((-1, 1), repeat=3)]
        worst_rr = 0.0
        worst_chi = 0.0
        from napsphere import centroid_inner_closed_form

        for t in random_triangles(1000, seed=601):
            d = side_parameters(t)
            chi2 = algebra.chi_squared(*d.as_tuple())
            worst_chi = max(worst_chi, abs(chi2 - dot(t.vertices[0], cross(t.vertices[1], t.vertices[2])) ** 2))
            chi = math.sqrt(chi2)
            for s in all_signs:
                res = napoleonise(t, s)
                direct = {0: res.rr20, 1: res.rr01, 2: res.rr12}
                for i in range(3):
                    cf = centroid_inner_closed_form(d, chi, s, i)
                    worst_rr = max(worst_rr, abs(cf - direct[i]))
        assert worst_rr < 1e-10, f"max closed-form mismatch {worst_rr:.3e}"
        assert worst_chi < 1e-10, f"max squared-triple mismatch {worst_chi:.3e}"

    _criterion(6, "closed form matches construction for all 8 signs", 60.0, body)


def test_criterion_7_exact_identities():
    def body():
        checks = [
            verify_factorisation(),
            verify_sum_of_squares(),
            verify_final_identity(0),
            verify_final_identity(1),
            verify_final_identity(2),
            verify_rotation_quadratic(),
        ]
        for check in checks:
            assert check, f"{check.name}: difference {check.difference!r}"

    _criterion(7, "exact rational identities", 1.0, body)


def test_criterion_8_degenerate_handling(tmp_path, capsys):
    def body():
        cases = {
            "Cogeodesic": [
                [1.0, 0.0, 0.0],
                [-0.5, math.sqrt(3.0) / 2.0, 0.0],
                [-0.5, -math.sqrt(3.0) / 2.0, 0.0],
            ],
            "Degenerate": [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
            "TooWide": [[1.0, 0.0, 0.0], [-0.5, math.sqrt(3.0) / 2.0, 0.0], [0.0, 0.0, 1.0]],
        }
        for expected_kind, vertices in cases.items():
            path = tmp_path / f"{expected_kind}.json"
            path.write_text(json.dumps({"vertices": vertices}))
            code = cli_main(["napoleonise", str(path), "--signs", "out"])
            out = capsys.readouterr().out
            assert code == 2, f"{expected_kind}: expected exit 2, got {code}"
            doc = json.loads(out)
            assert doc["error"]["kind"] == expected_kind
            assert "nan" not in out.lower()

    _criterion(8, "degenerate inputs produce typed errors", 10.0, body)
