"""Three-way classification of spherical triangles by side parameters.

A triangle with side parameters d = (d0, d1, d2) is

* ``Equilateral``        when d0 = d1 = d2 (within tolerance); such triangles
  have equilateral outward *and* inward Napoleonisations,
* ``OutwardNapoleonic``  when it is not equilateral and d lies on the quadric

      d0^2 + d1^2 + d2^2 + d0 d1 + d0 d2 + d1 d2 = 2,

  in which case the outward Napoleonisation is equilateral with all centroid
  inner products equal to -1/3 (side pi - arccos(1/3)),
* ``NotNapoleonic``      otherwise; neither uniform-sign construction is
  equilateral, and no non-equilateral triangle is ever inward-Napoleonic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import algebra
from .triangle import SideParameters, SphericalTriangle, _check_sign, side_parameters

__all__ = [
    "CLASSIFY_TOL",
    "Verdict",
    "ClassificationReport",
    "napoleonic_equation_residual",
    "classify",
    "classify_d",
]

# Default tolerance on the condition residual and the equilateral factor:
# inputs are unit vectors known to ~1e-12 and both quantities are quadratic
# in the side parameters.
CLASSIFY_TOL = 1e-9


class Verdict(enum.Enum):
    EQUILATERAL = "Equilateral"
    OUTWARD_NAPOLEONIC = "OutwardNapoleonic"
    NOT_NAPOLEONIC = "NotNapoleonic"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ClassificationReport:
    """Classification of one triangle with its residual diagnostics.

    ``predicted_rr`` (= -1/3) and ``epsilon_sign`` (= -1) are populated only
    for the ``OutwardNapoleonic`` verdict.  ``note`` carries the reminder
    that equilateral triangles are both outward- and inward-Napoleonic.
    """

    d: SideParameters
    alpha: float
    chi: float
    gamma: float
    condition_value: float
    condition_residual: float
    equilateral_factor: float
    verdict: Verdict
    predicted_rr: float | None = None
    epsilon_sign: int | None = None
    note: str | None = None

    @property
    def predicted_side(self) -> float | None:
        """Arc length of the predicted equilateral Napoleonisation's sides."""
        if self.predicted_rr is None:
            return None
        return math.acos(self.predicted_rr)


def napoleonic_equation_residual(d: SideParameters, chi: float, eps: int) -> float:
    """alpha (d0+d1+d2 - d0 d1 d2) + eps chi (1 - d0 d1 - d1 d2 - d2 d0).

    Vanishes exactly when the uniform-sign Napoleonisation with sign *eps*
    is equilateral (for non-equilateral d).  ``chi`` must be the positive
    square root of :func:`napsphere.algebra.chi_squared` of *d*.
    """
    _check_sign(eps)
    dv = d.as_tuple()
    return algebra.alpha(*dv) * algebra.sum_minus_product(*dv) + eps * chi * algebra.one_minus_pairs(*dv)


def classify_d(d: SideParameters, tol: float = CLASSIFY_TOL) -> ClassificationReport:
    """Classify side parameters directly (see :func:`classify`).

    The report's diagnostics are the polynomials of :mod:`napsphere.algebra`
    at *d*; ``condition_residual`` is ``condition - 2``.  Triangle-derived
    side parameters always have a positive squared triple product; for raw
    unrealizable inputs the reported ``chi`` falls back to 0 (the verdict is
    then necessarily NotNapoleonic, since every point of the quadric is
    realizable).
    """
    dv = d.as_tuple()
    chi2 = algebra.chi_squared(*dv)
    cval = algebra.condition(*dv)
    cres = cval - 2.0
    eqf = algebra.equilateral_factor(*dv)

    verdict = Verdict.NOT_NAPOLEONIC
    predicted_rr = None
    epsilon_sign = None
    note = None
    # The equilateral verdict takes precedence: the symmetric point of the
    # quadric is equilateral, not a witness of the non-equilateral class.
    if eqf < tol:
        verdict = Verdict.EQUILATERAL
        note = "equilateral triangles are both outward- and inward-Napoleonic"
    elif abs(cres) < tol:
        verdict = Verdict.OUTWARD_NAPOLEONIC
        predicted_rr = -1.0 / 3.0
        epsilon_sign = -1

    return ClassificationReport(
        d=d,
        alpha=algebra.alpha(*dv),
        chi=math.sqrt(chi2) if chi2 > 0.0 else 0.0,
        gamma=algebra.gamma(*dv),
        condition_value=cval,
        condition_residual=cres,
        equilateral_factor=eqf,
        verdict=verdict,
        predicted_rr=predicted_rr,
        epsilon_sign=epsilon_sign,
        note=note,
    )


def classify(t: SphericalTriangle, tol: float = CLASSIFY_TOL) -> ClassificationReport:
    """Classify a triangle as Equilateral / OutwardNapoleonic / NotNapoleonic.

    An inward-Napoleonic verdict is never reported for non-equilateral
    triangles; for equilateral ones it is implied by the verdict itself.
    """
    return classify_d(side_parameters(t), tol=tol)
