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

:func:`classify_d` checks a triple from outside once; :func:`classify` reads a
validated triangle's ``d`` and checks nothing again.  Both check the tolerance:
NaN or a negative value is ``ValueError``; the default, ``CLASSIFY_TOL``, is
defined in the import-free :mod:`napsphere.polynomials`, where the CLI reads it.

The module is named for its verdict, not for :func:`classify`: importing a
submodule binds it on the package, and a submodule named ``classify`` would
replace the function ``napsphere.classify``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import polynomials
from .core import _record
from .polynomials import CLASSIFY_TOL
from .triangle import SideParameters, SphericalTriangle, _check_tol, _checked


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


def classify_d(d, tol: float = CLASSIFY_TOL) -> ClassificationReport:
    """Classify side parameters directly (see :func:`classify`).

    *d* is any three numbers (another count is ``ValueError``);
    :class:`OutOfRangeError` names the first outside (0, sqrt(3)).  The report's
    diagnostics are the polynomials of :mod:`napsphere.polynomials` at *d*;
    ``condition_residual`` is ``condition - 2``.
    Triangle-derived side parameters always have a positive squared triple
    product; for raw unrealizable inputs the reported ``chi`` falls back to 0
    (the verdict is then necessarily NotNapoleonic, since every point of the
    quadric is realizable).
    """
    return _report(*_checked(d), tol=_check_tol(tol))


def _report(*dv: float, tol: float) -> ClassificationReport:
    """:func:`classify_d` of three in-range Python floats."""
    chi2 = polynomials.chi_squared(*dv)
    cval = polynomials.condition(*dv)
    cres = cval - 2.0
    eqf = polynomials.equilateral_factor(*dv)

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

    return _record(
        ClassificationReport, SideParameters(*dv), polynomials.alpha(*dv),
        math.sqrt(chi2) if chi2 > 0.0 else 0.0, polynomials.gamma(*dv),
        cval, cres, eqf, verdict, predicted_rr, epsilon_sign, note,
    )


def classify(t: SphericalTriangle, tol: float = CLASSIFY_TOL) -> ClassificationReport:
    """Classify a triangle as Equilateral / OutwardNapoleonic / NotNapoleonic.

    An inward-Napoleonic verdict is never reported for non-equilateral
    triangles; for equilateral ones it is implied by the verdict itself.
    """
    return _report(*t.d.tolist(), tol=_check_tol(tol))
