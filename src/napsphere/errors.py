"""Exception hierarchy with machine-readable error kinds.

Every validation failure raised by this package carries a short ``kind``
string (e.g. ``"Degenerate"``, ``"TooWide"``) so front ends can report
errors without parsing messages.  The CLI maps any :class:`NapsphereError`
to exit code 2 and prints the kind verbatim.
"""

from __future__ import annotations


class NapsphereError(ValueError):
    """Base class for all validation errors raised by this package."""

    kind = "Error"


class DegenerateError(NapsphereError):
    """Two input points coincide or are antipodal."""

    kind = "Degenerate"


class TooWideError(NapsphereError):
    """An edge is too wide: inner product of its endpoints is <= -1/2."""

    kind = "TooWide"


class CogeodesicError(NapsphereError):
    """Three points lie on a common great circle (triple product ~ 0)."""

    kind = "Cogeodesic"


class ZeroSumError(NapsphereError):
    """Vertex sum is too close to zero for a barycentre to exist."""

    kind = "ZeroSum"


class UnrealizableError(NapsphereError):
    """Side parameters admit no spherical triangle (squared triple <= 0)."""

    kind = "Unrealizable"


class OutOfRangeError(NapsphereError):
    """A side parameter falls outside the open interval (0, sqrt(3))."""

    kind = "OutOfRange"


class SeedExhaustedError(NapsphereError):
    """Rejection sampling failed too many consecutive times."""

    kind = "SeedExhausted"

