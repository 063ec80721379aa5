"""The polynomials behind the classification, each defined once.

alpha, chi^2, gamma, the condition value, the equilateral factor and the
centroid inner-product bracket are written with ring operations and integer
constants only, so one body serves every ring it is called on.  The float
path (classifier, sampler, closed forms) calls them on floats and NumPy
arrays and relies on the evaluation order written here; the exact checks of
:mod:`napsphere.algebra` call them on its ``RationalPolynomial`` and so prove
the identities for the expressions the classifier evaluates.

This module imports nothing: the NumPy subcommands of the CLI read it
without loading the exact ring, and the CLI's parser reads ``CLASSIFY_TOL``
before any subcommand runs.
"""


def alpha(d0, d1, d2):
    """(d0^2 + d1^2 + d2^2 - 1) / 2, i.e. 1 + the sum of the edge inner products."""
    return (d0 * d0 + d1 * d1 + d2 * d2 - 1) / 2


def chi_squared(d0, d1, d2):
    """Squared triple product of any triangle realising d:
    [2(1-a)(1+2a) + d0^2 d1^2 + d1^2 d2^2 + d2^2 d0^2 + d0^2 d1^2 d2^2] / 4
    with a = alpha.  Negative when no spherical triangle realises d."""
    a = alpha(d0, d1, d2)
    s0, s1, s2 = d0 * d0, d1 * d1, d2 * d2
    return (2 * (1 - a) * (1 + 2 * a) + s0 * s1 + s1 * s2 + s2 * s0 + s0 * s1 * s2) / 4


def gamma(d0, d1, d2):
    """3 (d0^2 + 1)(d1^2 + 1)(d2^2 + 1)."""
    return 3 * (d0 * d0 + 1) * (d1 * d1 + 1) * (d2 * d2 + 1)


def condition(d0, d1, d2):
    """d0^2 + d1^2 + d2^2 + d0 d1 + d0 d2 + d1 d2; equals 2 on the Napoleonic quadric."""
    return d0 * d0 + d1 * d1 + d2 * d2 + d0 * d1 + d0 * d2 + d1 * d2


def equilateral_factor(d0, d1, d2):
    """d0^2 + d1^2 + d2^2 - d0 d1 - d1 d2 - d2 d0: half the sum of the squared
    pairwise differences, so >= 0 and zero exactly at equilateral d."""
    return d0 * d0 + d1 * d1 + d2 * d2 - d0 * d1 - d1 * d2 - d2 * d0


# Default tolerance on the condition residual (condition - 2) and the
# equilateral factor: inputs are unit vectors known to ~1e-12 and both
# quantities are quadratic in the side parameters.  It lives in this
# NumPy-free module because the CLI's parser reads it before any subcommand runs.
CLASSIFY_TOL = 1e-9


def sum_minus_product(d0, d1, d2):
    """d0 + d1 + d2 - d0 d1 d2; twice chi on the Napoleonic quadric.

    Positive for every d in (0, sqrt(3))^3: with m = (d0 + d1 + d2)/3 < sqrt(3),
    AM-GM gives d0 d1 d2 <= m^3 < 3 m = d0 + d1 + d2.
    """
    return d0 + d1 + d2 - d0 * d1 * d2


def one_minus_pairs(d0, d1, d2):
    """1 - d0 d1 - d1 d2 - d2 d0."""
    return 1 - d0 * d1 - d1 * d2 - d2 * d0


def centroid_bracket(d, chi, e, i: int):
    """Bracket B of the centroid inner product <R_{i+2}, R_i> = (d_{i+1}^2 + 1) B / gamma:

        B = 4 (alpha d_{i+2} d_i + chi (e_i d_{i+2} + e_{i+2} d_i))
            + e_{i+2} e_i ((d_{i+2}^2 - 1)(d_i^2 - 1) - 2 (d_{i+1}^2 - 1))

    for side parameters *d*, triple product *chi* and signs *e* (each e_j = +-1,
    in the same vertex order as *d*).
    """
    di, dj, dk = d[i % 3], d[(i + 1) % 3], d[(i + 2) % 3]
    ei, ek = e[i % 3], e[(i + 2) % 3]
    return 4 * (alpha(*d) * dk * di + chi * (ei * dk + ek * di)) + ek * ei * (
        (dk * dk - 1) * (di * di - 1) - 2 * (dj * dj - 1)
    )
