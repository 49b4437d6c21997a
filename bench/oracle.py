"""Independent reference values for the benchmark, computed with mpmath.

Nothing here calls finhankel.  A closed-form term of a profile has the
finite Hankel transform

    int_0^1 s^lam (1-s^2)^(rho-1) J_nu(r s) ds
        = (r/2)^nu Gamma(rho) Gamma(a) / (2 Gamma(nu+1) Gamma(a+rho))
          * 1F2(a; nu+1, a+rho; -r^2/4),        a = (lam+nu+1)/2,

which follows from integrating the Bessel power series term by term; a
profile's value is the sum over its terms.  ``self_check`` compares the
closed form with direct tanh-sinh quadrature on small-r, mildly singular
cases, so the two routes vouch for each other.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

DPS = 30


def _mpc(z: complex):
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def term_transform(lam: complex, rho: complex, nu: float, r: float):
    """The closed form above for one term, as an mpmath complex."""
    lam, rho = _mpc(lam), _mpc(rho)
    nu, r = mp.mpf(nu), mp.mpf(r)
    a = (lam + nu + 1) / 2
    pre = (r / 2) ** nu * mp.gamma(rho) * mp.gamma(a) / (2 * mp.gamma(nu + 1) * mp.gamma(a + rho))
    return pre * mp.hyp1f2(a, nu + 1, a + rho, -r * r / 4)


def profile_transform(terms, nu: float, r: float) -> complex:
    """sum_i c_i * term_transform(lam_i, rho_i); ``terms`` holds (c, lam, rho)."""
    with mp.workdps(DPS):
        return complex(sum((_mpc(c) * term_transform(lam, rho, nu, r) for c, lam, rho in terms), mp.mpc(0)))


def transform_envelope(terms, nu: float, r: float) -> tuple[complex, float]:
    """(F(r), sqrt(|F(r)|^2 + |G(r)|^2)) for the profile's transform F.

    G is the companion transform with s^(lam+1) J_{nu+1}(r s) in place of
    s^lam J_nu(r s).  Near s = 1 the two kernels are a quarter period
    apart, as J_nu and J_{nu+1} are, so the envelope does not vanish where F
    does, and |F| / envelope tells a near-zero of F from a small F.
    """
    value = profile_transform(terms, nu, r)
    companion = profile_transform([(c, lam + 1, rho) for c, lam, rho in terms], nu + 1, r)
    return value, math.hypot(abs(value), abs(companion))


def _quad_transform(lam: float, rho: float, nu: float, r: float):
    f = lambda s: s ** lam * (1 - s * s) ** (rho - 1) * mp.besselj(nu, r * s)
    return mp.quad(f, [0, mp.mpf(1) / 2, 1])


# (lam, rho, nu, r): both endpoint exponents non-integer, r a few periods
SELF_CHECK_CASES = ((0.5, 2.5, 0.0, 3.0), (-0.3, 1.7, 0.5, 6.0), (1.25, 0.8, 1.0, 4.0))


def self_check(dps: int = 50) -> float:
    """Largest relative disagreement of closed form and quadrature."""
    worst = 0.0
    with mp.workdps(dps):
        for lam, rho, nu, r in SELF_CHECK_CASES:
            closed = term_transform(lam, rho, nu, r)
            direct = _quad_transform(mp.mpf(lam), mp.mpf(rho), mp.mpf(nu), mp.mpf(r))
            worst = max(worst, float(abs(closed - direct) / abs(direct)))
    return worst


def bessel_ref(nu: float, x: float):
    """(J_nu(x) as an mpmath number, sqrt(J_nu^2 + J_{nu+1}^2) as a float).

    The second value never vanishes (the zeros of J_nu and J_{nu+1}
    interlace), so it serves as the denominator of a relative error that
    Bessel zeros cannot blow up.
    """
    with mp.workdps(DPS):
        j0 = mp.besselj(nu, x)
        j1 = mp.besselj(nu + 1, x)
        return j0, float(mp.sqrt(j0 * j0 + j1 * j1))


def kernel_err(value, ref) -> float:
    """|value - ref| with ``value`` a numpy float of any width, taken at its
    full precision (an 80-bit result is not rounded to double first)."""
    with mp.workdps(DPS):
        return float(abs(mp.mpf(np.format_float_positional(value, unique=True)) - ref))


def rel_err(value: complex, ref: complex) -> float:
    return abs(complex(value) - ref) / abs(ref) if ref != 0 else math.inf
