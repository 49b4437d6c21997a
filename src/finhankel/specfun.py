"""Self-contained special functions: Bessel J of real order and the complex
Gamma function together with its entire reciprocal.

No external special-function library is used; everything here is built from
power series, large-argument cosine/sine expansions and a fixed-coefficient
rational (Lanczos-type) approximation.  Accuracy envelope, verified by the
test suite against an independent high-precision oracle:

* ``bessel_j``         error <= 1e-15 of the envelope sqrt(J_nu^2 + J_nu+1^2)
                       for order nu in (-1, 29] and argument x in [0, 1e4],
                       so relative error <= 2e-14 where |J_nu| is at least
                       0.05 of that envelope
* ``gamma``            relative error <= 1e-12 for |z| <= 50 at distance
                       > 1e-3 from the poles
* ``reciprocal_gamma`` entire, with *exact* zeros at 0, -1, -2, ...

The Bessel evaluators expose vectorised variants used by the quadrature
module, in 80-bit extended or in double precision, with one structure in
both.  The ascending series runs only up to x = 2 (``_SERIES_TOP``), where
its terms stay below 1 and cannot cancel.  From there Miller's backward
recurrence, normalised by the Neumann sum for (x/2)^nu (Gautschi, SIAM
Rev. 9 (1967); DLMF 10.74(iv)), runs up to the point where the
large-argument expansion's first omitted term is below the precision's
rounding (``_expansion_start``: about 24 in double and 29 in extended
precision for nu = 0, 38 and 47 for nu = 14, 256 and 318 for nu = 29), and
the expansion takes over above it.  At nu = 1/2 and 3/2 the expansion
terminates and holds from x = 2 on.  Each element's value depends on its
own x only, so a batch of arguments returns what each would alone.
``hankel_scaled_grid`` sums the same large-argument expansion at complex
argument for the exponentially scaled Hankel functions, with a bound on
its truncation and rounding error.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import DomainError, PoleError

_LD = np.longdouble
_PI_LD = np.longdouble("3.14159265358979323846264338327950288")

# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_SQRT_TWO_PI = 2.5066282746310005024157652848110


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def _sinpi(z: complex) -> complex:
    """sin(pi*z) with argument reduction done on the real part.

    Returns an exact zero for real integer ``z``; a plain ``sin(pi*z)``
    would leave an O(ulp) residue there, which would leak into the
    reciprocal-gamma zeros.
    """
    n = math.floor(z.real)
    f = z.real - n  # exact
    if f > 0.5:
        f -= 1.0
        n += 1
    sign = -1.0 if n % 2 else 1.0
    if z.imag == 0.0:
        return complex(sign * math.sin(math.pi * f), 0.0)
    re = math.sin(math.pi * f) * math.cosh(math.pi * z.imag)
    im = math.cos(math.pi * f) * math.sinh(math.pi * z.imag)
    return complex(sign * re, sign * im)


def _lanczos(z: complex) -> complex:
    """Gamma via the Lanczos sum; requires Re(z) >= 0.5."""
    w = z - 1.0
    acc = complex(_LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (w + 0.5) * cmath.exp(-t) * acc


def gamma(z: complex) -> complex:
    """Gamma function on the complex plane.

    Raises :class:`PoleError` at the poles 0, -1, -2, ...
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("gamma requires finite arguments")
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z.real:g}")
    if z.real < 0.5:
        # reflection; 1-z has real part >= 0.5
        return math.pi / (_sinpi(z) * _lanczos(1.0 - z))
    return _lanczos(z)


def reciprocal_gamma(z: complex) -> complex:
    """1/Gamma(z), an entire function.

    Exactly zero at the nonpositive integers: below the reflection line the
    value is computed as sin(pi*z) * Gamma(1-z) / pi, and ``_sinpi`` returns
    an exact zero there, so no residual of order ulp survives.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("reciprocal_gamma requires finite arguments")
    if _is_nonpositive_integer(z):
        return 0j
    if z.real < 0.5:
        return _sinpi(z) * _lanczos(1.0 - z) / math.pi
    return 1.0 / _lanczos(z)


def _lanczos_ld(z, log: bool = False):
    """Gamma(z), or log Gamma(z) if ``log``, by the Lanczos sum in the
    precision of z, long double or complex long double; requires
    Re z >= 0.5."""
    w = z - 1
    acc = _LD(_LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        acc += _LD(_LANCZOS_C[k]) / (w + k)
    t = w + _LD(_LANCZOS_G) + _LD(0.5)
    if log:
        return np.log(np.sqrt(2 * _PI_LD)) + (w + _LD(0.5)) * np.log(t) - t + np.log(acc)
    return np.sqrt(2 * _PI_LD) * t ** (w + _LD(0.5)) * np.exp(-t) * acc


@lru_cache(maxsize=256)
def _gamma_real_ld(x: float) -> np.longdouble:
    """Gamma for real x > 0 as a long double, cached: the contour path's
    edge legs take it on every call.

    Used to seed Bessel series prefactors and for the edge legs' factor
    Gamma(rho), which overflows double from rho ~ 171; the Lanczos sum is
    evaluated in extended precision so the seed error stays near 1 ulp of
    double precision and enters the series as a uniform scale factor.
    Below x = 0.5, where the sum does not hold, it is Gamma(x + 1) / x,
    with x + 1 formed in long double: against 40-digit mpmath, 6.0e-17 to
    7.2e-17 relative for x from 0.001 to 0.3.
    """
    z = _LD(x)
    return _lanczos_ld(z + 1) / z if x < 0.5 else _lanczos_ld(z)


@lru_cache(maxsize=256)
def _log_gamma_ld(z: complex) -> np.clongdouble:
    """log Gamma(z) for complex z, Re z > 0, as a complex long double, up to
    a multiple of 2 pi i, cached: log Gamma(z + 1) - log z, from the
    Lanczos sum in log space, so that Gamma itself never overflows.  The
    edge legs take it for a complex rho on every call."""
    z = np.clongdouble(z)
    return _lanczos_ld(z + 1, log=True) - np.log(z)


# the ascending series runs up to here, where no term exceeds 1 and so it
# cannot cancel
_SERIES_TOP = 2.0
# terms of the ascending series after the first: at x = _SERIES_TOP the
# 16th is below 1e-22 of the sum for every order above -1
_SERIES_TERMS = 16


def _bessel_series(nu: float, x: np.ndarray, scaled: bool, longdouble: bool) -> np.ndarray:
    """Ascending power series on 0 <= x <= _SERIES_TOP; extended precision
    when ``longdouble``.

    ``scaled`` computes J_nu(x)/x^nu (finite at x=0) instead of J_nu(x).
    A fixed number of terms serves every x in range, so each element's
    value depends on its own x only.  At x <= 2 the sum does not cancel,
    so it needs no compensation.
    """
    dt = _LD if longdouble else np.float64
    x = np.asarray(x, dtype=dt)
    half = x / 2
    q = half * half
    if scaled:
        t = np.full_like(x, dt(2.0) ** dt(-nu) / dt(_gamma_real_ld(nu + 1.0)))
    else:
        with np.errstate(divide="ignore"):
            t = half ** dt(nu) / dt(_gamma_real_ld(nu + 1.0))
        if nu == 0.0:
            t = np.where(x == 0, dt(1.0), t)
    acc = t.copy()
    minus_q = -q
    k = np.arange(1, _SERIES_TERMS + 1, dtype=dt)
    for den in k * (k + dt(nu)):
        t = t * minus_q / den
        acc = acc + t
    return acc


# size of the last term a double-precision sum of the large-argument
# expansion takes, and of its first omitted term from the expansion start on:
# about a tenth of an ulp.  At nu = 0 that is 10 terms at x = 100 and 6 at
# x = 1000, where extended precision's 1e-21 takes 13 and 8
_DOUBLE_FLOOR = 1e-17


def _asym_terms(nu: float, zmin: float, at_least: int = 0, floor: float = 1e-21) -> tuple[int, float]:
    """Number of correction terms of the large-argument expansion to use at
    |z| >= zmin, and |a_l(nu)| / zmin^l for the first term l left out.

    Terms are taken until they reach ``floor`` (but at least ``at_least``
    of them) or start growing, capped at 20 for the cosine and sine series
    together.  The default floor serves extended precision; a double sum
    needs only ``_DOUBLE_FLOOR``.
    """
    fournu2 = 4.0 * nu * nu

    def ratio(k: int) -> float:
        return abs(fournu2 - (2 * k - 1) ** 2) / (8 * k * zmin)

    mag = 1.0  # |a_k| / zmin^k, the size of the last term taken
    shrinking = False
    for k in range(1, 21):
        rk = ratio(k)
        if shrinking and rk >= 1.0:
            return k - 1, mag * rk  # divergent tail reached
        shrinking = shrinking or rk < 1.0
        mag *= rk
        if mag < floor and k >= at_least:
            return k, mag * ratio(k + 1)
    return 20, mag * ratio(21)


def _asym_pq(nu: float, inv_z: np.ndarray, count: int, dt):
    """P and Q sums of DLMF 10.17.3 with ``count`` correction terms at 1/z.

    ``dt`` is the real type the coefficients are formed in; ``inv_z`` may
    be real or complex.
    """
    fournu2 = 4.0 * nu * nu
    p = np.ones_like(inv_z)
    qs = np.zeros_like(inv_z)
    u = np.ones_like(inv_z)  # u_k = a_k / z^k
    for k in range(1, count + 1):
        np.multiply(u, dt(fournu2 - (2 * k - 1) ** 2) / dt(8 * k), out=u)
        np.multiply(u, inv_z, out=u)
        target = qs if k % 2 else p  # odd terms feed the sine series
        if (k // 2) % 2 == 0:
            np.add(target, u, out=target)
        else:
            np.subtract(target, u, out=target)
    return p, qs


def _bessel_asym(nu: float, x: np.ndarray, longdouble: bool, zmin: float) -> np.ndarray:
    """Large-argument cosine/sine expansion at x >= zmin, with the terms
    ``_asym_terms`` takes at zmin, down to ``_DOUBLE_FLOOR`` in double."""
    dt = _LD if longdouble else np.float64
    pi = _PI_LD if longdouble else np.pi
    x = np.asarray(x, dtype=dt)
    count, _ = _asym_terms(nu, zmin) if longdouble else _asym_terms(nu, zmin, floor=_DOUBLE_FLOOR)
    p, qs = _asym_pq(nu, 1.0 / x, count, dt)
    shift = (dt(0.5 * nu) + dt(0.25)) * pi
    omega = x - shift
    # two-sum residue of the subtraction, applied to the phase to first order
    bb = omega - x
    low = (x - (omega - bb)) + (-shift - bb)
    env = np.sqrt(dt(2.0) / (pi * x))
    cw = np.cos(omega)
    sw = np.sin(omega)
    return env * ((cw - low * sw) * p - (sw + low * cw) * qs)


def _hankel_truncation(nu: float, zmin: float) -> tuple[int, float]:
    """The number of terms ``hankel_scaled_grid`` sums at |z| >= zmin, and
    the bound on its relative truncation error there: DLMF 10.17.14-15,
    twice the first omitted term times exp(|nu^2 - 1/4| / |z|).  It holds
    for real nu in the closed quarter plane where H1 decays (Re z > 0 and
    Im z >= 0), and so for H2 at conj(z), when the series keeps at least
    nu - 1/2 terms, which it does up to nu = 20.5; the bound is infinite
    beyond."""
    count, omitted = _asym_terms(nu, zmin, math.ceil(nu - 0.5))
    if count < nu - 0.5:
        return count, math.inf
    return count, 2.0 * omitted * math.exp(abs(nu * nu - 0.25) / zmin)


def hankel_scaled_grid(nu: float, z: np.ndarray):
    """Exponentially scaled Hankel functions of the first kind from the same
    expansion.

    Returns ``(h, bound)``: h = e^(-iz) H1_nu(z) in complex double, and a
    bound on its relative error: the truncation bound of
    ``_hankel_truncation`` plus the rounding of the sum, (count + 4) eps
    times sum_k |a_k(nu)| / zmin^k over the count terms taken (k = 0
    included), zmin the smallest |z|; the 4 covers the prefactor's product.
    At nu = 20.5 and |z| = 16 the series terminates and its terms reach
    1.8e4, so the rounding is all of the bound.  Meant for |z| >= 16.  For
    real nu, e^(iz) H2_nu(z) is the conjugate of h at conj(z) (DLMF 10.11.9).
    """
    nu = float(nu)
    z = np.asarray(z, dtype=np.complex128)
    zmin = float(np.min(np.abs(z)))
    count, bound = _hankel_truncation(nu, zmin)
    fournu2 = 4.0 * nu * nu
    terms = accumulate((abs(fournu2 - (2 * k - 1) ** 2) / (8 * k * zmin) for k in range(1, count + 1)),
                       lambda a, b: a * b)
    bound += (count + 4) * np.finfo(np.float64).eps * (1.0 + sum(terms))
    p, qs = _asym_pq(nu, 1.0 / z, count, np.float64)
    rot = np.exp(-1j * (0.5 * nu + 0.25) * np.pi)
    return np.sqrt(2.0 / (np.pi * z)) * rot * (p + 1j * qs), bound


@lru_cache(maxsize=256)
def _expansion_start(nu: float, longdouble: bool) -> float:
    """Where the kernel leaves Miller's recurrence for the large-argument
    expansion: the smallest x = _SERIES_TOP * 2^(j/16) at which the
    expansion's first omitted term, as ``_asym_terms`` gives it, is below
    the precision's floor (1e-17 in double, 1e-19 in extended precision),
    none of the terms it sums exceeds 8 and x >= nu.  Then rounding those
    terms costs a few ulps of J_nu's envelope at most; below x = nu the
    envelope falls under the terms' size.  About 23.6 in double and 29.3 in
    extended precision for nu = 0 and 1, 38 and 47 for nu = 14, and 256 and
    318 for nu = 29.  At nu = 1/2 and 3/2 the expansion terminates and
    holds from _SERIES_TOP on.
    """
    floor = 1e-19 if longdouble else _DOUBLE_FLOOR
    fournu2 = 4.0 * nu * nu
    x = _SERIES_TOP
    while True:
        count, omitted = _asym_terms(nu, x)
        ratios = (abs(fournu2 - (2 * k - 1) ** 2) / (8 * k * x) for k in range(1, count + 1))
        peak = max(accumulate(ratios, lambda a, b: a * b), default=1.0)
        if omitted <= floor and peak <= 8.0 and x >= nu:
            return x
        x *= 2.0 ** (1.0 / 16.0)


@lru_cache(maxsize=256)
def _miller_bands(nu: float, longdouble: bool) -> tuple:
    """Miller's recurrence per band (lo, hi] of the kernel in double or
    extended precision: bands doubling from _SERIES_TOP up to
    ``_expansion_start``, and for each its top edge and the Neumann weights
    c_0..c_(K/2) in the kernel's precision, read-only.

    The recurrence starts at order nu + K, K even and about
    hi + 6 hi^(1/3) + 16 in double, where the Neumann sum's neglected terms
    are below rounding for every x in the band: at nu = 0 a start 4 orders
    lower costs 2e-15 of the envelope, and 8 orders lower 1.4e-13.  Extended
    precision starts _MILLER_LD_ORDERS orders higher.  Bands keep K near
    each x, which saves work and bounds the recurrence's growth from its
    start.  c_k = (nu + 2k) Gamma(nu + k) / (k! Gamma(nu + 1)), c_0 = 1, by
    recurrence in extended precision, rounded once to double in double.
    """
    top = _expansion_start(nu, longdouble)
    margin = 16.0 + (_MILLER_LD_ORDERS if longdouble else 0.0)
    edges = [_SERIES_TOP]
    while edges[-1] < top:
        edges.append(min(2.0 * edges[-1], top))
    bands = []
    for hi in edges[1:]:
        half = math.ceil((hi + 6.0 * hi ** (1.0 / 3.0) + margin) / 2.0)
        c = np.empty(half + 1, dtype=_LD if longdouble else np.float64)
        c[0] = 1.0
        g = _LD(1.0)  # Gamma(nu + k) / (k! Gamma(nu + 1)) at k = 1
        for k in range(1, half + 1):
            c[k] = (_LD(nu) + 2 * k) * g
            g = g * (_LD(nu) + k) / (k + 1)
        c.setflags(write=False)
        bands.append((hi, c))
    return tuple(bands)


# orders by which the extended-precision recurrence starts above the double
# one: at nu = 0 the double start leaves 2.7e-17 of the envelope, and 4
# orders more 1.3e-18, the recurrence's rounding, as do 8
_MILLER_LD_ORDERS = 4.0
# Miller's recurrence multiplies its values, and the Neumann sum, by 2^-512
# wherever the sum passes 2^512, checked every 16 orders
_MILLER_RESCALE = 2.0**512


def _bessel_miller(nu: float, x: np.ndarray, scaled: bool, longdouble: bool) -> np.ndarray:
    """J_nu (or J_nu(x)/x^nu if ``scaled``) by Miller's backward recurrence,
    for _SERIES_TOP < x <= ``_expansion_start``; extended precision when
    ``longdouble``.

    From f_(K+1) = 0, f_K = 1, f_(k-1) = 2 (nu + k) f_k / x - f_(k+1)
    gives f_k proportional to J_(nu+k)(x), and the Neumann sum
    sum_k c_k J_(nu+2k)(x) = (x/2)^nu / Gamma(nu + 1) (DLMF 10.23(ii))
    fixes the scale, so J_nu(x) / x^nu = f_0 2^-nu / (Gamma(nu + 1) S) with
    S = sum_k c_k f_(2k), and no x^nu is formed.  Each coefficient
    2 (nu + k) / x is one division: a rounded 1/x taken once would shift x
    by its rounding and cost x ulps of the envelope.  nu + k is formed in
    the kernel's precision; in double it would cost the extended-precision
    kernel 1.3e-15 of the envelope at nu = -0.9.  Every element's band and
    start are fixed by its own x, so its value does not depend on the
    other elements.
    """
    dt = _LD if longdouble else np.float64
    pre = dt(2.0) ** dt(-nu) / dt(_gamma_real_ld(nu + 1.0))
    bands = _miller_bands(nu, longdouble)
    which = np.searchsorted([hi for hi, _ in bands], x)
    out = np.empty_like(x)
    for i, (_, c) in enumerate(bands):
        inside = which == i
        if not np.any(inside):
            continue
        xb = x[inside]
        two_nu_k = 2 * (dt(nu) + np.arange(2 * c.size - 1, dtype=dt))
        f, f_up = np.ones_like(xb), np.zeros_like(xb)
        total = np.full_like(xb, c[-1])
        t = np.empty_like(xb)
        for k in range(2 * (c.size - 1), 0, -1):
            np.multiply(f, two_nu_k[k], out=t)
            np.divide(t, xb, out=t)
            f, f_up = np.subtract(t, f_up, out=f_up), f
            if k % 2:
                total += np.multiply(f, c[k // 2], out=t)
                if k % 16 == 1:
                    big = np.abs(total) > _MILLER_RESCALE
                    if np.any(big):
                        for a in (f, f_up, total):
                            a[big] /= _MILLER_RESCALE
        val = f / total * pre
        out[inside] = val if scaled else val * xb**nu
    return out


def _bessel_grid(nu: float, x: np.ndarray, longdouble: bool, scaled: bool) -> np.ndarray:
    """Vectorised J_nu (or J_nu(x)/x^nu if ``scaled``) on x >= 0, each
    element's value a function of its own x only."""
    dt = _LD if longdouble else np.float64
    x = np.asarray(x, dtype=dt)
    out = np.empty_like(x)
    lo = x <= _SERIES_TOP
    if np.any(lo):
        out[lo] = _bessel_series(nu, x[lo], scaled, longdouble)
    cut = _expansion_start(nu, longdouble)
    mid = ~lo & (x <= cut)
    if np.any(mid):
        out[mid] = _bessel_miller(nu, x[mid], scaled, longdouble)
    # the expansion's term count is set by the smallest argument, so split
    # the range into bands to spare the large arguments; the band's edge
    # sets it, so that no value depends on the other elements
    for lo_edge, hi_edge in ((cut, 3.0 * cut), (3.0 * cut, 12.0 * cut), (12.0 * cut, math.inf)):
        band = (x > lo_edge) & (x <= hi_edge)
        if not np.any(band):
            continue
        xb = x[band]
        val = _bessel_asym(nu, xb, longdouble, lo_edge)
        if scaled:
            val = val * xb ** dt(-nu)
        out[band] = val
    return out


def bessel_j(nu: float, x):
    """Bessel function of the first kind, real order nu > -1, argument x >= 0.

    Accepts a scalar or an ndarray.  For nu < 0 the argument must be
    positive (J_nu blows up at 0).
    """
    nu = float(nu)
    if not nu > -1.0:
        raise DomainError(f"bessel_j requires order nu > -1, got {nu}")
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0):
        raise DomainError("bessel_j requires x >= 0")
    if nu < 0.0 and np.any(arr == 0.0):
        raise DomainError("bessel_j with negative order requires x > 0")
    # extended precision throughout: at x ~ 1e4 the phase subtraction alone
    # costs ~0.5 ulp(x) of phase in double, visible next to the Bessel zeros
    out = _bessel_grid(nu, arr, longdouble=True, scaled=False)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return np.asarray(out, dtype=np.float64)


def bessel_j_grid(nu: float, x: np.ndarray, longdouble: bool = False) -> np.ndarray:
    """Unchecked vectorised J_nu for quadrature kernels (x >= 0 assumed)."""
    return _bessel_grid(float(nu), x, longdouble=longdouble, scaled=False)


def bessel_j_scaled_grid(nu: float, x: np.ndarray, longdouble: bool = False) -> np.ndarray:
    """Vectorised J_nu(x)/x^nu, finite at x = 0 (value 2^-nu / Gamma(nu+1))."""
    return _bessel_grid(float(nu), x, longdouble=longdouble, scaled=True)


def bessel_j_leading(nu: float, z):
    """Leading large-argument form sqrt(2/(pi z)) * cos(z - nu*pi/2 - pi/4).

    The difference from ``bessel_j`` is O(z^{-3/2}).  Scalar or ndarray,
    z > 0 required.
    """
    nu = float(nu)
    arr = np.asarray(z, dtype=np.float64)
    if np.any(arr <= 0):
        raise DomainError("bessel_j_leading requires z > 0")
    out = np.sqrt(2.0 / (np.pi * arr)) * np.cos(arr - 0.5 * nu * np.pi - 0.25 * np.pi)
    if np.isscalar(z) or arr.ndim == 0:
        return float(out)
    return out
