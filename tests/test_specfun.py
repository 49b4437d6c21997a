"""Special-function accuracy against independent references."""

import math

import mpmath as mp
import numpy as np
import pytest

from finhankel import specfun
from finhankel.errors import DomainError, PoleError
from finhankel.specfun import (
    bessel_j,
    bessel_j_grid,
    bessel_j_leading,
    bessel_j_scaled_grid,
    gamma,
    hankel_scaled_grid,
    reciprocal_gamma,
)

from oracles import j0_first_zero, mp_bessel_j, mp_bessel_j_scaled, mp_gamma, mp_hankel_scaled

# frozen via oracles.j0_first_zero() (series bisection with tail bound)
J0_FIRST_ZERO = 2.404825557695773
# frozen via mpmath: mp.gamma(0.75) = 1.22541670246517764512909830336
GAMMA_3_4 = 1.2254167024651776


def test_bessel_basic_values():
    assert bessel_j(0.0, 0.0) == 1.0
    # half-integer closed form: sqrt(2/(pi x)) sin(x) vanishes at x = pi
    assert abs(bessel_j(0.5, math.pi)) < 1e-15
    assert abs(bessel_j(0.0, J0_FIRST_ZERO)) < 1e-11


def test_first_zero_oracle_rederivation():
    assert abs(j0_first_zero() - J0_FIRST_ZERO) < 1e-14


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(0.0, -1.0)
    with pytest.raises(DomainError):
        bessel_j(-0.5, 0.0)
    with pytest.raises(DomainError):
        bessel_j(-1.0, 1.0)
    with pytest.raises(DomainError):
        bessel_j_leading(0.0, 0.0)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, 3.5, 8.0, -0.5, -0.9])
def test_bessel_accuracy_vs_reference(nu):
    """Relative error <= 1e-11 on [0, 1e4] away from the function's zeros."""
    xs = np.concatenate([np.linspace(0.07, 30, 61), np.geomspace(30, 1e4, 41)])
    for x in xs:
        ref = mp_bessel_j(nu, float(x))
        env = math.sqrt(2.0 / (math.pi * max(x, 1e-2)))
        if abs(ref) < 0.05 * env:
            continue
        assert abs(bessel_j(nu, float(x)) - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("nu", [-0.9, -0.7, 0.0, 0.3, 1.7, 3.3])
def test_bessel_series_band_vs_reference(nu):
    """bessel_j within 1e-13 of the envelope sqrt(J_nu^2 + J_nu+1^2) on
    [8, 16], inside the range of Miller's recurrence, for orders off the
    half-integers."""
    for x in np.linspace(8.0, 16.0, 161):
        ref = mp_bessel_j(nu, float(x))
        env = math.hypot(ref, mp_bessel_j(nu + 1.0, float(x)))
        assert abs(bessel_j(nu, float(x)) - ref) <= 1e-13 * env


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 1.5, 3.0, 14.0, 29.0])
def test_double_kernels_vs_reference(nu):
    """The double-precision kernels within 1e-14 of the envelope
    sqrt(J_nu^2 + J_nu+1^2), divided by x^nu for the scaled one, on [0, 60]
    and at a few larger arguments.  An ascending series run up to x = 13
    lost about 5e-12 near its switch, and far more at nu = 29.  Up to
    x = 256 at nu = 29 the recurrence runs, where a 1/x rounded once would
    cost 1.4e-14 at x = 244."""
    x = np.concatenate([np.linspace(0.0, 60.0, 161), [77.7, 150.0, 199.0, 244.0, 255.5, 256.5, 1234.5, 1e4]])
    if nu < 0:
        x = x[1:]
    plain, scaled = bessel_j_grid(nu, x), bessel_j_scaled_grid(nu, x)
    for xi, p, s in zip(x.tolist(), plain, scaled):
        ref = mp_bessel_j(nu, xi)
        env = math.hypot(ref, mp_bessel_j(nu + 1.0, xi))
        assert abs(p - ref) <= 1e-14 * env, xi
        if xi == 0.0:
            ref_s = 2.0**-nu / mp_gamma(nu + 1.0).real
            assert abs(s - ref_s) <= 1e-14 * ref_s
        else:
            xn = xi**nu
            assert abs(s - ref / xn) <= 1e-14 * env / xn, xi


@pytest.mark.parametrize("nu", [-0.9, -0.5, 0.0, 0.3, 0.5, 1.0, 1.5, 3.0, 9.0, 14.0, 29.0])
def test_long_double_kernels_vs_reference(nu):
    """The extended-precision kernels within 1e-15 of the envelope
    sqrt(J_nu^2 + J_nu+1^2), divided by x^nu for the scaled one, on
    [0.01, 60] and at a few larger arguments.  With the ascending series run
    up to x = 16, or 1.8 nu from nu = 9 on, these points read up to 1.4e-14
    at nu = 0, 3.2e-13 at nu = 9 and 3.8e-2 at nu = 29, all near the
    series' switch.  At nu = -0.9, Gamma(0.1) from ``_gamma_real_ld``
    left 6.4e-16 while it took the Lanczos sum below 0.5; it reads
    1.3e-16 now."""
    x = np.concatenate([np.linspace(0.01, 60.0, 161), [100.0, 317.0, 1e3, 1e4]])
    plain = bessel_j_grid(nu, x, longdouble=True)
    scaled = bessel_j_scaled_grid(nu, x, longdouble=True)
    for xi, p, s in zip(x.tolist(), plain, scaled):
        ref = mp_bessel_j(nu, xi)
        env = math.hypot(ref, mp_bessel_j(nu + 1.0, xi))
        assert abs(p - ref) <= 1e-15 * env, xi
        assert abs(s - mp_bessel_j_scaled(nu, xi)) <= 1e-15 * env / xi**nu, xi


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 29.0])
def test_kernel_elements_do_not_depend_on_the_batch(nu):
    """Each element of a kernel call is bitwise what its argument gives
    alone, in both precisions, plain and scaled: finite_hankel's panel path
    evaluates every node set of a profile in one call."""
    x = np.geomspace(0.05, 5000.0, 97)
    for kernel in (bessel_j_grid, bessel_j_scaled_grid):
        for longdouble in (True, False):
            batch = kernel(nu, x, longdouble=longdouble)
            alone = [kernel(nu, x[i : i + 1], longdouble=longdouble)[0] for i in range(x.size)]
            assert (np.array(alone, dtype=batch.dtype) == batch).all()


def test_double_sums_stop_at_the_double_floor(monkeypatch):
    """The double-precision kernel sums the large-argument expansion until a
    term falls below _DOUBLE_FLOOR, about a tenth of an ulp: at nu = 0 that
    is 10 terms at x = 100 and 6 at x = 1000, where extended precision's
    floor takes 13 and 8.  The first term left out is below the floor.  The
    extended-precision kernel and hankel_scaled_grid keep their terms."""
    for x, double, extended in ((100.0, 10, 13), (1000.0, 6, 8)):
        taken, omitted = specfun._asym_terms(0.0, x, floor=specfun._DOUBLE_FLOOR)
        assert (taken, specfun._asym_terms(0.0, x)[0]) == (double, extended)
        assert omitted < specfun._DOUBLE_FLOOR
    counts = []
    pq = specfun._asym_pq

    def recorded(nu, inv_z, count, dt):
        counts.append(count)
        return pq(nu, inv_z, count, dt)

    monkeypatch.setattr(specfun, "_asym_pq", recorded)
    x = np.array([5000.0])
    bessel_j_grid(0.0, x)
    bessel_j_grid(0.0, x, longdouble=True)
    hankel_scaled_grid(0.0, x.astype(complex))
    lowest = [12.0 * specfun._expansion_start(0.0, ld) for ld in (False, True)]
    assert counts == [specfun._asym_terms(0.0, lowest[0], floor=specfun._DOUBLE_FLOOR)[0],
                      specfun._asym_terms(0.0, lowest[1])[0], specfun._asym_terms(0.0, 5000.0)[0]]


def test_bessel_leading_form():
    z = 1000.0
    expect = math.sqrt(2.0 / (math.pi * z)) * math.cos(z - math.pi / 4.0)
    assert bessel_j_leading(0.0, z) == pytest.approx(expect, rel=1e-15)
    # half-integer order: the leading form is exact for all z
    for z in (0.3, 2.0, 17.5, 400.0):
        assert bessel_j_leading(0.5, z) == pytest.approx(
            math.sqrt(2.0 / (math.pi * z)) * math.sin(z), rel=1e-13
        )


def test_leading_form_correction_order():
    """|J - leading| * z^{3/2} stays bounded over a wide sweep."""
    zs = np.geomspace(50, 5000, 40)
    gap = np.array([abs(bessel_j(0.0, z) - bessel_j_leading(0.0, z)) for z in zs])
    assert np.all(gap * zs ** 1.5 < 1.0)


def test_bessel_recurrence():
    """J_{nu-1}(x) + J_{nu+1}(x) = (2 nu / x) J_nu(x)."""
    for nu in (0.5, 1.0, 2.5):
        for x in np.geomspace(0.1, 500, 60):
            lhs = bessel_j(nu - 1.0, float(x)) + bessel_j(nu + 1.0, float(x))
            mid = bessel_j(nu, float(x))
            assert abs(lhs - 2.0 * nu / x * mid) <= 1e-10 * max(1.0, abs(mid))


def test_half_integer_closed_forms():
    for x in np.geomspace(0.1, 100, 50):
        s = math.sqrt(2.0 / (math.pi * x))
        assert bessel_j(0.5, float(x)) == pytest.approx(s * math.sin(x), rel=1e-10, abs=1e-14)
        j32 = s * (math.sin(x) / x - math.cos(x))
        assert bessel_j(1.5, float(x)) == pytest.approx(j32, rel=1e-10, abs=1e-14)


def test_gamma_values():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(0.75) == pytest.approx(GAMMA_3_4, rel=1e-14)
    assert gamma(2.0) == pytest.approx(1.0, rel=1e-14)


def test_gamma_poles():
    for k in range(0, 6):
        with pytest.raises(PoleError):
            gamma(complex(-k, 0.0))


def _grid_points(count=200, seed=11):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z.real - round(z.real)) < 5e-2 and abs(z.imag) < 5e-2:
            continue
        pts.append(z)
    return pts


def test_gamma_accuracy_vs_reference():
    rng = np.random.default_rng(23)
    pts = []
    while len(pts) < 150:
        z = complex(rng.uniform(-35, 35), rng.uniform(-35, 35))
        if abs(z) > 50:
            continue
        if z.imag == 0 and z.real <= 0 and abs(z.real - round(z.real)) <= 1e-3:
            continue
        pts.append(z)
    # include points skirting the poles at the contract's minimum distance
    pts += [complex(-k + 2e-3, 0.0) for k in range(0, 8)]
    pts += [complex(-k, 2e-3) for k in range(0, 8)]
    worst = max(abs(gamma(z) - mp_gamma(z)) / abs(mp_gamma(z)) for z in pts)
    assert worst <= 1e-12


def test_gamma_reflection():
    for z in _grid_points(200):
        rhs = math.pi / np.sin(np.pi * np.complex128(z))
        lhs = gamma(z) * gamma(1.0 - z)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_gamma_recurrence():
    for z in _grid_points(200):
        assert abs(gamma(z + 1.0) - z * gamma(z)) <= 1e-11 * abs(gamma(z + 1.0))


def test_reciprocal_gamma_exact_zeros():
    for k in range(20):
        assert reciprocal_gamma(complex(-k, 0.0)) == 0
    assert reciprocal_gamma(2.0) == pytest.approx(1.0, rel=1e-14)
    assert reciprocal_gamma(0.0) == 0
    assert reciprocal_gamma(-3.0) == 0


def test_reciprocal_gamma_inverts_gamma():
    for z in _grid_points(150, seed=3):
        assert reciprocal_gamma(z) * gamma(z) == pytest.approx(1.0, rel=1e-11)


def test_gamma_finite_input_required():
    with pytest.raises(DomainError):
        gamma(complex(float("nan"), 0.0))


@pytest.mark.parametrize("x", [0.001, 0.01, 0.1, 0.3])
def test_gamma_real_ld_below_one_half(x):
    """Below x = 0.5, where the Lanczos sum does not hold, Gamma(x + 1) / x
    with x + 1 in long double: 6.0e-17 to 7.2e-17 relative of 40-digit
    mpmath.  The sum itself read 1.0e-15 at 0.001, 9.8e-16 at 0.01,
    5.8e-16 at 0.1 and 1.5e-16 at 0.3."""
    num, den = specfun._gamma_real_ld(x).as_integer_ratio()
    with mp.workdps(40):
        assert abs(mp.mpf(num) / den / mp.gamma(x) - 1) <= 1e-16


@pytest.mark.parametrize("z", [0.02 + 0.05j, 0.5 + 0.3j, 1.0 + 2.0j, 25.0 - 0.5j, 180.5 + 0.2j])
def test_log_gamma_ld_vs_reference(z):
    """The edge legs' log Gamma(rho) for a complex rho, up to a multiple of
    2 pi i: Gamma's relative error is within 1e-15 of 40-digit mpmath."""
    got = specfun._log_gamma_ld(z)
    assert got.dtype == np.clongdouble
    parts = [np.longdouble(v).as_integer_ratio() for v in (got.real, got.imag)]
    with mp.workdps(40):
        diff = mp.mpc(*(mp.mpf(num) / den for num, den in parts)) - mp.loggamma(z)
        assert abs(mp.exp(diff) - 1) <= 1e-15


@pytest.mark.parametrize("nu", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("kind", [1, 2])
def test_hankel_scaled_along_contours(nu, kind):
    """The contours x0 + i sigma tau (sigma = +1 for H1, -1 for H2) start at
    the seam phase 30 or beyond; the relative error stays within the
    reported truncation bound plus a few ulps, also at |z| = 16 where the
    bound is what limits it.  H2 on its contour is the conjugate of H1 on
    the conjugate contour, as the edge legs take it."""
    sigma = 1.0 if kind == 1 else -1.0
    tau = np.array([0.0, 2.0, 35.0])
    for x0 in (16.0, 30.0, 1e4):
        z = x0 + 1j * sigma * tau
        h, bound = hankel_scaled_grid(nu, z.conj() if kind == 2 else z)
        if kind == 2:
            h = h.conj()
        assert bound < 1e-12
        for zi, hi in zip(z, h):
            ref = mp_hankel_scaled(nu, zi, kind)
            assert abs(hi - ref) <= (bound + 1e-15) * abs(ref)


@pytest.mark.parametrize("nu", [-0.9, 0.0, 0.5, 2.7, 14.0, 20.5])
def test_hankel_scaled_kind_2_is_conjugate_of_kind_1(nu):
    """For real nu, H2 at conj(z) is the conjugate of H1 at z (DLMF
    10.11.9), and the contour code takes both legs' values from one
    call.  H1 at z and its conjugate, as H2 at conj(z), are within the
    reported bound of the mpmath values.  That bound charges the
    expansion's rounding, which at nu = 20.5 and |z| = 16, where the series
    terminates and its terms reach 1.8e4, is all of it: the error there
    reads 1.5e-13 relative."""
    tau = np.array([0.0, 0.3, 2.0, 35.0])
    for x0 in (16.0, 60.0, 1e4):
        z = x0 + 1j * tau
        h1, bound = hankel_scaled_grid(nu, z)
        for zi, h in zip(z, h1):
            for kind, zk, hk in ((1, zi, h), (2, zi.conjugate(), h.conjugate())):
                ref = mp_hankel_scaled(nu, zk, kind)
                assert abs(hk - ref) <= bound * abs(ref)


def test_hankel_scaled_kind_and_terminating_series():
    # half-integer order: the expansion terminates, H1_(1/2)(z) e^(-iz) = -i sqrt(2/(pi z)),
    # so nothing is truncated and the bound is the rounding of its one term
    # and the prefactor's product, (1 + 4) eps
    z = np.array([20.0 + 5.0j, 400.0])
    h, bound = hankel_scaled_grid(0.5, z)
    assert bound == 5 * np.finfo(np.float64).eps
    assert np.allclose(h, -1j * np.sqrt(2.0 / (np.pi * z)), rtol=1e-15, atol=0)
