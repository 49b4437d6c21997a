"""Quadrature oracle: closed-form identities, frozen references, estimates."""

import math
import re
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finhankel import quadrature, specfun
from finhankel.asymptotics import evaluate_prediction, predict
from finhankel.errors import DomainError, SmoothnessBudgetError, check_radii, check_radius
from finhankel.profiles import ProfileTerm, RadialProfile
from finhankel.quadrature import (
    _NODES,
    QuadratureConfig,
    _derivative_power_terms,
    _finite_hankel_grid,
    _gauss_jacobi,
    _gauss_laguerre,
    _laguerre_nodes,
    _TermIntegral,
    _panel_path,
    _seam_phase,
    _transform,
    finite_hankel,
    hankel_prefactor,
    hankel_sweep,
    iterated_transform,
    radial_fourier,
)
from finhankel.specfun import _asym_terms, _expansion_start, bessel_j, bessel_j_grid, bessel_j_scaled_grid

from oracles import mp_gauss_jacobi, mp_gauss_laguerre, mp_term_transform


def single(lam, rho, n=2, c=1, **kw):
    return RadialProfile(n, (ProfileTerm(coeff=c, lam=lam, rho=rho),), **kw)


def contour_start(profile, cfg=None):
    """(seam, start) of the profile's contour path, from the evaluator's own
    helper."""
    terms = [(t.coeff, t.lam, t.rho) for t in profile.terms]
    return quadrature._contour_start(terms, profile.nu, profile.vanishes_near_one, cfg or QuadratureConfig())


def sonine_rhs(nu, alpha, r):
    return 2.0 ** alpha * math.gamma(alpha + 1.0) * r ** -(alpha + 1.0) * bessel_j(
        nu + alpha + 1.0, r
    )


def middle_edges_by_steps(lo, hi, osc_width, forced=(), quantum=0.0):
    """_middle_edges as it was when it stepped every edge one at a time: the
    reference its vectorised uniform run must match bitwise."""
    edges = [lo]
    s = lo
    while s < hi:
        w = min(osc_width, 0.6 * s, 0.5 * (1.0 - s), 0.18)
        w = max(w, 1e-12)
        s = s + w
        if quantum:
            s = round(s / quantum) * quantum
        s = min(s, hi)
        edges.append(s)
    pts = np.array(edges)
    if forced:
        pts = np.union1d(pts, [f for f in forced if lo < f < hi])
    return pts


# frozen references (independent high-precision quadrature with endpoint
# flattening; see oracles.mp_finite_hankel)
FROZEN = [
    # (lam, rho, n, r, value)
    (1.0, 1.0, 2, 10.0, 0.004347274616886144),     # closed form J_1(10)/10
    (1.0, 2.0, 2, 10.0, 0.005092606273702412),
    (0.5, 6.0, 2, 10.0, 0.017670209685451760),
    (1.0, 0.5, 2, 10.0, -0.054402111088936981),    # closed form sin(10)/10
    (-0.9, 0.1, 2, 20.0, 8.157960410562793),       # singular at both endpoints
    (2.5, 3.0, 4, 50.0, 3.2063994940063842e-06),
]


@pytest.mark.parametrize("lam,rho,n,r,expect", FROZEN)
def test_frozen_reference_values(lam, rho, n, r, expect):
    res = finite_hankel(single(lam, rho, n=n), r)
    assert res.value.real == pytest.approx(expect, rel=5e-11)
    assert abs(res.value.imag) < 1e-15 * abs(expect)
    assert res.error_estimate >= 0
    assert res.panels_used >= 1


def test_small_r_limit():
    res = finite_hankel(single(1.0, 1.0), 1e-6)
    assert res.value.real == pytest.approx(0.5, abs=1e-9)


def test_r_domain():
    with pytest.raises(DomainError):
        finite_hankel(single(1.0, 1.0), 0.0)
    with pytest.raises(DomainError):
        finite_hankel(single(1.0, 1.0), -3.0)


def _mpf(v) -> mp.mpf:
    """A double or long double, exactly."""
    num, den = np.longdouble(v).as_integer_ratio()
    return mp.mpf(num) / den


def _check_rule(x, w, ref, node_tol):
    """The rule (x, w) against the reference (nodes, weights, zeroth moment):
    the reference holds n distinct roots, since its weights sum to the
    moment, each weight is within 5e-16 relative and each node within
    ``node_tol`` times max(1, |node|)."""
    xr, wr, mu0 = ref
    with mp.workdps(50):
        assert abs(mp.fsum(wr) - mu0) <= mp.mpf(1e-20) * mu0
        assert all(a < b for a, b in zip(xr, xr[1:]))
        assert max(abs(_mpf(v) - r) / r for v, r in zip(w, wr)) <= 5e-16
        assert max(abs(_mpf(v) - r) / max(1, abs(r)) for v, r in zip(x, xr)) <= node_tol


class TestRules:
    """The Gauss rules of the origin and boundary panels and of the edge
    legs, against rules refined in mpmath at 50 digits from the textbook
    recurrences, with weights from the Gamma-constant formula."""

    @pytest.mark.parametrize("e", [-0.999, -0.98, 0.0, 0.37, 2.5, 14.5, 170.0])
    def test_gauss_jacobi(self, e):
        """Both orientations, as the boundary (e, 0) and origin (0, e) panels
        take them.  The nodes are within one long-double spacing at 1."""
        for n in (12, 16, 32, 40):
            for a, b in ((e, 0.0), (0.0, e)):
                x, w = _gauss_jacobi(n, a, b)
                assert x.dtype == w.dtype == np.longdouble
                _check_rule(x, w, mp_gauss_jacobi(n, a, b, map(_mpf, x)), 2.0**-63)

    @pytest.mark.parametrize("alpha", [-0.98, -0.5, 0.0, 0.5, 2.5, 14.5, 60.0, 179.5])
    def test_gauss_laguerre(self, alpha):
        """Rounded to double for the edge legs, for the weight over its
        zeroth moment Gamma(alpha + 1): the weights against the reference's
        over that moment, and nodes within one double spacing at 1 of
        max(1, |node|).  At alpha = 179.5 the weights of t^alpha e^(-t)
        itself are infinite in double."""
        for n in (6, 8, 10, 13, 18, 21, 30):
            x, w = _gauss_laguerre(n, alpha)
            assert x.dtype == w.dtype == np.float64
            xr, wr, mu0 = mp_gauss_laguerre(n, alpha, map(_mpf, x))
            with mp.workdps(50):
                _check_rule(x, w, (xr, [v / mu0 for v in wr], mp.mpf(1)), 2.0**-52)

    def test_rules_are_cached_and_read_only(self):
        for rule in (_gauss_jacobi(12, 0.0, 0.5), _gauss_laguerre(10, 0.5)):
            for arr in rule:
                with pytest.raises(ValueError):
                    arr[0] = 0.0
        assert _gauss_jacobi(12, 0.0, 0.5)[1] is _gauss_jacobi(12, 0.0, 0.5)[1]


class TestRadiusValidation:
    """finite_hankel, iterated_transform, hankel_sweep and the asymptotic
    evaluators share one check."""

    P = single(1.0, 7.0)

    @staticmethod
    def calls(p, r):
        pred = predict(p)
        return (
            lambda: finite_hankel(p, r),
            lambda: iterated_transform(p, 1, r),
            lambda: hankel_sweep(p, np.array([r])),
            lambda: pred.boundary_terms[0].evaluate(r),
            lambda: evaluate_prediction(pred, r),
        )

    @pytest.mark.parametrize("r", [True, False, np.bool_(True), math.nan, math.inf, -math.inf, 0, -1.0, "10", 10j])
    def test_rejected(self, r):
        for call in self.calls(self.P, r):
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize("r", [np.float32(10), np.int64(10), 10, np.float64(10.0)])
    def test_real_numbers_accepted(self, r):
        for call, ref in zip(self.calls(self.P, r), self.calls(self.P, 10.0)):
            a, b = call(), ref()
            assert (a == b).all() if isinstance(a, np.ndarray) else a == b

    def test_message_names_the_value(self):
        with pytest.raises(DomainError, match="finite real r > 0, got True"):
            finite_hankel(self.P, True)


class TestSonineIdentity:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.5])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("r", [5.0, 20.0, 100.0, 500.0])
    def test_identity(self, nu, alpha, r):
        p = single(nu + 1.0, alpha + 1.0, n=round(2 * nu + 2))
        res = finite_hankel(p, r)
        assert res.value.real == pytest.approx(sonine_rhs(nu, alpha, r), rel=1e-8)


class TestIterated:
    def test_order_zero_matches_base(self):
        p = single(1.0, 7.0)  # transferred boundary factor (1-t)^6
        r = 25.0
        a = iterated_transform(p, 0, r).value
        b = finite_hankel(p, r).value
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("nvec", [2, 4])
    @pytest.mark.parametrize("r", [10.0, 50.0])
    def test_recurrence(self, nvec, r):
        p = single(nvec / 2.0, 7.0, n=nvec)
        i0 = iterated_transform(p, 0, r).value
        for N in (1, 2, 3):
            iN = iterated_transform(p, N, r).value
            assert i0 == pytest.approx((-2.0 / r) ** N * iN, rel=1e-7)

    @pytest.mark.parametrize("nvec", [2, 4])
    @pytest.mark.parametrize("r", [200.0, 1500.0])
    def test_recurrence_on_contours(self, nvec, r):
        """The same recurrence above the seam, where every order runs on
        steepest-descent contours.  lam = n/2 - 1/2 is off the excluded
        ladder: at lam = n/2 the transform is pure cancellation noise there."""
        p = single(nvec / 2.0 - 0.5, 7.0, n=nvec)
        i0 = iterated_transform(p, 0, r).value
        for N in (1, 2, 3):
            iN = iterated_transform(p, N, r).value
            assert i0 == pytest.approx((-2.0 / r) ** N * iN, rel=1e-10)

    def test_exact_closed_form(self):
        # derivative order 0 on a pure edge factor reduces to the closed form
        alpha = 3.0
        p = single(1.0, alpha + 1.0)
        r = 40.0
        i0 = iterated_transform(p, 0, r).value
        assert i0.real == pytest.approx(sonine_rhs(0.0, alpha, r), rel=1e-9)

    def test_smoothness_budget(self):
        p = single(1.0, 2.5)  # boundary exponent rho-1 = 1.5 allows k <= 1
        iterated_transform(p, 1, 10.0)
        with pytest.raises(SmoothnessBudgetError):
            iterated_transform(p, 2, 10.0)
        with pytest.raises(DomainError):
            iterated_transform(p, 9, 10.0)


class TestRadialFourier:
    def test_ball_closed_form(self):
        # unit-ball indicator in three dimensions: 4 pi (sin r - r cos r)/r^3
        p = single(1.5, 1.0, n=3)
        r = 2.0
        expect = 4.0 * math.pi * (math.sin(r) - r * math.cos(r)) / r ** 3
        assert radial_fourier(p, r).real == pytest.approx(expect, rel=1e-11)

    def test_prefactor_is_exact_ratio(self):
        p = single(1.0, 2.0, n=2)
        r = 7.0
        assert radial_fourier(p, r) == finite_hankel(p, r).value * hankel_prefactor(p, r)
        assert hankel_prefactor(p, r) == pytest.approx(2.0 * math.pi)


class TestEstimates:
    def test_panel_estimate_covers_oracle(self):
        """The panel path's two-resolution estimate bounds its error above
        the seam too, where finite_hankel would take the contours."""
        tol = QuadratureConfig().target_rel_tol
        for lam, rho, r in ((1.0, 3.5, 300.0), (-0.9, 0.1, 120.0), (0.5, 6.0, 700.0)):
            ti = _TermIntegral(lam, rho, 0.0, r, False)
            value, estimate, _ = _panel_path([ti], ti.nu, ti.r, tol)[0]
            assert abs(value - mp_term_transform(lam, rho, 0.0, r)) <= estimate

    def test_estimate_covers_true_error(self):
        for lam, rho, n, r, expect in FROZEN:
            res = finite_hankel(single(lam, rho, n=n), r)
            assert abs(res.value.real - expect) <= max(res.error_estimate, 5e-11 * abs(expect))
        # boundary Gauss-Jacobi at exponent rho - 1 = -0.98, whose rounding
        # the estimate used to leave out (errors 6x the estimate at r = 47)
        for r in (35.0, 47.0):
            res = finite_hankel(single(3.0, 0.02), r)
            assert abs(res.value - mp_term_transform(3.0, 0.02, 0.0, r)) <= res.error_estimate

    def test_estimate_at_zeros_of_the_kernel(self):
        """The kernel's error is charged per unit of |w k|, which is thinnest
        where |k| is far below J_nu's envelope.  With rho near 0 the boundary
        Gauss-Jacobi set holds most of the mass, at s ~ 1, so at r near a
        zero k pi of J_1/2 that mass sits at a zero of the kernel."""
        for rho in (0.035, 0.064):
            p = single(1.0, rho, n=3)
            for k in (2, 7, 18):
                for d in (-0.01, 0.0, 0.01):
                    r = k * math.pi + d
                    res = finite_hankel(p, r)
                    err = abs(res.value - mp_term_transform(1.0, rho, p.nu, r))
                    assert err <= res.error_estimate, (rho, r)

    @pytest.mark.parametrize("lam,rho,n,r", [
        (200.0, 1.5, 2, 10.0), (1000.0, 2.0, 2, 10.0), (150.0, 1.5, 200, 10.0),
        (0.5, 1000.5, 2, 60.0), (0.5, 1000.5, 2, 500.0), (0.5, 1200.0, 2, 10.0),
        (0.5, 180.5, 2, 400.0), (0.5, 180.5, 2, 1000.0), (0.5, 1000.5, 2, 5000.0),
    ])
    def test_large_exponents_within_estimate(self, lam, rho, n, r):
        """Endpoint exponents in the hundreds.  On the panel path the
        Gauss-Jacobi rules' zeroth moment 2^(e+1) / (e+1) is formed in long
        double: from Gamma in double it overflows on each of the first six,
        and scipy's rule gave inf + nan at (0.5, 1200).  The last three take
        the contour path, whose Laguerre weights sum to 1 and whose
        Gamma(rho) the edge legs' factor takes in long double: the weights
        of t^(rho-1) e^(-t) itself are infinite in double, and gave NaN."""
        p = single(lam, rho, n=n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = finite_hankel(p, r)
        assert abs(res.value - mp_term_transform(lam, rho, p.nu, r)) <= res.error_estimate

    def test_high_order_within_estimate(self):
        """n = 60 (nu = 29) has no seam, so finite_hankel takes panels at
        every r, with kernel arguments up to r.  With the extended-precision
        series run up to 1.8 nu = 52, where it cancelled, these were off by
        up to 4e-3 relative, outside the estimate at r = 100, 150 and 400."""
        p = single(1.0, 1.5, n=60)
        for r in (50.0, 100.0, 150.0, 400.0):
            res = finite_hankel(p, r)
            ref = mp_term_transform(1.0, 1.5, p.nu, r)
            err = abs(res.value - ref)
            assert err <= res.error_estimate and err <= 1e-12 * abs(ref), r


# the multi-term profiles of the transform benchmark's seed 1
# (bench/workloads.Transform), rounded to four decimals, with their radii
# below 60, where finite_hankel takes the panel path: (n, (coeff, lam, rho)
# per term, radii)
BENCH_MULTI_TERM = [
    (2, ((0.5419, 2.4469, complex(3.5655, -0.0502)), (0.9293, 0.697, 3.9468)),
     (33.559, 8.233, 15.458)),
    (3, ((1.0905, -1.4173, 2.2118), (-0.9614, 1.1499, 6.1689)),
     (7.694, 17.436)),
    (4, ((-1.6772, complex(-0.2025, -0.1989), 0.0241), (0.5979, 2.242, 4.3664)),
     (25.194, 36.877, 5.0)),
    (2, ((-0.8014, -0.909, 0.025), (1.4007, 3.1051, 6.1919), (1.5607, 1.3796, complex(2.8037, -0.0703))),
     (6.93, 30.335)),
    (3, ((-1.3388, 3.1425, 1.8903), (-1.5067, 1.2265, 0.2976), (1.6733, 2.3376, 0.2579)),
     (26.915, 9.127)),
    (2, ((1.3112, -0.9352, 1.6143), (1.6936, 2.3662, 1.962)),
     (30.298, 55.193, 9.284)),
    (3, ((1.2757, complex(-1.1885, 0.2482), 0.0267), (-0.9772, -0.2522, 1.6042)),
     (7.671, 25.603, 43.184)),
    (4, ((-1.1351, -1.9397, 0.0235), (-1.9799, 1.3826, 1.2445)),
     (14.662, 39.748, 6.338)),
    (2, ((-1.2171, 0.6618, complex(4.0335, 0.2455)), (1.4829, 1.3734, 3.9859), (-1.3101, 2.3307, 0.882)),
     (19.065, 5.668)),
    (3, ((-0.6676, -1.4036, 3.6896), (1.3119, complex(-1.0725, -0.1975), 3.7814), (-0.5785, 0.2948, 1.9808)),
     (6.053, 14.071, 42.446)),
    (4, ((0.8179, 0.6657, 0.0566), (1.5273, 2.2995, 0.34), (-1.5613, 2.1436, complex(3.1006, -0.2525))),
     (47.635, 5.464, 17.293)),
    (2, ((-1.501, complex(1.9925, -0.164), 0.0423), (-1.4139, 1.9769, 0.2293)),
     (5.027, 20.707)),
    (3, ((0.9669, -1.4669, 0.0299), (-1.9431, -0.6603, 3.7636)),
     (33.831, 10.3, 29.184)),
    (4, ((-0.9124, 1.3026, complex(0.5168, 0.07)), (-1.1999, 1.1936, 1.3204)),
     (13.767, 7.682)),
    (2, ((1.5006, -0.9331, 0.6354), (-0.6245, 0.0521, 4.0536), (1.3909, complex(1.695, 0.1374), 3.4507)),
     (32.682, 44.717, 5.841)),
    (3, ((1.3188, 1.77, 0.0282), (1.0015, 0.95, 3.9636), (1.3508, 1.5671, 1.2994)),
     (17.846, 34.979, 5.595)),
    (4, ((1.1839, -1.9446, complex(0.0479, -0.153)), (-0.6366, -0.9645, 1.0312), (1.113, -0.1409, 4.0176)),
     (20.476, 9.07, 44.523)),
    (2, ((-2.0282, -0.9333, 0.0718), (1.1416, 1.5625, 1.7244)),
     (24.338, 6.418, 55.33)),
    (3, ((-0.5325, -0.4463, complex(0.4961, -0.1133)), (-0.4635, 2.8687, 2.2991)),
     (31.787, 30.485, 7.049)),
    (4, ((-1.0832, -1.9042, 1.1833), (-1.7362, -0.1506, 2.9915)),
     (8.236, 48.197, 29.655)),
    (2, ((-1.174, complex(0.6912, 0.2121), 0.022), (0.9226, 0.5762, 0.5415), (-0.6514, -0.3603, 0.3105)),
     (16.687, 6.444, 54.552)),
    (3, ((-1.1309, -1.4538, 0.022), (1.7347, 1.2543, complex(5.7063, 0.1642)), (-1.2082, 3.0034, 0.6941)),
     (37.586, 10.758, 13.969)),
    (4, ((2.1047, 0.9532, 2.1775), (-1.1613, 0.2712, 2.9515), (-0.6969, complex(-0.6728, -0.1796), 1.0442)),
     (20.531, 8.91, 34.57)),
]


class TestLinearity:
    @pytest.mark.parametrize("n,terms,radii,cutoff", [
        *((n, terms, radii, False) for n, terms, radii in BENCH_MULTI_TERM),
        (2, ((1.0, 1.0, 3.5), (-0.5, 0.5, 2.0)), (20.0, 150.0), True),
        (3, ((complex(0.7, -0.2), complex(1.0, 0.3), 2.0), (-1.3, 0.5, complex(1.5, 0.4))), (12.0, 45.0), False),
    ])
    def test_batching_changes_no_term(self, n, terms, radii, cutoff):
        """On the panel path the node sets of every term share one call of
        each kernel, yet the value and estimate are bitwise the
        coefficient-weighted sums of the terms' own results."""
        def profile(*ts):
            return RadialProfile(n, tuple(ProfileTerm(coeff=c, lam=l, rho=r) for c, l, r in ts),
                                 vanishes_near_one=cutoff)
        for r in radii:
            res = finite_hankel(profile(*terms), r)
            value, estimate = 0j, 0.0
            for c, lam, rho in terms:
                part = finite_hankel(profile((1.0, lam, rho)), r)
                value += c * part.value
                estimate += abs(c) * part.error_estimate
            assert (res.value, res.error_estimate) == (value, estimate), r

    def test_panel_path_calls_each_kernel_once(self, monkeypatch):
        """All node sets of a three-term profile at both resolutions take
        one call of each kernel, through the names quadrature binds."""
        calls = []
        for name in ("bessel_j_grid", "bessel_j_scaled_grid"):
            kernel = getattr(quadrature, name)

            def counted(*args, kernel=kernel, name=name, **kwargs):
                calls.append(name)
                return kernel(*args, **kwargs)

            monkeypatch.setattr(quadrature, name, counted)
        n, terms, radii = BENCH_MULTI_TERM[3]
        finite_hankel(RadialProfile(n, tuple(ProfileTerm(coeff=c, lam=l, rho=r) for c, l, r in terms)), radii[0])
        assert sorted(calls) == ["bessel_j_grid", "bessel_j_scaled_grid"]

    def test_exact_in_terms(self):
        t1 = ProfileTerm(coeff=complex(0.7, -0.2), lam=1.0, rho=2.0)
        t2 = ProfileTerm(coeff=complex(-1.3, 0.4), lam=0.5, rho=1.5)
        r = 35.0
        both = finite_hankel(RadialProfile(2, (t1, t2)), r).value
        v1 = finite_hankel(RadialProfile(2, (t1,)), r).value
        v2 = finite_hankel(RadialProfile(2, (t2,)), r).value
        assert both == v1 + v2  # identical per-term meshes: exact

    def test_complex_coefficients_componentwise(self):
        p = single(1.0, 2.0, c=complex(0.0, 2.0))
        base = single(1.0, 2.0)
        r = 12.0
        assert finite_hankel(p, r).value == pytest.approx(
            2j * finite_hankel(base, r).value, rel=1e-14
        )


class TestComplexExponents:
    def test_complex_lambda_runs_with_honest_tail(self):
        p = single(complex(1.0, 0.3), 2.0)
        res = finite_hankel(p, 30.0)
        assert res.error_estimate < 1e-8 * max(abs(res.value), 1e-3)
        assert res.value.imag != 0

    def test_complex_rho_runs(self):
        p = single(1.0, complex(1.5, 0.4))
        res = finite_hankel(p, 30.0)
        assert abs(res.value) > 0
        assert res.error_estimate < 1e-6


class TestVanishingProfiles:
    def test_transform_decays_fast(self):
        p = single(1.0, 3.5, vanishes_near_one=True)
        vals = [abs(finite_hankel(p, r).value) for r in (20.0, 100.0, 1000.0)]
        assert vals[0] > vals[1] > vals[2]
        # super-polynomial: by r = 1000 the decay has overtaken r^-6
        assert vals[2] < vals[0] * (20.0 / 1000.0) ** 6

    def test_small_r_matches_materialised_cutoff(self):
        import finhankel.quadrature as q

        p = single(1.0, 1.0, vanishes_near_one=True)
        s = np.linspace(1e-3, 0.666, 4000)
        chi = np.asarray(q._smooth_cutoff_ld(s), dtype=np.float64)
        trapz = np.trapezoid(s * chi * bessel_j(0.0, 3.0 * s), s)
        assert finite_hankel(p, 3.0).value.real == pytest.approx(trapz, rel=1e-5)


# leading terms of two benchmark probe profiles, whose complex lam puts
# Re(lam) + nu + 1 near 0, and a complex rho whose Re(rho) is near 0
PROBE_ORIGIN = [
    (complex(-1.9723822144802778, -0.08482234175686988), 5.22882597343742, 4),
    (complex(-1.4086814743811178, -0.22956178686072953), 2.0890793569491644, 3),
]
PROBE_BOUNDARY = (-1.455, complex(0.041, -0.143), 3)


class TestSweep:
    def test_matches_pointwise_evaluator(self):
        """Every term kind against the closed form, to the accuracy the
        docstring states: complex exponents used to be off by up to 10%."""
        cases = [
            ((ProfileTerm(coeff=1, lam=1.0, rho=0.5), ProfileTerm(coeff=-0.5, lam=3.0, rho=2.0)), 2,
             (50.0, 137.0, 648.0, 1500.0)),
        ] + [((ProfileTerm(coeff=1, lam=lam, rho=rho),), n, (50.0, 212.6, 1500.0))
             for lam, rho, n in (*PROBE_ORIGIN, (1.0, complex(1.5, 0.4), 2), PROBE_BOUNDARY)]
        for terms, n, rs in cases:
            sw = hankel_sweep(RadialProfile(n, terms), np.array(rs))
            for value, r in zip(sw, rs):
                ref = sum(t.coeff * mp_term_transform(t.lam, t.rho, n / 2.0 - 1.0, r) for t in terms)
                assert abs(value - ref) <= max(1e-12 * abs(ref), 1e-17), (terms, r)

    def test_no_absolute_floor_on_contours(self):
        """Above the seam the sweep takes the contours, with no absolute
        floor: on panels these radii were off by 9e-10, 1.5e-10 and 4e-8
        relative, an absolute floor near 1e-19 against |F| ~ 6e-12 at
        r = 1999.  One call, so two radii are reached from the first."""
        rs = np.array([648.0, 1500.0, 1999.0])
        for value, r in zip(hankel_sweep(single(2.5, 3.0), rs), rs):
            ref = mp_term_transform(2.5, 3.0, 0.0, r)
            assert abs(value - ref) <= 1e-11 * abs(ref), r

    def test_dispatch_and_scatter(self):
        """An unsorted grid across the contour start, seam = 30: every radius
        takes finite_hankel's path and lands in its own slot."""
        grid = np.array([75.0, 21.0, 29.9, 30.0, 30.1, 1800.0, 24.0])
        mixed = RadialProfile(3, (
            ProfileTerm(coeff=1.0, lam=0.5, rho=2.5),
            ProfileTerm(coeff=complex(-0.4, 0.3), lam=1.5, rho=complex(1.5, 0.4)),
        ))
        # the last is the graded origin zone, whose closed-form node at
        # s = 0 goes through the scaled kernel in double
        for p in (mixed, single(0.0, 1.0, vanishes_near_one=True),
                  single(complex(-0.6, 0.2), 1.0, vanishes_near_one=True)):
            for value, r in zip(hankel_sweep(p, grid), grid):
                res = finite_hankel(p, float(r))
                assert abs(value - res.value) <= res.error_estimate + 1e-12 * abs(res.value), (p, r)

    def test_rejects_bad_grid(self):
        with pytest.raises(DomainError):
            hankel_sweep(single(1.0, 1.0), np.array([1.0, -2.0]))

    @pytest.mark.parametrize("grid", [
        np.array([3.0, 0.5, 2e3]), np.array([3.0, -2.0, math.nan]), np.array([1.5, math.inf]),
        np.array([7, 0, -1]), np.array([9, 4], dtype=np.uint8), np.array([2.5, 0.0], dtype=np.float32),
        np.array([2.0, True], dtype=object), np.array([True, False]), np.array([2.0, 3j]),
    ])
    def test_grid_check_matches_the_per_element_loop(self, grid):
        """check_radii gives the per-element check_radius's values, or its
        error and message for the first radius it rejects."""
        try:
            expect = np.array([check_radius(x, "hankel_sweep") for x in grid.tolist()])
        except DomainError as exc:
            with pytest.raises(DomainError, match=re.escape(str(exc))):
                check_radii(grid, "hankel_sweep")
        else:
            got = check_radii(grid, "hankel_sweep")
            assert got.dtype == np.float64 and (got == expect).all()

    # a two-term profile with a complex coefficient and a complex exponent
    MIXED = RadialProfile(3, (
        ProfileTerm(coeff=1.0, lam=0.5, rho=2.5),
        ProfileTerm(coeff=complex(-0.4, 0.3), lam=1.5, rho=complex(1.5, 0.4)),
    ))

    @staticmethod
    def envelope(values, i):
        """Largest |F| within 16 steps of pi/16 (about pi) either side of i."""
        return float(np.max(np.abs(values[max(0, i - 16) : i + 17])))

    @staticmethod
    def windows(radii, nu):
        """The windows of ``_windowed``, predicted from its rule: each starts
        at the smallest radius a not yet covered and takes every radius up
        to min(a + _WINDOW, a _WINDOW_RANGE^(1 / (nu + 2)))."""
        rest, out = np.sort(radii), []
        while rest.size:
            a = rest[0]
            inside = rest <= min(a + quadrature._WINDOW, a * quadrature._WINDOW_RANGE ** (1 / (nu + 2)))
            out.append(rest[inside])
            rest = rest[~inside]
        return out

    @staticmethod
    def panel_sweep_alone(ti, radii, tol):
        """One term's panel sweep at ``radii`` with its own kernel pass: its
        values plus each node set's matrix product with the weights."""
        values, sets = ti.panel_sweep(radii, quadrature._SWEEP_NODES, tol)
        kernels = quadrature._kernel_matrices(ti.nu, [(radii, ns.s.ravel(), ns.scaled) for ns in sets])
        for ns, k in zip(sets, kernels):
            w = np.asarray(ns.w, dtype=np.complex128).ravel()
            values += quadrature._matvec(k, w) * radii**ti.nu if ns.scaled else quadrature._matvec(k, w)
        return values

    @staticmethod
    def swept(monkeypatch):
        """Record the number of radii each direct per-term sweep is given."""
        sizes = []
        for name in ("steepest_descent", "panel_sweep"):
            method = getattr(_TermIntegral, name)

            def counted(self, radii, *args, method=method):
                sizes.append(radii.size)
                return method(self, radii, *args)

            monkeypatch.setattr(_TermIntegral, name, counted)
        return sizes

    @pytest.mark.parametrize("profile,lo,hi,share", [
        (single(0.0, 1.0, n=3), 20.0, 200.0, 0.5),  # windows either side of the start, 30
        # near r = 0 windows are narrowed until r^-(nu + 2) changes by at
        # most 16 across each, and most of them hold too few radii to sample
        (single(0.0, 1.0, n=5), math.pi / 16, 30.0, 1.0),
        (single(0.0, 1.0, vanishes_near_one=True), 50.0, 400.0, 0.5),
        (single(1.0, complex(1.5, 0.4)), 300.0, 500.0, 0.5),
        (MIXED, 1000.0, 1300.0, 0.5),
        # r^nu changes by a factor of 9e9 across [pi/16, 60) at n = 10
        (single(1.0, 1.5, n=10), math.pi / 16, 200.0, 0.5),
        (single(1.0, 1.5, n=10), 43.7, 300.0, 0.5),
        # the top of the window check's range, where the panel sweep's
        # phases r s are largest
        (single(0.0, 1.0, vanishes_near_one=True), 1800.0, 2006.0, 0.5),
        (RadialProfile(3, MIXED.terms, vanishes_near_one=True), 1800.0, 2006.0, 0.5),
    ], ids=["across_seam", "near_origin", "cutoff", "complex_rho", "two_terms",
            "n10_near_origin", "n10", "cutoff_top", "two_terms_cutoff_top"])
    def test_dense_grid_is_interpolated(self, profile, lo, hi, share, monkeypatch):
        """On a grid of step pi/16 the windows are swept at their Chebyshev
        points, and the interpolant agrees with finite_hankel and with the
        closed form; the per-term sweeps are given under share of the grid's
        radii.  On the panel path (r < 30 and cutoff profiles) this bound
        sits near the double-precision panel sweep's own floor, which it
        holds for these profiles."""
        sizes = self.swept(monkeypatch)
        grid = np.arange(lo, hi, math.pi / 16)
        sw = hankel_sweep(profile, grid)
        assert sum(sizes) < len(profile.terms) * grid.size * share
        for i in range(3, grid.size, 37):
            res = finite_hankel(profile, float(grid[i]))
            assert abs(sw[i] - res.value) <= res.error_estimate + 1e-12 * abs(res.value), grid[i]
        if profile.vanishes_near_one:
            return  # no closed form for the smooth cutoff
        for start in (grid.size // 6, grid.size // 2, 5 * grid.size // 6):
            i = start + int(np.argmax(np.abs(sw[start : start + 32])))
            r = float(grid[i])
            ref = sum(t.coeff * mp_term_transform(t.lam, t.rho, profile.nu, r) for t in profile.terms)
            assert abs(sw[i] - ref) <= 1e-12 * abs(ref), r

    @pytest.mark.parametrize("n", [10, 20])
    @pytest.mark.parametrize("lo,hi", [(math.pi / 16, 200.0), (43.7, 300.0)], ids=["near_origin", "from_43"])
    def test_high_order_interpolant_tracks_the_direct_sweep(self, n, lo, hi, monkeypatch):
        """|F| rises like r^nu below r ~ nu, so across a window 128 wide it
        can span many orders of magnitude at these orders (r^nu changes by
        1e4 at n = 20 across [60, 173) and by 9e9 at n = 10 across
        [pi/16, 60)), and the interpolant errs by a fixed fraction of |F|'s
        largest value in its window.  Windows are narrowed until
        r^-(nu + 2) changes by at most _WINDOW_RANGE across each.  So at
        every radius the interpolant stays within 3e-12 of the direct
        sweep's local envelope, and at three local maxima within 1e-12 of
        the closed form.  (At n = 20 below r = 60 the direct panel sweep
        itself is off from finite_hankel by about 1e-12 relative.)"""
        p = single(1.0, 1.5, n=n)
        grid = np.arange(lo, hi, math.pi / 16)
        sw = hankel_sweep(p, grid)
        # no window is sampled, on panels or contours
        monkeypatch.setattr(quadrature, "_WINDOW_MARGIN", 10**9)
        monkeypatch.setattr(quadrature, "_CONTOUR_POINTS", 10**9)
        direct = hankel_sweep(p, grid)
        for i in range(grid.size):
            assert abs(sw[i] - direct[i]) <= 3e-12 * self.envelope(direct, i), grid[i]
        for start in (grid.size // 6, grid.size // 2, 5 * grid.size // 6):
            i = start + int(np.argmax(np.abs(sw[start : start + 32])))
            ref = mp_term_transform(1.0, 1.5, p.nu, float(grid[i]))
            assert abs(sw[i] - ref) <= 1e-12 * abs(ref), grid[i]

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_windows_bound_the_power_of_r(self, n, monkeypatch):
        """Each sampled panel window [a, b] keeps (b / a)^(nu + 2) within
        _WINDOW_RANGE and b - a within _WINDOW.  Each sampled contour
        window, the one kind with _CONTOUR_POINTS points, is Chebyshev in
        log r with b / a <= 4, from the contour start on.  On both paths its ends are
        radii of the grid: the interval that is interpolated is the span of
        the radii it serves."""
        spans = []
        window = quadrature._chebyshev_window

        def recorded(lo, hi, m):
            spans.append((lo, hi, m))
            return window(lo, hi, m)

        monkeypatch.setattr(quadrature, "_chebyshev_window", recorded)
        p = single(1.0, 1.5, n=n)
        # step pi/64, so that at n = 20 (windows at most 16^(1/11) = 1.29
        # wide) some panel window below the start, 30, is sampled
        grid = np.arange(math.pi / 64, 400.0, math.pi / 64)
        hankel_sweep(p, grid)
        _, start = contour_start(p)
        contour = [(lo, hi) for lo, hi, m in spans if m == quadrature._CONTOUR_POINTS]
        panel = [(lo, hi) for lo, hi, m in spans if m != quadrature._CONTOUR_POINTS]
        assert contour and panel
        for lo, hi in contour:
            assert hi - lo <= math.log(4.0) + 1e-12 and math.exp(lo) >= start * (1 - 1e-12), (lo, hi)
            for end in (lo, hi):
                assert np.min(np.abs(grid - math.exp(end))) <= 1e-13 * math.exp(end), (lo, hi)
        for lo, hi in panel:
            assert (hi / lo) ** (p.nu + 2) <= quadrature._WINDOW_RANGE * (1 + 1e-12), (lo, hi)
            assert hi - lo <= quadrature._WINDOW, (lo, hi)
            assert lo in grid and hi in grid, (lo, hi)

    @pytest.mark.parametrize("profile", [
        single(0.0, 0.1), single(1.0, 0.5), single(2.5, 1.0), MIXED,
        single(1.0, complex(1.5, 0.4), n=4), single(1.0, 1.5, n=30),
    ], ids=["0_0.1", "1_0.5", "2.5_1", "two_terms", "complex_rho", "n30"])
    def test_contour_interpolant_tracks_the_direct_sweep(self, profile, monkeypatch):
        """On the contour path the sweep interpolates, per term, the seam
        zone times r^(Re lam + 1) and each edge leg with e^(+-ir) taken out
        times r^(Re rho + 1/2), none of which oscillates, at 32 Chebyshev
        points in log r per window.  At every radius of the grid from the
        contour start on it stays within 5e-15 of the direct sweep's local envelope.
        Interpolating the oscillating F at ceil(h) + 40 points per window
        128 wide read 1.6e-14 to 2.8e-14 on the first three and on the
        complex rho.  The direct sweep runs at every fourth radius from
        the start on, built at the same first radius, and its envelope is the
        largest |F| among those within pi (a few % under the full grid's)."""
        grid = np.arange(30.0, 2006.0, math.pi / 16)
        on = grid >= contour_start(profile)[1]
        sw = hankel_sweep(profile, grid)[on][::4]
        monkeypatch.setattr(quadrature, "_CONTOUR_POINTS", 10**9)  # every contour radius is swept
        direct = hankel_sweep(profile, grid[on][::4])
        envelope = np.lib.stride_tricks.sliding_window_view(np.pad(np.abs(direct), 4), 9).max(axis=1)
        err = np.abs(sw - direct) / envelope
        assert sw.size > 2000
        assert err.max() <= 5e-15, grid[on][::4][np.argmax(err)]

    @pytest.mark.parametrize("profile", [single(1.0, 1.5), single(0.0, 1.0, vanishes_near_one=True)],
                             ids=["contour", "cutoff"])
    @pytest.mark.parametrize("grid", [
        np.sort(np.append(np.arange(60.0, 90.0, math.pi / 16), np.full(200, 75.0))),
        np.full(300, 75.0),
    ], ids=["duplicates", "all_equal"])
    def test_duplicate_radii(self, profile, grid):
        """Repeated radii count towards their window like any others: 200
        copies of r = 75 in a dense grid are interpolated with the rest, and
        a grid of one radius repeated is one window, swept directly.  Every
        value is finite and within finite_hankel's estimate + 1e-12 |F|."""
        sw = hankel_sweep(profile, grid)
        assert np.isfinite(sw).all()
        for r in np.unique(grid)[::7].tolist() + [75.0]:
            res = finite_hankel(profile, r)
            for v in sw[grid == r]:
                assert abs(v - res.value) <= res.error_estimate + 1e-12 * abs(res.value), r

    def test_contour_interpolant_where_F_underflows(self, monkeypatch):
        """At r ~ 1e100 the parts of (2.5, 3) underflow to 0 while r^3.5
        overflows, so the powers that make them smooth are taken relative to
        a power of 2 near each window.  Taken absolute, 0 * inf made every
        interpolated value NaN; the direct sweep gives 0."""
        grid = 1e100 * np.linspace(1.0, 1.001, 100)
        sw = hankel_sweep(single(2.5, 3.0), grid)
        monkeypatch.setattr(quadrature, "_CONTOUR_POINTS", 10**9)
        assert (sw == hankel_sweep(single(2.5, 3.0), grid)).all()

    def test_barycentric_node_hits_and_chunks(self, monkeypatch):
        """A radius equal to a sampled point takes that sample, the last
        point included; a non-finite sample spreads to the other radii
        instead of being read as a hit; radii taken a few rows at a time
        give the same values."""
        x, w = quadrature._chebyshev_window(10.0, 20.0, 30)
        f = np.cos(x) + 1j * np.sin(0.5 * x)
        t = np.concatenate([x[[0, 7, 29]], np.linspace(10.0, 20.0, 41)])
        p = quadrature._barycentric(x, w, f, t)
        assert (p[:3] == f[[0, 7, 29]]).all()
        assert np.allclose(p[3:], np.cos(t[3:]) + 1j * np.sin(0.5 * t[3:]), rtol=0, atol=1e-12)
        monkeypatch.setattr(quadrature, "_BARY_BLOCK", 4 * x.size)
        assert np.allclose(quadrature._barycentric(x, w, f, t), p, rtol=1e-14, atol=0)
        f[4] = math.nan
        q = quadrature._barycentric(x, w, f, t)
        assert (q[:3] == f[[0, 7, 29]]).all() and np.isnan(q[3:]).all()

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_barycentric_blocks_match_long_double(self, monkeypatch, rows):
        """Blocks of 1 row, 7 rows and the default ``_BARY_BLOCK``, the last
        block partial, with f a vector and a matrix of 3 columns: every
        value is within 1.5e-15 of max |f| of the second form summed in
        extended precision, and radii at the first and the last point take
        those samples.  That is the second form's own rounding: here it
        reads 1.06e-15, and up to 1.2e-15 over 5,000 radii; with the
        denominator summed pairwise apart from the product, as numpy's sum
        does, 0.71e-15 and 1.04e-15."""
        x, w = quadrature._chebyshev_window(-1.5, 2.5, 32)
        f = np.exp(1j * x[:, None] * [1.0, -3.0, 0.5]) * [1.0, 2.0, 0.3] + [0.0, 0.5j, 1.0]
        t = np.concatenate([x[[0, -1]], np.linspace(-1.5, 2.5, 1001)])
        if rows is not None:
            monkeypatch.setattr(quadrature, "_BARY_BLOCK", rows * x.size)
        assert rows == 1 or t.size % (quadrature._BARY_BLOCK // x.size) != 0
        with np.errstate(divide="ignore", invalid="ignore"):
            q = w.astype(np.longdouble) / (t.astype(np.longdouble)[:, None] - x)
            ref = (q @ f.astype(np.clongdouble)) / np.sum(q, axis=1)[:, None]
        ref[:2] = f[[0, -1]]
        for g, want in ((f, ref), (f[:, 1], ref[:, 1])):
            p = quadrature._barycentric(x, w, g, t)
            assert p.shape == want.shape
            assert (p[:2] == g[[0, -1]]).all()
            assert np.abs(p - want).max() <= 1.5e-15 * np.abs(g).max()

    def test_interpolant_uses_the_sampled_points(self):
        """The barycentric weights and differences r - x_j come from the
        Chebyshev points as rounded when they were sampled.  Textbook weights
        (-1)^j sin((2j+1) pi / 2m) against the unrounded points drift from
        the sweep by an amount that grows with r, to 1.2e-13 of the local
        envelope here; the sampled points give about 1.2e-14 at every r."""
        p = single(1.0, 0.5)
        grid = np.arange(1500.0, 2000.0, math.pi / 16)
        sw = hankel_sweep(p, grid)
        for i in range(5, grid.size, 41):
            ref = finite_hankel(p, float(grid[i])).value
            assert abs(sw[i] - ref) <= 3e-14 * self.envelope(sw, i), grid[i]

    def test_sparse_grid_is_swept_directly(self):
        """A grid with fewer radii per window than Chebyshev points gives
        bitwise what the direct per-term sweeps give on its radii: the
        contour sweep built at the smallest radius from the contour start
        (30) on, and the panel sweep of each window on node sets for that
        window's largest radius, or for _CUTOFF_MESH_R = 300 if that is
        larger and the profile has the cutoff.  The panel windows are
        predicted from the rule of ``_windowed``.  Below 30 the two-term
        profile's radii form one window, and from 30 on its 60 log-spaced
        radii put at most 21 in each contour window (b / a <= 4), under the
        32 points; the cutoff profile's radii, 4 apart, form 15, the first
        [41, 161] (r^-2 changes by at most 16 across it), the others up to
        128 wide."""
        rng = np.random.default_rng(3)
        spaced = rng.permutation(np.append(np.arange(11.0, 30.0, 4.0), np.geomspace(31.0, 2000.0, 60)))
        cfg = QuadratureConfig()
        tol = cfg.target_rel_tol
        for p, grid in ((self.MIXED, spaced),
                        (single(0.0, 1.0, vanishes_near_one=True), rng.permutation(np.arange(41.0, 2000.0, 4.0)))):
            seam, start = contour_start(p, cfg)
            assert start == (math.inf if p.vanishes_near_one else 30.0)
            on = grid >= start
            windows = self.windows(grid[~on], p.nu)
            assert len(windows) == (15 if p.vanishes_near_one else 1)
            expect = np.zeros(grid.size, dtype=np.complex128)
            for t in p.terms:
                if on.any():
                    ti = _TermIntegral(t.lam, t.rho, p.nu, float(np.min(grid[on])), False)
                    nl = quadrature._laguerre_nodes(tol) + 8
                    expect[on] += t.coeff * ti.steepest_descent(grid[on], seam, ((quadrature._NODES, nl),), tol)[0][0]
                for window in windows:
                    part = np.isin(grid, window)
                    mesh_r = float(window[-1])
                    if p.vanishes_near_one:
                        mesh_r = max(mesh_r, quadrature._CUTOFF_MESH_R)
                    ti = _TermIntegral(t.lam, t.rho, p.nu, mesh_r, p.vanishes_near_one)
                    expect[part] += t.coeff * self.panel_sweep_alone(ti, grid[part], tol)
            assert (hankel_sweep(p, grid) == expect).all()

    @pytest.mark.parametrize("profile", [MIXED, single(0.0, 1.0, vanishes_near_one=True)],
                             ids=["two_terms", "cutoff"])
    def test_outlier_leaves_the_other_radii_alone(self, profile):
        """An outlying radius changes no value at the others: every window
        builds its own panel mesh, and only windows that hold a radius are
        formed.  With one mesh for the grid's largest radius, every panel
        radius of [50, 300) plus r = 1e12 got a mesh for 1e12, and the
        edges of all 7.8e9 equal windows of that span were formed."""
        grid = np.arange(50.0, 300.0, 2.0)
        alone = hankel_sweep(profile, grid)
        with_outlier = hankel_sweep(profile, np.append(grid, 1e12))
        assert (with_outlier[:-1] == alone).all()
        assert np.isfinite(with_outlier[-1])

    @pytest.mark.parametrize("n,rs", [(30, (30.0, 38.0, 44.0)), (60, (50.0, 100.0, 150.0, 400.0))])
    def test_high_order_panel_radii(self, n, rs):
        """At n = 30 the radii below its seam, 45, and at n = 60, which has
        no seam, every radius, take the panel sweep.  With the
        double-precision series running up to 1.8 nu, radii 50, 70 and 89 at
        n = 30 were off by 5e-10 relative on that sweep, and those of n = 60
        by 4e-2 to 2.2, with no signal."""
        p = single(1.0, 1.5, n=n)
        for value, r in zip(hankel_sweep(p, np.array(rs)), rs):
            ref = mp_term_transform(1.0, 1.5, p.nu, r)
            assert abs(value - ref) <= 1e-12 * abs(ref), r

    @pytest.mark.parametrize("profile,radii", [
        (single(0.0, 1.0, vanishes_near_one=True), (40.0, 50.0, 59.0)),
        (single(1.0, 1.5, n=3), (4.0, 5.0, 5.7)),
        (single(1.0, 1.5, n=30), (50.0, 70.0, 89.0)),
        (single(1.0, complex(1.5, 0.4), n=60), (300.0, 350.0, 400.0)),
    ], ids=["nu0_cutoff", "nu0.5", "nu14", "nu29_complex_rho"])
    def test_panel_sweep_splits_at_the_expansion_start(self, profile, radii):
        """The panel sweep sums the oscillation panels past the double
        kernel's expansion start (their left edge at the smallest radius),
        rebuilt 8 periods wide with 40 nodes, from the large-argument
        expansion with the phase factored per panel, and the rest with the
        kernel itself.  Here r s straddles the expansion start (2 at
        nu = 1/2, 23.6 at nu = 0, 38 at nu = 14, 256 at nu = 29), and the
        sweep agrees with the plain matrix sum of every 12-node set of the
        evaluator's builder, J_nu at r s rounded once to double, within
        1e-14 of that sum's absolute mass."""
        (t,), nu, r = profile.terms, profile.nu, np.array(radii)
        tol, n = QuadratureConfig().target_rel_tol, quadrature._SWEEP_NODES
        ti = _TermIntegral(t.lam, t.rho, nu, float(r.max()), profile.vanishes_near_one)
        sets, _ = ti.node_sets(ti.build_mesh(), n, tol)
        first = np.asarray(sets[0].s[:, 0], dtype=np.float64) * r.min()
        assert first[0] < _expansion_start(nu, False) < first[-1]
        ref, mass = np.zeros(r.size, dtype=np.complex128), np.zeros(r.size)
        for ns in sets:
            x = (r.astype(np.longdouble)[:, None] * ns.s.ravel()).astype(np.float64)
            k = bessel_j_scaled_grid(nu, x) * r[:, None] ** nu if ns.scaled else bessel_j_grid(nu, x)
            terms = k * np.asarray(ns.w, dtype=np.complex128).ravel()
            ref += terms.sum(axis=1)
            mass += np.abs(terms).sum(axis=1)
        err = np.abs(self.panel_sweep_alone(ti, r, tol) - ref)
        assert (err <= 1e-14 * mass).all(), err / mass

    @given(lam=st.floats(-0.9, 3.0), rho=st.floats(0.1, 6.0), n=st.sampled_from([2, 3, 4]),
           radii=st.lists(st.floats(43.7, 2006.0), min_size=1, max_size=3))
    @settings(max_examples=6, deadline=None)
    # 8 periods at r = 300 span half the cutoff's ramp, and 40 nodes on
    # [1/3, 0.49] and [0.51, 2/3] read 0.26 and 0.38 of the estimate
    @example(lam=1.9601241744799922, rho=2.5067205809646804, n=2, radii=[314.5683797515288])
    @example(lam=2.142472676265992, rho=0.410153887429081, n=4, radii=[297.8279141788426])
    def test_cutoff_sweep_within_a_fifth_of_the_estimate(self, lam, rho, n, radii):
        """A cutoff profile's sweep, its oscillation panels past the double
        kernel's expansion start _WIDE_PERIODS periods wide with
        _WIDE_NODES nodes, and at most a quarter of the ramp, is within a
        fifth of finite_hankel's estimate + 1e-12 |F| at each radius."""
        p = single(lam, rho, n=n, vanishes_near_one=True)
        for value, r in zip(hankel_sweep(p, np.array(radii)), radii):
            res = finite_hankel(p, r)
            assert abs(value - res.value) <= 0.2 * res.error_estimate + 1e-12 * abs(res.value), r

    def test_turn_is_rounded_below_pi(self):
        """_cis_ld reduces a long-double phase modulo 2 pi before it rounds
        it to double, so on [-8 pi, 8 pi], the turns r h t of the sweep's
        wide panels, e^(i theta) is within 2.5e-16 of extended-precision
        cos and sin (3e-16 charged).  Rounded unreduced it is off by up to
        1.8e-15, which read 0.13 of finite_hankel's estimate on the cutoff
        (1.93, 3.96) at r = 1745.6, against 0.004."""
        theta = np.linspace(-8.0 * math.pi, 8.0 * math.pi, 20001).astype(np.longdouble) * np.longdouble(1 + 1e-10)
        turn = quadrature._cis_ld(theta)
        assert np.abs(turn.real - np.cos(theta)).max() <= 3e-16
        assert np.abs(turn.imag - np.sin(theta)).max() <= 3e-16

    def test_wide_panels_past_the_expansion_start(self):
        """Past the expansion start a cutoff mesh's panels are _WIDE_PERIODS
        periods wide, but at most a quarter of the ramp [1/3, 2/3]: at
        r = 2006 most are 8 periods wide, and at r = 300, where 8 periods
        are half the ramp, the ramp takes 5 panels, the first cut at 1/3.
        1/3 stays an edge, and the mesh ends where the default one does."""
        for mesh_r, lo, inside in ((300.0, 0.08, 4), (2006.0, 0.0126, 13)):
            ti = _TermIntegral(0.0, 1.0, 0.0, mesh_r, True)
            edges, wide = ti.build_mesh(), ti.build_mesh(quadrature._WIDE_PERIODS, lo)
            width = min(quadrature._WIDE_PERIODS * 2.0 * math.pi / mesh_r, 1.0 / 12.0)
            assert wide[0] == lo and wide[-1] == edges[-1] and 1.0 / 3.0 in wide
            assert np.diff(wide).max() == pytest.approx(width, rel=1e-12)
            assert np.count_nonzero((wide > 1.0 / 3.0) & (wide < 2.0 / 3.0)) == inside
        assert np.median(np.diff(wide)) == pytest.approx(width, rel=1e-12)

    def test_wide_mesh_run_has_one_half_width(self):
        """A wide mesh's panels of the full width are bitwise one width, so
        _asym_panel_sums forms the turns e^(i r h t) for one half-width
        there; only the graded panels, the two either side of 1/3 and the
        last one differ.  Built by repeated addition, the wide meshes of a
        C7 cutoff sweep had up to 9 distinct half-widths, 3 of them the
        full width."""
        for mesh_r, lo in ((300.0, 0.08), (1000.0, 0.0253), (2006.0, 0.0126)):
            ti = _TermIntegral(0.0, 1.0, 0.0, mesh_r, True)
            wide = ti.build_mesh(quadrature._WIDE_PERIODS, lo)
            _, hx, _ = quadrature._panel_nodes(wide, quadrature._WIDE_NODES)
            widths = np.diff(wide)
            full = widths[widths >= (1.0 - 1e-12) * widths.max()]
            assert full.size >= 4 and (full == widths.max()).all()
            assert np.unique(hx[:, -1]).size <= widths.size - full.size + 1

    # a C7 check's window-supremum grid: step pi/16 on [50 - 2 pi, 2000 + 2 pi]
    C7_GRID = np.arange(50.0 - 2.0 * math.pi, 2000.0 + 2.0 * math.pi + math.pi / 16, math.pi / 16)

    @staticmethod
    def wide_panels(lam, rho, n, cutoff, radii):
        """(nu, edges, weights) of the wide panels that panel_sweep sums with
        _asym_panel_sums for the window ``radii``, on the mesh hankel_sweep
        builds for it."""
        nu = n / 2.0 - 1.0
        mesh_r = max(float(np.max(radii)), quadrature._CUTOFF_MESH_R if cutoff else 0.0)
        ti = _TermIntegral(lam, rho, nu, mesh_r, cutoff)
        edges = ti.build_mesh()
        first = int(np.searchsorted(edges * float(np.min(radii)), _expansion_start(nu, False)))
        wide = ti.build_mesh(quadrature._WIDE_PERIODS, float(edges[first]))
        return nu, wide, ti._legendre(wide, quadrature._WIDE_NODES).w

    @pytest.mark.parametrize("block", [None, 999], ids=["default_block", "block_999"])
    @pytest.mark.parametrize("lam,rho,n,cutoff,radii", [
        (0.0, 1.0, 2, True, np.linspace(555.8, 683.6, 83)),
        (1.0, 1.5, 3, False, np.linspace(60.0, 180.0, 83)),
        (1.0, complex(1.5, 0.4), 4, True, np.linspace(299.8, 427.6, 83)),
        (0.3, 0.5, 7, False, np.linspace(100.0, 228.0, 83)),
        (1.0, 1.5, 30, False, np.linspace(44.0, 172.0, 83)),
        (2.0, 3.0, 2, False, np.array([1500.0])),
    ], ids=["nu0_cutoff", "nu0.5", "nu1_cutoff_complex_rho", "nu2.5", "nu14", "one_radius"])
    def test_asym_panel_sums_match_the_long_double_kernel(self, monkeypatch, lam, rho, n, cutoff, radii, block):
        """_asym_panel_sums, the expansion's m-sum carried by the nodes, is
        within 4 eps of sum_k |w_k| sqrt(2 / (pi r s_k)) of the direct sum
        of w_k J_nu(r s_k) with the extended-precision kernel at every
        (radius, node) pair.  The cases: a cutoff mesh whose several
        half-widths include the panels either side of 1/3; nu = 1/2, where
        the expansion terminates; a complex rho, whose weights take a column
        each for their real and imaginary parts; nu = 14 at the expansion
        start; one radius.  83 radii leave a partial last block of radii at
        the default budget, and a budget of 999 pairs splits every window
        into blocks of one panel with a partial last block.  It reads at
        most 0.13 eps, and 2.3 eps at nu = 14, where the node sums of the
        expansion's first terms reach 14 times that mass (0.64 eps summed
        per pair as P and Q)."""
        if block is not None:
            monkeypatch.setattr(quadrature, "_ASYM_BLOCK", block)
        nu, wide, w = self.wide_panels(lam, rho, n, cutoff, radii)
        mid, hx, _ = quadrature._panel_nodes(wide, quadrature._WIDE_NODES)
        if cutoff:
            assert 1.0 / 3.0 in wide and np.unique(hx[:, -1]).size >= 4
        x = radii.astype(np.longdouble)[:, None] * (mid + hx).ravel()
        ref = bessel_j_grid(nu, x.ravel(), longdouble=True).reshape(x.shape) @ w.ravel()
        mass = (np.sqrt(2.0 / (np.pi * x)) @ np.abs(w.ravel())).astype(np.float64)
        sums = quadrature._asym_panel_sums(nu, radii, wide, w)
        err = np.abs(sums - ref.astype(np.complex128))
        assert (err <= 4.0 * np.finfo(np.float64).eps * mass).all(), (err / mass).max()

    @pytest.mark.parametrize("lo,count", [(1964.0, 55), (1878.5, 83)])
    def test_asym_panel_sums_temporaries_are_bounded(self, lo, count):
        """A warm _asym_panel_sums call on the widest window of a C7 cutoff
        check, 55 or 83 radii up to 2006.3 on its mesh of 29 wide panels
        (1,160 nodes), allocates at most 512 KiB at its peak: no block holds
        more than _ASYM_BLOCK pairs, so no temporary grows with radii x
        nodes, 1.5 MiB of complex pairs at 83 radii.  It reads 348 and
        385 KiB; evaluated per (radius, node) pair in blocks of 2^14 pairs,
        1.4 MiB."""
        radii = np.linspace(lo, 2006.3, count)
        nu, wide, w = self.wide_panels(0.0, 1.0, 2, True, radii)
        assert w.size == 1160
        quadrature._asym_panel_sums(nu, radii, wide, w)
        tracemalloc.start()
        try:
            quadrature._asym_panel_sums(nu, radii, wide, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024, peak

    def test_middle_edges_match_the_stepping_loop(self, monkeypatch):
        """_middle_edges, its uniform run one np.add.accumulate, gives bitwise
        the edges of stepping every edge (middle_edges_by_steps) on every
        mesh the evaluator builds at r from 0.5 to 1e6, with and without the
        cutoff, on the 32 meshes of a C7 cutoff check's sweep, the wide ones
        with their 2^-52 quantum, and on 2,000 random meshes, half of them
        with the quantum and some with a forced edge."""
        calls, build = [], quadrature._middle_edges
        monkeypatch.setattr(quadrature, "_middle_edges", lambda *a: calls.append(a) or build(*a))
        for cutoff in (False, True):
            for r in (0.5, 3.0, 30.0, 300.0, 2006.0, 1e4, 1e6):
                finite_hankel(single(0.5, 2.0, vanishes_near_one=cutoff), r)
        evaluator = len(calls)
        hankel_sweep(single(0.0, 1.0, vanishes_near_one=True), self.C7_GRID)
        assert len(calls) - evaluator == 32 and any(a[4] for a in calls[evaluator:])
        rng = np.random.default_rng(11)
        for _ in range(2000):
            lo = float(rng.uniform(1e-4, 0.5))
            hi = float(rng.choice([1.0, 2.0 / 3.0, rng.uniform(lo, 1.0)]))
            osc, quantum = 10 ** rng.uniform(-4, -0.5), 0.0
            if rng.random() < 0.5:
                quantum = 2.0**-52
                osc = math.floor(osc / quantum) * quantum
            calls.append((lo, hi, float(osc), (1.0 / 3.0,) if rng.random() < 0.3 else (), quantum))
        for args in calls:
            edges, want = build(*args), middle_edges_by_steps(*args)
            assert edges.shape == want.shape and (edges == want).all(), args

    def test_one_kernel_call_per_node_kind(self, monkeypatch):
        """A sweep's panel path builds the node sets of every window and term
        first, and then makes one bessel_j_grid call and one
        bessel_j_scaled_grid call over all of them: their arguments and
        values are, bitwise, those of one _kernel_matrices pass per window
        and term.  With a budget of 2^12 (radius, node) pairs no call holds more,
        and the sweep moves by at most 1e-15 of its largest |F|."""
        calls = []
        for name in ("bessel_j_grid", "bessel_j_scaled_grid"):
            def recorded(nu, x, kernel=getattr(quadrature, name), name=name):
                calls.append((name, x.copy(), kernel(nu, x)))
                return calls[-1][2]
            monkeypatch.setattr(quadrature, name, recorded)
        p = RadialProfile(3, self.MIXED.terms, vanishes_near_one=True)
        grid, tol = np.arange(41.0, 2000.0, 4.0), QuadratureConfig().target_rel_tol
        sw = hankel_sweep(p, grid)
        batched = calls[:]
        assert [name for name, *_ in batched] == ["bessel_j_grid", "bessel_j_scaled_grid"]
        calls.clear()
        for window in self.windows(grid, p.nu):
            for t in p.terms:
                ti = _TermIntegral(t.lam, t.rho, p.nu, max(float(window[-1]), quadrature._CUTOFF_MESH_R), True)
                _, sets = ti.panel_sweep(window, quadrature._SWEEP_NODES, tol)
                quadrature._kernel_matrices(p.nu, [(window, ns.s.ravel(), ns.scaled) for ns in sets])
        for name, x, k in batched:
            alone = [c for c in calls if c[0] == name]
            assert (np.concatenate([c[1] for c in alone]) == x).all()
            assert (np.concatenate([c[2] for c in alone]) == k).all()
        calls.clear()
        monkeypatch.setattr(quadrature, "_SWEEP_ELEMS", 1 << 12)
        small = hankel_sweep(p, grid)
        assert len(calls) > 2 and max(x.size for _, x, _ in calls) <= 1 << 12
        assert np.abs(small - sw).max() <= 1e-15 * np.abs(sw).max()

    @pytest.mark.parametrize("lam,rho", [(2.5, 3.0), (0.0, 0.5)])
    def test_sub_seam_radii_of_the_window_check(self, lam, rho):
        """The window check's grid (step pi/16 on [43.7, 2006.6]) lies above
        the contour start, 30, so its 83 radii below 60, once a panel window
        swept at 49 Chebyshev points, take the contour sweep.  Every one of
        them is within finite_hankel's estimate + 1e-12 |F|; the
        double-precision series on the mesh for r = 2006 missed that by up
        to 3.8x at (2.5, 3)."""
        p = single(lam, rho)
        grid = np.arange(50.0 - 2.0 * math.pi, 2000.0 + 2.0 * math.pi + math.pi / 16, math.pi / 16)
        sw = hankel_sweep(p, grid)
        for i in np.nonzero(grid < 60.0)[0]:
            res = finite_hankel(p, float(grid[i]))
            assert abs(sw[i] - res.value) <= res.error_estimate + 1e-12 * abs(res.value), grid[i]


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(target_rel_tol=2.0)

    def test_determinism(self):
        """Bitwise the same results whatever the cached rules and tables of
        quadrature and specfun hold: nothing, this profile's from another
        radius, or those of other profiles of the same order."""
        p = single(0.5, 6.0)
        tables = {f for module in (quadrature, specfun) for f in vars(module).values() if hasattr(f, "cache_clear")}

        def evaluate():
            return finite_hankel(p, 321.0), iterated_transform(p, 1, 321.0)

        for table in tables:
            table.cache_clear()
        cold = evaluate()
        assert evaluate() == cold
        warmers = (
            lambda: (finite_hankel(p, 1234.5), iterated_transform(p, 1, 77.7)),
            # the same Re lam + nu, so the same origin-rule tables
            lambda: (finite_hankel(single(0.5, 2.0), 4000.0), iterated_transform(single(0.5, 3.0), 1, 650.0)),
            lambda: (finite_hankel(single(complex(-0.4, 0.3), 2.5), 500.0), finite_hankel(single(1.5, 6.0), 900.0)),
        )
        for warm in warmers:
            for table in tables:
                table.cache_clear()
            warm()
            assert evaluate() == cold


class TestGradedTails:
    """Complex exponents near their domain edge: the graded rules add the
    leading term of the discarded end piece in closed form."""

    @pytest.mark.parametrize("lam,rho,n", PROBE_ORIGIN)
    @pytest.mark.parametrize("r", [11.1, 40.7, 212.6, 5386.9])
    def test_origin(self, lam, rho, n, r):
        """Leading terms of two benchmark probe profiles, which used to be off
        by 2e-4 relative at every radius with an estimate claiming 1e-14."""
        res = finite_hankel(single(lam, rho, n=n), r)
        ref = mp_term_transform(lam, rho, n / 2.0 - 1.0, r)
        err = abs(res.value - ref)
        assert err <= 1e-12 * abs(ref)
        assert err <= res.error_estimate

    @pytest.mark.parametrize("r", [0.5, 9.75, 25.5, 59.0])
    def test_boundary(self, r):
        """Re(rho) = 0.041 below the seam: this used to hit the depth cap and
        return 2e-8 relative errors under uncertified 1e-6 estimates."""
        lam, rho, n = PROBE_BOUNDARY
        res = finite_hankel(single(lam, rho, n=n), r)
        ref = mp_term_transform(lam, rho, n / 2.0 - 1.0, r)
        err = abs(res.value - ref)
        assert err <= 1e-12 * abs(ref)
        assert err <= res.error_estimate <= 1e-10 * abs(ref)


class TestSteepestDescent:
    def test_warm_call_evaluates_no_kernel(self, monkeypatch):
        """The seam zone is the origin ladder in closed form, and the edge
        legs take the Hankel expansion, so a contour-path call evaluates no
        Bessel kernel, with every cache cold or warm, on one radius or a
        grid, for real and complex exponents."""
        calls = []
        for module in (quadrature, specfun):
            for name in ("bessel_j_grid", "bessel_j_scaled_grid"):
                kernel = getattr(module, name)

                def counted(*args, kernel=kernel, **kwargs):
                    calls.append(args[0])
                    return kernel(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        for f in {f for module in (quadrature, specfun) for f in vars(module).values() if hasattr(f, "cache_clear")}:
            f.cache_clear()
        for p in (single(0.5, 6.0), single(complex(-0.4, 0.3), 2.5, n=3), single(1.0, complex(1.5, 0.4), n=4)):
            finite_hankel(p, 500.0)
            finite_hankel(p, 2000.0)
            _finite_hankel_grid(p, np.geomspace(60.0, 1e4, 9), QuadratureConfig())
        assert calls == []

    def test_path_follows_seam(self):
        """Contours from the contour start on, panels below it and for
        cutoff profiles at every r.  For (1, 3.5) the start is the seam, 30;
        for (30, 61.5) it is raised past 60, where the edge legs' Laguerre
        rule cannot resolve that term."""
        cfg = QuadratureConfig()
        seam = _seam_phase(0.0, cfg.target_rel_tol)
        assert seam == 30.0
        assert quadrature._contour_start([(1.0, 1.0, 3.5)], 0.0, False, cfg) == (seam, seam)
        assert quadrature._contour_start([(1.0, 1.0, 3.5)], 0.0, True, cfg) == (None, math.inf)
        assert quadrature._contour_start([(1.0, 1.0, 3.5), (1.0, 30.0, 61.5)], 0.0, False, cfg)[1] > 60.0
        for lam, rho, r, cutoff, contour in ((1.0, 3.5, 30.0, False, True), (1.0, 3.5, 29.9, False, False),
                                             (1.0, 3.5, 1000.0, True, False), (30.0, 61.5, 60.0, False, False)):
            ti = _TermIntegral(lam, rho, 0.0, r, cutoff)
            if contour:
                (value,), (estimate,), _ = _transform([(1.0, lam, rho)], 0.0, np.array([r]), cutoff, cfg)
                fine = ti.steepest_descent(np.array([r]), seam, ((_NODES, _laguerre_nodes(cfg.target_rel_tol) + 8),),
                                           cfg.target_rel_tol)[0][0]
                assert value == fine[0]
            else:
                value, estimate, _ = _panel_path([ti], ti.nu, ti.r, cfg.target_rel_tol)[0]
            res = finite_hankel(single(lam, rho, vanishes_near_one=cutoff), r)
            assert (res.value, res.error_estimate) == (value, estimate)
            # plain Python numbers on either path, as QuadratureResult declares
            assert (type(res.value), type(res.error_estimate)) == (complex, float)

    @pytest.mark.parametrize("lam,rho,r,panel_err", [
        (20.0, 41.5, 60.0, 1.6e-15), (30.0, 31.5, 60.0, 2.0e-15), (30.0, 61.5, 100.0, 3.9e-13),
    ])
    def test_large_exponents_stay_on_panels(self, lam, rho, r, panel_err):
        """Terms whose exponents the edge legs' Laguerre rule cannot resolve
        keep the panel path past twice the seam.  On the contour path these
        were off by 9.5e-6, 6.7e-5 and 0.28 relative, under estimates of
        2.4e3, 1.8e3 and 6.6e4; on panels they are within their estimates
        and read panel_err relative.  The first two are certified.  At
        (30, 61.5), r = 100, |F| is about 1e-9 of the integrand's absolute
        mass, and the panels' rounding charge on that mass leaves the
        estimate at 7.4e-9 relative, uncertified."""
        res = finite_hankel(single(lam, rho), r)
        ref = mp_term_transform(lam, rho, 0.0, r)
        assert abs(res.value - ref) <= res.error_estimate
        assert abs(res.value - ref) <= 10.0 * panel_err * abs(ref)
        if rho < 60.0:
            assert res.error_estimate <= QuadratureConfig().target_rel_tol * abs(res.value)

    @pytest.mark.parametrize("n", [2, 4, 39, 43])
    @pytest.mark.parametrize("lam,rho", [(0.5, 2.5), (22.0, 1.5), (1.0, 1.0)])
    @pytest.mark.parametrize("factor", [1.01, 1.5])
    def test_at_the_new_start(self, n, lam, rho, factor):
        """Just above the seam and at 1.5 seam, once panel radii: error within
        the estimate, and certified.  At n = 39 and 43 the Hankel expansion
        terminates, so the seam is 30 and the edge legs sit at |z| = 30,
        where the expansion's rounding is largest."""
        nu, cfg = n / 2.0 - 1.0, QuadratureConfig()
        seam = _seam_phase(nu, cfg.target_rel_tol)
        assert seam == 30.0
        r = factor * seam
        res = finite_hankel(single(lam, rho, n=n), r)
        ref = mp_term_transform(lam, rho, nu, r)
        assert abs(res.value - ref) <= res.error_estimate <= cfg.target_rel_tol * abs(res.value)

    @pytest.mark.parametrize("lam,rho,n,radii", [
        (0.5, 6.0, 2, (500.0,)),
        (complex(-0.4, 0.3), 2.5, 2, (321.0,)),
        (1.0, complex(1.5, 0.4), 3, (77.0,)),
        (1.3, 0.6, 3, (61.0, 1800.0)),
        # the fine rule's first edge node sits closer to tau = 0, so the
        # shared Hankel call reaches a smaller |z| than the coarse rule's own
        (0.2, 0.07, 4, (61.0,)),
    ], ids=["real", "complex_lam", "complex_rho", "two_radii", "rho_near_0"])
    def test_fused_rules_match_single_rule_calls(self, lam, rho, n, radii):
        """Each rule of the evaluator's two-rule call returns what a call
        with that rule alone returns: values, bounds, panels and parts,
        bitwise.  The seam zone, the first row of the parts, is
        ``origin_ladder``'s, the same for every rule.  The one allowed
        exception is the coarse rule's edge legs where their shared
        ``hankel_scaled_grid`` call, at the smallest |z| of both rules'
        nodes, takes other expansion terms or another omitted-term bound
        than the coarse nodes alone would; there it stays within 1e-3 of
        the evaluator's estimate."""
        tol = QuadratureConfig().target_rel_tol
        nu, nl = n / 2.0 - 1.0, _laguerre_nodes(tol)
        seam = _seam_phase(nu, tol)
        r = np.array(radii)
        assert r.min() >= contour_start(single(lam, rho, n=n))[1]
        ti = _TermIntegral(lam, rho, nu, float(r.min()), False)
        rules = ((_NODES, nl + 8), (_NODES // 2, nl))
        both = ti.steepest_descent(r, seam, rules, tol)
        (fine, bound, _, _), (coarse, _, _, _) = both
        estimate = np.abs(fine - coarse) + bound
        edge = [ti._edge_rule(k, m, tol)[0] for m, k in rules]

        def terms(x):
            """_asym_terms as hankel_scaled_grid takes it on edge nodes x."""
            return _asym_terms(nu, float(np.min(np.abs(r[:, None] + 1j * x))), math.ceil(nu - 0.5))

        zone = ti.origin_ladder(r, seam, tol)[0]
        for k, rule in enumerate(rules):
            (value, bnd, panels, parts), = ti.steepest_descent(r, seam, (rule,), tol)
            assert both[k][2] == panels
            assert np.array_equal(both[k][3][0], zone) and np.array_equal(parts[0], zone)
            for got, alone in zip((both[k][0], both[k][1], both[k][3]), (value, bnd, parts)):
                if not np.array_equal(got, alone):
                    assert k == 1 and terms(edge[1]) != terms(np.concatenate(edge))
                    assert (np.abs(got - alone) <= 1e-3 * estimate).all()

    @given(
        st.floats(0.05, 4.0),
        st.one_of(st.just(0.0), st.floats(-0.3, 0.3)),
        st.floats(0.05, 8.0),
        st.one_of(st.just(0.0), st.floats(-0.3, 0.3)),
        st.sampled_from([2, 3, 4]),
        st.floats(math.log(30.0), math.log(1e4)),
    )
    # Re lam below nu - 1, where the origin ladder is S's analytic continuation
    @example(0.6, 0.0, 0.7, 0.0, 4, math.log(60.0))
    @example(0.4, 0.2, 1.5, 0.3, 3, math.log(500.0))
    @settings(max_examples=6, deadline=None)
    def test_agrees_with_panels_and_oracle(self, gap, lam_im, rho_re, rho_im, n, log_r):
        """The contour path agrees with the panel path within both
        estimates, and with the closed form within its own, for real and
        complex exponents and Re lam on either side of nu - 1."""
        nu = n / 2.0 - 1.0
        lam = complex(gap - 1.0 - nu, lam_im)
        rho = complex(rho_re, rho_im)
        r = max(math.exp(log_r), 30.0)  # exp(log(30)) rounds to just below the contour path
        cfg = QuadratureConfig()
        ti = _TermIntegral(lam, rho, nu, r, False)
        (a,), (est_a,), _ = _transform([(1.0, lam, rho)], nu, np.array([r]), False, cfg)
        b, est_b, _ = _panel_path([ti], ti.nu, ti.r, cfg.target_rel_tol)[0]
        assert abs(a - b) <= est_a + est_b
        assert abs(a - mp_term_transform(lam, rho, nu, r)) <= est_a


class TestOriginLadder:
    """The seam zone S (the origin zone and the contours from a) is the
    origin ladder's sum in closed form, within the remainder bound B_K."""

    @pytest.mark.parametrize("lam,rho,n,r", [(1.0, 11.0, 2, 3000.0), (1.0, 3.5, 2, 1000.0), (2.0, 4.0, 4, 500.0)])
    def test_excluded_ladder_leaves_the_edge_legs(self, lam, rho, n, r):
        """Where (lam - nu - 1)/2 is a nonnegative integer, S is 0 with no
        bound, so F is the edge legs alone and nothing cancels.  At
        (1, 11), n = 2, r = 3000, |F| = 2.5e-31, and S's quadrature, with a
        cancelling mass of 2.4e-7, returned about 5e-23 under an estimate
        of 1.5e-20; at the other two it was off by 5e-11 and 1.5e-11
        relative, uncertified."""
        nu, tol = n / 2.0 - 1.0, QuadratureConfig().target_rel_tol
        zone, bound = _TermIntegral(lam, rho, nu, r, False).origin_ladder(np.array([r]), _seam_phase(nu, tol), tol)
        assert zone[0] == 0 and bound[0] == 0
        res = finite_hankel(single(lam, rho, n=n), r)
        ref = mp_term_transform(lam, rho, nu, r)
        assert abs(res.value - ref) <= 1e-12 * abs(ref)
        assert abs(res.value - ref) <= res.error_estimate <= tol * abs(res.value)

    @pytest.mark.parametrize("lam,rho,n", [
        (0.5, 2.5, 3), (complex(1.3, 0.2), 0.6, 3), (2.877, 3.697, 3),
        # Re lam < nu - 1: the ladder is S's analytic continuation in lam
        (-1.4, 0.7, 4),
    ])
    def test_bound_covers_the_tail(self, lam, rho, n):
        """B_K bounds S - sum_(k<K) T_k at r = 60 for the two smallest
        admissible K, and nearly attains it.  The tail is
        (2/pi) cos(pi (lam - nu)/2) C(rho-1, K) times the integral of
        tau^(lam+2K) 2F1(K+1-rho, 1; K+1; -tau^2) K_nu(r tau) over (0, inf),
        the binomial's remainder in closed form, here through the Pfaff
        transformation, integrated in mpmath up to 120 / r.  Both K give
        the same S, and origin_ladder is within its bound of it."""
        nu, r, tol = n / 2.0 - 1.0, 60.0, QuadratureConfig().target_rel_tol
        ti = _TermIntegral(lam, rho, nu, r, False)
        kmin = max(0, math.ceil(complex(rho).real - 1.0), math.floor((nu - 1.0 - complex(lam).real) / 2.0) + 1)
        with mp.workdps(20):
            lm, rh, nm, rr = mp.mpc(lam), mp.mpc(rho), mp.mpf(nu), mp.mpf(r)

            def term(k):
                mu = lm + 2 * k
                return (mp.binomial(rh - 1, k) * (-1) ** k * 2 ** mu * mp.gamma((nm + mu + 1) / 2)
                        * mp.rgamma((nm - mu + 1) / 2) * rr ** (-mu - 1))

            totals = []
            for k in (kmin, kmin + 1):
                with mp.workdps(15):
                    f = lambda t: (t ** (lm + 2 * k) / (1 + t * t) * mp.hyp2f1(rh, 1, k + 1, t * t / (1 + t * t))
                                   * mp.besselk(nm, rr * t))
                    tail = complex(2 / mp.pi * mp.cos(mp.pi * (lm - nm) / 2) * mp.binomial(rh - 1, k)
                                   * mp.quad(f, [0, 8 / rr, 40 / rr, 120 / rr]))
                bound = float(ti._ladder_bound(k, r))
                assert 0.9 * bound <= abs(tail) <= bound, k
                totals.append(complex(sum(term(j) for j in range(k))) + tail)
        assert abs(totals[1] - totals[0]) <= 1e-13 * abs(totals[0])
        value, estimate = ti.origin_ladder(np.array([r]), _seam_phase(nu, tol), tol)
        assert abs(value[0] - totals[0]) <= estimate[0]


class TestGrid:
    """The grid evaluator against one radius at a time, on grids that
    straddle the seam, 30, where the contour path starts."""

    def test_profile_within_point_estimates(self):
        """The contour radii share one path built at the smallest of them,
        so they move within their one-radius estimates; the estimates
        themselves stay close (0.987-1.004x on this grid)."""
        p = RadialProfile(3, (ProfileTerm(coeff=1, lam=0.5, rho=2.5),
                              ProfileTerm(coeff=1, lam=complex(1.3, 0.2), rho=0.6)))
        grid = np.geomspace(5.0, 2000.0, 200)
        values, estimates, panels = _finite_hankel_grid(p, grid, QuadratureConfig())
        for r, value, estimate, used in zip(grid.tolist(), values, estimates, panels):
            res = finite_hankel(p, r)
            assert abs(value - res.value) <= res.error_estimate, r
            assert 0.5 * res.error_estimate <= estimate <= 2.0 * res.error_estimate, r
            assert used == res.panels_used

    def test_cutoff_profile_is_point_by_point(self):
        """A cutoff profile takes panels at every radius, one at a time."""
        p = single(1.0, 3.5, n=3, vanishes_near_one=True)
        grid = np.geomspace(5.0, 2000.0, 8)
        values, estimates, panels = _finite_hankel_grid(p, grid, QuadratureConfig())
        for r, value, estimate, used in zip(grid.tolist(), values, estimates, panels):
            res = finite_hankel(p, r)
            assert (value, estimate, used) == (res.value, res.error_estimate, res.panels_used)

    def test_iterated_transform(self):
        p = single(1.0, 7.0, n=3)
        shift, nu = 2, p.nu
        terms = [(c, nu + shift + 1.0 + 2.0 * beta, gama + 1.0)
                 for c, beta, gama in _derivative_power_terms(p, shift)]
        grid = np.geomspace(5.0, 2000.0, 24)
        values, _, _ = _transform(terms, nu + shift, grid, False, QuadratureConfig())
        for r, value in zip(grid.tolist(), values):
            res = iterated_transform(p, shift, r)
            assert abs(value - res.value) <= res.error_estimate, r
