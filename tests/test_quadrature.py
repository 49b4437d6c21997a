"""Quadrature oracle: closed-form identities, frozen references, estimates."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finhankel import quadrature
from finhankel.asymptotics import evaluate_prediction, predict
from finhankel.errors import DomainError, SmoothnessBudgetError, check_radii, check_radius
from finhankel.profiles import ProfileTerm, RadialProfile
from finhankel.quadrature import (
    _NODES,
    QuadratureConfig,
    _derivative_power_terms,
    _finite_hankel_grid,
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
from finhankel.specfun import bessel_j

from oracles import mp_term_transform


def single(lam, rho, n=2, c=1, **kw):
    return RadialProfile(n, (ProfileTerm(coeff=c, lam=lam, rho=rho),), **kw)


def sonine_rhs(nu, alpha, r):
    return 2.0 ** alpha * math.gamma(alpha + 1.0) * r ** -(alpha + 1.0) * bessel_j(
        nu + alpha + 1.0, r
    )


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
        """An unsorted grid across 2 seam = 60: every radius takes
        finite_hankel's path and lands in its own slot."""
        grid = np.array([75.0, 41.0, 59.9, 60.0, 60.1, 1800.0, 44.0])
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
        (single(0.0, 1.0, n=3), 40.0, 200.0, 0.5),  # windows either side of 2 seam = 60
        # near r = 0 windows are narrowed until r^-(nu + 2) changes by at
        # most 16 across each, and most of them hold too few radii to sample
        (single(0.0, 1.0, n=5), math.pi / 16, 30.0, 1.0),
        (single(0.0, 1.0, vanishes_near_one=True), 50.0, 400.0, 0.5),
        (single(1.0, complex(1.5, 0.4)), 300.0, 500.0, 0.5),
        (MIXED, 1000.0, 1300.0, 0.5),
        # r^nu changes by a factor of 9e9 across [pi/16, 60) at n = 10
        (single(1.0, 1.5, n=10), math.pi / 16, 200.0, 0.5),
        (single(1.0, 1.5, n=10), 43.7, 300.0, 0.5),
    ], ids=["across_seam", "near_origin", "cutoff", "complex_rho", "two_terms",
            "n10_near_origin", "n10"])
    def test_dense_grid_is_interpolated(self, profile, lo, hi, share, monkeypatch):
        """On a grid of step pi/16 the windows are swept at their Chebyshev
        points, and the interpolant agrees with finite_hankel and with the
        closed form; the per-term sweeps are given under share of the grid's
        radii.  On the panel path (r < 60 and cutoff profiles) this bound
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
        monkeypatch.setattr(quadrature, "_WINDOW_MARGIN", 10**9)  # no window is sampled
        direct = hankel_sweep(p, grid)
        for i in range(grid.size):
            assert abs(sw[i] - direct[i]) <= 3e-12 * self.envelope(direct, i), grid[i]
        for start in (grid.size // 6, grid.size // 2, 5 * grid.size // 6):
            i = start + int(np.argmax(np.abs(sw[start : start + 32])))
            ref = mp_term_transform(1.0, 1.5, p.nu, float(grid[i]))
            assert abs(sw[i] - ref) <= 1e-12 * abs(ref), grid[i]

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_windows_bound_the_power_of_r(self, n, monkeypatch):
        """Each sampled window [a, b] keeps (b / a)^(nu + 2) within
        _WINDOW_RANGE and b - a within _WINDOW, on the contour and the panel
        path alike, and its ends are radii of the grid: the interval that
        is interpolated is the span of the radii it serves."""
        spans = []
        window = quadrature._chebyshev_window

        def recorded(lo, hi, m):
            spans.append((lo, hi))
            return window(lo, hi, m)

        monkeypatch.setattr(quadrature, "_chebyshev_window", recorded)
        p = single(1.0, 1.5, n=n)
        grid = np.arange(math.pi / 16, 400.0, math.pi / 16)
        hankel_sweep(p, grid)
        assert spans
        for lo, hi in spans:
            assert (hi / lo) ** (p.nu + 2) <= quadrature._WINDOW_RANGE * (1 + 1e-12), (lo, hi)
            assert hi - lo <= quadrature._WINDOW, (lo, hi)
            assert lo in grid and hi in grid, (lo, hi)

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
        monkeypatch.setattr(quadrature, "_SWEEP_ELEMS", 4 * x.size)
        assert np.allclose(quadrature._barycentric(x, w, f, t), p, rtol=1e-14, atol=0)
        f[4] = math.nan
        q = quadrature._barycentric(x, w, f, t)
        assert (q[:3] == f[[0, 7, 29]]).all() and np.isnan(q[3:]).all()

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
        contour sweep built at the smallest radius from 2 seam = 60 on, and
        the panel sweep of each window on node sets for that window's
        largest radius, or for _CUTOFF_MESH_R = 300 if that is larger and
        the profile has the cutoff.  The windows are predicted from the
        rule of ``_windowed``.  Below 60 the two-term profile's radii form
        one window; the cutoff profile's radii form 15, the first [41, 161]
        (r^-2 changes by at most 16 across it), the others up to 128 wide."""
        grid = np.random.default_rng(3).permutation(np.arange(41.0, 2000.0, 4.0))
        cfg = QuadratureConfig()
        tol = cfg.target_rel_tol
        for p in (self.MIXED, single(0.0, 1.0, vanishes_near_one=True)):
            seam = quadrature._contour_seam(p.nu, p.vanishes_near_one, cfg)
            on = np.zeros(grid.size, dtype=bool) if seam is None else grid >= 2.0 * seam
            windows = self.windows(grid[~on], p.nu)
            assert len(windows) == (15 if p.vanishes_near_one else 1)
            expect = np.zeros(grid.size, dtype=np.complex128)
            for t in p.terms:
                if on.any():
                    ti = _TermIntegral(t.lam, t.rho, p.nu, float(np.min(grid[on])), False)
                    nl = quadrature._laguerre_nodes(tol) + 8
                    expect[on] += t.coeff * ti.steepest_descent(grid[on], seam, quadrature._NODES, nl, tol)[0]
                for window in windows:
                    part = np.isin(grid, window)
                    mesh_r = float(window[-1])
                    if p.vanishes_near_one:
                        mesh_r = max(mesh_r, quadrature._CUTOFF_MESH_R)
                    ti = _TermIntegral(t.lam, t.rho, p.nu, mesh_r, p.vanishes_near_one)
                    expect[part] += t.coeff * ti.panel_sweep(grid[part], quadrature._SWEEP_NODES, tol)
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

    @pytest.mark.parametrize("n,rs", [(30, (50.0, 70.0, 89.0)), (60, (50.0, 100.0, 150.0, 400.0))])
    def test_high_order_panel_radii(self, n, rs):
        """At n = 30 the radii below 2 seam = 90, and at n = 60, which has no
        seam, every radius, take the panel sweep.  With the double-precision
        series running up to 1.8 nu, these were off by 5e-10 relative at
        n = 30, and by 4e-2 to 2.2 at n = 60, with no signal."""
        p = single(1.0, 1.5, n=n)
        for value, r in zip(hankel_sweep(p, np.array(rs)), rs):
            ref = mp_term_transform(1.0, 1.5, p.nu, r)
            assert abs(value - ref) <= 1e-12 * abs(ref), r

    @pytest.mark.parametrize("lam,rho", [(2.5, 3.0), (0.0, 0.5)])
    def test_sub_seam_radii_of_the_window_check(self, lam, rho):
        """The window check's grid (step pi/16 on [43.7, 2006.6]) below
        2 seam = 60 is one window of 83 radii, swept at 49 Chebyshev points
        on a mesh built for about 60.  Every one of those radii is within
        finite_hankel's estimate + 1e-12 |F|; the double-precision series
        on the mesh for r = 2006 missed that by up to 3.8x at (2.5, 3)."""
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
        """Bitwise the same results whatever the contour path's kernel tables
        hold: nothing, this profile's tables from another radius, or those
        of another profile of the same order."""
        p = single(0.5, 6.0)
        tables = (quadrature._phase_panels, quadrature._phase_origin, quadrature._seam_hankel)

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
        """The origin zone is built in x = r s from per-order tables, so once
        a profile has been evaluated on the contour path, another radius
        there calls no Bessel kernel."""
        calls = []
        for name in ("bessel_j_grid", "bessel_j_scaled_grid"):
            kernel = getattr(quadrature, name)

            def counted(*args, kernel=kernel, **kwargs):
                calls.append(args[0])
                return kernel(*args, **kwargs)

            monkeypatch.setattr(quadrature, name, counted)
        p = single(0.5, 6.0)
        finite_hankel(p, 500.0)
        calls.clear()
        finite_hankel(p, 2000.0)
        assert calls == []

    def test_path_follows_seam(self):
        """Contours from r = 2 * seam on, panels below it and for cutoff
        profiles at every r."""
        cfg = QuadratureConfig()
        seam = _seam_phase(0.0, cfg.target_rel_tol)
        assert seam == 30.0
        for r, cutoff, contour in ((60.0, False, True), (59.0, False, False), (1000.0, True, False)):
            ti = _TermIntegral(1.0, 3.5, 0.0, r, cutoff)
            if contour:
                (value,), (estimate,), _ = _transform([(1.0, 1.0, 3.5)], 0.0, np.array([r]), cutoff, cfg)
                fine = ti.steepest_descent(np.array([r]), seam, _NODES, _laguerre_nodes(cfg.target_rel_tol) + 8,
                                           cfg.target_rel_tol)[0]
                assert value == fine[0]
            else:
                value, estimate, _ = _panel_path([ti], ti.nu, ti.r, cfg.target_rel_tol)[0]
            res = finite_hankel(single(1.0, 3.5, vanishes_near_one=cutoff), r)
            assert (res.value, res.error_estimate) == (value, estimate)
            # plain Python numbers on either path, as QuadratureResult declares
            assert (type(res.value), type(res.error_estimate)) == (complex, float)

    @given(
        st.floats(0.05, 4.0),
        st.one_of(st.just(0.0), st.floats(-0.3, 0.3)),
        st.floats(0.05, 8.0),
        st.one_of(st.just(0.0), st.floats(-0.3, 0.3)),
        st.sampled_from([2, 3, 4]),
        st.floats(math.log(60.0), math.log(1e4)),
    )
    @settings(max_examples=6, deadline=None)
    def test_agrees_with_panels_and_oracle(self, gap, lam_im, rho_re, rho_im, n, log_r):
        nu = n / 2.0 - 1.0
        lam = complex(gap - 1.0 - nu, lam_im)
        rho = complex(rho_re, rho_im)
        r = max(math.exp(log_r), 60.0)  # exp(log(60)) rounds to just below the contour path
        cfg = QuadratureConfig()
        ti = _TermIntegral(lam, rho, nu, r, False)
        (a,), (est_a,), _ = _transform([(1.0, lam, rho)], nu, np.array([r]), False, cfg)
        b, est_b, _ = _panel_path([ti], ti.nu, ti.r, cfg.target_rel_tol)[0]
        assert abs(a - b) <= est_a + est_b
        ref = mp_term_transform(lam, rho, nu, r)
        assert abs(a - ref) <= max(est_a, cfg.target_rel_tol * abs(ref))


class TestGrid:
    """The grid evaluator against one radius at a time, on grids that
    straddle 2 * seam = 60, where the contour path starts."""

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
