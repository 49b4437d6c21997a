"""Quadrature oracle: closed-form identities, frozen references, estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finhankel import quadrature
from finhankel.asymptotics import evaluate_prediction, predict
from finhankel.errors import DomainError, SmoothnessBudgetError
from finhankel.profiles import ProfileTerm, RadialProfile
from finhankel.quadrature import (
    QuadratureConfig,
    _TermIntegral,
    _seam_phase,
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
        cfg = QuadratureConfig()
        for lam, rho, r in ((1.0, 3.5, 300.0), (-0.9, 0.1, 120.0), (0.5, 6.0, 700.0)):
            value, estimate, _ = _TermIntegral(lam, rho, 0.0, r, False).evaluate(cfg)
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


class TestLinearity:
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
            value, estimate, _ = ti.evaluate(cfg, seam if contour else None)
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
        r = math.exp(log_r)
        cfg = QuadratureConfig()
        ti = _TermIntegral(lam, rho, nu, r, False)
        a, est_a, _ = ti.evaluate(cfg, _seam_phase(nu, cfg.target_rel_tol))
        b, est_b, _ = ti.evaluate(cfg)
        assert abs(a - b) <= est_a + est_b
        ref = mp_term_transform(lam, rho, nu, r)
        assert abs(a - ref) <= max(est_a, cfg.target_rel_tol * abs(ref))
