"""Classifier routes, the window-supremum check, and the closure calculus."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finhankel.errors import DomainError, RuleViolationError
from finhankel.invertibility import (
    INCONCLUSIVE,
    INVERTIBLE,
    NOT_INVERTIBLE,
    SlowDecreaseParams,
    Verdict,
    classify,
    combine,
    derive_params,
    point_mass_certificate,
    profile_certificate,
    slow_decrease_check,
    verify_profile_slow_decrease,
)
from finhankel.profiles import ProfileTerm, RadialProfile


def single(lam, rho, n=2, c=1, **kw):
    return RadialProfile(n, (ProfileTerm(coeff=c, lam=lam, rho=rho),), **kw)


class TestClassify:
    def test_power_family_member(self):
        v = classify(single(1.0, 0.5))
        assert v.status == INVERTIBLE
        assert v.rule == "Thm-smooth"
        assert any("lambda0" in line for line in v.trace)

    def test_vanishing_excluded_ladder(self):
        v = classify(single(1.0, 3.5, vanishes_near_one=True))
        assert v.status == NOT_INVERTIBLE
        assert v.rule == "Thm-smooth3"

    def test_vanishing_with_surviving_index(self):
        v = classify(single(0.0, 1.0, vanishes_near_one=True))
        assert v.status == INVERTIBLE
        assert v.rule == "Thm-smooth3"

    def test_vanishing_scan_limited_is_inconclusive(self):
        # coefficients cancel inside the scanned window but the terms do not
        # share an exclusion pattern, so emptiness is not provable
        p = RadialProfile(
            2,
            (ProfileTerm(coeff=1, lam=0.5, rho=1.0), ProfileTerm(coeff=-1, lam=0.5, rho=1.0 + 1e-9)),
            vanishes_near_one=True,
        )
        v = classify(p, max_k=1)
        assert v.status in (INCONCLUSIVE, INVERTIBLE)

    def test_flat_edge_route(self):
        v = classify(single(0.5, 10.0), N=8)
        assert v.status == INVERTIBLE
        assert v.rule == "Thm-smooth2"

    def test_negative_flatness_order_raises(self):
        """A negative N used to send lam = 0.5, rho = 6 down the flat-edge rule."""
        with pytest.raises(DomainError):
            classify(single(0.5, 6.0), N=-1)

    def test_incompatible_ladder_goes_inconclusive(self):
        p = RadialProfile(2, (ProfileTerm(coeff=1, lam=0.0, rho=1.0), ProfileTerm(coeff=1, lam=0.5, rho=1.0)))
        v = classify(p)
        assert v.status == INCONCLUSIVE
        assert "ladder" in " ".join(v.trace)

    def test_zero_profile(self):
        p = RadialProfile(2, (ProfileTerm(coeff=1, lam=1.0, rho=2.0), ProfileTerm(coeff=-1, lam=1.0, rho=2.0)))
        assert classify(p).status == INCONCLUSIVE
        pz = RadialProfile(
            2,
            (ProfileTerm(coeff=1, lam=1.0, rho=2.0), ProfileTerm(coeff=-1, lam=1.0, rho=2.0)),
            vanishes_near_one=True,
        )
        assert classify(pz).status == NOT_INVERTIBLE

    def test_trace_replays_to_same_verdict(self):
        p = single(1.0, 0.5)
        a, b = classify(p), classify(p)
        assert a == b

    @given(
        st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False)
    )
    @settings(max_examples=30, deadline=None)
    def test_scaling_invariance(self, c):
        base = classify(single(1.0, 0.5))
        scaled = classify(single(1.0, 0.5, c=c))
        assert scaled.status == base.status
        assert scaled.rule == base.rule

    @given(
        st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False)
    )
    @settings(max_examples=30, deadline=None)
    def test_scaling_invariance_not_invertible(self, c):
        v = classify(single(1.0, 3.5, c=c, vanishes_near_one=True))
        assert v.status == NOT_INVERTIBLE

    def test_verdict_validation(self):
        with pytest.raises(DomainError):
            Verdict("Bogus", "Thm-smooth", ())
        with pytest.raises(DomainError):
            Verdict(INVERTIBLE, "Made-up", ())


class TestSlowDecreaseCheck:
    def test_constant_sampler_passes(self):
        rep = slow_decrease_check(
            lambda r: np.ones_like(r),
            SlowDecreaseParams(A=1.0, B=2 * math.pi, C=0.5),
            (50.0, 200.0),
            math.pi / 16,
        )
        assert rep.passed
        assert rep.failures == 0
        assert rep.worst_margin > 1.0

    def test_cosine_sampler_passes_with_period_window(self):
        rep = slow_decrease_check(
            lambda r: np.abs(np.cos(r)),
            SlowDecreaseParams(A=1e-9, B=math.pi, C=0.5),
            (50.0, 300.0),
            math.pi / 16,
        )
        assert rep.passed

    def test_exponential_sampler_fails(self):
        rep = slow_decrease_check(
            lambda r: np.exp(-r),
            SlowDecreaseParams(A=3.0, B=2 * math.pi, C=0.5),
            (50.0, 400.0),
            math.pi / 16,
        )
        assert not rep.passed
        assert rep.worst_margin < 1e-6

    def test_nan_sample_fails_its_windows(self):
        """A NaN sample makes the supremum of every window that holds it NaN,
        and NaN <= 1 is false: those windows must still count as failing."""

        def sampler(r):
            q = np.ones_like(r)
            q[np.argmin(np.abs(r - 100.0))] = math.nan
            return q

        rep = slow_decrease_check(
            sampler, SlowDecreaseParams(A=1.0, B=2 * math.pi, C=0.5), (50.0, 200.0), math.pi / 16
        )
        assert not rep.passed
        # the windows within B of r = 100 (2 * 31 + 1 of them on this grid)
        assert rep.failures == 63
        # strict JSON has no NaN, so the undefined margin is written as null
        assert math.isnan(rep.worst_margin)
        assert json.loads(json.dumps(rep.to_dict(), allow_nan=False))["worst_margin"] is None

    @pytest.mark.parametrize("with_nan", [True, False])
    def test_window_supremum_is_the_brute_force_max(self, with_nan):
        """The window supremum, taken by doubling, is the largest sample y of
        the check's grid with |y - x| < B for each window centre x, NaN
        where one of those samples is NaN, as a brute-force max over the
        grid reads it.  The samples are sparse spikes, so a window that
        reaches one sample too far or too short changes the count."""
        rng = np.random.default_rng(7)
        params = SlowDecreaseParams(A=1.0, B=2 * math.pi, C=0.5)
        seen = {}

        def sampler(r):
            q = np.where(rng.random(r.size) < 0.01, rng.random(r.size), 0.0)
            q[rng.random(r.size) < (0.002 if with_nan else 0.0)] = math.nan
            seen["r"], seen["q"] = r, q
            return q

        rep = slow_decrease_check(sampler, params, (50.0, 400.0), 0.1)
        r, q = seen["r"], seen["q"]
        x = r[(r >= 50.0) & (r <= 400.0)]
        sup = np.array([np.max(q[np.abs(r - c) < params.B]) for c in x])
        margins = sup / (params.C * x ** -params.A)
        assert (sup == 0).any() and bool(np.isnan(sup).any()) == with_nan
        assert rep.windows == x.size
        assert rep.failures == np.count_nonzero(~(margins > 1.0))
        if with_nan:
            assert math.isnan(rep.worst_margin)
        else:
            assert rep.worst_margin == np.min(margins)

    def test_grid_step_guard(self):
        with pytest.raises(DomainError):
            slow_decrease_check(
                lambda r: np.ones_like(r),
                SlowDecreaseParams(A=1.0, B=1.0, C=0.5),
                (50.0, 100.0),
                0.5,
            )

    @pytest.mark.parametrize("step", [0.0, -0.1, math.nan])
    def test_grid_step_must_be_positive(self, step):
        """These used to raise ZeroDivisionError, IndexError and ValueError."""
        with pytest.raises(DomainError):
            slow_decrease_check(
                lambda r: np.ones_like(r),
                SlowDecreaseParams(A=1.0, B=1.0, C=0.5),
                (50.0, 100.0),
                step,
            )

    @pytest.mark.parametrize("r_range", [(math.nan, 100.0), (50.0, math.inf), (True, 100.0)])
    def test_r_range_must_be_finite(self, r_range):
        with pytest.raises(DomainError):
            slow_decrease_check(
                lambda r: np.ones_like(r),
                SlowDecreaseParams(A=1.0, B=1.0, C=0.5),
                r_range,
                0.1,
            )

    def test_range_with_no_grid_point(self):
        """The grid runs from r_min - B = 48.95 in steps of 0.1, so [50, 50.04]
        holds none of its points: that used to pass with 0 windows."""
        with pytest.raises(DomainError):
            slow_decrease_check(
                lambda r: np.ones_like(r),
                SlowDecreaseParams(A=1.0, B=1.05, C=0.5),
                (50.0, 50.04),
                0.1,
            )

    def test_window_floor_guard(self):
        with pytest.raises(DomainError):
            slow_decrease_check(
                lambda r: np.ones_like(r),
                SlowDecreaseParams(A=1.0, B=10.0, C=0.5),
                (5.0, 100.0),
                1.0,
            )

    def test_resolution_warning(self):
        rep = slow_decrease_check(
            lambda r: np.abs(np.cos(40.0 * r)),
            SlowDecreaseParams(A=1e-9, B=2 * math.pi, C=0.25),
            (50.0, 100.0),
            math.pi / 16,
        )
        assert rep.insufficient_resolution

    def test_params_validation(self):
        with pytest.raises(DomainError):
            SlowDecreaseParams(A=0.0, B=1.0, C=1.0)
        with pytest.raises(DomainError):
            SlowDecreaseParams(A=1.0, B=1.0, C=1.0, alpha=-1.0)


class TestProfileSlowDecrease:
    def test_edge_dominated_profile_passes(self):
        rep = verify_profile_slow_decrease(single(1.0, 0.5), (50.0, 350.0))
        assert rep.passed
        assert rep.worst_margin > 1.0

    def test_origin_dominated_profile_passes(self):
        rep = verify_profile_slow_decrease(single(-0.9, 0.1), (50.0, 350.0))
        assert rep.passed

    def test_rapidly_decreasing_profile_fails(self):
        rep = verify_profile_slow_decrease(
            single(1.0, 3.5, vanishes_near_one=True), (50.0, 600.0)
        )
        assert not rep.passed
        assert rep.worst_margin < 0.05  # full-range acceptance run drives this to ~0

    def test_derive_params_uses_dominant_term(self):
        params, notes = derive_params(single(1.0, 0.5))
        # edge decay r^-1, weighted decay r^-1, plus one unit of slack
        assert params.A == pytest.approx(2.0)
        assert params.B == pytest.approx(2 * math.pi)
        assert params.alpha == 0.0
        assert notes


class TestCombine:
    def test_convolution(self):
        cert = combine(
            "Convolution", [point_mass_certificate(), profile_certificate(single(1.0, 0.5))]
        )
        assert cert.verdict.status == INVERTIBLE
        assert cert.verdict.rule == "Prop-2.4-i"

    def test_scaled_requires_nonzero_alpha(self):
        with pytest.raises(RuleViolationError):
            combine("Scaled", [point_mass_certificate()], alpha=0.0)
        cert = combine("Scaled", [point_mass_certificate()], alpha=-2.0)
        assert cert.verdict.status == INVERTIBLE

    def test_translation_and_diffop(self):
        base = point_mass_certificate()
        assert combine("Translated", [base], a=(1.0, 0.0)).verdict.rule == "Prop-2.4-iii"
        assert combine("DiffOpSum", [base]).verdict.rule == "Prop-2.4-iv"

    def test_tensor(self):
        cert = combine("Tensor", [point_mass_certificate(), point_mass_certificate()])
        assert cert.verdict.status == INVERTIBLE
        assert cert.verdict.rule == "Prop-2.4-vi"

    def test_smooth_perturbation_preserves_either_way(self):
        good = profile_certificate(single(1.0, 0.5))
        bad = profile_certificate(single(1.0, 3.5, vanishes_near_one=True))
        assert combine("SmoothPerturbed", [good]).verdict.status == INVERTIBLE
        assert combine("SmoothPerturbed", [bad]).verdict.status == NOT_INVERTIBLE

    def test_rejects_bad_children(self):
        bad = profile_certificate(single(1.0, 3.5, vanishes_near_one=True))
        with pytest.raises(RuleViolationError):
            combine("Convolution", [bad, point_mass_certificate()])
        with pytest.raises(RuleViolationError):
            combine("Nonsense", [point_mass_certificate()])
        with pytest.raises(RuleViolationError):
            combine("Convolution", [])

    def test_associativity_up_to_trace(self):
        a = point_mass_certificate()
        b = profile_certificate(single(1.0, 0.5))
        c = profile_certificate(single(0.5, 6.0))
        left = combine("Convolution", [combine("Convolution", [a, b]), c])
        right = combine("Convolution", [a, combine("Convolution", [b, c])])
        assert left.verdict.status == right.verdict.status
        tens_l = combine("Tensor", [combine("Tensor", [a, b]), c])
        tens_r = combine("Tensor", [a, combine("Tensor", [b, c])])
        assert tens_l.verdict.status == tens_r.verdict.status

    def test_certificate_json_schema(self):
        cert = combine(
            "Convolution", [point_mass_certificate(), profile_certificate(single(1.0, 0.5))]
        )
        doc = json.loads(json.dumps(cert.to_dict()))
        assert set(doc) == {"status", "rule", "trace", "children"}
        assert doc["status"] == "Invertible"
        assert isinstance(doc["trace"], list)
        for child in doc["children"]:
            assert set(child) == {"status", "rule", "trace", "children"}
