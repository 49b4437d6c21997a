"""Predicted large-argument terms against the quadrature oracle."""

import cmath
import math

import numpy as np
import pytest

from finhankel.asymptotics import (
    AsymptoticTerm,
    Dominance,
    Phase,
    Prediction,
    boundary_term,
    cosine_extremum_grid,
    cosine_zero_grid,
    dominance,
    evaluate_prediction,
    fit_loglog_slope,
    k_set,
    ladder_fully_excluded,
    origin_term,
    predict,
)
from finhankel.errors import EmptyPredictionError, HypothesisError
from finhankel.profiles import (
    BoundaryExpansion,
    OriginExpansion,
    ProfileTerm,
    RadialProfile,
    boundary_expansion,
    origin_expansion,
)
from finhankel.quadrature import finite_hankel
from finhankel.specfun import bessel_j

# frozen via mpmath: gamma(3/4)*sqrt(2)/gamma(1/4) = 0.477988797486124995
LEAD_AMPLITUDE = 0.477988797486125


def single(lam, rho, n=2, c=1, **kw):
    return RadialProfile(n, (ProfileTerm(coeff=c, lam=lam, rho=rho),), **kw)


class TestKSet:
    def test_every_other_index_dies(self):
        oe = OriginExpansion(mu=0j, coeffs=tuple([1 + 0j] * 7), max_k=6)
        ks = k_set(oe, 0.0)
        assert ks.members == (0, 2, 4, 6)
        assert ks.k0 == 0

    def test_shifted_base_keeps_odd_index(self):
        oe = OriginExpansion(mu=0.5 + 0j, coeffs=(0j, 1 + 0j), max_k=1)
        ks = k_set(oe, 0.0)
        assert ks.members == (1,)
        assert ks.k0 == 1

    def test_edge_power_ladder_is_empty(self):
        # lam = nu + 1 with an even ladder: every index is excluded
        p = single(1.0, 3.0)
        ks = k_set(origin_expansion(p, 8), 0.0)
        assert ks.members == ()
        assert ks.k0 is None
        assert ladder_fully_excluded(p)

    def test_hypothesis_guard(self):
        oe = OriginExpansion(mu=-1.5 + 0j, coeffs=(1 + 0j,), max_k=0)
        with pytest.raises(HypothesisError):
            k_set(oe, 0.0)

    def test_zero_coefficients_skipped(self):
        oe = OriginExpansion(mu=0.5 + 0j, coeffs=(1 + 0j, 0j, 0j), max_k=2)
        assert k_set(oe, 0.0).members == (0,)


class TestOriginTerm:
    def test_leading_amplitude(self):
        oe = OriginExpansion(mu=0.5 + 0j, coeffs=(1 + 0j,), max_k=0)
        t = origin_term(oe, 0.0, 0)
        assert t.amplitude.real == pytest.approx(LEAD_AMPLITUDE, rel=1e-12)
        assert t.exponent == 1.5
        assert t.phase is None

    def test_excluded_index_amplitude_is_exact_zero(self):
        oe = OriginExpansion(mu=1.0 + 0j, coeffs=(1 + 0j,), max_k=0)
        assert origin_term(oe, 0.0, 0).amplitude == 0

    def test_linear_in_coefficient(self):
        oe1 = OriginExpansion(mu=0.5 + 0j, coeffs=(1 + 0j,), max_k=0)
        oe3 = OriginExpansion(mu=0.5 + 0j, coeffs=(3 + 0j,), max_k=0)
        assert origin_term(oe3, 0.0, 0).amplitude == pytest.approx(
            3 * origin_term(oe1, 0.0, 0).amplitude
        )


class TestBoundaryTerm:
    def test_plain_edge(self):
        be = BoundaryExpansion(terms=((0j, 1 + 0j),), Lambda=9 + 0j, N=8)
        t = boundary_term(be, 0.0)
        assert t.amplitude.real == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13)
        assert t.exponent == 1.5
        assert t.phase.freq == 1.0
        assert t.phase.offset == pytest.approx(-3.0 * math.pi / 4.0)

    def test_scaled_edge(self):
        be = BoundaryExpansion(terms=((1 + 0j, 2 + 0j),), Lambda=9 + 0j, N=8)
        t = boundary_term(be, 0.5)
        assert t.amplitude.real == pytest.approx(2 * 2 ** 1.5 / math.sqrt(math.pi), rel=1e-13)
        assert t.exponent == 2.5

    def test_matches_closed_form_leading_behaviour(self):
        """The edge term must agree with the large-argument form of
        2^a Gamma(a+1) r^-(a+1) J_(nu+a+1)(r)."""
        nu, alpha = 0.5, 1.5
        be = boundary_expansion(single(nu + 1.0, alpha + 1.0, n=3))
        t = boundary_term(be, nu)
        for r in (200.0, 1000.0, 3000.0):
            closed = 2.0 ** alpha * math.gamma(alpha + 1.0) * r ** -(alpha + 1.0) * bessel_j(
                nu + alpha + 1.0, r
            )
            assert complex(t.evaluate(r)).real == pytest.approx(closed, abs=3e-2 * abs(closed) + r ** -(alpha + 2.5))

    def test_hypothesis_guards(self):
        be = BoundaryExpansion(terms=((-1.5 + 0j, 1 + 0j),), Lambda=9 + 0j, N=8)
        with pytest.raises(HypothesisError):
            boundary_term(be, 0.0)


class TestPredict:
    def test_power_family_maps_to_both_ladders(self):
        lam, rho, n = 0.5, 0.5, 2  # lam - nu - 1 non-even keeps the ladder alive
        p = single(lam, rho, n=n)
        oe = origin_expansion(p)
        be = boundary_expansion(p)
        assert oe.mu == lam
        assert be.lambda0 == rho - 1.0
        pred = predict(p, 1)
        assert pred.boundary_terms[0].exponent == rho - 1.0 + 1.5
        assert pred.origin_terms[0].exponent == lam + 1.0

    def test_vanishing_profile_has_no_edge_terms(self):
        p = single(1.0, 3.0, vanishes_near_one=True)  # fully excluded ladder
        pred = predict(p, 3)
        assert pred.boundary_terms == ()
        assert pred.origin_terms == ()
        assert math.isinf(pred.valid_error_order)

    def test_sonine_profile_keeps_only_edge(self):
        pred = predict(single(1.0, 2.0), 3)
        assert pred.origin_terms == ()
        assert len(pred.boundary_terms) == 1

    def test_error_order_tracks_first_omission(self):
        p = single(0.5, 6.0)
        pred1 = predict(p, 1)
        assert pred1.valid_error_order == pytest.approx(0.5 + 2 + 1)  # next index k=2
        pred3 = predict(p, 3)
        assert pred3.valid_error_order == pytest.approx(6.5)  # edge little-o order


class TestEvaluatePrediction:
    def test_empty_is_zero(self):
        assert evaluate_prediction(Prediction((), (), math.inf), 10.0) == 0

    def test_single_power_term(self):
        pred = Prediction((AsymptoticTerm(2.0 + 0j, 1.5 + 0j),), (), 2.5)
        assert evaluate_prediction(pred, 4.0) == pytest.approx(2.0 * 4.0 ** -1.5)

    def test_phase_zero_kills_term(self):
        t = AsymptoticTerm(1.0 + 0j, 1.5 + 0j, Phase(1.0, -math.pi / 2.0))
        pred = Prediction((), (t,), 1.5)
        assert abs(evaluate_prediction(pred, math.pi)) < 1e-16

    def test_complex_exponent_modulus(self):
        t = AsymptoticTerm(1.0 + 0j, complex(2.0, 3.0))
        assert abs(t.evaluate(10.0)) == pytest.approx(10.0 ** -2.0)
        # phase is -Im(e) * log(r), reduced into (-pi, pi]
        assert cmath.phase(t.evaluate(math.e ** 2)) == pytest.approx(
            -6.0 + 2.0 * math.pi, abs=1e-12
        )


class TestDominance:
    def test_origin_wins(self):
        p = single(0.5, 6.0)  # origin r^-1.5 vs edge r^-6.5
        rep = dominance(predict(p, 1))
        assert rep.kind is Dominance.ORIGIN
        assert rep.origin_decay == pytest.approx(1.5)
        assert rep.boundary_decay == pytest.approx(6.5)

    def test_edge_wins_when_ladder_dies(self):
        rep = dominance(predict(single(1.0, 2.0), 1))
        assert rep.kind is Dominance.BOUNDARY

    def test_balanced_tie(self):
        rep = dominance(predict(single(0.5, 1.0), 1))  # 1.5 both
        assert rep.kind is Dominance.BALANCED

    def test_empty_raises(self):
        with pytest.raises(EmptyPredictionError):
            dominance(Prediction((), (), math.inf))


class TestSamplingGrids:
    def test_cosine_zeros(self):
        t = boundary_term(boundary_expansion(single(1.0, 2.0)), 0.0)
        zs = cosine_zero_grid(t, 100.0, 200.0)
        assert zs.size > 25
        off = complex(t.phase.offset).real
        assert np.all(np.abs(np.cos(zs + off)) < 1e-6)

    def test_cosine_extrema(self):
        t = boundary_term(boundary_expansion(single(1.0, 2.0)), 0.0)
        es = cosine_extremum_grid(t, 100.0, 200.0)
        off = complex(t.phase.offset).real
        assert np.all(np.abs(np.abs(np.cos(es + off)) - 1.0) < 1e-12)


class TestOracleAgreement:
    def test_origin_dominant_prediction_converges(self):
        p = single(0.5, 6.0)
        pred = predict(p, 1)
        rels = []
        for r in (500.0, 1000.0, 2000.0):
            q = finite_hankel(p, r).value
            rels.append(abs(q - evaluate_prediction(pred, r)) / abs(q))
        assert rels[0] < 0.02
        assert rels[0] > rels[1] > rels[2]

    def test_edge_dominant_error_decays_faster_than_term(self):
        p = single(1.0, 2.0)  # closed form available; edge-dominant
        pred = predict(p, 1)
        t = pred.boundary_terms[0]
        es = cosine_extremum_grid(t, 150.0, 2500.0)
        pick = es[np.geomspace(1, es.size - 1, 9).astype(int)]
        errs = [
            abs(finite_hankel(p, float(r)).value - evaluate_prediction(pred, float(r)))
            for r in pick
        ]
        slope = fit_loglog_slope(pick, errs)
        assert slope <= -(t.exponent.real + 1.0)

    def test_more_terms_never_hurt(self):
        p = single(0.5, 6.0)
        rs = np.geomspace(30.0, 120.0, 10)
        quads = [finite_hankel(p, float(r)).value for r in rs]
        slopes = []
        for m in (1, 2):
            pred = predict(p, m)
            errs = [abs(q - evaluate_prediction(pred, float(r))) for q, r in zip(quads, rs)]
            slopes.append(fit_loglog_slope(rs, errs))
        assert slopes[1] <= slopes[0] + 0.3


def test_slope_fit_guard():
    with pytest.raises(HypothesisError):
        fit_loglog_slope([1.0], [1.0])


def test_slope_fit_guard_coincident_x():
    """Two points at one x leave no slope to fit."""
    with pytest.raises(HypothesisError):
        fit_loglog_slope([100.0, 100.0], [1e-3, 2e-3])
