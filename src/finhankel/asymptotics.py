"""Large-argument predictions for finite Hankel transforms.

Two mechanisms feed the transform's decay.  The origin ladder
phi(s) ~ sum c_k s^(mu+k) produces non-oscillatory power terms

    c_k * Gamma((mu+k+nu+1)/2) / Gamma((nu+1-mu-k)/2) * 2^(mu+k) * r^-(mu+k+1),

where the reciprocal of the denominator Gamma kills every k for which
(mu+k-nu-1)/2 is a nonnegative integer; the surviving indices form the set K.
The boundary ladder phi_b(t) = sum a_k (1-t)^(lambda_k) + ... contributes one
oscillatory term

    a_0 * 2^(lambda_0+1/2) / sqrt(pi) * Gamma(lambda_0+1)
        * r^-(lambda_0+3/2) * cos(r - pi (nu+lambda_0+1)/2 - pi/4).

A prediction bundles the retained terms; dominance compares the two decay
rates (real parts only).  When they tie, sampling r at the zeros of the
cosine factor silences the oscillatory term, which is what the verification
helpers below do.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, EmptyPredictionError, HypothesisError, check_radius
from .profiles import (
    BoundaryExpansion,
    OriginExpansion,
    RadialProfile,
    _TOL,
    boundary_expansion,
    origin_expansion,
)
from .specfun import gamma, reciprocal_gamma


@dataclass(frozen=True)
class KSet:
    members: tuple[int, ...]
    k0: int | None


@dataclass(frozen=True)
class Phase:
    freq: float
    offset: complex  # real in every real-exponent case

    def __call__(self, r: float) -> complex:
        val = cmath.cos(self.freq * r + self.offset)
        return val


@dataclass(frozen=True)
class AsymptoticTerm:
    """amplitude * r^(-exponent), optionally times cos(freq*r + offset)."""

    amplitude: complex
    exponent: complex
    phase: Phase | None = None

    def evaluate(self, r: float) -> complex:
        r = check_radius(r, "AsymptoticTerm.evaluate")
        val = self.amplitude * cmath.exp(-self.exponent * math.log(r))
        if self.phase is not None:
            val *= self.phase(r)
        return val


@dataclass(frozen=True)
class Prediction:
    origin_terms: tuple[AsymptoticTerm, ...]
    boundary_terms: tuple[AsymptoticTerm, ...]
    valid_error_order: float  # remainder is o(r^-valid_error_order)


class Dominance(Enum):
    ORIGIN = "OriginDominant"
    BOUNDARY = "BoundaryDominant"
    BALANCED = "Balanced"


@dataclass(frozen=True)
class DominanceReport:
    kind: Dominance
    origin_decay: float | None
    boundary_decay: float | None


def _excluded(e: complex, nu: float) -> bool:
    """True when a power s^e of phi leaves no power term in the transform.

    That happens exactly when (e-nu-1)/2 is a nonnegative integer (within
    1e-12 on the real part, imaginary part zero within 1e-12), a pole of
    the denominator Gamma.
    """
    z = (e - nu - 1.0) / 2.0
    return abs(z.imag) <= _TOL and z.real > -_TOL and abs(z.real - round(z.real)) <= _TOL


def k_set(origin: OriginExpansion, nu: float) -> KSet:
    """Indices k <= origin.max_k with c_k != 0 whose power term survives."""
    if not (origin.mu + nu).real > -1.0:
        raise HypothesisError(
            f"need Re(mu+nu) > -1, got {(origin.mu + nu).real}"
        )
    members = tuple(
        k
        for k in range(origin.max_k + 1)
        if origin.coeffs[k] != 0 and not _excluded(origin.mu + k, nu)
    )
    return KSet(members=members, k0=members[0] if members else None)


def ladder_factor(e: complex, nu: float) -> complex:
    """Gamma((e+nu+1)/2) 2^e / Gamma((nu+1-e)/2): a power s^e of phi gives the
    transform the power term c_e times this times r^-(e+1).  It is exactly 0
    where (e-nu-1)/2 is exactly a nonnegative integer, since
    ``reciprocal_gamma`` is exactly 0 at its argument's poles."""
    return gamma((e + nu + 1.0) / 2.0) * 2.0 ** complex(e) * reciprocal_gamma((nu + 1.0 - e) / 2.0)


def origin_term(origin: OriginExpansion, nu: float, k: int) -> AsymptoticTerm:
    """Non-oscillatory term of index k; amplitude is exactly 0 when k is excluded."""
    mu = origin.mu
    amp = origin.coeffs[k] * ladder_factor(mu + k, nu)
    return AsymptoticTerm(amplitude=amp, exponent=mu + k + 1.0, phase=None)


def boundary_term(boundary: BoundaryExpansion, nu: float) -> AsymptoticTerm:
    """Leading oscillatory term produced by the support edge."""
    lam0 = boundary.lambda0
    a0 = boundary.a0
    if not lam0.real > -1.0:
        raise HypothesisError(f"need Re(lambda_0) > -1, got {lam0.real}")
    if a0 == 0:
        raise HypothesisError("leading boundary coefficient is zero")
    amp = a0 * 2.0 ** complex(lam0 + 0.5) * gamma(lam0 + 1.0) / math.sqrt(math.pi)
    offset = -math.pi / 2.0 * (nu + complex(lam0) + 1.0) - math.pi / 4.0
    if abs(offset.imag) <= _TOL:
        offset = offset.real
    return AsymptoticTerm(
        amplitude=amp,
        exponent=lam0 + 1.5,
        phase=Phase(freq=1.0, offset=offset),
    )


def predict(
    profile: RadialProfile,
    n_origin_terms: int = 3,
    max_k: int = 8,
) -> Prediction:
    """Multi-term origin prediction plus the leading boundary term.

    Both ladders are scanned to order max_k.

    The remainder order is the first omitted contribution: the next
    surviving origin index (or the scan bound when none is knowable), and
    the boundary term's own little-o order when an edge is present.
    Profiles that vanish near the edge have no boundary term; if their K
    ladder is exhausted too, the transform drops faster than any power and
    the remainder order is infinite.
    """
    if n_origin_terms < 0:
        raise DomainError("n_origin_terms must be >= 0")
    origin = origin_expansion(profile, max_k=max_k)
    kk = k_set(origin, profile.nu)
    retained = kk.members[:n_origin_terms]
    origin_terms = tuple(origin_term(origin, profile.nu, k) for k in retained)
    boundary_terms: tuple[AsymptoticTerm, ...] = ()
    if not profile.vanishes_near_one:
        boundary = boundary_expansion(profile, max_j=max_k)
        boundary_terms = (boundary_term(boundary, profile.nu),)
    orders = []
    omitted = kk.members[n_origin_terms:]
    if omitted:
        orders.append((origin.mu + omitted[0] + 1.0).real)
    elif not ladder_fully_excluded(profile):
        # coefficients beyond the scan could still contribute
        orders.append((origin.mu + max_k + 2.0).real)
    if boundary_terms:
        orders.append((boundary_terms[0].exponent).real)
    valid = min(orders) if orders else math.inf
    return Prediction(
        origin_terms=tuple(sorted(origin_terms, key=lambda t: t.exponent.real)),
        boundary_terms=boundary_terms,
        valid_error_order=valid,
    )


def ladder_fully_excluded(profile: RadialProfile) -> bool:
    """True when *every* ladder index is excluded, scanned or not.

    Each term's binomial ladder lives at mu + (lam_i - mu) + 2j, so if
    (lam_i - nu - 1)/2 is a nonnegative integer for every term, every
    possibly-nonzero coefficient is killed regardless of j.
    """
    return all(_excluded(t.lam, profile.nu) for t in profile.terms)


def evaluate_prediction(pred: Prediction, r: float) -> complex:
    """Numeric value of all retained terms at radius r (0 for an empty one)."""
    r = check_radius(r, "evaluate_prediction")
    return sum(
        (t.evaluate(r) for t in pred.origin_terms + pred.boundary_terms),
        start=0j,
    )


def compare_decays(origin_decay: float, boundary_decay: float) -> Dominance:
    """The slower of the decays r^-origin_decay and r^-boundary_decay; a tie
    within 1e-12 is Balanced."""
    if abs(origin_decay - boundary_decay) <= _TOL:
        return Dominance.BALANCED
    return Dominance.ORIGIN if origin_decay < boundary_decay else Dominance.BOUNDARY


def dominance(pred: Prediction) -> DominanceReport:
    """Which mechanism controls the large-r size of the transform.

    Comparison uses real parts of the decay exponents; a tie within 1e-12
    is reported as Balanced (still classifiable: sample r where the cosine
    factor vanishes).
    """
    o = next((t for t in pred.origin_terms if t.amplitude != 0), None)
    b = next((t for t in pred.boundary_terms if t.amplitude != 0), None)
    if o is None and b is None:
        raise EmptyPredictionError("prediction has no nonzero terms")
    od = o.exponent.real if o is not None else None
    bd = b.exponent.real if b is not None else None
    if b is None:
        kind = Dominance.ORIGIN
    elif o is None:
        kind = Dominance.BOUNDARY
    else:
        kind = compare_decays(od, bd)
    return DominanceReport(kind=kind, origin_decay=od, boundary_decay=bd)


def cosine_zero_grid(term: AsymptoticTerm, r_min: float, r_max: float) -> np.ndarray:
    """Radii in [r_min, r_max] where the term's cosine factor vanishes.

    Grid points sit at -offset + pi/2 + j*pi, then one Newton step against
    the actual cosine; points with |cos| >= 1e-6 afterwards are dropped.
    """
    if term.phase is None:
        raise HypothesisError("term has no oscillatory factor")
    off = complex(term.phase.offset).real
    j_lo = math.ceil((r_min + off - math.pi / 2.0) / math.pi)
    j_hi = math.floor((r_max + off - math.pi / 2.0) / math.pi)
    if j_hi < j_lo:
        return np.empty(0)
    r = -off + math.pi / 2.0 + math.pi * np.arange(j_lo, j_hi + 1, dtype=np.float64)
    r = r + np.cos(r + off) / np.sin(r + off)  # one Newton step on cos = 0
    return r[np.abs(np.cos(r + off)) < 1e-6]


def cosine_extremum_grid(term: AsymptoticTerm, r_min: float, r_max: float) -> np.ndarray:
    """Radii where the term's cosine factor has modulus 1 (maxima of |cos|)."""
    if term.phase is None:
        raise HypothesisError("term has no oscillatory factor")
    off = complex(term.phase.offset).real
    j_lo = math.ceil((r_min + off) / math.pi)
    j_hi = math.floor((r_max + off) / math.pi)
    if j_hi < j_lo:
        return np.empty(0)
    return -off + math.pi * np.arange(j_lo, j_hi + 1, dtype=np.float64)


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log|y| against log x (noise-floor points kept)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.abs(np.asarray(y))
    keep = (x > 0) & (y > 0) & np.isfinite(y)
    if np.unique(x[keep]).size < 2:
        raise HypothesisError("slope fit needs usable points at two distinct x at least")
    return float(np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0])
