"""Radial profiles built from closed-form terms and their symbolic expansions.

A profile on the unit ball of R^n is described by the one-variable function

    phi(s) = sum_i  coeff_i * s^lam_i * (1 - s^2)^(rho_i - 1),    0 < s < 1,

which already includes the s^(n/2) surface-measure factor, so the represented
distribution is f(x) = |x|^(-n/2) * phi(|x|) restricted to |x| <= 1.  Two
symbolic expansions are derived from the term data alone:

* the origin ladder  phi(s) ~ sum_k c_k s^(mu+k)  as s -> 0+, generated by
  the generalised binomial series of each (1-s^2)^(rho-1) factor;
* the boundary ladder  phi_b(t) = sum_k a_k (1-t)^(lambda_k) + remainder
  as t -> 1-, for the transferred function phi_b(t) = t^(-n/4) phi(sqrt(t)),
  generated by expanding t^(lam/2 - n/4) around t = 1.

Profiles flagged ``vanishes_near_one`` are declared identically zero on a
neighbourhood of s = 1; their term list is origin data only and no boundary
expansion exists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ExponentCollisionError,
    IncompatibleLadderError,
    NotApplicableError,
    ProfileFormatError,
    ZeroLadderError,
)

# tolerance of every exponent comparison: ladder offsets, merged boundary
# exponents, and in asymptotics the excluded powers and the decay-rate ties
_TOL = 1e-12


def binomial(alpha: complex, j: int) -> complex:
    """Generalised binomial coefficient alpha choose j.

    Computed as a plain product so that an integer alpha < j yields an exact
    zero (one of the factors is exactly alpha - alpha).
    """
    if j < 0:
        raise DomainError("binomial requires j >= 0")
    out = complex(1.0)
    for i in range(j):
        out *= (complex(alpha) - i) / (i + 1)
    return out


def _as_complex(value) -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("profile parameters must be finite")
    return z


@dataclass(frozen=True)
class ProfileTerm:
    """One closed-form summand coeff * s^lam * (1-s^2)^(rho-1)."""

    coeff: complex
    lam: complex
    rho: complex

    def __post_init__(self):
        object.__setattr__(self, "coeff", _as_complex(self.coeff))
        object.__setattr__(self, "lam", _as_complex(self.lam))
        object.__setattr__(self, "rho", _as_complex(self.rho))
        if self.coeff == 0:
            raise DomainError("profile term with zero coefficient")
        if not self.rho.real > 0:
            raise DomainError(f"Re(rho) must be positive, got {self.rho}")


@dataclass(frozen=True)
class RadialProfile:
    """A finite sum of closed-form terms on (0, 1) plus the ambient dimension."""

    dimension: int
    terms: tuple[ProfileTerm, ...]
    vanishes_near_one: bool = False

    def __post_init__(self):
        if not isinstance(self.dimension, int) or isinstance(self.dimension, bool):
            raise DomainError("dimension must be an integer")
        if self.dimension < 2:
            raise DomainError("dimension must be >= 2")
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise DomainError("profile needs at least one term")
        nu = self.nu
        for t in self.terms:
            if not t.lam.real > -1.0 - nu:
                raise DomainError(
                    f"term exponent {t.lam} violates Re(lam) > -1 - nu = {-1.0 - nu}"
                )

    @property
    def nu(self) -> float:
        return self.dimension / 2.0 - 1.0

    @property
    def mu(self) -> complex:
        """Exponent of minimal real part among the terms."""
        return min((t.lam for t in self.terms), key=lambda z: (z.real, z.imag))


def evaluate(profile: RadialProfile, s):
    """Evaluate phi at s in (0,1); scalar or ndarray, principal powers."""
    arr = np.asarray(s, dtype=np.float64)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("evaluation point must lie strictly inside (0, 1)")
    ls = np.log(arr)
    lu = np.log1p(-arr * arr)
    out = np.zeros(arr.shape, dtype=np.complex128)
    for t in profile.terms:
        out += t.coeff * np.exp(t.lam * ls + (t.rho - 1.0) * lu)
    if np.isscalar(s) or arr.ndim == 0:
        return complex(out)
    return out


def boundary_function(profile: RadialProfile, t):
    """The transferred profile phi_b(t) = t^(-n/4) * phi(sqrt(t)) on (0,1)."""
    arr = np.asarray(t, dtype=np.float64)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("evaluation point must lie strictly inside (0, 1)")
    s = np.sqrt(arr)
    vals = evaluate(profile, s) * np.exp(-(profile.dimension / 4.0) * np.log(arr))
    if np.isscalar(t) or arr.ndim == 0:
        return complex(vals)
    return vals


@dataclass(frozen=True)
class OriginExpansion:
    """Ladder phi(s) ~ s^mu * sum_k coeffs[k] * s^k, k = 0..max_k (dense)."""

    mu: complex
    coeffs: tuple[complex, ...]
    max_k: int

    def __post_init__(self):
        if len(self.coeffs) != self.max_k + 1:
            raise DomainError("coeffs must be dense up to max_k")


@dataclass(frozen=True)
class BoundaryExpansion:
    """Ladder phi_b(t) = sum a_k (1-t)^(lambda_k) + O((1-t)^Lambda) near t=1."""

    terms: tuple[tuple[complex, complex], ...]  # (lambda_k, a_k), Re increasing
    Lambda: complex
    N: int

    @property
    def lambda0(self) -> complex:
        return self.terms[0][0]

    @property
    def a0(self) -> complex:
        return self.terms[0][1]


def _ladder_offset(lam: complex, mu: complex) -> int:
    d = lam - mu
    k = round(d.real)
    if abs(d.imag) > _TOL or abs(d.real - k) > _TOL or k < 0:
        raise IncompatibleLadderError(
            f"exponent {lam} is not a nonnegative integer above the base {mu}"
        )
    return k


def origin_expansion(profile: RadialProfile, max_k: int = 8) -> OriginExpansion:
    """Collect the power ladder of phi at s = 0.

    Each term contributes coeff * (-1)^j * binom(rho-1, j) at offset
    (lam - mu) + 2j.  Exactly cancelling contributions are dropped and the
    base exponent is re-based onto the first surviving coefficient, so the
    returned expansion always has a nonzero leading entry.
    """
    if max_k < 0:
        raise DomainError("max_k must be >= 0")
    mu = profile.mu
    offsets = [_ladder_offset(t.lam, mu) for t in profile.terms]
    # leave room to re-base past leading cancellations; widen if the first
    # surviving coefficient sits too deep in the buffer
    span = max_k + max(offsets) + 2 * (max_k + 1) + 2
    for _ in range(4):
        buf = np.zeros(span + 1, dtype=np.complex128)
        for t, off in zip(profile.terms, offsets):
            j = 0
            while off + 2 * j <= span:
                buf[off + 2 * j] += t.coeff * (-1) ** j * binomial(t.rho - 1.0, j)
                j += 1
        nonzero = np.nonzero(buf)[0]
        if nonzero.size and int(nonzero[0]) + max_k <= span:
            shift = int(nonzero[0])
            coeffs = tuple(complex(c) for c in buf[shift : shift + max_k + 1])
            return OriginExpansion(mu=mu + shift, coeffs=coeffs, max_k=max_k)
        span *= 2
    raise ZeroLadderError(
        f"all origin coefficients vanish up to order {span // 2}; no leading term"
    )


def boundary_power_terms(profile: RadialProfile) -> tuple[tuple[complex, complex, complex], ...]:
    """phi_b(t) as power terms: tuples (c, beta, gama) meaning c*t^beta*(1-t)^gama."""
    n4 = profile.dimension / 4.0
    return tuple((t.coeff, t.lam / 2.0 - n4, t.rho - 1.0) for t in profile.terms)


def differentiate_power_terms(
    terms: tuple[tuple[complex, complex, complex], ...],
) -> tuple[tuple[complex, complex, complex], ...]:
    """One d/dt applied to a sum of c * t^beta * (1-t)^gama terms."""
    out = []
    for c, beta, gama in terms:
        if beta != 0:
            out.append((c * beta, beta - 1.0, gama))
        if gama != 0:
            out.append((-c * gama, beta, gama - 1.0))
    return tuple(out)


def boundary_expansion(profile: RadialProfile, max_j: int = 8) -> BoundaryExpansion:
    """Collect the (1-t)-power ladder of phi_b at t = 1.

    Expanding t^beta = sum_j (-1)^j binom(beta, j) (1-t)^j puts each term's
    contributions at exponents rho - 1 + j.  Exponents equal within 1e-12 are
    merged; distinct exponents sharing a real part cannot be ordered and
    raise :class:`ExponentCollisionError`.  The remainder exponent is
    Lambda = (minimal exponent) + max_j + 1 and only entries with real part
    below Re(Lambda) are retained.
    """
    if profile.vanishes_near_one:
        raise NotApplicableError(
            "profile vanishes near s = 1; no boundary expansion exists"
        )
    if max_j < 0:
        raise DomainError("max_j must be >= 0")
    power_terms = boundary_power_terms(profile)

    def collect(j_top: int) -> list[list]:
        entries: list[list] = []  # [exponent, coeff, contributors]
        for c, beta, gama in power_terms:
            for j in range(j_top + 1):
                e = gama + j
                a = c * (-1) ** j * binomial(beta, j)
                entries.append([e, a, 1])
        entries.sort(key=lambda r: (r[0].real, r[0].imag))
        merged: list[list] = []
        for e, a, cnt in entries:
            if merged and abs(e.real - merged[-1][0].real) <= _TOL:
                if abs(e.imag - merged[-1][0].imag) > _TOL:
                    raise ExponentCollisionError(
                        f"boundary exponents {merged[-1][0]} and {e} share a real part"
                    )
                merged[-1][1] += a
                merged[-1][2] += cnt
            else:
                merged.append([e, a, cnt])
        return merged

    # cap is anchored at the *surviving* minimal exponent; if cancellation
    # re-bases it upward, widen the ladder so entries below the cap are
    # complete before truncating
    j_top = max_j
    for _ in range(6):
        merged = collect(j_top)
        filtered = [(e, a) for e, a, cnt in merged if a != 0 or cnt == 1]
        while filtered and filtered[0][1] == 0:
            filtered.pop(0)
        if not filtered:
            raise ZeroLadderError("all boundary coefficients vanish; no leading term")
        cap = filtered[0][0] + (max_j + 1)
        complete_to = merged[0][0].real + j_top  # exponents collected exhaustively
        if cap.real - _TOL <= complete_to + 1:
            break
        j_top += math.ceil(cap.real - complete_to)
    kept = [(e, a) for e, a in filtered if e.real < cap.real - _TOL]
    if not kept:
        raise ZeroLadderError("all boundary coefficients vanish; no leading term")
    N = max(0, min(8, math.floor(cap.real + _TOL)))
    return BoundaryExpansion(terms=tuple(kept), Lambda=cap, N=N)


# ---------------------------------------------------------------------------
# profile JSON wire format
# ---------------------------------------------------------------------------

_TOP_KEYS = {"dimension", "vanishes_near_one", "terms"}
_TERM_KEYS = {"coeff", "lambda", "rho"}


def _parse_pair(value, where: str) -> complex:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise ProfileFormatError(f"{where} must be a [re, im] pair of numbers")
    z = complex(float(value[0]), float(value[1]))
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ProfileFormatError(f"{where} must be finite")
    return z


def profile_from_dict(data) -> RadialProfile:
    if not isinstance(data, dict):
        raise ProfileFormatError("profile document must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ProfileFormatError(f"unknown profile keys: {sorted(unknown)}")
    if "dimension" not in data or "terms" not in data:
        raise ProfileFormatError("profile requires 'dimension' and 'terms'")
    dim = data["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ProfileFormatError("'dimension' must be an integer")
    vno = data.get("vanishes_near_one", False)
    if not isinstance(vno, bool):
        raise ProfileFormatError("'vanishes_near_one' must be a boolean")
    raw_terms = data["terms"]
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ProfileFormatError("'terms' must be a nonempty array")
    terms = []
    for i, rt in enumerate(raw_terms):
        if not isinstance(rt, dict):
            raise ProfileFormatError(f"terms[{i}] must be an object")
        unknown = set(rt) - _TERM_KEYS
        if unknown:
            raise ProfileFormatError(f"terms[{i}] has unknown keys: {sorted(unknown)}")
        missing = _TERM_KEYS - set(rt)
        if missing:
            raise ProfileFormatError(f"terms[{i}] is missing keys: {sorted(missing)}")
        terms.append(
            (
                _parse_pair(rt["coeff"], f"terms[{i}].coeff"),
                _parse_pair(rt["lambda"], f"terms[{i}].lambda"),
                _parse_pair(rt["rho"], f"terms[{i}].rho"),
            )
        )
    try:
        return RadialProfile(
            dimension=dim,
            terms=tuple(ProfileTerm(coeff=c, lam=l, rho=r) for c, l, r in terms),
            vanishes_near_one=vno,
        )
    except DomainError as exc:
        raise ProfileFormatError(str(exc)) from exc


def profile_from_json(text: str) -> RadialProfile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileFormatError(f"invalid JSON: {exc}") from exc
    return profile_from_dict(data)


def profile_to_dict(profile: RadialProfile) -> dict:
    return {
        "dimension": profile.dimension,
        "vanishes_near_one": profile.vanishes_near_one,
        "terms": [
            {
                "coeff": [t.coeff.real, t.coeff.imag],
                "lambda": [t.lam.real, t.lam.imag],
                "rho": [t.rho.real, t.rho.imag],
            }
            for t in profile.terms
        ],
    }
