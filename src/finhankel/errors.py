"""Exception taxonomy shared by the whole package, and the radius check."""

import math
import numbers

import numpy as np


class FinHankelError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FinHankelError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Gamma function evaluated at a nonpositive integer."""


class IncompatibleLadderError(FinHankelError):
    """Term exponents do not differ from the minimal one by nonnegative integers,
    so no single power ladder describes the profile near the origin."""


class ExponentCollisionError(FinHankelError):
    """Two distinct boundary exponents share a real part; the expansion cannot be
    ordered by strictly increasing real parts."""


class NotApplicableError(FinHankelError):
    """Requested expansion does not exist for this profile (e.g. boundary data
    of a profile declared identically zero near the support edge)."""


class ZeroLadderError(FinHankelError):
    """Every collected expansion coefficient vanished; there is no leading term
    to normalise against."""


class SmoothnessBudgetError(FinHankelError):
    """A differentiation order exceeds what the boundary exponents allow."""


class HypothesisError(FinHankelError):
    """An explicit hypothesis of the operation is violated by the inputs."""


class EmptyPredictionError(FinHankelError):
    """Dominance comparison requested on a prediction with no terms."""


class RuleViolationError(FinHankelError):
    """A certificate combination rule received children it does not accept."""


class ProfileFormatError(FinHankelError, ValueError):
    """Profile JSON is malformed or violates the schema."""


def check_radius(r, who: str) -> float:
    """The radius as a float; bools, non-real, non-finite and r <= 0 raise."""
    if isinstance(r, bool) or not isinstance(r, numbers.Real) or not math.isfinite(r) or r <= 0:
        raise DomainError(f"{who} requires a finite real r > 0, got {r!r}")
    return float(r)


def check_radii(r, who: str) -> np.ndarray:
    """A 1-d array of radii as float64, under check_radius's rules.  A real
    integer or float array is checked all at once; any other dtype (bool,
    complex, string, object) element by element."""
    a = np.asarray(r)
    if a.dtype.kind not in "iuf":
        return np.array([check_radius(x, who) for x in a.tolist()], dtype=np.float64)
    bad = ~(np.isfinite(a) & (a > 0))
    if bad.any():
        check_radius(a[bad][0].item(), who)
    return a.astype(np.float64)
