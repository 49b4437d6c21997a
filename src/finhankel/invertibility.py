"""Classification of radial profiles as invertible distributions.

Three routes produce a verdict, mirroring how the two expansion mechanisms
interact:

* ``Thm-smooth``   both the origin ladder and the boundary ladder exist with
                   nonzero leading coefficients: invertible (whichever term
                   dominates, the transform's envelope beats a fixed power).
* ``Thm-smooth2``  the boundary is flat to order N and the surviving origin
                   index satisfies Re(mu + k0 + 1/2) <= N: invertible.
* ``Thm-smooth3``  the profile vanishes identically near the support edge:
                   invertible *iff* the set K is non-empty.  This is the only
                   route that can return NotInvertible, and emptiness must be
                   provable for all k (binomial-ladder exclusion pattern),
                   not just within the scanned range.

Anything else is Inconclusive, with the failed hypothesis in the trace.

The module also hosts the empirical corroboration (window-supremum check of
the transform against C x^-A) and the closure calculus for building
certificates from already-classified pieces (convolution, scaling,
translation, derivative sums, smooth perturbation, tensor product).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics as asym
from .errors import (
    DomainError,
    ExponentCollisionError,
    HypothesisError,
    IncompatibleLadderError,
    NotApplicableError,
    RuleViolationError,
    ZeroLadderError,
    check_radius,
)
from .profiles import RadialProfile, boundary_expansion, origin_expansion
from .quadrature import QuadratureConfig, hankel_sweep

INVERTIBLE = "Invertible"
NOT_INVERTIBLE = "NotInvertible"
INCONCLUSIVE = "Inconclusive"


def _fmt(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:g}"
    return f"{z.real:g}{z.imag:+g}i"

_RULES = (
    "Thm-smooth",
    "Thm-smooth2",
    "Thm-smooth3",
    "Prop-2.4-i",
    "Prop-2.4-ii",
    "Prop-2.4-iii",
    "Prop-2.4-iv",
    "Prop-2.4-v",
    "Prop-2.4-vi",
    "External",
)


@dataclass(frozen=True)
class Verdict:
    status: str
    rule: str
    trace: tuple[str, ...]

    def __post_init__(self):
        if self.status not in (INVERTIBLE, NOT_INVERTIBLE, INCONCLUSIVE):
            raise DomainError(f"unknown status {self.status!r}")
        if self.rule not in _RULES:
            raise DomainError(f"unknown rule tag {self.rule!r}")

    def to_dict(self) -> dict:
        return {"status": self.status, "rule": self.rule, "trace": list(self.trace)}


@dataclass(frozen=True)
class SlowDecreaseParams:
    A: float
    B: float
    C: float
    alpha: float = 0.0

    def __post_init__(self):
        if not (self.A > 0 and self.B > 0 and self.C > 0):
            raise DomainError("A, B, C must be positive")
        if self.alpha < 0:
            raise DomainError("alpha must be >= 0")


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    worst_margin: float  # min over windows of sup|q| / (C x^-A)
    windows: int
    failures: int
    insufficient_resolution: bool
    params: SlowDecreaseParams
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            # JSON has no NaN: a margin left undefined by a NaN sample is null
            "worst_margin": None if math.isnan(self.worst_margin) else self.worst_margin,
            "windows": self.windows,
            "failures": self.failures,
            "insufficient_resolution": self.insufficient_resolution,
            "params": {
                "A": self.params.A,
                "B": self.params.B,
                "C": self.params.C,
                "alpha": self.params.alpha,
            },
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------


def _grouped_terms_cancel(profile: RadialProfile) -> bool:
    """True when coefficients cancel exactly within identical (lam, rho) groups."""
    groups: dict[tuple[complex, complex], complex] = {}
    for t in profile.terms:
        key = (t.lam, t.rho)
        groups[key] = groups.get(key, 0j) + t.coeff
    return all(v == 0 for v in groups.values())


def classify(profile: RadialProfile, max_k: int = 8, N: int = 8) -> Verdict:
    """Route a profile through the classification rules.

    Hypotheses of the selected rule are re-checked explicitly and logged;
    failures land in an Inconclusive trace instead of raising.  A negative
    flatness order N raises DomainError.
    """
    if N < 0:
        raise DomainError("N must be >= 0")
    trace: list[str] = []
    nu = profile.nu
    trace.append(f"dimension n={profile.dimension}, nu={nu:g}, terms={len(profile.terms)}")

    if _grouped_terms_cancel(profile):
        trace.append("all term coefficients cancel exactly: the profile is identically zero")
        if profile.vanishes_near_one:
            trace.append("zero data with vanishing edge: K is empty for every k")
            return Verdict(NOT_INVERTIBLE, "Thm-smooth3", tuple(trace))
        trace.append("no leading coefficient exists; no rule applies")
        return Verdict(INCONCLUSIVE, "Thm-smooth", tuple(trace))

    try:
        origin = origin_expansion(profile, max_k=max_k)
    except IncompatibleLadderError as exc:
        trace.append(f"origin ladder hypothesis failed: {exc}")
        return Verdict(INCONCLUSIVE, "Thm-smooth", tuple(trace))
    except ZeroLadderError as exc:
        trace.append(f"origin ladder degenerate: {exc}")
        return Verdict(INCONCLUSIVE, "Thm-smooth", tuple(trace))

    mu = origin.mu
    trace.append(f"origin ladder: mu={_fmt(mu)}, c0={_fmt(origin.coeffs[0])} != 0")
    if not (mu + nu).real > -1.0:
        trace.append(f"hypothesis Re(mu+nu) > -1 fails: {(mu + nu).real:g}")
        return Verdict(INCONCLUSIVE, "Thm-smooth", tuple(trace))
    trace.append(f"hypothesis Re(mu+nu) = {(mu + nu).real:g} > -1 holds")

    kk = asym.k_set(origin, nu)
    trace.append(f"K within k <= {origin.max_k}: {{{', '.join(map(str, kk.members))}}}")

    if profile.vanishes_near_one:
        return _classify_vanishing(profile, origin, kk, trace)

    # boundary data
    try:
        boundary = boundary_expansion(profile, max_j=max_k)
    except ExponentCollisionError as exc:
        trace.append(f"boundary ladder cannot be ordered: {exc}")
        return Verdict(INCONCLUSIVE, "Thm-smooth", tuple(trace))
    except ZeroLadderError as exc:
        trace.append(f"boundary ladder degenerate: {exc}")
        return Verdict(INCONCLUSIVE, "Thm-smooth", tuple(trace))

    lam0 = boundary.lambda0
    trace.append(f"boundary ladder: lambda0={_fmt(lam0)}, a0={_fmt(boundary.a0)} != 0")

    # flat-edge route first: boundary ladder starting at or above N
    if kk.k0 is not None and lam0.real >= N:
        k0 = kk.k0
        cond = (mu + k0 + 0.5).real
        trace.append(
            f"edge flat to order N={N} (Re(lambda0)={lam0.real:g} >= N)"
        )
        if cond <= N:
            trace.append(
                f"Re(mu+k0+1/2) = {cond:g} <= N = {N}: origin term survives the edge bound"
            )
            return Verdict(INVERTIBLE, "Thm-smooth2", tuple(trace))
        trace.append(f"Re(mu+k0+1/2) = {cond:g} > N = {N}: flat-edge route fails")

    if not lam0.real > -1.0:
        trace.append(f"hypothesis Re(lambda0) > -1 fails: {lam0.real:g}")
        return Verdict(INCONCLUSIVE, "Thm-smooth", tuple(trace))
    trace.append(f"hypothesis Re(lambda0) = {lam0.real:g} > -1 holds")

    if kk.k0 is None:
        if asym.ladder_fully_excluded(profile):
            trace.append("K empty for every k (binomial ladder exclusion): edge term dominates")
        else:
            trace.append(
                f"K empty within the scanned range k <= {origin.max_k} (not provably empty); "
                "edge term still dominates every scanned origin term"
            )
        trace.append(
            f"oscillatory edge decay r^-{(lam0 + 1.5).real:g} controls the envelope"
        )
        return Verdict(INVERTIBLE, "Thm-smooth", tuple(trace))

    od = (mu + kk.k0 + 1.0).real
    bd = (lam0 + 1.5).real
    kind = asym.compare_decays(od, bd)
    if kind is asym.Dominance.BALANCED:
        trace.append(
            f"decays tie at r^-{od:g}: sample radii where the cosine factor vanishes"
        )
    elif kind is asym.Dominance.ORIGIN:
        trace.append(f"origin decay r^-{od:g} dominates edge decay r^-{bd:g}")
    else:
        trace.append(f"edge decay r^-{bd:g} dominates origin decay r^-{od:g}")
    return Verdict(INVERTIBLE, "Thm-smooth", tuple(trace))


def _classify_vanishing(profile, origin, kk, trace) -> Verdict:
    trace.append("profile vanishes identically near the support edge")
    if kk.k0 is not None:
        trace.append(f"K non-empty: k0={kk.k0}, decay r^-{(origin.mu + kk.k0 + 1).real:g}")
        return Verdict(INVERTIBLE, "Thm-smooth3", tuple(trace))
    if asym.ladder_fully_excluded(profile):
        trace.append(
            "every ladder index is excluded: (lam_i - nu - 1)/2 is a nonnegative "
            "integer for each term, so the whole binomial ladder dies"
        )
        trace.append("K empty for all k: the transform drops faster than any power")
        return Verdict(NOT_INVERTIBLE, "Thm-smooth3", tuple(trace))
    trace.append(
        f"K empty within the scanned range k <= {origin.max_k}, but higher "
        "coefficients could survive; emptiness not established"
    )
    return Verdict(INCONCLUSIVE, "Thm-smooth3", tuple(trace))


# ---------------------------------------------------------------------------
# empirical slow-decrease corroboration
# ---------------------------------------------------------------------------


def slow_decrease_check(
    sampler,
    params: SlowDecreaseParams,
    r_range: tuple[float, float],
    grid_step: float,
) -> CheckReport:
    """Window-supremum test: sup{|q(y)| : |y-x| < B} > C x^-A on a grid of x.

    ``sampler`` maps an ndarray of radii to |q| values.  A window fails
    unless its margin sup / threshold is > 1, so a NaN sample fails every
    window that holds it; the worst margin is the smallest ratio.
    """
    r_min = check_radius(r_range[0], "slow_decrease_check")
    r_max = check_radius(r_range[1], "slow_decrease_check")
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise DomainError(f"grid_step must be finite and > 0, got {grid_step!r}")
    if r_min >= r_max:
        raise DomainError("empty r range")
    if r_min < params.B:
        raise DomainError("r_min must be >= the window half-width B")
    if grid_step > params.B / 8.0 + 1e-15:
        raise DomainError("grid_step must be <= B/8 to resolve the window supremum")
    lo = max(r_min - params.B, grid_step)
    grid = np.arange(lo, r_max + params.B + grid_step, grid_step)
    q = np.abs(np.asarray(sampler(grid), dtype=np.complex128))

    # strict window |y - x| < B: the farthest included sample sits half steps away
    half = max(1, math.ceil(params.B / grid_step) - 1)
    padded = np.pad(q, (half, half), constant_values=0.0)
    sup = np.maximum.reduce([padded[k : k + q.size] for k in range(2 * half + 1)])

    centers = (grid >= r_min) & (grid <= r_max)
    if not centers.any():
        raise DomainError(f"no point of the grid of step {grid_step:g} lies in [{r_min:g}, {r_max:g}]")
    x = grid[centers]
    s = sup[centers]
    threshold = params.C * x ** (-params.A)
    margins = s / threshold
    failures = int(np.count_nonzero(~(margins > 1.0)))
    worst = float(np.min(margins))

    # resolution warning from the oscillation rate of the samples
    d = np.diff(q)
    sign_changes = int(np.count_nonzero(np.diff(np.sign(d)) != 0))
    period_est = 2.0 * (grid[-1] - grid[0]) / max(sign_changes, 1)
    notes = []
    insufficient = bool(period_est < 4.0 * grid_step)
    if insufficient:
        notes.append(
            f"estimated oscillation period {period_est:.3g} is below 4*grid_step"
        )
    return CheckReport(
        passed=failures == 0,
        worst_margin=worst,
        windows=int(x.size),
        failures=failures,
        insufficient_resolution=insufficient,
        params=params,
        notes=tuple(notes),
    )


def derive_params(profile: RadialProfile) -> tuple[SlowDecreaseParams, tuple[str, ...]]:
    """Window parameters from the predicted dominant term.

    A is the dominant decay exponent of the weighted transform plus one unit
    of slack, C is half the dominant amplitude, B covers one full cosine
    period.  Profiles with no surviving term (rapidly decreasing transform)
    get fallback parameters; any fixed power is eventually violated there,
    which is exactly what the check should expose.
    """
    nu = profile.nu
    notes: list[str] = []
    try:
        pred = asym.predict(profile, n_origin_terms=1)
        rep = asym.dominance(pred)
        if rep.kind is asym.Dominance.BOUNDARY:
            dom = pred.boundary_terms[0]
        else:
            dom = next(t for t in pred.origin_terms if t.amplitude != 0)
        A = dom.exponent.real - nu + 1.0
        C = abs(dom.amplitude) / 2.0
        notes.append(
            f"dominant term amplitude {abs(dom.amplitude):.6g}, decay r^-{dom.exponent.real:g}"
        )
    except (asym.EmptyPredictionError, HypothesisError, NotApplicableError,
            IncompatibleLadderError, ZeroLadderError, StopIteration):
        A = nu + 2.5
        C = 1e-3
        notes.append("no dominant term exists; fallback parameters")
    return SlowDecreaseParams(A=max(A, 0.1), B=2.0 * math.pi, C=C, alpha=nu), tuple(notes)


_GRID_STEP = math.pi / 16.0  # grid step of verify_profile_slow_decrease


def verify_profile_slow_decrease(
    profile: RadialProfile,
    r_range: tuple[float, float] = (50.0, 2000.0),
    cfg: QuadratureConfig | None = None,
) -> CheckReport:
    """Empirical check that q(r) = r^nu |transform(r)| beats C x^-A in windows.

    The window parameters come from :func:`derive_params` and the grid step
    is pi/16; :func:`slow_decrease_check` takes any others.  Corroboration
    only: the verdict comes from the classifier's symbolic hypotheses, this
    confirms the numbers behave accordingly.
    """
    params, notes = derive_params(profile)
    nu = profile.nu

    def sampler(rr: np.ndarray) -> np.ndarray:
        return np.abs(hankel_sweep(profile, rr, cfg)) * rr ** nu

    report = slow_decrease_check(sampler, params, r_range, _GRID_STEP)
    return dataclasses.replace(report, notes=notes + report.notes)


# ---------------------------------------------------------------------------
# closure calculus
# ---------------------------------------------------------------------------

_COMBINE_RULES = {
    "Convolution": "Prop-2.4-i",
    "Scaled": "Prop-2.4-ii",
    "Translated": "Prop-2.4-iii",
    "DiffOpSum": "Prop-2.4-iv",
    "SmoothPerturbed": "Prop-2.4-v",
    "Tensor": "Prop-2.4-vi",
}


@dataclass(frozen=True)
class Certificate:
    kind: str
    verdict: Verdict
    children: tuple["Certificate", ...] = ()
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # wire format: exactly status / rule / trace / children
        out = self.verdict.to_dict()
        out["children"] = [c.to_dict() for c in self.children]
        return out


def profile_certificate(profile: RadialProfile) -> Certificate:
    return Certificate(kind="RadialProfileCert", verdict=classify(profile))


def point_mass_certificate() -> Certificate:
    """A finitely supported nonzero distribution; invertible outright."""
    v = Verdict(
        INVERTIBLE,
        "External",
        ("finitely supported nonzero distribution: invertible",),
    )
    return Certificate(kind="FinitePointMass", verdict=v)


def combine(kind: str, children, **params) -> Certificate:
    """Build a composite certificate from already-certified pieces.

    Convolution / Tensor / DiffOpSum / Scaled / Translated require every
    child to be Invertible; SmoothPerturbed passes its child's verdict
    through unchanged (perturbation by a smooth compactly supported function
    changes nothing either way).
    """
    children = tuple(children)
    if kind not in _COMBINE_RULES:
        raise RuleViolationError(f"unknown combination kind {kind!r}")
    rule = _COMBINE_RULES[kind]
    if not children:
        raise RuleViolationError(f"{kind} needs at least one child")
    if kind in ("Scaled", "Translated", "SmoothPerturbed", "DiffOpSum") and len(children) != 1:
        raise RuleViolationError(f"{kind} takes exactly one child certificate")
    if kind == "Scaled":
        alpha = params.get("alpha")
        if alpha is None or alpha == 0:
            raise RuleViolationError("Scaled requires a nonzero scale factor alpha")
    trace: list[str] = [f"{kind} of {len(children)} certified piece(s)"]
    for i, c in enumerate(children):
        trace.append(f"child {i}: {c.kind} -> {c.verdict.status} via {c.verdict.rule}")
    if kind == "SmoothPerturbed":
        status = children[0].verdict.status
        trace.append("smooth compactly supported perturbation preserves the verdict")
        return Certificate(kind, Verdict(status, rule, tuple(trace)), children, dict(params))
    bad = [c for c in children if c.verdict.status != INVERTIBLE]
    if bad:
        raise RuleViolationError(
            f"{kind} requires Invertible children; got {bad[0].verdict.status}"
        )
    trace.append("all children invertible: composite is invertible")
    return Certificate(kind, Verdict(INVERTIBLE, rule, tuple(trace)), children, dict(params))
