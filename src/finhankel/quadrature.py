"""Ground-truth quadrature for finite Hankel transforms of closed-form profiles.

The integrand  s^lam (1-s^2)^(rho-1) J_nu(r s)  on (0, 1) combines an
algebraic singularity at each endpoint with oscillation of wavelength
2*pi/r.  The evaluator, ``_transform``, takes a grid of radii, and
``finite_hankel`` is its one-radius case.  It picks one of two paths per
radius and term from r, nu, the target and the cutoff flag alone.

Steepest descent, once r is at least twice the seam phase (30 at the
default target for orders nu up to about 9, so r >= 60), for every profile
without ``vanishes_near_one``:

* the origin zone [0, a], a = seam / r, in x = r s, where it is [0, seam]
  at every radius: the origin rule of the panel path on [0, 8] (graded
  panels down to a fixed depth for complex lam) and Legendre panels on
  fixed edges {8, 12.8, 19.08, 25.37, 30} for a seam of 30.  Their nodes
  do not depend on r, so the Bessel values there are tables, built lazily
  in extended precision once per order: per (nu, seam, n) for the panels,
  per (nu, Re lam + nu, n) for the origin rule.  Per radius only the
  profile factor at s = x / r and r^-(lam+1) are evaluated;
* on [a, 1], J_nu = (H1 + H2)/2.  The H1 part moves onto a + it and 1 + it,
  the H2 part onto a - it and 1 - it (t >= 0), where the kernel decays like
  e^(-r t).  Gauss-Laguerre rules in tau = r t cover each contour, with
  weight tau^(rho - 1) at s = 1; a complex rho leaves tau^(i Im rho), which
  Legendre panels graded toward tau = 0 absorb instead.  The exponentially
  scaled Hankel functions come from the same large-argument expansion as
  the Bessel kernel (specfun.hankel_scaled_grid).  The seam legs' Hankel
  argument, seam +- i tau, is the same at every radius, so their values
  are a table per (nu, seam, nodes) too.  Nothing cancels on the contours,
  so they run in double precision, and no part of the cost grows with r.
  Once an order's tables are built, this path calls no Bessel kernel.
* in z = r s, [0, a] and the legs from a are one path at every radius, so
  the evaluator and hankel_sweep build it once per term, at the smallest
  of their radii on this path, and carry it to the others by a factor per
  node (``_TermIntegral.steepest_descent``).

Panels, below the seam and for cutoff profiles at every r:

* an origin panel [0, s_a] with s_a ~ 8/r, integrated by Gauss-Jacobi with
  weight s^(Re lam + nu) after peeling the regular factor J_nu(x)/x^nu;
* a boundary panel [1-d, 1] with d ~ 8/r, integrated by Gauss-Jacobi with
  weight (1-s)^(Re rho - 1);
* oscillation-limited Gauss-Legendre panels in between, at most ~2*pi of
  Bessel phase per panel, width also graded toward both endpoints.

Exponents with a nonzero imaginary part make the endpoint factors oscillate
in log s, which no fixed polynomial weight absorbs; those cases fall back to
geometrically graded panels plus the leading term of the discarded tail in
closed form and an explicit bound on the rest.

One builder, ``_TermIntegral.node_sets``, turns a term, a mesh and a node
count into these pieces as node sets: nodes, weights with the profile
factor folded in, and a kernel kind (J_nu(r s), or r^nu J_nu(x)/x^nu at the
origin).  A closed-form end term is one more node.  On the panel path
nothing in a node set depends on r, so the evaluator sums them at one r at
a time, and hankel_sweep's panel path sums the same sets over a whole grid
of r.
The same builder makes the steepest-descent origin zone's sets in x = r s,
where the kernel values come from the tables above.

The evaluator runs each path once at two resolutions, with no mesh
refinement: 32 and 16 nodes per panel and, at the default 1e-10 target,
18 and 10 Laguerre nodes per contour leg.  The fine sum is the value; its
distance from the coarse sum, plus the rounding and bounds of the pieces,
is the error estimate.  On the contour path each term runs
``steepest_descent`` once per resolution over all the grid's radii there,
so a value moves within its estimate with the grid it is part of.  On
the panel path each radius runs alone: the node sets of every term at
both resolutions are built first, and ``_kernel_terms`` gets all their
kernel values from one call of each extended-precision kernel, plain and
scaled; then each set is summed on its own, as it would be alone.  The
kernel's value at a node depends on that node's x only, so batching
changes no term's value or estimate.

Panel sums cancel: large r makes the transform exponentially smaller than
the absolute mass of the integrand (panel values alternate in sign), so
every node value, weight and partial sum of a panel is kept in 80-bit
extended precision; in double the cancellation noise floor alone would
exceed the 1e-10 default tolerance by r ~ 500.  Extended precision thus
serves the panel path and the origin zone [0, a] of the steepest-descent
path, which cancels against the contours from a.  The kernel values
there are within 6e-16 of J_nu's envelope: the extended-precision kernel
runs its ascending series only up to x = 2, where it cannot cancel, and
Miller's recurrence above it up to where the large-argument expansion is
accurate to its rounding (29 for nu = 0 and 1, 318 for nu = 29).

The batch sweep, hankel_sweep, takes each radius down the evaluator's
path and returns no per-point error estimate.  It runs term
by term, each term over all its radii at once.  From twice the seam phase
on, it runs the evaluator's steepest-descent path, at its fine rules
only: the origin zone and seam legs are built once, at the smallest
of those radii, with their extended-precision sum there, and only the
per-node factor's step from 1 and the edge legs are evaluated per radius,
in double precision.  Its cost per radius is flat in r.  Below that, and
for cutoff profiles, it trades accuracy for speed: the panel node sets
are built per window of r (below), for the window's largest r, or for
r = 300 if that is larger and the profile has the cutoff, with 12 nodes
per panel, and each is summed as one double-precision kernel matrix per
chunk of radii, the chunks of every node set held to one budget of
(radius, node) pairs.  The phase r s is one long-double product rounded
once to double.  The double-precision kernel runs Miller's recurrence
where the ascending series would cancel, and with it a mesh built for the
window's own radii is accurate to about 1e-12 relative.
A dense grid is not swept radius by radius.  F is of exponential type u,
the top of the support (1, or 2/3 for cutoff profiles), so each path's
sorted radii are cut into windows in one pass: a window starts at the
first radius a no window covers yet and spans [a, b], b the last radius
within min(a + 128, a 16^(1/(nu + 2))), so that r^-(nu + 2) changes by
at most 16 across it (near r = 0, and for large orders, it is narrower
than 128).  A window of half-width h holding more radii than
m = ceil(u h) + 40 is swept at its m Chebyshev points on [a, b] only and
interpolated onto its radii in barycentric form (Berrut & Trefethen,
SIAM Rev. 46 (2004)).  The weights and the differences r - x_j come from
the points as rounded when sampled; with textbook weights against the
unrounded points the interpolant drifts from the sweep by about 1e-13 of
the envelope at r ~ 1500.

Profiles flagged ``vanishes_near_one`` are materialised with a fixed smooth
cutoff equal to 1 below s = 1/3 and 0 above s = 2/3, which realises "the
given closed form near the origin, identically zero near the edge".  The
cutoff is not analytic, so those profiles never leave the real axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_genlaguerre, roots_jacobi

from .errors import DomainError, SmoothnessBudgetError, check_radii, check_radius
from .profiles import (
    RadialProfile,
    boundary_power_terms,
    differentiate_power_terms,
)
from .specfun import bessel_j_grid, bessel_j_scaled_grid, hankel_scaled_grid, _gamma_real_ld

_LD = np.longdouble
_CLD = np.clongdouble
_ENDPOINT_PHASE = 8.0  # Bessel phase allowed inside each endpoint panel
_CUT_LO, _CUT_HI = 1.0 / 3.0, 2.0 / 3.0
_SEAM_PHASE = 30.0  # smallest r*a at which [a, 1] is deformed onto contours
_NODES = 32  # nodes per panel of the evaluator; half as many for its check
_MAX_PANELS = 20000  # oscillation panels per mesh before they are widened
_SWEEP_NODES = 12  # nodes per panel of the panel sweep
# smallest radius a cutoff profile's panel-sweep mesh is built for: below it
# 12 nodes per panel do not resolve the smooth cutoff's ramp on [1/3, 2/3].
# For the cutoff (0, 1) on r in [43.7, 75], against finite_hankel, a mesh
# built for r = 75 is off by 4e-10 relative, one for 171 by 6e-14, and one
# for 250 to 2006 by 3e-15
_CUTOFF_MESH_R = 300.0
# hankel_sweep's windows of r: at most _WINDOW wide, and sampled at
# ceil(u h) + _WINDOW_MARGIN Chebyshev points for half-width h and support [0, u]
_WINDOW = 128.0
_WINDOW_MARGIN = 40
# A window [a, b] also keeps (b / a)^(nu + 2), the change of r^-(nu + 2)
# across it, within _WINDOW_RANGE.  The interpolant errs by a fixed fraction
# of |F|'s largest value in its window, and |F| rises like r^nu up to
# r ~ nu and then falls off roughly like r^-2, so this bounds that error
# relative to the local size of F.  Windows only _WINDOW wide let n = 30
# (nu = 14, lam = 1, rho = 1.5) on [pi/16, 200) drift from the direct sweep
# by 6.4e-9 of the local envelope, against 1.2e-14 with this bound
_WINDOW_RANGE = 16.0
# (radius, node) pairs per chunk of either sweep over many radii, and
# (radius, point) pairs per chunk of the interpolant, so their largest
# temporaries hold at most 8 MB.  steepest_descent's widest part, a
# real-exponent term's 160 origin-zone nodes at the default target, takes
# the 1,614 Chebyshev points of a C7 sweep's 16 contour windows in 1 chunk.
# panel_sweep chunks each node set by its own size.  With 12 nodes per
# panel, a C7 cutoff sweep (lam = 1, rho = 3.5) has 16 windows, 15 of 83
# Chebyshev points and the last of 55, on meshes of 396 nodes (built for
# 300) to 2,568 (for 2006), so every window is 1 chunk
_SWEEP_ELEMS = 1 << 19
# relative accuracy of a double-precision contour sum: the Laguerre rules'
# low moments are good to about 4e-15 when alpha = rho - 1 is near -1
_CONTOUR_ROUNDING = 4e-15
# error of a Gauss-Jacobi sum per unit of its absolute mass, measured against
# mpmath on e^(i(c u + theta)), c <= 4, for 12 to 32 nodes: at most 4.4e-16
# for exponents e >= -0.8, growing like 7.5e-17 / (1 + e) toward e = -1
# (1.8e-15 at -0.98, 7.4e-14 at -0.999); charged as this / min(1, 1 + e)
_JACOBI_ROUNDING = 5e-16
# error of the extended-precision Bessel kernel per unit of a node's absolute
# mass |w k|, charged on every real-axis node, where the two-resolution
# estimate cannot see it.  The kernel is within 6e-16 of the envelope
# sqrt(J_nu^2 + J_nu+1^2) at every phase, and at most nodes |k| is close to
# that envelope.  This is not a worst-case bound: near a zero of J_nu, |k|
# falls below the envelope, and the bound 6e-16 * sum |w| * envelope of a
# boundary Gauss-Jacobi set whose mass sits at a zero (rho = 0.035, r = 6.4)
# is 1.64x this charge.  Per-element bounds from the kernel are the route to
# a worst-case bound
_KERNEL_ROUNDING = 2e-15
_HALF_PI_LD = 2 * np.arctan(_LD(1))


@dataclass(frozen=True)
class QuadratureConfig:
    target_rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.target_rel_tol < 1.0:
            raise DomainError("target_rel_tol must lie in (0, 1)")


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    panels_used: int


_DEFAULT_CFG = QuadratureConfig()


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------


def _jacobi_eval(n: int, a: float, b: float, x: np.ndarray):
    """P_n^(a,b)(x) and its derivative by the three-term recurrence."""
    a, b = _LD(a), _LD(b)
    pm = np.ones_like(x)
    p = (a - b) / 2 + (a + b + 2) * x / 2
    for k in range(1, n):
        c = 2 * k + a + b
        p, pm = (
            (c + 1) * ((c + 2) * c * x + a * a - b * b) * p - 2 * (k + a) * (k + b) * (c + 2) * pm
        ) / (2 * (k + 1) * (k + a + b + 1) * c), p
    c = 2 * n + a + b
    dp = (n * ((a - b) - c * x) * p + 2 * (n + a) * (n + b) * pm) / (c * (1 - x * x))
    return p, dp


@lru_cache(maxsize=512)
def _gauss_jacobi(n: int, a: float, b: float):
    """Jacobi nodes/weights for (1-x)^a (1+x)^b polished to long-double accuracy.

    scipy's rule is off by up to 1e-10 relative in its moments when an
    exponent is near -1 (1e-13 elsewhere), which the origin and boundary
    panels would pass on to the value unseen.  With a = b = 0 this is the
    Legendre rule of every panel: double-precision weights would put
    O(1e-16) per-node noise into the cancelling panel sums.
    """
    x, w0 = roots_jacobi(n, a, b)
    x = x.astype(_LD)
    for _ in range(2):
        p, dp = _jacobi_eval(n, a, b, x)
        x = x - p / dp
    _, dp = _jacobi_eval(n, a, b, x)
    w = 1 / ((1 - x * x) * dp * dp)
    w = w * (_LD(np.sum(w0)) / np.sum(w))  # scipy's zeroth moment is accurate
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=512)
def _gauss_laguerre(n: int, alpha: float):
    """Generalised Gauss-Laguerre rule for the weight t^alpha e^(-t) on (0, inf)."""
    x, w = roots_genlaguerre(n, alpha)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _laguerre_nodes(tol: float) -> int:
    """Coarse contour rule size for a relative target ``tol``.

    On the contours the nearest singularity of the integrand (s = 0) sits
    at distance r*a >= 30 in the Laguerre variable, and the rules gain about
    1.5 digits per node there: 10 nodes reach the rounding floor.
    """
    return max(8, math.ceil(-math.log10(tol)))


@lru_cache(maxsize=256)
def _seam_phase(nu: float, tol: float):
    """Phase r*a above which [a, 1] is deformed, or None if there is none.

    The first of 30, 45, 67.5, ... up to 500 at which the Hankel expansion's
    remainder bound is below 1e-6 * tol: the contour mass can exceed the
    transform by several orders, and the bound multiplies that mass.
    """
    phase = _SEAM_PHASE
    while phase <= 500.0:
        if hankel_scaled_grid(nu, np.array([phase]))[1] <= 1e-6 * tol:
            return phase
        phase *= 1.5
    return None


def _graded_ratio(n: int) -> float:
    """Width ratio of successive panels graded toward a branch point.

    An n-point Legendre panel [q a, a] next to the branch point at 0 is
    good to about 3^-2n at q = 1/4 (5e-16 from 16 nodes up) and 5.8^-2n at
    q = 1/2 (5e-19 at 12 nodes, where 1/4 would leave 4e-12).
    """
    return 0.25 if n >= 16 else 0.5


def _cexp_ld(re, im):
    """exp(re + i*im) for long-double exponent parts, rounded to complex
    double; elementwise over arrays."""
    mag = np.exp(np.asarray(re, dtype=_LD))
    im = np.asarray(im, dtype=_LD)
    return (mag * np.cos(im)).astype(np.float64) + 1j * (mag * np.sin(im)).astype(np.float64)


def _matvec(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """m @ t for a complex vector t.  A real m meets the real and imaginary
    parts of t as two real columns: a product with a complex vector would
    first copy m to complex."""
    if np.iscomplexobj(m):
        return m @ t
    k = m @ np.stack([t.real, t.imag], axis=1)
    return k[:, 0] + 1j * k[:, 1]


# ---------------------------------------------------------------------------
# mesh and integrand pieces
# ---------------------------------------------------------------------------


def _middle_edges(lo: float, hi: float, osc_width: float, forced=(), unit: float = 1.0) -> np.ndarray:
    """Breakpoints on [lo, hi] in v = unit * s: oscillation-limited width,
    graded at both ends."""
    edges = [lo]
    s = lo
    while s < hi:
        w = min(osc_width, 0.6 * s, 0.5 * (unit - s), 0.18 * unit)
        w = max(w, 1e-12)
        s = min(s + w, hi)
        edges.append(s)
    pts = np.array(edges)
    if forced:
        pts = np.union1d(pts, [f for f in forced if lo < f < hi])
    return pts


def _phase_edges(seam: float) -> tuple:
    """Edges of the steepest-descent origin zone's Legendre panels on
    [8, seam] in x = r s.  Below x = seam the caps of ``_middle_edges`` at
    the edge s = 1 reach no further than 0.5 (r - x) >= seam / 2 and
    0.18 r >= 0.36 seam, both above 2 pi once r >= 2 seam, so these are the
    edges at every radius of the path: {8, 12.8, 19.08, 25.37, 30} for a
    seam of 30."""
    return tuple(_middle_edges(_ENDPOINT_PHASE, seam, 2.0 * math.pi, unit=2.0 * seam).tolist())


def _panel_nodes(edges, n: int):
    """n-point Legendre panels between ascending ``edges``, in extended
    precision: (midpoints, half-width times rule node, half-width times
    rule weight), a row per panel."""
    x, w = _gauss_jacobi(n, 0.0, 0.0)
    e = np.asarray(edges).astype(_LD)
    mid = ((e[1:] + e[:-1]) / 2)[:, None]
    half = ((e[1:] - e[:-1]) / 2)[:, None]
    return mid, half * x[None, :], half * w[None, :]


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


# Kernel tables of the steepest-descent origin zone and seam legs.  In
# x = r s their nodes are the same at every radius, so each table is built
# once, lazily, in extended precision through this module's Bessel names,
# and every radius of every term of that order reads it.


@lru_cache(maxsize=64)
def _phase_panels(nu: float, edges: tuple, n: int):
    """Legendre panels between ``edges`` in x: (nodes, half-width times
    rule weight, J_nu at the nodes), a row per panel, read-only."""
    mid, hx, hw = _panel_nodes(edges, n)
    x = mid + hx
    return _frozen(x, hw, bessel_j_grid(nu, x, longdouble=True))


@lru_cache(maxsize=256)
def _phase_origin(nu: float, b: float, x_a: float, n: int):
    """The origin rule on [0, x_a] in x with weight x^b: (nodes, weights
    with (x_a / 2)^(b+1), J_nu(x)/x^nu at the nodes), one row, read-only."""
    t, w = _gauss_jacobi(n, 0.0, b)
    h = _LD(x_a) / 2
    x = (h * (1 + t))[None, :]
    return _frozen(x, (w * h ** _LD(b + 1.0))[None, :], bessel_j_scaled_grid(nu, x, longdouble=True))


@lru_cache(maxsize=64)
def _seam_hankel(nu: float, seam: float, nl: int, kind: int):
    """``hankel_scaled_grid`` of this kind on its seam leg, at
    z = seam +- i tau for the nl Laguerre nodes tau: (h, truncation bound)."""
    tau, _ = _gauss_laguerre(nl, 0.0)
    h, bound = hankel_scaled_grid(nu, seam + (1j if kind == 1 else -1j) * tau, kind)
    h.setflags(write=False)
    return h, bound


def _smooth_cutoff_ld(s: np.ndarray) -> np.ndarray:
    """C-infinity step: 1 for s <= 1/3, 0 for s >= 2/3."""
    u = (np.asarray(s, dtype=_LD) - _LD(_CUT_LO)) / _LD(_CUT_HI - _CUT_LO)
    lo = np.clip(u, 1e-30, None)
    hi = np.clip(1 - u, 1e-30, None)
    g0 = np.where(u > 0, np.exp(-1 / lo), _LD(0.0))
    g1 = np.where(u < 1, np.exp(-1 / hi), _LD(0.0))
    return g1 / (g0 + g1)


def _phi_factor(s, dist1, lam, rho, from_u: bool = False):
    """s^lam * (1-s^2)^(rho-1) with 1-s supplied separately as ``dist1``.

    ``dist1`` comes from exact panel arithmetic, so (1-s)(1+s) keeps full
    relative accuracy next to s = 1 where 1 - s*s would not.  ``from_u``
    marks panels parametrised by u = 1-s, where dist1 itself is exact and
    log(s) must be taken as log1p(-dist1).
    """
    one_minus_s2 = dist1 * (2.0 - dist1)
    log_s = np.log1p(-dist1) if from_u else np.log(s)
    log_u = np.log(one_minus_s2)
    if lam.imag == 0.0 and rho.imag == 0.0:
        return np.exp(_LD(lam.real) * log_s + _LD(rho.real - 1.0) * log_u)
    return np.exp(
        complex(lam) * log_s.astype(_CLD) + (complex(rho) - 1.0) * log_u.astype(_CLD)
    )


@dataclass(frozen=True)
class _NodeSet:
    """Nodes of one real-axis piece of a term.

    Rows of ``s`` and ``w`` are panels.  ``w`` holds the profile factor,
    the rule weight and the panel half-width.  The kernel is
    J_nu(r s), or r^nu J_nu(x)/x^nu at x = r s when ``scaled``; such a set
    is valid at every r.  A set built in x = r s instead carries its
    kernel values, J_nu(x) or J_nu(x)/x^nu, from a per-order table in
    ``kernel``, and its weights hold this term's r^-(lam+1).
    ``rounding`` is the kernel's error plus the rule's, per unit of
    absolute mass |w k|.
    """

    s: np.ndarray
    w: np.ndarray
    scaled: bool = False
    rounding: float = _KERNEL_ROUNDING
    kernel: np.ndarray | None = None


def _single_node(s: float, w: complex, scaled: bool, kernel=None) -> _NodeSet:
    """A closed-form piece as one node: its weight times the kernel at s."""
    return _NodeSet(np.full((1, 1), s, dtype=_LD), np.full((1, 1), w, dtype=_CLD), scaled, kernel=kernel)


class _TermIntegral:
    """One closed-form term  s^lam (1-s^2)^(rho-1) J_nu(r s)  on (0,1)."""

    def __init__(self, lam: complex, rho: complex, nu: float, r: float, cutoff: bool):
        self.lam = complex(lam)
        self.rho = complex(rho)
        self.nu = float(nu)
        self.r = float(r)
        self.cutoff = cutoff
        self.upper = _CUT_HI if cutoff else 1.0

    # -- mesh -----------------------------------------------------------

    def build_mesh(self) -> np.ndarray:
        """Edges of the oscillation panels.

        The endpoint zones below edges[0] and above edges[-1] carry at most
        ``_ENDPOINT_PHASE`` of Bessel phase.  The panel budget is honoured
        by widening the oscillation panels; accuracy loss then shows up in
        the two-resolution error estimate, never as an error.
        """
        r = max(self.r, 1e-30)
        lo = min(0.35, _ENDPOINT_PHASE / r)
        d_top = 0.0 if self.cutoff else min(0.3, _ENDPOINT_PHASE / r)
        osc = 2.0 * math.pi / r
        span = self.upper - d_top - lo
        if span / osc > _MAX_PANELS - 60:
            osc = span / (_MAX_PANELS - 60)
        forced = (_CUT_LO,) if self.cutoff else ()
        return _middle_edges(lo, self.upper - d_top, osc, forced)

    # -- node sets -------------------------------------------------------

    def node_sets(self, edges, n: int, tol: float, in_phase: bool = False):
        """The term on [0, edges[-1]], and on [edges[-1], 1] unless it has the
        cutoff or ``in_phase``, as n-point node sets: Legendre panels between
        the edges, and an endpoint zone each side.  A real exponent there is
        absorbed by a Gauss-Jacobi rule; a complex one oscillates in log s,
        which no fixed polynomial weight absorbs, so geometrically graded
        panels cover the zone, a single node carries the leading term of the
        discarded end piece in closed form, and the rest is bounded.  Returns (sets, bound
        on the discarded end pieces).

        With ``in_phase`` the edges are in x = r s and the nodes are fixed
        in x, so their kernel values come from the per-order tables
        ``_phase_panels`` and ``_phase_origin``; only the profile factor at
        s = x / r is evaluated.  This serves the origin zone of the
        steepest-descent path, which has no edge zone.
        """
        sets = [self._legendre(edges, n, in_phase=in_phase)]
        s_a = float(edges[0])
        if self.lam.imag == 0.0:
            sets.append(self._origin_jacobi(s_a, n, in_phase))
            tail = 0.0
        else:
            graded, tail = self._origin_graded(s_a, n, tol, in_phase)
            sets += graded
        if not (self.cutoff or in_phase):
            d_top = 1.0 - float(edges[-1])
            if self.rho.imag == 0.0:
                sets.append(self._boundary_jacobi(d_top, n))
            else:
                graded, bound = self._boundary_graded(d_top, n, tol)
                sets += graded
                tail += bound
        return sets, tail

    def _factor(self, s, dist1, from_u: bool = False):
        f = _phi_factor(s, dist1, self.lam, self.rho, from_u)
        if self.cutoff:
            f = f * _smooth_cutoff_ld(s)
        return f

    def _legendre(self, edges, n: int, from_u: bool = False, in_phase: bool = False) -> _NodeSet:
        """Legendre panels between ascending ``edges`` in s, or with ``from_u``
        in u = 1 - s, where 1 - s stays exact next to s = 1, or with
        ``in_phase`` in x = r s, with J_nu from the order's table."""
        if in_phase:
            x, hw, kernel = _phase_panels(self.nu, tuple(edges), n)
            r = _LD(self.r)
            s = x / r
            return _NodeSet(s, self._factor(s, 1 - s) * (hw / r), kernel=kernel)
        mid, hx, hw = _panel_nodes(edges, n)
        t = mid + hx
        if from_u:
            s, dist1 = 1 - t, t
        else:
            s, dist1 = t, (1 - mid) - hx
        return _NodeSet(s, self._factor(s, dist1, from_u) * hw)

    def _origin_jacobi(self, s_a: float, n: int, in_phase: bool = False) -> _NodeSet:
        """[0, s_a] with weight s^(lam+nu) after peeling J_nu(x)/x^nu; with
        ``in_phase`` [0, x_a = s_a] in x = r s, with the nodes, weights and
        kernel from the table of (nu, lam + nu, n) and r^-(lam+1) overall."""
        b = self.lam.real + self.nu
        if in_phase:
            x, w, kernel = _phase_origin(self.nu, b, s_a, n)
            s = x / _LD(self.r)
            scale = np.exp(-_LD(self.lam.real + 1.0) * np.log(_LD(self.r)))
        else:
            x, w = _gauss_jacobi(n, 0.0, b)
            h = _LD(s_a) / 2
            s = (h * (1 + x))[None, :]
            w, scale, kernel = w[None, :], h ** _LD(b + 1.0), None
        f = np.exp(_LD(self.rho.real - 1.0) * np.log1p(-s * s)) if self.rho.imag == 0.0 \
            else np.exp((complex(self.rho) - 1.0) * np.log1p(-(s * s).astype(_CLD)))
        if self.cutoff:
            f = f * _smooth_cutoff_ld(s)
        rounding = _KERNEL_ROUNDING + _JACOBI_ROUNDING / min(1.0, 1.0 + b)
        return _NodeSet(s, w * f * scale, True, rounding, kernel)

    def _boundary_jacobi(self, d_b: float, n: int) -> _NodeSet:
        """[1 - d_b, 1] with weight (1-s)^(rho-1)."""
        a = self.rho.real - 1.0
        x, w = _gauss_jacobi(n, a, 0.0)
        h = _LD(d_b) / 2
        u = h * (1 - x)  # 1 - s
        f = np.exp(complex(self.lam) * np.log1p(-u).astype(_CLD)) if self.lam.imag != 0.0 \
            else np.exp(_LD(self.lam.real) * np.log1p(-u))
        w = w * f * np.exp(_LD(a) * np.log(2 - u)) * h ** _LD(a + 1.0)
        rounding = _KERNEL_ROUNDING + _JACOBI_ROUNDING / min(1.0, 1.0 + a)
        return _NodeSet((1 - u)[None, :], w[None, :], False, rounding)

    def _origin_graded(self, s_top: float, n: int, tol: float, in_phase: bool = False):
        """Fallback for complex lam: geometric panels down to delta, then [0, delta].

        There the integrand is (r/2)^nu s^(lam+nu) / Gamma(nu+1) times 1 + E(s),
        |E(s)| < 2 s^2 ((r/2)^2/(nu+1) + |rho-1|) while that is small, so the
        leading term is a scaled-kernel node at s = 0 with weight
        delta^p / p, p = lam+nu+1, and the E part is bounded.  Next to a
        transform of size r^-(lam+1), that bound is about (r delta)^(p1+2), so
        the depth brings r*delta (at least 2*delta) down to
        (tol/100)^(1/(p1+2)).  With ``in_phase``, s_top and the edges are in
        x = r s: the depth is the same at every r, and the node at 0 takes
        J_nu(x)/x^nu = 2^-nu / Gamma(nu+1) in closed form, as the Bessel
        series gives it.  Returns (node sets, bound).
        """
        p1 = self.lam.real + self.nu + 1.0
        ratio = _graded_ratio(n)
        k = (self.r / 2) ** 2 / (self.nu + 1.0) + abs(self.rho - 1.0)
        top = s_top if in_phase else max(self.r, 2.0) * s_top
        reach = math.log(max(tol, 1e-30) * 1e-2) / (p1 + 2.0) - math.log(top)
        depth = min(220, max(4, math.ceil(reach / math.log(ratio))))
        edges = np.sort(s_top * ratio ** np.arange(depth + 1, dtype=np.float64))
        delta = float(edges[0])
        p = self.lam + self.nu + 1.0
        if in_phase:
            w = np.exp(p * math.log(delta) - (self.lam + 1.0) * math.log(self.r)) / p
            k0 = _LD(2.0) ** _LD(-self.nu) / _gamma_real_ld(self.nu + 1.0)
            lead = _single_node(0.0, w, True, np.full((1, 1), k0))
            delta /= self.r
        else:
            lead = _single_node(0.0, np.exp(p * math.log(delta)) / p, True)
        scale = (self.r / 2) ** self.nu / float(_gamma_real_ld(self.nu + 1.0))
        sets = [self._legendre(edges, n, in_phase=in_phase), lead]
        return sets, 2.0 * scale * k * delta ** (p1 + 2.0) / (p1 + 2.0)

    def _boundary_graded(self, d_top: float, n: int, tol: float):
        """Fallback for complex rho: geometric panels in u = 1 - s down to delta.

        On [0, delta] the integrand is u^(rho-1) G(u), G = (2-u)^(rho-1)
        (1-u)^lam J_nu(r(1-u)), so G(0) delta^rho / rho is a plain-kernel node
        at s = 1 with weight 2^(rho-1) delta^rho / rho, and
        |G'| < 2^max(Re rho - 1, 0) (r + |lam| + |rho-1|), with a factor 2 to
        spare, bounds the rest.  The depth brings r*delta (at least delta)
        down to (tol/100)^(1/(Re rho + 1)).  Returns (node sets, bound).
        """
        p1 = self.rho.real
        ratio = _graded_ratio(n)
        reach = math.log(max(tol, 1e-30) * 1e-2) / (p1 + 1.0) - math.log(max(self.r, 1.0) * d_top)
        depth = min(220, max(4, math.ceil(reach / math.log(ratio))))
        u_edges = np.sort(d_top * ratio ** np.arange(depth + 1, dtype=np.float64))
        delta = float(u_edges[0])
        lead = _single_node(1.0, 2.0 ** (self.rho - 1.0) * np.exp(self.rho * math.log(delta)) / self.rho, False)
        slope = 2.0 ** max(p1 - 1.0, 0.0) * (self.r + abs(self.lam) + abs(self.rho - 1.0))
        return [self._legendre(u_edges, n, from_u=True), lead], 2.0 * slope * delta ** (p1 + 1.0) / (p1 + 1.0)

    # -- steepest-descent contours ------------------------------------------

    def _leg_seam(self, seam: float, nl: int, sigma: float):
        """sigma (i/2) int_0^inf f(a + i sigma t) H(r (a + i sigma t)) dt,
        a = seam / r.

        H is H1 for sigma = +1 and H2 for sigma = -1, so the kernel decays
        like e^(-r t); tau = r t carries the nl-node Laguerre rule, and
        H's argument seam + i sigma tau is the same at every r, so H comes
        from the table ``_seam_hankel``.  Returns the nodes as z = r s, the
        term of each node, whose sum is the leg, and each term's error per
        unit of its modulus: the Hankel truncation bound and the contour
        rounding floor.
        """
        r = self.r
        a = seam / r
        x, w = _gauss_laguerre(nl, 0.0)
        d = 1j * sigma * x / r  # s - a
        g = np.exp(
            self.lam * np.log1p(d / a)
            + (self.rho - 1.0) * np.log1p(-d * (2.0 * a + d) / (1.0 - a * a))
        )
        h, kbound = _seam_hankel(self.nu, seam, nl, 1 if sigma > 0 else 2)
        # f(a) e^(i sigma seam) in extended precision: this leg cancels
        # against the origin zone, and exp of a large exponent loses digits
        la, l1 = np.log(_LD(a)), np.log1p(-_LD(a) * _LD(a))
        pre = _cexp_ld(
            self.lam.real * la + (self.rho.real - 1.0) * l1,
            self.lam.imag * la + self.rho.imag * l1 + sigma * _LD(seam),
        )
        z = seam + 1j * sigma * x
        return z, sigma * 0.5j / r * pre * (w * g * h), np.full(x.size, kbound + _CONTOUR_ROUNDING)

    def _seam_zone(self, seam: float, n: int, nl: int, tol: float):
        """The origin zone [0, a], a = seam / r, and the two seam legs from a,
        at this term's r, as nodes z = r s (complex on the legs).

        Both are built in x = r s, where their nodes are the same at every
        radius: the origin rule on [0, 8] and Legendre panels on the fixed
        edges ``_phase_edges(seam)`` up to the seam, with the kernel values
        read from tables built once per order and per (nu, Re lam + nu, n)
        (``node_sets`` with ``in_phase``), and the seam legs' Hankel values
        from ``_seam_hankel``.  Per radius only the profile factor at
        s = x / r, r^-(lam+1) and the bounds are evaluated.
        Returns ([real axis, legs], bound on the discarded origin piece,
        panels), each part as (z, term of each node, error per unit of each
        term's modulus).  The real-axis terms stay in extended precision:
        their sum cancels against the legs.
        """
        r = self.r
        sets, tail = self.node_sets(_phase_edges(seam), n, tol, in_phase=True)
        z = r * np.concatenate([np.asarray(ns.s, dtype=np.float64).ravel() for ns in sets])
        t = np.concatenate([(ns.w * ns.kernel).ravel() for ns in sets])
        rounding = np.concatenate([np.full(ns.s.size, ns.rounding) for ns in sets])
        legs = [self._leg_seam(seam, nl, sigma) for sigma in (1.0, -1.0)]
        parts = [(z, t, rounding), tuple(map(np.concatenate, zip(*legs)))]
        return parts, tail, sum(ns.s.shape[0] for ns in sets) + 2

    def _edge_rule(self, nl: int, n: int, tol: float):
        """Nodes and weights in tau = r t of both edge legs, with the weight
        tau^(rho-1) e^(-tau) folded in: (x, w, delta, top, rules).

        A generalised Laguerre rule absorbs tau^(rho-1) for real rho; for
        complex rho, tau^(i Im rho) oscillates in log tau, so Legendre panels
        graded toward tau = 0 down to delta and doubling up to top cover it,
        and node 0 at tau = 0 carries the leading term of [0, delta] in
        closed form (delta and top are None for real rho).
        """
        rho = self.rho
        alpha = rho.real - 1.0
        if rho.imag == 0.0:
            x, w = _gauss_laguerre(nl, alpha)
            return x, w, None, None, 1
        ratio = _graded_ratio(n)
        depth = max(4, math.ceil(math.log(tol * 1e-3) / ((alpha + 2.0) * math.log(ratio))))
        top = 2.0 ** math.ceil(math.log2(48.0 + 4.0 * max(alpha, 0.0)))
        e = np.concatenate([ratio ** np.arange(depth, 0, -1.0), 2.0 ** np.arange(0.0, math.log2(top) + 1)])
        xl, wl = _gauss_jacobi(n, 0.0, 0.0)
        mid = (e[1:] + e[:-1]) / 2
        half = (e[1:] - e[:-1]) / 2
        x = (mid[:, None] + half[:, None] * np.asarray(xl, dtype=np.float64)[None, :]).ravel()
        w = (half[:, None] * np.asarray(wl, dtype=np.float64)[None, :]).ravel()
        w = w * np.exp((rho - 1.0) * np.log(x) - x)
        delta = float(e[0])
        # node 0 carries the leading term of [0, delta]: g(0) = 1
        x = np.concatenate([[0.0], x])
        w = np.concatenate([[np.exp(rho * math.log(delta)) / rho], w])
        return x, w, delta, top, len(e) - 1

    def _leg_edge(self, r: np.ndarray, rule, sigma: float):
        """-sigma (i/2) int_0^inf f(1 + i sigma t) H(r (1 + i sigma t)) dt at
        every radius of ``r``.

        With tau = r t, f = tau^(rho-1) C g(tau), C = (2/r)^(rho-1)
        e^(-i sigma pi (rho-1)/2) and g = (1 + i sigma tau/r)^lam
        (1 + i sigma tau/(2r))^(rho-1); ``rule`` comes from ``_edge_rule``,
        and for complex rho both tails it discards are bounded.
        Returns (values, absolute masses, kernel truncation and tail bounds).
        """
        lam, rho = self.lam, self.rho
        x, w, delta, top, _ = rule
        alpha = rho.real - 1.0
        r_ld = r.astype(_LD)
        lr = np.log(_LD(2.0) / r_ld)
        pre = _cexp_ld(
            alpha * lr + sigma * _HALF_PI_LD * rho.imag,
            rho.imag * lr - sigma * _HALF_PI_LD * alpha + sigma * r_ld,
        )
        rc = r[:, None]
        d = 1j * sigma * x / rc
        g = np.exp(lam * np.log1p(d) + (rho - 1.0) * np.log1p(d / 2.0))
        h, kbound = hankel_scaled_grid(self.nu, rc + 1j * sigma * x, 1 if sigma > 0 else 2)
        terms = w * g * h
        scale = 0.5 / r * np.abs(pre)
        mass = scale * np.sum(np.abs(terms), axis=1)
        bound = kbound * mass
        if delta is not None:
            h0 = scale * np.abs(h[:, 0])
            slope = 1.0 + (abs(lam) + abs(rho - 1.0) + 1.0) / r
            growth = (1.0 + top / r) ** (abs(lam.real) + abs(alpha)) * math.exp(
                0.5 * math.pi * (abs(lam.imag) + abs(rho.imag))
            )
            bound = bound + 2.0 * h0 * (
                slope * delta ** (alpha + 2.0) / (alpha + 2.0) + growth * top**alpha * math.exp(-top)
            )
        return -sigma * 0.5j / r * pre * np.sum(terms, axis=1), mass, bound

    def steepest_descent(self, radii: np.ndarray, seam: float, n: int, nl: int, tol: float):
        """The term at every radius of ``radii``, each at least this term's
        r, which is at least 2 seam: (values, error bounds, panels).

        On [a, 1], J_nu = (H1 + H2)/2, H1 moves to a + it and 1 + it and H2
        to a - it and 1 - it.  In z = r s the origin zone [0, a] and the
        seam legs from a = seam / r are one path at every radius, and the
        term there is r^-(lam+1) times the integral of
        z^lam (1 - z^2/r^2)^(rho-1) J_nu(z) (H on the legs) along it.  So
        ``_seam_zone`` builds them in z, with their kernel values from the
        order's tables and only the profile factor evaluated at r, once, at
        this term's r = r0, with n nodes per panel and nl per leg, and they
        are carried to each radius by the factor
        ((1 - z^2/r^2) / (1 - z^2/r0^2))^(rho-1) per node, taken as the sum
        at r0 plus the terms times the factor minus 1, and by
        (r0/r)^(lam+1) overall.  The origin tail bound scales by
        (r0/r)^(Re lam+1), which over-covers its |rho - 1| part.  Only the
        edge legs are evaluated per radius.  The bounds add each node's
        absolute mass times its set's rounding, the truncation bounds and
        tails, and a rounding floor from the absolute contour mass (the seam
        legs cancel against the origin zone).
        """
        parts, tail, panels = self._seam_zone(seam, n, nl, tol)
        # a real exponent keeps the real-axis factors real
        rho1 = self.rho.real - 1.0 if self.rho.imag == 0.0 else self.rho - 1.0
        paths = []
        for z, t, per_mass in parts:
            t128 = np.asarray(t, dtype=np.complex128)
            base = np.log1p(-((z / self.r) ** 2))
            paths.append((complex(np.sum(t)), z, base, t128, per_mass * np.abs(t128)))
        rule = self._edge_rule(nl, n, tol)
        values = np.empty(radii.size, dtype=np.complex128)
        bounds = np.empty(radii.size)
        rows = max(1, _SWEEP_ELEMS // max(parts[0][0].size, parts[1][0].size, rule[0].size))
        for i0 in range(0, radii.size, rows):
            r = radii[i0 : i0 + rows]
            v, e = 0j, tail
            for total, z, base, t, charged in paths:
                step = np.expm1(rho1 * (np.log1p(-((z / r[:, None]) ** 2)) - base))
                v = v + (total + _matvec(step, t))
                e = e + np.abs(1.0 + step) @ charged
            lr = np.log(r / self.r)
            v = v * np.exp(-(self.lam + 1.0) * lr)
            e = e * np.exp(-(self.lam.real + 1.0) * lr)
            for sigma in (1.0, -1.0):
                ev, mass, bound = self._leg_edge(r, rule, sigma)
                v += ev
                e += bound + _CONTOUR_ROUNDING * mass
            values[i0 : i0 + rows] = v
            bounds[i0 : i0 + rows] = e
        return values, bounds, panels + 2 * rule[4]

    # -- panel sweep -----------------------------------------------------

    def panel_sweep(self, radii: np.ndarray, n: int, tol: float) -> np.ndarray:
        """The term at every radius of ``radii``, each at most this term's r,
        on the panel path in double precision.

        The node sets come from ``node_sets`` on this term's ``build_mesh``
        with n nodes per panel and serve every radius: the profile factor
        is evaluated once and only the kernel is recomputed per radius.
        Complex exponents get the same graded end zones and closed-form end
        terms as the evaluator, with depths set by ``tol``.
        Each node set is summed as one kernel matrix per chunk of
        ``_SWEEP_ELEMS`` // nodes radii, with the phase r s formed as one
        long-double product rounded once to double.
        """
        sets, _ = self.node_sets(self.build_mesh(), n, tol)
        values = np.zeros(radii.size, dtype=np.complex128)
        for ns in sets:
            s = ns.s.ravel()
            w = np.asarray(ns.w, dtype=np.complex128).ravel()
            rows = max(1, _SWEEP_ELEMS // s.size)
            for i0 in range(0, radii.size, rows):
                r = radii[i0 : i0 + rows]
                x = (r.astype(_LD)[:, None] * s).astype(np.float64)
                if ns.scaled:
                    values[i0 : i0 + rows] += _matvec(bessel_j_scaled_grid(self.nu, x), w) * r**self.nu
                else:
                    values[i0 : i0 + rows] += _matvec(bessel_j_grid(self.nu, x), w)
        return values

def _kernel_terms(sets, nu: float, r: float) -> list:
    """w times the kernel at r for every node of each set of ``sets``, in
    extended precision, as arrays shaped like the sets.

    The sets get their kernel values from at most one ``bessel_j_grid``
    call, over every plain set's x = r s, and one ``bessel_j_scaled_grid``
    call, over every scaled set's, times r^nu.  The kernel's value at an
    element depends on that element alone, so a set's terms do not depend
    on the sets it is batched with.
    """
    out = [None] * len(sets)
    for scaled, kernel in ((False, bessel_j_grid), (True, bessel_j_scaled_grid)):
        todo = [i for i, ns in enumerate(sets) if ns.scaled == scaled]
        if not todo:
            continue
        k = kernel(nu, np.concatenate([(_LD(r) * sets[i].s).ravel() for i in todo]), longdouble=True)
        if scaled:
            k = np.exp(_LD(nu) * np.log(_LD(r))) * k
        for i, part in zip(todo, np.split(k, np.cumsum([sets[i].s.size for i in todo])[:-1])):
            out[i] = sets[i].w * part.reshape(sets[i].s.shape)
    return out


def _panel_path(integrals, nu: float, r: float, tol: float) -> list:
    """Each term of ``integrals``, all of order nu at radius r, on the panel
    path from one pass at two resolutions: (value, estimate, panels) per
    term.

    Panels on the term's ``build_mesh`` cover its whole support, with 32
    and 16 nodes per panel.  The node sets of every term at both
    resolutions get their kernel values from one ``_kernel_terms`` call,
    and then each set is summed in extended precision.  The value is the
    fine sum; the estimate adds its difference from the coarse sum to each
    fine set's rounding times its absolute mass, and the tail bounds.
    """
    built = []
    for ti in integrals:
        edges = ti.build_mesh()
        built += [ti.node_sets(edges, n, tol) for n in (_NODES, _NODES // 2)]
    terms = iter(_kernel_terms([ns for sets, _ in built for ns in sets], nu, r))
    out = []
    for (fine, err), (coarse, _) in zip(built[::2], built[1::2]):
        value = _LD(0.0)
        for ns in fine:
            t = next(terms)
            value = value + np.sum(t)
            err += ns.rounding * float(np.sum(np.abs(t)))
        check = _LD(0.0)
        for ns in coarse:
            check = check + np.sum(next(terms))
        out.append((complex(value), abs(complex(value - check)) + err, sum(ns.s.shape[0] for ns in fine)))
    return out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _contour_seam(nu: float, cutoff: bool, cfg: QuadratureConfig) -> float | None:
    """The seam phase of the steepest-descent path, which every radius
    r >= 2 seam takes (a = seam/r at most 1/2), or None where no radius
    does: cutoff profiles are not analytic, and some orders have no seam."""
    return None if cutoff else _seam_phase(float(nu), cfg.target_rel_tol)


def _transform(terms, nu: float, radii: np.ndarray, cutoff: bool, cfg: QuadratureConfig):
    """Sum of c * (integral of s^lam (1-s^2)^(rho-1) J_nu(r s)) over (c, lam, rho)
    at every radius of ``radii``: (values, estimates, panels), one per radius.

    From twice the seam phase on, each term runs ``steepest_descent`` twice
    over all those radii, built at the smallest of them: at 32 nodes per
    panel and nl + 8 per contour leg, and at 16 and nl.  The fine values
    are the values; the estimate adds their distance from the coarse ones
    to the bounds.  Below it and where there is no seam, each radius runs
    ``_panel_path``, every term in one pass.
    """
    tol = cfg.target_rel_tol
    seam = _contour_seam(nu, cutoff, cfg)
    terms = list(terms)
    values = np.zeros(radii.size, dtype=np.complex128)
    errors = np.zeros(radii.size)
    panels = np.zeros(radii.size, dtype=np.int64)
    on = np.zeros(radii.size, dtype=bool) if seam is None else radii >= 2.0 * seam
    if on.any():
        r, nl = radii[on], _laguerre_nodes(tol)
        v, e, p = 0j, 0.0, 0
        for c, lam, rho in terms:
            ti = _TermIntegral(lam, rho, nu, float(r.min()), False)
            fine, bound, n = ti.steepest_descent(r, seam, _NODES, nl + 8, tol)
            coarse = ti.steepest_descent(r, seam, _NODES // 2, nl, tol)[0]
            # Python's complex product: numpy's vector loop may fuse it into
            # FMAs, and a one-radius call would then round differently
            v = v + np.array([c * x for x in fine.tolist()])
            e = e + abs(c) * (np.abs(fine - coarse) + bound)
            p += n
        values[on], errors[on], panels[on] = v, e, p
    for i in np.flatnonzero(~on):
        r = float(radii[i])
        results = _panel_path([_TermIntegral(lam, rho, nu, r, cutoff) for _, lam, rho in terms], nu, r, tol)
        v, e, p = 0j, 0.0, 0
        for (c, _, _), (x, y, n) in zip(terms, results):
            v, e, p = v + c * x, e + abs(c) * y, p + n
        values[i], errors[i], panels[i] = v, e, p
    return values, errors, panels


def _finite_hankel_grid(profile: RadialProfile, radii, cfg: QuadratureConfig):
    """``finite_hankel`` at every radius of a 1-d array ``radii`` in one
    pass: (values, estimates, panels), one per radius."""
    radii = check_radii(radii, "finite_hankel")
    terms = ((t.coeff, t.lam, t.rho) for t in profile.terms)
    return _transform(terms, profile.nu, radii, profile.vanishes_near_one, cfg)


def finite_hankel(
    profile: RadialProfile, r: float, cfg: QuadratureConfig | None = None
) -> QuadratureResult:
    """Integral of phi(s) J_nu(r s) over (0,1) for the profile's nu = n/2 - 1.

    Returns the value with an embedded error estimate; when the target
    relative tolerance cannot be certified the estimate simply reports what
    was achieved (no exception).  This is the one-radius case of the grid
    evaluator ``_transform``.
    """
    r = check_radius(r, "finite_hankel")
    value, error, panels = _finite_hankel_grid(profile, np.array([r]), cfg or _DEFAULT_CFG)
    return QuadratureResult(complex(value[0]), float(error[0]), int(panels[0]))


def radial_fourier(
    profile: RadialProfile, r: float, cfg: QuadratureConfig | None = None
) -> complex:
    """Fourier transform of the radial distribution at |xi| = r.

    Exactly hankel_prefactor(profile, r) * finite_hankel(profile, r).
    """
    return hankel_prefactor(profile, r) * finite_hankel(profile, r, cfg).value


def hankel_prefactor(profile: RadialProfile, r: float) -> float:
    """The exact ratio radial_fourier / finite_hankel at radius r."""
    n = profile.dimension
    return (2.0 * math.pi) ** (n / 2.0) * float(r) ** (1.0 - n / 2.0)


def _derivative_power_terms(profile: RadialProfile, k: int):
    terms = boundary_power_terms(profile)
    for _ in range(k):
        terms = differentiate_power_terms(terms)
    return terms


def iterated_transform(
    profile: RadialProfile, shift: int, r: float, cfg: QuadratureConfig | None = None
) -> QuadratureResult:
    """The order-shifted integral of s^(nu+k+1) d^k/dt^k[phi_b](s^2) J_(nu+k)(r s).

    The k-th derivative of the transferred profile is obtained symbolically,
    so the boundary exponents must leave enough smoothness: every term needs
    Re(rho) - 1 >= k.
    """
    cfg = cfg or _DEFAULT_CFG
    r = check_radius(r, "iterated_transform")
    if not isinstance(shift, int) or shift < 0 or shift > 8:
        raise DomainError("shift must be an integer in [0, 8]")
    budget = min(t.rho.real - 1.0 for t in profile.terms)
    if shift > budget + 1e-12:
        raise SmoothnessBudgetError(
            f"derivative order {shift} exceeds the boundary smoothness budget {budget:g}"
        )
    nu = profile.nu
    terms = ((c, nu + shift + 1.0 + 2.0 * beta, gama + 1.0)
             for c, beta, gama in _derivative_power_terms(profile, shift))
    value, error, panels = _transform(terms, nu + shift, np.array([r]), profile.vanishes_near_one, cfg)
    return QuadratureResult(complex(value[0]), float(error[0]), int(panels[0]))


# ---------------------------------------------------------------------------
# batch sweep (the evaluator's paths, over a grid of r)
# ---------------------------------------------------------------------------


def _chebyshev_window(lo: float, hi: float, m: int):
    """The m Chebyshev points of the first kind on [lo, hi], ascending, as
    the doubles that get sampled, and barycentric weights computed from
    those rounded points: 1 / prod_k (x_j - x_k) with every factor scaled by
    4 / (hi - lo), which keeps the products near 1."""
    x = (lo + hi) / 2 - (hi - lo) / 2 * np.cos((2 * np.arange(m) + 1) * (math.pi / (2 * m)))
    d = (x[:, None] - x[None, :]) * (4.0 / (hi - lo))
    np.fill_diagonal(d, 1.0)
    return x, 1.0 / np.prod(d, axis=1)


def _barycentric(x: np.ndarray, w: np.ndarray, f: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The interpolant through (x, f), x ascending, with barycentric weights
    w, at t, in the second (true) barycentric form; t - x_j is taken in
    absolute coordinates, against the points actually sampled.  A t equal
    to some x_j takes f_j.  t is taken ``_SWEEP_ELEMS`` // x.size at a
    time, like the sweeps' chunks."""
    p = np.empty(t.size, dtype=np.complex128)
    rows = max(1, _SWEEP_ELEMS // x.size)
    for i0 in range(0, t.size, rows):
        ti = t[i0 : i0 + rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            q = w / (ti[:, None] - x[None, :])
            p[i0 : i0 + rows] = _matvec(q, f) / np.sum(q, axis=1)
    j = np.minimum(np.searchsorted(x, t), x.size - 1)
    hit = x[j] == t
    p[hit] = f[j[hit]]
    return p


def _windowed(r: np.ndarray, upper: float, nu: float, sweep) -> np.ndarray:
    """``sweep`` at every radius of r, with r on one path of the sweep.

    In one pass over the sorted radii, each window starts at the smallest
    radius a no window covers yet and spans [a, b], b the largest radius up
    to min(a + ``_WINDOW``, a ``_WINDOW_RANGE`` ** (1 / (nu + 2))).  F is of
    exponential type ``upper`` and, for a non-integer order, has a branch
    point at r = 0, which at b / a <= 4 lies well outside the region where
    the interpolant converges.  So a window of half-width h holding more
    radii than m = ceil(upper h) + ``_WINDOW_MARGIN`` is sampled at its m
    Chebyshev points only, and F there is interpolated onto its radii.  The
    other windows' radii, in their order in r, go to ``sweep`` as they are,
    in the same call as the points, with the index of each one's window.
    Only windows that hold a radius are formed, so an outlying radius costs
    no more than any other.
    """
    order = np.argsort(r)
    ascending = r[order]
    ratio = _WINDOW_RANGE ** (1.0 / (nu + 2.0))
    which = np.empty(r.size, dtype=np.intp)
    direct = np.ones(r.size, dtype=bool)
    windows = []
    i = j = 0
    while i < r.size:
        a = float(ascending[i])
        end = int(np.searchsorted(ascending, min(a + _WINDOW, a * ratio), side="right"))
        b, inside = float(ascending[end - 1]), order[i:end]
        which[inside] = j
        m = math.ceil(upper * (b - a) / 2) + _WINDOW_MARGIN
        if end - i > m and b - a > 1e-8 * b:
            direct[inside] = False
            windows.append((inside, j, *_chebyshev_window(a, b, m)))
        i, j = end, j + 1
    values = sweep(np.concatenate([r[direct], *(x for _, _, x, _ in windows)]),
                   np.concatenate([which[direct], *(np.full(x.size, j) for _, j, x, _ in windows)]))
    out = np.empty(r.size, dtype=np.complex128)
    at = np.count_nonzero(direct)
    out[direct] = values[:at]
    for inside, _, x, w in windows:
        out[inside] = _barycentric(x, w, values[at : at + x.size], r[inside])
        at += x.size
    return out


def hankel_sweep(
    profile: RadialProfile, r_values, cfg: QuadratureConfig | None = None
) -> np.ndarray:
    """finite_hankel evaluated on a whole grid of r at once, with no error
    estimates; intended for slow-decrease sweeps.

    Each radius takes the path of the grid evaluator ``_transform``, one
    term at a time.  From twice the seam phase on, a term runs
    ``_TermIntegral.steepest_descent`` once over all those radii, built at
    the smallest of them, as ``_transform`` does, but with its fine rules
    only (32 nodes per panel, nl + 8 per contour leg).  These values agree with
    finite_hankel to within its estimate, so with the closed form to about
    1e-12 relative wherever that estimate is certified, with no absolute
    floor.
    Below that, and for cutoff profiles at every r, the term runs
    ``_TermIntegral.panel_sweep`` once per window of r (below), on node
    sets built for the window's largest radius with 12 nodes per panel, or
    for r = ``_CUTOFF_MESH_R`` = 300 if that is larger and the profile has
    the cutoff, whose ramp on [1/3, 2/3] a smaller mesh does not resolve.
    So an outlying radius costs only its own window, and the 49 sub-seam
    points of a C7 window check take 120 nodes for lam = 0.5, rho = 6, not
    the 3,840 of a mesh for r ~ 2006.  Each node set is summed in double
    precision as one kernel matrix per chunk of ``_SWEEP_ELEMS`` // nodes
    radii, with r s formed as one long-double product rounded once to
    double.  The double-precision kernel is within 4.3e-15 of J_nu's
    envelope (Miller's recurrence where the ascending series would
    cancel), so on the C7 radii below 60 the sweep stays within a fifth of
    finite_hankel's estimate + 1e-12 |F|, and at n = 30 and 60 within
    2.3e-14 of the closed form.

    Dense grids are not swept radius by radius.  The sorted radii of each
    path, so that no window straddles twice the seam, are cut in one pass
    into windows: each starts at the first radius a no window covers yet
    and spans [a, b], b the last radius within a + ``_WINDOW`` = 128 and
    within a ``_WINDOW_RANGE`` ** (1 / (nu + 2)), so that r^-(nu + 2)
    changes by at most 16 across it.  That narrows windows near r = 0 and,
    for large orders, over the first few hundred.  A window that holds
    more radii than ceil(u h) + 40 Chebyshev points (half-width h, support
    [0, u]) is swept at those points on [a, b] only and interpolated onto
    its radii (``_windowed``).
    A C7 grid of 9,997 radii on [43.7, 2006] becomes 1,663 swept radii for
    a regular profile and 1,300 for a cutoff one.  On the contour path the
    interpolant agrees with the direct sweep to about 1.2e-14 of the local
    envelope of |F|, the Chebyshev series' truncation at 40 points of
    margin; on panels it resamples the panel sweep's own error, amplified
    by at most the Lebesgue constant, about 4.  Every other
    window, and so every grid sparser than that, is swept exactly as its
    radii are given.
    """
    cfg = cfg or _DEFAULT_CFG
    r = np.asarray(r_values)
    if r.ndim != 1 or r.size == 0:
        raise DomainError("hankel_sweep requires a 1-d grid of positive r")
    r = check_radii(r, "hankel_sweep")
    tol = cfg.target_rel_tol
    nu, cutoff = profile.nu, profile.vanishes_near_one
    seam = _contour_seam(nu, cutoff, cfg)
    on = np.zeros(r.size, dtype=bool) if seam is None else r >= 2.0 * seam

    def contours(radii, _):
        out = np.zeros(radii.size, dtype=np.complex128)
        for t in profile.terms:
            ti = _TermIntegral(t.lam, t.rho, nu, float(np.min(radii)), False)
            out += t.coeff * ti.steepest_descent(radii, seam, _NODES, _laguerre_nodes(tol) + 8, tol)[0]
        return out

    def panels(radii, window):
        out = np.zeros(radii.size, dtype=np.complex128)
        for j in np.unique(window):
            part = window == j
            mesh_r = max(float(np.max(radii[part])), _CUTOFF_MESH_R if cutoff else 0.0)
            for t in profile.terms:
                ti = _TermIntegral(t.lam, t.rho, nu, mesh_r, cutoff)
                out[part] += t.coeff * ti.panel_sweep(radii[part], _SWEEP_NODES, tol)
        return out

    out = np.zeros(r.size, dtype=np.complex128)
    upper = _CUT_HI if cutoff else 1.0
    for part, sweep in ((on, contours), (~on, panels)):
        if part.any():
            out[part] = _windowed(r[part], upper, nu, sweep)
    return out
