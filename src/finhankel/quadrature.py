"""Ground-truth quadrature for finite Hankel transforms of closed-form profiles.

The integrand  s^lam (1-s^2)^(rho-1) J_nu(r s)  on (0, 1) combines an
algebraic singularity at each endpoint with oscillation of wavelength
2*pi/r.  The evaluator, ``_transform``, takes a grid of radii, and
``finite_hankel`` is its one-radius case.  It picks one of two paths per
radius and term from r, nu, the target and the cutoff flag alone.

Steepest descent, from the contour start on, for every profile without
``vanishes_near_one``: the seam phase (30 at the default target for orders
nu up to about 9), raised for terms with exponents in the tens, which the
edge legs' Laguerre rule cannot resolve there (``_contour_start``):

* on [a, 1], a = seam / r, J_nu = (H1 + H2)/2.  The H1 part moves onto
  a + it and 1 + it, the H2 part onto a - it and 1 - it (t >= 0), where
  the kernel decays like e^(-r t);
* the edge legs, from 1: Gauss-Laguerre rules in tau = r t cover each,
  with weight tau^(rho - 1); a complex rho leaves tau^(i Im rho), which
  Legendre panels graded toward tau = 0 absorb instead.  The exponentially
  scaled Hankel functions come from the same large-argument expansion as
  the Bessel kernel (specfun.hankel_scaled_grid), at |z| >= r.  Nothing
  cancels on them, so they run in double precision, and no part of the
  cost grows with r;
* the seam zone S, the origin zone [0, a] and the legs from a: moved onto
  the imaginary axis it is an integral of K_nu, and integrated term by
  term it is the paper's origin ladder, sum_k T_k(r) with
  T_k ~ r^-(lam+2k+1), whose remainder after K terms has the closed-form
  bound B_K (``_TermIntegral.origin_ladder``).  One Gamma pair gives
  T_0, T_(k+1)/T_k is rational, and from r = 45 on a handful of terms
  bring B_K below 1e-6 of the target times S's absolute mass.  At r = 30
  some ladders turn first, and their smallest B_K is charged: 1.2e-13 of
  |S| for (2.877, 3.697), n = 3, and 1.9e-12 for (1.3 + 0.2i, 0.6).  Where
  the ladder is excluded ((lam - nu - 1)/2 a nonnegative integer), S is 0
  and F is the edge legs alone.

This path calls no Bessel kernel.

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
a time, and hankel_sweep's panel path sums such sets over a whole grid of
r, its oscillation panels past the double kernel's expansion start wider.

The evaluator runs each path once at two resolutions, with no mesh
refinement: 32 and 16 nodes per panel and, at the default 1e-10 target,
18 and 10 Laguerre nodes per edge leg.  The fine sum is the value; its
distance from the coarse sum, plus the rounding and bounds of the pieces,
is the error estimate.  On the contour path each term runs
``steepest_descent`` once, at both resolutions, over all the grid's radii
there, so a value moves within its estimate with the grid it is part of.
That pass evaluates the edge legs once on both rules' nodes and sums each
rule on its own, which costs little more than one resolution; S, the same
for both, adds its bound B_K and its rounding instead of a difference.  On
the panel path each radius runs alone: the node sets of every term at
both resolutions are built first, and ``_kernel_matrices``, the batched
kernel pass both panel paths share, gets all their kernel values from one
call of each extended-precision kernel, plain and scaled, per batch of
``_SWEEP_ELEMS`` pairs; then each set is summed on its own, as it would
be alone.  The kernel's value at a node depends on that node's x only, so
batching changes no term's value or estimate.

Panel sums cancel: large r makes the transform exponentially smaller than
the absolute mass of the integrand (panel values alternate in sign), so
every node value, weight and partial sum of a panel is kept in 80-bit
extended precision; in double the cancellation noise floor alone would
exceed the 1e-10 default tolerance by r ~ 500.  Extended precision thus
serves the panel path.  The kernel values there are within 6e-16 of
J_nu's envelope: the extended-precision kernel runs its ascending series
only up to x = 2, where it cannot cancel, and Miller's recurrence above
it up to where the large-argument expansion is accurate to its rounding
(29 for nu = 0 and 1, 318 for nu = 29).

The batch sweep, hankel_sweep, takes each radius down the evaluator's
path and returns no per-point error estimate.  It runs term
by term, each term over all its radii at once.  From the contour start
on, it runs the evaluator's steepest-descent path, at its fine rules
only, in double precision, with a cost per radius flat in r.  Below that, and
for cutoff profiles, it trades accuracy for speed: the panel node sets
are built per window of r (below), for the window's largest r, or for
r = 300 if that is larger and the profile has the cutoff.  Oscillation
panels past the double kernel's expansion start are 8 periods wide with
40 nodes, and sum that expansion with its phase factored per panel and
its terms carried by the nodes, one real product per block of radii and
panels (``_asym_panel_sums``).  The endpoint zones and the panels below the
start, 12 nodes each, are double-precision kernel matrices at r s, one
long-double product rounded once to double, and the node sets of every
window and term share one kernel call per node kind (``_kernel_matrices``)
within one budget of (radius, node) pairs; the double-precision kernel
runs Miller's recurrence where the ascending series would cancel.  With
both, a mesh built for the window's own radii is accurate to about 1e-12
relative.
A dense grid is not swept radius by radius.  Each path's sorted radii
are cut into windows in one pass, and a window holding more radii than
its point count is swept at its Chebyshev points only and interpolated
onto its radii in barycentric form (Berrut & Trefethen, SIAM Rev. 46
(2004)).  On the contour path a term is the seam zone S(r) plus the
edge legs e^(ir) A+(r) and e^(-ir) A-(r).  S is summed at every radius,
which costs a few multiply-adds.  A+- r^(Re rho+1/2) does not oscillate,
and its nearest singularities, at r = -+i tau for the edge legs' nodes
tau, lie far outside a window [a, b] with b <= 4 a in log r.  So such a
window is sampled at 32 Chebyshev points in log r, the two legs of every
term share one barycentric matrix, and the powers of r and e^(+-ir) go
back at each radius.  On the panel path F itself, of exponential type u
(1, or 2/3 for cutoff profiles), is sampled at ceil(u h) + 40 points in
r for half-width h, with b <= min(a + 128, a 16^(1/(nu + 2))).  Those
weights and differences r - x_j come from the points as rounded when
sampled; textbook weights against the unrounded points drift by about
1e-13 of the envelope at r ~ 1500.

Profiles flagged ``vanishes_near_one`` are materialised with a fixed smooth
cutoff equal to 1 below s = 1/3 and 0 above s = 2/3, which realises "the
given closed form near the origin, identically zero near the edge".  The
cutoff is not analytic, so those profiles never leave the real axis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .asymptotics import ladder_factor
from .errors import DomainError, SmoothnessBudgetError, check_radii, check_radius
from .profiles import (
    RadialProfile,
    boundary_power_terms,
    differentiate_power_terms,
)
from .specfun import (bessel_j_grid, bessel_j_scaled_grid, hankel_scaled_grid, _asym_terms,
                      _DOUBLE_FLOOR, _expansion_start, _gamma_real_ld, _hankel_truncation, _sinpi)

_LD = np.longdouble
_CLD = np.clongdouble
_ENDPOINT_PHASE = 8.0  # Bessel phase allowed inside each endpoint panel
_CUT_LO, _CUT_HI = 1.0 / 3.0, 2.0 / 3.0
_SEAM_PHASE = 30.0  # smallest r*a at which [a, 1] is deformed onto contours
_NODES = 32  # nodes per panel of the evaluator; half as many for its check
_MAX_PANELS = 20000  # oscillation panels per mesh before they are widened
# nodes per panel of the panel sweep in its endpoint zones and on its
# oscillation panels below the double kernel's expansion start
_SWEEP_NODES = 12
# periods per oscillation panel, and nodes per panel, of the panel sweep past
# the expansion start, where the panels take no kernel call; on a cutoff
# profile a panel also spans at most a quarter of the ramp [1/3, 2/3], whose
# ends 40 nodes on half of it missed by up to 0.38 of finite_hankel's
# estimate at r ~ 300.  Against finite_hankel's estimate + 1e-12 |F| these
# panels read at most 0.094 on six cutoff terms at 12 radii in [44, 2005]
# (0.095 with 1-period, 12-node panels), and 4 periods of 24 nodes 0.68
_WIDE_PERIODS, _WIDE_NODES = 8, 40
# smallest radius a cutoff profile's panel-sweep mesh is built for: below it
# 12 nodes per panel do not resolve the smooth cutoff's ramp on [1/3, 2/3].
# For the cutoff (0, 1) on r in [43.7, 75], against finite_hankel, a mesh
# built for r = 75 is off by 2.3e-10 relative, one for 171 by 4.8e-14, and
# one for 250 to 2006 by at most 8e-16
_CUTOFF_MESH_R = 300.0
# hankel_sweep's panel-path windows of r: at most _WINDOW wide, and sampled at
# ceil(u h) + _WINDOW_MARGIN Chebyshev points for half-width h and support [0, u]
_WINDOW = 128.0
_WINDOW_MARGIN = 40
# A panel window [a, b] also keeps (b / a)^(nu + 2), the change of r^-(nu + 2)
# across it, within _WINDOW_RANGE.  The interpolant errs by a fixed fraction
# of |F|'s largest value in its window, and |F| rises like r^nu up to
# r ~ nu and then falls off roughly like r^-2, so this bounds that error
# relative to the local size of F.  Windows only _WINDOW wide let n = 30
# (nu = 14, lam = 1, rho = 1.5) on [pi/16, 200) drift from the direct sweep
# by 6.4e-9 of the local envelope, against 1.2e-14 with this bound
_WINDOW_RANGE = 16.0
# Chebyshev points in log r per window [a, b], b <= 4 a, of hankel_sweep's
# contour path
_CONTOUR_POINTS = 32
# (radius, node) pairs per chunk of either sweep over many radii, so their
# largest temporaries hold at most 8 MB (16 MB for steepest_descent's edge
# legs, which hold both legs).  steepest_descent chunks by the edge legs'
# node count over all its rules.  The sweep's one rule has 18 nodes per leg
# for a real rho at the default target, so 29,127 radii per chunk, and the
# 96 Chebyshev points of a C7 sweep's 3 contour windows are 1 chunk.
# Both panel paths' kernel matrices are evaluated in batches of at most this
# many pairs, one kernel call per node kind and batch (_kernel_matrices): an
# evaluator pass at one radius, over every term at both resolutions, and a
# sweep's, over every window and term.  A C7 cutoff sweep (lam = 1,
# rho = 3.5) has 16 windows, 15 of 83 Chebyshev points and the last of 55,
# on meshes of 396 nodes (built for 300) to 2,568 (for 2006).  Its 0.10 M
# kernel pairs (85,644 plain, below the expansion start, and 15,600 scaled,
# in the origin zone) are 1 batch, whose temporaries of 0.10 M elements take
# all of a warm cutoff check's page faults; its 0.87 M pairs on wide panels
# past the start take no kernel call, and go through _asym_panel_sums in
# blocks of _ASYM_BLOCK pairs
_SWEEP_ELEMS = 1 << 19
# (radius, point) pairs per block of the interpolant (_barycentric): its one
# buffer of them holds 96 KiB, and every temporary stays under glibc's
# default 128 KiB mmap threshold, so none is mapped afresh per block.  A
# window of 32 points takes 384 radii per block, and a warm regular C7 check
# takes no page fault, against 790 with blocks of 2^19 pairs
_BARY_BLOCK = 12 * 1024
# (radius, node) pairs per block of _asym_panel_sums' e = e^(i omega), and
# at most as many (node, column) pairs of its columns, (panel, radius) pairs
# of its phases and (node, radius) pairs of its turns: e's one buffer holds
# 64 KiB, and every temporary stays under glibc's 128 KiB mmap threshold.
# With 21 columns (nu = 0), a block is 4 panels of 40 nodes at 25 radii.
# A warm C7 cutoff check then takes 0.1-2.5 page faults in _asym_panel_sums
# (mean of 20 checks), against about 40 with blocks of 7 K pairs and 5,400
# with blocks of 2^14 pairs summed per (radius, node) pair as P and Q
_ASYM_BLOCK = 4 * 1024
# relative accuracy of a double-precision contour sum, per unit of the edge
# legs' absolute mass.  The rules of _gauss_laguerre have moments 0 to 3
# within 2.7e-16 for alpha from -0.999 to 60 on 8 to 30 nodes, and a sum of
# e^(i omega tau), omega <= 0.1, in double on 18 and 30 nodes is within
# 6e-16 of its mass for alpha <= 2.5; the charge stays above these until the
# legs' whole rounding, the factor g and the Hankel values in double, is measured
_CONTOUR_ROUNDING = 4e-15
# share of the target that a bound times a contour-path term's absolute mass
# may take: the mass can exceed the transform by several orders
_MASS_SHARE = 1e-6
# error of an origin-ladder sum per unit of sum |T_k|: against a 40-digit sum
# of the same terms, 800 random terms (Re lam up to 6, |Im lam|, |Im rho| up
# to 0.3, r from 60 to 4e4) read at most 5.4e-15, of which the complex Gamma
# pair of ladder_factor takes up to 2.2e-15
_LADDER_ROUNDING = 1e-14
# error of a Gauss-Jacobi sum per unit of its absolute mass, charged as
# this / min(1, 1 + e) for exponent e.  Against mpmath on e^(i(c u + theta)),
# c <= 4, summed in long double on 12 to 32 nodes, the rules of
# _gauss_jacobi read at most 3.6e-17 for e from -0.999 to 14.5; the charge
# stays above that until the panel path's whole rounding is measured
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


def _gauss_rule(diag: np.ndarray, off: np.ndarray, mu0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of the monic three-term recurrence whose Jacobi matrix has
    the long-double ``diag`` and ``off`` diagonals, for a weight of zeroth
    moment ``mu0`` (Golub & Welsch, Math. Comp. 23 (1969)): (nodes, weights)
    in long double, read-only.

    The matrix's eigenvalues, in double, start two Newton steps on p_n,
    which the recurrence of the orthonormal q_k and their derivatives takes
    in long double; the weights are the Christoffel numbers
    mu0 / sum_(k<n) q_k^2 at the polished nodes.
    """
    x = np.linalg.eigvalsh(np.diag(diag.astype(np.float64)) + np.diag(off.astype(np.float64), -1)).astype(_LD)
    below, above = np.append(_LD(0), off), np.append(off, _LD(1))
    for step in range(3):
        q0, q, d0, d, total = 0, np.ones_like(x), 0, 0, 0
        for k in range(diag.size):
            total = total + q * q
            t = x - diag[k]
            q0, q, d0, d = q, (t * q - below[k] * q0) / above[k], d, (q + t * d - below[k] * d0) / above[k]
        if step < 2:
            x = x - q / d
    w = mu0 / total
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=512)
def _gauss_jacobi(n: int, a: float, b: float):
    """Gauss-Jacobi rule for the weight (1-x)^a (1+x)^b on (-1, 1), one of
    a, b zero, in long double (``_gauss_rule``).

    With e = a + b the zeroth moment is 2^(e+1) / (e + 1), formed in long
    double, so no exponent in the hundreds overflows.  Against a 50-digit
    rule, for e from -0.999 to 170 and 12 to 40 nodes, the weights are
    within 6e-17 relative and the nodes within one long-double spacing;
    next to an end at which e is near -1 that spacing limits 1 - |x| to
    1.4e-14 relative (e = -0.999, 40 nodes).  With a = b = 0 this is the
    Legendre rule of every panel: double-precision weights would put
    O(1e-16) per-node noise into the cancelling panel sums.
    """
    a, b = _LD(a), _LD(b)
    e = a + b
    k = np.arange(n, dtype=_LD)
    c = 2 * k + e
    diag = (b - a) / (c + 2) * np.append(_LD(1), e / c[1:])
    k, c = k[1:], c[1:]
    off = np.sqrt(4 * k * (k + a) * (k + b) * (k + e)) / (c * np.sqrt(c * c - 1))
    return _gauss_rule(diag, off, 2 ** (e + 1) / (e + 1))


@lru_cache(maxsize=512)
def _gauss_laguerre(n: int, alpha: float):
    """Generalised Gauss-Laguerre rule for the weight t^alpha e^(-t) /
    Gamma(alpha + 1) on (0, inf), whose weights sum to 1, in double
    (``_gauss_rule``).

    The weights of t^alpha e^(-t) itself, which sum to Gamma(alpha + 1), are
    infinite in double from alpha ~ 170 on, where the contour path starts
    past r = 220; ``_leg_edge`` puts that factor back in long double.
    Against a 50-digit rule's weights over its Gamma(alpha + 1), for alpha
    from -0.98 to 179.5 and 6 to 30 nodes, the weights are within 2.3e-16
    relative and the nodes within 1.1e-16.
    """
    a = _LD(alpha)
    k = np.arange(n, dtype=_LD)
    x, w = _gauss_rule(2 * k + a + 1, np.sqrt(k[1:] * (k[1:] + a)), _LD(1))
    x, w = x.astype(np.float64), w.astype(np.float64)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _laguerre_nodes(tol: float) -> int:
    """Coarse contour rule size for a relative target ``tol``.

    On the edge legs the nearest singularity of the integrand (s = 0) sits
    at distance r >= seam = 30 in the Laguerre variable.  There 8 nodes
    reach the rounding floor (6e-16 of a 60-node rule's legs) for (lam, rho)
    = (0.5, 2.5), (3, 6), (-0.9, 0.1) and (2.877, 3.697), and 6 leave 7e-14.
    """
    return max(8, math.ceil(-math.log10(tol)))


@lru_cache(maxsize=256)
def _seam_phase(nu: float, tol: float):
    """Phase r*a above which [a, 1] is deformed, or None if there is none.

    The first of 30, 45, 67.5, ... up to 500 at which the Hankel expansion's
    truncation bound is below ``_MASS_SHARE`` * tol; its rounding is charged
    to the edge legs as ``hankel_scaled_grid``'s bound and
    ``_CONTOUR_ROUNDING``.
    """
    phase = _SEAM_PHASE
    while phase <= 500.0:
        if _hankel_truncation(nu, phase)[1] <= _MASS_SHARE * tol:
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


def _graded_edges(top: float, scale: float, power: float, n: int, tol: float) -> np.ndarray:
    """Ascending edges of n-point panels graded toward 0 (``_graded_ratio``)
    from ``top`` down to delta, deep enough that scale * delta reaches
    (tol/100)^(1/power), and 4 to 220 panels deep."""
    ratio = _graded_ratio(n)
    reach = math.log(max(tol, 1e-30) * 1e-2) / power - math.log(scale * top)
    depth = min(220, max(4, math.ceil(reach / math.log(ratio))))
    return np.sort(top * ratio ** np.arange(depth + 1, dtype=np.float64))


def _cexp_ld(re, im):
    """exp(re + i*im) for long-double exponent parts, rounded to complex
    double; elementwise over arrays."""
    mag = np.exp(np.asarray(re, dtype=_LD))
    im = np.asarray(im, dtype=_LD)
    return (mag * np.cos(im)).astype(np.float64) + 1j * (mag * np.sin(im)).astype(np.float64)


def _cis_ld(theta: np.ndarray) -> np.ndarray:
    """e^(i theta) for a long-double theta, reduced modulo 2 pi and then
    rounded once to double, so that it carries the rounding of a double
    below about pi; elementwise over arrays.  The multiple of 2 pi is taken
    from theta rounded to double, which is cheaper than from theta."""
    k = np.rint(theta.astype(np.float64) * (0.5 / np.pi))
    return np.exp(1j * (theta - 4 * _HALF_PI_LD * k).astype(np.float64))


def _matvec(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """m @ t for a complex vector or matrix t.  A real m meets the real and
    imaginary parts of t as real columns, read in place from t's memory: a
    product with a complex t would first copy m to complex."""
    if np.iscomplexobj(m):
        return m @ t
    k = m @ np.ascontiguousarray(t).view(np.float64).reshape(t.shape[0], -1)
    k = k.reshape(*m.shape[:-1], *t.shape[1:], 2)
    return k[..., 0] + 1j * k[..., 1]


# ---------------------------------------------------------------------------
# mesh and integrand pieces
# ---------------------------------------------------------------------------


def _middle_edges(lo: float, hi: float, osc_width: float, forced=(), quantum: float = 0.0) -> np.ndarray:
    """Breakpoints on [lo, hi]: oscillation-limited width, graded at both
    ends.  With a ``quantum``, a power of 2 that divides osc_width, every
    edge between lo and hi is rounded to a multiple of it; below 1 such sums
    are exact, so the panels of the uniform run are bitwise one width.

    The graded ends are stepped one edge at a time.  The uniform run, where
    the width is osc_width, is one ``np.add.accumulate`` from its first
    edge, which adds in the same order; with a quantum that edge is a
    multiple of it, so the run's sums are exact and need no rounding.
    Either way the edges are bitwise those of the stepping alone."""
    def width(s):
        return max(min(osc_width, 0.6 * s, 0.5 * (1.0 - s), 0.18), 1e-12)

    edges, s = [lo], lo
    while s < hi:
        w = width(s)
        if w == osc_width and (not quantum or s == round(s / quantum) * quantum):
            # edges s + k osc_width, kept while the width at the edge before
            # each is osc_width and they stay below hi.  Past s, 0.6 s only
            # grows, so the width holds while 0.5 (1 - s) does
            steps = max(1, int((min(hi, 1.0 - 2.0 * osc_width) - s) / osc_width) + 2)
            run = np.full(steps + 1, osc_width)
            run[0] = s
            np.add.accumulate(run, out=run)
            count = np.count_nonzero((0.5 * (1.0 - run[:-1]) >= osc_width) & (run[1:] < hi))
            if count:
                edges.extend(run[1 : count + 1].tolist())
                s = edges[-1]
                continue
        s = s + w
        if quantum:
            s = round(s / quantum) * quantum
        s = min(s, hi)
        edges.append(s)
    pts = np.array(edges)
    if forced:
        pts = np.union1d(pts, [f for f in forced if lo < f < hi])
    return pts


def _panel_nodes(edges, n: int):
    """n-point Legendre panels between ascending ``edges``, in extended
    precision: (midpoints, half-width times rule node, half-width times
    rule weight), a row per panel."""
    x, w = _gauss_jacobi(n, 0.0, 0.0)
    e = np.asarray(edges).astype(_LD)
    mid = ((e[1:] + e[:-1]) / 2)[:, None]
    half = ((e[1:] - e[:-1]) / 2)[:, None]
    return mid, half * x[None, :], half * w[None, :]


def _smooth_cutoff_ld(s: np.ndarray) -> np.ndarray:
    """C-infinity step: 1 for s <= 1/3, 0 for s >= 2/3."""
    u = (np.asarray(s, dtype=_LD) - _LD(_CUT_LO)) / _LD(_CUT_HI - _CUT_LO)
    out = np.where(u <= 0, _LD(1.0), _LD(0.0))
    ramp = (u > 0) & (u < 1)  # the exponentials are needed only here
    g0, g1 = np.exp(-1 / u[ramp]), np.exp(-1 / (1 - u[ramp]))
    out[ramp] = g1 / (g0 + g1)
    return out


def _powers_ld(*factors):
    """The product of x^e over the pairs (e, log x) of ``factors``, log x in
    long double, as one exp of the sum of the e log x: in long double where
    every e is real, in complex long double otherwise."""
    if all(e.imag == 0.0 for e, _ in factors):
        terms = [_LD(e.real) * log_x for e, log_x in factors]
    else:
        terms = [complex(e) * log_x.astype(_CLD) for e, log_x in factors]
    return np.exp(sum(terms[1:], terms[0]))


def _phi_factor(s, dist1, lam, rho, from_u: bool = False):
    """s^lam * (1-s^2)^(rho-1) with 1-s supplied separately as ``dist1``.

    ``dist1`` comes from exact panel arithmetic, so (1-s)(1+s) keeps full
    relative accuracy next to s = 1 where 1 - s*s would not.  ``from_u``
    marks panels parametrised by u = 1-s, where dist1 itself is exact and
    log(s) must be taken as log1p(-dist1).
    """
    log_s = np.log1p(-dist1) if from_u else np.log(s)
    return _powers_ld((lam, log_s), (rho - 1.0, np.log(dist1 * (2.0 - dist1))))


@dataclass(frozen=True)
class _NodeSet:
    """Nodes of one real-axis piece of a term.

    Rows of ``s`` and ``w`` are panels.  ``w`` holds the profile factor,
    the rule weight and the panel half-width.  The kernel is
    J_nu(r s), or r^nu J_nu(x)/x^nu at x = r s when ``scaled``; such a set
    is valid at every r.  ``rounding`` is the kernel's error plus the
    rule's, per unit of absolute mass |w k|.
    """

    s: np.ndarray
    w: np.ndarray
    scaled: bool = False
    rounding: float = _KERNEL_ROUNDING


def _single_node(s: float, w: complex, scaled: bool) -> _NodeSet:
    """A closed-form piece as one node: its weight times the kernel at s."""
    return _NodeSet(np.full((1, 1), s, dtype=_LD), np.full((1, 1), w, dtype=_CLD), scaled)


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

    def build_mesh(self, periods: int = 1, lo: float | None = None) -> np.ndarray:
        """Edges of the oscillation panels, each at most ``periods``
        oscillation periods wide, from ``lo`` (by default the top of the
        origin zone) to the bottom of the boundary zone.

        The endpoint zones below the default lo and above edges[-1] carry at
        most ``_ENDPOINT_PHASE`` of Bessel phase.  The panel budget is
        honoured by widening the oscillation panels; accuracy loss then
        shows up in the two-resolution error estimate, never as an error.
        """
        r = max(self.r, 1e-30)
        bottom = min(0.35, _ENDPOINT_PHASE / r)
        d_top = 0.0 if self.cutoff else min(0.3, _ENDPOINT_PHASE / r)
        osc = 2.0 * math.pi / r
        span = self.upper - d_top - bottom
        if span / osc > _MAX_PANELS - 60:
            osc = span / (_MAX_PANELS - 60)
        width, forced, quantum = periods * osc, (), 0.0
        if self.cutoff:
            # wider panels span at most a quarter of the cutoff's ramp
            width, forced = min(width, max(osc, (_CUT_HI - _CUT_LO) / 4.0)), (_CUT_LO,)
        if periods > 1:
            # a multiple of 2^-52: lo + k width is then exact below 1, and the
            # panels of the uniform run share one half-width
            quantum = 2.0**-52
            width = math.floor(width / quantum) * quantum
        return _middle_edges(bottom if lo is None else lo, self.upper - d_top, width, forced, quantum)

    # -- node sets -------------------------------------------------------

    def node_sets(self, edges, n: int, tol: float):
        """The term on [0, edges[-1]], and on [edges[-1], 1] unless it has the
        cutoff, as n-point node sets: Legendre panels between the edges, and
        an endpoint zone each side (``end_sets``).  Returns (sets, bound on
        the discarded end pieces).
        """
        sets, tail = self.end_sets(float(edges[0]), float(edges[-1]), n, tol)
        return [self._legendre(edges, n)] + sets, tail

    def end_sets(self, s_a: float, s_b: float, n: int, tol: float):
        """The term on [0, s_a], and on [s_b, 1] unless it has the cutoff, as
        n-point node sets.  A real exponent there is absorbed by a
        Gauss-Jacobi rule; a complex one oscillates in log s, which no fixed
        polynomial weight absorbs, so geometrically graded panels cover the
        zone, a single node carries the leading term of the discarded end
        piece in closed form, and the rest is bounded.  Returns (sets, bound
        on the discarded end pieces).
        """
        sets = []
        if self.lam.imag == 0.0:
            sets.append(self._origin_jacobi(s_a, n))
            tail = 0.0
        else:
            graded, tail = self._origin_graded(s_a, n, tol)
            sets += graded
        if not self.cutoff:
            d_top = 1.0 - s_b
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

    def _legendre(self, edges, n: int, from_u: bool = False) -> _NodeSet:
        """Legendre panels between ascending ``edges`` in s, or with ``from_u``
        in u = 1 - s, where 1 - s stays exact next to s = 1."""
        mid, hx, hw = _panel_nodes(edges, n)
        t = mid + hx
        if from_u:
            s, dist1 = 1 - t, t
        else:
            s, dist1 = t, (1 - mid) - hx
        return _NodeSet(s, self._factor(s, dist1, from_u) * hw)

    def _origin_jacobi(self, s_a: float, n: int) -> _NodeSet:
        """[0, s_a] with weight s^(lam+nu) after peeling J_nu(x)/x^nu."""
        b = self.lam.real + self.nu
        x, w = _gauss_jacobi(n, 0.0, b)
        h = _LD(s_a) / 2
        s = (h * (1 + x))[None, :]
        f = _powers_ld((self.rho - 1.0, np.log1p(-s * s)))
        if self.cutoff:
            f = f * _smooth_cutoff_ld(s)
        rounding = _KERNEL_ROUNDING + _JACOBI_ROUNDING / min(1.0, 1.0 + b)
        return _NodeSet(s, w[None, :] * f * h ** _LD(b + 1.0), True, rounding)

    def _boundary_jacobi(self, d_b: float, n: int) -> _NodeSet:
        """[1 - d_b, 1] with weight (1-s)^(rho-1)."""
        a = self.rho.real - 1.0
        x, w = _gauss_jacobi(n, a, 0.0)
        h = _LD(d_b) / 2
        u = h * (1 - x)  # 1 - s
        w = w * _powers_ld((self.lam, np.log1p(-u))) * _powers_ld((a, np.log(2 - u))) * h ** _LD(a + 1.0)
        rounding = _KERNEL_ROUNDING + _JACOBI_ROUNDING / min(1.0, 1.0 + a)
        return _NodeSet((1 - u)[None, :], w[None, :], False, rounding)

    def _origin_graded(self, s_top: float, n: int, tol: float):
        """Fallback for complex lam: geometric panels down to delta, then [0, delta].

        There the integrand is (r/2)^nu s^(lam+nu) / Gamma(nu+1) times 1 + E(s),
        |E(s)| < 2 s^2 ((r/2)^2/(nu+1) + |rho-1|) while that is small, so the
        leading term is a scaled-kernel node at s = 0 with weight
        delta^p / p, p = lam+nu+1, and the E part is bounded.  Next to a
        transform of size r^-(lam+1), that bound is about (r delta)^(p1+2), so
        the depth brings r*delta (at least 2*delta) down to
        (tol/100)^(1/(p1+2)).  Returns (node sets, bound).
        """
        p1 = self.lam.real + self.nu + 1.0
        k = (self.r / 2) ** 2 / (self.nu + 1.0) + abs(self.rho - 1.0)
        edges = _graded_edges(s_top, max(self.r, 2.0), p1 + 2.0, n, tol)
        delta = float(edges[0])
        p = self.lam + self.nu + 1.0
        lead = _single_node(0.0, np.exp(p * math.log(delta)) / p, True)
        scale = (self.r / 2) ** self.nu / float(_gamma_real_ld(self.nu + 1.0))
        sets = [self._legendre(edges, n), lead]
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
        u_edges = _graded_edges(d_top, max(self.r, 1.0), p1 + 1.0, n, tol)
        delta = float(u_edges[0])
        lead = _single_node(1.0, 2.0 ** (self.rho - 1.0) * np.exp(self.rho * math.log(delta)) / self.rho, False)
        slope = 2.0 ** max(p1 - 1.0, 0.0) * (self.r + abs(self.lam) + abs(self.rho - 1.0))
        return [self._legendre(u_edges, n, from_u=True), lead], 2.0 * slope * delta ** (p1 + 1.0) / (p1 + 1.0)

    # -- steepest-descent contours ------------------------------------------

    def _ladder_bound(self, k: int, r):
        """B_k at r: the bound on the origin ladder's remainder after k terms,
        (2/pi) |cos(pi (lam - nu)/2)| |C(rho-1, k)| 2^(c-1)
        Gamma((c+1+nu)/2) Gamma((c+1-nu)/2) r^-(c+1), c = Re lam + 2k, for
        an admissible k (``origin_ladder``)."""
        lam, rho, nu = self.lam, self.rho, self.nu
        c = lam.real + 2.0 * k
        scale = abs(_sinpi((lam - nu + 1.0) / 2.0)) * math.prod(abs(rho - 1.0 - j) / (j + 1.0) for j in range(k))
        if scale == 0.0:
            return np.zeros(np.shape(r))
        log = (math.log(2.0 / math.pi * scale) + (c - 1.0) * math.log(2.0)
               + math.lgamma((c + 1.0 + nu) / 2.0) + math.lgamma((c + 1.0 - nu) / 2.0))
        return np.exp(log - (c + 1.0) * np.log(r))

    def origin_ladder(self, radii: np.ndarray, seam: float, tol: float):
        """The seam zone S, the origin zone [0, a] and the contours from a,
        a = seam / r, at every radius of ``radii``, each at least seam:
        (values, bounds).

        Moved onto the imaginary axis (K_nu from DLMF 10.27.8), S is
        (2/pi) cos(pi (lam - nu)/2) times the integral of
        tau^lam (1 + tau^2)^(rho-1) K_nu(r tau) over (0, inf).  Expanding the
        binomial and integrating term by term (DLMF 10.43.19) gives the
        origin ladder: S is the sum over k < K of
        T_k(r) = C(rho-1, k) (-1)^k ladder_factor(lam + 2k, nu) r^-(lam+2k+1)
        to within ``_ladder_bound`` B_K, for an admissible K: K >= Re rho - 1,
        so that |(1 + x)^(rho-1-K)| <= 1 for x >= 0 in the Cauchy form of
        the binomial remainder, and Re lam + 2K > nu - 1, so that the
        remainder's integral converges (for Re lam < nu - 1 the ladder is
        S's analytic continuation in lam).  Where (lam - nu - 1)/2 is an
        integer, cos(pi (lam - nu)/2) = 0 and so is every B_K: the ladder
        ends, and where that integer is nonnegative, T_0 = 0 and S = 0.

        T_0 takes one Gamma pair, and T_(k+1)/T_k is rational.  K is chosen
        at the smallest radius r0: the smallest admissible K whose B_K there
        is at most ``_MASS_SHARE`` tol times sum_(k<K) |T_k|.  The terms
        fall until k ~ (r - Re lam)/2, to about e^-(r - Re lam) of the
        first, so for moderate lam and r >= 45 that K comes before they
        turn.  Where it does not (Re lam = 30 at r = 60, or some terms at
        r = seam = 30), K is the admissible value up to seam past the
        smallest with the smallest B_K, which the
        bound then charges: the estimate reports what the ladder reached.
        Every radius takes that K, since B_K falls like
        r^-(Re lam + 2K + 1), and sums T_k(r0) (r0/r)^(lam+2k+1) by Horner's
        rule in (r0/r)^2.  The bound adds B_K(r) and ``_LADDER_ROUNDING``
        times sum_(k<K) |T_k(r0)| (r0/r)^(Re lam+1), which is at least
        sum_(k<K) |T_k(r)|.
        """
        lam, rho, nu = self.lam, self.rho, self.nu
        r0 = float(np.min(radii))
        t = ladder_factor(lam, nu) * r0 ** -(lam.real + 1.0) * cmath.exp(-1j * lam.imag * math.log(r0))
        kmin = max(0, math.ceil(rho.real - 1.0), math.floor((nu - 1.0 - lam.real) / 2.0) + 1)
        terms, mass, best = [], 0.0, (math.inf, kmin)
        bound = float(self._ladder_bound(kmin, r0))
        for k in range(kmin + math.ceil(seam) + 1):
            if k >= kmin:
                if bound <= _MASS_SHARE * tol * mass:
                    break
                best = min(best, (bound, k))
                c = lam.real + 2.0 * k
                bound *= abs(rho - 1.0 - k) / (k + 1.0) * (c + 1.0 + nu) * (c + 1.0 - nu) / (r0 * r0)
            terms.append(t)
            mass += abs(t)
            mu = lam + 2.0 * k
            t *= (rho - 1.0 - k) * (mu + 1.0 + nu) * (mu + 1.0 - nu) / ((k + 1.0) * r0 * r0)
        else:
            del terms[best[1]:]
        ratio = r0 / radii
        y, values = ratio * ratio, np.zeros(radii.size, dtype=np.complex128)
        for t in reversed(terms):
            values = values * y + t
        power = ratio ** (lam.real + 1.0)
        rounding = _LADDER_ROUNDING * sum(map(abs, terms)) * power
        if lam.imag:
            power = power * np.exp(1j * lam.imag * np.log(ratio))
        return values * power, self._ladder_bound(len(terms), radii) + rounding

    def _edge_rule(self, nl: int, n: int, tol: float):
        """Nodes and weights in tau = r t of both edge legs, with the weight
        tau^(rho-1) e^(-tau) folded in, over Gamma(rho) for a real rho:
        (x, w, delta, top, rules).

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

    def _leg_edge(self, r: np.ndarray, rules):
        """-sigma (i/2) int_0^inf f(1 + i sigma t) H(r (1 + i sigma t)) dt at
        every radius of ``r``, for sigma = +1 and -1 and each rule of
        ``rules``, all in one pass.

        With tau = r t, f = tau^(rho-1) C g(tau), C = (2/r)^(rho-1)
        e^(-i sigma pi (rho-1)/2) and g = (1 + i sigma tau/r)^lam
        (1 + i sigma tau/(2r))^(rho-1); each rule comes from ``_edge_rule``,
        and for complex rho both tails it discards are bounded.  For a real
        rho the rule's weights sum to 1, and C takes their Gamma(rho) in
        its log magnitude, in long double, so that neither overflows double
        for rho in the hundreds.  H2 at r - i tau is the conjugate of H1 at
        r + i tau (DLMF 10.11.9), so one ``hankel_scaled_grid`` call serves
        both legs, and it takes its terms at the smallest |r + i tau| of all
        the rules' nodes.
        Returns per rule (values, absolute masses, kernel truncation and
        tail bounds), a row per leg.
        """
        lam, rho = self.lam, self.rho
        alpha = rho.real - 1.0
        sigma = np.array([[1.0], [-1.0]])
        r_ld = r.astype(_LD)
        lr = np.log(_LD(2.0) / r_ld)
        log_mag = alpha * lr + sigma * _HALF_PI_LD * rho.imag
        if rho.imag == 0.0:
            a = _LD(alpha)
            log_mag = log_mag + np.log(_gamma_real_ld(a + 2) / (a + 1))
        pre = _cexp_ld(log_mag, rho.imag * lr - sigma * _HALF_PI_LD * alpha + sigma * r_ld)
        rc = r[:, None]
        x = np.concatenate([rule[0] for rule in rules])
        d = 1j * sigma[:, :, None] * x / rc
        g = np.exp(lam * np.log1p(d) + (rho - 1.0) * np.log1p(d / 2.0))
        h, kbound = hankel_scaled_grid(self.nu, rc + 1j * x)
        h = np.array([h, h.conj()])
        terms = np.concatenate([rule[1] for rule in rules]) * g * h
        scale = 0.5 / r * np.abs(pre)
        out, i = [], 0
        for x, _, delta, top, _ in rules:
            t, i = terms[..., i : i + x.size], i + x.size
            mass = scale * np.sum(np.abs(t), axis=-1)
            bound = kbound * mass
            if delta is not None:
                h0 = scale * np.abs(h[..., i - x.size])
                slope = 1.0 + (abs(lam) + abs(rho - 1.0) + 1.0) / r
                growth = (1.0 + top / r) ** (abs(lam.real) + abs(alpha)) * math.exp(
                    0.5 * math.pi * (abs(lam.imag) + abs(rho.imag))
                )
                bound = bound + 2.0 * h0 * (
                    slope * delta ** (alpha + 2.0) / (alpha + 2.0) + growth * top**alpha * math.exp(-top)
                )
            out.append((-sigma * 0.5j / r * pre * np.sum(t, axis=-1), mass, bound))
        return out

    def steepest_descent(self, radii: np.ndarray, seam: float, rules, tol: float):
        """The term at every radius of ``radii``, each at least seam, with
        each rule (n, nl) of ``rules``: n nodes per graded panel and nl per
        edge leg.  Returns per rule (values, error bounds, panels, parts).
        The rows of ``parts`` are the seam zone S and the edge legs
        e^(ir) A+ and e^(-ir) A-, in the order the values sum them.

        On [a, 1], a = seam / r, J_nu = (H1 + H2)/2, H1 moves to a + it and
        1 + it and H2 to a - it and 1 - it.  The origin zone [0, a] and the
        contours from a are S, which ``origin_ladder`` sums in closed form;
        only the edge legs from 1 are integrated (``_leg_edge``).  The
        bounds add the edge legs' truncation bounds and tails, a rounding
        floor from their absolute mass, and S's bound.

        The rules share one pass: the edge legs are evaluated once on the
        nodes of all of them, and only the sums are taken per rule.  S is
        the same for every rule.  A rule's edge legs and their
        bounds are those of a call with it alone, except where the shared
        ``hankel_scaled_grid`` call, at the smallest |z| of every rule's
        nodes, takes other expansion terms or another omitted-term bound
        than the rule's own nodes would.
        """
        edges = [self._edge_rule(nl, n, tol) for n, nl in rules]
        legs = np.empty((len(rules), 2, radii.size), dtype=np.complex128)
        charge = np.empty((len(rules), radii.size))
        rows = max(1, _SWEEP_ELEMS // sum(e[0].size for e in edges))
        for i0 in range(0, radii.size, rows):
            part = slice(i0, i0 + rows)
            for k, (values, m, bound) in enumerate(self._leg_edge(radii[part], edges)):
                legs[k, :, part] = values
                charge[k, part] = bound[0] + _CONTOUR_ROUNDING * m[0] + bound[1] + _CONTOUR_ROUNDING * m[1]
        zone, zone_bound = self.origin_ladder(radii, seam, tol)
        out = []
        for values, bound, edge in zip(legs, charge, edges):
            parts = np.vstack([zone, values])
            out.append((parts[0] + parts[1] + parts[2], zone_bound + bound, 2 * edge[4], parts))
        return out

    # -- panel sweep -----------------------------------------------------

    def panel_sweep(self, radii: np.ndarray, n: int, tol: float):
        """The term at every radius of ``radii``, each at most this term's r,
        on the panel path in double precision, in two parts: (values, sets),
        the term being values plus each node set's sum at every radius.

        The node sets come from this term's ``build_mesh``, n nodes per
        panel, and ``end_sets``, and serve every radius: the profile factor
        is evaluated once and only the kernel is recomputed per radius.
        Complex exponents get the same graded end zones and closed-form end
        terms as the evaluator, with depths set by ``tol``.  The
        oscillation panels past the double kernel's expansion start, their
        left edge times the smallest radius at or past it, are rebuilt
        ``_WIDE_PERIODS`` periods wide with ``_WIDE_NODES`` nodes each and
        summed here by ``_asym_panel_sums``, the expansion's terms carried
        by the nodes and one real product per block of radii and panels:
        those sums are the values.  The other nodes, the panels below the
        start and the endpoint zones, are the sets, whose kernel matrices
        the caller takes from ``_kernel_matrices`` with those of other
        windows and terms.
        """
        edges = self.build_mesh()
        sets, _ = self.end_sets(float(edges[0]), float(edges[-1]), n, tol)
        values = np.zeros(radii.size, dtype=np.complex128)
        first = int(np.searchsorted(edges * float(np.min(radii)), _expansion_start(self.nu, False)))
        if first < edges.size - 1:
            wide = self.build_mesh(_WIDE_PERIODS, float(edges[first]))
            values += _asym_panel_sums(self.nu, radii, wide, self._legendre(wide, _WIDE_NODES).w)
        if first > 0:
            sets.insert(0, self._legendre(edges[: first + 1], n))
        return values, sets


def _asym_panel_sums(nu: float, r: np.ndarray, edges, w) -> np.ndarray:
    """sum_k w_k J_nu(r s_k) over the nodes s of the Legendre panels
    between ``edges`` (``w`` a row per panel) at every radius of r, each
    r s past ``_expansion_start(nu, False)``.

    There J_nu(x) = sqrt(2 / (pi x)) Re(e^(i omega) sum_m i^m a_m x^-m)
    with omega = x - (nu/2 + 1/4) pi (DLMF 10.17.3), so the sum is
    sqrt(2 / (pi r)) sum_m r^-m sum_k c_km Re(i^m e_k), with
    e_k = e^(i omega_k) and columns c_km = a_m w_k s_k^(-1/2-m): the
    expansion's m-sum is carried by the nodes, and per radius only by one
    Horner sum in 1/r.  Its terms are those ``_asym_terms`` takes at the
    smallest r s, down to the double floor.  Each block of panels is one
    real product of the columns against e's (cos omega, sin omega) pairs,
    which gives sum_k c_km cos omega_k and sum_k c_km sin omega_k, and
    Re(i^m e) picks +-the first for even m and +-the second for odd m.
    The columns are a running product over m in double, built once per
    block of panels; a complex w gives a column each for its real and
    imaginary parts.

    On a panel of midpoint m and half-width h, s = m + h t and e^(i omega)
    is e^(i (r m - (nu/2 + 1/4) pi)), one long-double product per radius
    and panel reduced modulo 2 pi and rounded once to double, times
    e^(i r h t), one per radius, distinct half-width and rule node (a wide
    mesh's uniform run is one half-width), r h t likewise a long-double
    product reduced and rounded once (``_cis_ld``): on a mesh of
    ``_WIDE_PERIODS`` periods per panel built for r or more it reaches
    8 pi, where a double's rounding is 8 times that below pi.  So every
    phase is rounded as a double below pi, not as one near r s.  The
    panels are taken a half-width at a time, so a block's e is one complex
    product per pair of its panels' phases and its half-width's turns.
    No block's e, columns, phases or turns hold more than
    ``_ASYM_BLOCK`` pairs, so the temporaries do not grow with
    radii x nodes and none reaches glibc's 128 KiB mmap threshold.
    """
    n = w.shape[1]
    mid, hx = _panel_nodes(edges, n)[:2]
    first, kind = np.unique(hx[:, -1], return_index=True, return_inverse=True)[1:]
    s = mid + hx
    count = _asym_terms(nu, float(np.min(r)) * float(s[0, 0]), floor=_DOUBLE_FLOOR)[0]
    m = np.arange(1, count + 1)
    step = (4.0 * nu * nu - (2 * m - 1.0) ** 2) / (8.0 * m)  # a_m / a_(m-1)
    ws = w / np.sqrt(s)
    ws = np.stack([ws.real, ws.imag]) if np.iscomplexobj(ws) else ws[None]
    ws, inv_s = ws.astype(np.float64), (1 / s).astype(np.float64)
    part = ws.shape[0]
    r_ld, shift = r.astype(_LD), (_LD(0.5 * nu) + _LD(0.25)) * (2 * _HALF_PI_LD)
    panels = max(1, _ASYM_BLOCK // (n * (count + 1) * part))
    e_buf = np.empty(_ASYM_BLOCK, dtype=np.complex128)
    # per part of c and term m, sum_k c_km cos omega_k and sum_k c_km
    # sin omega_k at each radius
    sums = np.zeros((part, count + 1, r.size, 2))
    for j0 in first:
        of_kind = np.flatnonzero(kind == kind[j0])
        rows = max(1, min(r.size, _ASYM_BLOCK // max(n, of_kind.size)))
        for i0 in range(0, r.size, rows):
            ri = r_ld[i0 : i0 + rows]
            phase = _cis_ld(mid[of_kind, :1] * ri - shift)
            # the rule's nodes are symmetric about 0, so the turns of the
            # upper half are the conjugates of the lower half's
            turn = _cis_ld(hx[j0, : (n + 1) // 2, None] * ri)
            turn = np.concatenate([turn, turn[: n // 2][::-1].conj()])
            for p0 in range(0, of_kind.size, panels):
                pj = of_kind[p0 : p0 + panels]
                c = np.empty((part, count + 1, pj.size * n))
                c[:, 0] = ws[:, pj].reshape(part, -1)
                np.multiply(step[:, None], inv_s[pj].reshape(-1), out=c[:, 1:])
                c = np.multiply.accumulate(c, axis=1, out=c).reshape(-1, pj.size * n)
                sub = max(1, _ASYM_BLOCK // (pj.size * n))
                for a0 in range(0, ri.size, sub):
                    a = slice(a0, a0 + sub)
                    e = e_buf[: pj.size * n * ri[a].size].reshape(pj.size, n, -1)
                    np.multiply(phase[p0 : p0 + panels, None, a], turn[:, a], out=e)
                    at = slice(i0 + a0, i0 + a0 + e.shape[-1])
                    sums[:, :, at] += (c @ e.reshape(pj.size * n, -1).view(np.float64)).reshape(
                        part, count + 1, -1, 2)
    # Re(i^m e) = Re(i^m) cos omega - Im(i^m) sin omega
    quarter = np.arange(count + 1)[:, None] % 4
    re_power, im_power = np.array([1.0, 0.0, -1.0, 0.0])[quarter], np.array([0.0, 1.0, 0.0, -1.0])[quarter]
    terms = re_power * sums[..., 0] - im_power * sums[..., 1]
    terms = terms[0] + 1j * terms[1] if part == 2 else terms[0]
    out = terms[count]
    for j in range(count - 1, -1, -1):
        out = out / r + terms[j]
    return out * np.sqrt(2 / (np.pi * r))


def _kernel_matrices(nu: float, entries, longdouble: bool = False) -> list:
    """The kernel at x = r s for each entry (radii, nodes, scaled) of
    ``entries``: per entry, in entry order, its (radius x node) matrix of
    J_nu(x), or of J_nu(x)/x^nu where scaled.

    The entries' (radius, node) pairs go in batches of at most
    ``_SWEEP_ELEMS``, an entry of more cut by radii, and each batch takes
    one ``bessel_j_grid`` call over its plain pairs' x and one
    ``bessel_j_scaled_grid`` call over its scaled ones'.  x is a
    long-double product, rounded once to double unless ``longdouble``.
    The kernel's value at an element depends on its x only, so an entry's
    matrix does not depend on the entries it is batched with.
    """
    batches, pairs = [[]], 0
    for i, (radii, s, scaled) in enumerate(entries):
        rows = max(1, _SWEEP_ELEMS // s.size)
        for i0 in range(0, radii.size, rows):
            part = radii[i0 : i0 + rows]
            if batches[-1] and pairs + part.size * s.size > _SWEEP_ELEMS:
                batches.append([])
                pairs = 0
            batches[-1].append((i, part, s, scaled))
            pairs += part.size * s.size
    pieces = [[] for _ in entries]
    for batch in batches:
        for kind, kernel in ((False, bessel_j_grid), (True, bessel_j_scaled_grid)):
            todo = [(i, r, s) for i, r, s, scaled in batch if scaled == kind]
            if not todo:
                continue
            bounds = np.cumsum([0] + [r.size * s.size for _, r, s in todo]).tolist()
            x = np.empty(bounds[-1], dtype=_LD if longdouble else np.float64)
            for (_, r, s), lo, hi in zip(todo, bounds, bounds[1:]):
                np.multiply(r.astype(_LD)[:, None], s, out=x[lo:hi].reshape(r.size, s.size), casting="same_kind")
            k = kernel(nu, x, longdouble=True) if longdouble else kernel(nu, x)
            for (i, r, s), lo, hi in zip(todo, bounds, bounds[1:]):
                pieces[i].append(k[lo:hi].reshape(r.size, s.size))
    return [p[0] if len(p) == 1 else np.concatenate(p) for p in pieces]


def _panel_path(integrals, nu: float, r: float, tol: float) -> list:
    """Each term of ``integrals``, all of order nu at radius r, on the panel
    path from one pass at two resolutions: (value, estimate, panels) per
    term.

    Panels on the term's ``build_mesh`` cover its whole support, with 32
    and 16 nodes per panel.  The node sets of every term at both
    resolutions get their kernel values from one ``_kernel_matrices``
    pass, at x = r s in extended precision, and then each set is summed in
    extended precision, a scaled set's kernel times r^nu.  The value is the
    fine sum; the estimate adds its difference from the coarse sum to each
    fine set's rounding times its absolute mass, and the tail bounds.
    """
    built = []
    for ti in integrals:
        edges = ti.build_mesh()
        built += [ti.node_sets(edges, n, tol) for n in (_NODES, _NODES // 2)]
    radius = np.array([r])
    kernels = iter(_kernel_matrices(nu, [(radius, ns.s.ravel(), ns.scaled) for sets, _ in built for ns in sets],
                                    longdouble=True))
    r_nu = np.exp(_LD(nu) * np.log(_LD(r)))

    def terms(ns):
        k = next(kernels).reshape(ns.s.shape)
        return ns.w * (r_nu * k if ns.scaled else k)

    out = []
    for (fine, err), (coarse, _) in zip(built[::2], built[1::2]):
        value = _LD(0.0)
        for ns in fine:
            t = terms(ns)
            value = value + np.sum(t)
            err += ns.rounding * float(np.sum(np.abs(t)))
        check = _LD(0.0)
        for ns in coarse:
            check = check + np.sum(terms(ns))
        out.append((complex(value), abs(complex(value - check)) + err, sum(ns.s.shape[0] for ns in fine)))
    return out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _contour_start(terms, nu: float, cutoff: bool, cfg: QuadratureConfig):
    """(seam, start): the seam phase of the steepest-descent path and the
    smallest radius at which the terms (c, lam, rho) of ``terms`` take it,
    or (None, inf) where no radius does: cutoff profiles are not analytic,
    and some orders have no seam.

    The edge legs need only |r + i tau| >= seam, so a term starts at
    max(seam, u min(0.82 sqrt(max(Re rho - 1, 0) + 4), 2.6)),
    u = |lam| + |rho - 1|/2, and the profile at its terms' largest start.
    The legs' factor (1 + i tau/r)^lam (1 + i tau/(2r))^(rho-1) has
    log-derivative about i u/r near tau = 0, and their rule of
    nl = ceil(-log10 tol) nodes, weight tau^alpha e^-tau with
    alpha = Re rho - 1, integrates e^(i omega tau) to tol only while
    omega sqrt(alpha + 4) <= 1.22 (1.17-1.24 at alpha = 0, 0.97-1.31 at
    alpha = 14.5, for nl from 6 to 13): hence 0.82 = 1/1.22, and no nl.
    For large Re rho the crossovers below grow more slowly than that, and
    the cap 2.6 fits them.  Against the radius from which the contour
    path's estimate stays below the larger of the panel path's and 1% of
    the target (n = 2 and 4, Re lam from -1.85 to 35, Re rho from 0.02 to
    61, r on a 4% grid from 30 to 400), this start is never more than a
    grid step early; n = 2 and 4 crossed within a step of each other.
    Every term with |lam| <= 3.5 and |rho - 1| <= 5.6 starts at the seam.
    """
    seam = None if cutoff else _seam_phase(float(nu), cfg.target_rel_tol)
    if seam is None:
        return None, math.inf
    return seam, max([seam] + [
        (abs(lam) + abs(rho - 1.0) / 2.0) * min(0.82 * math.sqrt(max(rho.real - 1.0, 0.0) + 4.0), 2.6)
        for _, lam, rho in terms])


def _transform(terms, nu: float, radii: np.ndarray, cutoff: bool, cfg: QuadratureConfig):
    """Sum of c * (integral of s^lam (1-s^2)^(rho-1) J_nu(r s)) over (c, lam, rho)
    at every radius of ``radii``: (values, estimates, panels), one per radius.

    From the contour start on (``_contour_start``), each term runs
    ``steepest_descent`` once over all those radii, with two rules: 32
    nodes per graded panel and nl + 8 per edge leg, and 16 and nl.  The
    fine values are the values; the estimate adds their distance from the
    coarse ones to the fine rule's bounds.  Below it and where there is no
    seam, each radius runs ``_panel_path``, every term in one pass.
    """
    tol = cfg.target_rel_tol
    terms = list(terms)
    seam, start = _contour_start(terms, nu, cutoff, cfg)
    values = np.zeros(radii.size, dtype=np.complex128)
    errors = np.zeros(radii.size)
    panels = np.zeros(radii.size, dtype=np.int64)
    on = radii >= start
    if on.any():
        r, nl = radii[on], _laguerre_nodes(tol)
        v, e, p = 0j, 0.0, 0
        for c, lam, rho in terms:
            ti = _TermIntegral(lam, rho, nu, float(r.min()), False)
            (fine, bound, n, _), (coarse, *_) = ti.steepest_descent(
                r, seam, ((_NODES, nl + 8), (_NODES // 2, nl)), tol)
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
    terms = ((t.coeff, t.lam, t.rho) for t in profile.terms)
    cfg = cfg or _DEFAULT_CFG
    value, error, panels = _transform(terms, profile.nu, np.array([r]), profile.vanishes_near_one, cfg)
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
    w, at t, in the second (true) barycentric form (Berrut and Trefethen,
    SIAM Rev. 46, 2004); t - x_j is taken in absolute coordinates, against
    the points actually sampled.  f is a vector or has a column per
    function.  t is taken in blocks of at most ``_BARY_BLOCK`` (radius,
    point) pairs: w / (t - x_j) is written into one reused buffer, and one
    real product of it with f's real and imaginary columns and a column of
    ones gives every numerator and the denominator, divided once per row.
    A t equal to some x_j takes f_j; a non-finite f_j spreads to every
    other t."""
    cols = np.ascontiguousarray(f, dtype=np.complex128).reshape(x.size, -1).view(np.float64)
    g = np.empty((x.size, cols.shape[1] + 1))
    g[:, :-1], g[:, -1] = cols, 1.0
    p = np.empty((t.size, *f.shape[1:]), dtype=np.complex128)
    out = p.reshape(t.size, -1).view(np.float64)
    rows = max(1, min(t.size, _BARY_BLOCK // x.size))
    q, sums = np.empty((rows, x.size)), np.empty((rows, g.shape[1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i0 in range(0, t.size, rows):
            n = min(rows, t.size - i0)
            np.subtract(t[i0 : i0 + n, None], x, out=q[:n])
            np.divide(w, q[:n], out=q[:n])
            np.matmul(q[:n], g, out=sums[:n])
            np.divide(sums[:n, :-1], sums[:n, -1:], out=out[i0 : i0 + n])
    j = np.minimum(np.searchsorted(x, t), x.size - 1)
    hit = x[j] == t
    p[hit] = f[j[hit]]
    return p


def _windowed(r: np.ndarray, sweep, reach, count, flat=None, rest=None) -> np.ndarray:
    """``sweep`` at every radius of r, with r on one path of the sweep.

    In one pass over the sorted radii, each window starts at the smallest
    radius a no window covers yet and spans [a, b], b the largest radius up
    to ``reach(a)``.  A window holding more radii than m = ``count(a, b)``
    is sampled at its m Chebyshev points only, and interpolated onto its
    radii.  The other windows' radii, in their order in r, go to ``sweep``
    as they are, in the same call as the points, with the index of each
    one's window.  Only windows that hold a radius are formed, so an
    outlying radius costs no more than any other.

    Without ``flat``, ``sweep`` gives F, the points are Chebyshev in r and
    F is interpolated.  With it, ``sweep`` gives (F, P), P a row of parts
    per radius whose sum is F less ``rest``, the points are Chebyshev in
    log r, and G = P ``flat``(radii, unit) is interpolated, smooth in
    log r; an interpolated radius takes the sum of G / ``flat`` there plus
    ``rest`` evaluated there.  unit, the power of 2 just above the
    window's first point, keeps r / unit exact and the powers in ``flat``
    finite where F itself underflows.
    """
    order = np.argsort(r)
    ascending = r[order]
    which = np.empty(r.size, dtype=np.intp)
    direct = np.ones(r.size, dtype=bool)
    windows = []
    i = j = 0
    while i < r.size:
        a = float(ascending[i])
        end = int(np.searchsorted(ascending, reach(a), side="right"))
        b, inside = float(ascending[end - 1]), order[i:end]
        which[inside] = j
        m = count(a, b)
        if end - i > m and b - a > 1e-8 * b:
            direct[inside] = False
            x, w = _chebyshev_window(*(np.log([a, b]) if flat else (a, b)), m)
            windows.append((inside, j, np.exp(x) if flat else x, x, w))
        i, j = end, j + 1
    values = sweep(np.concatenate([r[direct], *(y for _, _, y, _, _ in windows)]),
                   np.concatenate([which[direct], *(np.full(x.size, j) for _, j, x, _, _ in windows)]))
    values, parts = values if flat else (values, values)
    out = np.empty(r.size, dtype=np.complex128)
    at = np.count_nonzero(direct)
    out[direct] = values[:at]
    for inside, _, y, x, w in windows:
        t, f = r[inside], parts[at : at + x.size]
        if flat:
            unit = math.ldexp(1.0, math.frexp(y[0])[1])
            g = _barycentric(x, w, f * flat(y, unit), np.log(t))
            out[inside] = np.sum(g / flat(t, unit), axis=1) + rest(t)
        else:
            out[inside] = _barycentric(x, w, f, t)
        at += x.size
    return out


def hankel_sweep(
    profile: RadialProfile, r_values, cfg: QuadratureConfig | None = None
) -> np.ndarray:
    """finite_hankel evaluated on a whole grid of r at once, with no error
    estimates; intended for slow-decrease sweeps.

    Each radius takes the path of the grid evaluator ``_transform``, one
    term at a time.  From the contour start on, a term runs
    ``_TermIntegral.steepest_descent`` once over all those radii, as
    ``_transform`` does, but with its fine rule only (nl + 8 nodes per edge
    leg).  These values agree with finite_hankel to within its estimate,
    so with the closed form to about 1e-12 relative wherever that estimate
    is certified, with no absolute floor.
    Below that, and for cutoff profiles at every r, the term runs
    ``_TermIntegral.panel_sweep`` once per window of r (below), on node
    sets built for the window's largest radius with 12 nodes per panel, or
    for r = ``_CUTOFF_MESH_R`` = 300 if that is larger and the profile has
    the cutoff, whose ramp on [1/3, 2/3] a smaller mesh does not resolve.
    So an outlying radius costs only its own window, and 49 points below
    r = 60 take 120 nodes for lam = 0.5, rho = 6, not the 3,840 of a mesh
    for r ~ 2006.  Oscillation panels past the double kernel's expansion
    start, rebuilt 8 periods wide with 40 nodes, their width and inner
    edges multiples of 2^-52 so that their uniform run is bitwise one
    width, sum that expansion with its phase factored per panel
    (``_asym_panel_sums``): its m-sum is carried by the nodes, as columns
    w s^(-1/2-m) a_m built once per block of panels, so a block is one
    complex product per pair for e^(i omega), one real product of its
    cosines and sines against the columns, and per radius a Horner sum in
    1/r, and no temporary reaches 128 KiB.  The other node
    sets of every window and term are double-precision kernel matrices,
    r s one long-double product rounded once to double, evaluated by one
    kernel call per node kind (``_kernel_matrices``), whose matrix products
    with the weights, times r^nu for a scaled set, are added to the values
    ``panel_sweep`` returns, and the kernel is within
    4.3e-15 of J_nu's envelope.  So on the radii [43.7, 60) of a C7 check,
    when they took this path, the sweep stayed within a fifth of
    finite_hankel's estimate + 1e-12 |F|, on the cutoff (0, 1) over
    [1800, 2006) within 0.0023 of it, and at n = 30 and 60 within 1.8e-14
    of the closed form.

    Dense grids are not swept radius by radius.  The sorted radii of each
    path, so that no window straddles the contour start, are cut in one
    pass into windows [a, b] (``_windowed``).  A window that holds more radii
    than its Chebyshev points is swept at those points only and
    interpolated onto its radii (``_barycentric``, one real product per
    block of at most ``_BARY_BLOCK`` (radius, point) pairs, so that no
    temporary of the interpolant reaches 128 KiB and a warm regular window
    check takes no page fault).  On the contour path b <= 4 a, with
    ``_CONTOUR_POINTS`` = 32 points in log r, and what is interpolated is
    each term's edge legs, the last two ``parts`` of ``steepest_descent``,
    made smooth by r^(Re rho+1/2) e^(-+ir), which are put back at each
    radius; the seam zone is summed there by ``origin_ladder``.  On the
    [60, 2006] grid of step pi/16 this is within 1.3e-15 of the direct
    sweep's envelope of |F| within +-pi, for (0, 0.1), (1, 0.5),
    (2.5, 1), (1, 3), (2.5, 3), (0.5, 6), n = 30 and two profiles with a
    complex rho.  On the
    panel path b <= min(a + ``_WINDOW``, a ``_WINDOW_RANGE`` **
    (1 / (nu + 2))): r^-(nu + 2) changes by at most 16 across it, which
    narrows windows near r = 0 and, for large orders, over the first few
    hundred, and F itself is sampled at ceil(u h) + 40 points in r
    (half-width h, support [0, u]).  There the interpolant resamples the
    panel sweep's own error, amplified by at most the Lebesgue constant,
    about 4.  A C7 grid of 9,997 radii on [43.7, 2006] is swept at 96
    contour points for a regular profile, and at 1,300 panel points for a
    cutoff one.  Every other window, and so every grid sparser than that,
    is swept exactly as its radii are given.
    """
    cfg = cfg or _DEFAULT_CFG
    r = np.asarray(r_values)
    if r.ndim != 1 or r.size == 0:
        raise DomainError("hankel_sweep requires a 1-d grid of positive r")
    r = check_radii(r, "hankel_sweep")
    tol = cfg.target_rel_tol
    nu, cutoff = profile.nu, profile.vanishes_near_one
    seam, start = _contour_start(((t.coeff, t.lam, t.rho) for t in profile.terms), nu, cutoff, cfg)
    on = r >= start

    def contours(radii, _):
        out, split = np.zeros(radii.size, dtype=np.complex128), []
        for t in profile.terms:
            ti = _TermIntegral(t.lam, t.rho, nu, float(np.min(radii)), False)
            (v, _, _, parts), = ti.steepest_descent(radii, seam, ((_NODES, _laguerre_nodes(tol) + 8),), tol)
            out += t.coeff * v
            split.append(t.coeff * parts[1:])
        return out, np.concatenate(split).T

    def flat(radii, unit):
        # per term (r/unit)^(Re rho+1/2) e^(-+ir) for the edge legs
        rc, turn = (radii / unit)[:, None], np.exp(1j * radii)[:, None]
        turn = np.hstack([turn.conj(), turn])
        return np.hstack([rc ** (t.rho.real + 0.5) * turn for t in profile.terms])

    def seam_zones(radii):
        out = np.zeros(radii.size, dtype=np.complex128)
        for t in profile.terms:
            out += t.coeff * _TermIntegral(t.lam, t.rho, nu, float(np.min(radii)), False).origin_ladder(
                radii, seam, tol)[0]
        return out

    def panels(radii, window):
        out, swept = np.zeros(radii.size, dtype=np.complex128), []
        for j in np.unique(window):
            part = np.flatnonzero(window == j)
            mesh_r = max(float(np.max(radii[part])), _CUTOFF_MESH_R if cutoff else 0.0)
            for t in profile.terms:
                ti = _TermIntegral(t.lam, t.rho, nu, mesh_r, cutoff)
                swept.append((part, radii[part], t.coeff, *ti.panel_sweep(radii[part], _SWEEP_NODES, tol)))
        kernels = iter(_kernel_matrices(nu, [(rs, ns.s.ravel(), ns.scaled) for _, rs, _, _, sets in swept
                                             for ns in sets]))
        for part, rs, c, values, sets in swept:
            for ns in sets:
                k, w = next(kernels), np.asarray(ns.w, dtype=np.complex128).ravel()
                values += _matvec(k, w) * rs**nu if ns.scaled else _matvec(k, w)
            out[part] += c * values
        return out

    out = np.zeros(r.size, dtype=np.complex128)
    upper, ratio = _CUT_HI if cutoff else 1.0, _WINDOW_RANGE ** (1.0 / (nu + 2.0))
    if on.any():
        out[on] = _windowed(r[on], contours, lambda a: 4.0 * a, lambda a, b: _CONTOUR_POINTS, flat, seam_zones)
    if not on.all():
        out[~on] = _windowed(r[~on], panels, lambda a: min(a + _WINDOW, a * ratio),
                             lambda a, b: math.ceil(upper * (b - a) / 2) + _WINDOW_MARGIN)
    return out
