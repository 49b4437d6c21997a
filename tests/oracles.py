"""Independent oracles used to derive expected values.

Nothing in here touches the package's own evaluators: cross-checks come
from mpmath, from exact rational arithmetic, or from self-bounding
truncated series.  Frozen constants in the test modules were produced by
these functions (or by the mpmath one-liners quoted next to them) before
the corresponding implementation code was written.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

mp.mp.dps = 30


def j0_series_with_bound(x: float, terms: int = 60):
    """Truncated even series for the order-zero Bessel function plus a bound
    on the discarded tail.

    Terms are (-1)^k (x/2)^(2k) / (k!)^2 with exact rational arithmetic on a
    rational x; once the term ratio q = (x/2)^2/(k+1)^2 drops below 1 the
    tail is dominated by a geometric series, giving |tail| <= |t_next|/(1-q).
    """
    x = Fraction(x)
    q = (x / 2) ** 2
    term = Fraction(1)
    total = Fraction(1)
    for k in range(1, terms + 1):
        term *= -q / (k * k)
        total += term
    nxt = abs(term) * q / ((terms + 1) ** 2)
    ratio = q / ((terms + 2) ** 2)
    if ratio >= 1:
        raise ValueError("not enough terms for a geometric tail bound")
    bound = nxt / (1 - ratio)
    return total, bound


def j0_first_zero(lo: float = 2.0, hi: float = 3.0, iters: int = 60) -> float:
    """First positive root of the order-zero Bessel function by bisection on
    the self-bounding series (sign certain whenever |value| > tail bound)."""
    def sign(x: float) -> int:
        val, bound = j0_series_with_bound(x)
        if abs(val) <= bound:
            raise ValueError(f"sign uncertain at {x}")
        return 1 if val > 0 else -1
    slo, shi = sign(lo), sign(hi)
    assert slo > 0 > shi
    for _ in range(iters):
        mid = (lo + hi) / 2
        if sign(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def mp_gamma(z: complex) -> complex:
    return complex(mp.gamma(mp.mpc(z.real, z.imag)))


def mp_bessel_j(nu: float, x: float) -> float:
    return float(mp.besselj(mp.mpf(nu), mp.mpf(x)))


def mp_bessel_j_scaled(nu: float, x: float) -> float:
    """J_nu(x) / x^nu, rounded once."""
    return float(mp.besselj(mp.mpf(nu), mp.mpf(x)) / mp.mpf(x) ** nu)


def mp_finite_hankel(lam, rho, nu, r, flatten: int = 40) -> float:
    """Reference transform value via substitutions that flatten both endpoint
    singularities, then tanh-sinh quadrature on each half."""
    lam, rho, nu, r = map(mp.mpf, (lam, rho, nu, r))
    q = p = flatten
    half = mp.mpf(1) / 2

    def fa(u):
        s = u ** q
        return q * u ** (q - 1) * s ** lam * (1 - s ** 2) ** (rho - 1) * mp.besselj(nu, r * s)

    def fb(v):
        w = v ** p
        s = mp.sqrt(1 - w)
        return (p / 2) * v ** (p - 1) / s * s ** lam * w ** (rho - 1) * mp.besselj(nu, r * s)

    pieces = max(12, int(float(r)) // 3 + 12)
    a = mp.quad(fa, mp.linspace(0, half ** (mp.mpf(1) / q), pieces), maxdegree=8)
    b = mp.quad(fb, mp.linspace(0, (1 - half ** 2) ** (mp.mpf(1) / p), pieces), maxdegree=8)
    return float(a + b)


def binomial_ladder(alpha: Fraction, count: int) -> list[Fraction]:
    """Coefficients of (1-u)^alpha = sum_j c_j u^j by exact products."""
    out = [Fraction(1)]
    c = Fraction(1)
    for j in range(1, count):
        c *= Fraction(alpha - (j - 1), j)
        out.append(c * (-1) ** j)
    return out


def reciprocal_sqrt_series(count: int) -> list[Fraction]:
    """Coefficients of (1-u)^(-1/2) by exact long division against the
    square-root series, an independent route to the same ladder."""
    sqrt_coeffs = binomial_ladder(Fraction(1, 2), count)  # (1-u)^{1/2}
    inv = [Fraction(1)]
    for n in range(1, count):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += sqrt_coeffs[k] * inv[n - k]
        inv.append(-acc)
    return inv


def mp_term_transform(lam, rho, nu, r) -> complex:
    """Closed form of the integral of s^lam (1-s^2)^(rho-1) J_nu(r s) over
    (0, 1), for complex lam and rho, from the Bessel series integrated term
    by term:

        (r/2)^nu Gamma(rho) Gamma(a) / (2 Gamma(nu+1) Gamma(a+rho))
            * 1F2(a; nu+1, a+rho; -r^2/4),          a = (lam+nu+1)/2.
    """
    with mp.workdps(30):
        lam = mp.mpc(complex(lam).real, complex(lam).imag)
        rho = mp.mpc(complex(rho).real, complex(rho).imag)
        nu, r = mp.mpf(nu), mp.mpf(r)
        a = (lam + nu + 1) / 2
        pre = (r / 2) ** nu * mp.gamma(rho) * mp.gamma(a) / (2 * mp.gamma(nu + 1) * mp.gamma(a + rho))
        return complex(pre * mp.hyp1f2(a, nu + 1, a + rho, -r * r / 4))


def mp_hankel_scaled(nu: float, z: complex, kind: int) -> complex:
    """e^(-iz) H1_nu(z) (kind 1) or e^(iz) H2_nu(z) (kind 2).  mpmath forms
    H as J +- iY, which cancels like e^(-2|Im z|) where H decays, so the
    working precision grows with |Im z|."""
    with mp.workdps(40 + int(abs(complex(z).imag))):
        zz = mp.mpc(complex(z).real, complex(z).imag)
        if kind == 1:
            return complex(mp.hankel1(nu, zz) * mp.exp(-1j * zz))
        return complex(mp.hankel2(nu, zz) * mp.exp(1j * zz))


def _newton_rule(f, start, dps):
    """Roots of a polynomial by Newton's method from the nodes ``start``;
    ``f(x)`` returns (p, p', weight at a root).  Iteration stops after a
    step below 10^(-dps/2) of max(1, |x|), so the nodes are good to about
    dps digits, and the weights, taken before that step, to about dps/2.
    Returns (nodes, weights)."""
    nodes, weights = [], []
    for x in start:
        x = mp.mpf(x)
        for _ in range(20):
            p, dp, weight = f(x)
            step = p / dp
            x -= step
            if abs(step) <= mp.mpf(10) ** -(dps // 2) * max(1, abs(x)):
                break
        nodes.append(x)
        weights.append(weight)
    return nodes, weights


def mp_gauss_jacobi(n: int, a: float, b: float, start, dps: int = 50):
    """The n-point Gauss-Jacobi rule for (1-x)^a (1+x)^b at ``dps`` digits,
    refined by Newton's method from the nodes ``start``: (nodes, weights,
    zeroth moment) as mpf.  P_n^(a,b) comes from its textbook recurrence
    (DLMF 18.9.1) and the weights from its derivative,
    2^(a+b+1) Gamma(n+a+1) Gamma(n+b+1) / (Gamma(n+a+b+1) n! (1-x^2) P_n'(x)^2)
    (Szego, Orthogonal Polynomials, (15.3.5))."""
    with mp.workdps(dps):
        a, b = mp.mpf(a), mp.mpf(b)
        const = 2 ** (a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1) / (
            mp.gamma(n + a + b + 1) * mp.factorial(n))

        # P_(k+1) = (s_k x + t_k) P_k - u_k P_(k-1)
        coeffs = []
        for k in range(1, n):
            c = 2 * k + a + b
            d = 2 * (k + 1) * (k + a + b + 1) * c
            coeffs.append(((c + 1) * (c + 2) * c / d, (c + 1) * (a * a - b * b) / d,
                           2 * (k + a) * (k + b) * (c + 2) / d))

        def f(x):
            p0, p = mp.mpf(1), (a - b) / 2 + (a + b + 2) * x / 2
            for s, t, u in coeffs:
                p0, p = p, (s * x + t) * p - u * p0
            c = 2 * n + a + b
            dp = (n * ((a - b) - c * x) * p + 2 * (n + a) * (n + b) * p0) / (c * (1 - x * x))
            return p, dp, const / ((1 - x * x) * dp * dp)

        nodes, weights = _newton_rule(f, start, dps)
        return nodes, weights, 2 ** (a + b + 1) * mp.beta(a + 1, b + 1)


def mp_gauss_laguerre(n: int, alpha: float, start, dps: int = 50):
    """The n-point generalised Gauss-Laguerre rule for t^alpha e^(-t) at
    ``dps`` digits, refined by Newton's method from the nodes ``start``:
    (nodes, weights, zeroth moment) as mpf.  L_n^(alpha) comes from its
    textbook recurrence (DLMF 18.9.13), its derivative from
    x L_n' = n L_n - (n + alpha) L_(n-1), and the weights are
    Gamma(n+alpha+1) / (n! x L_n'(x)^2) (Szego, (15.3.5))."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        const = mp.gamma(n + a + 1) / mp.factorial(n)

        coeffs = [((2 * k + 1 + a) / (k + 1), mp.mpf(1) / (k + 1), (k + a) / (k + 1)) for k in range(1, n)]

        def f(x):
            p0, p = mp.mpf(1), 1 + a - x
            for s, t, u in coeffs:
                p0, p = p, (s - t * x) * p - u * p0
            dp = (n * p - (n + a) * p0) / x
            return p, dp, const / (x * dp * dp)

        nodes, weights = _newton_rule(f, start, dps)
        return nodes, weights, mp.gamma(a + 1)
