"""Two-layer dispersion relations and vertical mode profiles.

Setup: an inviscid fluid with a free surface at y = 0, an upper layer of
density rho1 and depth b over an infinitely deep lower layer of density
rho2 > rho1. With beta = rho1/rho2 and alpha = 1 - beta, time-harmonic waves
of wavenumber tau carry the spectral parameter lam = omega^2 / g on one of
two branches:

    lambda1(tau) = alpha tau tanh(b tau) / (1 + beta tanh(b tau))   (interfacial)
    lambda2(tau) = tau                                               (surface)

lambda1 < lambda2 for tau > 0 and both increase monotonically, so for waves
travelling along a horizontal cylinder with axial wavenumber k the essential
spectrum has two cut-offs Lambda1 = lambda1(k) < Lambda2 = k. Between them
only the interfacial branch radiates; above Lambda2 both do. The value tau1
solves lambda1(tau1) = Lambda2 and marks where the interfacial branch crosses
the upper cut-off; it controls the leakage of embedded modes.

Everything here is elementary real analysis on those two functions: evaluate,
differentiate, find the threshold crossings, and build the vertical profiles
g(y) = tau cosh(tau y) + lam sinh(tau y) used by the spectral estimates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._scipy import extension
from .errors import ConsistencyError, ValidationError

# Relative abscissa tolerance for every 1-D root solve in the package.
ROOT_RTOL = 1e-13
BRENT_MAXITER = 100


def brentq(f, a, b, *, xtol, what):
    """Root of f on [a, b] by Brent's method; f(a) and f(b) must differ in sign.

    scipy's compiled brentq.c, the routine behind scipy's optimize.brentq,
    called directly with rtol = ROOT_RTOL and at most BRENT_MAXITER
    iterations, so the root is scipy's bit for bit. No sign change, a NaN
    value of f and no convergence raise ConsistencyError naming `what`.
    """
    seen = []

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ConsistencyError(f"{what}: f({x!r}) is NaN")
        seen.append(fx)
        return fx

    try:
        root, _, _, flag = extension("optimize", "_zeros")._brentq(
            value, a, b, xtol, ROOT_RTOL, BRENT_MAXITER, (), True, False)
    except ValueError:
        # the C code stops at f(a) and f(b) of one sign; past them, f raised
        if len(seen) < 2 or (seen[0] < 0.0) != (seen[1] < 0.0):
            raise
        raise ConsistencyError(
            f"{what}: f({float(a)!r}) = {seen[0]!r} and f({float(b)!r}) = "
            f"{seen[1]!r} have the same sign") from None
    if flag != 0:
        raise ConsistencyError(
            f"{what}: no convergence in {BRENT_MAXITER} iterations, last x = {root!r}")
    return root


@dataclass(frozen=True)
class FluidConfig:
    """Physical configuration of the two-layer channel.

    beta : density ratio rho1/rho2, in (0, 1)
    b    : upper layer depth, > 0
    k    : wavenumber along the cylinder axis, > 0
    """

    beta: float
    b: float
    k: float

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ValidationError(f"beta must lie in (0, 1), got {self.beta}")
        if not (self.b > 0.0):
            raise ValidationError(f"b (upper layer depth) must be positive, got {self.b}")
        if not (self.k > 0.0):
            raise ValidationError(f"k (axial wavenumber) must be positive, got {self.k}")

    @property
    def alpha(self) -> float:
        return 1.0 - self.beta


def _check_tau(tau: float) -> None:
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValidationError(f"tau must be positive and finite, got {tau}")


def lambda1(tau: float, cfg: FluidConfig) -> float:
    """Interfacial branch of the dispersion relation."""
    _check_tau(tau)
    T = np.tanh(cfg.b * tau)
    return float(cfg.alpha * tau * T / (1.0 + cfg.beta * T))


def lambda2(tau: float, cfg: FluidConfig) -> float:
    """Surface branch; the deep-water identity lam = tau."""
    _check_tau(tau)
    return float(tau)


def _sech(x):
    # 1/cosh without overflow for large arguments
    return 2.0 * np.exp(-x) / (1.0 + np.exp(-2.0 * x))


def lambda1_prime(tau: float, cfg: FluidConfig) -> float:
    """d lambda1 / d tau, closed form.

    With T = tanh(b tau):
        lambda1' = alpha [ T (1 + beta T) + b tau sech^2(b tau) ] / (1 + beta T)^2
    Strictly positive for tau > 0, which makes lambda1 invertible.
    """
    _check_tau(tau)
    bt = cfg.b * tau
    T = np.tanh(bt)
    s2 = _sech(bt) ** 2
    # b tau sech^2 is 0 once sech^2 underflows, also where b tau is inf
    return float(cfg.alpha * (T * (1.0 + cfg.beta * T) + (bt * s2 if s2 else 0.0))
                 / (1.0 + cfg.beta * T) ** 2)


@dataclass(frozen=True)
class SpectralContext:
    """Cut-offs and threshold solutions for one FluidConfig.

    Lambda1  : lower cut-off, lambda1(k)
    Lambda2  : upper cut-off, equal to k
    tau1     : root > k of lambda1(tau1) = Lambda2
    p1_zero  : sqrt(tau1^2 - k^2), the transverse wavenumber of the radiating
               interfacial wave at the upper cut-off
    dlam1_k  : lambda1'(k)
    dlam1_tau1 : lambda1'(tau1)
    q1, q2   : near-threshold slopes p ~ q sigma of the radiating wave at
               Lambda1 and Lambda2 (see near_threshold_wavenumbers);
               q1 = sqrt(2 k Lambda1 / lambda1'(k))
    """

    cfg: FluidConfig
    Lambda1: float
    Lambda2: float
    tau1: float
    p1_zero: float
    dlam1_k: float
    dlam1_tau1: float
    q1: float

    @property
    def q2(self) -> float:
        """q2 = k sqrt(2)."""
        return self.cfg.k * math.sqrt(2.0)


def _unit_fluid(cfg: FluidConfig) -> FluidConfig:
    """cfg in units k = 1, the fluid (beta, b k, 1): lambda1 depends on lengths
    only through b tau, so lambda1(k t, cfg) = k lambda1(t, unit)."""
    return FluidConfig(beta=cfg.beta, b=cfg.b * cfg.k, k=1.0)


def solve_tau1(cfg: FluidConfig) -> float:
    """Root of lambda1(tau) = k on (k, inf), as k t0 with t0 the root of
    lambda1(t) = 1 for the unit fluid.

    lambda1(1) = Lambda1/k < 1 and lambda1 grows like alpha t / (1 + beta), so
    a bracket [1, hi] always exists; Brent's method with a tight relative
    tolerance.
    """
    unit = _unit_fluid(cfg)
    f = lambda t: lambda1(t, unit) - 1.0
    hi = 2.0
    while f(hi) <= 0.0:
        hi *= 2.0
    t0 = brentq(f, 1.0, hi, xtol=1e-15, what="tau1 root search")
    residual = abs(f(t0))
    if residual > 1e-12:
        raise ConsistencyError(
            f"tau1 root residual {residual:.3e} exceeds 1e-12 in units k = 1")
    tau1 = cfg.k * t0
    if tau1 == math.inf:
        raise ConsistencyError(
            f"tau1 overflows: beta = {cfg.beta}, k = {cfg.k} is out of "
            f"double range")
    return tau1


def spectral_context(cfg: FluidConfig) -> SpectralContext:
    """Compute the cut-off data for cfg once; pass the result around."""
    k = cfg.k
    Lambda1 = lambda1(k, cfg)
    if not (Lambda1 < k):
        raise ConsistencyError("cut-off ordering Lambda1 < Lambda2 failed")
    dlam1_k = lambda1_prime(k, cfg)
    q1_squared = 2.0 * k * Lambda1 / dlam1_k if dlam1_k else 0.0
    # Lambda1, lambda1'(k) and q1 are positive and the formulas divide by
    # them; an exact 0 means b k is so small that they underflowed. Checked
    # first: the unit fluid of solve_tau1 needs b k > 0
    if Lambda1 == 0.0 or q1_squared == 0.0:
        raise ConsistencyError(
            f"Lambda1 = {Lambda1}, lambda1'(k) = {dlam1_k}: "
            f"k b = {k * cfg.b} is out of double range")
    tau1 = solve_tau1(cfg)
    # the radicands of p1_zero and q1 overflow once k or tau1 passes ~1e154,
    # and are subnormal, short of digits, once k drops below ~1e-154
    p1_squared = tau1 * tau1 - k * k
    p1_zero, q1 = math.sqrt(p1_squared), math.sqrt(q1_squared)
    if not all(sys.float_info.min <= r < math.inf for r in (p1_squared, q1_squared)):
        raise ConsistencyError(
            f"p1_zero = {p1_zero}, q1 = {q1}: "
            f"k = {k}, tau1 = {tau1} is out of double range")
    return SpectralContext(
        cfg=cfg,
        Lambda1=Lambda1,
        Lambda2=k,
        tau1=tau1,
        p1_zero=p1_zero,
        dlam1_k=dlam1_k,
        dlam1_tau1=lambda1_prime(tau1, cfg),
        q1=q1,
    )


def g_profile(y, tau: float, lam: float):
    """Vertical profile g and g' in the upper layer.

    g(y)  = tau cosh(tau y) + lam sinh(tau y)
    g'(y) = tau^2 sinh(tau y) + lam tau cosh(tau y)

    Returns (g, g'), vectorized over y.
    """
    _check_tau(tau)
    yv = np.asarray(y, dtype=float)
    ch = np.cosh(tau * yv)
    sh = np.sinh(tau * yv)
    g = tau * ch + lam * sh
    gp = tau * tau * sh + lam * tau * ch
    if np.isscalar(y):
        return float(g), float(gp)
    return g, gp


def g_profile_scaled(a: float, tau: float, lam: float):
    """e^{-a tau}-scaled boundary values of the profile at y = -a.

    g_hat  = e^{-a tau} g(-a)  = tau (1 + e^{-2 a tau})/2 - lam (1 - e^{-2 a tau})/2
    g_hat' = e^{-a tau} g'(-a) = -tau^2 (1 - e^{-2 a tau})/2 + lam tau (1 + e^{-2 a tau})/2

    Safe for a*tau of order thousands, where cosh(a tau) overflows. Used
    wherever the profile enters a product with a decaying exponential.
    """
    if a < 0.0:
        raise ValidationError(f"submergence a must be nonnegative, got {a}")
    _check_tau(tau)
    e = math.exp(-2.0 * a * tau)
    plus = 0.5 * (1.0 + e)
    minus = -0.5 * math.expm1(-2.0 * a * tau)  # no cancellation at small a tau
    g_hat = tau * plus - lam * minus
    gp_hat = -tau * tau * minus + lam * tau * plus
    return g_hat, gp_hat


def mode_profiles(p: float, branch: str, cfg: FluidConfig, lam: float, y):
    """Vertical eigenfunctions (phi1 in the upper layer, phi2 below) for a wave
    with transverse wavenumber p at spectral parameter lam.

    branch 'interfacial': phi1 = g(y; tau, lam), phi2 = g'(-b)/tau * e^{tau (b+y)}
    branch 'surface'    : phi1 = phi2 = e^{tau y}

    tau = sqrt(k^2 + p^2). lam must sit on the named branch (checked).
    Returns (phi1, phi2) evaluated at every y (the caller restricts to the
    physical layer of each).
    """
    if p < 0.0:
        raise ValidationError(f"transverse wavenumber p must be >= 0, got {p}")
    tau = math.hypot(cfg.k, p)
    if branch == "interfacial":
        lam_branch = lambda1(tau, cfg)
    elif branch == "surface":
        lam_branch = lambda2(tau, cfg)
    else:
        raise ValidationError(f"branch must be 'interfacial' or 'surface', got {branch!r}")
    if abs(lam - lam_branch) > 1e-10 * max(abs(lam_branch), 1e-300):
        raise ValidationError(
            f"lam={lam} is not on the {branch} branch at tau={tau} "
            f"(branch value {lam_branch})"
        )
    yv = np.asarray(y, dtype=float)
    if branch == "surface":
        phi = np.exp(tau * yv)
        return phi, phi.copy()
    g, _ = g_profile(yv, tau, lam)
    _, gp_b = g_profile(-cfg.b, tau, lam)
    phi2 = (gp_b / tau) * np.exp(tau * (cfg.b + yv))
    return g, phi2


def near_threshold_wavenumbers(sigma: float, which: str, cfg: FluidConfig) -> float:
    """Transverse wavenumber of the radiating wave just below a cut-off.

    For a mode at lam = Lambda_j (1 - sigma^2) with small sigma >= 0:

    which='second': the interfacial wave that stays propagating below Lambda2,
        p02 = k sigma sqrt(2 - sigma^2)                      (exact)
    which='first': the interfacial wave just below Lambda1; p01 is the exact
        root of lambda1(sqrt(k^2 - p^2)) = Lambda1 (1 - sigma^2) on (0, k).
        As sigma -> 0, p01 ~ q1 sigma with q1 = sqrt(2 k Lambda1 / lambda1'(k)).

    sigma = 0 returns 0 for either branch.
    """
    if not (0.0 <= sigma < 0.5):
        raise ValidationError(f"sigma must lie in [0, 0.5), got {sigma}")
    if sigma == 0.0:
        return 0.0
    k = cfg.k
    if which == "second":
        return k * sigma * math.sqrt(2.0 - sigma * sigma)
    if which != "first":
        raise ValidationError(f"which must be 'first' or 'second', got {which!r}")
    # solved in units k = 1, where p < 1 - 1e-13 keeps tau > 0, and scaled by k
    unit = _unit_fluid(cfg)
    target = lambda1(1.0, unit) * (1.0 - sigma * sigma)
    f = lambda p: lambda1(math.sqrt(1.0 - p * p), unit) - target
    return k * brentq(f, 0.0, 1.0 - 1e-13, xtol=1e-15, what="p01 root search")
