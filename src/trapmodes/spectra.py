"""Leading-order trapped-mode eigenvalues and resonances for a thin cylinder.

A horizontal cylinder of thin cross-section (thinness parameter eps) lies in
the upper layer at depth a below the free surface (problem U) or in the lower
layer at depth a below the interface (problem L). Waves travel obliquely with
axial wavenumber k. Near each cut-off of the continuous spectrum the cylinder
produces, at leading order in eps:

  * below the lower cut-off Lambda1: a real eigenvalue lam = Lambda1 (1 - sigma^2)
    with sigma of order eps^2 (a trapped mode, both problems);
  * near the embedded cut-off Lambda2: a resonance lam = Lambda2 (1 - sigma^2)
    with Re sigma of order eps^2 and Im sigma of order eps^4. For problem U
    the imaginary part is proportional to Rcal^2 + Jcal^2 and can vanish
    (an embedded trapped mode, see the embedded module); for problem L it is
    strictly positive, the mode always leaks.

All results are leading order only; the omitted remainders are O(eps^3 ln eps)
for trapped modes and O(eps^5 ln eps) for resonances. Each result carries an
`order` tag so this cannot be mistaken for a full series evaluation. The
results are lam = omega^2/g and sigma; gravity, which turns them into a
frequency or a decay rate, is applied by the caller.

Exponentials are the numerical hazard here: the constants pair growing
profiles cosh(a tau1) with decaying factors e^{-2 b tau1}, and tau1 ~ 2k/alpha
blows up for nearly equal densities. Those products are evaluated with the
exponents combined analytically (see g_profile_scaled).

Each formula refuses only a sign factor (D, D1) that is not positive and
otherwise returns the IEEE value of its result: 0 on underflow, inf on
overflow, and nan where an overflowed factor meets an underflowed one, as in
resonance_upper's Im sigma once tau1^3 overflows and trapped_lower's sigma at
k = 1e150 (-P0 k overflows, e^{-2ak} underflows). The CLI refuses these as
out of double range; carrying exponents (ROADMAP direction 1, step 3) would
answer them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

from .contour import DipoleStrengths
from .dispersion import FluidConfig, SpectralContext, _check_tau, g_profile_scaled
from .errors import ConsistencyError, ValidationError

EPSILON_VALIDITY = 0.1
NEAR_EMBEDDED_RTOL = 1e-14


def check_setup(side: str, a: float, epsilon: float, b: float | None = None) -> None:
    """The domain rules of a ProblemSetup; a < b on side U only when b is given."""
    if side not in ("U", "L"):
        raise ValidationError(f"side must be 'U' or 'L', got {side!r}")
    if not (a > 0.0):
        raise ValidationError(f"a (submergence) must be positive, got {a}")
    if b is not None and side == "U" and not (a < b):
        raise ValidationError(f"a must be < b for side U (cylinder inside the upper "
                              f"layer), got a={a}, b={b}")
    if not (epsilon > 0.0):
        raise ValidationError(f"epsilon must be positive, got {epsilon}")


@dataclass(frozen=True)
class ProblemSetup:
    """One cylinder configuration.

    ctx  : spectral context of the fluid (ctx.cfg is the fluid)
    side : 'U' (upper layer, a measured from the free surface, a < b)
           or 'L' (lower layer, a measured down from the interface)
    a    : submergence of the cylinder center, > 0
    epsilon : thinness parameter; the section is eps times the unit contour
    dip  : dipole strengths and area of the unit contour
    """

    ctx: SpectralContext
    side: str
    a: float
    epsilon: float
    dip: DipoleStrengths

    def __post_init__(self):
        check_setup(self.side, self.a, self.epsilon, self.ctx.cfg.b)
        if self.epsilon > EPSILON_VALIDITY:
            warnings.warn(
                f"epsilon={self.epsilon} is large for a leading-order asymptotic "
                f"result (heuristic validity bound {EPSILON_VALIDITY})",
                stacklevel=3,  # past the generated __init__ to its caller
            )


# D and D1 are the positive constants of the formulas, kept for diagnostics
@dataclass(frozen=True)
class ModeResult:
    sigma: float
    lam: float
    threshold: float
    D: float
    order: ClassVar[str] = "leading"


@dataclass(frozen=True)
class ResonanceResult:
    re_sigma: float
    im_sigma: float
    rcal: float
    jcal: float
    near_embedded: bool
    D: float
    D1: float
    order: ClassVar[str] = "leading"


def q_factor(tau: float, cfg: FluidConfig) -> float:
    """Q(tau) = (2/(beta tau^2)) e^{-b tau} (cosh b tau + beta sinh b tau).

    Evaluated as ((1+beta) + alpha e^{-2 b tau}) / (beta tau^2), the same
    quantity without the overflowing cosh. Strictly positive.
    """
    _check_tau(tau)
    return ((1.0 + cfg.beta) + cfg.alpha * math.exp(-2.0 * cfg.b * tau)) / (
        cfg.beta * tau * tau
    )


def p0_factor(tau: float, lam: float, cfg: FluidConfig) -> float:
    """P0(tau, lam) = [(1 - beta T)/(1 + beta T)] (lam + tau) (lam - alpha tau T / (1 - beta T)),
    T = tanh(b tau). Sign varies with lam; recorded raw, never folded away.
    """
    _check_tau(tau)
    T = math.tanh(cfg.b * tau)
    one_minus = 1.0 - cfg.beta * T  # > 0 since beta < 1
    one_plus = 1.0 + cfg.beta * T
    return (one_minus / one_plus) * (lam + tau) * (lam - cfg.alpha * tau * T / one_minus)


def _power(x: float, n: int) -> float:
    """x ** n, or inf where that power overflows (the CLI refuses an inf cell).

    Kept as ** rather than a product: x ** 2 and x * x round differently.
    """
    try:
        return x ** n
    except OverflowError:
        return math.inf


def _lower_sigma(setup: ProblemSetup, core: float) -> float:
    """(eps^2/2) core e^{-2ak} k (S + 2 pi mu): side L's sigma and Re sigma,
    each with its own core = D e^{ak}."""
    k, a = setup.ctx.cfg.k, setup.a
    return 0.5 * _power(setup.epsilon, 2) * core * math.exp(-2.0 * a * k) * k * (
        setup.dip.S + 2.0 * math.pi * setup.dip.mu
    )


def _require_side(setup: ProblemSetup, side: str, what: str):
    if setup.side != side:
        raise ValidationError(f"{what} is defined for problem {side}, got side {setup.side!r}")


def rcal_jcal(setup: ProblemSetup):
    """Rcal and Jcal, the two obstruction integrals of the problem-U resonance.

    Rcal = k S g(-a; tau1, Lambda2) + 2 pi mu g'(-a; tau1, Lambda2)
    Jcal = 2 pi nu sqrt(tau1^2 - k^2) g(-a; tau1, Lambda2)

    Im sigma is proportional to Rcal^2 + Jcal^2; both vanishing is the
    embedded-mode condition. Values are returned raw; they grow like
    e^{a tau1} and saturate to a signed infinity once out of double range
    (the resonance formula itself always uses the rescaled finite pair).
    """
    _require_side(setup, "U", "rcal_jcal")
    r_hat, j_hat, _ = rcal_jcal_scaled(setup.a, setup.ctx, setup.dip)
    return _unscale(setup.a * setup.ctx.tau1, r_hat, j_hat)


def _unscale(exponent: float, *scaled: float) -> tuple:
    """The raw values e^{exponent} v of scaled values v.

    A value out of double range saturates to a signed infinity; a zero
    stays zero (never 0 * inf).
    """
    try:
        scale = math.exp(exponent)
    except OverflowError:
        scale = math.inf
    return tuple(0.0 if v == 0.0 else v * scale for v in scaled)


def rcal_jcal_scaled(a: float, ctx: SpectralContext, dip: DipoleStrengths):
    """e^{-a tau1} Rcal, e^{-a tau1} Jcal and e^{-a tau1} g(-a; tau1, Lambda2).

    Same signs as the raw values and finite for arbitrarily large a tau1.
    """
    g_hat, gp_hat = g_profile_scaled(a, ctx.tau1, ctx.Lambda2)
    r_hat = ctx.cfg.k * dip.S * g_hat + 2.0 * math.pi * dip.mu * gp_hat
    j_hat = 2.0 * math.pi * dip.nu * ctx.p1_zero * g_hat
    return r_hat, j_hat, g_hat


def trapped_upper(setup: ProblemSetup) -> ModeResult:
    """Trapped mode below Lambda1 for a cylinder in the upper layer.

    sigma = 2 eps^2 D e^{-bk} ( S g^2 + 2 pi mu k^{-2} g'^2 ),  g at (-a; k, Lambda1),
    D = (alpha/beta) e^{-bk} / ( Q(k) lambda1'(k) (Lambda2 - Lambda1) q1 ),
    q1 = sqrt( 2 k Lambda1 / lambda1'(k) ),
    and the eigenvalue is lam = Lambda1 (1 - sigma^2).
    """
    _require_side(setup, "U", "trapped_upper")
    ctx = setup.ctx
    cfg = ctx.cfg
    k, b, a = cfg.k, cfg.b, setup.a
    Lam1, Lam2 = ctx.Lambda1, ctx.Lambda2
    dl1 = ctx.dlam1_k
    core = (cfg.alpha / cfg.beta) / (q_factor(k, cfg) * dl1 * (Lam2 - Lam1) * ctx.q1)
    D = core * math.exp(-b * k)
    if not (core > 0.0):
        raise ConsistencyError(f"coefficient D must be positive, got {D}")
    g_hat, gp_hat = g_profile_scaled(a, k, Lam1)
    # sigma = 2 eps^2 D e^{-bk} (S g^2 + 2 pi mu g'^2 / k^2); the two e^{-bk}
    # and the e^{2ak} hidden in g^2 are combined into one exponent (a < b)
    shape = setup.dip.S * g_hat * g_hat + (
        2.0 * math.pi * setup.dip.mu / (k * k)
    ) * gp_hat * gp_hat
    sigma = 2.0 * _power(setup.epsilon, 2) * core * math.exp(2.0 * (a - b) * k) * shape
    return _trapped_result(sigma, Lam1, D)


def _trapped_result(sigma: float, Lam1: float, D: float) -> ModeResult:
    """The trapped mode of a sigma: lam = Lambda1 (1 - sigma^2)."""
    return ModeResult(sigma=sigma, lam=Lam1 * (1.0 - sigma * sigma), threshold=Lam1, D=D)


def resonance_upper(setup: ProblemSetup) -> ResonanceResult:
    """Resonance near the embedded cut-off Lambda2, cylinder in the upper layer.

    Re sigma = (eps^2/2) D k^2 e^{-ak} (S + 2 pi mu),
        D = 4 e^{-ak} / ( Q(k) (Lambda2 - Lambda1) q2 ),  q2 = k sqrt(2)
    Im sigma = eps^4 (alpha k / (beta tau1^3)) D D1 e^{-ak - 2b tau1} (Rcal^2 + Jcal^2),
        D1 = Lambda2 tau1 / ( Q(tau1) lambda1'(tau1) p1_zero (tau1 - Lambda2) )

    When Rcal^2 + Jcal^2 is numerically negligible the result is flagged
    near_embedded: the resonance formula's hypothesis fails there and the
    embedded module is the right tool.
    """
    _require_side(setup, "U", "resonance_upper")
    ctx = setup.ctx
    cfg = ctx.cfg
    k, b, a = cfg.k, cfg.b, setup.a
    Lam1, Lam2, tau1 = ctx.Lambda1, ctx.Lambda2, ctx.tau1
    core = 4.0 / (q_factor(k, cfg) * (Lam2 - Lam1) * ctx.q2)
    D = core * math.exp(-a * k)
    denominator = q_factor(tau1, cfg) * ctx.dlam1_tau1 * ctx.p1_zero * (tau1 - Lam2)
    D1 = Lam2 * tau1 / denominator if denominator else math.inf  # an underflowed product
    if not (core > 0.0 and D1 > 0.0):
        raise ConsistencyError(f"resonance constants must be positive: D={D}, D1={D1}")
    re_sigma = 0.5 * _power(setup.epsilon, 2) * core * k * k * math.exp(-2.0 * a * k) * (
        setup.dip.S + 2.0 * math.pi * setup.dip.mu
    )
    r_hat, j_hat, g_hat = rcal_jcal_scaled(a, ctx, setup.dip)
    # e^{-2 b tau1} (Rcal^2 + Jcal^2) = e^{-2 (b-a) tau1} (r_hat^2 + j_hat^2), b > a
    obstruction = r_hat * r_hat + j_hat * j_hat
    beta_tau1_cubed = cfg.beta * _power(tau1, 3)
    im_sigma = (
        _power(setup.epsilon, 4)
        # an underflowed beta tau1^3 is treated like D1's denominator
        * (cfg.alpha * k / beta_tau1_cubed if beta_tau1_cubed else math.inf)
        * core
        * D1
        * math.exp(-2.0 * a * k - 2.0 * (b - a) * tau1)
        * obstruction
    )
    # compared as roots: squares of a small section's values underflow to 0
    near_embedded = math.hypot(r_hat, j_hat) <= math.sqrt(NEAR_EMBEDDED_RTOL) * abs(
        k * setup.dip.S * g_hat)
    rcal, jcal = _unscale(a * tau1, r_hat, j_hat)
    return ResonanceResult(re_sigma=re_sigma, im_sigma=im_sigma, rcal=rcal, jcal=jcal,
                           near_embedded=near_embedded, D=D, D1=D1)


def trapped_lower(setup: ProblemSetup) -> ModeResult:
    """Trapped mode below Lambda1 for a cylinder in the lower layer.

    sigma = (eps^2/2) D e^{-ak} k (S + 2 pi mu),
    D = -e^{-ak} P0(k, Lambda1) (Lambda2 - Lambda1)^{-1} k / (q1 lambda1'(k)).
    P0(k, Lambda1) < 0, so D > 0; a sign flip here means a bug, not physics.
    """
    _require_side(setup, "L", "trapped_lower")
    ctx = setup.ctx
    cfg = ctx.cfg
    k, a = cfg.k, setup.a
    Lam1, Lam2 = ctx.Lambda1, ctx.Lambda2
    P0 = p0_factor(k, Lam1, cfg)
    core = -P0 * k / ((Lam2 - Lam1) * ctx.q1 * ctx.dlam1_k)
    D = core * math.exp(-k * a)
    if not (core > 0.0):
        raise ConsistencyError(
            f"coefficient D must be positive, got {D} (P0(k,Lambda1)={P0})"
        )
    return _trapped_result(_lower_sigma(setup, core), Lam1, D)


def resonance_lower(setup: ProblemSetup) -> ResonanceResult:
    """Resonance near Lambda2 for a cylinder in the lower layer; always leaky.

    Re sigma = (eps^2/2) D e^{-ak} k (S + 2 pi mu),
        D = e^{-ak} P0(k, Lambda2) k / ((Lambda2 - Lambda1) q2)
    Im sigma = (eps^4/4) (k/tau1) D D1 e^{-2 a tau1 - ak}
               ( (k S + 2 pi tau1 mu)^2 + (2 pi nu)^2 (tau1^2 - k^2) ),
        D1 = -P0(tau1, Lambda2) tau1 / ((tau1 - k) lambda1'(tau1) p1_zero)

    The bracket is bounded below by (k S)^2 > 0, so Im sigma > 0: the lower
    cylinder's resonance never becomes a trapped mode. In floating point
    Im sigma >= 0: like side U's, it underflows to 0 for a small enough
    section or a deep enough cylinder.
    """
    _require_side(setup, "L", "resonance_lower")
    ctx = setup.ctx
    cfg = ctx.cfg
    k, a = cfg.k, setup.a
    Lam1, Lam2, tau1 = ctx.Lambda1, ctx.Lambda2, ctx.tau1
    P0_top = p0_factor(k, Lam2, cfg)
    core = P0_top * k / ((Lam2 - Lam1) * ctx.q2)
    D = core * math.exp(-a * k)
    P0_tau1 = p0_factor(tau1, Lam2, cfg)
    D1 = -P0_tau1 * tau1 / ((tau1 - k) * ctx.dlam1_tau1 * ctx.p1_zero)
    if not (core > 0.0 and D1 > 0.0):
        raise ConsistencyError(
            f"resonance constants must be positive: D={D} (P0(k,Lambda2)={P0_top}), "
            f"D1={D1} (P0(tau1,Lambda2)={P0_tau1})"
        )
    S, mu, nu = setup.dip.S, setup.dip.mu, setup.dip.nu
    re_sigma = _lower_sigma(setup, core)
    bracket = _power(k * S + 2.0 * math.pi * tau1 * mu, 2) + _power(
        2.0 * math.pi * nu, 2) * (tau1 * tau1 - k * k)
    im_sigma = (
        0.25
        * _power(setup.epsilon, 4)
        * (k / tau1)
        * core
        * D1
        * math.exp(-2.0 * a * tau1 - 2.0 * a * k)
        * bracket
    )
    return ResonanceResult(re_sigma=re_sigma, im_sigma=im_sigma,
                           rcal=math.nan, jcal=math.nan, near_embedded=False,
                           D=D, D1=D1)
