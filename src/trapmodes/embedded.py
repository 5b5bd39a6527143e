"""Embedded trapped modes: the special submergence a* killing the leakage.

For a cylinder in the upper layer the resonance near the embedded cut-off
Lambda2 has Im sigma proportional to Rcal^2 + Jcal^2. A contour symmetric
about the y axis has nu = 0, hence Jcal = 0, and Rcal(a) = 0 then becomes an
equation for the submergence. In the dimensionless variables

    tau0 = tau1 / k,   a0 = k a,   b0 = k b,   w = a0 tau0,
    delta = S / (2 pi mu)  in (0, 1),

the condition Rcal = 0 reduces to the closed form

    tanh w = tau0 (1 + delta) / (tau0^2 + delta),

solvable whenever tau0 > 1 (always true). The mode exists iff the resulting
a* = w/(k tau0) actually fits in the layer, a* < b. For nearly equal layer
densities tau0 ~ 2/alpha is large and a* ~ alpha^2 (1+delta)/(4k) is tiny, so
the mode always exists; as alpha grows, a* crosses b and existence is lost.

Everything here is computed twice on purpose: the closed-form chain above and
a direct bracketed root search on the (rescaled) Rcal(a), which must agree to
fractions of a wavelength or the run aborts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

from .dispersion import FluidConfig, SpectralContext, _check_tau, brentq, spectral_context
from .errors import ConsistencyError, ValidationError
from .spectra import ProblemSetup, rcal_jcal_scaled, resonance_upper

SYMMETRY_RTOL = 1e-9  # |nu| <= this * mu counts as symmetric (BEM noise floor)
ROUTE_AGREEMENT = 1e-9  # the two a* routes must match to this * b


@dataclass(frozen=True)
class EmbeddedResult:
    """Outcome of the embedded-mode search for one setup.

    exists      : whether the leading-order embedded mode fits in the layer
    a_star      : the special submergence (None when absent)
    w, tau0     : dimensionless solution variables, w = k a* tau0
    delta       : S / (2 pi mu) of the section
    sigma       : real sigma of the mode (the resonance formula's real part
                  evaluated at a*), None when absent
    diagnostics : which existence condition failed, empty string otherwise
    """

    exists: bool
    a_star: float | None
    w: float
    tau0: float
    delta: float
    sigma: float | None
    diagnostics: str = ""


def tau0(ctx: SpectralContext) -> float:
    """Dimensionless threshold root tau1/k of ctx's fluid, the root of
    1 = alpha t tanh(b0 t) / (1 + beta tanh(b0 t)) with b0 = k b.

    spectral_context solves it in these units already; this reads it back.
    """
    t0 = ctx.tau1 / ctx.cfg.k
    if not (t0 > 1.0):
        raise ConsistencyError(f"tau0 must exceed 1, got {t0}")
    return t0


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must lie in (0, 1), got {delta}")


def solve_w(delta: float, tau0_val: float) -> float:
    """w from tanh w = tau0 (1 + delta) / (tau0^2 + delta)."""
    _check_delta(delta)
    if not (tau0_val > 1.0):
        raise ValidationError(f"tau0 must exceed 1, got {tau0_val}")
    rhs = tau0_val * (1.0 + delta) / (tau0_val * tau0_val + delta)
    if not (rhs < 1.0):  # (tau0-1)(tau0-delta) > 0 guarantees this
        raise ConsistencyError(f"tanh w = {rhs} >= 1 with tau0={tau0_val}, delta={delta}")
    return math.atanh(rhs)


def check_embedded_side(side: str) -> None:
    if side != "U":
        raise ValidationError(
            f"side must be 'U': embedded modes arise in problem U, got {side!r}")


def a_star(setup: ProblemSetup) -> EmbeddedResult:
    """Find the embedded-mode submergence for a symmetric section.

    Route 1 solves the closed dimensionless chain (tau0, w, a* = w/(k tau0));
    route 2 brackets the zero of the rescaled Rcal(a) on (0, b). Both must
    agree on existence, and on the value within 1e-9 b. Asymmetric sections
    (|nu| > 1e-9 mu) cannot support the mode at leading order and return
    exists=False immediately.
    """
    check_embedded_side(setup.side)
    ctx = setup.ctx
    cfg = ctx.cfg
    k, b = cfg.k, cfg.b
    t0 = tau0(ctx)
    delta = setup.dip.delta
    w = solve_w(delta, t0)

    if abs(setup.dip.nu) > SYMMETRY_RTOL * setup.dip.mu:
        return EmbeddedResult(
            exists=False, a_star=None, w=w, tau0=t0, delta=delta, sigma=None,
            diagnostics="asymmetric contour (Jcal != 0)",
        )

    a1 = w / (k * t0)
    exists_closed = a1 < b

    # independent route: sign change of the rescaled Rcal on (0, b]
    rc = lambda a: rcal_jcal_scaled(a, ctx, setup.dip)[0]
    r_at_b = rc(b)
    exists_root = r_at_b < 0.0  # rc(0) = tau1 k (S + 2 pi mu) / ... > 0 always
    if exists_root != exists_closed:
        raise ConsistencyError(
            f"existence disagreement: closed form a*={a1} vs b={b}, "
            f"Rcal(b) scaled = {r_at_b}"
        )
    if not exists_closed:
        return EmbeddedResult(
            exists=False, a_star=None, w=w, tau0=t0, delta=delta, sigma=None,
            diagnostics=f"a* = {a1:.6g} >= b = {b:.6g} (mode does not fit in the layer)",
        )

    a2 = brentq(rc, 0.0, b, xtol=1e-15 * b, what="a* root search")
    if abs(a1 - a2) > ROUTE_AGREEMENT * b:
        raise ConsistencyError(
            f"a* routes disagree: closed form {a1} vs root search {a2}"
        )
    r_hat, _, g_hat = rcal_jcal_scaled(a1, ctx, setup.dip)
    residual = abs(r_hat)
    scale = max(1.0, k * setup.dip.S * abs(g_hat))
    if residual > 1e-10 * scale:
        raise ConsistencyError(f"Rcal(a*) residual {residual} too large")

    with warnings.catch_warnings():
        # the caller was warned about a large epsilon when building setup
        warnings.simplefilter("ignore")
        setup_star = replace(setup, a=a1)
    sigma = resonance_upper(setup_star).re_sigma
    return EmbeddedResult(
        exists=True, a_star=a1, w=w, tau0=t0, delta=delta, sigma=sigma,
    )


def f_circle(a: float, tau: float) -> float:
    """Unit-circle embedded-mode function f(a) = 3 tau - (1 + 2 tau^2) tanh(a tau).

    The sign of Rcal(a) for the unit circle at b = k = 1 (delta = 1/2); its
    zero on (0, 1) is a*. Defined on 0 < a <= 1.
    """
    if not (0.0 < a <= 1.0):
        raise ValidationError(f"a must lie in (0, 1], got {a}")
    _check_tau(tau)
    return 3.0 * tau - (1.0 + 2.0 * tau * tau) * math.tanh(a * tau)


def small_alpha_asymptote(alpha: float, delta: float, k: float) -> float:
    """Nearly equal densities: a* ~ alpha^2 (1 + delta) / (4 k)."""
    if not (0.0 <= alpha < 0.2):
        raise ValidationError(f"asymptote valid for alpha < 0.2, got {alpha}")
    _check_delta(delta)
    if not (k > 0.0):
        raise ValidationError(f"k must be positive, got {k}")
    return alpha * alpha * (1.0 + delta) / (4.0 * k)


def check_a_grid(grid: list[float]) -> None:
    if len(grid) < 2 or any(g2 <= g1 for g1, g2 in zip(grid, grid[1:])):
        raise ValidationError("a_grid must be strictly increasing with >= 2 points")
    if grid[0] <= 0.0 or grid[-1] > 1.0:
        raise ValidationError(f"a_grid must lie in (0, 1], got [{grid[0]}, {grid[-1]}]")


def sweep_f(ctx: SpectralContext, a_grid, delta: float):
    """Tabulate the circle function f(a) of tau0(ctx) over a_grid.

    f is f_circle (the delta = 1/2 circle function) at tau0(ctx); has_root
    marks a sign change of f on the grid. a_star is the closed-form root
    w/(k tau0) of the section with the given delta when it fits in the layer
    (a* < b), None otherwise. Returns one dict per grid point with keys
    alpha, tau0, a, f, has_root, a_star.
    """
    grid = [float(a) for a in a_grid]
    check_a_grid(grid)
    cfg = ctx.cfg
    t0 = tau0(ctx)
    f_vals = [f_circle(a, t0) for a in grid]
    has_root = any(f1 * f2 < 0.0 for f1, f2 in zip(f_vals, f_vals[1:]))
    a1 = solve_w(delta, t0) / (cfg.k * t0)
    a_root = a1 if a1 < cfg.b else None
    return [{"alpha": cfg.alpha, "tau0": t0, "a": a, "f": f,
             "has_root": has_root, "a_star": a_root}
            for a, f in zip(grid, f_vals)]


def alpha_threshold(lo: float = 0.5, hi: float = 0.97, tol: float = 1e-4) -> float:
    """Existence threshold in alpha of the unit circle (delta = 1/2) at b = k = 1.

    Bisection on the predicate a*(alpha) < b; embedded modes exist for
    alpha below the returned value. lo must satisfy the predicate and hi must
    violate it.
    """
    if not (0.0 < lo < hi < 1.0):
        raise ValidationError(f"need 0 < lo < hi < 1, got lo={lo}, hi={hi}")
    if not (tol > 0.0):
        raise ValidationError(f"tol must be positive, got {tol}")

    def exists_at(alpha):
        t0 = tau0(spectral_context(FluidConfig(beta=1.0 - alpha, b=1.0, k=1.0)))
        return solve_w(0.5, t0) / t0 < 1.0

    if not exists_at(lo):
        raise ValidationError(f"no embedded mode at lo={lo}; bracket does not straddle")
    if exists_at(hi):
        raise ValidationError(f"embedded mode still exists at hi={hi}; bracket does not straddle")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if exists_at(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
