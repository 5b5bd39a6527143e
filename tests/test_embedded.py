import math

import numpy as np
import pytest

from trapmodes import (
    ConsistencyError,
    FluidConfig,
    ProblemSetup,
    ValidationError,
    a_star,
    alpha_threshold,
    analytic_dipoles,
    f_circle,
    resonance_upper,
    small_alpha_asymptote,
    solve_w,
    spectral_context,
    sweep_f,
    tau0,
)

from goldens import GOLD

TAU_CRIT = 1.3464479100691413  # root of 3 tau = (1 + 2 tau^2) tanh(tau)


def _setup(alpha, dip=None):
    cfg = FluidConfig(beta=1.0 - alpha, b=1.0, k=1.0)
    if dip is None:
        dip = analytic_dipoles("circle", r=1.0)
    return ProblemSetup(ctx=spectral_context(cfg), side="U", a=0.5, epsilon=0.01,
                        dip=dip)


def test_tau0_golden(ctx_half):
    assert tau0(ctx_half) == pytest.approx(GOLD["tau1"], rel=1e-13)
    cfg005 = FluidConfig(beta=0.95, b=1.0, k=1.0)
    assert tau0(spectral_context(cfg005)) == pytest.approx(GOLD["tau0_alpha005"],
                                                           rel=1e-12)
    # tanh saturates here too: tau0 = (1 + beta) / alpha ~ 2e12
    cfg_weak = FluidConfig(beta=1 - 1e-12, b=1.0, k=1.0)
    assert tau0(spectral_context(cfg_weak)) == pytest.approx(
        (1.0 + cfg_weak.beta) / cfg_weak.alpha, rel=1e-12)


def test_solve_w_goldens():
    assert solve_w(0.5, 3.01) == pytest.approx(GOLD["w_d05_t301"], rel=1e-13)
    assert solve_w(0.5, 1.2) == pytest.approx(GOLD["w_d05_t12"], rel=1e-13)
    with pytest.raises(ValidationError):
        solve_w(0.0, 3.0)
    with pytest.raises(ValidationError):
        solve_w(1.0, 3.0)
    with pytest.raises(ValidationError):
        solve_w(0.5, 0.9)  # tau0 must exceed 1


def test_a_star_half():
    res = a_star(_setup(0.5))
    assert res.exists
    assert res.a_star == pytest.approx(GOLD["a_star_alpha05"], rel=1e-12)
    assert res.delta == pytest.approx(0.5, rel=1e-15)
    assert res.tau0 == pytest.approx(GOLD["tau1"], rel=1e-13)
    assert res.diagnostics == ""
    # the resonance evaluated at a* is flagged as (near-)embedded
    check = resonance_upper(
        ProblemSetup(ctx=_setup(0.5).ctx, side="U", a=res.a_star,
                     epsilon=0.01, dip=_setup(0.5).dip))
    assert check.near_embedded
    assert res.sigma == pytest.approx(check.re_sigma, rel=1e-13)


def test_a_star_alpha091():
    s = _setup(0.91)
    res = a_star(s)
    assert res.exists
    assert res.a_star == pytest.approx(GOLD["a_star_alpha091"], rel=1e-12)
    assert 0.95 <= res.a_star < 1.0


def test_a_star_alpha097_does_not_fit():
    s = _setup(0.97)
    res = a_star(s)
    assert not res.exists
    assert res.a_star is None and res.sigma is None
    assert "does not fit" in res.diagnostics
    # the would-be submergence exceeds the layer depth
    w = solve_w(0.5, GOLD["tau1_alpha097"])
    assert w / GOLD["tau1_alpha097"] == pytest.approx(
        GOLD["a_star_alpha097_candidate"], rel=1e-12)


def test_a_star_asymmetric_section():
    dip = analytic_dipoles("ellipse", a0=1.5, b0=0.7, theta0=0.4)
    assert dip.nu != 0.0
    res = a_star(_setup(0.5, dip))
    assert not res.exists
    assert "asymmetric" in res.diagnostics
    assert res.a_star is None
    # delta and tau0 are still reported for diagnosis
    assert res.tau0 == pytest.approx(GOLD["tau1"], rel=1e-13)


def test_f_circle_values():
    # f(0+) = 3 tau > 0; f decreases in a; vanishes at the critical tau for a = 1
    assert f_circle(1e-9, 2.0) == pytest.approx(6.0, rel=1e-6)
    assert f_circle(0.5, 2.0) > f_circle(0.9, 2.0)
    assert abs(f_circle(1.0, TAU_CRIT)) < 1e-12
    with pytest.raises(ValidationError):
        f_circle(0.0, 2.0)
    with pytest.raises(ValidationError):
        f_circle(1.1, 2.0)
    with pytest.raises(ValidationError):
        f_circle(0.5, -1.0)


def test_small_alpha_asymptote_golden():
    pred = small_alpha_asymptote(0.05, 0.5, 1.0)
    assert pred == pytest.approx(GOLD["a_star_alpha005_pred"], rel=1e-15)
    s = _setup(0.05)
    res = a_star(s)
    assert res.a_star == pytest.approx(GOLD["a_star_alpha005"], rel=1e-12)
    assert res.a_star / pred == pytest.approx(GOLD["a_star_alpha005_ratio"], rel=1e-12)
    with pytest.raises(ValidationError):
        small_alpha_asymptote(0.5, 0.5, 1.0)  # not small


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, math.nan])
def test_solve_w_and_the_asymptote_share_the_delta_rule(delta):
    for call in (lambda: solve_w(delta, 3.0),
                 lambda: small_alpha_asymptote(0.05, delta, 1.0)):
        with pytest.raises(ValidationError, match=r"delta must lie in \(0, 1\), got"):
            call()


def test_sweep_f_table():
    grid = np.linspace(0.05, 1.0, 20)
    by_alpha = {}
    for al in (0.5, 0.91, 0.97):
        cfg = FluidConfig(beta=1.0 - al, b=1.0, k=1.0)
        rows = sweep_f(spectral_context(cfg), grid, 0.5)
        assert len(rows) == 20
        for row in rows:
            by_alpha.setdefault(round(row["alpha"], 6), []).append(row)
    # alpha = 0.5: root far below the grid floor is still reported via a_star
    assert by_alpha[0.5][0]["a_star"] == pytest.approx(GOLD["a_star_alpha05"], rel=1e-12)
    # alpha = 0.91: f changes sign inside (0, 1)
    assert any(r["has_root"] for r in by_alpha[0.91])
    assert by_alpha[0.91][0]["a_star"] == pytest.approx(
        GOLD["a_star_alpha091"], rel=1e-12)
    # alpha = 0.97: no sign change, no admissible a*
    assert not any(r["has_root"] for r in by_alpha[0.97])
    assert all(r["a_star"] is None for r in by_alpha[0.97])
    # grid ordering is preserved within each family
    a_vals = [r["a"] for r in by_alpha[0.5]]
    assert a_vals == sorted(a_vals)


def test_sweep_f_validation(ctx_half):
    with pytest.raises(ValidationError):
        sweep_f(ctx_half, [0.5], 0.5)  # too short
    with pytest.raises(ValidationError):
        sweep_f(ctx_half, [0.5, 0.4], 0.5)  # not increasing
    with pytest.raises(ValidationError):
        sweep_f(ctx_half, [0.0, 0.5], 0.5)  # outside (0, 1]


def test_alpha_threshold_matches_critical_tau():
    got = alpha_threshold(tol=1e-6)
    # closed form from the critical tau: alpha_c = (1 + T) / (T (tau_c + 1))
    T = math.tanh(TAU_CRIT)
    exact = (1.0 + T) / (T * (TAU_CRIT + 1.0))
    assert got == pytest.approx(exact, abs=2e-6)
    assert got == pytest.approx(GOLD["alpha_c"], abs=2e-6)
    with pytest.raises(ValidationError):
        alpha_threshold(lo=0.96, hi=0.97)  # bracket does not straddle


def test_consistency_between_routes():
    # a_star agrees with a brentq root of the scaled obstruction at 1e-9;
    # re-evaluating Rcal there must give a residual at round-off level
    from trapmodes import rcal_jcal
    res = a_star(_setup(0.5))
    s = ProblemSetup(ctx=_setup(0.5).ctx, side="U", a=res.a_star,
                     epsilon=0.01, dip=_setup(0.5).dip)
    r, _ = rcal_jcal(s)
    assert abs(r) < 1e-9 * abs(GOLD["Rcal_std"])
