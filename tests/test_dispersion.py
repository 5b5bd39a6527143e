import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trapmodes.dispersion as dispersion
import trapmodes.embedded as embedded
from trapmodes import (
    ConsistencyError,
    FluidConfig,
    ProblemSetup,
    ValidationError,
    a_star,
    analytic_dipoles,
    g_profile,
    g_profile_scaled,
    lambda1,
    lambda1_prime,
    lambda2,
    mode_profiles,
    near_threshold_wavenumbers,
    spectral_context,
    tau0,
)
from trapmodes.dispersion import ROOT_RTOL, solve_tau1

from goldens import GOLD

# moderate parameter boxes for the property tests; extreme corners (tanh
# saturation, alpha -> 0) get their own deterministic tests
betas = st.floats(0.05, 0.95)
depths = st.floats(0.2, 3.0)
waves = st.floats(0.2, 3.0)
taus = st.floats(0.05, 8.0)


def test_config_validation():
    with pytest.raises(ValidationError):
        FluidConfig(beta=1.0, b=1.0, k=1.0)
    with pytest.raises(ValidationError):
        FluidConfig(beta=0.0, b=1.0, k=1.0)
    with pytest.raises(ValidationError):
        FluidConfig(beta=0.5, b=-1.0, k=1.0)
    with pytest.raises(ValidationError):
        FluidConfig(beta=0.5, b=1.0, k=0.0)
    cfg = FluidConfig(beta=0.25, b=1.0, k=1.0)
    assert cfg.alpha == 0.75


def test_lambda1_golden(cfg_half):
    assert lambda1(1.0, cfg_half) == pytest.approx(GOLD["lambda1_tau1_halfhalf"], rel=1e-14)


def test_lambda1_prime_golden(cfg_half):
    assert lambda1_prime(1.0, cfg_half) == pytest.approx(
        GOLD["dlambda1_tau1_halfhalf"], rel=1e-13)


def test_lambda2_is_identity(cfg_half):
    for tau in (0.1, 1.0, 7.5):
        assert lambda2(tau, cfg_half) == tau


@given(tau=taus, beta=betas, b=depths)
@settings(max_examples=60, deadline=None)
def test_branch_ordering(tau, beta, b):
    cfg = FluidConfig(beta=beta, b=b, k=1.0)
    assert 0.0 < lambda1(tau, cfg) < lambda2(tau, cfg)


@given(tau=taus, beta=betas, b=depths)
@settings(max_examples=60, deadline=None)
def test_lambda1_prime_positive_and_matches_fd(tau, beta, b):
    cfg = FluidConfig(beta=beta, b=b, k=1.0)
    d = lambda1_prime(tau, cfg)
    assert d > 0.0
    h = 1e-6 * max(1.0, tau)
    fd = (lambda1(tau + h, cfg) - lambda1(tau - h, cfg)) / (2.0 * h)
    assert d == pytest.approx(fd, rel=1e-7, abs=1e-12)


def test_lambda1_no_overflow_at_large_argument(cfg_half):
    # tanh and sech saturate; naive cosh/sinh forms would overflow here
    val = lambda1(800.0, cfg_half)
    assert val == pytest.approx(0.5 * 800.0 / 1.5, rel=1e-12)
    assert lambda1_prime(800.0, cfg_half) == pytest.approx(0.5 / 1.5, rel=1e-12)


def test_tau1_golden(cfg_half):
    assert solve_tau1(cfg_half) == pytest.approx(GOLD["tau1"], rel=1e-13)


def test_tau1_other_alphas():
    for alpha, key in ((0.91, "tau1_alpha091"), (0.97, "tau1_alpha097")):
        cfg = FluidConfig(beta=1.0 - alpha, b=1.0, k=1.0)
        assert solve_tau1(cfg) == pytest.approx(GOLD[key], rel=1e-13)


@given(beta=betas, b=depths, k=waves)
@settings(max_examples=40, deadline=None)
@example(beta=1 - 1e-12, b=1.0, k=1.0)  # tau1 ~ 2e12 k
def test_tau1_solves_crossing(beta, b, k):
    cfg = FluidConfig(beta=beta, b=b, k=k)
    t1 = solve_tau1(cfg)
    assert t1 > k
    assert lambda1(t1, cfg) == pytest.approx(k, rel=1e-11)


def test_spectral_context_golden(cfg_half, ctx_half):
    assert ctx_half.Lambda1 == pytest.approx(GOLD["Lambda1"], rel=1e-14)
    assert ctx_half.Lambda2 == cfg_half.k
    assert ctx_half.tau1 == pytest.approx(GOLD["tau1"], rel=1e-13)
    assert ctx_half.p1_zero == pytest.approx(GOLD["p1_zero"], rel=1e-13)
    assert ctx_half.Lambda1 < ctx_half.Lambda2 < ctx_half.tau1


def test_spectral_context_refuses_underflowed_cutoffs():
    # b k = 1e-400 is 0 in double precision: Lambda1 and lambda1'(k) underflow
    cfg = FluidConfig(beta=0.5, b=1e-200, k=1e-200)
    with pytest.raises(ConsistencyError, match="out of double range"):
        spectral_context(cfg)
    with pytest.raises(ConsistencyError, match="out of double range"):
        tau0(spectral_context(cfg))


@pytest.mark.parametrize("k", [1e200, 1e300])
def test_spectral_context_refuses_overflowed_p1_zero_and_q1(k):
    # tau1^2 and 2 k Lambda1 overflow: p1_zero and q1 would be nan and inf
    with pytest.raises(ConsistencyError, match="out of double range"):
        spectral_context(FluidConfig(beta=0.5, b=1.0, k=k))


def test_tau1_beyond_double_range_is_refused():
    # tau1 ~ 2 k / alpha = 2e312: the bracket doubling reaches inf
    cfg = FluidConfig(beta=0.999999999999, b=1.0, k=1e300)
    with pytest.raises(ConsistencyError, match="tau1 .* out of double range"):
        solve_tau1(cfg)


def _recorded_solves(monkeypatch_ctx, run):
    """The (f, a, b, xtol, what) of every brentq call that run() makes."""
    calls, brentq = [], dispersion.brentq

    def record(f, a, b, *, xtol, what):
        calls.append((f, a, b, xtol, what))
        return brentq(f, a, b, xtol=xtol, what=what)

    monkeypatch_ctx.setattr(dispersion, "brentq", record)
    monkeypatch_ctx.setattr(embedded, "brentq", record)
    run()
    return calls


def _assert_matches_scipy(calls):
    for f, a, b, xtol, what in calls:
        ours = dispersion.brentq(f, a, b, xtol=xtol, what=what)
        theirs = scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=ROOT_RTOL)
        assert type(ours) is float
        assert ours == theirs, what  # bit for bit, not approximately


@given(beta=st.floats(0.01, 0.99), eb=st.floats(-1.0, 1.0),
       ek=st.floats(-1.0, 1.0), sigma=st.floats(1e-6, 0.49))
@settings(max_examples=40, deadline=None)
@example(beta=0.5, eb=0.0, ek=0.0, sigma=0.1)  # a* = 0.17 < b: a* is solved
def test_brentq_matches_scipy_at_every_call_site(beta, eb, ek, sigma):
    cfg = FluidConfig(beta=beta, b=10.0 ** eb, k=10.0 ** ek)
    setup = ProblemSetup(ctx=spectral_context(cfg), side="U", a=0.5 * cfg.b,
                         epsilon=0.01, dip=analytic_dipoles("circle", r=1.0))

    def run():
        spectral_context(cfg)
        near_threshold_wavenumbers(sigma, "first", cfg)
        a_star(setup)

    with pytest.MonkeyPatch.context() as mp:
        calls = _recorded_solves(mp, run)
    whats = {c[-1] for c in calls}
    assert {"tau1 root search", "p01 root search"} <= whats
    if a_star(setup).exists:
        assert "a* root search" in whats
    _assert_matches_scipy(calls)


def test_brentq_zero_denominator_bisects_like_c():
    # at b k = 1e-322 the tau1 solve meets a zero interpolation denominator;
    # C gets inf or nan there and bisects, Python would raise ZeroDivisionError
    cfg = FluidConfig(beta=0.5, b=1e-322, k=1.0)
    with pytest.MonkeyPatch.context() as mp:
        calls = _recorded_solves(mp, lambda: solve_tau1(cfg))
    assert [c[-1] for c in calls] == ["tau1 root search"]
    _assert_matches_scipy(calls)


def test_brentq_failures_raise_consistency_error():
    brentq = dispersion.brentq
    tol = dict(xtol=1e-15, rtol=ROOT_RTOL)  # scipy's; ours reads ROOT_RTOL
    # the second one's f(a) f(b) underflows to 0: the test is on the signs
    for positive in (lambda x: x * x + 1.0, lambda x: 1e-200 * (x + 2.0)):
        with pytest.raises(ConsistencyError, match="^demo: .*same sign"):
            brentq(positive, -1.0, 1.0, xtol=1e-15, what="demo")
        with pytest.raises(ValueError):  # scipy's outcome on the same input
            scipy.optimize.brentq(positive, -1.0, 1.0, **tol)

    nan_above = lambda x: math.nan if x > 0.5 else x - 0.7
    with pytest.raises(ConsistencyError, match="^demo: f.* is NaN"):
        brentq(nan_above, 0.0, 1.0, xtol=1e-15, what="demo")
    with pytest.raises(ValueError):
        scipy.optimize.brentq(nan_above, 0.0, 1.0, **tol)

    # a jump over 600 decades: 100 steps cannot shrink the bracket enough
    step = lambda x: -1.0 if x < 0.3 else 1.0
    with pytest.raises(ConsistencyError, match="^demo: no convergence in 100"):
        brentq(step, -1e300, 1e300, xtol=1e-15, what="demo")
    with pytest.raises(RuntimeError):
        scipy.optimize.brentq(step, -1e300, 1e300, **tol)


def test_profile_derivative_consistency():
    # g' returned by g_profile matches d/dy of g
    tau, lam = 2.3, 0.8
    y = np.linspace(-1.0, 0.0, 9)
    g, gp = g_profile(y, tau, lam)
    h = 1e-6
    g_plus, _ = g_profile(y + h, tau, lam)
    g_minus, _ = g_profile(y - h, tau, lam)
    assert np.allclose(gp, (g_plus - g_minus) / (2 * h), rtol=1e-8, atol=1e-8)


@given(a=st.floats(0.01, 3.0), tau=st.floats(0.05, 20.0), lam=st.floats(0.01, 5.0))
@settings(max_examples=60, deadline=None)
def test_scaled_profile_matches_raw(a, tau, lam):
    g, gp = g_profile(-a, tau, lam)
    g_hat, gp_hat = g_profile_scaled(a, tau, lam)
    scale = math.exp(-a * tau)
    # absolute yardstick: the largest term of each expression (g itself can
    # pass through zero, where a relative comparison is meaningless)
    assert g_hat == pytest.approx(g * scale, rel=1e-12, abs=1e-13 * (tau + lam))
    assert gp_hat == pytest.approx(gp * scale, rel=1e-12,
                                   abs=1e-13 * tau * (tau + lam))


def test_scaled_profile_no_overflow():
    g_hat, gp_hat = g_profile_scaled(1.0, 2000.0, 1.0)
    assert math.isfinite(g_hat) and math.isfinite(gp_hat)
    # e^{-a tau} g -> (tau - lam)/2 for a tau >> 1
    assert g_hat == pytest.approx((2000.0 - 1.0) / 2.0, rel=1e-12)


def test_mode_profiles_interface_continuity(cfg_half, ctx_half):
    y = np.array([-cfg_half.b])
    phi1, phi2 = mode_profiles(ctx_half.p1_zero, "interfacial", cfg_half,
                               ctx_half.Lambda2, y)
    # phi2 is built to match phi1's derivative at the interface y = -b;
    # the profiles themselves must agree there up to the branch scaling
    g_b, gp_b = g_profile(-cfg_half.b, ctx_half.tau1, ctx_half.Lambda2)
    assert phi1[0] == pytest.approx(g_b, rel=1e-12)
    assert phi2[0] == pytest.approx(gp_b / ctx_half.tau1, rel=1e-12)


def test_mode_profiles_surface_branch(cfg_half):
    y = np.linspace(-2.0, 0.0, 5)
    phi1, phi2 = mode_profiles(0.5, "surface", cfg_half,
                               math.hypot(cfg_half.k, 0.5), y)
    tau = math.hypot(cfg_half.k, 0.5)
    assert np.allclose(phi1, np.exp(tau * y), rtol=1e-14)
    assert np.allclose(phi1, phi2, rtol=0, atol=0)


def test_mode_profiles_rejects_off_branch(cfg_half):
    with pytest.raises(ValidationError):
        mode_profiles(0.5, "interfacial", cfg_half, 5.0, np.array([0.0]))
    with pytest.raises(ValidationError):
        mode_profiles(0.5, "sideways", cfg_half, 1.0, np.array([0.0]))


def test_near_threshold_wavenumbers_goldens(cfg_half):
    assert near_threshold_wavenumbers(0.1, "second", cfg_half) == pytest.approx(
        GOLD["p02_sigma01"], rel=1e-14)
    assert near_threshold_wavenumbers(0.1, "first", cfg_half) == pytest.approx(
        GOLD["p01_sigma01"], rel=1e-12)
    assert near_threshold_wavenumbers(0.0, "first", cfg_half) == 0.0
    assert near_threshold_wavenumbers(0.0, "second", cfg_half) == 0.0


def test_near_threshold_asymptote(cfg_half, ctx_half):
    # p01 ~ q1 sigma as sigma -> 0
    q1 = math.sqrt(2.0 * cfg_half.k * ctx_half.Lambda1 / ctx_half.dlam1_k)
    p01 = near_threshold_wavenumbers(1e-3, "first", cfg_half)
    assert p01 / (q1 * 1e-3) == pytest.approx(GOLD["p01_over_q1sigma_small"], rel=1e-10)
    assert abs(p01 / (q1 * 1e-3) - 1.0) < 1e-5


@pytest.mark.parametrize("k", [1e-10, 1e-14, 1e-20, 1e-100])
def test_p01_scales_with_k(k):
    # p01/k depends on beta, b k and sigma alone: the same at every k
    unit = near_threshold_wavenumbers(0.1, "first", FluidConfig(beta=0.5, b=1.0, k=1.0))
    p01 = near_threshold_wavenumbers(0.1, "first", FluidConfig(beta=0.5, b=1.0 / k, k=k))
    assert p01 / k == pytest.approx(unit, rel=1e-12)


def test_near_threshold_validation(cfg_half):
    with pytest.raises(ValidationError):
        near_threshold_wavenumbers(0.6, "first", cfg_half)
    with pytest.raises(ValidationError):
        near_threshold_wavenumbers(-0.1, "second", cfg_half)
    with pytest.raises(ValidationError):
        near_threshold_wavenumbers(0.1, "third", cfg_half)
