"""Acceptance gate: twelve end-to-end checks at fixed tolerances.

Each test prints one `PASS criterion NN: ...` / `FAIL criterion NN: ...`
line (visible under pytest -s or -rA) and then asserts, so `pytest -v`
gives one verdict per criterion. The checks cover the boundary method
(Gauss law and the dipole oracle), the reference configurations, the
homogeneous and lower-fluid limits, the positivity and scaling ledgers,
derivative verification, the embedded-mode mechanism, and the
small-stratification asymptote.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from trapmodes import (
    FluidConfig,
    ProblemSetup,
    analytic_dipoles,
    a_star,
    alpha_threshold,
    apply_n0,
    assemble,
    dipoles_bem,
    f_circle,
    g_profile,
    lambda1,
    lambda1_prime,
    make_circle,
    make_ellipse,
    make_fourier,
    rcal_jcal,
    resonance_lower,
    resonance_upper,
    spectral_context,
    trapped_lower,
    trapped_upper,
)

from goldens import EGG


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {detail}"
    print(line)
    return line


def _std_setup(alpha=0.5, side="U", a=0.5, eps=0.01):
    cfg = FluidConfig(beta=1.0 - alpha, b=1.0, k=1.0)
    dip = analytic_dipoles("circle", r=1.0)
    return ProblemSetup(ctx=spectral_context(cfg), side=side, a=a, epsilon=eps,
                        dip=dip)


def test_criterion_01_gauss_law_all_contours():
    t0 = time.perf_counter()
    contours = {
        "circle": make_circle(1.0),
        "ellipse": make_ellipse(1.5, 0.7, 0.3),
        "fourier": make_fourier(EGG["cos_x"], EGG["sin_x"],
                                EGG["cos_y"], EGG["sin_y"]),
    }
    residuals = {name: assemble(C, 128).gauss_residual
                 for name, C in contours.items()}
    elapsed = time.perf_counter() - t0
    worst = max(residuals.values())
    ok = worst < 1e-10 and elapsed < 1.0
    line = _report(1, ok, f"discrete Gauss law at N=128, worst residual "
                          f"{worst:.2e} (limit 1e-10), {elapsed:.2f}s")
    assert ok, line


def test_criterion_02_dipole_oracle():
    worst_ellipse = 0.0
    for th in (0.0, math.pi / 6.0, math.pi / 4.0):
        got = dipoles_bem(assemble(make_ellipse(2.0, 1.0, th), 256))
        want = analytic_dipoles("ellipse", a0=2.0, b0=1.0, theta0=th)
        worst_ellipse = max(worst_ellipse, abs(got.mu - want.mu),
                            abs(got.nu - want.nu))
    circ = dipoles_bem(assemble(make_circle(1.0), 256))
    worst_circle = max(abs(circ.mu - 1.0), abs(circ.nu))
    # the two independent quadratures for nu
    C = make_ellipse(2.0, 1.0, math.pi / 6.0)
    sys = assemble(C, 256)
    x, y, xd, yd = sys.x, sys.y, sys.xd, sys.yd
    h = 2.0 * math.pi / 256
    nu_a = -(h / math.pi) * float(np.dot(xd, apply_n0(sys, x)))
    nu_b = (h / math.pi) * float(np.dot(yd, apply_n0(sys, y)))
    route_gap = abs(nu_a - nu_b)
    ok = worst_ellipse < 1e-7 and worst_circle < 1e-8 and route_gap < 1e-8
    line = _report(2, ok, f"ellipse(2,1) mu/nu vs closed form {worst_ellipse:.2e} "
                          f"(limit 1e-7), circle {worst_circle:.2e} (1e-8), "
                          f"nu-route gap {route_gap:.2e} (1e-8)")
    assert ok, line


def test_criterion_03_unit_circle_special_submergence():
    t0 = time.perf_counter()
    setup = _std_setup()
    ctx = setup.ctx
    res = a_star(setup)
    elapsed = time.perf_counter() - t0
    ok = (abs(ctx.tau1 - 3.0) <= 0.02 and res.exists
          and abs(res.a_star - 0.17) <= 0.005 and elapsed < 1.0)
    line = _report(3, ok, f"tau1 = {ctx.tau1:.4f} (3.0 +- 0.02), "
                          f"a* = {res.a_star:.4f} (0.17 +- 0.005), {elapsed:.2f}s")
    assert ok, line


def test_criterion_04_existence_band_and_threshold():
    t0 = time.perf_counter()
    s91, s97 = _std_setup(alpha=0.91), _std_setup(alpha=0.97)
    res91 = a_star(s91)
    res97 = a_star(s97)
    alpha_c = alpha_threshold(tol=1e-5)
    elapsed = time.perf_counter() - t0
    ok_91 = res91.exists and 0.95 <= res91.a_star < 1.0
    ok_97 = not res97.exists
    ok_c = 0.915 <= alpha_c <= 0.925
    ok = ok_91 and ok_97 and ok_c and elapsed < 10.0
    line = _report(4, ok,
                   f"a*(0.91) = {res91.a_star:.4f} in [0.95, 1.0) [{ok_91}]; "
                   f"alpha=0.97 exists={res97.exists} (want False) [{ok_97}]; "
                   f"alpha_c = {alpha_c:.6f} in [0.915, 0.925] [{ok_c}]; "
                   f"{elapsed:.2f}s")
    assert ok, line


def test_criterion_05_circle_specialization_identity():
    setup = _std_setup()
    tau = setup.ctx.tau1
    worst = 0.0
    for a in np.linspace(0.05, 0.95, 19):
        r, _ = rcal_jcal(dataclasses.replace(setup, a=float(a)))
        rhs = math.pi * math.cosh(a * tau) * f_circle(float(a), tau)
        worst = max(worst, abs(r - rhs) / abs(rhs))
    ok = worst < 1e-12
    line = _report(5, ok, f"Rcal vs pi cosh(a tau) f(a) on 19-point grid, "
                          f"worst relative gap {worst:.2e} (limit 1e-12)")
    assert ok, line


def test_criterion_06_homogeneous_limit_upper():
    alpha, a, eps, k = 1e-3, 0.5, 0.01, 1.0
    setup = _std_setup(alpha=alpha, a=a, eps=eps)
    got = resonance_upper(setup).re_sigma
    S, mu = setup.dip.S, setup.dip.mu
    want = eps**2 / math.sqrt(2.0) * math.exp(-2 * a * k) * k * k * (
        S + 2 * math.pi * mu)
    rel = abs(got - want) / want
    ok = rel < 0.01
    line = _report(6, ok, f"upper resonance at alpha=1e-3 vs uniform-fluid "
                          f"form, relative gap {rel:.2e} (limit 1e-2)")
    assert ok, line


def test_criterion_07_weak_stratification_limit_lower():
    alpha, a, eps, k, b = 1e-3, 0.5, 0.01, 1.0, 1.0
    setup = _std_setup(alpha=alpha, side="L", a=a, eps=eps)
    got = resonance_lower(setup).re_sigma
    S, mu = setup.dip.S, setup.dip.mu
    want = eps**2 / math.sqrt(2.0) * k * k * math.exp(-2 * (a + b) * k) * (
        S + 2 * math.pi * mu)
    rel = abs(got - want) / want
    ok = rel < 0.01
    line = _report(7, ok, f"lower resonance at alpha=1e-3 vs surface-wave "
                          f"form, relative gap {rel:.2e} (limit 1e-2)")
    assert ok, line


def test_criterion_08_positivity_ledger():
    rng = np.random.default_rng(20240817)
    n = 1000
    failures = 0
    for i in range(n):
        cfg = FluidConfig(beta=rng.uniform(0.1, 0.9),
                          b=rng.uniform(0.3, 2.5), k=rng.uniform(0.3, 2.5))
        ctx = spectral_context(cfg)
        kind = i % 3
        if kind == 0:
            dip = analytic_dipoles("circle", r=rng.uniform(0.3, 2.0))
        else:
            dip = analytic_dipoles(
                "ellipse", a0=rng.uniform(0.3, 2.0), b0=rng.uniform(0.3, 2.0),
                theta0=0.0 if kind == 1 else rng.uniform(-1.5, 1.5))
        su = ProblemSetup(ctx=ctx, side="U", a=rng.uniform(0.02, 0.98) * cfg.b,
                          epsilon=rng.uniform(1e-4, 0.05), dip=dip)
        sl = ProblemSetup(ctx=ctx, side="L", a=rng.uniform(0.05, 1.5),
                          epsilon=su.epsilon, dip=dip)
        r1 = trapped_upper(su)
        r2 = resonance_upper(su)
        r3 = trapped_lower(sl)
        r4 = resonance_lower(sl)
        if not (r1.coefficients.D > 0 and r2.coefficients.D > 0
                and r2.coefficients.D1 > 0 and r3.coefficients.D > 0
                and r4.coefficients.D > 0 and r4.coefficients.D1 > 0
                and r4.im_sigma > 0):
            failures += 1
    ok = failures == 0
    line = _report(8, ok, f"D, D1 > 0 in all four formulas and lower Im sigma "
                          f"> 0 over {n} random configurations, {failures} failures")
    assert ok, line


def test_criterion_09_scaling_laws():
    su, sl = _std_setup(), _std_setup(side="L")
    ratios = []
    for fn, s, attr, want in (
        (trapped_upper, su, "sigma", 4.0),
        (trapped_lower, sl, "sigma", 4.0),
        (resonance_upper, su, "re_sigma", 4.0),
        (resonance_lower, sl, "re_sigma", 4.0),
        (resonance_upper, su, "im_sigma", 16.0),
        (resonance_lower, sl, "im_sigma", 16.0),
    ):
        small = getattr(fn(s), attr)
        big = getattr(fn(dataclasses.replace(s, epsilon=2 * s.epsilon)), attr)
        ratios.append((big / small, want))
    exact = all(r == w for r, w in ratios)
    # eigenvalue depth ~ alpha: log-log slope 1
    alphas = np.logspace(-3, -2, 5)
    depths = []
    dip = analytic_dipoles("circle", r=1.0)
    for al in alphas:
        cfg = FluidConfig(beta=1.0 - al, b=1.0, k=1.0)
        s = ProblemSetup(ctx=spectral_context(cfg), side="U", a=0.5, epsilon=0.01,
                         dip=dip)
        res = trapped_upper(s)
        depths.append(res.threshold - res.lam)
    slope = float(np.polyfit(np.log(alphas), np.log(depths), 1)[0])
    ok = exact and abs(slope - 1.0) < 0.05
    line = _report(9, ok, f"sigma(2e)/sigma(e) ratios exact "
                          f"{[r for r, _ in ratios]}, depth slope {slope:.4f} "
                          f"(1 +- 0.05)")
    assert ok, line


def test_criterion_10_derivative_verification():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        cfg = FluidConfig(beta=rng.uniform(0.1, 0.9),
                          b=rng.uniform(0.3, 2.5), k=1.0)
        tau = rng.uniform(0.1, 6.0)
        h = 1e-6 * max(1.0, tau)
        fd = (lambda1(tau + h, cfg) - lambda1(tau - h, cfg)) / (2 * h)
        an = lambda1_prime(tau, cfg)
        worst = max(worst, abs(an - fd) / abs(an))
    ok = worst < 1e-8
    line = _report(10, ok, f"lambda1' vs central differences at 100 random "
                           f"points, worst relative gap {worst:.2e} (limit 1e-8)")
    assert ok, line


def test_criterion_11_profile_non_monotonicity():
    cfg = FluidConfig(beta=0.5, b=1.0, k=1.0)
    ctx = spectral_context(cfg)
    y = np.linspace(-cfg.b * (1 - 1e-12), 0.0, 2001)
    _, gp = g_profile(y, ctx.tau1, ctx.Lambda2)
    signs = np.sign(gp)
    interior_flips = int(np.count_nonzero(np.diff(signs[signs != 0.0])))
    # the radiating interfacial profile turns inside the layer; the
    # comparison profile e^{tau y} of the homogeneous problem never does
    surface = np.exp(ctx.tau1 * y)
    monotone = bool(np.all(np.diff(surface) > 0.0))
    turning = float(y[np.argmin(np.abs(gp))])
    ok = interior_flips >= 1 and monotone
    line = _report(11, ok, f"interfacial profile g' flips sign inside the "
                           f"layer (turning point y = {turning:.4f}); the "
                           f"surface-branch profile is monotone: {monotone}")
    assert ok, line


def test_criterion_12_small_alpha_asymptote():
    setup = _std_setup(alpha=0.05)
    res = a_star(setup)
    pred = 0.05**2 * (1.0 + res.delta) / 4.0
    ratio = res.a_star / pred
    ok = 0.9 <= ratio <= 1.1
    line = _report(12, ok, f"a*(0.05) / asymptote = {ratio:.4f} (in [0.9, 1.1])")
    assert ok, line
