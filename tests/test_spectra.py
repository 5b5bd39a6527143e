import dataclasses
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapmodes import (
    ConsistencyError,
    FluidConfig,
    ProblemSetup,
    ValidationError,
    a_star,
    analytic_dipoles,
    p0_factor,
    q_factor,
    rcal_jcal,
    resonance_lower,
    resonance_upper,
    spectral_context,
    trapped_lower,
    trapped_upper,
)

from goldens import GOLD


def test_setup_validation(ctx_half, dip_circle):
    with pytest.raises(ValidationError):
        ProblemSetup(ctx=ctx_half, side="X", a=0.5, epsilon=0.01, dip=dip_circle)
    with pytest.raises(ValidationError):
        ProblemSetup(ctx=ctx_half, side="U", a=0.0, epsilon=0.01, dip=dip_circle)
    with pytest.raises(ValidationError):
        # upper cylinder must fit inside the layer
        ProblemSetup(ctx=ctx_half, side="U", a=1.5, epsilon=0.01, dip=dip_circle)
    with pytest.raises(ValidationError):
        ProblemSetup(ctx=ctx_half, side="U", a=0.5, epsilon=0.0, dip=dip_circle)
    # lower cylinder: the submergence is measured from the interface and is
    # not capped by the layer depth
    ProblemSetup(ctx=ctx_half, side="L", a=3.0, epsilon=0.01, dip=dip_circle)
    with pytest.warns(UserWarning) as record:
        setup = ProblemSetup(ctx=ctx_half, side="U", a=0.5, epsilon=0.2,
                             dip=dip_circle)
        # a_star rebuilds the setup at a*; that must not warn a second time
        a_star(setup)
    # attributed to the line that built the setup, not to its __init__
    assert [w.filename for w in record] == [__file__]


def test_q_factor_golden(cfg_half, ctx_half):
    assert q_factor(1.0, cfg_half) == pytest.approx(GOLD["Q_half_1"], rel=1e-14)
    assert q_factor(ctx_half.tau1, cfg_half) == pytest.approx(
        GOLD["Q_at_tau1"], rel=1e-13)


def test_q_factor_no_overflow(cfg_half):
    # stable form: ((1+beta) + alpha e^{-2 b tau}) / (beta tau^2)
    val = q_factor(1000.0, cfg_half)
    assert val == pytest.approx(1.5 / (0.5 * 1000.0**2), rel=1e-12)


def test_p0_factor_goldens(cfg_half, ctx_half):
    assert p0_factor(1.0, ctx_half.Lambda1, cfg_half) == pytest.approx(
        GOLD["P0_k_Lam1"], rel=1e-13)
    assert p0_factor(1.0, ctx_half.Lambda2, cfg_half) == pytest.approx(
        GOLD["P0_k_Lam2"], rel=1e-13)
    assert p0_factor(ctx_half.tau1, ctx_half.Lambda2, cfg_half) == pytest.approx(
        GOLD["P0_tau1_Lam2"], rel=1e-13)


def test_trapped_upper_golden(setup_std):
    res = trapped_upper(setup_std)
    assert res.D == pytest.approx(GOLD["D_trapped_upper"], rel=1e-12)
    assert res.sigma == pytest.approx(GOLD["sigma_trapped_upper"], rel=1e-12)
    assert res.threshold == pytest.approx(GOLD["Lambda1"], rel=1e-14)
    assert res.lam == pytest.approx(
        GOLD["Lambda1"] * (1.0 - GOLD["sigma_trapped_upper"] ** 2), rel=1e-12)
    assert 0.0 < res.lam < res.threshold


def test_resonance_upper_golden(setup_std):
    res = resonance_upper(setup_std)
    assert res.D == pytest.approx(GOLD["D_resonance_upper"], rel=1e-12)
    assert res.D1 == pytest.approx(GOLD["D1_resonance_upper"], rel=1e-12)
    assert res.re_sigma == pytest.approx(GOLD["re_sigma_resonance_upper"], rel=1e-12)
    assert res.im_sigma == pytest.approx(GOLD["im_sigma_resonance_upper"], rel=1e-12)
    assert res.rcal == pytest.approx(GOLD["Rcal_std"], rel=1e-12)
    assert res.jcal == 0.0
    assert not res.near_embedded
    assert res.im_sigma < res.re_sigma  # eps^4 vs eps^2


def test_trapped_lower_golden(setup_std_lower):
    res = trapped_lower(setup_std_lower)
    assert res.D == pytest.approx(GOLD["D_trapped_lower"], rel=1e-12)
    assert res.sigma == pytest.approx(GOLD["sigma_trapped_lower"], rel=1e-12)
    assert 0.0 < res.lam < res.threshold


def test_resonance_lower_golden(setup_std_lower):
    res = resonance_lower(setup_std_lower)
    assert res.D == pytest.approx(GOLD["D_resonance_lower"], rel=1e-12)
    assert res.D1 == pytest.approx(GOLD["D1_resonance_lower"], rel=1e-12)
    assert res.re_sigma == pytest.approx(GOLD["re_sigma_resonance_lower"], rel=1e-12)
    assert res.im_sigma == pytest.approx(GOLD["im_sigma_resonance_lower"], rel=1e-12)
    assert math.isnan(res.rcal) and math.isnan(res.jcal)


def test_results_are_tagged_leading_order(setup_std, setup_std_lower):
    # the tag is a class constant, not a per-result field
    for res in (trapped_upper(setup_std),
                resonance_lower(setup_std_lower)):
        assert res.order == "leading"
        assert "order" not in vars(res)


def test_side_dispatch_is_strict(setup_std, setup_std_lower):
    with pytest.raises(ValidationError):
        trapped_upper(setup_std_lower)
    with pytest.raises(ValidationError):
        resonance_lower(setup_std)


def test_rcal_golden(setup_std):
    r, j = rcal_jcal(setup_std)
    assert r == pytest.approx(GOLD["Rcal_std"], rel=1e-12)
    assert j == 0.0


def test_rcal_sign_change_brackets_a_star(ctx_half, dip_circle):
    # Rcal is strictly decreasing in a and crosses zero near 0.17
    vals = {}
    for a in (0.05, 0.17046, 0.4):
        s = ProblemSetup(ctx=ctx_half, side="U", a=a, epsilon=0.01, dip=dip_circle)
        vals[a], _ = rcal_jcal(s)
    assert vals[0.05] > 0.0 > vals[0.4]
    assert abs(vals[0.17046]) < 1e-3 * abs(vals[0.4])


@pytest.mark.parametrize("beta, a", [(0.5, 0.3), (0.5, 0.9), (0.999, 0.9)])
@pytest.mark.parametrize("shape, axes", [("circle", {"r": 1.0}),
                                         ("ellipse", {"a0": 1.2, "b0": 0.8,
                                                      "theta0": 0.3})])
def test_resonance_upper_rcal_jcal_match_bit_for_bit(beta, a, shape, axes):
    # the resonance unscales its own obstruction; at beta = 0.999 a tau1 is
    # about 1800, beyond 709.78, and the raw values saturate to signed
    # infinities (the circle's Jcal stays an exact zero)
    ctx = spectral_context(FluidConfig(beta=beta, b=1.0, k=1.0))
    setup = ProblemSetup(ctx=ctx, side="U", a=a, epsilon=0.01,
                         dip=analytic_dipoles(shape, **axes))
    res = resonance_upper(setup)
    want = rcal_jcal(setup)
    assert [v.hex() for v in (res.rcal, res.jcal)] == [v.hex() for v in want]
    saturated = a * ctx.tau1 > 709.78
    assert math.isinf(want[0]) == saturated
    assert math.isinf(want[1]) == (saturated and shape == "ellipse")
    assert (want[1] == 0.0) == (shape == "circle")  # never 0 * inf = nan


def test_near_embedded_flag(ctx_half, dip_circle):
    s = ProblemSetup(ctx=ctx_half, side="U", a=GOLD["a_star_alpha05"],
                     epsilon=0.01, dip=dip_circle)
    res = resonance_upper(s)
    assert res.near_embedded
    assert res.im_sigma <= 1e-20
    # just off the special submergence the resonance is an honest resonance
    res_off = resonance_upper(dataclasses.replace(s, a=0.3))
    assert not res_off.near_embedded
    assert res_off.im_sigma > 0.0


def test_scaling_in_epsilon(setup_std, setup_std_lower):
    for fn, setup, attr, power in (
        (trapped_upper, setup_std, "sigma", 4.0),
        (trapped_lower, setup_std_lower, "sigma", 4.0),
        (resonance_upper, setup_std, "re_sigma", 4.0),
        (resonance_lower, setup_std_lower, "re_sigma", 4.0),
        (resonance_upper, setup_std, "im_sigma", 16.0),
        (resonance_lower, setup_std_lower, "im_sigma", 16.0),
    ):
        small = getattr(fn(setup), attr)
        big = getattr(fn(dataclasses.replace(setup, epsilon=2.0 * setup.epsilon)),
                      attr)
        assert big / small == power  # exact in floating point


def test_underflowed_sigma_is_returned_not_refused(dip_circle):
    # sigma is about e^-1599: the formula returns the IEEE 0 and its lambda,
    # and the CLI refuses it as out of double range
    ctx = spectral_context(FluidConfig(beta=0.5, b=800.0, k=1.0))
    res = trapped_lower(ProblemSetup(ctx=ctx, side="L", a=799.5, epsilon=0.01,
                                     dip=dip_circle))
    assert res.sigma == 0.0
    assert res.lam == ctx.Lambda1


@given(beta=st.floats(0.1, 0.9), b=st.floats(0.3, 2.5), k=st.floats(0.3, 2.5),
       frac=st.floats(0.05, 0.95), eps=st.floats(1e-4, 0.05))
@settings(max_examples=60, deadline=None)
def test_trapped_upper_properties(beta, b, k, frac, eps):
    cfg = FluidConfig(beta=beta, b=b, k=k)
    dip = analytic_dipoles("circle", r=1.0)
    s = ProblemSetup(ctx=spectral_context(cfg), side="U", a=frac * b, epsilon=eps,
                     dip=dip)
    res = trapped_upper(s)
    assert res.sigma > 0.0
    assert 0.0 < res.lam <= res.threshold
    # the depth Lambda1 sigma^2 is only representable once sigma^2 clears
    # machine epsilon; below that lam rounds onto the threshold itself
    if res.sigma**2 > 4e-16:
        assert res.lam < res.threshold
    assert res.D > 0.0


@given(beta=st.floats(0.1, 0.9), b=st.floats(0.3, 2.5), k=st.floats(0.3, 2.5),
       a=st.floats(0.05, 1.5), eps=st.floats(1e-4, 0.05))
@settings(max_examples=60, deadline=None)
def test_resonance_lower_properties(beta, b, k, a, eps):
    cfg = FluidConfig(beta=beta, b=b, k=k)
    dip = analytic_dipoles("ellipse", a0=1.3, b0=0.8, theta0=0.5)
    s = ProblemSetup(ctx=spectral_context(cfg), side="L", a=a, epsilon=eps,
                     dip=dip)
    res = resonance_lower(s)
    assert res.re_sigma > 0.0
    assert res.im_sigma > 0.0
    assert res.D > 0.0 and res.D1 > 0.0
