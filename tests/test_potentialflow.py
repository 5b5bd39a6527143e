import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lu_factor

from trapmodes import (
    ConsistencyError,
    ValidationError,
    analytic_dipoles,
    apply_n0,
    assemble,
    boundary_potential,
    dipole_mu_flux,
    dipoles_bem,
    make_circle,
    make_ellipse,
    make_fourier,
)

from goldens import GOLD


def test_assemble_validation(unit_circle):
    for bad in (0, 31, 48, 100):
        with pytest.raises(ValidationError):
            assemble(unit_circle, bad)


def test_gauss_residual_small(unit_circle, tilted_ellipse, egg):
    for C in (unit_circle, tilted_ellipse, egg):
        for N in (64, 128, 256):
            assert assemble(C, N).gauss_residual < 1e-12


def test_condition_number_modest(unit_circle, tilted_ellipse, egg):
    for C in (unit_circle, tilted_ellipse, egg):
        cond = assemble(C, 128).cond_estimate
        assert 1.0 <= cond < 100.0


def test_apply_n0_constant(unit_circle):
    # (I + M)^{-1} 1 = 1/2 by the Gauss law
    sys = assemble(unit_circle, 64)
    out = apply_n0(sys, np.ones(64))
    assert np.allclose(out, 0.5, atol=1e-13)
    with pytest.raises(ValidationError):
        apply_n0(sys, np.ones(65))


def test_circle_dipoles_machine_precision():
    for r in (0.5, 1.0, 2.0):
        d = dipoles_bem(assemble(make_circle(r), 128))
        assert d.mu == pytest.approx(r * r, rel=1e-12)
        assert d.kappa == pytest.approx(r * r, rel=1e-12)
        assert abs(d.nu) < 1e-13 * max(1.0, r * r)
        assert d.S == pytest.approx(math.pi * r * r, rel=1e-13)


@pytest.mark.parametrize("theta0", [0.0, math.pi / 6.0, math.pi / 4.0, -0.7, 1.2])
def test_ellipse_dipoles_match_closed_form(theta0):
    C = make_ellipse(2.0, 1.0, theta0)
    got = dipoles_bem(assemble(C, 256))
    want = analytic_dipoles("ellipse", a0=2.0, b0=1.0, theta0=theta0)
    assert got.mu == pytest.approx(want.mu, rel=1e-10)
    assert got.kappa == pytest.approx(want.kappa, rel=1e-10)
    assert got.nu == pytest.approx(want.nu, abs=1e-10)
    assert got.S == pytest.approx(want.S, rel=1e-13)


def test_flux_route_agrees_for_egg(egg):
    system = assemble(egg, 256)
    d = dipoles_bem(system)
    assert dipole_mu_flux(system) == pytest.approx(d.mu, rel=1e-11)


def test_boundary_potential_circle(unit_circle):
    # psi on the unit circle is the trace of -y/r^2, i.e. -sin t
    sys = assemble(unit_circle, 64)
    psi = boundary_potential(sys)
    assert np.allclose(psi, -np.sin(sys.t), atol=1e-13)


def test_spectral_convergence():
    # aspect ratio tuned so N = 32 is resolved but not yet at round-off
    C = make_ellipse(2.0, 0.7, 0.5)
    want = analytic_dipoles("ellipse", a0=2.0, b0=0.7, theta0=0.5)
    err = {N: abs(dipoles_bem(assemble(C, N)).mu - want.mu) for N in (32, 64)}
    assert 1e-12 < err[32] < 1e-6
    # doubling N must slash the error by far more than a fixed-order method
    assert err[64] < 1e-2 * err[32]
    assert err[64] < 1e-12


def test_under_resolved_contour_is_rejected():
    # slender section at coarse N: the discrete Gauss law catches it
    with pytest.raises(ConsistencyError):
        assemble(make_ellipse(2.0, 0.3, 0.5), 32)


def test_dipoles_translation_invariant(egg):
    # shifting the contour must not change the far-field coefficients:
    # translation only adds a j = 0 harmonic, which the representation
    # drops, so compare against an off-centre ellipse built by rotation
    d1 = dipoles_bem(assemble(make_ellipse(1.4, 0.6, 0.9), 128))
    want = analytic_dipoles("ellipse", a0=1.4, b0=0.6, theta0=0.9)
    assert d1.mu == pytest.approx(want.mu, rel=1e-10)
    assert d1.nu == pytest.approx(want.nu, rel=1e-8)


def test_nu_symmetry_of_egg(egg):
    # X even and Y odd in t: the egg is symmetric about the x axis, so nu = 0
    d = dipoles_bem(assemble(egg, 128))
    assert abs(d.nu) < 1e-12 * max(1.0, d.S)


def _textbook_lu(C, N):
    """LU of I + (2 pi / N) K, with K built whole and in C order."""
    t = 2.0 * np.pi * np.arange(N) / N
    x, y, xd, yd, xdd, ydd = C.evaluate(t)
    dx = x[None, :] - x[:, None]
    dy = y[None, :] - y[:, None]
    dist2 = dx * dx + dy * dy
    np.fill_diagonal(dist2, 1.0)
    K = -(1.0 / math.pi) * (dx * (-yd[None, :]) + dy * xd[None, :]) / dist2
    np.fill_diagonal(K, (xd * ydd - xdd * yd) / (2.0 * math.pi * (xd * xd + yd * yd)))
    return lu_factor(np.eye(N) + (2.0 * np.pi / N) * K)


_J3 = make_fourier([1.0, 0.1, 0.05], [0.0, 0.0, 0.02], [0.0, 0.03, 0.0], [0.9, 0.0, -0.04])


@pytest.mark.parametrize("N", [64, 256, 512, 1024])
@pytest.mark.parametrize("C", [make_circle(1.0), make_ellipse(1.5, 0.7, 0.4), _J3],
                         ids=["circle", "tilted_ellipse", "fourier_J3"])
def test_lu_matches_textbook_assembly_bit_for_bit(C, N):
    lu, piv = assemble(C, N).lu
    want_lu, want_piv = _textbook_lu(C, N)
    assert np.array_equal(lu.view(np.uint64), want_lu.view(np.uint64))
    assert np.array_equal(piv, want_piv)


def test_assembly_peak_memory():
    # the kernel is built in place and factored without a copy: about 4 N^2
    # doubles at the peak, where a whole K, M, eye(N) and A take about 7
    C, N = make_ellipse(1.5, 0.7, 0.4), 1024
    assemble(C, 64)  # imports scipy.linalg outside the measurement
    tracemalloc.start()
    try:
        assemble(C, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * N * N


@pytest.mark.parametrize("r", [1e-160, 1e-152, 1e152, 1e160])
def test_section_out_of_double_range_is_refused(r):
    # beyond the diameter window the squared node distances under- or
    # overflow; at 1e160 the matrix would hold NaN
    with pytest.raises(ConsistencyError, match="out of double range"):
        assemble(make_circle(r), 64)


@pytest.mark.parametrize("r", [1e-150, 1e149])
def test_dipoles_scale_at_the_ends_of_the_diameter_window(r):
    d = dipoles_bem(assemble(make_circle(r), 64))
    assert d.mu == pytest.approx(r * r, rel=1e-12)
    assert d.S == pytest.approx(math.pi * r * r, rel=1e-13)
