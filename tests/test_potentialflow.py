import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from trapmodes import (
    ConsistencyError,
    FluidConfig,
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
    read_fourier_file,
)
from trapmodes.contour import Contour
from trapmodes.dispersion import ROOT_RTOL, lambda1

from goldens import EGG, GOLD


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


def test_apply_n0_constant(unit_circle, egg):
    # (I + M)^{-1} 1 = 1/2 by the Gauss law, on the egg's whole I + M
    sys = assemble(egg, 64)
    out = apply_n0(sys, np.ones(64))
    assert np.allclose(out, 0.5, atol=1e-13)
    # the folded circle factors only its odd block, so it refuses the
    # constant, which is even
    with pytest.raises(ValidationError, match="f must be odd"):
        apply_n0(assemble(unit_circle, 64), np.ones(64))
    with pytest.raises(ValidationError):
        apply_n0(sys, np.ones(65))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            apply_n0(sys, np.full(64, bad))


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


def _textbook_nodes(C, N):
    """X, Y and their first two derivatives on the N nodes, as assemble takes
    them: for a centrally symmetric C the first N/2 are evaluated and the
    rest are their negation."""
    t = 2.0 * np.pi * np.arange(N) / N
    if not C.centrally_symmetric:
        return C.evaluate(t)
    return [np.concatenate([v, -v]) for v in C.evaluate(t[:N // 2])]


def _textbook_kernel(C, N):
    """M = (2 pi / N) K, with K built whole and in C order."""
    x, y, xd, yd, xdd, ydd = _textbook_nodes(C, N)
    dx = x[None, :] - x[:, None]
    dy = y[None, :] - y[:, None]
    dist2 = dx * dx + dy * dy
    np.fill_diagonal(dist2, 1.0)
    K = -(1.0 / math.pi) * (dx * (-yd[None, :]) + dy * xd[None, :]) / dist2
    np.fill_diagonal(K, (xd * ydd - xdd * yd) / (2.0 * math.pi * (xd * xd + yd * yd)))
    return (2.0 * np.pi / N) * K


def _textbook_block(C, N):
    """The matrix assemble factors: A = I + M, or for a centrally symmetric
    C the odd block I + (L - R), where L and R are the column halves of M's
    first N/2 rows (I is added after L - R, in the kernel's order)."""
    M = _textbook_kernel(C, N)
    if not C.centrally_symmetric:
        return np.eye(N) + M
    h = N // 2
    return np.eye(h) + (M[:h, :h] - M[:h, h:])


def _textbook_solve(factor, f):
    """lu_solve of f on the factor of _textbook_block; folded, f is odd,
    f = [fo, -fo], and the solve is [uo, -uo]."""
    if len(factor[1]) == len(f):
        return lu_solve(factor, f)
    h = len(f) // 2
    uo = lu_solve(factor, (f[:h] - f[h:]) / 2)
    return np.concatenate([uo, -uo])


def _bits(a):
    return np.asarray(a).view(np.uint64)


_J3 = make_fourier([1.0, 0.1, 0.05], [0.0, 0.0, 0.02], [0.0, 0.03, 0.0], [0.9, 0.0, -0.04])
_EGG = make_fourier(**EGG)
_CIRCLE = make_circle(1.0)
_TILTED = make_ellipse(1.5, 0.7, 0.4)


@pytest.mark.parametrize("N", [32, 64, 256, 512, 1024])
@pytest.mark.parametrize("C", [_CIRCLE, _TILTED, _J3, _EGG],
                         ids=["circle", "tilted_ellipse", "fourier_J3", "egg"])
def test_lu_matches_textbook_assembly_bit_for_bit(C, N):
    # the J = 3 section and the egg take the full path: one LU of I + M. The
    # circle and the tilted ellipse are centrally symmetric: their factor is
    # that of the odd block, N/2 x N/2
    folded = C is _CIRCLE or C is _TILTED
    assert C.centrally_symmetric == folded
    system = assemble(C, N)
    A = _textbook_block(C, N)
    want = lu_factor(A)
    lu, piv = system.lu
    assert lu.shape == want[0].shape == ((N // 2, N // 2) if folded else (N, N))
    assert np.array_equal(_bits(lu), _bits(want[0]))
    assert np.array_equal(piv, want[1])
    # the direct LAPACK calls against scipy.linalg's wrappers: the solves bit
    # for bit, the condition estimate to 1e-12 (its 1-norm moves in the last
    # bits from process to process). cos t is odd only as [c, -c]: cos of
    # the float t_j + pi is not -cos t_j bit for bit
    h = N // 2
    c = np.cos(system.t[:h])
    cos_t = np.concatenate([c, -c]) if folded else np.cos(system.t)
    even = (np.ones(N), 1.0 + np.cos(system.t) + np.sin(2.0 * system.t))
    for f in (system.x, system.y, cos_t) + (() if folded else even):
        assert np.array_equal(_bits(apply_n0(system, f)), _bits(_textbook_solve(want, f)))
    for f in even if folded else ():
        with pytest.raises(ValidationError, match="f must be odd"):
            apply_n0(system, f)
    gecon = get_lapack_funcs("gecon", (want[0],))
    rcond, info = gecon(want[0], float(np.linalg.norm(A, 1)), norm="1")
    assert info == 0
    assert system.cond_estimate == pytest.approx(1.0 / rcond, rel=1e-12, abs=0.0)
    # the Gauss residual, from the column sums of the built rows, against
    # the textbook M's row sums
    M = _textbook_kernel(C, N)
    want_residual = float(np.max(np.abs(M.sum(axis=1) - 1.0)))
    assert abs(system.gauss_residual - want_residual) <= 1e-15


@pytest.mark.parametrize("N", [32, 256, 1024])
@pytest.mark.parametrize("C", [_CIRCLE, _TILTED], ids=["circle", "tilted_ellipse"])
def test_folded_nodes_make_the_matrix_shift_invariant(C, N):
    # with the second half of the nodes the first negated, M commutes with
    # the half-period shift bit for bit, so the two blocks are its exact
    # block-diagonalisation
    M, h = _textbook_kernel(C, N), N // 2
    assert np.array_equal(_bits(M[h:, h:]), _bits(M[:h, :h]))
    assert np.array_equal(_bits(M[h:, :h]), _bits(M[:h, h:]))


@pytest.mark.parametrize("N", [64, 128, 256, 512, 1024])
@pytest.mark.parametrize("C", [_CIRCLE, _TILTED, make_ellipse(2.0, 0.5, -0.9),
                               make_ellipse(1.0, 0.8, 1.3)],
                         ids=["circle", "tilted_ellipse", "thin_ellipse", "round_ellipse"])
def test_folded_dipoles_match_the_whole_matrix_solve(C, N):
    # mu, kappa and nu of the two half-size solves against lu_solve on the
    # whole textbook I + M
    system = assemble(C, N)
    got = dipoles_bem(system)
    lu = lu_factor(np.eye(N) + _textbook_kernel(C, N))
    u_x, u_y = lu_solve(lu, system.x), lu_solve(lu, system.y)
    w = 2.0 / N  # (2 pi / N) / pi
    mu = -w * float(np.dot(system.xd, u_y))
    kappa = w * float(np.dot(system.yd, u_x))
    nu = -w * float(np.dot(system.xd, u_x))
    for value, want in ((got.mu, mu), (got.kappa, kappa), (got.nu, nu)):
        assert abs(value - want) <= 1e-14 * mu


def test_fold_is_chosen_from_the_coefficients_exactly(tmp_path):
    # one even harmonic of 1e-300 breaks r(t + pi) = -r(t): the full path
    tiny = make_fourier([1.0, 1e-300], [0.0, 0.0], [0.0, 0.0], [0.6, 0.0])
    assert not tiny.centrally_symmetric
    assert assemble(tiny, 64).lu[0].shape == (64, 64)
    # an odd-only J = 3 file, and the same traversed clockwise: the fold
    path = tmp_path / "odd.txt"
    for text, reversed_input in (
            ("1.0 0.0 0.0 0.8\n0.0 0.0 0.0 0.0\n0.05 0.02 0.0 -0.04\n", False),
            ("1.0 0.0 0.0 -0.8\n0.0 0.0 0.0 0.0\n0.05 -0.02 0.0 0.04\n", True)):
        path.write_text(text)
        C = read_fourier_file(path)
        assert C.reversed_input == reversed_input
        assert C.centrally_symmetric
        assert assemble(C, 64).lu[0].shape == (32, 32)


# Runs in a fresh interpreter, since the extension loader runs once per
# process: argv is the subpackage, the extension, the case, the textbook
# matrix A (.npy) and the output (.npz).
_LOADER_SCRIPT = """
import importlib, importlib.machinery, sys
import numpy as np
subpackage, name, case, matrix, out = sys.argv[1:]
package, canonical = f"scipy.{subpackage}", f"scipy.{subpackage}.{name}"
find_spec, asked = importlib.machinery.PathFinder.find_spec, set()
def finder(fullname, path=None, target=None):
    asked.add(fullname)
    if case == "fallback" and fullname == name:  # a scipy without the file
        return None
    return find_spec(fullname, path, target)
importlib.machinery.PathFinder.find_spec = finder
if case == "package_first":
    importlib.import_module(package)
from trapmodes import FluidConfig, apply_n0, assemble, make_fourier
from trapmodes._scipy import extension
from trapmodes.dispersion import ROOT_RTOL, brentq, lambda1
fluid = FluidConfig(beta=0.5, b=1.0, k=1.0)
f = lambda t: lambda1(t, fluid) - 1.0
got = {}
if name == "_flapack":
    system = assemble(make_fourier([1.0, 0.2], [0.0, 0.0], [0.0, 0.0], [1.3, 0.1]), 64)
    got.update(lu=system.lu[0], piv=system.lu[1], n0x=apply_n0(system, system.x),
               n0y=apply_n0(system, system.y))
else:
    got.update(root=brentq(f, 1.0, 4.0, xtol=1e-15, what="tau1"))
loaded = {m: m in sys.modules for m in (package, canonical)}
later = importlib.import_module(package)
assert extension(subpackage, name) is sys.modules[canonical]
if name == "_flapack":
    assert later.lapack._flapack is extension(subpackage, name)
    later_lu, later_piv = later.lu_factor(np.load(matrix))
    got.update(later_lu=later_lu, later_piv=later_piv,
               later_x=later.lu_solve((later_lu, later_piv), system.x))
else:
    assert later._zeros_py._zeros is extension(subpackage, name)
    got.update(later_root=later.brentq(f, 1.0, 4.0, xtol=1e-15, rtol=ROOT_RTOL))
np.savez(out, package=loaded[package], extension=loaded[canonical],
         searched=name in asked, **got)
"""


@pytest.mark.parametrize("subpackage, name", [("linalg", "_flapack"),
                                              ("optimize", "_zeros")])
@pytest.mark.parametrize("case, package_loaded, searched", [
    ("loader_first", False, True),
    ("package_first", True, False),
    ("fallback", True, True),
])
def test_extension_loader_in_either_import_order(case, package_loaded, searched,
                                                 subpackage, name, tmp_path):
    # the package loads scipy's _flapack (the BEM) and _zeros (the root
    # solves) without their subpackages, reuses the one a subpackage loaded,
    # or imports it the regular way when the file is missing; each way the
    # LU, pivots and solves are those of lu_factor and lu_solve, and the root
    # is scipy.optimize.brentq's, bit for bit, and the subpackage still works
    # after. The egg is not centrally symmetric, so its LU is the whole I + M
    C, N = _EGG, 64
    A = _textbook_block(C, N)
    np.save(tmp_path / "A.npy", A)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _LOADER_SCRIPT, subpackage, name,
                           case, str(tmp_path / "A.npy"), str(tmp_path / "out.npz")],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    got = np.load(tmp_path / "out.npz")
    assert bool(got["package"]) == package_loaded
    assert bool(got["searched"]) == searched
    assert bool(got["extension"])
    if name == "_zeros":
        fluid = FluidConfig(beta=0.5, b=1.0, k=1.0)
        want = scipy.optimize.brentq(lambda t: lambda1(t, fluid) - 1.0, 1.0, 4.0,
                                     xtol=1e-15, rtol=ROOT_RTOL)
        for key in ("root", "later_root"):
            assert got[key].view(np.uint64) == np.float64(want).view(np.uint64), key
        return
    want_lu, want_piv = lu_factor(A)
    system = assemble(C, N)
    for lu, piv in ((got["lu"], got["piv"]), (got["later_lu"], got["later_piv"])):
        assert np.array_equal(lu.view(np.uint64), want_lu.view(np.uint64))
        assert np.array_equal(piv, want_piv)
    for key, f in (("n0x", system.x), ("n0y", system.y), ("later_x", system.x)):
        want = lu_solve((want_lu, want_piv), f)
        assert np.array_equal(got[key].view(np.uint64), want.view(np.uint64)), key


def _assembly_peak(C, N):
    assemble(C, 64)  # loads LAPACK outside the measurement
    tracemalloc.start()
    try:
        assemble(C, N)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assembly_peak_memory():
    # the kernel is built in place, a block of rows at a time, and factored
    # without a copy: MT is the only N^2 array, about 1.1 N^2 doubles at the
    # peak, where a whole K, M, eye(N) and A take about 7
    N = 1024
    assert _assembly_peak(_J3, N) <= 1.5 * 8 * N * N


def test_folded_assembly_peak_memory():
    # a centrally symmetric section folds each block of rows into its odd
    # block as it is built: that N/2 block, N^2 / 4 doubles, is the only
    # large array (about 0.39 N^2 doubles at the peak), and the whole MT is
    # never allocated
    N = 1024
    assert _assembly_peak(make_ellipse(1.5, 0.7, 0.4), N) <= 0.5 * 8 * N * N


@pytest.mark.parametrize("cos_x, cos_y, sin_y", [
    # figure-eight X = cos t, Y = sin 2t / 2: the crossing nodes t = pi/2 and
    # 3 pi/2 lie 2e-16 apart, so their kernel entries are about 1e15
    ([1.0, 0.0], [0.0, 0.0], [0.0, 0.5]),
    # X = cos 2t, Y = cos 4t / 2 runs back and forth along a parabola: nodes
    # t and t + pi coincide exactly, so the kernel holds NaN entries
    ([0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 0.0]),
], ids=["figure_eight", "retraced"])
def test_self_intersecting_contour_fails_the_gauss_law(cos_x, cos_y, sin_y):
    # built directly, past make_fourier's simplicity check: the Gauss guard
    # stops a kernel with non-finite or huge entries before LAPACK sees it
    C = Contour(np.array(cos_x), np.zeros(len(cos_x)), np.array(cos_y),
                np.array(sin_y))
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(ConsistencyError, match="discrete Gauss law violated"):
            assemble(C, 64)


@pytest.mark.parametrize("N", [64, 256])
def test_centrally_symmetric_crossing_curve_fails_the_gauss_law(N):
    # X = cos t, Y = sin 3t / 2 crosses itself at (+-1/2, 0) and has only odd
    # harmonics, so it is folded: the column sums of L and R catch it
    C = Contour(np.array([1.0, 0.0, 0.0]), np.zeros(3), np.zeros(3),
                np.array([0.0, 0.0, 0.5]))
    assert C.centrally_symmetric
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(ConsistencyError, match="discrete Gauss law violated"):
            assemble(C, N)


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
