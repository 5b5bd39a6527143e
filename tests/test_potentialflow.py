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
from trapmodes.contour import Contour, tilt_dipoles
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
    rest are their negation; for one also mirror symmetric (X even and Y odd
    in t) only t_0 ... t_{N/4} are, each other node is the image of one of
    these under t -> -t, t -> pi - t or t -> t + pi, and the components
    that are zero on the axes are exactly 0."""
    t = 2.0 * np.pi * np.arange(N) / N
    if not C.centrally_symmetric:
        return C.evaluate(t)
    h, q = N // 2, N // 4
    if not C.mirror_symmetric:
        return [np.concatenate([v, -v]) for v in C.evaluate(t[:h])]
    x, y, xd, yd, xdd, ydd = (v.copy() for v in C.evaluate(t[:q + 1]))
    y[0] = xd[0] = ydd[0] = 0.0
    x[q] = yd[q] = xdd[q] = 0.0
    j = np.arange(N)
    # the node of t_0 ... t_{N/4} that t_j is the image of, and the signs of
    # X, Y, X', Y', X'', Y'' under that image
    source = np.select([j <= q, j < h, j <= h + q], [j, h - j, j - h], N - j)
    signs = np.select([j <= q, j < h, j <= h + q],
                      [1.0, [[-1.0], [1.0], [1.0], [-1.0], [-1.0], [1.0]], -1.0],
                      [[1.0], [-1.0], [-1.0], [1.0], [1.0], [-1.0]])
    return [sign * v[source] for v, sign in zip((x, y, xd, yd, xdd, ydd), signs)]


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


def _textbook_blocks(C, N):
    """The blocks B of the matrices I + B assemble factors (I is added last,
    in the kernel's order): M; for a centrally symmetric C the odd block
    L - R, where L and R are the column halves of M's first N/2 rows; and for
    one also mirror symmetric, that block's restrictions to vectors even
    under t -> -t, v[N/2 - j] = -v[j] (so v[N/4] = 0), set by v[0 ... N/4 -
    1], and odd ones, v[N/2 - j] = v[j] (so v[0] = 0), set by v[1 ... N/4]."""
    M = _textbook_kernel(C, N)
    if not C.centrally_symmetric:
        return [M]
    h, q = N // 2, N // 4
    B = M[:h, :h] - M[:h, h:]
    if not C.mirror_symmetric:
        return [B]
    even = B[:q, :q].copy()
    even[:, 1:] -= B[:q, h - 1:q:-1]  # column j minus column N/2 - j
    odd = B[1:q + 1, 1:q + 1].copy()
    odd[:, :-1] += B[1:q + 1, h - 1:q:-1]
    return [even, odd]


def _textbook_solve(factors, f):
    """lu_solve of f on the factors of _textbook_blocks. Folded, f is odd,
    f = [fo, -fo], and the solve is [uo, -uo]; split, f's parts even and odd
    under t -> -t are solved on their own blocks and extended to the nodes."""
    N = len(f)
    if len(factors[0][1]) == N:
        return lu_solve(factors[0], f)
    h, q = N // 2, N // 4
    if len(factors) == 1:
        uo = lu_solve(factors[0], (f[:h] - f[h:]) / 2)
        return np.concatenate([uo, -uo])
    mirrored = f[-np.arange(N) % N]
    even = lu_solve(factors[0], ((f + mirrored) / 2)[:q])
    odd = lu_solve(factors[1], ((f - mirrored) / 2)[1:q + 1])
    j = np.arange(q + 1, h)
    uo = np.zeros(h)
    uo[:q] = even
    uo[j] = -even[h - j]
    uo[1:q + 1] += odd
    uo[j] += odd[h - j - 1]
    return np.concatenate([uo, -uo])


def _bits(a):
    return np.asarray(a).view(np.uint64)


_J3 = make_fourier([1.0, 0.1, 0.05], [0.0, 0.0, 0.02], [0.0, 0.03, 0.0], [0.9, 0.0, -0.04])
_EGG = make_fourier(**EGG)
_CIRCLE = make_circle(1.0)
_ELLIPSE = make_ellipse(1.5, 0.7)
_TILTED = make_ellipse(1.5, 0.7, 0.4)
# odd harmonics only, X a cosine and Y a sine series: split like an ellipse
_ODD_MIRROR = make_fourier([1.0, 0.0, 0.05], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.8, 0.0, -0.04])
_SPLIT = (_CIRCLE, _ELLIPSE, _ODD_MIRROR)
_PATHS = {"circle": _CIRCLE, "ellipse": _ELLIPSE, "odd_mirror": _ODD_MIRROR,
          "tilted_ellipse": _TILTED, "fourier_J3": _J3, "egg": _EGG}


@pytest.mark.parametrize("N", [32, 64, 256, 512, 1024])
@pytest.mark.parametrize("C", _PATHS.values(), ids=_PATHS.keys())
def test_lu_matches_textbook_assembly_bit_for_bit(C, N):
    # the J = 3 section and the egg take the full path: one LU of I + M. The
    # tilted ellipse is centrally symmetric: its factor is that of the odd
    # block, N/2 x N/2. The circle, the untilted ellipse and the odd-harmonic
    # section are also mirror symmetric: two N/4 x N/4 factors, built from
    # N/4 + 1 kernel rows (9 at N = 32, fewer than one pass of 32; at N =
    # 1024, 257, so the last pass holds one row)
    split = any(C is S for S in _SPLIT)
    folded = split or C is _TILTED
    assert C.centrally_symmetric == folded
    assert (C.centrally_symmetric and C.mirror_symmetric) == split
    system = assemble(C, N)
    for got, want in zip((system.x, system.y, system.xd, system.yd), _textbook_nodes(C, N)):
        assert np.array_equal(_bits(got), _bits(want))
    blocks = [np.eye(len(B)) + B for B in _textbook_blocks(C, N)]
    want = [lu_factor(A) for A in blocks]
    order = N // 4 if split else N // 2 if folded else N
    assert len(system.factors) == len(want) == (2 if split else 1)
    for (lu, piv), (want_lu, want_piv) in zip(system.factors, want):
        assert lu.shape == want_lu.shape == (order, order)
        assert np.array_equal(_bits(lu), _bits(want_lu))
        assert np.array_equal(piv, want_piv)
    # the direct LAPACK calls against scipy.linalg's wrappers: the solves bit
    # for bit, the condition estimate to 1e-12 (its 1-norm moves in the last
    # bits from process to process). cos t is odd only as [c, -c]: cos of
    # the float t_j + pi is not -cos t_j bit for bit; cos 3t + sin t is
    # neither even nor odd under t -> -t
    h = N // 2
    c = np.cos(system.t[:h])
    mixed = np.cos(3.0 * system.t[:h]) + np.sin(system.t[:h])
    odd = [np.concatenate([c, -c]), np.concatenate([mixed, -mixed])]
    cos_t = np.concatenate([c, -c]) if folded else np.cos(system.t)
    even = (np.ones(N), 1.0 + np.cos(system.t) + np.sin(2.0 * system.t))
    for f in [system.x, system.y, cos_t, *odd] + ([] if folded else list(even)):
        assert np.array_equal(_bits(apply_n0(system, f)), _bits(_textbook_solve(want, f)))
    for f in even if folded else ():
        with pytest.raises(ValidationError, match="f must be odd"):
            apply_n0(system, f)
    conds = []
    for A, (lu, _) in zip(blocks, want):
        rcond, info = get_lapack_funcs("gecon", (lu,))(lu, float(np.linalg.norm(A, 1)),
                                                       norm="1")
        assert info == 0
        conds.append(1.0 / rcond)
    assert system.cond_estimate == pytest.approx(max(conds), rel=1e-12, abs=0.0)
    # the Gauss residual, from the column sums of the built rows, against
    # the textbook M's row sums
    M = _textbook_kernel(C, N)
    want_residual = float(np.max(np.abs(M.sum(axis=1) - 1.0)))
    assert abs(system.gauss_residual - want_residual) <= 1e-15


@pytest.mark.parametrize("N", [32, 256, 1024])
@pytest.mark.parametrize("C", [_CIRCLE, _ELLIPSE, _ODD_MIRROR, _TILTED],
                         ids=["circle", "ellipse", "odd_mirror", "tilted_ellipse"])
def test_folded_nodes_make_the_matrix_shift_invariant(C, N):
    # with the second half of the nodes the first negated, M commutes with
    # the half-period shift bit for bit, so the two blocks are its exact
    # block-diagonalisation; on a mirror symmetric section M also commutes
    # with both reflections, t -> -t and t -> pi - t, bit for bit
    M, h = _textbook_kernel(C, N), N // 2
    assert np.array_equal(_bits(M[h:, h:]), _bits(M[:h, :h]))
    assert np.array_equal(_bits(M[h:, :h]), _bits(M[:h, h:]))
    if C is _TILTED:
        return
    i = np.arange(N)
    for image in (-i % N, (h - i) % N, (i + h) % N):
        assert np.array_equal(_bits(M[np.ix_(image, image)]), _bits(M))


@pytest.mark.parametrize("N", [64, 256, 1024])
@pytest.mark.parametrize("C", _SPLIT, ids=["circle", "ellipse", "odd_mirror"])
def test_half_resolution_kernel_is_the_even_subsample(C, N):
    # t_{2i} at N is t_i at N/2 and 2 pi / (N/2) = 2 (2 pi / N), both
    # exactly, so M_{N/2}[i, j] = 2 M_N[2i, 2j] bit for bit; so are the
    # split blocks, and assemble's N/2 factors are those of the subsample
    M = _textbook_kernel(C, N)
    assert np.array_equal(_bits(_textbook_kernel(C, N // 2)), _bits(2.0 * M[::2, ::2]))
    even, odd = _textbook_blocks(C, N)
    sub = [np.eye(N // 8) + 2.0 * even[::2, ::2], np.eye(N // 8) + 2.0 * odd[1::2, 1::2]]
    for (lu, piv), A in zip(assemble(C, N // 2).factors, sub):
        want_lu, want_piv = lu_factor(A)
        assert np.array_equal(_bits(lu), _bits(want_lu))
        assert np.array_equal(piv, want_piv)


@pytest.mark.parametrize("N", [64, 128, 256, 512, 1024])
@pytest.mark.parametrize("C", [_CIRCLE, _ELLIPSE, _TILTED, make_ellipse(2.0, 0.5, -0.9),
                               make_ellipse(1.0, 0.8, 1.3)],
                         ids=["circle", "ellipse", "tilted_ellipse", "thin_ellipse",
                              "round_ellipse"])
def test_folded_dipoles_match_the_whole_matrix_solve(C, N):
    # mu, kappa and nu of the half- or quarter-size solves against lu_solve
    # on the whole textbook I + M
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
    assert (got.nu == 0.0) == system.split


def _orders(system):
    return [lu.shape for lu, _ in system.factors]


def _fold_only(monkeypatch):
    """assemble then takes a mirror symmetric section down the fold."""
    monkeypatch.setattr(Contour, "mirror_symmetric", property(lambda self: False))


def _random_ellipses(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a0 = float(np.exp(rng.uniform(-1.0, 1.0)))
        yield a0, a0 * float(rng.uniform(0.3, 1.0)), float(rng.uniform(-math.pi, math.pi))


def test_split_dipoles_match_the_fold_and_the_closed_forms(monkeypatch):
    # 300 random ellipses at N = 256: the split untilted ellipse's mu and
    # kappa against the fold's, and, turned by tilt_dipoles, against the
    # closed forms of the tilted ellipse
    ellipses = list(_random_ellipses(300, seed=31))
    split = [dipoles_bem(assemble(make_ellipse(a0, b0), 256)) for a0, b0, _ in ellipses]
    for dip, (a0, b0, theta0) in zip(split, ellipses):
        assert dip.nu == 0.0
        got = tilt_dipoles(dip, theta0)
        want = analytic_dipoles("ellipse", a0=a0, b0=b0, theta0=theta0)
        for value, exact in ((got.mu, want.mu), (got.kappa, want.kappa), (got.nu, want.nu)):
            assert abs(value - exact) <= 1e-14 * want.mu
    _fold_only(monkeypatch)
    for dip, (a0, b0, _) in zip(split, ellipses):
        folded = dipoles_bem(assemble(make_ellipse(a0, b0), 256))
        assert abs(folded.nu) <= 1e-14 * folded.mu
        for value, want in ((dip.mu, folded.mu), (dip.kappa, folded.kappa)):
            assert abs(value - want) <= 1e-14 * folded.mu


@pytest.mark.parametrize("N", [32, 4096])
@pytest.mark.parametrize("C", [_CIRCLE, _ELLIPSE], ids=["circle", "ellipse"])
def test_split_matches_the_fold_at_the_ends_of_the_N_range(C, N, monkeypatch):
    # N = 32 builds 9 kernel rows, fewer than one pass; N = 4096 builds
    # 1025, 32 passes and a ragged one
    split = assemble(C, N)
    assert _orders(split) == [(N // 4, N // 4)] * 2
    dip = dipoles_bem(split)
    _fold_only(monkeypatch)
    folded = assemble(C, N)
    assert _orders(folded) == [(N // 2, N // 2)]
    want = dipoles_bem(folded)
    for value, exact in ((dip.mu, want.mu), (dip.kappa, want.kappa), (dip.nu, want.nu)):
        assert abs(value - exact) <= 1e-14 * want.mu
    assert abs(split.gauss_residual - folded.gauss_residual) <= 1e-12


def test_fold_is_chosen_from_the_coefficients_exactly(tmp_path):
    # one even harmonic of 1e-300 breaks r(t + pi) = -r(t): the full path
    tiny = make_fourier([1.0, 1e-300], [0.0, 0.0], [0.0, 0.0], [0.6, 0.0])
    assert not tiny.centrally_symmetric
    assert _orders(assemble(tiny, 64)) == [(64, 64)]
    # one sin_x or cos_y of 1e-300 breaks r(-t) = (X(t), -Y(t)): the fold
    for sin_x, cos_y in ((1e-300, 0.0), (0.0, 1e-300)):
        C = make_fourier([1.0, 0.0, 0.05], [sin_x, 0.0, 0.0], [cos_y, 0.0, 0.0],
                         [0.6, 0.0, -0.04])
        assert C.centrally_symmetric and not C.mirror_symmetric
        assert _orders(assemble(C, 64)) == [(32, 32)]
    # odd-only J = 3 files, and the same traversed clockwise: the fold, or,
    # with sin_x and cos_y zero (-0.0 too), the split
    path = tmp_path / "odd.txt"
    for text, reversed_input, orders in (
            ("1.0 0.0 0.0 0.8\n0.0 0.0 0.0 0.0\n0.05 0.02 0.0 -0.04\n", False, [(32, 32)]),
            ("1.0 0.0 0.0 -0.8\n0.0 0.0 0.0 0.0\n0.05 -0.02 0.0 0.04\n", True, [(32, 32)]),
            ("1.0 -0.0 0.0 0.8\n0.0 0.0 0.0 0.0\n0.05 0.0 -0.0 -0.04\n", False,
             [(16, 16)] * 2),
            ("1.0 0.0 0.0 -0.8\n0.0 0.0 0.0 0.0\n0.05 0.0 0.0 0.04\n", True,
             [(16, 16)] * 2)):
        path.write_text(text)
        C = read_fourier_file(path)
        assert C.reversed_input == reversed_input
        assert C.centrally_symmetric
        assert _orders(assemble(C, 64)) == orders


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
    (lu, piv), = system.factors
    got.update(lu=lu, piv=piv, n0x=apply_n0(system, system.x),
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
    A = np.eye(N) + _textbook_kernel(C, N)
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
    # a mirror symmetric one folds each block of rows on into its two N/4
    # blocks, N^2 / 8 doubles together (about 0.28 N^2 doubles at the peak,
    # with the scratch of one pass)
    assert _assembly_peak(make_ellipse(1.5, 0.7), N) <= 0.3 * 8 * N * N


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
    # harmonics, X a cosine and Y a sine series, so it is split: the
    # weighted column sums of its N/4 + 1 rows catch it. Turned by 0.3 it is
    # only folded: the column sums of L and R catch it
    for theta in (0.0, 0.3):
        c, s = math.cos(theta), math.sin(theta)
        C = Contour(np.array([c, 0.0, 0.0]), np.array([0.0, 0.0, 0.5 * s]),
                    np.array([-s, 0.0, 0.0]), np.array([0.0, 0.0, 0.5 * c]))
        assert C.centrally_symmetric
        assert C.mirror_symmetric == (theta == 0.0)
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
