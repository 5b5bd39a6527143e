"""Exterior potential flow around a section by a Nystrom boundary method.

The double-layer kernel of the section's boundary integral equation is

    K(t, s) = -(1/pi) [ (r(s) - r(t)) . m(s) ] / |r(s) - r(t)|^2,
    m(s) = (-Y'(s), X'(s)),

which is smooth on a smooth contour; its diagonal value is the curvature
limit (X'Y'' - X''Y') / (2 pi (X'^2 + Y'^2)). On the unit circle K is the
constant 1/(2 pi). The trapezoidal rule on a uniform parameter grid is
spectrally accurate for this periodic smooth kernel, so the Nystrom matrix
is simply M[i, j] = (2 pi / N) K(t_i, t_j) with the diagonal replaced by its
limit, and the discrete operator is A = I + M.

Two identities pin the discretization and are enforced at assembly time:
the Gauss law M 1 = 1 (each row of M sums to one) and consequently
N0 1 = (I + M)^{-1} 1 = 1/2.

A centrally symmetric section, r(t + pi) = -r(t) (every circle and ellipse;
see Contour.centrally_symmetric), is folded: its nodes t_j and t_{j + N/2}
are negatives of each other, so M commutes with the half-period shift bit for
bit and acts as the N/2 x N/2 block L + R on even vectors [v, v] and L - R on
odd ones [v, -v] (L, R: the column halves of M's first N/2 rows). X and Y are
odd, so only the odd block is built and factored, cond_estimate is its estimate
and apply_n0 takes odd f; the Gauss law reads the column sums of L and R.

The resolvent N0 = (I + M)^{-1} gives the dipole coefficients as boundary
quadratures and the stream function of vertical flow past the section as
psi = Y - 2 N0 Y on the contour.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .contour import Contour, DipoleStrengths
from .errors import ConsistencyError, ValidationError

GAUSS_TOL = 1e-8
# Section diameters the BEM accepts, and its largest N. The kernel squares
# node distances (about diameter / N) and the dipole quadratures sum N
# products of two lengths; with the diameter in this window both stay inside
# the normal double range for N up to N_MAX.
DIAMETER_RANGE = (1e-150, 1e150)
N_MAX = 4096
# Rows of the kernel built per pass: a block of MT and its two scratch arrays
# take 768 kB at N = 1024. Every accepted N is a power of two >= 32, so
# min(_BLOCK, rows) tiles the N or N/2 rows built exactly.
_BLOCK = 32


@dataclass
class NystromSystem:
    """Factored discrete operator I + M for one contour at one resolution.

    lu is the (lu, piv) of I + M, or of order N/2 of a folded section's odd
    block I + L - R. Keeps the node geometry (points X, Y and velocities
    X', Y' at the nodes t) that the boundary quadratures read.
    """

    contour: Contour
    N: int
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    xd: np.ndarray
    yd: np.ndarray
    lu: tuple
    gauss_residual: float
    cond_estimate: float


def check_N(N: int) -> None:
    """N is a power of two from 32 to N_MAX (the convergence study doubles N)."""
    if not 32 <= N <= N_MAX or (N & (N - 1)) != 0:
        raise ValidationError(f"N must be a power of two from 32 to {N_MAX}, got {N}")


def assemble(C: Contour, N: int = 256) -> NystromSystem:
    """Build and factor the Nystrom system on N uniform nodes (see check_N).

    Raises ConsistencyError if the section's diameter is outside
    DIAMETER_RANGE ("out of double range"), if the discrete Gauss law
    fails beyond 1e-8 or if LAPACK reports a failure.
    """
    check_N(N)
    diam = C.diameter
    if not DIAMETER_RANGE[0] <= diam <= DIAMETER_RANGE[1]:
        raise ConsistencyError(
            f"section diameter {diam:.3e} is out of double range for the BEM "
            f"(accepted: {DIAMETER_RANGE[0]:g} to {DIAMETER_RANGE[1]:g})")
    t = 2.0 * np.pi * np.arange(N) / N
    folded = C.centrally_symmetric
    n = N // 2 if folded else N  # the rows of MT that are built
    nodes = C.evaluate(t[:n])  # a folded section's other N/2 are their negation
    x, y, xd, yd, xdd, ydd = [np.concatenate([v, -v]) for v in nodes] if folded else nodes

    # M is built as its transpose MT[j, i] = M[i, j] in C order, so that
    # A = I + MT.T is already in the Fortran order getrf factors in place.
    # Row j of MT holds s = t_j and column i holds t = t_i; the numerator is
    # -(r(s) - r(t)) . m(s) = dx Y'(s) - dy X'(s). MT is filled `step` rows
    # at a time, with dx in MT itself and dy and dist2 in step-sized
    # scratch, so each step stays in cache and MT is the only N^2 array. A
    # folded section builds its first N/2 rows in scratch instead, sums
    # their columns and folds them into OT = L - R, its only large array.
    BT = np.empty((n, n))  # MT, or a folded section's OT
    step = min(_BLOCK, n)
    rows_out = np.empty((step, N)) if folded else None
    colsum = np.zeros(N)
    dy = np.empty((step, N))
    dist2 = np.empty((step, N))
    curvature = (xd * ydd - xdd * yd) / (2.0 * math.pi * (xd * xd + yd * yd))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        dx = np.subtract.outer(x[rows], x, out=rows_out if folded else BT[rows])
        np.subtract.outer(y[rows], y, out=dy)
        np.multiply(dx, dx, out=dist2)
        dist2 += dy * dy
        np.fill_diagonal(dist2[:, rows], 1.0)  # placeholder, overwritten below
        dx *= yd[rows, None]
        dy *= xd[rows, None]
        dx -= dy
        dx *= 1.0 / math.pi
        dx /= dist2
        np.fill_diagonal(dx[:, rows], curvature[rows])
        dx *= 2.0 * np.pi / N
        if folded:
            colsum += dx.sum(axis=0)
            np.subtract(dx[:, :n], dx[:, n:], out=BT[rows])

    # Row i of M sums to column i of MT, or folded to columns i and i + N/2
    # of its first N/2 rows. Each entry of MT, or of L and R, is in one such
    # sum, so a NaN or infinite entry fails this guard and A reaches LAPACK
    # finite without a separate scan (L - R overflows only near 1e308).
    rowsum = colsum[:n] + colsum[n:] if folded else BT.sum(axis=0)
    gauss_residual = float(np.max(np.abs(rowsum - 1.0)))
    if not gauss_residual <= GAUSS_TOL:  # a NaN residual fails too
        raise ConsistencyError(
            f"discrete Gauss law violated: residual {gauss_residual:.3e} "
            f"(N={N}); contour may be under-resolved"
        )
    lapack = _lapack()
    A = BT.T
    np.fill_diagonal(A, A.diagonal() + 1.0)
    anorm = lapack.dlange("1", A)  # read in place, before getrf overwrites A
    lu, piv, info = lapack.dgetrf(A, overwrite_a=True)
    _check_info("dgetrf", info)
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    _check_info("dgecon", info)
    return NystromSystem(
        contour=C, N=N, t=t, x=x, y=y, xd=xd, yd=yd,
        lu=(lu, piv), gauss_residual=gauss_residual,
        cond_estimate=float(1.0 / rcond) if rcond > 0.0 else math.inf,
    )


@functools.cache
def _lapack():
    """scipy's LAPACK extension module: dgetrf, dgetrs, dgecon and dlange.

    Loaded on first use, once per process, from its file in scipy's linalg
    directory, without importing the scipy.linalg package, which takes more
    than ten times as long. Bare scipy is imported first: it sets up the
    paths of the libraries the extension links. A scipy without that file
    serves scipy.linalg.lapack instead.
    """
    import sys
    from importlib.machinery import PathFinder
    from importlib.util import module_from_spec, spec_from_file_location

    import scipy

    name = "scipy.linalg._flapack"
    if name in sys.modules:  # loaded by scipy.linalg already
        return sys.modules[name]
    found = PathFinder.find_spec(
        "_flapack", [f"{root}/linalg" for root in scipy.__path__])
    if found is None:
        from scipy.linalg import lapack
        return lapack
    spec = spec_from_file_location(name, found.origin)
    module = module_from_spec(spec)
    sys.modules[name] = module  # a later scipy.linalg import reuses it
    spec.loader.exec_module(module)
    return module


def _check_info(routine: str, info: int) -> None:
    # a singular I + M (info > 0 from dgetrf) is a bug, not an input's fault
    if info != 0:
        raise ConsistencyError(f"LAPACK {routine} failed (info={info})")


def apply_n0(sys: NystromSystem, f) -> np.ndarray:
    """N0 f = (I + M)^{-1} f on the nodes.

    Folded, f must be odd, f[j + N/2] = -f[j], as X and Y are. Raises
    ValueError if f holds a NaN or an infinity.
    """
    f = np.asarray_chkfinite(f, dtype=float)
    if f.shape != (sys.N,):
        raise ValidationError(f"f must have shape ({sys.N},), got {f.shape}")
    if len(sys.lu[1]) == sys.N:  # the pivots: the factor's order
        return _getrs(sys.lu, f)
    h = sys.N // 2  # folded: f = [fo, -fo] and N0 f = [uo, -uo]
    if np.any(f[:h] + f[h:]):
        raise ValidationError("f must be odd, f[j + N/2] = -f[j], on a folded section")
    uo = _getrs(sys.lu, f[:h])
    return np.concatenate([uo, -uo])


def _getrs(lu: tuple, f: np.ndarray) -> np.ndarray:
    x, info = _lapack().dgetrs(*lu, f)
    _check_info("dgetrs", info)
    return x


def dipoles_bem(system: NystromSystem) -> DipoleStrengths:
    """Dipole coefficients of the system's section by boundary quadrature.

    mu    = -(1/pi) int X'(t) (N0 Y)(t) dt
    kappa = +(1/pi) int Y'(t) (N0 X)(t) dt
    nu    = -(1/pi) int X'(t) (N0 X)(t) dt  =  +(1/pi) int Y'(t) (N0 Y)(t) dt

    The two nu quadratures are computed independently and must agree; the
    first is returned. Trapezoid rule throughout (spectral accuracy).
    """
    xd, yd = system.xd, system.yd
    h = 2.0 * np.pi / system.N
    u_y = apply_n0(system, system.y)
    u_x = apply_n0(system, system.x)
    mu = -(h / math.pi) * float(np.dot(xd, u_y))
    kappa = (h / math.pi) * float(np.dot(yd, u_x))
    nu_a = -(h / math.pi) * float(np.dot(xd, u_x))
    nu_b = (h / math.pi) * float(np.dot(yd, u_y))
    S = system.contour.area
    if abs(nu_a - nu_b) > 1e-8 * max(1.0, S):
        raise ConsistencyError(
            f"nu quadratures disagree: {nu_a} vs {nu_b} (N={system.N})"
        )
    return DipoleStrengths(mu=mu, kappa=kappa, nu=nu_a, S=S)


def _stream_function(system: NystromSystem) -> np.ndarray:
    # psi = Y - 2 N0 Y on the nodes
    return system.y - 2.0 * apply_n0(system, system.y)


def boundary_potential(system: NystromSystem) -> np.ndarray:
    """Stream function psi of unit vertical flow past the section, on the nodes.

    psi|C = Y - 2 N0 Y, shifted to zero arclength mean. On the unit circle
    this is -sin t, i.e. the trace of -y/r^2.
    """
    psi = _stream_function(system)
    w = np.hypot(system.xd, system.yd)  # arclength weights (common h factor cancels)
    return psi - float(np.dot(w, psi) / np.sum(w))


def dipole_mu_flux(system: NystromSystem) -> float:
    """Vertical dipole coefficient via the flux identity

        mu = (1/(2 pi)) ( S + int_C n2 psi dl ),

    with n2 dl = X'(t) dt for the inward normal of a positively oriented
    contour. Independent cross-check of dipoles_bem.
    """
    psi = _stream_function(system)
    h = 2.0 * np.pi / system.N
    return (system.contour.area + h * float(np.dot(system.xd, psi))) / (2.0 * math.pi)
