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

The resolvent N0 = (I + M)^{-1} gives the dipole coefficients as boundary
quadratures and the stream function of vertical flow past the section as
psi = Y - 2 N0 Y on the contour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contour import Contour, DipoleStrengths, area
from .errors import ConsistencyError, ValidationError

GAUSS_TOL = 1e-8


@dataclass
class NystromSystem:
    """Factored discrete operator I + M for one contour at one resolution.

    Keeps the node geometry (points X, Y and velocities X', Y' at the nodes
    t) that the boundary quadratures read.
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


def assemble(C: Contour, N: int = 256) -> NystromSystem:
    """Build and factor the Nystrom system on N uniform nodes.

    N must be a power of two with N >= 32 (the convergence study doubles N).
    Raises ConsistencyError if the discrete Gauss law fails beyond 1e-8.
    """
    # imported here so that commands without a BEM never load scipy.linalg
    from scipy.linalg import get_lapack_funcs, lu_factor

    if N < 32 or (N & (N - 1)) != 0:
        raise ValidationError(f"N must be a power of two >= 32, got {N}")
    t = 2.0 * np.pi * np.arange(N) / N
    x, y, xd, yd, xdd, ydd = C.evaluate(t)

    dx = x[None, :] - x[:, None]
    dy = y[None, :] - y[:, None]
    dist2 = dx * dx + dy * dy
    np.fill_diagonal(dist2, 1.0)  # placeholder, diagonal overwritten below
    K = -(1.0 / math.pi) * (dx * (-yd[None, :]) + dy * xd[None, :]) / dist2
    np.fill_diagonal(K, (xd * ydd - xdd * yd) / (2.0 * math.pi * (xd * xd + yd * yd)))

    M = (2.0 * np.pi / N) * K
    gauss_residual = float(np.max(np.abs(M.sum(axis=1) - 1.0)))
    if gauss_residual > GAUSS_TOL:
        raise ConsistencyError(
            f"discrete Gauss law violated: residual {gauss_residual:.3e} "
            f"(N={N}); contour may be under-resolved"
        )
    A = np.eye(N) + M
    anorm = float(np.linalg.norm(A, 1))
    lu = lu_factor(A)
    gecon = get_lapack_funcs("gecon", (A,))
    rcond, info = gecon(lu[0], anorm, norm="1")
    if info != 0:  # pragma: no cover
        raise ConsistencyError(f"condition estimate failed (info={info})")
    cond_estimate = float(1.0 / rcond) if rcond > 0.0 else math.inf
    return NystromSystem(
        contour=C, N=N, t=t, x=x, y=y, xd=xd, yd=yd, lu=lu,
        gauss_residual=gauss_residual, cond_estimate=cond_estimate,
    )


def apply_n0(sys: NystromSystem, f) -> np.ndarray:
    """N0 f = (I + M)^{-1} f on the nodes."""
    f = np.asarray(f, dtype=float)
    if f.shape != (sys.N,):
        raise ValidationError(f"f must have shape ({sys.N},), got {f.shape}")
    from scipy.linalg import lu_solve

    return lu_solve(sys.lu, f)


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
    S = area(system.contour)
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
    return (area(system.contour) + h * float(np.dot(system.xd, psi))) / (2.0 * math.pi)
