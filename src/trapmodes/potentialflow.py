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

A section symmetric about both axes, r(-t) = (X(t), -Y(t)) and
r(t + pi) = -r(t) (every circle and every untilted ellipse; see
Contour.symmetric_about_both_axes), is split. Only the nodes t_0 ... t_{N/4}
are evaluated, the components the two reflections make zero at t = 0 and
pi/2 are set to 0, and the other nodes are sign flips of these, so
M[si, sj] = M[i, j] bit for bit for the half-period shift and both
reflections s: t -> -t and t -> pi - t. On odd vectors [v, -v], as X and Y
are, M acts as the N/2 x N/2 block L - R (L, R: the column halves of M's
first N/2 rows), which maps vectors even under t -> -t, as X is, to such
vectors, and odd ones, as Y is, to odd ones. On each kind it is an
N/4 x N/4 block, built from the N/4 + 1 kernel rows of s = t_0 ... t_{N/4}
and factored on its own; cond_estimate is the larger of their estimates,
and apply_n0 takes odd f and solves its two parts separately. The Gauss law
reads M's row sums through the symmetry: the orbits of the nodes 0 and N/4
have two members, the others four. The nu quadratures have odd integrands
under t -> -t, so nu is exactly 0. Every other section, a tilted ellipse
included, is factored whole.

The resolvent N0 = (I + M)^{-1} gives the dipole coefficients as boundary
quadratures and the stream function of vertical flow past the section as
psi = Y - 2 N0 Y on the contour. The LU, its solves and the condition
estimate are LAPACK's dgetrf, dgetrs, dgecon and dlange from scipy's _flapack
extension, which _scipy.extension loads without the scipy.linalg package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scipy import extension
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
# _BLOCK tiles the N rows of a whole MT exactly; the N/4 + 1 rows of a split
# section end in a ragged pass.
_BLOCK = 32
# the sign of X, Y, X', Y', X'', Y'' under t -> pi - t on a section
# symmetric about both axes: X(pi - t) = -X(t) and Y(pi - t) = Y(t)
_PI_MINUS_T = (-1.0, 1.0, 1.0, -1.0, -1.0, 1.0)


@dataclass
class NystromSystem:
    """Factored discrete operator I + M for one contour at one resolution.

    factors holds the (lu, piv) of each block factored: one for I + M, or
    two of order N/4, the blocks even and odd under t -> -t, for a split
    section.
    cond_estimate is the largest of the blocks' 1-norm condition estimates.
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
    factors: tuple
    gauss_residual: float
    cond_estimate: float

    @property
    def split(self) -> bool:
        return len(self.factors) == 2


def check_N(N: int) -> None:
    """N is a power of two from 32 to N_MAX (the convergence study doubles N)."""
    if not 32 <= N <= N_MAX or (N & (N - 1)) != 0:
        raise ValidationError(f"N must be a power of two from 32 to {N_MAX}, got {N}")


def _nodes(C: Contour, t: np.ndarray) -> list:
    """X, Y, X', Y', X'', Y'' at the nodes t, as assemble takes them.

    A split section evaluates t_0 ... t_{N/4}, sets to 0 the components the
    reflections make zero there (Y, X', Y'' at 0; X, Y', X'' at pi/2, where
    cos(pi/2) would leave round-off), takes t_{N/2 - j} as the sign flips of
    t_j and the second half of the nodes as the negated first.
    """
    if not C.symmetric_about_both_axes:
        return list(C.evaluate(t))
    q = len(t) // 4
    x, y, xd, yd, xdd, ydd = C.evaluate(t[:q + 1])
    for v in (y, xd, ydd):
        v[0] = 0.0
    for v in (x, yd, xdd):
        v[q] = 0.0
    half = [np.concatenate([v, sign * v[q - 1:0:-1]])
            for v, sign in zip((x, y, xd, yd, xdd, ydd), _PI_MINUS_T)]
    return [np.concatenate([v, -v]) for v in half]


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
    x, y, xd, yd, xdd, ydd = _nodes(C, t)
    split = C.symmetric_about_both_axes
    h, q = N // 2, N // 4
    n = q + 1 if split else N  # the rows of MT that are built

    # M is built as its transpose MT[j, i] = M[i, j] in C order, so that
    # A = I + MT.T is already in the Fortran order getrf factors in place.
    # Row j of MT holds s = t_j and column i holds t = t_i; the numerator is
    # -(r(s) - r(t)) . m(s) = dx Y'(s) - dy X'(s). MT is filled `step` rows
    # at a time, with dx in MT itself and dy and dist2 in step-sized
    # scratch, so each step stays in cache and MT is the only N^2 array. A
    # split section builds its N/4 + 1 rows in scratch instead, sums their
    # columns and folds them, through OT = L - R, into its two blocks.
    step = min(_BLOCK, n)
    if split:
        # The odd block B maps a v even under t -> -t (v[N/2 - i] = -v[i],
        # so v[N/4] = 0; set by v[0 ... N/4 - 1]) to one, and an odd v
        # (v[N/2 - i] = v[i], so v[0] = 0; set by v[1 ... N/4]) to one. The
        # even block's column j is B[:, j] - B[:, N/2 - j] and the odd
        # block's B[:, j] + B[:, N/2 - j]; by M's symmetry, their transposes'
        # rows are OT[j, i] - OT[j, N/2 - i] and OT[j, i] + OT[j, N/2 - i],
        # with OT[j, N/2] = -OT[j, 0]. ET holds rows j = 0 ... N/4 - 1 of
        # the even block and FT rows 1 ... N/4 of the odd one, each with a
        # spare row. The orbits of nodes 0 and N/4 have two members, the
        # others four, so their kernel rows are halved (exactly): then each
        # row counts every column of M once in the Gauss sums, and rows 0
        # of ET and N/4 of FT do not come out doubled.
        ET, FT = np.empty((n, q)), np.empty((n, q))
        odd = np.empty((step, h + 1))
        rows_out, colsum = np.empty((step, N)), np.zeros(N)
    else:
        MT = np.empty((N, N))
    dy_rows = np.empty((step, N))
    dist2_rows = np.empty((step, N))
    curvature = (xd * ydd - xdd * yd) / (2.0 * math.pi * (xd * xd + yd * yd))
    for start in range(0, n, step):
        m = min(step, n - start)  # a split section's last pass is ragged
        rows = slice(start, start + m)
        dy, dist2 = dy_rows[:m], dist2_rows[:m]
        dx = np.subtract.outer(x[rows], x, out=rows_out[:m] if split else MT[rows])
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
        if split:
            if start == 0:  # the rows of t_0 and t_{N/4}
                dx[0] *= 0.5
            if start + m == n:
                dx[-1] *= 0.5
            colsum += dx.sum(axis=0)
            np.subtract(dx[:, :h], dx[:, h:], out=odd[:m, :h])
            odd[:m, h] = -odd[:m, 0]
            np.subtract(odd[:m, :q], odd[:m, h:q:-1], out=ET[rows])
            np.add(odd[:m, 1:q + 1], odd[:m, h - 1:q - 1:-1], out=FT[rows])

    # Row i of M sums to column i of MT; split, to the column sums of the
    # built rows at i and at its images under the shift and the two
    # reflections. Each built entry is in one such sum, so a NaN or infinite
    # entry fails this guard and A reaches LAPACK finite without a separate
    # scan (L - R overflows only near 1e308).
    if split:
        i = np.arange(N)
        rowsum = colsum + colsum[(i + h) % N] + colsum[-i % N] + colsum[(h - i) % N]
    else:
        rowsum = MT.sum(axis=0)
    gauss_residual = float(np.max(np.abs(rowsum - 1.0)))
    if not gauss_residual <= GAUSS_TOL:  # a NaN residual fails too
        raise ConsistencyError(
            f"discrete Gauss law violated: residual {gauss_residual:.3e} "
            f"(N={N}); contour may be under-resolved"
        )
    factored = [_factor(block) for block in ((ET[:q], FT[1:]) if split else (MT,))]
    return NystromSystem(
        contour=C, N=N, t=t, x=x, y=y, xd=xd, yd=yd,
        factors=tuple(f for f, _ in factored), gauss_residual=gauss_residual,
        cond_estimate=max(cond for _, cond in factored),
    )


def _factor(BT: np.ndarray) -> tuple:
    """((lu, piv), condition estimate) of I + BT.T, factored in place."""
    lapack = extension("linalg", "_flapack")
    A = BT.T
    np.fill_diagonal(A, A.diagonal() + 1.0)
    anorm = lapack.dlange("1", A)  # read in place, before getrf overwrites A
    lu, piv, info = lapack.dgetrf(A, overwrite_a=True)
    _check_info("dgetrf", info)
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    _check_info("dgecon", info)
    return (lu, piv), float(1.0 / rcond) if rcond > 0.0 else math.inf


def _check_info(routine: str, info: int) -> None:
    # a singular I + M (info > 0 from dgetrf) is a bug, not an input's fault
    if info != 0:
        raise ConsistencyError(f"LAPACK {routine} failed (info={info})")


def apply_n0(sys: NystromSystem, f) -> np.ndarray:
    """N0 f = (I + M)^{-1} f on the nodes.

    Split, f must be odd, f[j + N/2] = -f[j], as X and Y are, and its parts
    even and odd under t -> -t are solved on their own blocks. Raises
    ValueError if f holds a NaN or an infinity.
    """
    f = np.asarray_chkfinite(f, dtype=float)
    if f.shape != (sys.N,):
        raise ValidationError(f"f must have shape ({sys.N},), got {f.shape}")
    if not sys.split:
        return _getrs(sys.factors[0], f)
    h, q = sys.N // 2, sys.N // 4  # f = [fo, -fo] and N0 f = [uo, -uo]
    if np.any(f[:h] + f[h:]):
        raise ValidationError("f must be odd, f[j + N/2] = -f[j], on a split section")
    fo = f[:h]
    # image[i] is f at t_{N/2 - i}, i = 0 ... N/4 (at t_{N/2}, -fo[0]); f's
    # part even under t -> -t is (fo - image) / 2, set on t_0 ... t_{N/4 - 1},
    # and its odd part (fo + image) / 2, set on t_1 ... t_{N/4}
    image = np.concatenate([[-fo[0]], fo[:q - 1:-1]])
    ue = _getrs(sys.factors[0], 0.5 * (fo[:q] - image[:q]))
    uodd = _getrs(sys.factors[1], 0.5 * (fo[1:q + 1] + image[1:]))
    uo = (np.concatenate([ue, [0.0], -ue[:0:-1]])
          + np.concatenate([[0.0], uodd, uodd[-2::-1]]))
    return np.concatenate([uo, -uo])


def _getrs(lu: tuple, f: np.ndarray) -> np.ndarray:
    x, info = extension("linalg", "_flapack").dgetrs(*lu, f)
    _check_info("dgetrs", info)
    return x


def dipoles_bem(system: NystromSystem) -> DipoleStrengths:
    """Dipole coefficients of the system's section by boundary quadrature.

    mu    = -(1/pi) int X'(t) (N0 Y)(t) dt
    kappa = +(1/pi) int Y'(t) (N0 X)(t) dt
    nu    = -(1/pi) int X'(t) (N0 X)(t) dt  =  +(1/pi) int Y'(t) (N0 Y)(t) dt

    The two nu quadratures are computed independently and must agree; the
    first is returned. On a split system both integrands are odd under
    t -> -t, so nu is 0. Trapezoid rule throughout (spectral accuracy).
    """
    xd, yd = system.xd, system.yd
    h = 2.0 * np.pi / system.N
    u_y = apply_n0(system, system.y)
    u_x = apply_n0(system, system.x)
    mu = -(h / math.pi) * float(np.dot(xd, u_y))
    kappa = (h / math.pi) * float(np.dot(yd, u_x))
    if system.split:  # X' N0 X and Y' N0 Y are odd under t -> -t
        nu_a = nu_b = 0.0
    else:
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
