"""Closed cross-section contours and their dipole coefficients.

A cylinder cross-section is a smooth closed curve given by a truncated
Fourier series with zero mean,

    X(t) = sum_j cx[j] cos(j t) + sx[j] sin(j t),    j = 1..J
    Y(t) = sum_j cy[j] cos(j t) + sy[j] sin(j t),

so circles and ellipses are J = 1 and derivatives are exact term-by-term
sums. The contour must be simple (no self-intersection) and is stored
positively oriented; with that orientation m(t) = (-Y'(t), X'(t)) is the
inward normal times the speed.

The dipole coefficients (mu, kappa, nu) describe the far field of the
exterior potential-flow problems around the section and are the only shape
data the spectral estimates need, together with the area S.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConsistencyError, ValidationError


@dataclass(frozen=True)
class DipoleStrengths:
    """Far-field dipole coefficients of a section, plus its area.

    mu    : vertical dipole coefficient (flow past the section in y)
    kappa : horizontal dipole coefficient
    nu    : mixed coefficient; zero for sections symmetric about a vertical axis
    S     : cross-section area
    """

    mu: float
    kappa: float
    nu: float
    S: float

    def __post_init__(self):
        if not (self.S > 0.0):
            raise ConsistencyError(f"section area must be positive, got S={self.S}")
        if not (self.mu > 0.0):
            raise ConsistencyError(f"vertical dipole mu must be positive, got {self.mu}")
        if not (0.0 < self.delta < 1.0):
            raise ConsistencyError(
                f"delta = S/(2 pi mu) = {self.delta} outside (0, 1)"
            )

    @property
    def delta(self) -> float:
        return self.S / (2.0 * math.pi * self.mu)


@dataclass(frozen=True)
class Contour:
    """Fourier representation of a simple closed curve, positively oriented.

    It evaluates its samples (X, Y, X', Y' at n_samples uniform t) once,
    when built, and keeps them with their diameter and signed area.
    """

    cos_x: np.ndarray
    sin_x: np.ndarray
    cos_y: np.ndarray
    sin_y: np.ndarray
    reversed_input: bool = field(default=False, compare=False)
    samples: tuple = field(init=False, compare=False, repr=False)
    diameter: float = field(init=False, compare=False)
    area: float = field(init=False, compare=False)
    # samples per period for validation and the area quadrature
    n_samples: ClassVar[int] = 256

    def __post_init__(self):
        samples = self.evaluate(_sample_t())[:4]
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "diameter", _diameter(*samples[:2]))
        # a section over about 1e154 across overflows its area to inf
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "area", _signed_area(*samples))

    @property
    def order(self) -> int:
        return len(self.cos_x)

    @property
    def centrally_symmetric(self) -> bool:
        """r(t + pi) = -r(t): every even harmonic compares equal to zero."""
        return not any(np.any(c[1::2]) for c in (self.cos_x, self.sin_x, self.cos_y, self.sin_y))

    @property
    def mirror_symmetric(self) -> bool:
        """r(-t) = (X(t), -Y(t)): every sin_x and cos_y compares equal to zero."""
        return not (np.any(self.sin_x) or np.any(self.cos_y))

    def evaluate(self, t):
        """Point, velocity and acceleration at t: (X, Y, X', Y', X'', Y'').

        All six come from one cos/sin table.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        j = np.arange(1, self.order + 1, dtype=float)
        jt = np.outer(t, j)
        c, s = np.cos(jt), np.sin(jt)
        x = c @ self.cos_x + s @ self.sin_x
        y = c @ self.cos_y + s @ self.sin_y
        sj, cj = s * j, c * j
        xd = -sj @ self.cos_x + cj @ self.sin_x
        yd = -sj @ self.cos_y + cj @ self.sin_y
        j2 = j * j
        cj2, sj2 = c * j2, s * j2
        xdd = -cj2 @ self.cos_x - sj2 @ self.sin_x
        ydd = -cj2 @ self.cos_y - sj2 @ self.sin_y
        return x, y, xd, yd, xdd, ydd


def _sample_t() -> np.ndarray:
    n = Contour.n_samples
    return 2.0 * np.pi * np.arange(n) / n


def _diameter(x, y) -> float:
    # Python floats, which overflow to inf without a warning
    return math.hypot(float(x.max()) - float(x.min()), float(y.max()) - float(y.min()))


def _signed_area(x, y, xd, yd) -> float:
    # trapezoid rule on (1/2) (X Y' - Y X') over one period of the samples;
    # exact for a band-limited contour once n_samples > 2 * order
    n = len(x)
    return float(0.5 * (2.0 * np.pi / n) * np.sum(x * yd - y * xd))


def _self_intersects(x, y, tol) -> bool:
    """Proper-crossing test on the sampled closed polyline.

    Segment i runs from p_i to p_{i+1} (indices mod n), d_i = p_{i+1} - p_i.
    Segments i and j cross when P[i, j] P[i, j+1] and P[j, i] P[j, i+1] are
    both below tol^2 |d_i| |d_j|, all four factors entries of the one matrix
    P[i, j] = cross(d_i, p_j - p_i) = |d_i| times the signed distance of p_j
    from segment i's line. So segment j touches segment i when its ends lie
    on either side of that line or the geometric mean of their distances
    from it is under tol sqrt(|d_j| / |d_i|), and the same holds with i and
    j swapped: the band is not tol wide. On a nearly straight stretch it
    holds segment i + 2, so a convex ellipse with b0/a0 under about 1.9e-6
    is refused as self-intersecting.
    The relation is symmetric, so only the non-adjacent pairs j >= i + 2 are kept.
    """
    p = np.column_stack([x, y])
    d = np.roll(p, -1, axis=0) - p
    P = (d[:, None, 0] * (p[None, :, 1] - p[:, None, 1])
         - d[:, None, 1] * (p[None, :, 0] - p[:, None, 0]))
    tl = tol * np.linalg.norm(d, axis=1)
    eps = tl[:, None] * tl[None, :] + 1e-300
    straddles = P * np.roll(P, -1, axis=1) < eps
    crossing = np.triu(straddles & straddles.T, 2)
    crossing[0, -1] = False  # segments 0 and n - 1 share p_0
    return bool(crossing.any())


# the round-off allowance of _convex_clear's distances, relative to the
# products of lengths they are made of: about 90 units in the last place,
# where each carries at most about 6
_ROUNDOFF = 1e-14


def _convex_clear(x, y, tol) -> bool:
    """O(n) proof that _self_intersects(x, y, tol) is False.

    True only when the closed polyline is strictly convex and, for every
    segment i, its two nearest non-adjacent segments clear its band. With
    P computed by the same expression as in _self_intersects:
    - P[i, i+2], P[i, i+3], P[i, i-2] and P[i, i-1] lie on one side of zero
      for every i, beyond round-off. P[i, i+2] is the turn
      cross(d_i, d_{i+1}) up to rounding, so every turn has that sign;
    - the turning angles sum to 2 pi, so the polygon winds once (a star
      polygon turns the same way at every vertex and winds more);
    - min(P[i, i+2] P[i, i+3], P[i, i-2] P[i, i-1]) exceeds 4 times the
      widest band tol^2 |d_i| max|d| of row i.
    On a convex polygon the distances of the vertices from segment i's line
    rise and then fall from p_{i+2} round to p_{i-1}, so those two products
    bound every other product of row i; the round-off allowance keeps the
    rounding of the other P from undoing the bound. False proves nothing:
    the caller then runs _self_intersects.
    """
    n = len(x)
    # the samples p_{-2} .. p_{n+3}, so that every shift below is a view
    xe = np.concatenate([x[-2:], x, x[:4]])
    ye = np.concatenate([y[-2:], y, y[:4]])
    dxe, dye = np.diff(xe), np.diff(ye)
    dx, dy = dxe[2:n + 2], dye[2:n + 2]  # d_i
    dxn, dyn = dxe[3:n + 3], dye[3:n + 3]  # d_{i+1}
    length = np.hypot(dx, dy)
    # P[i, i+s] for s = -2, -1, 2, 3
    pm2, pm1, p2, p3 = (dx * (ye[2 + s:n + 2 + s] - y) - dy * (xe[2 + s:n + 2 + s] - x)
                        for s in (-2, -1, 2, 3))
    sign = 1.0 if p2[0] > 0.0 else -1.0
    floor = _ROUNDOFF * math.hypot(float(np.ptp(x)), float(np.ptp(y))) * length
    if not all(np.all(sign * q > floor) for q in (pm2, pm1, p2, p3)):
        return False
    # each turning angle lies in (0, pi), so the sum is 2 pi times the winding
    turning = np.arctan2(sign * (dx * dyn - dy * dxn), dx * dxn + dy * dyn)
    if float(turning.sum()) > 3.0 * math.pi:
        return False
    band = tol * tol * length * float(length.max()) + 1e-300
    return bool(np.all(np.minimum(p2 * p3, pm2 * pm1) > 4.0 * band))


def make_fourier(cos_x, sin_x, cos_y, sin_y) -> Contour:
    """Build and validate a contour from its Fourier coefficients.

    Checks, in order: coefficient sanity, a positive diameter that is a
    normal double, nowhere-vanishing speed, simplicity of the sampled
    polyline (tolerance 1e-9 times the diameter), and orientation (a
    clockwise input is reversed in place and flagged). The last three see
    the samples divided by the diameter, so their verdict is the same at
    every scale. Simplicity is settled in O(n) by _convex_clear for a
    convex section and by the O(n^2) _self_intersects otherwise.
    """
    arrs = []
    for name, c in (("cos_x", cos_x), ("sin_x", sin_x), ("cos_y", cos_y), ("sin_y", sin_y)):
        arr = np.asarray(c, dtype=float).ravel()
        if arr.size == 0:
            raise ValidationError(f"{name} must contain at least one harmonic")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} contains non-finite coefficients")
        arrs.append(arr)
    if len({a.size for a in arrs}) != 1:
        raise ValidationError("all four coefficient arrays must have the same length")

    C = Contour(*[a.copy() for a in arrs])
    diam = C.diameter
    if diam <= 0.0:
        raise ValidationError("degenerate contour (zero diameter)")
    # under the smallest normal double the samples are too coarsely quantized
    # for the checks
    if not sys.float_info.min <= diam < math.inf:
        raise ConsistencyError(f"contour diameter {diam} is out of double range")
    # the checks see the samples divided by the diameter, so that their
    # verdict does not depend on the section's scale
    x, y, xd, yd = (v / diam for v in C.samples)
    if np.any(np.hypot(xd, yd) <= 1e-12):
        raise ValidationError("contour speed vanishes at a sample point")
    if not _convex_clear(x, y, 1e-9) and _self_intersects(x, y, 1e-9):
        raise ValidationError("contour self-intersects")

    if _signed_area(x, y, xd, yd) < 0.0:
        # t -> -t keeps cos terms and flips sin terms. The reversed samples
        # are not the input's in reverse order to the last bit, so the
        # reversed contour evaluates its own.
        C = Contour(C.cos_x, -C.sin_x, C.cos_y, -C.sin_y, reversed_input=True)
    return C


def check_circle(r: float) -> None:
    if not (r > 0.0):
        raise ValidationError(f"r (circle radius) must be positive, got {r}")


def check_ellipse(a0: float, b0: float) -> None:
    if not (a0 > 0.0):
        raise ValidationError(f"a0 (semi-axis) must be positive, got {a0}")
    if not (b0 > 0.0):
        raise ValidationError(f"b0 (semi-axis) must be positive, got {b0}")


def make_circle(r: float) -> Contour:
    """Circle of radius r centred at the origin."""
    check_circle(r)
    return make_fourier([r], [0.0], [0.0], [r])


def make_ellipse(a0: float, b0: float, theta0: float = 0.0) -> Contour:
    """Ellipse with semi-axes a0, b0, the a0 axis tilted by theta0.

    X(t) =  a0 cos t cos th + b0 sin t sin th
    Y(t) = -a0 cos t sin th + b0 sin t cos th

    theta0 is measured clockwise from the positive x axis; this is the
    convention under which the classical dipole formulas carry the sign
    nu = +(a0^2 - b0^2) sin th cos th / 2 (checked against the boundary
    method and an exterior conformal-map solution).
    """
    check_ellipse(a0, b0)
    ct, st = math.cos(theta0), math.sin(theta0)
    # an aspect ratio beyond about 5e5 is refused as self-intersecting (see
    # _self_intersects), and one beyond about 5e11 by the speed gate
    try:
        return make_fourier([a0 * ct], [b0 * st], [-a0 * st], [b0 * ct])
    except ValidationError as exc:
        raise ValidationError(f"a0, b0: {exc}") from exc


def read_fourier_file(path) -> Contour:
    """Read coefficients from a text file, one harmonic per line:

        cos_x[j] sin_x[j] cos_y[j] sin_y[j]      (j = 1..J, whitespace separated)

    Lines starting with '#' are comments.
    """
    try:
        data = np.loadtxt(path, ndmin=2)
    except Exception as exc:
        raise ValidationError(f"cannot read contour file {path}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 4:
        raise ValidationError(
            f"contour file must have 4 columns (cos_x sin_x cos_y sin_y), "
            f"got shape {data.shape}"
        )
    return make_fourier(data[:, 0], data[:, 1], data[:, 2], data[:, 3])


def tilt_dipoles(dip: DipoleStrengths, theta0: float) -> DipoleStrengths:
    """The dipoles of a section with nu = 0 (symmetric about both axes, as an
    untilted ellipse is) once it is tilted by theta0, clockwise as in
    make_ellipse and analytic_dipoles:

        mu    = mu0 cos^2 th + kappa0 sin^2 th
        kappa = mu0 sin^2 th + kappa0 cos^2 th
        nu    = (mu0 - kappa0) sin th cos th

    theta0 == 0 (-0.0 too) returns dip itself, so its nu stays +0.0.
    """
    if theta0 == 0.0:
        return dip
    c, s = math.cos(theta0), math.sin(theta0)
    c2, s2 = c * c, s * s
    return DipoleStrengths(mu=dip.mu * c2 + dip.kappa * s2,
                           kappa=dip.mu * s2 + dip.kappa * c2,
                           nu=(dip.mu - dip.kappa) * s * c, S=dip.S)


def analytic_dipoles(shape: str, r: float | None = None, a0: float | None = None,
                     b0: float | None = None, theta0: float = 0.0) -> DipoleStrengths:
    """Closed-form dipole coefficients for the canonical sections.

    circle radius r:
        mu = kappa = r^2, nu = 0, S = pi r^2
    ellipse (a0, b0, theta0):
        mu    = (a0^2 cos^2 th + b0^2 sin^2 th + a0 b0) / 2
        kappa = (a0^2 sin^2 th + b0^2 cos^2 th + a0 b0) / 2
        nu    = (a0^2 - b0^2) sin th cos th / 2
        S     = pi a0 b0
    """
    if shape == "circle":
        if r is None:
            raise ValidationError("r (circle radius) is required")
        check_circle(r)
        return DipoleStrengths(mu=r * r, kappa=r * r, nu=0.0, S=math.pi * r * r)
    if shape == "ellipse":
        if a0 is None or b0 is None:
            raise ValidationError(f"a0 and b0 (semi-axes) are required, got a0={a0}, b0={b0}")
        check_ellipse(a0, b0)
        c2 = math.cos(theta0) ** 2
        s2 = math.sin(theta0) ** 2
        sc = math.sin(theta0) * math.cos(theta0)
        return DipoleStrengths(
            mu=0.5 * (a0 * a0 * c2 + b0 * b0 * s2 + a0 * b0),
            kappa=0.5 * (a0 * a0 * s2 + b0 * b0 * c2 + a0 * b0),
            nu=0.5 * (a0 * a0 - b0 * b0) * sc,
            S=math.pi * a0 * b0,
        )
    raise ValidationError(f"unknown analytic shape {shape!r}")
