import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapmodes import (
    ConsistencyError,
    Contour,
    DipoleStrengths,
    ValidationError,
    analytic_dipoles,
    make_circle,
    make_ellipse,
    make_fourier,
    read_fourier_file,
)
from trapmodes import contour as contour_mod
from trapmodes.contour import (
    _convex_clear,
    _diameter,
    _sample_t,
    _self_intersects,
    _signed_area,
)

from goldens import EGG, GOLD


def test_circle_area_and_diameter():
    for r in (0.3, 1.0, 2.5):
        C = make_circle(r)
        assert C.area == pytest.approx(math.pi * r * r, rel=1e-13)
        assert C.diameter == pytest.approx(2.0 * math.sqrt(2.0) * r, rel=1e-3)


def test_ellipse_area_tilt_invariant():
    S0 = make_ellipse(1.5, 0.7, 0.0).area
    for th in (0.0, 0.3, 1.2, -0.8):
        assert make_ellipse(1.5, 0.7, th).area == pytest.approx(S0, rel=1e-13)
    assert S0 == pytest.approx(math.pi * 1.5 * 0.7, rel=1e-13)


def test_egg_area_golden(egg):
    assert egg.area == pytest.approx(GOLD["area_egg"], rel=1e-13)


def test_clockwise_input_is_reversed():
    # same circle traversed clockwise: sin_y coefficient negated
    C = make_fourier([1.0], [0.0], [0.0], [-1.0])
    assert C.reversed_input
    assert C.area == pytest.approx(math.pi, rel=1e-13)
    # the reversed parameterization coincides with the stock circle
    t = np.array([0.0, 0.25 * math.pi, 2.0])
    for got, want in zip(C.evaluate(t)[:2], make_circle(1.0).evaluate(t)[:2]):
        assert np.allclose(got, want, atol=1e-15)


def test_rejects_degenerate_and_self_intersecting():
    with pytest.raises(ValidationError):
        make_fourier([0.0], [0.0], [0.0], [0.0])  # a point
    with pytest.raises(ValidationError):
        make_fourier([1.0], [0.0], [0.0], [0.0])  # a segment, zero area
    with pytest.raises(ValidationError):
        # figure-eight: y at double frequency
        make_fourier([1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValidationError):
        make_fourier([1.0, math.nan], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValidationError):
        make_fourier([1.0], [0.0, 0.0], [0.0], [1.0])  # ragged lengths
    with pytest.raises(ValidationError):
        make_circle(-1.0)
    with pytest.raises(ValidationError):
        make_ellipse(1.0, 0.0)
    with pytest.raises(ValidationError, match="self-intersects"):
        # rank 1: a segment traced back and forth, whose sampled speed
        # stays above the speed gate
        make_fourier([1.0], [0.5], [2.0], [1.0])


def test_read_fourier_file_roundtrip(tmp_path, egg):
    p = tmp_path / "egg.txt"
    lines = ["# cos_x sin_x cos_y sin_y"]
    for j in range(len(EGG["cos_x"])):
        lines.append(" ".join(str(EGG[key][j])
                              for key in ("cos_x", "sin_x", "cos_y", "sin_y")))
    p.write_text("\n".join(lines) + "\n")
    C = read_fourier_file(p)
    t = np.linspace(0.0, 2.0 * math.pi, 13)
    for got, want in zip(C.evaluate(t)[:2], egg.evaluate(t)[:2]):
        assert np.allclose(got, want, rtol=0, atol=0)


def test_read_fourier_file_errors(tmp_path):
    with pytest.raises(ValidationError):
        read_fourier_file(tmp_path / "missing.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 0.0 0.0\n")  # three columns
    with pytest.raises(ValidationError):
        read_fourier_file(bad)


def test_analytic_circle_golden():
    d = analytic_dipoles("circle", r=2.0)
    assert (d.mu, d.kappa, d.nu) == (4.0, 4.0, 0.0)
    assert d.S == pytest.approx(4.0 * math.pi, rel=1e-15)


def test_analytic_ellipse_closed_forms():
    # axis-aligned: mu = a0(a0+b0)/2, kappa = b0(a0+b0)/2; the flat-plate
    # limit b0 -> 0 then gives mu = a0^2/2 and kappa = 0 (edgewise flow)
    d0 = analytic_dipoles("ellipse", a0=2.0, b0=1.0, theta0=0.0)
    assert d0.mu == pytest.approx(0.5 * 2.0 * 3.0, rel=1e-15)
    assert d0.kappa == pytest.approx(0.5 * 1.0 * 3.0, rel=1e-15)
    assert d0.nu == 0.0
    assert d0.S == pytest.approx(2.0 * math.pi, rel=1e-15)
    # tilted by pi/4: nu = (a0^2 - b0^2) sin cos / 2 = 3/4
    d1 = analytic_dipoles("ellipse", a0=2.0, b0=1.0, theta0=math.pi / 4.0)
    assert d1.nu == pytest.approx(0.75, rel=1e-14)
    # mu + kappa is tilt-invariant
    assert d1.mu + d1.kappa == pytest.approx(d0.mu + d0.kappa, rel=1e-14)
    with pytest.raises(ValidationError):
        analytic_dipoles("triangle")


@given(c=st.floats(0.2, 4.0))
@settings(max_examples=40, deadline=None)
def test_area_scales_quadratically(c):
    base = make_ellipse(1.2, 0.8, 0.3).area
    scaled = make_ellipse(1.2 * c, 0.8 * c, 0.3).area
    assert scaled == pytest.approx(c * c * base, rel=1e-11)


@given(th=st.floats(-1.5, 1.5))
@settings(max_examples=40, deadline=None)
def test_ellipse_reflection_negates_nu(th):
    d_plus = analytic_dipoles("ellipse", a0=1.7, b0=0.6, theta0=th)
    d_minus = analytic_dipoles("ellipse", a0=1.7, b0=0.6, theta0=-th)
    assert d_plus.nu == pytest.approx(-d_minus.nu, abs=1e-14)
    assert d_plus.mu == pytest.approx(d_minus.mu, rel=1e-14)


def test_dipole_strengths_validation():
    with pytest.raises(ConsistencyError):
        DipoleStrengths(mu=1.0, kappa=1.0, nu=0.0, S=-1.0)
    with pytest.raises(ConsistencyError):
        DipoleStrengths(mu=-1.0, kappa=1.0, nu=0.0, S=1.0)
    with pytest.raises(ConsistencyError):
        # delta = S/(2 pi mu) must stay below 1
        DipoleStrengths(mu=0.1, kappa=0.1, nu=0.0, S=3.0)
    d = DipoleStrengths(mu=1.0, kappa=1.0, nu=0.0, S=math.pi)
    assert d.delta == pytest.approx(0.5, rel=1e-15)


def _self_intersects_four_grids(x, y, tol) -> bool:
    """Proper-crossing test on the sampled closed polyline.

    Sign-product test on all non-adjacent segment pairs, with a small band of
    width ~tol treated as touching. Vectorized over the full pair grid.
    """
    n = len(x)
    px = np.column_stack([x, y])
    a = px
    bpt = np.roll(px, -1, axis=0)
    d = bpt - a  # segment vectors

    def cross(v, w):
        return v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]

    # pair grid: segment i = (a[i], b[i]), segment j = (a[j], b[j])
    ai = a[:, None, :]
    di = d[:, None, :]
    aj = a[None, :, :]
    dj = d[None, :, :]
    bj = bpt[None, :, :]
    bi = bpt[:, None, :]

    d1 = cross(di, aj - ai)
    d2 = cross(di, bj - ai)
    d3 = cross(dj, ai - aj)
    d4 = cross(dj, bi - aj)

    li = np.linalg.norm(d, axis=1)
    eps = (tol * li[:, None]) * (tol * li[None, :]) + 1e-300
    crossing = (d1 * d2 < eps) & (d3 * d4 < eps)

    idx = np.arange(n)
    adjacent = (
        (idx[:, None] == idx[None, :])
        | ((idx[:, None] + 1) % n == idx[None, :])
        | ((idx[None, :] + 1) % n == idx[:, None])
    )
    crossing &= ~adjacent
    return bool(np.any(crossing))


def _verdicts(cos_x, sin_x, cos_y, sin_y):
    """(one-matrix, four-grid) verdicts on the samples make_fourier checks."""
    C = Contour(*(np.asarray(c, dtype=float) for c in (cos_x, sin_x, cos_y, sin_y)))
    x, y = C.evaluate(_sample_t())[:2]
    tol = 1e-9 * _diameter(x, y)
    return _self_intersects(x, y, tol), _self_intersects_four_grids(x, y, tol)


# four coefficient arrays of one random order J = 1..6; most of these
# sections self-intersect and some are simple
_FOURIER_SECTIONS = st.integers(1, 6).flatmap(lambda J: st.lists(
    st.lists(st.floats(-1.0, 1.0), min_size=J, max_size=J), min_size=4, max_size=4))


@given(coeffs=_FOURIER_SECTIONS)
@settings(max_examples=200, deadline=None)
def test_self_intersects_matches_four_grid_oracle(coeffs):
    new, oracle = _verdicts(*coeffs)
    assert new == oracle


@pytest.mark.parametrize("c", sorted({*np.linspace(0.999, 1.001, 21).tolist(),
                                      1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 1e-8}))
def test_self_intersects_near_contact_matches_four_grid_oracle(c):
    # X = cos t, Y = (c - 1/2) sin t + sin(3 t)/2: the waist at x = 0 spans
    # y = 1 - c .. c - 1 and closes at c = 1; c = 1 + 1e-9 lies inside the
    # 1e-9 * diameter band and c = 1 + 1e-8 outside it
    new, oracle = _verdicts([1.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3, [c - 0.5, 0.0, 0.5])
    assert new == oracle
    assert new == (c <= 1.0 + 1e-9)


def _certified(coeffs) -> bool:
    """The certificate's verdict, checked against both full grids, on the
    samples over the diameter that make_fourier checks."""
    C = Contour(*(np.asarray(c, dtype=float) for c in coeffs))
    x, y = C.evaluate(_sample_t())[:2]
    diam = _diameter(x, y)
    if not sys.float_info.min <= diam < math.inf:  # refused before the check
        return False
    x, y = x / diam, y / diam
    clear = _convex_clear(x, y, 1e-9)
    if clear:
        assert not _self_intersects(x, y, 1e-9)
        assert not _self_intersects_four_grids(x, y, 1e-9)
    return clear


@st.composite
def _damped_sections(draw):
    """J = 1..6 sections; half with the harmonics above the first damped by
    1e-4 .. 1e-1, which makes most of those convex."""
    coeffs = draw(_FOURIER_SECTIONS)
    if draw(st.booleans()):
        damping = 10.0 ** draw(st.floats(-4.0, -1.0))
        coeffs = [[c[0], *(damping * v for v in c[1:])] for c in coeffs]
    return coeffs


@given(coeffs=_damped_sections())
@settings(max_examples=300, deadline=None)
def test_convex_certificate_implies_the_grids_accept(coeffs):
    _certified(coeffs)


@given(log_aspect=st.floats(0.0, 13.0), theta=st.floats(-math.pi, math.pi),
       clockwise=st.booleans())
@settings(max_examples=200, deadline=None)
def test_convex_certificate_on_thin_ellipses(log_aspect, theta, clockwise):
    b = (-1.0 if clockwise else 1.0) * 10.0 ** -log_aspect
    ct, sn = math.cos(theta), math.sin(theta)
    _certified(([ct], [b * sn], [-sn], [b * ct]))


@pytest.mark.parametrize("c", sorted({*np.linspace(0.999, 1.001, 21).tolist(),
                                      1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 1e-8}))
def test_convex_certificate_near_contact(c):
    # the near-contact waist family above is not convex: the full grid decides
    assert not _certified(([1.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3, [c - 0.5, 0.0, 0.5]))


def test_convex_certificate_refuses_a_multiply_wound_polygon():
    # X + iY = e^{3it}: 256 distinct samples, every turn of the same sign and
    # every near segment clear, but the polygon winds three times
    assert not _certified(([0.0, 0.0, 1.0], [0.0] * 3, [0.0] * 3, [0.0, 0.0, 1.0]))


# the sections that must be validated without the O(n^2) grid
_CONVEX_SECTIONS = {
    "circle": ([1.0], [0.0], [0.0], [1.0]),
    "clockwise_circle": ([1.0], [0.0], [0.0], [-1.0]),
    "ellipse_1e2": ([0.8], [0.006], [-0.6], [0.008]),
    "ellipse_1e4": ([1.0], [0.0], [0.0], [1e-4]),
    "tilted_ellipse_1e4": ([math.cos(0.7)], [1e-4 * math.sin(0.7)],
                           [-math.sin(0.7)], [1e-4 * math.cos(0.7)]),
    "egg": (EGG["cos_x"], EGG["sin_x"], EGG["cos_y"], EGG["sin_y"]),
    # perfbench's Fourier sections: sine series in X, cosine series in Y
    "fourier_j4": ([0.0] * 4, [1.1, 0.01, 0.003, 0.002],
                   [0.9, 0.02, -0.004, 0.001], [0.0] * 4),
}


@pytest.mark.parametrize("coeffs", _CONVEX_SECTIONS.values(), ids=_CONVEX_SECTIONS)
def test_convex_sections_skip_the_crossing_grid(coeffs, monkeypatch):
    def grid(*args):
        raise AssertionError("the O(n^2) crossing grid ran")

    monkeypatch.setattr(contour_mod, "_self_intersects", grid)
    make_fourier(*coeffs)


@pytest.mark.parametrize("sin_y, tables", [(1.0, 1), (-1.0, 2)],
                         ids=["counterclockwise", "clockwise"])
def test_validation_evaluates_each_sample_table_once(sin_y, tables, monkeypatch):
    # the input's table, and the reversed contour's for a clockwise input
    calls = []
    evaluate = Contour.evaluate
    monkeypatch.setattr(Contour, "evaluate",
                        lambda self, t: calls.append(len(t)) or evaluate(self, t))
    make_fourier([1.0], [0.0], [0.0], [sin_y])
    assert calls == [Contour.n_samples] * tables


def test_convex_section_validation_peak_memory():
    # the certificate's arrays have n entries: make_fourier stays far under
    # one n x n double array, which the crossing grid builds a dozen of
    n = Contour.n_samples
    make_fourier([1.5], [0.2], [-0.3], [0.7])
    tracemalloc.start()
    try:
        make_fourier([1.5], [0.2], [-0.3], [0.7])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * n / 4


def _both_orientations(cos_x, sin_x, cos_y, sin_y):
    # t -> -t reverses the orientation
    return [(cos_x, sin_x, cos_y, sin_y),
            (cos_x, [-v for v in sin_x], cos_y, [-v for v in sin_y])]


_KEPT_SECTIONS = (
    [([r], [0.0], [0.0], [r]) for r in (0.3, 1.0, 7.0)]
    + [([a * math.cos(th)], [b * math.sin(th)], [-a * math.sin(th)], [b * math.cos(th)])
       for a, b, th in ((1.5, 0.7, 0.4), (1.2, 0.8, 0.3), (0.9, 1.7, -1.1),
                        (2.0, 1e-3, 0.25), (1e-4, 3e-5, 2.9), (3e5, 1e5, 0.05),
                        # reversed, these samples round differently: the
                        # area and the diameter of (0.5, 0.8, 0.2), the
                        # diameter of (0.5, 0.5, 0.5)
                        (0.5, 0.8, 0.2), (0.5, 0.5, 0.5))]
    + [(EGG["cos_x"], EGG["sin_x"], EGG["cos_y"], EGG["sin_y"])])
_KEPT_CASES = [case for coeffs in _KEPT_SECTIONS for case in _both_orientations(*coeffs)]


@pytest.mark.parametrize("coeffs", _KEPT_CASES)
def test_kept_area_and_diameter_match_the_samples_bit_for_bit(coeffs):
    # every contour's geometry equals its evaluated samples bit for bit:
    # built bare, and validated (a clockwise input reversed)
    bare = Contour(*(np.asarray(c, dtype=float) for c in coeffs))
    for C in (bare, make_fourier(*coeffs)):
        samples = C.evaluate(_sample_t())[:4]
        assert all(np.array_equal(a, b) for a, b in zip(C.samples, samples))
        assert C.diameter == _diameter(*samples[:2])
        assert C.area == _signed_area(*samples)


# (coefficients, verdict at unit scale): simple, clockwise, a figure-eight,
# a rank-1 segment and a waist 1e-8 wide (outside the 1e-9 band)
_SCALE_CASES = [
    (([1.0], [0.0], [0.0], [1.0]), "simple"),
    (([1.0], [0.0], [0.0], [-1.0]), "reversed"),
    (([1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]), "self-intersects"),
    (([1.0], [0.5], [2.0], [1.0]), "self-intersects"),
    (([1.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3, [0.5 + 1e-8, 0.0, 0.5]), "simple"),
]


def _verdict(coeffs):
    try:
        C = make_fourier(*coeffs)
    except ValidationError as exc:
        return "self-intersects" if "self-intersects" in str(exc) else str(exc)
    return "reversed" if C.reversed_input else "simple"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeffs, want", _SCALE_CASES)
def test_validation_verdict_does_not_depend_on_scale(coeffs, want):
    for e in range(-300, 301, 20):
        scaled = [[10.0 ** e * c for c in arr] for arr in coeffs]
        assert _verdict(scaled) == want, e
