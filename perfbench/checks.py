"""Output checks for benchmark operations, independent of the package.

Every reference value is recomputed here with the standard library only, in
the style of ``scripts/generate_goldens.py``: the dispersion root by
bisection, derivatives by complex step, the dipole strengths of circles and
ellipses and the area of a Fourier section in closed form, and the four
leading-order formulas symbol by symbol. Nothing here imports ``trapmodes``,
so a defect in the package cannot hide itself from its own check.

``check_csv`` returns a list of problems; an empty list means the table is
correct.
"""

from __future__ import annotations

import cmath
import csv
import io
import math

# CSV columns of each table, as the CLI documents them in --help.
COLUMNS = {
    "cutoffs": ["beta", "b", "k", "Lambda1", "Lambda2", "tau1", "p1_zero",
                "q1", "q2"],
    "dipoles": ["shape", "r", "a0", "b0", "theta0", "N", "mu", "kappa", "nu",
                "S", "delta"],
    "trapped": ["beta", "b", "k", "side", "a", "epsilon", "shape", "mu", "S",
                "sigma", "lambda", "threshold", "omega", "D"],
    "resonance": ["beta", "b", "k", "side", "a", "epsilon", "shape", "mu",
                  "S", "re_sigma", "im_sigma", "rcal", "jcal",
                  "near_embedded", "decay_rate", "D", "D1"],
    "embedded": ["beta", "b", "k", "epsilon", "shape", "delta", "exists",
                 "a_star", "w", "tau0", "sigma", "diagnostics"],
    "f": ["alpha", "tau0", "a", "f", "has_root", "a_star"],
}

# Relative tolerances. The CSV carries 12 significant digits; formulas are
# compared well above that rounding, boundary quadrature against closed
# forms at the accuracy a smooth section reaches for N >= 256.
RTOL = 1e-9
BEM_RTOL = 1e-8
SYMMETRY_RTOL = 1e-9  # the package's |nu| <= 1e-9 mu symmetry rule


# ---- dispersion -------------------------------------------------------------

def lam1(tau, beta, b):
    T = math.tanh(b * tau)
    return (1.0 - beta) * tau * T / (1.0 + beta * T)


def lam1_prime(tau, beta, b, h=1e-150):
    z = tau + 1j * h
    T = cmath.tanh(b * z)
    return ((1.0 - beta) * z * T / (1.0 + beta * T)).imag / h


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tau1_of(beta, b, k):
    hi = k
    while lam1(hi, beta, b) < k:
        hi *= 2.0
    return bisect(lambda t: lam1(t, beta, b) - k, k, hi)


def q_factor(tau, beta, b):
    return (2.0 / (beta * tau**2)) * math.exp(-b * tau) * (
        math.cosh(b * tau) + beta * math.sinh(b * tau))


def p0_factor(tau, lam, beta, b):
    T = math.tanh(tau * b)
    return ((1.0 - beta * T) / (1.0 + beta * T)) * (lam + tau) * (
        lam - (1.0 - beta) * tau * T / (1.0 - beta * T))


def g_of(y, tau, lam):
    return tau * math.cosh(tau * y) + lam * math.sinh(tau * y)


def gp_of(y, tau, lam):
    return tau**2 * math.sinh(tau * y) + lam * tau * math.cosh(tau * y)


# ---- sections ---------------------------------------------------------------

def closed_dipoles(p):
    """(mu, kappa, nu, S) of a circle or ellipse; None for a Fourier section."""
    if p["shape"] == "circle":
        r = p["r"]
        return r * r, r * r, 0.0, math.pi * r * r
    if p["shape"] == "ellipse":
        a0, b0, th = p["a0"], p["b0"], p["theta0"]
        c2, s2, sc = math.cos(th) ** 2, math.sin(th) ** 2, math.sin(th) * math.cos(th)
        return (0.5 * (a0 * a0 * c2 + b0 * b0 * s2 + a0 * b0),
                0.5 * (a0 * a0 * s2 + b0 * b0 * c2 + a0 * b0),
                0.5 * (a0 * a0 - b0 * b0) * sc,
                math.pi * a0 * b0)
    return None


def fourier_area(harmonics):
    """pi sum_j j (cx_j sy_j - sx_j cy_j), exact for a truncated series."""
    return abs(math.pi * sum(j * (cx * sy - sx * cy)
                             for j, (cx, sx, cy, sy) in enumerate(harmonics, 1)))


# ---- comparison helpers ------------------------------------------------------

def _cell(text):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


class _Row:
    def __init__(self, where, cells, problems):
        self.where, self.cells, self.problems = where, cells, problems

    def close(self, col, ref, rtol=RTOL, scale=0.0):
        v = self.cells.get(col)
        if not isinstance(v, float) or not math.isfinite(v):
            self.problems.append(f"{self.where}: {col}={v!r}, expected {ref!r}")
        elif abs(v - ref) > rtol * max(abs(ref), scale):
            self.problems.append(
                f"{self.where}: {col}={v!r} differs from reference {ref!r} "
                f"(rtol {rtol:g})")

    def equal(self, col, ref):
        if self.cells.get(col) != ref:
            self.problems.append(
                f"{self.where}: {col}={self.cells.get(col)!r}, expected {ref!r}")

    def fact(self, ok, what):
        if not ok:
            self.problems.append(f"{self.where}: {what}")


# ---- per-table checks ---------------------------------------------------------

def _fluid_refs(p):
    beta, b, k = p["beta"], p["b"], p["k"]
    tau1 = tau1_of(beta, b, k)
    return {"Lam1": lam1(k, beta, b), "Lam2": k, "tau1": tau1,
            "p10": math.sqrt(tau1 * tau1 - k * k),
            "dl_k": lam1_prime(k, beta, b), "dl_t1": lam1_prime(tau1, beta, b)}


def _section_refs(row, p, fourier):
    """mu, nu, S used by the formulas; checks mu and S where closed forms exist."""
    closed = closed_dipoles(p)
    if closed is not None:
        mu, _, nu, S = closed
        row.close("mu", mu, BEM_RTOL)
        row.close("S", S, BEM_RTOL)
        return mu, nu, S
    S = fourier_area(fourier)
    row.close("S", S, RTOL)
    mu = row.cells.get("mu")
    row.fact(isinstance(mu, float) and mu > 0.0, f"mu={mu!r} must be positive")
    return (mu if isinstance(mu, float) else math.nan), 0.0, S


def _check_cutoffs(row, p, _fourier):
    f = _fluid_refs(p)
    k = p["k"]
    row.close("Lambda1", f["Lam1"])
    row.close("Lambda2", k)
    row.close("tau1", f["tau1"])
    tau1 = row.cells.get("tau1")
    if isinstance(tau1, float):
        row.fact(abs(lam1(tau1, p["beta"], p["b"]) - k) <= 1e-10 * k,
                 f"residual lambda1(tau1) - k = "
                 f"{lam1(tau1, p['beta'], p['b']) - k:.3e} exceeds 1e-10 k")
    row.close("p1_zero", f["p10"])
    row.close("q1", math.sqrt(2.0 * k * f["Lam1"] / f["dl_k"]))
    row.close("q2", k * math.sqrt(2.0))


def _check_dipoles(row, p, fourier):
    row.close("N", float(p["N"]), 0.0)
    closed = closed_dipoles(p)
    if closed is not None:
        mu, kappa, nu, S = closed
        row.close("mu", mu, BEM_RTOL)
        row.close("kappa", kappa, BEM_RTOL)
        row.close("nu", nu, BEM_RTOL, scale=mu)
        row.close("S", S, BEM_RTOL)
    else:
        mu = row.cells.get("mu")
        S = fourier_area(fourier)
        row.close("S", S)
        row.close("nu", 0.0, BEM_RTOL, scale=mu if isinstance(mu, float) else 1.0)
    mu, S = row.cells.get("mu"), row.cells.get("S")
    if isinstance(mu, float) and isinstance(S, float) and mu > 0.0:
        row.close("delta", S / (2.0 * math.pi * mu))
        row.fact(0.0 < S / (2.0 * math.pi * mu) < 1.0, "delta outside (0, 1)")


def _trapped_ref(p, f, mu, S):
    beta, b, k, a, eps = p["beta"], p["b"], p["k"], p["a"], p["epsilon"]
    alpha = 1.0 - beta
    Lam1, Lam2 = f["Lam1"], f["Lam2"]
    q1 = math.sqrt(2.0 * k * Lam1 / f["dl_k"])
    if p["side"] == "U":
        D = alpha / beta * math.exp(-b * k) / (
            q_factor(k, beta, b) * f["dl_k"] * (Lam2 - Lam1) * q1)
        g1, gp1 = g_of(-a, k, Lam1), gp_of(-a, k, Lam1)
        sigma = 2 * eps**2 * D * math.exp(-b * k) * (
            S * g1**2 + 2 * math.pi * mu * gp1**2 / k**2)
    else:
        D = -math.exp(-k * a) * p0_factor(k, Lam1, beta, b) / (Lam2 - Lam1) * (
            k / (q1 * f["dl_k"]))
        sigma = 0.5 * eps**2 * D * math.exp(-a * k) * k * (S + 2 * math.pi * mu)
    return D, sigma


def _check_trapped(row, p, fourier):
    f = _fluid_refs(p)
    mu, _, S = _section_refs(row, p, fourier)
    D, sigma = _trapped_ref(p, f, mu, S)
    row.close("D", D)
    row.close("sigma", sigma)
    lam = f["Lam1"] * (1.0 - sigma * sigma)
    row.close("lambda", lam)
    row.close("threshold", f["Lam1"])
    if p.get("g") is None:
        row.equal("omega", None)
    else:
        row.close("omega", math.sqrt(p["g"] * lam))


def _resonance_ref(p, f, mu, nu, S):
    """(re, im, im_scale, D, D1, rcal, jcal, rcal_scale) at leading order."""
    beta, b, k, a, eps = p["beta"], p["b"], p["k"], p["a"], p["epsilon"]
    alpha = 1.0 - beta
    Lam1, Lam2, tau1, p10 = f["Lam1"], f["Lam2"], f["tau1"], f["p10"]
    q2 = k * math.sqrt(2.0)
    if p["side"] == "U":
        D = 4 * math.exp(-a * k) / (q_factor(k, beta, b) * (Lam2 - Lam1) * q2)
        re = 0.5 * eps**2 * D * k**2 * math.exp(-a * k) * (S + 2 * math.pi * mu)
        D1 = Lam2 * tau1 / (q_factor(tau1, beta, b) * f["dl_t1"] * p10 * (tau1 - Lam2))
        g2, gp2 = g_of(-a, tau1, Lam2), gp_of(-a, tau1, Lam2)
        rcal = k * S * g2 + 2 * math.pi * mu * gp2
        # Rcal cancels near the embedded submergence; judge it on its terms
        rcal_scale = abs(k * S * g2) + abs(2 * math.pi * mu * gp2)
        jcal = 2 * math.pi * nu * p10 * g2
        pre = eps**4 * (alpha * k / (beta * tau1**3)) * D * D1 * math.exp(
            -a * k - 2 * b * tau1)
        return (re, pre * (rcal**2 + jcal**2),
                pre * (rcal_scale**2 + jcal**2), D, D1, rcal, jcal, rcal_scale)
    D = math.exp(-a * k) * p0_factor(k, Lam2, beta, b) * k / ((Lam2 - Lam1) * q2)
    re = 0.5 * eps**2 * D * math.exp(-a * k) * k * (S + 2 * math.pi * mu)
    D1 = -p0_factor(tau1, Lam2, beta, b) * tau1 / ((tau1 - k) * f["dl_t1"] * p10)
    im = (eps**4 / 4) * (k / tau1) * D * D1 * math.exp(-2 * a * tau1 - a * k) * (
        (k * S + 2 * math.pi * tau1 * mu) ** 2
        + (2 * math.pi * nu) ** 2 * (tau1**2 - k**2))
    return re, im, im, D, D1, None, None, 0.0


def _check_resonance(row, p, fourier):
    f = _fluid_refs(p)
    mu, nu, S = _section_refs(row, p, fourier)
    re, im, im_scale, D, D1, rcal, jcal, rscale = _resonance_ref(p, f, mu, nu, S)
    row.close("re_sigma", re)
    row.close("im_sigma", im, BEM_RTOL, scale=im_scale)
    row.close("D", D)
    row.close("D1", D1)
    if rcal is None:
        row.fact(all(isinstance(row.cells.get(c), float) and math.isnan(row.cells[c])
                     for c in ("rcal", "jcal")),
                 "rcal and jcal must be nan for side L")
    else:
        row.close("rcal", rcal, BEM_RTOL, scale=rscale)
        row.close("jcal", jcal, BEM_RTOL, scale=rscale)
    if p.get("g") is None:
        row.equal("decay_rate", None)
    else:
        cre, cim = row.cells.get("re_sigma"), row.cells.get("im_sigma")
        if isinstance(cre, float) and isinstance(cim, float):
            row.close("decay_rate", math.sqrt(p["k"] * p["g"]) * cre * cim)


def _check_embedded(row, p, fourier):
    f = _fluid_refs(p)
    b, k = p["b"], p["k"]
    closed = closed_dipoles(p)
    if closed is not None:
        mu, _, nu, S = closed
        row.close("delta", S / (2.0 * math.pi * mu), BEM_RTOL)
    else:
        S, nu = fourier_area(fourier), 0.0
    delta = row.cells.get("delta")
    if not (isinstance(delta, float) and 0.0 < delta < 1.0):
        row.fact(False, f"delta={delta!r} outside (0, 1)")
        return
    if closed is None:
        mu = S / (2.0 * math.pi * delta)
    t0 = f["tau1"] / k
    row.close("tau0", t0)
    w = math.atanh(t0 * (1.0 + delta) / (t0 * t0 + delta))
    row.close("w", w)
    a1 = w / (k * t0)
    if abs(nu) > SYMMETRY_RTOL * mu:
        row.equal("exists", False)
        row.fact("asymmetric" in str(row.cells.get("diagnostics")),
                 "an asymmetric section must be reported as such")
        return
    if abs(a1 - b) <= 1e-9 * b:
        return  # existence is decided at the rounding level here
    if a1 >= b:
        row.equal("exists", False)
        row.equal("a_star", None)
        row.fact("does not fit" in str(row.cells.get("diagnostics")),
                 "a* >= b must be reported as not fitting the layer")
        return
    row.equal("exists", True)
    row.close("a_star", a1)
    re = _resonance_ref({**p, "side": "U", "a": a1}, f, mu, 0.0, S)[0]
    row.close("sigma", re)


def f_circle(a, tau):
    """Unit-circle embedded-mode function 3 tau - (1 + 2 tau^2) tanh(a tau)."""
    return 3.0 * tau - (1.0 + 2.0 * tau * tau) * math.tanh(a * tau)


def _check_f(row, p, _fourier):
    k, b = p["k"], p["b"]
    t0 = tau1_of(p["beta"], b, k) / k
    row.close("alpha", 1.0 - p["beta"])
    row.close("tau0", t0)
    # f changes sign on the grid; judge it against the size of its terms
    row.close("f", f_circle(p["a"], t0), scale=3.0 * t0 + 1.0 + 2.0 * t0 * t0)
    row.equal("has_root", p["has_root"])
    mu, _, _, S = closed_dipoles(p)
    delta = S / (2.0 * math.pi * mu)
    a1 = math.atanh(t0 * (1.0 + delta) / (t0 * t0 + delta)) / (k * t0)
    if abs(a1 - b) <= 1e-9 * b:
        return  # whether a* fits the layer is decided at the rounding level
    if a1 < b:
        row.close("a_star", a1, BEM_RTOL)
    else:
        row.equal("a_star", None)


_CHECKS = {"cutoffs": _check_cutoffs, "dipoles": _check_dipoles,
           "trapped": _check_trapped, "resonance": _check_resonance,
           "embedded": _check_embedded, "f": _check_f}

# Input columns echoed into the table, compared with the inputs given.
_ECHO = ("beta", "b", "k", "a", "epsilon", "r", "a0", "b0", "theta0")


def check_csv(op, text: str) -> list[str]:
    """Problems found in the CSV `text` that the operation `op` printed."""
    problems = []
    table = list(csv.reader(io.StringIO(text)))
    columns = COLUMNS[op.what]
    if not table or table[0] != columns:
        return [f"header {table[0] if table else None!r}, expected {columns!r}"]
    expected = op.rows_params()
    if len(table) - 1 != len(expected):
        return [f"{len(table) - 1} rows, expected {len(expected)}"]
    if op.what == "f":  # has_root: a sign change of f anywhere on the grid
        first = expected[0]
        t0 = tau1_of(first["beta"], first["b"], first["k"]) / first["k"]
        f = [f_circle(p["a"], t0) for p in expected]
        has_root = any(f1 * f2 < 0.0 for f1, f2 in zip(f, f[1:]))
        expected = [{**p, "has_root": has_root} for p in expected]
    for i, (cells, p) in enumerate(zip(table[1:], expected)):
        if len(cells) != len(columns):
            problems.append(f"row {i}: {len(cells)} cells, expected {len(columns)}")
            continue
        row = _Row(f"row {i}", dict(zip(columns, map(_cell, cells))), problems)
        for col in _ECHO:
            if col in columns and p.get(col) is not None:
                row.close(col, p[col], 1e-11)
        for col in ("shape", "side"):
            if col in columns:
                row.equal(col, p.get(col))
        _CHECKS[op.what](row, p, op.fourier)
    return problems
