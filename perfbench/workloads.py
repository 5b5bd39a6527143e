"""Seeded generators of CLI operations for the three benchmark workloads.

An operation is one ``trapmodes`` command line (plus, for Fourier sections,
the coefficient file it names). The program sees only the argv and that
file; the effective inputs stay here so that ``checks`` can recompute every
output independently.

Each workload cycles through a fixed list of operation kinds, in an order
shuffled per cycle by the seed, and draws the parameters of each operation
from the seed. The cost of an operation depends on its kind (command, N,
grid size, section) and hardly at all on its parameters. The sections of the
kinds that take one rotate through circle, ellipse and Fourier, and a run
measures whole cycles, so every seed puts the same mix of work into a run
and only the inputs differ.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

WORKLOADS = ("cli-points", "sweep-fluid", "sweep-shape")

# The grid size of the repo's documented sweeps: the README's
# `sweep --what f --sweep a:0.01:0.99:50` and a 50-point a0 sweep of dipoles.
GRID = 50
POINT_N = 256
SECTIONS = ("circle", "ellipse", "fourier")
SHAPE_NS = (512, 1024)

FOURIER_FILE = "section.txt"
OUT_STEM = "out"

# Flags each table reads, in argv order.
_INPUTS = {
    "cutoffs": ("beta", "b", "k"),
    "dipoles": ("N",),
    "trapped": ("beta", "b", "k", "side", "a", "epsilon", "N", "g"),
    "resonance": ("beta", "b", "k", "side", "a", "epsilon", "N", "g"),
    "embedded": ("beta", "b", "k", "epsilon", "N"),
    "f": ("beta", "b", "k", "N"),
}
_SHAPE_FLAGS = {"circle": ("r",), "ellipse": ("a0", "b0", "theta0"),
                "fourier": ()}


def _num(x: float) -> float:
    """Round to 6 significant digits, the precision the argv carries."""
    return float(f"{x:.6g}")


@dataclass
class Op:
    """One CLI run: a table (`what`) at one point or over a 1-D grid."""

    what: str
    params: dict
    sweep: tuple | None = None  # (param, start, stop, count)
    fourier: list = field(default_factory=list)  # [(cx, sx, cy, sy), ...]

    def argv(self) -> list[str]:
        args = ["sweep", "--what", self.what] if self.sweep else [self.what]
        names = list(_INPUTS[self.what])
        if "shape" in self.params:
            shape = self.params["shape"]
            names += ["shape", *_SHAPE_FLAGS[shape]]
        swept = self.sweep[0] if self.sweep else None
        for name in names:
            value = self.params.get(name)
            if value is None or name == swept:
                continue
            args += [f"--{name}", value if isinstance(value, str) else repr(value)]
        if self.fourier:
            args += ["--fourier-file", FOURIER_FILE]
        if self.sweep:
            p, start, stop, count = self.sweep
            args += ["--sweep", f"{p}:{start!r}:{stop!r}:{count}"]
        return args + ["--out", OUT_STEM]

    def files(self) -> dict:
        if not self.fourier:
            return {}
        lines = [" ".join(repr(c) for c in h) for h in self.fourier]
        return {FOURIER_FILE: "\n".join(lines) + "\n"}

    def rows_params(self) -> list[dict]:
        """Effective inputs of each CSV row, in row order."""
        if not self.sweep:
            return [dict(self.params)]
        p, start, stop, count = self.sweep
        step = (stop - start) / (count - 1)  # numpy.linspace arithmetic
        rows = []
        for i in range(count):
            row = dict(self.params)
            row[p] = stop if i == count - 1 else i * step + start
            rows.append(row)
        return rows


def _fluid(rng: random.Random) -> dict:
    return {"beta": _num(rng.uniform(0.1, 0.9)), "b": _num(rng.uniform(0.5, 2.0)),
            "k": _num(rng.uniform(0.5, 2.0))}


def _submergence(rng: random.Random, side: str, b: float) -> float:
    if side == "U":
        return _num(rng.uniform(0.15, 0.85) * b)
    return _num(rng.uniform(0.1, 1.5))


def _ellipse(rng: random.Random, tilted: bool) -> dict:
    a0 = rng.uniform(0.7, 1.3)
    # axis ratio kept away from 1 so a tilted ellipse is clearly asymmetric
    ratio = rng.choice((rng.uniform(0.5, 0.8), rng.uniform(1.25, 2.0)))
    theta0 = rng.uniform(0.2, 1.2) if tilted else 0.0
    return {"shape": "ellipse", "a0": _num(a0), "b0": _num(a0 * ratio),
            "theta0": _num(theta0)}


def _fourier(rng: random.Random) -> tuple[dict, list]:
    """A section symmetric about the vertical axis with J = 2..4 harmonics.

    X is a sine series and Y a cosine series, so (-X(t), Y(t)) = (X(-t),
    Y(-t)) and nu = 0. The base is an ellipse with semi-axes in
    [0.7, 1.3]; higher harmonics are at most 0.08/j^2 each, far too small to
    make the speed vanish or the curve cross itself.
    """
    J = rng.randint(2, 4)
    harmonics = [(0.0, _num(rng.uniform(0.7, 1.3)), _num(rng.uniform(0.7, 1.3)), 0.0)]
    for j in range(2, J + 1):
        amp = 0.08 / (j * j)
        harmonics.append((0.0, _num(rng.uniform(-amp, amp)),
                          _num(rng.uniform(-amp, amp)), 0.0))
    return {"shape": "fourier"}, harmonics


def _section(rng: random.Random, kind: str) -> tuple[dict, list]:
    if kind == "circle":
        return {"shape": "circle", "r": _num(rng.uniform(0.5, 2.0))}, []
    if kind == "ellipse":
        return _ellipse(rng, tilted=rng.random() < 0.5), []
    return _fourier(rng)


def _point_op(rng: random.Random, what: str, section: str | None = None) -> Op:
    params = _fluid(rng)
    fourier = []
    if what != "cutoffs":
        shape, fourier = _section(rng, section)
        params.update(shape, N=POINT_N)
    if what in ("trapped", "resonance"):
        params["side"] = rng.choice("UL")
        params["a"] = _submergence(rng, params["side"], params["b"])
    if what in ("trapped", "resonance", "embedded"):
        params["epsilon"] = _num(rng.uniform(0.005, 0.08))
    if what in ("trapped", "resonance") and rng.random() < 0.5:
        params["g"] = 9.81
    return Op(what, params, fourier=fourier)


def _fluid_sweep_op(rng: random.Random, what: str, section: str | None = None) -> Op:
    op = _point_op(rng, what, section)
    p = op.params
    choices = {"cutoffs": ("beta", "b", "k"),
               "embedded": ("beta", "b", "k", "epsilon")}.get(
                   what, ("beta", "b", "k", "a", "epsilon"))
    param = rng.choice(choices)
    if param == "beta":
        lo, hi = rng.uniform(0.1, 0.3), rng.uniform(0.6, 0.9)
    elif param == "b":
        lo, hi = rng.uniform(0.6, 1.0), rng.uniform(1.5, 2.5)
        if p.get("side") == "U":  # a < b at every grid point
            p["a"] = _num(0.4 * _num(lo))
    elif param == "k":
        lo, hi = rng.uniform(0.3, 0.8), rng.uniform(1.5, 2.5)
    elif param == "a":
        if p["side"] == "U":
            lo, hi = 0.1 * p["b"], 0.9 * p["b"]  # a < b
        else:
            lo, hi = rng.uniform(0.1, 0.3), rng.uniform(1.0, 2.0)
    else:  # epsilon
        lo, hi = rng.uniform(0.005, 0.01), rng.uniform(0.05, 0.1)
    op.sweep = (param, _num(lo), _num(hi), GRID)
    return op


def _f_sweep_op(rng: random.Random) -> Op:
    """`sweep --what f`: the unit-circle root function over a in (0, 1].

    It reads only delta from the section, so the section is a circle or an
    ellipse, whose delta the checks know in closed form.
    """
    params = {**_fluid(rng), "N": POINT_N}
    if rng.random() < 0.5:
        params.update(shape="circle", r=_num(rng.uniform(0.5, 2.0)))
    else:
        params.update(_ellipse(rng, tilted=rng.random() < 0.5))
    lo, hi = rng.uniform(0.01, 0.05), rng.uniform(0.9, 0.99)
    return Op("f", params, sweep=("a", _num(lo), _num(hi), GRID))


def _shape_sweep_op(rng: random.Random, what: str, N: int) -> Op:
    params = {**_fluid(rng), "N": N}
    if rng.random() < 0.3:
        params.update(shape="circle")
        param, lo, hi = "r", rng.uniform(0.5, 0.8), rng.uniform(1.2, 2.0)
    else:
        params.update(_ellipse(rng, tilted=True))
        param = rng.choice(("a0", "b0", "theta0"))
        if param == "theta0":
            lo, hi = rng.uniform(0.0, 0.3), rng.uniform(1.0, 1.5)
        else:
            # aspect ratio stays within 2 over the whole grid
            other = params["b0" if param == "a0" else "a0"]
            lo, hi = other * rng.uniform(0.5, 0.8), other * rng.uniform(1.25, 2.0)
    if what != "dipoles":
        params["side"] = rng.choice("UL")
        params["a"] = _submergence(rng, params["side"], params["b"])
        params["epsilon"] = _num(rng.uniform(0.005, 0.08))
    return Op(what, params, sweep=(param, _num(lo), _num(hi), GRID))


def kinds(workload: str) -> list:
    """Operation kinds of one cycle: (generator, arguments, takes a section)."""
    if workload == "cli-points":
        return [(_point_op, ("cutoffs",), False)] + [
            (_point_op, (w,), True)
            for w in ("dipoles", "trapped", "resonance", "embedded")]
    if workload == "sweep-fluid":
        # the three tables that solve a BEM at every point come twice, so the
        # median process is one of them, not the edge between them and the
        # start-up-bound cutoffs and f sweeps
        return [(_fluid_sweep_op, ("cutoffs",), False), (_f_sweep_op, (), False)] + [
            (_fluid_sweep_op, (w,), True)
            for w in ("trapped", "resonance", "embedded") for _ in range(2)]
    if workload == "sweep-shape":
        return [(_shape_sweep_op, (w, N), False)
                for w in ("dipoles", "trapped", "resonance") for N in SHAPE_NS]
    raise ValueError(f"unknown workload {workload!r}")


def cycles(workload: str, seed: int, stream: str = "measure"):
    """Endless, reproducible stream of cycles (lists of Ops, one per kind).

    `stream` names an independent stream of the same workload, so that
    warm-up operations do not shift the measured ones.
    """
    rng = random.Random(f"{workload}:{seed}:{stream}")
    sections = itertools.cycle(SECTIONS)
    while True:
        cycle = kinds(workload)
        rng.shuffle(cycle)
        yield [make(rng, *args, *([next(sections)] if sectioned else []))
               for make, args, sectioned in cycle]
