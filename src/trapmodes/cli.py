"""Batch front end.

Each subcommand computes one table, writes it to ``<out>.csv`` (also echoed
to stdout) together with a ``<out>.manifest.json`` recording the effective
inputs, the spectral context, BEM diagnostics and wall time. Numbers in the
CSV carry 12 significant digits so identical inputs give byte-identical
files. Defaults are the standard configuration (b = 1, k = 1, unit circle),
so e.g. ``trapmodes embedded --beta 0.5`` alone locates the special
submergence a* of the unit circle.

Exit codes: 0 success, 2 bad input (one-line diagnostic naming the offending
field on stderr), 3 internal consistency failure or a quantity out of double
range.

Options may also come from a ``--config`` file with flat ``key = value``
lines and ``#`` comments; command-line flags override the file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import stat
import sys
import time
import warnings

import numpy as np

from . import __version__
from .contour import (DipoleStrengths, check_circle, check_ellipse, make_circle,
                      make_ellipse, read_fourier_file, tilt_dipoles)
from .dispersion import FluidConfig, SpectralContext, spectral_context
from .embedded import a_star, check_a_grid, check_embedded_side, sweep_f
from .errors import ConsistencyError, ValidationError
from .potentialflow import assemble, check_N, dipoles_bem
from .spectra import (
    ProblemSetup,
    check_setup,
    resonance_lower,
    resonance_upper,
    trapped_lower,
    trapped_upper,
)

# The row function of each table (see _TABLES) starts its row from the run's
# own fields and adds the computed cells, and refuses a result cell out of
# double range (_check_results); _render_csv picks the table's columns. The
# shape parameters a section family ignores (_UNUSED_SHAPE_FIELDS) are
# blanked.


def _row_cutoffs(run: RunConfig, stages: _Stages) -> dict:
    stages.context(run)
    return {**vars(run), **stages.manifest["spectral_context"]}


def _row_dipoles(run: RunConfig, stages: _Stages) -> dict:
    stages.dipoles(run)
    return {**vars(run), **dict.fromkeys(_UNUSED_SHAPE_FIELDS[run.shape]),
            **stages.manifest["dipoles"]}


def _row_formula(run: RunConfig, stages: _Stages) -> dict:
    """The trapped or resonance row, by the formula of the run's side."""
    dip = stages.dipoles(run)
    ctx = stages.context(run)
    # looked up per call, so that rebinding these module globals takes effect
    if run.command == "trapped":
        fn = trapped_upper if run.side == "U" else trapped_lower
    else:
        fn = resonance_upper if run.side == "U" else resonance_lower
    res = fn(ProblemSetup(ctx=ctx, side=run.side, a=run.a, epsilon=run.epsilon,
                          dip=dip))
    row = _check_results({**vars(run), **vars(res), "mu": dip.mu, "S": dip.S,
                          "lambda": getattr(res, "lam", None)})
    # the formulas give lam = omega^2/g and sigma; only one cell needs g
    if run.g is None:
        return row
    if run.command == "resonance":
        column = "decay_rate"
        value = _root_of_product(run.k, run.g) * res.re_sigma * res.im_sigma
    else:
        column = "omega"
        value = _root_of_product(run.g, res.lam) if res.lam >= 0.0 else None
    if value is None:
        warnings.warn("lambda < 0 (sigma > 1): omega is left blank")
    elif math.isfinite(value):
        row[column] = value
    else:  # finite results whose conversion overflows
        warnings.warn(f"{column} is out of double range: left blank")
    return row


def _root_of_product(x: float, y: float) -> float:
    """sqrt(x y), also where x y overflows but its root does not; a finite
    sqrt(x y) keeps its bits."""
    root = math.sqrt(x * y)
    return root if math.isfinite(root) else math.sqrt(x) * math.sqrt(y)


def _row_embedded(run: RunConfig, stages: _Stages) -> dict:
    dip = stages.dipoles(run)
    ctx = stages.context(run)
    # the submergence field is solved for, not prescribed; seed with b/2
    res = a_star(ProblemSetup(ctx=ctx, side=run.side, a=0.5 * run.b,
                              epsilon=run.epsilon, dip=dip))
    return _check_results({**vars(run), **vars(res)})


# One entry per CSV table: (description, columns, the scalars a sweep may
# range over, the row function of one point). Each command but `sweep`
# computes the table of its name, and `sweep` computes any table, `f`
# included, over a grid; `f` has no point rows (see _run).
_TABLES = {
    "cutoffs": ("Cut-off values and threshold roots of the two branches.",
                "beta b k Lambda1 Lambda2 tau1 p1_zero q1 q2", "beta b k",
                _row_cutoffs),
    "dipoles": ("Dipole coefficients of the cross-section by boundary quadrature.",
                "shape r a0 b0 theta0 N mu kappa nu S delta", "r a0 b0 theta0",
                _row_dipoles),
    "trapped": ("Trapped-mode eigenvalue below the first cut-off.",
                "beta b k side a epsilon shape mu S sigma lambda threshold omega D",
                "beta b k a epsilon r a0 b0 theta0", _row_formula),
    "resonance": ("Complex resonance near the second cut-off.",
                  "beta b k side a epsilon shape mu S re_sigma im_sigma rcal "
                  "jcal near_embedded decay_rate D D1",
                  "beta b k a epsilon r a0 b0 theta0", _row_formula),
    "embedded": ("Special submergence turning the resonance into an embedded "
                 "trapped mode.",
                 "beta b k epsilon shape delta exists a_star w tau0 sigma diagnostics",
                 "beta b k epsilon r a0 b0 theta0", _row_embedded),
    "f": ("the circle root function", "alpha tau0 a f has_root a_star", "a", None),
}
COLUMNS = {name: columns.split() for name, (_, columns, _, _) in _TABLES.items()}
_SWEEPABLE = {name: tuple(params.split())
              for name, (_, _, params, _) in _TABLES.items()}
SWEEP_TARGETS = tuple(_TABLES)
COMMANDS = tuple(name for name in _TABLES if name != "f") + ("sweep",)
# The run fields each section family's untilted contour reads (_contour),
# and all the fields it reads: an ellipse also reads its tilt. The shape
# parameters a family ignores are blank in its rows and not sweepable with it.
_CONTOUR_FIELDS = {"circle": ("r",), "ellipse": ("a0", "b0"),
                   "fourier": ("fourier_file",)}
_SECTIONS = {**_CONTOUR_FIELDS, "ellipse": ("a0", "b0", "theta0")}
SHAPES = tuple(_SECTIONS)
_UNUSED_SHAPE_FIELDS = {shape: tuple(f for fields in _SECTIONS.values()
                                     for f in fields if f not in own)
                        for shape, own in _SECTIONS.items()}


def _field(default, text: str, **flag):
    """A run field's default, and the help text ('{default}' shows the
    default) and any further add_argument settings of its flag."""
    return dataclasses.field(default=default, metadata={"help": text, **flag})


@dataclasses.dataclass
class RunConfig:
    """The inputs of one run. Every field but `command` is set by the flag
    of its name (`_` spelt `-`) and by the config key of its name; its type
    parses both."""

    command: str
    beta: float = _field(0.5, "density ratio rho1/rho2 in (0, 1) [{default}]")
    b: float = _field(1.0, "upper layer depth [{default}]")
    k: float = _field(1.0, "axial wavenumber [{default}]")
    side: str = _field("U", "cylinder in upper (U) or lower (L) layer [{default}]",
                       choices=("U", "L"))
    a: float = _field(0.5, "submergence depth of the cylinder axis [{default}]; "
                           "ignored by 'embedded', which solves for it")
    epsilon: float = _field(0.01, "slenderness parameter [{default}]")
    shape: str = _field("circle", "cross-section family [{default}]", choices=SHAPES)
    r: float = _field(1.0, "circle radius [{default}]")
    a0: float = _field(1.0, "ellipse semi-axis along x before tilt [{default}]")
    b0: float = _field(1.0, "ellipse semi-axis along y before tilt [{default}]")
    theta0: float = _field(0.0, "ellipse tilt, radians clockwise [{default}]")
    fourier_file: str | None = _field(None, "4-column coefficient file (cos_x sin_x "
                                            "cos_y sin_y) for --shape fourier")
    N: int = _field(256, "boundary quadrature nodes, power of two [{default}]")
    g: float | None = _field(None, "gravitational acceleration; enables the omega "
                                   "and decay_rate columns")
    out: str | None = _field(None, "output stem; writes <out>.csv and "
                                   "<out>.manifest.json [trapmodes_<command>]")
    sweep: str | None = _field(None, "grid for the 'sweep' command",
                               metavar="PARAM:START:STOP:COUNT")
    what: str | None = _field(None, "which table the 'sweep' command produces",
                              choices=SWEEP_TARGETS)


_FIELDS = dataclasses.fields(RunConfig)[1:]  # all but command
# the annotations are strings (postponed evaluation)
_FIELD_TYPES = {f.name: {"float": float, "int": int, "str": str}[
    f.type.removesuffix(" | None")] for f in _FIELDS}
# the cells each table computes beyond the run's own fields
_COMPUTED = {name: [c for c in columns if c not in _FIELD_TYPES]
             for name, columns in COLUMNS.items()}


def read_config_file(path: str) -> dict:
    """Flat key = value pairs, # comments, blank lines ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValidationError(f"config: cannot read {path!r}: {exc}") from exc
    pairs = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValidationError(
                f"config: line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key not in _FIELD_TYPES:
            raise ValidationError(f"config: unknown key {key!r} (line {lineno})")
        conv = _FIELD_TYPES[key]
        try:
            pairs[key] = conv(value)
        except ValueError as exc:
            raise ValidationError(
                f"config key {key!r}: cannot parse {value!r} as {conv.__name__}"
            ) from exc
    return pairs


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="trapmodes",
        description="Trapped modes and resonances of thin submerged "
                    "cylinders in a two-layer fluid.",
    )
    top.add_argument("--version", action="version",
                     version=f"trapmodes {__version__}")
    # the flags every subcommand takes, declared once
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="key = value file; flags override it")
    for f in _FIELDS:
        flag = dict(f.metadata, help=f.metadata["help"].format(default=f.default))
        shared.add_argument("--" + f.name.replace("_", "-"),
                            type=_FIELD_TYPES[f.name], default=None, **flag)
    sub = top.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        if name == "sweep":
            descr = ("Run another command over a grid of one scalar parameter "
                     "(--what picks the command, --sweep the grid). --what f "
                     f"tabulates {_TABLES['f'][0]} (columns: "
                     f"{', '.join(COLUMNS['f'])}).")
        else:
            descr = f"{_TABLES[name][0]} Columns: {', '.join(COLUMNS[name])}"
        sub.add_parser(name, description=descr, parents=[shared])
    return top


def parse_run(argv=None) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    # the config file's values first; flags override them
    given = {} if ns.config is None else read_config_file(ns.config)
    given.update({key: value for key, value in vars(ns).items()
                  if key in _FIELD_TYPES and value is not None})
    run = RunConfig(command=ns.command, **given)
    for key, conv in _FIELD_TYPES.items():
        value = getattr(run, key)
        if conv is float and value is not None and not math.isfinite(value):
            raise ValidationError(f"{key} must be finite, got {value}")
    if run.g is not None and not run.g > 0.0:
        raise ValidationError(f"g must be positive, got {run.g}")
    for f in _FIELDS:
        value, choices = getattr(run, f.name), f.metadata.get("choices")
        if choices is not None and value is not None and value not in choices:
            raise ValidationError(
                f"{f.name} must be one of {choices}, got {value!r}")
    for key in ("sweep", "what"):
        if run.command != "sweep" and getattr(run, key) is not None:
            raise ValidationError(
                f"{key} applies only to the 'sweep' command, not to "
                f"{run.command!r}")
    if run.out is None:
        run.out = f"trapmodes_{run.command}"
    return run


def _parse_sweep(run: RunConfig):
    if run.sweep is None:
        raise ValidationError("sweep: --sweep PARAM:START:STOP:COUNT is required")
    if run.what is None:
        raise ValidationError("sweep: --what is required")
    parts = run.sweep.split(":")
    if len(parts) != 4:
        raise ValidationError(
            f"sweep: expected PARAM:START:STOP:COUNT, got {run.sweep!r}")
    param = parts[0].strip()
    allowed = _SWEEPABLE[run.what]
    if param not in allowed:
        raise ValidationError(
            f"sweep: parameter {param!r} not sweepable for --what {run.what} "
            f"(allowed: {', '.join(allowed)})")
    if param in _UNUSED_SHAPE_FIELDS[run.shape]:
        raise ValidationError(
            f"sweep: parameter {param!r} is not used by --shape {run.shape}")
    try:
        start, stop = float(parts[1]), float(parts[2])
        count = int(parts[3])
    except ValueError as exc:
        raise ValidationError(f"sweep: cannot parse {run.sweep!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError("sweep: start and stop must be finite")
    if not start < stop:
        raise ValidationError(
            f"sweep: need start < stop, got {start} >= {stop}")
    if count < 2:
        raise ValidationError(f"sweep: count must be >= 2, got {count}")
    try:
        return param, np.linspace(start, stop, count).tolist()
    except (MemoryError, ValueError) as exc:
        raise ValidationError(f"sweep: count {count} is too large: {exc}") from exc


def _fluid(run: RunConfig) -> FluidConfig:
    return FluidConfig(beta=run.beta, b=run.b, k=run.k)


def _points(run: RunConfig):
    """Stage 0: the run's table, its points (`f` has one) and its sweep grid
    (None for a point run). Before any stage runs, every point meets each
    field's own rule and the rules tying two fields its table reads, in the
    order the README gives."""
    if run.command != "sweep":
        table, grid, points = run.command, None, [run]
    else:
        param, grid = _parse_sweep(run)
        table = run.what
        points = [run] if table == "f" else [
            dataclasses.replace(run, command=table, **{param: v}) for v in grid]
    for point in points:
        if point.shape == "fourier" and point.fourier_file is None and table != "cutoffs":
            raise ValidationError("fourier_file: required when shape = fourier")
        if point.shape == "ellipse":  # the chosen section's fields first
            check_ellipse(point.a0, point.b0)
        check_circle(point.r)
        check_ellipse(point.a0, point.b0)
        check_N(point.N)
        _fluid(point)  # FluidConfig applies the fluid's rules
        # embedded solves for a, seeded with b/2
        check_setup(point.side, point.a, point.epsilon,
                    point.b if table in ("trapped", "resonance") else None)
        if table == "embedded":
            check_embedded_side(point.side)
    if table == "f":
        check_a_grid(grid)
    return table, points, grid


def _contour(run: RunConfig):
    """The run's section; an ellipse untilted, in its own frame (see _dipoles)."""
    if run.shape == "circle":
        return make_circle(run.r)
    if run.shape == "ellipse":
        return make_ellipse(run.a0, run.b0)
    try:
        return read_fourier_file(run.fourier_file)
    except ValidationError as exc:
        raise ValidationError(f"fourier_file: {exc}") from exc


def _record_dipoles(dip: DipoleStrengths, manifest: dict) -> DipoleStrengths:
    manifest["dipoles"] = {c: getattr(dip, c) for c in _COMPUTED["dipoles"]}
    return dip


def _dipoles(run: RunConfig, manifest: dict) -> DipoleStrengths:
    """Stage 1: contour, Nystrom system and dipoles, recorded into the manifest.

    An ellipse is solved untilted, where it is symmetric about both axes and
    assemble splits its system; _Stages.dipoles tilts its dipoles by theta0.
    """
    C = _contour(run)
    system = assemble(C, run.N)
    dip = _record_dipoles(dipoles_bem(system), manifest)
    manifest["bem"] = {"N": run.N, "gauss_residual": system.gauss_residual,
                       "cond_estimate": system.cond_estimate}
    if run.shape == "fourier":
        manifest["inputs"]["fourier_coefficients"] = [
            list(map(float, C.cos_x)), list(map(float, C.sin_x)),
            list(map(float, C.cos_y)), list(map(float, C.sin_y))]
    return dip


def _context(cfg: FluidConfig, manifest: dict) -> SpectralContext:
    """Stage 2: cut-offs and threshold data, recorded into the manifest."""
    ctx = spectral_context(cfg)
    manifest["spectral_context"] = {c: getattr(ctx, c) for c in _COMPUTED["cutoffs"]}
    return ctx


class _Stages:
    """The two stages of one main() call, each run again only on new inputs.

    The dipoles depend on the untilted section alone and the spectral
    context on the fluid alone, so a sweep over a fluid parameter, the
    submergence, epsilon or theta0 builds one BEM, and a sweep over a shape
    parameter solves one context. A stage whose inputs equal those of its
    previous run returns that run's value; the manifest blocks that run
    wrote still describe it, except an ellipse's dipoles block, which is
    tilted by theta0 and rewritten at every point.
    Only the last (inputs, value) pair of each stage is kept, and only the
    small result: the contour and the Nystrom system (its LU factors)
    are dropped after each run. The state lives for one main() call, so a
    Fourier file rewritten between calls is read again.
    """

    def __init__(self, manifest: dict):
        self.manifest = manifest
        manifest["stage_runs"] = {"dipoles": 0, "spectral_context": 0}
        self._last = {}

    def _run_on_new_inputs(self, stage: str, inputs, compute):
        last = self._last.get(stage)
        if last is None or last[0] != inputs:
            last = self._last[stage] = (inputs, compute())
            self.manifest["stage_runs"][stage] += 1
        return last[1]

    def dipoles(self, run: RunConfig) -> DipoleStrengths:
        # the fields _contour and assemble read
        inputs = (run.shape, run.N,
                  *(getattr(run, f) for f in _CONTOUR_FIELDS[run.shape]))
        dip = self._run_on_new_inputs(
            "dipoles", inputs, lambda: _dipoles(run, self.manifest))
        if run.shape != "ellipse":
            return dip
        return _record_dipoles(tilt_dipoles(dip, run.theta0), self.manifest)

    def context(self, run: RunConfig) -> SpectralContext:
        cfg = _fluid(run)
        return self._run_on_new_inputs(
            "spectral_context", cfg, lambda: _context(cfg, self.manifest))


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _render_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row.get(c)) for c in columns])
    return buf.getvalue()


def _rewrite(path: str, text: str, newline: str | None) -> None:
    """Write text over path in place and cut off any old tail.

    Opening without O_TRUNC keeps the inode, so hard links and symlinks see
    the new text, and a rerun does not wait for the writeback that the
    previous run's close started (a truncating open does, on ext4). Only a
    regular file is truncated: a FIFO or a device has no tail to cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", encoding="utf-8", newline=newline) as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _write_outputs(run: RunConfig, csv_text: str, manifest: dict) -> None:
    try:
        _rewrite(f"{run.out}.csv", csv_text, newline="")
        _rewrite(f"{run.out}.manifest.json",
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline=None)
    except OSError as exc:
        raise ValidationError(f"out: cannot write {run.out!r}: {exc}") from exc


# The result cells of the formula and embedded rows, each with the open lower
# bound of its range: sigma and Re sigma are positive, so an underflow to 0
# leaves the range, while lambda and Im sigma need only be finite (an Im
# sigma that underflows to 0 prints). An overflow makes a cell inf or nan.
# (rcal and jcal saturate to a signed infinity on purpose, and an overflowing
# omega or decay_rate is left blank by _row_formula; neither is listed.)
_RESULT_RANGES = {"sigma": 0.0, "lambda": -math.inf, "re_sigma": 0.0,
                  "im_sigma": -math.inf}


def _check_results(row: dict) -> dict:
    """The row, unless a result cell it prints is out of double range."""
    for column, low in _RESULT_RANGES.items():
        value = row.get(column)
        if isinstance(value, float) and not low < value < math.inf:
            raise ConsistencyError(f"{column} = {value} is out of double range")
    return row


def _run(argv) -> str:
    """One run: parse, compute, write the outputs; returns the CSV text."""
    t0 = time.perf_counter()
    run = parse_run(argv)
    table, points, grid = _points(run)
    manifest = {
        "tool": "trapmodes",
        "version": __version__,
        "command": run.command,
        "inputs": dict(vars(run)),  # RunConfig holds scalars only
        "spectral_context": None,
        "bem": None,
        "dipoles": None,
    }
    if grid is not None:
        manifest["inputs"]["sweep_grid"] = grid
    stages = _Stages(manifest)
    if table == "f":
        dip = stages.dipoles(run)
        rows = sweep_f(stages.context(run), grid, dip.delta)
    else:
        # the manifest's stage blocks describe the last point; stage_runs
        # counts how often each stage ran over the grid
        rows = [_TABLES[table][3](point, stages) for point in points]
    columns = manifest["columns"] = COLUMNS[table]
    manifest["csv"] = f"{run.out}.csv"
    manifest["wall_time_s"] = time.perf_counter() - t0
    csv_text = _render_csv(columns, rows)
    _write_outputs(run, csv_text, manifest)
    return csv_text


def main(argv=None) -> int:
    # every call shows the warnings it raised, whatever ran before it in
    # this process
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, csv_text, diagnostic = 0, "", None
        try:
            csv_text = _run(argv)
        except ValidationError as exc:
            code, diagnostic = 2, f"error: {exc}"
        except ConsistencyError as exc:
            code, diagnostic = 3, f"consistency error: {exc}"
        except SystemExit as exc:  # argparse --help/--version/bad flag
            code = 0 if exc.code is None else int(exc.code)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if diagnostic is not None:
        print(diagnostic, file=sys.stderr)
    sys.stdout.write(csv_text)
    return code


if __name__ == "__main__":
    sys.exit(main())
