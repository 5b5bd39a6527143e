"""A sweep reruns each CLI stage only when that stage's own inputs change.

The dipoles depend on the untilted section and N alone (an ellipse's tilt
turns them at every point), the spectral context on (beta, b, k) alone. A
stage whose inputs did not change between two grid points returns its
previous value, so every sweep row must still equal the row the
single-point command prints at that grid value: an input missing from a
stage's key would show here as a stale row.
"""

import json

import numpy as np
import pytest

import trapmodes.cli as cli_mod
from trapmodes import analytic_dipoles
from trapmodes.cli import _SWEEPABLE, main

from goldens import EGG

ELL = ["--shape", "ellipse", "--a0", "1.2", "--b0", "0.8", "--theta0", "0.3"]
# a range inside the valid domain of each parameter, the others at their
# defaults (side U, a = 0.5, b = 1)
RANGES = {"beta": (0.1, 0.9), "b": (0.6, 2.0), "k": (0.5, 2.0),
          "a": (0.1, 0.9), "epsilon": (0.005, 0.05), "r": (0.5, 1.5),
          "a0": (0.9, 1.7), "b0": (0.5, 1.1), "theta0": (0.0, 1.2)}
# `f` has no single-point command, and its has_root column describes the
# whole grid, so its rows are not point runs.
PAIRS = [(what, param) for what, params in _SWEEPABLE.items() if what != "f"
         for param in params]
# (what, param, start, stop, count) of each sweep; the last one's middle
# point is theta0 = 0, where the untilted dipoles cached from theta0 = -0.6
# come back untouched, nu = +0.0
SWEEPS = [(what, param, *RANGES[param], 4) for what, param in PAIRS] + [
    ("dipoles", "theta0", -0.6, 0.6, 3)]


def _csv_lines(argv, out):
    assert main(argv + ["--N", "64", "--out", str(out)]) == 0, argv
    return out.with_suffix(".csv").read_text().splitlines()


@pytest.mark.parametrize("what, param, lo, hi, count", SWEEPS,
                         ids=[f"{w}-{p}" for w, p in PAIRS] + ["dipoles-theta0-through-0"])
def test_sweep_rows_equal_point_runs(what, param, lo, hi, count, tmp_path, capsys):
    section = ["--shape", "circle"] if param == "r" else ELL
    sweep = _csv_lines(["sweep", "--what", what, "--sweep",
                        f"{param}:{lo}:{hi}:{count}", *section], tmp_path / "sweep")
    assert len(sweep) == count + 1
    for i, v in enumerate(np.linspace(lo, hi, count)):
        point = _csv_lines([what, *section, f"--{param}", repr(float(v))],
                           tmp_path / f"point{i}")
        assert point[0] == sweep[0]
        assert sweep[i + 1] == point[1], (param, float(v))
    if lo < 0.0 < hi:
        row = dict(zip(sweep[0].split(","), sweep[count // 2 + 1].split(",")))
        assert (row["theta0"], row["nu"]) == ("0", "0")
    capsys.readouterr()


@pytest.fixture
def calls(monkeypatch):
    """Count the calls the CLI makes to assemble and spectral_context."""
    counts = {"assemble": 0, "spectral_context": 0}
    for name in counts:
        original = getattr(cli_mod, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli_mod, name, counting)
    return counts


@pytest.mark.parametrize("argv, n_assemble, n_context", [
    (["sweep", "--what", "trapped", "--sweep", "beta:0.1:0.9:50"], 1, 50),
    (["sweep", "--what", "resonance", "--sweep", "a0:0.9:1.7:50", *ELL], 50, 1),
    # a tilt only rotates the untilted section's dipoles: one BEM
    (["sweep", "--what", "dipoles", "--sweep", "theta0:0:1.2:50", *ELL], 1, 0),
    (["sweep", "--what", "resonance", "--sweep", "theta0:0:1.2:50", *ELL], 1, 1),
    (["sweep", "--what", "embedded", "--sweep", "epsilon:0.005:0.05:5"], 1, 1),
    (["sweep", "--what", "f", "--sweep", "a:0.1:0.9:5"], 1, 1),
    # the stages stay lazy: a cutoffs sweep reads no section
    (["sweep", "--what", "cutoffs", "--shape", "fourier",
      "--sweep", "k:0.5:2:4"], 0, 4),
    (["trapped"], 1, 1),
    (["cutoffs"], 0, 1),
], ids=["beta", "a0", "theta0-dipoles", "theta0-resonance", "epsilon", "f",
        "cutoffs-fourier", "point", "cutoffs"])
def test_stage_runs(argv, n_assemble, n_context, calls, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(argv + ["--N", "64", "--out", str(out)]) == 0
    assert calls == {"assemble": n_assemble, "spectral_context": n_context}
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["stage_runs"] == {"dipoles": n_assemble,
                                      "spectral_context": n_context}
    assert "stage_runs" not in capsys.readouterr().out
    assert "stage_runs" not in out.with_suffix(".csv").read_text()


@pytest.mark.parametrize("what", ["dipoles", "resonance"])
def test_theta0_sweep_manifest_describes_its_last_point(what, tmp_path, capsys):
    """The dipoles block (which _row_dipoles reads) and the bem block of a
    theta0 sweep that built one BEM are those of a point run at the last
    grid value."""
    manifests = []
    for argv in (["sweep", "--what", what, "--sweep", "theta0:-0.6:1.2:5"],
                 [what, "--theta0", "1.2"]):
        out = tmp_path / argv[0]
        # ELL without its --theta0
        assert main(argv + ELL[:-2] + ["--N", "64", "--out", str(out)]) == 0
        manifests.append(json.loads(out.with_suffix(".manifest.json").read_text()))
    sweep, point = manifests
    assert sweep["stage_runs"]["dipoles"] == 1
    assert sweep["dipoles"] == point["dipoles"]
    # tilted, not the untilted dipoles the stage keeps
    tilted = analytic_dipoles("ellipse", a0=1.2, b0=0.8, theta0=1.2)
    assert {c: sweep["dipoles"][c] for c in ("mu", "kappa", "nu", "S")} == \
        pytest.approx(vars(tilted), rel=1e-12)
    # LAPACK's condition estimate may move in its last bits between runs
    assert sweep["bem"] == {**point["bem"], "cond_estimate": pytest.approx(
        point["bem"]["cond_estimate"], rel=1e-12)}
    capsys.readouterr()


def test_fourier_file_reread_per_call(calls, tmp_path, capsys):
    path = tmp_path / "section.txt"
    argv = ["dipoles", "--shape", "fourier", "--fourier-file", str(path),
            "--N", "64", "--out", str(tmp_path / "d")]
    mus = []
    for scale in (1.0, 1.5):
        path.write_text("".join(
            f"{scale * EGG['cos_x'][j]} {EGG['sin_x'][j]} "
            f"{EGG['cos_y'][j]} {EGG['sin_y'][j]}\n"
            for j in range(len(EGG["cos_x"]))))
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "d.manifest.json").read_text())
        mus.append(manifest["dipoles"]["mu"])
    assert calls["assemble"] == 2
    assert mus[0] != mus[1]
    capsys.readouterr()


# Stage 0: every point of a run meets the library's own rules before any
# stage runs. A field's own rule binds every table, also one that never
# reads the field; a rule tying two fields binds only the tables that read
# both.
@pytest.mark.parametrize("argv, field", [
    (["cutoffs", "--N", "48"], "N"),
    (["cutoffs", "--N", "1125899906842624"], "N"),
    (["dipoles", "--beta", "2"], "beta"),
    (["embedded", "--a", "-1"], "a"),
], ids=["cutoffs-N", "cutoffs-N-2**50", "dipoles-beta", "embedded-a"])
def test_ignored_field_is_checked(argv, field, calls, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 2
    assert calls == {"assemble": 0, "spectral_context": 0}
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith(f"error: {field} ")
    assert not out.with_suffix(".csv").exists()


@pytest.mark.parametrize("argv", [
    ["cutoffs", "--shape", "fourier"],  # no --fourier-file: cutoffs reads no section
    ["cutoffs", "--a", "5"],  # a < b binds only the tables that read a
], ids=["fourier-without-file", "a-above-b"])
def test_cutoffs_ignores_the_rules_tying_fields_it_does_not_read(argv, calls,
                                                                 tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "run")]) == 0
    assert calls == {"assemble": 0, "spectral_context": 1}
    capsys.readouterr()


@pytest.mark.parametrize("argv, field", [
    (["sweep", "--what", "trapped", "--shape", "ellipse", "--a0", "1.3",
      "--b0", "0.6", "--N", "1024", "--sweep", "a:0.1:1.2:12"], "a"),
    (["sweep", "--what", "trapped", "--sweep", "beta:0.5:1.2:8"], "beta"),
    (["sweep", "--what", "f", "--sweep", "a:0:1:5"], "a_grid"),
    (["sweep", "--what", "embedded", "--side", "L",
      "--sweep", "beta:0.1:0.9:5"], "side"),
    # the grid's first point fails in a stage (sigma underflows to 0 at
    # b k = 1000, exit 3 when run alone); the rule its last point breaks
    # decides the run
    (["sweep", "--what", "trapped", "--b", "1", "--k", "1000",
      "--sweep", "a:0.1:1.1:3"], "a"),
], ids=["late-a", "late-beta", "f-grid", "embedded-side-L", "exit-3-before-2"])
def test_sweep_breaking_a_rule_computes_nothing(argv, field, calls, tmp_path,
                                                capsys):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 2
    assert calls == {"assemble": 0, "spectral_context": 0}
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith(f"error: {field} ")
    assert not out.with_suffix(".manifest.json").exists()


@pytest.mark.parametrize("argv, field", [
    # the chosen section's fields and file, then the other section fields
    (["trapped", "--shape", "ellipse", "--r", "-1", "--a0", "-1"], "a0"),
    (["dipoles", "--shape", "fourier", "--r", "-1"], "fourier_file"),
    (["dipoles", "--r", "-1", "--b0", "-1"], "r"),
    # then N, the fluid, the setup and the table's own rules
    (["cutoffs", "--N", "48", "--beta", "2"], "N"),
    (["dipoles", "--beta", "2", "--a", "-1"], "beta"),
    (["embedded", "--side", "L", "--epsilon", "0"], "epsilon"),
])
def test_rule_order(argv, field, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith((f"error: {field} ", f"error: {field}:"))
