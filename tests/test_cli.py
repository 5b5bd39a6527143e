import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from trapmodes import (
    ConsistencyError,
    FluidConfig,
    ProblemSetup,
    assemble,
    dipoles_bem,
    make_circle,
    resonance_lower,
    resonance_upper,
    spectral_context,
    trapped_lower,
    trapped_upper,
)
from trapmodes.cli import (
    _FIELD_TYPES,
    RunConfig,
    _build_parser,
    main,
    parse_run,
    read_config_file,
)

from goldens import GOLD


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_rows(csv_path):
    lines = csv_path.read_text().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def test_cutoffs_example(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(["cutoffs", "--beta", "0.5", "--b", "1",
                               "--k", "1", "--out", str(out)], capsys)
    assert code == 0
    rows = read_rows(tmp_path / "run.csv")
    assert len(rows) == 1
    assert float(rows[0]["Lambda1"]) == pytest.approx(GOLD["Lambda1"], abs=1e-11)
    assert float(rows[0]["Lambda2"]) == 1.0
    assert float(rows[0]["tau1"]) == pytest.approx(GOLD["tau1"], abs=1e-10)
    # stdout mirrors the file byte for byte
    assert stdout == (tmp_path / "run.csv").read_text()
    # weakest stratification: tau1 = (1 + beta) / alpha ~ 2e12 in tanh saturation
    beta = 0.999999999999
    code, _, _ = run_cli(["cutoffs", "--beta", repr(beta),
                          "--out", str(tmp_path / "weak")], capsys)
    assert code == 0
    assert float(read_rows(tmp_path / "weak.csv")[0]["tau1"]) == pytest.approx(
        (1.0 + beta) / (1.0 - beta), rel=1e-11)


def test_dipoles_example(tmp_path, capsys):
    out = tmp_path / "d"
    code, _, _ = run_cli(["dipoles", "--shape", "circle", "--r", "1",
                          "--N", "256", "--out", str(out)], capsys)
    assert code == 0
    row = read_rows(tmp_path / "d.csv")[0]
    assert float(row["mu"]) == pytest.approx(1.0, abs=1e-10)
    assert abs(float(row["nu"])) < 1e-10
    assert float(row["S"]) == pytest.approx(math.pi, abs=1e-10)
    # ellipse cells are blank for a circle run
    assert row["a0"] == "" and row["theta0"] == ""


def test_embedded_example(tmp_path, capsys):
    code, _, _ = run_cli(["embedded", "--beta", "0.5",
                          "--out", str(tmp_path / "e")], capsys)
    assert code == 0
    row = read_rows(tmp_path / "e.csv")[0]
    assert row["exists"] == "true"
    assert float(row["a_star"]) == pytest.approx(0.1704596941547139, abs=1e-9)


def test_embedded_at_tiny_alpha_and_submergence(tmp_path, capsys):
    # alpha = 1e-9 and a tau = 5e-7: 1 - e^{-2 a tau} cancelled to a 7e-4
    # relative residual of Rcal(a*), which exited 3. The reference a* is
    # mpmath's at 50 digits, from the double beta
    code, _, err = run_cli(["embedded", "--beta", "0.999999999", "--b", "0.001",
                            "--k", "0.001", "--a", "0.0005", "--N", "64",
                            "--out", str(tmp_path / "e")], capsys)
    assert code == 0, err
    row = read_rows(tmp_path / "e.csv")[0]
    assert row["exists"] == "true"
    assert float(row["a_star"]) == pytest.approx(3.74999979163552e-16, rel=1e-11)


def test_manifest_contents_and_reproducibility(tmp_path, capsys):
    out = tmp_path / "m"
    args = ["resonance", "--side", "L", "--a", "0.7", "--epsilon", "0.02",
            "--shape", "ellipse", "--a0", "1.4", "--b0", "0.6",
            "--theta0", "0.3", "--N", "64", "--out", str(out)]
    code, stdout, _ = run_cli(args, capsys)
    assert code == 0
    man = json.loads((tmp_path / "m.manifest.json").read_text())
    assert man["command"] == "resonance"
    assert man["bem"]["N"] == 64
    assert man["bem"]["gauss_residual"] < 1e-10
    assert man["bem"]["cond_estimate"] < 100.0
    assert man["dipoles"]["S"] == pytest.approx(math.pi * 1.4 * 0.6, rel=1e-12)
    assert man["spectral_context"]["tau1"] == pytest.approx(GOLD["tau1"], rel=1e-12)
    assert man["wall_time_s"] >= 0.0
    # rebuilding the command line from the manifest inputs reproduces the CSV
    inp = man["inputs"]
    args2 = ["resonance"]
    for key in ("beta", "b", "k", "side", "a", "epsilon", "shape",
                "a0", "b0", "theta0", "N"):
        args2 += [f"--{key}", str(inp[key])]
    args2 += ["--out", str(tmp_path / "m2")]
    code2, stdout2, _ = run_cli(args2, capsys)
    assert code2 == 0
    assert (tmp_path / "m2.csv").read_text() == (tmp_path / "m.csv").read_text()


def test_determinism_byte_identical(tmp_path, capsys):
    args = ["trapped", "--side", "U", "--a", "0.4", "--N", "64"]
    run_cli(args + ["--out", str(tmp_path / "r1")], capsys)
    run_cli(args + ["--out", str(tmp_path / "r2")], capsys)
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


def test_config_file_and_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# two-layer base configuration\n"
        "beta = 0.5\n"
        "side = L\n"
        "a = 0.8   # overridden below\n"
        "epsilon = 0.02\n")
    code, _, _ = run_cli(["trapped", "--config", str(cfgfile), "--a", "0.6",
                          "--out", str(tmp_path / "t")], capsys)
    assert code == 0
    row = read_rows(tmp_path / "t.csv")[0]
    assert row["side"] == "L"
    assert float(row["a"]) == 0.6
    assert float(row["epsilon"]) == 0.02


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("beta 0.5\n")
    with pytest.raises(Exception):
        read_config_file(str(bad))
    bad.write_text("volume = 3\n")
    from trapmodes import ValidationError
    with pytest.raises(ValidationError, match="volume"):
        read_config_file(str(bad))
    bad.write_text("beta = much\n")
    with pytest.raises(ValidationError, match="beta"):
        read_config_file(str(bad))


def test_validation_exit_codes(tmp_path, capsys):
    code, _, err = run_cli(["cutoffs", "--beta", "1.5",
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "beta" in err and err.startswith("error:")
    code, _, err = run_cli(["dipoles", "--shape", "fourier",
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "fourier_file" in err
    code, _, err = run_cli(["sweep", "--what", "trapped", "--sweep", "a:0.9:0.1:5",
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "start < stop" in err
    code, _, err = run_cli(["sweep", "--what", "trapped", "--sweep", "a:0.1:0.9:1",
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "count" in err
    code, _, err = run_cli(["sweep", "--sweep", "a:0.1:0.9:5",
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "what" in err


@pytest.mark.parametrize("args, field", [
    (["trapped", "--g", "-1"], "g"),
    (["trapped", "--g", "nan"], "g"),
    (["dipoles", "--shape", "ellipse", "--theta0", "inf"], "theta0"),
    (["cutoffs", "--b", "inf"], "b"),
    (["trapped", "--epsilon", "inf"], "epsilon"),
    (["trapped", "--side", "L", "--a", "inf"], "a"),
    (["trapped", "--k", "inf"], "k"),
    (["cutoffs", "--b", "-1"], "b"),
    (["cutoffs", "--k", "0"], "k"),
    (["trapped", "--a", "1.5"], "a"),
    (["trapped", "--side", "L", "--a", "0"], "a"),
    (["dipoles", "--r", "0"], "r"),
    (["dipoles", "--shape", "ellipse", "--a0", "0"], "a0"),
    (["dipoles", "--shape", "ellipse", "--b0", "-2"], "b0"),
    # beyond the BEM's largest N; these arrays would not fit in the address space
    (["dipoles", "--N", str(2**50)], "N"),
    (["dipoles", "--N", str(2**62)], "N"),
])
def test_non_finite_and_nonpositive_g_exit_2(args, field, tmp_path, capsys):
    code, stdout, err = run_cli(args + ["--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: {field} ")


@pytest.mark.parametrize("command, side, formula", [
    ("trapped", "U", trapped_upper), ("trapped", "L", trapped_lower),
    ("resonance", "U", resonance_upper), ("resonance", "L", resonance_lower),
])
def test_g_converts_the_library_result(command, side, formula, tmp_path, capsys):
    # the formulas give lam and sigma; the CLI alone applies g, and only to
    # the omega or decay_rate cell
    fluid = ["--beta", "0.3", "--b", "2", "--k", "0.7", "--a", "0.6"]
    rows = {}
    for g in ([], ["--g", "9.81"]):
        out = tmp_path / f"run{len(g)}"
        code, _, err = run_cli([command, "--side", side, *fluid, "--N", "64", *g,
                                "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        rows[bool(g)] = read_rows(out.with_suffix(".csv"))[0]
    setup = ProblemSetup(ctx=spectral_context(FluidConfig(beta=0.3, b=2.0, k=0.7)),
                         side=side, a=0.6, epsilon=0.01,
                         dip=dipoles_bem(assemble(make_circle(1.0), 64)))
    res = formula(setup)
    if command == "trapped":
        column, value = "omega", math.sqrt(9.81 * res.lam)
    else:
        column, value = "decay_rate", math.sqrt(0.7 * 9.81) * res.re_sigma * res.im_sigma
    assert rows[False][column] == ""
    assert rows[True][column] == format(value, ".12g")
    assert {**rows[True], column: ""} == rows[False]


NEGATIVE_LAMBDA_WARNING = "warning: lambda < 0 (sigma > 1): omega is left blank\n"


@pytest.mark.parametrize("side", ["U", "L"])
def test_negative_lambda_leaves_omega_blank(side, tmp_path, capsys):
    # sigma = 85.7 (U) and 101 (L): lambda < 0 has no real frequency, so g
    # adds nothing to the table, only the warning
    args = ["trapped", "--side", side, "--r", "1000", "--N", "64"]
    code, stdout, err = run_cli([*args, "--out", str(tmp_path / "plain")], capsys)
    assert (code, err) == (0, "")
    assert float(read_rows(tmp_path / "plain.csv")[0]["lambda"]) < 0.0
    code, stdout_g, err = run_cli([*args, "--g", "9.81", "--out", str(tmp_path / "g")],
                                  capsys)
    assert code == 0
    assert err == NEGATIVE_LAMBDA_WARNING
    assert stdout_g == stdout
    assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_negative_lambda_warning_shown_once_per_sweep(tmp_path, capsys):
    code, _, err = run_cli(["sweep", "--what", "trapped", "--sweep", "r:1:1000:20",
                            "--g", "9.81", "--N", "64", "--out", str(tmp_path / "s")],
                           capsys)
    assert code == 0
    assert err == NEGATIVE_LAMBDA_WARNING
    rows = read_rows(tmp_path / "s.csv")
    assert {float(row["lambda"]) < 0.0 for row in rows} == {True, False}
    for row in rows:
        assert (row["omega"] == "") == (float(row["lambda"]) < 0.0), row


@pytest.mark.parametrize("side", ["U", "L"])
def test_refused_result_warns_nothing_about_omega(side, tmp_path, capsys):
    # sigma = inf has no lambda to convert: the run is refused, and the
    # lambda < 0 warning would name a cell it never prints
    code, stdout, err = run_cli(["trapped", "--side", side, "--epsilon", "1e200",
                                 "--g", "9.81", "--N", "64",
                                 "--out", str(tmp_path / "x")], capsys)
    assert (code, stdout) == (3, "")
    assert err == (
        "warning: epsilon=1e+200 is large for a leading-order asymptotic result "
        "(heuristic validity bound 0.1)\n"
        "consistency error: sigma = inf is out of double range\n")


@pytest.mark.parametrize("args, column", [
    # Re sigma 5.8e119 and Im sigma 1.0e240: their product overflows
    (["resonance", "--side", "L", "--epsilon", "1e60"], "decay_rate"),
])
def test_overflowing_derived_cell_is_left_blank(args, column, tmp_path, capsys):
    # the results are representable, so the run answers; only the cell that
    # g derives from them is out of range
    code, _, err = run_cli([*args, "--N", "64", "--out", str(tmp_path / "plain")],
                           capsys)
    assert code == 0
    code, _, err_g = run_cli([*args, "--g", "9.81", "--N", "64",
                              "--out", str(tmp_path / "g")], capsys)
    assert code == 0
    assert err_g == err + f"warning: {column} is out of double range: left blank\n"
    assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert read_rows(tmp_path / "g.csv")[0][column] == ""


@pytest.mark.parametrize("command, formula", [
    ("trapped", trapped_upper),
    ("resonance", resonance_upper),
], ids=["omega", "decay_rate"])
def test_derived_cell_is_printed_where_its_product_overflows(command, formula,
                                                             tmp_path, capsys):
    # g lambda = 3.25 g and k g overflow at g = 1.7e308, but omega = 2.35e154
    # and decay_rate = 7.3e146 do not: the cell is sqrt(g) sqrt(lambda), or
    # sqrt(k) sqrt(g) Re sigma Im sigma, and the run warns nothing
    args = [command, "--k", "10", "--b", "0.2", "--a", "0.1", "--N", "64"]
    rows = {}
    for g in ([], ["--g", "1.7e308"]):
        out = tmp_path / f"run{len(g)}"
        code, _, err = run_cli([*args, *g, "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        rows[bool(g)] = read_rows(out.with_suffix(".csv"))[0]
    res = formula(ProblemSetup(ctx=spectral_context(FluidConfig(beta=0.5, b=0.2, k=10.0)),
                               side="U", a=0.1, epsilon=0.01,
                               dip=dipoles_bem(assemble(make_circle(1.0), 64))))
    if command == "trapped":
        column, value = "omega", math.sqrt(1.7e308) * math.sqrt(res.lam)
    else:
        column = "decay_rate"
        value = math.sqrt(10.0) * math.sqrt(1.7e308) * res.re_sigma * res.im_sigma
    assert math.isfinite(value)
    assert rows[True][column] == format(value, ".12g")
    assert {**rows[True], column: ""} == rows[False]


@pytest.mark.parametrize("content", [
    None,  # missing file
    "1.0 0.0 0.0\n",  # three columns
    "1.0 0.0 0.0 0.0\n0.0 0.0 0.0 1.0\n",  # figure-eight
], ids=["missing", "three-columns", "self-intersecting"])
def test_fourier_file_errors_name_the_field(content, tmp_path, capsys):
    path = tmp_path / "contour.txt"
    if content is not None:
        path.write_text(content)
    code, stdout, err = run_cli(["dipoles", "--shape", "fourier",
                                 "--fourier-file", str(path),
                                 "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: fourier_file: ")


@pytest.mark.parametrize("args", [
    ["dipoles", "--shape", "ellipse", "--sweep", "r:0.5:2:3"],
    ["trapped", "--sweep", "a0:0.5:2:3"],
    ["resonance", "--shape", "circle", "--sweep", "theta0:0:1:3"],
    ["embedded", "--shape", "fourier", "--sweep", "b0:0.5:2:3"],
    ["dipoles", "--shape", "fourier", "--sweep", "r:0.5:2:3"],
])
def test_sweep_over_ignored_shape_field_exit_2(args, tmp_path, capsys):
    # the section ignores the swept field, so every row would be the same
    egg = tmp_path / "egg.txt"
    egg.write_text("1.0 0.0 0.0 1.3\n0.2 0.0 0.0 0.1\n")
    code, stdout, err = run_cli(["sweep", "--what"] + args
                                + ["--fourier-file", str(egg),
                                   "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: sweep: ")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("args, field", [
    (["trapped", "--sweep", "a:0.1:0.9:5"], "sweep"),
    (["cutoffs", "--what", "f"], "what"),
    (["trapped", "--config", "{cfg}"], "sweep"),
    (["dipoles", "--config", "{cfg}"], "what"),
], ids=["sweep-flag", "what-flag", "sweep-config", "what-config"])
def test_sweep_and_what_need_the_sweep_command(args, field, tmp_path, capsys):
    # a point command used to ignore both and print its single row
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sweep = a:0.1:0.9:5\n" if field == "sweep" else "what = f\n")
    code, stdout, err = run_cli([a.format(cfg=cfg) for a in args]
                                + ["--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: {field} ")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("args", [
    ["embedded", "--side", "L"],
    ["sweep", "--what", "embedded", "--side", "L", "--sweep", "beta:0.1:0.9:3"],
])
def test_embedded_requires_side_u(args, tmp_path, capsys):
    # the a* of side U used to be printed for side L
    code, stdout, err = run_cli(args + ["--N", "32", "--out", str(tmp_path / "x")],
                                capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: side ")


@pytest.mark.parametrize("args, line, field", [
    (["trapped"], "side = X", "side"),
    (["dipoles"], "shape = blob", "shape"),
    (["sweep", "--sweep", "a:0.1:0.9:3"], "what = g", "what"),
])
def test_config_choice_errors_name_the_field(args, line, field, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, stdout, err = run_cli(args + ["--config", str(cfg),
                                        "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: {field} ")


@pytest.mark.parametrize("args", [
    ["--what", "trapped"],  # no --sweep
    ["--what", "trapped", "--sweep", "a:0.1:0.9"],
    ["--what", "cutoffs", "--sweep", "a:0.1:0.9:3"],
    ["--what", "trapped", "--sweep", "a:x:0.9:3"],
    ["--what", "trapped", "--sweep", "a:nan:0.9:3"],
    # grids beyond the user address space: nothing is allocated
    ["--what", "cutoffs", "--sweep", f"k:1:2:{10**16}"],
    ["--what", "cutoffs", "--sweep", f"k:1:2:{10**19}"],
], ids=["missing", "three-parts", "not-sweepable", "unparsable", "nan-start",
        "grid-1e16", "grid-1e19"])
def test_sweep_spec_errors(args, tmp_path, capsys):
    code, stdout, err = run_cli(["sweep", *args, "--out", str(tmp_path / "x")],
                                capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: sweep: ")


def test_missing_config_and_unwritable_out_exit_2(tmp_path, capsys):
    code, _, err = run_cli(["cutoffs", "--config", str(tmp_path / "none.cfg"),
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert err.startswith("error: config: cannot read")
    code, _, err = run_cli(["cutoffs", "--out", str(tmp_path / "no" / "dir")],
                           capsys)
    assert code == 2
    assert err.startswith("error: out: cannot write")
    # the CSV is written, then the manifest cannot be opened
    (tmp_path / "d.manifest.json").mkdir()
    code, _, err = run_cli(["cutoffs", "--out", str(tmp_path / "d")], capsys)
    assert code == 2
    assert err.startswith("error: out: cannot write")


def _reference_csv(tmp_path, capsys):
    code, out, _ = run_cli(["cutoffs", "--out", str(tmp_path / "ref")], capsys)
    assert code == 0
    assert out == (tmp_path / "ref.csv").read_text(encoding="utf-8")
    return out


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_out_symlinked_to_dev_null(tmp_path, capsys):
    # a device is written but not truncated
    expected = _reference_csv(tmp_path, capsys)
    (tmp_path / "x.csv").symlink_to("/dev/null")
    code, out, err = run_cli(["cutoffs", "--out", str(tmp_path / "x")], capsys)
    assert (code, err) == (0, "")
    assert out == expected
    assert (tmp_path / "x.csv").read_bytes() == b""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_out_csv_is_a_fifo(tmp_path, capsys):
    # a FIFO cannot seek or be truncated; the run writes through it
    expected = _reference_csv(tmp_path, capsys)
    fifo = tmp_path / "x.csv"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    try:
        code, out, err = run_cli(["cutoffs", "--out", str(tmp_path / "x")], capsys)
    finally:
        if not received:
            # release a reader still waiting for a writer to open the FIFO
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=60)
    assert (code, err) == (0, "")
    assert out == expected
    assert received == [expected.encode("utf-8")]


def test_rerun_rewrites_in_place_and_leaves_no_stale_tail(tmp_path, capsys,
                                                          monkeypatch):
    # a 50-row sweep, then a one-row point run over the same stem
    sweep = ["sweep", "--what", "cutoffs", "--sweep", "beta:0.1:0.9:50",
             "--out", "run"]
    point = ["cutoffs", "--out", "run"]
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    fresh.mkdir()
    rerun.mkdir()
    monkeypatch.chdir(fresh)
    assert run_cli(point, capsys)[0] == 0
    monkeypatch.chdir(rerun)
    assert run_cli(sweep, capsys)[0] == 0
    csv_path, manifest_path = rerun / "run.csv", rerun / "run.manifest.json"
    old_sizes = csv_path.stat().st_size, manifest_path.stat().st_size
    inodes = csv_path.stat().st_ino, manifest_path.stat().st_ino
    os.link(csv_path, rerun / "link.csv")
    assert run_cli(point, capsys)[0] == 0
    new_csv = csv_path.read_bytes()
    assert new_csv == (fresh / "run.csv").read_bytes()
    assert csv_path.stat().st_size < old_sizes[0]
    assert manifest_path.stat().st_size < old_sizes[1]
    assert (csv_path.stat().st_ino, manifest_path.stat().st_ino) == inodes
    assert (rerun / "link.csv").read_bytes() == new_csv
    manifests = [json.loads((d / "run.manifest.json").read_text(encoding="utf-8"))
                 for d in (fresh, rerun)]
    for manifest in manifests:
        manifest.pop("wall_time_s")
    assert manifests[0] == manifests[1]
    text = manifest_path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_every_field_has_a_flag_and_a_config_key(tmp_path):
    # each RunConfig field is declared once; its flag and its config key are
    # derived from that declaration and must set it to the same value
    base = parse_run(["sweep"])
    for f in dataclasses.fields(RunConfig)[1:]:
        choices = f.metadata.get("choices")
        if choices is not None:
            text = next(c for c in choices if c != f.default)
        else:
            text = {float: "0.25", int: "64", str: "given"}[_FIELD_TYPES[f.name]]
        cfg = tmp_path / f"{f.name}.cfg"
        cfg.write_text(f"{f.name} = {text}\n")
        by_flag = parse_run(["sweep", "--" + f.name.replace("_", "-"), text])
        by_config = parse_run(["sweep", "--config", str(cfg)])
        value = getattr(by_flag, f.name)
        assert value == _FIELD_TYPES[f.name](text) != getattr(base, f.name), f.name
        assert by_config == by_flag, f.name
        assert dataclasses.replace(by_flag, **{f.name: getattr(base, f.name)}) \
            == base, f.name


def test_consistency_exit_code(tmp_path, capsys, monkeypatch):
    import trapmodes.cli as cli_mod

    def boom(cfg):
        raise ConsistencyError("synthetic failure for the exit-code path")

    monkeypatch.setattr(cli_mod, "spectral_context", boom)
    code, _, err = run_cli(["cutoffs", "--out", str(tmp_path / "x")], capsys)
    assert code == 3
    assert err.startswith("consistency error:")


def test_argparse_error_maps_to_2(capsys):
    assert main(["cutoffs", "--beta"]) == 2  # missing value
    capsys.readouterr()
    assert main(["frobnicate"]) == 2  # unknown command
    capsys.readouterr()


def test_sweep_f_matches_direct(tmp_path, capsys):
    code, _, _ = run_cli(["sweep", "--what", "f", "--sweep", "a:0.1:1.0:10",
                          "--beta", "0.09", "--out", str(tmp_path / "s")], capsys)
    assert code == 0
    rows = read_rows(tmp_path / "s.csv")
    assert len(rows) == 10
    assert all(r["alpha"] == "0.91" for r in rows)
    assert [float(r["a"]) for r in rows] == sorted(float(r["a"]) for r in rows)
    assert rows[0]["has_root"] == "true"
    assert float(rows[0]["a_star"]) == pytest.approx(GOLD["a_star_alpha091"], abs=1e-9)


def test_sweep_over_submergence(tmp_path, capsys):
    code, _, _ = run_cli(["sweep", "--what", "trapped", "--sweep", "a:0.1:0.9:5",
                          "--N", "64", "--out", str(tmp_path / "sw")], capsys)
    assert code == 0
    rows = read_rows(tmp_path / "sw.csv")
    assert len(rows) == 5
    assert [float(r["a"]) for r in rows] == pytest.approx([0.1, 0.3, 0.5, 0.7, 0.9])
    for r in rows:
        assert float(r["sigma"]) > 0.0
        assert float(r["lambda"]) < float(r["threshold"])


def test_parse_run_defaults():
    run = parse_run(["cutoffs"])
    assert (run.beta, run.b, run.k) == (0.5, 1.0, 1.0)
    assert run.shape == "circle" and run.r == 1.0 and run.N == 256
    assert run.out == "trapmodes_cutoffs"


def _child_env():
    # pytest's pythonpath does not reach a child process, so it gets src on
    # PYTHONPATH
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_script_installed(tmp_path):
    # one end-to-end subprocess check of the module entry point
    proc = subprocess.run(
        [sys.executable, "-m", "trapmodes.cli", "cutoffs",
         "--out", str(tmp_path / "p")],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("beta,b,k,Lambda1")


def _scipy_modules_after(code):
    """The scipy modules loaded in a fresh interpreter after running code."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\nprint(json.dumps(sorted("
         "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cold_start_loads_no_scipy(tmp_path):
    # import trapmodes.cli loads no scipy module; cutoffs builds no BEM and so
    # never loads scipy.linalg; dipoles loads scipy's LAPACK extension alone,
    # not the scipy.linalg package nor its array-API layer
    assert _scipy_modules_after("import trapmodes.cli") == []
    run = "from trapmodes.cli import main\nassert main({!r}) == 0"
    out = ["--out", str(tmp_path / "p")]
    cutoffs = _scipy_modules_after(run.format(["cutoffs", *out]))
    assert "scipy.linalg" not in cutoffs and "scipy.optimize" not in cutoffs
    dipoles = _scipy_modules_after(run.format(["dipoles", "--N", "32", *out]))
    assert "scipy.linalg._flapack" in dipoles
    assert "scipy.linalg" not in dipoles
    assert "scipy._lib._array_api" not in dipoles
    assert "scipy.optimize" not in dipoles
    src = Path(__file__).resolve().parents[1] / "src"
    users = [p for p in src.rglob("*") if p.is_file()
             and b"scipy.optimize" in p.read_bytes()]
    assert users == []


@pytest.mark.parametrize("args", [
    ["--k", "1e200"],  # p1_zero = nan and q1 = inf
    ["--k", "1e300"],
    ["--k", "1e300", "--beta", "0.999999999999"],  # tau1 > 1.8e308
])
def test_cutoffs_out_of_double_range_exit_3(args, tmp_path, capsys):
    code, stdout, err = run_cli(["cutoffs", *args, "--out", str(tmp_path / "x")],
                                capsys)
    assert code == 3
    assert stdout == ""
    assert err.startswith("consistency error:")
    assert "out of double range" in err


def test_cutoffs_scale_with_k(tmp_path, capsys):
    # lengths scaled by s = 10^-e and k by 10^e: Lambda1, Lambda2 (omega^2/g)
    # and the wavenumbers tau1, p1_zero, q1 and q2 each carry one inverse
    # length, so each printed cell divided by k is the e = 0 value. A run may
    # instead be refused as out of double range, where tau1^2 or 2 k Lambda1
    # would be subnormal (k below about 1e-154)
    columns = ("Lambda1", "Lambda2", "tau1", "p1_zero", "q1", "q2")
    answered, unit = [], None
    for e in [0, *range(-150, 151, 10), *range(-161, -156)]:
        out = tmp_path / "x"
        code, _, err = run_cli(["cutoffs", "--k", f"1e{e}", "--b", f"1e{-e}",
                                "--out", str(out)], capsys)
        if code == 3:
            assert err.startswith("consistency error:"), (e, err)
            assert err.rstrip().endswith("is out of double range"), (e, err)
            continue
        assert code == 0, (e, err)
        row = read_rows(out.with_suffix(".csv"))[0]
        scaled = [float(row[column]) / 10.0 ** e for column in columns]
        unit = unit or scaled
        assert scaled == pytest.approx(unit, rel=1e-12), e
        answered.append(e)
    assert set(range(-150, 151, 10)) <= set(answered)


def test_dipoles_section_out_of_double_range_exit_3(tmp_path, capsys):
    # the squared node distances would overflow into a NaN matrix; the BEM
    # refuses the section before building it
    code, stdout, err = run_cli(["dipoles", "--shape", "circle", "--r", "1e160",
                                 "--N", "64", "--out", str(tmp_path / "x")], capsys)
    assert code == 3
    assert stdout == ""
    assert err.startswith("consistency error:")
    assert "out of double range" in err


@pytest.mark.filterwarnings("error")
def test_circle_radius_over_the_double_range(tmp_path, capsys):
    # every radius gets a number, a diagnostic naming its field, or the
    # documented out-of-range outcome; never a traceback or a warning, and a
    # circle never self-intersects
    outcomes = set()
    radii = ["5e-324", *(f"1e{e}" for e in range(-300, 301, 5)), "1.7e308"]
    for r in radii:
        code, _, err = run_cli(["dipoles", "--shape", "circle", "--r", r,
                                "--N", "64", "--out", str(tmp_path / "x")], capsys)
        assert "self-intersects" not in err, r
        if code == 2:
            assert err.split()[1].rstrip(":") in _FIELD_TYPES, (r, err)
        elif code == 3:
            assert "out of double range" in err, (r, err)
        else:
            assert code == 0, (r, err)
        outcomes.add(code)
    assert outcomes == {0, 3}


def test_epsilon_over_the_double_range(tmp_path, capsys):
    # every epsilon gets a number or the documented out-of-range outcome,
    # never a traceback: a power of epsilon that overflows saturates to inf,
    # and the CLI refuses the inf cell. embedded reads Re sigma alone, so it
    # answers while its own cells are finite
    commands = [["trapped"], ["trapped", "--side", "L"], ["resonance"],
                ["resonance", "--side", "L"], ["embedded"]]
    for e in range(0, 301, 10):
        for command in commands:
            code, _, err = run_cli([*command, "--epsilon", f"1e{e}", "--N", "64",
                                    "--out", str(tmp_path / "x")], capsys)
            last_answered = 150 if command == ["embedded"] else 70
            assert code == (0 if e <= last_answered else 3), (e, command, err)
            lines = err.splitlines()
            if code == 3:
                diagnostic = lines.pop()
                assert diagnostic.startswith("consistency error:"), err
                assert diagnostic.endswith("is out of double range"), err
            assert all(line.startswith("warning: epsilon=") for line in lines), err


def test_parser_is_built_once_and_calls_share_no_values(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 0.3\nb = 2\n")
    for args, beta, b in ((["--config", str(cfg)], 0.3, 2.0), ([], 0.5, 1.0),
                          (["--beta", "0.7"], 0.7, 1.0), ([], 0.5, 1.0)):
        out = tmp_path / "c"
        code, _, _ = run_cli(["cutoffs", *args, "--out", str(out)], capsys)
        assert code == 0
        inputs = json.loads((tmp_path / "c.manifest.json").read_text())["inputs"]
        assert (inputs["beta"], inputs["b"]) == (beta, b)


@pytest.mark.parametrize("args", [["--help"], ["--version"], ["sweep", "--help"],
                                  ["dipoles", "--help"]])
def test_help_and_version_unchanged_by_the_cached_parser(args, capsys):
    # the parser built on first use prints what a freshly built one prints,
    # on every call
    fresh = _build_parser.__wrapped__()
    with pytest.raises(SystemExit):
        fresh.parse_args(args)
    want = capsys.readouterr().out
    assert want
    for _ in range(2):
        assert main(args) == 0
        assert capsys.readouterr().out == want


EPS_WARNING = ("warning: epsilon=0.2 is large for a leading-order asymptotic "
               "result (heuristic validity bound 0.1)\n")


def test_warning_names_no_source_path(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "trapmodes.cli", "trapped", "--epsilon", "0.2",
         "--N", "64", "--out", str(tmp_path / "w")],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0
    assert proc.stderr == EPS_WARNING


@pytest.mark.parametrize("args", [
    ["trapped", "--epsilon", "0.2"],
    # five setups warn alike; the message is shown once
    ["sweep", "--what", "trapped", "--sweep", "a:0.1:0.9:5", "--epsilon", "0.2"],
], ids=["point", "sweep"])
def test_warnings_shown_on_every_call(args, tmp_path, capsys):
    # in one process, what ran before does not hide a warning
    for _ in range(2):
        code, _, err = run_cli([*args, "--N", "64", "--out", str(tmp_path / "w")],
                               capsys)
        assert code == 0
        assert err == EPS_WARNING


@pytest.mark.parametrize("axes", [["--a0", "1", "--b0", "1e-13"],
                                  ["--a0", "1e-13", "--b0", "1"]])
def test_degenerate_ellipse_names_its_fields(axes, tmp_path, capsys):
    code, stdout, err = run_cli(["dipoles", "--shape", "ellipse", *axes, "--N", "64",
                                 "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert stdout == ""
    assert err == "error: a0, b0: contour speed vanishes at a sample point\n"


def test_large_sections_print_numbers_or_the_range_outcome(tmp_path, capsys):
    # each run prints finite results or exits 3 "out of double range"; a* of
    # a circle and near_embedded depend on its delta alone, not on its size
    commands = [["trapped"], ["trapped", "--side", "L"], ["resonance"],
                ["resonance", "--side", "L"], ["embedded"]]
    outcomes = set()
    for e in range(-145, 146, 5):
        for command in commands:
            out = tmp_path / "x"
            code, _, err = run_cli([*command, "--r", f"1e{e}", "--N", "64",
                                    "--out", str(out)], capsys)
            assert "warning" not in err, (e, command, err)
            outcomes.add((command[0], code))
            if code == 3:
                assert "out of double range" in err, (e, command, err)
                continue
            assert code == 0, (e, command, err)
            row = read_rows(out.with_suffix(".csv"))[0]
            for column in ("sigma", "lambda", "re_sigma", "im_sigma"):
                if column in row:
                    assert math.isfinite(float(row[column])), (e, command, row)
            if command == ["embedded"]:
                assert row["a_star"] == "0.170459694155", (e, row)
            if command == ["resonance"]:
                assert row["near_embedded"] == "false", (e, row)
    assert ("embedded", 0) in outcomes and ("resonance", 3) in outcomes


@pytest.mark.parametrize("args, code, cells, err", [
    # D = core e^{-bk} underflows and sigma does not; mpmath at the same
    # double inputs gives 8.17222646239918e-05 and 9.13142118833992e-87
    (["trapped", "--b", "800", "--a", "799.5"], 0,
     {"sigma": "8.1722264624e-05", "D": "0"}, ""),
    (["trapped", "--b", "1", "--k", "1000", "--beta", "0.01", "--a", "0.9",
      "--N", "64"], 0, {"sigma": "9.13142118834e-87", "D": "0"}, ""),
    # sigma itself, about e^-1599, underflows
    (["trapped", "--side", "L", "--b", "800", "--a", "799.5"], 3, {},
     "consistency error: sigma = 0.0 is out of double range\n"),
], ids=["D_underflows", "D_underflows_large_k", "sigma_underflows"])
def test_guards_test_the_sign_factor_and_the_result(args, code, cells, err, tmp_path,
                                                    capsys):
    out = tmp_path / "x"
    assert run_cli([*args, "--out", str(out)], capsys)[::2] == (code, err)
    if code == 0:
        row = read_rows(out.with_suffix(".csv"))[0]
        assert {column: row[column] for column in cells} == cells


def test_wide_fluid_grid_returns_an_exit_code(tmp_path, capsys, parity):
    # scripts/parity.py's wide scan, b, k = 1e-300 ... 1e300 in steps of
    # 10^50, a = 0.1 b and 0.9 b: every run exits 0, 2 or 3 and none raises;
    # resonance_upper's tau1^3 overflows and D1's denominator underflows to 0
    # on parts of this grid. An exit 3 is a quantity out of double range or
    # one of side L's two sign-factor guards, the ones that name P0
    raised = []
    for argv in parity.grids()["wide"]:
        try:
            code, _, err = run_cli([*argv, "--out", str(tmp_path / "x")], capsys)
        except Exception as exc:
            raised.append((argv, repr(exc)))
            continue
        assert code in (0, 2, 3), (argv, err)
        if code == 3:
            assert re.fullmatch(
                r"consistency error: (.* is out of double range|(coefficient D|"
                r"resonance constants) must be positive.* \(P0\(.*)",
                err.splitlines()[-1]), (argv, err)
    assert raised == [], f"{len(raised)} runs raised"


@pytest.mark.parametrize("args, code, expected", [
    # a* scales with b: the b = k = 1 value is 0.170459694155
    (["embedded", "--b", "1e-150", "--k", "1e150"], 0, "1.70459694155e-151"),
    (["resonance", "--b", "1e-300", "--k", "1", "--a", "1e-301"], 3,
     "consistency error: im_sigma = nan is out of double range\n"),
    (["resonance", "--k", "1e-25", "--b", "1e-225", "--a", "5e-226"], 3,
     "consistency error: im_sigma = nan is out of double range\n"),
    (["embedded", "--b", "1e150", "--k", "1e-150"], 0, "1.70459694155e+149"),
    (["resonance", "--b", "1e150", "--k", "1e-150", "--a", "1e149"], 3,
     "consistency error: im_sigma = nan is out of double range\n"),
], ids=["embedded_tau1_cubed_overflows", "resonance_D1_denominator_is_0",
        "resonance_D1_denominator_is_0_small_k", "embedded_tau1_cubed_underflows",
        "resonance_tau1_cubed_underflows"])
def test_resonance_constants_out_of_range_give_an_outcome(args, code, expected,
                                                          tmp_path, capsys):
    # tau1^3 overflows or underflows to 0 (embedded, which reads Re sigma
    # alone), or D1's denominator or beta tau1^3 underflows to 0 (resonance):
    # embedded answers with the a* in expected, resonance is refused with
    # the stderr in expected
    out = tmp_path / "x"
    result = run_cli([*args, "--N", "64", "--out", str(out)], capsys)[::2]
    if code == 0:
        assert result == (0, "")
        assert read_rows(out.with_suffix(".csv"))[0]["a_star"] == expected
    else:
        assert result == (code, expected)


def test_circle_radius_scan_warns_nothing(tmp_path, capsys):
    # main() shows every warning it records; no radius may raise one
    radii = ["5e-324", *(f"1e{e}" for e in range(-300, 301, 5)), "1.7e308"]
    for r in radii:
        _, _, err = run_cli(["dipoles", "--shape", "circle", "--r", r,
                             "--N", "64", "--out", str(tmp_path / "x")], capsys)
        assert "warning" not in err, (r, err)


def test_f_sweep_manifest_records_its_context(tmp_path, capsys):
    manifests = {}
    for name, args in (("f", ["sweep", "--what", "f", "--sweep", "a:0.1:0.9:5"]),
                       ("cutoffs", ["cutoffs"])):
        out = tmp_path / name
        code, _, _ = run_cli([*args, "--beta", "0.3", "--k", "2", "--N", "64",
                              "--out", str(out)], capsys)
        assert code == 0
        manifests[name] = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifests["f"]["spectral_context"] is not None
    assert manifests["f"]["spectral_context"] == manifests["cutoffs"]["spectral_context"]
