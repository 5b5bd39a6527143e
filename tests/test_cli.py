import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trapmodes import ConsistencyError
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
])
def test_non_finite_and_nonpositive_g_exit_2(args, field, tmp_path, capsys):
    code, stdout, err = run_cli(args + ["--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: {field} ")


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
], ids=["missing", "three-parts", "not-sweepable", "unparsable", "nan-start"])
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
    # never loads scipy.linalg, dipoles does
    assert _scipy_modules_after("import trapmodes.cli") == []
    run = "from trapmodes.cli import main\nassert main({!r}) == 0"
    out = ["--out", str(tmp_path / "p")]
    cutoffs = _scipy_modules_after(run.format(["cutoffs", *out]))
    assert "scipy.linalg" not in cutoffs and "scipy.optimize" not in cutoffs
    dipoles = _scipy_modules_after(run.format(["dipoles", "--N", "32", *out]))
    assert "scipy.linalg" in dipoles and "scipy.optimize" not in dipoles
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
