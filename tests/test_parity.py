"""scripts/parity.py, the two-tree comparison harness, on this checkout.

The script does not import the package, so its tables of sweepable
parameters and section fields are checked here against the CLI's own.
"""

import json
import subprocess
import sys
from pathlib import Path

from trapmodes import cli

ROOT = Path(__file__).resolve().parents[1]


def test_argv_list_follows_the_cli_tables(parity):
    assert {what: tuple(params.split()) for what, params in parity.SWEEPABLE.items()} \
        == cli._SWEEPABLE
    assert {shape: set(params) for shape, params in parity.SHAPE_PARAMS.items()} \
        == {shape: set(fields) - {"fourier_file"}
            for shape, fields in cli._SECTIONS.items()}
    assert set(parity.POINT_COMMANDS) | {"sweep"} == set(cli.COMMANDS)
    sweeps = {(argv[2], argv[4].split(":")[0]) for argv in parity.argvs()
              if argv[:2] == ["sweep", "--what"] and argv[3:4] == ["--sweep"]}
    assert sweeps >= {(what, param) for what, params in cli._SWEEPABLE.items()
                      for param in params}


def test_grids_have_their_documented_sizes(parity):
    sizes = {name: len(runs) for name, runs in parity.grids().items()}
    assert sizes == {"direction1": 17745, "wide": 1690, "scale": 915}


def test_message_class_keeps_zeros_and_names(parity):
    assert parity.message_class(
        "consistency error: resonance constants must be positive: D=0.0 "
        "(P0(k,Lambda2)=-0.296), D1=4.77e-300, im=nan") == (
        "consistency error: resonance constants must be positive: D=0 "
        "(P0(k,Lambda2)=#), D1=#, im=nan")


SCAN = [["trapped", "--b", "800", "--a", "799.5", "--N", "64"],
        ["trapped", "--side", "L", "--b", "800", "--a", "799.5", "--N", "64"],
        ["resonance", "--r", "1e-100", "--N", "64"],
        ["embedded", "--side", "L"]]


def test_scan_outcomes_name_code_and_message(parity, tmp_path):
    assert parity.run_tree(ROOT, [], SCAN, tmp_path)[1] == [
        (0, ""),
        (3, "consistency error: sigma = 0 is out of double range"),
        (0, "near_embedded=false"),
        (2, "error: side must be 'U': embedded modes arise in problem U, got 'L'")]


def test_checkout_matches_itself(parity):
    runs = [["cutoffs"], ["trapped", "--epsilon", "0.2", "--N", "64"],
            ["dipoles", "--N", "1024"],
            ["sweep", "--what", "f", "--sweep", "a:0.1:0.9:4", "--N", "64"],
            ["resonance", "--config", "run.cfg", "--shape", "fourier",
             "--fourier-file", "section.txt", "--N", "64"],
            ["embedded", "--side", "L"]]
    assert parity.compare(ROOT, ROOT, [[argv] for argv in runs] + parity.RERUNS,
                          {}) == ([], [])


def test_scans_match_themselves(parity):
    assert parity.compare(ROOT, ROOT, [], {"tiny": SCAN}) == ([], [])


def test_child_runs_as_a_fresh_process_does(parity, tmp_path):
    # what per-process runs of the CLI gave: exit codes, stdout, masked
    # stderr and output files, manifests compared as a case is
    runs = [[["--help"]], [["cutoffs", "--beta", "1.5"]], [["cutoffs", "--k", "1e200"]],
            [["sweep", "--what", "f", "--sweep", "a:0.1:0.9:4", "--N", "64"]],
            *parity.RERUNS]
    in_child = parity.run_tree(ROOT, runs, [], tmp_path / "child")[0]
    for i, (case, child_run) in enumerate(zip(runs, in_child)):
        path = parity.workdir(tmp_path / "fresh" / f"{i:03d}")
        procs = [subprocess.run([sys.executable, "-m", "trapmodes.cli", *argv], cwd=path,
                                env=parity.child_env(ROOT), capture_output=True,
                                timeout=300)
                 for argv in case]
        fresh = parity.case_result(ROOT, path, [
            [proc.returncode, proc.stdout.decode(), proc.stderr.decode()]
            for proc in procs])
        assert parity.differences(fresh, child_run) == [], case
    assert [run["exit"] for run in in_child] == ["0", "2", "3", "0", "0 0"]


def test_script_imports_no_package_module():
    code = ("import runpy, sys\nrunpy.run_path(sys.argv[1])\n"
            "print(any(m.split('.')[0] == 'trapmodes' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-I", "-c", code,
                           str(ROOT / "scripts" / "parity.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_differences_names_each_kind(parity):
    def run(exit=0, stderr="", csv=b"a\n1\n", cond=2.998046875000005, ctx=None):
        manifest = {"wall_time_s": 0.1, "spectral_context": ctx,
                    "bem": {"cond_estimate": cond}}
        return {"exit": exit, "stdout": csv, "stderr": stderr,
                "outputs": {"t.csv": csv, "t.manifest.json": json.dumps(manifest)}}

    base = run()
    # wall time and a last-bits move of the condition estimate are not differences
    assert parity.differences(base, run(cond=2.9980468750000053)) == []
    assert parity.differences(base, run(cond=2.998046880)) == [
        "t.manifest.json: bem.cond_estimate"]
    assert parity.differences(base, run(exit=3, stderr="x", csv=b"a\n2\n",
                                        ctx={"tau1": 3.0})) == [
        "exit 0 -> 3", "stdout", "stderr", "t.csv",
        "t.manifest.json: spectral_context"]
    # a manifest with an old run's tail after it is reported, not raised
    stale = run()
    stale["outputs"]["t.manifest.json"] += "\n}\n"
    assert parity.differences(base, stale) == ["t.manifest.json (not JSON)"]
