"""scripts/parity.py, the output-parity harness, on this checkout.

The script does not import the package, so its tables of sweepable
parameters and section fields are checked here against the CLI's own.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from trapmodes import cli

ROOT = Path(__file__).resolve().parents[1]


def _load_parity():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "scripts" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_argv_list_follows_the_cli_tables():
    parity = _load_parity()
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


def test_checkout_matches_itself():
    parity = _load_parity()
    runs = [["cutoffs"], ["trapped", "--epsilon", "0.2", "--N", "64"],
            ["dipoles", "--N", "1024"],
            ["sweep", "--what", "f", "--sweep", "a:0.1:0.9:4", "--N", "64"],
            ["resonance", "--config", "run.cfg", "--shape", "fourier",
             "--fourier-file", "section.txt", "--N", "64"],
            ["embedded", "--side", "L"]]
    assert parity.compare(ROOT, ROOT, [[argv] for argv in runs] + parity.RERUNS) == []


def test_script_imports_no_package_module():
    code = ("import runpy, sys\nrunpy.run_path(sys.argv[1])\n"
            "print(any(m.split('.')[0] == 'trapmodes' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-I", "-c", code,
                           str(ROOT / "scripts" / "parity.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_differences_names_each_kind():
    parity = _load_parity()

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
