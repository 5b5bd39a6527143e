"""scripts/exit_scan.py, the exit-code scan of two trees, on this checkout."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "exit_scan.py"


def _load_exit_scan():
    spec = importlib.util.spec_from_file_location("exit_scan", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grids_have_their_documented_sizes():
    sizes = {name: len(runs) for name, runs in _load_exit_scan().grids().items()}
    assert sizes == {"direction1": 17745, "wide": 1690, "scale": 915}


def test_message_class_keeps_zeros_and_names():
    exit_scan = _load_exit_scan()
    assert exit_scan.message_class(
        "consistency error: resonance constants must be positive: D=0.0 "
        "(P0(k,Lambda2)=-0.296), D1=4.77e-300, im=nan") == (
        "consistency error: resonance constants must be positive: D=0 "
        "(P0(k,Lambda2)=#), D1=#, im=nan")


def test_checkout_matches_itself():
    exit_scan = _load_exit_scan()
    runs = [["trapped", "--b", "800", "--a", "799.5", "--N", "64"],
            ["trapped", "--side", "L", "--b", "800", "--a", "799.5", "--N", "64"],
            ["resonance", "--r", "1e-100", "--N", "64"],
            ["embedded", "--side", "L"]]
    assert exit_scan.outcomes(ROOT, runs) == [
        (0, ""),
        (3, "consistency error: trapped-mode sigma must be positive, got 0"),
        (0, "near_embedded=false"),
        (2, "error: side must be 'U': embedded modes arise in problem U, got 'L'")]
    assert exit_scan.compare(ROOT, ROOT, {"tiny": runs}) == []


def test_script_imports_no_package_module():
    code = ("import runpy, sys\nrunpy.run_path(sys.argv[1])\n"
            "print(any(m.split('.')[0] == 'trapmodes' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(SCRIPT)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
