"""tests/goldens.py must be what scripts/generate_goldens.py prints.

The generator evaluates every golden without the package, so the frozen
values cannot inherit a package bug. This test runs it with ``python -I``,
which keeps PYTHONPATH and the current directory off its path, parses the
printed ``"key": value,`` lines and compares them with ``GOLD``.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from goldens import GOLD

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "generate_goldens.py"
LINE = re.compile(r'^\s*"(\w+)": (\S+),$')


def test_goldens_match_generator():
    proc = subprocess.run([sys.executable, "-I", str(SCRIPT)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    printed = {}
    for line in proc.stdout.splitlines():
        m = LINE.match(line)
        assert m, f"unexpected generator output line {line!r}"
        printed[m.group(1)] = float(m.group(2))
    assert printed.keys() == GOLD.keys()
    for key, value in printed.items():
        assert value == pytest.approx(GOLD[key], rel=1e-14, abs=0.0), key
