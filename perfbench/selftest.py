#!/usr/bin/env python3
"""Self-test of the output checks, at tiny size (about three seconds).

    python3 perfbench/selftest.py

Runs four small CLI operations, requires that their output passes the
checks, then corrupts one reference value at a time (and once the output
itself) and requires that each corruption is reported as a failure. Exits 0
when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
from unittest import mock

import checks
from run import WORK_ROOT, child_env, spawn
from workloads import Op

OPS = [
    Op("cutoffs", {"beta": 0.5, "b": 1.0, "k": 1.0}),
    Op("dipoles", {"shape": "circle", "r": 1.0, "N": 64}),
    Op("embedded", {"beta": 0.5, "b": 1.0, "k": 1.0, "epsilon": 0.01,
                    "shape": "circle", "r": 1.0, "N": 64}),
    Op("f", {"beta": 0.09, "b": 1.0, "k": 1.0, "shape": "circle", "r": 1.0,
             "N": 64}, sweep=("a", 0.01, 0.99, 5)),
]


def _scaled(fn, factor, index=None):
    def corrupted(*args):
        value = fn(*args)
        if index is None:
            return value * factor
        return tuple(v * factor if i == index else v for i, v in enumerate(value))
    return corrupted


CORRUPTIONS = [
    ("tau1 reference off by 1e-7", "cutoffs",
     mock.patch.object(checks, "tau1_of", _scaled(checks.tau1_of, 1 + 1e-7))),
    ("circle mu reference off by 1e-6", "dipoles",
     mock.patch.object(checks, "closed_dipoles",
                       _scaled(checks.closed_dipoles, 1 + 1e-6, index=0))),
    ("lambda1' reference off by 1e-6", "cutoffs",
     mock.patch.object(checks, "lam1_prime", _scaled(checks.lam1_prime, 1 + 1e-6))),
    ("circle area reference off by 1e-6 (a* chain)", "embedded",
     mock.patch.object(checks, "closed_dipoles",
                       _scaled(checks.closed_dipoles, 1 + 1e-6, index=3))),
    ("root function reference off by 1e-6", "f",
     mock.patch.object(checks, "f_circle", _scaled(checks.f_circle, 1 + 1e-6))),
]


def main() -> int:
    work = WORK_ROOT / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    env = child_env()
    ok = True
    try:
        outputs = {}
        for op in OPS:
            res = spawn(["-m", "trapmodes.cli", *op.argv()], work, env)
            problems = ([f"exit code {res['rc']}: {res['stderr'][-200:]}"]
                        if res["rc"] else checks.check_csv(op, res["stdout"]))
            outputs[op.what] = (op, res["stdout"])
            print(f"{'ok  ' if not problems else 'FAIL'} clean {op.what}")
            for p in problems:
                print(f"     {p}")
            ok &= not problems
        for label, what, patch in CORRUPTIONS:
            op, text = outputs[what]
            with patch:
                problems = checks.check_csv(op, text)
            print(f"{'ok  ' if problems else 'FAIL'} caught: {label}"
                  + (f" -> {problems[0]}" if problems else " (not detected)"))
            ok &= bool(problems)
        op, text = outputs["dipoles"]
        header, row = text.splitlines()[:2]
        cells = row.split(",")
        cells[6] = repr(float(cells[6]) * (1 + 1e-6))  # mu
        problems = checks.check_csv(op, f"{header}\n{','.join(cells)}\n")
        print(f"{'ok  ' if problems else 'FAIL'} caught: corrupted mu in the output")
        ok &= bool(problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
