#!/usr/bin/env python3
"""Compare the exit codes and diagnostics of two source trees of trapmodes
over three parameter scans.

    python3 scripts/exit_scan.py BASE NEW

Each tree runs every argv in one child process, which puts ``TREE/src``
first on PYTHONPATH and calls ``trapmodes.cli.main`` in-process (at N = 64,
one BLAS thread). An outcome is the exit code and a message class: the
diagnostic line with every nonzero number masked as ``#`` and every zero
written ``0``, so that an underflow stays visible; on a resonance row that
exits 0, the printed ``near_embedded``. A run that raises is exit ``raise``
with the exception's class. The script prints every argv whose outcome
moved, grouped by (old outcome, new outcome) and by scan, and a count per
scan. The scans:

- ``direction1``: b, k = 10^-3 ... 10^3 in steps of 10^0.5; beta = 0.01,
  0.1, 0.5, 0.9, 0.999, 1-1e-9 and 1-1e-12; a = 0.1 b, 0.5 b and 0.9 b
  (17,745 runs);
- ``wide``: b, k = 10^-300 ... 10^300 in steps of 10^50; a = 0.1 b and
  0.9 b (1,690 runs);
- ``scale``: r, both ellipse axes (a0 = s, b0 = s/2) and epsilon =
  10^-300 ... 10^300 in steps of 10^10 (915 runs);

each with ``trapped`` and ``resonance`` on sides U and L, and ``embedded``.
Standard library only. Only the children (``exit_scan.py --child TREE``,
argvs as JSON on stdin) import trapmodes, each from its own tree, so it
compares any two trees. Exit status 1 when an outcome moved.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

N = ["--N", "64"]
COMMANDS = (["trapped"], ["trapped", "--side", "L"], ["resonance"],
            ["resonance", "--side", "L"], ["embedded"])
BETAS = ("0.01", "0.1", "0.5", "0.9", "0.999", repr(1 - 1e-9), repr(1 - 1e-12))


def _fluid_grid(values, fractions, betas):
    """The argvs over b and k in values, a = f b, beta and every command."""
    return [[*command, *beta, "--b", b, "--k", k, "--a", repr(fa * float(b)), *N]
            for b, k, beta, fa, command in itertools.product(
                values, values, betas, fractions, COMMANDS)]


def grids() -> dict[str, list[list[str]]]:
    """The three scans, by name, each a list of argvs in a fixed order."""
    sizes = [f"1e{e}" for e in range(-300, 301, 10)]
    sections = {
        "r": lambda s: ["--r", s],
        "ellipse": lambda s: ["--shape", "ellipse", "--a0", s,
                              "--b0", repr(0.5 * float(s))],
        "epsilon": lambda s: ["--epsilon", s],
    }
    return {
        "direction1": _fluid_grid([repr(10.0 ** (e / 2)) for e in range(-6, 7)],
                                  (0.1, 0.5, 0.9), [["--beta", beta] for beta in BETAS]),
        "wide": _fluid_grid([f"1e{e}" for e in range(-300, 301, 50)], (0.1, 0.9), [[]]),
        "scale": [[*command, *section(s), *N] for section in sections.values()
                  for s in sizes for command in COMMANDS],
    }


_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?!\w)")


def message_class(line: str) -> str:
    """line with every nonzero number masked as '#' and every zero as '0'."""
    return _NUMBER.sub(lambda m: "0" if float(m[0]) == 0.0 else "#", line)


def child(tree: str) -> int:
    """Run the argvs read from stdin against the trapmodes of tree/src and
    write each outcome, [exit code, message], to stdout as JSON."""
    from trapmodes import cli

    src = (Path(tree) / "src").resolve()
    if Path(cli.__file__).resolve().parents[1] != src:
        sys.exit(f"imported {cli.__file__}, not the package under {src}")
    runs = json.load(sys.stdin)
    results = []
    with tempfile.TemporaryDirectory(prefix="exit-scan-") as tmp:
        out = ["--out", str(Path(tmp) / "x")]
        for argv in runs:
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = cli.main([*argv, *out])
            except Exception as exc:  # a traceback is an outcome of its own
                results.append(["raise", f"{type(exc).__name__}: {exc}"])
                continue
            lines = [line for line in stderr.getvalue().splitlines()
                     if not line.startswith("warning: ")]
            message = lines[-1] if lines else ""
            rows = list(csv.DictReader(io.StringIO(stdout.getvalue())))
            if code == 0 and rows and "near_embedded" in rows[0]:
                message = f"near_embedded={rows[0]['near_embedded']}"
            results.append([code, message])
    json.dump(results, sys.stdout)
    return 0


def outcomes(tree: Path, runs: list[list[str]]) -> list[tuple]:
    """(exit code, message class) of each argv of runs against tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, __file__, "--child", str(tree)],
                          input=json.dumps(runs), env=env, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"the scan of {tree} failed:\n{proc.stderr}")
    return [(code, message_class(message)) for code, message in json.loads(proc.stdout)]


def compare(base: Path, new: Path, scans: dict[str, list[list[str]]]):
    """(scan, argv, base outcome, new outcome) of every argv whose outcome
    differs between the trees; the two trees run at the same time."""
    runs = [argv for argvs in scans.values() for argv in argvs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        base_out, new_out = pool.map(lambda tree: outcomes(tree, runs), (base, new))
    names = [name for name, argvs in scans.items() for _ in argvs]
    return [(name, argv, old, now) for name, argv, old, now
            in zip(names, runs, base_out, new_out) if old != now]


def _show(outcome: tuple) -> str:
    code, message = outcome
    return f"exit {code}" + (f" [{message}]" if message else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="tree of the reference checkout")
    parser.add_argument("new", type=Path, help="tree of the changed checkout")
    args = parser.parse_args(argv)
    scans = grids()
    moves = compare(args.base.resolve(), args.new.resolve(), scans)
    groups: dict[tuple, list] = {}
    for name, run, old, now in moves:
        groups.setdefault((old, now, name), []).append(run)
    for (old, now, name), runs in sorted(groups.items(), key=str):
        print(f"{_show(old)} -> {_show(now)}: {name}, {len(runs)} runs")
        for run in runs:
            print(f"    {' '.join(run)}")
    for name, argvs in scans.items():
        moved = sum(1 for scan, *_ in moves if scan == name)
        print(f"{name}: {len(argvs)} runs, {moved} moved")
    return 1 if moves else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(child(sys.argv[2]))
    sys.exit(main())
