#!/usr/bin/env python3
"""Compare the CLI of two source trees of trapmodes.

    python3 scripts/parity.py BASE NEW

Each tree runs every argv below in one child process (``parity.py --child
TREE``, argvs as JSON on stdin), started with ``TREE/src`` first on
PYTHONPATH and one BLAS thread; the child checks that trapmodes came from
there and calls ``trapmodes.cli.main`` in-process. The script prints two
reports, and exits 1 when either finds a difference.

Cases, compared exactly. Each case runs in a fresh working directory that
holds the input files; a case is one argv, or a few argvs run one after
another in the same directory, so that a later run overwrites the outputs
of an earlier one. Reported is every case whose exit codes, stdout, stderr,
CSV bytes or manifest differ. Stderr is compared with the tree and
working-directory paths masked. Manifests are compared without
``wall_time_s``, and ``bem.cond_estimate`` to 1e-12 relative: LAPACK's
condition estimate moves in its last bits from run to run (2.998046875000005
and 2.9980468750000053 for two ``dipoles --N 1024`` runs of one tree).

The cases cover every sweepable (table, parameter) pair on a circle, an
ellipse and a Fourier file at N = 64; each command's point runs plain, with
--g, --config, epsilon > 0.1, side L and N = 1024; and the error, range,
lambda < 0 with --g, overflowing decay_rate, overflowing g lambda and k g,
saturated Rcal and Jcal, resonance constants out of range (tau1^3 and D1's
denominator), an underflowing D, sigma or Im sigma and the near-embedded
test of a tiny section, oversize sweep grid and N, help and version paths;
a bad value in a field the table ignores, and sweeps whose late point breaks
a rule; both paths of the contour's simplicity check: a non-convex (bean)
and a clockwise Fourier file, and ellipses of aspect 1e5 (convex
certificate) and 1e6 (crossing grid, rejected); the two paths of the
BEM: an odd-harmonic Fourier file with a nonzero sin_x (whole, though
centrally symmetric), the same file with an even harmonic of 1e-300
(whole), an odd-harmonic file with sin_x = cos_y = 0 (split) and the same
with a sin_x of 1e-300 (whole), a tilted ellipse at N = 1024, an ellipse and a circle at N = 32 (split, fewer rows than one
kernel pass), an ellipse at theta0 = -0 and a theta0 sweep through 0 (nu
prints 0); fluids at b k = 1 with k = 1e-100 and 1e-159,
and at b = 1e300 with k = 1e10 and 1e50, where b k overflows; and a one-row
run over a 50-row sweep's outputs.

Scans, compared by outcome. An outcome is the exit code and a message
class: the diagnostic line with every nonzero number masked as ``#`` and
every zero written ``0``, so that an underflow stays visible; on a
resonance row that exits 0, the printed ``near_embedded``. A run that
raises is exit ``raise`` with the exception's class. Reported is every argv
whose outcome moved, grouped by (old outcome, new outcome) and by scan, and
a count per scan. The scans, at N = 64:

- ``direction1``: b, k = 10^-3 ... 10^3 in steps of 10^0.5; beta = 0.01,
  0.1, 0.5, 0.9, 0.999, 1-1e-9 and 1-1e-12; a = 0.1 b, 0.5 b and 0.9 b
  (17,745 runs);
- ``wide``: b, k = 10^-300 ... 10^300 in steps of 10^50; a = 0.1 b and
  0.9 b (1,690 runs);
- ``scale``: r, both ellipse axes (a0 = s, b0 = s/2) and epsilon =
  10^-300 ... 10^300 in steps of 10^10 (915 runs);

each with ``trapped`` and ``resonance`` on sides U and L, and ``embedded``.

Standard library only. Only the children import trapmodes, each from its
own tree, so it compares any two trees.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

N = ["--N", "64"]
# the sweepable parameters of each table, and a range inside their domain
SWEEPABLE = {
    "cutoffs": "beta b k",
    "dipoles": "r a0 b0 theta0",
    "trapped": "beta b k a epsilon r a0 b0 theta0",
    "resonance": "beta b k a epsilon r a0 b0 theta0",
    "embedded": "beta b k epsilon r a0 b0 theta0",
    "f": "a",
}
RANGES = {"beta": (0.1, 0.9), "b": (0.6, 2.0), "k": (0.5, 2.0), "a": (0.1, 0.9),
          "epsilon": (0.005, 0.05), "r": (0.5, 1.5), "a0": (0.9, 1.7),
          "b0": (0.5, 1.1), "theta0": (0.0, 1.2)}
SECTIONS = {
    "circle": ["--shape", "circle", "--r", "0.8"],
    "ellipse": ["--shape", "ellipse", "--a0", "1.2", "--b0", "0.8", "--theta0", "0.3"],
    "fourier": ["--shape", "fourier", "--fourier-file", "section.txt"],
}
# the shape parameters each section reads; a sweep over another one exits 2
SHAPE_PARAMS = {"circle": {"r"}, "ellipse": {"a0", "b0", "theta0"}, "fourier": set()}
ALL_SHAPE_PARAMS = set().union(*SHAPE_PARAMS.values())
POINT_COMMANDS = ("cutoffs", "dipoles", "trapped", "resonance", "embedded")
# written into every working directory before a run
INPUT_FILES = {
    # a J = 3 egg-shaped section
    "section.txt": "1.0 0.0 0.0 0.8\n0.1 0.0 0.0 0.05\n0.0 0.02 0.03 0.0\n",
    # a bean, dented at the top: X = cos t, Y = 0.6 sin t + 0.3 cos 2t
    "bean.txt": "1.0 0.0 0.0 0.6\n0.0 0.0 0.3 0.0\n",
    # section.txt traversed clockwise (t -> -t)
    "clockwise.txt": "1.0 0.0 0.0 -0.8\n0.1 0.0 0.0 -0.05\n0.0 -0.02 0.03 0.0\n",
    # odd harmonics only, so r(t + pi) = -r(t), but a sin_x: the whole BEM
    "odd.txt": "1.0 0.0 0.0 0.8\n0.0 0.0 0.0 0.0\n0.05 0.02 0.0 -0.04\n",
    # odd.txt with one even harmonic of 1e-300: the whole BEM
    "odd_tiny.txt": "1.0 0.0 0.0 0.8\n1e-300 0.0 0.0 0.0\n0.05 0.02 0.0 -0.04\n",
    # odd harmonics, X a cosine and Y a sine series (sin_x = cos_y = 0), so
    # also r(-t) = (X(t), -Y(t)): the BEM splits it
    "odd_mirror.txt": "1.0 0.0 0.0 0.8\n0.0 0.0 0.0 0.0\n0.05 0.0 0.0 -0.04\n",
    # odd_mirror.txt with a sin_x of 1e-300: the whole BEM, not split
    "odd_mirror_tiny.txt": "1.0 1e-300 0.0 0.8\n0.0 0.0 0.0 0.0\n0.05 0.0 0.0 -0.04\n",
    "run.cfg": "# a non-default fluid and section\nbeta = 0.3\nb = 2\nk = 0.7\n"
               "a = 0.6\nepsilon = 0.02\nshape = ellipse\na0 = 1.3\nb0 = 0.9\n",
    "bad.cfg": "beta = 0.3\nthis line has no equals sign\n",
}
ERRORS = [
    ["cutoffs", "--beta", "1.5"], ["cutoffs", "--b", "-1"], ["cutoffs", "--k", "0"],
    ["cutoffs", "--beta", "nan"], ["trapped", "--a", "1.5"],
    ["trapped", "--epsilon", "0"], ["trapped", "--g", "-1"],
    ["dipoles", "--shape", "fourier"],
    ["dipoles", "--shape", "fourier", "--fourier-file", "missing.txt"],
    ["dipoles", "--shape", "ellipse", "--a0", "1", "--b0", "1e-13"],
    ["dipoles", "--shape", "ellipse", "--a0", "1e-13", "--b0", "1"],
    ["dipoles", "--shape", "ellipse", "--a0", "-1"],
    ["sweep", "--what", "trapped"], ["sweep", "--sweep", "a:0.1:0.9:3"],
    ["sweep", "--what", "f", "--sweep", "a:0:1:5"],
    ["sweep", "--what", "dipoles", "--sweep", "r:1:2:3", "--shape", "ellipse"],
    ["sweep", "--what", "trapped", "--sweep", "x:1:2:3"],
    ["sweep", "--what", "trapped", "--sweep", "a:0.9:0.1:3"],
    ["sweep", "--what", "trapped", "--sweep", "a:0.1:0.9:1"],
    ["trapped", "--sweep", "a:0.1:0.9:3"], ["embedded", "--side", "L"],
    ["cutoffs", "--config", "missing.cfg"], ["cutoffs", "--config", "bad.cfg"],
    ["cutoffs", "--beta"], ["frobnicate"], ["cutoffs", "--out", "no/such/dir/x"],
    # the out-of-double-range outcomes
    ["cutoffs", "--k", "1e200"], ["sweep", "--what", "f", "--k", "1e200",
                                   "--sweep", "a:0.1:0.9:3"],
    ["dipoles", "--r", "1e160"], ["trapped", "--r", "1e80"],
    ["trapped", "--side", "L", "--r", "1e80"], ["resonance", "--r", "1e80"],
    ["resonance", "--side", "L", "--r", "1e80"], ["embedded", "--r", "1e80"],
    ["trapped", "--epsilon", "1e200", *N],
    ["trapped", "--side", "L", "--epsilon", "1e200", *N],
    ["resonance", "--epsilon", "1e100", *N],
    ["resonance", "--side", "L", "--epsilon", "1e100", *N],
    ["embedded", "--epsilon", "1e100", *N], ["embedded", "--epsilon", "1e200", *N],
    # resonance_upper's constants out of range: tau1^3 overflows, or D1's
    # denominator underflows to 0
    ["embedded", "--b", "1e-150", "--k", "1e150", *N],
    ["resonance", "--b", "1e-300", "--k", "1", "--a", "1e-301", *N],
    ["resonance", "--k", "1e-25", "--b", "1e-225", "--a", "5e-226", *N],
    # a D that underflows prints 0 (U), a sigma that underflows is refused
    # (L), and a result of a small section underflows or is tested unsquared
    ["trapped", "--b", "800", "--a", "799.5"],
    ["trapped", "--b", "1", "--k", "1000", "--beta", "0.01", "--a", "0.9", *N],
    ["trapped", "--side", "L", "--b", "800", "--a", "799.5"],
    ["resonance", "--b", "800", "--a", "799.5"],
    ["resonance", "--side", "L", "--r", "1e-80", *N], ["resonance", "--r", "1e-100", *N],
    # lambda < 0 (sigma > 1): no real frequency
    ["trapped", "--r", "1000", "--g", "9.81", *N],
    ["trapped", "--side", "L", "--r", "1000", "--g", "9.81", *N],
    # --g on a refused result, on results whose decay_rate overflows, and
    # where g lambda or k g overflows but omega or decay_rate does not
    ["trapped", "--epsilon", "1e200", "--g", "9.81", *N],
    ["trapped", "--side", "L", "--epsilon", "1e200", "--g", "9.81", *N],
    ["resonance", "--side", "L", "--epsilon", "1e60", "--g", "9.81", *N],
    ["trapped", "--k", "10", "--b", "0.2", "--a", "0.1", "--g", "1.7e308", *N],
    ["resonance", "--k", "10", "--b", "0.2", "--a", "0.1", "--g", "1.7e308", *N],
    # Rcal and Jcal saturate to signed infinities (a tau1 > 709.78)
    ["resonance", "--beta", "0.999", "--a", "0.9", *SECTIONS["ellipse"], *N],
    # a sweep grid and an N too large to allocate: each array would exceed
    # the user address space, so none is allocated
    ["sweep", "--what", "cutoffs", "--sweep", f"k:1:2:{10**16}"],
    ["sweep", "--what", "cutoffs", "--sweep", f"k:1:2:{10**19}"],
    ["dipoles", "--N", str(2**50)], ["dipoles", "--N", str(2**62)],
    # a bad value in a field the table ignores
    ["cutoffs", "--N", "48"], ["cutoffs", "--N", str(2**50)],
    ["dipoles", "--beta", "2"], ["embedded", "--a", "-1"],
    # sweeps whose late point breaks a rule; in the third, the first point
    # fails in a stage (sigma underflows to 0 at b k = 1000)
    ["sweep", "--what", "trapped", "--shape", "ellipse", "--a0", "1.3", "--b0", "0.6",
     "--N", "1024", "--sweep", "a:0.1:1.2:12"],
    ["sweep", "--what", "trapped", "--b", "1", "--k", "1000", "--sweep", "a:0.9:1.1:3"],
    ["sweep", "--what", "trapped", "--b", "1", "--k", "1000", "--sweep", "a:0.1:1.1:3"],
]
# the two paths of the simplicity check: the O(n) convex certificate, and the
# crossing grid on a section it cannot certify
CONTOUR_PATHS = [
    ["dipoles", "--shape", "fourier", "--fourier-file", "bean.txt", *N],
    ["trapped", "--shape", "fourier", "--fourier-file", "bean.txt", *N],
    ["dipoles", "--shape", "fourier", "--fourier-file", "clockwise.txt", *N],
    # certified; the Gauss law then fails at N = 256
    ["dipoles", "--shape", "ellipse", "--a0", "1", "--b0", "1e-5"],
    # not certified; the grid refuses it as self-intersecting
    ["dipoles", "--shape", "ellipse", "--a0", "1", "--b0", "1e-6"],
]
# the two BEM paths: a section symmetric about both axes (a circle, an
# ellipse in its own frame) is solved on two quarter-size blocks, and any
# other, one with a single sin_x, cos_y or even harmonic of 1e-300 included,
# as a whole
BEM_PATHS = [
    ["dipoles", "--shape", "fourier", "--fourier-file", "odd.txt", *N],
    ["dipoles", "--shape", "fourier", "--fourier-file", "odd_tiny.txt", *N],
    ["dipoles", "--shape", "fourier", "--fourier-file", "odd_mirror.txt", *N],
    ["dipoles", "--shape", "fourier", "--fourier-file", "odd_mirror_tiny.txt", *N],
    # split at N = 32: its N/4 + 1 = 9 rows are fewer than one pass of _BLOCK
    ["dipoles", "--N", "32"],
    # an untilted ellipse prints nu = 0, at theta0 = -0 too, and at the middle
    # point of a theta0 sweep through 0, which reuses the untilted dipoles
    ["dipoles", "--shape", "ellipse", "--a0", "1.3", "--b0", "0.6", "--theta0", "-0"],
    ["sweep", "--what", "dipoles", "--sweep", "theta0:-0.6:0.6:3",
     *SECTIONS["ellipse"], *N],
    ["resonance", "--shape", "ellipse", "--a0", "1.3", "--b0", "0.6", "--theta0", "0.4",
     "--N", "1024"],
    # an ellipse is split in its own frame at any tilt, here at N = 32
    ["dipoles", "--shape", "ellipse", "--a0", "1.3", "--b0", "0.9", "--theta0", "0.4",
     "--N", "32"],
]
# fluids at b k = 1 far from k = 1, whose threshold root is solved in units
# k = 1: at k = 1e-159 the radicands of p1_zero and q1 would be subnormal;
# and fluids whose b k overflows, where lambda1'(k) and lambda1'(tau1) keep
# their tanh terms alone and sech^2(b tau) is 0
SCALED_FLUIDS = [
    ["cutoffs", "--k", "1e-100", "--b", "1e100"],
    ["cutoffs", "--k", "1e-159", "--b", "1e159"],
    ["trapped", "--k", "1e-100", "--b", "1e100", "--a", "5e99"],
    ["sweep", "--what", "f", "--k", "1e-100", "--b", "1e100", "--sweep", "a:0.1:0.9:3"],
    ["cutoffs", "--b", "1e300", "--k", "1e10"],
    ["embedded", "--b", "1e300", "--k", "1e50"],
]
# argvs run in one working directory: the point run rewrites the sweep's
# longer CSV and manifest, which must leave no tail of them behind
RERUNS = [
    [["sweep", "--what", "cutoffs", "--sweep", "beta:0.1:0.9:50", "--out", "rerun"],
     ["cutoffs", "--out", "rerun"]],
]


def argvs() -> list[list[str]]:
    """The fixed argv list, in a fixed order."""
    runs = []
    for what, params in SWEEPABLE.items():
        for param in params.split():
            lo, hi = RANGES[param]
            for shape, section in SECTIONS.items():
                if param in ALL_SHAPE_PARAMS - SHAPE_PARAMS[shape]:
                    continue
                runs.append(["sweep", "--what", what, "--sweep",
                             f"{param}:{lo}:{hi}:4", *section, *N])
    for command in POINT_COMMANDS:
        runs += [[command, *section, *N] for section in SECTIONS.values()]
        runs += [[command, *extra, *N] for extra in (
            ["--g", "9.81"], ["--config", "run.cfg"], ["--epsilon", "0.2"],
            ["--side", "L"])]
        runs.append([command, "--N", "1024"])
    runs += ERRORS
    runs += CONTOUR_PATHS
    runs += BEM_PATHS
    runs += SCALED_FLUIDS
    runs += [["--help"], ["--version"]]
    runs += [[command, "--help"] for command in (*POINT_COMMANDS, "sweep")]
    return runs


def cases() -> list[list[list[str]]]:
    """Every argv as a case of its own, then the reruns."""
    return [[argv] for argv in argvs()] + RERUNS


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


def child(tree: str) -> int:
    """Run the (working directory, argv) pairs read from stdin, in order,
    against the trapmodes of tree/src, and write each one's [exit code,
    stdout, stderr] to stdout as JSON."""
    from trapmodes import cli

    src = (Path(tree) / "src").resolve()
    if Path(cli.__file__).resolve().parents[1] != src:
        sys.exit(f"imported {cli.__file__}, not the package under {src}")
    results = []
    for cwd, argv in json.load(sys.stdin):
        os.chdir(cwd)
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception as exc:  # a traceback is an outcome of its own
            code = "raise"
            stderr.write(f"{type(exc).__name__}: {exc}\n")
        results.append([code, stdout.getvalue(), stderr.getvalue()])
    json.dump(results, sys.stdout)
    return 0


def child_env(tree: Path) -> dict[str, str]:
    """This process's environment with tree/src first on PYTHONPATH and one
    BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def workdir(path: Path) -> Path:
    """path, made and holding the input files."""
    path.mkdir(parents=True)
    for name, text in INPUT_FILES.items():
        (path / name).write_text(text)
    return path


def case_result(tree: Path, path: Path, runs: list[list]) -> dict:
    """What the runs of one case, each [exit code, stdout, stderr], printed,
    with the tree and working-directory paths masked in stderr, and what
    their working directory path holds after the last one."""
    stderr = "".join(err for _, _, err in runs)
    for real, mask in ((path, "<cwd>"), (tree / "src", "<tree>/src")):
        stderr = stderr.replace(str(real.resolve()), mask)
    outputs = {p.name: p.read_bytes() for p in sorted(path.iterdir())
               if p.is_file() and p.name not in INPUT_FILES}
    return {"exit": " ".join(str(code) for code, _, _ in runs),
            "stdout": "".join(out for _, out, _ in runs), "stderr": stderr,
            "outputs": outputs}


_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?!\w)")


def message_class(line: str) -> str:
    """line with every nonzero number masked as '#' and every zero as '0'."""
    return _NUMBER.sub(lambda m: "0" if float(m[0]) == 0.0 else "#", line)


def outcome(code, stdout: str, stderr: str) -> tuple:
    """(exit code, message class) of one scan run: of its last diagnostic
    line, or of the near_embedded that a resonance row exiting 0 prints."""
    lines = [line for line in stderr.splitlines() if not line.startswith("warning: ")]
    message = lines[-1] if lines else ""
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if code == 0 and rows and "near_embedded" in rows[0]:
        message = f"near_embedded={rows[0]['near_embedded']}"
    return code, message_class(message)


def run_tree(tree: Path, runs: list[list[list[str]]], scan_runs: list[list[str]],
             tmp: Path) -> tuple[list[dict], list[tuple]]:
    """The case_result of each case of runs and the outcome of each argv of
    scan_runs, all run by one child against tree in working directories
    under tmp."""
    dirs = [workdir(tmp / f"{i:03d}") for i in range(len(runs))]
    jobs = [(str(path), argv) for path, case in zip(dirs, runs) for argv in case]
    scan_dir = workdir(tmp / "scan")
    jobs += [(str(scan_dir), [*argv, "--out", "x"]) for argv in scan_runs]
    proc = subprocess.run([sys.executable, __file__, "--child", str(tree)],
                          input=json.dumps(jobs), env=child_env(tree),
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"the child of {tree} failed:\n{proc.stderr}")
    results = iter(json.loads(proc.stdout))
    case_results = [case_result(tree, path, [next(results) for _ in case])
                    for path, case in zip(dirs, runs)]
    return case_results, [outcome(*result) for result in results]


def _manifest_diff(a, b, path=""):
    """The dotted keys where two manifests differ, the condition estimate
    compared to 1e-12 relative."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [d for key in sorted(set(a) | set(b))
                for d in _manifest_diff(a.get(key), b.get(key),
                                        f"{path}.{key}" if path else key)]
    if path == "bem.cond_estimate" and isinstance(a, float) and isinstance(b, float):
        return [] if math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0) else [path]
    return [] if a == b else [path]


def differences(base: dict, new: dict) -> list[str]:
    """What differs between the two runs of one case."""
    found = [f"exit {base['exit']} -> {new['exit']}"] if base["exit"] != new["exit"] else []
    found += [field for field in ("stdout", "stderr") if base[field] != new[field]]
    for name in sorted(set(base["outputs"]) | set(new["outputs"])):
        a, b = base["outputs"].get(name), new["outputs"].get(name)
        if a is None or b is None:
            found.append(f"{name} (written by one tree only)")
        elif name.endswith(".manifest.json"):
            try:
                a, b = json.loads(a), json.loads(b)
            except ValueError:  # e.g. a rewrite that left an old tail behind
                found.append(f"{name} (not JSON)")
                continue
            a.pop("wall_time_s"), b.pop("wall_time_s")
            keys = _manifest_diff(a, b)
            if keys:
                found.append(f"{name}: {', '.join(keys)}")
        elif a != b:
            found.append(name)
    return found


def compare(base: Path, new: Path, runs: list[list[list[str]]],
            scans: dict[str, list[list[str]]]):
    """The (case, differences) of every case of runs on which the trees
    differ, and the (scan, argv, base outcome, new outcome) of every argv of
    scans whose outcome moved; the two trees run at the same time."""
    scan_runs = [argv for argvs in scans.values() for argv in argvs]
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp, \
            concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        (base_cases, base_scan), (new_cases, new_scan) = pool.map(
            lambda side, tree: run_tree(tree, runs, scan_runs, Path(tmp) / side),
            ("base", "new"), (base, new))
    diffs = [(case, found) for case, base_run, new_run
             in zip(runs, base_cases, new_cases)
             if (found := differences(base_run, new_run))]
    names = [name for name, argvs in scans.items() for _ in argvs]
    moves = [(name, argv, old, now) for name, argv, old, now
             in zip(names, scan_runs, base_scan, new_scan) if old != now]
    return diffs, moves


def _show(outcome: tuple) -> str:
    code, message = outcome
    return f"exit {code}" + (f" [{message}]" if message else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="tree of the reference checkout")
    parser.add_argument("new", type=Path, help="tree of the changed checkout")
    args = parser.parse_args(argv)
    runs, scans = cases(), grids()
    diffs, moves = compare(args.base.resolve(), args.new.resolve(), runs, scans)
    for case, found in diffs:
        print(" ; ".join(" ".join(argv) for argv in case))
        for item in found:
            print(f"    {item}")
    print(f"{len(runs)} cases ({sum(map(len, runs))} argvs), {len(diffs)} differ")
    groups: dict[tuple, list] = {}
    for name, run, old, now in moves:
        groups.setdefault((old, now, name), []).append(run)
    for (old, now, name), group in sorted(groups.items(), key=str):
        print(f"{_show(old)} -> {_show(now)}: {name}, {len(group)} runs")
        for run in group:
            print(f"    {' '.join(run)}")
    for name, argvs in scans.items():
        moved = sum(1 for scan, *_ in moves if scan == name)
        print(f"{name}: {len(argvs)} runs, {moved} moved")
    return 1 if diffs or moves else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(child(sys.argv[2]))
    sys.exit(main())
