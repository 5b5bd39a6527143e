#!/usr/bin/env python3
"""Compare the CLI output of two source trees of trapmodes.

    python3 scripts/parity.py BASE NEW

Runs a fixed list of cases as ``python -m trapmodes.cli`` once with
``BASE/src`` and once with ``NEW/src`` first on PYTHONPATH, each case in a
fresh working directory, and reports every case whose exit codes, stdout,
stderr, CSV bytes or manifest differ. A case is one argv, or a few argvs run
one after another in the same directory, so that a later run overwrites the
outputs of an earlier one. Stderr is compared with the tree and
working-directory paths masked. Manifests are compared without
``wall_time_s``, and ``bem.cond_estimate`` to 1e-12 relative: LAPACK's
condition estimate moves in its last bits from run to run (2.998046875000005
and 2.9980468750000053 for two ``dipoles --N 1024`` runs of one tree).

The argvs cover every sweepable (table, parameter) pair on a circle, an
ellipse and a Fourier file at N = 64; each command's point runs plain, with
--g, --config, epsilon > 0.1, side L and N = 1024; and the error, range,
lambda < 0 with --g, overflowing decay_rate, overflowing g lambda and k g,
saturated Rcal and Jcal, oversize sweep grid and N, help and version paths;
and both paths of the contour's simplicity check: a non-convex (bean) and a
clockwise Fourier file, and ellipses of aspect 1e5 (convex certificate) and
1e6 (crossing grid, rejected); and a one-row run over a 50-row sweep's
outputs. Standard library only, and it does not import trapmodes, so it
compares any two trees. Exit status 1 when a difference is found.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
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
    runs += [["--help"], ["--version"]]
    runs += [[command, "--help"] for command in (*POINT_COMMANDS, "sweep")]
    return runs


def cases() -> list[list[list[str]]]:
    """Every argv as a case of its own, then the reruns."""
    return [[argv] for argv in argvs()] + RERUNS


def run_once(tree: Path, case: list[list[str]], workdir: Path) -> dict:
    """Run the argvs of case against tree, in order, in workdir; returns what
    they printed and what the directory holds after the last one."""
    workdir.mkdir(parents=True)
    for name, text in INPUT_FILES.items():
        (workdir / name).write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    procs = [subprocess.run([sys.executable, "-m", "trapmodes.cli", *argv],
                            cwd=workdir, env=env, capture_output=True, timeout=300)
             for argv in case]
    stderr = "".join(proc.stderr.decode("utf-8", "replace") for proc in procs)
    for path, mask in ((workdir, "<cwd>"), (tree / "src", "<tree>/src")):
        stderr = stderr.replace(str(path.resolve()), mask)
    outputs = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())
               if p.is_file() and p.name not in INPUT_FILES}
    return {"exit": " ".join(str(proc.returncode) for proc in procs),
            "stdout": b"".join(proc.stdout for proc in procs), "stderr": stderr,
            "outputs": outputs}


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


def compare(base: Path, new: Path, runs: list[list[list[str]]], jobs: int = 2):
    """(case, differences) for every case of runs on which the trees differ."""
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tasks = [(tree, case, Path(tmp) / side / f"{i:03d}")
                 for i, case in enumerate(runs)
                 for side, tree in (("base", base), ("new", new))]
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda task: run_once(*task), tasks))
    return [(case, found) for case, base_run, new_run
            in zip(runs, results[0::2], results[1::2])
            if (found := differences(base_run, new_run))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="tree of the reference checkout")
    parser.add_argument("new", type=Path, help="tree of the changed checkout")
    args = parser.parse_args(argv)
    runs = cases()
    diffs = compare(args.base.resolve(), args.new.resolve(), runs)
    for case, found in diffs:
        print(" ; ".join(" ".join(argv) for argv in case))
        for item in found:
            print(f"    {item}")
    print(f"{len(runs)} cases ({sum(map(len, runs))} argvs), {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
