#!/usr/bin/env python3
"""Record the benchmark of one checkout into BENCH_<tag>.json.

    python3 scripts/bench_record.py --tag 7
    python3 scripts/bench_record.py --tag 6 --checkout ../parent

Runs the checkout's own ``perfbench/run.py``, unmodified, once per seed of a
fixed list per workload, at ``--trace 0`` and at ``--trace 1``, for every
workload ``BENCHMARK.json`` declares. The runs are sequential (the benchmark
is a single closed-loop client and must not share the machine with itself).
The file holds, per workload and trace level, each metric's median, quartiles
and IQR over the seeds, the values themselves and the operation counts, plus
the checkout's git revision (``dirty`` when a file under ``MEASURED`` differs
from it) and the ``# env`` line that ``run.py`` prints
(machine, library versions, BLAS thread count). It is written to the root
of this script's checkout. Standard library only; the window of each run is
``BENCHMARK.json``'s ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

# what the benchmark builds and runs: "dirty" means one of these differs from
# the recorded revision, and an edited document does not count
MEASURED = ("src", "perfbench", "BENCHMARK.json", "pyproject.toml")
# fixed per workload so that every BENCH file is measured on the same operations
SEEDS = {
    "cli-points": (11, 12, 13, 14, 15),
    "sweep-fluid": (21, 22, 23, 24, 25),
    "sweep-shape": (31, 32, 33, 34, 35),
}


def git(checkout: Path, *args) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "?"


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict]:
    """One ``run.py`` run; returns (its ``# env`` dict, its result JSON)."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=checkout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), {})
    env.pop("trapmodes_file", None)  # a local path; the revision names the code
    return env, json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "values": values}


def record(checkout: Path, seconds: float, workloads) -> dict:
    envs, out = [], {}
    for workload in workloads:
        for trace in (0, 1):
            runs = []
            for seed in SEEDS[workload]:
                t0 = time.perf_counter()
                env, result = run_once(checkout, workload, seed, seconds, trace)
                envs.append(env)
                runs.append(result)
                print(f"# {workload} seed {seed} trace {trace}: "
                      f"{result['attempted']} operations, {result['failed']} "
                      f"failed, {time.perf_counter() - t0:.0f} s", flush=True)
            names = runs[0]["metrics"]
            out.setdefault(workload, {})[f"trace{trace}"] = {
                "seeds": list(SEEDS[workload]),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": {
                    name: {"unit": names[name]["unit"],
                           **summary([r["metrics"][name]["value"] for r in runs])}
                    for name in names},
            }
    distinct = [env for i, env in enumerate(envs) if env not in envs[:i]]
    if len(distinct) > 1:
        print("# warning: the # env line changed between runs", flush=True)
    return {"env": distinct[0], "env_variants": distinct[1:], "workloads": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True,
                    help="names the output file BENCH_<tag>.json")
    ap.add_argument("--checkout", type=Path, default=REPO,
                    help="the checkout to benchmark (default: this one)")
    args = ap.parse_args(argv)

    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    revision = git(checkout, "rev-parse", "HEAD")
    dirty = git(checkout, "status", "--porcelain", "--untracked-files=no",
                "--", *MEASURED) != ""
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    body = record(checkout, seconds, workloads)
    doc = {"tag": args.tag, "revision": revision, "dirty": dirty,
           "started_utc": started, "seconds": seconds,
           "command": ["python3", "perfbench/run.py", "--workload", "W",
                       "--seed", "S", "--seconds", f"{seconds:g}",
                       "--trace", "T"],
           **body}
    out = REPO / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
