#!/usr/bin/env python3
"""Benchmark of the trapmodes CLI, end to end and per module.

    python3 perfbench/run.py --workload cli-points --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is taken from ``src/`` next
to this directory and driven only from outside: as ``python -m
trapmodes.cli`` child processes (cold, one per operation) and as repeated
``trapmodes.cli.main(argv)`` calls in one warmed child (``warm.py``). One
client, closed loop: each operation starts when the previous one ended.
Every child runs with one BLAS/OpenMP thread. A run measures whole cycles of
the workload's operation kinds, as many as fit ``--seconds`` best (at least
one), so every run holds the same mix of work.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
operations through the warm child only, untraced and then traced, and
reports the per-module metrics from the recorded spans and from ``python -X
importtime``. Every operation's CSV is checked against independent
references (``checks.py``) and against a byte-for-byte repeat of the same
argv. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Lines before it give the
environment, every metric with its unit, and each failed operation's argv.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
BLAS_THREADS = "1"
PROBES_PER_RUN = 12  # set-up / import-time probes spread over the window


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(args, cwd: Path, env: dict) -> dict:
    """Run `python <args>` to completion; wall time from spawn to exit."""
    with open(cwd / ".stdout", "wb") as out, open(cwd / ".stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": (cwd / ".stdout").read_text(encoding="utf-8", errors="replace"),
            "stderr": (cwd / ".stderr").read_text(encoding="utf-8", errors="replace")}


class Warm:
    """The warm child of ``warm.py``; a context manager that always reaps it."""

    def __init__(self, cwd: Path, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "warm.py")], cwd=cwd, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def call(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("warm worker exited")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return False

    def reap_rss(self):
        """Close the worker and return its peak RSS in MB."""
        self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss / 1024.0


def tail(values):
    """Mean of the slowest quarter of `values` (at least one), and its size."""
    slowest = sorted(values, reverse=True)[:max(1, round(len(values) / 4))]
    return statistics.fmean(slowest), len(slowest)


def write_files(op, work: Path):
    for name, text in op.files().items():
        (work / name).write_text(text, encoding="utf-8")


def verify(op, csv_text: str, repeats) -> list[str]:
    """Output checks plus byte identity against each repeat of the argv."""
    problems = checks.check_csv(op, csv_text)
    for label, text in repeats:
        if text != csv_text:
            problems.append(f"CSV of the {label} differs byte for byte")
    return problems


def warm_run(warm: Warm, argv, trace: bool) -> dict:
    reply = warm.call(cmd="run", argv=argv, trace=trace)
    if reply.get("rc") != 0:
        reply["problem"] = (f"in-process main returned {reply.get('rc')}: "
                            f"{(reply.get('stderr') or reply.get('error', ''))[-300:]}")
    return reply


def parse_importtime(stderr: str) -> dict:
    cum, own = {}, 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except (ValueError, IndexError):
            continue  # the header line
        name = parts[2].strip()
        cum[name] = cum_us * 1e-6
        if name == "trapmodes" or name.startswith("trapmodes."):
            own += self_us * 1e-6
    # a module the package no longer imports at start-up reads 0
    return {"import.total_s": cum.get("trapmodes", 0.0),
            "import.numpy_s": cum.get("numpy", 0.0),
            "import.scipy_linalg_s": cum.get("scipy.linalg", 0.0),
            "import.scipy_optimize_s": cum.get("scipy.optimize", 0.0),
            "import.trapmodes_own_s": own}


class Run:
    """One benchmark run: a workload, a seed, a window of `seconds`."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work = work
        self.env = child_env()
        self.attempted = 0
        self.failures = []  # (argv, problems)
        self.notes = {}  # metric name -> how it was sampled
        self.cycles = 0

    def record(self, op, problems):
        self.attempted += 1
        if problems:
            self.failures.append((op.argv(), problems))

    def warm_up(self, warm: Warm):
        """One call of each kind, sweeps on a 2-point grid, so that lazy
        imports and first calls fall outside the window."""
        for op in next(workloads.cycles(self.workload, self.seed, stream="warmup")):
            if op.sweep:
                op.sweep = (*op.sweep[:3], 2)
            write_files(op, self.work)
            warm_run(warm, op.argv(), trace=False)

    def window(self, probe):
        """Yield the ops of whole cycles for about `seconds`.

        A further cycle starts while at least half of it, judged by the
        length of the last one, fits in the window.

        `probe()` is called PROBES_PER_RUN times, between operations, at
        times spread evenly over `seconds`; the probes not yet taken when
        the last cycle ends are taken after it.
        """
        start = time.perf_counter()
        due = [start + i * self.seconds / PROBES_PER_RUN
               for i in range(PROBES_PER_RUN)][::-1]
        self.cycles = 0
        for cycle in workloads.cycles(self.workload, self.seed):
            began = time.perf_counter()
            for op in cycle:
                while due and time.perf_counter() >= due[-1]:
                    due.pop()
                    probe()
                write_files(op, self.work)
                yield op
            self.cycles += 1
            now = time.perf_counter()
            if now + (now - began) / 2 > start + self.seconds:
                break
        for _ in due:
            probe()

    def end_to_end(self, warm: Warm) -> dict:
        setup, walls, rss = [], [], []
        rows = warm_rows = 0
        cold_total = warm_total = 0.0

        def probe():
            res = spawn(["-c", "import trapmodes"], self.work, self.env)
            if res["rc"] != 0:
                raise RuntimeError(f"import probe failed: {res['stderr'][-300:]}")
            setup.append(res["wall_s"])
            rss.append(res["rss_mb"])

        for op in self.window(probe):
            argv = op.argv()
            cold = spawn(["-m", "trapmodes.cli", *argv], self.work, self.env)
            walls.append(cold["wall_s"])
            rss.append(cold["rss_mb"])
            if cold["rc"] != 0:
                self.record(op, [f"exit code {cold['rc']}: {cold['stderr'][-300:]}"])
                continue
            file_csv = (self.work / f"{workloads.OUT_STEM}.csv").read_text(encoding="utf-8")
            hot = warm_run(warm, argv, trace=False)
            problems = [hot["problem"]] if "problem" in hot else []
            problems += verify(op, cold["stdout"], [("CSV file", file_csv),
                                                    ("in-process repeat", hot.get("csv"))])
            self.record(op, problems)
            n = len(op.rows_params())
            rows += n
            cold_total += cold["wall_s"]
            if "problem" not in hot:
                warm_rows += n
                warm_total += hot["wall_s"]
        rss.append(warm.reap_rss())
        tail_value, slowest = tail(walls)
        self.notes = {"proc_wall_s.tail":
                      f"mean of the slowest {slowest} of {len(walls)} processes",
                      "proc_wall_s.p50": f"{len(walls)} processes, {self.cycles} cycles",
                      "setup_s": f"median of {len(setup)} import probes"}
        return {
            "setup_s": (statistics.median(setup), "s"),
            "proc_wall_s.p50": (statistics.median(walls), "s"),
            "proc_wall_s.tail": (tail_value, "s"),
            "points_per_s": (rows / cold_total if cold_total else 0.0, "1/s"),
            "warm_points_per_s": (warm_rows / warm_total if warm_total else 0.0, "1/s"),
            "peak_rss_mb": (max(rss), "MB"),
        }

    def per_layer(self, warm: Warm) -> dict:
        imports = defaultdict(list)
        untraced = traced = 0.0
        out_bytes = 0
        commands = {}  # request id of each traced call -> the table it made

        def probe():
            res = spawn(["-X", "importtime", "-c", "import trapmodes"],
                        self.work, self.env)
            if res["rc"] != 0:
                raise RuntimeError(f"import probe failed: {res['stderr'][-300:]}")
            for name, value in parse_importtime(res["stderr"]).items():
                imports[name].append(value)

        for op in self.window(probe):
            argv = op.argv()
            # alternate which call goes first, so neither gains from the other
            first = self.attempted % 2 == 0
            calls = {t: warm_run(warm, argv, trace=t) for t in (not first, first)}
            plain, spanned = calls[False], calls[True]
            problems = [r["problem"] for r in (plain, spanned) if "problem" in r]
            commands[spanned.get("request")] = op.what
            if not problems:
                problems = verify(op, spanned["csv"],
                                  [("untraced repeat", plain["csv"])])
                untraced += plain["wall_s"]
                traced += spanned["wall_s"]
                out_bytes += sum((self.work / f"{workloads.OUT_STEM}{ext}").stat().st_size
                                 for ext in (".csv", ".manifest.json"))
            self.record(op, problems)
        spans_path = WORK_ROOT / f"spans-{self.workload}-seed{self.seed}.json"
        warm.call(cmd="dump", path=str(spans_path))
        with open(spans_path, encoding="utf-8") as fh:
            dump = json.load(fh)
        spans = [dict(zip(dump["fields"], s)) for s in dump["spans"]]
        metrics = {name: (statistics.median(v), "s") for name, v in imports.items()}
        metrics.update(layer_metrics(spans, traced, untraced, out_bytes))
        self.notes = {"trace": f"{len(spans)} spans in {spans_path.relative_to(ROOT)}",
                      "cycles": f"{self.cycles} cycles",
                      **useful_by_command(spans, commands)}
        return metrics


def useful(group) -> float:
    """Distinct work per CLI run (request), over calls; 1 when never called."""
    distinct = defaultdict(set)
    for s in group:
        if not s["failed"]:
            distinct[s["request"]].add(json.dumps(s["key"]))
    return sum(map(len, distinct.values())) / len(group) if group else 1.0


# (metric, layer, op) of each useful ratio
USEFUL = (("contour.useful_ratio", "contour", None),
          ("potentialflow.assemble.useful_ratio", "potentialflow", "assemble"),
          ("dispersion.spectral_context.useful_ratio", "dispersion",
           "spectral_context"))


def useful_by_command(spans, commands) -> dict:
    """Each useful ratio split by the table of the CLI run, as notes."""
    notes = {}
    for name, layer, op in USEFUL:
        parts = []
        for what in sorted(set(commands.values())):
            group = [s for s in spans if s["layer"] == layer and s["entry"]
                     and (op is None or s["op"] == op)
                     and commands.get(s["request"]) == what]
            if group:
                parts.append(f"{what} {useful(group):.4g} ({len(group)} calls)")
        notes[f"{name} by table"] = ", ".join(parts) or "no calls"
    return notes


def layer_metrics(spans, traced_wall: float, untraced_wall: float,
                  out_bytes: int) -> dict:
    by_id = {s["id"]: s for s in spans}
    child = defaultdict(float)
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        if s["parent"] is not None:
            child[s["parent"]] += s["dur"]
    for s in spans:
        s["self"] = s["dur"] - child[s["id"]]
        parent = by_id.get(s["parent"])
        s["entry"] = parent is None or parent["layer"] != s["layer"]

    def pick(layer, op=None, entry=None):
        return [s for s in spans if s["layer"] == layer
                and (op is None or s["op"] == op)
                and (entry is None or s["entry"] == entry)]

    def self_s(group):
        return sum(s["self"] for s in group)

    def failures(layer):
        return sum(s["failed"] for s in pick(layer, entry=True))

    contour = pick("contour", entry=True)
    assemble = pick("potentialflow", "assemble")
    dipoles = pick("potentialflow", "dipoles_bem")
    context = pick("dispersion", "spectral_context")
    roots = pick("dispersion", "brentq")
    Ns = [s["key"][1] for s in assemble if s["key"] is not None]
    return {
        "cli.self_s": (self_s(pick("cli")), "s"),
        "cli.output_bytes": (out_bytes, "B"),
        "contour.calls": (len(contour), "count"),
        "contour.self_s": (self_s(pick("contour")), "s"),
        "contour.useful_ratio": (useful(contour), "ratio"),
        "contour.failures": (failures("contour"), "count"),
        "potentialflow.assemble.calls": (len(assemble), "count"),
        "potentialflow.assemble.self_s": (self_s(assemble), "s"),
        "potentialflow.assemble.useful_ratio": (useful(assemble), "ratio"),
        # operation and byte counts of one assembly and LU at N nodes, computed
        # from N: 2N^3/3 for the LU plus ~25 N^2 for kernel, Gauss check and
        # condition estimate; twelve N x N float64 arrays
        "potentialflow.assemble.flops_computed":
            (sum(2 * N**3 / 3 + 25 * N * N for N in Ns), "flop"),
        "potentialflow.assemble.bytes_computed": (sum(96 * N * N for N in Ns), "B"),
        "potentialflow.dipoles_bem.calls": (len(dipoles), "count"),
        "potentialflow.dipoles_bem.self_s": (self_s(dipoles), "s"),
        "potentialflow.failures": (failures("potentialflow"), "count"),
        "dispersion.spectral_context.calls": (len(context), "count"),
        "dispersion.spectral_context.self_s": (self_s(context), "s"),
        "dispersion.spectral_context.useful_ratio": (useful(context), "ratio"),
        "dispersion.root_solves": (len(roots), "count"),
        "dispersion.root_solve_s": (sum(s["dur"] for s in roots), "s"),
        "spectra.calls": (len(pick("spectra", entry=True)), "count"),
        "spectra.self_s": (self_s(pick("spectra")), "s"),
        "spectra.failures": (failures("spectra"), "count"),
        "embedded.calls": (len(pick("embedded", entry=True)), "count"),
        "embedded.self_s": (self_s(pick("embedded")), "s"),
        "embedded.failures": (failures("embedded"), "count"),
        "trace.overhead_ratio": (traced_wall / untraced_wall if untraced_wall else 0.0,
                                 "ratio"),
        # share of the traced wall of main() spent in the wrapped layers; time
        # in a call path no wrapper covers counts as cli self time and lowers it
        "trace.attributed_share": (1.0 - self_s(pick("cli")) / traced_wall
                                   if traced_wall else 0.0, "ratio"),
    }


def machine() -> dict:
    cpu = "?"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "trapmodes" / "cli.py").is_file():
        print(f"error: no trapmodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, args.seconds, work)
        probe = spawn(["-c", "import trapmodes; print(trapmodes.__file__)"],
                      work, run.env)
        found = Path(probe["stdout"].strip() or ".").resolve()
        if probe["rc"] != 0 or ROOT / "src" not in found.parents:
            print(f"error: cannot import trapmodes from {ROOT / 'src'}: "
                  f"{probe['stderr'][-300:]}", file=sys.stderr)
            return 2
        with Warm(work, run.env) as warm:
            env = {**machine(), **warm.call(cmd="env")}
            run.warm_up(warm)
            metrics = run.per_layer(warm) if args.trace else run.end_to_end(warm)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(run.failures)
    result = {"correct": failed == 0, "attempted": run.attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "notes": run.notes, "failures": run.failures, **result}
    with open(WORK_ROOT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# env {json.dumps(env)}")
    print(f"# workload {args.workload} seed {args.seed} window {args.seconds:g} s "
          f"trace {args.trace}: {run.attempted} operations, {failed} failed "
          f"(fail_ratio {failed / max(run.attempted, 1):g})")
    for name, (value, unit) in metrics.items():
        note = run.notes.get(name)
        print(f"{name:42s} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for note_name, note in run.notes.items():
        if note_name not in metrics:
            print(f"# {note_name}: {note}")
    for op_argv, problems in run.failures:
        print(f"FAILED trapmodes {' '.join(op_argv)}")
        for p in problems[:5]:
            print(f"    {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
