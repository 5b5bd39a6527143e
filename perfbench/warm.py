"""Warm worker: calls ``trapmodes.cli.main(argv)`` repeatedly in one process.

This is what a Python API or notebook user sees once the package is
imported. The benchmark starts it with the thread-pinned environment and
talks to it over stdin/stdout, one JSON object per line:

    {"cmd": "env"}                          -> versions and BLAS settings
    {"cmd": "run", "argv": [...], "trace": false}
                                            -> {"rc", "csv", "stderr", "wall_s", "request"}
    {"cmd": "dump", "path": "spans.json"}   -> writes the recorded spans

With ``"trace": true`` the wrappers of ``tracer`` are installed for that one
call and restored after it. The worker exits when its stdin closes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import time
import traceback

from tracer import FIELDS, Tracer


def _env_info() -> dict:
    import numpy
    import scipy

    import trapmodes

    def blas(mod):
        deps = mod.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "trapmodes": trapmodes.__version__,
        "trapmodes_file": trapmodes.__file__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def _run(cli, tracer, req, request_id) -> dict:
    out, err = io.StringIO(), io.StringIO()
    if req.get("trace"):
        tracer.install(request_id)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = cli.main(req["argv"])
            wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    return {"rc": rc, "csv": out.getvalue(), "stderr": err.getvalue(),
            "wall_s": wall, "request": request_id}


def main() -> int:
    from trapmodes import cli

    tracer = Tracer()
    proto = sys.stdout
    for request_id, line in enumerate(sys.stdin):
        req = json.loads(line)
        try:
            if req["cmd"] == "env":
                reply = _env_info()
            elif req["cmd"] == "run":
                reply = _run(cli, tracer, req, request_id)
            elif req["cmd"] == "dump":
                with open(req["path"], "w", encoding="utf-8") as fh:
                    json.dump({"fields": FIELDS, "spans": tracer.spans}, fh)
                reply = {"spans": len(tracer.spans)}
            else:
                reply = {"error": f"unknown command {req['cmd']!r}"}
        except Exception:  # keep serving; the caller counts the failure
            reply = {"rc": None, "error": traceback.format_exc()}
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
