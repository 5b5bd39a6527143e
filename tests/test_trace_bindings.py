"""The benchmark's tracer must still see every layer the CLI calls into.

perfbench/tracer.py wraps module globals such as ``trapmodes.cli.assemble``.
That only works while the package looks those names up at call time; a
name captured at import (a dispatch dict, a default argument, a closure)
would keep calling the unwrapped function and its spans would silently
disappear. This test runs every command once under the tracer and checks
that each layer and each wrapped operation records a span, and that
``restore`` puts every original object back.
"""

import importlib
import importlib.util
from pathlib import Path

import trapmodes.cli as cli_mod

from goldens import EGG

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
LAYERS = {"cli", "contour", "potentialflow", "dispersion", "spectra", "embedded"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer_and_restores(tmp_path, capsys):
    tracer_mod = _load_tracer()
    originals = {(mod, attr): getattr(importlib.import_module(mod), attr)
                 for mod, attr, _, _ in tracer_mod.BINDINGS}
    egg = tmp_path / "egg.txt"
    egg.write_text("".join(
        f"{EGG['cos_x'][j]} {EGG['sin_x'][j]} {EGG['cos_y'][j]} {EGG['sin_y'][j]}\n"
        for j in range(len(EGG["cos_x"]))))
    ellipse = ["--shape", "ellipse", "--a0", "1.2", "--b0", "0.8"]
    runs = [
        ["cutoffs"],
        ["dipoles"],
        ["trapped"] + ellipse,
        ["trapped", "--side", "L", "--shape", "fourier", "--fourier-file", str(egg)],
        ["resonance"],
        ["resonance", "--side", "L"],
        ["embedded"],
        ["sweep", "--what", "f", "--sweep", "a:0.1:0.9:5"],
    ]
    tracer = tracer_mod.Tracer()
    tracer.install(request=0)
    try:
        for i, argv in enumerate(runs):
            out = str(tmp_path / f"run{i}")
            assert cli_mod.main(argv + ["--N", "64", "--out", out]) == 0, argv
    finally:
        tracer.restore()
    capsys.readouterr()

    spans = [dict(zip(tracer_mod.FIELDS, span)) for span in tracer.spans]
    assert LAYERS <= {s["layer"] for s in spans}
    assert {s["op"] for s in spans} == {attr for _, attr, _, _ in tracer_mod.BINDINGS}
    assert not any(s["failed"] for s in spans)
    for (mod, attr), original in originals.items():
        assert getattr(importlib.import_module(mod), attr) is original, (mod, attr)
