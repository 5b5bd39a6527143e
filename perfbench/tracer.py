"""Spans around the calls the CLI makes into each module of the package.

The CLI imports names directly (``from .contour import make_circle``), so a
wrapper must replace the binding the caller looks up, not only the
definition. ``BINDINGS`` lists every such binding on the CLI's paths:
the names ``trapmodes.cli`` imports, the ones ``trapmodes.embedded`` calls
through, the ``brentq`` each solver module binds, and the ``contour``
definitions that call each other through their own module. ``install``
swaps them for timing wrappers and ``restore`` puts the originals back.

A span is ``[id, parent, request, layer, op, start, end, failed, key]``.
``key`` identifies the work a call did (a contour's coefficients, a fluid
configuration) so that repeated work can be counted; it is computed after
the span's end time is taken.
"""

from __future__ import annotations

import importlib
import time

FIELDS = ("id", "parent", "request", "layer", "op", "start", "end", "failed",
          "key")


def _contour_key(C):
    return hash((C.cos_x.tobytes(), C.sin_x.tobytes(), C.cos_y.tobytes(),
                 C.sin_y.tobytes(), C.n_samples))


def _result_contour(args, kwargs, result):
    return _contour_key(result)


def _assemble_key(args, kwargs, result):
    N = args[1] if len(args) > 1 else kwargs.get("N", 256)
    return [_contour_key(args[0] if args else kwargs["C"]), N]


def _fluid_key(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return [cfg.beta, cfg.b, cfg.k]


# (module, attribute, layer, key function)
BINDINGS = (
    ("trapmodes.cli", "main", "cli", None),
    ("trapmodes.cli", "make_circle", "contour", _result_contour),
    ("trapmodes.cli", "make_ellipse", "contour", _result_contour),
    ("trapmodes.cli", "read_fourier_file", "contour", _result_contour),
    ("trapmodes.contour", "make_fourier", "contour", None),
    ("trapmodes.cli", "assemble", "potentialflow", _assemble_key),
    ("trapmodes.potentialflow", "assemble", "potentialflow", _assemble_key),
    ("trapmodes.cli", "dipoles_bem", "potentialflow", None),
    ("trapmodes.cli", "spectral_context", "dispersion", _fluid_key),
    ("trapmodes.embedded", "spectral_context", "dispersion", _fluid_key),
    ("trapmodes.dispersion", "brentq", "dispersion", None),
    ("trapmodes.embedded", "brentq", "dispersion", None),
    ("trapmodes.cli", "trapped_upper", "spectra", None),
    ("trapmodes.cli", "trapped_lower", "spectra", None),
    ("trapmodes.cli", "resonance_upper", "spectra", None),
    ("trapmodes.cli", "resonance_lower", "spectra", None),
    ("trapmodes.embedded", "resonance_upper", "spectra", None),
    ("trapmodes.cli", "a_star", "embedded", None),
    ("trapmodes.cli", "sweep_f", "embedded", None),
    ("trapmodes.embedded", "tau0", "embedded", None),
)


class Tracer:
    """Records spans in memory while installed; one instance per process."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._saved = []

    def install(self, request):
        self.request = request
        for modname, attr, layer, keyfn in BINDINGS:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, attr, keyfn))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, layer, op, keyfn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self.request,
                    layer, op, 0.0, 0.0, False, None]
            spans.append(span)
            stack.append(span[0])
            span[5] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[7] = True
                raise
            finally:
                span[6] = clock()
                stack.pop()
            if keyfn is not None:
                span[8] = keyfn(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced
