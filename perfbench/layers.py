"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public calls of each layer named in
:data:`TARGETS` with a timing wrapper.  Nothing inside ``src/`` changes:
the wrappers replace attributes on the already-imported classes and
modules, and :meth:`Tracer.uninstall` puts the originals back.

Every wrapped call becomes one span ``(name, thread, start, end, self)``
kept in memory.  A span's *self* time is its duration minus the time
its direct child spans on the same thread cover; spans on one thread
nest strictly, so the children's summed durations are exactly that
coverage.  :meth:`Tracer.dump` writes the spans out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from time import perf_counter

#: ``(span name, module, attribute path)``.  ``Class.method`` paths wrap
#: the method on the class and on every loaded subclass that overrides
#: it; bare function names are replaced in every loaded ``repro`` module
#: that holds them.  A target the code no longer has is skipped and
#: listed in :attr:`Tracer.missing`, so the benchmark keeps running
#: across refactors of the program.
TARGETS = (
    ("dut.build", "repro.dut.active_rc", "ActiveRCLowpass.__init__"),
    ("dut.build", "repro.dut.active_rc", "FilterComponents.with_tolerance"),
    ("dut.batch_response", "repro.dut.base", "DUT.batch_response"),
    ("dut.frequency_response", "repro.dut.base", "DUT.frequency_response"),
    ("dut.frequency_response", "repro.dut.base", "DUT.gain_at"),
    ("dut.settling_time", "repro.dut.base", "DUT.settling_time"),
    ("engine.run", "repro.engine.runner", "BatchRunner.run_trials"),
    ("engine.run", "repro.engine.runner", "BatchRunner.run_fault_trials"),
    ("engine.run", "repro.engine.runner", "BatchRunner.run_pseudorandom_trials"),
    ("engine.run", "repro.engine.runner", "BatchRunner.run_sweep"),
    ("engine.measure", "repro.engine.vectorized", "PopulationMeasurer.measure"),
    ("engine.calibration", "repro.engine.cache", "CalibrationCache.get_or_acquire"),
    ("generator.render", "repro.generator.sinewave_generator", "SinewaveGenerator.render"),
    ("generator.render", "repro.generator.sinewave_generator", "SinewaveGenerator.render_held"),
    ("evaluator.modulate", "repro.evaluator.sigma_delta", "FirstOrderSigmaDelta.modulate"),
    ("bist.verdict", "repro.bist.program", "point_verdict"),
    ("bist.verdict", "repro.bist.program", "BISTReport.verdict"),
    ("faults.campaign", "repro.faults.campaign", "FaultCampaign.run"),
    ("prbist.lfsr", "repro.prbist.lfsr", "lfsr_bits"),
    ("prbist.misr", "repro.prbist.misr", "misr_compact"),
    ("prbist.misr", "repro.prbist.misr", "misr_compact_array"),
    ("scenarios.compile", "repro.scenarios.compiler", "compile_scenario"),
    ("api.session", "repro.api.session", "Session.run_scenario"),
    ("api.session", "repro.api.session", "Session.sweep"),
    ("api.session", "repro.api.session", "Session.yield_lot"),
    ("api.session", "repro.api.session", "Session.fault_coverage"),
    ("api.session", "repro.api.session", "Session.pseudorandom_coverage"),
    ("reporting.serialize", "repro.reporting.export", "baseline_to_json"),
    ("service.reassemble", "repro.service.wire", "result_from_frames"),
)

#: Modules imported before patching, so that every holder of a wrapped
#: function is already loaded (the service and CLI import by name).
_PRELOAD = ("repro", "repro.api", "repro.scenarios", "repro.service", "repro.cli")


def _subclasses(cls: type) -> list[type]:
    found, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


class Tracer:
    """In-memory span recorder with per-thread nesting."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float, float, int]] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset(self) -> None:
        """Drop every span recorded so far (warm-up work)."""
        self.spans = []

    def record(self, name: str, start: float, end: float) -> None:
        """A leaf span measured by the caller (e.g. frame arrival times)."""
        stack = self._stack()
        if stack:
            stack[-1][0] += end - start
        self.spans.append(
            (name, threading.get_ident(), start, end, end - start, len(stack))
        )

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                tracer.spans.append(
                    (
                        name,
                        threading.get_ident(),
                        start,
                        end,
                        duration - frame[0],
                        len(stack),
                    )
                )

        return traced

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        for module in _PRELOAD:
            importlib.import_module(module)
        for name, module_name, path in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            if "." in path:
                self._wrap_method(name, module, path)
            else:
                self._wrap_function(name, module, path)
        return self

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, name: str, module, path: str) -> None:
        class_name, attr = path.split(".")
        base = getattr(module, class_name, None)
        if not isinstance(base, type) or not hasattr(base, attr):
            self.missing.append(f"{module.__name__}.{path}")
            return
        for cls in _subclasses(base):
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            if isinstance(original, property):
                wrapped = property(self.wrap(name, original.fget))
            elif isinstance(original, (staticmethod, classmethod)):
                wrapped = type(original)(self.wrap(name, original.__func__))
            else:
                wrapped = self.wrap(name, original)
            self._set(cls, attr, wrapped)

    def _wrap_function(self, name: str, module, attr: str) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapped = self.wrap(name, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            if loaded.__dict__.get(attr) is original:
                self._set(loaded, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def root_time(self, threads) -> float:
        """Summed duration of the outermost spans on ``threads``."""
        threads = set(threads)
        return sum(
            end - start
            for _, thread, start, end, _, depth in self.spans
            if depth == 0 and thread in threads
        )

    def dump(self, path: str) -> None:
        """Write every span as one JSON document (at the end of a run)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "thread", "start", "end", "self_s", "depth"],
                    "missing": self.missing,
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )


def totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and inclusive ``total_s``."""
    out: dict[str, dict[str, float]] = {}
    for name, _, start, end, self_s, _ in spans:
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["total_s"] += end - start
    return out
