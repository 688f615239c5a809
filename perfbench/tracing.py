"""Per-layer spans recorded by replacing module attributes of becsim.

Nothing inside the program is edited: each traced name is a function that
becsim modules call through their own module globals (``sim._select``,
``sim.apply_rpm``, ``regions.simplify_inequalities``, ...).  ``install``
swaps those attributes for timing wrappers and ``uninstall`` puts the
originals back, so an untraced round runs the unmodified program.

A span's self time is its duration minus the time covered by wrapped calls
made inside it.
"""

from __future__ import annotations

import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name): every binding through which becsim
# reaches a layer.  A name imported with ``from .x import f`` is a separate
# binding in each importing module, so it is listed once per module.
SPANS = (
    ("coding", "enumerate_controls", "coding.enumerate_controls"),
    ("sim", "enumerate_controls", "coding.enumerate_controls"),
    ("cli", "enumerate_controls", "coding.enumerate_controls"),
    ("sim", "compile_catalog", "sim.compile_catalog"),
    ("scheduler", "derive_transitions", "scheduler.derive_transitions"),
    ("sim", "derive_transitions", "scheduler.derive_transitions"),
    ("regions", "derive_transitions", "scheduler.derive_transitions"),
    ("cli", "derive_transitions", "scheduler.derive_transitions"),
    ("sim", "synthesize_state", "movement.synthesize_state"),
    ("scheduler", "synthesize_state", "movement.synthesize_state"),
    ("sim", "_select", "sim.select"),
    ("sim", "sample_reception", "channel.sample_reception"),
    ("sim", "sample_arrivals", "channel.sample_arrivals"),
    ("sim", "apply_rpm", "movement.apply_rpm"),
    ("sim", "audit_state", "core.audit_state"),
    ("sim", "run", "sim.run"),
    ("cli", "run", "sim.run"),
    ("sim", "_probe_task", "sim.probe_task"),
    ("sim", "stability_probe", "sim.stability_probe"),
    ("cli", "stability_probe", "sim.stability_probe"),
    ("regions", "build_phi_4user", "regions.build_phi_4user"),
    ("cli", "build_phi_4user", "regions.build_phi_4user"),
    ("regions", "feasibility_check", "regions.feasibility_check"),
    ("cli", "feasibility_check", "regions.feasibility_check"),
    ("regions", "fm_eliminate", "regions.fm_eliminate"),
    ("regions", "simplify_inequalities", "regions.simplify_inequalities"),
)

# sim.apply_rpm also serves the compile-time delta enumeration; only calls
# made from the slot loop belong to the movement layer's per-slot span
_SKIP_UNDER = {"movement.apply_rpm": "sim.compile_catalog"}

class Tracer:
    """Collects call counts, total and self time per span name."""

    def __init__(self):
        self.total: dict = {}
        self.self_time: dict = {}
        self.calls: dict = {}
        self.durations: dict = {}
        self.controls = 0
        self.peak_inequalities = 0
        self._stack: list = []  # child time of each open span
        self._open: dict = {}  # span name -> open depth
        self._saved: list = []  # (module, attribute, original)
        self._modules = None

    def _wrap(self, name, fn):
        skip_under = _SKIP_UNDER.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if skip_under is not None and tracer._open.get(skip_under):
                return fn(*args, **kwargs)
            tracer._stack.append(0.0)
            tracer._open[name] = tracer._open.get(name, 0) + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                tracer._open[name] -= 1
                child = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += elapsed
                tracer.total[name] = tracer.total.get(name, 0.0) + elapsed
                tracer.self_time[name] = (
                    tracer.self_time.get(name, 0.0) + elapsed - child
                )
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.durations.setdefault(name, []).append(elapsed)
            tracer._observe(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, result):
        if name == "coding.enumerate_controls":
            self.controls += len(result)
        elif name == "regions.fm_eliminate":
            self.peak_inequalities = max(
                self.peak_inequalities, len(result.inequalities)
            )

    def install(self, modules) -> None:
        """Wrap every binding in SPANS that the given becsim modules have."""
        self._modules = modules
        for mod_name, attr, name in SPANS:
            module = getattr(modules, mod_name)
            original = getattr(module, attr, None)
            if original is None:
                print(f"perfbench: no {mod_name}.{attr} to trace", file=sys.stderr)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def active(self, modules):
        self.install(modules)
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def paused(self):
        """Run the program untraced inside an active span set (checks)."""
        self.uninstall()
        try:
            yield
        finally:
            self.install(self._modules)

    def metrics(self, overhead_s: float) -> dict:
        def seconds(name):
            return self.total.get(name, 0.0)

        def calls(name):
            return self.calls.get(name, 0)

        probe_tasks = self.durations.get("sim.probe_task", [])
        values = {
            "coding.enumerate_controls.s": seconds("coding.enumerate_controls"),
            "coding.controls": self.controls,
            "sim.compile_catalog.s": seconds("sim.compile_catalog"),
            "sim.compile_catalog.calls": calls("sim.compile_catalog"),
            "scheduler.derive_transitions.s": seconds("scheduler.derive_transitions"),
            "scheduler.derive_transitions.calls": calls("scheduler.derive_transitions"),
            "movement.synthesize_state.calls": calls("movement.synthesize_state"),
            "sim.select.s": seconds("sim.select"),
            "sim.select.calls": calls("sim.select"),
            "channel.sample_reception.s": seconds("channel.sample_reception"),
            "channel.sample_reception.calls": calls("channel.sample_reception"),
            "channel.sample_arrivals.s": seconds("channel.sample_arrivals"),
            "movement.apply_rpm.s": seconds("movement.apply_rpm"),
            "movement.apply_rpm.calls": calls("movement.apply_rpm"),
            "core.audit_state.s": seconds("core.audit_state"),
            "core.audit_state.calls": calls("core.audit_state"),
            "sim.run.self_s": self.self_time.get("sim.run", 0.0),
            "sim.probe_task.s": (
                statistics.median(probe_tasks) if probe_tasks else 0.0
            ),
            "sim.stability_probe.tasks": calls("sim.probe_task"),
            "regions.build_phi_4user.s": seconds("regions.build_phi_4user"),
            "regions.feasibility_check.s": seconds("regions.feasibility_check"),
            "regions.fm_eliminate.s": seconds("regions.fm_eliminate"),
            "regions.simplify_inequalities.s": seconds(
                "regions.simplify_inequalities"
            ),
            "regions.fm.peak_inequalities": self.peak_inequalities,
            "bench.trace_overhead_s": overhead_s,
        }
        return {
            name: {"value": value, "unit": "count" if isinstance(value, int) else "s"}
            for name, value in values.items()
        }
