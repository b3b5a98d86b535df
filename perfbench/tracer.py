"""Per-layer tracing from outside the program.

The tracer replaces the module-global names that callers look up (for
example ``voltctrl.powerflow.build_admittance`` and
``voltctrl.simulate.solve_power_flow``) with wrappers that record one span
per call: (name, start, end, parent). Spans stay in memory until the run
ends. A layer's self time is its spans' duration minus the time covered by
their child spans. Counts that need a return value (Newton iterations,
trajectory samples) are read off the result the wrapper passes through;
nothing inside the program changes, so a traced call computes bit for bit
what an untraced one does.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


def _after_solve(counters: Counter, sol) -> None:
    counters["powerflow.newton_iters"] += sol.iterations
    counters["powerflow.unconverged"] += int(not sol.converged)


def _after_integrate(counters: Counter, res) -> None:
    t = res.trajectory.t
    counters["simulate.samples"] += len(t)
    # event-free runs record one start sample, then one per accepted step
    counters["simulate.accepted_steps"] += len(t) - 1
    counters["simulate.unsettled_windows"] += int(not res.converged)
    counters["simulate.sim_time_s"] += float(t[-1] - t[0])


# (module, function, hook on the returned value); the public functions of
# each layer that the workloads reach
TRACED = (
    ("netcase", "build_admittance", None),
    ("netcase", "scale_loads", None),
    ("powerflow", "nominal_injections", None),
    ("powerflow", "solve_power_flow", _after_solve),
    ("sensitivity", "partition_buses", None),
    ("sensitivity", "voltage_sensitivity", None),
    ("sensitivity", "rebased", None),
    ("sensitivity", "predict_voltage", None),
    ("controller", "unpack_state", None),
    ("controller", "dynamics_rhs", None),
    ("oracle", "solve_centralized", None),
    ("simulate", "integrate", _after_integrate),
    ("simulate", "run_static", None),
    ("simulate", "run_daily", None),
)

# plant evaluations: a power-flow solve or a linear prediction made while
# the integrator is running
_PLANT = ("powerflow.solve_power_flow", "sensitivity.predict_voltage")
_INTEGRATE = "simulate.integrate"


class Tracer:
    """Spans and counters for the calls made while ``installed()`` is active."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def _wrap(self, name, fn, after):
        spans, stack, active, counters = self.spans, self._stack, self._active, self.counters
        clock = time.perf_counter
        plant = name in _PLANT

        def traced(*args, **kwargs):
            if plant and active[_INTEGRATE]:
                counters["simulate.plant_calls"] += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                active[name] -= 1
            if after is not None:
                after(counters, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Swap every voltctrl module-global reference to a traced function."""
        modules = [m for n, m in list(sys.modules.items()) if n == "voltctrl" or n.startswith("voltctrl.")]
        patches = []
        for mod_name, fn_name, after in TRACED:
            home = sys.modules.get(f"voltctrl.{mod_name}")
            if home is None:
                continue
            orig = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        patches.append((mod, attr, orig, wrapper))
        try:
            for mod, attr, _, wrapper in patches:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, orig, _ in patches:
                setattr(mod, attr, orig)

    def calls_and_self(self) -> tuple[Counter, dict]:
        """Call count and self seconds per traced function."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += (end - start) - child
        return calls, dict(self_s)

    def counts(self) -> dict:
        """Every deterministic count of this trace (call counts and counters)."""
        calls, _ = self.calls_and_self()
        out = {f"{name}.calls": n for name, n in calls.items()}
        out.update(self.counters)
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
