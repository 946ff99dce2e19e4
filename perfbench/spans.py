"""Span recorder and the wrappers that feed it, for the traced run.

The wrappers replace public uavtc functions at module boundaries: each one
patches the name in the module that calls it (``analytic.integrate_jet`` is
numerics' ``integrate_jet`` as analytic sees it), so nothing under ``src/``
changes.  ``install`` returns a function that puts every original back.

Every wrapped call opens a frame on a stack, which yields per name:

* ``calls``: how many times it ran;
* ``busy``: wall time covered by its outermost calls, so a function that
  recurses through itself (nested quadrature) is not counted twice;
* ``self``: its time minus the time of wrapped calls made inside it.

Boundary calls that happen at most a few thousand times per grid point
(quadrature drivers, estimators, ``cli.run``) are also kept as spans
``(id, name, start, end, parent id)`` in memory.  The hot leaf calls
(``jet_powneg``, ``containment_cdf``, integrand evaluations, sampling) are
counted and timed but not kept one by one, which would cost hundreds of
megabytes per round.

Worker processes of a process pool inherit the wrappers, but what they record
stays in the worker, so only the parent process's calls are reported.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    self: float = 0.0


@dataclass
class _Frame:
    name: str
    start: float
    span_id: int  # own id if kept as a span, else the nearest kept ancestor's
    kept: bool
    child: float = 0.0


@dataclass
class Recorder:
    stats: dict[str, Stat] = field(default_factory=dict)
    spans: list[tuple[int, str, float, float, int]] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[_Frame] = field(default_factory=list)
    _depth: dict[str, int] = field(default_factory=dict)
    _next_id: int = 0

    def _enter(self, name: str, kept: bool) -> None:
        if kept:
            self._next_id += 1
            span_id = self._next_id
        else:
            span_id = self._stack[-1].span_id if self._stack else 0
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append(_Frame(name, time.perf_counter(), span_id, kept))

    def _exit(self) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        duration = end - frame.start
        stat = self.stats.setdefault(frame.name, Stat())
        stat.calls += 1
        stat.self += duration - frame.child
        depth = self._depth[frame.name] - 1
        self._depth[frame.name] = depth
        if depth == 0:
            stat.busy += duration
        parent_id = 0
        if self._stack:
            self._stack[-1].child += duration
            parent_id = self._stack[-1].span_id
        if frame.kept:
            self.spans.append((frame.span_id, frame.name, frame.start, end, parent_id))

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, kept: bool = True):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name, kept)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    def wrap_quadrature(self, name: str, fn, integrand_name: str, kept: bool = True):
        """Wrap an integrator and every integrand it is handed."""
        wrap = self.wrap

        @functools.wraps(fn)
        def integrator(f, *args, **kwargs):
            return fn(wrap(integrand_name, f, kept=False), *args, **kwargs)

        return wrap(name, integrator, kept)

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())


def install(rec: Recorder, uavtc) -> callable:
    """Patch the layer boundaries of an imported uavtc; returns the undo."""
    import uavtc.cli  # the package does not import its command-line module

    analytic, cli, mobility, model, simulate = (
        uavtc.analytic, uavtc.cli, uavtc.mobility, uavtc.model, uavtc.simulate)
    saved = []

    def patch(module, attr, replacement):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def estimator(fn):
        scenario_type = model.ValidatedScenario

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            scenario = next(a for a in (*args, *kwargs.values()) if isinstance(a, scenario_type))
            rec.count("simulate.reps", scenario.replications)
            return fn(*args, **kwargs)

        return rec.wrap("simulate.estimate", counted)

    class CountedPool(simulate.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            rec.count("simulate.pools_started")
            super().__init__(*args, **kwargs)

    for attr in ("retransmission_report", "conditional_interferer_pmf",
                 "footprint_ingress_integral", "footprint_egress_integral"):
        patch(analytic, attr, rec.wrap(f"analytic.{attr}", getattr(analytic, attr)))
    for attr in ("integrate_jet", "integrate_jet_detailed"):
        patch(analytic, attr, rec.wrap_quadrature(
            "numerics.integrate_jet", getattr(analytic, attr), "analytic.integrand"))
    patch(analytic, "integrate_detailed", rec.wrap_quadrature(
        "numerics.integrate", analytic.integrate_detailed, "analytic.integrand"))
    patch(analytic, "jet_powneg", rec.wrap("numerics.jet_powneg", analytic.jet_powneg, kept=False))
    patch(analytic, "containment_cdf",
          rec.wrap("mobility.containment_cdf", analytic.containment_cdf, kept=False))
    patch(mobility, "integrate", rec.wrap_quadrature(
        "numerics.integrate", mobility.integrate, "mobility.integrand", kept=False))
    patch(simulate, "displaced_distance",
          rec.wrap("mobility.displaced_distance", simulate.displaced_distance, kept=False))
    for attr in ("sample_network", "sample_conditioned"):
        patch(simulate, attr, rec.wrap("simulate.sample", getattr(simulate, attr), kept=False))
    for attr in ("estimate_joint_success", "estimate_conditional_pmf",
                 "estimate_conditional_success"):
        patch(simulate, attr, estimator(getattr(simulate, attr)))
    patch(simulate, "ProcessPoolExecutor", CountedPool)
    patch(cli, "run", rec.wrap("cli.run", cli.run))
    patch(cli, "emit_plotdata", rec.wrap("cli.emit_plotdata", cli.emit_plotdata))
    patch(model, "validate", rec.wrap("model.validate", model.validate))

    def undo():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return undo


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit)."""
    s = rec.stat
    estimate_s = s("simulate.estimate").busy
    reps = rec.counts.get("simulate.reps", 0)
    return {
        "numerics.integrate_jet.calls": (s("numerics.integrate_jet").calls, "count"),
        "numerics.integrate_jet.s": (s("numerics.integrate_jet").busy, "s"),
        "numerics.integrate_jet.self_s": (s("numerics.integrate_jet").self, "s"),
        "numerics.integrand_evals": (
            s("analytic.integrand").calls + s("mobility.integrand").calls, "count"),
        "numerics.jet_powneg.calls": (s("numerics.jet_powneg").calls, "count"),
        "numerics.jet_powneg.s": (s("numerics.jet_powneg").busy, "s"),
        "numerics.integrate.calls": (s("numerics.integrate").calls, "count"),
        "numerics.integrate.s": (s("numerics.integrate").busy, "s"),
        "numerics.integrate.self_s": (s("numerics.integrate").self, "s"),
        "mobility.containment_cdf.calls": (s("mobility.containment_cdf").calls, "count"),
        "mobility.containment_cdf.s": (s("mobility.containment_cdf").busy, "s"),
        "mobility.displaced_distance.calls": (s("mobility.displaced_distance").calls, "count"),
        "mobility.displaced_distance.s": (s("mobility.displaced_distance").busy, "s"),
        "analytic.integrand.self_s": (s("analytic.integrand").self, "s"),
        "mobility.integrand.self_s": (s("mobility.integrand").self, "s"),
        "analytic.retransmission_report.self_s": (s("analytic.retransmission_report").self, "s"),
        "analytic.conditional_interferer_pmf.self_s": (
            s("analytic.conditional_interferer_pmf").self, "s"),
        "analytic.footprint_ingress_integral.calls": (
            s("analytic.footprint_ingress_integral").calls, "count"),
        "analytic.footprint_egress_integral.calls": (
            s("analytic.footprint_egress_integral").calls, "count"),
        "simulate.estimate.s": (estimate_s, "s"),
        "simulate.reps": (reps, "count"),
        "simulate.reps_per_s": (reps / estimate_s if estimate_s > 0 else 0.0, "1/s"),
        "simulate.sample.calls": (s("simulate.sample").calls, "count"),
        "simulate.sample.s": (s("simulate.sample").busy, "s"),
        "simulate.pools_started": (rec.counts.get("simulate.pools_started", 0), "count"),
        "cli.run.self_s": (s("cli.run").self, "s"),
        "cli.emit_plotdata.s": (s("cli.emit_plotdata").busy, "s"),
        "cli.bytes_written": (rec.counts.get("cli.bytes_written", 0), "bytes"),
        "model.validate.s": (s("model.validate").busy, "s"),
    }
