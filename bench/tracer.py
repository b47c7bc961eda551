"""Spans recorded around confsim's layer functions, from outside the package.

``Tracer.wrap(owner, attr, name)`` replaces ``owner.attr`` with a function
that records a span and then calls the original.  confsim modules bind most
functions by name at import (``from .order_parameter import mollify``), so a
function is wrapped in every namespace its callers look it up in; see
``LAYER_WRAPS``.  Spans keep name, start, end, parent and thread id in memory
and are serialized only when the worker ends.  A parent is taken from a
per-thread stack, so a span's children always run on its own thread and its
self time is its duration minus theirs, even while study members overlap on
pool threads.
"""

from __future__ import annotations

import functools
import threading
from statistics import median
from time import perf_counter

# (module under confsim, attribute, span name).  A dotted attribute names a
# method on a class of that module.
LAYER_WRAPS = (
    ("simulator", "mollify", "order_parameter.mollify"),
    ("simulator", "semi_implicit_step", "order_parameter.semi_implicit_step"),
    ("simulator", "driving_force", "order_parameter.driving_force"),
    ("simulator", "solve_elasticity", "elasticity.solve_elasticity"),
    ("elasticity", "solve_fd", "elasticity.solve_fd"),
    ("diagnostics", "solve_fd", "elasticity.solve_fd"),
    ("elasticity", "solve_green", "elasticity.solve_green"),
    ("diagnostics", "solve_green", "elasticity.solve_green"),
    ("simulator", "Simulation.run", "simulator.run"),
    ("simulator", "Simulation._record_frame", "simulator.record_frame"),
    ("simulator", "BodyForce.evaluate", "simulator.body_force"),
    ("simulator", "write_run", "simulator.write_run"),
    ("simulator", "load_run", "simulator.load_run"),
    ("diagnostics", "build_report", "diagnostics.build_report"),
    ("diagnostics", "_mixed_norm_series", "diagnostics.mixed_norm_series"),
    ("diagnostics", "_primitive_w14_series", "diagnostics.primitive_w14_series"),
    ("diagnostics", "weak_residual_series", "diagnostics.weak_residual_series"),
    ("diagnostics", "_cross_check_series", "diagnostics.cross_check_series"),
    ("diagnostics", "energy_monitor", "diagnostics.energy_monitor"),
    ("diagnostics", "_st_l43_series", "diagnostics.st_l43_series"),
    ("diagnostics", "norm_lp_time_lq_space", "grid_field.norm_lp_time_lq_space"),
    ("studies", "norm_lp_time_lq_space", "grid_field.norm_lp_time_lq_space"),
    ("studies", "run_study", "studies.run_study"),
    ("studies", "weak_residual", "studies.weak_residual"),
    ("studies", "energy_monitor", "studies.energy_monitor"),
    ("studies", "flux_distance", "studies.flux_distance"),
    ("config", "parse_config_text", "config.parse_config_text"),
)


def _mollify_tag(args, kwargs):
    state = args[0]
    return "full" if len(state.frames) >= state.window_size else "filling"


def _green_tag(args, kwargs):
    return args[1].grid.n  # the grid size fixes the two dense n x n matrices


TAGS = {
    "order_parameter.mollify": _mollify_tag,
    "elasticity.solve_green": _green_tag,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "tag", "error", "children_s")

    def __init__(self, name, parent, tag):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.tag = tag
        self.error = None
        self.end = None
        self.children_s = 0.0
        self.start = perf_counter()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = True
        self._local = threading.local()
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str):
        fn = getattr(owner, attr)
        tag_fn = TAGS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else None, tag_fn(args, kwargs) if tag_fn else None)
            tracer.spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.children_s += span.end - span.start

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def install(self, package):
        """Wrap every entry of LAYER_WRAPS inside the imported confsim package."""
        for module_name, attr, name in LAYER_WRAPS:
            owner = getattr(package, module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            self.wrap(owner, attr, name)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def to_records(self) -> list[dict]:
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": index[id(s.parent)] if s.parent is not None else None,
                "thread": s.thread,
                "tag": s.tag,
                "error": s.error,
            }
            for s in self.spans
        ]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer sums, counts and ratios from the recorded spans."""
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.end - s.start for s in spans(name))

    def self_total(name):
        return sum(s.end - s.start - s.children_s for s in spans(name))

    out = {}
    for name in (
        "order_parameter.mollify",
        "order_parameter.semi_implicit_step",
        "order_parameter.driving_force",
        "elasticity.solve_elasticity",
        "elasticity.solve_fd",
        "elasticity.solve_green",
        "simulator.body_force",
        "diagnostics.build_report",
        "grid_field.norm_lp_time_lq_space",
    ):
        out[f"{name}.s"] = total(name)
        out[f"{name}.calls"] = len(spans(name))
    for name in (
        "simulator.run",
        "simulator.write_run",
        "simulator.load_run",
        "diagnostics.mixed_norm_series",
        "diagnostics.primitive_w14_series",
        "diagnostics.weak_residual_series",
        "diagnostics.cross_check_series",
        "diagnostics.energy_monitor",
        "diagnostics.st_l43_series",
        "studies.run_study",
        "studies.weak_residual",
        "studies.energy_monitor",
        "studies.flux_distance",
        "config.parse_config_text",
    ):
        out[f"{name}.s"] = total(name)
    for name in ("simulator.run", "diagnostics.build_report", "studies.run_study"):
        out[f"{name}.self_s"] = self_total(name)

    moll = spans("order_parameter.mollify")
    full = [s.end - s.start for s in moll if s.tag == "full"]
    filling = [s.end - s.start for s in moll if s.tag == "filling"]
    out["order_parameter.mollify.full_over_filling"] = (
        median(full) / median(filling) if full and filling else 0.0
    )
    out["order_parameter.step_rejected"] = sum(
        1 for s in spans("order_parameter.semi_implicit_step") if s.error == "StepRejected"
    )

    green = sorted(spans("elasticity.solve_green"), key=lambda s: s.start)
    out["elasticity.solve_green.first_s"] = green[0].end - green[0].start if green else 0.0
    out["elasticity.solve_green.bytes_computed"] = sum(2 * s.tag * s.tag * 8 for s in green)

    out["simulator.frames"] = len(spans("simulator.record_frame"))

    # Study members are the simulator runs that execute inside run_study; their
    # spans overlap on the pool threads, so they are summed and compared with
    # the wall time of the member phase rather than nested under run_study.
    study = spans("studies.run_study")
    members = [
        s
        for s in spans("simulator.run")
        if any(st.start <= s.start and s.end <= st.end for st in study)
    ]
    durations = [s.end - s.start for s in members]
    out["studies.member_run.s"] = sum(durations)
    out["studies.member_run.max_s"] = max(durations, default=0.0)
    if members:
        wall = max(s.end for s in members) - min(s.start for s in members)
        out["studies.member_overlap"] = sum(durations) / wall
    else:
        out["studies.member_overlap"] = 0.0
    return out
