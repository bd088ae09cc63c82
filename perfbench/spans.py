"""Span tracing around the public functions of each ``shirklab`` module.

``Tracer.install`` replaces each traced function in its own module and in
every ``shirklab`` module that imported it by name, so calls through
``from ... import`` bindings are seen too.  Spans stay in memory as tuples
``(id, name, start_ns, end_ns, parent_id, run_id, info)`` and are written
out once, when the traced process ends.  ``layer_metrics`` turns one run's
spans into the per-layer metrics.

Monte Carlo trials run on worker threads.  A span opened on a worker
thread with nothing open on that thread takes the innermost span open on
the main thread as its parent, which is the ``monte_carlo`` call waiting
for the pool.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import sys
import threading
import time
import weakref

LAYERS = ("cli", "sweeps", "equilibrium", "simulation", "model")

#: Traced functions per module, besides every public function of ``model``.
FUNCTIONS = {
    "cli": ("main",),
    "sweeps": ("sweep_h", "sweep_param", "emit_csv"),
    "equilibrium": ("solve_threshold", "punish_feasible", "verify_equilibrium"),
    "simulation": ("monte_carlo", "run_episode", "nash_check", "iterated_best_response", "policy_experiment"),
}
#: ``ReplacementCostCurve`` methods: the three curve builders and validation.
CURVE_BUILDERS = ("from_function", "linear", "scaled")


class Tracer:
    """Records spans of the wrapped functions; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.run_id = 0
        self._ids = itertools.count(1)
        self._tokens = itertools.count()
        self._objects: dict[int, tuple[weakref.ref, int]] = {}
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _parent(self) -> tuple[list[int], int | None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            return stack, stack[-1]
        main = self._main_stack
        return stack, (main[-1] if main else None)

    def token(self, obj) -> int:
        """Identity token for ``obj`` that survives the reuse of ``id()`` values."""
        entry = self._objects.get(id(obj))
        if entry is None or entry[0]() is not obj:
            entry = (weakref.ref(obj), next(self._tokens))
            self._objects[id(obj)] = entry
        return entry[1]

    def wrap(self, name: str, fn, info=None):
        tracer = self
        signature = inspect.signature(fn) if info else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, parent = tracer._parent()
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            extra = info(tracer, signature.bind(*args, **kwargs).arguments, result) if info else None
            tracer.spans.append((sid, name, start, end, parent, tracer.run_id, extra))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function of the already imported ``shirklab`` package."""
        for layer in LAYERS:
            module = importlib.import_module(f"shirklab.{layer}")
            names = FUNCTIONS.get(layer) or tuple(
                attr
                for attr, value in vars(module).items()
                if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_")
            )
            for attr in names:
                original = getattr(module, attr)
                wrapped = self.wrap(f"{layer}.{attr}", original, _INFO.get(attr))
                for other in [m for n, m in sys.modules.items() if n == "shirklab" or n.startswith("shirklab.")]:
                    for binding, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, binding, wrapped)
        curve = importlib.import_module("shirklab.equilibrium").ReplacementCostCurve
        for attr in CURVE_BUILDERS + ("validate",):
            raw = curve.__dict__[attr]
            name = "equilibrium.curve_validate" if attr == "validate" else f"equilibrium.curve_build.{attr}"
            info = _curve_info if attr == "validate" else None
            if isinstance(raw, classmethod):
                setattr(curve, attr, classmethod(self.wrap(name, raw.__func__, info)))
            else:
                setattr(curve, attr, self.wrap(name, raw, info))


def _curve_info(tracer: Tracer, arguments: dict, result) -> dict:
    return {"key": tracer.token(arguments["self"])}


def _call_key(tracer: Tracer, arguments: dict) -> str:
    """Value key of a simulation call: equal keys mean the same work is repeated."""
    parts = []
    for name, value in arguments.items():
        if name in ("curve", "seniority"):
            parts.append(None if value is None else tracer.token(value))
        elif name == "profile":
            parts.append(value.codes.tobytes().hex())
        else:
            parts.append(repr(value))
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


_INFO = {
    "sweep_h": lambda tracer, args, result: {"rows": len(result.rows)},
    "sweep_param": lambda tracer, args, result: {"rows": len(result.rows)},
    "monte_carlo": lambda tracer, args, result: {
        "key": _call_key(tracer, args),
        "agent_trials": args["cfg"].access_count * args["cfg"].n_trials,
    },
    "nash_check": lambda tracer, args, result: {"key": _call_key(tracer, args)},
    "iterated_best_response": lambda tracer, args, result: {"rounds": result.rounds},
}


# -- per-layer metrics ---------------------------------------------------------

#: Per-layer metric names with their units, in report order.
METRICS = {
    "cli.self_s": "s",
    "sweeps.sweep_h.s": "s",
    "sweeps.sweep_param.s": "s",
    "sweeps.emit_csv.s": "s",
    "sweeps.rows": "count",
    "sweeps.rows_per_s": "1/s",
    "equilibrium.curve_build.s": "s",
    "equilibrium.curve_build.calls": "count",
    "equilibrium.curve_validate.calls": "count",
    "equilibrium.curve_validate.distinct_ratio": "ratio",
    "equilibrium.solve_threshold.s": "s",
    "equilibrium.solve_threshold.calls": "count",
    "equilibrium.solve_threshold.us_per_call": "us",
    "equilibrium.punish_feasible.per_solve": "count",
    "equilibrium.verify_equilibrium.s": "s",
    "model.calls": "count",
    "model.s": "s",
    "simulation.monte_carlo.s": "s",
    "simulation.monte_carlo.self_s": "s",
    "simulation.monte_carlo.calls": "count",
    "simulation.monte_carlo.distinct_ratio": "ratio",
    "simulation.monte_carlo.agent_trials_per_s": "1/s",
    "simulation.run_episode.calls": "count",
    "simulation.run_episode.us_per_call": "us",
    "simulation.nash_check.s": "s",
    "simulation.nash_check.calls": "count",
    "simulation.nash_check.distinct_ratio": "ratio",
    "simulation.iterated_best_response.s": "s",
    "simulation.unravel_rounds": "count",
    "simulation.unravel_rounds_per_s": "1/s",
    "simulation.policy_experiment.calls": "count",
}


def _covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced run (one execution of a workload's commands)."""
    by_id = {span[0]: span for span in spans}
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[2], span[3]))

    def named(*prefixes: str) -> list:
        return [span for span in spans if span[1].startswith(prefixes)]

    def outermost(group: list) -> list:
        names = {span[1] for span in group}
        keep = []
        for span in group:
            parent = by_id.get(span[4])
            while parent is not None and parent[1] not in names:
                parent = by_id.get(parent[4])
            if parent is None:
                keep.append(span)
        return keep

    def seconds(group: list) -> float:
        return sum(span[3] - span[2] for span in group) / 1e9

    def self_seconds(group: list) -> float:
        return sum(
            span[3] - span[2] - _covered_ns(span[2], span[3], children.get(span[0], [])) for span in group
        ) / 1e9

    def distinct_ratio(group: list) -> float:
        return len({span[6]["key"] for span in group}) / len(group) if group else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    sweep_h, sweep_param, emit = named("sweeps.sweep_h"), named("sweeps.sweep_param"), named("sweeps.emit_csv")
    rows = sum(span[6]["rows"] for span in sweep_h + sweep_param)
    builds = outermost(named("equilibrium.curve_build."))
    validate = named("equilibrium.curve_validate")
    solves = named("equilibrium.solve_threshold")
    solve_ids = {span[0] for span in solves}
    probes = [span for span in named("equilibrium.punish_feasible") if span[4] in solve_ids]
    model = named("model.")
    mc = named("simulation.monte_carlo")
    episodes = named("simulation.run_episode")
    nash = named("simulation.nash_check")
    ibr = named("simulation.iterated_best_response")
    rounds = sum(span[6]["rounds"] for span in ibr)
    return {
        "cli.self_s": self_seconds(named("cli.main")),
        "sweeps.sweep_h.s": seconds(sweep_h),
        "sweeps.sweep_param.s": seconds(sweep_param),
        "sweeps.emit_csv.s": seconds(emit),
        "sweeps.rows": rows,
        "sweeps.rows_per_s": ratio(rows, seconds(sweep_h + sweep_param + emit)),
        "equilibrium.curve_build.s": seconds(builds),
        "equilibrium.curve_build.calls": len(builds),
        "equilibrium.curve_validate.calls": len(validate),
        "equilibrium.curve_validate.distinct_ratio": distinct_ratio(validate),
        "equilibrium.solve_threshold.s": seconds(solves),
        "equilibrium.solve_threshold.calls": len(solves),
        "equilibrium.solve_threshold.us_per_call": ratio(seconds(solves) * 1e6, len(solves)),
        "equilibrium.punish_feasible.per_solve": ratio(len(probes), len(solves)),
        "equilibrium.verify_equilibrium.s": seconds(named("equilibrium.verify_equilibrium")),
        "model.calls": len(model),
        "model.s": seconds(outermost(model)),
        "simulation.monte_carlo.s": seconds(mc),
        "simulation.monte_carlo.self_s": self_seconds(mc),
        "simulation.monte_carlo.calls": len(mc),
        "simulation.monte_carlo.distinct_ratio": distinct_ratio(mc),
        "simulation.monte_carlo.agent_trials_per_s": ratio(sum(s[6]["agent_trials"] for s in mc), seconds(mc)),
        "simulation.run_episode.calls": len(episodes),
        "simulation.run_episode.us_per_call": ratio(seconds(episodes) * 1e6, len(episodes)),
        "simulation.nash_check.s": seconds(nash),
        "simulation.nash_check.calls": len(nash),
        "simulation.nash_check.distinct_ratio": distinct_ratio(nash),
        "simulation.iterated_best_response.s": seconds(ibr),
        "simulation.unravel_rounds": rounds,
        "simulation.unravel_rounds_per_s": ratio(rounds, seconds(ibr)),
        "simulation.policy_experiment.calls": len(named("simulation.policy_experiment")),
    }
