import contextlib
import os
import sys
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from shirklab.equilibrium import ReplacementCostCurve, _require_unit  # noqa: E402
from shirklab.model import (  # noqa: E402
    ALL_STRATEGIES,
    PAYOFF_TIE_TOL,
    PROSPECTIVE,
    ModelParams,
    _research_gain,
    agent_payoff,
    validate_params,
)
from shirklab.simulation import StrategyProfile  # noqa: E402


@pytest.fixture
def p0() -> ModelParams:
    return ModelParams(pi=0.9, eps=0.1, g=0.5, c=0.01, w=0.05, v_c=1.0)


@pytest.fixture
def linear_curve() -> ReplacementCostCurve:
    return ReplacementCostCurve.linear(1000.0)


def output_drop(h, p: ModelParams):
    """Output lost when reach ``h`` of workers shirk instead of researching; ``h`` is a float or an array.

    An oracle for the sweeps' ``drop_at_h_tilde`` column, which multiplies
    the solved h_tilde by ``model._research_gain`` itself: each unit of reach
    that shirks forgoes the output research adds, (1-pi)(1-eps) - pi*eps*g.
    """
    _require_unit(h, "h")
    return h * _research_gain(p)


def best_response(gamma, p, comp=PROSPECTIVE):
    """All payoff-maximizing strategies, ties within ``PAYOFF_TIE_TOL`` included.

    The tie at the minimal punishment rate is meaningful (it defines that
    rate), so ties are returned as a set rather than broken arbitrarily.
    """
    payoffs = {s: agent_payoff(s, gamma, p, comp) for s in ALL_STRATEGIES}
    best = max(payoffs.values())
    return {s for s, value in payoffs.items() if value >= best - PAYOFF_TIE_TOL}


#: Admissible parameter points spanning the interesting region, first is P0.
REFERENCE_POINTS = (
    ModelParams(pi=0.9, eps=0.1, g=0.5, c=0.01, w=0.05, v_c=1.0),
    ModelParams(pi=0.8, eps=0.05, g=0.6, c=0.02, w=0.08, v_c=1.5),
    ModelParams(pi=0.7, eps=0.15, g=0.5, c=0.03, w=0.08, v_c=1.2),
    ModelParams(pi=0.85, eps=0.0, g=0.8, c=0.05, w=0.1, v_c=2.0),
    ModelParams(pi=0.6, eps=0.05, g=1.2, c=0.08, w=0.3, v_c=3.0),
)


def draw_params(
    rng: np.random.Generator,
    attractive: bool = False,
    wage_margin: bool = False,
    max_tries: int = 10_000,
) -> ModelParams:
    """Rejection-sample an admissible parameter set.

    attractive  -- additionally require pi * (1 + g) > 1, so adopting the
        technology unvetted beats ignoring it in expectation.  The model's
        claims about realized-pay incentives hold on this region.
    wage_margin -- additionally require w * pi * (1 - 2 eps) > c, so at
        the minimal punishment rate a researching worker still prefers
        employment over opting out of the technology entirely; the
        effort equilibrium exists against the full strategy set only here.
    """
    for _ in range(max_tries):
        pi = float(rng.uniform(0.55, 0.97))
        eps = float(rng.uniform(0.02, 0.42))
        window_low = eps / (1.0 - eps)
        efficiency_cap = (1.0 - pi) * (1.0 - eps) / (pi * eps)
        g_low = window_low * 1.05
        if attractive:
            g_low = max(g_low, (1.0 - pi) / pi * 1.02)
        g_high = min((1.0 - eps) / eps, efficiency_cap, 4.0) * 0.95
        if g_low >= g_high:
            continue
        g = float(rng.uniform(g_low, g_high))
        efficiency_slack = (1.0 - pi) * (1.0 - eps) - pi * eps * g
        w = float(rng.uniform(0.01, 0.5))
        c_high = 0.8 * efficiency_slack
        if wage_margin:
            c_high = min(c_high, 0.9 * w * pi * (1.0 - 2.0 * eps))
        if c_high <= 1e-4:
            continue
        c = float(rng.uniform(1e-4, c_high))
        signal_good = pi * (1.0 - eps) + (1.0 - pi) * eps
        v_c_bound = (c + (1.0 - signal_good) * w) / ((1.0 - pi) * (1.0 - eps))
        v_c = v_c_bound * float(rng.uniform(1.05, 5.0))
        params = ModelParams(pi=pi, eps=eps, g=g, c=c, w=w, v_c=v_c)
        if validate_params(params).admissible:
            return params
    raise RuntimeError("parameter sampler failed to find an admissible draw")


def draw_curve(rng: np.random.Generator, resolution: int = 4000) -> ReplacementCostCurve:
    """Random cost schedules: monotone, non-monotone, and finite samples."""
    kind = int(rng.integers(0, 5))
    base = float(rng.uniform(0.0, 20.0))
    swing = float(rng.uniform(0.5, 300.0))
    if kind == 0:
        return ReplacementCostCurve.from_function(lambda z: base + swing * z, resolution)
    if kind == 1:
        return ReplacementCostCurve.from_function(lambda z: base + swing * (1.0 - z), resolution)
    if kind == 2:
        waves = int(rng.integers(1, 6))
        phase = float(rng.uniform(0.0, np.pi))
        return ReplacementCostCurve.from_function(
            lambda z: base + swing * np.sin(np.pi * waves * z + phase) ** 2, resolution
        )
    if kind == 3:
        kink = float(rng.uniform(0.2, 0.8))
        return ReplacementCostCurve.from_function(
            lambda z: base + swing * np.abs(z - kink), resolution
        )
    n_samples = int(rng.integers(20, 300))
    return ReplacementCostCurve.from_samples(base + rng.uniform(0.0, swing, size=n_samples))


def switched_agents(trace) -> list[list[int]]:
    """Each round's switched agents of a ``BestResponseTrace``, as Python ints."""
    bounds = trace.offsets.tolist()
    return [trace.agents[low:high].tolist() for low, high in zip(bounds, bounds[1:])]


def switched_codes(trace) -> list[np.ndarray]:
    """Each round's new codes of a ``BestResponseTrace``, as views of its ``new_codes``."""
    bounds = trace.offsets.tolist()
    return [trace.new_codes[low:high] for low, high in zip(bounds, bounds[1:])]


def trace_profiles(trace) -> list[StrategyProfile]:
    """The profile before the first round and after every round of a ``BestResponseTrace``."""
    codes = trace.initial.codes.copy()
    profiles = [StrategyProfile(codes.copy())]
    for positions, new_codes in zip(switched_agents(trace), switched_codes(trace)):
        codes[positions] = new_codes
        profiles.append(StrategyProfile(codes.copy()))
    return profiles


def column(table, name: str) -> list:
    """One column of a sweep ``Table``, its cells as Python objects."""
    index = table.columns.index(name)
    return [row[index] for row in table.rows]


def recording_cumulate(built: list):
    """Patch ``ReplacementCostCurve._cumulate`` to append to ``built`` the factor of each row of scaled sums it fills."""
    cumulate = ReplacementCostCurve._cumulate

    def recording(self, factor, out):
        built.append(float(factor))
        cumulate(self, factor, out)

    return mock.patch.object(ReplacementCostCurve, "_cumulate", recording)


@contextlib.contextmanager
def traced_memory():
    """Trace the block's allocations with tracemalloc, started here unless it already runs.

    On exit the yielded namespace holds ``peak``, the most bytes traced at
    once above what was traced when the block began, and ``kept``, the
    bytes still traced above it.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    usage = SimpleNamespace()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        yield usage
        usage.kept, usage.peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        if not tracing:
            tracemalloc.stop()
