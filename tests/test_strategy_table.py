"""The strategy table against the hand algebra it replaced.

The oracle below is the per-strategy ``if`` chains that defined adoption,
failure, output and payoffs before they were derived from
``model.STRATEGY_TABLE``, kept verbatim so the closed forms stay checked
by something independent of the table.  Every value must match exactly,
not approximately: the CLI prints 12 significant digits and its output
is pinned byte for byte.
"""

import numpy as np

from conftest import REFERENCE_POINTS
from shirklab.model import (
    ALL_STRATEGIES,
    PROSPECTIVE,
    REALIZED,
    STRATEGY_TABLE,
    AgentStrategy,
    ModelParams,
    agent_payoff,
    expected_production,
    gamma_bar,
    validate_params,
)

# -- the hand algebra ------------------------------------------------------

_EFFORT_STRATEGIES = frozenset(
    {
        AgentStrategy.EFFORT_FOLLOW_SIGNAL,
        AgentStrategy.EFFORT_ALWAYS_USE,
        AgentStrategy.EFFORT_NEVER_USE,
        AgentStrategy.EFFORT_CONTRARIAN,
    }
)
# adoption rule per strategy: 0 never, 1 always, 2 follow signal, 3 contrarian
_USE_RULE = np.array([0, 1, 2, 1, 0, 3], dtype=np.int8)


def oracle_use_probability(strategy, p):
    s = p.signal_good_prob()
    if strategy == AgentStrategy.SHIRK_NO_USE or strategy == AgentStrategy.EFFORT_NEVER_USE:
        return 0.0
    if strategy == AgentStrategy.SHIRK_USE or strategy == AgentStrategy.EFFORT_ALWAYS_USE:
        return 1.0
    if strategy == AgentStrategy.EFFORT_FOLLOW_SIGNAL:
        return s
    if strategy == AgentStrategy.EFFORT_CONTRARIAN:
        return 1.0 - s
    raise ValueError(f"unknown strategy {strategy!r}")


def oracle_failure_probability(strategy, p):
    if strategy in (AgentStrategy.SHIRK_USE, AgentStrategy.EFFORT_ALWAYS_USE):
        return 1.0 - p.pi
    if strategy == AgentStrategy.EFFORT_FOLLOW_SIGNAL:
        return (1.0 - p.pi) * p.eps
    if strategy == AgentStrategy.EFFORT_CONTRARIAN:
        return (1.0 - p.pi) * (1.0 - p.eps)
    return 0.0


def oracle_expected_production(strategy, p):
    if strategy == AgentStrategy.SHIRK_NO_USE or strategy == AgentStrategy.EFFORT_NEVER_USE:
        return 1.0
    if strategy == AgentStrategy.SHIRK_USE or strategy == AgentStrategy.EFFORT_ALWAYS_USE:
        return p.pi * (1.0 + p.g)
    if strategy == AgentStrategy.EFFORT_FOLLOW_SIGNAL:
        return (
            p.pi * p.eps
            + (1.0 - p.pi) * (1.0 - p.eps)
            + p.pi * (1.0 - p.eps) * (1.0 + p.g)
        )
    if strategy == AgentStrategy.EFFORT_CONTRARIAN:
        return (
            p.pi * (1.0 - p.eps)
            + (1.0 - p.pi) * p.eps
            + p.pi * p.eps * (1.0 + p.g)
        )
    raise ValueError(f"unknown strategy {strategy!r}")


def oracle_agent_payoff(strategy, gamma, p, comp):
    effort_cost = p.c if strategy in _EFFORT_STRATEGIES else 0.0
    survival = (1.0 - oracle_failure_probability(strategy, p) * gamma) * p.v_c
    if comp == PROSPECTIVE:
        wage = oracle_use_probability(strategy, p) * p.w
    else:
        wage = oracle_expected_production(strategy, p)
    return -effort_cost + wage + survival


def oracle_use_prob_given_quality(code, good, p):
    signal_good_prob = (1.0 - p.eps) if good else p.eps
    rule = _USE_RULE[code]
    if rule == 0:
        return 0.0
    if rule == 1:
        return 1.0
    if rule == 2:
        return signal_good_prob
    return 1.0 - signal_good_prob


def oracle_expected_wage(code, p, compensation):
    use_good = oracle_use_prob_given_quality(code, True, p)
    use_bad = oracle_use_prob_given_quality(code, False, p)
    if compensation == PROSPECTIVE:
        return p.w * (p.pi * use_good + (1.0 - p.pi) * use_bad)
    expected_good = use_good * (1.0 + p.g) + (1.0 - use_good)
    expected_bad = 1.0 - use_bad
    return p.pi * expected_good + (1.0 - p.pi) * expected_bad


# -- parameter sets --------------------------------------------------------


def random_admissible(rng, count):
    """Admissible parameter sets over the whole range, a tenth with eps = 0."""
    points = []
    while len(points) < count:
        pi = float(rng.uniform(0.01, 0.99))
        eps = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 0.45))
        low = eps / (1.0 - eps)
        high = 8.0 if eps == 0.0 else min((1.0 - eps) / eps, (1.0 - pi) * (1.0 - eps) / (pi * eps))
        if low >= high:
            continue
        g = float(rng.uniform(low, high))
        slack = (1.0 - pi) * (1.0 - eps) - pi * eps * g
        c = float(rng.uniform(0.0, slack))
        w = float(rng.uniform(0.0, 1.0))
        bound = (c + (1.0 - pi * (1.0 - eps) - (1.0 - pi) * eps) * w) / ((1.0 - pi) * (1.0 - eps))
        v_c = max(bound, 1e-3) * float(rng.uniform(1.0, 5.0))
        p = ModelParams(pi=pi, eps=eps, g=g, c=c, w=w, v_c=v_c)
        if validate_params(p).admissible:
            points.append(p)
    return points


PARAMS = REFERENCE_POINTS + tuple(random_admissible(np.random.default_rng(20251017), 10_000))

#: How far a wage conditioned on the quality may lie from the one the payoffs read, in ulps of the larger of w
#: and 1 + g, which bounds the production; the worst on PARAMS, which are fixed, is 2.
WAGE_ULPS = 2


def test_the_sample_reaches_the_corners():
    assert len(PARAMS) > 10_000
    assert all(validate_params(p).admissible for p in PARAMS)
    assert sum(p.eps == 0.0 for p in PARAMS) > 500
    assert min(p.pi for p in PARAMS) < 0.1 and max(p.pi for p in PARAMS) > 0.9


def test_table_rows_follow_the_strategy_names():
    for s in ALL_STRATEGIES:
        effort, on_good, on_bad = STRATEGY_TABLE[s]
        assert effort == (s in _EFFORT_STRATEGIES)
        rule = _USE_RULE[s]
        assert (on_good, on_bad) == (rule in (1, 2), rule in (1, 3))


# -- exact agreement -------------------------------------------------------


def test_closed_forms_equal_the_hand_algebra_exactly():
    mismatches = []
    for p in PARAMS:
        for s in ALL_STRATEGIES:
            for name, new, old in (
                ("use_probability", float(p.state_table.use[s]), oracle_use_probability(s, p)),
                ("failure_probability", (1 - p.pi) * p.state_table.use_given_bad[s], oracle_failure_probability(s, p)),
                ("expected_production", expected_production(s, p), oracle_expected_production(s, p)),
            ):
                if new != old:
                    mismatches.append((name, s.label, p, new, old))
    assert mismatches == []


def test_agent_payoff_equals_the_hand_algebra_exactly():
    mismatches = []
    for p in PARAMS:
        for gamma in (0.0, gamma_bar(p), 0.5, 1.0):
            for comp in (PROSPECTIVE, REALIZED):
                for s in ALL_STRATEGIES:
                    new = agent_payoff(s, gamma, p, comp)
                    old = oracle_agent_payoff(s, gamma, p, comp)
                    if new != old:
                        mismatches.append((s.label, gamma, comp, p, new, old))
    assert mismatches == []


def test_simulation_adoption_and_wages_equal_the_hand_algebra_exactly():
    # the wages every exact payoff is built on: P(use) * w under prospective pay, the expected production under
    # realized pay; the wages conditioned on the quality, which the simulation's payoffs were first built on,
    # stay within WAGE_ULPS of them
    mismatches = []
    for p in PARAMS:
        for good in (True, False):
            old = [oracle_use_prob_given_quality(code, good, p) for code in range(len(ALL_STRATEGIES))]
            if (p.state_table.use_given_good if good else p.state_table.use_given_bad).tolist() != old:
                mismatches.append(("adoption", good, p))
        wages = {PROSPECTIVE: (p.state_table.use * p.w).tolist(), REALIZED: p.production.tolist()}
        for comp, old in (
            (PROSPECTIVE, [oracle_use_probability(s, p) * p.w for s in ALL_STRATEGIES]),
            (REALIZED, [oracle_expected_production(s, p) for s in ALL_STRATEGIES]),
        ):
            if wages[comp] != old:
                mismatches.append(("wage", comp, p))
            conditioned = [oracle_expected_wage(code, p, comp) for code in range(len(ALL_STRATEGIES))]
            gap = max(abs(new - was) for new, was in zip(wages[comp], conditioned))
            if gap > WAGE_ULPS * np.spacing(max(p.w, 1.0 + p.g)):
                mismatches.append(("conditioned wage", comp, p, gap))
    assert mismatches == []
