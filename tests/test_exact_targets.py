"""Every Monte Carlo statistic against its exact finite-n expectation.

The targets below are computed here from the strategy table alone, for
m_s access agents playing strategy s, a_s the chance that one of them
adopts a bad technology, F the failures and K the fired count in a bad
state:

- wages: prospective pay ``w * E[adopters] / n``; realized pay
  ``(n - m) / n`` plus the expected production per agent
- output and welfare: the expected production, net of the effort cost
  for welfare
- failure frequency: ``(1 - pi) * P(F >= 1 | bad)``; with independent
  signals ``P(F = 0 | bad) = prod_s (1 - a_s)^m_s``
- replacement cost: ``sum_k P(K = k) r(k / n)``, with K ~ Binom(F, gamma)
  under random firing with common signals, the convolution of
  Binom(m_s, a_s * gamma) with independent signals, and K = 1{F >= 1}
  under seniority firing

The per-strategy payoffs are held to ``expected_strategy_payoffs``.  Each
statistic's z-score against its target must stay below 5.
"""

import itertools
import math

import numpy as np
import pytest

from conftest import REFERENCE_POINTS
from shirklab.equilibrium import ReplacementCostCurve
from shirklab.model import _ADOPTS, _EFFORT, ALL_STRATEGIES, AgentStrategy
from shirklab.simulation import (
    MeanSE,
    SimConfig,
    StrategyProfile,
    expected_strategy_payoffs,
    monte_carlo,
)

# pi = 0.7 and eps = 0.15: bad technologies and wrong signals are both common
PARAMS = REFERENCE_POINTS[2]
N_AGENTS = 12
H = 0.75
N_TRIALS = 3000
GAMMA = 0.4
# convex, so the spread of K moves the mean cost
CURVE = ReplacementCostCurve.power(100.0, 2.0)

CASES = list(
    itertools.product(
        ("common", "independent"),
        ("uniform_random", "seniority"),
        ("prospective", "realized"),
        ("effort", "shirk", "mixed"),
    )
)


def _binomial(trials, prob):
    return np.array([math.comb(trials, k) * prob**k * (1.0 - prob) ** (trials - k) for k in range(trials + 1)])


def _fired_pmf_if_bad(cfg, codes, gamma):
    """P(K = k | bad) for k = 0..m, and P(F >= 1 | bad)."""
    p = cfg.params
    m = len(codes)
    pmf = np.zeros(m + 1)
    if cfg.signal_correlation == "common":
        # the shared reading is good (wrong) with chance eps; F agents adopt on it
        readings = [(p.eps, int(_ADOPTS[1][codes].sum())), (1.0 - p.eps, int(_ADOPTS[0][codes].sum()))]
        any_failure = sum(prob for prob, failures in readings if failures)
        for prob, failures in readings:
            pmf[: failures + 1] += prob * _binomial(failures, gamma)
    else:
        counts = np.bincount(codes, minlength=len(ALL_STRATEGIES))
        adopts_if_bad = p.eps * _ADOPTS[1] + (1.0 - p.eps) * _ADOPTS[0]
        any_failure = 1.0 - float(np.prod((1.0 - adopts_if_bad) ** counts))
        pmf[0] = 1.0
        for count, rate in zip(counts.tolist(), adopts_if_bad.tolist()):
            pmf = np.convolve(pmf, _binomial(count, rate * gamma))[: m + 1]
    if cfg.punishment_mode == "seniority":
        pmf = np.zeros(m + 1)
        pmf[0] = 1.0 - any_failure
        if m:
            pmf[1] = any_failure
    return pmf, any_failure


def exact_targets(cfg, profile, gamma, curve):
    """The expectation of every statistic ``monte_carlo`` reports, with its failure frequency."""
    p = cfg.params
    n = cfg.n_agents
    codes = profile.codes[: cfg.access_count]
    m = len(codes)
    # each access agent's chance of adopting, given the quality
    use_if_good = (1.0 - p.eps) * _ADOPTS[1][codes] + p.eps * _ADOPTS[0][codes]
    use_if_bad = p.eps * _ADOPTS[1][codes] + (1.0 - p.eps) * _ADOPTS[0][codes]
    production = p.pi * (use_if_good * (1.0 + p.g) + 1.0 - use_if_good) + (1.0 - p.pi) * (1.0 - use_if_bad)
    output = ((n - m) + production.sum()) / n
    if cfg.compensation == "prospective":
        wages = p.w * (p.pi * use_if_good + (1.0 - p.pi) * use_if_bad).sum() / n
    else:
        wages = (n - m) / n + production.sum() / n
    pmf, any_failure = _fired_pmf_if_bad(cfg, codes, gamma)
    costs = np.array([curve.cost(k / n) for k in range(m + 1)])
    targets = {
        "output": output,
        "wages": wages,
        "welfare": output - p.c * _EFFORT[codes].sum() / n,
        "replacement_cost": p.pi * costs[0] + (1.0 - p.pi) * float(pmf @ costs),
        "failure_frequency": (1.0 - p.pi) * any_failure,
    }
    for label, payoff in expected_strategy_payoffs(cfg, profile, gamma).items():
        targets[f"payoff[{label}]"] = payoff
    return targets


def _z(mean, se, target):
    """The z-score, or 0 / inf for a statistic that is the same in every trial."""
    if se <= 1e-12 * max(1.0, abs(target)):
        return 0.0 if math.isclose(mean, target, rel_tol=1e-12, abs_tol=1e-12) else math.inf
    return (mean - target) / se


def _profile(kind):
    if kind == "effort":
        return StrategyProfile.symmetric(AgentStrategy.EFFORT_FOLLOW_SIGNAL, N_AGENTS)
    if kind == "shirk":
        return StrategyProfile.symmetric(AgentStrategy.SHIRK_USE, N_AGENTS)
    # the 9 access agents play all six strategies, blind adoption first in line
    return StrategyProfile(np.resize([1, 2, 5, 0, 3, 4], N_AGENTS))


@pytest.mark.parametrize("signal, firing, pay, kind", CASES, ids=["-".join(case) for case in CASES])
def test_every_statistic_is_within_5_standard_errors_of_its_exact_target(signal, firing, pay, kind):
    cfg = SimConfig(
        params=PARAMS,
        n_agents=N_AGENTS,
        n_trials=N_TRIALS,
        seed=4100 + CASES.index((signal, firing, pay, kind)),
        h=H,
        signal_correlation=signal,
        compensation=pay,
        punishment_mode=firing,
    )
    profile = _profile(kind)
    gamma = GAMMA if firing == "uniform_random" else 0.0
    result = monte_carlo(cfg, profile, gamma, CURVE)
    targets = exact_targets(cfg, profile, gamma, CURVE)
    stats = {name: getattr(result, name) for name in ("output", "wages", "welfare", "replacement_cost")}
    # a frequency's standard error follows from its target
    frequency = targets["failure_frequency"]
    stats["failure_frequency"] = MeanSE(result.failure_frequency, math.sqrt(frequency * (1.0 - frequency) / N_TRIALS))
    stats.update((f"payoff[{label}]", stat) for label, stat in result.per_strategy_payoff.items())
    assert stats.keys() == targets.keys()
    z = {name: _z(stat.mean, stat.se, targets[name]) for name, stat in stats.items()}
    assert all(abs(score) < 5.0 for score in z.values()), z
