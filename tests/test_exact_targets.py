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
statistic's z-score against its target must stay below 5, on a grid at 12
agents and in each signal and firing mode at 10^4 agents, where a trial
that plays alone is drawn as per-strategy counts.  Each binomial pmf is
summed only over its mean +- 40 sd, so no pmf here is as long as n.

The same pmfs hold the counts a run draws, and those ``run_episode``
draws agent by agent, to their exact distribution; and they tie the
finite game to the continuum, where r is convex: by Jensen E[r(K / n)]
>= r(E[K] / n), and at a fixed reach the gap shrinks as n grows.
"""

import itertools
import json
import math

import numpy as np
import pytest

from conftest import REFERENCE_POINTS
from shirklab.equilibrium import ReplacementCostCurve
from shirklab.model import _ADOPTS, _EFFORT, ALL_STRATEGIES, AgentStrategy, ModelParams
from shirklab.simulation import (
    MeanSE,
    SimConfig,
    StrategyProfile,
    expected_strategy_payoffs,
    monte_carlo,
    run_episode,
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
    """Binom(trials, prob) as its first count and its pmf from there, only over mean +- 40 sd."""
    if trials == 0 or prob in (0.0, 1.0):
        return (trials if prob == 1.0 else 0), np.ones(1)
    mean, sd = trials * prob, math.sqrt(trials * prob * (1.0 - prob))
    first, last = max(0, math.floor(mean - 40.0 * sd)), min(trials, math.ceil(mean + 40.0 * sd))
    log_choose = [math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1) for k in range(first, last + 1)]
    k = np.arange(first, last + 1)
    pmf = np.exp(np.array(log_choose) + k * math.log(prob) + (trials - k) * math.log1p(-prob))
    return first, pmf / pmf.sum()


def _count_pmf_if_bad(cfg, codes, rate):
    """Pieces (chance, first count, pmf) of the number of failing agents each counted with chance ``rate``.

    Under common signals the shared reading is good (wrong) with chance
    eps, and the F agents that adopt on the reading fail; with independent
    signals each of the m_s agents of strategy s fails with chance a_s.
    ``rate`` 1 counts the adopters, gamma the fired under random firing.
    """
    p = cfg.params
    if cfg.signal_correlation == "common":
        readings = ((p.eps, int(_ADOPTS[1][codes].sum())), (1.0 - p.eps, int(_ADOPTS[0][codes].sum())))
        return [(prob, *_binomial(failures, rate)) for prob, failures in readings]
    counts = np.bincount(codes, minlength=len(ALL_STRATEGIES))
    adopts_if_bad = p.eps * _ADOPTS[1] + (1.0 - p.eps) * _ADOPTS[0]
    first, pmf = 0, np.ones(1)
    for count, chance in zip(counts.tolist(), adopts_if_bad.tolist()):
        start, piece = _binomial(count, chance * rate)
        first, pmf = first + start, np.convolve(pmf, piece)
    return [(1.0, first, pmf)]


def _any_failure_if_bad(cfg, codes):
    """P(F >= 1 | bad)."""
    p = cfg.params
    if cfg.signal_correlation == "common":
        readings = ((p.eps, _ADOPTS[1][codes].any()), (1.0 - p.eps, _ADOPTS[0][codes].any()))
        return sum(prob for prob, fails in readings if fails)
    counts = np.bincount(codes, minlength=len(ALL_STRATEGIES))
    adopts_if_bad = p.eps * _ADOPTS[1] + (1.0 - p.eps) * _ADOPTS[0]
    return 1.0 - float(np.prod((1.0 - adopts_if_bad) ** counts))


def _fired_pmf_if_bad(cfg, codes, gamma):
    """Pieces (chance, first count, pmf) of K given a bad technology, and P(F >= 1 | bad)."""
    any_failure = _any_failure_if_bad(cfg, codes)
    if cfg.punishment_mode == "seniority":
        return [(1.0 - any_failure, 0, np.ones(1)), (any_failure, 1, np.ones(1))], any_failure
    return _count_pmf_if_bad(cfg, codes, gamma), any_failure


def _expected_cost(pieces, curve, n):
    """E[r(K / n)] over the pmf pieces of K."""
    return sum(prob * float(pmf @ curve.cost(np.arange(first, first + len(pmf)) / n)) for prob, first, pmf in pieces)


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
    pieces, any_failure = _fired_pmf_if_bad(cfg, codes, gamma)
    targets = {
        "output": output,
        "wages": wages,
        "welfare": output - p.c * _EFFORT[codes].sum() / n,
        "replacement_cost": p.pi * curve.cost(0.0) + (1.0 - p.pi) * _expected_cost(pieces, curve, n),
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


def _assert_within_5_standard_errors(cfg, profile, gamma, curve):
    result = monte_carlo(cfg, profile, gamma, curve)
    targets = exact_targets(cfg, profile, gamma, curve)
    stats = {name: getattr(result, name) for name in ("output", "wages", "welfare", "replacement_cost")}
    # a frequency's standard error follows from its target
    frequency = targets["failure_frequency"]
    stats["failure_frequency"] = MeanSE(result.failure_frequency, math.sqrt(frequency * (1.0 - frequency) / cfg.n_trials))
    stats.update((f"payoff[{label}]", stat) for label, stat in result.per_strategy_payoff.items())
    assert stats.keys() == targets.keys()
    z = {name: _z(stat.mean, stat.se, targets[name]) for name, stat in stats.items()}
    assert all(abs(score) < 5.0 for score in z.values()), z


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
    gamma = GAMMA if firing == "uniform_random" else 0.0
    _assert_within_5_standard_errors(cfg, _profile(kind), gamma, CURVE)


MODES = list(itertools.product(("common", "independent"), ("uniform_random", "seniority")))


@pytest.mark.parametrize("signal, firing", MODES, ids=["-".join(mode) for mode in MODES])
def test_every_statistic_is_within_5_standard_errors_at_10_4_agents(signal, firing):
    index = MODES.index((signal, firing))
    cfg = SimConfig(
        params=PARAMS,
        n_agents=10_000,
        n_trials=N_TRIALS,
        seed=4200 + index,
        h=H,
        signal_correlation=signal,
        compensation=("prospective", "realized")[index % 2],
        punishment_mode=firing,
    )
    # mostly researchers that follow the signal, and a few of every other strategy
    profile = StrategyProfile(np.resize([2, 2, 5, 2, 0, 2, 3, 2, 4, 2, 1, 2], cfg.n_agents))
    _assert_within_5_standard_errors(cfg, profile, GAMMA if firing == "uniform_random" else 0.0, CURVE)


def _pmf_vector(pieces, m):
    """The pmf over 0..m of pmf pieces."""
    pmf = np.zeros(m + 1)
    for prob, first, piece in pieces:
        pmf[first : first + len(piece)] += prob * piece
    return pmf


def _assert_drawn_from(samples, pmf):
    """The samples' CDF within the DKW band of the exact one at chance 1e-6, their mean within 5 standard errors."""
    size = len(samples)
    drawn = np.bincount(samples, minlength=len(pmf)) / size
    assert len(drawn) == len(pmf)
    gap = np.abs(np.cumsum(drawn) - np.cumsum(pmf)).max()
    assert gap < math.sqrt(math.log(2.0 / 1e-6) / (2.0 * size)), gap
    k = np.arange(len(pmf))
    mean = float(pmf @ k)
    sd = math.sqrt(float(pmf @ (k - mean) ** 2))
    assert abs(samples.mean() - mean) <= 5.0 * sd / math.sqrt(size) + 1e-9


@pytest.mark.parametrize("signal, firing", MODES, ids=["-".join(mode) for mode in MODES])
def test_counts_and_episodes_draw_the_exact_adopter_and_fired_distributions(signal, firing, tmp_path):
    # a coin-flip prior, and no blind adopter, so that some bad trials see no failure
    cfg = SimConfig(
        params=ModelParams(pi=0.5, eps=0.3, g=1.5, c=0.01, w=0.05, v_c=1.0),
        n_agents=40,
        n_trials=8192,
        seed=4300 + MODES.index((signal, firing)),
        h=0.75,
        signal_correlation=signal,
        punishment_mode=firing,
    )
    profile = StrategyProfile(np.resize([2, 5, 2, 0, 4], cfg.n_agents))
    codes = profile.codes[: cfg.access_count]
    m = len(codes)
    gamma = GAMMA if firing == "uniform_random" else 0.0
    curve = ReplacementCostCurve.linear(100.0, resolution=500)
    want_adopters = _pmf_vector(_count_pmf_if_bad(cfg, codes, 1.0), m)
    want_fired = _pmf_vector(_fired_pmf_if_bad(cfg, codes, gamma)[0], m)
    # by counts (or by state), read off the trace: a bad trial's output is (n - adopters) / n
    monte_carlo(cfg, profile, gamma, curve, trace_path=str(tmp_path / "trace.jsonl"))
    lines = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    bad = [line for line in lines if line["quality"] == "bad"]
    adopters = np.array([round(cfg.n_agents * (1.0 - line["output"])) for line in bad])
    _assert_drawn_from(adopters, want_adopters)
    _assert_drawn_from(np.array([line["fired"] for line in bad]), want_fired)
    # agent by agent
    rng = np.random.default_rng(cfg.seed)
    episodes = [run_episode(cfg, profile, gamma, curve, rng) for _ in range(4000)]
    bad = [episode for episode in episodes if episode.quality == "bad"]
    _assert_drawn_from(np.array([int(episode.used.sum()) for episode in bad]), want_adopters)
    _assert_drawn_from(np.array([episode.fired_count for episode in bad]), want_fired)


@pytest.mark.parametrize("curve", [ReplacementCostCurve.linear(100.0), CURVE], ids=["linear", "power"])
@pytest.mark.parametrize("signal", ["common", "independent"])
def test_the_jensen_gap_shrinks_toward_the_continuum_as_n_grows(curve, signal):
    # K is the fired count of an effort profile at a fixed reach, given a bad
    # technology; under common signals the shared reading mixes two pieces,
    # and the continuum keeps the gap of mixing their means
    excess = []
    for n in (10**2, 10**3, 10**4, 10**5, 10**6):
        cfg = SimConfig(PARAMS, n, 1, 0, 0.5, signal_correlation=signal)
        codes = np.full(cfg.access_count, int(AgentStrategy.EFFORT_FOLLOW_SIGNAL), dtype=np.int8)
        pieces = _count_pmf_if_bad(cfg, codes, GAMMA)
        means = [float(pmf @ np.arange(first, first + len(pmf))) / n for _, first, pmf in pieces]
        mean = sum(prob * piece_mean for (prob, _, _), piece_mean in zip(pieces, means))
        gap = _expected_cost(pieces, curve, n) - curve.cost(mean)
        continuum = sum(prob * curve.cost(piece_mean) for (prob, _, _), piece_mean in zip(pieces, means)) - curve.cost(mean)
        assert gap >= continuum >= 0.0
        excess.append(gap - continuum)
    assert all(later < earlier for earlier, later in zip(excess, excess[1:])), excess
    assert excess[-1] < 1e-3 * excess[0]
    if signal == "independent":
        assert continuum == 0.0
