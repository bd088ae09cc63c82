"""Finite-agent execution of the adoption game with Monte Carlo estimation.

Each episode walks the one-shot timeline: the firing policy is fixed, a
technology of latent quality arrives for the first ``round(h * n)``
agents, those agents research or shirk, observe signals, choose adoption,
wages are paid (prospectively on adoption, or as realized output), output
is realized, failures are punished, and survivors collect the
continuation value.

Episode randomness comes from a single generator per trial with a fixed
draw order: one uniform for quality, then the signal-error draws (one
shared uniform under common correlation, one per access agent under
independent), then one firing uniform per access agent.  Draws that
cannot change the trial are left off the end of its stream: the firing
uniforms are drawn only under random firing at a rate strictly between 0
and 1 when some agent fails, and the signal draws only when a strategy
reads its signal or firing uniforms follow them.  Every draw that is
taken sits where it always did, so matched scenarios still see identical
production paths.  Trials use counter-derived substreams of the root
seed, so results are reproducible bit-for-bit and independent of
execution order.  A trial whose outcome depends only on the quality and
one shared reading is accounted once per such state and reused.

Nash checks never sample: deviation payoffs are exact expectations over
quality, signals, and the firing rule, including the seniority selector.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace as dc_replace
from typing import Iterator, Sequence

import numpy as np

from .errors import ContractViolationError, InvalidParamsError
from .equilibrium import (
    DEFAULT_TOL,
    EFFORT,
    SHIRK,
    ReplacementCostCurve,
    expected_output,
    policy,
    solve_threshold,
)
from .model import (
    ALL_STRATEGIES,
    AgentStrategy,
    BAD,
    GOOD,
    ModelParams,
    PAYOFF_TIE_TOL,
    PROSPECTIVE,
    REALIZED,
    STRATEGY_TABLE,
    _adoption_probability,
    _fmt,
    agent_payoff,
)

COMMON = "common"
INDEPENDENT = "independent"
UNIFORM_RANDOM = "uniform_random"
SENIORITY = "seniority"

#: Size caps of a run, checked before any array is built.  A profile holds
#: one byte per agent (eight more for a seniority order) and Monte Carlo
#: keeps about 81 bytes per trial.
MAX_AGENTS = 10**7
MAX_TRIALS = 10**6

_N_STRATEGIES = len(ALL_STRATEGIES)
# the strategy table as arrays: effort per code, and adoption per
# (reading, code) with reading 1 good and 0 bad
_EFFORT, _ADOPTS_ON_GOOD, _ADOPTS_ON_BAD = np.array(STRATEGY_TABLE).T
_ADOPTS = np.array([_ADOPTS_ON_BAD, _ADOPTS_ON_GOOD])


@dataclass(frozen=True)
class SimConfig:
    """Configuration of a finite-agent run."""

    params: ModelParams
    n_agents: int
    n_trials: int
    seed: int
    h: float
    signal_correlation: str = COMMON
    compensation: str = PROSPECTIVE
    punishment_mode: str = UNIFORM_RANDOM

    def __post_init__(self) -> None:
        if not 1 <= self.n_agents <= MAX_AGENTS:
            raise InvalidParamsError(f"n_agents must lie in [1, {MAX_AGENTS}], got {self.n_agents}")
        if not 1 <= self.n_trials <= MAX_TRIALS:
            raise InvalidParamsError(f"n_trials must lie in [1, {MAX_TRIALS}], got {self.n_trials}")
        if not 0 <= self.seed < 2**64:
            raise InvalidParamsError("seed must be a nonnegative 64-bit integer")
        if not 0.0 <= self.h <= 1.0:
            raise InvalidParamsError(f"h must lie in [0, 1], got {self.h}")
        if self.signal_correlation not in (COMMON, INDEPENDENT):
            raise InvalidParamsError(f"unknown signal correlation {self.signal_correlation!r}")
        if self.compensation not in (PROSPECTIVE, REALIZED):
            raise InvalidParamsError(f"unknown compensation mode {self.compensation!r}")
        if self.punishment_mode not in (UNIFORM_RANDOM, SENIORITY):
            raise InvalidParamsError(f"unknown punishment mode {self.punishment_mode!r}")

    @property
    def access_count(self) -> int:
        """Number of agents with access: h * n rounded to nearest integer."""
        return int(math.floor(self.h * self.n_agents + 0.5))


class StrategyProfile:
    """Per-agent pure strategy assignment; agents without access are inert."""

    __slots__ = ("codes",)

    def __init__(self, codes: Sequence[int] | np.ndarray):
        array = np.asarray(codes, dtype=np.int8)
        if array.ndim != 1:
            raise ContractViolationError("strategy profile must be one-dimensional")
        if array.size and (array.min() < 0 or array.max() >= _N_STRATEGIES):
            raise ContractViolationError("strategy profile contains unknown strategy codes")
        self.codes = array

    @classmethod
    def symmetric(cls, strategy: AgentStrategy, n_agents: int) -> "StrategyProfile":
        return cls(np.full(n_agents, int(strategy), dtype=np.int8))

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StrategyProfile) and np.array_equal(self.codes, other.codes)

    def __hash__(self) -> int:
        return hash(self.codes.tobytes())

    def __repr__(self) -> str:
        counts = np.bincount(self.codes, minlength=_N_STRATEGIES)
        parts = [
            f"{AgentStrategy(i).label}={counts[i]}"
            for i in range(_N_STRATEGIES)
            if counts[i]
        ]
        return f"StrategyProfile({', '.join(parts)})"


@dataclass(frozen=True, eq=False)
class SeniorityOrder:
    """A commonly known strict ordering used to single out one failure.

    ``rank[i]`` is agent i's seniority rank (0 is most senior).  The
    selector maps any nonempty failing set to its most senior member, so
    the selected agent always belongs to the set.
    """

    rank: np.ndarray

    def __post_init__(self) -> None:
        ranks = np.asarray(self.rank, dtype=np.int64)
        if ranks.ndim != 1:
            raise ContractViolationError("seniority ranks must form a permutation")
        # n ranks in [0, n) that cover every value are a permutation
        in_range = (ranks >= 0) & (ranks < len(ranks))
        seen = np.zeros(len(ranks), dtype=bool)
        seen[ranks[in_range]] = True
        if not (in_range.all() and seen.all()):
            raise ContractViolationError("seniority ranks must form a permutation")
        object.__setattr__(self, "rank", ranks)

    @classmethod
    def identity(cls, n_agents: int) -> "SeniorityOrder":
        return cls(np.arange(n_agents))

    @classmethod
    def from_permutation(cls, most_senior_first: Sequence[int]) -> "SeniorityOrder":
        """Build from a listing of agent indices, most senior first."""
        perm = np.asarray(most_senior_first, dtype=np.int64)
        rank = np.empty_like(perm)
        rank[perm] = np.arange(len(perm))
        return cls(rank)

    def selector(self, failing: Sequence[int] | np.ndarray) -> int:
        failing = np.asarray(failing, dtype=np.int64)
        if failing.size == 0:
            raise ContractViolationError("selector requires a nonempty failing set")
        return int(failing[np.argmin(self.rank[failing])])


@dataclass(frozen=True, eq=False)
class EpisodeOutcome:
    """One realized play: per-access-agent arrays plus per-unit aggregates.

    Aggregates are normalized to the unit workforce: ``output``,
    ``wages``, ``effort_cost`` and ``welfare`` are per-agent means, and
    ``replacement_cost`` is the least-cost bill for the fired measure
    (fired count / n), on the same per-unit-mass scale.
    """

    quality: str
    used: np.ndarray
    exerted_effort: np.ndarray
    produced: np.ndarray
    wage_paid: np.ndarray
    fired: np.ndarray
    output: float
    wages: float
    effort_cost: float
    welfare: float
    replacement_cost: float
    fired_count: int
    failure_event: bool
    payoff_sum_by_strategy: np.ndarray


def _check_inputs(cfg: SimConfig, profile: StrategyProfile, policy_gamma: float = 0.0) -> None:
    if len(profile) != cfg.n_agents:
        raise ContractViolationError(
            f"profile length {len(profile)} does not match n_agents {cfg.n_agents}"
        )
    if not 0.0 <= policy_gamma <= 1.0:
        raise ValueError(f"policy_gamma must lie in [0, 1], got {policy_gamma}")


class _EpisodeKernel:
    """The one-shot timeline for a fixed profile, firing rate, curve and order.

    ``draw`` takes one trial's uniforms from ``rng`` in the contract order
    (quality, signals, fire uniforms) and skips the trailing draws that
    cannot change the outcome; ``account`` plays the timeline on them.
    ``rng`` needs only ``random()`` and ``random(size)``.
    """

    def __init__(
        self,
        cfg: SimConfig,
        profile: StrategyProfile,
        policy_gamma: float,
        curve: ReplacementCostCurve,
        seniority: SeniorityOrder | None,
    ):
        _check_inputs(cfg, profile, policy_gamma)
        self.cfg = cfg
        self.policy_gamma = policy_gamma
        self.curve = curve
        self.codes = profile.codes[: cfg.access_count]
        self.effort = _EFFORT[self.codes]
        # adoption per (shared reading, access agent), and whether anyone adopts
        self.use_by_reading = _ADOPTS[:, self.codes]
        self.anyone_adopts = self.use_by_reading.any(axis=1)
        self.reads_signal = bool((self.use_by_reading[0] != self.use_by_reading[1]).any())
        # a fire uniform can change who is fired only at a rate strictly inside (0, 1)
        self.random_firing = cfg.punishment_mode == UNIFORM_RANDOM and 0.0 < policy_gamma < 1.0
        self.seniority = None
        if cfg.punishment_mode == SENIORITY:
            self.seniority = seniority or SeniorityOrder.identity(cfg.n_agents)
        self._costs: dict[int, float] = {}

    def draw(self, rng) -> tuple[tuple | None, bool, np.ndarray, np.ndarray | None]:
        """One trial's draws as ``(key, good, use, fire_draws)``.

        ``key`` is ``(good, reading)`` when the outcome depends on nothing
        else (no fire uniform drawn, and the readings are one shared value
        or read by nobody), so equal keys give equal outcomes; otherwise
        it is None.  The signal uniforms are drawn when a strategy reads
        them or when fire uniforms follow them in the stream.
        """
        p = self.cfg.params
        m = len(self.codes)
        common = self.cfg.signal_correlation == COMMON
        good = bool(rng.random() < p.pi)
        # the reading is good (1) when the signal is right about a good
        # technology or wrong about a bad one
        reading: int | None = None
        if not self.reads_signal:
            use = self.use_by_reading[0]
            fails = not good and bool(self.anyone_adopts[0])
        elif common:
            reading = int(good != (rng.random() < p.eps))
            use = self.use_by_reading[reading]
            fails = not good and bool(self.anyone_adopts[reading])
        else:
            readings = (good != (rng.random(m) < p.eps)).astype(np.intp)
            use = _ADOPTS[readings, self.codes]
            fails = not good and bool(use.any())
        if not (fails and self.random_firing):
            key = (good, reading) if common or not self.reads_signal else None
            return key, good, use, None
        if not self.reads_signal:
            # discard the signal uniforms that precede the fire uniforms
            rng.random() if common else rng.random(m)
        return None, good, use, rng.random(m)

    def account(self, good: bool, use: np.ndarray, fire_draws: np.ndarray | None) -> EpisodeOutcome:
        """Play the timeline on one trial's draws and account for every agent."""
        cfg = self.cfg
        p = cfg.params
        n = cfg.n_agents
        m = len(self.codes)
        produced = np.where(use, (1.0 + p.g) if good else 0.0, 1.0)
        failed = use & (not good)

        if self.seniority is not None:
            fired = np.zeros(m, dtype=bool)
            if failed.any():
                fired[self.seniority.selector(np.flatnonzero(failed))] = True
        elif fire_draws is None:
            # no failure, or a rate of 0 or 1 that fires none or all of them
            fired = failed & (self.policy_gamma == 1.0)
        else:
            fired = failed & (fire_draws < self.policy_gamma)

        if cfg.compensation == PROSPECTIVE:
            wage = np.where(use, p.w, 0.0)
            inert_wages = 0.0
        else:
            wage = produced.copy()
            inert_wages = float(n - m)

        payoffs = wage - p.c * self.effort + p.v_c * (~fired)
        fired_count = int(fired.sum())
        cost = self._costs.get(fired_count)
        if cost is None:
            cost = self._costs[fired_count] = self.curve.cost(fired_count / n)

        output = ((n - m) + float(produced.sum())) / n
        wages = (float(wage.sum()) + inert_wages) / n
        effort_cost = p.c * float(self.effort.sum()) / n
        return EpisodeOutcome(
            quality=GOOD if good else BAD,
            used=use,
            exerted_effort=self.effort,
            produced=produced,
            wage_paid=wage,
            fired=fired,
            output=output,
            wages=wages,
            effort_cost=effort_cost,
            welfare=output - effort_cost,
            replacement_cost=cost,
            fired_count=fired_count,
            failure_event=bool(failed.any()),
            payoff_sum_by_strategy=np.bincount(self.codes, weights=payoffs, minlength=_N_STRATEGIES),
        )


def run_episode(
    cfg: SimConfig,
    profile: StrategyProfile,
    policy_gamma: float,
    curve: ReplacementCostCurve,
    rng: np.random.Generator,
    seniority: SeniorityOrder | None = None,
) -> EpisodeOutcome:
    """Play the timeline once and account for every agent.

    Under ``uniform_random`` punishment each failing agent is fired
    independently with probability ``policy_gamma``; under ``seniority``
    the selector's choice from the failing set is fired with certainty
    and ``policy_gamma`` is ignored.  ``rng`` is read in the module's
    draw order, and draws that cannot change the outcome are not taken.
    """
    kernel = _EpisodeKernel(cfg, profile, policy_gamma, curve, seniority)
    _, good, use, fire_draws = kernel.draw(rng)
    return kernel.account(good, use, fire_draws)


@dataclass(frozen=True)
class MeanSE:
    """A Monte Carlo estimate with its standard error across trials."""

    mean: float
    se: float


@dataclass(frozen=True)
class SimResult:
    """Across-trial summary of a Monte Carlo run.

    ``output``, ``wages`` and ``welfare`` are per-agent means;
    ``replacement_cost`` is on the per-unit-workforce scale;
    ``per_strategy_payoff`` averages realized payoffs of the access
    agents playing each strategy.
    """

    output: MeanSE
    wages: MeanSE
    replacement_cost: MeanSE
    welfare: MeanSE
    failure_frequency: float
    per_strategy_payoff: dict[str, MeanSE]
    n_agents: int
    n_trials: int
    seed: int
    policy_gamma: float

    def summary(self) -> str:
        lines = [
            f"agents {self.n_agents}  trials {self.n_trials}  seed {self.seed}  "
            f"gamma {_fmt(self.policy_gamma)}",
            f"output/agent       {_fmt(self.output.mean)} +- {_fmt(self.output.se)}",
            f"wages/agent        {_fmt(self.wages.mean)} +- {_fmt(self.wages.se)}",
            f"replacement cost   {_fmt(self.replacement_cost.mean)} +- {_fmt(self.replacement_cost.se)}",
            f"welfare/agent      {_fmt(self.welfare.mean)} +- {_fmt(self.welfare.se)}",
            f"failure frequency  {_fmt(self.failure_frequency)}",
        ]
        for label in sorted(self.per_strategy_payoff):
            stat = self.per_strategy_payoff[label]
            lines.append(f"payoff[{label}]  {_fmt(stat.mean)} +- {_fmt(stat.se)}")
        return "\n".join(lines)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def _mean_se(values: np.ndarray) -> MeanSE:
    mean = float(values.mean())
    if len(values) < 2:
        return MeanSE(mean, 0.0)
    return MeanSE(mean, float(values.std(ddof=1) / math.sqrt(len(values))))


def monte_carlo(
    cfg: SimConfig,
    profile: StrategyProfile,
    policy_gamma: float,
    curve: ReplacementCostCurve,
    seniority: SeniorityOrder | None = None,
    trace_path: str | None = None,
) -> SimResult:
    """Average the episode over ``cfg.n_trials`` substreams.

    Trial t plays on its own substream ``_trial_rng(cfg.seed, t)``, so the
    result does not depend on the order trials run in.  A trial whose
    outcome depends only on (quality, shared reading) is accounted once
    per such state and reused.
    """
    kernel = _EpisodeKernel(cfg, profile, policy_gamma, curve, seniority)
    trials = cfg.n_trials
    outputs = np.empty(trials)
    wages = np.empty(trials)
    repl = np.empty(trials)
    welfare = np.empty(trials)
    failures = np.empty(trials, dtype=bool)
    qualities = np.empty(trials, dtype=object) if trace_path else None
    fired_counts = np.empty(trials, dtype=np.int64) if trace_path else None
    payoff_sums = np.empty((trials, _N_STRATEGIES))
    counts = np.bincount(kernel.codes, minlength=_N_STRATEGIES)

    seen: dict[tuple, EpisodeOutcome] = {}
    for t in range(trials):
        key, good, use, fire_draws = kernel.draw(_trial_rng(cfg.seed, t))
        episode = seen.get(key) if key is not None else None
        if episode is None:
            episode = kernel.account(good, use, fire_draws)
            if key is not None:
                seen[key] = episode
        outputs[t] = episode.output
        wages[t] = episode.wages
        repl[t] = episode.replacement_cost
        welfare[t] = episode.welfare
        failures[t] = episode.failure_event
        payoff_sums[t] = episode.payoff_sum_by_strategy
        if qualities is not None:
            qualities[t] = episode.quality
            fired_counts[t] = episode.fired_count

    per_strategy: dict[str, MeanSE] = {}
    for code in range(_N_STRATEGIES):
        if counts[code] > 0:
            per_strategy[AgentStrategy(code).label] = _mean_se(payoff_sums[:, code] / counts[code])

    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as handle:
            for t in range(trials):
                handle.write(
                    json.dumps(
                        {
                            "trial": t,
                            "quality": qualities[t],
                            "output": outputs[t],
                            "welfare": welfare[t],
                            "fired": int(fired_counts[t]),
                            "failure": bool(failures[t]),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )

    return SimResult(
        output=_mean_se(outputs),
        wages=_mean_se(wages),
        replacement_cost=_mean_se(repl),
        welfare=_mean_se(welfare),
        failure_frequency=float(failures.mean()),
        per_strategy_payoff=per_strategy,
        n_agents=cfg.n_agents,
        n_trials=trials,
        seed=cfg.seed,
        policy_gamma=policy_gamma,
    )


# -- exact deviation payoffs ---------------------------------------------


def _adoption_given_quality(p: ModelParams, good: bool) -> np.ndarray:
    """Each strategy's adoption probability given the technology's quality."""
    good_reading = (1.0 - p.eps) if good else p.eps
    return np.array([_adoption_probability(s, good_reading) for s in ALL_STRATEGIES])


def _expected_wages(p: ModelParams, compensation: str) -> np.ndarray:
    """Each strategy's expected wage, conditioning adoption on the quality."""
    use_good = _adoption_given_quality(p, True)
    use_bad = _adoption_given_quality(p, False)
    if compensation == PROSPECTIVE:
        return p.w * (p.pi * use_good + (1.0 - p.pi) * use_bad)
    return p.pi * (use_good * (1.0 + p.g) + (1.0 - use_good)) + (1.0 - p.pi) * (1.0 - use_bad)


def _access_ranks(cfg: SimConfig, seniority: SeniorityOrder | None) -> np.ndarray:
    """Seniority ranks of the access agents (identity order by default)."""
    order = seniority or SeniorityOrder.identity(cfg.n_agents)
    return order.rank[: cfg.access_count]


@functools.lru_cache(maxsize=32)
def _common_signal_rows(p: ModelParams, compensation: str) -> np.ndarray:
    """Seniority deviation payoffs under common signals, one row per fired pattern.

    A deviator who fails in a bad state is fired iff no more senior agent
    fails there too.  Row ``2 * f_right + f_wrong`` holds the payoffs of an
    agent who would be fired (flag 1) or spared (flag 0) on failing in the
    bad state with a right or a wrong signal.  The four (quality,
    signal-error) states are summed in a fixed order, so every agent's
    payoffs are bit-identical to a per-agent expectation.  Read-only
    because it is shared between calls.
    """
    rows = np.zeros((4, _N_STRATEGIES))
    fired_if = {False: np.array([0, 0, 1, 1], dtype=bool), True: np.array([0, 1, 0, 1], dtype=bool)}
    effort_cost = np.where(_EFFORT, p.c, 0.0)
    for good in (True, False):
        for wrong in (False, True):
            prob = (p.pi if good else 1.0 - p.pi) * (p.eps if wrong else 1.0 - p.eps)
            if prob == 0.0:
                continue
            use = _ADOPTS[int(good != wrong)]
            produced = np.where(use, (1.0 + p.g) if good else 0.0, 1.0)
            wage = np.where(use, p.w, 0.0) if compensation == PROSPECTIVE else produced
            base = wage - effort_cost + p.v_c
            # a deviator who fails (uses a bad technology) loses v_c when most senior
            fired = (use & (not good))[None, :] & fired_if[wrong][:, None]
            rows += prob * (base - p.v_c * fired)
    rows.flags.writeable = False
    return rows


def _common_signal_row_of_agent(codes: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Each access agent's row of ``_common_signal_rows`` given the others' codes.

    With one shared signal the failing set in a bad state is fixed by the
    profile, and a deviator who fails there is fired iff its rank is at
    most that of the most senior current failure: a failing agent is fired
    only if it is that failure itself, a non-failing one only if it would
    be more senior.  Holds with no failure too (the bound is then +inf).
    """
    row = np.zeros(len(codes), dtype=np.intp)
    for bit, wrong in ((2, False), (1, True)):
        # in the bad state the signal reads good exactly when it is wrong
        failing = _ADOPTS[int(wrong)][codes]
        if failing.any():
            row += bit * (ranks <= ranks[failing].min())
        else:
            row += bit
    return row


def _deviation_payoff_table(
    cfg: SimConfig,
    codes: np.ndarray,
    policy_gamma: float,
    ranks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Expected payoff of every (access agent, strategy) pair, others fixed.

    ``codes`` and ``ranks`` are the access agents' strategy codes and
    seniority ranks.  Returns ``(rows, row_of_agent)``: access agent i's
    payoffs are ``rows[row_of_agent[i]]``.  There is one row under
    ``uniform_random`` firing, at most four under seniority firing with
    common signals, and one per agent with independent signals.

    Analytic expectations over quality, signals, and the firing rule; no
    sampling, so deviation gains carry no Monte Carlo noise.
    """
    p = cfg.params
    m = len(codes)
    if cfg.punishment_mode == UNIFORM_RANDOM:
        # firing is independent across agents, so payoffs decouple
        row = np.array(
            [agent_payoff(s, policy_gamma, p, cfg.compensation) for s in ALL_STRATEGIES]
        )
        return row[None, :], np.zeros(m, dtype=np.intp)
    if cfg.signal_correlation == COMMON:
        return _common_signal_rows(p, cfg.compensation), _common_signal_row_of_agent(codes, ranks)

    # independent signals: failures are independent across agents given a
    # bad technology, so the chance no more-senior agent fails is a
    # prefix product over seniority ranks
    use_bad = _adoption_given_quality(p, False)
    by_rank = np.argsort(ranks, kind="stable")
    survive = 1.0 - use_bad[codes][by_rank]
    prefix = np.ones(m)
    prefix[by_rank[1:]] = np.cumprod(survive[:-1])
    fired_prob = ((1.0 - p.pi) * use_bad)[None, :] * prefix[:, None]
    base = _expected_wages(p, cfg.compensation) - np.where(_EFFORT, p.c, 0.0)
    return base + p.v_c * (1.0 - fired_prob), np.arange(m)


def expected_strategy_payoffs(
    cfg: SimConfig,
    profile: StrategyProfile,
    policy_gamma: float,
    seniority: SeniorityOrder | None = None,
) -> dict[str, float]:
    """Exact expected payoff of each strategy played in ``profile``.

    Each access agent's payoff is its own-strategy entry of the deviation
    table, averaged over the agents playing that strategy: the exact
    counterpart of ``SimResult.per_strategy_payoff``.  Under uniform
    random firing this is ``agent_payoff`` itself.
    """
    codes = profile.codes[: cfg.access_count]
    rows, row_of_agent = _deviation_payoff_table(
        cfg, codes, policy_gamma, _access_ranks(cfg, seniority)
    )
    players = np.bincount(codes, minlength=_N_STRATEGIES)
    payoffs: dict[str, float] = {}
    for code in np.flatnonzero(players):
        per_row = np.bincount(row_of_agent[codes == code], minlength=len(rows))
        used = np.flatnonzero(per_row)
        payoffs[AgentStrategy(int(code)).label] = float(
            np.sum(rows[used, code] * (per_row[used] / players[code]))
        )
    return payoffs


def closed_form_targets(cfg: SimConfig, profile: StrategyProfile, policy_gamma: float) -> dict[str, float]:
    """The exact values a Monte Carlo run of ``profile`` is checked against.

    Output and welfare come from the closed forms at the realized reach
    ``access_count / n_agents``, in the effort regime when every access
    agent researches and follows the signal and the blind-adoption regime
    otherwise; welfare nets out the effort cost of the agents who research.
    Each strategy played then gets its exact expected payoff, as
    ``payoff_<label>``, under the identity seniority order.
    """
    p = cfg.params
    codes = profile.codes[: cfg.access_count]
    effort = bool(codes.size) and bool(np.all(codes == AgentStrategy.EFFORT_FOLLOW_SIGNAL))
    output = expected_output(cfg.access_count / cfg.n_agents, EFFORT if effort else SHIRK, p)
    effort_share = float(_EFFORT[codes].sum()) / cfg.n_agents
    targets = {"output": output, "welfare": output - p.c * effort_share}
    for label, payoff in expected_strategy_payoffs(cfg, profile, policy_gamma).items():
        targets[f"payoff_{label}"] = payoff
    return targets


@dataclass(frozen=True)
class Deviation:
    """A profitable unilateral deviation found by the Nash check."""

    agent: int
    current: AgentStrategy
    better: AgentStrategy
    gain: float


def nash_check(
    cfg: SimConfig,
    profile: StrategyProfile,
    policy_gamma: float,
    seniority: SeniorityOrder | None = None,
) -> list[Deviation]:
    """List every profitable unilateral deviation; empty means Nash.

    Payoffs are exact expectations, so a gain above ``PAYOFF_TIE_TOL`` is
    a real deviation rather than sampling noise.
    """
    _check_inputs(cfg, profile, policy_gamma)
    codes = profile.codes[: cfg.access_count]
    rows, row_of_agent = _deviation_payoff_table(
        cfg, codes, policy_gamma, _access_ranks(cfg, seniority)
    )
    best = rows.argmax(1)[row_of_agent]
    gain = (rows.max(1)[:, None] - rows)[row_of_agent, codes]
    return [
        Deviation(
            agent=int(pos),
            current=AgentStrategy(int(codes[pos])),
            better=AgentStrategy(int(best[pos])),
            gain=float(gain[pos]),
        )
        for pos in np.flatnonzero(gain > PAYOFF_TIE_TOL)
    ]


@dataclass(frozen=True)
class BestResponseTrace:
    """Synchronous best-response iteration record, stored as per-round diffs.

    ``initial`` is the starting profile; in round k+1 the access agents
    ``changed[k]`` switched to the strategy codes ``switched_to[k]``.
    ``profiles`` rebuilds the profile after every round on demand
    (``profiles[0]`` is the initial one), so the record itself takes
    O(n + switches) memory.  ``converged`` is False only if the round cap
    was hit, which is reported rather than raised so a failing dynamic can
    be inspected as a counterexample.
    """

    initial: StrategyProfile
    changed: list[list[int]]
    switched_to: list[np.ndarray]
    converged: bool

    @property
    def rounds(self) -> int:
        return len(self.changed)

    def _replay(self) -> Iterator[np.ndarray]:
        codes = self.initial.codes.copy()
        yield codes
        for positions, new_codes in zip(self.changed, self.switched_to):
            codes[positions] = new_codes
            yield codes

    @property
    def profiles(self) -> list[StrategyProfile]:
        return [StrategyProfile(codes.copy()) for codes in self._replay()]

    @property
    def final(self) -> StrategyProfile:
        *_, codes = self._replay()
        return StrategyProfile(codes)


def iterated_best_response(
    cfg: SimConfig,
    initial: StrategyProfile,
    seniority: SeniorityOrder | None = None,
    max_rounds: int | None = None,
) -> BestResponseTrace:
    """Iterate synchronous best responses until a fixed point.

    Intended for the seniority punishment mode, where the most senior
    member of any would-be shirking group prefers effort, flipping one
    agent per round until everyone with access researches.  Agents keep
    their current strategy when it remains among the best responses.

    Each round reads the exact deviation table: with common signals a
    deviator who fails in a bad state is fired iff its rank is at most
    ``min1``, the rank of the most senior current failure there, so every
    agent's payoffs are one of four rows and a round costs O(n) vectorized
    work.  The trace keeps the initial profile and each round's switched
    positions with their new codes.
    """
    _check_inputs(cfg, initial)
    cap = 10 * cfg.n_agents if max_rounds is None else max_rounds
    ranks = _access_ranks(cfg, seniority)
    codes = initial.codes[: cfg.access_count].copy()
    changed: list[list[int]] = []
    switched_to: list[np.ndarray] = []
    for _ in range(cap):
        rows, row_of_agent = _deviation_payoff_table(cfg, codes, 0.0, ranks)
        unhappy = rows < rows.max(1)[:, None] - PAYOFF_TIE_TOL
        switched = np.flatnonzero(unhappy[row_of_agent, codes])
        if not switched.size:
            return BestResponseTrace(initial, changed, switched_to, True)
        new_codes = rows.argmax(1)[row_of_agent[switched]].astype(np.int8)
        codes[switched] = new_codes
        changed.append(switched.tolist())
        switched_to.append(new_codes)
    return BestResponseTrace(initial, changed, switched_to, False)


BASELINE = "baseline"
VARIABLE_COMPENSATION = "variable_compensation"
SENIORITY_SCENARIO = "seniority"


@dataclass(frozen=True)
class ScenarioResult:
    """One arm of a policy experiment."""

    name: str
    gamma: float
    profile_label: str
    equilibrium_confirmed: bool
    deviation_count: int
    result: SimResult
    target_output: float
    target_welfare: float
    unraveling_rounds: int | None = None

    def summary(self) -> str:
        status = "equilibrium" if self.equilibrium_confirmed else f"{self.deviation_count} deviations"
        lines = [
            f"scenario {self.name}: profile {self.profile_label} at gamma {_fmt(self.gamma)} ({status})",
            f"  output/agent  {_fmt(self.result.output.mean)} +- {_fmt(self.result.output.se)}"
            f"  target {_fmt(self.target_output)}",
            f"  welfare/agent {_fmt(self.result.welfare.mean)} +- {_fmt(self.result.welfare.se)}"
            f"  target {_fmt(self.target_welfare)}",
            f"  replacement cost {_fmt(self.result.replacement_cost.mean)}",
        ]
        if self.unraveling_rounds is not None:
            lines.append(f"  unraveled to effort in {self.unraveling_rounds} rounds")
        return "\n".join(lines)


@dataclass(frozen=True)
class ExperimentReport:
    """Matched comparison of a baseline against a policy treatment."""

    h: float
    scenarios: tuple[ScenarioResult, ...]

    def summary(self) -> str:
        parts = [f"technology reach h = {_fmt(self.h)}"]
        parts.extend(s.summary() for s in self.scenarios)
        return "\n".join(parts)


def _scenario_run(
    cfg: SimConfig,
    name: str,
    gamma: float,
    profile: StrategyProfile,
    curve: ReplacementCostCurve,
    unraveling_rounds: int | None = None,
) -> ScenarioResult:
    deviations = nash_check(cfg, profile, gamma)
    sim = monte_carlo(cfg, profile, gamma, curve)
    targets = closed_form_targets(cfg, profile, gamma)
    access_codes = profile.codes[: cfg.access_count]
    if cfg.access_count and np.all(access_codes == access_codes[0]):
        label = AgentStrategy(int(access_codes[0])).label
    else:
        label = "mixed"
    return ScenarioResult(
        name=name,
        gamma=gamma,
        profile_label=label,
        equilibrium_confirmed=not deviations,
        deviation_count=len(deviations),
        result=sim,
        target_output=targets["output"],
        target_welfare=targets["welfare"],
        unraveling_rounds=unraveling_rounds,
    )


def policy_experiment(
    cfg: SimConfig,
    curve: ReplacementCostCurve,
    tol: float = DEFAULT_TOL,
) -> ExperimentReport:
    """Compare the baseline policy against both treatments at matched seeds.

    The arms run in this order:

    baseline -- prospective pay, random firing at the solved threshold
        policy rate for ``cfg.h``; the equilibrium profile is effort when
        punishment is credible there, blind adoption otherwise.
    variable_compensation -- workers are paid realized production and the
        principal never fires; effort should be an equilibrium on its own.
    seniority -- prospective pay with the identity seniority selector; the
        equilibrium profile is found by best-response unraveling from
        universal blind adoption.

    All arms share the root seed, so arms with the same strategy profile
    see identical production paths.  ``solve_threshold`` checks that the
    parameters are admissible.
    """
    sol = solve_threshold(cfg.params, curve, tol=tol)
    base_gamma = policy(cfg.h, sol)
    base_cfg = dc_replace(cfg, compensation=PROSPECTIVE, punishment_mode=UNIFORM_RANDOM)
    base_strategy = (
        AgentStrategy.EFFORT_FOLLOW_SIGNAL if base_gamma > 0.0 else AgentStrategy.SHIRK_USE
    )
    base_profile = StrategyProfile.symmetric(base_strategy, cfg.n_agents)
    variable_cfg = dc_replace(cfg, compensation=REALIZED, punishment_mode=UNIFORM_RANDOM)
    effort = StrategyProfile.symmetric(AgentStrategy.EFFORT_FOLLOW_SIGNAL, cfg.n_agents)
    seniority_cfg = dc_replace(cfg, compensation=PROSPECTIVE, punishment_mode=SENIORITY)
    trace = iterated_best_response(
        seniority_cfg, StrategyProfile.symmetric(AgentStrategy.SHIRK_USE, cfg.n_agents)
    )
    scenarios = (
        _scenario_run(base_cfg, BASELINE, base_gamma, base_profile, curve),
        _scenario_run(variable_cfg, VARIABLE_COMPENSATION, 0.0, effort, curve),
        _scenario_run(
            seniority_cfg, SENIORITY_SCENARIO, 0.0, trace.final, curve, unraveling_rounds=trace.rounds
        ),
    )
    return ExperimentReport(h=cfg.h, scenarios=scenarios)
