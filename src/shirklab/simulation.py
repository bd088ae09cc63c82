"""Finite-agent execution of the adoption game with Monte Carlo estimation.

Each episode walks the one-shot timeline: the firing policy is fixed, a
technology of latent quality arrives for the first ``round(h * n)``
agents, those agents research or shirk, observe signals, choose adoption,
wages are paid (prospectively on adoption, or as realized output), output
is realized, failures are punished, and survivors collect the
continuation value.

``run_episode`` plays one trial agent by agent and reads its uniforms in
a fixed order: one for the quality, then the signal-error draws only
when some strategy reads them (one shared uniform under common
correlation, one per access agent under independent), then one firing
uniform per access agent.  The firing uniforms are drawn only under
random firing at a rate strictly between 0 and 1 when some agent fails,
the only case in which they can change who is fired.

Monte Carlo draws trial block ``b``, trials ``[b * TRIAL_BLOCK, (b + 1)
* TRIAL_BLOCK)``, from numpy's ``SeedSequence(seed, spawn_key=(0, b))``:
all its qualities, then under common signals all its shared readings,
then, when some trial can play alone, the per-strategy counts of all its
trials (``_EpisodeKernel.block``).  So a run of T trials is a prefix of
any longer run, and matched scenarios see identical production paths.
Every trial is accounted from the counts of adopters and fired agents of
each strategy, with no work per agent.  A trial's state is its row of
``model.STATES``, ``2 * bad + wrong``, where ``wrong`` says the shared
signal uniform fell below eps (0 when no strategy reads it); a trial
takes its state's counts, which need no draw.  The rest play alone on
counts of their own: a failure punished at random under common signals,
and every trial of a profile that reads independent signals.

Seniority is agent order: under seniority firing the lowest-indexed
failing agent is fired (``_first_failures``).  Workers differ only in the
strategy they play, so any other commonly known order is the same game on
a relabelled profile.

Nash checks never sample: deviation payoffs are exact expectations over
quality, signals, and the firing rule, including the seniority pick.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace as dc_replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ContractViolationError, InvalidParamsError
from .equilibrium import ReplacementCostCurve, policy, solve_threshold
from .model import (
    ALL_STRATEGIES,
    AgentStrategy,
    BAD,
    GOOD,
    ModelParams,
    PAYOFF_TIE_TOL,
    PROSPECTIVE,
    REALIZED,
    STATES,
    StateTable,
    _EFFORT,
    _fmt,
    _payoff_rows,
)

COMMON = "common"
INDEPENDENT = "independent"
UNIFORM_RANDOM = "uniform_random"
SENIORITY = "seniority"

#: Size caps of a run, checked before any array is built.  A profile holds one byte per agent.  Monte Carlo
#: peaks at about 35 bytes per trial, and 140 to 220 for a trial that plays alone as one to six strategies
#: (tracemalloc, 2 * 10^5 trials of 60 agents, numpy 2.4).
MAX_AGENTS = 10**7
MAX_TRIALS = 10**6

_N_STRATEGIES = len(ALL_STRATEGIES)


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
        for name, low, high in (("n_agents", 1, MAX_AGENTS), ("n_trials", 1, MAX_TRIALS), ("seed", 0, 2**64 - 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
            if not low <= value <= high:
                raise InvalidParamsError(f"{name} must lie in [{low}, {high}], got {value}")
        if isinstance(self.h, bool) or not isinstance(self.h, (int, float, np.integer, np.floating)):
            raise InvalidParamsError(f"h must be a number, got {self.h!r}")
        if not 0.0 <= self.h <= 1.0:
            raise InvalidParamsError(f"h must lie in [0, 1], got {self.h}")
        for name, choices in (
            ("signal_correlation", (COMMON, INDEPENDENT)),
            ("compensation", (PROSPECTIVE, REALIZED)),
            ("punishment_mode", (UNIFORM_RANDOM, SENIORITY)),
        ):
            value = getattr(self, name)
            if value not in choices:
                raise InvalidParamsError(f"{name} must be one of {choices}, got {value!r}")

    @property
    def access_count(self) -> int:
        """Number of agents with access: h * n rounded to nearest integer."""
        return int(math.floor(self.h * self.n_agents + 0.5))


class StrategyProfile:
    """Per-agent pure strategy assignment; agents without access are inert."""

    __slots__ = ("codes",)

    def __init__(self, codes: Sequence[int] | np.ndarray):
        values = np.asarray(codes)
        if values.ndim != 1:
            raise ContractViolationError("strategy profile must be one-dimensional")
        # the range is checked before the int8 cast and integrality after it, so
        # no bad code is wrapped (257 to 1) or truncated (1.7 to 1) into a valid one
        array = None
        if not values.size or (values.min() >= 0 and values.max() < _N_STRATEGIES):
            array = values.astype(np.int8, copy=False)
        if array is None or not np.array_equal(array, values):
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
        counts = _players(self.codes)
        parts = ", ".join(f"{AgentStrategy(i).label}={counts[i]}" for i in range(_N_STRATEGIES) if counts[i])
        return f"StrategyProfile({parts})"


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


def _access_codes(cfg: SimConfig, profile: StrategyProfile, policy_gamma: float = 0.0) -> np.ndarray:
    """The strategy codes of the access agents, after checking the profile length and the rate."""
    if len(profile) != cfg.n_agents:
        raise ContractViolationError(f"profile length {len(profile)} does not match n_agents {cfg.n_agents}")
    if not 0.0 <= policy_gamma <= 1.0:
        raise ValueError(f"policy_gamma must lie in [0, 1], got {policy_gamma}")
    return profile.codes[: cfg.access_count]


def _players(codes: np.ndarray) -> np.ndarray:
    """The agents playing each strategy code, counted in place: bincount would copy the codes to intp."""
    return np.array([np.count_nonzero(codes == code) for code in range(_N_STRATEGIES)])


def _first_failures(codes: np.ndarray) -> list[int]:
    """The first access agent that fails in the bad state on a right and on a wrong signal, ``m`` when none does."""
    # each code's first agent, one comparison a code: fancy indexing a fails row by the codes is ten times slower
    m = len(codes)
    first = [int(agents.argmax()) if agents.any() else m for agents in (codes == code for code in range(_N_STRATEGIES))]
    return [min((at for at, failing in zip(first, fails) if failing), default=m) for fails in StateTable.fails[2:]]


#: Trials per block stream.  Part of the stream contract: trial t draws from
#: block ``t // TRIAL_BLOCK`` whatever ``n_trials`` is.
TRIAL_BLOCK = 2048


def _block_stream(seed: int, index: int) -> np.random.Generator:
    """Trial block ``index``'s generator, spawned from ``seed`` at ``spawn_key=(0, index)``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, index)))


def _binomial(rng: np.random.Generator, n, p) -> np.ndarray:
    """Binom(n, p) counts, element by element; a count that is certain (p of 0 or 1) takes no draw."""
    return np.where(p == 1.0, n, rng.binomial(np.where((p == 0.0) | (p == 1.0), 0, n), p))


def _spared(p: ModelParams, codes: np.ndarray) -> np.ndarray:
    """P(none of access agents 0..i fails | a bad technology), for each i: a prefix product."""
    spared = 1.0 - p.state_table.use_given_bad[codes]
    return np.cumprod(spared, out=spared)


class _EpisodeKernel:
    """The one-shot timeline for a fixed profile and firing rate, in per-strategy counts.

    ``trials`` draws a run block by block and accounts every trial from
    its adopters and fired agents per played strategy, through
    ``counted``: rows 0 to 3 are the states of ``model.STATES``, whose
    counts need no draw (``state_counts``), and each trial that plays
    alone has a row of its own, on counts drawn from its block
    (``block``).  ``run_episode`` plays one trial agent by agent.
    """

    def __init__(self, cfg: SimConfig, profile: StrategyProfile, policy_gamma: float):
        self.cfg, self.policy_gamma = cfg, policy_gamma
        self.codes = _access_codes(cfg, profile, policy_gamma)
        # the strategies played, with the access agents playing each
        players = _players(self.codes)
        self.played = np.flatnonzero(players)
        self.players = players[self.played]
        self.effort_cost = cfg.params.c * float(self.players @ _EFFORT[self.played]) / cfg.n_agents
        # a strategy reads the signal when a good technology read right and wrong see it adopt differently
        self.reads_signal = bool((StateTable.adopts[0, self.played] != StateTable.adopts[1, self.played]).any())
        self.reads_independent = self.reads_signal and cfg.signal_correlation == INDEPENDENT
        # a fire uniform can change who is fired only at a rate strictly inside (0, 1)
        self.random_firing = cfg.punishment_mode == UNIFORM_RANDOM and 0.0 < policy_gamma < 1.0

    @cached_property
    def failure_cdf(self) -> np.ndarray:
        """P(one of access agents 0..i fails | a bad technology), for each i, under independent signals."""
        cdf = _spared(self.cfg.params, self.codes)
        return np.subtract(1.0, cdf, out=cdf)

    @cached_property
    def positions(self) -> list[np.ndarray]:
        """Each played strategy's access agents, in index order."""
        return [np.flatnonzero(self.codes == code) for code in self.played.tolist()]

    def block(self, seed: int, index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Trial block ``index``'s states, and each trial's adopters and fired per played strategy.

        Each trial starts from its state's counts.  With independent signals
        a bad technology's first failure is one uniform per trial inverted
        through ``failure_cdf``, and each strategy's adopters after it, or
        of a good technology, a binomial, whatever the firing rule, so
        matched arms share them.  Seniority fires that first failure;
        random firing a binomial of each strategy's failures, which draws
        nothing at a rate of 0 or 1.
        """
        rng = _block_stream(seed, index)
        states = 2 * (rng.random(TRIAL_BLOCK) >= self.cfg.params.pi)
        if self.cfg.signal_correlation == COMMON:
            wrong = rng.random(TRIAL_BLOCK) < self.cfg.params.eps
            if self.reads_signal:
                states += wrong
        users, fired = (rows[states] for rows in self.state_counts)
        bad = (states >= 2)[:, None]
        if self.reads_independent:
            m = len(self.codes)
            first = np.searchsorted(self.failure_cdf, rng.random(TRIAL_BLOCK), side="right")
            # each strategy's agents up to the first failure, which is at m when no one fails
            upto = np.stack([np.searchsorted(agents, first, side="right") for agents in self.positions], axis=1)
            first_fails = bad & (first < m)[:, None] & (self.codes[np.minimum(first, m - 1)][:, None] == self.played)
            table = self.cfg.params.state_table
            chance = np.where(bad, table.use_given_bad[self.played], table.use_given_good[self.played])
            users = first_fails + _binomial(rng, np.where(bad, self.players - upto, self.players), chance)
            if self.cfg.punishment_mode == SENIORITY:
                fired = first_fails.astype(np.int64)
        if self.cfg.punishment_mode == UNIFORM_RANDOM:
            fired = _binomial(rng, np.where(bad, users, 0), self.policy_gamma)
        return states, users, fired

    @cached_property
    def state_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Each state's adopters and fired per played strategy, row k for ``STATES[k]``, which need no draw.

        The adopters are the players of the strategies that adopt in the
        state, and those who fail are the adopters of a bad technology:
        seniority fires the first of them (``_first_failures``), and random
        firing every one at a rate of 1 and none at 0.  At a rate inside
        (0, 1) a bad state with adopters plays alone, so its row goes unused.
        """
        users = self.players * StateTable.adopts[:, self.played]
        if self.cfg.punishment_mode == SENIORITY:
            fired = np.zeros_like(users)
            for state, first in enumerate(_first_failures(self.codes), start=2):
                if first < len(self.codes):
                    fired[state] = self.played == self.codes[first]
        else:
            fired = users * StateTable.fails[:, self.played] * (self.policy_gamma == 1.0)
        return users, fired

    def trials(self, seed: int, trials: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Each trial's row, and each row's bad-technology flag and ``counted`` statistics.

        Rows 0 to 3 hold the states of ``STATES``, then a row per trial that plays alone: a failure under random
        firing, and every trial read on independent signals.  The states are counted once, then each block's lone
        rows together, so temporaries stay small.
        """
        bad = np.arange(len(STATES)) >= 2
        parts, which, rows = [(bad, *self.counted(bad, *self.state_counts))], [], len(STATES)
        for first in range(0, trials, TRIAL_BLOCK):
            states, users, fired = self.block(seed, first // TRIAL_BLOCK)
            states = states[: trials - first]
            alone = self.random_firing & (states >= 2) & users[: len(states)].any(axis=1)
            lone = np.flatnonzero(alone | self.reads_independent)
            row = states.astype(np.intp)
            row[lone] = rows + np.arange(len(lone))
            rows += len(lone)
            which.append(row)
            bad = states[lone] >= 2
            parts.append((bad, *self.counted(bad, users[lone], fired[lone])))
        bad, *counted = (np.concatenate(part) for part in zip(*parts))
        return np.concatenate(which), bad, counted

    def counted(self, bad: np.ndarray, users: np.ndarray, fired: np.ndarray) -> tuple[np.ndarray, ...]:
        """Output, wages and welfare per agent, failure, fired count and payoff sums per played strategy, from counts.

        A payoff sum is each count of a strategy's agents times their payoff: wage, effort cost, v_c if kept.
        """
        p, n = self.cfg.params, self.cfg.n_agents
        adopters = users.sum(axis=1)
        # an adopter produces 1 + g of a good technology and 0 of a bad one, anyone else 1
        produce = np.where(bad, 0.0, 1.0 + p.g)
        output = (n - adopters + adopters * produce) / n
        if self.cfg.compensation == PROSPECTIVE:
            wages, use_wage, idle_wage = p.w * adopters / n, p.w, 0.0
        else:
            # realized pay is every agent's production, an inert agent's too
            wages, use_wage, idle_wage = output, produce[:, None], 1.0
        players = self.players
        sums = users * use_wage + (players - users) * idle_wage - players * (p.c * _EFFORT[self.played])
        sums += (players - fired) * p.v_c
        return output, wages, output - self.effort_cost, bad & (adopters > 0), fired.sum(axis=1), sums


def run_episode(
    cfg: SimConfig, profile: StrategyProfile, policy_gamma: float, curve: ReplacementCostCurve, rng: np.random.Generator
) -> EpisodeOutcome:
    """Play the timeline once and account for every agent.

    Under ``uniform_random`` punishment each failing agent is fired
    independently with probability ``policy_gamma``; under ``seniority``
    the lowest-indexed failing agent is fired with certainty and
    ``policy_gamma`` is ignored.  ``rng`` is read in the module's
    draw order: the quality, the signal draw(s) only when some strategy
    reads them, and the fire uniforms only when they can change who is
    fired.  It needs only ``random()`` and ``random(size)``.  An inert
    agent produces 1, paid to it under realized pay.
    """
    kernel = _EpisodeKernel(cfg, profile, policy_gamma)
    p, n, codes = cfg.params, cfg.n_agents, kernel.codes
    m = len(codes)
    good = bool(rng.random() < p.pi)
    # each agent's row of STATES, 2 * bad + wrong: one shared reading under common signals
    state = 2 * (not good)
    if kernel.reads_signal:
        state = state + ((rng.random() if cfg.signal_correlation == COMMON else rng.random(m)) < p.eps)
    use, failed = StateTable.adopts[state, codes], StateTable.fails[state, codes]
    if cfg.punishment_mode == SENIORITY:
        # the first failure: a failing agent with no failure before it
        fired = failed & (failed.cumsum() == 1)
    elif kernel.random_firing and failed.any():
        # fire uniforms can change who is fired only on a failure under random firing
        fired = failed & (rng.random(m) < policy_gamma)
    else:
        fired = failed & (policy_gamma == 1.0)
    produced = p.state_table.produced[state, codes]
    if cfg.compensation == PROSPECTIVE:
        wage, inert_wages = np.where(use, p.w, 0.0), 0.0
    else:
        wage, inert_wages = produced.copy(), float(n - m)
    fired_count = np.count_nonzero(fired)
    output = (n - m + float(produced.sum())) / n
    # each strategy's summed payoff: the wage net of effort cost, plus v_c for each agent kept
    payoffs = wage - p.c * _EFFORT[codes] + p.v_c * (~fired)
    return EpisodeOutcome(
        quality=GOOD if good else BAD,
        used=use,
        produced=produced,
        wage_paid=wage,
        fired=fired,
        output=output,
        wages=(float(wage.sum()) + inert_wages) / n,
        effort_cost=kernel.effort_cost,
        welfare=output - kernel.effort_cost,
        replacement_cost=curve.cost(fired_count / n),
        fired_count=fired_count,
        failure_event=bool(failed.any()),
        payoff_sum_by_strategy=np.bincount(codes, weights=payoffs, minlength=_N_STRATEGIES),
    )


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
            f"agents {self.n_agents}  trials {self.n_trials}  seed {self.seed}  gamma {_fmt(self.policy_gamma)}",
            f"output/agent       {_fmt(self.output.mean)} +- {_fmt(self.output.se)}",
            f"wages/agent        {_fmt(self.wages.mean)} +- {_fmt(self.wages.se)}",
            f"replacement cost   {_fmt(self.replacement_cost.mean)} +- {_fmt(self.replacement_cost.se)}",
            f"welfare/agent      {_fmt(self.welfare.mean)} +- {_fmt(self.welfare.se)}",
            f"failure frequency  {_fmt(self.failure_frequency)}",
        ]
        for label, stat in sorted(self.per_strategy_payoff.items()):
            lines.append(f"payoff[{label}]  {_fmt(stat.mean)} +- {_fmt(stat.se)}")
        return "\n".join(lines)


def _mean_se(values: np.ndarray) -> MeanSE:
    mean = float(values.mean())
    if len(values) < 2:
        return MeanSE(mean, 0.0)
    return MeanSE(mean, float(values.std(ddof=1) / math.sqrt(len(values))))


def monte_carlo(
    cfg: SimConfig, profile: StrategyProfile, policy_gamma: float, curve: ReplacementCostCurve, trace_path: str | None = None
) -> SimResult:
    """Average the episode over ``cfg.n_trials`` trials.

    Trial t draws from its block's stream ``spawn_key=(0, t //
    TRIAL_BLOCK)`` alone, so its outcome depends on neither ``n_trials``
    nor the order trials run in.  Every trial is accounted from its counts
    of adopters and fired agents per strategy, each payoff sum a count
    times a value: a trial that plays alone from its block's counts, any
    other from its (quality, shared reading) state's, which need no draw.
    No pass runs over the agents.  One ``curve.cost`` call prices every
    distinct count of fired agents.
    """
    kernel = _EpisodeKernel(cfg, profile, policy_gamma)
    which, bad, (output, wages, welfare, failure, fired_count, payoff_sums) = kernel.trials(cfg.seed, cfg.n_trials)
    # each distinct count priced once; cost works element by element
    distinct, inverse = np.unique(fired_count, return_inverse=True)
    replacement_cost = curve.cost(distinct / cfg.n_agents)[inverse]

    per_strategy: dict[str, MeanSE] = {}
    for column, (code, players) in enumerate(zip(kernel.played.tolist(), kernel.players.tolist())):
        per_strategy[AgentStrategy(code).label] = _mean_se(payoff_sums[which, column] / players)

    if trace_path is not None:
        quality, outputs, welfares, fired, failures = (
            column.tolist() for column in (np.where(bad, BAD, GOOD), output, welfare, fired_count, failure)
        )
        with open(trace_path, "w", encoding="utf-8") as handle:
            for t, row in enumerate(which.tolist()):
                record = {"trial": t, "quality": quality[row], "output": outputs[row], "welfare": welfares[row],
                          "fired": fired[row], "failure": failures[row]}
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    return SimResult(
        output=_mean_se(output[which]),
        wages=_mean_se(wages[which]),
        replacement_cost=_mean_se(replacement_cost[which]),
        welfare=_mean_se(welfare[which]),
        failure_frequency=float(failure[which].mean()),
        per_strategy_payoff=per_strategy,
        n_agents=cfg.n_agents,
        n_trials=cfg.n_trials,
        seed=cfg.seed,
        policy_gamma=policy_gamma,
    )


# -- exact deviation payoffs ---------------------------------------------


def _common_signal_row_of_agent(codes: np.ndarray) -> np.ndarray:
    """Each access agent's seniority row under common signals, ``2 * f_right + f_wrong``, given the others' codes.

    With one shared signal the failing set in a bad state is fixed by the
    profile, and a deviator who fails there is fired (flag 1) iff its index
    is at most that of the first current failure, on a right and on a wrong
    reading: a failing agent is fired only if it is that failure itself, a
    non-failing one only if it comes before it.  Holds with no failure too
    (the bound is then ``m``).
    """
    right, wrong = _first_failures(codes)
    rows = np.zeros(len(codes), dtype=np.int8)
    rows[: right + 1] += 2
    rows[: wrong + 1] += 1
    return rows


def _deviation_payoff_table(cfg: SimConfig, codes: np.ndarray, policy_gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Expected payoff of every (access agent, strategy) pair, others fixed.

    ``codes`` are the access agents' strategy codes.  Returns ``(rows,
    row_of_agent)``: access agent i's payoffs are ``rows[row_of_agent[i]]``,
    rows of ``model._payoff_rows`` whose ``fired`` is the firing rule's: one
    row of ``policy_gamma`` under ``uniform_random`` firing, and at most four
    under seniority firing with common signals, indexed by one int8 per
    agent; with independent signals one per run of equal ``prefix`` values,
    indexed by the smallest unsigned type that counts the runs.

    Analytic expectations over quality, signals, and the firing rule; no
    sampling, so deviation gains carry no Monte Carlo noise.
    """
    p, m = cfg.params, len(codes)
    if cfg.punishment_mode == UNIFORM_RANDOM:
        # firing is independent across agents, so payoffs decouple
        return _payoff_rows(p, cfg.compensation, [[policy_gamma]]), np.zeros(m, dtype=np.int8)
    if cfg.signal_correlation == COMMON:
        # row 2 * f_right + f_wrong: a strategy failing on one reading takes its flag, on both 0, eps, 1 - eps or 1
        right, wrong = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])[:, :, None]
        fails_right, fails_wrong = StateTable.fails[2:]
        both = [[0.0], [p.eps], [1.0 - p.eps], [1.0]]
        fired = np.where(fails_right & fails_wrong, both, np.where(fails_right, right, wrong))
        return _payoff_rows(p, cfg.compensation, fired), _common_signal_row_of_agent(codes)

    # independent signals: given a bad technology, the chance no lower-indexed agent fails is a prefix product
    prefix = np.ones(m)
    prefix[1:] = _spared(p, codes[:-1])
    # prefix never increases, so each run of equal values shares one row
    changes = prefix[1:] != prefix[:-1]
    row_of_agent = np.zeros(m, dtype=np.min_scalar_type(np.count_nonzero(changes)))
    np.cumsum(changes, out=row_of_agent[1:])
    fired = np.concatenate((prefix[:1], prefix[1:][changes]))[:, None]
    return _payoff_rows(p, cfg.compensation, fired), row_of_agent


def expected_strategy_payoffs(cfg: SimConfig, profile: StrategyProfile, policy_gamma: float) -> dict[str, float]:
    """Exact expected payoff of each strategy played in ``profile``.

    Each access agent's payoff is its own-strategy entry of the deviation
    table, averaged over the agents playing that strategy: the exact
    counterpart of ``SimResult.per_strategy_payoff``.  It is one weighted
    term per row the strategy's agents read, so under uniform random
    firing it is ``agent_payoff`` itself.
    """
    codes = _access_codes(cfg, profile, policy_gamma)
    rows, row_of_agent = _deviation_payoff_table(cfg, codes, policy_gamma)
    players = _players(codes)
    payoffs: dict[str, float] = {}
    for code in np.flatnonzero(players):
        per_row = np.bincount(row_of_agent[codes == code], minlength=len(rows))
        used = np.flatnonzero(per_row)
        payoffs[AgentStrategy(int(code)).label] = float(np.sum(rows[used, code] * (per_row[used] / players[code])))
    return payoffs


def closed_form_targets(cfg: SimConfig, profile: StrategyProfile, policy_gamma: float) -> dict[str, float]:
    """The exact values a Monte Carlo run of ``profile`` is checked against.

    Output is ``((n - m) + sum of expected_production) / n``: each of the m
    access agents' expected production plus one per inert agent, for
    every profile, pure or mixed.  Welfare nets out the effort cost of the
    agents who research.  Each strategy played then gets its exact
    expected payoff, as ``payoff_<label>``.
    """
    p, n = cfg.params, cfg.n_agents
    codes = _access_codes(cfg, profile, policy_gamma)
    counts = _players(codes)
    output = ((n - len(codes)) + float(counts @ p.production)) / n
    effort_share = float(counts[_EFFORT].sum()) / n
    targets = {"output": output, "welfare": output - p.c * effort_share}
    targets.update({f"payoff_{s}": v for s, v in expected_strategy_payoffs(cfg, profile, policy_gamma).items()})
    return targets


@dataclass(frozen=True)
class Deviation:
    """A profitable unilateral deviation found by the Nash check."""

    agent: int
    current: AgentStrategy
    better: AgentStrategy
    gain: float


def nash_check(cfg: SimConfig, profile: StrategyProfile, policy_gamma: float) -> list[Deviation]:
    """List every profitable unilateral deviation; empty means Nash.

    Payoffs are exact expectations, so a strategy that ``_unhappy`` finds
    short of the best is a real deviation rather than sampling noise.  The
    agents listed are read by ``_table_switches``, the reader of
    ``iterated_best_response``, so they are exactly those it would switch.
    """
    codes = _access_codes(cfg, profile, policy_gamma)
    return [
        Deviation(agent=at, current=AgentStrategy(int(codes[at])), better=AgentStrategy(code), gain=gain)
        for at, code, gain in zip(*(column.tolist() for column in _table_switches(cfg, codes, policy_gamma)))
    ]


def _unhappy(rows: np.ndarray) -> np.ndarray:
    """Where a strategy pays less than its row's best by more than ``PAYOFF_TIE_TOL``: the one tie rule."""
    return rows < rows.max(1)[:, None] - PAYOFF_TIE_TOL


@dataclass(frozen=True, eq=False)
class BestResponseTrace:
    """Synchronous best-response iteration record, its switches kept as flat arrays.

    ``initial`` is the starting profile and ``final`` the profile after the last round.  ``agents`` holds every
    switched access agent in round order and ``new_codes`` the strategy code it switched to; round k+1's switches
    are the slices ``offsets[k]:offsets[k + 1]`` of both, so the record takes O(n + switches) in three arrays.
    ``converged`` is False only if the round cap was hit, which is reported rather than raised so a failing
    dynamic can be inspected as a counterexample.
    """

    initial: StrategyProfile
    agents: np.ndarray
    new_codes: np.ndarray
    offsets: np.ndarray
    converged: bool
    final: StrategyProfile

    @property
    def rounds(self) -> int:
        return len(self.offsets) - 1


def _table_switches(cfg: SimConfig, codes: np.ndarray, policy_gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unhappy agents, with their best codes (int8) and gains, each taken once over the table's few rows."""
    rows, row_of_agent = _deviation_payoff_table(cfg, codes, policy_gamma)
    # a flat index, row * 6 + code, in a type that holds the table's last index: twice as fast as a 2-D index
    flat = row_of_agent.astype(np.min_scalar_type(rows.size - 1)) * np.uint8(_N_STRATEGIES) + codes.view(np.uint8)
    agents = np.flatnonzero(_unhappy(rows).ravel()[flat])
    row, code = row_of_agent[agents], codes[agents]
    gains = rows.max(1)[:, None] - rows
    return agents, rows.argmax(1).astype(np.int8)[row], gains[row, code]


def _jump(codes: np.ndarray, at: int, old: int, before: list[int], after: list[int], limit: int) -> int:
    """Play ahead, up to ``limit`` rounds, those that repeat agent ``at``'s lone switch from ``old`` to ``codes[at]``.

    Under seniority firing with common signals agent i's row is ``2 * (i <= first[0]) + (i <= first[1])``, where
    ``first`` holds the first failures (``_first_failures``) ``before`` and ``after`` the round, so the rows that
    moved lie between each first failure's old and new index.  The switch is repeated one agent up when those rows
    are exactly agent ``at + 1``'s, who plays ``old`` too, and the new code fails in the bad state only on a signal
    where an agent before ``at`` fails: agent ``at + 1``'s row is then ``at``'s before the switch, and each round
    hands the first failure to the next agent of the run.  All but the run's last agent switch in ``codes``; the last
    keeps a round of its own.  Returns the rounds played.
    """
    code, last, nxt = int(codes[at]), len(codes) - 1, at + 1
    # a first failure at m, none, moves no row from one at m - 1
    spans = [sorted((min(old_first, last), min(new_first, last))) for old_first, new_first in zip(before, after)]
    moved = [span for span in spans if span[0] != span[1]]
    if not moved or any(span != [at, nxt] for span in moved) or codes[nxt] != old:
        return 0
    if any(fails[code] and first >= at for fails, first in zip(StateTable.fails[2:], after)):
        return 0
    # the run ends at the first agent not playing old
    other = codes[nxt:] != old
    end = nxt + int(other.argmax()) if other.any() else len(codes)
    rounds = min(end - 1 - nxt, limit)
    codes[nxt : nxt + rounds] = code
    return rounds


def iterated_best_response(cfg: SimConfig, initial: StrategyProfile, max_rounds: int | None = None) -> BestResponseTrace:
    """Iterate synchronous best responses until a fixed point.

    Intended for the seniority punishment mode, where the lowest-indexed member of any would-be shirking group
    prefers effort, flipping one agent per round, in index order, until everyone with access researches.  Agents
    keep their current strategy when it remains among the best responses.

    Every round reads every agent off the full table, a few rows and a row index, in O(n) vectorized work
    (``_table_switches``), and writes its switches into the codes in one assignment.  Under seniority firing with
    common signals a lone switch bound to repeat one agent up along a run of equal codes is played ahead for the
    whole run in one step (``_jump``), so unraveling from all ``shirk_use`` takes a few reads at any size.  The
    round cap, ``10 * n_agents`` or ``max_rounds``, stops a jump too; a ``max_rounds`` that is negative or not an
    integer (a bool is not one) is refused before any round.
    """
    if max_rounds is not None and (isinstance(max_rounds, bool) or not isinstance(max_rounds, (int, np.integer))):
        raise TypeError(f"max_rounds must be an integer, got {max_rounds!r}")
    if max_rounds is not None and max_rounds < 0:
        raise ValueError(f"max_rounds must be nonnegative, got {max_rounds}")
    codes = _access_codes(cfg, initial).copy()
    jumps = cfg.punishment_mode == SENIORITY and cfg.signal_correlation == COMMON
    cap = 10 * cfg.n_agents if max_rounds is None else max_rounds
    # every switch's agent and new code in round order, and the switches made by the end of each round, from 0
    agents, new_codes, offsets = bytearray(), bytearray(), bytearray(8)
    rounds = 0
    while rounds < cap:
        switched, best, _ = _table_switches(cfg, codes, 0.0)
        if not switched.size:
            break
        lone = jumps and switched.size == 1
        if lone:
            at = int(switched[0])
            old, before = int(codes[at]), _first_failures(codes)
        codes[switched] = best
        agents += switched.astype(np.int64, copy=False).data
        new_codes += best.data
        offsets += np.int64(len(new_codes)).data
        rounds += 1
        jumped = lone and _jump(codes, at, old, before, _first_failures(codes), cap - rounds)
        if jumped:
            # the r-th round played ahead switches agent at + r alone
            ahead = np.arange(at + 1, at + 1 + jumped, dtype=np.int64)
            agents += ahead.data
            ahead += len(new_codes) - at
            offsets += ahead.data
            new_codes += best.tobytes() * jumped
            rounds += jumped
    final = initial.codes.copy()
    final[: len(codes)] = codes
    switches = (np.frombuffer(agents, np.int64), np.frombuffer(new_codes, np.int8), np.frombuffer(offsets, np.int64))
    # only a round with no switch stops the loop short of the cap
    return BestResponseTrace(initial, *switches, rounds < cap, StrategyProfile(final))


BASELINE = "baseline"
VARIABLE_COMPENSATION = "variable_compensation"
SENIORITY_SCENARIO = "seniority"


@dataclass(frozen=True)
class ScenarioResult:
    """One arm of a policy experiment.

    An arm whose profile was found by best-response unraveling carries the
    number of rounds it took and whether it settled before the round cap.
    """

    name: str
    gamma: float
    profile_label: str
    deviation_count: int
    result: SimResult
    target_output: float
    target_welfare: float
    unraveling_rounds: int | None
    converged: bool | None

    def summary(self) -> str:
        status = "equilibrium" if self.deviation_count == 0 else f"{self.deviation_count} deviations"
        lines = [
            f"scenario {self.name}: profile {self.profile_label} at gamma {_fmt(self.gamma)} ({status})",
            f"  output/agent  {_fmt(self.result.output.mean)} +- {_fmt(self.result.output.se)}"
            f"  target {_fmt(self.target_output)}",
            f"  welfare/agent {_fmt(self.result.welfare.mean)} +- {_fmt(self.result.welfare.se)}"
            f"  target {_fmt(self.target_welfare)}",
            f"  replacement cost {_fmt(self.result.replacement_cost.mean)}",
        ]
        rounds = self.unraveling_rounds
        if rounds is not None:
            if not self.converged:
                outcome = f"stopped at the round cap of {rounds} rounds without settling"
            elif self.profile_label in (AgentStrategy.EFFORT_FOLLOW_SIGNAL.label, "none"):
                # with no access agent the profile is all effort too
                outcome = f"unraveled to effort in {rounds} rounds"
            else:
                outcome = f"best responses settled on a {self.profile_label} profile in {rounds} rounds"
            lines.append(f"  {outcome}")
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
    cfg: SimConfig, name: str, gamma: float, profile: StrategyProfile, curve: ReplacementCostCurve,
    trace: BestResponseTrace | None = None,
) -> ScenarioResult:
    access_codes = _access_codes(cfg, profile, gamma)
    sim = monte_carlo(cfg, profile, gamma, curve)
    targets = closed_form_targets(cfg, profile, gamma)
    if not cfg.access_count:
        label = "none"
    elif np.all(access_codes == access_codes[0]):
        label = AgentStrategy(int(access_codes[0])).label
    else:
        label = "mixed"
    return ScenarioResult(
        name=name,
        gamma=gamma,
        profile_label=label,
        # the deviations nash_check would list, counted without building them
        deviation_count=len(_table_switches(cfg, access_codes, gamma)[0]),
        result=sim,
        target_output=targets["output"],
        target_welfare=targets["welfare"],
        unraveling_rounds=None if trace is None else trace.rounds,
        converged=None if trace is None else trace.converged,
    )


def policy_experiment(cfg: SimConfig, curve: ReplacementCostCurve) -> ExperimentReport:
    """Compare the baseline policy against both treatments at matched seeds.

    The arms run in this order:

    baseline -- prospective pay, random firing at the solved threshold
        policy rate for ``cfg.h``; the equilibrium profile is effort when
        punishment is credible there, blind adoption otherwise.
    variable_compensation -- workers are paid realized production and the
        principal never fires; effort should be an equilibrium on its own.
    seniority -- prospective pay, firing the lowest-indexed failure; the
        equilibrium profile is found by best-response unraveling from
        universal blind adoption.

    All arms share the root seed, so arms with the same strategy profile
    see identical production paths.  ``solve_threshold`` checks that the
    parameters are admissible.
    """
    sol = solve_threshold(cfg.params, curve)
    base_gamma = policy(cfg.h, sol)
    base_cfg = dc_replace(cfg, compensation=PROSPECTIVE, punishment_mode=UNIFORM_RANDOM)
    base_strategy = AgentStrategy.EFFORT_FOLLOW_SIGNAL if base_gamma > 0.0 else AgentStrategy.SHIRK_USE
    base_profile = StrategyProfile.symmetric(base_strategy, cfg.n_agents)
    variable_cfg = dc_replace(cfg, compensation=REALIZED, punishment_mode=UNIFORM_RANDOM)
    effort = StrategyProfile.symmetric(AgentStrategy.EFFORT_FOLLOW_SIGNAL, cfg.n_agents)
    seniority_cfg = dc_replace(cfg, compensation=PROSPECTIVE, punishment_mode=SENIORITY)
    trace = iterated_best_response(seniority_cfg, StrategyProfile.symmetric(AgentStrategy.SHIRK_USE, cfg.n_agents))
    scenarios = (
        _scenario_run(base_cfg, BASELINE, base_gamma, base_profile, curve),
        _scenario_run(variable_cfg, VARIABLE_COMPENSATION, 0.0, effort, curve),
        _scenario_run(seniority_cfg, SENIORITY_SCENARIO, 0.0, trace.final, curve, trace),
    )
    return ExperimentReport(h=cfg.h, scenarios=scenarios)
