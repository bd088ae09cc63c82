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
independent), then one firing uniform per access agent.  The quality and
signal draws are always taken; the firing uniforms are drawn only under
random firing at a rate strictly between 0 and 1 when some agent fails,
the only case in which they can change who is fired.  Every draw sits at
a fixed place in the stream, so matched scenarios see identical
production paths.  Trials use counter-derived substreams of the root
seed, so results are reproducible bit-for-bit and independent of
execution order.

Monte Carlo does not build a generator for most trials: it replays the
first one or two uniforms of every substream (the quality, and the shared
reading under common signals) with numpy array arithmetic, bit for bit,
codes each trial's (quality, reading) state from them and accounts each
distinct state once.  Only a trial that draws fire uniforms, and every
trial of a profile that reads independent signals, builds its real
generator and plays alone.  Each run checks the replay against the real
generator at its first and last trial and, on a mismatch, codes the
states from every trial's real generator instead.

Seniority is agent order: under seniority firing the lowest-indexed
failing agent is fired.  Workers differ only in the strategy they play, so
any other commonly known order is the same game on a relabelled profile.

Nash checks never sample: deviation payoffs are exact expectations over
quality, signals, and the firing rule, including the seniority pick.
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
#: one byte per agent and Monte Carlo keeps about 20 bytes per trial, about
#: 120 for a trial that builds its own generator.
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
        counts = np.bincount(self.codes, minlength=_N_STRATEGIES)
        parts = [
            f"{AgentStrategy(i).label}={counts[i]}"
            for i in range(_N_STRATEGIES)
            if counts[i]
        ]
        return f"StrategyProfile({', '.join(parts)})"


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


def _access_codes(cfg: SimConfig, profile: StrategyProfile, policy_gamma: float = 0.0) -> np.ndarray:
    """The strategy codes of the access agents, after checking the profile length and the rate."""
    if len(profile) != cfg.n_agents:
        raise ContractViolationError(
            f"profile length {len(profile)} does not match n_agents {cfg.n_agents}"
        )
    if not 0.0 <= policy_gamma <= 1.0:
        raise ValueError(f"policy_gamma must lie in [0, 1], got {policy_gamma}")
    return profile.codes[: cfg.access_count]


class _EpisodeKernel:
    """The one-shot timeline for a fixed profile, firing rate and curve.

    ``draw`` takes one trial's uniforms from ``rng`` in the contract order
    (quality, signals, fire uniforms when they can change who is fired);
    ``account`` plays the timeline on them.  ``rng`` needs only
    ``random()`` and ``random(size)``.  ``replay_states`` codes each
    trial whose outcome depends on nothing but its quality and shared
    reading as ``2 * good + reading`` (reading 0 when no strategy reads
    the signal), so equal codes give equal outcomes.
    """

    def __init__(
        self,
        cfg: SimConfig,
        profile: StrategyProfile,
        policy_gamma: float,
        curve: ReplacementCostCurve,
    ):
        self.cfg = cfg
        self.policy_gamma = policy_gamma
        self.curve = curve
        self.codes = _access_codes(cfg, profile, policy_gamma)
        self.effort = _EFFORT[self.codes]
        # adoption per (shared reading, access agent), and whether anyone adopts
        self.use_by_reading = _ADOPTS[:, self.codes]
        self.anyone_adopts = self.use_by_reading.any(axis=1)
        self.reads_signal = bool((self.use_by_reading[0] != self.use_by_reading[1]).any())
        # a fire uniform can change who is fired only at a rate strictly inside (0, 1)
        self.random_firing = cfg.punishment_mode == UNIFORM_RANDOM and 0.0 < policy_gamma < 1.0

    def draw(self, rng) -> tuple[bool, np.ndarray, np.ndarray | None]:
        """One trial's draws as ``(good, use, fire_draws)``; ``fire_draws`` is None when not drawn."""
        p = self.cfg.params
        m = len(self.codes)
        good = bool(rng.random() < p.pi)
        # the reading is good (1) when the signal is right about a good
        # technology or wrong about a bad one
        if self.cfg.signal_correlation == COMMON:
            use = self.use_by_reading[int(good != (rng.random() < p.eps))]
        elif self.reads_signal:
            readings = (good != (rng.random(m) < p.eps)).astype(np.intp)
            use = _ADOPTS[readings, self.codes]
        else:
            # no one reads these signals, so no reading is formed from them
            rng.random(m)
            use = self.use_by_reading[0]
        fails = not good and bool(use.any())
        return good, use, rng.random(m) if fails and self.random_firing else None

    def replay_states(self, seed: int, trials: int) -> np.ndarray:
        """Each trial's state code, found from the first uniforms of its substream.

        A trial that needs its generator gets -1: one that draws fire
        uniforms, and every trial of a profile that reads independent
        signals, which is never coded.  The uniforms are replayed when
        the replay matches ``_trial_rng`` at the first and the last
        trial, and are taken from every trial's generator otherwise.
        """
        states = np.full(trials, -1, dtype=np.int8)
        if self.reads_signal and self.cfg.signal_correlation == INDEPENDENT:
            return states
        n_draws = 2 if self.reads_signal else 1
        ends = np.array([0, trials - 1])
        uniforms_of = _replay_uniforms
        if not np.array_equal(uniforms_of(seed, ends, n_draws), _generator_uniforms(seed, ends, n_draws)):
            uniforms_of = _generator_uniforms
        p = self.cfg.params
        for first in range(0, trials, REPLAY_BLOCK):
            uniforms = uniforms_of(seed, np.arange(first, min(first + REPLAY_BLOCK, trials)), n_draws)
            good = uniforms[0] < p.pi
            block = 2 * good.astype(np.int8)
            if self.reads_signal:
                block += good != (uniforms[1] < p.eps)
            if self.random_firing:
                block[~good & self.anyone_adopts[block & 1]] = -1
            states[first : first + len(block)] = block
        return states

    def account(self, good: bool, use: np.ndarray, fire_draws: np.ndarray | None) -> EpisodeOutcome:
        """Play the timeline on one trial's draws and account for every agent."""
        cfg = self.cfg
        p = cfg.params
        n = cfg.n_agents
        m = len(self.codes)
        produced = np.where(use, (1.0 + p.g) if good else 0.0, 1.0)
        failed = use & (not good)

        if cfg.punishment_mode == SENIORITY:
            fired = np.zeros(m, dtype=bool)
            if failed.any():
                fired[failed.argmax()] = True
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
            replacement_cost=self.curve.cost(fired_count / n),
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
) -> EpisodeOutcome:
    """Play the timeline once and account for every agent.

    Under ``uniform_random`` punishment each failing agent is fired
    independently with probability ``policy_gamma``; under ``seniority``
    the lowest-indexed failing agent is fired with certainty and
    ``policy_gamma`` is ignored.  ``rng`` is read in the module's
    draw order: the quality and signal draws always, the fire uniforms
    only when they can change who is fired.
    """
    kernel = _EpisodeKernel(cfg, profile, policy_gamma, curve)
    return kernel.account(*kernel.draw(rng))


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


# -- trial substreams ------------------------------------------------------

#: Trials whose uniforms are replayed at once.  The replay's temporaries
#: then take a few hundred kilobytes, whatever ``n_trials`` is.
REPLAY_BLOCK = 2048

_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier as 32-bit limbs, least significant first
_PCG_MULT = tuple((0x2360ED051FC65DA44385DF649FCCF645 >> (32 * k)) & _MASK32 for k in range(4))


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Trial ``trial``'s generator: the substream of ``seed`` spawned at that index."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def _generator_uniforms(seed: int, trials: np.ndarray, n_draws: int) -> np.ndarray:
    """``_replay_uniforms``'s answer taken from each trial's generator."""
    return np.array([_trial_rng(seed, int(t)).random(n_draws) for t in trials]).T


# The helpers below take Python ints or uint32/uint64 arrays.  Python ints
# never wrap and uint arrays wrap silently, so no numpy scalar (whose
# overflow warns, and raises under the CLI's errstate) is ever formed.


def _hashmix(value, hash_const: int, mult: int):
    """SeedSequence's hash of one 32-bit word, with the next hash constant."""
    value = value ^ hash_const
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words."""
    result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """The pool of ``SeedSequence(seed, spawn_key=(t,))`` before ``t`` is mixed in.

    Returns the four pool words and the hash constant of the last pass,
    which mixes the spawn word ``t`` into every pool word.
    """
    pool: list[int] = []
    hash_const = _INIT_A
    # the seed's 32-bit words, zero-padded to the pool size because a spawn key follows
    for word in (seed & _MASK32, seed >> 32, 0, 0):
        value, hash_const = _hashmix(word, hash_const, _MULT_A)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    return pool, hash_const


def _lcg_step(state: list[np.ndarray], inc: list[np.ndarray]) -> list[np.ndarray]:
    """``state * multiplier + inc`` mod 2**128 on 32-bit limbs held in uint64."""
    out = []
    carry = 0
    for k in range(4):
        acc = inc[k] + carry
        high = 0
        for i in range(k + 1):
            product = state[i] * _PCG_MULT[k - i]
            acc = acc + (product & _MASK32)
            if k < 3:
                high = high + (product >> 32)
        out.append(acc & _MASK32)
        # the high halves and the overflow carry into the next limb
        carry = high + (acc >> 32)
    return out


def _replay_uniforms(seed: int, trials: np.ndarray, n_draws: int) -> np.ndarray:
    """The first ``n_draws`` uniforms of ``_trial_rng(seed, t)`` for every ``t`` in ``trials``.

    Row k holds draw k of each trial.  NumPy's documented algorithms are
    replayed on arrays: SeedSequence, whose pool depends on the seed alone
    until a last pass mixes in the trial index, then ``generate_state``'s
    eight words, the PCG64 seeding steps and one XSL-RR output per draw,
    the 128-bit LCG done on 32-bit limbs.  A trial index must fit one
    32-bit word, as every index below ``MAX_TRIALS`` does.
    """
    pool_words, hash_const = _seed_pool(seed)
    t = np.asarray(trials, dtype=np.uint32)
    pool = []
    for word in pool_words:
        value, hash_const = _hashmix(t, hash_const, _MULT_A)
        pool.append(_mix(word, value))
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value, hash_const = _hashmix(pool[i % 4], hash_const, _MULT_B)
        words.append(value.astype(np.uint64))
    # little-endian uint64 pairs: seed (high, low) then increment (high, low)
    initial = [words[2], words[3], words[0], words[1]]
    seq = [words[6], words[7], words[4], words[5]]
    inc = [((seq[k] << 1) | ((seq[k - 1] >> 31) if k else 1)) & _MASK32 for k in range(4)]
    # seeding: state = inc, then state += initial, then one step
    state = []
    carry = 0
    for k in range(4):
        acc = inc[k] + initial[k] + carry
        state.append(acc & _MASK32)
        carry = acc >> 32
    state = _lcg_step(state, inc)
    uniforms = np.empty((n_draws, len(t)))
    for row in uniforms:
        state = _lcg_step(state, inc)
        # XSL-RR: xor the 64-bit halves, rotate right by the top six bits
        x = ((state[3] << 32) | state[2]) ^ ((state[1] << 32) | state[0])
        rot = state[3] >> 26
        x = (x >> rot) | (x << ((64 - rot) & 63))
        row[:] = (x >> 11) * (1.0 / 9007199254740992.0)
    return uniforms


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
    trace_path: str | None = None,
) -> SimResult:
    """Average the episode over ``cfg.n_trials`` substreams.

    Trial t plays on its own substream ``_trial_rng(cfg.seed, t)``, so the
    result does not depend on the order trials run in.  The uniforms that
    fix each trial's (quality, shared reading) state are replayed in
    blocks of ``REPLAY_BLOCK`` trials without building a generator, and
    each distinct state is accounted once.  Only a trial that draws fire
    uniforms, and every trial of a profile that reads independent
    signals, plays alone on its generator.  The per-trial arrays
    and the trace are filled by indexing the accounted outcomes.
    """
    kernel = _EpisodeKernel(cfg, profile, policy_gamma, curve)
    trials = cfg.n_trials
    which = kernel.replay_states(cfg.seed, trials).astype(np.intp)
    lone = np.flatnonzero(which < 0)
    # trial t reports row which[t]: row s < 4 holds state s, row 4 + i trial lone[i] played alone
    rows = 4 + len(lone)
    table = {
        "output": np.zeros(rows),
        "wages": np.zeros(rows),
        "replacement_cost": np.zeros(rows),
        "welfare": np.zeros(rows),
        "failure_event": np.zeros(rows, dtype=bool),
        "payoff_sum_by_strategy": np.zeros((rows, _N_STRATEGIES)),
    }
    if trace_path:
        table["quality"] = np.full(rows, BAD, dtype=object)
        table["fired_count"] = np.zeros(rows, dtype=np.int64)

    def fill(row: int, episode: EpisodeOutcome) -> None:
        for name, column in table.items():
            column[row] = getattr(episode, name)

    for i, t in enumerate(lone.tolist()):
        which[t] = 4 + i
        fill(4 + i, kernel.account(*kernel.draw(_trial_rng(cfg.seed, t))))
    for state in range(4):
        if (which == state).any():
            fill(state, kernel.account(state >= 2, kernel.use_by_reading[state & 1], None))

    def per_trial(name: str) -> np.ndarray:
        return table[name][which]

    per_strategy: dict[str, MeanSE] = {}
    counts = np.bincount(kernel.codes, minlength=_N_STRATEGIES)
    for code in np.flatnonzero(counts).tolist():
        payoffs = table["payoff_sum_by_strategy"][which, code]
        per_strategy[AgentStrategy(code).label] = _mean_se(payoffs / counts[code])

    if trace_path:
        quality, output, welfare, fired, failure = (
            table[name].tolist() for name in ("quality", "output", "welfare", "fired_count", "failure_event")
        )
        with open(trace_path, "w", encoding="utf-8") as handle:
            for t, row in enumerate(which.tolist()):
                record = {
                    "trial": t,
                    "quality": quality[row],
                    "output": output[row],
                    "welfare": welfare[row],
                    "fired": fired[row],
                    "failure": failure[row],
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    return SimResult(
        output=_mean_se(per_trial("output")),
        wages=_mean_se(per_trial("wages")),
        replacement_cost=_mean_se(per_trial("replacement_cost")),
        welfare=_mean_se(per_trial("welfare")),
        failure_frequency=float(per_trial("failure_event").mean()),
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


@functools.lru_cache(maxsize=32)
def _common_signal_rows(p: ModelParams, compensation: str) -> np.ndarray:
    """Seniority deviation payoffs under common signals, one row per fired pattern.

    A deviator who fails in a bad state is fired iff no lower-indexed agent
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
            # a deviator who fails (uses a bad technology) loses v_c when first in line
            fired = (use & (not good))[None, :] & fired_if[wrong][:, None]
            rows += prob * (base - p.v_c * fired)
    rows.flags.writeable = False
    return rows


def _common_signal_row_of_agent(codes: np.ndarray) -> np.ndarray:
    """Each access agent's row of ``_common_signal_rows`` given the others' codes.

    With one shared signal the failing set in a bad state is fixed by the
    profile, and a deviator who fails there is fired iff its index is at
    most that of the first current failure: a failing agent is fired only
    if it is that failure itself, a non-failing one only if it comes
    before it.  Holds with no failure too (the bound is then ``m``).
    """
    m = len(codes)
    row = np.zeros(m, dtype=np.intp)
    for bit, wrong in ((2, False), (1, True)):
        # in the bad state the signal reads good exactly when it is wrong
        failing = _ADOPTS[int(wrong)][codes]
        first = failing.argmax() if failing.any() else m
        row += bit * (np.arange(m) <= first)
    return row


def _deviation_payoff_table(
    cfg: SimConfig,
    codes: np.ndarray,
    policy_gamma: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Expected payoff of every (access agent, strategy) pair, others fixed.

    ``codes`` are the access agents' strategy codes.  Returns ``(rows,
    row_of_agent)``: access agent i's payoffs are ``rows[row_of_agent[i]]``.
    There is one row under ``uniform_random`` firing, at most four under
    seniority firing with common signals, and one per agent with
    independent signals.

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
        return _common_signal_rows(p, cfg.compensation), _common_signal_row_of_agent(codes)

    # independent signals: failures are independent across agents given a
    # bad technology, so the chance no lower-indexed agent fails is a
    # prefix product
    use_bad = _adoption_given_quality(p, False)
    prefix = np.ones(m)
    prefix[1:] = np.cumprod(1.0 - use_bad[codes[:-1]])
    fired_prob = ((1.0 - p.pi) * use_bad)[None, :] * prefix[:, None]
    base = _expected_wages(p, cfg.compensation) - np.where(_EFFORT, p.c, 0.0)
    return base + p.v_c * (1.0 - fired_prob), np.arange(m)


def expected_strategy_payoffs(
    cfg: SimConfig,
    profile: StrategyProfile,
    policy_gamma: float,
) -> dict[str, float]:
    """Exact expected payoff of each strategy played in ``profile``.

    Each access agent's payoff is its own-strategy entry of the deviation
    table, averaged over the agents playing that strategy: the exact
    counterpart of ``SimResult.per_strategy_payoff``.  Under uniform
    random firing this is ``agent_payoff`` itself.
    """
    codes = _access_codes(cfg, profile, policy_gamma)
    rows, row_of_agent = _deviation_payoff_table(cfg, codes, policy_gamma)
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
    ``payoff_<label>``.
    """
    p = cfg.params
    codes = _access_codes(cfg, profile, policy_gamma)
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
) -> list[Deviation]:
    """List every profitable unilateral deviation; empty means Nash.

    Payoffs are exact expectations, so a gain above ``PAYOFF_TIE_TOL`` is
    a real deviation rather than sampling noise.
    """
    codes = _access_codes(cfg, profile, policy_gamma)
    rows, row_of_agent = _deviation_payoff_table(cfg, codes, policy_gamma)
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
    max_rounds: int | None = None,
) -> BestResponseTrace:
    """Iterate synchronous best responses until a fixed point.

    Intended for the seniority punishment mode, where the lowest-indexed
    member of any would-be shirking group prefers effort, flipping one
    agent per round, in index order, until everyone with access
    researches.  Agents keep their current strategy when it remains among
    the best responses.

    Each round reads the exact deviation table: with common signals a
    deviator who fails in a bad state is fired iff its index is at most
    that of the first current failure there, so every agent's payoffs are
    one of four rows and a round costs O(n) vectorized work.  The trace
    keeps the initial profile and each round's switched positions with
    their new codes.
    """
    codes = _access_codes(cfg, initial).copy()
    cap = 10 * cfg.n_agents if max_rounds is None else max_rounds
    changed: list[list[int]] = []
    switched_to: list[np.ndarray] = []
    for _ in range(cap):
        rows, row_of_agent = _deviation_payoff_table(cfg, codes, 0.0)
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
    access_codes = _access_codes(cfg, profile, gamma)
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
    seniority -- prospective pay, firing the lowest-indexed failure; the
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
