"""Core primitives of the technology-adoption effort game.

A unit mass of workers may gain access to a new technology that is good
with probability ``pi`` and bad otherwise.  A good technology raises a
worker's production from 1 to ``1 + g``; a bad one, if used, destroys it.
Workers with access can pay an effort cost ``c`` for a binary quality
signal that is wrong with probability ``eps``, then decide whether to use
the technology.  Users are paid a wage premium ``w`` before production is
observed, and workers who are not fired keep a continuation value ``v_c``.

This module holds the parameter container with its admissibility checks,
the strategy table that gives each pure strategy its meaning, the state
table of its outcomes with each strategy's expected production, the one
builder of exact expected payoffs (``_payoff_rows``), which every firing
rule feeds only the chance of being fired on a failure, and the minimal
punishment (firing) rate that makes research effort incentive-compatible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Literal

import numpy as np

from .errors import InadmissibleParamsError, InvalidParamsError

GOOD = "good"
BAD = "bad"

PROSPECTIVE = "prospective"
REALIZED = "realized"
Compensation = Literal["prospective", "realized"]

#: Absolute tolerance used to treat two strategy payoffs as tied, by best
#: responses, the Nash check and best-response unraveling alike.
PAYOFF_TIE_TOL = 1e-12


#: The package's one number format: 12 significant digits.
NUMBER_FORMAT = ".12g"


def _fmt(x: float) -> str:
    return format(x, NUMBER_FORMAT)


def _signal_good_prob(p) -> float:
    """Probability the signal reads 'good': pi(1-eps) + (1-pi)eps; ``p``'s primitives may be arrays."""
    return p.pi * (1.0 - p.eps) + (1.0 - p.pi) * p.eps


def _research_gain(p) -> float:
    """Output research adds over blind adoption per worker with access; ``p``'s primitives may be arrays."""
    return (1.0 - p.pi) * (1.0 - p.eps) - p.pi * p.eps * p.g


@dataclass(frozen=True)
class ModelParams:
    """The six model primitives.

    pi   -- probability the new technology is good, in (0, 1)
    eps  -- signal error probability, in [0, 1/2]
    g    -- proportional productivity gain of a good technology, > 0
    c    -- research effort cost, output units, >= 0
    w    -- wage premium paid to users of the technology, >= 0
    v_c  -- continuation value of keeping the job, output units, > 0
    """

    pi: float
    eps: float
    g: float
    c: float
    w: float
    v_c: float

    def __post_init__(self) -> None:
        for name in _RANGES:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise InvalidParamsError(_range_message(name, value))
        for name, (_, holds) in _RANGES.items():
            if not holds(getattr(self, name)):
                raise InvalidParamsError(_range_message(name, getattr(self, name)))

    signal_good_prob = _signal_good_prob

    @cached_property
    def state_table(self) -> StateTable:
        """The state table of these parameters, built once on first use."""
        return StateTable(self)

    @cached_property
    def production(self) -> np.ndarray:
        """Each strategy's ``expected_production``, the wage of realized pay, built once on first use."""
        return np.array([expected_production(s, self) for s in ALL_STRATEGIES])


#: Each primitive's range: its words, and a test of finite floats or arrays.
_RANGES = {
    "pi": ("lie in (0, 1)", lambda x: (0.0 < x) & (x < 1.0)),
    "eps": ("lie in [0, 1/2]", lambda x: (0.0 <= x) & (x <= 0.5)),
    "g": ("be positive", lambda x: x > 0.0),
    "c": ("be nonnegative", lambda x: x >= 0.0),
    "w": ("be nonnegative", lambda x: x >= 0.0),
    "v_c": ("be positive", lambda x: x > 0.0),
}


def _range_message(name: str, value) -> str:
    """Why ``ModelParams`` rejects ``value`` as primitive ``name``."""
    if isinstance(value, (int, float)) and math.isfinite(value):
        return f"{name} must {_RANGES[name][0]}, got {value}"
    return f"{name} must be a finite number, got {value!r}"


def _quotient(numerator, denominator, at_zero):
    """numerator / denominator, floats or arrays, and ``at_zero`` where the denominator is 0.0."""
    if isinstance(denominator, np.ndarray):
        return np.where(denominator == 0.0, at_zero, numerator / denominator)
    return at_zero if denominator == 0.0 else numerator / denominator


class AgentStrategy(IntEnum):
    """Pure strategies over (effort, adoption) for a worker with access.

    Shirkers observe no signal.  The three effort variants condition
    adoption on the signal in every possible way; always-use and
    never-use waste the signal and exist so the best-response search is
    an honest argmax over the whole choice space.
    """

    SHIRK_NO_USE = 0
    SHIRK_USE = 1
    EFFORT_FOLLOW_SIGNAL = 2
    EFFORT_ALWAYS_USE = 3
    EFFORT_NEVER_USE = 4
    EFFORT_CONTRARIAN = 5

    @property
    def label(self) -> str:
        return self.name.lower()


#: The meaning of each strategy, one row per ``AgentStrategy`` code:
#: (exerts effort, adopts on a good reading, adopts on a bad reading).
#: Shirkers see no reading, so their two adoption entries agree.  The
#: arrays and the state table below, and every closed form, derive from it.
STRATEGY_TABLE: tuple[tuple[bool, bool, bool], ...] = (
    (False, False, False),  # SHIRK_NO_USE
    (False, True, True),  # SHIRK_USE
    (True, True, False),  # EFFORT_FOLLOW_SIGNAL
    (True, True, True),  # EFFORT_ALWAYS_USE
    (True, False, False),  # EFFORT_NEVER_USE
    (True, False, True),  # EFFORT_CONTRARIAN
)

ALL_STRATEGIES: tuple[AgentStrategy, ...] = tuple(AgentStrategy)

# the strategy table as arrays: effort per code, adoption per (reading: 0 bad, 1 good; code)
_EFFORT, _ADOPTS_ON_GOOD, _ADOPTS_ON_BAD = np.array(STRATEGY_TABLE).T
_ADOPTS = np.array([_ADOPTS_ON_BAD, _ADOPTS_ON_GOOD])

#: The four (quality, reading) states in one fixed order, as (good technology,
#: reading): a good technology read right, then wrong, then a bad one likewise.
STATES: tuple[tuple[bool, int], ...] = ((True, 1), (True, 0), (False, 0), (False, 1))


class StateTable:
    """Each strategy's outcome in each (quality, reading) state, for one parameter set.

    Row k of ``adopts``, ``produced`` and ``fails`` is state ``STATES[k]``, of
    probability ``prob[k]``; column s, strategy code s, says whether it adopts
    there, what it produces and whether it fails (adopts a bad technology).
    ``use``, ``use_given_good`` and ``use_given_bad`` are each strategy's
    adoption chance: x or 1 - x for a chance x of a good reading.
    """

    adopts = _ADOPTS[[reading for _, reading in STATES]]
    fails = adopts & ~np.array([[good] for good, _ in STATES])

    def __init__(self, p: ModelParams):
        right_or_wrong = (1.0 - p.eps, p.eps)
        self.prob = tuple((p.pi if good else 1.0 - p.pi) * right_or_wrong[good != reading] for good, reading in STATES)
        self.produced = np.where(self.adopts, np.where(self.fails, 0.0, 1.0 + p.g), 1.0)
        chance = np.array([[p.signal_good_prob()], [1.0 - p.eps], [p.eps]])
        self.use, self.use_given_good, self.use_given_bad = np.where(
            _ADOPTS_ON_GOOD, np.where(_ADOPTS_ON_BAD, 1.0, chance), np.where(_ADOPTS_ON_BAD, 1.0 - chance, 0.0)
        )


@dataclass(frozen=True)
class CheckResult:
    """One named admissibility check with its slack (positive = satisfied)."""

    name: str
    passed: bool
    slack: float


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of all admissibility checks on a parameter set."""

    checks: tuple[CheckResult, ...]

    @property
    def admissible(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(check for check in self.checks if not check.passed)


def validate_params(p: ModelParams) -> ValidationReport:
    """Evaluate the three admissibility conditions with their slacks.

    growth_window_low / growth_window_high -- the signal is worth
        following only if eps/(1-eps) < g < (1-eps)/eps (both strict).
    research_efficiency -- effort is socially worthwhile:
        c < (1-pi)(1-eps) - pi*eps*g (strict), its slack
        ``_research_gain(p) - c``.
    effort_inducible -- certain punishment can induce effort:
        v_c >= [c + (1 - pi(1-eps) - (1-pi)eps) w] / [(1-pi)(1-eps)],
        which also caps the minimal punishment rate at 1.

    Hard range violations raise from the ``ModelParams`` constructor, so
    every report here is over in-range parameters.  ``p`` may also be any
    object whose primitives are floats or arrays of in-range values, run
    under ``np.errstate(all="ignore")``: each check then holds arrays.
    """
    low = p.eps / (1.0 - p.eps)
    high = _quotient(1.0 - p.eps, p.eps, math.inf)
    efficiency_slack = _research_gain(p) - p.c
    v_c_bound = (p.c + (1.0 - _signal_good_prob(p)) * p.w) / ((1.0 - p.pi) * (1.0 - p.eps))
    checks = (
        CheckResult("growth_window_low", p.g > low, p.g - low),
        CheckResult("growth_window_high", p.g < high, high - p.g),
        CheckResult("research_efficiency", efficiency_slack > 0.0, efficiency_slack),
        CheckResult("effort_inducible", p.v_c >= v_c_bound, p.v_c - v_c_bound),
    )
    return ValidationReport(checks)


def require_admissible(p: ModelParams) -> None:
    """Raise ``InadmissibleParamsError`` naming each failing check with its slack."""
    report = validate_params(p)
    if not report.admissible:
        failures = "; ".join(f"{check.name} (slack {_fmt(check.slack)})" for check in report.failures())
        raise InadmissibleParamsError(f"inadmissible parameters: {failures}")


def expected_production(strategy: AgentStrategy, p: ModelParams) -> float:
    """Expected output of one worker with access, excluding the effort cost.

    Sums probability times output over the states of the state table, the
    unused states first and each group in state order, so the sum
    reproduces the hand-written closed forms bit for bit.
    """
    table = p.state_table
    used = table.adopts[:, strategy].tolist()
    produced = table.produced[:, strategy].tolist()
    if used[0] == used[1]:
        # adoption ignores the reading, so only the quality matters
        terms = zip((p.pi, 1.0 - p.pi), produced[1:3], used[1:3])
    else:
        terms = zip(table.prob, produced, used)
    total = 0.0
    for prob, output, _ in sorted(terms, key=lambda term: term[2]):
        total += prob * output
    return total


def gamma_bar(p: ModelParams) -> float:
    """Minimal firing rate for failures that makes effort incentive-compatible.

    Equals [c + (1 - pi(1-eps) - (1-pi)eps) w] / [(1-pi)(1-eps) v_c]; at
    this rate the expected payoff of researching and following the signal
    exactly ties the payoff of shirking and adopting blindly.  Lies in
    [0, 1] for admissible parameters.
    """
    require_admissible(p)
    return _gamma_bar(p)


def _gamma_bar(p) -> float:
    """``gamma_bar`` of primitives, floats or arrays, that the caller has already found admissible.

    On admissible params the denominator underflows to 0.0 (v_c = 5e-324)
    only under a zero numerator, so that signed zero is the quotient.
    """
    numerator = p.c + (1.0 - _signal_good_prob(p)) * p.w
    return _quotient(numerator, (1.0 - p.pi) * (1.0 - p.eps) * p.v_c, numerator)


def _payoff_rows(p: ModelParams, comp: Compensation, fired) -> np.ndarray:
    """Every exact expected payoff: -c * effort + wage + (1 - P(fail) * fired) * v_c, in this order.

    One row per row of ``fired`` and one column per strategy, where ``fired[r, s]`` (or a row's one value) is the
    chance strategy s, failing in row r, is fired.  The wage is ``P(use) * w``, or the expected production under
    realized pay, and ``P(fail)`` is ``(1 - pi) * P(use | bad)``.
    """
    table = p.state_table
    wage = table.use * p.w if comp == PROSPECTIVE else p.production
    return -np.where(_EFFORT, p.c, 0.0) + wage + (1.0 - (1.0 - p.pi) * table.use_given_bad * fired) * p.v_c


def agent_payoff(
    strategy: AgentStrategy,
    gamma: float,
    p: ModelParams,
    comp: Compensation = PROSPECTIVE,
) -> float:
    """Expected payoff of a worker with access under firing rate ``gamma``: ``_payoff_rows`` at ``fired = gamma``.

    Prospective compensation pays the wage premium ``w`` on adoption, before output is realized; realized
    compensation pays the worker's own realized output instead, and ``w`` drops out.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if comp not in (PROSPECTIVE, REALIZED):
        raise ValueError(f"compensation must be 'prospective' or 'realized', got {comp!r}")
    return float(_payoff_rows(p, comp, [[gamma]])[0, strategy])
