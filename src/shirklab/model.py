"""Core primitives of the technology-adoption effort game.

A unit mass of workers may gain access to a new technology that is good
with probability ``pi`` and bad otherwise.  A good technology raises a
worker's production from 1 to ``1 + g``; a bad one, if used, destroys it.
Workers with access can pay an effort cost ``c`` for a binary quality
signal that is wrong with probability ``eps``, then decide whether to use
the technology.  Users are paid a wage premium ``w`` before production is
observed, and workers who are not fired keep a continuation value ``v_c``.

This module holds the parameter container with its admissibility checks,
the strategy table that gives each pure strategy its meaning, the
per-worker production function, expected production and expected
payoff for each pure strategy, the minimal punishment (firing) rate that
makes research effort incentive-compatible, and the brute-force best
response over the full strategy set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Literal

from .errors import ContractViolationError, InadmissibleParamsError, InvalidParamsError

GOOD = "good"
BAD = "bad"
Quality = Literal["good", "bad"]

PROSPECTIVE = "prospective"
REALIZED = "realized"
Compensation = Literal["prospective", "realized"]

#: Absolute tolerance used to treat two strategy payoffs as tied.
PAYOFF_TIE_TOL = 1e-12


def _fmt(x: float) -> str:
    """The package's one number format: 12 significant digits."""
    return f"{x:.12g}"


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
        for name in ("pi", "eps", "g", "c", "w", "v_c"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise InvalidParamsError(f"{name} must be a finite number, got {value!r}")
        if not 0.0 < self.pi < 1.0:
            raise InvalidParamsError(f"pi must lie in (0, 1), got {self.pi}")
        if not 0.0 <= self.eps <= 0.5:
            raise InvalidParamsError(f"eps must lie in [0, 1/2], got {self.eps}")
        if self.g <= 0.0:
            raise InvalidParamsError(f"g must be positive, got {self.g}")
        if self.c < 0.0:
            raise InvalidParamsError(f"c must be nonnegative, got {self.c}")
        if self.w < 0.0:
            raise InvalidParamsError(f"w must be nonnegative, got {self.w}")
        if self.v_c <= 0.0:
            raise InvalidParamsError(f"v_c must be positive, got {self.v_c}")

    def signal_good_prob(self) -> float:
        """Probability the signal reads 'good': pi(1-eps) + (1-pi)eps."""
        return self.pi * (1.0 - self.eps) + (1.0 - self.pi) * self.eps


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
    def exerts_effort(self) -> bool:
        return STRATEGY_TABLE[self][0]

    @property
    def label(self) -> str:
        return self.name.lower()


#: The meaning of each strategy, one row per ``AgentStrategy`` code:
#: (exerts effort, adopts on a good reading, adopts on a bad reading).
#: Shirkers see no reading, so their two adoption entries agree.  Every
#: closed form below and the simulation's arrays are derived from it.
STRATEGY_TABLE: tuple[tuple[bool, bool, bool], ...] = (
    (False, False, False),  # SHIRK_NO_USE
    (False, True, True),  # SHIRK_USE
    (True, True, False),  # EFFORT_FOLLOW_SIGNAL
    (True, True, True),  # EFFORT_ALWAYS_USE
    (True, False, False),  # EFFORT_NEVER_USE
    (True, False, True),  # EFFORT_CONTRARIAN
)

ALL_STRATEGIES: tuple[AgentStrategy, ...] = tuple(AgentStrategy)


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
        c < (1-pi)(1-eps) - pi*eps*g (strict).
    effort_inducible -- certain punishment can induce effort:
        v_c >= [c + (1 - pi(1-eps) - (1-pi)eps) w] / [(1-pi)(1-eps)],
        which also caps the minimal punishment rate at 1.

    Hard range violations raise from the ``ModelParams`` constructor, so
    every report here is over in-range parameters.
    """
    low = p.eps / (1.0 - p.eps)
    high = math.inf if p.eps == 0.0 else (1.0 - p.eps) / p.eps
    efficiency_slack = (1.0 - p.pi) * (1.0 - p.eps) - p.pi * p.eps * p.g - p.c
    v_c_bound = (p.c + (1.0 - p.signal_good_prob()) * p.w) / ((1.0 - p.pi) * (1.0 - p.eps))
    checks = (
        CheckResult("growth_window_low", p.g > low, p.g - low),
        CheckResult("growth_window_high", p.g < high, high - p.g),
        CheckResult("research_efficiency", efficiency_slack > 0.0, efficiency_slack),
        CheckResult("effort_inducible", p.v_c >= v_c_bound, p.v_c - v_c_bound),
    )
    return ValidationReport(checks)


def is_admissible(p: ModelParams) -> bool:
    return validate_params(p).admissible


def require_admissible(p: ModelParams) -> None:
    report = validate_params(p)
    if not report.admissible:
        names = ", ".join(check.name for check in report.failures())
        raise InadmissibleParamsError(f"parameters violate admissibility: {names}")


def production(available: bool, used: bool, quality: Quality, p: ModelParams) -> float:
    """Per-worker production: 1 if unused, 0 if used and bad, 1+g if used and good."""
    if used and not available:
        raise ContractViolationError("technology used without access")
    if not used:
        return 1.0
    if quality == GOOD:
        return 1.0 + p.g
    if quality == BAD:
        return 0.0
    raise InvalidParamsError(f"quality must be 'good' or 'bad', got {quality!r}")


def _adoption_probability(strategy: AgentStrategy, good_reading: float) -> float:
    """Probability the strategy adopts when the reading is good w.p. ``good_reading``."""
    _, on_good, on_bad = STRATEGY_TABLE[strategy]
    if on_good and on_bad:
        return 1.0
    if on_good:
        return good_reading
    if on_bad:
        return 1.0 - good_reading
    return 0.0


def use_probability(strategy: AgentStrategy, p: ModelParams) -> float:
    """Unconditional probability the strategy adopts the technology."""
    return _adoption_probability(strategy, p.signal_good_prob())


def failure_probability(strategy: AgentStrategy, p: ModelParams) -> float:
    """Probability of zero production: the technology is used and bad.

    A bad technology reads good exactly when the signal is wrong.
    """
    return (1.0 - p.pi) * _adoption_probability(strategy, p.eps)


def expected_production(strategy: AgentStrategy, p: ModelParams) -> float:
    """Expected output of one worker with access, excluding the effort cost.

    Sums probability times output over the (quality, reading) states the
    strategy tells apart, the unused states first and each group in state
    order, so the sum reproduces the hand-written closed forms bit for bit.
    """
    _, on_good, on_bad = STRATEGY_TABLE[strategy]
    if on_good == on_bad:
        # adoption ignores the reading, so only the quality matters
        states = ((p.pi, True, on_good), (1.0 - p.pi, False, on_good))
    else:
        states = (
            (p.pi * (1.0 - p.eps), True, on_good),
            (p.pi * p.eps, True, on_bad),
            ((1.0 - p.pi) * (1.0 - p.eps), False, on_bad),
            ((1.0 - p.pi) * p.eps, False, on_good),
        )
    total = 0.0
    for prob, good, used in sorted(states, key=lambda state: state[2]):
        total += prob * (((1.0 + p.g) if good else 0.0) if used else 1.0)
    return total


def gamma_bar(p: ModelParams) -> float:
    """Minimal firing rate for failures that makes effort incentive-compatible.

    Equals [c + (1 - pi(1-eps) - (1-pi)eps) w] / [(1-pi)(1-eps) v_c]; at
    this rate the expected payoff of researching and following the signal
    exactly ties the payoff of shirking and adopting blindly.  Lies in
    [0, 1] for admissible parameters.
    """
    require_admissible(p)
    numerator = p.c + (1.0 - p.signal_good_prob()) * p.w
    return numerator / ((1.0 - p.pi) * (1.0 - p.eps) * p.v_c)


def agent_payoff(
    strategy: AgentStrategy,
    gamma: float,
    p: ModelParams,
    comp: Compensation = PROSPECTIVE,
) -> float:
    """Expected payoff of a worker with access under firing rate ``gamma``.

    Prospective compensation pays the wage premium ``w`` on adoption,
    before output is realized:

        -c * effort + P(use) * w + (1 - P(fail) * gamma) * v_c

    Realized compensation instead pays the worker's own realized output,
    so the wage term becomes the strategy's expected production and the
    premium ``w`` drops out.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if comp not in (PROSPECTIVE, REALIZED):
        raise ValueError(f"compensation must be 'prospective' or 'realized', got {comp!r}")
    effort_cost = p.c if strategy.exerts_effort else 0.0
    survival = (1.0 - failure_probability(strategy, p) * gamma) * p.v_c
    if comp == PROSPECTIVE:
        wage = use_probability(strategy, p) * p.w
    else:
        wage = expected_production(strategy, p)
    return -effort_cost + wage + survival


def best_response(
    gamma: float,
    p: ModelParams,
    comp: Compensation = PROSPECTIVE,
    tol: float = PAYOFF_TIE_TOL,
) -> set[AgentStrategy]:
    """All payoff-maximizing strategies, ties within ``tol`` included.

    The tie at the minimal punishment rate is meaningful (it defines that
    rate), so ties are returned as a set rather than broken arbitrarily.
    """
    payoffs = {s: agent_payoff(s, gamma, p, comp) for s in ALL_STRATEGIES}
    best = max(payoffs.values())
    return {s for s, value in payoffs.items() if value >= best - tol}
