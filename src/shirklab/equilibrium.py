"""Replacement-cost curves and the principal's credibility threshold.

The principal can replace fired workers, but replacements differ in cost.
Given a per-replacement cost schedule q(z) over a unit mass of candidates,
the least total cost of replacing a measure x of workers is the integral
of the ascending rearrangement of q from 0 to x.  That least-cost function
r(x) starts at zero and is convex: cheap replacements are used first, so
each additional replacement costs weakly more.

Punishing is worthwhile only while the output gained by deterring
shirking exceeds the expected replacement bill.  With minimal firing rate
gamma_bar, the condition is linear-versus-convex in the technology reach
h, so the credible region is an interval [0, h_tilde].  This module
solves for h_tilde by bisection, evaluates the principal's value in both
regimes, and provides the closed-form output and welfare comparisons.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import InvalidCurveError
from .model import (
    AgentStrategy,
    ModelParams,
    _fmt,
    agent_payoff,
    gamma_bar,
    require_admissible,
)

#: Default number of evaluation nodes for closed-form schedules.
DEFAULT_RESOLUTION = 100_000
#: Most evaluation nodes a closed-form schedule may have, checked before the
#: grid is built.
MAX_RESOLUTION = 10**7
#: Bracket width at which ``solve_threshold`` stops bisecting.
TOL = 1e-10
#: Reaches ``verify_equilibrium`` samples on each side of the threshold.
VERIFY_SAMPLES = 9
#: Largest payoff gap ``verify_equilibrium`` accepts as indifference at gamma_bar.
VERIFY_PAYOFF_TOL = 1e-9

EFFORT = "effort"
SHIRK = "shirk"


@dataclass(frozen=True, eq=False)
class ReplacementCostCurve:
    """Least-cost replacement function induced by a cost schedule.

    values -- per-replacement costs sorted ascending.  For a closed-form
        schedule these are its values on a uniform grid of nodes and the
        induced r(x) integrates their piecewise-linear interpolant; for a
        finite sample each cost carries measure 1/len(values) and r(x) is
        the exact prefix sum.
    kind -- "nodes" (closed-form schedule) or "steps" (finite sample).
    upto -- largest measure ``cost`` answers for; the integral is built
        only that far.

    Construction runs ``validate``, so a broken schedule never becomes a
    curve; a copy from ``scaled`` skips it, as its parent passed.
    """

    values: np.ndarray
    kind: str
    upto: float = 1.0
    # set only by ``scaled``: the costs are a valid curve's times a
    # nonnegative factor, so they pass the check
    _scaled_from_valid: InitVar[bool] = False
    # r(j / n) at segment boundaries j = 0..m, read by ``cost``; m stops
    # one segment past ``upto``
    _cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, _scaled_from_valid: bool) -> None:
        if self.kind not in ("nodes", "steps"):
            raise InvalidCurveError(f"unknown curve kind {self.kind!r}")
        if len(self.values) < (2 if self.kind == "nodes" else 1):
            raise InvalidCurveError("schedule needs at least one cost sample")
        if not self.upto >= 0.0:
            raise InvalidCurveError(f"upto must be nonnegative, got {self.upto}")
        if not _scaled_from_valid:
            self.validate()
        n = self._segments
        # np.cumsum adds in sequence, so this prefix equals the full sum's
        m = n if self.upto >= 1.0 else min(int(self.upto * n) + 1, n)
        if self.kind == "steps":
            cumulative = np.concatenate(([0.0], np.cumsum(self.values[:m]) / n))
        else:
            segment = (self.values[:m] + self.values[1 : m + 1]) / (2.0 * n)
            cumulative = np.concatenate(([0.0], np.cumsum(segment)))
        object.__setattr__(self, "_cumulative", cumulative)

    @property
    def _segments(self) -> int:
        return len(self.values) if self.kind == "steps" else len(self.values) - 1

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_function(
        cls,
        q: Callable[[np.ndarray], np.ndarray],
        resolution: int = DEFAULT_RESOLUTION,
    ) -> "ReplacementCostCurve":
        """Build from a closed-form schedule q(z) evaluated on [0, 1].

        ``resolution`` must lie in [2, ``MAX_RESOLUTION``].
        """
        if resolution < 2:
            raise InvalidCurveError("resolution must be at least 2")
        if resolution > MAX_RESOLUTION:
            raise InvalidCurveError(f"resolution must be at most {MAX_RESOLUTION}")
        grid = np.linspace(0.0, 1.0, resolution + 1)
        raw = np.asarray(q(grid), dtype=float)
        if raw.shape != grid.shape:
            raw = np.broadcast_to(raw, grid.shape).astype(float)
        _check_nonnegative(raw, grid)
        return cls(values=np.sort(raw), kind="nodes")

    @classmethod
    def from_samples(cls, costs: Iterable[float]) -> "ReplacementCostCurve":
        """Build from a finite sample of per-replacement costs."""
        raw = np.asarray(list(costs), dtype=float)
        _check_nonnegative(raw, None)
        return cls(values=np.sort(raw), kind="steps")

    @classmethod
    def linear(cls, scale: float = 1.0, resolution: int = DEFAULT_RESOLUTION) -> "ReplacementCostCurve":
        return cls.from_function(lambda z: scale * z, resolution)

    @classmethod
    def power(
        cls, scale: float = 1.0, exponent: float = 2.0, resolution: int = DEFAULT_RESOLUTION
    ) -> "ReplacementCostCurve":
        if exponent < 0:
            raise InvalidCurveError("exponent must be nonnegative")
        return cls.from_function(lambda z: scale * z**exponent, resolution)

    @classmethod
    def constant(cls, level: float = 1.0, resolution: int = DEFAULT_RESOLUTION) -> "ReplacementCostCurve":
        return cls.from_function(lambda z: np.full_like(z, float(level)), resolution)

    @classmethod
    def from_file(cls, path: str) -> "ReplacementCostCurve":
        """Load a two-column text file of (z, q(z)) samples.

        Each row is one replacement candidate of equal measure; the first
        column carries the original labels and must lie in [0, 1].
        """
        try:
            with warnings.catch_warnings():
                # an empty file is reported below, not as a loadtxt warning
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(path, ndmin=2)
        except ValueError as exc:
            raise InvalidCurveError(f"{path}: not a numeric table: {exc}") from exc
        if data.size == 0:
            raise InvalidCurveError(f"{path}: no cost samples")
        if data.shape[1] != 2:
            raise InvalidCurveError(f"{path}: expected two columns (z, cost), got {data.shape[1]}")
        z, costs = data[:, 0], data[:, 1]
        if not np.all((z >= 0.0) & (z <= 1.0)):
            raise InvalidCurveError(f"{path}: z values must lie in [0, 1]")
        return cls.from_samples(costs)

    # -- operations -----------------------------------------------------

    def cost(self, x: float) -> float:
        """Least total cost r(x) of replacing a measure x of workers."""
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"replacement measure must lie in [0, 1], got {x}")
        if x > self.upto:
            raise ValueError(f"this curve is built for measures up to {self.upto}, got {x}")
        cumulative = self._cumulative
        n = self._segments
        position = x * n
        j = min(int(position), n - 1)
        t = x - j / n
        if self.kind == "steps":
            # integrate the ascending step function: slope is the j-th cost
            return float(cumulative[j] + self.values[j] * t)
        # integrate the piecewise-linear interpolant of the sorted nodes
        y0 = self.values[j]
        y1 = self.values[j + 1]
        return float(cumulative[j] + y0 * t + (y1 - y0) * t * t * n / 2.0)

    @property
    def marginal_cost_at_zero(self) -> float:
        """One-sided derivative r'(0): the cheapest available replacement."""
        return float(self.values[0])

    def scaled(self, factor: float, upto: float = 1.0) -> "ReplacementCostCurve":
        """Uniformly scale every per-replacement cost; the copy's ``cost`` answers up to ``upto``.

        Scaling a valid curve by a nonnegative factor keeps it valid, since
        rounding is monotone and the overflow check below keeps it finite;
        the copy skips the structural check.
        """
        if not math.isfinite(factor):
            raise InvalidCurveError("scale factor must be finite")
        if factor < 0.0:
            raise InvalidCurveError("scale factor must be nonnegative")
        # the largest sum the constructor forms: two neighbouring nodes, or
        # every cost of a finite sample; checked in Python floats, which
        # overflow to inf where a numpy product would raise
        terms = 2 if self.kind == "nodes" else len(self.values)
        if not math.isfinite(terms * factor * float(self.values[-1])):
            raise InvalidCurveError("scale factor too large: the scaled costs overflow")
        return ReplacementCostCurve(self.values * factor, self.kind, upto, _scaled_from_valid=True)

    def validate(self) -> None:
        """Raise ``InvalidCurveError`` unless the stored costs are finite, nonnegative and ascending.

        The induced r is convex exactly when the costs are sorted, and every
        builder sorts, so a violation means the costs were passed in by hand.
        """
        values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise InvalidCurveError("cost schedule contains non-finite values")
        if np.any(values < 0.0):
            raise InvalidCurveError("cost schedule contains negative costs")
        if np.any(values[1:] < values[:-1]):
            raise InvalidCurveError("cost schedule is not sorted ascending; induced r(x) would not be convex")


def _check_nonnegative(raw: np.ndarray, grid: np.ndarray | None) -> None:
    if not np.all(np.isfinite(raw)):
        raise InvalidCurveError("cost schedule contains non-finite values")
    bad = np.flatnonzero(raw < 0.0)
    if bad.size:
        where = f" at z={grid[bad[0]]:g}" if grid is not None else f" at sample {bad[0]}"
        raise InvalidCurveError(f"cost schedule is negative{where}")


def credibility_slope(p: ModelParams) -> float:
    """Slope of the punishment-worthwhile condition in the technology reach.

    Per unit of reach, deterring shirking is worth
    (1-pi)(1-eps) - pi*eps*g in expected output, while the replacement
    bill is paid only in the failure state, which has probability
    (1-pi)*eps.  The condition "slope * h >= r(gamma_bar * h)" compares
    the two.  With eps = 0 punishment is never actually carried out in
    an effort equilibrium, so the slope is infinite.
    """
    gain = (1.0 - p.pi) * (1.0 - p.eps) - p.pi * p.eps * p.g
    if p.eps == 0.0:
        return math.inf
    return gain / ((1.0 - p.pi) * p.eps)


def punish_feasible(h: float, p: ModelParams, curve: ReplacementCostCurve) -> bool:
    """Whether committing to punish failures at rate gamma_bar and reach ``h`` pays for itself."""
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"h must lie in [0, 1], got {h}")
    return _credible(h, credibility_slope(p), gamma_bar(p), curve)


def _credible(h: float, slope: float, rate: float, curve: ReplacementCostCurve) -> bool:
    """The credibility condition: the deterred shirking pays the replacement bill.

    Both sides are zero at h = 0, where the infinite slope of eps = 0 would
    form inf * 0; for h > 0 that slope makes every finite bill credible.
    """
    return h == 0.0 or slope * h >= curve.cost(rate * h)


@dataclass(frozen=True)
class EquilibriumSolution:
    """Solved effort-equilibrium objects.

    The policy rule is the threshold pair (gamma_bar, h_tilde): punish at
    rate gamma_bar on the closed interval [0, h_tilde], whose end the solve
    confirmed credible, and do not punish above it.
    """

    gamma_bar: float
    h_tilde: float
    feasible_set_nonempty: bool
    marginal_cost_at_zero: float
    #: bisections the solve took, and its final (feasible, infeasible)
    #: bracket; (1, 1) when no bisection was needed
    bisections: int = 0
    bracket: tuple[float, float] = (1.0, 1.0)


def solve_threshold(p: ModelParams, curve: ReplacementCostCurve) -> EquilibriumSolution:
    """Find the largest technology reach at which punishment stays credible.

    The feasible set is an interval [0, h_tilde] (linear benefit versus
    convex cost, both zero at the origin), so bisection on the
    feasibility predicate converges to its supremum.  The returned
    h_tilde is the last point confirmed feasible, and 1 when the
    condition holds everywhere.  Every midpoint is dyadic, so the
    bisection takes exactly 34 steps to a bracket of width 2^-34, the
    first below ``TOL``.
    """
    require_admissible(p)
    gb = gamma_bar(p)
    marginal = curve.marginal_cost_at_zero
    slope = credibility_slope(p)
    threshold_ratio = math.inf if gb == 0.0 else slope / gb
    nonempty = threshold_ratio > marginal

    bisections = 0
    if _credible(1.0, slope, gb, curve):
        feasible = infeasible = 1.0
    else:
        feasible, infeasible = 0.0, 1.0
        while infeasible - feasible > TOL:
            mid = 0.5 * (feasible + infeasible)
            if _credible(mid, slope, gb, curve):
                feasible = mid
            else:
                infeasible = mid
            bisections += 1

    return EquilibriumSolution(
        gamma_bar=gb,
        h_tilde=feasible,
        feasible_set_nonempty=nonempty,
        marginal_cost_at_zero=marginal,
        bisections=bisections,
        bracket=(feasible, infeasible),
    )


def policy(h: float, sol: EquilibriumSolution) -> float:
    """The threshold firing policy: gamma_bar on [0, h_tilde], zero above."""
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"h must lie in [0, 1], got {h}")
    return sol.gamma_bar if h <= sol.h_tilde else 0.0


def principal_value(
    h: float,
    punish: bool,
    p: ModelParams,
    curve: ReplacementCostCurve,
) -> float:
    """Expected value to the principal of each policy regime at reach ``h``.

    Under punishment every worker with access researches and follows the
    signal; the principal collects that output, pays the wage bill, and
    in the failure state replaces a fraction gamma_bar of the failed
    workers.  Without punishment all workers with access adopt blindly.

    The wage premium is charged on the whole measure ``h`` in both
    regimes, mirroring the closed-form comparison in which the wage bill
    cancels.  The output is ``expected_output`` of the regime.
    """
    if not punish:
        return expected_output(h, SHIRK, p) - p.w * h
    output = expected_output(h, EFFORT, p)
    return output - (1.0 - p.pi) * p.eps * curve.cost(gamma_bar(p) * h) - p.w * h


def expected_output(h: float, regime: str, p: ModelParams) -> float:
    """Expected aggregate output per unit mass of workers at reach ``h``.

    effort -- everyone with access researches and follows the signal
        (the first-best adoption pattern).
    shirk  -- everyone with access adopts without researching.
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"h must lie in [0, 1], got {h}")
    if regime == EFFORT:
        return (1.0 - h) + h * ((1.0 + p.pi * p.g) * (1.0 - p.eps) + p.pi * p.eps)
    if regime == SHIRK:
        return (1.0 - h) + h * p.pi * (1.0 + p.g)
    raise ValueError(f"regime must be 'effort' or 'shirk', got {regime!r}")


def output_drop(h: float, p: ModelParams) -> float:
    """Output lost when reach ``h`` of workers shirk instead of researching."""
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"h must lie in [0, 1], got {h}")
    return h * ((1.0 - p.eps) * (1.0 - p.pi) - p.pi * p.g * p.eps)


def welfare_loss(h: float, p: ModelParams) -> float:
    """Welfare lost to shirking at reach ``h``: the output drop net of saved effort.

    Welfare is output minus effort costs (wages and continuation values
    are transfers), and shirkers do save the effort cost, so the loss is
    h * [(1-eps)(1-pi) - pi*g*eps - c].  Positive whenever research is
    efficient.
    """
    return output_drop(h, p) - h * p.c


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    witness: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[VerificationCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> tuple[VerificationCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)


def verify_equilibrium(
    sol: EquilibriumSolution,
    p: ModelParams,
    curve: ReplacementCostCurve,
) -> VerificationReport:
    """Independently re-check a solved equilibrium.

    (a) at the solution's firing rate, researching and blind adoption
        give the same expected payoff (the rate's defining property);
    (b) punishing is credible at sampled reaches below the threshold and
        not credible above the solve's infeasible end, which lies within
        ``TOL`` of the threshold;
    (c) the policy has the threshold shape.

    Failures are reported with witnesses, never raised.
    """
    checks: list[VerificationCheck] = []

    eff = agent_payoff(AgentStrategy.EFFORT_FOLLOW_SIGNAL, min(sol.gamma_bar, 1.0), p)
    shirk = agent_payoff(AgentStrategy.SHIRK_USE, min(sol.gamma_bar, 1.0), p)
    gap = eff - shirk
    checks.append(
        VerificationCheck(
            "indifference_at_gamma_bar",
            abs(gap) <= VERIFY_PAYOFF_TOL,
            f"payoff gap {gap:.6g} at gamma={_fmt(sol.gamma_bar)}",
        )
    )

    fractions = [(i + 1) / (VERIFY_SAMPLES + 1) for i in range(VERIFY_SAMPLES)]
    below = [sol.h_tilde * u for u in fractions]
    # above samples start at the solve's infeasible end: between it and
    # h_tilde the bracket is unresolved; none remain when it is (1, 1)
    infeasible_end = sol.bracket[1]
    above = [h for h in (infeasible_end + (1.0 - infeasible_end) * u for u in fractions) if h > sol.h_tilde]
    threshold = _fmt(sol.h_tilde)
    infeasible = [
        f"infeasible at h={_fmt(h)} < h_tilde={threshold}" for h in below if not punish_feasible(h, p, curve)
    ]
    checks.append(
        _check("feasible_below_threshold", infeasible, f"{VERIFY_SAMPLES} samples in (0, h_tilde) feasible")
    )
    feasible = [f"feasible at h={_fmt(h)} > h_tilde={threshold}" for h in above if punish_feasible(h, p, curve)]
    if infeasible_end - sol.h_tilde > TOL:
        feasible.append(f"unresolved from h_tilde={threshold} to h={_fmt(infeasible_end)}")
    checks.append(_check("infeasible_above_threshold", feasible, "no feasible point above h_tilde"))
    shape = [f"policy({_fmt(h)}) != gamma_bar below threshold" for h in below if policy(h, sol) != sol.gamma_bar]
    shape += [f"policy({_fmt(h)}) != 0 above threshold" for h in above if policy(h, sol) != 0.0]
    if policy(sol.h_tilde, sol) != sol.gamma_bar:
        shape.append("policy(h_tilde) != gamma_bar at the threshold")
    checks.append(_check("threshold_policy_shape", shape, "threshold rule holds on sampled reaches"))

    return VerificationReport(tuple(checks))


def _check(name: str, failures: list[str], passed: str) -> VerificationCheck:
    """A check that passes when no sample failed; its witness is the first failure."""
    return VerificationCheck(name, not failures, failures[0] if failures else passed)
