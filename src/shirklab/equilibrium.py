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

from .errors import ConvergenceError, InvalidCurveError
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
#: Default bisection tolerance of ``solve_threshold``.
DEFAULT_TOL = 1e-10
#: Most bisections ``solve_threshold`` takes before it gives up.
MAX_BISECTIONS = 200
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
        if np.any(z < 0.0) or np.any(z > 1.0):
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

    The policy rule is the threshold pair (gamma_bar, h_tilde) plus the
    boundary decision: punish at rate gamma_bar below the threshold, do
    not punish above it, and at exactly h_tilde punish only if that is
    still credible there (``boundary_punish``).
    """

    gamma_bar: float
    h_tilde: float
    feasible_set_nonempty: bool
    marginal_cost_at_zero: float
    boundary_punish: bool
    degenerate_credibility: bool
    tol: float
    #: bisections the solve took, and its final (feasible, infeasible)
    #: bracket; (1, 1) when no bisection was needed
    bisections: int = 0
    bracket: tuple[float, float] = (1.0, 1.0)


def solve_threshold(
    p: ModelParams,
    curve: ReplacementCostCurve,
    tol: float = DEFAULT_TOL,
) -> EquilibriumSolution:
    """Find the largest technology reach at which punishment stays credible.

    The feasible set is an interval [0, h_tilde] (linear benefit versus
    convex cost, both zero at the origin), so bisection on the
    feasibility predicate converges to its supremum.  The returned
    h_tilde is the last point confirmed feasible, within ``tol`` of the
    true boundary and clamped to 1 when the condition holds everywhere.

    ``tol`` must be finite and positive.  Raises ``ConvergenceError`` when
    ``MAX_BISECTIONS`` bisections leave the bracket wider than ``tol``, as
    they do for a ``tol`` below the float spacing at the boundary.
    """
    require_admissible(p)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
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
        while infeasible - feasible > tol and bisections < MAX_BISECTIONS:
            mid = 0.5 * (feasible + infeasible)
            if _credible(mid, slope, gb, curve):
                feasible = mid
            else:
                infeasible = mid
            bisections += 1
        if infeasible - feasible > tol:
            raise ConvergenceError(
                f"bisection bracket [{_fmt(feasible)}, {_fmt(infeasible)}] is still wider"
                f" than tol {tol:g} after {MAX_BISECTIONS} bisections"
            )

    return EquilibriumSolution(
        gamma_bar=gb,
        h_tilde=feasible,
        feasible_set_nonempty=nonempty,
        marginal_cost_at_zero=marginal,
        boundary_punish=_credible(feasible, slope, gb, curve),
        degenerate_credibility=p.eps == 0.0,
        tol=tol,
        bisections=bisections,
        bracket=(feasible, infeasible),
    )


def policy(h: float, sol: EquilibriumSolution) -> float:
    """The threshold firing policy: gamma_bar below h_tilde, zero above."""
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"h must lie in [0, 1], got {h}")
    if h < sol.h_tilde:
        return sol.gamma_bar
    if h > sol.h_tilde:
        return 0.0
    return sol.gamma_bar if sol.boundary_punish else 0.0


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
        not credible above it;
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

    below_witness = ""
    below_ok = True
    for u in fractions:
        h = sol.h_tilde * u
        if not punish_feasible(h, p, curve):
            below_ok = False
            below_witness = f"infeasible at h={_fmt(h)} < h_tilde={_fmt(sol.h_tilde)}"
            break
    checks.append(
        VerificationCheck(
            "feasible_below_threshold",
            below_ok,
            below_witness or f"{VERIFY_SAMPLES} samples in (0, h_tilde) feasible",
        )
    )

    above_witness = ""
    above_ok = True
    if sol.h_tilde < 1.0 and not sol.degenerate_credibility:
        for u in fractions:
            h = sol.h_tilde + (1.0 - sol.h_tilde) * u
            if punish_feasible(h, p, curve):
                above_ok = False
                above_witness = f"feasible at h={_fmt(h)} > h_tilde={_fmt(sol.h_tilde)}"
                break
    checks.append(
        VerificationCheck(
            "infeasible_above_threshold",
            above_ok,
            above_witness or "no feasible point above h_tilde",
        )
    )

    shape_ok = True
    shape_witness = "threshold rule holds on sampled reaches"
    for u in fractions:
        h_low = sol.h_tilde * u
        if policy(h_low, sol) != sol.gamma_bar:
            shape_ok = False
            shape_witness = f"policy({_fmt(h_low)}) != gamma_bar below threshold"
            break
        h_high = sol.h_tilde + (1.0 - sol.h_tilde) * u
        if h_high > sol.h_tilde and policy(h_high, sol) != 0.0:
            shape_ok = False
            shape_witness = f"policy({_fmt(h_high)}) != 0 above threshold"
            break
    boundary_expected = sol.gamma_bar if sol.boundary_punish else 0.0
    if shape_ok and policy(sol.h_tilde, sol) != boundary_expected:
        shape_ok = False
        shape_witness = "policy at h_tilde contradicts boundary_punish"
    checks.append(VerificationCheck("threshold_policy_shape", shape_ok, shape_witness))

    return VerificationReport(tuple(checks))
