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
solves for h_tilde by bisection, verifies the solved threshold, and
provides the closed-form output comparisons.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import InvalidCurveError
from .model import (
    AgentStrategy,
    ModelParams,
    _fmt,
    _gamma_bar,
    _quotient,
    _research_gain,
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

    Construction runs ``validate``, so a broken schedule never becomes a
    curve; every builder ends in the constructor.
    """

    values: np.ndarray
    kind: str
    # r(j / n) at segment boundaries j = 0..n, read by ``cost``
    _cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("nodes", "steps"):
            raise InvalidCurveError(f"unknown curve kind {self.kind!r}")
        if len(self.values) < (2 if self.kind == "nodes" else 1):
            raise InvalidCurveError("schedule needs at least one cost sample")
        self.validate()
        cumulative = np.empty(self._segments + 1)
        self._cumulate(1.0, cumulative)
        object.__setattr__(self, "_cumulative", cumulative)

    @property
    def _segments(self) -> int:
        return len(self.values) if self.kind == "steps" else len(self.values) - 1

    def _cumulate(self, factor: float, out: np.ndarray) -> None:
        """Fill ``out`` with r(j / n), j = 0..m, of the curve scaled by ``factor``.

        m + 1 is the length of ``out``: the boundaries that measures up to
        segment m read.  Each cost is ``values * factor``, the float that
        ``scaled(factor)`` stores, and np.cumsum adds in sequence, so
        ``out`` is a prefix of the sums that curve builds.  Boundary j sums
        j terms that carry at most 3 roundings each, which bounds how far it
        can lie from ``factor`` times the unscaled sum (see ``_cost_bounds``).
        """
        n = self._segments
        m = len(out) - 1
        sums = out[1:]
        if self.kind == "steps":
            np.multiply(self.values[:m], factor, out=sums)
            np.cumsum(sums, out=sums)
            sums /= n
        else:
            np.multiply(self.values[: m + 1], factor, out=out)
            # each segment's two nodes, added where the left one lies and
            # moved up by one: the input runs ahead of the output, so numpy
            # adds in place, where sums += out[:-1] would copy out[:-1] first
            np.add(out[:-1], out[1:], out=out[:-1])
            sums[:] = out[:-1]
            sums /= 2.0 * n
            np.cumsum(sums, out=sums)
        out[0] = 0.0

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
        return cls._from_schedule(q, resolution, fresh=False)

    @classmethod
    def _from_schedule(cls, q: Callable, resolution: int, fresh: bool) -> "ReplacementCostCurve":
        """``from_function``, keeping the nodes without a copy when ``fresh`` says q returns a new array.

        A negative or non-finite node is reported here with its z; the constructor validates the rest.
        """
        if resolution < 2:
            raise InvalidCurveError("resolution must be at least 2")
        if resolution > MAX_RESOLUTION:
            raise InvalidCurveError(f"resolution must be at most {MAX_RESOLUTION}")
        grid = np.linspace(0.0, 1.0, resolution + 1)
        raw = np.asarray(q(grid), dtype=float)
        if raw.shape != grid.shape:
            raw, fresh = np.broadcast_to(raw, grid.shape).astype(float), True
        # a NaN, a negative or an infinite node moves the least or the greatest
        if not (raw.min() >= 0.0 and raw.max() < math.inf):
            _check_nonnegative(raw, grid)
        # only a bad node's message reads its z, so the grid goes before the arrays below
        del grid
        # every family's nodes ascend already: np.sort would only copy them, as equal
        # floats are equal bytes but for 0.0 and -0.0, which lead ascending nodes
        ascending = bool(np.all(raw[1:] >= raw[:-1]))
        if ascending:
            signs = np.signbit(raw[: np.searchsorted(raw, 0.0, side="right")])
            ascending = signs.all() or not signs.any()
        values = np.sort(raw) if not ascending else raw if fresh else raw.copy()
        # a schedule that was sorted or copied goes before the constructor adds the sums
        del raw
        return cls(values, "nodes")

    @classmethod
    def from_samples(cls, costs: Iterable[float]) -> "ReplacementCostCurve":
        """Build from a finite sample of per-replacement costs."""
        raw = np.asarray(list(costs), dtype=float)
        _check_nonnegative(raw, None)
        return cls(values=np.sort(raw), kind="steps")

    @classmethod
    def linear(cls, scale: float = 1.0, resolution: int = DEFAULT_RESOLUTION) -> "ReplacementCostCurve":
        return cls._from_schedule(lambda z: scale * z, resolution, fresh=True)

    @classmethod
    def power(
        cls, scale: float = 1.0, exponent: float = 2.0, resolution: int = DEFAULT_RESOLUTION
    ) -> "ReplacementCostCurve":
        if exponent < 0:
            raise InvalidCurveError("exponent must be nonnegative")
        return cls._from_schedule(lambda z: scale * z**exponent, resolution, fresh=True)

    @classmethod
    def constant(cls, level: float = 1.0, resolution: int = DEFAULT_RESOLUTION) -> "ReplacementCostCurve":
        return cls._from_schedule(lambda z: np.full_like(z, float(level)), resolution, fresh=True)

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

    def cost(self, x):
        """Least total cost r(x) of replacing a measure x of workers; x is a float or an array."""
        measures = np.asarray(x, dtype=float)
        _require_unit(measures, "replacement measure")
        cost = self._cost(measures, self._cumulative)
        return cost if isinstance(x, np.ndarray) else float(cost)

    def _cost(self, x: np.ndarray, cumulative: np.ndarray, factor=1.0):
        """r(x) of the curve scaled by ``factor``, from its boundary sums ``cumulative``.

        ``cumulative`` reaches at least the segment of each measure in ``x``.
        ``values[j] * factor`` is the float that ``scaled(factor)`` stores,
        so this is that curve's r without building it.
        """
        j = self._segment_of(x)
        return self._cost_from(cumulative[j], x, j, factor)

    def _cost_bounds(self, x: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """Rows (lo, hi) enclosing r(x) of the curve scaled by ``factors``, one of each per measure.

        No scaled sum is built: ``_cost(x, sums, factor)`` on the sums
        that ``_cumulate(factor, sums)`` fills lies in [lo, hi] for every
        factor that passes ``check_scale``.
        """
        j = self._segment_of(x)
        approx = factors * self._cumulative[j]
        # Boundary j adds j nonnegative terms of real total f*T in sequence.
        # Each term is rounded at most 3 times and the sum adds j - 1 more
        # roundings, so with u = 2^-53 the scaled sum S lies within
        # gamma_{j+2}*f*T of f*T (Higham, Lemma 3.3), and approx, the
        # unscaled sum times f rounded once more, within gamma_{j+3}*f*T.
        # A product or quotient rounded into the subnormal range is off by
        # up to 2^-1075 instead (a sum is exact there), which adds at most
        # (2.02*j*(1 + f) + 1)*2^-1075: the f is the unscaled sum's error
        # carried by the product.  err is at least twice the total, which
        # also covers rounding err itself and approx -+ err.
        err = 4 * (j + 8) * 2.0**-53 * approx + (4 * j + 16) * 2.0**-1074 * (1.0 + factors)
        # rounding is monotone, so the rest of the path keeps lo <= r <= hi
        return self._cost_from(np.stack((approx - err, approx + err)), x, j, factors)

    def _segment_of(self, x: np.ndarray) -> np.ndarray:
        """The segment j, 0..n-1, of each measure; the int64 cast truncates as ``int`` does."""
        n = self._segments
        return np.minimum((x * n).astype(np.int64), n - 1)

    def _cost_from(self, at_j, x: np.ndarray, j: np.ndarray, factor):
        """r(x) of the curve scaled by ``factor``, from ``at_j``, its r at the start of segment ``j``."""
        n = self._segments
        t = x - j / n
        y0 = self.values[j] * factor
        if self.kind == "steps":
            # integrate the ascending step function: slope is the j-th cost
            return at_j + y0 * t
        # integrate the piecewise-linear interpolant of the sorted nodes
        y1 = self.values[j + 1] * factor
        return at_j + y0 * t + (y1 - y0) * t * t * n / 2.0

    @property
    def marginal_cost_at_zero(self) -> float:
        """One-sided derivative r'(0): the cheapest available replacement."""
        return float(self.values[0])

    def check_scale(self, factor) -> None:
        """Raise ``InvalidCurveError`` unless the costs times ``factor``, or times each of an array, stay valid."""
        fault, texts = self._scale_faults(np.array(factor, dtype=float, ndmin=1))
        if fault.any():
            raise InvalidCurveError(texts[fault[fault > 0][0]])

    def _scale_faults(self, factors: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
        """Why ``check_scale`` rejects each of ``factors``: a code into the texts, 0 (the empty text) where it passes.

        A nonnegative factor keeps the costs ascending, since rounding is
        monotone; it must also keep every sum the constructor forms finite:
        two neighbouring nodes, or every cost of a finite sample.
        """
        terms = 2 if self.kind == "nodes" else len(self.values)
        with np.errstate(over="ignore", invalid="ignore"):
            # an overflowing product is inf, as in Python floats
            overflows = ~np.isfinite(terms * factors * self.values[-1])
            fault = np.select((~np.isfinite(factors), factors < 0.0, overflows), (1, 2, 3))
        texts = ("must be finite", "must be nonnegative", "too large: the scaled costs overflow")
        return fault, ("", *(f"scale factor {text}" for text in texts))

    def scaled(self, factor: float) -> "ReplacementCostCurve":
        """A copy with every per-replacement cost times ``factor``; ``check_scale`` checks it."""
        self.check_scale(factor)
        return ReplacementCostCurve(self.values * factor, self.kind)

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

    Per unit of reach, deterring shirking is worth the research gain
    (1-pi)(1-eps) - pi*eps*g in expected output (``model._research_gain``),
    while the replacement bill is paid only in the failure state, which has
    probability (1-pi)*eps.  The condition "slope * h >= r(gamma_bar * h)"
    compares the two.  With eps = 0 punishment is never actually carried
    out in an effort equilibrium, so the slope is infinite; so it is when a
    subnormal eps rounds the probability to 0.0, as the correctly rounded
    quotient of the positive gain.  ``p``'s primitives may be arrays.
    """
    return _quotient(_research_gain(p), (1.0 - p.pi) * p.eps, math.inf)


def punish_feasible(h, p: ModelParams, curve: ReplacementCostCurve):
    """Whether committing to punish failures at rate gamma_bar and reach ``h`` pays for itself.

    ``h`` is a float, answered with a bool, or an array, answered with one
    bool per reach.  Both sides are zero at h = 0, which is credible: the
    infinite slope of eps = 0, or of a subnormal eps, is never multiplied
    by it.  For h > 0 that slope makes every finite bill credible.  ``p``
    is read only when some reach is positive, so h = 0 is credible even
    for inadmissible params.
    """
    _require_unit(h, "h")
    reach = np.asarray(h, dtype=float)
    feasible = np.array(reach == 0.0)
    positive = ~feasible
    if positive.any():
        feasible[positive] = _credible(reach[positive], credibility_slope(p), gamma_bar(p), curve.cost)
    return feasible if isinstance(h, np.ndarray) else bool(feasible)


def _credible(h, slope, rate, cost: Callable):
    """The credibility condition at reaches h > 0, of floats or arrays: the deterred shirking pays the replacement bill."""
    return slope * h >= cost(rate * h)


def _require_unit(x, name: str) -> None:
    """Raise ``ValueError`` naming the first value of ``x`` outside [0, 1]; ``x`` is a float or an array."""
    values = np.asarray(x, dtype=float)
    inside = (0.0 <= values) & (values <= 1.0)
    if not inside.all():
        raise ValueError(f"{name} must lie in [0, 1], got {values[~inside][0]}")


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
    condition holds everywhere.  This is ``_bisect_thresholds``, the core
    that a parameter sweep runs on its grid arrays, run on the one point.
    """
    require_admissible(p)
    rate, slope = float(_gamma_bar(p)), float(credibility_slope(p))
    low, high, steps = (end.item() for end in _bisect_thresholds(curve, np.array([rate]), np.array([slope]), None))
    return EquilibriumSolution(
        gamma_bar=rate,
        h_tilde=low,
        # Python floats: a slope / gamma_bar past the float range is inf, not an error
        feasible_set_nonempty=_quotient(slope, rate, math.inf) > curve.marginal_cost_at_zero,
        marginal_cost_at_zero=curve.marginal_cost_at_zero,
        bisections=steps,
        bracket=(low, high),
    )


def _bisect_thresholds(
    curve: ReplacementCostCurve, rate: np.ndarray, slope: np.ndarray, factors: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bisect the credibility condition on [0, 1] for every point at once.

    Point i has gamma_bar ``rate[i]`` and credibility slope ``slope[i]``,
    and is solved against ``curve``, or, given ``factors``, against the
    curve scaled by ``factors[i]``, which must pass ``check_scale``; no
    scaled curve is built.  ``solve_threshold`` runs it on one point and
    a parameter sweep on its grid arrays.  Each step of a scaled point
    compares the benefit with an interval that contains the scaled
    curve's r, bounded from the unscaled boundary sums (the bound is
    derived in ``ReplacementCostCurve._cost_bounds``).  A step it cannot
    decide, a near tie, builds that point's exact scaled sums as far as
    the step reads and decides on them; a point credible at h = 1 is
    asked at h = 1 on every step, so a near tie there builds them each
    time.

    Returns the final (feasible, infeasible) bracket ends and the
    bisection count per point.  Every point bisects as a one-point solve
    does, so the batch changes no bit: every midpoint is dyadic, and each
    point takes exactly 34 steps to a bracket of width 2^-34, the first
    below ``TOL``, unless it is credible at h = 1 and keeps the bracket
    (1, 1): its midpoint is 1 again, so no step moves or counts it.
    """
    if factors is None:
        # the bisection reads only measures gamma_bar * h in [0, 1]
        cost = functools.partial(curve._cost, cumulative=curve._cumulative)
        credible = functools.partial(_credible, slope=slope, rate=rate, cost=cost)
    else:

        def credible(h):
            # a benefit inside the interval, a near tie, is decided on the exact sums
            benefit, x = slope * h, rate * h
            low, high = curve._cost_bounds(x, factors)
            feasible = benefit >= high
            for i in np.flatnonzero((benefit >= low) & ~feasible).tolist():
                at = x[i : i + 1]
                sums = np.empty(int(curve._segment_of(at)[0]) + 1)
                curve._cumulate(factors[i], sums)
                feasible[i] = benefit[i] >= curve._cost(at, sums, factors[i])[0]
            return feasible

    feasible = np.where(credible(1.0), 1.0, 0.0)
    infeasible = np.ones_like(feasible)
    bisections = np.zeros(len(feasible), dtype=int)
    while True:
        open_ = infeasible - feasible > TOL
        if not open_.any():
            return feasible, infeasible, bisections
        mid = 0.5 * (feasible + infeasible)
        step = credible(mid)
        feasible = np.where(step, mid, feasible)
        infeasible = np.where(step, infeasible, mid)
        bisections += open_


def policy(h, sol: EquilibriumSolution):
    """The threshold firing policy: gamma_bar on [0, h_tilde], zero above; ``h`` is a float or an array."""
    _require_unit(h, "h")
    # gamma_bar times True is gamma_bar, and times False is 0.0
    return sol.gamma_bar * (h <= sol.h_tilde)


def expected_output(h, regime: str, p: ModelParams):
    """Expected aggregate output per unit mass of workers at reach ``h``.

    effort -- everyone with access researches and follows the signal
        (the first-best adoption pattern).
    shirk  -- everyone with access adopts without researching.

    ``h`` is a float or an array of reaches.
    """
    _require_unit(h, "h")
    if regime == EFFORT:
        return (1.0 - h) + h * ((1.0 + p.pi * p.g) * (1.0 - p.eps) + p.pi * p.eps)
    if regime == SHIRK:
        return (1.0 - h) + h * p.pi * (1.0 + p.g)
    raise ValueError(f"regime must be 'effort' or 'shirk', got {regime!r}")


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    witness: str


def verify_equilibrium(
    sol: EquilibriumSolution,
    p: ModelParams,
    curve: ReplacementCostCurve,
) -> tuple[VerificationCheck, ...]:
    """Independently re-check a solved equilibrium.

    (a) at the solution's firing rate, researching and blind adoption
        give the same expected payoff (the rate's defining property);
    (b) punishing is credible at sampled reaches below the threshold and
        not credible above the solve's infeasible end, which lies within
        ``TOL`` of the threshold;
    (c) the policy has the threshold shape.

    Returns one check per property; failures are reported with witnesses,
    never raised.
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
    # one call on every sample: its terms come from p, not from sol, so the
    # check stays independent of the solve
    credible = punish_feasible(np.array(below + above), p, curve).tolist()
    infeasible = [f"infeasible at h={_fmt(h)} < h_tilde={threshold}" for h, ok in zip(below, credible) if not ok]
    checks.append(
        _check("feasible_below_threshold", infeasible, f"{VERIFY_SAMPLES} samples in (0, h_tilde) feasible")
    )
    feasible = [
        f"feasible at h={_fmt(h)} > h_tilde={threshold}" for h, ok in zip(above, credible[len(below) :]) if ok
    ]
    if infeasible_end - sol.h_tilde > TOL:
        feasible.append(f"unresolved from h_tilde={threshold} to h={_fmt(infeasible_end)}")
    checks.append(_check("infeasible_above_threshold", feasible, "no feasible point above h_tilde"))
    shape = [f"policy({_fmt(h)}) != gamma_bar below threshold" for h in below if policy(h, sol) != sol.gamma_bar]
    shape += [f"policy({_fmt(h)}) != 0 above threshold" for h in above if policy(h, sol) != 0.0]
    if policy(sol.h_tilde, sol) != sol.gamma_bar:
        shape.append("policy(h_tilde) != gamma_bar at the threshold")
    checks.append(_check("threshold_policy_shape", shape, "threshold rule holds on sampled reaches"))

    return tuple(checks)


def _check(name: str, failures: list[str], passed: str) -> VerificationCheck:
    """A check that passes when no sample failed; its witness is the first failure."""
    return VerificationCheck(name, not failures, failures[0] if failures else passed)
