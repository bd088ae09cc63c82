"""Replacement-cost curves, threshold solving, and closed-form comparisons."""

import dataclasses
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import column, draw_curve, draw_params, output_drop, recording_cumulate, traced_memory
from shirklab import model
from shirklab.cli import main
from shirklab.equilibrium import (
    TOL,
    VERIFY_SAMPLES,
    EquilibriumSolution,
    ReplacementCostCurve,
    _bisect_thresholds,
    credibility_slope,
    expected_output,
    policy,
    punish_feasible,
    solve_threshold,
    verify_equilibrium,
)
from shirklab.errors import InadmissibleParamsError, InvalidCurveError
from shirklab.model import (
    AgentStrategy,
    ModelParams,
    expected_production,
    gamma_bar,
    validate_params,
)
from shirklab.sweeps import sweep_param


def principal_value(h, punish, p, curve):
    """Expected value to the principal of each policy regime at reach ``h``.

    Under punishment every worker with access researches and follows the
    signal; the principal collects that output, pays the wage bill, and
    in the failure state replaces a fraction gamma_bar of the failed
    workers.  Without punishment all workers with access adopt blindly.
    The wage premium is charged on the whole measure ``h`` in both
    regimes, so the wage bill cancels from their difference.
    """
    if not punish:
        return expected_output(h, "shirk", p) - p.w * h
    output = expected_output(h, "effort", p)
    return output - (1.0 - p.pi) * p.eps * curve.cost(gamma_bar(p) * h) - p.w * h


def welfare_loss(h, p):
    """Welfare lost to shirking at reach ``h``: the output drop net of saved effort.

    Welfare is output minus effort costs (wages and continuation values
    are transfers), and shirkers save the effort cost, so the loss is
    h * [(1-eps)(1-pi) - pi*g*eps - c].
    """
    return output_drop(h, p) - h * p.c


def _failures(checks):
    return [check for check in checks if not check.passed]


class TestReplacementCostCurve:
    def test_ascending_linear_schedule_integrates_exactly(self, linear_curve):
        # q(z) = 1000 z gives r(x) = 500 x^2
        assert linear_curve.cost(0.1) == pytest.approx(5.0, abs=1e-12)
        for x in np.linspace(0.0, 1.0, 17):
            assert linear_curve.cost(float(x)) == pytest.approx(500.0 * x * x, rel=1e-12, abs=1e-12)

    def test_descending_schedule_rearranges_to_the_same_cost(self):
        descending = ReplacementCostCurve.from_function(lambda z: 1000.0 * (1.0 - z))
        assert descending.cost(0.1) == pytest.approx(5.0, rel=1e-8)

    def test_cost_at_zero_is_zero(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            assert draw_curve(rng).cost(0.0) == 0.0

    def test_sampled_schedule_uses_exact_prefix_sums(self):
        curve = ReplacementCostCurve.from_samples([3.0, 1.0, 2.0])
        # sorted costs 1, 2, 3 each of measure 1/3
        assert curve.cost(1.0 / 3.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert curve.cost(0.5) == pytest.approx(1.0 / 3.0 + 2.0 / 6.0, abs=1e-15)
        assert curve.cost(1.0) == pytest.approx(2.0, abs=1e-15)
        assert curve.marginal_cost_at_zero == 1.0

    def test_measure_outside_unit_interval_raises(self, linear_curve):
        with pytest.raises(ValueError):
            linear_curve.cost(-0.01)
        with pytest.raises(ValueError):
            linear_curve.cost(1.01)
        with pytest.raises(ValueError, match=r"replacement measure must lie in \[0, 1\], got 1.5"):
            linear_curve.cost(np.array([0.2, 1.5, -1.0]))

    def test_cost_of_an_array_equals_each_scalar_cost(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            curve = draw_curve(rng, resolution=int(rng.integers(2, 500)))
            measures = np.concatenate(([0.0, 1.0, 0.5], rng.uniform(0.0, 1.0, 100)))
            assert curve.cost(measures).tolist() == [curve.cost(x) for x in measures.tolist()]
            assert type(curve.cost(0.25)) is float

    def test_resolution_above_the_cap_is_rejected_before_any_evaluation(self):
        def q(z):
            raise AssertionError("schedule evaluated")

        with pytest.raises(InvalidCurveError, match="at most 10000000"):
            ReplacementCostCurve.from_function(q, resolution=10**7 + 1)
        with pytest.raises(InvalidCurveError, match="at most 10000000"):
            ReplacementCostCurve.linear(1.0, resolution=10**300)

    def test_negative_schedule_is_rejected(self):
        with pytest.raises(InvalidCurveError):
            ReplacementCostCurve.from_function(lambda z: z - 0.5, resolution=100)
        with pytest.raises(InvalidCurveError):
            ReplacementCostCurve.from_samples([1.0, -0.5])

    def test_scaling_scales_costs(self, linear_curve):
        doubled = linear_curve.scaled(2.0)
        assert doubled.cost(0.1) == pytest.approx(10.0, abs=1e-12)

    def test_scale_that_overflows_a_constructor_sum_is_rejected(self):
        # the largest sums built from the costs: two neighbouring nodes, or
        # the total of a finite sample
        nodes = ReplacementCostCurve.linear(1e300, resolution=10)
        sample = ReplacementCostCurve.from_samples([1e300] * 4)
        with np.errstate(all="raise"):
            assert nodes.scaled(8e7).cost(1.0) == pytest.approx(4e307)
            assert sample.scaled(4e7).cost(1.0) == pytest.approx(4e307)
            for curve, factor in ((nodes, 1.7e8), (sample, 5e7)):
                with pytest.raises(InvalidCurveError, match="overflow"):
                    curve.scaled(factor)

    def test_file_loading_round_trip(self, tmp_path):
        path = tmp_path / "costs.txt"
        path.write_text("0.0 3.0\n0.5 1.0\n1.0 2.0\n")
        curve = ReplacementCostCurve.from_file(str(path))
        assert curve.cost(1.0) == pytest.approx(2.0, abs=1e-15)
        assert curve.marginal_cost_at_zero == 1.0

    def test_file_with_wrong_shape_is_rejected(self, tmp_path):
        path = tmp_path / "costs.txt"
        path.write_text("0.0 3.0 9.9\n0.5 1.0 9.9\n")
        with pytest.raises(InvalidCurveError):
            ReplacementCostCurve.from_file(str(path))

    def test_file_with_non_numeric_cells_is_rejected(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("0.1 2.0\n0.2 cheap\n")
        with pytest.raises(InvalidCurveError, match="not a numeric table"):
            ReplacementCostCurve.from_file(str(path))

    @staticmethod
    def _sorted_build(q, resolution):
        """The curve built by sorting the nodes, whatever their order."""
        raw = np.asarray(q(np.linspace(0.0, 1.0, resolution + 1)), dtype=float)
        return ReplacementCostCurve(values=np.sort(raw), kind="nodes")

    @pytest.mark.parametrize("resolution", [2, 3, 500, 10**5])
    def test_families_build_the_sorted_curve_byte_for_byte(self, resolution):
        for scale in (1.0, 0.0, -0.0, 705.96235, 3e-9, 1e300):
            for built, q in (
                (ReplacementCostCurve.linear(scale, resolution), lambda z: scale * z),
                (ReplacementCostCurve.power(scale, 1.7, resolution), lambda z: scale * z**1.7),
                (ReplacementCostCurve.power(scale, 0.0, resolution), lambda z: scale * z**0.0),
                (ReplacementCostCurve.constant(scale, resolution), lambda z: np.full_like(z, scale)),
            ):
                want = self._sorted_build(q, resolution)
                assert built.values.tobytes() == want.values.tobytes()
                assert built._cumulative.tobytes() == want._cumulative.tobytes()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ReplacementCostCurve.linear(705.96235, 10**6),
            lambda: ReplacementCostCurve.power(3.0, 2.5, 10**6),
            lambda: ReplacementCostCurve.constant(2.0, 10**6),
        ],
        ids=["linear", "power", "constant"],
    )
    def test_a_family_build_peaks_at_what_it_keeps(self, build):
        # the nodes and their boundary sums; the nodes' z held into the
        # constructor and the copy of out[:-1] that sums += out[:-1] makes
        # peaked at twice that
        with traced_memory() as traced:
            curve = build()
        assert traced.peak < 1.1 * (curve.values.nbytes + curve._cumulative.nbytes)
        # each boundary adds the segments' node sums, formed out of place here, in sequence
        nodes, n = curve.values, curve._segments
        want = np.concatenate(([0.0], np.cumsum((nodes[1:] + nodes[:-1]) / (2.0 * n))))
        assert curve._cumulative.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "q",
        [
            # ascending, with zeros of both signs: they compare equal, but
            # np.sort may reorder them and their bytes differ
            lambda z: np.where(z < 0.5, np.where(np.arange(len(z)) % 3 == 0, -0.0, 0.0), z),
            lambda z: 1000.0 * (1.0 - z),
            lambda z: np.abs(z - 0.3),
        ],
        ids=["mixed_zeros", "descending", "valley"],
    )
    def test_unsorted_nodes_are_sorted(self, q):
        for resolution in (2, 3, 40, 500, 10**5):
            built = ReplacementCostCurve.from_function(q, resolution)
            want = self._sorted_build(q, resolution)
            assert built.values.tobytes() == want.values.tobytes()
            assert built._cumulative.tobytes() == want._cumulative.tobytes()

    def test_a_curve_never_shares_the_array_its_schedule_returns(self):
        stored = np.linspace(0.0, 2.0, 11)
        curve = ReplacementCostCurve.from_function(lambda z: stored, resolution=10)
        assert not np.shares_memory(curve.values, stored)
        stored[:] = 5.0
        assert curve.values.tolist() == np.linspace(0.0, 2.0, 11).tolist()

    def test_every_builder_validates_its_curve_once(self, tmp_path):
        path = tmp_path / "costs.txt"
        path.write_text("0.5 3.0\n0.1 1.0\n")
        parent = ReplacementCostCurve.linear(2.0, 10)
        builders = {
            "from_function": lambda: ReplacementCostCurve.from_function(lambda z: 1.0 - z, 10),
            "linear": lambda: ReplacementCostCurve.linear(2.0, 10),
            "power": lambda: ReplacementCostCurve.power(2.0, 1.5, 10),
            "constant": lambda: ReplacementCostCurve.constant(2.0, 10),
            "from_samples": lambda: ReplacementCostCurve.from_samples([3.0, 1.0]),
            "from_file": lambda: ReplacementCostCurve.from_file(str(path)),
            "scaled": lambda: parent.scaled(3.0),
        }
        for name, build in builders.items():
            validate = ReplacementCostCurve.validate
            with mock.patch.object(ReplacementCostCurve, "validate", autospec=True, side_effect=validate) as spy:
                curve = build()
            assert [call.args for call in spy.call_args_list] == [(curve,)], name

    def test_tampered_curve_fails_validation(self, linear_curve):
        with pytest.raises(InvalidCurveError, match="not sorted"):
            ReplacementCostCurve(values=linear_curve.values[::-1].copy(), kind="nodes")

    def test_convexity_of_random_schedules(self):
        rng = np.random.default_rng(4040)
        grid = np.linspace(0.0, 1.0, 200)
        for _ in range(60):
            curve = draw_curve(rng, resolution=2000)
            values = np.array([curve.cost(float(x)) for x in grid])
            second_differences = np.diff(values, 2)
            assert second_differences.min() >= -1e-9


PREFIX_PARENTS = {
    "nodes": ReplacementCostCurve.power(3.0, 2.5, resolution=1000),
    "steps": ReplacementCostCurve.from_samples(np.random.default_rng(31).exponential(2.0, size=613)),
}
FACTORS = st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.floats(0.0, 1e-6))


class TestPrefixScaledCurve:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(sorted(PREFIX_PARENTS)),
        factors=st.lists(FACTORS, min_size=1, max_size=4),
        upto=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0, 0.211111111111])),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    def test_prefix_cost_equals_the_full_build_exactly(self, kind, factors, upto, fractions):
        # one row of scaled sums per factor, only as far as the segment of
        # ``upto`` reads, and no scaled copy built
        parent = PREFIX_PARENTS[kind]
        for factor in factors:
            sums = np.empty(int(parent._segment_of(np.array([upto]))[0]) + 1)
            parent._cumulate(factor, sums)
            full = parent.scaled(factor)
            assert sums.tobytes() == full._cumulative[: len(sums)].tobytes()
            for x in [upto, 0.0] + [upto * u for u in fractions]:
                assert parent._cost(np.array([x]), sums, factor).tolist() == [full.cost(x)]

    @pytest.mark.parametrize("factor", [0.0, 1e-300, 0.37, 3.0, 1e6])
    @pytest.mark.parametrize("kind", sorted(PREFIX_PARENTS))
    def test_a_scaled_copy_of_a_valid_curve_passes_the_check(self, kind, factor):
        # the scaled costs must stay finite, nonnegative and ascending
        PREFIX_PARENTS[kind].scaled(factor).validate()

    def test_a_tiny_descent_is_rejected(self):
        with pytest.raises(InvalidCurveError, match="not sorted"):
            ReplacementCostCurve(np.array([0.0, 1.0, 1.0 - 1e-12, 2.0]), "steps")


class TestPunishFeasible:
    def test_reference_points(self, p0, linear_curve):
        # slope of the feasibility condition at P0 is 4.5 per unit reach
        assert credibility_slope(p0) == pytest.approx(4.5, abs=1e-12)
        assert punish_feasible(0.1, p0, linear_curve)      # 0.45 >= 500*(gb*0.1)^2 ~ 0.2228
        assert not punish_feasible(0.3, p0, linear_curve)  # 1.35 < 500*(gb*0.3)^2 ~ 2.0056

    def test_zero_reach_is_always_feasible(self):
        rng = np.random.default_rng(5050)
        for _ in range(50):
            p = draw_params(rng)
            assert punish_feasible(0.0, p, draw_curve(rng, resolution=500))

    def test_zero_reach_reads_no_params(self, linear_curve):
        # h = 0 is credible before p is looked at; a positive reach checks it
        p = ModelParams(pi=0.9, eps=0.1, g=0.5, c=0.05, w=0.05, v_c=1.0)
        assert punish_feasible(0.0, p, linear_curve) is True
        assert punish_feasible(np.zeros(3), p, linear_curve).tolist() == [True] * 3
        for h in (0.1, np.array([0.0, 0.1])):
            with pytest.raises(InadmissibleParamsError):
                punish_feasible(h, p, linear_curve)

    def test_perfect_signal_makes_punishment_costless(self, linear_curve):
        p = ModelParams(pi=0.85, eps=0.0, g=0.8, c=0.05, w=0.1, v_c=2.0)
        for curve in (linear_curve, ReplacementCostCurve.linear(1e9)):
            for h in (0.0, 0.3, 1.0):
                assert punish_feasible(h, p, curve)

    def test_reach_outside_unit_interval_raises(self, p0, linear_curve):
        with pytest.raises(ValueError):
            punish_feasible(1.5, p0, linear_curve)
        with pytest.raises(ValueError, match="got 1.5"):
            punish_feasible(np.array([0.2, 1.5]), p0, linear_curve)

    def test_an_array_of_reaches_is_answered_as_one_call_per_reach(self):
        rng = np.random.default_rng(6060)
        for trial in range(60):
            p = draw_params(rng)
            if trial % 3 == 0:
                p = dataclasses.replace(p, eps=0.0)
            curve = draw_curve(rng, resolution=500)
            sol = solve_threshold(p, curve)
            # h = 0, both bracket ends, the threshold and its neighbours, and the edges
            reaches = np.array([0.0, *sol.bracket, sol.h_tilde, *rng.uniform(size=8), 1.0, 5e-324])
            reaches = np.concatenate([reaches, np.nextafter(reaches[1:3], [1.0, 0.0])])
            answers = punish_feasible(reaches, p, curve)
            assert answers.dtype == bool and answers.shape == reaches.shape
            assert answers.tolist() == [punish_feasible(float(h), p, curve) for h in reaches]
            assert punish_feasible(reaches.reshape(2, -1), p, curve).tolist() == answers.reshape(2, -1).tolist()
            assert punish_feasible(np.array(sol.h_tilde), p, curve).shape == ()
        assert punish_feasible(np.array([]), p, curve).tolist() == []


class TestSolveThreshold:
    def test_reference_closed_form(self, p0, linear_curve):
        # with q(z) = 1000 z the crossing solves A h = 500 (gb h)^2, so
        # h_tilde = A / (500 gb^2) with A = 4.5 and gb = 19/90
        sol = solve_threshold(p0, linear_curve)
        gb = 19.0 / 90.0
        expected = 4.5 / (500.0 * gb * gb)
        assert sol.gamma_bar == pytest.approx(gb, abs=1e-15)
        assert sol.h_tilde == pytest.approx(expected, abs=1e-9)
        assert sol.feasible_set_nonempty
        assert sol.marginal_cost_at_zero == 0.0

    def test_cheap_curve_clamps_to_one(self, p0):
        cheap = ReplacementCostCurve.linear(1.0)
        sol = solve_threshold(p0, cheap)
        assert sol.h_tilde == 1.0

    def test_expensive_constant_curve_has_empty_interior(self, p0):
        pricey = ReplacementCostCurve.constant(100.0)
        sol = solve_threshold(p0, pricey)
        # cheapest replacement (100) exceeds slope/gamma_bar ~ 21.3
        assert not sol.feasible_set_nonempty
        assert sol.h_tilde <= 2.0 * TOL
        assert sol.marginal_cost_at_zero == pytest.approx(100.0)

    def test_perfect_signal_short_circuits(self):
        p = ModelParams(pi=0.85, eps=0.0, g=0.8, c=0.05, w=0.1, v_c=2.0)
        sol = solve_threshold(p, ReplacementCostCurve.constant(1e9))
        assert sol.h_tilde == 1.0
        assert sol.feasible_set_nonempty

    def test_inadmissible_params_raise(self, linear_curve):
        p = ModelParams(pi=0.9, eps=0.1, g=0.5, c=0.05, w=0.05, v_c=1.0)
        with pytest.raises(InadmissibleParamsError):
            solve_threshold(p, linear_curve)

    def test_tampered_curve_raises(self, linear_curve):
        with pytest.raises(InvalidCurveError):
            ReplacementCostCurve(values=linear_curve.values[::-1].copy(), kind="nodes")

    def test_bisection_diagnostics_on_the_golden_solves(self, p0, linear_curve):
        # solve_scale1000: 34 halvings take the unit bracket below 1e-10
        sol = solve_threshold(p0, linear_curve)
        assert sol.h_tilde == pytest.approx(0.201939058141, abs=1e-12)
        assert sol.bisections == 34
        feasible, infeasible = sol.bracket
        assert feasible == sol.h_tilde
        assert 0.0 < infeasible - feasible <= TOL
        assert not punish_feasible(infeasible, p0, linear_curve)
        # solve_scale100 and solve_eps0: credible everywhere, no bisection
        eps0 = ModelParams(pi=0.85, eps=0.0, g=0.8, c=0.05, w=0.1, v_c=2.0)
        for p, curve in ((p0, ReplacementCostCurve.linear(100.0)), (eps0, linear_curve)):
            sol = solve_threshold(p, curve)
            assert (sol.h_tilde, sol.bisections, sol.bracket) == (1.0, 0, (1.0, 1.0))

    def test_interval_structure_for_random_pairs(self):
        rng = np.random.default_rng(6060)
        for _ in range(100):
            p = draw_params(rng)
            curve = draw_curve(rng, resolution=1000)
            sol = solve_threshold(p, curve)
            for u in np.linspace(0.1, 0.9, 9):
                assert punish_feasible(sol.h_tilde * u, p, curve)
                if sol.h_tilde < 1.0:
                    above = sol.h_tilde + (1.0 - sol.h_tilde) * u
                    assert not punish_feasible(above, p, curve)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(("drawn", "linear", "power")),
        edge=st.sampled_from(("none", "eps0", "costless")),
    )
    def test_h_tilde_closes_the_credible_interval(self, seed, family, edge):
        rng = np.random.default_rng(seed)
        p = draw_params(rng)
        if edge == "eps0":
            # the slope is infinite, so every reach is credible
            p = dataclasses.replace(p, eps=0.0)
        elif edge == "costless":
            # c = w = 0 makes gamma_bar = 0, so punishing replaces no one
            p = dataclasses.replace(p, c=0.0, w=0.0)
        assume(validate_params(p).admissible)
        scale = 10.0 ** rng.uniform(-2.0, 4.0)
        if family == "drawn":
            curve = draw_curve(rng, resolution=500)
        elif family == "linear":
            curve = ReplacementCostCurve.linear(scale, resolution=500)
        else:
            curve = ReplacementCostCurve.power(scale, rng.uniform(0.0, 5.0), resolution=500)
        sol = solve_threshold(p, curve)
        assert punish_feasible(sol.h_tilde, p, curve)
        assert policy(sol.h_tilde, sol) == sol.gamma_bar
        assert not _failures(verify_equilibrium(sol, p, curve))

    def test_threshold_shrinks_as_replacement_costs_scale_up(self):
        rng = np.random.default_rng(7070)
        for _ in range(40):
            p = draw_params(rng)
            curve = draw_curve(rng, resolution=1000)
            previous = None
            for scale in (0.5, 1.0, 2.0, 8.0):
                h_tilde = solve_threshold(p, curve.scaled(scale)).h_tilde
                if previous is not None:
                    assert h_tilde <= previous + 1e-9
                previous = h_tilde

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(("drawn", "linear", "power")),
        edge=st.sampled_from(("none", "eps0", "steep", "near_one")),
    )
    def test_every_bisection_takes_34_steps_to_a_dyadic_bracket(self, seed, family, edge):
        # each midpoint is dyadic, so after k steps the bracket is exactly
        # 2^-k wide, and 2^-34 is the first such width at most TOL
        rng = np.random.default_rng(seed)
        p = draw_params(rng)
        if edge == "eps0":
            p = dataclasses.replace(p, eps=0.0)
            assume(validate_params(p).admissible)
        if family == "drawn":
            curve = draw_curve(rng, resolution=500)
        elif family == "linear":
            curve = ReplacementCostCurve.linear(10.0 ** rng.uniform(-2.0, 4.0), resolution=500)
        else:
            scale, exponent = 10.0 ** rng.uniform(-2.0, 4.0), rng.uniform(0.5, 5.0)
            curve = ReplacementCostCurve.power(scale, exponent, resolution=500)
        if edge in ("steep", "near_one"):
            # rescale the curve so that the credibility condition binds at the boundary
            gap = 10.0 ** rng.uniform(-14.0, -10.5) if edge == "steep" else 10.0 ** rng.uniform(-13.0, -10.0)
            boundary = gap if edge == "steep" else 1.0 - gap
            cost = curve.cost(gamma_bar(p) * boundary)
            assume(cost > 0.0)
            curve = curve.scaled(credibility_slope(p) * boundary / cost)
        sol = solve_threshold(p, curve)
        if edge in ("steep", "near_one"):
            assert sol.bisections
        if sol.bisections:
            assert sol.bisections == 34
            assert sol.bracket[1] - sol.bracket[0] == 2.0**-34
            assert sol.bracket[0] == sol.h_tilde
        else:
            assert (sol.bisections, sol.bracket) == (0, (1.0, 1.0))
        if edge == "eps0":
            assert sol.bisections == 0
        if edge == "steep" and family == "linear":
            # the boundary lies below the smallest midpoint, 2^-34
            assert sol.bracket == (0.0, 2.0**-34)


def _scalar_solve(p, curve):
    """Bisection on the scalar credibility test, step for step as a solve takes it."""
    feasible = infeasible = 1.0
    if not punish_feasible(1.0, p, curve):
        feasible = 0.0
    steps = 0
    while infeasible - feasible > TOL:
        mid = 0.5 * (feasible + infeasible)
        if punish_feasible(mid, p, curve):
            feasible = mid
        else:
            infeasible = mid
        steps += 1
    return feasible, infeasible, steps


@pytest.fixture(scope="module")
def curve_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("curves")


def _family_curve(family, rng, curve_dir):
    scale = 10.0 ** rng.uniform(-2.0, 4.0)
    if family == "linear":
        return ReplacementCostCurve.linear(scale, resolution=int(rng.integers(2, 3000)))
    if family == "power":
        return ReplacementCostCurve.power(scale, rng.uniform(0.0, 5.0), resolution=int(rng.integers(2, 3000)))
    size = int(rng.integers(1, 400))
    path = curve_dir / f"costs{rng.integers(2**62)}.txt"
    path.write_text("".join(f"{z} {q}\n" for z, q in zip(rng.uniform(0, 1, size), rng.uniform(0, scale, size))))
    return ReplacementCostCurve.from_file(str(path))


def _largest_scale(curve):
    """Nearly the largest factor ``check_scale`` passes."""
    terms = 2 if curve.kind == "nodes" else len(curve.values)
    return 0.99 * np.finfo(float).max / (terms * max(float(curve.values[-1]), 1.0))


def _exact_threshold(p, curve):
    """The exact end h* of the credible interval, and how far a solve's bracket may miss it.

    g(h) = slope*h - r(gamma_bar*h) is concave with g(0) = 0, so the
    credible set is [0, h*], capped at 1.  Between the boundaries j/n
    whose sums ``_cumulative`` holds, r is quadratic (nodes) or linear
    (steps).  The last boundary with g >= 0 fixes the segment, and one
    equation on it, solved in rationals, gives h*.  Neither the solve's
    interval test nor its bisection is used.

    The allowance: the solve decides the sign of g(h) in floats, to
    within about 11*u*h*slope + 3*u*h*|g'(h)|, u = 2^-53, so its bracket
    may miss h* by that over |g'(h*)|.  64*u*h*(1 + slope/|g'(h*)|)
    covers it and the oracle's own roundings.  Both read the same float
    boundary sums, so their rounding is common to both.
    """
    rate, slope = gamma_bar(p), credibility_slope(p)
    if rate == 0.0 or math.isinf(slope):
        return 1.0, 0.0
    n = curve._segments
    reach = np.arange(n + 1) / n / rate
    inside = np.flatnonzero(reach <= 1.0)
    g = slope * reach[inside] - curve._cumulative[inside]
    j = min(int(inside[g >= 0.0][-1]), n - 1)
    # at measure x = (j + v) / n, slope*h = r(x) reads a*v^2 + b*v + c = 0,
    # scaled by n / k with k = slope / rate, and v = 0 at boundary j
    k = Fraction(slope) / Fraction(rate)
    y0 = Fraction(float(curve.values[j]))
    y1 = Fraction(float(curve.values[j + 1])) if curve.kind == "nodes" else y0
    a, b, c = (y1 - y0) / (2 * k), y0 / k - 1, Fraction(float(curve._cumulative[j])) * n / k - j
    top = max(abs(a), abs(b), abs(c))
    fa, fb, fc = (float(term / top) for term in (a, b, c))
    disc = math.sqrt(max(fb * fb - 4.0 * fa * fc, 0.0))
    if fb > 0.0:
        v = -2.0 * fc / (fb + disc)
    elif fa > 0.0:
        v = (disc - fb) / (2.0 * fa)
    else:
        # g does not fall on the last segment within reach 1
        return 1.0, 0.0
    h = (j + v) / n / rate
    if h >= 1.0:
        return 1.0, 0.0
    # -g'(h*) / slope
    falling = abs(b + 2 * a * Fraction(v))
    return h, 64 * 2.0**-53 * h * (1.0 + (math.inf if falling == 0 else float(1 / falling)))


def _assert_brackets_the_exact_threshold(bracket, p, curve):
    exact, allowance = _exact_threshold(p, curve)
    low, high = bracket
    assert low - allowance <= exact <= high + allowance, (sol.bracket, exact, allowance)


def _scale_factors(rng, curve, kinds):
    """One scale factor per kind: zero, the least subnormal, a draw, or nearly the largest."""
    draws = {"zero": lambda: 0.0, "tiny": lambda: 5e-324, "drawn": lambda: 10.0 ** rng.uniform(-3.0, 3.0)}
    draws["largest"] = lambda: _largest_scale(curve)
    return [draws[kind]() for kind in kinds]


def _cli_errstate():
    """The CLI's float checks: an overflow or invalid operation would exit 2."""
    return np.errstate(over="raise", invalid="raise", divide="raise")


def _bisected(points, curve, factors=None):
    """Each point's (h_tilde, bracket, bisections) from ``_bisect_thresholds``, the batch core the sweeps call."""
    rate, slope = (np.array([term(p) for p in points], dtype=float) for term in (gamma_bar, credibility_slope))
    scales = None if factors is None else np.array(factors, dtype=float)
    feasible, infeasible, bisections = _bisect_thresholds(curve, rate, slope, scales)
    return [
        (low, (low, high), steps)
        for low, high, steps in zip(feasible.tolist(), infeasible.tolist(), bisections.tolist())
    ]


def _solved(sol):
    """A solution's (h_tilde, bracket, bisections), as ``_bisected`` gives them."""
    return sol.h_tilde, sol.bracket, sol.bisections


class TestSolveThresholds:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(("linear", "power", "file")),
        edges=st.lists(st.sampled_from(("none", "eps0", "costless")), min_size=1, max_size=6),
    )
    def test_a_batch_equals_one_point_solves_bit_for_bit(self, seed, family, edges, curve_dir):
        rng = np.random.default_rng(seed)
        curve = _family_curve(family, rng, curve_dir)
        points = []
        for edge in edges:
            p = draw_params(rng)
            if edge == "eps0":
                p = dataclasses.replace(p, eps=0.0)
            elif edge == "costless":
                p = dataclasses.replace(p, c=0.0, w=0.0)
            if validate_params(p).admissible:
                points.append(p)
        batch = _bisected(points, curve)
        solutions = [solve_threshold(p, curve) for p in points]
        # repr tells -0.0 from 0.0 and shows every bit of a float
        assert repr(batch) == repr([_solved(sol) for sol in solutions])
        for p, sol in zip(points, solutions):
            feasible, infeasible, steps = _scalar_solve(p, curve)
            assert _solved(sol) == (feasible, (feasible, infeasible), steps)
            assert sol.bisections in (0, 34)
            assert sol.gamma_bar == gamma_bar(p)
            if p.eps == 0.0 or sol.gamma_bar == 0.0:
                assert sol.feasible_set_nonempty and sol.bracket == (1.0, 1.0)

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(("linear", "power", "file")),
        kinds=st.lists(st.sampled_from(("zero", "tiny", "drawn", "largest")), min_size=1, max_size=30),
    )
    def test_scaled_batches_equal_solves_on_scaled_copies(self, seed, family, kinds, curve_dir):
        rng = np.random.default_rng(seed)
        curve = _family_curve(family, rng, curve_dir)
        p = draw_params(rng)
        factors = _scale_factors(rng, curve, kinds)
        with _cli_errstate():
            batch = _bisected([p] * len(factors), curve, factors)
        for factor, solved in zip(factors, batch):
            scaled = curve.scaled(factor)
            assert repr(solved) == repr(_solved(solve_threshold(p, scaled)))
            feasible, infeasible, steps = _scalar_solve(p, scaled)
            assert solved == (feasible, (feasible, infeasible), steps)
            assert steps in (0, 34)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(("linear", "power", "file")),
        kinds=st.lists(st.sampled_from(("zero", "tiny", "drawn", "largest")), max_size=27),
    )
    def test_the_exact_fallback_alone_equals_solves_on_scaled_copies(self, seed, family, kinds, curve_dir):
        # bounds that decide no step send every point to the exact scaled sums at every step
        rng = np.random.default_rng(seed)
        curve = _family_curve(family, rng, curve_dir)
        p = draw_params(rng)
        factors = _scale_factors(rng, curve, ["zero", "tiny", "largest", *kinds])
        built, asked = [], []

        def undecided(self, x, factors):
            asked.extend(factors.tolist())
            return np.stack((np.full(len(x), -np.inf), np.full(len(x), np.inf)))

        with (
            mock.patch.object(ReplacementCostCurve, "_cost_bounds", undecided),
            recording_cumulate(built),
            _cli_errstate(),
        ):
            batch = _bisected([p] * len(factors), curve, factors)
        # one build per step that the bounds leave undecided: here every
        # point's, at h = 1 and at each step after it
        assert built == asked == factors * (1 + max(steps for _, _, steps in batch))
        for factor, solved in zip(factors, batch):
            scaled = curve.scaled(factor)
            assert repr(solved) == repr(_solved(solve_threshold(p, scaled)))
            _assert_brackets_the_exact_threshold(solved[1], p, scaled)

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(("linear", "power", "file")),
        edges=st.lists(st.sampled_from(("none", "eps0", "costless")), min_size=1, max_size=6),
    )
    def test_every_solve_brackets_the_exact_threshold(self, seed, family, edges, curve_dir):
        rng = np.random.default_rng(seed)
        curve = _family_curve(family, rng, curve_dir)
        points = []
        for edge in edges:
            p = draw_params(rng)
            if edge == "eps0":
                p = dataclasses.replace(p, eps=0.0)
            elif edge == "costless":
                p = dataclasses.replace(p, c=0.0, w=0.0)
            if validate_params(p).admissible:
                points.append(p)
        for p, (_, bracket, _) in zip(points, _bisected(points, curve)):
            _assert_brackets_the_exact_threshold(bracket, p, curve)

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(("linear", "power", "file")),
        kinds=st.lists(st.sampled_from(("zero", "tiny", "drawn", "largest")), min_size=1, max_size=30),
    )
    def test_every_scaled_solve_brackets_the_exact_threshold(self, seed, family, kinds, curve_dir):
        rng = np.random.default_rng(seed)
        curve = _family_curve(family, rng, curve_dir)
        p = draw_params(rng)
        factors = _scale_factors(rng, curve, kinds)
        with _cli_errstate():
            batch = _bisected([p] * len(factors), curve, factors)
        for factor, (_, bracket, _) in zip(factors, batch):
            _assert_brackets_the_exact_threshold(bracket, p, curve.scaled(factor))

    def test_near_ties_at_the_first_midpoint_take_the_exact_path(self, p0):
        # 200 neighbouring factors around the one whose cost at h = 1/2
        # meets the benefit; for some, the cost from the unscaled sums and
        # the exact one fall on opposite sides of it, so only the exact
        # path can decide that step
        curve = ReplacementCostCurve.linear(1000.0, resolution=10_000)
        rate, benefit = gamma_bar(p0), credibility_slope(p0) * 0.5
        x = np.array([rate * 0.5])
        j = curve._segment_of(x)
        factors = [float(benefit / curve.cost(float(x[0]))) * (1.0 - 2e-14)]
        for _ in range(199):
            factors.append(float(np.nextafter(factors[-1], np.inf)))
        ties = []
        for factor in factors:
            exact = curve.scaled(factor).cost(float(x[0]))
            approx = float(curve._cost_from(factor * curve._cumulative[j], x, j, factor)[0])
            if min(exact, approx) <= benefit < max(exact, approx):
                ties.append(factor)
        assert ties
        built = []
        with recording_cumulate(built), _cli_errstate():
            batch = _bisected([p0] * len(factors), curve, factors)
        assert set(ties) <= set(built)
        for factor, solved in zip(factors, batch):
            assert repr(solved) == repr(_solved(solve_threshold(p0, curve.scaled(factor))))

    @pytest.mark.parametrize("factor", [-1.0, float("nan"), float("inf"), 1e307])
    def test_a_scale_the_curve_cannot_take_raises(self, p0, factor):
        # the batch core trusts its factors: a scaled copy raises, and a sweep flags the point
        curve = ReplacementCostCurve.from_samples([1.0, 2.0, 50.0])
        with pytest.raises(InvalidCurveError, match="scale factor"):
            curve.scaled(factor)
        table = sweep_param("curve_scale", p0, curve, [1.0, factor])
        assert column(table, "admissible") == [True, False]
        assert column(table, "reason")[1].startswith("scale factor")

    def test_an_inadmissible_point_raises(self, p0, linear_curve):
        # before any bisection
        bad = dataclasses.replace(p0, c=0.05)
        with (
            mock.patch("shirklab.equilibrium._bisect_thresholds") as bisect,
            pytest.raises(InadmissibleParamsError),
        ):
            solve_threshold(bad, linear_curve)
        bisect.assert_not_called()

    def test_equal_points_of_opposite_zero_signs_keep_their_own_rate(self, p0, linear_curve):
        # the params compare equal, yet c = w = -0.0 gives gamma_bar -0.0
        negative = solve_threshold(dataclasses.replace(p0, c=-0.0, w=-0.0), linear_curve)
        positive = solve_threshold(dataclasses.replace(p0, c=0.0, w=0.0), linear_curve)
        assert repr(negative.gamma_bar) == "-0.0" and repr(positive.gamma_bar) == "0.0"


class TestPolicy:
    def test_threshold_rule(self, p0, linear_curve):
        sol = solve_threshold(p0, linear_curve)
        gb = sol.gamma_bar
        assert policy(0.1, sol) == gb
        assert policy(0.9, sol) == 0.0
        # the crossing satisfies the feasibility condition with equality
        assert policy(sol.h_tilde, sol) == gb

    def test_an_array_of_reaches_gives_each_reach_its_rate(self, p0, linear_curve):
        sol = solve_threshold(p0, linear_curve)
        reaches = [0.0, 0.1, sol.h_tilde, np.nextafter(sol.h_tilde, 1.0), 0.9, 1.0]
        rates = policy(np.array(reaches), sol)
        assert rates.tolist() == [policy(h, sol) for h in reaches] == [sol.gamma_bar] * 3 + [0.0] * 3
        with pytest.raises(ValueError, match=r"h must lie in \[0, 1\], got 1.5"):
            policy(np.array([0.5, 1.5, -1.0]), sol)


class TestPrincipalValue:
    def test_no_technology_is_regime_free(self, p0, linear_curve):
        assert principal_value(0.0, True, p0, linear_curve) == pytest.approx(1.0, abs=1e-12)
        assert principal_value(0.0, False, p0, linear_curve) == pytest.approx(1.0, abs=1e-12)

    def test_difference_matches_the_feasibility_margin(self, p0, linear_curve):
        gb = gamma_bar(p0)
        for h in (0.05, 0.1, 0.2, 0.5):
            diff = principal_value(h, True, p0, linear_curve) - principal_value(
                h, False, p0, linear_curve
            )
            direct = h * (
                -p0.pi * p0.eps * p0.g + (1.0 - p0.pi) * (1.0 - p0.eps)
            ) - (1.0 - p0.pi) * p0.eps * linear_curve.cost(gb * h)
            assert diff == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_reference_difference_value(self, p0, linear_curve):
        gb = gamma_bar(p0)
        diff = principal_value(0.1, True, p0, linear_curve) - principal_value(
            0.1, False, p0, linear_curve
        )
        expected = 0.1 * 0.045 - 0.01 * 500.0 * (gb * 0.1) ** 2
        assert diff == pytest.approx(expected, abs=1e-12)
        assert diff > 0.0

    def test_difference_vanishes_at_the_interior_threshold(self, p0, linear_curve):
        sol = solve_threshold(p0, linear_curve)
        diff = principal_value(sol.h_tilde, True, p0, linear_curve) - principal_value(
            sol.h_tilde, False, p0, linear_curve
        )
        assert abs(diff) <= 1e-8


class TestOutputAndWelfare:
    def test_reference_values(self, p0):
        assert expected_output(0.5, "effort", p0) == pytest.approx(1.1975, abs=1e-12)
        assert expected_output(0.5, "shirk", p0) == pytest.approx(1.175, abs=1e-12)
        assert expected_output(0.0, "effort", p0) == 1.0
        assert expected_output(0.0, "shirk", p0) == 1.0

    def test_effort_output_consistent_with_per_agent_expectation(self):
        rng = np.random.default_rng(8080)
        for _ in range(100):
            p = draw_params(rng)
            h = float(rng.uniform(0.0, 1.0))
            composed = 1.0 - h + h * expected_production(
                AgentStrategy.EFFORT_FOLLOW_SIGNAL, p
            )
            assert expected_output(h, "effort", p) == pytest.approx(composed, rel=1e-13, abs=1e-13)

    def test_drop_and_welfare_loss_reference(self, p0):
        assert output_drop(0.5, p0) == pytest.approx(0.0225, abs=1e-12)
        assert welfare_loss(0.5, p0) == pytest.approx(0.0175, abs=1e-12)
        assert output_drop(0.0, p0) == 0.0
        assert welfare_loss(0.0, p0) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_closed_forms_of_an_array_equal_the_scalar_calls_bit_for_bit(self, seed):
        # sweeps call these on the whole grid, so the array results must be the scalar floats
        rng = np.random.default_rng(seed)
        p = draw_params(rng)
        reaches = np.concatenate(([0.0, -0.0, 1.0, 5e-324], rng.uniform(0.0, 1.0, 200)))
        scalar = reaches.tolist()
        for regime in ("effort", "shirk"):
            assert expected_output(reaches, regime, p).tolist() == [expected_output(h, regime, p) for h in scalar]
        assert output_drop(reaches, p).tolist() == [output_drop(h, p) for h in scalar]
        assert welfare_loss(reaches, p).tolist() == [welfare_loss(h, p) for h in scalar]
        with pytest.raises(ValueError, match=r"h must lie in \[0, 1\], got nan"):
            output_drop(np.array([0.5, np.nan]), p)

    def test_drop_equals_output_gap_and_exceeds_effort_cost(self):
        rng = np.random.default_rng(9090)
        for _ in range(200):
            p = draw_params(rng)
            h = float(rng.uniform(1e-6, 1.0))
            gap = expected_output(h, "effort", p) - expected_output(h, "shirk", p)
            assert output_drop(h, p) == pytest.approx(gap, rel=1e-11, abs=1e-13)
            assert output_drop(h, p) > p.c * h
            assert welfare_loss(h, p) > 0.0


class TestVerifyEquilibrium:
    def test_honest_solution_passes(self, p0, linear_curve):
        sol = solve_threshold(p0, linear_curve)
        assert not _failures(verify_equilibrium(sol, p0, linear_curve))

    def test_a_boundary_within_tol_of_one_passes(self, p0):
        # the bracket (h_tilde, 1) is narrower than TOL, and a reach inside
        # it may still test credible, so no sample is taken there
        scale = 2.0 * credibility_slope(p0) / (gamma_bar(p0) ** 2 * (1.0 - 5e-11))
        curve = ReplacementCostCurve.linear(scale)
        sol = solve_threshold(p0, curve)
        assert sol.bracket == (sol.h_tilde, 1.0) and sol.h_tilde == 0.9999999999417923
        failures = _failures(verify_equilibrium(sol, p0, curve))
        assert not failures, failures

    def test_inflated_threshold_fails_the_interval_check(self, p0, linear_curve):
        sol = solve_threshold(p0, linear_curve)
        corrupted = EquilibriumSolution(
            gamma_bar=sol.gamma_bar,
            h_tilde=sol.h_tilde + 0.05,
            feasible_set_nonempty=sol.feasible_set_nonempty,
            marginal_cost_at_zero=sol.marginal_cost_at_zero,
        )
        failures = _failures(verify_equilibrium(corrupted, p0, linear_curve))
        assert "feasible_below_threshold" in {check.name for check in failures}
        witness = next(c.witness for c in failures if c.name == "feasible_below_threshold")
        assert "h=" in witness

    @pytest.mark.parametrize("bracket", [None, (1.0, 1.0)])
    def test_deflated_threshold_fails_the_interval_check(self, p0, linear_curve, bracket):
        sol = solve_threshold(p0, linear_curve)
        corrupted = dataclasses.replace(sol, h_tilde=0.1, bracket=bracket or sol.bracket)
        failures = _failures(verify_equilibrium(corrupted, p0, linear_curve))
        assert [check.name for check in failures] == ["infeasible_above_threshold"]
        witness = failures[0].witness
        assert witness == f"unresolved from h_tilde=0.1 to h={corrupted.bracket[1]:.12g}"

    def test_interval_checks_agree_with_punish_feasible_at_every_sample(self):
        # the checks read their samples as one array; punish_feasible reads them one by one
        rng = np.random.default_rng(17)
        fractions = [(i + 1) / (VERIFY_SAMPLES + 1) for i in range(VERIFY_SAMPLES)]
        for _ in range(60):
            p, curve = draw_params(rng), draw_curve(rng, resolution=500)
            h_tilde = float(rng.choice([0.0, rng.uniform(), 1.0]))
            sol = dataclasses.replace(solve_threshold(p, curve), h_tilde=h_tilde, bracket=(h_tilde, h_tilde))
            checks = {check.name: check for check in verify_equilibrium(sol, p, curve)}
            below = [h_tilde * u for u in fractions]
            above = [h for h in (h_tilde + (1.0 - h_tilde) * u for u in fractions) if h > h_tilde]
            infeasible = [h for h in below if not punish_feasible(h, p, curve)]
            feasible = [h for h in above if punish_feasible(h, p, curve)]
            assert checks["feasible_below_threshold"].passed == (not infeasible)
            assert checks["infeasible_above_threshold"].passed == (not feasible)
            if infeasible:
                assert checks["feasible_below_threshold"].witness.startswith(f"infeasible at h={infeasible[0]:.12g} <")
            if feasible:
                assert checks["infeasible_above_threshold"].witness.startswith(f"feasible at h={feasible[0]:.12g} >")

    @pytest.mark.parametrize("eps", [0.1, 0.0])
    def test_samples_at_zero_reach_are_credible(self, p0, linear_curve, eps):
        # a threshold at 0 samples h = 0 only, credible as punish_feasible has
        # it; with eps = 0 the infinite slope is never multiplied by 0
        p = dataclasses.replace(p0, eps=eps)
        sol = dataclasses.replace(solve_threshold(p, linear_curve), h_tilde=0.0)
        checks = {check.name: check for check in verify_equilibrium(sol, p, linear_curve)}
        assert checks["feasible_below_threshold"].passed

    def test_solve_checks_its_params_three_times(self):
        # the command, the solve and the check each compute gamma_bar once:
        # the check reads all its feasibility samples at one rate
        config = Path(__file__).parent / "data" / "golden" / "solve_scale100.ini"
        with mock.patch.object(model, "validate_params", wraps=validate_params) as spy:
            assert main(["solve", "--config", str(config)]) == 0
        assert spy.call_count == 3

    def test_perturbed_gamma_fails_the_indifference_check(self, p0, linear_curve):
        sol = solve_threshold(p0, linear_curve)
        corrupted = EquilibriumSolution(
            gamma_bar=sol.gamma_bar + 0.01,
            h_tilde=sol.h_tilde,
            feasible_set_nonempty=sol.feasible_set_nonempty,
            marginal_cost_at_zero=sol.marginal_cost_at_zero,
        )
        failed = {check.name for check in _failures(verify_equilibrium(corrupted, p0, linear_curve))}
        assert "indifference_at_gamma_bar" in failed
