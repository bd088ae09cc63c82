"""Replacement-cost curves, threshold solving, and closed-form comparisons."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_curve, draw_params
from shirklab import (
    AgentStrategy,
    ConvergenceError,
    EquilibriumSolution,
    InadmissibleParamsError,
    InvalidCurveError,
    ModelParams,
    ReplacementCostCurve,
    credibility_slope,
    expected_output,
    expected_production,
    gamma_bar,
    output_drop,
    policy,
    principal_value,
    punish_feasible,
    solve_threshold,
    verify_equilibrium,
    welfare_loss,
)


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
        factor=FACTORS,
        upto=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0, 0.211111111111])),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    def test_prefix_cost_equals_the_full_build_exactly(self, kind, factor, upto, fractions):
        parent = PREFIX_PARENTS[kind]
        prefix, full = parent.scaled(factor, upto), parent.scaled(factor)
        for x in [upto, 0.0] + [upto * u for u in fractions]:
            assert prefix.cost(x) == full.cost(x)

    @pytest.mark.parametrize("kind", sorted(PREFIX_PARENTS))
    def test_cost_above_the_bound_raises(self, kind):
        prefix = PREFIX_PARENTS[kind].scaled(2.0, 0.3)
        with pytest.raises(ValueError, match="up to 0.3"):
            prefix.cost(np.nextafter(0.3, 1.0))
        with pytest.raises(ValueError):
            prefix.cost(1.0)

    def test_negative_or_nan_bound_is_rejected(self):
        for upto in (-0.1, float("nan")):
            with pytest.raises(InvalidCurveError, match="upto"):
                PREFIX_PARENTS["nodes"].scaled(1.0, upto)

    @pytest.mark.parametrize("factor", [0.0, 1e-300, 0.37, 3.0, 1e6])
    @pytest.mark.parametrize("kind", sorted(PREFIX_PARENTS))
    def test_a_scaled_copy_of_a_valid_curve_passes_the_check(self, kind, factor):
        # the copy skips the check when it is built, so the check must hold of it
        PREFIX_PARENTS[kind].scaled(factor, 0.4).validate()

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

    def test_perfect_signal_makes_punishment_costless(self, linear_curve):
        p = ModelParams(pi=0.85, eps=0.0, g=0.8, c=0.05, w=0.1, v_c=2.0)
        for curve in (linear_curve, ReplacementCostCurve.linear(1e9)):
            for h in (0.0, 0.3, 1.0):
                assert punish_feasible(h, p, curve)

    def test_reach_outside_unit_interval_raises(self, p0, linear_curve):
        with pytest.raises(ValueError):
            punish_feasible(1.5, p0, linear_curve)


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
        assert sol.boundary_punish
        assert sol.marginal_cost_at_zero == 0.0

    def test_cheap_curve_clamps_to_one(self, p0):
        cheap = ReplacementCostCurve.linear(1.0)
        sol = solve_threshold(p0, cheap)
        assert sol.h_tilde == 1.0
        assert sol.boundary_punish

    def test_expensive_constant_curve_has_empty_interior(self, p0):
        pricey = ReplacementCostCurve.constant(100.0)
        sol = solve_threshold(p0, pricey)
        # cheapest replacement (100) exceeds slope/gamma_bar ~ 21.3
        assert not sol.feasible_set_nonempty
        assert sol.h_tilde <= 2.0 * sol.tol
        assert sol.marginal_cost_at_zero == pytest.approx(100.0)

    def test_perfect_signal_short_circuits(self):
        p = ModelParams(pi=0.85, eps=0.0, g=0.8, c=0.05, w=0.1, v_c=2.0)
        sol = solve_threshold(p, ReplacementCostCurve.constant(1e9))
        assert sol.h_tilde == 1.0
        assert sol.degenerate_credibility
        assert sol.feasible_set_nonempty

    def test_inadmissible_params_raise(self, linear_curve):
        p = ModelParams(pi=0.9, eps=0.1, g=0.5, c=0.05, w=0.05, v_c=1.0)
        with pytest.raises(InadmissibleParamsError):
            solve_threshold(p, linear_curve)

    def test_tampered_curve_raises(self, linear_curve):
        with pytest.raises(InvalidCurveError):
            ReplacementCostCurve(values=linear_curve.values[::-1].copy(), kind="nodes")

    def test_bad_tolerance_raises(self, p0, linear_curve):
        with pytest.raises(ValueError):
            solve_threshold(p0, linear_curve, tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tolerance_raises(self, p0, linear_curve, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            solve_threshold(p0, linear_curve, tol=tol)

    def test_tolerance_below_the_float_spacing_raises_instead_of_returning(self, p0, linear_curve):
        # near h_tilde ~ 0.2 floats are ~3e-17 apart, so the bracket stalls
        with pytest.raises(ConvergenceError, match="after 200 bisections"):
            solve_threshold(p0, linear_curve, tol=1e-20)
        # a boundary near zero has denser floats, so the same tol converges
        pricey = ReplacementCostCurve.constant(100.0)
        assert solve_threshold(p0, pricey, tol=1e-20).h_tilde <= 1e-20

    def test_bisection_diagnostics_on_the_golden_solves(self, p0, linear_curve):
        # solve_scale1000: 34 halvings take the unit bracket below 1e-10
        sol = solve_threshold(p0, linear_curve)
        assert sol.h_tilde == pytest.approx(0.201939058141, abs=1e-12)
        assert sol.bisections == 34
        feasible, infeasible = sol.bracket
        assert feasible == sol.h_tilde
        assert 0.0 < infeasible - feasible <= sol.tol
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


class TestPolicy:
    def test_threshold_rule(self, p0, linear_curve):
        sol = solve_threshold(p0, linear_curve)
        gb = sol.gamma_bar
        assert policy(0.1, sol) == gb
        assert policy(0.9, sol) == 0.0
        # the crossing satisfies the feasibility condition with equality
        assert policy(sol.h_tilde, sol) == gb

    def test_boundary_without_credibility_returns_zero(self):
        sol = EquilibriumSolution(
            gamma_bar=0.2,
            h_tilde=0.4,
            feasible_set_nonempty=True,
            marginal_cost_at_zero=0.0,
            boundary_punish=False,
            degenerate_credibility=False,
            tol=1e-10,
        )
        assert policy(0.4, sol) == 0.0


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
        report = verify_equilibrium(sol, p0, linear_curve)
        assert report.all_passed

    def test_inflated_threshold_fails_the_interval_check(self, p0, linear_curve):
        sol = solve_threshold(p0, linear_curve)
        corrupted = EquilibriumSolution(
            gamma_bar=sol.gamma_bar,
            h_tilde=sol.h_tilde + 0.05,
            feasible_set_nonempty=sol.feasible_set_nonempty,
            marginal_cost_at_zero=sol.marginal_cost_at_zero,
            boundary_punish=sol.boundary_punish,
            degenerate_credibility=sol.degenerate_credibility,
            tol=sol.tol,
        )
        report = verify_equilibrium(corrupted, p0, linear_curve)
        failed = {check.name for check in report.failures()}
        assert "feasible_below_threshold" in failed
        witness = next(c.witness for c in report.failures() if c.name == "feasible_below_threshold")
        assert "h=" in witness

    def test_perturbed_gamma_fails_the_indifference_check(self, p0, linear_curve):
        sol = solve_threshold(p0, linear_curve)
        corrupted = EquilibriumSolution(
            gamma_bar=sol.gamma_bar + 0.01,
            h_tilde=sol.h_tilde,
            feasible_set_nonempty=sol.feasible_set_nonempty,
            marginal_cost_at_zero=sol.marginal_cost_at_zero,
            boundary_punish=sol.boundary_punish,
            degenerate_credibility=sol.degenerate_credibility,
            tol=sol.tol,
        )
        report = verify_equilibrium(corrupted, p0, linear_curve)
        failed = {check.name for check in report.failures()}
        assert "indifference_at_gamma_bar" in failed
