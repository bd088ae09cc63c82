"""Episode engine, Monte Carlo oracle equivalence, Nash checks, unraveling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_POINTS, draw_params
from shirklab import (
    AgentStrategy,
    ContractViolationError,
    InvalidParamsError,
    ModelParams,
    ReplacementCostCurve,
    SeniorityOrder,
    SimConfig,
    StrategyProfile,
    agent_payoff,
    best_response,
    expected_output,
    gamma_bar,
    iterated_best_response,
    monte_carlo,
    nash_check,
    policy_experiment,
    run_episode,
)
from shirklab.simulation import expected_strategy_payoffs

EFS = AgentStrategy.EFFORT_FOLLOW_SIGNAL
SU = AgentStrategy.SHIRK_USE
SNU = AgentStrategy.SHIRK_NO_USE


class QueueRNG:
    """Feeds scripted scalar uniforms, then falls back to a real generator."""

    def __init__(self, scalars, fallback_seed=0):
        self.scalars = list(scalars)
        self.fallback = np.random.default_rng(fallback_seed)

    def random(self, size=None):
        if size is None:
            if self.scalars:
                return self.scalars.pop(0)
            return self.fallback.random()
        return self.fallback.random(size)


def make_cfg(p, **overrides):
    defaults = dict(n_agents=1000, n_trials=200, seed=5, h=0.5)
    defaults.update(overrides)
    return SimConfig(params=p, **defaults)


class TestSimConfig:
    @pytest.mark.parametrize(
        "field, cap, above",
        [("n_agents", 10**7, 10**7 + 1), ("n_agents", 10**7, 10**300), ("n_trials", 10**6, 10**6 + 1)],
        ids=["agents-cap+1", "agents-1e300", "trials-cap+1"],
    )
    def test_sizes_above_the_caps_are_rejected(self, p0, field, cap, above):
        with pytest.raises(InvalidParamsError, match=f"{field} must lie in \\[1, {cap}\\]"):
            make_cfg(p0, **{field: above})
        assert getattr(make_cfg(p0, **{field: cap}), field) == cap


class TestRunEpisode:
    def test_forced_failure_path_fires_about_gamma_of_the_access_set(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=10_000)
        profile = StrategyProfile.symmetric(EFS, cfg.n_agents)
        gb = gamma_bar(p0)
        # quality draw 0.95 >= pi makes the technology bad; signal draw
        # 0.05 < eps makes the shared signal wrong, so everyone adopts
        episode = run_episode(cfg, profile, gb, linear_curve, QueueRNG([0.95, 0.05]))
        m = cfg.access_count
        assert episode.quality == "bad"
        assert episode.used.all() and episode.failure_event
        assert (episode.produced == 0.0).all()
        binomial_sd = math.sqrt(gb * (1.0 - gb) / m)
        assert abs(episode.fired_count / m - gb) <= 5.0 * binomial_sd
        assert episode.replacement_cost == linear_curve.cost(episode.fired_count / cfg.n_agents)

    def test_good_quality_blind_adoption_is_deterministic(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=400, h=1.0)
        profile = StrategyProfile.symmetric(SU, cfg.n_agents)
        episode = run_episode(cfg, profile, 0.3, linear_curve, QueueRNG([0.5, 0.5]))
        assert episode.quality == "good"
        assert episode.output == pytest.approx(1.5, abs=1e-12)
        assert episode.wages == pytest.approx(p0.w, abs=1e-15)
        assert episode.fired_count == 0

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_ignoring_the_technology_is_riskless_for_any_rng_state(self, seed):
        p = ModelParams(pi=0.9, eps=0.1, g=0.5, c=0.01, w=0.05, v_c=1.0)
        curve = ReplacementCostCurve.linear(1000.0, resolution=500)
        cfg = SimConfig(params=p, n_agents=50, n_trials=1, seed=0, h=0.6)
        profile = StrategyProfile.symmetric(SNU, cfg.n_agents)
        episode = run_episode(cfg, profile, 1.0, curve, np.random.default_rng(seed))
        assert episode.output == 1.0
        assert episode.wages == 0.0
        assert episode.fired_count == 0
        assert not episode.failure_event

    def test_welfare_identity_holds_per_episode(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=300)
        profile = StrategyProfile.symmetric(EFS, cfg.n_agents)
        for seed in range(10):
            episode = run_episode(cfg, profile, 0.5, linear_curve, np.random.default_rng(seed))
            assert episode.welfare == episode.output - episode.effort_cost
            # fired implies zero production
            assert episode.produced[episode.fired].sum() == 0.0

    def test_realized_compensation_pays_production(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=200, compensation="realized")
        profile = StrategyProfile.symmetric(EFS, cfg.n_agents)
        episode = run_episode(cfg, profile, 0.0, linear_curve, np.random.default_rng(3))
        assert np.array_equal(episode.wage_paid, episode.produced)
        # inert agents are paid their unit production too
        assert episode.wages == pytest.approx(
            (episode.produced.sum() + (cfg.n_agents - cfg.access_count)) / cfg.n_agents
        )

    def test_seniority_mode_fires_exactly_the_selector(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=40, h=1.0, punishment_mode="seniority")
        profile = StrategyProfile.symmetric(SU, cfg.n_agents)
        order = SeniorityOrder.from_permutation(list(range(39, -1, -1)))
        episode = run_episode(cfg, profile, 0.0, linear_curve, QueueRNG([0.99, 0.5]), order)
        assert episode.quality == "bad"
        assert episode.fired_count == 1
        assert episode.fired[39]  # most senior under the reversed order

    def test_profile_length_mismatch_is_a_contract_violation(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=10)
        profile = StrategyProfile.symmetric(EFS, 9)
        with pytest.raises(ContractViolationError):
            run_episode(cfg, profile, 0.0, linear_curve, np.random.default_rng(0))


class TestSeniorityOrder:
    def test_permutations_are_accepted(self):
        order = SeniorityOrder.from_permutation([2, 0, 3, 1])
        assert order.rank.tolist() == [1, 3, 0, 2]
        assert SeniorityOrder.identity(0).rank.size == 0

    @pytest.mark.parametrize(
        "ranks",
        [[0, 1, 1], [0, 0, 0], [0, 1, 3], [1, 2, 3], [-1, 0, 1], [0, -2, 2], [[0, 1], [1, 0]]],
        ids=["duplicate", "all-equal", "gap", "shifted", "negative", "negative-gap", "two-dimensional"],
    )
    def test_non_permutations_are_rejected(self, ranks):
        with pytest.raises(ContractViolationError, match="permutation"):
            SeniorityOrder(np.array(ranks))


def test_array_holding_records_compare_by_identity(p0, linear_curve):
    # field-wise == would compare ndarrays and raise; hash would fail on them
    cfg = make_cfg(p0, n_agents=20)
    profile = StrategyProfile.symmetric(AgentStrategy.SHIRK_USE, 20)
    for make in (
        lambda: ReplacementCostCurve.linear(1000.0),
        lambda: SeniorityOrder.identity(20),
        lambda: run_episode(cfg, profile, 0.5, linear_curve, np.random.default_rng(3)),
    ):
        first, second = make(), make()
        assert first == first and first != second
        assert hash(first) == hash(first) and len({first, second}) == 2


class TestMonteCarlo:
    def test_determinism_and_thread_independence(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=300, n_trials=150)
        profile = StrategyProfile.symmetric(EFS, cfg.n_agents)
        gb = gamma_bar(p0)
        first = monte_carlo(cfg, profile, gb, linear_curve)
        second = monte_carlo(cfg, profile, gb, linear_curve)
        assert first == second

    def test_oracle_equivalence_across_points_and_signal_modes(self, linear_curve):
        """Simulated means must track the closed forms within 3 standard errors."""
        for index, p in enumerate(REFERENCE_POINTS):
            gb = gamma_bar(p)
            gamma = min(1.0, gb * 1.1)
            for mode_index, mode in enumerate(("common", "independent")):
                cfg = SimConfig(
                    params=p,
                    n_agents=400,
                    n_trials=1200,
                    seed=1000 + 10 * index + mode_index,
                    h=0.5,
                    signal_correlation=mode,
                )
                eff = StrategyProfile.symmetric(EFS, cfg.n_agents)
                shirk = StrategyProfile.symmetric(SU, cfg.n_agents)
                r_eff = monte_carlo(cfg, eff, gamma, linear_curve)
                r_shirk = monte_carlo(cfg, shirk, 0.0, linear_curve)

                target_eff = expected_output(cfg.h, "effort", p)
                target_shirk = expected_output(cfg.h, "shirk", p)
                assert abs(r_eff.output.mean - target_eff) <= max(3 * r_eff.output.se, 1e-12)
                assert abs(r_shirk.output.mean - target_shirk) <= max(3 * r_shirk.output.se, 1e-12)

                payoff = r_eff.per_strategy_payoff[EFS.label]
                target_payoff = agent_payoff(EFS, gamma, p)
                assert abs(payoff.mean - target_payoff) <= max(3 * payoff.se, 1e-12)
                payoff_s = r_shirk.per_strategy_payoff[SU.label]
                target_payoff_s = agent_payoff(SU, 0.0, p)
                assert abs(payoff_s.mean - target_payoff_s) <= max(3 * payoff_s.se, 1e-12)

                gap = r_eff.welfare.mean - r_shirk.welfare.mean
                gap_se = math.hypot(r_eff.welfare.se, r_shirk.welfare.se)
                drop = target_eff - p.c * cfg.h - target_shirk
                assert abs(gap - drop) <= max(3 * gap_se, 1e-12)

    @pytest.mark.parametrize("signal", ["common", "independent"])
    @pytest.mark.parametrize(
        "compensation, firing",
        [("realized", "uniform_random"), ("prospective", "seniority"), ("realized", "seniority")],
    )
    def test_seniority_and_realized_pay_track_the_closed_forms(self, linear_curve, signal, compensation, firing):
        """Every mode the uniform-random test above leaves out, within 3 standard errors."""
        for index, p in enumerate(REFERENCE_POINTS):
            cfg = SimConfig(
                params=p,
                n_agents=400,
                n_trials=1500,
                seed=2000 + index,
                h=0.5,
                signal_correlation=signal,
                compensation=compensation,
                punishment_mode=firing,
            )
            gamma = min(1.0, 1.1 * gamma_bar(p)) if firing == "uniform_random" else 0.0
            order = SeniorityOrder.from_permutation(np.random.default_rng(index).permutation(cfg.n_agents))
            for strategy, regime in ((EFS, "effort"), (SU, "shirk")):
                profile = StrategyProfile.symmetric(strategy, cfg.n_agents)
                result = monte_carlo(cfg, profile, gamma, linear_curve, order)
                target = expected_output(cfg.h, regime, p)
                assert abs(result.output.mean - target) <= max(3 * result.output.se, 1e-12)
                payoff = result.per_strategy_payoff[strategy.label]
                target = expected_strategy_payoffs(cfg, profile, gamma, order)[strategy.label]
                assert abs(payoff.mean - target) <= max(3 * payoff.se, 1e-12)

    def test_signal_correlation_preserves_means_but_not_variance(self, p0, linear_curve):
        gb = gamma_bar(p0)
        results = {}
        for mode in ("common", "independent"):
            cfg = make_cfg(p0, n_agents=300, n_trials=1500, seed=42, signal_correlation=mode)
            profile = StrategyProfile.symmetric(EFS, cfg.n_agents)
            results[mode] = monte_carlo(cfg, profile, gb, linear_curve)
        common, independent = results["common"], results["independent"]
        combined_se = math.hypot(common.output.se, independent.output.se)
        assert abs(common.output.mean - independent.output.mean) <= 3 * combined_se
        # shared signal errors correlate failures, inflating across-trial variance
        assert common.output.se > 1.1 * independent.output.se

    def test_failure_frequency_matches_the_joint_error_probability(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=500, n_trials=4000, seed=8)
        profile = StrategyProfile.symmetric(EFS, cfg.n_agents)
        result = monte_carlo(cfg, profile, gamma_bar(p0), linear_curve)
        target = (1.0 - p0.pi) * p0.eps
        se = math.sqrt(target * (1.0 - target) / cfg.n_trials)
        assert abs(result.failure_frequency - target) <= 4 * se

    def test_trace_dump_is_line_delimited(self, p0, linear_curve, tmp_path):
        cfg = make_cfg(p0, n_agents=50, n_trials=7)
        profile = StrategyProfile.symmetric(EFS, cfg.n_agents)
        path = tmp_path / "trace.jsonl"
        monte_carlo(cfg, profile, 0.2, linear_curve, trace_path=str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 7
        assert all(line.startswith("{") for line in lines)


class TestNashCheck:
    def test_blind_adoption_without_punishment_is_nash(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=200)
        profile = StrategyProfile.symmetric(SU, cfg.n_agents)
        assert nash_check(cfg, profile, 0.0, linear_curve) == []

    def test_research_above_the_threshold_rate_is_nash(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=200)
        profile = StrategyProfile.symmetric(EFS, cfg.n_agents)
        assert nash_check(cfg, profile, gamma_bar(p0) * 1.01, linear_curve) == []

    def test_research_without_punishment_unravels_for_every_access_agent(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=200)
        profile = StrategyProfile.symmetric(EFS, cfg.n_agents)
        deviations = nash_check(cfg, profile, 0.0, linear_curve)
        assert len(deviations) == cfg.access_count
        assert all(d.better == SU for d in deviations)
        expected_gain = agent_payoff(SU, 0.0, p0) - agent_payoff(EFS, 0.0, p0)
        assert all(d.gain == pytest.approx(expected_gain, rel=1e-12) for d in deviations)

    def test_consistency_with_single_agent_best_response(self, linear_curve):
        rng = np.random.default_rng(314)
        for _ in range(40):
            p = draw_params(rng)
            gb = gamma_bar(p)
            cfg = SimConfig(params=p, n_agents=10, n_trials=1, seed=0, h=1.0)
            for gamma in (0.0, gb * 0.5, min(1.0, gb * 1.05), min(1.0, gb * 2.0)):
                for strategy in AgentStrategy:
                    profile = StrategyProfile.symmetric(strategy, cfg.n_agents)
                    deviations = nash_check(cfg, profile, gamma, linear_curve)
                    if strategy in best_response(gamma, p):
                        assert deviations == []
                    else:
                        assert len(deviations) == cfg.n_agents

    def test_seniority_mode_research_profile_is_nash(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=50, h=1.0, punishment_mode="seniority")
        profile = StrategyProfile.symmetric(EFS, cfg.n_agents)
        assert nash_check(cfg, profile, 0.0, linear_curve) == []

    def test_seniority_shields_everyone_but_the_most_senior_shirker(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=30, h=1.0, punishment_mode="seniority")
        profile = StrategyProfile.symmetric(SU, cfg.n_agents)
        deviations = nash_check(cfg, profile, 0.0, linear_curve)
        assert [d.agent for d in deviations] == [0]
        assert deviations[0].better == EFS

    def test_independent_signals_seniority_matches_common_on_the_top_agent(self, p0, linear_curve):
        for mode in ("common", "independent"):
            cfg = make_cfg(
                p0, n_agents=30, h=1.0, punishment_mode="seniority", signal_correlation=mode
            )
            profile = StrategyProfile.symmetric(SU, cfg.n_agents)
            deviations = nash_check(cfg, profile, 0.0, linear_curve)
            assert [d.agent for d in deviations] == [0]

    def test_expected_strategy_payoffs_match_the_closed_forms(self, p0):
        cfg = make_cfg(p0, n_agents=100, h=0.5)
        profile = StrategyProfile.symmetric(EFS, cfg.n_agents)
        gb = gamma_bar(p0)
        assert expected_strategy_payoffs(cfg, profile, gb) == {EFS.label: agent_payoff(EFS, gb, p0)}
        m = cfg.access_count
        for signal in ("common", "independent"):
            seniority = make_cfg(p0, n_agents=100, h=0.5, punishment_mode="seniority", signal_correlation=signal)
            shirkers = StrategyProfile.symmetric(SU, seniority.n_agents)
            payoff = expected_strategy_payoffs(seniority, shirkers, 0.0)[SU.label]
            assert payoff == pytest.approx(p0.w + p0.v_c * (1.0 - (1.0 - p0.pi) / m), rel=1e-12)


class TestIteratedBestResponse:
    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_unraveling_reaches_all_effort_within_n_rounds(self, p0, n):
        cfg = SimConfig(params=p0, n_agents=n, n_trials=1, seed=0, h=1.0, punishment_mode="seniority")
        start = StrategyProfile.symmetric(SU, n)
        trace = iterated_best_response(cfg, start)
        assert trace.converged
        assert trace.rounds <= n
        assert (trace.final.codes == int(EFS)).all()

    def test_one_agent_flips_per_round_in_seniority_order(self, p0):
        cfg = SimConfig(params=p0, n_agents=6, n_trials=1, seed=0, h=1.0, punishment_mode="seniority")
        trace = iterated_best_response(cfg, StrategyProfile.symmetric(SU, 6))
        assert trace.changed == [[0], [1], [2], [3], [4], [5]]

    def test_fixed_point_detected_immediately(self, p0):
        cfg = SimConfig(params=p0, n_agents=10, n_trials=1, seed=0, h=1.0, punishment_mode="seniority")
        trace = iterated_best_response(cfg, StrategyProfile.symmetric(EFS, 10))
        assert trace.converged
        assert trace.rounds == 0
        assert len(trace.profiles) == 1

    def test_trace_stores_diffs_and_rebuilds_profiles(self, p0):
        cfg = SimConfig(params=p0, n_agents=8, n_trials=1, seed=0, h=0.5, punishment_mode="seniority")
        start = StrategyProfile.symmetric(SU, 8)
        trace = iterated_best_response(cfg, start)
        assert trace.initial == start
        assert trace.changed == [[0], [1], [2], [3]]
        assert [codes.tolist() for codes in trace.switched_to] == [[int(EFS)]] * 4
        profiles = trace.profiles
        assert len(profiles) == trace.rounds + 1 == 5
        for k, profile in enumerate(profiles):
            expected = [int(EFS)] * k + [int(SU)] * (8 - k)
            assert profile.codes.tolist() == expected
        assert trace.final == profiles[-1]
        assert start.codes.tolist() == [int(SU)] * 8

    def test_round_cap_reports_nonconvergence(self, p0):
        cfg = SimConfig(params=p0, n_agents=10, n_trials=1, seed=0, h=1.0, punishment_mode="seniority")
        trace = iterated_best_response(cfg, StrategyProfile.symmetric(SU, 10), max_rounds=3)
        assert not trace.converged
        assert trace.rounds == 3


class TestPolicyExperiment:
    def test_above_threshold_treatments_restore_effort(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=400, n_trials=600, seed=21, h=0.5)
        variable = policy_experiment(cfg, "variable_compensation", linear_curve)
        baseline, treatment = variable.scenarios
        assert baseline.profile_label == SU.label
        assert baseline.gamma == 0.0
        assert baseline.equilibrium_confirmed
        assert baseline.target_output == pytest.approx(1.175)
        assert treatment.profile_label == EFS.label
        assert treatment.equilibrium_confirmed
        assert treatment.target_output == pytest.approx(1.1975)

        seniority = policy_experiment(cfg, "seniority", linear_curve)
        unraveled = seniority.scenarios[1]
        assert unraveled.profile_label == EFS.label
        assert unraveled.equilibrium_confirmed
        assert unraveled.unraveling_rounds == cfg.access_count
        assert unraveled.result.replacement_cost.mean > 0.0

    def test_below_threshold_all_scenarios_share_the_effort_path(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=400, n_trials=300, seed=33, h=0.1)
        variable = policy_experiment(cfg, "variable_compensation", linear_curve)
        seniority = policy_experiment(cfg, "seniority", linear_curve)
        outputs = {
            variable.scenarios[0].result.output.mean,
            variable.scenarios[1].result.output.mean,
            seniority.scenarios[1].result.output.mean,
        }
        assert len(outputs) == 1
        assert variable.scenarios[0].gamma == pytest.approx(gamma_bar(p0))
        assert variable.scenarios[0].profile_label == EFS.label

    def test_one_call_runs_the_baseline_once_then_each_treatment(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=200, n_trials=100, seed=8, h=0.5)
        both = policy_experiment(cfg, ("variable_compensation", "seniority"), linear_curve)
        assert [s.name for s in both.scenarios] == ["baseline", "variable_compensation", "seniority"]
        variable = policy_experiment(cfg, "variable_compensation", linear_curve)
        seniority = policy_experiment(cfg, "seniority", linear_curve)
        assert both.scenarios == variable.scenarios + seniority.scenarios[1:]
        with pytest.raises(ValueError):
            policy_experiment(cfg, ("seniority", "bribery"), linear_curve)

    def test_unknown_scenario_rejected(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=10, n_trials=2)
        with pytest.raises(ValueError):
            policy_experiment(cfg, "bribery", linear_curve)
