"""Episode engine, Monte Carlo oracle equivalence, Nash checks, unraveling."""

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    REFERENCE_POINTS,
    best_response,
    draw_params,
    switched_agents,
    switched_codes,
    trace_profiles,
    traced_memory,
)
from shirklab import simulation
from shirklab.equilibrium import EFFORT, SHIRK, ReplacementCostCurve, expected_output
from shirklab.errors import ContractViolationError, InvalidParamsError
from shirklab.model import STRATEGY_TABLE, AgentStrategy, ModelParams, agent_payoff, expected_production, gamma_bar
from shirklab.simulation import (
    SimConfig,
    StrategyProfile,
    closed_form_targets,
    expected_strategy_payoffs,
    iterated_best_response,
    monte_carlo,
    nash_check,
    policy_experiment,
    run_episode,
)

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


class ScriptedRNG:
    """Scripted uniforms that record the size of every draw (None for a scalar).

    The first scalar is the quality draw; every later draw, the signal
    draws included, returns ``later`` (as an array when a size is asked for).
    """

    def __init__(self, quality, later):
        self.quality, self.later = quality, later
        self.sizes = []

    def random(self, size=None):
        value = self.quality if not self.sizes else self.later
        self.sizes.append(size)
        return value if size is None else np.full(size, value)


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

    @pytest.mark.parametrize("field", ["n_agents", "n_trials", "seed"])
    @pytest.mark.parametrize("value", [10.0, 2.5, np.float64(5.0), "10", True, False])
    def test_a_size_or_seed_that_is_not_an_integer_is_rejected(self, p0, field, value):
        with pytest.raises(InvalidParamsError, match=re.escape(f"{field} must be an integer, got {value!r}") + "$"):
            make_cfg(p0, **{field: value})

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_a_seed_outside_64_bits_is_rejected(self, p0, seed):
        with pytest.raises(InvalidParamsError, match=re.escape(f"seed must lie in [0, {2**64 - 1}], got {seed}") + "$"):
            make_cfg(p0, seed=seed)

    @pytest.mark.parametrize("value", ["0.5", None, True, False, np.True_])
    def test_an_h_that_is_not_a_number_is_rejected(self, p0, value):
        with pytest.raises(InvalidParamsError, match=re.escape(f"h must be a number, got {value!r}") + "$"):
            make_cfg(p0, h=value)

    @pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), np.int64(1), 1, 0.5])
    def test_numpy_and_python_numbers_are_accepted_as_h(self, p0, value):
        assert make_cfg(p0, h=value).access_count == make_cfg(p0, h=float(value)).access_count

    def test_numpy_integer_sizes_and_seeds_run_as_python_ints(self, p0):
        curve = ReplacementCostCurve.linear(1000.0)
        profile = StrategyProfile.symmetric(EFS, 10)
        cfg = make_cfg(p0, n_agents=np.int64(10), n_trials=np.uint32(5), seed=np.uint64(2**64 - 1))
        same = make_cfg(p0, n_agents=10, n_trials=5, seed=2**64 - 1)
        assert cfg.access_count == 5
        assert monte_carlo(cfg, profile, 0.0, curve) == monte_carlo(same, profile, 0.0, curve)


class TestStrategyProfile:
    @pytest.mark.parametrize(
        "codes",
        [[257, 2], [1.7, 2.2], [-255], [6], [float("nan")]],
        ids=["wraps", "fraction", "negative", "six", "nan"],
    )
    def test_bad_codes_are_rejected_before_the_cast(self, codes):
        with pytest.raises(ContractViolationError, match="unknown strategy codes"):
            StrategyProfile(np.array(codes))

    def test_integral_codes_of_any_dtype_are_kept(self):
        assert StrategyProfile(np.array([1.0, 5.0])).codes.tolist() == [1, 5]
        assert StrategyProfile([SNU, EFS]).codes.dtype == np.int8


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
        # a right signal about a bad technology: only the blind adopters use it
        profile = StrategyProfile(np.tile([SNU, EFS, SNU, SU, EFS, SU, SU, SNU], 5))
        episode = run_episode(cfg, profile, 0.0, linear_curve, QueueRNG([0.99, 0.5]))
        assert episode.quality == "bad"
        assert np.flatnonzero(episode.used).tolist() == np.flatnonzero(profile.codes == SU).tolist()
        # the lowest-indexed user is fired, and no one else
        assert np.flatnonzero(episode.fired).tolist() == [3]

    # quality 0.5 is good and 0.95 bad at pi = 0.9; a signal draw of 0.05 is
    # wrong and one of 0.5 right at eps = 0.1
    @pytest.mark.parametrize("signal", ["common", "independent"])
    @pytest.mark.parametrize("strategy", [EFS, SU], ids=["reads", "blind"])
    @pytest.mark.parametrize(
        "quality, later", [(0.5, 0.05), (0.95, 0.05), (0.95, 0.5)], ids=["good", "bad-wrong", "bad-right"]
    )
    @pytest.mark.parametrize(
        "gamma, firing",
        [(0.4, "uniform_random"), (0.0, "uniform_random"), (1.0, "uniform_random"), (0.4, "seniority")],
    )
    def test_draw_sizes_follow_the_contract(
        self, p0, linear_curve, signal, strategy, quality, later, gamma, firing
    ):
        cfg = make_cfg(p0, n_agents=40, signal_correlation=signal, punishment_mode=firing)
        m = cfg.access_count
        rng = ScriptedRNG(quality, later)
        profile = StrategyProfile.symmetric(strategy, cfg.n_agents)
        episode = run_episode(cfg, profile, gamma, linear_curve, rng)
        # the quality always; the signal draw(s) only when the strategy reads
        # them; m fire uniforms only on a failure under random firing at a
        # rate inside (0, 1)
        fails = quality == 0.95 and (strategy == SU or later == 0.05)
        fire = fails and firing == "uniform_random" and 0.0 < gamma < 1.0
        signal_sizes = [] if strategy == SU else [None if signal == "common" else m]
        assert rng.sizes == [None] + signal_sizes + ([m] if fire else [])
        assert episode.failure_event == fails

    def test_profile_length_mismatch_is_a_contract_violation(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=10)
        profile = StrategyProfile.symmetric(EFS, 9)
        with pytest.raises(ContractViolationError):
            run_episode(cfg, profile, 0.0, linear_curve, np.random.default_rng(0))


def test_array_holding_records_compare_by_identity(p0, linear_curve):
    # field-wise == would compare ndarrays and raise; hash would fail on them
    cfg = make_cfg(p0, n_agents=20)
    profile = StrategyProfile.symmetric(AgentStrategy.SHIRK_USE, 20)
    for make in (
        lambda: ReplacementCostCurve.linear(1000.0),
        lambda: run_episode(cfg, profile, 0.5, linear_curve, np.random.default_rng(3)),
        lambda: iterated_best_response(dataclasses.replace(cfg, punishment_mode="seniority"), profile),
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
            for strategy, regime in ((EFS, "effort"), (SU, "shirk")):
                profile = StrategyProfile.symmetric(strategy, cfg.n_agents)
                result = monte_carlo(cfg, profile, gamma, linear_curve)
                target = expected_output(cfg.h, regime, p)
                assert abs(result.output.mean - target) <= max(3 * result.output.se, 1e-12)
                payoff = result.per_strategy_payoff[strategy.label]
                target = expected_strategy_payoffs(cfg, profile, gamma)[strategy.label]
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
    def test_blind_adoption_without_punishment_is_nash(self, p0):
        cfg = make_cfg(p0, n_agents=200)
        profile = StrategyProfile.symmetric(SU, cfg.n_agents)
        assert nash_check(cfg, profile, 0.0) == []

    def test_uniform_random_firing_indexes_its_one_row_with_a_byte_per_agent(self, p0):
        # the check traced 8.6 MiB at 10^6 agents with intp row indices, and traces 2.0 MiB with int8
        n = 10**6
        cfg = make_cfg(p0, n_agents=n, n_trials=1, h=1.0)
        profile = StrategyProfile.symmetric(EFS, n)
        with traced_memory() as traced:
            deviations = nash_check(cfg, profile, 0.5)
        assert deviations == []
        assert traced.peak < 4 * 2**20

    def test_research_above_the_threshold_rate_is_nash(self, p0):
        cfg = make_cfg(p0, n_agents=200)
        profile = StrategyProfile.symmetric(EFS, cfg.n_agents)
        assert nash_check(cfg, profile, gamma_bar(p0) * 1.01) == []

    def test_research_without_punishment_unravels_for_every_access_agent(self, p0):
        cfg = make_cfg(p0, n_agents=200)
        profile = StrategyProfile.symmetric(EFS, cfg.n_agents)
        deviations = nash_check(cfg, profile, 0.0)
        assert len(deviations) == cfg.access_count
        assert all(d.better == SU for d in deviations)
        expected_gain = agent_payoff(SU, 0.0, p0) - agent_payoff(EFS, 0.0, p0)
        assert all(d.gain == pytest.approx(expected_gain, rel=1e-12) for d in deviations)

    def test_consistency_with_single_agent_best_response(self):
        rng = np.random.default_rng(314)
        for _ in range(40):
            p = draw_params(rng)
            gb = gamma_bar(p)
            cfg = SimConfig(params=p, n_agents=10, n_trials=1, seed=0, h=1.0)
            for gamma in (0.0, gb * 0.5, min(1.0, gb * 1.05), min(1.0, gb * 2.0)):
                for strategy in AgentStrategy:
                    profile = StrategyProfile.symmetric(strategy, cfg.n_agents)
                    deviations = nash_check(cfg, profile, gamma)
                    if strategy in best_response(gamma, p):
                        assert deviations == []
                    else:
                        assert len(deviations) == cfg.n_agents

    @pytest.mark.parametrize(
        "current",
        # the best payoff, a gap of 1.00009e-12 that the tolerance's own
        # rounding leaves a tie, the float below it, and a clear shortfall
        [1.6089617403047425, 1.6089617403037424, 1.6089617403037422, 1.6089617393047425],
    )
    def test_a_deviation_is_listed_exactly_when_best_responses_switch(self, p0, current):
        best = 1.6089617403047425
        row = np.array([best if s == EFS else current if s == SU else 0.0 for s in AgentStrategy])

        def table(cfg, codes, policy_gamma):
            return row[None, :], np.zeros(len(codes), dtype=np.intp)

        cfg = make_cfg(p0, n_agents=20, h=1.0)
        profile = StrategyProfile.symmetric(SU, cfg.n_agents)
        with mock.patch.object(simulation, "_deviation_payoff_table", table):
            deviations = nash_check(cfg, profile, 0.0)
            trace = iterated_best_response(cfg, profile)
        assert trace.converged
        assert (deviations == []) == (trace.rounds == 0)
        assert all(d.gain == best - current and d.better == EFS for d in deviations)

    def test_seniority_mode_research_profile_is_nash(self, p0):
        cfg = make_cfg(p0, n_agents=50, h=1.0, punishment_mode="seniority")
        profile = StrategyProfile.symmetric(EFS, cfg.n_agents)
        assert nash_check(cfg, profile, 0.0) == []

    def test_seniority_shields_everyone_but_the_most_senior_shirker(self, p0):
        cfg = make_cfg(p0, n_agents=30, h=1.0, punishment_mode="seniority")
        profile = StrategyProfile.symmetric(SU, cfg.n_agents)
        deviations = nash_check(cfg, profile, 0.0)
        assert [d.agent for d in deviations] == [0]
        assert deviations[0].better == EFS

    def test_independent_signals_seniority_matches_common_on_the_top_agent(self, p0):
        for mode in ("common", "independent"):
            cfg = make_cfg(
                p0, n_agents=30, h=1.0, punishment_mode="seniority", signal_correlation=mode
            )
            profile = StrategyProfile.symmetric(SU, cfg.n_agents)
            deviations = nash_check(cfg, profile, 0.0)
            assert [d.agent for d in deviations] == [0]

    def test_rounding_noise_is_no_deviation(self):
        # an agent never fired gets 1.8 + v_c from shirk_use and from effort_follow_signal alike; the payoffs once
        # summed over the four states put effort 1.16e-10 short under common signals, a false deviation
        p = ModelParams(pi=0.9, eps=0.1, g=1.0, c=0.0, w=0.0, v_c=1e6)
        codes = np.array([SU, EFS, EFS], dtype=np.int8)
        for signal in ("common", "independent"):
            cfg = make_cfg(p, n_agents=3, h=1.0, compensation="realized", punishment_mode="seniority",
                           signal_correlation=signal)
            rows, row_of_agent = simulation._deviation_payoff_table(cfg, codes, 0.0)
            assert rows[row_of_agent[1], SU] == rows[row_of_agent[1], EFS] == 1.8 + p.v_c
            assert [d.agent for d in nash_check(cfg, StrategyProfile(codes), 0.0)] == [0]
        uniform = make_cfg(p, n_agents=3, h=1.0, compensation="realized")
        assert [d.agent for d in nash_check(uniform, StrategyProfile(codes), 0.0)] == []

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

    def test_every_profile_targets_its_summed_production(self):
        # every profile is held to the production of its agents, one by one, and
        # one per inert agent; a pure one also meets its closed-form line
        rng = np.random.default_rng(4711)
        mixed = pure = 0
        for trial in range(300):
            p = draw_params(rng)
            n = int(rng.integers(1, 60))
            cfg = make_cfg(p, n_agents=n, h=float(rng.uniform(0.0, 1.0)))
            m = cfg.access_count
            codes = rng.integers(0, len(AgentStrategy), size=n)
            if trial % 4 == 0:
                codes = np.full(n, int(EFS if trial % 8 else SU))
            elif rng.random() < 0.5:
                # mostly shirk_use with a few flips, as unraveling leaves it
                codes = np.where(rng.random(n) < 0.1, codes, int(SU))
            targets = closed_form_targets(cfg, StrategyProfile(codes), 0.0)
            production = sum(expected_production(AgentStrategy(int(code)), p) for code in codes[:m])
            output = ((n - m) + production) / n
            researchers = sum(STRATEGY_TABLE[code][0] for code in codes[:m])
            assert targets["output"] == pytest.approx(output, rel=1e-12)
            assert targets["welfare"] == pytest.approx(output - p.c * researchers / n, rel=1e-12)
            for regime, code in ((EFFORT, EFS), (SHIRK, SU)):
                if m and np.all(codes[:m] == code):
                    pure += 1
                    assert targets["output"] == pytest.approx(expected_output(m / n, regime, p), rel=1e-12)
                    break
            else:
                mixed += m > 0
        assert mixed > 100 and pure > 50

    @pytest.mark.parametrize("targets", [expected_strategy_payoffs, closed_form_targets])
    @pytest.mark.parametrize(
        "signal, firing",
        [("common", "uniform_random"), ("common", "seniority"), ("independent", "seniority")],
    )
    def test_payoff_targets_check_their_inputs(self, p0, targets, signal, firing):
        cfg = make_cfg(p0, n_agents=10, h=0.5, signal_correlation=signal, punishment_mode=firing)
        for n_agents in (3, 40):
            with pytest.raises(ContractViolationError, match="profile length"):
                targets(cfg, StrategyProfile.symmetric(SU, n_agents), 0.0)
        with pytest.raises(ValueError, match="policy_gamma"):
            targets(cfg, StrategyProfile.symmetric(SU, 10), 7.0)


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
        assert switched_agents(trace) == [[0], [1], [2], [3], [4], [5]]

    def test_fixed_point_detected_immediately(self, p0):
        cfg = SimConfig(params=p0, n_agents=10, n_trials=1, seed=0, h=1.0, punishment_mode="seniority")
        trace = iterated_best_response(cfg, StrategyProfile.symmetric(EFS, 10))
        assert trace.converged
        assert trace.rounds == 0
        assert len(trace_profiles(trace)) == 1
        assert trace.final == trace.initial

    def test_trace_stores_diffs_and_rebuilds_profiles(self, p0):
        cfg = SimConfig(params=p0, n_agents=8, n_trials=1, seed=0, h=0.5, punishment_mode="seniority")
        start = StrategyProfile.symmetric(SU, 8)
        trace = iterated_best_response(cfg, start)
        assert trace.initial == start
        assert switched_agents(trace) == [[0], [1], [2], [3]]
        assert [codes.tolist() for codes in switched_codes(trace)] == [[int(EFS)]] * 4
        profiles = trace_profiles(trace)
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

    @pytest.mark.parametrize("max_rounds", [2.5, 3.0, np.float64(3.0), "3", True, False])
    def test_a_round_cap_that_is_not_an_integer_is_rejected_before_any_round(self, p0, max_rounds):
        cfg = SimConfig(params=p0, n_agents=10, n_trials=1, seed=0, h=1.0, punishment_mode="seniority")
        with mock.patch.object(simulation, "_table_switches", wraps=simulation._table_switches) as table:
            with pytest.raises(TypeError, match=re.escape(f"max_rounds must be an integer, got {max_rounds!r}") + "$"):
                iterated_best_response(cfg, StrategyProfile.symmetric(SU, 10), max_rounds=max_rounds)
        assert not table.called

    def test_a_numpy_integer_round_cap_is_accepted(self, p0):
        cfg = SimConfig(params=p0, n_agents=10, n_trials=1, seed=0, h=1.0, punishment_mode="seniority")
        trace = iterated_best_response(cfg, StrategyProfile.symmetric(SU, 10), max_rounds=np.int64(3))
        assert (trace.rounds, trace.converged) == (3, False)

    @pytest.mark.parametrize("max_rounds", [-1, -437])
    def test_a_negative_round_cap_is_rejected(self, p0, max_rounds):
        cfg = SimConfig(params=p0, n_agents=10, n_trials=1, seed=0, h=1.0, punishment_mode="seniority")
        with pytest.raises(ValueError, match=f"max_rounds must be nonnegative, got {max_rounds}$"):
            iterated_best_response(cfg, StrategyProfile.symmetric(SU, 10), max_rounds=max_rounds)

    def test_a_million_agents_unravel_in_a_few_steps(self, p0):
        # 500000 rounds of one switch each: all but the first two and the last are played ahead in one step; the
        # trace's int64 agents and offsets take 4 MB each (playing every round peaked at 121 MiB)
        n = 10**6
        cfg = SimConfig(params=p0, n_agents=n, n_trials=1, seed=0, h=0.5, punishment_mode="seniority")
        start = StrategyProfile.symmetric(SU, n)
        with traced_memory() as traced:
            trace = iterated_best_response(cfg, start)
        assert (trace.rounds, trace.converged) == (500000, True)
        assert (trace.final.codes[:500000] == int(EFS)).all() and (trace.final.codes[500000:] == int(SU)).all()
        assert np.array_equal(trace.agents, np.arange(500000))
        assert np.array_equal(trace.offsets, np.arange(500001))
        assert trace.new_codes.dtype == np.int8 and (trace.new_codes == int(EFS)).all()
        assert len(trace.new_codes) == 500000
        assert traced.peak < 20 * 2**20

    def test_32000_agents_unravel_one_agent_a_round(self, p0):
        # 16000 rounds, each switching the next agent alone
        n = 32000
        cfg = SimConfig(params=p0, n_agents=n, n_trials=1, seed=0, h=0.5, punishment_mode="seniority")
        trace = iterated_best_response(cfg, StrategyProfile.symmetric(SU, n))
        assert trace.rounds == 16000
        assert switched_agents(trace) == [[k] for k in range(16000)]
        assert all(codes.dtype == np.int8 and codes.tolist() == [int(EFS)] for codes in switched_codes(trace))
        assert trace.converged
        assert (trace.final.codes[:16000] == int(EFS)).all()
        assert (trace.final.codes[16000:] == int(SU)).all()


class TestPolicyExperiment:
    def test_above_threshold_treatments_restore_effort(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=400, n_trials=600, seed=21, h=0.5)
        baseline, treatment, unraveled = policy_experiment(cfg, linear_curve).scenarios
        assert baseline.profile_label == SU.label
        assert baseline.gamma == 0.0
        assert baseline.deviation_count == 0
        assert baseline.target_output == pytest.approx(1.175)
        assert treatment.profile_label == EFS.label
        assert treatment.deviation_count == 0
        assert treatment.target_output == pytest.approx(1.1975)

        assert unraveled.profile_label == EFS.label
        assert unraveled.deviation_count == 0
        assert unraveled.unraveling_rounds == cfg.access_count
        assert unraveled.result.replacement_cost.mean > 0.0

    def test_the_unraveling_line_names_what_the_best_responses_reached(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=300, n_trials=50, seed=909, h=0.5, signal_correlation="independent")
        baseline, _, unraveled = policy_experiment(cfg, linear_curve).scenarios
        assert unraveled.profile_label == "mixed"
        assert (unraveled.unraveling_rounds, unraveled.converged) == (15, True)
        assert unraveled.summary().endswith("\n  best responses settled on a mixed profile in 15 rounds")
        capped = dataclasses.replace(unraveled, converged=False)
        assert capped.summary().endswith("\n  stopped at the round cap of 15 rounds without settling")
        effort = dataclasses.replace(unraveled, profile_label=EFS.label)
        assert effort.summary().endswith("\n  unraveled to effort in 15 rounds")
        assert "rounds" not in baseline.summary()

    def test_below_threshold_all_scenarios_share_the_effort_path(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=400, n_trials=300, seed=33, h=0.1)
        report = policy_experiment(cfg, linear_curve)
        outputs = {scenario.result.output.mean for scenario in report.scenarios}
        assert len(outputs) == 1
        assert report.scenarios[0].gamma == pytest.approx(gamma_bar(p0))
        assert report.scenarios[0].profile_label == EFS.label

    def test_one_call_runs_the_baseline_once_then_each_treatment(self, p0, linear_curve):
        cfg = make_cfg(p0, n_agents=200, n_trials=100, seed=8, h=0.5)
        report = policy_experiment(cfg, linear_curve)
        assert [s.name for s in report.scenarios] == ["baseline", "variable_compensation", "seniority"]
