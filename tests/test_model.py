"""Model-core contracts: validation, expected production, payoffs, best responses."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import best_response, draw_params
from shirklab.errors import InadmissibleParamsError, InvalidParamsError
from shirklab.model import (
    AgentStrategy,
    ModelParams,
    agent_payoff,
    expected_production,
    gamma_bar,
    validate_params,
)

EFS = AgentStrategy.EFFORT_FOLLOW_SIGNAL
SU = AgentStrategy.SHIRK_USE
SNU = AgentStrategy.SHIRK_NO_USE
EAU = AgentStrategy.EFFORT_ALWAYS_USE
ENU = AgentStrategy.EFFORT_NEVER_USE
CON = AgentStrategy.EFFORT_CONTRARIAN


@st.composite
def admissible_params(draw):
    pi = draw(st.floats(0.55, 0.97))
    eps = draw(st.floats(0.02, 0.42))
    g_low = eps / (1.0 - eps) * 1.05
    g_high = min((1.0 - eps) / eps, (1.0 - pi) * (1.0 - eps) / (pi * eps), 4.0) * 0.95
    assume(g_low < g_high)
    g = draw(st.floats(g_low, g_high))
    slack = (1.0 - pi) * (1.0 - eps) - pi * eps * g
    c = draw(st.floats(0.0, 0.8 * slack))
    w = draw(st.floats(0.0, 0.5))
    s = pi * (1.0 - eps) + (1.0 - pi) * eps
    bound = (c + (1.0 - s) * w) / ((1.0 - pi) * (1.0 - eps))
    v_c = bound * draw(st.floats(1.0, 5.0)) + draw(st.floats(0.01, 2.0))
    return ModelParams(pi=pi, eps=eps, g=g, c=c, w=w, v_c=v_c)


# -- validation -------------------------------------------------------------


class TestValidateParams:
    def test_reference_point_is_admissible_with_expected_slacks(self, p0):
        report = validate_params(p0)
        assert report.admissible
        by_name = {check.name: check for check in report.checks}
        assert by_name["research_efficiency"].slack == pytest.approx(0.035, abs=1e-12)
        assert by_name["growth_window_low"].slack == pytest.approx(0.5 - 1.0 / 9.0, abs=1e-12)
        assert by_name["effort_inducible"].slack == pytest.approx(1.0 - 19.0 / 90.0, abs=1e-12)

    def test_growth_window_lower_bound_violation(self):
        p = ModelParams(pi=0.9, eps=0.1, g=0.05, c=0.01, w=0.05, v_c=1.0)
        report = validate_params(p)
        assert not report.admissible
        failed = {check.name for check in report.failures()}
        assert "growth_window_low" in failed
        # the lower bound eps/(1-eps) = 1/9 exceeds g
        assert 0.05 - 1.0 / 9.0 == pytest.approx(
            next(c.slack for c in report.checks if c.name == "growth_window_low")
        )

    def test_perfect_signal_admits_any_positive_g(self):
        p = ModelParams(pi=0.9, eps=0.0, g=37.0, c=0.01, w=0.0, v_c=1.0)
        report = validate_params(p)
        assert report.admissible
        by_name = {check.name: check for check in report.checks}
        assert by_name["growth_window_high"].slack == math.inf

    def test_uninformative_signal_is_inadmissible(self):
        p = ModelParams(pi=0.9, eps=0.5, g=1.0, c=0.0, w=0.0, v_c=1.0)
        assert not validate_params(p).admissible

    def test_boundary_of_continuation_bound_is_admissible(self, p0):
        bound = (p0.c + (1.0 - p0.signal_good_prob()) * p0.w) / ((1.0 - p0.pi) * (1.0 - p0.eps))
        p = ModelParams(pi=p0.pi, eps=p0.eps, g=p0.g, c=p0.c, w=p0.w, v_c=bound)
        assert validate_params(p).admissible
        assert gamma_bar(p) == pytest.approx(1.0, abs=1e-12)

    def test_records_are_flat_tuples(self, p0):
        checks = validate_params(p0).checks
        assert {check.name for check in checks} == {
            "growth_window_low",
            "growth_window_high",
            "research_efficiency",
            "effort_inducible",
        }

    @pytest.mark.parametrize(
        "field,value",
        [("pi", 0.0), ("pi", 1.0), ("eps", -0.1), ("eps", 0.6), ("g", 0.0),
         ("c", -1e-9), ("w", -1.0), ("v_c", 0.0), ("pi", float("nan"))],
    )
    def test_out_of_range_fields_raise_naming_the_field(self, field, value):
        kwargs = dict(pi=0.9, eps=0.1, g=0.5, c=0.01, w=0.05, v_c=1.0)
        kwargs[field] = value
        with pytest.raises(InvalidParamsError, match=field):
            ModelParams(**kwargs)


# -- expected production -----------------------------------------------------


class TestExpectedProduction:
    def test_reference_values(self, p0):
        assert expected_production(EFS, p0) == pytest.approx(1.395, abs=1e-12)
        assert expected_production(SU, p0) == pytest.approx(1.35, abs=1e-12)
        assert expected_production(SNU, p0) == 1.0
        assert expected_production(CON, p0) == pytest.approx(0.955, abs=1e-12)

    @given(params=admissible_params())
    @settings(max_examples=150, deadline=None)
    def test_research_beats_blind_adoption_by_more_than_the_effort_cost(self, params):
        gap = expected_production(EFS, params) - expected_production(SU, params)
        direct = (1.0 - params.pi) * (1.0 - params.eps) - params.pi * params.eps * params.g
        assert gap == pytest.approx(direct, rel=1e-12, abs=1e-14)
        assert gap > params.c


# -- minimal punishment rate ---------------------------------------------------


class TestGammaBar:
    def test_reference_value(self, p0):
        assert gamma_bar(p0) == pytest.approx(19.0 / 90.0, abs=1e-15)

    def test_costless_effort_needs_no_threat(self):
        p = ModelParams(pi=0.9, eps=0.1, g=0.5, c=0.0, w=0.0, v_c=1.0)
        assert gamma_bar(p) == 0.0

    def test_inadmissible_params_raise(self):
        p = ModelParams(pi=0.9, eps=0.1, g=0.5, c=0.05, w=0.05, v_c=1.0)
        with pytest.raises(InadmissibleParamsError):
            gamma_bar(p)

    def test_in_unit_interval_for_random_admissible_draws(self):
        rng = np.random.default_rng(411)
        for _ in range(1000):
            p = draw_params(rng)
            assert 0.0 <= gamma_bar(p) <= 1.0


# -- payoffs ------------------------------------------------------------------


class TestAgentPayoff:
    def test_indifference_at_gamma_bar(self, p0):
        gb = gamma_bar(p0)
        eff = agent_payoff(EFS, gb, p0)
        shirk = agent_payoff(SU, gb, p0)
        assert eff == pytest.approx(463.0 / 450.0, abs=1e-12)
        assert shirk == pytest.approx(463.0 / 450.0, abs=1e-12)

    def test_without_punishment_blind_adoption_wins(self, p0):
        assert agent_payoff(SU, 0.0, p0) == pytest.approx(p0.w + p0.v_c, abs=1e-15)
        assert agent_payoff(SU, 0.0, p0) > agent_payoff(EFS, 0.0, p0)

    def test_realized_pay_rewards_research_at_zero_punishment(self, p0):
        eff = agent_payoff(EFS, 0.0, p0, comp="realized")
        shirk = agent_payoff(SU, 0.0, p0, comp="realized")
        assert eff == pytest.approx(1.395 - 0.01 + 1.0, abs=1e-12)
        assert shirk == pytest.approx(1.35 + 1.0, abs=1e-12)
        assert eff > shirk

    def test_gamma_outside_unit_interval_raises(self, p0):
        with pytest.raises(ValueError):
            agent_payoff(EFS, -0.01, p0)
        with pytest.raises(ValueError):
            agent_payoff(EFS, 1.01, p0)

    @given(params=admissible_params(), gamma=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_incentive_gap_identity(self, params, gamma):
        lhs = agent_payoff(EFS, gamma, params) - agent_payoff(SU, gamma, params)
        s = params.signal_good_prob()
        rhs = (
            (1.0 - params.pi) * (1.0 - params.eps) * gamma * params.v_c
            - params.c
            - (1.0 - s) * params.w
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13 * max(1.0, params.v_c))

    def test_incentive_gap_identity_over_1000_seeded_pairs(self):
        rng = np.random.default_rng(515)
        for _ in range(1000):
            p = draw_params(rng)
            gamma = float(rng.uniform(0.0, 1.0))
            lhs = agent_payoff(EFS, gamma, p) - agent_payoff(SU, gamma, p)
            rhs = (
                (1.0 - p.pi) * (1.0 - p.eps) * gamma * p.v_c
                - p.c
                - (1.0 - p.signal_good_prob()) * p.w
            )
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13 * max(1.0, p.v_c))

    @given(params=admissible_params(), gamma=st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_signal_wasting_effort_variants_are_dominated(self, params, gamma):
        scale = max(1.0, params.v_c)
        assert agent_payoff(EAU, gamma, params) == pytest.approx(
            agent_payoff(SU, gamma, params) - params.c, rel=1e-12, abs=1e-13 * scale
        )
        assert agent_payoff(ENU, gamma, params) == pytest.approx(
            agent_payoff(SNU, gamma, params) - params.c, rel=1e-12, abs=1e-13 * scale
        )


# -- best response --------------------------------------------------------------


class TestBestResponse:
    def test_above_threshold_research_is_unique(self, p0):
        assert best_response(0.3, p0) == {EFS}

    def test_at_zero_blind_adoption_is_unique(self, p0):
        assert best_response(0.0, p0) == {SU}

    def test_tie_at_gamma_bar(self, p0):
        assert best_response(gamma_bar(p0), p0) == {EFS, SU}

    def test_flips_exactly_at_gamma_bar_for_random_draws(self):
        """Bisect the switch point of the argmax; it must sit at gamma_bar.

        Requires the wage margin w*pi*(1-2eps) > c: without it the outside
        option (never adopting) overtakes before research becomes optimal
        and no punishment rate induces effort at all.
        """
        rng = np.random.default_rng(902)
        for _ in range(1000):
            p = draw_params(rng, wage_margin=True)
            gb = gamma_bar(p)

            def research_wins(gamma: float) -> bool:
                return agent_payoff(EFS, gamma, p) > agent_payoff(SU, gamma, p)

            assert not research_wins(0.0)
            assert research_wins(1.0)
            low, high = 0.0, 1.0
            for _ in range(80):
                mid = 0.5 * (low + high)
                if research_wins(mid):
                    high = mid
                else:
                    low = mid
            assert abs(high - gb) <= 1e-12
            delta = max(1e-9, 1e-6 * gb)
            assert best_response(gb - delta, p) == {SU}
            assert best_response(gb + delta, p) == {EFS}

    def test_realized_pay_makes_research_unique_without_punishment(self):
        rng = np.random.default_rng(903)
        for _ in range(1000):
            p = draw_params(rng, attractive=True)
            assert best_response(0.0, p, comp="realized") == {EFS}
