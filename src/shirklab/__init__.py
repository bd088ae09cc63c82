"""Solver and finite-agent simulation lab for a principal-agent game of
technology adoption under the threat of group shirking."""

from .errors import (
    ContractViolationError,
    ConvergenceError,
    InadmissibleParamsError,
    InvalidCurveError,
    InvalidParamsError,
)
from .model import (
    ALL_STRATEGIES,
    AgentStrategy,
    BAD,
    GOOD,
    ModelParams,
    PROSPECTIVE,
    REALIZED,
    ValidationReport,
    agent_payoff,
    best_response,
    expected_production,
    failure_probability,
    gamma_bar,
    is_admissible,
    production,
    use_probability,
    validate_params,
)
from .equilibrium import (
    EFFORT,
    SHIRK,
    EquilibriumSolution,
    ReplacementCostCurve,
    credibility_slope,
    expected_output,
    output_drop,
    policy,
    principal_value,
    punish_feasible,
    solve_threshold,
    verify_equilibrium,
    welfare_loss,
)
from .simulation import (
    BASELINE,
    COMMON,
    Deviation,
    EpisodeOutcome,
    INDEPENDENT,
    SENIORITY,
    SENIORITY_SCENARIO,
    SeniorityOrder,
    SimConfig,
    SimResult,
    StrategyProfile,
    UNIFORM_RANDOM,
    VARIABLE_COMPENSATION,
    iterated_best_response,
    monte_carlo,
    nash_check,
    policy_experiment,
    run_episode,
)
from .sweeps import SweepSpec, Table, csv_to_table, emit_csv, make_grid, sweep_h, sweep_param

__version__ = "0.1.0"
