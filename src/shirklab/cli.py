"""Command-line entry point.

Runs are driven by a flat INI-style configuration file (``key = value``
within named sections) so that every invocation is auditable and
reproducible: a command is a pure function of the config file and the
seed, and reruns produce byte-identical output.

Subcommands: solve, simulate, sweep, experiment.
Flags: --config PATH, --seed INT, --out PATH, and for simulate --trace PATH.
Exit codes: 0 ok, 2 config error, 3 inadmissible parameters, 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys

import numpy as np

from .errors import ConvergenceError, InadmissibleParamsError, InvalidCurveError, InvalidParamsError
from .equilibrium import (
    DEFAULT_RESOLUTION,
    DEFAULT_TOL,
    EFFORT,
    SHIRK,
    ReplacementCostCurve,
    policy,
    solve_threshold,
    verify_equilibrium,
)
from .model import AgentStrategy, ModelParams, PROSPECTIVE, REALIZED, _fmt, require_admissible
from .simulation import (
    COMMON,
    INDEPENDENT,
    SENIORITY,
    SimConfig,
    StrategyProfile,
    UNIFORM_RANDOM,
    closed_form_targets,
    monte_carlo,
    policy_experiment,
)
from .sweeps import SWEEPABLE_PARAMETERS, SweepSpec, emit_csv, make_grid, sweep_h, sweep_param

OK = 0
CONFIG_ERROR = 2
INADMISSIBLE = 3
IO_ERROR = 4

_MODEL_KEYS = {"pi", "eps", "g", "c", "w", "v_c"}
_CURVE_KEYS = {"family", "file", "scale", "exponent", "level", "resolution"}
_SIMULATION_KEYS = {
    "n_agents",
    "n_trials",
    "h",
    "seed",
    "signal_correlation",
    "compensation",
    "punishment_mode",
    "profile",
    "gamma",
}
_SWEEP_KEYS = {"parameter", "grid"}
_SOLVER_KEYS = {"tol"}
_OUTPUT_KEYS = {"destination"}
_KNOWN_SECTIONS = {
    "model": _MODEL_KEYS,
    "curve": _CURVE_KEYS,
    "simulation": _SIMULATION_KEYS,
    "sweep": _SWEEP_KEYS,
    "solver": _SOLVER_KEYS,
    "output": _OUTPUT_KEYS,
}

_DEFAULTS = {
    "n_agents": 10000,
    "n_trials": 10000,
    "seed": 0,
    "signal_correlation": COMMON,
    "compensation": PROSPECTIVE,
    "punishment_mode": UNIFORM_RANDOM,
    "profile": EFFORT,
    "gamma": "equilibrium",
}


class ConfigError(Exception):
    """Malformed or incomplete run configuration."""


def _load_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), strict=True)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    for section in parser.sections():
        if section not in _KNOWN_SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_SECTIONS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
    return parser


def _get_float(parser: configparser.ConfigParser, section: str, key: str, default=None) -> float:
    if not parser.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError(f"missing required key '{key}' in section [{section}]")
    raw = parser.get(section, key)
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc


def _get_int(parser: configparser.ConfigParser, section: str, key: str, default=None) -> int:
    if parser.has_option(section, key):
        # an integer literal is read exactly; through a float, a seed above 2**53 would round
        try:
            return int(parser.get(section, key))
        except ValueError:
            pass
    value = _get_float(parser, section, key, default)
    if not math.isfinite(value) or value != int(value):
        raise ConfigError(f"[{section}] {key} must be an integer, got {value}")
    return int(value)


def _get_choice(parser, section: str, key: str, choices: tuple[str, ...], default=None) -> str:
    if not parser.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError(f"missing required key '{key}' in section [{section}]")
    value = parser.get(section, key).strip()
    if value not in choices:
        raise ConfigError(f"[{section}] {key} must be one of {choices}, got {value!r}")
    return value


def _model_params(parser: configparser.ConfigParser) -> ModelParams:
    if not parser.has_section("model"):
        raise ConfigError("missing required section [model]")
    kwargs = {key: _get_float(parser, "model", key) for key in sorted(_MODEL_KEYS)}
    try:
        return ModelParams(**kwargs)
    except InvalidParamsError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc


def _curve(parser: configparser.ConfigParser) -> ReplacementCostCurve:
    if not parser.has_section("curve"):
        raise ConfigError("missing required section [curve]")
    section = parser["curve"]
    resolution = _get_int(parser, "curve", "resolution", DEFAULT_RESOLUTION)
    if "file" in section:
        if "family" in section:
            raise ConfigError("[curve] declares both 'family' and 'file'")
        try:
            return ReplacementCostCurve.from_file(section["file"])
        except OSError as exc:
            raise ConfigError(f"cannot read curve file: {exc}") from exc
        except InvalidCurveError as exc:
            raise ConfigError(f"invalid curve: {exc}") from exc
    family = _get_choice(parser, "curve", "family", ("linear", "power", "constant"))
    try:
        if family == "linear":
            return ReplacementCostCurve.linear(_get_float(parser, "curve", "scale", 1.0), resolution)
        if family == "power":
            return ReplacementCostCurve.power(
                _get_float(parser, "curve", "scale", 1.0),
                _get_float(parser, "curve", "exponent", 2.0),
                resolution,
            )
        return ReplacementCostCurve.constant(_get_float(parser, "curve", "level", 1.0), resolution)
    except InvalidCurveError as exc:
        raise ConfigError(f"invalid curve: {exc}") from exc


def _sim_config(parser: configparser.ConfigParser, params: ModelParams, seed_override: int | None) -> SimConfig:
    if not parser.has_section("simulation"):
        raise ConfigError("missing required section [simulation]")
    seed = _get_int(parser, "simulation", "seed", _DEFAULTS["seed"])
    if seed_override is not None:
        seed = seed_override
    try:
        return SimConfig(
            params=params,
            n_agents=_get_int(parser, "simulation", "n_agents", _DEFAULTS["n_agents"]),
            n_trials=_get_int(parser, "simulation", "n_trials", _DEFAULTS["n_trials"]),
            seed=seed,
            h=_get_float(parser, "simulation", "h"),
            signal_correlation=_get_choice(
                parser, "simulation", "signal_correlation",
                (COMMON, INDEPENDENT), _DEFAULTS["signal_correlation"],
            ),
            compensation=_get_choice(
                parser, "simulation", "compensation",
                (PROSPECTIVE, REALIZED), _DEFAULTS["compensation"],
            ),
            punishment_mode=_get_choice(
                parser, "simulation", "punishment_mode",
                (UNIFORM_RANDOM, SENIORITY), _DEFAULTS["punishment_mode"],
            ),
        )
    except InvalidParamsError as exc:
        raise ConfigError(f"invalid simulation settings: {exc}") from exc


def _tol(parser: configparser.ConfigParser) -> float:
    tol = _get_float(parser, "solver", "tol", DEFAULT_TOL)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"[solver] tol must be finite and positive, got {tol}")
    return tol


def cmd_solve(parser: configparser.ConfigParser, args) -> int:
    params = _model_params(parser)
    require_admissible(params)
    curve = _curve(parser)
    sol = solve_threshold(params, curve, tol=_tol(parser))
    print(f"minimal punishment rate gamma_bar = {_fmt(sol.gamma_bar)}")
    print(f"credibility threshold h_tilde     = {_fmt(sol.h_tilde)}")
    print(f"feasible set nonempty             = {str(sol.feasible_set_nonempty).lower()}")
    print(f"marginal replacement cost at zero = {_fmt(sol.marginal_cost_at_zero)}")
    print(f"punish at the boundary h_tilde    = {str(sol.boundary_punish).lower()}")
    if sol.degenerate_credibility:
        print("note: eps = 0, failures never happen by mistake, punishment is always credible")
    report = verify_equilibrium(sol, params, curve)
    print("verification:")
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: {check.witness}")
    return OK


def cmd_simulate(parser: configparser.ConfigParser, args) -> int:
    params = _model_params(parser)
    require_admissible(params)
    curve = _curve(parser)
    cfg = _sim_config(parser, params, args.seed)
    gamma_raw = parser.get("simulation", "gamma", fallback=_DEFAULTS["gamma"]).strip()
    if gamma_raw == "equilibrium":
        sol = solve_threshold(params, curve, tol=_tol(parser))
        gamma = policy(cfg.h, sol)
    else:
        try:
            gamma = float(gamma_raw)
        except ValueError as exc:
            raise ConfigError("[simulation] gamma must be a number or 'equilibrium'") from exc
        if not 0.0 <= gamma <= 1.0:
            raise ConfigError(f"[simulation] gamma must lie in [0, 1], got {gamma_raw}")
    if cfg.punishment_mode == SENIORITY:
        # seniority firing ignores the rate and draws no fire uniforms
        gamma = 0.0
    regime = _get_choice(parser, "simulation", "profile", (EFFORT, SHIRK), _DEFAULTS["profile"])
    strategy = AgentStrategy.EFFORT_FOLLOW_SIGNAL if regime == EFFORT else AgentStrategy.SHIRK_USE
    profile = StrategyProfile.symmetric(strategy, cfg.n_agents)
    # no payoff target when no agent has access, as no one plays the strategy
    targets = closed_form_targets(cfg, profile, gamma)
    result = monte_carlo(cfg, profile, gamma, curve, trace_path=args.trace)
    print(result.summary())
    print("closed-form comparison (pass = within 3 standard errors):")
    simulated = {"output": result.output, "welfare": result.welfare}
    for label, stat in result.per_strategy_payoff.items():
        simulated[f"payoff_{label}"] = stat
    for name, target in targets.items():
        stat = simulated[name]
        gap = abs(stat.mean - target)
        status = "pass" if gap <= 3.0 * stat.se or gap == 0.0 else "FAIL"
        print(
            f"  [{status}] {name}: simulated {_fmt(stat.mean)} +- {_fmt(stat.se)}"
            f" vs target {_fmt(target)}"
        )
    return OK


def _destination(parser: configparser.ConfigParser, args) -> str:
    if args.out:
        return args.out
    if parser.has_option("output", "destination"):
        return parser.get("output", "destination")
    raise ConfigError("no output destination: pass --out or set [output] destination")


def cmd_sweep(parser: configparser.ConfigParser, args) -> int:
    params = _model_params(parser)
    curve = _curve(parser)
    if not parser.has_section("sweep"):
        raise ConfigError("missing required section [sweep]")
    parameter = _get_choice(parser, "sweep", "parameter", SWEEPABLE_PARAMETERS)
    if not parser.has_option("sweep", "grid"):
        raise ConfigError("missing required key 'grid' in section [sweep]")
    grid = _parse_grid(parser.get("sweep", "grid"))
    if parameter == "h" and not all(0.0 <= h <= 1.0 for h in grid):
        raise ConfigError("[sweep] every h grid point must lie in [0, 1]")
    spec = SweepSpec(parameter=parameter, grid=grid, params=params, curve=curve, tol=_tol(parser))
    if parameter == "h":
        require_admissible(params)
        table = sweep_h(spec)
    else:
        table = sweep_param(spec)
    destination = _destination(parser, args)
    emit_csv(table, destination)
    print(f"wrote {len(table.rows)} rows to {destination}")
    return OK


def _parse_grid(raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    try:
        if ":" in raw:
            parts = [float(x) for x in raw.split(":")]
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            values = make_grid(*parts)
        else:
            values = tuple(float(x) for x in raw.split(",") if x.strip())
        if not values:
            raise ValueError("empty grid")
        return values
    except ValueError as exc:
        raise ConfigError(f"[sweep] grid {raw!r}: {exc}") from exc


def cmd_experiment(parser: configparser.ConfigParser, args) -> int:
    params = _model_params(parser)
    require_admissible(params)
    curve = _curve(parser)
    cfg = _sim_config(parser, params, args.seed)
    print(policy_experiment(cfg, curve, tol=_tol(parser)).summary())
    return OK


def main(argv: list[str] | None = None) -> int:
    top = argparse.ArgumentParser(
        prog="shirklab",
        description="Solve and simulate the technology-adoption effort game.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve the punishment threshold and verify the equilibrium"),
        ("simulate", "Monte Carlo run checked against the closed forms"),
        ("sweep", "comparative statics written as CSV"),
        ("experiment", "compare compensation and punishment mechanisms"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", required=True, help="path to the INI run configuration")
        command.add_argument("--seed", type=int, default=None, help="override the configured seed")
        command.add_argument("--out", default=None, help="output path for file-writing commands")
        if name == "simulate":
            command.add_argument("--trace", default=None, help="write one JSON line per trial to this path")

    args = top.parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "experiment": cmd_experiment,
    }
    try:
        parser = _load_config(args.config)
        # an overflowing or invalid float operation means the config's values
        # are too extreme to compute with: say so instead of printing inf or nan
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return handlers[args.command](parser, args)
    except (ConfigError, ConvergenceError) as exc:
        code, message = CONFIG_ERROR, f"config error: {exc}"
    except FloatingPointError as exc:
        code, message = CONFIG_ERROR, f"config error: values too extreme to compute with: {exc}"
    except InadmissibleParamsError as exc:
        code, message = INADMISSIBLE, str(exc)
    except OSError as exc:
        code, message = IO_ERROR, f"i/o error: {exc}"
    # one stderr line per failure, even when the exception text has several
    print("; ".join(line.strip() for line in message.splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
