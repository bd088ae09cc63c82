"""Command-line entry point.

Runs are driven by a flat INI-style configuration file (``key = value``
within named sections) so that every invocation is auditable and
reproducible: the file fixes every number a command computes, the seed
included, so a command is a pure function of it and reruns produce
byte-identical output.  The command line names only where output goes.
Every configured value is parsed when the file is loaded, whichever
subcommand runs, so a malformed value exits 2 even in a key that
subcommand never reads; a grid is checked then but built only by sweep.
Besides the ranges of ``gamma`` and the grid, the range rules stay with
the code that owns them: curve costs, sizes and the simulation modes.

Subcommands and the flags each takes besides --config PATH:
  solve       none
  simulate    --trace PATH
  sweep       --out PATH (required)
  experiment  none
Exit codes: 0 ok, 2 config or usage error, 3 inadmissible parameters, 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import sys
from collections.abc import Callable, Sequence

# shirklab calls no BLAS routine, so numpy's OpenBLAS thread pool would only
# spin; the default must be set before numpy loads, and a user's value wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .errors import InadmissibleParamsError, InvalidCurveError, InvalidParamsError
from .equilibrium import (
    DEFAULT_RESOLUTION,
    EFFORT,
    SHIRK,
    ReplacementCostCurve,
    policy,
    solve_threshold,
    verify_equilibrium,
)
from .model import AgentStrategy, ModelParams, _fmt, require_admissible
from .simulation import SENIORITY, SimConfig, StrategyProfile, closed_form_targets, monte_carlo, policy_experiment
from .sweeps import SWEEPABLE_PARAMETERS, emit_csv, grid_size, make_grid, sweep_blocks

OK = 0
CONFIG_ERROR = 2
INADMISSIBLE = 3
IO_ERROR = 4


class ConfigError(Exception):
    """Malformed or incomplete run configuration."""


class UsageError(Exception):
    """A command line the argument parser rejects."""


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser that raises ``UsageError`` instead of printing usage and exiting."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _number(raw: str, name: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{name} = {raw!r} is not a number") from exc


def _integer(raw: str, name: str) -> int:
    try:
        # an integer literal is read exactly; through a float, a seed above 2**53 would round
        return int(raw)
    except ValueError:
        value = _number(raw, name)
    if not math.isfinite(value) or value != int(value):
        raise ConfigError(f"{name} must be an integer, got {value}")
    return int(value)


def _choice(*choices: str):
    def read(raw: str, name: str) -> str:
        if raw not in choices:
            raise ConfigError(f"{name} must be one of {choices}, got {raw!r}")
        return raw

    return read


def _text(raw: str, name: str) -> str:
    return raw


def _gamma(raw: str, name: str) -> float | str:
    if raw == "equilibrium":
        return raw
    try:
        gamma = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{name} must be a number or 'equilibrium'") from exc
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {raw}")
    return gamma


def _grid(raw: str, name: str) -> Callable[[], Sequence[float]]:
    """A checked grid's builder: a start:stop:step range is built only when called."""
    try:
        if ":" in raw:
            parts = [float(x) for x in raw.split(":")]
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            if not grid_size(*parts):
                raise ValueError("empty grid")
            return functools.partial(make_grid, *parts)
        values = tuple(float(x) for x in raw.split(",") if x.strip())
        if not values:
            raise ValueError("empty grid")
        return lambda: values
    except ValueError as exc:
        raise ConfigError(f"{name} {raw!r}: {exc}") from exc


#: Marks a key that has no default.
_REQUIRED = object()

#: Every section and key a config may hold, as (reader, default).  The
#: reader parses the configured text, whichever subcommand runs; a default
#: of None leaves the key's absence to the code that reads it: ``SimConfig``
#: owns the defaults of the three modes.
_SCHEMA = {
    "model": dict.fromkeys(("pi", "eps", "g", "c", "w", "v_c"), (_number, _REQUIRED)),
    "curve": {
        "family": (_choice("linear", "power", "constant"), _REQUIRED),
        "file": (_text, None),
        "scale": (_number, 1.0),
        "exponent": (_number, 2.0),
        "level": (_number, 1.0),
        "resolution": (_integer, DEFAULT_RESOLUTION),
    },
    "simulation": {
        "n_agents": (_integer, 10000),
        "n_trials": (_integer, 10000),
        "h": (_number, _REQUIRED),
        "seed": (_integer, 0),
        "signal_correlation": (_text, None),
        "compensation": (_text, None),
        "punishment_mode": (_text, None),
        "profile": (_choice(EFFORT, SHIRK), EFFORT),
        "gamma": (_gamma, "equilibrium"),
    },
    "sweep": {"parameter": (_choice(*SWEEPABLE_PARAMETERS), _REQUIRED), "grid": (_grid, _REQUIRED)},
}

#: Each configured section's keys, parsed by their ``_SCHEMA`` readers.
Config = dict[str, dict[str, object]]


def _load_config(path: str) -> Config:
    # values are literal: with interpolation, a '%' in one would raise when it is read
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), strict=True, interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
    return {
        section: {
            key: _SCHEMA[section][key][0](raw, f"[{section}] {key}") for key, raw in parser[section].items()
        }
        for section in parser.sections()
    }


def _get(config: Config, section: str, key: str):
    """The key's configured value, else its default from ``_SCHEMA``.

    A required key that is left out raises, naming its section instead when
    the whole section is missing.
    """
    if key in config.get(section, {}):
        return config[section][key]
    default = _SCHEMA[section][key][1]
    if default is _REQUIRED:
        missing = f"key '{key}' in section [{section}]" if section in config else f"section [{section}]"
        raise ConfigError(f"missing required {missing}")
    return default


def _model_params(config: Config) -> ModelParams:
    kwargs = {key: _get(config, "model", key) for key in sorted(_SCHEMA["model"])}
    try:
        return ModelParams(**kwargs)
    except InvalidParamsError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc


def _curve(config: Config) -> ReplacementCostCurve:
    resolution = _get(config, "curve", "resolution")
    path = _get(config, "curve", "file")
    if path is not None:
        if "family" in config["curve"]:
            raise ConfigError("[curve] declares both 'family' and 'file'")
        try:
            return ReplacementCostCurve.from_file(path)
        except OSError as exc:
            raise ConfigError(f"cannot read curve file: {exc}") from exc
        except InvalidCurveError as exc:
            raise ConfigError(f"invalid curve: {exc}") from exc
    family = _get(config, "curve", "family")
    try:
        if family == "linear":
            return ReplacementCostCurve.linear(_get(config, "curve", "scale"), resolution)
        if family == "power":
            scale, exponent = _get(config, "curve", "scale"), _get(config, "curve", "exponent")
            return ReplacementCostCurve.power(scale, exponent, resolution)
        return ReplacementCostCurve.constant(_get(config, "curve", "level"), resolution)
    except InvalidCurveError as exc:
        raise ConfigError(f"invalid curve: {exc}") from exc


def _sim_config(config: Config, params: ModelParams) -> SimConfig:
    # SimConfig checks the modes and owns the defaults of those left out
    modes = ("signal_correlation", "compensation", "punishment_mode")
    configured = {key: value for key, value in config.get("simulation", {}).items() if key in modes}
    try:
        return SimConfig(
            params=params,
            n_agents=_get(config, "simulation", "n_agents"),
            n_trials=_get(config, "simulation", "n_trials"),
            seed=_get(config, "simulation", "seed"),
            h=_get(config, "simulation", "h"),
            **configured,
        )
    except InvalidParamsError as exc:
        raise ConfigError(f"invalid simulation settings: {exc}") from exc


def cmd_solve(config: Config, args) -> int:
    params = _model_params(config)
    require_admissible(params)
    curve = _curve(config)
    sol = solve_threshold(params, curve)
    print(f"minimal punishment rate gamma_bar = {_fmt(sol.gamma_bar)}")
    print(f"credibility threshold h_tilde     = {_fmt(sol.h_tilde)}")
    print(f"feasible set nonempty             = {str(sol.feasible_set_nonempty).lower()}")
    print(f"marginal replacement cost at zero = {_fmt(sol.marginal_cost_at_zero)}")
    print(f"punish at the boundary h_tilde    = {str(policy(sol.h_tilde, sol) == sol.gamma_bar).lower()}")
    if params.eps == 0.0:
        print("note: eps = 0, failures never happen by mistake, punishment is always credible")
    print("verification:")
    for check in verify_equilibrium(sol, params, curve):
        status = "pass" if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: {check.witness}")
    return OK


def cmd_simulate(config: Config, args) -> int:
    params = _model_params(config)
    require_admissible(params)
    curve = _curve(config)
    cfg = _sim_config(config, params)
    gamma = _get(config, "simulation", "gamma")
    if gamma == "equilibrium":
        sol = solve_threshold(params, curve)
        gamma = policy(cfg.h, sol)
    if cfg.punishment_mode == SENIORITY:
        # seniority firing ignores the rate and draws no fire uniforms
        gamma = 0.0
    regime = _get(config, "simulation", "profile")
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


def cmd_sweep(config: Config, args) -> int:
    params = _model_params(config)
    curve = _curve(config)
    parameter = _get(config, "sweep", "parameter")
    grid = np.asarray(_get(config, "sweep", "grid")(), dtype=float)
    if parameter == "h" and not np.all((0.0 <= grid) & (grid <= 1.0)):
        raise ConfigError("[sweep] every h grid point must lie in [0, 1]")
    rows = emit_csv(sweep_blocks(parameter, params, curve, grid), args.out)
    print(f"wrote {rows} rows to {args.out}")
    return OK


def cmd_experiment(config: Config, args) -> int:
    params = _model_params(config)
    require_admissible(params)
    curve = _curve(config)
    print(policy_experiment(_sim_config(config, params), curve).summary())
    return OK


#: Every flag a subcommand may take besides --config: each names where output goes.
_FLAGS = {
    "--trace": {"help": "write one JSON line per trial to this path"},
    "--out": {"required": True, "help": "CSV path"},
}

#: Each subcommand's handler, help text and the flags it reads.
_COMMANDS = {
    "solve": (cmd_solve, "solve the punishment threshold and verify the equilibrium", ()),
    "simulate": (cmd_simulate, "Monte Carlo run checked against the closed forms", ("--trace",)),
    "sweep": (cmd_sweep, "comparative statics written as CSV", ("--out",)),
    "experiment": (cmd_experiment, "compare compensation and punishment mechanisms", ()),
}


def main(argv: list[str] | None = None) -> int:
    top = _ArgumentParser(
        prog="shirklab",
        description="Solve and simulate the technology-adoption effort game.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        command.add_argument("--config", required=True, help="path to the INI run configuration")
        for flag in flags:
            command.add_argument(flag, **_FLAGS[flag])
    try:
        args = top.parse_args(argv)
        config = _load_config(args.config)
        # an overflowing or invalid float operation means the config's values
        # are too extreme to compute with: say so instead of printing inf or nan
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.handler(config, args)
    except UsageError as exc:
        code, message = CONFIG_ERROR, f"usage error: {exc}"
    except ConfigError as exc:
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
