"""Command-line behavior: happy paths, exit codes, determinism."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shirklab import cli
from shirklab.cli import main

DATA = Path(__file__).parent / "data"

BASE_CONFIG = """
[model]
pi = 0.9
eps = 0.1
g = 0.5
c = 0.01
w = 0.05
v_c = 1.0

[curve]
family = linear
scale = 1000

[simulation]
n_agents = 300
n_trials = 200
h = 0.5
seed = 9

[sweep]
parameter = h
grid = 0.0:1.0:0.05
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG)
    return str(path)


class TestSolve:
    def test_prints_the_equilibrium_objects(self, config_path, capsys):
        assert main(["solve", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "gamma_bar = 0.211111111111" in out
        assert "h_tilde     = 0.201939058" in out
        assert "[pass] indifference_at_gamma_bar" in out
        assert "[pass] threshold_policy_shape" in out

    def test_perfect_signal_notes_degenerate_credibility(self, tmp_path, capsys):
        path = tmp_path / "eps0.ini"
        path.write_text(BASE_CONFIG.replace("eps = 0.1", "eps = 0.0"))
        assert main(["solve", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "h_tilde     = 1" in out
        assert "failures never happen by mistake" in out

    def test_inadmissible_params_exit_3_naming_the_check(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace("c = 0.01", "c = 0.05"))
        assert main(["solve", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "research_efficiency" in err


class TestSimulate:
    def test_reports_pass_against_closed_forms(self, config_path, capsys):
        assert main(["simulate", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "output/agent" in out
        assert "[pass] output" in out
        assert "[pass] welfare" in out

    def test_same_seed_reproduces_identical_text(self, config_path, capsys):
        main(["simulate", "--config", config_path])
        first = capsys.readouterr().out
        main(["simulate", "--config", config_path])
        second = capsys.readouterr().out
        assert first == second

    def test_the_configured_seed_changes_the_draws(self, tmp_path, capsys):
        outputs = []
        for seed in (1, 2):
            path = tmp_path / f"seed{seed}.ini"
            path.write_text(BASE_CONFIG.replace("seed = 9", f"seed = {seed}"))
            assert main(["simulate", "--config", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]

    def test_numeric_gamma_and_shirk_profile(self, tmp_path, capsys):
        path = tmp_path / "shirk.ini"
        path.write_text(
            BASE_CONFIG.replace("seed = 9", "seed = 9\nprofile = shirk\ngamma = 0.0")
        )
        assert main(["simulate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "payoff[shirk_use]" in out

    @pytest.mark.parametrize("signal", ["common", "independent"])
    def test_seniority_firing_prints_gamma_0_and_its_own_payoff_target(self, tmp_path, capsys, signal):
        path = tmp_path / "seniority.ini"
        path.write_text(
            BASE_CONFIG.replace(
                "seed = 9",
                f"seed = 9\nprofile = shirk\ngamma = 0.3\npunishment_mode = seniority\nsignal_correlation = {signal}",
            )
        )
        assert main(["simulate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "agents 300  trials 200  seed 9  gamma 0\n" in out
        # 150 blind adopters fail together when the technology is bad and one is fired
        assert "vs target 1.04933333333\n" in out
        assert "[pass] payoff_shirk_use" in out
        assert "FAIL" not in out

    def test_seniority_gamma_does_not_change_the_draws(self, tmp_path, capsys):
        outputs = []
        for gamma in ("0.0", "0.7"):
            path = tmp_path / f"g{gamma}.ini"
            path.write_text(
                BASE_CONFIG.replace("seed = 9", f"seed = 9\npunishment_mode = seniority\ngamma = {gamma}")
            )
            assert main(["simulate", "--config", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "[pass] payoff_effort_follow_signal" in outputs[0]


    @pytest.mark.parametrize("value", ["2", "-0.1", "nan", "inf"])
    def test_gamma_outside_the_unit_interval_exits_2(self, tmp_path, capsys, value):
        path = tmp_path / "g.ini"
        path.write_text(BASE_CONFIG.replace("seed = 9", f"seed = 9\ngamma = {value}"))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: [simulation] gamma must lie in [0, 1], got {value}\n"


    def test_targets_are_taken_at_the_realized_reach(self, tmp_path, capsys):
        # round(0.25 * 10) = 3 workers have access, so the reach is 0.3, not 0.25
        path = tmp_path / "m3.ini"
        path.write_text(BASE_CONFIG.replace("n_agents = 300", "n_agents = 10").replace("h = 0.5", "h = 0.25"))
        assert main(["simulate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[pass] output: simulated 1.117 +- 0.00477430307472 vs target 1.1185\n" in out
        assert "[pass] welfare: simulated 1.114 +- 0.00477430307472 vs target 1.1155\n" in out
        assert "FAIL" not in out

    def test_trace_leaves_stdout_unchanged_and_writes_one_line_per_trial(self, config_path, tmp_path, capsys):
        assert main(["simulate", "--config", config_path]) == 0
        plain = capsys.readouterr().out
        trace = tmp_path / "trace.jsonl"
        assert main(["simulate", "--config", config_path, "--trace", str(trace)]) == 0
        assert capsys.readouterr().out == plain
        lines = trace.read_text().splitlines()
        assert len(lines) == 200
        assert lines[0].startswith('{"failure": ')

    def test_unwritable_trace_path_exits_4_with_one_stderr_line(self, config_path, tmp_path, capsys):
        trace = tmp_path / "missing" / "trace.jsonl"
        assert main(["simulate", "--config", config_path, "--trace", str(trace)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ")
        assert captured.err.count("\n") == 1

    def test_an_empty_trace_path_exits_4_as_sweep_out_does(self, config_path, capsys):
        # an empty path names no file to write; it is an i/o error, not a request for no trace
        assert main(["simulate", "--config", config_path, "--trace", ""]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ")
        assert captured.err.count("\n") == 1


    @pytest.mark.parametrize("seed", [2**53 + 1, 2**64 - 1])
    def test_a_seed_above_2_53_is_read_exactly(self, tmp_path, capsys, seed):
        path = tmp_path / "big_seed.ini"
        path.write_text(BASE_CONFIG.replace("seed = 9", f"seed = {seed}"))
        assert main(["simulate", "--config", str(path)]) == 0
        assert f"  seed {seed}  " in capsys.readouterr().out

    def test_no_access_agents_prints_no_payoff_line(self, tmp_path, capsys):
        path = tmp_path / "h0.ini"
        path.write_text(BASE_CONFIG.replace("h = 0.5", "h = 0.0"))
        assert main(["simulate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[pass] output: simulated 1 +- 0 vs target 1" in out
        assert "payoff" not in out


class TestSweep:
    def test_writes_csv_to_the_destination(self, config_path, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", config_path, "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "h,regime,gamma_star,output,welfare,boundary"
        assert len(lines) == 22

    def test_param_sweep_via_config(self, tmp_path, capsys):
        path = tmp_path / "csweep.ini"
        path.write_text(
            BASE_CONFIG.replace("parameter = h", "parameter = c").replace(
                "grid = 0.0:1.0:0.05", "grid = 0.0,0.01,0.02,0.05"
            )
        )
        out_path = tmp_path / "c.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("value,gamma_bar,h_tilde,admissible")
        assert lines[-1].startswith("0.05,,,false")

    def test_missing_out_is_a_usage_error(self, config_path, capsys):
        assert main(["sweep", "--config", config_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: shirklab sweep: the following arguments are required: --out\n"

    def test_unwritable_destination_exits_4(self, config_path, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["sweep", "--config", config_path, "--out", str(target)]) == 4

    def test_config_error_never_writes_partial_output(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text(BASE_CONFIG.replace("grid = 0.0:1.0:0.05", "grid = banana"))
        out_path = tmp_path / "never.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out_path)]) == 2
        assert not out_path.exists()


    @pytest.mark.parametrize(
        "parameter, grid, message",
        [
            ("h", "0:inf:1", "must be finite"),
            ("h", "nan:1:0.1", "must be finite"),
            ("pi", "0.1:0.9:inf", "must be finite"),
            ("pi", "0:1:5e-324", "more than 10000000 points"),
            ("h", "1:0:0.1", "empty grid"),
            ("h", "-0.1, 0.5", "every h grid point must lie in [0, 1]"),
            ("h", "0.5, 1.5", "every h grid point must lie in [0, 1]"),
            ("h", "nan", "every h grid point must lie in [0, 1]"),
        ],
    )
    def test_bad_grid_exits_2_without_writing(self, tmp_path, capsys, parameter, grid, message):
        path = tmp_path / "grid.ini"
        path.write_text(
            BASE_CONFIG.replace("parameter = h", f"parameter = {parameter}").replace(
                "grid = 0.0:1.0:0.05", f"grid = {grid}"
            )
        )
        out_path = tmp_path / "never.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["solve", "simulate", "sweep", "experiment"])
    def test_only_sweep_builds_the_grid(self, config_path, tmp_path, monkeypatch, capsys, command):
        # the grid is checked when the config loads, but its points are built on use
        built = []
        monkeypatch.setattr(cli, "make_grid", lambda *bounds: built.append(bounds) or (0.0, 1.0))
        out = ["--out", str(tmp_path / "grid.csv")] if command == "sweep" else []
        assert main([command, "--config", config_path, *out]) == 0
        assert built == ([(0.0, 1.0, 0.05)] if command == "sweep" else [])


class TestExperiment:
    def test_prints_all_three_scenarios(self, config_path, capsys):
        assert main(["experiment", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "scenario baseline" in out
        assert "scenario variable_compensation" in out
        assert "scenario seniority" in out
        assert "unraveled to effort" in out

    def test_targets_are_taken_at_the_realized_reach(self, tmp_path, capsys):
        # 3 of 10 workers have access: blind adoption at reach 0.3 yields 1.105
        path = tmp_path / "m3.ini"
        path.write_text(BASE_CONFIG.replace("n_agents = 300", "n_agents = 10").replace("h = 0.5", "h = 0.25"))
        assert main(["experiment", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "scenario baseline: profile shirk_use at gamma 0 (equilibrium)\n" in out
        assert "  output/agent  1.105 +- 0.00956989626761  target 1.105\n" in out
        assert out.count("target 1.1185\n") == 2 and out.count("target 1.1155\n") == 2

    def test_no_access_agents_are_labelled_none(self, tmp_path, capsys):
        # h * n_agents < 0.5 gives no worker access, so no arm has a mixed profile
        path = tmp_path / "h0.ini"
        path.write_text(BASE_CONFIG.replace("h = 0.5", "h = 0.0"))
        assert main(["experiment", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count(": profile none at gamma ") == 3
        assert "mixed" not in out

    def test_independent_signals_settle_on_a_mixed_profile(self, tmp_path, capsys):
        # with independent signals seniority firing singles out no one for
        # sure: 15 of the 1000 workers with access switch to effort and best
        # responses settle there, which is no unraveling to effort
        path = tmp_path / "independent.ini"
        path.write_text(
            BASE_CONFIG.replace("n_agents = 300", "n_agents = 2000")
            .replace("n_trials = 200", "n_trials = 50")
            .replace("seed = 9", "seed = 909\nsignal_correlation = independent")
        )
        assert main(["experiment", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "scenario seniority: profile mixed at gamma 0 (equilibrium)\n" in out
        assert out.endswith("  best responses settled on a mixed profile in 15 rounds\n")
        assert "unraveled" not in out

    def test_a_mixed_profile_is_held_to_its_summed_production(self, tmp_path, capsys):
        # the seniority arm settles on 15 effort_follow_signal (1.395 each) and
        # 985 shirk_use workers (1.35 each) beside 1000 inert ones (1 each):
        # output (1000 + 15 * 1.395 + 985 * 1.35) / 2000, welfare less
        # 15 * c / 2000, not the shirk line's 1.175 and 1.174925
        path = tmp_path / "mixed.ini"
        path.write_text(
            BASE_CONFIG.replace("n_agents = 300", "n_agents = 2000")
            .replace("n_trials = 200", "n_trials = 500")
            .replace("seed = 9", "seed = 909\nsignal_correlation = independent")
        )
        assert main(["experiment", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert out[out.index("scenario seniority:") :].splitlines()[:3] == [
            "scenario seniority: profile mixed at gamma 0 (equilibrium)",
            "  output/agent  1.1738315 +- 0.0100646952087  target 1.1753375",
            "  welfare/agent 1.1737565 +- 0.0100646952087  target 1.1752625",
        ]

    def test_golden_stdout_past_the_threshold(self, capsys):
        # 400 agents, 300 trials at h = 0.5 > h_tilde: 200 unraveling rounds
        assert main(["experiment", "--config", str(DATA / "experiment_golden.ini")]) == 0
        out = capsys.readouterr().out
        assert out.encode() == (DATA / "experiment_golden.out").read_bytes()


class TestUsageErrors:
    """A command line the parser rejects returns 2 with one stderr line, and raises nothing."""

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["simulate"], "shirklab simulate: the following arguments are required: --config"),
            ([], "shirklab: the following arguments are required: command"),
        ],
        ids=["missing-config", "no-subcommand"],
    )
    def test_argv_error_prints_one_line(self, capsys, argv, err):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {err}\n"

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("solve", "--seed", "1"),
            ("solve", "--out", "x.csv"),
            ("solve", "--trace", "t.jsonl"),
            ("simulate", "--seed", "1"),
            ("simulate", "--out", "x.csv"),
            ("sweep", "--seed", "1"),
            ("sweep", "--trace", "t.jsonl"),
            ("experiment", "--seed", "1"),
            ("experiment", "--out", "x.csv"),
            ("experiment", "--trace", "t.jsonl"),
        ],
    )
    def test_a_flag_the_subcommand_does_not_read_is_rejected(self, config_path, capsys, command, flag, value):
        # sweep's required --out is passed, so the parser reports the unread flag
        out = ["--out", "x.csv"] if command == "sweep" else []
        assert main([command, "--config", config_path, *out, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: shirklab: unrecognized arguments: {flag} {value}\n"

    def test_unknown_subcommand_prints_one_line(self, capsys):
        assert main(["bogus", "--config", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # the listing of the choices is worded differently across Python versions
        assert captured.err.startswith("usage error: shirklab: argument command: invalid choice: 'bogus'")
        assert captured.err.count("\n") == 1


class TestConfigErrors:
    def test_missing_file(self, capsys):
        assert main(["solve", "--config", "/nonexistent/run.ini"]) == 2

    def test_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "u.ini"
        path.write_text(BASE_CONFIG.replace("pi = 0.9", "pi = 0.9\nfrobnicate = 1"))
        assert main(["solve", "--config", str(path)]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path, capsys):
        path = tmp_path / "u.ini"
        path.write_text(BASE_CONFIG + "\n[mystery]\nx = 1\n")
        assert main(["solve", "--config", str(path)]) == 2
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["[solver]\ntol = 1e-10", "[output]\ndestination = x.csv"])
    def test_the_removed_solver_and_output_sections_are_unknown(self, tmp_path, capsys, section):
        path = tmp_path / "u.ini"
        path.write_text(BASE_CONFIG + f"\n{section}\n")
        assert main(["solve", "--config", str(path)]) == 2
        name = section.split("\n")[0]
        assert capsys.readouterr().err == f"config error: unknown config section {name}\n"

    def test_missing_model_section(self, tmp_path, capsys):
        path = tmp_path / "m.ini"
        path.write_text("[curve]\nfamily = linear\n")
        assert main(["solve", "--config", str(path)]) == 2
        assert "[model]" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["often", "0.9%", "%(eps)s"])
    def test_non_numeric_value(self, tmp_path, capsys, value):
        path = tmp_path / "n.ini"
        path.write_text(BASE_CONFIG.replace("pi = 0.9", f"pi = {value}"))
        assert main(["solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: [model] pi = {value!r} is not a number\n"

    @pytest.mark.parametrize(
        "command, old, new, err",
        [
            ("solve", "scale = 1000", "scale = 1000\nexponent = abc", "[curve] exponent = 'abc' is not a number"),
            ("solve", "scale = 1000", "scale = 1000\nlevel = abc", "[curve] level = 'abc' is not a number"),
            (
                "experiment",
                "seed = 9",
                "seed = 9\nprofile = mixed",
                "[simulation] profile must be one of ('effort', 'shirk'), got 'mixed'",
            ),
            (
                "experiment",
                "seed = 9",
                "seed = 9\ngamma = banana",
                "[simulation] gamma must be a number or 'equilibrium'",
            ),
            (
                "simulate",
                "grid = 0.0:1.0:0.05",
                "grid = banana",
                "[sweep] grid 'banana': could not convert string to float: 'banana'",
            ),
        ],
        ids=["solve-exponent", "solve-level", "experiment-profile", "experiment-gamma", "simulate-grid"],
    )
    def test_a_bad_value_the_command_does_not_read_exits_2(self, tmp_path, capsys, command, old, new, err):
        # family = linear reads no exponent or level, experiment no profile or
        # gamma, and simulate no grid
        path = tmp_path / "unread.ini"
        path.write_text(BASE_CONFIG.replace(old, new))
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {err}\n"

    def test_malformed_ini_syntax(self, tmp_path, capsys):
        path = tmp_path / "s.ini"
        path.write_text("pi = 0.9 no section header\n")
        assert main(["solve", "--config", str(path)]) == 2

    def test_curve_with_family_and_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("family = linear", "family = linear\nfile = q.txt"))
        assert main(["solve", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0.5 1.0\n1.5 2.0\n", "z values must lie in [0, 1]"),
            ("nan 1.0\n", "z values must lie in [0, 1]"),
            ("0.5 cheap\n", "not a numeric table"),
        ],
        ids=["z-out-of-range", "z-nan", "non-numeric"],
    )
    def test_bad_curve_file_exits_2(self, tmp_path, capsys, rows, message):
        curve = tmp_path / "q.txt"
        curve.write_text(rows)
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("family = linear", f"file = {curve}").replace("scale = 1000\n", ""))
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_integer_exits_2(self, tmp_path, capsys, value):
        path = tmp_path / "t.ini"
        path.write_text(BASE_CONFIG.replace("n_trials = 200", f"n_trials = {value}"))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "n_trials must be an integer" in capsys.readouterr().err

    def test_negative_curve_scale_point_is_flagged_in_its_row(self, tmp_path, capsys):
        path = tmp_path / "s.ini"
        path.write_text(
            BASE_CONFIG.replace("parameter = h", "parameter = curve_scale").replace(
                "grid = 0.0:1.0:0.05", "grid = -1.0, 1.0"
            )
        )
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        negative, positive = out.read_text().splitlines()[1:]
        assert negative.startswith("-1,,,false,,") and "nonnegative" in negative
        assert positive.startswith("1,0.211111111111,")

    @pytest.mark.parametrize("grid, flagged", [("1, 1e10", "10000000000"), ("1, 1.7e8", "170000000")])
    def test_overflowing_curve_scale_point_is_flagged_in_its_row(self, tmp_path, capsys, grid, flagged):
        # 1e10 * 1e300 overflows the costs; 1.7e8 * 1e300 overflows a neighbour sum
        path = tmp_path / "s.ini"
        path.write_text(
            BASE_CONFIG.replace("scale = 1000", "scale = 1e300")
            .replace("parameter = h", "parameter = curve_scale")
            .replace("grid = 0.0:1.0:0.05", f"grid = {grid}")
        )
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        first, second = out.read_text().splitlines()[1:]
        assert first.startswith("1,0.211111111111,") and first.endswith(",true,0,")
        assert second == f"{flagged},,,false,,scale factor too large: the scaled costs overflow"

    @pytest.mark.parametrize(
        "key, choices",
        [
            ("signal_correlation", "('common', 'independent')"),
            ("compensation", "('prospective', 'realized')"),
            ("punishment_mode", "('uniform_random', 'seniority')"),
        ],
    )
    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    def test_a_bad_mode_exits_2_naming_the_legal_values(self, tmp_path, capsys, command, key, choices):
        path = tmp_path / "mode.ini"
        path.write_text(BASE_CONFIG.replace("seed = 9", f"seed = 9\n{key} = x"))
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: invalid simulation settings: {key} must be one of {choices}, got 'x'\n"

    def test_simulation_requires_h(self, tmp_path, capsys):
        path = tmp_path / "h.ini"
        path.write_text(BASE_CONFIG.replace("h = 0.5\n", ""))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "'h'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, old, new, message",
        [
            ("simulate", "n_agents = 300", "n_agents = 1e19", "n_agents must lie in [1, 10000000]"),
            ("experiment", "n_agents = 300", "n_agents = 1e300", "n_agents must lie in [1, 10000000]"),
            ("simulate", "n_trials = 200", "n_trials = 1e300", "n_trials must lie in [1, 1000000]"),
            ("solve", "scale = 1000", "resolution = 1e300", "resolution must be at most 10000000"),
        ],
        ids=["agents-1e19", "agents-1e300", "trials-1e300", "resolution-1e300"],
    )
    def test_sizes_above_the_caps_exit_2(self, tmp_path, capsys, command, old, new, message):
        path = tmp_path / "big.ini"
        path.write_text(BASE_CONFIG.replace(old, new))
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert err.count("\n") == 1

    def test_multi_line_parse_error_prints_one_line(self, tmp_path, capsys):
        path = tmp_path / "p.ini"
        path.write_text(BASE_CONFIG + "orphan line\n")
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config parse error in ") and err.count("\n") == 1

    def test_float_overflow_exits_2_without_warnings(self, tmp_path, capsys, recwarn):
        path = tmp_path / "big.ini"
        path.write_text(BASE_CONFIG.replace("v_c = 1.0", "v_c = 1e308"))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: values too extreme to compute with: ") and err.count("\n") == 1
        assert not recwarn.list

    # v_c = 1e300 puts gamma_bar near 2e-301, so random firing at the solved
    # rate fires no one and every trial's payoff sums are equal: the states
    # are priced from counts, so no rounding noise between their sums is
    # squared past overflow.  Seniority fires someone in a bad state, so the
    # spread of its payoffs is real and overflows.
    HUGE_V_C = (
        BASE_CONFIG.replace("v_c = 1.0", "v_c = 1e300")
        .replace("scale = 1000", "scale = 100")
        .replace("n_trials = 200", "n_trials = 300")
        .replace("h = 0.5", "h = 0.6")
    )

    @pytest.mark.parametrize(
        "command, setting",
        [
            ("experiment", "signal_correlation = common"),
            ("experiment", "signal_correlation = independent"),
            ("simulate", "gamma = equilibrium"),
        ],
        ids=["experiment-common", "experiment-independent", "simulate-equilibrium"],
    )
    def test_a_huge_v_c_that_fires_no_one_exits_0(self, tmp_path, capsys, command, setting):
        path = tmp_path / "huge.ini"
        path.write_text(self.HUGE_V_C.replace("seed = 9", f"seed = 5\n{setting}"))
        assert main([command, "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "[FAIL]" not in out

    def test_a_huge_v_c_under_seniority_still_overflows(self, tmp_path, capsys):
        path = tmp_path / "huge.ini"
        path.write_text(self.HUGE_V_C.replace("seed = 9", "seed = 5\npunishment_mode = seniority"))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: values too extreme to compute with: overflow encountered in square\n"

    def test_empty_curve_file_exits_2_without_warnings(self, tmp_path, capsys, recwarn):
        curve = tmp_path / "q.txt"
        curve.write_text("")
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("family = linear", f"file = {curve}").replace("scale = 1000\n", ""))
        assert main(["solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: invalid curve: {curve}: no cost samples\n"
        assert not recwarn.list


@pytest.mark.parametrize("command", ["solve", "simulate", "experiment"])
def test_a_subnormal_eps_exits_0(tmp_path, capsys, command):
    # (1 - pi) * eps underflows to 0.0, so the credibility slope is inf, as
    # with eps = 0, not a division by zero
    path = tmp_path / "tiny_eps.ini"
    path.write_text(BASE_CONFIG.replace("eps = 0.1", "eps = 5e-324"))
    assert main([command, "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_every_name_the_benchmark_traces_still_exists():
    # the benchmark's tracer wraps these by name; loading its module installs nothing
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).parent.parent / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.FUNCTIONS.items():
        module = importlib.import_module(f"shirklab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    curve = importlib.import_module("shirklab.equilibrium").ReplacementCostCurve
    for name in spans.CURVE_BUILDERS + ("validate",):
        # read from the class itself, as the tracer does
        assert name in vars(curve), name


#: Prints OPENBLAS_NUM_THREADS as numpy starts to load, then imports the CLI.
_BLAS_PROBE = """
import os, sys
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Spy())
import shirklab.cli
"""


@pytest.mark.parametrize("setting, seen", [(None, "1"), ("3", "3")])
def test_the_cli_sets_one_blas_thread_before_numpy_loads_unless_the_user_did(setting, seen):
    src = Path(__file__).parent.parent / "src"
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(src) + os.pathsep + os.environ.get("PYTHONPATH", "")
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    result = subprocess.run([sys.executable, "-c", _BLAS_PROBE], capture_output=True, text=True, env=env, check=True)
    assert result.stdout == f"{seen}\n"
