"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Expected values tagged as closed forms are recomputed in-test from the
model's defining algebra (recorded alongside), never copied from the
implementation under test.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import best_response, column, draw_curve, draw_params, output_drop
from shirklab.equilibrium import (
    ReplacementCostCurve,
    expected_output,
    punish_feasible,
    solve_threshold,
)
from shirklab.model import AgentStrategy, ModelParams, agent_payoff, gamma_bar
from shirklab.simulation import (
    SimConfig,
    StrategyProfile,
    iterated_best_response,
    monte_carlo,
    nash_check,
)
from shirklab.sweeps import make_grid, sweep_h

EFS = AgentStrategy.EFFORT_FOLLOW_SIGNAL
SU = AgentStrategy.SHIRK_USE

P0 = ModelParams(pi=0.9, eps=0.1, g=0.5, c=0.01, w=0.05, v_c=1.0)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed: {detail}"


def test_criterion_1_reference_scenario_closed_forms():
    """P0 with q(z) = 1000 z: solve must reproduce the hand algebra to 1e-9.

    Oracle, recorded here independently of the solver:
      gamma_bar = [c + (1 - pi(1-eps) - (1-pi)eps) w] / [(1-pi)(1-eps) v_c]
                = [0.01 + 0.18 * 0.05] / [0.1 * 0.9] = 0.019 / 0.09 = 19/90.
      q(z) = 1000 z integrates to r(x) = 500 x^2, so the feasibility
      boundary solves A h = 500 (gamma_bar h)^2 with
      A = [(1-pi)(1-eps) - pi eps g] / [(1-pi) eps]
        = (0.09 - 0.045) / 0.01 = 4.5,
      giving h_tilde = A / (500 gamma_bar^2) = 4.5 * 8100 / (500 * 361)
                     = 729/3610.
    """
    started = time.perf_counter()
    oracle_gamma_bar = (0.01 + (1.0 - 0.9 * 0.9 - 0.1 * 0.1) * 0.05) / (0.1 * 0.9 * 1.0)
    oracle_slope = (0.1 * 0.9 - 0.9 * 0.1 * 0.5) / (0.1 * 0.1)
    oracle_h_tilde = oracle_slope / (500.0 * oracle_gamma_bar**2)
    assert oracle_gamma_bar == pytest.approx(19.0 / 90.0, abs=1e-15)
    assert oracle_h_tilde == pytest.approx(729.0 / 3610.0, abs=1e-15)

    curve = ReplacementCostCurve.linear(1000.0)
    sol = solve_threshold(P0, curve)
    elapsed = time.perf_counter() - started
    ok = (
        abs(sol.gamma_bar - oracle_gamma_bar) <= 1e-9
        and abs(sol.h_tilde - oracle_h_tilde) <= 1e-9
        and elapsed < 1.0
    )
    _report(
        1,
        "reference scenario closed forms",
        ok,
        f"gamma_bar={sol.gamma_bar:.12g} h_tilde={sol.h_tilde:.12g} elapsed={elapsed:.3f}s",
    )


def test_criterion_2_indifference_at_gamma_bar():
    """Research and blind adoption tie at the minimal punishment rate."""
    started = time.perf_counter()
    rng = np.random.default_rng(20_260_101)
    worst = 0.0
    for _ in range(1000):
        p = draw_params(rng)
        gb = gamma_bar(p)
        eff = agent_payoff(EFS, gb, p)
        shirk = agent_payoff(SU, gb, p)
        rel = abs(eff - shirk) / max(abs(eff), abs(shirk))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(2, "indifference at gamma_bar", ok, f"worst rel gap {worst:.3g} elapsed={elapsed:.2f}s")


def test_criterion_3_monte_carlo_oracle_equivalence():
    """10^4 agents x 10^4 trials at P0, h = 0.5, against the closed forms."""
    started = time.perf_counter()
    curve = ReplacementCostCurve.linear(1000.0)
    gb = gamma_bar(P0)
    cfg = SimConfig(params=P0, n_agents=10_000, n_trials=10_000, seed=20_260_103, h=0.5)
    effort = monte_carlo(cfg, StrategyProfile.symmetric(EFS, cfg.n_agents), gb, curve)
    shirk = monte_carlo(cfg, StrategyProfile.symmetric(SU, cfg.n_agents), 0.0, curve)
    elapsed = time.perf_counter() - started

    target_effort = expected_output(0.5, "effort", P0)
    target_shirk = expected_output(0.5, "shirk", P0)
    assert target_effort == pytest.approx(1.1975, abs=1e-12)
    assert target_shirk == pytest.approx(1.175, abs=1e-12)
    gap = effort.welfare.mean - shirk.welfare.mean
    gap_se = math.hypot(effort.welfare.se, shirk.welfare.se)

    checks = {
        "effort output": abs(effort.output.mean - 1.1975) <= 3 * effort.output.se,
        "shirk output": abs(shirk.output.mean - 1.175) <= 3 * shirk.output.se,
        "welfare gap": abs(gap - 0.0175) <= 3 * gap_se,
        "runtime": elapsed < 120.0,
    }
    detail = (
        f"effort {effort.output.mean:.6f}+-{effort.output.se:.6f} "
        f"shirk {shirk.output.mean:.6f}+-{shirk.output.se:.6f} "
        f"gap {gap:.6f}+-{gap_se:.6f} elapsed={elapsed:.1f}s"
    )
    _report(3, "Monte Carlo oracle equivalence", all(checks.values()), detail)


def test_criterion_4_replacement_cost_convexity():
    """500 random schedules: least-cost replacement is convex in the measure."""
    rng = np.random.default_rng(20_260_104)
    grid = np.linspace(0.0, 1.0, 1000)
    worst = math.inf
    for _ in range(500):
        curve = draw_curve(rng, resolution=1500)
        values = curve.cost(grid)
        worst = min(worst, float(np.diff(values, 2).min()))
    ok = worst >= -1e-9
    _report(4, "replacement cost convexity", ok, f"worst second difference {worst:.3g}")


def test_criterion_5_threshold_interval_structure():
    """Feasibility holds below the solved threshold, fails above, one switch."""
    rng = np.random.default_rng(20_260_105)
    fractions = np.linspace(0.1, 0.9, 9)
    violations = []
    for trial in range(500):
        p = draw_params(rng)
        curve = draw_curve(rng, resolution=1000)
        sol = solve_threshold(p, curve)
        for u in fractions:
            if not punish_feasible(sol.h_tilde * u, p, curve):
                violations.append((trial, "below", sol.h_tilde * u))
            if sol.h_tilde < 1.0:
                above = sol.h_tilde + (1.0 - sol.h_tilde) * u
                if punish_feasible(above, p, curve):
                    violations.append((trial, "above", above))
        table = sweep_h(p, sol, make_grid(0.0, 1.0, 0.1))
        regimes = column(table, "regime")
        switches = sum(1 for i in range(1, len(regimes)) if regimes[i] != regimes[i - 1])
        if switches > 1:
            violations.append((trial, "switches", switches))
    ok = not violations
    _report(5, "threshold interval structure", ok, f"{len(violations)} violations")


def test_criterion_6_nash_verification():
    """Deviation analysis at 1e-12 gain tolerance for the three key profiles."""
    cfg = SimConfig(params=P0, n_agents=200, n_trials=1, seed=0, h=0.5)
    gb = gamma_bar(P0)
    all_shirk = StrategyProfile.symmetric(SU, cfg.n_agents)
    all_effort = StrategyProfile.symmetric(EFS, cfg.n_agents)

    shirk_devs = nash_check(cfg, all_shirk, 0.0)
    effort_devs = nash_check(cfg, all_effort, min(1.0, gb * 1.01))
    broken_devs = nash_check(cfg, all_effort, 0.0)

    checks = {
        "all-shirk at gamma 0 is Nash": shirk_devs == [],
        "all-effort above gamma_bar is Nash": effort_devs == [],
        "all-effort at gamma 0 deviates everywhere": len(broken_devs) == cfg.access_count,
    }
    detail = "; ".join(f"{k}: {'ok' if v else 'violated'}" for k, v in checks.items())
    _report(6, "Nash verification", all(checks.values()), detail)


def test_criterion_7_output_discontinuity():
    """Exactly one downward output jump, at the threshold, of the closed-form size."""
    curve = ReplacementCostCurve.linear(1000.0)
    sol = solve_threshold(P0, curve)
    step = 0.005
    table = sweep_h(P0, sol, make_grid(0.0, 1.0, step))
    outputs = column(table, "output")
    grid = column(table, "h")
    drops = [i for i in range(1, len(outputs)) if outputs[i] < outputs[i - 1]]
    jump_located = len(drops) == 1 and abs(grid[drops[0]] - sol.h_tilde) <= step + 1e-12

    # magnitude evaluated at the threshold itself
    drop_at_threshold = expected_output(sol.h_tilde, "effort", P0) - expected_output(
        sol.h_tilde, "shirk", P0
    )
    magnitude_ok = (
        abs(drop_at_threshold - sol.h_tilde * 0.045) <= 1e-9
        and abs(output_drop(sol.h_tilde, P0) - drop_at_threshold) <= 1e-12
    )
    ok = jump_located and magnitude_ok
    detail = f"jumps={len(drops)} at h~{grid[drops[0]] if drops else float('nan')}, drop={drop_at_threshold:.9f}"
    _report(7, "output discontinuity at the threshold", ok, detail)


def test_criterion_8_mechanism_fixes():
    """Realized pay removes the friction; seniority unravels group shirking."""
    rng = np.random.default_rng(20_260_108)
    unique_failures = 0
    for _ in range(1000):
        p = draw_params(rng, attractive=True)
        if best_response(0.0, p, comp="realized") != {EFS}:
            unique_failures += 1

    unravel_ok = True
    rounds_seen = {}
    for n in (1, 2, 10, 100):
        cfg = SimConfig(
            params=P0, n_agents=n, n_trials=1, seed=0, h=1.0, punishment_mode="seniority"
        )
        trace = iterated_best_response(cfg, StrategyProfile.symmetric(SU, n))
        rounds_seen[n] = trace.rounds
        if not (trace.converged and trace.rounds <= n and (trace.final.codes == int(EFS)).all()):
            unravel_ok = False

    ok = unique_failures == 0 and unravel_ok
    detail = f"realized-pay argmax failures {unique_failures}/1000; unravel rounds {rounds_seen}"
    _report(8, "compensation and seniority mechanisms", ok, detail)


def test_criterion_9_cli_determinism(tmp_path):
    """The simulate command is byte-identical across reruns of one seed."""
    config = tmp_path / "run.ini"
    config.write_text(
        "[model]\npi = 0.9\neps = 0.1\ng = 0.5\nc = 0.01\nw = 0.05\nv_c = 1.0\n"
        "[curve]\nfamily = linear\nscale = 1000\n"
        "[simulation]\nn_agents = 400\nn_trials = 300\nh = 0.5\nseed = 17\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    command = [sys.executable, "-m", "shirklab", "simulate", "--config", str(config)]
    first = subprocess.run(command, capture_output=True, env=env, cwd=root, check=True)
    second = subprocess.run(command, capture_output=True, env=env, cwd=root, check=True)
    ok = first.stdout == second.stdout and first.stdout != b""
    _report(9, "simulate determinism", ok, f"{len(first.stdout)} bytes compared")
