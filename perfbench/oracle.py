"""Independent correctness oracle for the benchmark's CLI commands.

Every expected value here comes from the paper's closed forms, written out
again in this file; nothing is imported from ``shirklab``.  Each ``check_*``
function reads one command's stdout (and the CSV it wrote, for sweeps) and
returns ``(problems, notes)``: a problem makes the command count as failed,
a note records a known program defect that is observed but not counted.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

#: Monte Carlo means must lie within this many standard errors of the target.
MC_SIGMAS = 5.0
#: Absolute tolerance on solved thresholds against the closed form.
THRESHOLD_TOL = 1e-8
#: Tolerance on printed closed-form values (the CLI prints 12 significant digits).
PRINT_TOL = 1e-9

_NUM = r"([-+0-9.eEinfa]+)"


@dataclass(frozen=True)
class Model:
    """The six primitives with the paper's closed forms for a linear curve."""

    pi: float
    eps: float
    g: float
    c: float
    w: float
    v_c: float

    def signal_good(self) -> float:
        return self.pi * (1 - self.eps) + (1 - self.pi) * self.eps

    def admissible(self) -> bool:
        low = self.eps / (1 - self.eps)
        high = math.inf if self.eps == 0 else (1 - self.eps) / self.eps
        efficiency = (1 - self.pi) * (1 - self.eps) - self.pi * self.eps * self.g - self.c
        inducible = (self.c + (1 - self.signal_good()) * self.w) / ((1 - self.pi) * (1 - self.eps))
        return low < self.g < high and efficiency > 0 and self.v_c >= inducible

    def gamma_bar(self) -> float:
        """Firing rate at which researching ties blind adoption."""
        return (self.c + (1 - self.signal_good()) * self.w) / (
            (1 - self.pi) * (1 - self.eps) * self.v_c
        )

    def slope(self) -> float:
        """Deterrence gain per unit reach over the failure-state probability."""
        gain = (1 - self.pi) * (1 - self.eps) - self.pi * self.eps * self.g
        return gain / ((1 - self.pi) * self.eps)

    def h_tilde(self, scale: float) -> float:
        """Threshold for q(z) = scale * z, where r(x) = scale * x**2 / 2."""
        return min(1.0, 2 * self.slope() / (scale * self.gamma_bar() ** 2))

    def output(self, h: float, effort: bool) -> float:
        if effort:
            per_access = (
                self.pi * (1 - self.eps) * (1 + self.g)  # good, signal right: adopt
                + self.pi * self.eps  # good, signal wrong: abstain
                + (1 - self.pi) * (1 - self.eps)  # bad, signal right: abstain
            )
        else:
            per_access = self.pi * (1 + self.g)
        return (1 - h) + h * per_access

    def welfare(self, h: float, effort: bool) -> float:
        return self.output(h, effort) - (self.c * h if effort else 0.0)

    def drop(self, h: float) -> float:
        return self.output(h, True) - self.output(h, False)

    def payoff_effort_uniform(self, gamma: float) -> float:
        """Prospective pay, each failure fired with probability gamma."""
        return -self.c + self.signal_good() * self.w + (1 - (1 - self.pi) * self.eps * gamma) * self.v_c

    def payoff_shirk_seniority(self, m: int) -> float:
        """All m blind adopters fail together when bad; exactly one is fired."""
        return self.w + self.v_c * (1 - (1 - self.pi) / m)

    def policy(self, h: float, scale: float) -> float:
        return self.gamma_bar() if h < self.h_tilde(scale) else 0.0


def access_count(h: float, n_agents: int) -> int:
    return int(math.floor(h * n_agents + 0.5))


def grid_points(start: float, stop: float, step: float) -> list[float]:
    return [start + i * step for i in range(int(round((stop - start) / step)) + 1)]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _within_se(name: str, mean: float, se: float, target: float, problems: list[str]) -> None:
    gap = abs(mean - target)
    if gap > MC_SIGMAS * se and gap > PRINT_TOL * max(1.0, abs(target)):
        problems.append(f"{name} {mean} +- {se} is {gap / se if se else math.inf:.1f} SE from {target}")


def _mean_se(stdout: str, label: str) -> tuple[float, float] | None:
    match = re.search(rf"^{re.escape(label)}\s+{_NUM} \+- {_NUM}$", stdout, re.M)
    return (float(match.group(1)), float(match.group(2))) if match else None


def check_solve(model: Model, scale: float, stdout: str) -> tuple[list[str], list[str]]:
    problems: list[str] = []
    values = dict(re.findall(r"^(?:minimal punishment rate|credibility threshold) (\w+)\s+= (\S+)$", stdout, re.M))
    if set(values) != {"gamma_bar", "h_tilde"}:
        return ["solve output lacks gamma_bar or h_tilde"], []
    if not _close(float(values["gamma_bar"]), model.gamma_bar(), PRINT_TOL):
        problems.append(f"gamma_bar {values['gamma_bar']} != {model.gamma_bar()}")
    if abs(float(values["h_tilde"]) - model.h_tilde(scale)) > THRESHOLD_TOL:
        problems.append(f"h_tilde {values['h_tilde']} != {model.h_tilde(scale)}")
    verdicts = re.findall(r"^  \[(\w+)\] (\w+):", stdout, re.M)
    if len(verdicts) != 4 or any(status != "pass" for status, _ in verdicts):
        problems.append(f"verification lines {verdicts} are not four [pass]")
    return problems, []


def _csv_rows(data: bytes | None, columns: tuple[str, ...], problems: list[str]) -> list[list[str]]:
    if data is None:
        problems.append("sweep wrote no CSV")
        return []
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = tuple(next(reader, ()))
    if header != columns:
        problems.append(f"CSV header {header} != {columns}")
        return []
    return list(reader)


def _check_row_count(stdout: str, grid: list[float], rows: list, problems: list[str]) -> None:
    match = re.match(r"wrote (\d+) rows to ", stdout)
    if not match or int(match.group(1)) != len(grid) or len(rows) != len(grid):
        problems.append(f"expected {len(grid)} rows, stdout {stdout.strip()!r}, CSV {len(rows)}")


def check_sweep_h(
    model: Model, scale: float, grid: list[float], stdout: str, data: bytes | None
) -> tuple[list[str], list[str]]:
    """Rows below h_tilde lie on the effort line, rows above on the shirk line."""
    problems: list[str] = []
    rows = _csv_rows(data, ("h", "regime", "gamma_star", "output", "welfare", "boundary"), problems)
    _check_row_count(stdout, grid, rows, problems)
    h_tilde, gb = model.h_tilde(scale), model.gamma_bar()
    for expected_h, row in zip(grid, rows):
        h, regime, gamma, output, welfare = float(row[0]), row[1], float(row[2]), float(row[3]), float(row[4])
        if not _close(h, expected_h, PRINT_TOL):
            problems.append(f"h column {h} != grid point {expected_h}")
        if h < h_tilde - THRESHOLD_TOL:
            allowed = ("effort",)
        elif h > h_tilde + THRESHOLD_TOL:
            allowed = ("shirk",)
        else:
            allowed = ("effort", "shirk")
        effort = regime == "effort"
        if (
            regime not in allowed
            or not _close(gamma, gb if effort else 0.0, PRINT_TOL)
            or not _close(output, model.output(h, effort), PRINT_TOL)
            or not _close(welfare, model.welfare(h, effort), PRINT_TOL)
        ):
            problems.append(f"h={h}: row {row} off the {allowed} line (h_tilde {h_tilde})")
        if len(problems) > 5:
            break
    return problems, []


def check_sweep_param(
    model: Model,
    scale: float,
    parameter: str,
    grid: list[float],
    stdout: str,
    data: bytes | None,
) -> tuple[list[str], list[str]]:
    """Each admissible row matches gamma_bar and h_tilde = min(1, 2 slope / (scale gb^2))."""
    problems: list[str] = []
    columns = ("value", "gamma_bar", "h_tilde", "admissible", "drop_at_h_tilde", "reason")
    rows = _csv_rows(data, columns, problems)
    _check_row_count(stdout, grid, rows, problems)
    for expected_value, row in zip(grid, rows):
        value = float(row[0])
        if not _close(value, expected_value, PRINT_TOL):
            problems.append(f"value column {value} != grid point {expected_value}")
        if parameter == "curve_scale":
            point, point_scale = model, scale * value
        else:
            point, point_scale = Model(**{**model.__dict__, parameter: value}), scale
        if not point.admissible():
            if row[3] != "false" or not row[5]:
                problems.append(f"{parameter}={value}: inadmissible point reported as {row}")
            continue
        if row[3] != "true":
            problems.append(f"{parameter}={value}: admissible point reported as {row}")
            continue
        h_tilde = point.h_tilde(point_scale)
        if (
            not _close(float(row[1]), point.gamma_bar(), PRINT_TOL)
            or abs(float(row[2]) - h_tilde) > THRESHOLD_TOL
            or abs(float(row[4]) - point.drop(h_tilde)) > THRESHOLD_TOL
        ):
            problems.append(
                f"{parameter}={value}: row {row} vs gamma_bar {point.gamma_bar()}"
                f" h_tilde {h_tilde} drop {point.drop(h_tilde)}"
            )
        if len(problems) > 5:
            break
    return problems, []


def check_simulate(
    model: Model,
    scale: float,
    sim: dict,
    stdout: str,
) -> tuple[list[str], list[str]]:
    """Output, welfare and the per-strategy payoff against their closed forms."""
    problems: list[str] = []
    notes: list[str] = []
    header = re.search(r"^agents (\d+)  trials (\d+)  seed (\d+)  gamma (\S+)$", stdout, re.M)
    if not header or tuple(int(x) for x in header.groups()[:3]) != (sim["n_agents"], sim["n_trials"], sim["seed"]):
        return [f"simulate header {header.group(0) if header else None!r} does not match the run"], notes
    h = access_count(sim["h"], sim["n_agents"]) / sim["n_agents"]
    effort = sim["profile"] == "effort"
    seniority = sim["punishment_mode"] == "seniority"
    gamma = model.policy(sim["h"], scale)
    for label, target in (("output/agent", model.output(h, effort)), ("welfare/agent", model.welfare(h, effort))):
        stat = _mean_se(stdout, label)
        if stat is None:
            problems.append(f"no {label} line")
        else:
            _within_se(label, *stat, target, problems)
    strategy = "effort_follow_signal" if effort else "shirk_use"
    if seniority and not effort:
        target = model.payoff_shirk_seniority(access_count(sim["h"], sim["n_agents"]))
    elif effort and not seniority:
        if not _close(float(header.group(4)), gamma, PRINT_TOL):
            problems.append(f"gamma {header.group(4)} != policy {gamma}")
        target = model.payoff_effort_uniform(gamma)
    else:
        return problems + ["the oracle has no payoff target for this profile and firing rule"], notes
    stat = _mean_se(stdout, f"payoff[{strategy}]")
    if stat is None:
        problems.append(f"no payoff[{strategy}] line")
    else:
        _within_se(f"payoff[{strategy}]", *stat, target, problems)
    if seniority:
        # Known defect: the CLI prints a gamma that seniority firing ignores and
        # compares against the uniform-random target at it.  Recorded, not counted.
        if float(header.group(4)) != 0.0:
            notes.append("cli prints a nonzero gamma under seniority firing, which ignores it (known defect)")
        notes.extend(
            f"cli reports [FAIL] {name} under seniority firing (known defect)"
            for name in re.findall(r"^  \[FAIL\] (\w+):", stdout, re.M)
        )
    return problems, notes


_SCENARIO = re.compile(
    r"^scenario (\w+): profile (\w+) at gamma (\S+) \((.+)\)\n"
    rf"  output/agent  {_NUM} \+- {_NUM}  target \S+\n"
    rf"  welfare/agent {_NUM} \+- {_NUM}  target \S+\n"
    r"  replacement cost \S+\n?"
    r"(?:  unraveled to effort in (\d+) rounds)?",
    re.M,
)


def check_experiment(model: Model, scale: float, sim: dict, stdout: str) -> tuple[list[str], list[str]]:
    """Baseline blind adoption past h_tilde; both repairs restore effort in equilibrium."""
    problems: list[str] = []
    m = access_count(sim["h"], sim["n_agents"])
    h = m / sim["n_agents"]
    base_gamma = model.policy(sim["h"], scale)
    expected = {
        "baseline": ("effort_follow_signal" if base_gamma > 0 else "shirk_use", base_gamma, None),
        "variable_compensation": ("effort_follow_signal", 0.0, None),
        "seniority": ("effort_follow_signal", 0.0, m),
    }
    found = {match.group(1): match for match in _SCENARIO.finditer(stdout)}
    if set(found) != set(expected):
        return [f"scenarios {sorted(found)} != {sorted(expected)}"], []
    for name, (profile, gamma, rounds) in expected.items():
        match = found[name]
        if match.group(2) != profile or match.group(4) != "equilibrium":
            problems.append(f"{name}: profile {match.group(2)} ({match.group(4)}), expected {profile} (equilibrium)")
        if not _close(float(match.group(3)), gamma, PRINT_TOL):
            problems.append(f"{name}: gamma {match.group(3)} != {gamma}")
        effort = profile == "effort_follow_signal"
        _within_se(f"{name} output", float(match.group(5)), float(match.group(6)), model.output(h, effort), problems)
        _within_se(f"{name} welfare", float(match.group(7)), float(match.group(8)), model.welfare(h, effort), problems)
        got_rounds = None if match.group(9) is None else int(match.group(9))
        if got_rounds != rounds:
            problems.append(f"{name}: unraveling rounds {got_rounds} != {rounds}")
    return problems, []
