"""Benchmark of the shirklab CLI, end to end and per module.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload, untraced and then traced.

Each workload writes its INI inputs from the seed, then runs real CLI
commands in fresh child processes, one at a time (a closed loop with one
client), until S seconds have passed.  The CLI keeps its default
``--threads``.  Every command's output is checked against closed forms in
``oracle.py``, and its stdout (plus the CSV it wrote) is digested: a digest
that differs from an earlier run of the same code and seed is a failure.

``--trace 0`` reports the end-to-end metrics: set-up time, wall time of the
commands, work per second, CPU time, and peak RSS of each child, as medians
over the children.  ``--trace 1`` alternates untraced children with
children that wrap each module's public functions (``spans.py``), and
reports the per-layer metrics of the traced ones plus the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it describe the run.  The exit
code is 0 when a result is printed and 2 when the program cannot be set up,
for example when the checkout holds no ``src/shirklab``.

Known defect, recorded and not counted: under ``punishment_mode =
seniority`` the ``simulate`` command prints a gamma that seniority firing
ignores, and prints ``[FAIL] payoff_shirk_use`` because it compares against
the uniform-random target.  The oracle checks the seniority target
``w + v_c (1 - (1 - pi) / m)`` instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracle
from spans import METRICS as LAYER_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench")

#: Total time one invocation may take, leaving margin under the 180 s limit.
BUDGET_S = 165.0
#: Fewest timed children per invocation, whatever ``--seconds`` says.
MIN_RUNS = 3

MODEL = {"pi": 0.9, "eps": 0.1, "g": 0.5, "c": 0.01, "w": 0.05, "v_c": 1.0}

END_TO_END = {"setup_s": "s", "run_s": "s", "work_per_s": "unit/s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Command:
    argv: list[str]
    check: Callable[[str, bytes | None], tuple[list[str], list[str]]]
    out: str | None = None


@dataclass(frozen=True)
class Workload:
    inputs: dict[str, str]
    commands: list[Command]
    work: float
    work_unit: str


def _ini(sections: dict[str, dict]) -> str:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)


def _simulate(seed: int, work: Path, **sim) -> Workload:
    ini = work / "simulate.ini"
    sim = {"h": 0.5, "n_agents": 10_000, "seed": seed, "gamma": "equilibrium", **sim}
    text = _ini({"model": MODEL, "curve": {"family": "linear", "scale": 100}, "simulation": sim})
    check = partial(oracle.check_simulate, oracle.Model(**MODEL), 100.0, sim)
    m = oracle.access_count(sim["h"], sim["n_agents"])
    return Workload(
        {str(ini): text},
        [Command(["simulate", "--config", str(ini)], lambda stdout, data: check(stdout))],
        m * sim["n_trials"],
        "agent-trials",
    )


def simulate_common(seed: int, work: Path) -> Workload:
    return _simulate(
        seed, work, n_trials=10_000, signal_correlation="common", punishment_mode="uniform_random", profile="effort"
    )


def simulate_independent(seed: int, work: Path) -> Workload:
    return _simulate(
        seed, work, n_trials=5_000, signal_correlation="independent", punishment_mode="seniority", profile="shirk"
    )


def experiment(seed: int, work: Path) -> Workload:
    ini = work / "experiment.ini"
    sim = {"h": 0.5, "n_agents": 2_000, "n_trials": 500, "seed": seed}
    text = _ini({"model": MODEL, "curve": {"family": "linear", "scale": 1000}, "simulation": sim})
    check = partial(oracle.check_experiment, oracle.Model(**MODEL), 1000.0, sim)
    return Workload(
        {str(ini): text},
        [Command(["experiment", "--config", str(ini)], lambda stdout, data: check(stdout))],
        oracle.access_count(sim["h"], sim["n_agents"]),
        "access agents unraveled",
    )


#: (parameter, start, stop, step) of the three sweeps.
SWEEPS = (("h", 0.0, 1.0, 1e-5), ("pi", 0.5, 0.99, 0.0005), ("curve_scale", 0.1, 10.0, 0.01))


def solve_sweep(seed: int, work: Path) -> Workload:
    # The seed picks the curve scale, so h_tilde moves inside (0.13, 0.41).
    scale = round(1000 * (0.5 + random.Random(seed).random()), 6)
    model = oracle.Model(**MODEL)
    curve = {"family": "linear", "scale": scale}
    solve_ini = work / "solve.ini"
    inputs = {str(solve_ini): _ini({"model": MODEL, "curve": curve})}
    commands = [Command(["solve", "--config", str(solve_ini)], lambda stdout, data: oracle.check_solve(model, scale, stdout))]
    points = 0
    for parameter, start, stop, step in SWEEPS:
        ini, out = work / f"sweep_{parameter}.ini", work / f"sweep_{parameter}.csv"
        inputs[str(ini)] = _ini({"model": MODEL, "curve": curve, "sweep": {"parameter": parameter, "grid": f"{start}:{stop}:{step}"}})
        grid = oracle.grid_points(start, stop, step)
        points += len(grid)
        if parameter == "h":
            check = partial(oracle.check_sweep_h, model, scale, grid)
        else:
            check = partial(oracle.check_sweep_param, model, scale, parameter, grid)
        commands.append(Command(["sweep", "--config", str(ini), "--out", str(out)], check, str(out)))
    return Workload(inputs, commands, points, "grid points")


WORKLOADS = {
    "simulate_common": simulate_common,
    "simulate_independent": simulate_independent,
    "experiment": experiment,
    "solve_sweep": solve_sweep,
}


# -- children ----------------------------------------------------------------


@dataclass
class Child:
    result: dict
    cpu_s: float


def spawn(spec: Path, flags: list[str], timeout: float) -> Child:
    """Run child.py once and collect its result and its CPU time from wait4."""
    result_path = spec.with_name("result.json")
    result_path.unlink(missing_ok=True)
    with open(spec.with_name("child.log"), "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec), str(result_path), repr(t0), *flags],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
    except (OSError, json.JSONDecodeError):
        log_tail = spec.with_name("child.log").read_text(errors="replace")[-2000:]
        result = {"crash": f"child exited {proc.returncode} without a result: {log_tail}"}
    if "setup_error" in result:
        raise SetupError(result["setup_error"])
    return Child(result, usage.ru_utime + usage.ru_stime)


class SetupError(RuntimeError):
    """The program cannot be imported from this checkout."""


# -- correctness ---------------------------------------------------------------


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shirklab").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Verifier:
    """Checks each command's result against the oracle and earlier digests."""

    def __init__(self, workload: Workload, store: Path) -> None:
        self.workload = workload
        self.store = store
        self.digests = json.loads(store.read_text()) if store.exists() else {}
        base = hashlib.sha256((_source_digest() + json.dumps(workload.inputs, sort_keys=True)).encode())
        self.keys = [
            hashlib.sha256(base.digest() + json.dumps(cmd.argv).encode()).hexdigest()[:24]
            for cmd in workload.commands
        ]
        self.checked: dict[str, tuple[list[str], list[str]]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: Counter[str] = Counter()

    def verify(self, child: Child) -> None:
        outcomes = child.result.get("commands", [])
        for index, cmd in enumerate(self.workload.commands):
            self.attempted += 1
            problems = self._problems(cmd, self.keys[index], outcomes[index] if index < len(outcomes) else None, child)
            if problems:
                self.failed += 1
                self.problems.extend(f"{' '.join(cmd.argv[:1])}: {p}" for p in problems)

    def _problems(self, cmd: Command, key: str, outcome: dict | None, child: Child) -> list[str]:
        if outcome is None:
            return [child.result.get("crash", "command did not run")]
        if outcome["exit"] != 0:
            return [f"exit {outcome['exit']}: {outcome['stderr'].strip()[-500:]}"]
        if "Traceback" in outcome["stderr"]:
            return [f"traceback: {outcome['stderr'].strip()[-500:]}"]
        data = (ROOT / cmd.out).read_bytes() if cmd.out and (ROOT / cmd.out).exists() else None
        digest = hashlib.sha256(outcome["stdout"].encode() + b"\0" + (data or b"")).hexdigest()
        if digest not in self.checked:
            self.checked[digest] = cmd.check(outcome["stdout"], data)
        problems, notes = self.checked[digest]
        self.notes.update(notes)
        earlier = self.digests.setdefault(key, digest)
        if earlier != digest:
            return problems + ["output differs from an earlier run with the same seed"]
        return problems

    def save(self) -> None:
        temp = self.store.with_suffix(".tmp")
        temp.write_text(json.dumps(self.digests, sort_keys=True))
        os.replace(temp, self.store)


# -- measurement ---------------------------------------------------------------


def _summary(values: list[float]) -> str:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return f"q1 {q1:.6g}  q3 {q3:.6g}  min {min(values):.6g}  max {max(values):.6g}  n {len(values)}"


def measure(name: str, seed: int, seconds: float, trace: int) -> int:
    work = WORK / name
    (ROOT / work).mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, work)
    for path, text in workload.inputs.items():
        (ROOT / path).write_text(text)
    spec = ROOT / work / "spec.json"
    spec.write_text(json.dumps({"inputs": list(workload.inputs), "commands": [c.argv for c in workload.commands]}))
    verifier = Verifier(workload, ROOT / WORK / "digests.json")

    load_before = os.getloadavg()
    start = time.monotonic()

    def remaining() -> float:
        return BUDGET_S - (time.monotonic() - start)

    def probe() -> float:
        child = spawn(spec, ["--setup-only"], remaining())
        if "ready_s" not in child.result:
            raise SetupError(child.result["crash"])
        return child.result["ready_s"]

    setup_s: list[float] = []
    plain: list[Child] = []
    traced: list[Child] = []
    probe()  # warm-up, not counted: fills caches such as __pycache__
    last = 0.0
    while True:
        runs = len(plain) + len(traced)
        elapsed = time.monotonic() - start
        if runs >= (2 * MIN_RUNS if trace else MIN_RUNS) and elapsed + last > seconds:
            break
        if remaining() < 2 * last + 5:
            break
        flags = ["--trace"] if trace and runs % 2 else []
        for cmd in workload.commands:
            if cmd.out:
                (ROOT / cmd.out).unlink(missing_ok=True)
        began = time.monotonic()
        child = spawn(spec, flags, remaining())
        last = time.monotonic() - began
        verifier.verify(child)
        if "commands" not in child.result:
            break
        (traced if flags else plain).append(child)
        if not trace:
            # A set-up-only child after each run spreads the set-up samples
            # over the whole measuring window.
            setup_s.extend([child.result["ready_s"], probe()])
    verifier.save()
    load_after = os.getloadavg()

    def run_s(children: list[Child]) -> list[float]:
        return [sum(c["wall_s"] for c in child.result["commands"]) for child in children]

    if not plain or (trace and not traced):
        print("no run completed; problems: " + "; ".join(verifier.problems[:5]), file=sys.stderr)
        return 1
    if trace:
        samples: dict[str, list[float]] = {}
        per_run = [layer_metrics(child.result["spans"]) for child in traced]
        for metric in LAYER_METRICS:
            samples[metric] = [layer[metric] for layer in per_run]
        samples["trace.overhead_s"] = [statistics.median(run_s(traced)) - statistics.median(run_s(plain))]
        units = {**LAYER_METRICS, "trace.overhead_s": "s"}
    else:
        times = run_s(plain)
        samples = {
            "setup_s": setup_s,
            "run_s": times,
            "work_per_s": [workload.work / t for t in times],
            "cpu_s": [child.cpu_s for child in plain],
            "peak_rss_mb": [child.result["peak_rss_mb"] for child in plain],
        }
        units = END_TO_END
    metrics = {}
    for metric, values in samples.items():
        value = statistics.median(values)
        if metric == "work_per_s":
            value = workload.work / statistics.median(samples["run_s"])
        metrics[metric] = {"value": value, "unit": units[metric]}
        print(f"{metric:45s} {value:<14.6g} {units[metric]:8s} {_summary(values)}")

    first = plain[0].result
    print(
        f"run: workload {name}  seed {seed}  trace {trace}  seconds {seconds}"
        f"  untraced children {len(plain)}  traced children {len(traced)}  set-up samples {len(setup_s)}"
        f"  work/run {workload.work:g} {workload.work_unit}  nproc {os.cpu_count()}"
        f"  python {first['python']}  numpy {first['numpy']}  cli threads {first['cli_threads']}"
        f"  loadavg before {' '.join(f'{x:.2f}' for x in load_before)}"
        f"  after {' '.join(f'{x:.2f}' for x in load_after)}"
    )
    print(
        f"fail_ratio {verifier.failed / verifier.attempted:.6g}"
        f"  ({verifier.failed} failed of {verifier.attempted} commands attempted)"
    )
    for problem in verifier.problems[:10]:
        print(f"problem: {problem}")
    for note, count in sorted(verifier.notes.items()):
        print(f"known defect, not counted: {note} (seen {count} times)")
    print(
        json.dumps(
            {
                "correct": verifier.failed == 0,
                "attempted": verifier.attempted,
                "failed": verifier.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
        help="'all' runs every workload, untraced and then traced",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "shirklab" / "cli.py").is_file():
        print(f"no shirklab source under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    runs = [(name, trace) for name in WORKLOADS for trace in (0, 1)] if args.workload == "all" else [(args.workload, args.trace)]
    try:
        for name, trace in runs:
            if len(runs) > 1:
                print(f"== {name} trace {trace}")
            code = measure(name, args.seed, args.seconds, trace)
            if code:
                return code
        return 0
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
