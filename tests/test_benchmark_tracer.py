"""The benchmark's span tracer still fits the package.

``perfbench/spans.py`` wraps package functions and methods by name, and
reads fields of their results.  A name it hooks that the package drops
would raise in every traced benchmark run, so each subcommand runs here
under the tracer, in a fresh process, as a traced benchmark child does.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONFIG = (
    "[model]\npi = 0.9\neps = 0.1\ng = 0.5\nc = 0.01\nw = 0.05\nv_c = 1.0\n"
    "[curve]\nfamily = linear\nscale = 1000\nresolution = 1000\n"
    "[simulation]\nh = 0.5\nn_agents = 20\nn_trials = 10\nseed = 3\n"
    "[sweep]\nparameter = h\ngrid = 0.0:1.0:0.25\n"
)

TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import shirklab.cli
from spans import Tracer, layer_metrics

tracer = Tracer()
tracer.install()
codes = []
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(shirklab.cli.main(argv))
metrics = layer_metrics(tracer.spans)
print(json.dumps({{
    "codes": codes,
    "rows": metrics["sweeps.rows"],
    "rounds": metrics["simulation.unravel_rounds"],
    "builds": metrics["equilibrium.curve_build.calls"],
    "validations": metrics["equilibrium.curve_validate.calls"],
    "masked_arrays": "numpy.ma" in sys.modules,
}}))
"""


def test_every_subcommand_runs_under_the_benchmark_tracer(tmp_path):
    config, blocks = tmp_path / "run.ini", tmp_path / "blocks.ini"
    config.write_text(CONFIG)
    # a pi sweep of 4901 points, written in two blocks, each its own traced sweep_param call
    blocks.write_text(CONFIG.replace("parameter = h\ngrid = 0.0:1.0:0.25", "parameter = pi\ngrid = 0.5:0.99:0.0001"))
    commands = [[name, "--config", str(config)] for name in ("solve", "simulate", "experiment")] + [
        ["sweep", "--config", str(path), "--out", str(tmp_path / "sweep.csv")] for path in (config, blocks)
    ]
    script = TRACED_RUN.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"), commands=commands)
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    result = json.loads(run.stdout)
    assert result["codes"] == [0] * len(commands)
    # the 5-point h sweep and the 4901-point pi sweep, and the seniority arm's unraveling past h_tilde
    assert result["rows"] == 5 + 4901
    assert result["rounds"] > 0
    # one curve per command, each validated by its constructor
    assert result["builds"] == len(commands)
    assert result["validations"] == result["builds"]
    # importing numpy.ma would cost every benchmark child 9-19 ms and about 1.3 MB of RSS
    assert not result["masked_arrays"]
