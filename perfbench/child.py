"""One benchmark run in a fresh process: set up, run the CLI commands, report.

Usage: python3 perfbench/child.py SPEC RESULT T0 [--trace] [--setup-only]

SPEC is a JSON file written by ``run.py`` with the input files to read and
the CLI argument lists to run; T0 is the parent's ``time.monotonic()`` just
before it started this process (the clock is shared by all processes).
The child imports ``shirklab`` from the checkout's ``src`` directory, reads
the inputs, and notes the time as ready.  It then runs each command through
``shirklab.cli.main`` with stdout and stderr captured, and writes RESULT as
JSON.  With ``--trace`` the public functions of every module are wrapped and
the spans are written with the result.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _write(path: str, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def _peak_rss_mb() -> float:
    """High-water RSS of this process's own address space, since its exec.

    ``wait4``'s ``ru_maxrss`` would also count the parent's high-water mark,
    which the child inherits until it execs.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    spec_path, result_path, t0 = argv[0], argv[1], float(argv[2])
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy
        import shirklab
        import shirklab.cli
    except ImportError as exc:
        _write(result_path, {"setup_error": f"cannot import shirklab from {src}: {exc}"})
        return 1
    if Path(shirklab.__file__).resolve().parent != src.resolve() / "shirklab":
        _write(result_path, {"setup_error": f"shirklab imported from {shirklab.__file__}, not {src}"})
        return 1
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    for path in spec["inputs"]:
        Path(path).read_bytes()
    ready_s = time.monotonic() - t0

    result = {
        "ready_s": ready_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cli_threads": os.cpu_count() or 1,  # the CLI's --threads default
        "commands": [],
    }
    if "--setup-only" in argv:
        _write(result_path, result)
        return 0

    tracer = None
    if "--trace" in argv:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    for index, command in enumerate(spec["commands"]):
        if tracer is not None:
            tracer.run_id = index
        out, err = io.StringIO(), io.StringIO()
        code, trace_text = None, ""
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = shirklab.cli.main(command)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            trace_text = traceback.format_exc()
        wall_s = time.perf_counter() - start
        result["commands"].append(
            {"exit": code, "wall_s": wall_s, "stdout": out.getvalue(), "stderr": err.getvalue() + trace_text}
        )
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["spans"] = tracer.spans
    _write(result_path, result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
