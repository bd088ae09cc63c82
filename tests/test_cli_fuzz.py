"""Fuzz of the CLI contract: any INI file ends in a documented exit code.

Generated configs for all four subcommands must end in exit 0, 2, 3 or 4,
write at most one line to stderr, raise nothing out of ``main`` and emit
no Python warning (a real run prints a warning to stderr as two more
lines).  Sizes inside the caps stay tiny so each run is quick; huge sizes
appear only above the caps, where they must be rejected before anything is
built.  Sweeps run in blocks of 7 grid points, so that a grid spans many
blocks, and a sweep that exits other than 0 must leave no ``--out`` file.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_POINTS
from shirklab import sweeps
from shirklab.cli import main

COMMANDS = ("solve", "simulate", "sweep", "experiment")

#: Values every numeric key may take besides its plausible range.
WILD_NUMBERS = (
    "nan", "inf", "-inf", "-1", "0", "1e-320", "1e300", "-1e300", "1e308",
    "2.5", "abc", "", "0x10",
)


def _number(low, high):
    return st.floats(low, high, allow_nan=False).map(repr)


def _mostly(common, rare):
    """``common`` 24 times in 25, ``rare`` otherwise; shrinks towards ``common``."""
    return st.integers(0, 24).flatmap(lambda k: rare if k == 24 else common)


def _value(plausible, *wild):
    """A key's value: mostly plausible, else a wild number or None (key left out)."""
    return _mostly(plausible, st.one_of(st.none(), st.sampled_from(WILD_NUMBERS + wild)))


def _size(plausible, cap):
    """A size: mostly tiny, else invalid or above its cap (never left at the default)."""
    invalid = ("nan", "inf", "-1", "0", "2.5", "abc", "", str(cap + 1), "1e19", "1e300")
    return _mostly(plausible, st.sampled_from(invalid))


def _choice(valid, invalid):
    return _mostly(st.sampled_from(valid), st.sampled_from((None, invalid)))


MODEL = st.sampled_from(REFERENCE_POINTS).flatmap(
    lambda p: st.fixed_dictionaries(
        {key: _value(st.just(repr(getattr(p, key)))) for key in ("pi", "eps", "g", "c", "w", "v_c")}
    )
)

CURVE = st.fixed_dictionaries(
    {
        "family": _choice(("linear", "power", "constant"), "quadratic"),
        "scale": _value(_number(0.0, 5000.0)),
        "exponent": _value(_number(0.0, 4.0)),
        "level": _value(_number(0.0, 50.0)),
        # the default of 10^5 nodes is left out to keep each run quick
        "resolution": _size(st.integers(2, 2000).map(str), 10**7),
    }
)

CURVE_FILES = _mostly(
    st.none(),
    st.one_of(
        st.sampled_from(("", "0.5 1.0\n0.2 3.0\n", "0.5 1.0 2.0\n", "0.5\n", "1.5 2.0\n", "0.1 cheap\n")),
        st.lists(
            st.tuples(_value(_number(0.0, 1.0)), _value(_number(0.0, 100.0))), min_size=1, max_size=8
        ).map(lambda rows: "".join(f"{z} {q}\n" for z, q in rows)),
    ),
)

SIMULATION = st.fixed_dictionaries(
    {
        "n_agents": _size(st.integers(1, 60).map(str), 10**7),
        "n_trials": _size(st.integers(1, 30).map(str), 10**6),
        "h": _value(_number(0.0, 1.0)),
        "seed": _value(st.integers(0, 2**64 - 1).map(str), str(2**64)),
        "signal_correlation": _choice(("common", "independent"), "shared"),
        "compensation": _choice(("prospective", "realized"), "piece"),
        "punishment_mode": _choice(("uniform_random", "seniority"), "lottery"),
        "profile": _choice(("effort", "shirk"), "mixed"),
        "gamma": _value(st.one_of(st.just("equilibrium"), _number(0.0, 1.0))),
    }
)

GRIDS = _mostly(
    st.one_of(
        st.lists(_number(-0.5, 1.5), min_size=1, max_size=5).map(", ".join),
        # start:stop:step ranges of at most 200 points
        st.tuples(_number(-0.5, 1.0), st.integers(1, 200), _number(1e-3, 0.5)).map(
            lambda t: f"{t[0]}:{float(t[0]) + float(t[2]) * (t[1] - 1)}:{t[2]}"
        ),
    ),
    # malformed grids, ranges far above the point cap, and curve scales
    # that overflow a 1e300 curve
    st.sampled_from(
        ("", "nan", "0, inf", "0:1:1e-9", "0:1e300:1", "0:1:0", "1:0:0.1", "0:1", "0:1:-0.1", "a:b:c",
         "0:inf:1", "1, 1e10", "1, 1.7e8")
    ),
)

SWEEP = st.fixed_dictionaries(
    {
        "parameter": _choice(("h", "pi", "eps", "g", "c", "w", "v_c", "curve_scale"), "theta"),
        "grid": _mostly(GRIDS, st.none()),
    }
)


def _section(name, values):
    lines = [f"[{name}]"]
    lines.extend(f"{key} = {value}" for key, value in values.items() if value is not None)
    return "\n".join(lines) + "\n"


@st.composite
def run_configs(draw):
    """INI text, the curve file's text (or None) and the subcommand."""
    command = draw(st.sampled_from(COMMANDS))
    curve_file = draw(CURVE_FILES)
    curve = draw(CURVE)
    if curve_file is not None:
        curve["file"] = "{curve_file}"
        if draw(st.booleans()):
            curve["family"] = None
    sections = [_section("model", draw(MODEL)), _section("curve", curve)]
    if command in ("simulate", "experiment") or draw(st.booleans()):
        sections.append(_section("simulation", draw(SIMULATION)))
    if command == "sweep" or draw(st.booleans()):
        sections.append(_section("sweep", draw(SWEEP)))
    # a duplicate section, an unknown one, or a line that is not INI
    odd = st.sampled_from(("[model]\npi = 0.9\n", "[extra]\nk = 1\n", "orphan line\n"))
    extra = draw(_mostly(st.just(""), odd))
    return "\n".join(sections) + extra, curve_file, command


@settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(run=run_configs(), use_out=st.booleans())
def test_any_config_ends_in_a_documented_exit_code(run, use_out):
    check_run(run, use_out)


def check_run(run, use_out):
    text, curve_file, command = run
    with tempfile.TemporaryDirectory() as tmp:
        curve_path = Path(tmp) / "q.txt"
        if curve_file is not None:
            curve_path.write_text(curve_file)
        out = Path(tmp) / "out.csv"
        config = Path(tmp) / "run.ini"
        config.write_text(text.replace("{curve_file}", str(curve_path)))
        # only sweep takes --out; passed elsewhere it would stop the run before the config is read
        argv = [command, "--config", str(config)] + (["--out", str(out)] if use_out and command == "sweep" else [])
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                with mock.patch.object(sweeps, "CSV_CHUNK_ROWS", 7):
                    code = main(argv)
        # a sweep that fails raises before it opens --out
        assert code == 0 or not out.exists()
    err = stderr.getvalue()
    assert code in (0, 2, 3, 4), err
    assert err.count("\n") <= 1 and "Traceback" not in err, err
    assert (code == 0) == (err == ""), err
    assert not [str(w.message) for w in caught]
    return code
