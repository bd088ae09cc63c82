"""Comparative statics over the technology reach and the model primitives.

A sweep over the reach h traces the model's central prediction: output
follows the first-best line while punishment is credible, then drops to
the blind-adoption line once the reach passes the credibility threshold.
Parameter sweeps recompute the equilibrium objects per grid point and
flag inadmissible points instead of dropping them, so sweeps across the
admissibility boundary stay informative.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace as dc_replace
from typing import Iterable

import numpy as np

from .errors import InvalidCurveError, InvalidParamsError
from .equilibrium import (
    EFFORT,
    SHIRK,
    TOL,
    ReplacementCostCurve,
    _solve_checked,
    expected_output,
    output_drop,
    policy,
    solve_threshold,
)
from .model import NUMBER_FORMAT, ModelParams, _fmt, validate_params

SWEEPABLE_PARAMETERS = ("h", "pi", "eps", "g", "c", "w", "v_c", "curve_scale")


@dataclass(frozen=True, eq=False)
class Table:
    """A result table stored column by column.

    columns -- the column names.
    data -- one sequence of cells per column, all of one length: a float
        array for a column of numbers, else an array, tuple or list of
        cells (float, bool, int, str or None).

    ``rows`` builds one tuple of Python objects per row, so ``len`` is the
    cheap row count.  Tables compare by identity, as their arrays have no
    single truth value.
    """

    columns: tuple[str, ...]
    data: tuple

    def __post_init__(self) -> None:
        if len(self.data) != len(self.columns):
            raise ValueError(f"{len(self.columns)} column names for {len(self.data)} columns")
        if len(set(map(len, self.data))) > 1:
            raise ValueError("columns differ in length")

    def __len__(self) -> int:
        return len(self.data[0]) if self.data else 0

    @property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*map(_cells, self.data)))


def _cells(values) -> list:
    """A column's cells as Python objects."""
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


def _floats(grid: Iterable[float]) -> np.ndarray:
    """The grid points as a new float array."""
    return np.array(grid if isinstance(grid, np.ndarray) else list(grid), dtype=float)


def sweep_h(params: ModelParams, curve: ReplacementCostCurve, grid: Iterable[float]) -> Table:
    """Sweep the technology reach over ``grid`` at fixed parameters.

    Each row reports the operative regime (effort below the credibility
    threshold, shirk above), the firing policy, expected output, and
    welfare.  Rows within the solver's ``TOL`` of the threshold carry a
    boundary flag.  The credible interval [0, h_tilde] is closed, as the
    solve returns the last reach it confirmed credible, so a row at
    h_tilde itself reports the punishment regime.  The closed forms run
    once on the whole grid array.
    """
    sol = solve_threshold(params, curve)
    h = _floats(grid)
    gamma_star = policy(h, sol)
    effort = gamma_star > 0.0
    output = np.where(effort, expected_output(h, EFFORT, params), expected_output(h, SHIRK, params))
    # welfare nets out the effort cost that researchers pay
    welfare = np.where(effort, output - params.c * h, output)
    return Table(
        ("h", "regime", "gamma_star", "output", "welfare", "boundary"),
        (h, np.where(effort, EFFORT, SHIRK), gamma_star, output, welfare, np.abs(h - sol.h_tilde) <= TOL),
    )


def sweep_param(parameter: str, params: ModelParams, curve: ReplacementCostCurve, grid: Iterable[float]) -> Table:
    """Recompute the equilibrium objects along a grid of one parameter.

    ``parameter`` is one of ``SWEEPABLE_PARAMETERS`` other than ``h``.
    Inadmissible grid points are emitted with ``admissible=False`` and
    the name of the violated condition; their equilibrium columns are
    left empty.  Points outside a parameter's range, or a negative
    curve scale, are flagged the same way with the error message.  Each
    point is checked once, here, and the admissible points are solved
    together in one batched bisection, as ``solve_thresholds`` does but
    without checking them again; for
    ``curve_scale`` no scaled curve is built, and only points with a
    step too close to call from the unscaled sums get scaled sums.
    """
    if parameter not in SWEEPABLE_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r}; expected one of {SWEEPABLE_PARAMETERS}")
    if parameter == "h":
        raise ValueError("use sweep_h for grids over the technology reach")
    values = _floats(grid)
    reasons = [""] * len(values)
    solved, points = [], []
    # a curve_scale point keeps params, so they are checked once
    fixed = validate_params(params) if parameter == "curve_scale" else None
    for index, value in enumerate(values.tolist()):
        try:
            if parameter == "curve_scale":
                curve.check_scale(value)
                point = params
            else:
                point = dc_replace(params, **{parameter: value})
        except (InvalidParamsError, InvalidCurveError) as exc:
            reasons[index] = str(exc)
            continue
        report = validate_params(point) if fixed is None else fixed
        if not report.admissible:
            reasons[index] = ", ".join(check.name for check in report.failures())
            continue
        solved.append(index)
        points.append(point)
    scales = values[solved] if parameter == "curve_scale" else None
    gammas, h_tildes, drops = [None] * len(values), [None] * len(values), [None] * len(values)
    admissible = [False] * len(values)
    for index, point, sol in zip(solved, points, _solve_checked(points, curve, scales)):
        gammas[index], h_tildes[index] = sol.gamma_bar, sol.h_tilde
        admissible[index] = True
        drops[index] = output_drop(sol.h_tilde, point)
    return Table(
        ("value", "gamma_bar", "h_tilde", "admissible", "drop_at_h_tilde", "reason"),
        (values, gammas, h_tildes, admissible, drops, reasons),
    )


#: Rows formatted and written at a time, which bounds the text held in memory.
#: A chunk's one-value columns are literal text in its row template, which is
#: repeated once per row: on a 10^5-row h sweep (fresh process, 2-CPU Xeon,
#: numpy 2.4) peak RSS was 41.32 MB without them, 41.68 MB with them at 4096
#: rows and 41.36 MB at 2048, at the same speed.
CSV_CHUNK_ROWS = 2048
# characters csv.writer may quote a field for, with its default dialect
_CSV_SPECIAL = frozenset(',"\r\n')


def _cell_text(value) -> str:
    """A cell as ``emit_csv`` writes it, quoted by csv.writer where needed."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    text = str(value)
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text])
    return buffer.getvalue()[:-1]


class _Texts(dict):
    """Cell texts keyed by (type, value), each made by ``_cell_text`` on first use.

    The type keeps True, 1 and "1" apart.  Floats are never looked up:
    0.0 and -0.0 are equal keys with different texts.
    """

    def __missing__(self, key):
        text = self[key] = _cell_text(key[1])
        return text

    def of(self, cells: list) -> list[str]:
        return [_fmt(cell) if isinstance(cell, float) else self[type(cell), cell] for cell in cells]


def emit_csv(table: Table, path: str) -> None:
    """Write the table to ``path`` with a header row, 12 significant digits per number.

    Rows are written ``CSV_CHUNK_ROWS`` at a time from slices of the
    columns, and one %-template formats a whole chunk.  A numpy column
    (not of objects) whose cells in the chunk all have the first cell's
    bytes, so -0.0 and 0.0 differ and a NaN run is one value, is one literal
    text in the template, its ``%`` doubled.  The template is repeated
    per row, which is why chunks are 2048 rows (see ``CSV_CHUNK_ROWS``).
    Otherwise a column of plain floats goes to the number format, and
    any other column becomes cell texts, each non-float text made once
    per distinct value.  An empty table is an error, raised before the
    file is opened.
    """
    if not len(table):
        raise ValueError("refusing to write an empty table")
    # csv.writer quotes a row's lone empty field, so that it does not read
    # back as a blank line
    lone = len(table.columns) == 1
    texts = [_Texts() for _ in table.data]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(table.columns)
        for start in range(0, len(table), CSV_CHUNK_ROWS):
            stop = min(start + CSV_CHUNK_ROWS, len(table))
            specs, fields = [], []
            for values, known in zip(table.data, texts):
                chunk = values[start:stop]
                if _one_value(chunk):
                    (text,) = known.of(chunk[:1].tolist())
                    specs.append((text if text or not lone else '""').replace("%", "%%"))
                    continue
                column = _cells(chunk)
                # a float64 array's cells are Python floats, so it skips the scan
                if isinstance(chunk, np.ndarray) and chunk.dtype == float or set(map(type, column)) == {float}:
                    specs.append("%" + NUMBER_FORMAT)
                else:
                    column = known.of(column)
                    specs.append("%s")
                    if lone:
                        column = [text or '""' for text in column]
                fields.append(column)
            cells = [None] * ((stop - start) * len(fields))
            for index, column in enumerate(fields):
                cells[index :: len(fields)] = column
            template = ",".join(specs) + "\n"
            handle.write((template * (stop - start)) % tuple(cells))


def _one_value(values) -> bool:
    """Whether ``values`` is a numpy column, not of objects, whose cells all have the first cell's bytes."""
    if not isinstance(values, np.ndarray) or values.dtype == object:
        return False
    return values.tobytes() == values[:1].tobytes() * len(values)


#: Most points a ``start:stop:step`` grid may hold, checked before it is built.
MAX_GRID_POINTS = 10**7


def grid_size(start: float, stop: float, step: float) -> int:
    """Number of points ``make_grid`` builds from these bounds, zero when ``stop < start``.

    Raises ``ValueError`` for a non-finite bound or step, a step that is
    not positive, or more than ``MAX_GRID_POINTS`` points.
    """
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError("start, stop and step must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    span = (stop - start) / step + 1e-9
    if span >= MAX_GRID_POINTS:
        raise ValueError(f"grid would have more than {MAX_GRID_POINTS} points")
    return max(int(math.floor(span)) + 1, 0)


def make_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive arithmetic grid ``start + i * step`` as a float array; ``grid_size`` checks the bounds.

    Each point is the same multiply-add as in Python floats.
    """
    return start + np.arange(grid_size(start, stop, step)) * step
