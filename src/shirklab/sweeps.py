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
from itertools import chain
from typing import Iterable

from .errors import InvalidCurveError, InvalidParamsError
from .equilibrium import (
    EFFORT,
    SHIRK,
    TOL,
    ReplacementCostCurve,
    expected_output,
    output_drop,
    policy,
    solve_threshold,
)
from .model import NUMBER_FORMAT, ModelParams, _fmt, gamma_bar, is_admissible, validate_params

SWEEPABLE_PARAMETERS = ("h", "pi", "eps", "g", "c", "w", "v_c", "curve_scale")


@dataclass(frozen=True)
class Table:
    """A small column-ordered result table."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def sweep_h(params: ModelParams, curve: ReplacementCostCurve, grid: Iterable[float]) -> Table:
    """Sweep the technology reach over ``grid`` at fixed parameters.

    Each row reports the operative regime (effort below the credibility
    threshold, shirk above), the firing policy, expected output, and
    welfare.  Rows within the solver's ``TOL`` of the threshold carry a
    boundary flag.  The credible interval [0, h_tilde] is closed, as the
    solve returns the last reach it confirmed credible, so a row at
    h_tilde itself reports the punishment regime.
    """
    sol = solve_threshold(params, curve)
    rows = []
    for h in map(float, grid):
        gamma_star = policy(h, sol)
        regime = EFFORT if gamma_star > 0.0 else SHIRK
        output = expected_output(h, regime, params)
        welfare = output - params.c * h if regime == EFFORT else output
        boundary = abs(h - sol.h_tilde) <= TOL
        rows.append((h, regime, gamma_star, output, welfare, boundary))
    return Table(("h", "regime", "gamma_star", "output", "welfare", "boundary"), tuple(rows))


def sweep_param(parameter: str, params: ModelParams, curve: ReplacementCostCurve, grid: Iterable[float]) -> Table:
    """Recompute the equilibrium objects along a grid of one parameter.

    ``parameter`` is one of ``SWEEPABLE_PARAMETERS`` other than ``h``.
    Inadmissible grid points are emitted with ``admissible=False`` and
    the name of the violated condition; their equilibrium columns are
    left empty.  Points outside a parameter's range, or a negative
    curve scale, are flagged the same way with the error message.
    """
    if parameter not in SWEEPABLE_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r}; expected one of {SWEEPABLE_PARAMETERS}")
    if parameter == "h":
        raise ValueError("use sweep_h for grids over the technology reach")
    # a solve reads r(gamma_bar * h) with h <= 1 only, so a scaled curve is
    # built that far; an inadmissible point is never solved
    upto = gamma_bar(params) if is_admissible(params) else 0.0
    rows = []
    for value in map(float, grid):
        try:
            if parameter == "curve_scale":
                point_params, point_curve = params, curve.scaled(value, upto)
            else:
                point_params, point_curve = dc_replace(params, **{parameter: value}), curve
        except (InvalidParamsError, InvalidCurveError) as exc:
            rows.append((value, None, None, False, None, str(exc)))
            continue
        report = validate_params(point_params)
        if not report.admissible:
            reason = ", ".join(check.name for check in report.failures())
            rows.append((value, None, None, False, None, reason))
            continue
        sol = solve_threshold(point_params, point_curve)
        drop = output_drop(sol.h_tilde, point_params)
        rows.append((value, sol.gamma_bar, sol.h_tilde, True, drop, ""))
    return Table(
        ("value", "gamma_bar", "h_tilde", "admissible", "drop_at_h_tilde", "reason"),
        tuple(rows),
    )


#: Rows formatted and written at a time, which bounds the text held in memory.
CSV_CHUNK_ROWS = 4096
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


def emit_csv(table: Table, path: str) -> None:
    """Write the table to ``path`` with a header row, 12 significant digits per number.

    Rows are written ``CSV_CHUNK_ROWS`` at a time.  Within a chunk, a
    column of plain floats goes to the number format directly and every
    other column through ``_cell_text``, so one %-template formats the
    whole chunk.  An empty table is an error, raised before the file is
    opened.
    """
    if not table.rows:
        raise ValueError("refusing to write an empty table")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(table.columns)
        for start in range(0, len(table.rows), CSV_CHUNK_ROWS):
            chunk = table.rows[start : start + CSV_CHUNK_ROWS]
            columns, specs = [], []
            for column in zip(*chunk):
                if set(map(type, column)) == {float}:
                    columns.append(column)
                    specs.append("%" + NUMBER_FORMAT)
                else:
                    columns.append(tuple(map(_cell_text, column)))
                    specs.append("%s")
            if specs == ["%s"]:
                # csv.writer quotes a row's lone empty field, so that it
                # does not read back as a blank line
                columns[0] = tuple(text or '""' for text in columns[0])
            template = ",".join(specs) + "\n"
            handle.write((template * len(chunk)) % tuple(chain.from_iterable(zip(*columns))))


def csv_to_table(path: str) -> Table:
    """Parse a table written by ``emit_csv``; numeric cells become floats."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader))
        for raw in reader:
            row = []
            for cell in raw:
                if cell == "":
                    row.append(None)
                elif cell in ("true", "false"):
                    row.append(cell == "true")
                else:
                    try:
                        row.append(float(cell))
                    except ValueError:
                        row.append(cell)
            rows.append(tuple(row))
    return Table(header, tuple(rows))


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


def make_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive arithmetic grid with endpoint-safe rounding; ``grid_size`` checks the bounds."""
    return tuple(start + i * step for i in range(grid_size(start, stop, step)))
