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

from .errors import InvalidCurveError, InvalidParamsError
from .equilibrium import (
    DEFAULT_TOL,
    EFFORT,
    SHIRK,
    ReplacementCostCurve,
    expected_output,
    output_drop,
    policy,
    solve_threshold,
)
from .model import ModelParams, _fmt, validate_params

SWEEPABLE_PARAMETERS = ("h", "pi", "eps", "g", "c", "w", "v_c", "curve_scale")


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional grid sweep specification."""

    parameter: str
    grid: tuple[float, ...]
    params: ModelParams
    curve: ReplacementCostCurve
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE_PARAMETERS:
            raise ValueError(
                f"unknown sweep parameter {self.parameter!r}; expected one of {SWEEPABLE_PARAMETERS}"
            )
        object.__setattr__(self, "grid", tuple(float(v) for v in self.grid))


@dataclass(frozen=True)
class Table:
    """A small column-ordered result table."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def sweep_h(spec: SweepSpec) -> Table:
    """Sweep the technology reach at fixed parameters.

    Each row reports the operative regime (effort below the credibility
    threshold, shirk above), the firing policy, expected output, and
    welfare.  Rows within the solver tolerance of the threshold carry a
    boundary flag; following the solved policy they report the
    punishment regime when punishing at the boundary stays credible.
    """
    if spec.parameter != "h":
        raise ValueError(f"sweep_h needs parameter 'h', got {spec.parameter!r}")
    sol = solve_threshold(spec.params, spec.curve, tol=spec.tol)
    rows = []
    for h in spec.grid:
        gamma_star = policy(h, sol)
        regime = EFFORT if gamma_star > 0.0 else SHIRK
        output = expected_output(h, regime, spec.params)
        welfare = output - spec.params.c * h if regime == EFFORT else output
        boundary = abs(h - sol.h_tilde) <= spec.tol
        rows.append((h, regime, gamma_star, output, welfare, boundary))
    return Table(("h", "regime", "gamma_star", "output", "welfare", "boundary"), tuple(rows))


def _apply_value(spec: SweepSpec, value: float) -> tuple[ModelParams, ReplacementCostCurve]:
    if spec.parameter == "curve_scale":
        return spec.params, spec.curve.scaled(value)
    return dc_replace(spec.params, **{spec.parameter: value}), spec.curve


def sweep_param(spec: SweepSpec) -> Table:
    """Recompute the equilibrium objects along a parameter grid.

    Inadmissible grid points are emitted with ``admissible=False`` and
    the name of the violated condition; their equilibrium columns are
    left empty.  Points outside a parameter's range, or a negative
    curve scale, are flagged the same way with the error message.
    """
    if spec.parameter == "h":
        raise ValueError("use sweep_h for grids over the technology reach")
    rows = []
    for value in spec.grid:
        try:
            params, curve = _apply_value(spec, value)
        except (InvalidParamsError, InvalidCurveError) as exc:
            rows.append((value, None, None, False, None, str(exc)))
            continue
        report = validate_params(params)
        if not report.admissible:
            reason = ", ".join(check.name for check in report.failures())
            rows.append((value, None, None, False, None, reason))
            continue
        sol = solve_threshold(params, curve, tol=spec.tol)
        drop = output_drop(sol.h_tilde, params)
        rows.append((value, sol.gamma_bar, sol.h_tilde, True, drop, ""))
    return Table(
        ("value", "gamma_bar", "h_tilde", "admissible", "drop_at_h_tilde", "reason"),
        tuple(rows),
    )


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def emit_csv(table: Table, destination) -> None:
    """Write the table with a header row, 12 significant digits per number.

    ``destination`` may be a path or a writable text stream.  An empty
    table is an error, raised before anything is opened or written.
    """
    if not table.rows:
        raise ValueError("refusing to write an empty table")
    if hasattr(destination, "write"):
        _write_csv(table, destination)
        return
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        _write_csv(table, handle)


def _write_csv(table: Table, handle) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_format_cell(cell) for cell in row])


def csv_to_table(source) -> Table:
    """Parse a table written by ``emit_csv``; numeric cells become floats."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    rows = []
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


def make_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive arithmetic grid with endpoint-safe rounding.

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
    count = int(math.floor(span)) + 1
    return tuple(start + i * step for i in range(count))
