"""Comparative statics over the technology reach and the model primitives.

A sweep over the reach h traces the model's central prediction: output
follows the first-best line while punishment is credible, then drops to
the blind-adoption line once the reach passes the credibility threshold.
Parameter sweeps recompute the equilibrium objects at every grid point,
as arrays over the grid, and flag inadmissible points instead of dropping
them, so sweeps across the admissibility boundary stay informative.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import Iterable, Iterator

import numpy as np

from .equilibrium import (
    EFFORT,
    SHIRK,
    TOL,
    EquilibriumSolution,
    ReplacementCostCurve,
    _bisect_thresholds,
    credibility_slope,
    expected_output,
    policy,
    solve_threshold,
)
from .model import _RANGES, ModelParams, _fmt, _gamma_bar, _range_message, _research_gain, validate_params

SWEEPABLE_PARAMETERS = ("h", "pi", "eps", "g", "c", "w", "v_c", "curve_scale")


@dataclass(frozen=True, eq=False)
class Labels:
    """A text column stored as small-int codes into its distinct texts: row i reads ``texts[codes[i]]``."""

    codes: np.ndarray
    texts: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.codes)

    def tolist(self) -> list[str]:
        return np.array(self.texts, dtype=object)[self.codes].tolist()


@dataclass(frozen=True, eq=False)
class Held:
    """A float column with empty cells: row i reads ``values[i]`` where ``held[i]``, and is empty elsewhere.

    Columns of one table may share one ``held`` array.
    """

    values: np.ndarray
    held: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def tolist(self) -> list:
        """The cells as Python floats, and None where the row is empty."""
        return np.where(self.held, self.values, None).tolist()


def _is_column(values) -> bool:
    """Whether ``values`` is of a column kind that a ``Table`` holds.

    ``Labels`` codes must index their texts, and a ``Held`` column's mask
    must be a bool array as long as its float64 values.
    """
    if isinstance(values, Held):
        floats, held = values.values, values.held
        kinds = _is_column(floats) and _is_column(held) and (floats.dtype, held.dtype) == (np.float64, np.bool_)
        return kinds and len(held) == len(floats)
    array = values.codes if isinstance(values, Labels) else values
    if not (isinstance(array, np.ndarray) and array.ndim == 1):
        return False
    if isinstance(values, Labels):
        in_range = array.dtype.kind in "ui" and (not len(array) or 0 <= array.min() <= array.max() < len(values.texts))
        return in_range and isinstance(values.texts, tuple) and all(isinstance(text, str) for text in values.texts)
    return array.dtype in (np.float64, np.bool_)


@dataclass(frozen=True, eq=False)
class Table:
    """A result table stored column by column.

    columns -- the column names.
    data -- one column per name, all of one length, each of one of four
        kinds: a float64 array, a bool array, ``Held`` floats with empty
        cells, or ``Labels`` for text.  A column may be the caller's own
        array, held rather than copied.

    ``rows`` builds one tuple of Python objects per row, so ``len`` is the
    cheap row count.  Tables compare by identity, as their arrays have no
    single truth value.
    """

    columns: tuple[str, ...]
    data: tuple

    def __post_init__(self) -> None:
        if len(self.data) != len(self.columns):
            raise ValueError(f"{len(self.columns)} column names for {len(self.data)} columns")
        for name, values in zip(self.columns, self.data):
            if not _is_column(values):
                raise ValueError(f"column {name!r} is not a float64 or bool array, Held floats, or Labels")
        if len(set(map(len, self.data))) > 1:
            raise ValueError("columns differ in length")

    def __len__(self) -> int:
        return len(self.data[0]) if self.data else 0

    @property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*(values.tolist() for values in self.data)))


def _floats(grid: Iterable[float]) -> np.ndarray:
    """The grid points as a float64 array: a float64 array grid itself, not a copy, and any other grid converted."""
    return np.asarray(grid if isinstance(grid, np.ndarray) else list(grid), dtype=float)


def sweep_h(params: ModelParams, sol: EquilibriumSolution, grid: Iterable[float]) -> Table:
    """Sweep the technology reach over ``grid`` at fixed parameters, solved as ``sol``.

    Each row reports the operative regime (effort below the credibility
    threshold, shirk above), the firing policy, expected output, and
    welfare.  Rows within the solver's ``TOL`` of the threshold carry a
    boundary flag.  The credible interval [0, h_tilde] is closed, as the
    solve returns the last reach it confirmed credible, so a row at
    h_tilde itself reports the punishment regime.  The closed forms run
    once on the whole grid array: output is the shirk line, overwritten
    by the effort line on the effort rows only.  A float64 array grid is
    the table's ``h`` column itself, not a copy.
    """
    h = _floats(grid)
    gamma_star = policy(h, sol)
    effort = gamma_star > 0.0
    # abs() reuses its one float temporary, where np.abs would allocate a second
    boundary = abs(h - sol.h_tilde) <= TOL
    output = expected_output(h, SHIRK, params)
    reach = h[effort]
    output[effort] = expected_output(reach, EFFORT, params)
    # welfare nets out the effort cost that researchers pay, formed in their reach array
    welfare = output.copy()
    reach *= params.c
    welfare[effort] -= reach
    regime = Labels(effort.view(np.uint8), (SHIRK, EFFORT))
    return Table(
        ("h", "regime", "gamma_star", "output", "welfare", "boundary"),
        (h, regime, gamma_star, output, welfare, boundary),
    )


def sweep_param(parameter: str, params: ModelParams, curve: ReplacementCostCurve, grid: Iterable[float]) -> Table:
    """Recompute the equilibrium objects along a grid of one parameter.

    ``parameter`` is one of ``SWEEPABLE_PARAMETERS`` other than ``h``.
    Inadmissible grid points are emitted with ``admissible=False`` and
    the names of the violated conditions; their equilibrium columns are
    left empty.  Points outside a parameter's range, or a curve scale
    that ``check_scale`` rejects, are flagged the same way with the
    error message.  The sweep is one array program, with no params object
    per point: the range rule or the scale check, the admissibility checks
    and the closed forms run once on the grid array, through the functions
    that check and solve one params object, and ``_bisect_thresholds``,
    which ``solve_threshold`` runs on one point, solves the admissible
    points.  For ``curve_scale`` no scaled curve is built.  A float64
    array grid is the table's ``value`` column itself, not a copy, and
    the three equilibrium columns are ``Held`` floats whose one shared
    mask is the ``admissible`` column.
    """
    if parameter not in SWEEPABLE_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r}; expected one of {SWEEPABLE_PARAMETERS}")
    if parameter == "h":
        raise ValueError("use sweep_h for grids over the technology reach")
    values = _floats(grid)
    scaled = parameter == "curve_scale"
    if scaled:
        fault, faults = curve._scale_faults(values)
    else:
        rejected = ~(np.isfinite(values) & _RANGES[parameter][1](values))
        faults = ("", *(_range_message(parameter, value) for value in values[rejected].tolist()))
        fault = np.zeros(len(values), np.intp)
        fault[rejected] = np.arange(1, len(faults))
    in_range = np.flatnonzero(fault == 0)
    # a curve_scale point keeps params, so they are checked once
    point = params if scaled else SimpleNamespace(**{**asdict(params), parameter: values[in_range]})
    with np.errstate(all="ignore"):
        # as in Python floats: an overflow is inf, not an error
        checks = validate_params(point).checks
        failed = sum((np.where(check.passed, 0, 1 << bit) for bit, check in enumerate(checks)), np.zeros_like(in_range))
        # the failed checks' names, for each of the 2^4 sets of failures
        names = [", ".join(check.name for bit, check in enumerate(checks) if code >> bit & 1) for code in range(16)]
        # each reason is a code into these names, then into the faults past their empty text
        codes = fault + len(names) - 1
        codes[in_range] = failed
        solved = in_range[failed == 0]
        if not scaled:
            setattr(point, parameter, values[solved])
        terms = (_gamma_bar(point), credibility_slope(point), _research_gain(point))
        rate, slope, drop = (np.broadcast_to(term, solved.shape) for term in terms)
    h_tilde = _bisect_thresholds(curve, rate, slope, values[solved] if scaled else None)[0]
    # NaN and empty at every unsolved point; a drop is the solved h_tilde times the research gain it forgoes
    cells = np.full((3, len(values)), math.nan)
    cells[:, solved] = (rate, h_tilde, h_tilde * drop)
    admissible = codes == 0
    gammas, h_tildes, drops = (Held(column, admissible) for column in cells)
    # the reasons carry only the texts some point uses
    texts = (*names, *faults[1:])
    used, reasons = np.unique(codes, return_inverse=True)
    return Table(
        ("value", "gamma_bar", "h_tilde", "admissible", "drop_at_h_tilde", "reason"),
        (values, gammas, h_tildes, admissible, drops, Labels(reasons, tuple(texts[i] for i in used.tolist()))),
    )


#: Grid points in a block of ``sweep_blocks``, which alone bounds the rows a
#: sweep holds, formats and writes at a time besides its curve and grid:
#: ``emit_csv`` writes each table it is given at once.  Peak RSS of a
#: 10^5-row h sweep through the CLI (fresh process, 2-CPU Xeon, Python 3.11,
#: numpy 2.4, medians of 10) is 33.29 MB at 1024 rows, 33.27 MB at 2048,
#: 33.33 MB at 4096 and 34.27 MB at 8192, with ``cli.main`` taking 37.2,
#: 29.0, 24.9 and 24.7 ms: smaller blocks make more numpy calls per row.
CSV_CHUNK_ROWS = 4096
# fills a text block's rows past their text; no UTF-8 text holds this byte
_PAD = 0xFF


def sweep_blocks(parameter: str, params: ModelParams, curve: ReplacementCostCurve, grid: Iterable[float]) -> Iterator[Table]:
    """The sweep of ``parameter`` over ``grid``, as one table per ``CSV_CHUNK_ROWS`` grid points.

    Each block is its own ``sweep_h`` or ``sweep_param`` call on a slice of
    the grid, and an h sweep solves the threshold once, before its first
    block.  Every point is solved on its own, so the blocks' rows are the
    rows of one sweep over the whole grid, while only the grid, one block
    and, until the solve, the curve are held.  Nothing runs until the
    first block is asked for.
    """
    points = _floats(grid)
    if parameter == "h":
        sweep = functools.partial(sweep_h, params, solve_threshold(params, curve))
    else:
        sweep = functools.partial(sweep_param, parameter, params, curve)
    del curve
    for start in range(0, len(points), CSV_CHUNK_ROWS):
        yield sweep(points[start : start + CSV_CHUNK_ROWS])


def _cell_text(text: str) -> str:
    """A text cell as csv.writer writes it in a row of two fields, so quoted where needed but not when empty."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, ""])
    return buffer.getvalue()[:-2]


def emit_csv(tables: Iterable[Table], path: str) -> int:
    """Write tables that share their columns to ``path`` under one header row, and return the rows written.

    Numbers get 12 significant digits.  Each table is written at once, as
    one byte string joined from a text block per column, a row per cell
    padded with a byte that no UTF-8 text holds, so the tables passed bound
    the text held: pass ``sweep_blocks`` for bounded memory.  Writing a
    10^5-row h sweep table passed whole traces 18.3 MiB; sweeping and
    writing it through ``sweep_blocks`` traces 0.89 MiB.

    Bool and ``Labels`` codes index a block of the column's texts, built
    once and kept while the next tables repeat them; ``_format_floats``
    prints the floats, a ``Held`` column's between its empty cells.  A
    column of one code, or of one float bit pattern, is its one text
    repeated, and a float column with the bytes of an earlier one in the
    table reuses its text.  Only the table being written is held.  The
    first table is made before the file is opened, so an error in making
    it, or an empty first table, is raised with no file written.
    """
    tables = iter(tables)
    table = next(tables, None)
    if table is None or not len(table):
        raise ValueError("refusing to write an empty table")
    columns = table.columns
    # csv.writer quotes a row's lone empty field, so that it does not read back as a blank line
    empty = '""' if len(columns) == 1 else ""
    # the blocks of the last table's text sets, at most one a column, as the next table mostly repeats them
    text_block = functools.lru_cache(len(columns))(lambda texts: _text_block([_cell_text(text) or empty for text in texts]))
    header = ",".join(_cell_text(name) or empty for name in columns) + "\n"
    written = 0
    with open(path, "wb") as handle:
        handle.write(header.encode("utf-8"))
        while table is not None:
            if table.columns != columns:
                raise ValueError(f"columns {table.columns} differ from the first table's {columns}")
            if len(table):
                # the bytes and the text of the table's float columns printed so far, dropped before the join
                formatted = []
                blocks = [_column_text(values, empty, text_block, formatted) for values in table.data]
                del formatted
                handle.write(_chunk_bytes(blocks))
            written += len(table)
            del table
            table = next(tables, None)
    return written


def _column_text(values, empty: str, text_block, formatted: list) -> np.ndarray:
    """The column's cells as a block of text bytes, a row per cell.

    ``text_block`` maps a code column's texts to their block, and
    ``formatted`` holds the bytes and the text of each float column printed in the table so far.
    """
    if isinstance(values, Held):
        return _held_floats(values, empty)
    floats = isinstance(values, np.ndarray) and values.dtype == float
    if not floats:
        labels = values if isinstance(values, Labels) else Labels(values.view(np.uint8), ("false", "true"))
        texts, values = text_block(labels.texts), labels.codes
    cells = values.tobytes()
    # cells that all have the first one's bytes, so -0.0 and 0.0 differ and a NaN run is one value, are one text
    if cells == cells[: values.itemsize] * len(values):
        text = np.frombuffer(_fmt(float(values[0])).encode("ascii"), np.uint8) if floats else texts[values[0]]
        return np.broadcast_to(text, (len(values), len(text)))
    if not floats:
        return texts.take(values, axis=0)
    text = next((text for earlier, text in formatted if earlier == cells), None)
    if text is None:
        text = _format_floats(values)
        formatted.append((cells, text))
    return text


def _held_floats(column: Held, empty: str) -> np.ndarray:
    """The texts of a ``Held`` column: its held floats printed in one call, ``empty`` at the other cells."""
    held = column.held
    numbers = _format_floats(column.values[held])
    block = np.full((len(held), max(numbers.shape[1], len(empty))), _PAD, np.uint8)
    block[~held, : len(empty)] = np.frombuffer(empty.encode("ascii"), np.uint8)
    block[held, : numbers.shape[1]] = numbers
    return block


def _chunk_bytes(blocks: list[np.ndarray]) -> bytearray:
    """The CSV rows of one table, from a block of text bytes per column that it drops once joined, with the padding deleted."""
    comma, newline = (np.full((len(blocks[0]), 1), ord(byte), np.uint8) for byte in ",\n")
    rows = np.concatenate([part for block in blocks for part in (comma, block)][1:] + [newline], axis=1)
    blocks.clear()
    # each copy is dropped once the next is made; bytearray deletes the padding faster (3.7 vs 4.8 ms an h sweep)
    rows = bytearray(rows)
    return rows.translate(None, bytes([_PAD]))


def _text_block(texts: list[str]) -> np.ndarray:
    """The texts' UTF-8 bytes, one row each, padded to the longest."""
    encoded = [text.encode("utf-8") for text in texts]
    lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
    block = np.full((len(encoded), lengths.max(initial=0)), _PAD, np.uint8)
    block[np.arange(block.shape[1]) < lengths[:, None]] = np.frombuffer(b"".join(encoded), np.uint8)
    return block


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of ``_format_floats``, built on its first call.

    scale -- 10**(11 - e) at e + 5, for the decimal exponents e = -5..11
        that log10 can give in the fast range, each exact, then 0 for e = 12.
    quad -- each group 0..9999 as four ASCII digits, the low bytes of a
        little-endian word.
    end_high, end_mid, end_low -- 18 times where the last nonzero digit of
        the group in digits 1-4, 5-8 or 9-12 of N lies, 0 for a zero group:
        their maximum is 18 k, for N's count k of significant digits.
    layout -- columns by e + 5 + 18 k, with the rows: the mask of the
        digits after the insert (2 words), its shift in bits, the fill
        (3 words) and the text's length.
    """
    # e = 12 only comes from a log10 rounded up at the top of the range;
    # its scale 0 leaves the cell undecided
    scale = np.array([float(10 ** (11 - e)) for e in range(-5, 12)] + [0.0])
    # a group is two pairs of digits, 100 * first + second
    pairs = [f"{pair:02d}" for pair in range(100)]
    pair = np.array([int.from_bytes(text.encode(), "little") for text in pairs], np.uint64)
    quad = (pair[:, None] | pair << np.uint64(16)).ravel()
    pair_end = np.array([len(text.rstrip("0")) for text in pairs], np.uint8)
    # a group's last nonzero digit is in its second pair unless that is 0
    last = np.where(pair_end > 0, pair_end + 2, pair_end[:, None]).ravel()
    ends = [np.where(last > 0, 18 * (last + offset), 0).astype(np.uint8) for offset in (0, 4, 8)]
    layout = np.zeros((7, 18 * 13), np.uint64)
    for e in range(-5, 13):
        for k in range(13):
            # k = 0 only for zero, which prints as "0"; e outside -4..11 is
            # never a decided cell's
            exponent = e if k and -4 <= e <= 11 else 0
            if exponent >= 0:
                # the point after digit e + 1, and none if no digit follows
                at, insert = exponent + 1, b"."
                length = k + 1 if k > exponent + 1 else exponent + 1
            else:
                at, insert = 0, b"0." + b"0" * (-exponent - 1)
                length = len(insert) + k
            after = -1 << (8 * at)
            fill = int.from_bytes(insert, "little") << (8 * at) | -1 << (8 * length)
            rows = [after, after >> 64, 8 * len(insert), fill, fill >> 64, fill >> 128, length]
            layout[:, e + 5 + 18 * k] = [row % 2**64 for row in rows]
    return scale, quad, *ends, *layout


def _format_floats(values: np.ndarray) -> np.ndarray:
    """``_fmt`` of each float, as one row of ASCII bytes per value padded with ``_PAD``.

    Where 1e-4 <= |v| < 1e12, ".12g" prints |v| in fixed notation with
    the 12 significant digits of N = rint(|v| * 10**(11 - e)), for the
    decimal exponent e = floor(log10 |v|).  The one product of |v| and
    an exact power of ten is correctly rounded, so it lies within 2**-14
    of the exact one, below 2**40: its rint is N unless it lies within
    2**-12 of a tie.  A cell is decided when the product y has 12 digits
    before the point (1e11 <= y, N < 1e12; a log10 off by one fails this)
    and is no such near tie.  Its text is N's digits with "." inserted
    after digit e + 1, or "0." and -e - 1 zeros put before them when
    e < 0, cut after the last nonzero digit and the point dropped if it
    ends the text; a negative value gets a "-".  Exact zeros print as "0"
    or "-0".  Every other cell, NaN, infinities, exponent notation and
    near ties, is printed by ``_fmt``.
    """
    decided, code, number = _twelve_digits(values)
    block, width = _fixed_notation(code, number)
    negative = np.signbit(values)
    if negative.any():
        block[negative, 1:] = block[negative, :-1]
        block[negative, 0] = ord("-")
        width += 1
    # a zero has N = 0, printed as "0"
    decided |= values == 0.0
    if not decided.all():
        rest = np.flatnonzero(~decided)
        texts = _text_block([_fmt(value) for value in values[rest].tolist()])
        block[rest] = _PAD
        block[rest, : texts.shape[1]] = texts
        width = max(width, texts.shape[1])
    return block[:, :width]


def _twelve_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which cells ``_format_floats`` decides, their e + 5 and their N, 0 for the undecided."""
    magnitude = np.abs(values)
    # clamped into the fast range, so the arithmetic below meets no NaN,
    # infinity or zero; a cell outside the range is never decided
    scaled = np.fmin(np.fmax(magnitude, 1e-4), np.nextafter(1e12, 0.0))
    decided = magnitude == scaled
    # log10 + 5 >= 1, so the cast floors it; a sum rounded up is a log10 off by one, as the docstring says
    exponent = (np.log10(scaled, out=magnitude) + 5.0).astype(np.intp)
    scaled *= _digit_tables()[0].take(exponent)
    digits = np.rint(scaled)
    decided &= np.abs(scaled - digits) < 0.5 - 2.0**-12
    decided &= scaled >= 1e11
    decided &= digits < 1e12
    return decided, exponent, (digits * decided).astype(np.int64)


def _fixed_notation(code: np.ndarray, number: np.ndarray) -> tuple[np.ndarray, int]:
    """Each N printed in fixed notation at its e + 5, as 24 bytes a row padded with ``_PAD``, and the longest text."""
    _, quad, end_high, end_mid, end_low, after0, after1, shift, fill0, fill1, fill2, length = _digit_tables()
    # number keeps the low group of four digits, and thousands the middle one
    thousands = number // 10000
    number -= thousands * 10000
    high = thousands // 10000
    thousands -= high * 10000
    # the 12 ASCII digits as a 96-bit little-endian number (two words)
    word0 = quad.take(thousands) << np.uint64(32)
    word0 |= quad.take(high)
    word1 = quad.take(number)
    significant = np.maximum(end_high.take(high), end_mid.take(thousands))
    code += np.maximum(significant, end_low.take(number), out=significant)
    del thousands, high
    # as 192-bit numbers (three words), the text is the digits before the
    # insert, the insert and the fill, and the digits after it shifted up
    # by the insert's bits; the fill holds the insert and sets every byte
    # from the text's length on to _PAD
    text = np.zeros((len(code), 3), "<u8")
    # into number's array, which the caller holds; every code is in range,
    # and "clip" takes into it without a buffer
    bits = shift.take(code, out=number.view(np.uint64), mode="clip")
    back = 64 - bits
    for j, (word, after) in enumerate([(word0, after0), (word1, after1)]):
        moved = word & after.take(code)
        word ^= moved
        text[:, j + 1] = moved >> back
        moved <<= bits
        moved |= word
        text[:, j] |= moved
    for j, fill in enumerate([fill0, fill1, fill2]):
        text[:, j] |= fill.take(code)
    return text.view(np.uint8), int(length.take(code).max(initial=0))


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

    Each point is the same multiply-add as in Python floats: i < 2^53 is
    an exact float, and the products and sums are formed in place, so the
    grid is the one array built.
    """
    grid = np.arange(grid_size(start, stop, step), dtype=float)
    grid *= step
    grid += start
    return grid
