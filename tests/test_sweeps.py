"""Comparative-statics tables and their CSV contract."""

import csv
import dataclasses
import io
import math
import os
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import column, draw_params, output_drop, recording_cumulate, traced_memory
from shirklab import equilibrium, model, sweeps
from shirklab.cli import main
from shirklab.equilibrium import EFFORT, SHIRK, TOL, ReplacementCostCurve, credibility_slope, solve_threshold
from shirklab.errors import InadmissibleParamsError, InvalidCurveError, InvalidParamsError
from shirklab.model import ModelParams, _fmt, gamma_bar, validate_params
from shirklab.sweeps import Held, Labels, Table, emit_csv, make_grid, sweep_blocks, sweep_h, sweep_param
from test_state_table import CORNERS, params


def read_csv(path: str) -> tuple[tuple[str, ...], list[tuple]]:
    """The header and rows of a table written by ``emit_csv``; numeric cells become floats."""
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
    return header, rows


@pytest.fixture
def h_table(p0, linear_curve):
    return sweep_h(p0, solve_threshold(p0, linear_curve), make_grid(0.0, 1.0, 0.05))


class TestSweepH:
    def test_single_regime_switch_between_grid_neighbours(self, h_table, p0, linear_curve):
        table = h_table
        regimes = column(table, "regime")
        switches = [i for i in range(1, len(regimes)) if regimes[i] != regimes[i - 1]]
        assert len(switches) == 1
        h_tilde = solve_threshold(p0, linear_curve).h_tilde
        grid = column(table, "h")
        assert grid[switches[0] - 1] < h_tilde < grid[switches[0]]
        # for this parameterization the switch falls between 0.20 and 0.25
        assert grid[switches[0] - 1] == pytest.approx(0.20)
        assert grid[switches[0]] == pytest.approx(0.25)

    def test_zero_reach_row_is_first_best(self, h_table, p0):
        table = h_table
        h, regime, gamma_star, output, welfare, boundary = table.rows[0]
        assert h == 0.0
        assert regime == "effort"
        assert gamma_star == pytest.approx(gamma_bar(p0))
        assert output == 1.0

    def test_output_columns_are_affine_with_the_expected_slopes(self, h_table, p0):
        table = h_table
        effort_slope = (1.0 + p0.pi * p0.g) * (1.0 - p0.eps) + p0.pi * p0.eps - 1.0
        shirk_slope = p0.pi * (1.0 + p0.g) - 1.0
        for (h1, regime1, _, out1, _, _), (h2, regime2, _, out2, _, _) in zip(
            table.rows, table.rows[1:]
        ):
            if regime1 == regime2:
                slope = effort_slope if regime1 == "effort" else shirk_slope
                assert (out2 - out1) / (h2 - h1) == pytest.approx(slope, rel=1e-9)

    def test_downward_jump_on_a_fine_grid_brackets_the_threshold(self, p0, linear_curve):
        table = sweep_h(p0, solve_threshold(p0, linear_curve), make_grid(0.0, 1.0, 0.005))
        outputs = column(table, "output")
        grid = column(table, "h")
        drops = [i for i in range(1, len(outputs)) if outputs[i] < outputs[i - 1]]
        assert len(drops) == 1
        h_tilde = solve_threshold(p0, linear_curve).h_tilde
        assert abs(grid[drops[0]] - h_tilde) <= 0.005 + 1e-12

    def test_welfare_subtracts_effort_cost_only_under_effort(self, h_table, p0):
        table = h_table
        for h, regime, _, output, welfare, _ in table.rows:
            if regime == "effort":
                assert welfare == pytest.approx(output - p0.c * h, abs=1e-15)
            else:
                assert welfare == output



class TestSweepParam:
    def test_effort_cost_sweep_flags_the_inadmissible_point(self, p0, linear_curve):
        table = sweep_param("c", p0, linear_curve, (0.0, 0.01, 0.02, 0.03, 0.04, 0.05))
        admissible = column(table, "admissible")
        assert admissible == [True, True, True, True, True, False]
        assert table.rows[-1][-1] == "research_efficiency"
        # the minimal punishment rate is affine in the effort cost
        gammas = column(table, "gamma_bar")[:5]
        diffs = np.diff(gammas)
        assert np.allclose(diffs, diffs[0], rtol=1e-9)

    def test_continuation_value_sweep_scales_gamma_bar_inversely(self, p0, linear_curve):
        grid = (1.0, 2.0, 4.0)
        table = sweep_param("v_c", p0, linear_curve, grid)
        gammas = column(table, "gamma_bar")
        assert gammas[0] == pytest.approx(2 * gammas[1], rel=1e-12)
        assert gammas[1] == pytest.approx(2 * gammas[2], rel=1e-12)
        h_tildes = column(table, "h_tilde")
        assert h_tildes == sorted(h_tildes)

    def test_curve_scale_sweep_shrinks_the_threshold(self, p0, linear_curve):
        table = sweep_param("curve_scale", p0, linear_curve, (0.5, 1.0, 2.0, 4.0))
        h_tildes = column(table, "h_tilde")
        assert all(a >= b - 1e-9 for a, b in zip(h_tildes, h_tildes[1:]))
        # with a linear schedule the threshold is inversely proportional to scale
        assert h_tildes[0] == pytest.approx(2 * h_tildes[1], rel=1e-6)

    def test_out_of_range_grid_point_is_flagged_not_raised(self, p0, linear_curve):
        table = sweep_param("eps", p0, linear_curve, (0.1, 0.6))
        assert table.rows[0][3] is True
        assert table.rows[1][3] is False
        assert "eps" in table.rows[1][-1]

    def test_negative_curve_scale_is_flagged_not_raised(self, p0, linear_curve):
        table = sweep_param("curve_scale", p0, linear_curve, (-1.0, 1.0))
        assert table.rows[0][3] is False
        assert "nonnegative" in table.rows[0][-1]
        assert table.rows[1][3] is True

    def test_non_finite_curve_scale_is_flagged_not_raised(self, p0, linear_curve):
        table = sweep_param("curve_scale", p0, linear_curve, (math.nan, math.inf, 1.0))
        assert column(table, "admissible") == [False, False, True]
        assert column(table, "reason")[:2] == ["scale factor must be finite"] * 2

    def test_a_curve_scale_sweep_checks_its_params_and_scales_once(self, p0, linear_curve):
        grid = [0.25 * k for k in range(1, 41)]
        in_sweep = mock.patch.object(sweeps, "validate_params", wraps=validate_params)
        in_solve = mock.patch.object(model, "validate_params", wraps=validate_params)
        scale_faults = mock.patch.object(
            ReplacementCostCurve, "_scale_faults", autospec=True, side_effect=ReplacementCostCurve._scale_faults
        )
        scale_checks = mock.patch.object(
            ReplacementCostCurve, "check_scale", autospec=True, side_effect=ReplacementCostCurve.check_scale
        )
        with in_sweep as in_sweep, in_solve as in_solve, scale_faults as scale_faults, scale_checks as scale_checks:
            table = sweep_param("curve_scale", p0, linear_curve, grid)
        assert all(column(table, "admissible"))
        # one check of the params and one array check of every scale, for
        # the whole sweep; the solve checks neither again
        assert in_sweep.call_count == 1 and scale_faults.call_count == 1
        assert in_solve.call_count == 0 and scale_checks.call_count == 0

    @pytest.mark.parametrize(
        "parameter, grid",
        [
            # the benchmark's pi sweep: 981 points, 874 of them admissible
            ("pi", make_grid(0.5, 0.99, 0.0005)),
            ("eps", (0.0, 0.05, 0.1, 0.3, 0.6)),
            ("g", (0.05, 0.5, 20.0)),
            ("c", (0.0, 0.01, 0.05, -1.0)),
            ("w", (0.0, 0.05, 3.0)),
            ("v_c", (0.01, 1.0, 4.0)),
        ],
    )
    def test_a_param_sweep_builds_no_params_and_validates_once(self, p0, linear_curve, parameter, grid):
        constructions = mock.patch.object(
            ModelParams, "__post_init__", autospec=True, side_effect=ModelParams.__post_init__
        )
        in_sweep = mock.patch.object(sweeps, "validate_params", wraps=validate_params)
        in_solve = mock.patch.object(model, "validate_params", wraps=validate_params)
        with constructions as constructions, in_sweep as in_sweep, in_solve as in_solve:
            table = sweep_param(parameter, p0, linear_curve, grid)
        assert any(column(table, "admissible"))
        # no params object per point: the checks run once, on the grid array
        assert constructions.call_count == 0
        assert in_sweep.call_count + in_solve.call_count <= 1

    @pytest.mark.parametrize(
        "parameter, grid", [("pi", make_grid(0.5, 0.99, 0.01)), ("curve_scale", make_grid(0.1, 10.0, 0.1))]
    )
    def test_drops_take_one_array_product_and_no_reach_checks(self, p0, linear_curve, parameter, grid):
        with mock.patch.object(equilibrium, "_require_unit", wraps=equilibrium._require_unit) as checks:
            table = sweep_param(parameter, p0, linear_curve, grid)
        assert checks.call_count == 0
        solved = [row for row in table.rows if row[3]]
        assert len(solved) > 20
        # each point's drop is output_drop at its h_tilde, bit for bit
        points = [p0] * len(solved)
        if parameter == "pi":
            points = [dataclasses.replace(p0, pi=row[0]) for row in solved]
        expected = [output_drop(row[2], point) for row, point in zip(solved, points)]
        assert repr([row[4] for row in solved]) == repr(expected)

    def test_inadmissible_params_flag_every_valid_curve_scale(self, p0, linear_curve):
        params = dataclasses.replace(p0, c=1.0)
        failed = ", ".join(check.name for check in validate_params(params).failures())
        table = sweep_param("curve_scale", params, linear_curve, (-1.0, 0.5, 2.0))
        assert column(table, "admissible") == [False] * 3
        assert column(table, "reason") == ["scale factor must be nonnegative", failed, failed]

    def test_unknown_parameter_rejected(self, p0, linear_curve):
        with pytest.raises(ValueError, match="unknown sweep parameter 'zeta'"):
            sweep_param("zeta", p0, linear_curve, (0.1,))
        with pytest.raises(ValueError, match="use sweep_h"):
            sweep_param("h", p0, linear_curve, (0.1,))

    def test_grid_points_are_read_as_floats(self, p0, linear_curve):
        assert column(sweep_param("w", p0, linear_curve, (0, 1)), "value") == [0.0, 1.0]
        assert all(type(h) is float for h in column(sweep_h(p0, solve_threshold(p0, linear_curve), (0, 1)), "h"))


class TestEmitCsv:
    def test_header_and_significant_digits(self, h_table, tmp_path):
        table = h_table
        path = tmp_path / "sweep.csv"
        emit_csv([table], str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "h,regime,gamma_star,output,welfare,boundary"
        assert len(lines) == len(table.rows) + 1
        assert "0.211111111111" in lines[2]

    def test_round_trip_preserves_twelve_significant_digits(self, h_table, tmp_path):
        table = h_table
        path = tmp_path / "sweep.csv"
        emit_csv([table], str(path))
        columns, parsed = read_csv(str(path))
        assert columns == table.columns and len(parsed) == len(table)
        for row, parsed_row in zip(table.rows, parsed):
            for cell, parsed_cell in zip(row, parsed_row):
                if isinstance(cell, float):
                    assert parsed_cell == pytest.approx(cell, rel=1e-11, abs=1e-15)
                else:
                    assert parsed_cell == cell

    def test_empty_table_errors_before_any_write(self, tmp_path):
        path = tmp_path / "never.csv"
        with pytest.raises(ValueError):
            emit_csv([Table(("a",), (np.array([]),))], str(path))
        assert not path.exists()

    def test_tables_that_share_their_columns_are_written_under_one_header(self, h_table, tmp_path):
        path = tmp_path / "sweep.csv"
        assert emit_csv(iter([h_table, h_table, h_table]), str(path)) == 3 * len(h_table)
        assert path.read_bytes() == _reference_csv(h_table.columns, h_table.rows * 3)

    def test_a_table_with_other_columns_is_rejected(self, h_table, p0, linear_curve, tmp_path):
        other = sweep_param("c", p0, linear_curve, (0.01,))
        with pytest.raises(ValueError, match="differ from the first table's"):
            emit_csv([h_table, other], str(tmp_path / "sweep.csv"))

    def test_the_first_table_is_made_before_the_file_is_opened(self, p0, linear_curve, tmp_path):
        path = tmp_path / "never.csv"
        with pytest.raises(InadmissibleParamsError):
            emit_csv(sweep_blocks("h", dataclasses.replace(p0, c=1.0), linear_curve, (0.5,)), str(path))
        with pytest.raises(ValueError, match="empty table"):
            emit_csv(iter([]), str(path))
        assert not path.exists()

    def test_a_code_column_prints_its_texts_once_for_all_the_blocks(self, p0, linear_curve):
        grid = make_grid(0.0, 1.0, 1e-4)
        with mock.patch.object(sweeps, "_cell_text", wraps=sweeps._cell_text) as texts:
            assert emit_csv(sweep_blocks("h", p0, linear_curve, grid), os.devnull) == 10001
        # the six names, then the regime's two texts and the boundary's two, each once for five blocks
        assert texts.call_count == 6 + 2 + 2

    def test_unwritable_destination_raises_io_error(self, h_table, tmp_path):
        table = h_table
        with pytest.raises(OSError):
            emit_csv([table], str(tmp_path / "missing" / "out.csv"))

    def test_inadmissible_rows_serialize_with_reason(self, p0, linear_curve, tmp_path):
        path = tmp_path / "c.csv"
        emit_csv([sweep_param("c", p0, linear_curve, (0.01, 0.05))], str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "value,gamma_bar,h_tilde,admissible,drop_at_h_tilde,reason"
        assert lines[2].startswith("0.05,,,false,,research_efficiency")

    def test_random_param_tables_round_trip(self, linear_curve, tmp_path):
        rng = np.random.default_rng(2718)
        curve = ReplacementCostCurve.linear(50.0, resolution=2000)
        for i in range(5):
            p = draw_params(rng)
            table = sweep_param("w", p, curve, tuple(np.linspace(0.0, 0.4, 7)))
            path = tmp_path / f"t{i}.csv"
            emit_csv([table], str(path))
            _, parsed = read_csv(str(path))
            for row, parsed_row in zip(table.rows, parsed):
                for cell, parsed_cell in zip(row, parsed_row):
                    if isinstance(cell, float):
                        assert parsed_cell == pytest.approx(cell, rel=1e-11, abs=1e-15)


def _reference_csv(columns: tuple[str, ...], rows) -> bytes:
    """The writer ``emit_csv`` replaced: csv.writer with one call per cell of each row."""

    def cell_text(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return _fmt(value)
        return str(value)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell_text(cell) for cell in row])
    return buffer.getvalue().encode("utf-8")


#: Floats that compare equal with different texts (-0.0, 0.0), unequal to
#: themselves (NaN), or infinite, among any others.
FLOATS = st.one_of(
    st.sampled_from((-0.0, 0.0, math.nan, math.inf, -math.inf)),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
#: Texts of the characters that %-templates and csv.writer treat apart, and the empty text.
TEXTS = st.text(alphabet=st.sampled_from([",", '"', "\n", "\r", "%", "\u00e9"]), max_size=4)


def held(cells, fill: float = math.nan) -> Held:
    """A ``Held`` column of floats and None cells, each None an empty cell over ``fill``."""
    values = np.array([fill if cell is None else cell for cell in cells])
    return Held(values, np.array([cell is not None for cell in cells]))


@st.composite
def runs(draw, cells, size):
    """``size`` cells in runs of one repeated value, so that runs span chunk boundaries."""
    drawn = []
    while len(drawn) < size:
        drawn += [draw(cells)] * draw(st.integers(1, 12))
    return drawn[:size]


@st.composite
def tables(draw):
    """A table of the four column kinds, each cell drawn in runs."""
    width = draw(st.integers(1, 4))
    columns = tuple(draw(st.lists(st.text(alphabet="ab,\"", max_size=3), min_size=width, max_size=width)))
    size = draw(st.integers(1, 25))
    data = []
    for kind in draw(st.lists(st.sampled_from(["float", "bool", "holes", "labels"]), min_size=width, max_size=width)):
        if kind == "float":
            data.append(np.array(draw(runs(FLOATS, size)), dtype=float))
        elif kind == "bool":
            data.append(np.array(draw(runs(st.booleans(), size)), dtype=bool))
        elif kind == "holes":
            # a parameter sweep's equilibrium column: floats, empty at the
            # unsolved points, so that some chunks hold no float; what lies
            # under an empty cell is never printed
            data.append(held(draw(runs(st.none() | FLOATS, size)), draw(FLOATS)))
        else:
            texts = tuple(draw(st.lists(TEXTS, min_size=1, max_size=5)))
            codes = draw(runs(st.integers(0, len(texts) - 1), size))
            data.append(Labels(np.array(codes, dtype=draw(st.sampled_from([np.uint8, np.intp]))), texts))
    return Table(columns, tuple(data))


class TestEmitCsvMatchesCsvWriter:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=tables(), chunk=st.integers(1, 9))
    def test_random_tables_are_byte_identical(self, table, chunk, tmp_path):
        path = tmp_path / "t.csv"
        with mock.patch.object(sweeps, "CSV_CHUNK_ROWS", chunk):
            emit_csv([table], str(path))
        assert path.read_bytes() == _reference_csv(table.columns, table.rows)

    @pytest.mark.parametrize("cell", ["", None])
    def test_lone_empty_cell_is_quoted(self, cell, tmp_path):
        # an empty text, or a None between floats
        if cell is None:
            values = held([1.5, None, 1.5])
        else:
            values = Labels(np.array([0, 1, 0], np.uint8), ("1.5", cell))
        table = Table(("only",), (values,))
        path = tmp_path / "t.csv"
        emit_csv([table], str(path))
        assert path.read_bytes() == _reference_csv(table.columns, table.rows) == b'only\n1.5\n""\n1.5\n'

    @pytest.mark.parametrize("chunk", [1, 2, 4096])
    def test_signed_zeros_and_nan_keep_their_texts_in_float_and_held_columns(self, chunk, tmp_path):
        # -0.0 == 0.0 with different texts, and NaN != NaN with one text:
        # a value-keyed lookup would merge the zeros, and a comparison of
        # values would split a NaN run
        cells = [0.0, -0.0, math.nan, -0.0, 0.0, None, -0.0, math.nan, math.nan]
        floats = np.array([math.inf if cell is None else cell for cell in cells])
        table = Table(("floats", "held"), (floats, held(cells)))
        path = tmp_path / "t.csv"
        with mock.patch.object(sweeps, "CSV_CHUNK_ROWS", chunk):
            emit_csv([table], str(path))
            assert path.read_bytes() == _reference_csv(table.columns, table.rows)
            assert path.read_text().splitlines()[1:7] == ["0,0", "-0,-0", "nan,nan", "-0,-0", "0,0", "inf,"]
            for values in table.data:
                lone = Table(("only",), (values,))
                emit_csv([lone], str(path))
                assert path.read_bytes() == _reference_csv(lone.columns, lone.rows)


    @pytest.mark.parametrize(
        "cells",
        [
            np.array([-0.0] * 5 + [0.0] * 5 + [-0.0] * 3),
            np.array([1.5] * 4 + [math.nan] * 7 + [math.inf] * 2),
            Labels(np.array([0] * 6 + [1] * 4 + [2] * 5, np.uint8), ("50%", "a,b", 'say "x"')),
            np.array([True] * 7 + [False] * 3),
            held([None] * 5 + [1.5] * 4 + [None] * 3 + [-0.0] * 2),
        ],
        ids=["signed-zeros", "nan-run", "special-texts", "bools", "holes"],
    )
    @pytest.mark.parametrize("chunk", [1, 3, 4, 4096])
    def test_runs_of_one_value_span_chunk_boundaries(self, cells, chunk, tmp_path):
        table = Table(("run", "x"), (cells, np.arange(len(cells)) / 3.0))
        lone = Table(("run",), (cells,))
        path = tmp_path / "t.csv"
        with mock.patch.object(sweeps, "CSV_CHUNK_ROWS", chunk):
            for written in (table, lone):
                emit_csv([written], str(path))
                assert path.read_bytes() == _reference_csv(written.columns, written.rows)

    @pytest.mark.parametrize("chunk", [1, 2, 4096])
    def test_a_lone_column_of_empty_texts_is_quoted_on_every_row(self, chunk, tmp_path):
        table = Table(("only",), (Labels(np.zeros(5, np.uint8), ("",)),))
        path = tmp_path / "t.csv"
        with mock.patch.object(sweeps, "CSV_CHUNK_ROWS", chunk):
            emit_csv([table], str(path))
        assert path.read_bytes() == _reference_csv(table.columns, table.rows) == b'only\n' + b'""\n' * 5


class TestHSweepAcrossChunks:
    @pytest.mark.parametrize("fine", [False, True], ids=["unit-grid", "around-h_tilde"])
    def test_the_chunk_holding_h_tilde_switches_and_the_rest_are_constant(self, p0, linear_curve, fine, tmp_path):
        h_tilde = solve_threshold(p0, linear_curve).h_tilde
        if fine:
            # steps of 2e-11 put about ten rows within TOL of h_tilde
            grid = h_tilde + np.arange(-4500, 15500) * 2e-11
        else:
            grid = make_grid(0.0, 1.0, 5e-5)
        # written a block at a time, as the CLI does, against one sweep of the whole grid
        table = sweep_h(p0, solve_threshold(p0, linear_curve), grid)
        path = tmp_path / "h.csv"
        assert emit_csv(sweep_blocks("h", p0, linear_curve, grid), str(path)) == len(table)
        assert path.read_bytes() == _reference_csv(table.columns, table.rows)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        h = grid.tolist()
        switch = sum(x <= h_tilde for x in h)
        # about 2 x 10^4 rows: whole chunks on each side, and the switch inside a chunk
        assert len(rows) == len(h) >= 20000
        assert switch > sweeps.CSV_CHUNK_ROWS and switch % sweeps.CSV_CHUNK_ROWS
        assert len(rows) - switch > 2 * sweeps.CSV_CHUNK_ROWS
        assert [row[1] for row in rows] == ["effort"] * switch + ["shirk"] * (len(rows) - switch)
        assert h[switch - 1] <= h_tilde < h[switch]
        flagged = [i for i, row in enumerate(rows) if row[5] == "true"]
        assert flagged == [i for i, x in enumerate(h) if abs(x - h_tilde) <= TOL]
        if fine:
            assert flagged[0] < switch <= flagged[-1]


def _neighbours(value: float) -> list[float]:
    return [float(np.nextafter(value, -math.inf)), value, float(np.nextafter(value, math.inf))]


#: Floats at the edges of the formatter's fast path: powers of ten and
#: their neighbours, both ends of [1e-4, 1e12) (999999999999.75 rounds to
#: 13 digits), zeros, subnormals and the non-finite.
FORMAT_EDGES = sorted(
    {x for k in range(-7, 16) for x in _neighbours(float(f"1e{k}"))}
    | {x for end in (1e-4, 9.9999999999995e-05, 999999999999.5, 999999999999.75, 1e12) for x in _neighbours(end)}
    | {0.0, 5e-324, 2.2250738585072014e-308, 1e-310, math.inf},
    key=repr,
) + [-0.0, math.nan]


@st.composite
def thirteenth_digit_ties(draw):
    """A float at or next to a tie of its 13th significant digit, d.ddddddddddd5 times a power of ten."""
    digits = draw(st.integers(10**11, 10**12 - 1))
    value = float(f"{digits}5e{draw(st.integers(-17, 2))}")
    return draw(st.sampled_from(_neighbours(value)))


FORMAT_CELLS = st.one_of(
    st.sampled_from(FORMAT_EDGES),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent, st.floats(1.0, 10.0), st.integers(-8, 14)),
    thirteenth_digit_ties(),
)


class TestFormatFloats:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        cells=st.lists(st.one_of(FORMAT_CELLS, FORMAT_CELLS.map(lambda x: -x)), max_size=64),
        bulk=st.integers(0, 3000),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.sampled_from([1, 7, 2048]),
    )
    def test_every_float_prints_as_format_gives_it(self, cells, bulk, seed, chunk, tmp_path):
        # drawn edge cells among thousands of values of mixed exponents and signs
        rng = np.random.default_rng(seed)
        values = np.concatenate([rng.standard_normal(bulk) * 10.0 ** rng.integers(-7, 15, bulk), cells])
        rng.shuffle(values)
        expected = [_fmt(value).encode() for value in values.tolist()]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            block = sweeps._format_floats(values)
        assert block.dtype == np.uint8 and len(block) == len(values)
        assert [bytes(row) for row in block] == [text.ljust(block.shape[1], b"\xff") for text in expected]
        if not len(values):
            return
        table = Table(("x", "reversed"), (values, values[::-1].copy()))
        path = tmp_path / "t.csv"
        with mock.patch.object(sweeps, "CSV_CHUNK_ROWS", chunk):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                emit_csv([table], str(path))
        assert path.read_bytes() == _reference_csv(table.columns, table.rows)

    def test_every_edge_float_prints_as_format_gives_it(self):
        values = np.array(FORMAT_EDGES + [-x for x in FORMAT_EDGES])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            block = sweeps._format_floats(values)
        assert [bytes(row).rstrip(b"\xff") for row in block] == [_fmt(value).encode() for value in values.tolist()]

    def test_the_benchmark_h_sweep_formats_in_range_cells_in_numpy(self, p0, linear_curve):
        # the benchmark's 10^5-point grid: only the nonzero cells outside
        # [1e-4, 1e12) and each chunk's one-value float columns reach _fmt
        grid = make_grid(0.0, 1.0, 1e-5)
        table = sweep_h(p0, solve_threshold(p0, linear_curve), grid)
        floats = [values for values in table.data if isinstance(values, np.ndarray) and values.dtype == float]
        magnitudes = np.abs(np.concatenate(floats))
        outside = np.count_nonzero((magnitudes != 0.0) & ((magnitudes < 1e-4) | (magnitudes >= 1e12)))
        starts = range(0, len(table), sweeps.CSV_CHUNK_ROWS)
        chunks = [values[start : start + sweeps.CSV_CHUNK_ROWS] for values in floats for start in starts]
        # a chunk of one bit pattern is printed once
        literals = sum(chunk.tobytes() == chunk[:1].tobytes() * len(chunk) for chunk in chunks)
        with mock.patch.object(sweeps, "_fmt", wraps=_fmt) as printed:
            emit_csv(sweep_blocks("h", p0, linear_curve, grid), os.devnull)
        assert len(table) == 100001 and len(floats) == 4
        assert 0 < outside + literals <= printed.call_count <= outside + literals + 16 < 200

    def test_the_benchmark_pi_sweep_formats_float_cells_between_holes_in_numpy(self, p0):
        # the benchmark's 981-point pi grid: gamma_bar, h_tilde and
        # drop_at_h_tilde hold floats between empty cells, and only nonzero
        # cells outside [1e-4, 1e12) and a few near ties reach _fmt
        table = sweep_param("pi", p0, ReplacementCostCurve.linear(705.96235), make_grid(0.5, 0.99, 0.0005))
        held = [column(table, name) for name in ("value", "gamma_bar", "h_tilde", "drop_at_h_tilde")]
        magnitudes = np.abs([cell for cells in held for cell in cells if cell is not None])
        outside = np.count_nonzero((magnitudes != 0.0) & ((magnitudes < 1e-4) | (magnitudes >= 1e12)))
        with mock.patch.object(sweeps, "_fmt", wraps=_fmt) as printed:
            emit_csv([table], os.devnull)
        assert len(table) == 981 and len(magnitudes) > 3000 and None in held[1]
        assert outside <= printed.call_count <= outside + 16


class TestTable:
    def test_columns_must_match_names_and_lengths(self):
        with pytest.raises(ValueError, match="2 column names for 1 columns"):
            Table(("a", "b"), (np.array([1.0]),))
        with pytest.raises(ValueError, match="differ in length"):
            Table(("a", "b"), (np.array([1.0]), np.array([1.0, 2.0])))

    def test_rows_column_and_len_give_python_cells(self):
        name = Labels(np.array([1, 0], np.uint8), ("b", "a"))
        table = Table(
            ("x", "flag", "name", "held"),
            (np.array([0.5, -0.0]), np.array([True, False]), name, held([None, 2.5])),
        )
        assert len(table) == 2
        assert table.rows == ((0.5, True, "a", None), (-0.0, False, "b", 2.5))
        assert [type(cell) for cell in table.rows[0]] == [float, bool, str, type(None)]
        assert column(table, "flag") == [True, False]

    @pytest.mark.parametrize(
        "values",
        [
            (0.5, 1.5),
            [0.5, 1.5],
            np.array([1, 2], np.int64),
            np.array(["a", "b"]),
            np.array(["a", "b"], dtype=object),
            np.array([0.5, "b"], dtype=object),
            np.array([0.5, None], dtype=object),
            Held(np.array(["a", "b"], dtype=object), np.array([True, True])),
            Held(np.array([0.5, "b"], dtype=object), np.array([True, True])),
            Held(np.array([0.5, 1.5], np.float32), np.array([True, False])),
            Held(np.array([0.5, 1.5]), np.array([1, 0])),
            Held(np.array([0.5, 1.5]), np.array([True])),
            Held((0.5, 1.5), (True, False)),
            np.array([[0.5, 1.5]]),
            np.array([0.5, 1.5], np.float32),
            Labels(np.array([0.0, 1.0]), ("a", "b")),
            Labels(np.array([0, 2], np.uint8), ("a", "b")),
            Labels(np.array([-1, 0], np.intp), ("a", "b")),
            Labels(np.array([0, 0], np.uint8), (b"a",)),
            Labels(np.array([0, 0], np.uint8), "ab"),
        ],
        ids=[
            "tuple", "list", "int64", "str_", "object-str", "object-mixed", "object-floats",
            "held-str", "held-mixed", "held-float32", "held-int-mask", "held-short-mask", "held-tuples", "2-d", "float32",
            "float-codes", "code-past-texts", "negative-code", "bytes-text", "str-texts",
        ],
    )
    def test_a_column_of_another_kind_is_rejected_by_name(self, values):
        with pytest.raises(ValueError, match="column 'x' is not"):
            Table(("ok", "x"), (np.array([0.5, 1.5]), values))

    def test_labels_slice_and_give_python_cells_like_the_other_columns(self):
        labels = Labels(np.array([2, 0, 0, 1, 2], np.uint8), ("a", "", 'b,"'))
        assert len(labels) == 5
        assert labels.tolist() == ['b,"', "a", "a", "", 'b,"']
        for rows in (slice(1, 4), slice(None, None, 2), slice(3, None), slice(0, 0)):
            piece = labels[rows]
            assert isinstance(piece, Labels) and piece.texts is labels.texts
            assert piece.tolist() == labels.tolist()[rows]
        assert Table(("name",), (labels,)).rows == tuple((text,) for text in labels.tolist())


class TestCurveScaleSweepOnPrefixCurves:
    def test_sample_curve_rows_equal_full_scaled_solves(self, p0):
        rng = np.random.default_rng(909)
        curve = ReplacementCostCurve.from_samples(rng.uniform(0.0, 50.0, size=777))
        grid = (0.0, 0.3, 1.0, 2.5, 7.0, 40.0, -1.0, 1e306)
        table = sweep_param("curve_scale", p0, curve, grid)
        expected = []
        for factor in grid:
            try:
                scaled = curve.scaled(factor)
            except InvalidCurveError as exc:
                expected.append((factor, None, None, False, None, str(exc)))
                continue
            sol = solve_threshold(p0, scaled)
            expected.append((factor, sol.gamma_bar, sol.h_tilde, True, output_drop(sol.h_tilde, p0), ""))
        assert table.rows == tuple(expected)
        assert any(0.0 < h < 1.0 for h in column(table, "h_tilde") if h is not None)


def _point_rows(parameter, params, curve, grid):
    """A sweep's rows solved one point at a time, each scale on its own scaled copy."""
    rows = []
    for value in map(float, grid):
        try:
            if parameter == "curve_scale":
                point, point_curve = params, curve.scaled(value)
            else:
                point, point_curve = dataclasses.replace(params, **{parameter: value}), curve
        except (InvalidParamsError, InvalidCurveError) as exc:
            rows.append((value, None, None, False, None, str(exc)))
            continue
        report = validate_params(point)
        if not report.admissible:
            rows.append((value, None, None, False, None, ", ".join(check.name for check in report.failures())))
            continue
        sol = solve_threshold(point, point_curve)
        rows.append((value, sol.gamma_bar, sol.h_tilde, True, output_drop(sol.h_tilde, point), ""))
    return tuple(rows)


#: Grid points on the edges: eps = 0 (infinite slope) and subnormal,
#: out of range and non-finite, inadmissible, terms that overflow in
#: Python floats, a subnormal gamma_bar, and scale factors that are zero,
#: negative, non-finite or overflowing, next to ordinary points.
NON_FINITE = (math.nan, math.inf, -math.inf)
EDGE_POINTS = {
    "pi": (0.0, 1e-300, 0.3, 0.5, 0.9, 0.95, 0.999, 1.0, *NON_FINITE),
    "eps": (0.0, 5e-324, 1e-300, 1e-9, 0.05, 0.1, 0.3, 0.5, 0.6, *NON_FINITE),
    "g": (0.0, -1.0, 1e-300, 20.0, 1e308, *NON_FINITE),
    "c": (0.0, 1e-300, 0.005, 0.03, 1.0, -1.0, *NON_FINITE),
    "w": (0.0, 0.01, 0.5, 3.0, *NON_FINITE),
    "v_c": (0.0, -1.0, 5e-324, 1e-9, 1e308, *NON_FINITE),
    "curve_scale": (0.0, -0.0, 5e-324, 0.5, 3.0, 1e4, -1.0, math.nan, math.inf, 1e306, -math.inf),
}


class TestBatchedSweepsEqualOnePointSolves:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        parameter=st.sampled_from(sorted(EDGE_POINTS)),
        family=st.sampled_from(("linear", "power", "samples")),
        costless=st.booleans(),
        picks=st.lists(st.integers(0, 99), min_size=1, max_size=12),
        chunk=st.integers(1, 5),
    )
    def test_rows_equal_bit_for_bit(self, seed, parameter, family, costless, picks, chunk):
        rng = np.random.default_rng(seed)
        params = draw_params(rng)
        if costless:
            # gamma_bar = 0, so every point is credible at h = 1
            params = dataclasses.replace(params, c=0.0, w=0.0)
        if family == "linear":
            curve = ReplacementCostCurve.linear(10.0 ** rng.uniform(-1.0, 4.0), resolution=1000)
        elif family == "power":
            curve = ReplacementCostCurve.power(10.0 ** rng.uniform(-1.0, 5.0), 3.0, resolution=1000)
        else:
            curve = ReplacementCostCurve.from_samples(rng.uniform(0.0, 10.0 ** rng.uniform(-1.0, 4.0), 500))
        edges = EDGE_POINTS[parameter]
        grid = [edges[i % len(edges)] if i < 50 else float(rng.uniform(0.0, 1.0)) for i in picks]
        table = sweep_param(parameter, params, curve, grid)
        # repr tells -0.0 from 0.0 and shows every bit of a float
        assert repr(table.rows) == repr(_point_rows(parameter, params, curve, grid))
        # and the grid swept in blocks gives the same rows
        with mock.patch.object(sweeps, "CSV_CHUNK_ROWS", chunk):
            blocks = list(sweep_blocks(parameter, params, curve, grid))
        assert [len(block) for block in blocks[:-1]] == [chunk] * (len(blocks) - 1)
        assert repr(sum((block.rows for block in blocks), ())) == repr(table.rows)


class TestSweepsThroughTheCli:
    CONFIG = (
        "[model]\npi = 0.9\neps = 0.1\ng = 0.5\nc = {c}\nw = {w}\nv_c = 1.0\n"
        "[curve]\nfamily = linear\nscale = 1000\n[sweep]\nparameter = {parameter}\ngrid = {grid}\n"
    )

    @pytest.mark.parametrize(
        "parameter, grid, c, w",
        [
            # slope / gamma_bar past the float range, inf slopes and gamma_bar = 0
            ("eps", "0, 1e-300, 1e-9, 0.1, 0.5, 0.6", "1e-300", "0"),
            ("eps", "0, 1e-300, 0.1, 0.6", "0", "0"),
            ("pi", "1e-300, 0.5, 0.9, 0.999999, 1", "1e-300", "0"),
            ("pi", "0.5, 0.9, 0.99", "0", "0"),
            ("curve_scale", "0, -0, 5e-324, 1, -1, nan, inf, 1e306, 1e10", "0.01", "0.05"),
            # a bound or gamma_bar term that overflows, or a slope whose
            # denominator underflows to 0.0
            ("c", "1e308, 0.01", "0.01", "0.05"),
            ("w", "1e308, 0.05", "0.01", "0.05"),
            ("v_c", "5e-324, 1e308", "0.01", "0.05"),
            ("eps", "5e-324, 0.1", "0.01", "0.05"),
        ],
    )
    def test_edge_points_exit_0_with_the_one_point_rows(self, tmp_path, capsys, parameter, grid, c, w):
        # main runs under np.errstate(over, invalid, divide = "raise"): an
        # array form of a guard the scalar code kept would exit 2 here
        path = tmp_path / "edge.ini"
        path.write_text(self.CONFIG.format(c=c, w=w, parameter=parameter, grid=grid))
        out = tmp_path / "edge.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        params = ModelParams(pi=0.9, eps=0.1, g=0.5, c=float(c), w=float(w), v_c=1.0)
        points = [float(x) for x in grid.split(",")]
        expected = _point_rows(parameter, params, ReplacementCostCurve.linear(1000.0), points)
        columns = ("value", "gamma_bar", "h_tilde", "admissible", "drop_at_h_tilde", "reason")
        assert out.read_bytes() == _reference_csv(columns, expected)


@pytest.mark.parametrize(
    "scale, grid",
    [(1000.0, np.linspace(0.1, 10.0, 200)), (705.96235, make_grid(0.1, 10.0, 0.01))],
    ids=["200-points", "benchmark"],
)
def test_a_curve_scale_sweep_holds_one_row_of_sums_at_a_time(p0, scale, grid):
    # at gamma_bar = 0.2111 a point of a 10^5-segment curve reads up to
    # 21114 sums, 0.17 MB, and a scaled copy of the whole curve is 0.8 MB:
    # under 1 MB, a near tie's row is dropped after its step
    curve = ReplacementCostCurve.linear(scale)
    with traced_memory() as traced:
        table = sweep_param("curve_scale", p0, curve, grid)
    assert column(table, "admissible") == [True] * len(grid)
    assert traced.peak < 2**20


def test_the_benchmark_h_sweep_holds_its_regime_at_one_byte_a_row(p0):
    # the benchmark's 10^5-point grid, a block at a time: each block holds
    # its slice of the grid as the h column, three float columns of 16 KB,
    # 2 KB each for boundary and regime, and the closed forms' temporaries,
    # then its CSV chunk, 0.65 MiB in all (a table of the whole grid peaked
    # at 4.7 MB); the regime as one 8-byte pointer a row would add 14 KB a block
    curve = ReplacementCostCurve.linear(705.96235)
    grid = make_grid(0.0, 1.0, 1e-5)
    emit_csv(sweep_blocks("h", p0, curve, grid[:10]), os.devnull)
    with traced_memory() as traced:
        assert emit_csv(sweep_blocks("h", p0, curve, grid), os.devnull) == len(grid) == 100001
    assert traced.peak < 2**20
    lengths = []
    for table in sweep_blocks("h", p0, curve, grid):
        regime = table.data[table.columns.index("regime")]
        assert table.data[0].base is grid
        assert isinstance(regime, Labels) and regime.codes.nbytes == len(table)
        lengths.append(len(table))
    assert lengths == [sweeps.CSV_CHUNK_ROWS] * 48 + [len(grid) - 48 * sweeps.CSV_CHUNK_ROWS]


#: The benchmark's model and curve at its seed 909, with a sweep.
BENCHMARK_SWEEP = (
    "[model]\npi = 0.9\neps = 0.1\ng = 0.5\nc = 0.01\nw = 0.05\nv_c = 1.0\n"
    "[curve]\nfamily = linear\nscale = 705.96235\n[sweep]\nparameter = {parameter}\ngrid = {grid}\n"
)


@pytest.mark.parametrize(
    "parameter, grid, bound",
    [("h", "0.0:1.0:1e-5", 3.5), ("pi", "0.5:0.99:4.9e-6", 4.0)],
    ids=["benchmark-h", "pi-1e5"],
)
def test_a_sweep_through_the_cli_holds_the_curve_the_grid_and_one_block(tmp_path, capsys, parameter, grid, bound):
    # the 10^5-segment curve's nodes and sums are 1.6 MB and the grid 0.8 MB,
    # about 3.0 MiB in all with a block; a table of the whole grid peaked at
    # 5.47 MiB for the h sweep, and its bisection at 19.6 MiB for the pi sweep
    path = tmp_path / "sweep.ini"
    path.write_text(BENCHMARK_SWEEP.format(parameter=parameter, grid=grid))
    argv = ["sweep", "--config", str(path), "--out", os.devnull]
    assert main(argv) == 0
    with traced_memory() as traced:
        assert main(argv) == 0
    assert capsys.readouterr().out == f"wrote 100001 rows to {os.devnull}\n" * 2
    assert traced.peak < bound * 2**20


def test_a_param_sweep_table_keeps_its_equilibrium_columns_at_a_float_a_point(p0):
    # the grid held as the value column, three float columns, the admissible
    # column that is their one held mask, and an intp code a point for the
    # reason: 33 bytes a point (105 with a copied grid and three object
    # columns of Python floats)
    grid = np.linspace(0.5, 0.99, 10**5)
    with traced_memory() as traced:
        table = sweep_param("pi", p0, ReplacementCostCurve.linear(705.96235), grid)
    admissible = table.data[table.columns.index("admissible")]
    held = [values for values in table.data if isinstance(values, Held)]
    assert table.data[0] is grid and 0 < admissible.sum() < len(grid)
    assert len(held) == 3 and all(values.held is admissible for values in held)
    assert traced.kept < 40 * len(grid)


def test_the_benchmark_curve_scale_sweep_builds_scaled_sums_for_few_points(p0):
    # the benchmark's sweep: most bisection steps are decided from the
    # unscaled sums, and only an undecided step builds a row
    curve = ReplacementCostCurve.linear(705.96235)
    grid = make_grid(0.1, 10.0, 0.01)
    built = []
    with recording_cumulate(built):
        table = sweep_param("curve_scale", p0, curve, grid)
    assert len(grid) == 991
    assert len(built) <= 0.05 * len(grid)
    # every point that fell back, and every 50th, equals a one-point solve on its scaled copy
    checked = sorted(set(np.flatnonzero(np.isin(grid, built)).tolist()) | set(range(0, len(grid), 50)))
    rows = table.rows
    assert repr([rows[i] for i in checked]) == repr(list(_point_rows("curve_scale", p0, curve, grid[checked])))


def test_make_grid_is_inclusive():
    grid = make_grid(0.0, 1.0, 0.05)
    assert len(grid) == 21
    # the same multiply-add as in Python floats, point for point
    assert grid.tolist() == [0.0 + i * 0.05 for i in range(21)]
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 0.0)


def test_make_grid_builds_only_its_points():
    # an int64 arange and a float product beside it peaked at twice the grid
    with traced_memory() as traced:
        grid = make_grid(0.0, 1.0, 1e-6)
    assert len(grid) == 10**6 + 1
    assert traced.peak < 1.01 * grid.nbytes


@pytest.mark.parametrize(
    "start, stop, step",
    [(0.0, math.inf, 1.0), (math.nan, 1.0, 0.1), (0.0, 1.0, math.inf), (0.0, 1.0, 5e-324)],
    ids=["inf-stop", "nan-start", "inf-step", "inf-span"],
)
def test_make_grid_rejects_non_finite_input(start, stop, step):
    with pytest.raises(ValueError):
        make_grid(start, stop, step)


def test_make_grid_caps_the_point_count_before_building(monkeypatch):
    monkeypatch.setattr(sweeps, "MAX_GRID_POINTS", 10)
    assert len(make_grid(0.0, 9.0, 1.0)) == 10
    with pytest.raises(ValueError, match="more than 10 points"):
        make_grid(0.0, 10.0, 1.0)


@pytest.mark.parametrize(
    "start, stop, step, size",
    [(0.0, 1.0, 0.05, 21), (0.5, 0.5, 0.1, 1), (1.0, 0.95, 0.1, 0), (1.0, 0.0, 0.1, 0)],
    ids=["inclusive", "one-point", "stop-just-below-start", "stop-far-below-start"],
)
def test_grid_size_counts_the_points_without_building_them(start, stop, step, size):
    # the config check reads only the count, so a reversed range must give 0, never a negative
    assert sweeps.grid_size(start, stop, step) == size == len(make_grid(start, stop, step))


def _gain(p) -> float:
    """Research's output gain per worker with access, written out here as the oracle."""
    return (1 - p.pi) * (1 - p.eps) - p.pi * p.eps * p.g


_SWEEP_CURVE = ReplacementCostCurve.linear(1000.0)


@settings(max_examples=60, deadline=None)
# a drop read as (1-eps)(1-pi) - pi*g*eps was 0.34099999999999997 here, not 0.341
@example(points=[ModelParams(pi=0.6, eps=0.05, g=1.3, c=0.01, w=0.05, v_c=1.0)])
@example(points=list(CORNERS))
@given(points=st.lists(params, min_size=1, max_size=4))
def test_the_slack_the_slope_and_the_drop_read_one_research_gain_float(points):
    gains = [_gain(p) for p in points]
    slopes = []
    for p, gain in zip(points, gains):
        denominator = (1.0 - p.pi) * p.eps
        slopes.append(math.inf if denominator == 0.0 else gain / denominator)
        assert repr(validate_params(p).checks[2].slack) == repr(gain - p.c)
        assert repr(credibility_slope(p)) == repr(slopes[-1])
    arrays = SimpleNamespace(**{name: np.array([getattr(p, name) for p in points]) for name in model._RANGES})
    with np.errstate(all="ignore"):
        slack, slope = validate_params(arrays).checks[2].slack, credibility_slope(arrays)
    assert repr(slack.tolist()) == repr([gain - p.c for p, gain in zip(points, gains)])
    assert repr(slope.tolist()) == repr(slopes)
    # each point swept as one grid value of each primitive, the others taken from another point
    for base in points:
        for parameter in ("pi", "eps", "g"):
            values = [getattr(p, parameter) for p in points]
            table = sweep_param(parameter, base, _SWEEP_CURVE, values)
            for value, h_tilde, drop in zip(values, column(table, "h_tilde"), column(table, "drop_at_h_tilde")):
                if drop is not None:
                    assert repr(drop) == repr(h_tilde * _gain(dataclasses.replace(base, **{parameter: value})))
