"""Comparative-statics tables and their CSV contract."""

import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import draw_params
from shirklab import (
    InvalidCurveError,
    ReplacementCostCurve,
    csv_to_table,
    emit_csv,
    gamma_bar,
    make_grid,
    output_drop,
    solve_threshold,
    sweep_h,
    sweep_param,
)
from shirklab import sweeps
from shirklab.model import _fmt
from shirklab.sweeps import Table


@pytest.fixture
def h_table(p0, linear_curve):
    return sweep_h(p0, linear_curve, make_grid(0.0, 1.0, 0.05))


class TestSweepH:
    def test_single_regime_switch_between_grid_neighbours(self, h_table, p0, linear_curve):
        table = h_table
        regimes = table.column("regime")
        switches = [i for i in range(1, len(regimes)) if regimes[i] != regimes[i - 1]]
        assert len(switches) == 1
        h_tilde = solve_threshold(p0, linear_curve).h_tilde
        grid = table.column("h")
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
        table = sweep_h(p0, linear_curve, make_grid(0.0, 1.0, 0.005))
        outputs = table.column("output")
        grid = table.column("h")
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
        admissible = table.column("admissible")
        assert admissible == [True, True, True, True, True, False]
        assert table.rows[-1][-1] == "research_efficiency"
        # the minimal punishment rate is affine in the effort cost
        gammas = table.column("gamma_bar")[:5]
        diffs = np.diff(gammas)
        assert np.allclose(diffs, diffs[0], rtol=1e-9)

    def test_continuation_value_sweep_scales_gamma_bar_inversely(self, p0, linear_curve):
        grid = (1.0, 2.0, 4.0)
        table = sweep_param("v_c", p0, linear_curve, grid)
        gammas = table.column("gamma_bar")
        assert gammas[0] == pytest.approx(2 * gammas[1], rel=1e-12)
        assert gammas[1] == pytest.approx(2 * gammas[2], rel=1e-12)
        h_tildes = table.column("h_tilde")
        assert h_tildes == sorted(h_tildes)

    def test_curve_scale_sweep_shrinks_the_threshold(self, p0, linear_curve):
        table = sweep_param("curve_scale", p0, linear_curve, (0.5, 1.0, 2.0, 4.0))
        h_tildes = table.column("h_tilde")
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
        assert table.column("admissible") == [False, False, True]
        assert table.column("reason")[:2] == ["scale factor must be finite"] * 2

    def test_unknown_parameter_rejected(self, p0, linear_curve):
        with pytest.raises(ValueError, match="unknown sweep parameter 'zeta'"):
            sweep_param("zeta", p0, linear_curve, (0.1,))
        with pytest.raises(ValueError, match="use sweep_h"):
            sweep_param("h", p0, linear_curve, (0.1,))

    def test_grid_points_are_read_as_floats(self, p0, linear_curve):
        assert sweep_param("w", p0, linear_curve, (0, 1)).column("value") == [0.0, 1.0]
        assert all(type(h) is float for h in sweep_h(p0, linear_curve, (0, 1)).column("h"))


class TestEmitCsv:
    def test_header_and_significant_digits(self, h_table, tmp_path):
        table = h_table
        path = tmp_path / "sweep.csv"
        emit_csv(table, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "h,regime,gamma_star,output,welfare,boundary"
        assert len(lines) == len(table.rows) + 1
        assert "0.211111111111" in lines[2]

    def test_round_trip_preserves_twelve_significant_digits(self, h_table, tmp_path):
        table = h_table
        path = tmp_path / "sweep.csv"
        emit_csv(table, str(path))
        parsed = csv_to_table(str(path))
        assert parsed.columns == table.columns
        for row, parsed_row in zip(table.rows, parsed.rows):
            for cell, parsed_cell in zip(row, parsed_row):
                if isinstance(cell, float):
                    assert parsed_cell == pytest.approx(cell, rel=1e-11, abs=1e-15)
                else:
                    assert parsed_cell == cell

    def test_empty_table_errors_before_any_write(self, tmp_path):
        path = tmp_path / "never.csv"
        with pytest.raises(ValueError):
            emit_csv(Table(columns=("a",), rows=()), str(path))
        assert not path.exists()

    def test_unwritable_destination_raises_io_error(self, h_table, tmp_path):
        table = h_table
        with pytest.raises(OSError):
            emit_csv(table, str(tmp_path / "missing" / "out.csv"))

    def test_inadmissible_rows_serialize_with_reason(self, p0, linear_curve, tmp_path):
        path = tmp_path / "c.csv"
        emit_csv(sweep_param("c", p0, linear_curve, (0.01, 0.05)), str(path))
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
            emit_csv(table, str(path))
            parsed = csv_to_table(str(path))
            for row, parsed_row in zip(table.rows, parsed.rows):
                for cell, parsed_cell in zip(row, parsed_row):
                    if isinstance(cell, float):
                        assert parsed_cell == pytest.approx(cell, rel=1e-11, abs=1e-15)


def _reference_csv(table: Table) -> bytes:
    """The writer ``emit_csv`` replaced: csv.writer with one call per cell."""

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
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([cell_text(cell) for cell in row])
    return buffer.getvalue().encode("utf-8")


EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308)
CELLS = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.booleans(),
    st.none(),
    st.text(alphabet=st.sampled_from([",", '"', "\n", "\r", "a", " ", "%", "\u00e9"]), max_size=6),
    st.integers(),
)


@st.composite
def tables(draw):
    width = draw(st.integers(1, 4))
    columns = tuple(draw(st.lists(st.text(alphabet="ab,\"", max_size=3), min_size=width, max_size=width)))
    # a column keeps one kind of cell in some tables, so all-float columns
    # and the per-cell path both meet the chunk boundaries
    uniform = draw(st.booleans())
    kinds = [draw(st.sampled_from(["float", "any"])) for _ in range(width)]
    floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    row = st.tuples(*[floats if uniform and kind == "float" else CELLS for kind in kinds])
    return Table(columns, tuple(draw(st.lists(row, min_size=1, max_size=25))))


class TestEmitCsvMatchesCsvWriter:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=tables(), chunk=st.integers(1, 9))
    def test_random_tables_are_byte_identical(self, table, chunk, tmp_path):
        path = tmp_path / "t.csv"
        with mock.patch.object(sweeps, "CSV_CHUNK_ROWS", chunk):
            emit_csv(table, str(path))
        assert path.read_bytes() == _reference_csv(table)

    @pytest.mark.parametrize("cell", ["", None])
    def test_lone_empty_cell_is_quoted(self, cell, tmp_path):
        table = Table(("only",), (("x",), (cell,), (1.5,)))
        path = tmp_path / "t.csv"
        emit_csv(table, str(path))
        assert path.read_bytes() == _reference_csv(table) == b'only\nx\n""\n1.5\n'


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
        assert any(0.0 < h < 1.0 for h in table.column("h_tilde") if h is not None)


def test_make_grid_is_inclusive():
    grid = make_grid(0.0, 1.0, 0.05)
    assert len(grid) == 21
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 0.0)


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
