"""Byte-for-byte CLI output on fixed configs.

Each ``tests/data/golden/<name>.ini`` is run through the subcommand its
name starts with.  ``solve`` and ``simulate`` stdout must equal
``<name>.out``; a ``sweep`` must write exactly ``<name>.csv``.  The
expected files were produced by the CLI before the strategy table, the
payoff algebra and the number formatting were consolidated, so they pin
every printed digit across refactors.
"""

from pathlib import Path

import pytest

from shirklab.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = sorted(path.stem for path in GOLDEN.glob("*.ini"))


def test_every_golden_config_has_its_expected_output():
    assert len(CASES) == 32
    for name in CASES:
        suffix = ".csv" if name.startswith("sweep_") else ".out"
        assert (GOLDEN / f"{name}{suffix}").is_file(), name


@pytest.mark.parametrize("name", CASES)
def test_golden_output(name, tmp_path, capsys):
    command = name.split("_", 1)[0]
    argv = [command, "--config", str(GOLDEN / f"{name}.ini")]
    if command == "sweep":
        destination = tmp_path / f"{name}.csv"
        assert main(argv + ["--out", str(destination)]) == 0
        expected = (GOLDEN / f"{name}.csv").read_bytes()
        assert destination.read_bytes() == expected
        rows = expected.count(b"\n") - 1
        assert capsys.readouterr().out == f"wrote {rows} rows to {destination}\n"
    else:
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()
