"""The README's CLI example runs as written, the defaults and Python names it lists are the code's."""

import dataclasses
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from shirklab import cli
from shirklab.simulation import SimConfig

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.DOTALL | re.MULTILINE)


def test_the_cli_example_runs(tmp_path, monkeypatch, capsys):
    (config,) = _blocks("ini")
    (commands,) = [block for block in _blocks("sh") if block.startswith("shirklab ")]
    (tmp_path / "run.ini").write_text(config)
    monkeypatch.chdir(tmp_path)
    argvs = [shlex.split(line) for line in commands.splitlines()]
    assert [argv[:2] for argv in argvs] == [["shirklab", name] for name in cli._COMMANDS]
    for argv in argvs:
        assert cli.main(argv[1:]) == 0, capsys.readouterr().err


def test_the_defaults_sentence_lists_every_default():
    sentence = re.search(r"^Defaults: (.*?)\.\s", README, re.DOTALL | re.MULTILINE).group(1)
    documented = dict(re.findall(r"`(\w+) = ([^`]+)`", sentence))
    expected = {
        key: str(default)
        for keys in cli._SCHEMA.values()
        for key, (_reader, default) in keys.items()
        if default is not None and default is not cli._REQUIRED
    }
    # the modes' defaults are SimConfig's
    expected.update(
        (field.name, field.default)
        for field in dataclasses.fields(SimConfig)
        if field.default is not dataclasses.MISSING
    )
    assert documented == expected


def test_every_python_name_the_readme_mentions_resolves():
    # the dotted paths are the documented Python API: each module is imported
    # and each name after it read as an attribute
    paths = sorted(set(re.findall(r"\bshirklab(?:\.\w+)+", README)))
    assert len(paths) >= 13
    for path in paths:
        _, module, *names = path.split(".")
        value = importlib.import_module(f"shirklab.{module}")
        for name in names:
            assert hasattr(value, name), path
            value = getattr(value, name)


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    # each name is imported from its module, so the package root holds only __version__
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    probe = "import sys, shirklab; print(sorted(m for m in sys.modules if m.startswith(('shirklab.', 'numpy'))))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert result.stdout == "[]\n"
