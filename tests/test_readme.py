"""The README's CLI example runs as written, and the defaults it lists are the code's."""

import dataclasses
import re
import shlex
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
