"""README's CLI block runs as documented, and its exit-code sentence matches
the exit-code table."""

import json
import re
import shlex
from pathlib import Path

from edgepir import cli, spec

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def block(language: str, after: str) -> str:
    return re.search(rf"{after}.*?```{language}\n(.*?)```", README, re.S).group(1)


def test_readme_cli_commands_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("example.json").write_text(block("json", "Example config"))
    json.loads(Path("example.json").read_text())
    commands = [shlex.split(line, comments=True)
                for line in block("sh", "## CLI").splitlines() if line.startswith("edgepir ")]
    assert ["edgepir", "optimize", "--config", "example.json"] in commands
    for argv in commands:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)


def test_readme_exit_codes_match_table():
    sentence = re.search(r"Exit codes: (.*?)\.\n", README).group(1)
    documented = {(int(code), name) for code, name in
                  (item.split(" ", 1) for item in sentence.split(", "))}
    assert documented == {(0, "success")} | {(code, prefix) for _, code, prefix in spec.EXIT_CODES}
