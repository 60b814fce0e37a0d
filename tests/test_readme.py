"""The README's command-line examples run as written.

Every `junta-test` command in README.md's ```sh blocks runs through
`cli.main`, in README order, in one temporary directory, and must exit 0.
Backslash continuations are joined, and a `cat > FILE <<'END'` heredoc
writes FILE, so later commands read the files earlier ones wrote.
"""

import re
import shlex
from pathlib import Path

from juntatester.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_steps() -> list[tuple[str, object]]:
    """("write", (path, text)) for each heredoc, ("run", argv) for each command."""
    steps = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        lines = iter(block.replace("\\\n", " ").splitlines())
        for line in lines:
            heredoc = re.fullmatch(r"cat > (\S+) <<'(\w+)'", line.strip())
            if heredoc:
                path, end = heredoc.groups()
                body = []
                for body_line in lines:
                    if body_line.strip() == end:
                        break
                    body.append(body_line)
                steps.append(("write", (path, "\n".join(body) + "\n")))
            elif line.startswith("junta-test "):
                steps.append(("run", shlex.split(line, comments=True)[1:]))
    return steps


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = readme_steps()
    commands = [argv[0] for kind, argv in steps if kind == "run"]
    assert set(commands) == {"gen", "run", "distance", "experiment", "spectrum"}
    for kind, payload in steps:
        if kind == "write":
            path, text = payload
            (tmp_path / path).write_text(text)
        else:
            code = main(payload)
            assert code == 0, (payload, capsys.readouterr().err)
