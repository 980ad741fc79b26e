"""The README's examples run against the code.

Every ``lorentzkit ...`` line in a fenced block goes through ``cli.main``
(bare output files land in a temporary ``LORENTZKIT_OUT_DIR``) and must exit
0; a trailing ``# N_k = value`` comment is checked against the printed table.
The quick-start Python block is executed and its commented values checked.
"""

import re
import shlex
from pathlib import Path

import pytest

from lorentzkit import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced_blocks():
    """``(info string, lines)`` of every fenced block in the README."""
    blocks, info, lines = [], None, []
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            if info is None:
                info, lines = line[3:].strip(), []
            else:
                blocks.append((info, lines))
                info = None
        elif info is not None:
            lines.append(line)
    return blocks


COMMANDS = [
    line for _, lines in _fenced_blocks() for line in lines if line.startswith("lorentzkit ")
]
QUICK_START = next(lines for info, lines in _fenced_blocks() if info == "python")


def test_readme_has_commands():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("line", COMMANDS)
def test_command_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUT_DIR_ENV_VAR, str(tmp_path))
    argv = shlex.split(line, comments=True)[1:]
    assert cli.main(argv) == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    claim = re.search(r"#\s*N_(\d+) = (\d+)", line)
    if claim:
        level, count = claim.groups()
        assert f"{level:>4}  {count:>10}" in out


def test_quick_start():
    # the values checked below are the ones the block's comments state
    for statement, comment in [
        ("lorentz_norm(v, params)", "# 4.99156383156272"),
        ("scheme = corollary_scheme(5)", "# lengths (1, 1, 3, 12, 60)"),
        ("scheme.stagger_ratio()", "# exactly 1.0"),
    ]:
        assert any(
            line.startswith(statement) and comment in line for line in QUICK_START
        ), (statement, comment)
    namespace = {}
    exec("\n".join(QUICK_START), namespace)
    assert namespace["lorentz_norm"](namespace["v"], namespace["params"]) == 4.99156383156272
    assert namespace["scheme"].lengths == (1, 1, 3, 12, 60)
    assert namespace["scheme"].stagger_ratio() == 1.0
    assert namespace["report"].passed
