"""README's library quick start runs, and its CLI examples match the parser."""

import argparse
import re
import shlex
from pathlib import Path

from gha3d.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def _cli_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("\n## CLI\n"):].split("\n## ", 2)[1]


def _subparsers():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return parser, sub.choices


def test_readme_cli_examples_parse():
    parser, _ = _subparsers()
    (block,) = re.findall(r"```sh\n(.*?)```", _cli_section(), re.S)
    lines = [ln for ln in block.splitlines() if ln.startswith("gha3d ")]
    assert len(lines) == 6
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])  # SystemExit on drift
        assert args.command == line.split()[1]


def test_readme_common_flags_exist():
    _, subparsers = _subparsers()
    common = re.search(r"Common flags: (.*?)\n\n", _cli_section(), re.S).group(1)
    flags = re.findall(r"`(--[a-z-]+)(?: \{([a-z,]+)\})?`", common)
    assert len(flags) == 7
    for command in ("compare", "hist", "heatmap"):
        actions = {opt: a for a in subparsers[command]._actions for opt in a.option_strings}
        for flag, choices in flags:
            assert flag in actions, (command, flag)
            if choices:
                assert set(actions[flag].choices) == set(choices.split(",")), (command, flag)
