"""The README's library quick start quotes what the code returns, and its
CLI examples parse."""
import re
import shlex
from pathlib import Path

import pytest

from deltacasimir import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_quick_start_values():
    block = README.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    code = block.split("```", 1)[0]
    # each "name = call(...)  # Type(value=-0.0944...)" line quotes its value rounded
    quoted = re.findall(r"^(\w+)\s*=.*#\s*\w+\(value=(-?[\d.]+)\.\.\.", code, re.M)
    assert [name for name, _ in quoted] == ["fc", "fl", "s"]
    namespace = {}
    exec(code, namespace)
    for name, prefix in quoted:
        digits = len(prefix.split(".")[1])
        assert round(namespace[name].value, digits) == float(prefix), (name, namespace[name].value)
        assert namespace[name].estimate.converged, name


def _cli_examples():
    """The README's CLI block, one word list per line (continuations
    joined, comments stripped, blank lines dropped)."""
    block = README.split("## CLI", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").split("\n")]
    return [words for words in lines if words]


EXAMPLES = _cli_examples()


def test_cli_examples_cover_every_command():
    assert all(words[0] == "deltacasimir" for words in EXAMPLES)
    assert {words[1] for words in EXAMPLES} == {"scattering", "force", "entropy", "sweep",
                                                "figure"}


@pytest.mark.parametrize("words", EXAMPLES, ids=lambda words: " ".join(words[1:]))
def test_cli_example_parses(words):
    # a deleted command or flag left in an example (the asymptote command's
    # once) fails here; nothing runs
    assert cli.build_parser().parse_args(words[1:]).command == words[1]


def _flag_table():
    """The README's subcommand/flags table: subcommand -> the shared flags
    its row lists (a parenthesised note, figure's `--out-dir`, left out)."""
    block = README.split("| subcommand", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in block.split("\n") if line.strip().startswith("| `")]
    return {name.strip().strip("`"): set(re.findall(r"--[\w-]+", re.sub(r"\(.*\)", "", flags)))
            for name, flags in rows}


def test_flag_table_matches_the_parser():
    # a flag deleted from the parser but left in its row (or added without
    # one) fails here; nothing runs
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.choices and a.dest == "command").choices
    registered = {name: {opt for a in sub._actions for opt in a.option_strings}
                  & set(cli._FLAGS) - {"--json"} for name, sub in commands.items()}
    assert _flag_table() == registered
