"""A transcript of the CLI: stdout and exit code of a fixed list of command
lines, in both output formats, against the golden file
tests/fixtures/transcript.txt.

Every leaf command runs on the fixture files and on inputs written at run
time: a non-synchronizing random automaton, the 6-state cycle, a 2-state
automaton that is not strongly connected and the height-0 code {a, b}.
Paths are written as <fixtures> and <tmp>, and stderr is left out.  After an
intended change of output, rewrite the golden file with

    PYTHONPATH=src python tests/test_transcript.py
"""
import contextlib
import io
import pathlib
import re
import sys
import tempfile

import pytest

from syncword import format_dfa, gen_cerny, gen_random_partial
from syncword.cli import run

from conftest import FIXTURES

GOLDEN = FIXTURES / "transcript.txt"

DFAS = ["<fixtures>/fig1left.dfa", "<fixtures>/lit-abab.dfa",
        "<tmp>/random.dfa", "<tmp>/cerny6.dfa", "<tmp>/notsc.dfa"]
CODES = ["<fixtures>/abab.code", "<fixtures>/fig1right.code",
         "<tmp>/ab.code"]


def _command_lines():
    for f in DFAS:
        yield f"classes {f}"
        for what in ("fixing", "collecting", "duplicating"):
            yield f"build {what} {f}"
        yield f"build induced {f} --w1 a --w2 a,b"
        yield f"sync check {f}"
        for method in ("greedy", "fixing", "collecting", "oracle"):
            yield f"sync word {f} --method {method}"
        yield f"rank min {f}"
        for target in (1, 2):
            for method in ("greedy", "oracle"):
                yield f"rank word {f} --target {target} --method {method}"
        yield f"oracle {f}"
        yield f"verify duplicating {f}"
    for f in CODES:
        for what in ("validate", "literal", "logrank", "reset"):
            yield f"code {what} {f}"
    for word in ("aabaaab", "abab", "a", "ab"):
        yield f"code oneword {word}"
    yield "search extremal --n 3"
    yield "search extremal --n 4 --seed 3 --trials 300"
    yield "verify all --size-cap 4"
    yield "gen cerny --n 6"
    yield "gen oneword --k 3"
    yield "gen random-dfa --n 6 --alpha 2 --density 0.7 --seed 19"
    yield "gen random-code --count 5 --maxlen 4 --seed 1"


COMMANDS = [f"--format {fmt} {line}" for line in _command_lines()
            for fmt in ("text", "summary")]


def write_inputs(tmp):
    """The inputs the command lines read from <tmp>."""
    tmp = pathlib.Path(tmp)
    (tmp / "random.dfa").write_text(
        format_dfa(gen_random_partial(6, 2, 0.70, 19)))
    (tmp / "cerny6.dfa").write_text(format_dfa(gen_cerny(6)))
    (tmp / "notsc.dfa").write_text(
        "dfa v1\nstates 2\nalphabet a b\n0 a 1\n1 a 1\n1 b 1\n")
    (tmp / "ab.code").write_text("a\nb\n")


def entry(command, tmp):
    """The transcript entry of one command line run in-process: the line,
    its stdout and its exit code."""
    paths = {"<fixtures>": str(FIXTURES), "<tmp>": str(tmp)}
    argv = command.split()
    for placeholder, path in paths.items():
        argv = [arg.replace(placeholder, path) for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        status = run(argv)
    text = out.getvalue()
    for placeholder, path in paths.items():
        text = text.replace(path, placeholder)
    return f"$ syncword {command}\n{text}[exit {status}]\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("transcript")
    write_inputs(tmp)
    return tmp


@pytest.fixture(scope="module")
def golden():
    """The golden file's entries by command line."""
    blocks = re.split(r"^(?=\$ syncword )", GOLDEN.read_text(), flags=re.M)
    return {b.split("\n", 1)[0][len("$ syncword "):]: b for b in blocks if b}


def test_golden_file_lists_the_command_lines(golden):
    assert list(golden) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_transcript(command, inputs, golden):
    assert entry(command, inputs) == golden[command]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        GOLDEN.write_text("".join(entry(c, tmp) for c in COMMANDS))
    print(f"wrote {len(COMMANDS)} entries to {GOLDEN}", file=sys.stderr)
