"""Fuzzing of the input parsers and of the CLI's exit codes.

Whatever text arrives, parse_dfa ends in a PartialDfa or an InputError and
parse_code in a PrefixCode or an InputError; format_dfa output parses back
to the same automaton; and the CLI exits with 0, 1 or 2 on any file, never
with 3, which means an internal fault.
"""
import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from syncword import (InputError, PartialDfa, PrefixCode, format_dfa,
                      parse_code, parse_dfa)
from syncword.automaton import GAMMA_TOKEN
from syncword.cli import run

# tokens the dfa v1 format can carry: no whitespace, no comment sign
TOKEN_CHARS = st.characters(blacklist_categories=("Z", "C"),
                            blacklist_characters="#")
tokens = st.one_of(st.sampled_from(["a", "b", "c", GAMMA_TOKEN, "0", "a1"]),
                   st.text(TOKEN_CHARS, min_size=1, max_size=3))
numbers = st.one_of(st.integers(-1, 7).map(str),
                    st.sampled_from(["", "x", "²", "１", "1.0",
                                     "007", "+1"]))


@st.composite
def dfa_texts(draw):
    """dfa v1 documents that are mostly well formed, with a few defects."""
    alphabet = draw(st.lists(tokens, min_size=0, max_size=4))
    lines = [draw(st.sampled_from(["dfa v1"] * 8 + ["dfa v2", "DFA v1", ""])),
             "states " + draw(numbers),
             " ".join(["alphabet"] + alphabet)]
    letters = alphabet + draw(st.lists(tokens, max_size=1))
    for _ in range(draw(st.integers(0, 14))):
        src, dst = draw(numbers), draw(numbers)
        tok = draw(st.sampled_from(letters)) if letters else "a"
        lines.append(draw(st.sampled_from([
            f"{src} {tok} {dst}", f"{src} {tok} {dst}", f"{src} {tok} {dst}",
            f"{src} {tok}", f"{src} {tok} {dst} {dst}",
            f"# {src} {tok} {dst}", f"{src} {tok} {dst}  # note", ""])))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.text(max_size=12)))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


@st.composite
def automata(draw):
    n = draw(st.integers(1, 6))
    alphabet = tuple(draw(st.lists(tokens, min_size=1, max_size=4, unique=True)))
    trans = tuple(tuple(draw(st.one_of(st.none(), st.integers(0, n - 1)))
                        for _ in alphabet) for _ in range(n))
    return PartialDfa(n, alphabet, trans)


code_texts = st.one_of(
    st.text(max_size=40),
    st.lists(st.text(st.sampled_from("ab c#\té"), max_size=6),
             max_size=8).map("\n".join))


def parse_or_input_error(parse, text):
    try:
        return parse(text)
    except InputError:
        return None


@settings(max_examples=400, deadline=None)
@given(st.one_of(dfa_texts(), st.text(max_size=80)), st.booleans())
def test_parse_dfa_ends_in_automaton_or_input_error(text, allow_gamma):
    dfa = parse_or_input_error(lambda t: parse_dfa(t, allow_gamma), text)
    assert dfa is None or isinstance(dfa, PartialDfa)


@settings(max_examples=200, deadline=None)
@given(automata(), st.one_of(st.none(), st.text(max_size=20)))
def test_format_dfa_round_trip(dfa, comment):
    assert parse_dfa(format_dfa(dfa, comment), allow_gamma=True) == dfa
    if GAMMA_TOKEN not in dfa.alphabet:
        assert parse_dfa(format_dfa(dfa, comment)) == dfa


@settings(max_examples=400, deadline=None)
@given(code_texts)
def test_parse_code_ends_in_code_or_input_error(text):
    code = parse_or_input_error(parse_code, text)
    assert code is None or isinstance(code, PrefixCode)


# FILE stands for the fuzzed file
FILE = None
DFA_COMMANDS = [
    ["classes", FILE], ["sync", "check", FILE], ["rank", "min", FILE],
    ["oracle", FILE], ["rank", "word", FILE, "--target", "2"],
    ["build", "fixing", FILE], ["build", "collecting", FILE],
    ["verify", "duplicating", FILE],
    *(["sync", "word", FILE, "--method", m]
      for m in ("greedy", "fixing", "collecting", "oracle")),
]
CODE_COMMANDS = [["code", what, FILE]
                 for what in ("validate", "literal", "logrank", "reset")]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_quietly(cmd, path):
    argv = [str(path) if arg is FILE else arg for arg in cmd]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


@settings(max_examples=150, deadline=None)
@given(st.one_of(dfa_texts(), automata().map(format_dfa)))
def test_cli_dfa_commands_never_exit_3(workdir, text):
    path = workdir / "fuzz.dfa"
    path.write_text(text, encoding="utf-8")
    for cmd in DFA_COMMANDS:
        assert run_quietly(cmd, path) in (0, 1, 2), cmd


@settings(max_examples=150, deadline=None)
@given(code_texts)
def test_cli_code_commands_never_exit_3(workdir, text):
    path = workdir / "fuzz.code"
    path.write_text(text, encoding="utf-8")
    for cmd in CODE_COMMANDS:
        assert run_quietly(cmd, path) in (0, 1, 2), cmd
    assert run_quietly(["code", "oneword", text.strip()], path) in (0, 1, 2)
