import pathlib

import pytest

from syncword import automaton, parse_dfa, parse_code, literal_automaton

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture_text(name):
    return (FIXTURES / name).read_text()


@pytest.fixture(scope="session")
def fig1():
    """The 6-state strongly connected partial binary automaton; states 0..5
    stand for q1..q6."""
    return parse_dfa(fixture_text("fig1left.dfa"))


@pytest.fixture(scope="session")
def decoder_lit():
    """Literal automaton of {abaaa, abaab, abab, abba} (6 states, height 4)."""
    return literal_automaton(parse_code(fixture_text("fig1right.code")))


@pytest.fixture
def sc_checks(monkeypatch):
    """The automata is_strongly_connected is called on while the test
    runs."""
    checked = []
    real = automaton.is_strongly_connected

    def counting(dfa):
        checked.append(dfa)
        return real(dfa)
    monkeypatch.setattr(automaton, "is_strongly_connected", counting)
    return checked
