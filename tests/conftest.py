import pathlib

import pytest
from hypothesis import settings, strategies as st

from syncword import (UNDEF, PartialDfa, automaton, gen_cerny, pairs,
                      parse_dfa, parse_code, literal_automaton)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# tests/mutants.py runs with --hypothesis-profile mutants: every run draws
# the same examples and none come from the local example database, so a
# mutant is killed on every run or on none
settings.register_profile("mutants", database=None, derandomize=True)


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


def cerny_times_parity(m):
    """The cycle family on m states times a bit that letter 0 flips: strongly
    connected for odd m, and no word merges states of different bits."""
    c = gen_cerny(m)
    return PartialDfa(2 * m, c.alphabet, tuple(
        tuple(c.trans[q][a] * 2 + (b ^ (a == 0)) for a in range(2))
        for q in range(m) for b in range(2)))


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


@pytest.fixture
def built_tables(monkeypatch):
    """(merge, table) for every pair table built while the test runs."""
    built = []
    real = pairs.PairTable.__post_init__

    def recording(table):
        real(table)
        built.append((table.merge, table))
    monkeypatch.setattr(pairs.PairTable, "__post_init__", recording)
    return built


@st.composite
def small_automata(draw, strongly_connected=False):
    """Partial automata of at most 6 states over at most 3 letters; an
    entry is undefined as often as it is any one state, so words of one
    length often tie.  With strongly_connected set, a table that is not
    gets a cycle through every state, one drawn letter per state."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    entry = st.sampled_from([UNDEF, *range(n)])
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                         min_size=n, max_size=n))
    alphabet = tuple("abc"[:k])
    if strongly_connected and not automaton.is_strongly_connected(
            PartialDfa(n, alphabet, tuple(map(tuple, rows)))):
        order = draw(st.permutations(range(n)))
        for q, t in zip(order, order[1:] + order[:1]):
            rows[q][draw(st.integers(0, k - 1))] = t
    return PartialDfa(n, alphabet, tuple(map(tuple, rows)))
