import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from syncword import (EPSILON, UNDEF, FormatError, InputError,
                      NotStronglyConnected, PartialDfa, connecting_word,
                      format_dfa, is_complete, is_eulerian,
                      is_properly_incomplete, is_strongly_connected,
                      parse_dfa, literal_automaton, validate_code)
from syncword import automaton
from syncword.automaton import (MAX_CELLS, MAX_PAIR_INDEX, check_cells,
                                fully_undefined_letters)
from syncword.pairs import PairTable

from conftest import fixture_text, small_automata


# ---------------------------------------------------------------- parsing

def test_cell_limit_is_states_times_letters():
    check_cells(MAX_CELLS, 1)
    check_cells(1, MAX_CELLS)
    with pytest.raises(InputError, match="above the limit"):
        check_cells(MAX_CELLS // 2 + 1, 2)
    with pytest.raises(InputError, match="above the limit"):
        parse_dfa("dfa v1\nstates 2\nalphabet "
                  + " ".join(f"t{i}" for i in range(MAX_CELLS // 2 + 1)) + "\n")


def test_constructor_refuses_a_table_above_the_cell_limit():
    # refused before the rows are read, so no derived automaton is larger
    # than an input may be
    with pytest.raises(InputError, match="transition-table cells"):
        PartialDfa(MAX_CELLS + 1, ("a",), ())


def cycle(n, letters="a"):
    """The n-cycle with every letter a copy of the one cycle letter."""
    return PartialDfa(n, tuple(letters),
                      tuple(((q + 1) % n,) * len(letters) for q in range(n)))


@pytest.mark.parametrize("merge", [True, False])
def test_pair_limit_is_elements_squared(monkeypatch, merge):
    dfa = cycle(math.isqrt(MAX_PAIR_INDEX) + 1)
    with pytest.raises(InputError, match="above the limit"):
        PairTable(dfa, dfa.trans, range(dfa.n), merge)
    monkeypatch.setattr(automaton, "MAX_PAIR_INDEX", 16)
    assert PairTable(cycle(4), cycle(4).trans, range(4), merge).n == 4
    with pytest.raises(InputError, match="5 elements"):
        PairTable(cycle(5), cycle(5).trans, range(5), merge)


@pytest.mark.parametrize("merge", [True, False])
def test_pair_limit_counts_letters(monkeypatch, merge):
    # 4 elements take 16 index entries, and 16 pair transitions per letter
    # against 4 x 16: four letters are the most
    monkeypatch.setattr(automaton, "MAX_PAIR_INDEX", 16)
    four = cycle(4, "abcd")
    assert PairTable(four, four.trans, range(4), merge).n == 4
    five = cycle(4, "abcde")
    with pytest.raises(InputError, match="4 elements and 5 letters needs 80 "
                       "pair transitions, above the limit of 64"):
        PairTable(five, five.trans, range(4), merge)


def test_parse_one_state_loop():
    dfa = parse_dfa("dfa v1\nstates 1\nalphabet a\n0 a 0\n")
    assert dfa.n == 1 and dfa.trans == ((0,),)
    assert is_complete(dfa)


def test_parse_fig1_has_exactly_two_undefined(fig1):
    undef = [(q, a) for q in range(fig1.n) for a in range(2)
             if fig1.trans[q][a] is UNDEF]
    assert undef == [(2, 1), (5, 1)]  # (q3, b) and (q6, b)


def test_parse_out_of_range_state_names_line():
    text = "dfa v1\nstates 3\nalphabet a\n0 a 5\n"
    with pytest.raises(FormatError, match="line 4"):
        parse_dfa(text)


def test_parse_duplicate_transition():
    text = "dfa v1\nstates 2\nalphabet a\n0 a 1\n0 a 0\n"
    with pytest.raises(FormatError, match="duplicate"):
        parse_dfa(text)


def test_parse_unknown_letter():
    text = "dfa v1\nstates 2\nalphabet a\n0 c 1\n"
    with pytest.raises(FormatError, match="unknown letter"):
        parse_dfa(text)


def test_parse_bad_header():
    with pytest.raises(FormatError, match="header"):
        parse_dfa("nfa v1\nstates 1\nalphabet a\n")


@pytest.mark.parametrize("text, line", [
    ("dfa v1\nstates \u00b2\nalphabet a\n", 2),      # superscript two
    ("dfa v1\nstates 1\nalphabet a\n\uff10 a 0\n", 4),  # full-width zero
])
def test_parse_rejects_non_ascii_digits(text, line):
    with pytest.raises(FormatError, match=f"line {line}"):
        parse_dfa(text)


def test_parse_rejects_reserved_gamma_by_default():
    text = "dfa v1\nstates 1\nalphabet @g\n0 @g 0\n"
    with pytest.raises(FormatError, match="reserved"):
        parse_dfa(text)
    assert parse_dfa(text, allow_gamma=True).alphabet == ("@g",)


def test_format_roundtrip(fig1):
    assert parse_dfa(format_dfa(fig1)) == fig1


def test_comments_and_blank_lines_ignored(fig1):
    assert parse_dfa(fixture_text("fig1left.dfa")) == fig1


def test_fully_undefined_letter_flagged():
    dfa = parse_dfa("dfa v1\nstates 2\nalphabet a b\n0 a 1\n1 a 0\n")
    assert fully_undefined_letters(dfa) == [1]


def test_constructor_and_replace_check_the_fields():
    dfa = cycle(3, "ab")
    assert PartialDfa(n=3, alphabet=("a", "b"), trans=dfa.trans) == dfa
    renamed = dfa.replace(alphabet=("x", "y"))
    assert (renamed.trans, renamed.word("y x")) == (dfa.trans, (1, 0))
    with pytest.raises(InputError, match="one row per state"):
        dfa.replace(n=4)
    with pytest.raises(TypeError):
        dfa.replace(start=0)
    for args, kwargs in [((3, "ab"), {}), ((3, "ab", dfa.trans), {"n": 3}),
                         ((3, "ab", dfa.trans, None), {}),
                         ((3, "ab", dfa.trans), {"start": 0})]:
        with pytest.raises(TypeError):
            PartialDfa(*args, **kwargs)


@pytest.mark.parametrize("alphabet, trans, message", [
    ((), ((),), "automaton needs at least one letter"),
    (("a", "a"), ((0, 0),), "alphabet tokens must be distinct"),
    (("a", ""), ((0, 0),), "alphabet tokens must be non-empty"),
    (("a", "b"), ((0,),), "state 0: row width != alphabet size"),
    (("a",), ((1,),), "state 0: target 1 out of range"),
], ids=["no-letter", "duplicate-token", "empty-token", "row-width",
        "target-out-of-range"])
def test_constructor_refusals(alphabet, trans, message):
    # parse_dfa refuses each of these inputs first, with its own message;
    # the constructor refuses them for a caller that builds one directly
    with pytest.raises(InputError) as exc:
        PartialDfa(1, alphabet, trans)
    assert str(exc.value) == message


@pytest.mark.parametrize("text", [
    "dfa v1\n", "dfa v1\nstates 2\n", "dfa v1\n# no alphabet\n\nstates 2\n"])
def test_parse_missing_states_or_alphabet_line(text):
    with pytest.raises(FormatError) as exc:
        parse_dfa(text)
    assert str(exc.value) == "missing 'states'/'alphabet' lines"


# ------------------------------------------------------------ word actions

def test_image_of_full_set_under_b(fig1):
    assert fig1.image(fig1.states, fig1.word("b")) == {0, 1, 4}


def test_image_of_full_set_under_bab(fig1):
    assert fig1.image(fig1.states, fig1.word("ba")) == {1, 2, 5}
    assert fig1.image(fig1.states, fig1.word("bab")) == {1}


def test_image_of_empty_word_and_empty_set(fig1):
    assert fig1.image(fig1.states, EPSILON) == fig1.states
    assert fig1.image(frozenset(), fig1.word("bab")) == frozenset()


def test_preimage_of_reset_target(fig1):
    assert fig1.preimage({1}, fig1.word("bab")) == {0, 3}
    assert fig1.preimage(fig1.states, EPSILON) == fig1.states


def test_rank_examples(fig1):
    assert fig1.rank(fig1.word("bab")) == 1
    assert fig1.rank(EPSILON) == 6
    assert fig1.rank(fig1.word("b")) == 3


def test_is_mortal(fig1):
    assert fig1.rank(fig1.word("bb")) != 0  # image {0, 1, 4}
    complete = parse_dfa("dfa v1\nstates 1\nalphabet a\n0 a 0\n")
    assert complete.rank(complete.word("a a a")) != 0
    lit = literal_automaton(validate_code(["ab"]))
    assert lit.dfa.rank(lit.dfa.word("aa")) == 0


# -------------------------------------------------------------- predicates

def test_strong_connectivity(fig1):
    assert is_strongly_connected(fig1)
    one = parse_dfa("dfa v1\nstates 1\nalphabet a\n0 a 0\n")
    assert is_strongly_connected(one)
    line = parse_dfa("dfa v1\nstates 2\nalphabet a\n0 a 1\n")
    assert not is_strongly_connected(line)


def test_strong_connectivity_is_recorded_only_when_it_holds(sc_checks):
    # a passed check is recorded on the automaton, outside ==, hash and
    # repr; a failed one is not, so every later call refuses again
    text = fixture_text("fig1left.dfa")
    dfa = parse_dfa(text)
    line = parse_dfa("dfa v1\nstates 2\nalphabet a\n0 a 1\n")
    for _ in range(3):
        automaton.require_strongly_connected(dfa)
        with pytest.raises(NotStronglyConnected,
                           match="^the automaton is not strongly connected$"):
            automaton.require_strongly_connected(line)
    assert sc_checks == [dfa, line, line, line]
    fresh = parse_dfa(text)
    assert (dfa, hash(dfa), repr(dfa)) == (fresh, hash(fresh), repr(fresh))


def test_completeness_predicates(fig1):
    complete = parse_dfa("dfa v1\nstates 2\nalphabet a\n0 a 1\n1 a 0\n")
    assert is_complete(complete) and not is_properly_incomplete(complete)
    assert not is_complete(fig1) and is_properly_incomplete(fig1)
    # b fully undefined: incomplete but not properly incomplete
    half = parse_dfa("dfa v1\nstates 2\nalphabet a b\n0 a 1\n1 a 0\n")
    assert not is_complete(half) and not is_properly_incomplete(half)


def test_connecting_word(fig1):
    assert connecting_word(fig1, 2, 2) == EPSILON
    w = connecting_word(fig1, 0, 1)
    assert w == fig1.word("a")
    assert fig1.image({0}, w) == {1}
    two = parse_dfa("dfa v1\nstates 2\nalphabet a\n0 a 1\n1 a 0\n")
    assert connecting_word(two, 0, 1) == (0,)
    line = parse_dfa("dfa v1\nstates 2\nalphabet a\n0 a 1\n")
    with pytest.raises(NotStronglyConnected):
        connecting_word(line, 1, 0)


def test_connecting_word_length_bound(fig1):
    for p in range(fig1.n):
        for q in range(fig1.n):
            assert len(connecting_word(fig1, p, q)) <= fig1.n - 1


@settings(deadline=None)
# breadth first, 0 -> 3 is a b; depth first from the last node queued, b a
@example(PartialDfa(4, ("a", "b"), ((1, 2), (2, 3), (3, UNDEF), (0, UNDEF))))
@given(small_automata())
def test_connecting_word_is_the_least_shortest_word(dfa):
    k = len(dfa.alphabet)
    for p in range(dfa.n):
        # words by length, each length in lexicographic order: the first to
        # reach q is the least of the shortest
        least = {}
        for length in range(dfa.n):
            for w in itertools.product(range(k), repeat=length):
                least.setdefault(dfa.run(p, w), w)
        for q in range(dfa.n):
            if q in least:
                assert connecting_word(dfa, p, q) == least[q]
            else:
                with pytest.raises(NotStronglyConnected):
                    connecting_word(dfa, p, q)


def test_eulerian():
    shift = PartialDfa(4, ("a", "b"),
                       tuple(((q + 1) % 4, (q + 2) % 4) for q in range(4)))
    assert is_eulerian(shift)
    loop = parse_dfa("dfa v1\nstates 1\nalphabet a\n0 a 0\n")
    assert is_eulerian(loop)


def test_eulerian_needs_strong_connectivity():
    # two self-loops: each state has in-degree 1 and out-degree 1, but
    # neither reaches the other
    loops = PartialDfa(2, ("a",), ((0,), (1,)))
    assert not is_strongly_connected(loops)
    assert not is_eulerian(loops)


def test_fig1_not_eulerian(fig1):
    # state 0 has in-degree 3 but out-degree 2
    assert not is_eulerian(fig1)


def test_word_parsing_and_formatting(fig1):
    assert fig1.word("b a b") == fig1.word("bab") == (1, 0, 1)
    assert fig1.word("-") == EPSILON
    assert fig1.format_word((1, 0, 1)) == "b a b"
    assert fig1.format_word(EPSILON) == "-"
    with pytest.raises(InputError):
        fig1.word("xyz q")


DASH_LETTER = "dfa v1\nstates 2\nalphabet - a\n0 - 1\n1 a 0\n1 - 1\n"


def test_word_text_over_the_letter_dash():
    dfa = parse_dfa(DASH_LETTER)
    for w in ((), (0,), (0, 1)):
        assert dfa.word(dfa.format_word(w)) == w
    assert dfa.format_word(EPSILON) == ""
    assert dfa.format_word((0,)) == "-"
    assert dfa.word("-a") == (0, 1)


# ------------------------------------------------- randomized invariants

def _dfas(max_n=10, alpha=2):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.one_of(st.none(), st.integers(0, n - 1)),
                     min_size=n * alpha, max_size=n * alpha)))


def _mk(n, flat, alpha=2):
    rows = [tuple(flat[q * alpha + a] for a in range(alpha)) for q in range(n)]
    return PartialDfa(n, ("a", "b"), tuple(rows))


words = st.lists(st.integers(0, 1), max_size=12).map(tuple)
subsets = st.sets(st.integers(0, 9))


@settings(deadline=None)
@given(_dfas(), words, subsets)
def test_adjointness(nd, w, raw):
    dfa = _mk(*nd)
    S = frozenset(q for q in raw if q < dfa.n)
    pre = dfa.preimage(S, w)
    for q in range(dfa.n):
        assert (q in pre) == (dfa.run(q, w) in S)


@settings(deadline=None)
@given(_dfas(), words, subsets, subsets)
def test_disjoint_preimages_stay_disjoint(nd, w, raw1, raw2):
    dfa = _mk(*nd)
    S = frozenset(q for q in raw1 if q < dfa.n)
    T = frozenset(q for q in raw2 if q < dfa.n) - S
    assert not (dfa.preimage(S, w) & dfa.preimage(T, w))


@settings(deadline=None)
@given(_dfas(), words, words, subsets)
def test_image_composes(nd, u, v, raw):
    dfa = _mk(*nd)
    S = frozenset(q for q in raw if q < dfa.n)
    assert dfa.image(S, u + v) == dfa.image(dfa.image(S, u), v)


@settings(deadline=None)
@given(_dfas(), words, subsets, subsets)
def test_image_monotone(nd, w, raw1, raw2):
    dfa = _mk(*nd)
    S = frozenset(q for q in raw1 if q < dfa.n)
    T = S | frozenset(q for q in raw2 if q < dfa.n)
    assert dfa.image(S, w) <= dfa.image(T, w)


@settings(deadline=None)
@given(_dfas(), words, words)
def test_mortality_absorbs(nd, w, u):
    dfa = _mk(*nd)
    if dfa.rank(w) == 0:
        assert dfa.rank(w + u) == 0
