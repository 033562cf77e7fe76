"""Each fast path pinned to a plain reference.

PartialDfa.image (memoized chunk actions), the pair compress_pairs picks
(a budgeted walk of the pair table), rank_target_word (a scan of the greedy
trace) and lift_word_to_partial (a loop on the columns) are checked against
the letter-by-letter set code they replace.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from syncword import (UNDEF, InputError, PartialDfa, gen_cerny,
                      gen_random_prefix_code, greedy_min_rank,
                      literal_automaton, pair_table, pair_word, parse_dfa,
                      rank_target_word)
from syncword.automaton import _chunk_length
from syncword.constructions import lift_word_to_partial
from syncword.synchronization import PairTable, _min_pair

from test_golden import CASES


def ref_image(dfa, S, w):
    cur = set(S)
    for a in w:
        cur = {dfa.trans[q][a] for q in cur} - {UNDEF}
    return frozenset(cur)


def ref_min_pair(table, S):
    pairs = [(d, p, q) for (p, q), d in table.dist.items() if p in S and q in S]
    return min(pairs, default=None)


# ------------------------------------------------------------------ image

@st.composite
def automata(draw, ks=(1, 2, 3, 5, 17, 20)):
    n = draw(st.integers(1, 9))
    k = draw(st.sampled_from(ks))
    density = draw(st.sampled_from([0.5, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    trans = tuple(tuple(rng.randrange(n) if rng.random() < density else UNDEF
                        for _ in range(k)) for _ in range(n))
    return PartialDfa(n, tuple(f"x{i}" for i in range(k)), trans)


@settings(max_examples=150, deadline=None)
@given(automata(), st.data())
def test_image_matches_letter_by_letter_replay(dfa, data):
    k = len(dfa.alphabet)
    letters = st.integers(0, k - 1)
    # the same automaton sees many words, so cached chunks are reused
    for _ in range(6):
        w = tuple(data.draw(st.lists(letters, max_size=40)))
        S = frozenset(data.draw(st.sets(st.integers(0, dfa.n - 1))))
        for word in (w, w, w[:3], w + w):
            assert dfa.image(S, word) == ref_image(dfa, S, word)
            assert dfa.image(S, list(word)) == ref_image(dfa, S, word)


def test_image_unary_alphabet_terminates():
    dfa = parse_dfa("dfa v1\nstates 1\nalphabet a\n0 a 0\n")
    assert _chunk_length(1) == 8
    assert dfa.image(dfa.states, (0,) * 21) == {0}
    cycle = PartialDfa(3, ("a",), ((1,), (2,), (UNDEF,)))
    for m in range(20):
        assert cycle.image(cycle.states, (0,) * m) == ref_image(cycle, range(3), (0,) * m)


def test_image_states_die_mid_chunk():
    # b is undefined on state 2: every state dies inside a long chunk
    dfa = PartialDfa(3, ("a", "b"), ((1, 0), (2, 1), (0, UNDEF)))
    w = (0, 0, 1, 0, 1, 1, 0, 1, 0, 1)
    for i in range(len(w) + 1):
        assert dfa.image(dfa.states, w[:i]) == ref_image(dfa, range(3), w[:i])
    assert dfa.image({2}, (1,) * 9) == frozenset()


@pytest.mark.parametrize("k, length", [(1, 8), (2, 8), (3, 5), (4, 4),
                                       (5, 3), (6, 3), (7, 2), (16, 2),
                                       (17, 1), (300, 1)])
def test_chunk_length(k, length):
    assert _chunk_length(k) == length
    assert length == 1 or k ** length <= 256


@pytest.mark.parametrize("k", [1, 2, 3, 7, 17])
def test_chunk_cache_holds_at_most_256_actions(k):
    rng = random.Random(k)
    n = 12
    dfa = PartialDfa(n, tuple(f"x{i}" for i in range(k)),
                     tuple(tuple(rng.randrange(n) for _ in range(k))
                           for _ in range(n)))
    for _ in range(300):
        w = tuple(rng.randrange(k) for _ in range(64))
        assert dfa.image(dfa.states, w) == ref_image(dfa, range(n), w)
    L = _chunk_length(k)
    assert len(dfa._chunks) <= (256 if L > 1 else 0)
    assert len(dfa._chunks) <= min(256, k ** L)


@settings(max_examples=80, deadline=None)
@given(automata(ks=(1, 2, 3)), st.data())
def test_lift_matches_letter_by_letter_filter(dfa, data):
    w = tuple(data.draw(st.lists(st.integers(0, len(dfa.alphabet) - 1),
                                 max_size=30)))
    S = frozenset(data.draw(st.sets(st.integers(0, dfa.n - 1), min_size=1)))
    cur, out = S, []
    for a in w:
        nxt = ref_image(dfa, cur, (a,))
        if nxt:
            out.append(a)
            cur = nxt
    assert lift_word_to_partial(dfa, S, w) == tuple(out)


# -------------------------------------------------------------- min pair

def assert_picks_match(dfa, S):
    """Run greedy compression from S, comparing every pick."""
    table = pair_table(dfa)
    steps = 0
    while True:
        best = _min_pair(table, S)
        assert best == ref_min_pair(table, S)
        if best is None:
            return steps
        S = dfa.image(S, pair_word(dfa, table, best[1], best[2]))
        steps += 1


@pytest.mark.parametrize("n", [2, 3, 7, 20, 40])
def test_min_pair_cycle_family_from_full_set(n):
    dfa = gen_cerny(n)
    assert assert_picks_match(dfa, dfa.states) == n - 1


def test_min_pair_budget_runs_out_mid_level():
    lit = literal_automaton(gen_random_prefix_code(12, 6, 3, 6)).dfa
    table = pair_table(lit)
    level_end = {}
    for pos, d in enumerate(table.dist.values()):
        level_end[d] = pos + 1
    rng = random.Random(5)
    fallbacks = 0
    for _ in range(60):
        S = frozenset(rng.sample(range(lit.n), rng.randrange(2, 6)))
        best = ref_min_pair(table, S)
        budget = len(S) * (len(S) - 1) // 2
        if best is not None and level_end[best[0]] > budget:
            fallbacks += 1
        assert_picks_match(lit, S)
    assert fallbacks >= 10


def test_min_pair_finishes_the_level():
    # within a distance level pair_bfs inserts in queue order, not by (p, q)
    dist = {(0, 1): 1, (4, 5): 2, (2, 3): 2, (1, 2): 3}
    table = PairTable(6, dist, dict.fromkeys(dist, 0))
    assert _min_pair(table, frozenset({2, 3, 4, 5})) == (2, 2, 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10), st.data())
def test_min_pair_on_tables_in_bfs_order(n, data):
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    keys = data.draw(st.permutations(pairs))
    keys = keys[:data.draw(st.integers(0, len(keys)))]
    dists = sorted(data.draw(st.lists(st.integers(1, 4), min_size=len(keys),
                                      max_size=len(keys))))
    dist = dict(zip(keys, dists))
    table = PairTable(n, dist, dict.fromkeys(dist, 0))
    S = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
    assert _min_pair(table, S) == ref_min_pair(table, S)


@settings(max_examples=100, deadline=None)
@given(automata(ks=(2, 3)), st.data())
def test_min_pair_random_subsets(dfa, data):
    table = pair_table(dfa)
    S = frozenset(data.draw(st.sets(st.integers(0, dfa.n - 1))))
    assert _min_pair(table, S) == ref_min_pair(table, S)


# ------------------------------------------------------------ rank target

def ref_rank_target_word(dfa, r):
    if r == dfa.n:
        return ()
    result = greedy_min_rank(dfa)
    S = dfa.states
    for i, a in enumerate(result.word):
        S = ref_image(dfa, S, (a,))
        if len(S) <= r:
            return result.word[:i + 1]
    return InputError


@pytest.mark.parametrize("name", sorted(CASES) + ["cerny12"])
def test_rank_target_word_matches_prefix_scan(name):
    dfa = gen_cerny(12) if name == "cerny12" else CASES[name]()
    for r in range(1, dfa.n + 1):
        expected = ref_rank_target_word(dfa, r)
        if expected is InputError:
            with pytest.raises(InputError, match="above target"):
                rank_target_word(dfa, r)
        else:
            assert rank_target_word(dfa, r) == expected
