"""Each fast path pinned to a plain reference.

PartialDfa.image (memoized actions of chunks, and of runs of chunks from
a run's second appearance; also on long repetitive words and with threads
sharing the caches), the pair a greedy step over states picks
(PairTable.least_pair, a walk or a scan of the pair table, with each state
of S standing for itself) and rank_target_word (the greedy steps
up to the first that reaches the target) are checked against the
letter-by-letter set code they replace, and PairTable.steps refuses a step
that does not shrink the image; strip_gamma (one
replay, in the partial automaton) against the copy that checked its input on
a rebuilt collecting automaton; the pair BFS (integer pair codes in
flat arrays, listed a level at a time on demand) against a BFS on
tuple-keyed dicts, its seeds (bit masks), the picks and words of a table
that lists nothing (the same masks), also those of its forward search
from a subset's pairs, against a drained table, and
the class pick of a step over the partition's table (the same walk, with
each class standing for its least state of S, ties broken by those states)
against the loops they replace; the subset-BFS kernel (translate tables
over blocks of a level, a visited byte map, per-level int32 arrays of
image sources) and its counters against a set-based BFS, also in
blocks of one and three masks; is_strongly_connected (adjacency lists)
against the bit mask check of the extremal search, forwards and backwards;
and extremal search (bit mask rows over BFS-canonical tables)
against an enumeration of transition tables, and its canonical tables
against the BFS relabelings of the strongly connected ones.
"""
import math
import os
import pathlib
import random
import subprocess
import sys
import threading
from array import array
from collections import Counter, deque
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from syncword import (UNDEF, InputError, Lcg64, PartialDfa, SyncwordError,
                      class_reducing_word, collecting, collecting_tree,
                      extremal_search, gen_cerny,
                      gen_random_partial, gen_random_prefix_code,
                      greedy_min_rank, inseparability_partition,
                      is_strongly_connected, literal_automaton, pair_table,
                      parse_dfa, rank_target_word, strip_gamma, subset_bfs)
from syncword import oracle
from syncword.automaton import _RUN_CHUNKS, _chunk_length
from syncword.constructions import lift_word_to_partial
from syncword.oracle import _bfs_witnesses, _reaches_zero, _rt_bitmask
from syncword.pairs import (PairTable, _settle_masks, least_pair_forward,
                            settle_seeds)

from conftest import cerny_times_parity
from test_golden import CASES


def ref_image(dfa, S, w):
    cur = set(S)
    for a in w:
        cur = {dfa.trans[q][a] for q in cur} - {UNDEF}
    return frozenset(cur)


def ref_min_pair(table, S):
    pairs = [(d, p, q) for (p, q), d, _ in table.items() if p in S and q in S]
    return min(pairs, default=None)


def min_pair(table, S):
    """The least_pair pick of a step over states: the identity map on S."""
    rep = [None] * table.n
    for q in S:
        rep[q] = q
    return table.least_pair(rep)


def hand_table(n, dist):
    """A complete PairTable listing the pairs of the ordered
    {(p, q): distance} dist (p < q) in that order, every first letter 0:
    the caches of a table built on no automaton, filled by hand, so it has
    no fields and only least_pair, distance and items can read it."""
    index = array("i", [0] * (n * n))
    for q in range(n):
        index[q * n + q] = -1
    for i, (p, q) in enumerate(dist, start=1):
        index[p * n + q] = index[q * n + p] = i
    table = object.__new__(PairTable)
    table.__dict__.update(
        n=n, pairs=array("i", [p * n + q for p, q in dist]),
        dist=array("i", dist.values()), letter=array("i", [0] * len(dist)),
        index=index, _bfs=None, _masks=None)
    return table


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


@st.composite
def repetitive_words(draw, k):
    """A word of a few drawn pieces, each repeated 1-12 times: runs repeat
    where a piece's repeats line up with the runs."""
    letters = st.integers(0, k - 1)
    span = _RUN_CHUNKS * _chunk_length(k)
    word = []
    for piece in draw(st.lists(st.lists(letters, min_size=1,
                                        max_size=span + 3),
                               min_size=1, max_size=3)):
        word += piece * draw(st.integers(1, 12))
    return tuple(word)


@settings(max_examples=150, deadline=None)
@given(automata(ks=(1, 2, 3, 5, 17)), st.data())
def test_image_matches_replay_on_repetitive_words(dfa, data):
    k = len(dfa.alphabet)
    w = data.draw(repetitive_words(k))
    # three replays of w: its runs are filed, applied through their
    # actions, then reused
    for _ in range(3):
        S = frozenset(data.draw(st.sets(st.integers(0, dfa.n - 1))))
        for word in (w, w[:len(w) // 2]):
            assert dfa.image(S, word) == ref_image(dfa, S, word)
    span = _RUN_CHUNKS * _chunk_length(k)
    if _chunk_length(k) > 1 and len(w) >= span:
        assert w[:span] in dfa._runs
    else:
        assert not dfa._runs
    # each state a run action was applied to went through the whole run
    for run, act in dfa._runs.items():
        assert all(t == dfa.run(q, run) for q, t in act.items())


def test_image_states_die_mid_run():
    # a turns a 6-cycle, b kills state 5 and fixes the others: halfway
    # through each 64-letter run b kills what stands on 5, so states die
    # inside a run, also once the run has its action, and others survive
    dfa = PartialDfa(6, ("a", "b"), tuple(
        ((q + 1) % 6, UNDEF if q == 5 else q) for q in range(6)))
    run = (0,) * 30 + (1,) + (0,) * 33
    w = run * 3 + (1, 0, 0)
    for S in ({0}, {5}, {2, 3}, range(6)):
        for i in range(len(w) + 1):
            assert dfa.image(S, w[:i]) == ref_image(dfa, S, w[:i])
    assert run in dfa._runs
    assert [len(dfa.image(dfa.states, run * m)) for m in range(4)] == \
        [6, 5, 4, 4]


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
    assert len(dfa._runs) <= (256 if L > 1 else 0)


def test_run_actions_follow_a_full_run_cache():
    # 300 random 64-letter words at k = 2 are 300 runs seen once: each is
    # filed with an empty action, and the cache is cleared when it holds
    # 256.  A run repeated afterwards is still served by its action
    rng = random.Random(2)
    n = 12
    dfa = PartialDfa(n, ("a", "b"), tuple(
        (rng.randrange(n), rng.randrange(n)) for _ in range(n)))
    for _ in range(300):
        w = tuple(rng.randrange(2) for _ in range(64))
        assert dfa.image(dfa.states, w) == ref_image(dfa, range(n), w)
        assert len(dfa._runs) <= 256
        assert not dfa._runs[w]
    run = tuple(rng.randrange(2) for _ in range(64))
    assert dfa.image(dfa.states, run * 20) == \
        ref_image(dfa, range(n), run * 20)
    assert len(dfa._runs) == 300 - 256 + 1
    # every state of the image met the run's action on its second
    # appearance
    assert set(dfa._runs[run]) >= ref_image(dfa, range(n), run)


def test_image_caches_shared_across_threads():
    # threads fill the chunk and run caches of one automaton at once, with
    # a short switch interval so that the fills interleave: every image
    # still matches the replay, and racing fills pass the run bound by at
    # most one per thread
    rng = random.Random(5)
    n = 40
    # complete, so no image dies before the word's last run
    dfa = PartialDfa(n, ("a", "b"), tuple(
        (rng.randrange(n), rng.randrange(n)) for _ in range(n)))
    words = [tuple(rng.randrange(2) for _ in range(rng.randrange(1, 70)))
             * rng.randrange(1, 12) for _ in range(40)]
    words += [tuple(rng.randrange(2) for _ in range(640)) for _ in range(20)]
    want = [ref_image(dfa, range(n), w) for w in words]
    wrong = []

    def replay(seed):
        order = list(range(len(words)))
        random.Random(seed).shuffle(order)
        for i in order * 3:
            if dfa.image(dfa.states, words[i]) != want[i]:
                wrong.append(i)
    threads = [threading.Thread(target=replay, args=(seed,))
               for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(dfa._runs) <= 256 + len(threads)


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


# ------------------------------------------------------------ strip gamma

def ref_strip_gamma(dfa, tree, w):
    """strip_gamma as it was: the input checked on a rebuilt collecting
    automaton, the output on dfa."""
    part = tree.partition
    coll = collecting(dfa, tree)
    gamma = len(dfa.alphabet)
    root = frozenset(part.classes[tree.root_class])
    if len(coll.image(root, w)) != 1:
        raise InputError("word does not synchronize the root class in the collecting automaton")
    qtable = part.table.trans
    out = []
    cls = tree.root_class
    for a in w:
        if a == gamma:
            if cls == tree.root_class:
                continue
            a, cls = tree.parent[cls]
            out.append(a)
        else:
            t = qtable[cls][a]
            if t is not UNDEF:
                out.append(a)
                cls = t
    if len(dfa.image(root, tuple(out))) != 1:
        raise SyncwordError("stripped word must synchronize the root class")
    return tuple(out)


def strip_outcomes(dfa, rng):
    """strip_gamma against ref_strip_gamma with every class as the root, on
    random words over the alphabet plus @g, @g^(n-1) before one of them, and
    greedy's word for the collecting automaton; counts stripped and refused
    words."""
    part = inseparability_partition(dfa)
    k = len(dfa.alphabet)
    outcomes = Counter()
    for root in range(len(part.classes)):
        tree = collecting_tree(dfa, part, root)
        words = [tuple(rng.randrange(k + 1)
                       for _ in range(rng.randrange(3 * dfa.n + 1)))
                 for _ in range(10)]
        words.append((k,) * (dfa.n - 1) + words[0])
        words.append(greedy_min_rank(collecting(dfa, tree)).word)
        for w in words:
            try:
                expected = ref_strip_gamma(dfa, tree, w)
            except InputError as exc:
                with pytest.raises(InputError) as got:
                    strip_gamma(dfa, tree, w)
                assert str(got.value) == str(exc)
                outcomes["refused"] += 1
            else:
                assert strip_gamma(dfa, tree, w) == expected
                outcomes["stripped"] += 1
    return outcomes


@pytest.mark.parametrize("k", [1, 2, 3])
def test_strip_gamma_matches_collecting_replay_random(k):
    rng = random.Random(k)
    outcomes = Counter()
    for _ in range(60):
        # a strongly connected unary automaton is a cycle, drawn with
        # probability (n-1)!/n**n: small n, no undefined entry
        n = rng.randint(1, 6 if k == 1 else 10)
        density = 1.0 if k == 1 else rng.choice([0.6, 0.7, 0.8, 0.9, 1.0])
        dfa = gen_random_partial(n, k, density, rng.randrange(2 ** 32))
        outcomes += strip_outcomes(dfa, rng)
    assert outcomes["stripped"] >= 100 and outcomes["refused"] >= 100


def test_strip_gamma_matches_collecting_replay_literal():
    rng = random.Random(5)
    outcomes = Counter()
    for _ in range(40):
        code = gen_random_prefix_code(rng.randint(2, 5), rng.randint(3, 4),
                                      rng.randint(2, 3), rng.randrange(2 ** 32))
        outcomes += strip_outcomes(literal_automaton(code).dfa, rng)
    assert outcomes["stripped"] >= 1000 and outcomes["refused"] >= 50


# -------------------------------------------------------------- min pair

def assert_picks_match(dfa, S):
    """Run greedy compression from S, comparing every pick."""
    table = pair_table(dfa)
    steps = 0
    while True:
        best = min_pair(table, S)
        assert best == ref_min_pair(table, S)
        if best is None:
            return steps
        S = dfa.image(S, table.word(best[1], best[2]))
        steps += 1


@pytest.mark.parametrize("n", [2, 3, 7, 20, 40])
def test_min_pair_cycle_family_from_full_set(n):
    dfa = gen_cerny(n)
    assert assert_picks_match(dfa, dfa.states) == n - 1


def test_min_pair_budget_runs_out_mid_level():
    lit = literal_automaton(gen_random_prefix_code(12, 6, 3, 6)).dfa
    table = pair_table(lit)
    level_end = {}
    for pos, (_, d, _) in enumerate(table.items()):
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
    table = hand_table(6, {(0, 1): 1, (4, 5): 2, (2, 3): 2, (1, 2): 3})
    assert min_pair(table, frozenset({2, 3, 4, 5})) == (2, 2, 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10), st.data())
def test_min_pair_on_tables_in_bfs_order(n, data):
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    keys = data.draw(st.permutations(pairs))
    keys = keys[:data.draw(st.integers(0, len(keys)))]
    dists = sorted(data.draw(st.lists(st.integers(1, 4), min_size=len(keys),
                                      max_size=len(keys))))
    table = hand_table(n, dict(zip(keys, dists)))
    S = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
    assert min_pair(table, S) == ref_min_pair(table, S)


@settings(max_examples=100, deadline=None)
@given(automata(ks=(2, 3)), st.data())
def test_min_pair_random_subsets(dfa, data):
    table = pair_table(dfa)
    S = frozenset(data.draw(st.sets(st.integers(0, dfa.n - 1))))
    assert min_pair(table, S) == ref_min_pair(table, S)


# ----------------------------------------------------------- greedy steps

def stalled_step_outcomes():
    """Steps over a state table and a class table whose recorded word, the
    letter a, leaves the image unchanged: a permutes the states of dfa,
    while the tables are built on a table where a kills one state of the
    pair.  'raised' or 'accepted' per table."""
    stalled = ((None,), (0,))
    outcomes = []
    for trans, elem, merge in [(((1,), (0,)), range(2), True),
                               (((0,), (1,), (2,)), (0, 0, 1), False)]:
        dfa = PartialDfa(len(trans), ("a",), trans)
        try:
            list(PairTable(dfa, stalled, elem, merge).steps(dfa.states))
            outcomes.append("accepted")
        except SyncwordError as exc:
            outcomes.append("raised" if "greedy step" in str(exc) else "other")
    return outcomes


def test_steps_reject_a_step_that_does_not_shrink():
    assert stalled_step_outcomes() == ["raised", "raised"]


def test_steps_reject_a_step_that_does_not_shrink_under_optimize():
    here = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    script = ("import sys\nfrom test_fast_paths import stalled_step_outcomes\n"
              "print(sys.flags.optimize, *stalled_step_outcomes())")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.stdout == "1 raised raised\n", proc.stderr


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


def test_rank_target_word_stops_at_the_reaching_step(monkeypatch):
    dfa = gen_cerny(12)
    sizes = [size for size, _ in greedy_min_rank(dfa).trace]
    real = PairTable.word
    calls = []
    monkeypatch.setattr(PairTable, "word",
                        lambda self, *args: calls.append(args) or real(self, *args))
    for r in range(1, dfa.n):
        calls.clear()
        rank_target_word(dfa, r)
        assert len(calls) == next(i for i, size in enumerate(sizes, start=1)
                                  if size <= r)


# ------------------------------------------------------------- subset BFS

def ref_bfs_thresholds(n, k, trans_flat):
    """Set-based BFS from the full set; the first discovery in (queue,
    letter) order gives each subset its word."""
    full = frozenset(range(n))
    word = {full: ()}
    queue = deque([full])
    while queue:
        S = queue.popleft()
        for a in range(k):
            T = frozenset(trans_flat[q * k + a] for q in S) - {-1}
            if T not in word:
                word[T] = word[S] + (a,)
                queue.append(T)
    out = [None] * (n + 1)
    for T, w in word.items():
        if out[len(T)] is None:
            out[len(T)] = list(w)
    return out


def ref_bfs_counters(n, k, trans_flat):
    """Subsets reached and index of the last nonempty level of a
    level-by-level set BFS from the full set."""
    level = {frozenset(range(n))}
    seen = set(level)
    depth = 0
    while True:
        level = {T for S in level for a in range(k)
                 for T in [frozenset(trans_flat[q * k + a] for q in S) - {-1}]
                 if T not in seen}
        if not level:
            return len(seen), depth
        seen |= level
        depth += 1


@st.composite
def flat_tables(draw):
    """Row-major tables with undefined entries, fully undefined letters and
    letters that copy an earlier letter's column."""
    n = draw(st.integers(1, 12))
    k = draw(st.sampled_from([1, 2, 3, 4, 5, 17]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    columns = []
    for a in range(k):
        kind = draw(st.sampled_from(["random", "random", "undefined", "copy"]))
        if kind == "undefined":
            columns.append([-1] * n)
        elif kind == "copy" and columns:
            columns.append(list(rng.choice(columns)))
        else:
            density = rng.choice([0.6, 0.9, 1.0])
            columns.append([rng.randrange(n) if rng.random() < density else -1
                            for _ in range(n)])
    return n, k, [columns[a][q] for q in range(n) for a in range(k)]


@st.composite
def wide_tables(draw):
    """Row-major tables with n = 17..24, so subsets reach the third byte:
    one permutation letter plus letters whose image has at most 3 states,
    with undefined entries, which keeps the reachable lattice small."""
    n = draw(st.integers(17, 24))
    k = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    perm = rng.sample(range(n), n)
    density = rng.choice([0.8, 1.0])
    columns = [[t if rng.random() < density else -1 for t in perm]]
    for _ in range(k - 1):
        targets = rng.sample(range(n), rng.randint(1, 3))
        columns.append([rng.choice(targets) if rng.random() < 0.8 else -1
                        for _ in range(n)])
    rng.shuffle(columns)
    return n, k, [columns[a][q] for q in range(n) for a in range(k)]


def many_letters_table():
    """A row-major table with n = 24 and 129 letters whose lattice stays
    small: one permutation, four letters whose images hold at most 3 states
    and copies of those four, with undefined entries; 450 subsets over 180
    levels."""
    rng = random.Random(24)
    n, k = 24, 129
    columns = [rng.sample(range(n), n)]
    for _ in range(4):
        targets = rng.sample(range(n), rng.randint(1, 3))
        columns.append([rng.choice(targets) if rng.random() < 0.8 else -1
                        for _ in range(n)])
    while len(columns) < k:
        columns.append(list(rng.choice(columns[1:])))
    rng.shuffle(columns)
    return n, k, [columns[a][q] for q in range(n) for a in range(k)]


MANY_LETTERS_TABLE = many_letters_table()


def flat_dfa(n, k, flat):
    """The automaton of a row-major table, -1 meaning undefined."""
    return PartialDfa(n, tuple(f"x{a}" for a in range(k)), tuple(
        tuple(UNDEF if t < 0 else t for t in flat[q * k:(q + 1) * k])
        for q in range(n)))


@settings(max_examples=300, deadline=None)
@given(flat_tables())
def test_bfs_kernel_matches_set_bfs(table):
    n, k, flat = table
    assert _bfs_witnesses(flat_dfa(n, k, flat))[0] == ref_bfs_thresholds(n, k, flat)


@settings(max_examples=300, deadline=None)
@example(MANY_LETTERS_TABLE)
@given(wide_tables())
def test_bfs_kernel_matches_set_bfs_on_three_bytes(table):
    n, k, flat = table
    assert _bfs_witnesses(flat_dfa(n, k, flat))[0] == ref_bfs_thresholds(n, k, flat)


@settings(max_examples=200, deadline=None)
@example(MANY_LETTERS_TABLE)
@given(st.one_of(flat_tables(), wide_tables()))
def test_oracle_counters_match_set_bfs(table):
    n, k, flat = table
    rep = subset_bfs(flat_dfa(n, k, flat))
    assert (rep.subsets, rep.depth) == ref_bfs_counters(n, k, flat)


@pytest.mark.parametrize("masks", [1, 3])
@settings(max_examples=150, deadline=None)
@example(table=MANY_LETTERS_TABLE)
@given(table=st.one_of(flat_tables(), wide_tables()))
def test_bfs_kernel_in_small_blocks(masks, table):
    # a level read a few masks at a time gives the same words and counters
    n, k, flat = table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_BLOCK_IMAGES", masks * k)
        words, subsets, depth = _bfs_witnesses(flat_dfa(n, k, flat))
    assert words == ref_bfs_thresholds(n, k, flat)
    assert (subsets, depth) == ref_bfs_counters(n, k, flat)


@settings(max_examples=300, deadline=None)
@given(flat_tables())
def test_strong_connectivity_matches_masks(table):
    # adjacency-list reachability against the extremal search's bit-mask
    # check, run on the successor masks and on the predecessor masks
    n, k, flat = table
    succ = [0] * n
    pred = [0] * n
    for i, t in enumerate(flat):
        if t >= 0:
            succ[i // k] |= 1 << t
            pred[t] |= 1 << (i // k)
    assert is_strongly_connected(flat_dfa(n, k, flat)) == (
        _reaches_zero(succ, n) and _reaches_zero(pred, n))


# --------------------------------------------------------------- pair BFS

def ref_settle_seeds(trans, k, merge):
    """The seed loops of pair_table (merge) and of the inseparability
    partition (not merge)."""
    n = len(trans)
    seeds = {}
    for p in range(n):
        for q in range(p + 1, n):
            for a in range(k):
                tp, tq = trans[p][a], trans[q][a]
                if (tp is UNDEF) != (tq is UNDEF) or \
                        (merge and tp is not UNDEF and tp == tq):
                    seeds[(p, q)] = a
                    break
    return seeds


def ref_pair_bfs(trans, k, seeds):
    """Backward pair BFS on tuple-keyed dicts: (dist, letter) in BFS order."""
    n = len(trans)
    inv = [[[] for _ in range(n)] for _ in range(k)]
    for q in range(n):
        for a in range(k):
            t = trans[q][a]
            if t is not UNDEF:
                inv[a][t].append(q)
    dist = dict.fromkeys(seeds, 1)
    letter = dict(seeds)
    queue = deque(seeds)
    while queue:
        tp, tq = queue.popleft()
        d = dist[(tp, tq)] + 1
        for a in range(k):
            for p in inv[a][tp]:
                for q in inv[a][tq]:
                    if p == q:
                        continue
                    key = (p, q) if p < q else (q, p)
                    if key not in dist:
                        dist[key] = d
                        letter[key] = a
                        queue.append(key)
    return dist, letter


def nested(table):
    n, k, flat = table
    return tuple(tuple(UNDEF if flat[q * k + a] < 0 else flat[q * k + a]
                       for a in range(k)) for q in range(n))


@settings(max_examples=300, deadline=None)
@given(flat_tables(), st.booleans())
def test_settle_seeds_match_pair_loops(table, merge):
    trans = nested(table)
    k = table[1]
    seeds = settle_seeds(trans, *_settle_masks(trans, k, merge))
    assert [((p, q), a) for p, q, a in seeds] == \
        list(ref_settle_seeds(trans, k, merge).items())


@settings(max_examples=300, deadline=None)
@given(flat_tables(), st.booleans())
def test_pair_bfs_matches_dict_bfs_in_order(table, merge):
    # a built table drained to completion holds the whole BFS
    trans = nested(table)
    n, k = table[0], table[1]
    seeds = ref_settle_seeds(trans, k, merge)
    drained = PairTable(flat_dfa(*table), trans, range(n), merge)
    drained.all_compressible()
    pairs, dist, letter, index = (drained.pairs, drained.dist, drained.letter,
                                  drained.index)
    ref_dist, ref_letter = ref_pair_bfs(trans, k, seeds)
    assert [(divmod(c, n), d, a) for c, d, a in zip(pairs, dist, letter)] == \
        [(key, d, ref_letter[key]) for key, d in ref_dist.items()]
    for p in range(n):
        for q in range(n):
            i = index[p * n + q]
            if p == q or (min(p, q), max(p, q)) not in ref_dist:
                assert i <= 0
            else:
                assert pairs[i - 1] == min(p, q) * n + max(p, q)


@settings(max_examples=300, deadline=None)
@given(flat_tables(), st.booleans())
def test_pair_table_grows_by_whole_levels(table, merge):
    # a built table lists nothing; grown one level at a time, it always
    # lists a prefix of the drained table's arrays that ends where a level
    # ends
    trans = nested(table)
    n = table[0]
    dfa = flat_dfa(*table)
    drained = PairTable(dfa, trans, range(n), merge)
    drained.all_compressible()
    grown = PairTable(dfa, trans, range(n), merge)
    assert (len(grown.pairs), len(grown.index)) == (0, 0)
    grown._grow(0)
    assert set(grown.dist) <= {1}
    while True:
        m = len(grown.dist)
        assert grown.pairs == drained.pairs[:m]
        assert grown.dist == drained.dist[:m]
        assert grown.letter == drained.letter[:m]
        assert m == len(drained.dist) or drained.dist[m] > drained.dist[m - 1]
        listed = set(grown.pairs)
        for p in range(n):
            for q in range(n):
                i = grown.index[p * n + q]
                if p != q and min(p, q) * n + max(p, q) in listed:
                    assert i == drained.index[p * n + q]
                else:
                    assert i <= 0
        if grown._bfs is None:
            break
        grown._grow(m + 1)
        if m == len(drained.dist):
            assert len(grown.dist) == m and grown._bfs is None
        else:
            # one step lists exactly the next level
            assert set(grown.dist[m:]) == {drained.dist[m]}
    assert (grown.pairs, grown.dist, grown.letter, grown.index) == \
        (drained.pairs, drained.dist, drained.letter, drained.index)


def fresh_reads(dfa, subsets):
    """least_pair, word and steps of a fresh table for each subset against
    those of one drained table; the number of fresh tables that listed
    levels past the seeds.  A fresh table whose pick has distance 1 lists
    nothing."""
    drained = pair_table(dfa)
    drained.all_compressible()
    seeds = list(drained.dist).count(1)
    grew = 0
    for S in subsets:
        fresh = pair_table(dfa)
        best = min_pair(fresh, S)
        assert best == min_pair(drained, S) == ref_min_pair(drained, S)
        if best is not None:
            assert fresh.word(best[1], best[2]) == drained.word(best[1], best[2])
            if best[0] == 1:
                assert len(fresh.dist) == 0
        grew += len(fresh.dist) > seeds
        assert list(pair_table(dfa).steps(S)) == list(drained.steps(S))
    return grew


@settings(max_examples=100, deadline=None)
@given(automata(ks=(2, 3)), st.data())
def test_fresh_table_reads_as_drained(dfa, data):
    fresh_reads(dfa, [frozenset(data.draw(st.sets(st.integers(0, dfa.n - 1))))
                      for _ in range(4)])


def subsets_without_seeds(drained):
    """A pair of each distance above 1, and one pair no word settles, of a
    drained table, as subsets of elements: none holds a distance-1 pair."""
    n = drained.n
    deep = {d: divmod(c, n) for c, d in zip(drained.pairs, drained.dist)
            if d > 1}
    unsettled = [(p, q) for p in range(n) for q in range(p + 1, n)
                 if drained.index[p * n + q] <= 0][:1]
    return [frozenset(pq) for pq in [*deep.values(), *unsettled]]


@st.composite
def blown_up_automata(draw):
    """A random partial automaton on m classes with each class copied to
    one or more states in shuffled order: a state goes under a letter to
    some copy of its class's target, so copies are inseparable and class
    minima interleave."""
    m, k = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    n = draw(st.integers(m, 10))
    rng = random.Random(draw(st.integers(0, 2**32)))
    cls = [*range(m), *(rng.randrange(m) for _ in range(n - m))]
    rng.shuffle(cls)
    copies = [[q for q in range(n) if cls[q] == c] for c in range(m)]
    quotient = [[rng.randrange(m) if rng.random() < 0.7 else UNDEF
                 for _ in range(k)] for _ in range(m)]
    return PartialDfa(n, tuple(f"x{i}" for i in range(k)), tuple(
        tuple(UNDEF if t is UNDEF else rng.choice(copies[t])
              for t in quotient[c]) for c in cls))


@settings(max_examples=150, deadline=None)
@given(st.one_of(automata(ks=(2, 3, 4)), blown_up_automata()), st.data())
def test_fresh_tables_read_as_drained_with_and_without_seeds(dfa, data):
    # compression (merge, elements are states) and separation (no merge,
    # each class stands for its least state of S, so element order differs
    # from state order, as when S drops the least state of each class): a
    # fresh table picks, spells and steps as a drained one, also for
    # subsets that hold no distance-1 pair
    drawn = [frozenset(data.draw(st.sets(st.integers(0, dfa.n - 1))))
             for _ in range(3)]
    drained = pair_table(dfa)
    drained.all_compressible()
    fresh_reads(dfa, drawn + subsets_without_seeds(drained))
    part = inseparability_partition(dfa)
    drained = part.table
    drained.all_compressible()
    no_seeds = [frozenset(min(part.classes[c]) for c in pair)
                for pair in subsets_without_seeds(drained)]
    not_least = frozenset(range(dfa.n)) - {min(c) for c in part.classes
                                           if len(c) > 1}
    for S in [*drawn, *no_seeds, not_least]:
        fresh = PairTable(dfa, drained.trans, part.class_of, merge=False)
        best = class_pick(part, S)
        assert best == fresh_class_pick(fresh, part, S)
        if best is not None:
            c1, c2 = part.class_of[best[1]], part.class_of[best[2]]
            assert fresh.word(c1, c2) == drained.word(c1, c2)
            assert len(fresh.dist) == 0 or best[0] > 1
        fresh = PairTable(dfa, drained.trans, part.class_of, merge=False)
        assert list(fresh.steps(S)) == list(drained.steps(S))


def assert_forward_reads_as_drained(fresh, drained, rep):
    """The forward search with no budget, on the unlisted table fresh,
    answers as drained, the same table drained: its least_pair, and the
    word it records for that pair of elements."""
    best = drained.least_pair(rep)
    word = None
    if best is not None:
        elem = {x: e for e, x in enumerate(rep) if x is not None}
        word = drained.word(elem[best[1]], elem[best[2]])
    assert least_pair_forward(fresh, rep, math.inf) == (best, word)
    assert len(fresh.dist) == 0 and fresh._masks is not None


@settings(max_examples=150, deadline=None)
@given(st.one_of(automata(ks=(2, 3, 4)), blown_up_automata()), st.data())
def test_forward_search_reads_as_drained(dfa, data):
    # the real budget, a sixteenth of the table, keeps tables this small off
    # the search, so it runs here with none: on the compression table (merge,
    # each state stands for itself) and the separation table (no merge, each
    # class stands for its least state of S), for drawn subsets and subsets
    # with no distance-1 pair
    drawn = [frozenset(data.draw(st.sets(st.integers(0, dfa.n - 1))))
             for _ in range(3)]
    drained = pair_table(dfa)
    drained.all_compressible()
    for S in drawn + subsets_without_seeds(drained):
        rep = [q if q in S else None for q in range(dfa.n)]
        assert_forward_reads_as_drained(pair_table(dfa), drained, rep)
    part = inseparability_partition(dfa)
    drained = part.table
    drained.all_compressible()
    no_seeds = [frozenset(min(part.classes[c]) for c in pair)
                for pair in subsets_without_seeds(drained)]
    for S in drawn + no_seeds:
        rep = [None] * len(part.classes)
        for q in sorted(S, reverse=True):
            rep[part.class_of[q]] = q
        fresh = PairTable(dfa, drained.trans, part.class_of, merge=False)
        assert_forward_reads_as_drained(fresh, drained, rep)


def test_forward_search_past_its_budget_lists_the_table():
    # greedy's last step on this 10-state automaton has the states {4, 5},
    # settled at distance 2: their one pair fits the budget of 2 visited
    # pairs (10 * 9 / 32), but the search visits 3, so the table lists, and
    # answers as the search does with one more pair of budget
    dfa = gen_random_partial(10, 2, 0.7, 4)
    table = pair_table(dfa)
    steps = list(table.steps(dfa.states))
    assert steps[-2][1] == {4, 5} and len(table.dist) == 45
    rep = [q if q in (4, 5) else None for q in range(10)]
    assert least_pair_forward(pair_table(dfa), rep, 2) is None
    assert least_pair_forward(pair_table(dfa), rep, 3) == \
        ((2, 4, 5), steps[-1][0])


def test_each_greedy_step_checks_its_seeds_once(monkeypatch):
    # the same automaton: the step from {4, 5} finds no distance-1 pair, and
    # its search passes the budget, yet the seeds of {4, 5} are checked once
    calls = []
    real = PairTable._least_seed

    def counted(self, rep):
        calls.append(rep)
        return real(self, rep)
    monkeypatch.setattr(PairTable, "_least_seed", counted)
    dfa = gen_random_partial(10, 2, 0.7, 4)
    table = pair_table(dfa)
    per_step, before = [], dfa.states
    for _, S in table.steps(dfa.states):
        per_step.append((len(calls), before))
        calls.clear()
        before = S
    assert per_step[-1] == (1, {4, 5}) and len(table.dist) == 45
    assert all(count <= 1 for count, _ in per_step) and calls == []


def test_fresh_table_reads_as_drained_parity():
    # a non-synchronizing automaton whose pairs spread over ten levels: some
    # subsets find their pair at level 1, others make the table grow, up to
    # completion for a subset of no settled pair
    dfa = cerny_times_parity(7)
    rng = random.Random(7)
    subsets = [frozenset(rng.sample(range(dfa.n), rng.randrange(2, dfa.n)))
               for _ in range(40)] + [frozenset({0, 1})]
    assert 10 <= fresh_reads(dfa, subsets) < 40


def test_negative_reads_complete_the_table():
    dfa = cerny_times_parity(5)
    assert is_strongly_connected(dfa)

    def partly_grown():
        table = pair_table(dfa)
        table._grow(0)
        table._grow(len(table.dist) + 1)
        assert set(table.dist) == {1, 2} and table._bfs is not None
        return table

    # a listed pair is read as it is; (0, 1), states of different bits,
    # is settled by no word
    table = partly_grown()
    p, q = divmod(table.pairs[-1], table.n)
    assert table.distance(q, p) == 2 and table._bfs is not None
    assert table.distance(0, 1) is None and table._bfs is None
    table = partly_grown()
    assert len(table.word(p, q)) == 2 and table._bfs is not None
    with pytest.raises(InputError, match="not settled"):
        table.word(0, 1)
    assert table._bfs is None
    table = partly_grown()
    assert not table.all_compressible() and table._bfs is None
    assert len(table.dist) == 20
    # an unlisted table spells a distance-1 pair without listing; any
    # other read lists the seeds first, and a negative one completes
    seed = divmod(partly_grown().pairs[0], 10)
    table = pair_table(dfa)
    assert len(table.word(*seed)) == 1 and len(table.dist) == 0
    assert table.distance(*seed) == 1 and 0 < len(table.dist) < 20
    assert table._bfs is not None
    table = pair_table(dfa)
    with pytest.raises(InputError, match="not settled"):
        table.word(0, 1)
    assert table._bfs is None and len(table.dist) == 20


def test_tables_compare_by_what_they_were_built_on():
    # unlisted, seeds only, grown past the seeds: all compare and hash
    # alike, and comparing them lists nothing
    dfa = gen_cerny(12)
    fresh, seeded, grown = pair_table(dfa), pair_table(dfa), pair_table(dfa)
    seeded._grow(0)
    grown._grow(0)
    grown._grow(len(grown.dist) + 1)
    listed = [len(t.dist) for t in (fresh, seeded, grown)]
    assert 0 == listed[0] < listed[1] < listed[2] < 66
    assert grown == fresh == seeded
    assert hash(grown) == hash(fresh) == hash(seeded)
    assert [len(t.dist) for t in (fresh, seeded, grown)] == listed
    assert pair_table(dfa) != pair_table(gen_cerny(11))


def test_pair_table_items_and_distance(fig1):
    table = pair_table(fig1)
    items = list(table.items())
    assert [d for _, d, _ in items] == sorted(d for _, d, _ in items)
    for (p, q), d, a in items:
        assert table.distance(p, q) == table.distance(q, p) == d
        assert table.word(q, p)[0] == a
    assert table.distance(3, 3) is None


# ------------------------------------------------ class-reducing pick

def class_pick(part, S):
    """The pick of a step of part.table.steps: each class of S stands for
    its least state of S."""
    return fresh_class_pick(part.table, part, S)


def fresh_class_pick(table, part, S):
    """class_pick read from table, a separation table of part."""
    rep = [None] * len(part.classes)
    for q in sorted(S, reverse=True):
        rep[part.class_of[q]] = q
    return table.least_pair(rep)


def ref_least_separated_pair(part, S):
    """The pair scan class_reducing_word made over all pairs of S."""
    best = None
    for p in sorted(S):
        for q in sorted(S):
            if q <= p or part.class_of[p] == part.class_of[q]:
                continue
            lvl = part.table.distance(part.class_of[p], part.class_of[q])
            if best is None or (lvl, p, q) < best:
                best = (lvl, p, q)
    return best


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.integers(2, 4),
       st.sampled_from([0.5, 0.6, 0.7, 0.8, 0.9]), st.data())
def test_class_pick_matches_pair_scan_random(n, k, density, data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    dfa = PartialDfa(n, tuple(f"x{i}" for i in range(k)),
                     tuple(tuple(rng.randrange(n) if rng.random() < density
                                 else UNDEF for _ in range(k))
                           for _ in range(n)))
    part = inseparability_partition(dfa)
    for _ in range(5):
        S = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
        assert class_pick(part, S) == \
            ref_least_separated_pair(part, S)


def test_class_pick_matches_pair_scan_literal():
    lit = literal_automaton(gen_random_prefix_code(12, 6, 3, 6)).dfa
    part = inseparability_partition(lit)
    # on the complete table a pick walks the listed pairs when the subset
    # has as many class pairs as the table, and scans them otherwise
    assert part.table.all_compressible()
    listed = len(part.table.dist)
    rng = random.Random(11)
    walks = scans = 0
    for _ in range(300):
        S = frozenset(rng.sample(range(lit.n), rng.randrange(1, lit.n + 1)))
        best = ref_least_separated_pair(part, S)
        assert class_pick(part, S) == best
        if best is not None:
            # the step class_reducing_word takes applies the pick's witness
            assert class_reducing_word(lit, part, S) == \
                part.table.word(part.class_of[best[1]], part.class_of[best[2]])
        kappa = part.kappa(S)
        if best is not None:
            if kappa * (kappa - 1) // 2 < listed:
                scans += 1
            else:
                walks += 1
    assert walks >= 30 and scans >= 30


def test_class_pick_breaks_ties_by_states():
    # elements stand for the states 5, 1, 3: element-code order would give
    # the pair (0, 1), that is states (1, 5)
    table = hand_table(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
    assert table.least_pair([5, 1, 3]) == (1, 1, 3)
    # the same tie in the scan: six listed pairs against the subset's three
    table = hand_table(4, {(0, 1): 1, (0, 2): 2, (0, 3): 2, (1, 2): 2,
                           (1, 3): 2, (2, 3): 2})
    assert table.least_pair([None, 5, 1, 3]) == (2, 1, 3)


def test_built_tables_break_ties_by_states():
    # classes {0, 3}, {1} and {2}, every two settled by one letter: with
    # S = {1, 2, 3} class 0 stands for state 3, so a pick in element order
    # would give classes (0, 1), that is states (1, 3)
    dfa = PartialDfa(4, ("a", "b"), ((3, 1), (UNDEF, 0), (UNDEF, UNDEF),
                                     (0, 1)))
    part = inseparability_partition(dfa)
    assert part.classes == tuple(map(frozenset, ({0, 3}, {1}, {2})))
    assert class_pick(part, {1, 2, 3}) == (1, 1, 2)
    assert class_reducing_word(dfa, part, {1, 2, 3}) == (1,)
    # a and b both settle classes 0 and 2: the word is the least letter
    assert part.table.word(2, 0) == (0,)
    assert len(part.table.dist) == 0
    # states 1 and 2 both die under a, which settles neither table's pair
    table = pair_table(dfa)
    assert table.word(1, 2) == (1,) and min_pair(table, {1, 2}) == (1, 1, 2)
    assert len(table.dist) == 0
    assert table.distance(1, 2) == 1 and table.word(1, 2) == (1,)
    part.table.all_compressible()
    assert part.table.word(0, 2) == (0,) and part.table.word(1, 2) == (1,)


# --------------------------------------------------------------- extremal

def ref_exhaustive_tables(n):
    """All binary tables with exactly one undefined (state, letter) slot."""
    slots = [(q, a) for q in range(n) for a in range(2)]
    for dq, da in slots:
        rest = [s for s in slots if s != (dq, da)]
        for assign in product(range(n), repeat=len(rest)):
            table = [[UNDEF, UNDEF] for _ in range(n)]
            for (q, a), t in zip(rest, assign):
                table[q][a] = t
            yield table


def ref_random_tables(n, seed, trials):
    rng = Lcg64(seed)
    for _ in range(trials):
        dq = rng.below(n)
        da = rng.below(2)
        table = [[rng.below(n), rng.below(n)] for _ in range(n)]
        table[dq][da] = UNDEF
        yield table


def ref_extremal(n, tables):
    """(best_rt, best table, strongly connected candidates) over tables."""
    best_rt, best, count = -1, None, 0
    for table in tables:
        if not is_strongly_connected(PartialDfa(n, ("a", "b"), table)):
            continue
        rows_a = [0 if row[0] is UNDEF else 1 << row[0] for row in table]
        rows_b = [0 if row[1] is UNDEF else 1 << row[1] for row in table]
        count += 1
        rt = _rt_bitmask(rows_a, rows_b, n)
        if rt is not None and rt > best_rt:
            best_rt, best = rt, tuple(tuple(row) for row in table)
    return best_rt, best, count


def assert_extremal_matches(res, n, tables):
    best_rt, best, count = ref_extremal(n, tables)
    assert (res.best_rt, res.candidates) == (best_rt, count)
    assert (res.best_dfa.trans if res.best_dfa else None) == best
    assert res.attained == (best_rt >= (n * n - n) // 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_extremal_exhaustive_matches_table_enumeration(n):
    assert_extremal_matches(extremal_search(n), n, ref_exhaustive_tables(n))


def ref_bfs_relabel(table, start):
    """table renumbered in the order a breadth-first search from start meets
    its states, reading each state's letters in order, as flat target bit
    masks (0 at an undefined slot)."""
    label = {start: 0}
    order = [start]
    for q in order:
        for t in table[q]:
            if t is not UNDEF and t not in label:
                label[t] = len(order)
                order.append(t)
    return tuple(0 if t is UNDEF else 1 << label[t]
                 for q in order for t in table[q])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_canonical_tables_are_the_bfs_relabelings(n):
    got = list(oracle._canonical_tables(n))
    assert len(got) == len(set(got))
    strong = [table for table in ref_exhaustive_tables(n)
              if is_strongly_connected(PartialDfa(n, ("a", "b"), table))]
    assert set(got) == {ref_bfs_relabel(table, start)
                        for table in strong for start in range(n)}


@pytest.mark.parametrize("n, seed", [(3, 0), (4, 9), (5, 21), (6, 4)])
def test_extremal_random_matches_table_draws(n, seed):
    res = extremal_search(n, exhaustive=False, seed=seed, trials=400)
    assert_extremal_matches(res, n, ref_random_tables(n, seed, 400))
