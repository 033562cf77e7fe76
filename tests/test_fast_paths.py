"""Each fast path pinned to a plain reference.

PartialDfa.image (memoized chunk actions), the pair compress_pairs picks
(a budgeted walk of the pair table), rank_target_word (a scan of the greedy
trace) and lift_word_to_partial (a loop on the columns) are checked against
the letter-by-letter set code they replace; the pair BFS (integer pair codes
in flat arrays) against a BFS on tuple-keyed dicts, its seeds (bit masks)
and the class_reducing_word pick (a budgeted walk of the partition levels)
against the loops they replace; the subset-BFS kernel (byte tables,
mask-only parents) against a set-based BFS, and extremal search (bit mask
rows) against an enumeration of transition tables.
"""
import random
from array import array
from collections import deque
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from syncword import (UNDEF, InputError, Lcg64, PartialDfa, extremal_search,
                      gen_cerny, gen_random_prefix_code, greedy_min_rank,
                      inseparability_partition, literal_automaton, pair_table,
                      pair_word, parse_dfa, rank_target_word)
from syncword.automaton import (_chunk_length, pair_bfs, settle_seeds,
                                strongly_connected_masks)
from syncword.constructions import lift_word_to_partial
from syncword.equivalence import _least_separated_pair
from syncword.oracle import _bfs_witnesses, _rt_bitmask
from syncword.synchronization import PairTable, _min_pair

from test_golden import CASES


def ref_image(dfa, S, w):
    cur = set(S)
    for a in w:
        cur = {dfa.trans[q][a] for q in cur} - {UNDEF}
    return frozenset(cur)


def ref_min_pair(table, S):
    pairs = [(d, p, q) for (p, q), d, _ in table.items() if p in S and q in S]
    return min(pairs, default=None)


def hand_table(n, dist):
    """A PairTable listing the pairs of the ordered {(p, q): distance} dist
    (p < q) in that order, every first letter 0."""
    index = array("i", [0] * (n * n))
    for q in range(n):
        index[q * n + q] = -1
    for i, (p, q) in enumerate(dist, start=1):
        index[p * n + q] = index[q * n + p] = i
    return PairTable(n, array("i", [p * n + q for p, q in dist]),
                     array("i", dist.values()), array("i", [0] * len(dist)),
                     index)


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
    assert _min_pair(table, frozenset({2, 3, 4, 5})) == (2, 2, 3)


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


def flat_dfa(n, k, flat):
    """The automaton of a row-major table, -1 meaning undefined."""
    return PartialDfa(n, tuple(f"x{a}" for a in range(k)), tuple(
        tuple(UNDEF if t < 0 else t for t in flat[q * k:(q + 1) * k])
        for q in range(n)))


@settings(max_examples=300, deadline=None)
@given(flat_tables())
def test_bfs_kernel_matches_set_bfs(table):
    n, k, flat = table
    assert _bfs_witnesses(flat_dfa(n, k, flat)) == ref_bfs_thresholds(n, k, flat)


@settings(max_examples=300, deadline=None)
@given(wide_tables())
def test_bfs_kernel_matches_set_bfs_on_three_bytes(table):
    n, k, flat = table
    assert _bfs_witnesses(flat_dfa(n, k, flat)) == ref_bfs_thresholds(n, k, flat)


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
    assert [((p, q), a) for p, q, a in settle_seeds(trans, k, merge)] == \
        list(ref_settle_seeds(trans, k, merge).items())


@settings(max_examples=300, deadline=None)
@given(flat_tables(), st.booleans())
def test_pair_bfs_matches_dict_bfs_in_order(table, merge):
    trans = nested(table)
    n, k = table[0], table[1]
    seeds = ref_settle_seeds(trans, k, merge)
    pairs, dist, letter, index = pair_bfs(
        trans, k, ((p, q, a) for (p, q), a in seeds.items()))
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


def test_pair_table_items_and_distance(fig1):
    table = pair_table(fig1)
    items = list(table.items())
    assert [d for _, d, _ in items] == sorted(d for _, d, _ in items)
    for (p, q), d, a in items:
        assert table.distance(p, q) == table.distance(q, p) == d
        assert pair_word(fig1, table, q, p)[0] == a
    assert table.distance(3, 3) is None


# ------------------------------------------------ class-reducing pick

def ref_least_separated_pair(part, S):
    """The pair scan class_reducing_word made over all pairs of S."""
    best = None
    for p in sorted(S):
        for q in sorted(S):
            if q <= p or part.class_of[p] == part.class_of[q]:
                continue
            lvl = part.level(part.class_of[p], part.class_of[q])
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
        assert _least_separated_pair(part, S) == \
            ref_least_separated_pair(part, S)


def test_class_pick_matches_pair_scan_literal():
    lit = literal_automaton(gen_random_prefix_code(12, 6, 3, 6)).dfa
    part = inseparability_partition(lit)
    level_end = {}
    for pos, (_, lvl) in enumerate(part.levels.values()):
        level_end[lvl] = pos + 1
    rng = random.Random(11)
    walks = fallbacks = 0
    for _ in range(300):
        S = frozenset(rng.sample(range(lit.n), rng.randrange(1, lit.n + 1)))
        best = ref_least_separated_pair(part, S)
        assert _least_separated_pair(part, S) == best
        kappa = part.kappa(S)
        if best is not None:
            if kappa * (kappa - 1) // 2 < level_end[best[0]]:
                fallbacks += 1
            else:
                walks += 1
    assert walks >= 30 and fallbacks >= 30


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
        rows_a = [0 if row[0] is UNDEF else 1 << row[0] for row in table]
        rows_b = [0 if row[1] is UNDEF else 1 << row[1] for row in table]
        if not strongly_connected_masks([x | y for x, y in zip(rows_a, rows_b)],
                                        n):
            continue
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


@pytest.mark.parametrize("n, seed", [(3, 0), (4, 9), (5, 21), (6, 4)])
def test_extremal_random_matches_table_draws(n, seed):
    res = extremal_search(n, exhaustive=False, seed=seed, trials=400)
    assert_extremal_matches(res, n, ref_random_tables(n, seed, 400))
