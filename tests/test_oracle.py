import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from itertools import product

import pytest

import syncword

from syncword import oracle
from syncword import (UNDEF, InputError, NotStronglyConnected, PartialDfa,
                      duplicating,
                      duplicating_identity_check, extremal_search, gen_cerny,
                      gen_oneword_code, gen_random_partial, greedy_min_rank,
                      literal_automaton, parse_dfa, subset_bfs)
from syncword.oracle import MAX_ORACLE_STATES, _SPARSE_DIVISOR, _bfs_witnesses

from conftest import FIXTURES
from test_fast_paths import flat_dfa, ref_bfs_counters, ref_bfs_thresholds


def test_fig1_report(fig1):
    rep = subset_bfs(fig1)
    assert rep.reset_threshold == 3
    assert rep.witness(1) == fig1.word("bab")
    assert rep.length(3) == 1 and rep.witness(3) == fig1.word("b")
    assert rep.length(6) == 0
    assert rep.mortal_threshold == 5
    assert rep.witness(0) == fig1.word("babab")
    # ranks 2, 4 and 5 cannot be reached from the full set here
    assert sorted(rep.thresholds) == [0, 1, 3, 6]
    assert rep.min_nonzero_rank == 1


def test_no_shorter_mortal_word(fig1):
    rep = subset_bfs(fig1)
    threshold = rep.mortal_threshold
    assert fig1.rank(rep.witness(0)) == 0
    for length in range(threshold):
        for w in product(range(2), repeat=length):
            assert fig1.rank(w) > 0


def test_cerny_thresholds():
    for n in range(2, 9):
        rep = subset_bfs(gen_cerny(n))
        assert rep.reset_threshold == (n - 1) ** 2


def test_cerny_c4_witness_is_lexicographically_least():
    rep = subset_bfs(gen_cerny(4))
    c4 = gen_cerny(4)
    assert rep.witness(1) == c4.word("baaabaaab")


def test_oneword_family_thresholds():
    for k in range(1, 7):
        lit = literal_automaton(gen_oneword_code(k))
        rep = subset_bfs(lit.dfa)
        assert rep.reset_threshold == k + 1
        assert rep.witness(1) == lit.dfa.word("a" * (k + 1))


def test_guardrail():
    big = PartialDfa(MAX_ORACLE_STATES + 1, ("a",),
                     tuple((q,) for q in range(MAX_ORACLE_STATES + 1)))
    with pytest.raises(InputError):
        subset_bfs(big)


def test_subset_bfs_memory_per_subset():
    # 2**16 - 1 subsets: the visited map holds one byte per mask and the
    # search keeps one 4-byte source per subset plus the masks of the
    # frontier level, so it stays below 8 B per subset
    dfa = gen_cerny(16)
    tracemalloc.start()
    try:
        rep = subset_bfs(dfa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 19
    assert rep.subsets == 2**16 - 1


def test_subset_bfs_sparse_lattice_allocates_no_map():
    # 8,192 of 2**24 subsets stay below the promotion count, so the search
    # never allocates the 16 MiB byte map
    dup = duplicating(gen_cerny(12))
    tracemalloc.start()
    try:
        rep = subset_bfs(dup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert rep.subsets == 8192


def cerny_with_hole(n, q, a):
    """gen_cerny(n) with the transition of state q under letter a removed."""
    rows = [list(row) for row in gen_cerny(n).trans]
    rows[q][a] = UNDEF
    return PartialDfa(n, ("a", "b"), tuple(map(tuple, rows)))


@pytest.mark.parametrize("dfa", [gen_cerny(n) for n in range(10, 17)]
                         + [cerny_with_hole(14, 2, 1)],
                         ids=[f"cerny{n}" for n in range(10, 17)]
                         + ["cerny14-hole"])
def test_subset_bfs_moves_to_the_map_mid_search(dfa):
    # the first level is always searched on the set; the lattice passes the
    # promotion count, so the rest of the search runs on the byte map
    n, k = dfa.n, len(dfa.alphabet)
    limit = (1 << n) // _SPARSE_DIVISOR
    flat = [-1 if t is UNDEF else t for row in dfa.trans for t in row]
    rep = subset_bfs(dfa)
    assert limit < rep.subsets
    assert _bfs_witnesses(dfa)[0] == ref_bfs_thresholds(n, k, flat)
    assert (rep.subsets, rep.depth) == ref_bfs_counters(n, k, flat)


def test_subset_bfs_moves_to_the_map_inside_a_level(monkeypatch):
    # 512 random letters over 20 states: level 1 leaves the set below the
    # promotion count of 2,048 masks, and level 2, up to 512 * 512 images
    # in blocks of 16 masks, passes it; the map must come before the level
    # ends, so more blocks are imaged after it.  Level 3 is refused.
    rng = random.Random(1)
    n, k = 20, 512
    flat = [rng.randrange(n) for _ in range(n * k)]
    events = []
    real = oracle._images

    def images(*args):
        events.append("images")
        return real(*args)

    def spy(*args):
        if args == (1 << n,):
            events.append("map")
        return bytearray(*args)
    monkeypatch.setattr(oracle, "_images", images)
    monkeypatch.setattr(oracle, "bytearray", spy, raising=False)
    with pytest.raises(InputError, match="by level 3"):
        _bfs_witnesses(flat_dfa(n, k, flat))
    assert events.count("map") == 1
    switch = events.index("map")
    assert 2 <= switch < len(events) - 1


def test_subset_bfs_level_spans_several_blocks(monkeypatch):
    # 300 letters: one permutation and maps onto at most three states, so
    # the lattice stays small while level 1 alone holds more masks than one
    # block of _BLOCK_IMAGES // 300 masks
    rng = random.Random(12)
    n, k = 12, 300
    columns = [rng.sample(range(n), n)]
    for _ in range(k - 1):
        targets = rng.sample(range(n), rng.randint(1, 3))
        columns.append([rng.choice(targets) if rng.random() < 0.8 else -1
                        for _ in range(n)])
    flat = [columns[a][q] for q in range(n) for a in range(k)]
    sizes = []
    real = oracle._images

    def images(masks, *rest):
        sizes.append(len(masks))
        return real(masks, *rest)
    monkeypatch.setattr(oracle, "_images", images)
    words, subsets, depth = _bfs_witnesses(flat_dfa(n, k, flat))
    block = oracle._BLOCK_IMAGES // k
    assert max(sizes) == block and sizes.count(block) >= 2
    assert words == ref_bfs_thresholds(n, k, flat)
    assert (subsets, depth) == ref_bfs_counters(n, k, flat)


@pytest.mark.parametrize("budget", [1, 100, 1000, 2045, 2046])
def test_subset_bfs_never_computes_past_the_image_budget(monkeypatch, budget):
    # gen_cerny(10) reaches all 1,023 nonempty subsets, so the whole search
    # computes 2 * 1,023 = 2,046 images; a smaller budget is refused before
    # the level that would pass it, the last level included
    computed = []
    real = oracle._images

    def counted(masks, *rest):
        images = real(masks, *rest)
        computed.append(len(images))
        return images
    monkeypatch.setattr(oracle, "_images", counted)
    monkeypatch.setattr(oracle, "MAX_ORACLE_IMAGES", budget)
    if budget < 2046:
        with pytest.raises(InputError, match="would compute"):
            subset_bfs(gen_cerny(10))
    else:
        assert subset_bfs(gen_cerny(10)).subsets == 1023
    assert sum(computed) <= budget


def test_image_budget_bounds_the_sources():
    # a stored source is below the images computed, so the budget keeps it
    # in array('i'); the binary full lattice at the state limit fits
    assert 2 * ((1 << MAX_ORACLE_STATES) - 1) <= oracle.MAX_ORACLE_IMAGES < 2**31


def test_zero_states_are_rejected():
    # the subset BFS needs n >= 1; no automaton with 0 states can be made
    with pytest.raises(InputError, match="at least one state"):
        PartialDfa(0, ("a",), ())
    with pytest.raises(InputError, match="line 2: need at least one state"):
        parse_dfa("dfa v1\nstates 0\nalphabet a\n")


def test_witnesses_revalidate_random():
    for seed in range(40):
        dfa = gen_random_partial(2 + seed % 7, 2, 0.6 + (seed % 4) * 0.1,
                                 seed + 6000)
        rep = subset_bfs(dfa)
        for r, (length, w) in rep.thresholds.items():
            assert len(w) == length
            assert dfa.rank(w) == r


def test_oracle_is_lower_bound_for_produced_words():
    for seed in range(30):
        dfa = gen_random_partial(2 + seed % 7, 2, 0.7, seed + 7000)
        rep = subset_bfs(dfa)
        res = greedy_min_rank(dfa)
        assert len(res.word) >= rep.length(res.final_rank)


# ---------------------------------------------------------- duplicating

def test_duplicating_identity_c4():
    results = duplicating_identity_check(gen_cerny(4))
    assert results == {1: (9, 18), 2: (4, 8), 3: (1, 2)}


def test_duplicating_identity_one_state():
    one = parse_dfa("dfa v1\nstates 1\nalphabet a\n0 a 0\n")
    assert duplicating_identity_check(one) == {}


def test_duplicating_identity_random():
    for seed in range(25):
        dfa = gen_random_partial(2 + seed % 5, 2, 1.0, seed + 8000)
        results = duplicating_identity_check(dfa)
        for r, (lb, ld) in results.items():
            assert ld == 2 * lb


def test_duplicating_identity_at_the_state_limit():
    # 12 states duplicate to 24, the oracle's limit; 13 are refused
    results = duplicating_identity_check(gen_cerny(12))
    assert results[1] == (121, 242)
    with pytest.raises(InputError, match="limited to 12 states"):
        duplicating_identity_check(gen_cerny(13))


def test_duplicating_identity_rejects_partial(fig1):
    with pytest.raises(InputError):
        duplicating_identity_check(fig1)


def test_duplicating_identity_rejects_not_strongly_connected():
    # complete, but state 1 never returns to state 0
    dfa = PartialDfa(2, ("a",), ((1,), (1,)))
    with pytest.raises(NotStronglyConnected):
        duplicating_identity_check(dfa)


def test_duplicating_gamma_interleaved_word_shape():
    c4 = gen_cerny(4)
    dup = duplicating(c4)
    rep = subset_bfs(dup)
    w = rep.witness(1)
    gamma = 2
    assert len(w) == 18
    assert all(a == gamma for a in w[0::2])
    assert all(a != gamma for a in w[1::2])


# ------------------------------------------------------------- extremal

def test_extremal_n2():
    res = extremal_search(2, exhaustive=True)
    assert res.target == 1
    assert res.best_rt == 1 and res.attained
    assert res.candidates == 12


def test_extremal_n3():
    res = extremal_search(3, exhaustive=True)
    assert res.target == 3
    assert res.best_rt == 3 and res.attained
    assert res.candidates == 372


def test_extremal_runs_one_bfs_per_canonical_table(monkeypatch):
    # the 26,304 labelled strongly connected tables at n=4 are 3! relabelings
    # each of 4,384 canonical ones, and each of those gets one BFS
    calls = []
    real = oracle._rt_bitmask

    def counted(rows_a, rows_b, n):
        calls.append((rows_a, rows_b))
        return real(rows_a, rows_b, n)
    monkeypatch.setattr(oracle, "_rt_bitmask", counted)
    res = extremal_search(4)
    assert len(calls) == len(set(calls)) == 4384
    assert (res.best_rt, res.candidates) == (6, 3 * 2 * 4384)


def test_extremal_needs_two_states():
    with pytest.raises(InputError) as exc:
        extremal_search(1)
    assert str(exc.value) == "need at least two states"


def test_best_tables_without_a_synchronizing_table():
    # a swaps the two states and b fixes them (rows of target bit masks):
    # no word merges them, so the BFS ends with no reset threshold and the
    # best stays -1 with no table
    flat = (2, 1, 1, 2)
    assert oracle._rt_bitmask(flat[0::2], flat[1::2], 2) is None
    assert oracle._best_tables(2, [flat]) == (-1, [], 1)


def test_extremal_exhaustive_guardrail():
    with pytest.raises(InputError, match="limited to n <= 5"):
        extremal_search(6, exhaustive=True)


def test_extremal_best_automaton_revalidates():
    res = extremal_search(3, exhaustive=True)
    dfa = res.best_dfa
    rep = subset_bfs(dfa)
    assert rep.reset_threshold == res.best_rt
    from syncword import is_properly_incomplete, is_strongly_connected
    assert is_strongly_connected(dfa) and is_properly_incomplete(dfa)
    undef = [(q, a) for q in range(dfa.n) for a in range(2)
             if dfa.trans[q][a] is None]
    assert len(undef) == 1


def test_extremal_randomized_profile_deterministic():
    r1 = extremal_search(4, exhaustive=False, seed=11, trials=3000)
    r2 = extremal_search(4, exhaustive=False, seed=11, trials=3000)
    assert r1 == r2
    assert r1.best_rt >= 1


def test_extremal_random_candidates_match_oracle():
    # the lean bitmask reset threshold agrees with the full oracle
    res = extremal_search(3, exhaustive=False, seed=3, trials=500)
    if res.best_dfa is not None:
        assert subset_bfs(res.best_dfa).reset_threshold == res.best_rt


# Runs under `python -O`: the witness re-validation must not be an assert.
WRONG_WITNESS_SCRIPT = """
import sys
from syncword import SyncwordError, gen_cerny, oracle
from syncword.cli import run

real = oracle._bfs_witnesses

def wrong(dfa):
    out = real(dfa)
    out[0][1] = []  # claim that the empty word has rank 1
    return out

oracle._bfs_witnesses = wrong
print("optimize", sys.flags.optimize)
try:
    oracle.subset_bfs(gen_cerny(4))
    print("accepted")
except SyncwordError:
    print("raised")
print("exit", run(["oracle", sys.argv[1]]))
"""


def test_wrong_kernel_witness_is_caught_under_optimize():
    src = str(pathlib.Path(syncword.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WRONG_WITNESS_SCRIPT,
         str(FIXTURES / "fig1left.dfa")],
        capture_output=True, text=True, env=env)
    assert proc.stdout.split("\n") == ["optimize 1", "raised", "exit 3", ""]
    assert "internal error" in proc.stderr
