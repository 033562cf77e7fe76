import os
import pathlib
import subprocess
import sys
from itertools import product

import pytest

import syncword

from syncword import (InputError, PartialDfa, duplicating,
                      duplicating_identity_check, extremal_search, gen_cerny,
                      gen_oneword_code, gen_random_partial, greedy_min_rank,
                      literal_automaton, parse_dfa, subset_bfs)
from syncword.oracle import MAX_ORACLE_STATES

from conftest import FIXTURES


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


def test_duplicating_identity_rejects_partial(fig1):
    with pytest.raises(InputError):
        duplicating_identity_check(fig1)


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
    out[1] = []  # claim that the empty word has rank 1
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
