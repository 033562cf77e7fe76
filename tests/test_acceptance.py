"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is exact; wall-clock caps are asserted where the
criterion states one.  Criteria 2 and 4-10 run the checks of
syncword.criteria, which `syncword verify all` shares, on its ACCEPTANCE
profile.
"""
import time
from contextlib import contextmanager

from syncword import (criteria, inseparability_partition, is_synchronizing,
                      literal_automaton, one_word_rank, parse_dfa,
                      subset_bfs, validate_code)
from syncword.criteria import ACCEPTANCE

from conftest import fixture_text


@contextmanager
def criterion(number, description, seconds_cap):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")
    assert elapsed < seconds_cap, f"criterion {number} exceeded {seconds_cap}s"


# criteria ------------------------------------------------------------------

def test_criterion_1_running_example():
    with criterion(1, "running 6-state example: sync check, rt, preimage, "
                      "classes", 1.0):
        dfa = parse_dfa(fixture_text("fig1left.dfa"))
        assert is_synchronizing(dfa)
        report = subset_bfs(dfa)
        assert report.reset_threshold == 3
        assert report.witness(1) == dfa.word("b a b")
        assert dfa.preimage({1}, dfa.word("bab")) == {0, 3}
        part = inseparability_partition(dfa)
        assert [sorted(c) for c in part.classes] == [[0, 3], [1, 4], [2, 5]]


def test_criterion_2_oneword_family():
    with criterion(2, "one-word family k=1..6: rank 1, rt = k+1, reset word "
                      "of length k+1", 5.0):
        criteria.oneword_family(ACCEPTANCE)


def test_criterion_3_nonsynchronizing_powers():
    with criterion(3, "one-word codes (ab)^k, k=2,3: minimal non-zero rank "
                      "= k", 5.0):
        for k in (2, 3):
            code = validate_code(["ab" * k])
            assert one_word_rank(code) == k
            lit = literal_automaton(code)
            assert subset_bfs(lit.dfa).min_nonzero_rank == k


def test_criterion_4_duplicating_identity():
    with criterion(4, "duplicating automaton doubles every achievable rank "
                      "threshold", 60.0):
        criteria.duplicating_identity(ACCEPTANCE)


def test_criterion_5_cerny_thresholds():
    with criterion(5, "cycle family: rt = (n-1)^2 for n = 3..8", 120.0):
        criteria.cerny_thresholds(ACCEPTANCE)


def test_criterion_6_reduction_soundness():
    with criterion(6, "reduction to complete preserves synchronizability on "
                      "500 random automata", 120.0):
        criteria.reduction_soundness(ACCEPTANCE)


def test_criterion_7_greedy_optimal_rank():
    with criterion(7, "greedy compression reaches the oracle minimal "
                      "non-zero rank on 500 random automata", 120.0):
        criteria.greedy_vs_oracle(ACCEPTANCE)


def test_criterion_8_lemma_suite():
    with criterion(8, "voiding and lifting bounds, 100 subsets and 100 "
                      "words per automaton", 120.0):
        criteria.lemma_bounds(ACCEPTANCE)


def test_criterion_9_log_rank_theorem():
    with criterion(9, "log-rank words on 200 random prefix codes: "
                      "non-mortal, length <= 2h, rank <= bound", 120.0):
        criteria.logrank_bounds(ACCEPTANCE)


def test_criterion_10_extremal_lower_bound():
    with criterion(10, "exhaustive extremal search n = 2..4 attains "
                       "(n^2-n)/2", 300.0):
        criteria.extremal_bound(ACCEPTANCE)
