"""The paper's checks, each written once: acceptance criteria 2 and 4-10.

Each check takes a size Profile, returns a note of what it covered and
raises SyncwordError through errors.require, so it also holds under
python -O.  The acceptance suite runs them on ACCEPTANCE, `syncword verify
all` on quick(size_cap, seed).
"""
from __future__ import annotations

from functools import lru_cache

from . import codes, constructions, equivalence, generators, oracle
from . import synchronization as sync
from .errors import InputError, Value, require


class Profile(Value):
    """size_cap bounds the states of the cycle family and random automata,
    min(size_cap, 6) of the duplicating inputs and min(size_cap, 4) of the
    extremal search; seed offsets every corpus seed."""

    _fields = (
        "size_cap", "seed",
        "automata",  # random partial automata, shared by criteria 6-8
        "subsets",  # subsets, and then words, drawn per automaton (criterion 8)
        "codes",  # random prefix codes (criterion 9)
        "complete",  # random complete automata (criterion 4)
        "oneword",  # largest k of the one-word family (criterion 2)
    )


ACCEPTANCE = Profile(size_cap=8, seed=0, automata=500, subsets=100,
                     codes=200, complete=50, oneword=6)
# 35 automata hold each (size, density) pair of the corpus once at size_cap 8
QUICK = Profile(size_cap=8, seed=0, automata=35, subsets=20, codes=20,
                complete=10, oneword=3)


def quick(size_cap, seed):
    """QUICK at the `verify all` options.  InputError unless size_cap is in
    3..8: the cycle-family check starts at 3 states, and 8 is ACCEPTANCE's
    cap, the largest size the checks are meant to run at."""
    if not 3 <= size_cap <= 8:
        raise InputError(f"--size-cap must be in 3..8, got {size_cap}")
    return QUICK.replace(size_cap=size_cap, seed=seed)


@lru_cache(maxsize=1)
def _random_corpus(p):
    """Seeded strongly connected partial binary automata with 2..size_cap
    states, built once for the three criteria that share them (about a
    third of a second at ACCEPTANCE)."""
    return tuple(
        generators.gen_random_partial(2 + i % (p.size_cap - 1), 2,
                                      (0.6, 0.7, 0.8, 0.9, 0.95)[i % 5],
                                      10_000 + p.seed + i)
        for i in range(p.automata))


@lru_cache(maxsize=1)
def _searched_corpus(p):
    """(automaton, the oracle's report on it) per _random_corpus(p)
    automaton, searched once for criteria 6 and 7."""
    return tuple((dfa, oracle.subset_bfs(dfa)) for dfa in _random_corpus(p))


def _code_corpus(p):
    """Literal automata of seeded prefix codes with >= 2 words, total length
    <= 60 and a positive height."""
    corpus = []
    attempt = 0
    while len(corpus) < p.codes:
        attempt += 1
        code = generators.gen_random_prefix_code(
            2 + attempt % 5, 2 + attempt % 10, 2 + attempt % 2,
            20_000 + p.seed + attempt)
        lit = codes.literal_automaton(code)
        if code.total_length <= 60 and lit.height > 0:
            corpus.append(lit)
    return corpus


def oneword_family(p):
    """Criterion 2: the one-word code of gen_oneword_code(k) has rank 1 and
    reset threshold k + 1, and its literal reset word has that length."""
    for k in range(1, p.oneword + 1):
        code = generators.gen_oneword_code(k)
        require(codes.one_word_rank(code) == 1, f"k={k}: rank is not 1")
        lit = codes.literal_automaton(code)
        rt = oracle.subset_bfs(lit.dfa).reset_threshold
        require(rt == k + 1, f"k={k}: reset threshold {rt}")
        word = codes.literal_reset_word(lit)
        require(len(word) == k + 1, f"k={k}: reset word length {len(word)}")
        require(lit.dfa.rank(word) == 1, f"k={k}: reset word of rank > 1")
    return f"k=1..{p.oneword}"


def duplicating_identity(p):
    """Criterion 4: rt(dup, r) = 2 rt(A, r) on the cycle family and on random
    complete automata."""
    top = min(p.size_cap, 6)
    for n in range(3, top + 1):
        require(oracle.duplicating_identity_check(generators.gen_cerny(n)),
                f"cycle n={n}: no achievable rank")
    for i in range(p.complete):
        dfa = generators.gen_random_partial(2 + i % (top - 1), 2, 1.0,
                                            30_000 + p.seed + i)
        oracle.duplicating_identity_check(dfa)  # raises on a violated rank
    return f"cycle n=3..{top} + {p.complete} random"


def cerny_thresholds(p):
    """Criterion 5: the cycle family has rt = (n - 1)^2."""
    for n in range(3, p.size_cap + 1):
        rt = oracle.subset_bfs(generators.gen_cerny(n)).reset_threshold
        require(rt == (n - 1) ** 2, f"n={n}: reset threshold {rt}")
    return f"n=3..{p.size_cap}"


def reduction_soundness(p):
    """Criterion 6: the reduction to the complete case keeps the oracle's
    decision, and the pair test agrees on both automata."""
    for i, (dfa, rep) in enumerate(_searched_corpus(p)):
        complete, _ = sync.reduction_to_complete(dfa)
        expected = rep.reset_threshold is not None
        require(sync.is_synchronizing(dfa) == expected,
                f"automaton {i}: pair test disagrees with the oracle")
        require(sync.is_synchronizing(complete) == expected,
                f"automaton {i}: reduction changes synchronizability")
        rt = oracle.subset_bfs(complete).reset_threshold
        require((rt is not None) == expected,
                f"automaton {i}: reduction changes the oracle's decision")
    return f"{p.automata} random automata"


def greedy_vs_oracle(p):
    """Criterion 7: greedy reaches the oracle's minimal non-zero rank."""
    for i, (dfa, rep) in enumerate(_searched_corpus(p)):
        res = sync.greedy_min_rank(dfa)
        best = rep.min_nonzero_rank
        require(res.final_rank == best, f"automaton {i}: greedy rank "
                f"{res.final_rank} != minimal rank {best}")
        require(dfa.rank(res.word) == res.final_rank,
                f"automaton {i}: greedy word does not replay")
    return f"{p.automata} random automata"


def lemma_bounds(p):
    """Criterion 8: a voiding word lowers the class count kappa of S within
    min(kappa(Q) - kappa(S) + 1, n - |S| + 1) letters; a word lifted to the
    partial automaton is no longer than w and maps S into S.w under fixing."""
    rng = generators.Lcg64(99 + p.seed)
    for i, dfa in enumerate(_random_corpus(p)):
        part = equivalence.inseparability_partition(dfa)
        kq = part.kappa(dfa.states)
        fixed = constructions.fixing(dfa)
        for _ in range(p.subsets):
            S = frozenset(q for q in range(dfa.n) if rng.below(2))
            ks = part.kappa(S)
            if ks >= 2:
                w = equivalence.class_reducing_word(dfa, part, S)
                img = dfa.image(S, w)
                require(img and 1 <= part.kappa(img) < ks,
                        f"automaton {i}: voiding word does not lower kappa")
                require(len(w) <= min(kq - ks + 1, dfa.n - len(S) + 1),
                        f"automaton {i}: voiding word too long")
        for _ in range(p.subsets):
            S = frozenset(q for q in range(dfa.n) if rng.below(2))
            if not S:
                continue
            w = tuple(rng.below(2) for _ in range(rng.below(13)))
            lifted = constructions.lift_word_to_partial(dfa, S, w)
            require(len(lifted) <= len(w),
                    f"automaton {i}: lifted word longer than its source")
            img = dfa.image(S, lifted)
            require(img and img <= fixed.image(S, w),
                    f"automaton {i}: lifted word breaks the lemma")
    return f"{p.automata} automata x {p.subsets} subsets"


def logrank_bounds(p):
    """Criterion 9: log-rank words are non-mortal, of length <= 2h and of rank
    <= codes.log_rank_bound."""
    for i, lit in enumerate(_code_corpus(p)):
        word = codes.log_rank_word(lit)
        r = lit.dfa.rank(word)
        require(r > 0, f"code {i}: log-rank word is mortal")
        require(len(word) <= 2 * lit.height, f"code {i}: word too long")
        require(r <= codes.log_rank_bound(lit),
                f"code {i}: log-rank word has rank {r} above the bound")
    return f"{p.codes} random codes"


def extremal_bound(p):
    """Criterion 10: exhaustive extremal search attains (n^2 - n)/2.

    Checked for n = 2..4, where it holds; the one-hole maximum falls short
    at n = 5 and 6 (oracle.extremal_search), so (n^2 - n)/2 is a small-n
    pattern, not a bound.
    """
    top = min(p.size_cap, 4)
    for n in range(2, top + 1):
        # looked up on the module at each call, so a test can replace it
        res = oracle.extremal_search(n, exhaustive=True)
        require(res.attained,
                f"n={n}: best {res.best_rt} < target {res.target}")
        require(res.best_rt >= (n * n - n) // 2,
                f"n={n}: best {res.best_rt} < (n^2 - n)/2")
    return f"n=2..{top}"


CHECKS = {check.__name__.replace("_", "-"): check for check in (
    cerny_thresholds, duplicating_identity, extremal_bound, greedy_vs_oracle,
    lemma_bounds, logrank_bounds, oneword_family, reduction_soundness)}
