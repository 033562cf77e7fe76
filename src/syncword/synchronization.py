"""Synchronizability, greedy minimum-rank words and the reduction to the
complete case.

A pair of states can compress in two ways: both map to the same state, or
exactly one of them dies.  A single backward BFS over the pair graph with a
virtual "compressed" target covers both modes in one O(|Sigma| n^2) pass;
greedy repetition of shortest pair words then reaches the minimal non-zero
rank on any strongly connected partial automaton.

Only strongly connected input is accepted: without it even deciding the
existence of a reset word is intractable, so it is rejected rather than
attempted.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .automaton import (EPSILON, PairTable, PartialDfa, Word, connecting_word,
                        require_strongly_connected)
from .errors import InputError, NotSynchronizing, SyncwordError, Value

if TYPE_CHECKING:
    from .constructions import CollectingTree
    from .equivalence import Partition


def pair_table(dfa: PartialDfa) -> PairTable:
    return PairTable(dfa, dfa.trans, range(dfa.n), merge=True)


def is_synchronizing(dfa: PartialDfa) -> bool:
    """True iff some word has rank 1; requires strong connectivity."""
    require_strongly_connected(dfa)
    return pair_table(dfa).all_compressible()


class SyncResult(Value):
    """A produced word with its measured rank and the greedy trace.

    Each trace entry is (subset size after the step, sub-word applied);
    replaying the trace from the full state set reproduces word and
    final_rank.
    """

    _fields = ("word", "final_rank", "trace")

    def replay(self, dfa: PartialDfa) -> bool:
        S = dfa.states
        acc = []
        for size, sub in self.trace:
            S = dfa.image(S, sub)
            acc.extend(sub)
            if len(S) != size:
                return False
        return tuple(acc) == self.word and len(S) == self.final_rank


def compress_pairs(table: PairTable, S, word, trace):
    """Extend word and trace by table.steps(S); returns the final image."""
    for sub, S in table.steps(S):
        word.extend(sub)
        trace.append((len(S), sub))
    return S


def greedy_min_rank(dfa: PartialDfa) -> SyncResult:
    """Repeatedly apply a shortest word compressing a pair of the current
    image, starting from the full set; stops at the minimal non-zero rank.
    """
    require_strongly_connected(dfa)
    return _greedy(dfa)


def _greedy(dfa: PartialDfa) -> SyncResult:
    """greedy_min_rank unchecked, for the fixing and collecting automata of
    a strongly connected one, which only add self-loops and a letter."""
    word = []
    trace = []
    S = compress_pairs(pair_table(dfa), dfa.states, word, trace)
    return SyncResult(tuple(word), len(S), tuple(trace))


def min_rank_word_via_fixing(dfa: PartialDfa) -> SyncResult:
    """Minimum-rank word through the fixing automaton.

    Pipeline: greedy word on the fixing automaton, lifted back to the
    partial automaton; then, only while the image has two or more states,
    voiding words shrink the number of inseparability classes it meets, and
    pairs are compressed inside the single remaining class.  Classes map
    into classes, so that number never grows again.
    """
    from .constructions import fixing, lift_word_to_partial
    from .equivalence import inseparability_partition
    require_strongly_connected(dfa)
    lifted = _greedy(fixing(dfa)).word
    # the lift keeps a word whose image is non-empty, so it runs only when
    # the word kills every state
    S = dfa.image(dfa.states, lifted)
    if not S:
        lifted = lift_word_to_partial(dfa, dfa.states, lifted)
        S = dfa.image(dfa.states, lifted)
    word = list(lifted)
    trace = [(len(S), lifted)]
    if len(S) >= 2:
        S = compress_pairs(inseparability_partition(dfa).table, S, word, trace)
    if len(S) >= 2:
        S = compress_pairs(pair_table(dfa), S, word, trace)
    return SyncResult(tuple(word), len(S), tuple(trace))


def _smallest_class(part: Partition) -> int:
    return min(range(len(part.classes)),
               key=lambda c: (len(part.classes[c]), min(part.classes[c])))


def reduction_to_complete(dfa: PartialDfa) -> tuple[PartialDfa, CollectingTree]:
    """Complete automaton that is synchronizing iff dfa is.

    The collecting automaton for the deterministic tree rooted at the
    smallest inseparability class (ties by least state id).
    """
    from .constructions import collecting, collecting_tree, gamma_alphabet
    from .equivalence import inseparability_partition
    require_strongly_connected(dfa)
    gamma_alphabet(dfa, dfa.n)  # refuses before the partition
    part = inseparability_partition(dfa)
    tree = collecting_tree(dfa, part, _smallest_class(part))
    return collecting(dfa, tree), tree


def reset_word_via_collecting(dfa: PartialDfa) -> Word:
    """Reset word assembled as collapse-word, quotient connecting word, and a
    stripped reset word of the collecting automaton.

    The decision comes from the reduction to the complete case
    (reduction_to_complete): the collecting automaton is complete and
    synchronizing iff dfa is, and on a complete automaton greedy pair
    compression reaches rank 1 iff it is synchronizing.  So NotSynchronizing
    is raised when greedy on the collecting automaton stops above rank 1,
    before any other word is built.  The input checks end there: an
    InputError while building the words is an internal fault.
    """
    from .constructions import strip_gamma
    from .equivalence import collapse_to_single_class_word, quotient
    coll, tree = reduction_to_complete(dfa)  # rejects non-strongly-connected
    coll_result = _greedy(coll)
    if coll_result.final_rank != 1:
        raise NotSynchronizing("automaton is not synchronizing")
    part = tree.partition
    try:
        v = collapse_to_single_class_word(dfa, part, dfa.states)
        p_class = part.class_of[min(dfa.image(dfa.states, v))]
        qdfa, _ = quotient(dfa, part)
        u = connecting_word(qdfa, p_class, tree.root_class)
        w = strip_gamma(dfa, tree, coll_result.word)
    except InputError as exc:
        raise SyncwordError(str(exc)) from exc

    out = v + u + w
    if dfa.rank(out) != 1:
        raise SyncwordError("pipeline must emit a reset word")
    return out


def rank_target_word(dfa: PartialDfa, r: int, method: str = "greedy") -> Word:
    """A word of non-zero rank <= r, or an error when r is unreachable.

    greedy: shortest prefix of the greedy minimum-rank word that reaches the
    target.  oracle: exact witness by subset BFS (small n only).
    """
    if method not in ("greedy", "oracle"):
        raise InputError(f"unknown method {method!r}")
    require_strongly_connected(dfa)
    if not 1 <= r <= dfa.n:
        raise InputError(f"target rank must be in 1..{dfa.n}")
    if r == dfa.n:
        return EPSILON
    if method == "greedy":
        # image sizes never grow along a word, so the shortest prefix ends
        # inside the first greedy step that reaches the target
        word, S = [], dfa.states
        for sub, img in pair_table(dfa).steps(S):
            if len(img) <= r:
                for i, a in enumerate(sub, start=1):
                    S = dfa.image(S, (a,))
                    if len(S) <= r:
                        break
                return (*word, *sub[:i])
            word.extend(sub)
            S = img
        raise InputError(
            f"minimal non-zero rank is {len(S)}, above target {r}")
    from .oracle import subset_bfs
    report = subset_bfs(dfa)
    options = [(report.length(s), s) for s in range(1, r + 1) if report.reachable(s)]
    if not options:
        raise InputError(f"no word of non-zero rank <= {r} exists")
    _, s = min(options)
    return report.witness(s)
