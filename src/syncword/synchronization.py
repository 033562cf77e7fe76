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

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .automaton import (EPSILON, PairTable, PartialDfa, Word, connecting_word,
                        is_strongly_connected)
from .errors import (InputError, NotStronglyConnected, NotSynchronizing,
                     SyncwordError)

if TYPE_CHECKING:
    from .constructions import CollectingTree
    from .equivalence import Partition


def pair_table(dfa: PartialDfa) -> PairTable:
    return PairTable.build(dfa, dfa.trans, range(dfa.n), merge=True)


def is_synchronizing(dfa: PartialDfa) -> bool:
    """True iff some word has rank 1; requires strong connectivity."""
    if not is_strongly_connected(dfa):
        raise NotStronglyConnected(
            "synchronizability is only decided for strongly connected automata")
    return pair_table(dfa).all_compressible()


@dataclass(frozen=True)
class SyncResult:
    """A produced word with its measured rank and the greedy trace.

    Each trace entry is (subset size after the step, sub-word applied);
    replaying the trace from the full state set reproduces word and
    final_rank.
    """

    word: Word
    final_rank: int
    trace: tuple

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
    if not is_strongly_connected(dfa):
        raise NotStronglyConnected("greedy compression needs strong connectivity")
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
    if not is_strongly_connected(dfa):
        raise NotStronglyConnected("needs strong connectivity")
    fixed_word = greedy_min_rank(fixing(dfa)).word
    lifted = lift_word_to_partial(dfa, dfa.states, fixed_word)
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
    from .constructions import collecting, collecting_tree
    from .equivalence import inseparability_partition
    if not is_strongly_connected(dfa):
        raise NotStronglyConnected("reduction needs strong connectivity")
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
    before any other word is built.
    """
    from .constructions import strip_gamma
    from .equivalence import collapse_to_single_class_word, quotient
    coll, tree = reduction_to_complete(dfa)  # rejects non-strongly-connected
    coll_result = greedy_min_rank(coll)
    if coll_result.final_rank != 1:
        raise NotSynchronizing("automaton is not synchronizing")
    part = tree.partition

    v = collapse_to_single_class_word(dfa, part, dfa.states)
    S = dfa.image(dfa.states, v)
    p_class = part.class_of[min(S)]

    qdfa, _ = quotient(dfa, part)
    u = connecting_word(qdfa, p_class, tree.root_class)
    w = strip_gamma(dfa, tree, coll_result.word)

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
    if not is_strongly_connected(dfa):
        raise NotStronglyConnected("needs strong connectivity")
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
