"""Inseparability equivalence and the words that exploit it.

Two states are inseparable when no word kills exactly one of them (the
definedness of every word action agrees).  The classes are computed by
partition refinement treating UNDEF as a sink that is the only accepting
state; separation witnesses are stored per class pair as (letter, level)
and reconstructed recursively.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from .automaton import (UNDEF, PartialDfa, Word, pair_bfs, pair_witness,
                        settle_seeds)
from .errors import InputError, SyncwordError


@dataclass(frozen=True)
class Partition:
    """Inseparability classes plus separating-word witnesses.

    classes are ordered by their minimal state, class_of maps each state to
    its class id, and levels maps each separated (unordered) class-id pair to
    a (letter, level) witness: level is the length of a shortest word whose
    definedness distinguishes the two classes, and the letter is its first
    letter; its keys run in non-decreasing level order.  qtable is the
    class-level transition table (the quotient).
    """

    class_of: tuple[int, ...]
    classes: tuple[frozenset[int], ...]
    levels: dict = field(compare=False)
    qtable: tuple = field(compare=False, repr=False)

    def kappa(self, S) -> int:
        """Number of classes intersecting S."""
        return len({self.class_of[q] for q in S})

    def level(self, c1: int, c2: int) -> int:
        return self.levels[(min(c1, c2), max(c1, c2))][1]


def _hopcroft_classes(dfa: PartialDfa) -> list[set[int]]:
    """Classes of 0..n-1 with the UNDEF sink as the only accepting state."""
    n, k = dfa.n, len(dfa.alphabet)
    sink = n
    inv = [[[] for _ in range(n + 1)] for _ in range(k)]
    for q in range(n):
        for a in range(k):
            t = dfa.trans[q][a]
            inv[a][sink if t is UNDEF else t].append(q)

    live = frozenset(range(n))
    blocks = {live, frozenset([sink])}
    block_of = {q: live for q in range(n)}
    block_of[sink] = frozenset([sink])
    worklist = {frozenset([sink])}  # smaller of the two seed blocks

    while worklist:
        splitter = worklist.pop()
        for a in range(k):
            touched: dict[frozenset, set] = {}
            for t in splitter:
                for q in inv[a][t]:
                    touched.setdefault(block_of[q], set()).add(q)
            for block, overlap in touched.items():
                if len(overlap) == len(block):
                    continue
                part1 = frozenset(overlap)
                part2 = block - part1
                blocks.remove(block)
                blocks.update((part1, part2))
                for q in part1:
                    block_of[q] = part1
                for q in part2:
                    block_of[q] = part2
                if block in worklist:
                    worklist.remove(block)
                    worklist.update((part1, part2))
                else:
                    # only the smaller half -- keeps it O(|Sigma| n log n)
                    worklist.add(part1 if len(part1) <= len(part2) else part2)

    return [set(b) for b in blocks if sink not in b]


def _quotient_table(dfa: PartialDfa, class_of, classes):
    """Class-level transition table; checks well-definedness.

    A failure here means the partition is wrong, i.e. an implementation bug.
    """
    k = len(dfa.alphabet)
    table = []
    for cls in classes:
        row = []
        for a in range(k):
            targets = {dfa.trans[q][a] for q in cls}
            defined = {t for t in targets if t is not UNDEF}
            if defined and len(defined) != len(targets):
                raise SyncwordError(
                    f"class {sorted(cls)} splits on definedness of letter {a}")
            if not defined:
                row.append(UNDEF)
            else:
                tclasses = {class_of[t] for t in defined}
                if len(tclasses) != 1:
                    raise SyncwordError(
                        f"class {sorted(cls)} maps into several classes on letter {a}")
                row.append(tclasses.pop())
        table.append(tuple(row))
    return tuple(table)


def inseparability_partition(dfa: PartialDfa) -> Partition:
    """Inseparability classes, with a shortest separation witness per class
    pair from a pair BFS over the quotient seeded by the pairs on which one
    letter is defined for exactly one of the two classes.
    """
    blocks = _hopcroft_classes(dfa)
    blocks.sort(key=min)
    classes = tuple(frozenset(b) for b in blocks)
    class_of = [0] * dfa.n
    for cid, cls in enumerate(classes):
        for q in cls:
            class_of[q] = cid
    qtable = _quotient_table(dfa, class_of, classes)
    kappa_, k = len(classes), len(dfa.alphabet)
    seeds = settle_seeds(qtable, k, merge=False)
    pairs, dist, letter, _ = pair_bfs(qtable, k, seeds)
    if len(dist) != kappa_ * (kappa_ - 1) // 2:
        raise SyncwordError("distinct classes must all be separable")
    levels = {divmod(c, kappa_): (a, d) for c, d, a in zip(pairs, dist, letter)}
    return Partition(tuple(class_of), classes, levels, qtable)


def separating_word(dfa: PartialDfa, part: Partition, p: int, q: int) -> Word:
    """A word killing exactly one of p, q; length = separation level.

    Reconstructed from the stored witnesses: the letter alone when the
    definedness of the two classes differs on it, otherwise the letter
    followed by a deeper witness.
    """
    c1, c2 = part.class_of[p], part.class_of[q]
    if c1 == c2:
        raise InputError(f"states {p} and {q} are inseparable")
    levels = part.levels
    return pair_witness(
        part.qtable,
        lambda c1, c2: levels[(c1, c2) if c1 < c2 else (c2, c1)][0], c1, c2)


def kappa(part: Partition, S) -> int:
    return part.kappa(S)


def _least_separated_pair(part: Partition, S):
    """(level, p, q) minimizing the separation level of p < q in S lying in
    distinct classes, ties by state order; None when S meets one class.

    Only the least state of S in each class can be picked.  levels lists
    class pairs in non-decreasing level order, so the first level holding
    two classes of S, walked to its end, gives the answer.  The walk gets
    as many checks as the class pairs of S number; when they run out first,
    those pairs are scanned instead.
    """
    rep = {}
    for q in sorted(S):
        rep.setdefault(part.class_of[q], q)
    if len(rep) < 2:
        return None
    budget = len(rep) * (len(rep) - 1) // 2
    best = None
    for (c1, c2), (_, lvl) in islice(part.levels.items(), budget):
        if best is not None and lvl > best[0]:
            return best
        if c1 in rep and c2 in rep:
            p, q = sorted((rep[c1], rep[c2]))
            if best is None or (lvl, p, q) < best:
                best = (lvl, p, q)
    if budget >= len(part.levels):
        return best
    reps = sorted(rep.values())
    return min((part.level(part.class_of[p], part.class_of[q]), p, q)
               for i, p in enumerate(reps) for q in reps[i + 1:])


def class_reducing_word(dfa: PartialDfa, part: Partition, S) -> Word:
    """A word w with 1 <= kappa(image(S, w)) < kappa(S).

    Picks, among state pairs of S lying in distinct classes, one separated at
    the minimal level (ties by state order) and emits its witness word, so
    |w| <= min(kappa(Q) - kappa(S) + 1, n - |S| + 1).
    """
    S = frozenset(S)
    best = _least_separated_pair(part, S)
    if best is None:
        raise InputError("subset intersects fewer than two classes")
    w = separating_word(dfa, part, best[1], best[2])
    img = dfa.image(S, w)
    if not img or part.kappa(img) >= part.kappa(S):
        raise SyncwordError("voiding word failed")
    return w


def collapse_to_single_class_word(dfa: PartialDfa, part: Partition, S) -> Word:
    """Iterate class_reducing_word until the image sits in one class."""
    S = frozenset(S)
    if not S:
        raise InputError("empty subset")
    out = []
    while part.kappa(S) >= 2:
        w = class_reducing_word(dfa, part, S)
        out.extend(w)
        S = dfa.image(S, w)
    return tuple(out)


def quotient(dfa: PartialDfa, part: Partition) -> tuple[PartialDfa, tuple[int, ...]]:
    """The automaton on inseparability classes, plus the state->class map."""
    qdfa = PartialDfa(len(part.classes), dfa.alphabet, part.qtable)
    return qdfa, part.class_of
