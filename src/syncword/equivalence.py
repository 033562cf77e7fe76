"""Inseparability equivalence and the words that exploit it.

Two states are inseparable when no word kills exactly one of them (the
definedness of every word action agrees).  The classes are computed by
partition refinement treating UNDEF as a sink that is the only accepting
state; separation witnesses are a PairTable over class ids, one first letter
and level per class pair, and a witness is walked letter by letter.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .automaton import UNDEF, PairTable, PartialDfa, Word
from .errors import InputError, SyncwordError


@dataclass(frozen=True)
class Partition:
    """Inseparability classes plus separating-word witnesses.

    classes are ordered by their minimal state and class_of maps each state
    to its class id.  table is the pair table for separation, built on the
    class-level transition table table.trans (the quotient):
    table.distance(c1, c2) is the level of two classes, the length of a
    shortest word whose definedness distinguishes them, and
    table.word(c1, c2) is such a word.
    """

    class_of: tuple[int, ...]
    classes: tuple[frozenset[int], ...]
    table: PairTable = field(compare=False, repr=False)

    def kappa(self, S) -> int:
        """Number of classes intersecting S."""
        return len({self.class_of[q] for q in S})


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
    class_of = tuple(class_of)
    table = PairTable.build(dfa, _quotient_table(dfa, class_of, classes),
                            class_of, merge=False)
    if not table.all_compressible():
        raise SyncwordError("distinct classes must all be separable")
    return Partition(class_of, classes, table)


def separating_word(dfa: PartialDfa, part: Partition, p: int, q: int) -> Word:
    """A word killing exactly one of p, q; length = separation level.

    Reconstructed from the stored witnesses: the letter alone when the
    definedness of the two classes differs on it, otherwise the letter
    followed by a deeper witness.
    """
    c1, c2 = part.class_of[p], part.class_of[q]
    if c1 == c2:
        raise InputError(f"states {p} and {q} are inseparable")
    return part.table.word(c1, c2)


def class_reducing_word(dfa: PartialDfa, part: Partition, S) -> Word:
    """A word w with 1 <= kappa(image(S, w)) < kappa(S).

    The first step of part.table.steps: among state pairs of S lying in
    distinct classes, one separated at the minimal level (ties by state
    order) gives its witness word, so
    |w| <= min(kappa(Q) - kappa(S) + 1, n - |S| + 1).
    """
    for w, _ in part.table.steps(S):
        return w
    raise InputError("subset intersects fewer than two classes")


def collapse_to_single_class_word(dfa: PartialDfa, part: Partition, S) -> Word:
    """All steps of part.table.steps: the image ends in one class."""
    if not S:
        raise InputError("empty subset")
    out = []
    for w, _ in part.table.steps(S):
        out.extend(w)
    return tuple(out)


def quotient(dfa: PartialDfa, part: Partition) -> tuple[PartialDfa, tuple[int, ...]]:
    """The automaton on inseparability classes, plus the state->class map."""
    qdfa = PartialDfa(len(part.classes), dfa.alphabet, part.table.trans)
    return qdfa, part.class_of
