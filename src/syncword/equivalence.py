"""Inseparability equivalence and the words that exploit it.

Two states are inseparable when no word kills exactly one of them (the
definedness of every word action agrees).  Hopcroft's partition refinement
computes the classes, with UNDEF a sink that is the only accepting state,
and Moore's refinement proves them.  Separation witnesses are a PairTable
over class ids, one first letter and level per class pair, listed on demand
(complete, about 20 bytes per class pair: 4 in each of the pairs, dist and
letter arrays and two 4-byte index entries), and a witness is walked letter
by letter.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

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

    blocks = [set(range(n)), {sink}]
    block_of = [0] * n + [1]
    worklist = {1}  # smaller of the two seed blocks
    while worklist:
        splitter = list(blocks[worklist.pop()])
        for a in range(k):
            touched: dict[int, list[int]] = {}
            for t in splitter:
                for q in inv[a][t]:
                    touched.setdefault(block_of[q], []).append(q)
            for b, moved in touched.items():
                block = blocks[b]
                if len(moved) == len(block):
                    continue
                # the touched states move to a new block, in time linear in
                # their number, and the block keeps the rest
                block.difference_update(moved)
                for q in moved:
                    block_of[q] = len(blocks)
                # both halves when the block was waiting, else only the
                # smaller one -- keeps it O(|Sigma| n log n)
                worklist.add(len(blocks) if b in worklist or
                             len(moved) <= len(block) else b)
                blocks.append(set(moved))
    del blocks[1]  # the sink's
    return blocks


def _moore(rows, block):
    """Moore's refinement of rows (a state or UNDEF per letter), UNDEF the
    one accepting sink, from block ids block[q]: the stable ids, numbered by
    least state, and each block's row of blocks (UNDEF where it dies).  Each
    round signs a state with its block and its successors' blocks, a letter
    column at a time, and names the blocks by least state."""
    columns = [[-1 if t is UNDEF else t for t in col] for col in zip(*rows)]
    ids, blocks = block, None
    while True:
        dead, least = [*ids, -1], {}  # UNDEF, coded -1, reads the last -1
        ids = list(map(least.setdefault, zip(
            ids, *[map(dead.__getitem__, col) for col in columns]), count()))
        if len(least) == blocks:  # no block split, and not in the first round
            break
        blocks = len(least)
    dense = dict(zip(least.values(), count()))
    return list(map(dense.__getitem__, ids)), tuple(
        tuple(UNDEF if b < 0 else dense[b] for b in sig[1:]) for sig in least)


def inseparability_partition(dfa: PartialDfa) -> Partition:
    """Inseparability classes and their separation table.  Two Moore
    refinements prove Hopcroft's classes: from the classes none splits, so
    the rows are the quotient, and on the quotient from one block the blocks
    end as singletons, so distinct classes are separable."""
    classes = tuple(sorted(map(frozenset, _hopcroft_classes(dfa)), key=min))
    cid = {q: c for c, cls in enumerate(classes) for q in cls}
    class_of = tuple(map(cid.__getitem__, range(dfa.n)))
    ids, trans = _moore(dfa.trans, class_of)
    for cls in classes:
        if len({ids[q] for q in cls}) > 1:
            raise SyncwordError(f"class {sorted(cls)} splits on its letters")
    # built first, as it refuses a quotient above MAX_PAIR_INDEX: the
    # rounds of the refinement below can number as many as the classes
    table = PairTable.build(dfa, trans, class_of, merge=False)
    for c, b in enumerate(_moore(trans, [0] * len(trans))[0]):
        if b != c:  # blocks are numbered by least class, so b < c
            raise SyncwordError(f"classes {sorted(classes[b])} and "
                                f"{sorted(classes[c])} are not separable")
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
