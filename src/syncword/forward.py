"""Forward pair search: a greedy step of an unlisted pair table, answered
from the subset's side.

A late greedy step has few states left, and its least pair may lie at
distance 5-10 in a table of 10^5 pairs; listing levels 1..d of the backward
BFS (automaton._pair_bfs) to reach it lists most of the table, while only a
few hundred pairs are reachable forward from the subset's own pairs.  So
PairTable.steps, while its table is unlisted, hands such a step here.

The search answers exactly as the listed table would.  Level 0 holds the
pairs of the subset's elements; level i + 1 the pairs first reached from
level i by one letter (both elements defined and apart).  The first level
that holds a settled pair (the table's settle masks) ends the search, at
depth D - 1: a pair of level i then has distance at least D - i, and the
tight ones, at exactly D - i, are the pairs of the last level that one
letter settles and, going back, those of level i with a successor tight at
level i + 1.  The tight pairs of each level are ranked as _pair_bfs lists
that distance: the seeds by pair code, and above them by (rank of the
successor a pair picks, letter, p, q), where a pair picks its tight
successor of least (rank, letter) and p is its element that maps to that
successor's smaller element.  Every successor at the next distance of a
tight pair is tight, so these ranks order the tight pairs as the complete
table orders them, and the picks are the letters it records.
"""
from __future__ import annotations

from .automaton import UNDEF, _settled_mask


def least_pair_forward(table, rep, budget):
    """(table.least_pair(rep), the word table.word gives its pair of
    elements), with best None (and word None) when no pair of the subset is
    settled, or None as soon as more than budget pairs are visited.

    table is an unlisted PairTable (it keeps its settle masks), rep maps
    each element to the state it stands for, or None, as for least_pair.
    Reads the table and leaves it as it was."""
    n, trans, masks = table.n, table.trans, table._masks
    elements = [e for e, x in enumerate(rep) if x is not None]
    level = [p * n + q for i, p in enumerate(elements)
             for q in elements[i + 1:]]
    if len(level) > budget:
        return None
    seen = set(level)
    levels = [level]
    settles = {}
    while True:
        seeds = []
        for c in level:
            p, q = divmod(c, n)
            m = settles.get(p)
            if m is None:
                m = settles[p] = _settled_mask(trans[p], masks)
            if m >> q & 1:
                seeds.append(c)
        if seeds:
            break
        level = []
        for c in levels[-1]:
            p, q = divmod(c, n)
            for tp, tq in zip(trans[p], trans[q]):
                if tp is UNDEF or tq is UNDEF or tp == tq:
                    continue
                s = tp * n + tq if tp < tq else tq * n + tp
                if s not in seen:
                    seen.add(s)
                    level.append(s)
            if len(seen) > budget:
                return None
        if not level:
            return None, None
        levels.append(level)
    rank = {c: r for r, c in enumerate(sorted(seeds))}
    picks = {}
    for level in reversed(levels[:-1]):
        keyed = []
        for c in level:
            p, q = divmod(c, n)
            key = None
            for a, (tp, tq) in enumerate(zip(trans[p], trans[q])):
                if tp is UNDEF or tq is UNDEF:
                    continue
                r = rank.get(tp * n + tq if tp < tq else tq * n + tp)
                if r is not None and (key is None or r < key[0]):
                    key = (r, a, p, q) if tp < tq else (r, a, q, p)
            if key is not None:
                keyed.append((key, c))
        keyed.sort()
        rank = {c: r for r, (_, c) in enumerate(keyed)}
        picks.update((c, key[1]) for key, c in keyed)
    # the tight pairs of level 0 have the least distance; least_pair breaks
    # their ties by the states their elements stand for
    x, y, c = min((*sorted((rep[c // n], rep[c % n])), c) for c in rank)
    word = []
    while c in picks:
        a = picks[c]
        word.append(a)
        tp, tq = trans[c // n][a], trans[c % n][a]
        c = tp * n + tq if tp < tq else tq * n + tp
    # c is a seed, which an unlisted table spells from its masks, unlisted
    return (len(levels), x, y), (*word, *table.word(*divmod(c, n)))

