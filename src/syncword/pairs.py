"""Pair tables: shortest pair-settling words, listed on demand by one
backward BFS (_pair_bfs), and one forward search for late greedy steps.

A PairTable's reads grow its arrays in place and drop its settle masks,
without a lock, so share one across threads only once it is complete (after
all_compressible), and an equivalence.Partition, which holds one, only after
part.table.all_compressible().
"""
from __future__ import annotations

from array import array
from itertools import islice

from .automaton import UNDEF, Word, check_pair_table, predecessors
from .errors import InputError, Value, require


def _settle_masks(trans, k, merge):
    """The bit masks behind the one-letter settle rule of a table's
    elements: undef[a] holds the elements letter a kills and, when merge is
    set, same[a][t] those it maps to t (same is None otherwise)."""
    undef = [0] * k
    same = [[0] * len(trans) for _ in range(k)] if merge else None
    for q, row in enumerate(trans):
        bit = 1 << q
        for a, t in enumerate(row):
            if t is UNDEF:
                undef[a] |= bit
            elif merge:
                same[a][t] |= bit
    return undef, same


def _settled_with(row, undef, same):
    """(a, m) per letter a, for the element e whose transition row is row:
    m holds the elements that a settles with e, those for which exactly one
    of the two is undefined or, when same is given, both go to the same
    state.  m may hold e itself, and bits above every element; callers mask
    it."""
    for a, t in enumerate(row):
        if t is UNDEF:
            yield a, ~undef[a]
        elif same is None:
            yield a, undef[a]
        else:
            yield a, undef[a] | same[a][t]


def _settled_mask(row, masks):
    """The elements that some letter settles with the element whose
    transition row is row: _settled_with over every letter."""
    m = 0
    for _, settled in _settled_with(row, *masks):
        m |= settled
    return m


def settle_seeds(trans, undef, same):
    """The pairs of states of a table that one letter settles, as (p, q,
    letter) with p < q, yielded in (p, q) order: letter is the least that
    settles them (_settled_with over the masks of _settle_masks).  These
    are the distance-1 seeds of _pair_bfs; they are yielded, not collected,
    because on automata with many undefined transitions most pairs are
    seeds.
    """
    full = (1 << len(trans)) - 1
    for p, row in enumerate(trans):
        above = full ^ ((2 << p) - 1)
        first = {}
        taken = 0
        for a, m in _settled_with(row, undef, same):
            m &= above & ~taken
            if not m:
                continue
            taken |= m
            while m:
                low = m & -m
                first[low.bit_length() - 1] = a
                m ^= low
            if taken == above:
                break
        for q in sorted(first):
            yield p, q, first[q]


def _pair_bfs(trans, k, seeds, pairs, dist, letter, index):
    """Backward BFS over unordered pairs of the states of a table, listed a
    few levels at a time into the empty arrays pairs, dist, letter and
    index, which it grows in place.

    trans[q][a] is a state or UNDEF; seeds yields (p, q, letter) (p < q)
    for the pairs a single letter settles, in order (see settle_seeds).  A
    pair that some letter maps onto a distinct pair at distance d gets
    distance d + 1, with the first such letter in (queue, letter,
    predecessor p, q) order.

    A pair {p, q} with p < q is coded p * n + q.  Primed with next(), the
    generator has listed nothing; each send(target) lists levels until at
    least target pairs are listed or the BFS ends (StopIteration), and
    pauses only where a level ends, so send(0) lists the seeds alone.
    pairs holds the codes of the listed pairs in BFS order, so dist is
    non-decreasing; dist and letter run parallel to it; index, allocated
    by the first send, holds index[p * n + q] == index[q * n + p], the
    position of {p, q} in pairs plus 1, or <= 0 while the pair is not
    listed.
    """
    n = len(trans)
    target = yield
    # PairTable keeps n * n <= MAX_PAIR_INDEX, so int32 holds every
    # code and position
    index.append(0)
    index *= n * n
    for q in range(n):
        index[q * n + q] = -1
    for p, q, a in seeds:
        pairs.append(p * n + q)
        letter.append(a)
        index[p * n + q] = index[q * n + p] = len(pairs)
    # every seed has distance 1; repeated in place, with no temporary array
    dist.append(1)
    dist *= len(pairs)
    inv = predecessors(trans, k)
    # into[t]: (a, predecessors of t under a, inv[a]) for the letters a,
    # ascending, under which t has a predecessor
    into = [[(a, inv[a][t], inv[a]) for a in range(k) if inv[a][t]]
            for t in range(n)]
    put_pair, put_dist, put_letter = pairs.append, dist.append, letter.append
    found, every, level = len(pairs), n * (n - 1) // 2, 0
    # pairs and dist grow while zip walks them: they are the queue
    for c, d in zip(pairs, dist):
        if found >= target and d > level:
            # the queue reaches level d, so levels 1..d are listed in full
            # and level d + 1 not at all
            if found == every:
                return
            target = yield
        level = d
        tp, tq = divmod(c, n)
        d += 1
        for a, preds_p, inv_a in into[tp]:
            preds_q = inv_a[tq]
            if not preds_q:
                continue
            for p in preds_p:
                row = p * n
                for q in preds_q:
                    if not index[row + q]:
                        put_pair(row + q if p < q else q * n + p)
                        put_dist(d)
                        put_letter(a)
                        found += 1
                        index[row + q] = index[q * n + p] = found


class PairTable(Value):
    """The _pair_bfs result for the unordered pairs of the elements of a
    table: shortest words that settle a pair.

    The fields are what the table is built on: dfa, the table trans of its
    n = len(trans) elements (trans[e][a] is an element or UNDEF), elem,
    where state q of dfa stands for element elem[q], and merge, the settle
    rule of its seeds (_settle_masks): a merge or one state dying for the
    compression table of synchronization (dfa.trans and range(n), merge
    set), exactly one class dying for the separation table of an
    inseparability partition (the quotient and class_of, merge clear).
    The constructor refuses a table above the limits (check_pair_table).

    Settled pairs are listed in BFS order, so distances never decrease
    along the list: pairs[i] is the code p * n + q (p < q) of the i-th
    pair, dist[i] the length of a shortest word settling it and letter[i]
    the first letter of one such word.  index[p * n + q] ==
    index[q * n + p] is i + 1, or <= 0 when {p, q} is not listed.  n, these
    arrays, the BFS paused in _bfs and the settle masks in _masks are
    caches set after the fields, like those of PartialDfa, so ==, hash and
    repr use the fields alone.

    A new table lists nothing, index included.  While it is unlisted, its
    settle masks (_masks, computed once to seed the BFS) answer least_pair
    for a subset that holds a distance-1 pair and word for such a pair, and
    steps answers a step whose subset holds none by least_pair_forward
    (_step), so the seeds, most of the table on automata with many
    undefined transitions, are often never listed.  Other reads list the
    seed level whole and grow the arrays in place, whole levels at a time,
    so the listed pairs are always levels 1..L of the complete table, in
    its order, and len(dist) counts them (0 while unlisted).
    all_compressible and items complete the table first; distance and word
    list the seeds, and complete the table before they answer that no word
    settles a pair.  _masks is None once the table lists and _bfs once it
    is complete.
    """

    _fields = ("dfa", "trans", "elem", "merge")

    def __post_init__(self):
        trans = self.trans
        n, k = len(trans), len(self.dfa.alphabet)
        check_pair_table(n, k)
        masks = _settle_masks(trans, k, self.merge)
        arrays = array("i"), array("i"), array("i"), array("i")
        bfs = _pair_bfs(trans, k, settle_seeds(trans, *masks), *arrays)
        next(bfs)
        self.__dict__.update(zip(("pairs", "dist", "letter", "index"), arrays),
                             n=n, _bfs=bfs, _masks=masks)

    def _grow(self, target: int) -> None:
        """List levels until at least target pairs are listed, or all.  A
        table that lists anything has no more use for its settle masks."""
        object.__setattr__(self, "_masks", None)
        try:
            self._bfs.send(target)
        except StopIteration:
            object.__setattr__(self, "_bfs", None)

    def _complete(self) -> None:
        if self._bfs is not None:
            self._grow(self.n * (self.n - 1) // 2)

    def _position(self, p: int, q: int) -> int:
        """index[p * n + q], read after the seeds are listed, and after the
        whole table is when it reads <= 0 (no word settles {p, q})."""
        if not self.index:
            self._grow(0)
        if self.index[p * self.n + q] <= 0:
            self._complete()
        return self.index[p * self.n + q]

    def distance(self, p: int, q: int):
        """Length of a shortest word settling {p, q}, or None."""
        i = self._position(p, q)
        return self.dist[i - 1] if i > 0 else None

    def all_compressible(self) -> bool:
        """Every pair of distinct states is settled by some word."""
        self._complete()
        return len(self.dist) == self.n * (self.n - 1) // 2

    def least_pair(self, rep):
        """The settled pair of a subset minimizing (distance, p, q), as
        (distance, p, q), or None when the subset has no settled pair.

        rep[e] is the state that element e of the table stands for, or None
        when e is outside the subset; distinct elements stand for distinct
        states, and p < q are the states of the pair's two elements, so
        ties break by states, not by elements.  An unlisted table first
        looks for a distance-1 pair (_least_seed), and lists its seeds only
        when the subset holds none.  A pair of the subset among the listed
        levels beats every pair of a later level, so the table grows, to at
        least twice the pairs listed, only while the listed levels hold
        none.
        """
        states = [x for x in rep if x is not None]
        if len(states) < 2:
            return None
        if not self.index:
            best = self._least_seed(rep)
            if best is not None:
                return best
            self._grow(0)
        while True:
            best = self._least_listed(rep, states)
            if best is not None or self._bfs is None:
                return best
            self._grow(2 * len(self.dist))

    def _least_seed(self, rep):
        """least_pair among the distance-1 pairs, from the settle masks:
        the elements of the subset are walked in the order of the states
        they stand for, and the first that one letter settles with a later
        one is p, the least of those later ones q."""
        order = sorted((x, e) for e, x in enumerate(rep) if x is not None)
        later = 0
        for _, e in order:
            later |= 1 << e
        for i, (x, e) in enumerate(order):
            later ^= 1 << e
            m = _settled_mask(self.trans[e], self._masks) & later
            if m:
                return 1, x, next(y for y, f in islice(order, i + 1, None)
                                  if m >> f & 1)
        return None

    def _least_listed(self, rep, states):
        """least_pair among the listed pairs, by a walk or a scan, never
        both.  When no more pairs are listed than the subset has, the
        listed pairs are walked: they are in non-decreasing distance order,
        so the first level holding a pair of the subset, walked to its end,
        gives the answer.  Otherwise the pairs of the subset are scanned in
        the index."""
        n, dist = self.n, self.dist
        if len(dist) <= len(states) * (len(states) - 1) // 2:
            # p * N + q with N above every state orders pairs as (p, q) does
            N = max(states) + 1
            level = key = None
            for c, d in zip(self.pairs, dist):
                if level is not None and d > level:
                    break
                x = rep[c // n]
                if x is not None:
                    y = rep[c % n]
                    if y is not None:
                        k = x * N + y if x < y else y * N + x
                        if key is None or k < key:
                            level, key = d, k
            return None if key is None else (level, *divmod(key, N))
        index = self.index
        elements = [e for e, x in enumerate(rep) if x is not None]
        best = None
        for i, e in enumerate(elements):
            row, x = e * n, rep[e]
            for f in elements[i + 1:]:
                j = index[row + f]
                if j > 0:
                    y = rep[f]
                    pick = (dist[j - 1], x, y) if x < y else (dist[j - 1], y, x)
                    if best is None or pick < best:
                        best = pick
        return best

    def items(self):
        """((p, q), distance, first letter) per settled pair (p < q), in BFS
        (non-decreasing distance) order."""
        self._complete()
        n = self.n
        for c, d, a in zip(self.pairs, self.dist, self.letter):
            yield divmod(c, n), d, a

    def steps(self, S):
        """The greedy loop from the states S of dfa, one (word, image) per
        step: each element met by the image stands for its least state
        there, and each step applies the word of the least settled pair
        (least_pair), leaving a non-empty image that meets fewer elements.
        Stops when the image has no settled pair (_step)."""
        n, elem, image, w = self.n, self.elem, self.dfa.image, None
        while True:
            rep = [None] * n
            for q in sorted(S, reverse=True):
                rep[elem[q]] = q
            met = n - rep.count(None)
            if w is not None:
                require(0 < met < was, "greedy step must leave a non-empty "
                        "image meeting fewer elements")
                yield w, S
            w = self._step(rep, met)
            if w is None:
                return
            S, was = image(S, w), met

    def _step(self, rep, met):
        """The word of least_pair(rep), or None when that is None, from
        least_pair_forward while the table is unlisted and the met elements
        hold pairs but no distance-1 pair, unless the search visits more
        than n(n - 1)/32 pairs.  A step checks the subset's seeds once: a
        search past its budget lists the seeds before least_pair runs."""
        best, budget = None, self.n * (self.n - 1) // 32
        if self._masks is not None and 1 < met \
                and met * (met - 1) // 2 <= budget:
            best = self._least_seed(rep)
            if best is None:
                found = least_pair_forward(self, rep, budget)
                if found is not None:
                    return found[1]
                self._grow(0)
        best = best or self.least_pair(rep)
        if best is None:
            return None
        return self.word(self.elem[best[1]], self.elem[best[2]])

    def word(self, p: int, q: int) -> Word:
        """The word the table records for the settled pair {p, q} of
        elements: the recorded first letters, followed in trans until the
        two elements merge or at least one of them dies; on an unlisted
        table, the least letter that settles a distance-1 pair.  Raises
        InputError when no word settles {p, q}, as for p == q."""
        if not self.index and p != q:
            a = next((a for a, settled in _settled_with(
                self.trans[p], *self._masks) if settled >> q & 1), None)
            if a is not None:
                return (a,)
        i = self._position(p, q)
        if i <= 0:
            raise InputError(f"pair {(min(p, q), max(p, q))} is not settled")
        n, trans, letter, index = self.n, self.trans, self.letter, self.index
        out = []
        while True:
            a = letter[i - 1]
            out.append(a)
            p, q = trans[p][a], trans[q][a]
            if p is UNDEF or q is UNDEF or p == q:
                return tuple(out)
            i = index[p * n + q]


def least_pair_forward(table, rep, budget):
    """(table.least_pair(rep), the word table.word gives its pair of
    elements), with best None (and word None) when no pair of the subset is
    settled, or None as soon as more than budget pairs are visited; rep is
    as for least_pair, and the table is unlisted and stays so.

    A late step's least pair may lie 5-10 levels deep in a table of 10^5
    pairs, most of which _pair_bfs lists to reach it, while only a few
    hundred are reachable forward from the step's own pairs (after
    Kisielewicz, Kowalski & Szykula, COCOON 2013).  Level 0 holds the pairs
    of the subset's elements; level i + 1 the pairs first reached from
    level i by one letter (both elements defined and apart).  The first
    level that holds a settled pair ends the search, at depth D - 1: a pair
    of level i then has distance at least D - i, and the tight ones, at
    exactly D - i, are the pairs of the last level that one letter settles
    and, going back, those of level i with a successor tight at level
    i + 1.  The tight pairs of each level are ranked as _pair_bfs lists
    that distance: the seeds by pair code, and above them by (rank of the
    successor a pair picks, letter, p, q), where a pair picks its tight
    successor of least (rank, letter) and p is its element that maps to
    that successor's smaller element.  Every successor at the next distance
    of a tight pair is tight, so these ranks order the tight pairs as the
    complete table orders them, and the picks are the letters it records."""
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
