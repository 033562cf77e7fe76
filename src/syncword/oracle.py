"""Exact ground truth by BFS over the subset lattice.

Subsets are machine-word bit masks of at most 24 states (the desk-scale
guardrail), so a mask is three bytes.  Each letter has three 256-entry byte
tables (states 0-7, 8-15 and 16-23; the tables of states beyond n map to 0),
and the image of a mask is three unrolled lookups OR-ed together: the byte
indices are computed once per mask and shared by every letter.

The search keeps no dict.  While the reachable lattice is sparse, the
subsets already reached are a set of masks.  At the first level boundary
where the set holds more than 2**n / 512 masks, they move into a bytearray
of 2**n bytes indexed by mask, which marks them for the rest of the search.
A mask costs the set 64 to 137 bytes and the map one byte, reached or not,
so at that count the set is about a quarter of the map's size.  Dense
lattices move to the map within their first few levels; a lattice that
stays below the count never allocates it: duplicating(gen_cerny(12))
reaches 8,192 of 2**24 subsets and peaks at 0.9 MiB under tracemalloc,
where the map would be 16 MiB.  Each complete BFS level is stored as an
array('i') of masks in discovery order, with a parallel array('i') of parent
positions in the previous level.  Memory is the set or the map, 8 bytes per
reached subset, and 36 to 72 bytes per mask of the level being read and the
level being built, which are Python lists (gen_cerny(16) peaks at about 10
bytes per subset).  As each level closes, the first mask of every new subset
size is recorded as a (level, position) pair.  Letters are tried in order
for each mask, so the letter that first reached t from m is the least a with
image(m, a) == t; the witness walk follows the positions back to the full
set and recomputes it, which costs at most k images per witness letter.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import product
from operator import or_

from .automaton import (UNDEF, PartialDfa, is_strongly_connected,
                        strongly_connected_masks)
from .errors import InputError, NotStronglyConnected, SyncwordError

# Read by perfbench/run.py, which records it in each run's environment.
KERNEL_BACKEND = "python"

# Read by perfbench/traced.py, whose kernel parity step skips while it is None.
_bfs_c = None

MAX_ORACLE_STATES = 24

# Bytes a reached mask costs the subset BFS's set: its slot in a hash table
# kept at most 60 % full plus the int object, 64 to 137 bytes under
# tracemalloc.  The search moves to the 2**n-byte map once the set would
# take more than a quarter of it.
_SET_ENTRY_BYTES = 128
_SPARSE_DIVISOR = 4 * _SET_ENTRY_BYTES


@dataclass(frozen=True)
class OracleReport:
    """Shortest-word lengths and witnesses per achievable rank.

    thresholds[r] = (length, word) for every rank r whose subsets are
    reachable from the full state set, including r = 0 when mortal words
    exist.  Witnesses are the lexicographically least among the shortest.
    subsets counts the masks the search reached (the full set included) and
    depth its last nonempty BFS level; neither takes part in equality.
    """

    n: int
    thresholds: dict
    subsets: int = field(compare=False)
    depth: int = field(compare=False)

    def reachable(self, r: int) -> bool:
        return r in self.thresholds

    def length(self, r: int):
        return self.thresholds[r][0] if r in self.thresholds else None

    def witness(self, r: int):
        return self.thresholds[r][1] if r in self.thresholds else None

    @property
    def reset_threshold(self):
        return self.length(1)

    @property
    def mortal_threshold(self):
        return self.length(0)

    @property
    def min_nonzero_rank(self) -> int:
        return min(r for r in self.thresholds if r > 0)


def _byte_tables(dfa: PartialDfa):
    """Per letter a, the triple of tables tab[bv] = image under a of the
    states encoded by byte value bv at byte position 0, 1 and 2."""
    tables = []
    for column in dfa.columns:
        tbit = [0] * MAX_ORACLE_STATES
        for q, t in enumerate(column):
            if t is not UNDEF:
                tbit[q] = 1 << t
        triple = []
        for base in (0, 8, 16):
            tab = [0] * 256
            for bv in range(1, 256):
                low = bv & -bv
                tab[bv] = tab[bv ^ low] | tbit[base + low.bit_length() - 1]
            triple.append(tab)
        tables.append(tuple(triple))
    return tables


def _bfs_witnesses(dfa: PartialDfa):
    """Breadth-first search over the subset lattice from the full set.

    Returns (words, subsets, depth): words is a list indexed by subset size
    0..n whose entries are the letter sequence of the first word reaching
    that size (the lexicographically least among the shortest), or None
    when unreachable; subsets counts the masks reached and depth is the
    last nonempty BFS level.
    """
    n = dfa.n
    tables = _byte_tables(dfa)
    full = (1 << n) - 1

    seen = {full}  # a bytearray indexed by mask once the lattice is dense
    sparse = True
    sparse_limit = (1 << n) // _SPARSE_DIVISOR
    levels = [array("i", (full,))]
    parents = [array("i", (0,))]
    first = [None] * (n + 1)  # size -> (level, index) of its first mask
    first[n] = (0, 0)
    found = {n}
    queue = [full]
    while True:
        # iterating and appending Python ints is cheaper on a list than on an
        # array, so a level becomes an array only once it is complete
        nxt = []
        par = []
        for i, m in enumerate(queue):
            b0 = m & 0xFF
            b1 = (m >> 8) & 0xFF
            b2 = m >> 16
            for t0, t1, t2 in tables:
                t = t0[b0] | t1[b1] | t2[b2]
                if sparse:
                    if t in seen:
                        continue
                    seen.add(t)
                elif seen[t]:
                    continue
                else:
                    seen[t] = 1
                nxt.append(t)
                par.append(i)
        if not nxt:
            break
        new = set(map(int.bit_count, nxt)) - found
        found |= new
        for j, t in enumerate(nxt):
            if not new:
                break
            c = t.bit_count()
            if c in new:
                new.remove(c)
                first[c] = (len(levels), j)
        levels.append(array("i", nxt))
        parents.append(array("i", par))
        queue = nxt
        if sparse and len(seen) > sparse_limit:
            marks = bytearray(1 << n)
            for t in seen:
                marks[t] = 1
            seen = marks
            sparse = False

    out = [None] * (n + 1)
    for c, pos in enumerate(first):
        if pos is None:
            continue
        d, j = pos
        t = levels[d][j]
        letters = []
        while d:
            j = parents[d][j]
            d -= 1
            m = levels[d][j]
            b0 = m & 0xFF
            b1 = (m >> 8) & 0xFF
            b2 = m >> 16
            for a, (t0, t1, t2) in enumerate(tables):
                if t0[b0] | t1[b1] | t2[b2] == t:
                    break
            letters.append(a)
            t = m
        out[c] = letters[::-1]
    return out, sum(map(len, levels)), len(levels) - 1


def subset_bfs(dfa: PartialDfa) -> OracleReport:
    """Exact rank thresholds of dfa; error beyond the n <= 24 guardrail."""
    if dfa.n > MAX_ORACLE_STATES:
        raise InputError(f"oracle limited to {MAX_ORACLE_STATES} states, got {dfa.n}")
    thresholds = {}
    witnesses, subsets, depth = _bfs_witnesses(dfa)
    for size, letters in enumerate(witnesses):
        if letters is not None:
            word = tuple(letters)
            if dfa.rank(word) != size:
                raise SyncwordError(
                    f"kernel witness for rank {size} does not re-validate")
            thresholds[size] = (len(word), word)
    return OracleReport(dfa.n, thresholds, subsets, depth)


def duplicating_identity_check(dfa: PartialDfa):
    """Verify rt(dup, r) = 2 rt(dfa, r) for every achievable 1 <= r < n.

    Also checks that interleaving the collecting letter into a base witness
    yields a rank-r word of doubled length in the duplicated automaton.
    Returns {r: (rt_base, rt_dup)}; a violated identity is an internal
    error, not an input condition.
    """
    if 2 * dfa.n > MAX_ORACLE_STATES:
        raise InputError(
            f"identity check limited to {MAX_ORACLE_STATES // 2} states (the "
            f"duplicated automaton has 2n = {2 * dfa.n} states and the oracle "
            f"takes at most {MAX_ORACLE_STATES}), got {dfa.n}")
    if not is_strongly_connected(dfa):
        raise NotStronglyConnected(
            "identity check needs a strongly connected automaton")
    from .constructions import duplicating
    dup = duplicating(dfa)  # validates completeness
    base_rep = subset_bfs(dfa)
    dup_rep = subset_bfs(dup)
    gamma = len(dfa.alphabet)
    results = {}
    for r in range(1, dfa.n):
        if not base_rep.reachable(r):
            continue
        lb = base_rep.length(r)
        ld = dup_rep.length(r)
        if ld != 2 * lb:
            raise SyncwordError(
                f"rank {r}: rt doubled to {ld}, expected {2 * lb}")
        interleaved = tuple(x for a in base_rep.witness(r) for x in (gamma, a))
        if dup.rank(interleaved) != r:
            raise SyncwordError(
                f"rank {r}: interleaved witness does not have rank {r}")
        results[r] = (lb, ld)
    return results


@dataclass(frozen=True)
class ExtremalResult:
    n: int
    target: int
    best_rt: int
    best_dfa: PartialDfa | None
    attained: bool
    candidates: int


def _rt_bitmask(rows_a, rows_b, n) -> int | None:
    """Reset threshold of a small binary automaton, or None.

    Plain-int BFS over subsets; rows give per-state target bit masks with 0
    meaning undefined.
    """
    full = (1 << n) - 1
    seen = {full}
    frontier = [full]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for m in frontier:
            for rows in (rows_a, rows_b):
                t = 0
                mm = m
                while mm:
                    low = mm & -mm
                    t |= rows[low.bit_length() - 1]
                    mm ^= low
                if t not in seen:
                    if t.bit_count() == 1:
                        return d
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return None


def _extremal_candidates_exhaustive(n):
    """All binary tables with exactly one undefined (state, letter) slot, as
    per-letter rows of target bit masks (0 at the undefined slot).

    Slots are numbered row-major, 2*q + a; the undefined slot runs over them
    in order and the other slots take every assignment in product order.
    """
    targets = [1 << t for t in range(n)]
    for hole in range(2 * n):
        for assign in product(targets, repeat=2 * n - 1):
            flat = assign[:hole] + (0,) + assign[hole:]
            yield flat[0::2], flat[1::2]


def _extremal_candidates_random(n, seed, trials):
    from .generators import Lcg64
    rng = Lcg64(seed)
    for _ in range(trials):
        hole = 2 * rng.below(n) + rng.below(2)
        flat = [1 << rng.below(n) for _ in range(2 * n)]
        flat[hole] = 0
        yield flat[0::2], flat[1::2]


def extremal_search(n, exhaustive=True, seed=0, trials=10000) -> ExtremalResult:
    """Search binary properly incomplete strongly connected automata with a
    single deficient state for the largest reset threshold.

    Exhaustive up to n <= 5 (guardrail: 10 * 5**9 tables take about two
    minutes, while n = 6 has 12 * 6**11, about 4.4e9, and would take hours);
    the randomized profile is deterministic given (seed, trials) and
    limited to MAX_ORACLE_STATES states, since each candidate's reset
    threshold is a BFS over the same subset lattice as the oracle's.
    """
    if n < 2:
        raise InputError("need at least two states")
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    if n > MAX_ORACLE_STATES:
        raise InputError(
            f"extremal search limited to {MAX_ORACLE_STATES} states, got {n}")
    if exhaustive and n > 5:
        raise InputError(
            f"exhaustive profile limited to n <= 5, got {n} (use the "
            f"randomized profile)")
    target = (n * n - n) // 2
    gen = (_extremal_candidates_exhaustive(n) if exhaustive
           else _extremal_candidates_random(n, seed, trials))
    best_rt = -1
    best_rows = None
    count = 0
    for rows_a, rows_b in gen:
        if not strongly_connected_masks(list(map(or_, rows_a, rows_b)), n):
            continue
        count += 1
        rt = _rt_bitmask(rows_a, rows_b, n)
        if rt is not None and rt > best_rt:
            best_rt = rt
            best_rows = (rows_a, rows_b)
    best = None
    if best_rows is not None:
        best = PartialDfa(n, ("a", "b"), tuple(
            tuple(UNDEF if m == 0 else m.bit_length() - 1 for m in row)
            for row in zip(*best_rows)))
    return ExtremalResult(n, target, best_rt, best, best_rt >= target, count)
