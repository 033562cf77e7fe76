"""Exact ground truth by BFS over the subset lattice.

Subsets are machine-word bit masks of at most 24 states (the desk-scale
guardrail), so a mask is three bytes.  Each letter has three 256-entry byte
tables (states 0-7, 8-15 and 16-23; the tables of states beyond n map to 0),
and the image of a mask is three unrolled lookups OR-ed together: the byte
indices are computed once per mask and shared by every letter.

The parent map stores only the mask a subset was first reached from, not
the letter.  Letters are tried in order for each mask, so the letter that
first reached t from m is the least a with image(m, a) == t; the witness
walk recomputes it, which costs at most k images per witness letter.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import or_

from .automaton import (UNDEF, PartialDfa, is_strongly_connected,
                        strongly_connected_masks)
from .constructions import duplicating
from .errors import InputError, SyncwordError

# Read by perfbench/run.py, which records it in each run's environment.
KERNEL_BACKEND = "python"

# Read by perfbench/traced.py, whose kernel parity step skips while it is None.
_bfs_c = None

MAX_ORACLE_STATES = 24


@dataclass(frozen=True)
class OracleReport:
    """Shortest-word lengths and witnesses per achievable rank.

    thresholds[r] = (length, word) for every rank r whose subsets are
    reachable from the full state set, including r = 0 when mortal words
    exist.  Witnesses are the lexicographically least among the shortest.
    """

    n: int
    thresholds: dict

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

    Returns a list indexed by subset size 0..n whose entries are the letter
    sequence of the first word reaching that size (the lexicographically
    least among the shortest), or None when unreachable.
    """
    n = dfa.n
    tables = _byte_tables(dfa)
    full = (1 << n) - 1

    parent = {full: None}
    queue = [full]
    while queue:
        nxt = []
        for m in queue:
            b0 = m & 0xFF
            b1 = (m >> 8) & 0xFF
            b2 = m >> 16
            for t0, t1, t2 in tables:
                t = t0[b0] | t1[b1] | t2[b2]
                if t not in parent:
                    parent[t] = m
                    nxt.append(t)
        queue = nxt

    # parent is in discovery (BFS) order: the first mask of each size wins
    first_mask = [None] * (n + 1)
    for t in reversed(parent):
        first_mask[t.bit_count()] = t

    out = [None] * (n + 1)
    for c, t in enumerate(first_mask):
        if t is None:
            continue
        letters = []
        while t != full:
            m = parent[t]
            b0 = m & 0xFF
            b1 = (m >> 8) & 0xFF
            b2 = m >> 16
            for a, (t0, t1, t2) in enumerate(tables):
                if t0[b0] | t1[b1] | t2[b2] == t:
                    break
            letters.append(a)
            t = m
        out[c] = letters[::-1]
    return out


def subset_bfs(dfa: PartialDfa) -> OracleReport:
    """Exact rank thresholds of dfa; error beyond the n <= 24 guardrail."""
    if dfa.n > MAX_ORACLE_STATES:
        raise InputError(f"oracle limited to {MAX_ORACLE_STATES} states, got {dfa.n}")
    thresholds = {}
    for size, letters in enumerate(_bfs_witnesses(dfa)):
        if letters is not None:
            word = tuple(letters)
            if dfa.rank(word) != size:
                raise SyncwordError(
                    f"kernel witness for rank {size} does not re-validate")
            thresholds[size] = (len(word), word)
    return OracleReport(dfa.n, thresholds)


def duplicating_identity_check(dfa: PartialDfa):
    """Verify rt(dup, r) = 2 rt(dfa, r) for every achievable 1 <= r < n.

    Also checks that interleaving the collecting letter into a base witness
    yields a rank-r word of doubled length in the duplicated automaton.
    Returns {r: (rt_base, rt_dup)}; a violated identity is an internal
    error, not an input condition.
    """
    if not is_strongly_connected(dfa):
        raise InputError("identity check needs a strongly connected automaton")
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
    dist = {full: 0}
    frontier = [full]
    while frontier:
        nxt = []
        for m in frontier:
            d = dist[m]
            for rows in (rows_a, rows_b):
                t = 0
                mm = m
                while mm:
                    low = mm & -mm
                    t |= rows[low.bit_length() - 1]
                    mm ^= low
                if t not in dist:
                    if t.bit_count() == 1:
                        return d + 1
                    dist[t] = d + 1
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

    Exhaustive up to n <= 6 (guardrail); the randomized profile is
    deterministic given (seed, trials).
    """
    if n < 2:
        raise InputError("need at least two states")
    if exhaustive and n > 6:
        raise InputError("exhaustive profile limited to n <= 6")
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
