"""Exact ground truth by BFS over the subset lattice.

The hot loop lives in a compiled kernel (syncword._bfs_c) when the extension
was built, with a pure-Python twin as fallback; both produce identical
output, including tie-breaking.  Desk-scale guardrail: n <= 24.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import or_

from .automaton import (UNDEF, PartialDfa, is_strongly_connected,
                        strongly_connected_masks)
from .constructions import duplicating
from .errors import InputError, SyncwordError
from . import _bfs_py

try:
    from . import _bfs_c
    _DEFAULT_KERNEL = _bfs_c
except ImportError:
    _bfs_c = None
    _DEFAULT_KERNEL = _bfs_py

KERNEL_BACKEND = _DEFAULT_KERNEL.BACKEND

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


def _flat_table(dfa: PartialDfa):
    k = len(dfa.alphabet)
    flat = [0] * (dfa.n * k)
    for q in range(dfa.n):
        for a in range(k):
            t = dfa.trans[q][a]
            flat[q * k + a] = -1 if t is UNDEF else t
    return flat


def subset_bfs(dfa: PartialDfa, backend: str | None = None) -> OracleReport:
    """Exact rank thresholds of dfa; error beyond the n <= 24 guardrail."""
    if dfa.n > MAX_ORACLE_STATES:
        raise InputError(f"oracle limited to {MAX_ORACLE_STATES} states, got {dfa.n}")
    if backend is None:
        kernel = _DEFAULT_KERNEL
    elif backend == "python":
        kernel = _bfs_py
    elif backend == "c":
        if _bfs_c is None:
            raise InputError("compiled kernel is not available")
        kernel = _bfs_c
    else:
        raise InputError(f"unknown kernel backend {backend!r}")
    k = len(dfa.alphabet)
    raw = kernel.bfs_thresholds(dfa.n, k, _flat_table(dfa))
    thresholds = {}
    for size, letters in enumerate(raw):
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
