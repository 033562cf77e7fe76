"""Exact ground truth by BFS over the subset lattice.

Subsets are machine-word bit masks of at most 24 states (the desk-scale
guardrail), so a mask is three bytes of an array('i') item.  Images are
computed a block of a level at a time, in C: the block's bytes 0, 1 and 2
are sliced out of the array's buffer, each goes through bytes.translate
with one 256-byte table per (letter, input byte, output byte) (tables that
map to no state are dropped, so at most 8 states take one translate per
letter), the translated bytes of one output byte are OR-ed as
int.from_bytes values, and the results are interleaved into an array('i')
of images in (mask, letter) order.  A block holds at most
_BLOCK_IMAGES images (and at least one mask), so the transient buffers do
not grow with the level or the alphabet.  The one Python loop per image is
the seen-check, which walks the images in that order and appends each new
mask and its source.

The search keeps no dict.  While the reachable lattice is sparse, the
subsets already reached are a set of masks.  At the first level boundary
where the set holds more than 2**n / 512 masks, they move into a bytearray
of 2**n bytes indexed by mask, which marks them for the rest of the search.
A mask costs the set 64 to 137 bytes and the map one byte, reached or not,
so at that count the set is about a quarter of the map's size.  Dense
lattices move to the map within their first few levels; a lattice that
stays below the count never allocates it: duplicating(gen_cerny(12))
reaches 8,192 of 2**24 subsets and peaks at 0.8 MiB under tracemalloc,
where the map would be 16 MiB (`syncword verify duplicating` on the 12-state
cycle: 17.4 MB max RSS).  Only the frontier level is kept, as an
array('i') of masks in discovery order.  For every reached mask the search
stores its source, the index p * k + a of the image that first reached it
(p the parent's position in the previous level, a the letter), in one
array per level: array('i') while k * 2**n <= 2**31 (a level holds fewer
than 2**n masks, so the index fits), else array('q').  Memory is the set
or the map, 4 bytes of source per reached subset (8 past that bound), the
frontier's masks, and 36 to 72 bytes per mask of the level being built,
which is a Python list (gen_cerny(16) peaks at 0.34 MiB, about 5.5 bytes
per subset).  As each level closes, the first mask of
every new subset size is recorded as a (level, position) pair.  Images are
walked in (mask, letter) order, so the source of a mask is its first
parent under the least letter that reaches it, and a witness reads back to
the full set with one divmod per level.

The work is the reached subsets times the letters, which n <= 24 alone does
not bound: 64 letters over the 22-state cycle would take about 12 s.  The
search counts the images it computes and, at the first level boundary past
MAX_ORACLE_IMAGES, refuses the input with an InputError; the binary full
lattice at n = 24 stays below that budget.  `syncword oracle` on
gen_cerny(24) takes 2.8 s at 106 MB max RSS, and on the 22-state cycle
with its letters copied out to 64 exits 2 in 1.4 s at 28 MB (Python
3.11.7, 2-vCPU VM).
"""
from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, permutations, product
from math import factorial
from operator import or_

from .automaton import UNDEF, PartialDfa, is_strongly_connected
from .errors import InputError, NotStronglyConnected, SyncwordError

# Read by perfbench/run.py, which records it in each run's environment.
KERNEL_BACKEND = "python"

# Read by perfbench/traced.py, whose kernel parity step skips while it is None.
_bfs_c = None

MAX_ORACLE_STATES = 24

# The most images (reached subsets times letters) the subset BFS computes
# before it refuses the input: the binary full lattice at n = 24 computes
# 2 * (2**24 - 1), just below it.  The search runs at about 25 million
# images a second, so the budget is a few seconds; the cycle family at
# n = 22 with its letters copied out to 64 would need 2**28 images.
MAX_ORACLE_IMAGES = 1 << 25

# Bytes a reached mask costs the subset BFS's set: its slot in a hash table
# kept at most 60 % full plus the int object, 64 to 137 bytes under
# tracemalloc.  The search moves to the 2**n-byte map once the set would
# take more than a quarter of it.
_SET_ENTRY_BYTES = 128
_SPARSE_DIVISOR = 4 * _SET_ENTRY_BYTES

# Images computed per block: a level is read in blocks of this many images
# (at least one mask), so the transient buffers do not grow with the level.
_BLOCK_IMAGES = 1 << 13

# Offsets of the bytes 0, 1 and 2 of a mask in an array('i') item.
_OFFSETS = (0, 1, 2) if sys.byteorder == "little" else (3, 2, 1)


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


def _translate_tables(dfa: PartialDfa):
    """The image plan of dfa: one (slot, pieces) entry per letter a and
    output byte o that some state maps into.

    slot is the offset of byte o of the image under a in a block of images
    laid out as (mask, letter); pieces holds (i, table) for every input byte
    i that contributes, where table[bv] is byte o of the image under a of
    the states that byte value bv encodes at byte i.
    """
    width = (dfa.n + 7) >> 3
    plan = []
    for a, column in enumerate(dfa.columns):
        tbit = [0] * (8 * width)
        for q, t in enumerate(column):
            if t is not UNDEF:
                tbit[q] = 1 << t
        images = []
        for i in range(width):
            tab = [0] * 256
            for bv in range(1, 256):
                low = bv & -bv
                tab[bv] = tab[bv ^ low] | tbit[8 * i + low.bit_length() - 1]
            images.append(array("i", tab).tobytes())
        for o in range(width):
            pieces = tuple((i, raw[_OFFSETS[o]::4])
                           for i, raw in enumerate(images))
            pieces = tuple(p for p in pieces if any(p[1]))
            if pieces:
                plan.append((4 * a + _OFFSETS[o], pieces))
    return plan


def _images(masks, k, plan):
    """The images of masks (an array('i')) under the k letters of plan, as
    an array('i') in (mask, letter) order."""
    raw = masks.tobytes()
    columns = [raw[off::4] for off in _OFFSETS]
    count = len(masks)
    stride = 4 * k
    out = bytearray(stride * count)
    for slot, pieces in plan:
        v = 0
        for i, table in pieces:
            v |= int.from_bytes(columns[i].translate(table), "little")
        out[slot::stride] = v.to_bytes(count, "little")
    images = array("i")
    images.frombytes(out)
    return images


def _bfs_witnesses(dfa: PartialDfa):
    """Breadth-first search over the subset lattice from the full set.

    Returns (words, subsets, depth): words is a list indexed by subset size
    0..n whose entries are the letter sequence of the first word reaching
    that size (the lexicographically least among the shortest), or None
    when unreachable; subsets counts the masks reached and depth is the
    last nonempty BFS level.
    """
    n = dfa.n
    k = len(dfa.alphabet)
    plan = _translate_tables(dfa)
    full = (1 << n) - 1
    block = max(1, _BLOCK_IMAGES // k)

    seen = {full}  # a bytearray indexed by mask once the lattice is dense
    sparse = True
    sparse_limit = (1 << n) // _SPARSE_DIVISOR
    # a source p * k + a is below k * 2**n: a level holds fewer than 2**n masks
    code = "i" if k << n <= 1 << 31 else "q"
    level = array("i", (full,))
    sources = [None]  # d -> the image that first reached each mask at level d
    first = [None] * (n + 1)  # size -> (level, index) of its first mask
    first[n] = (0, 0)
    found = {n}
    subsets = 1
    while True:
        # appending Python ints is cheaper to a list than to an array, so a
        # level and its sources become arrays only once the level is complete
        nxt = []
        src = []
        for s in range(0, len(level), block):
            images = _images(level[s:s + block], k, plan)
            if sparse:
                for j, t in enumerate(images, s * k):
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
                        src.append(j)
            else:
                for j, t in enumerate(images, s * k):
                    if not seen[t]:
                        seen[t] = 1
                        nxt.append(t)
                        src.append(j)
        if not nxt:
            break
        # every subset reached so far has been imaged under every letter
        if k * subsets > MAX_ORACLE_IMAGES:
            raise InputError(
                f"the subset BFS computed {k * subsets} images (reached "
                f"subsets times {k} letters) by level {len(sources)}, above "
                f"the limit of {MAX_ORACLE_IMAGES}")
        new = set(map(int.bit_count, nxt)) - found
        found |= new
        for j, t in enumerate(nxt):
            if not new:
                break
            c = t.bit_count()
            if c in new:
                new.remove(c)
                first[c] = (len(sources), j)
        subsets += len(nxt)
        level = array("i", nxt)
        sources.append(array(code, src))
        if sparse and len(seen) > sparse_limit:
            marks = bytearray(1 << n)
            for t in seen:
                marks[t] = 1
            seen = marks
            sparse = False

    # read each witness back to the full set, one divmod per level
    out = [None] * (n + 1)
    for c, pos in enumerate(first):
        if pos is None:
            continue
        d, j = pos
        letters = []
        while d:
            j, a = divmod(sources[d][j], k)
            letters.append(a)
            d -= 1
        out[c] = letters[::-1]
    return out, subsets, len(sources) - 1


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


def _reaches_zero(succ, n):
    """Whether every state reaches state 0 along the successor bit masks
    succ.  Sweeps the states from n - 1 down to 1, adding each state with a
    successor known to reach 0, until a sweep adds none.  Downwards, a
    strongly connected BFS-canonical table at n = 5 takes 1.7 sweeps on
    average, against 2.3 upwards."""
    full = (1 << n) - 1
    back = 1
    while back != full:
        more = back
        for q in range(n - 1, 0, -1):
            if succ[q] & more:
                more |= 1 << q
        if more == back:
            return False
        back = more
    return True


def _canonical_tables(n):
    """The BFS-canonical strongly connected binary tables with exactly one
    undefined (state, letter) slot, lazily, as flat tuples of target bit
    masks: slot 2*q + a holds 1 << t for the transition q -a-> t, or 0 at
    the undefined slot.

    A table is canonical when its states are numbered in the order a
    breadth-first search from state 0 meets them, reading the slots in
    order: state j >= 1 first appears as a target in a slot below 2*j, and
    after the first appearances of 1..j-1.  Such a table reaches every
    state from 0, so only the way back to 0 is checked.  Each undefined
    slot and each choice of first-appearance slots fixes the choices of the
    other slots (any state met before the slot), which run in product order.
    """
    slots = 2 * n
    masks = [1 << t for t in range(n)]
    for hole in range(slots):
        free = [i for i in range(slots) if i != hole]
        for firsts in combinations(free, n - 1):
            if any(f >= 2 * j for j, f in enumerate(firsts, 1)):
                continue
            choices = [None] * slots
            choices[hole] = (0,)
            met = 1
            for i in free:
                if met < n and i == firsts[met - 1]:
                    choices[i] = (masks[met],)
                    met += 1
                else:
                    choices[i] = masks[:met]
            for flat in product(*choices):
                if _reaches_zero(tuple(map(or_, flat[0::2], flat[1::2])), n):
                    yield flat


def _least_relabeling(n, tables):
    """The least relabeling of the flat tables, in the order of the
    labelled enumeration: undefined slot first, then the targets slot by
    slot."""
    best = None
    for flat in tables:
        for label in permutations(range(n)):
            new = [0] * (2 * n)
            for i, m in enumerate(flat):
                if m:
                    t = label[m.bit_length() - 1]
                    new[2 * label[i >> 1] + (i & 1)] = 1 << t
            key = (new.index(0), new)
            if best is None or key < best:
                best = key
    return best[1]


def _extremal_exhaustive(n):
    """(best_rt, best flat table, candidates) over every labelled one-hole
    binary table on n states; the search visits the canonical ones only."""
    best_rt = -1
    best = []
    count = 0
    for flat in _canonical_tables(n):
        count += 1
        rt = _rt_bitmask(flat[0::2], flat[1::2], n)
        if rt is None or rt < best_rt:
            continue
        if rt > best_rt:
            best_rt = rt
            best = []
        best.append(flat)
    winner = _least_relabeling(n, best) if best else None
    return best_rt, winner, factorial(n - 1) * count


def _extremal_random(n, seed, trials):
    """(best_rt, first best flat table, candidates) over trials random
    one-hole binary tables drawn from Lcg64(seed)."""
    from .generators import Lcg64
    rng = Lcg64(seed)
    full = (1 << n) - 1
    best_rt = -1
    best = None
    count = 0
    for _ in range(trials):
        hole = 2 * rng.below(n) + rng.below(2)
        flat = [1 << rng.below(n) for _ in range(2 * n)]
        flat[hole] = 0
        rows_a, rows_b = flat[0::2], flat[1::2]
        # most union graphs leave some state without an in-edge, which
        # rules out strong connectivity at once
        union = tuple(map(or_, rows_a, rows_b))
        if reduce(or_, union) != full or not _reaches_zero(union, n):
            continue
        # state 0 reaches every state: every state reaches 0 backwards
        pred = [0] * n
        for i, m in enumerate(flat):
            if m:
                pred[m.bit_length() - 1] |= 1 << (i >> 1)
        if not _reaches_zero(pred, n):
            continue
        count += 1
        rt = _rt_bitmask(rows_a, rows_b, n)
        if rt is not None and rt > best_rt:
            best_rt = rt
            best = flat
    return best_rt, best, count


def extremal_search(n, exhaustive=True, seed=0, trials=10000) -> ExtremalResult:
    """Search binary properly incomplete strongly connected automata with a
    single deficient state for the largest reset threshold.

    The exhaustive profile covers every labelled table with one undefined
    slot, but visits only the BFS-canonical ones (_canonical_tables; see
    Almeida, Moreira & Reis, TCS 2007, and Kisielewicz & Szykula, CIAA
    2013) and runs one reset-threshold BFS per canonical strongly connected
    table.  Its results are those of the labelled enumeration:

    - candidates, the labelled strongly connected tables, is (n-1)! times
      the canonical count.  Each labelled table paired with one of its n
      start states has exactly one canonical form, its BFS relabeling.
      Each canonical form comes from exactly n! such pairs: relabelings by
      two permutations that give the same table and start differ by an
      automorphism fixing the start, and an automorphism of an automaton
      whose every state is reachable from the start fixes each state along
      the path that reaches it, so it is the identity.  Hence n times the
      labelled count is n! times the canonical count.
    - best_dfa is the first table the labelled enumeration would meet with
      the best reset threshold (undefined slot first, then the targets in
      slot order): the least relabeling of the canonical tables that reach
      best_rt, since relabeling keeps the reset threshold.

    Exhaustive up to n <= 5 (guardrail: n = 5 takes about 0.6 s and 16 MB);
    the randomized profile draws every table from Lcg64(seed), is
    deterministic given (seed, trials) and limited to MAX_ORACLE_STATES
    states, since each candidate's reset threshold is a BFS over the same
    subset lattice as the oracle's.

    The one-hole maximum against (n^2 - n)/2 is 1 = 1, 3 = 3, 6 = 6, 9 < 10
    and 13 < 15 for n = 2..6, so the target is attained only up to n = 4.
    n = 6, past the guardrail (_extremal_exhaustive(6)), visits 5,116,092
    canonical tables standing for 613,931,040 labelled ones in 29.6 s at
    16.2 MB max RSS (Python 3.11.7, 2-vCPU VM); its least winner is
    ((None, 1), (2, 2), (3, 3), (4, 5), (1, 4), (0, 1)).  More holes do not
    help: a one-off enumeration of every BFS-canonical strongly connected
    binary table gave the maximum reset threshold per number of undefined
    slots 0..4 at n = 4 as 9, 6, 4, 3, 2, and for 0..5 at n = 5 (320,253
    tables, about 2 s) as 16, 9, 6, 5, 4, 2, so no table with a hole reaches
    (n^2 - n)/2 = 10 at n = 5.  No package check covers this yet.
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
    best_rt, flat, count = (_extremal_exhaustive(n) if exhaustive
                            else _extremal_random(n, seed, trials))
    best = None
    if flat is not None:
        best = PartialDfa(n, ("a", "b"), tuple(
            tuple(UNDEF if m == 0 else m.bit_length() - 1
                  for m in flat[q:q + 2])
            for q in range(0, 2 * n, 2)))
    return ExtremalResult(n, target, best_rt, best, best_rt >= target, count)
