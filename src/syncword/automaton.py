"""Partial DFA core: representation, word actions, basic predicates, file I/O.

States are dense indices 0..n-1.  A transition table entry is either a state
index or UNDEF (None); no implicit sink state exists.  Words are tuples of
letter indices into the automaton's alphabet.

All values are immutable after construction and all operations are pure:
==, hash and repr read only the fields a value was built from, and its
caches, set outside them and filled on use, never change a result.  They
differ in how they may be shared.  The caches of PartialDfa, the actions
of chunks and runs of chunks of letters that image fills and the record
of a passed strong-connectivity check, store equal values on concurrent
fills (racing threads may each add a run past the bound of 256), so
automata can be shared freely across threads.  A PairTable lists its
pairs on demand, from none at construction: its reads grow its arrays in
place and drop its settle masks, without a lock, so share one across
threads only once it is complete (after all_compressible).  The same
holds for an equivalence.Partition, which holds one: share it only after
part.table.all_compressible().

Three shared rules live here alone: require_strongly_connected, the one
refusal of every route, made once per automaton; predecessors, for the
pair BFS, Hopcroft's refinement and the collecting tree; and content_lines,
for both file formats.
"""
from __future__ import annotations

from array import array
from collections import deque
from itertools import islice

from .errors import (FormatError, InputError, NotStronglyConnected, Value,
                     require)

UNDEF = None

#: reserved letter token used by the collecting/duplicating constructions
GAMMA_TOKEN = "@g"

Word = tuple[int, ...]
EPSILON: Word = ()

#: the most transition-table cells (states x letters) parse_dfa and the
#: generators accept; at the cap, `classes` peaks near 0.36 GB (README)
MAX_CELLS = 1 << 20


def check_cells(n: int, k: int) -> None:
    """Refuse an n-state, k-letter table above MAX_CELLS before any of it
    is built."""
    if n * k > MAX_CELLS:
        raise InputError(f"{n} states x {k} letters is above the limit of "
                         f"{MAX_CELLS} transition-table cells")


#: the most index entries (elements squared) of a pair table that the
#: PairTable constructor accepts; it also takes at most 4 * MAX_PAIR_INDEX pair
#: transitions (elements squared times letters), so 4 letters at 4,096
#: elements.  At the cap, `sync check` takes about 4 s at 180 MB max RSS and
#: `classes` 1.4-1.9 s at 84 MB (README)
MAX_PAIR_INDEX = 1 << 24


def check_pair_table(n: int, k: int) -> None:
    """Refuse a pair table over n elements and k letters above the limits
    before any of it is built: n * n index entries above MAX_PAIR_INDEX,
    or n * n * k pair transitions above 4 * MAX_PAIR_INDEX."""
    if n * n > MAX_PAIR_INDEX:
        raise InputError(f"a pair table over {n} elements needs {n * n} "
                         f"index entries, above the limit of "
                         f"{MAX_PAIR_INDEX}")
    if n * n * k > 4 * MAX_PAIR_INDEX:
        raise InputError(f"a pair table over {n} elements and {k} letters "
                         f"needs {n * n * k} pair transitions, above the "
                         f"limit of {4 * MAX_PAIR_INDEX}")


class PartialDfa(Value):
    """A partial deterministic finite automaton (no initial/final states).

    trans[q][a] is the successor state or UNDEF.  The alphabet is an ordered
    tuple of distinct non-empty tokens; all tie-breaking everywhere in this
    package follows (letter order, then state order).  columns[a][q] ==
    trans[q][a].  columns, the caches of image (_chunks, _runs, _marks) and
    the strong-connectivity record (require_strongly_connected) are set
    after the fields, so ==, hash and repr use n, alphabet and trans alone.
    """

    _fields = ("n", "alphabet", "trans")

    def __post_init__(self):
        if self.n < 1:
            raise InputError("automaton needs at least one state")
        if not self.alphabet:
            raise InputError("automaton needs at least one letter")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise InputError("alphabet tokens must be distinct")
        if any(not tok for tok in self.alphabet):
            raise InputError("alphabet tokens must be non-empty")
        if len(self.trans) != self.n:
            raise InputError("transition table must have one row per state")
        for q, row in enumerate(self.trans):
            if len(row) != len(self.alphabet):
                raise InputError(f"state {q}: row width != alphabet size")
            for t in row:
                if t is not UNDEF and not (0 <= t < self.n):
                    raise InputError(f"state {q}: target {t} out of range")
        object.__setattr__(self, "_letter_index",
                           {tok: i for i, tok in enumerate(self.alphabet)})
        object.__setattr__(self, "columns", tuple(zip(*self.trans)))
        object.__setattr__(self, "_chunk_len", _chunk_length(len(self.alphabet)))
        object.__setattr__(self, "_chunks", {})
        object.__setattr__(self, "_runs", {})
        object.__setattr__(self, "_marks", set())
        object.__setattr__(self, "_strongly_connected", False)

    @classmethod
    def build(cls, n, alphabet, edges):
        """Construct from an iterable of (src, letter_token, dst) triples."""
        alphabet = tuple(alphabet)
        index = {tok: i for i, tok in enumerate(alphabet)}
        table = [[UNDEF] * len(alphabet) for _ in range(n)]
        for src, tok, dst in edges:
            table[src][index[tok]] = dst
        return cls(n, alphabet, tuple(tuple(row) for row in table))

    @property
    def states(self) -> frozenset[int]:
        return frozenset(range(self.n))

    def run(self, q: int, w: Word) -> int | None:
        """Follow w from q; UNDEF as soon as a transition is missing."""
        for a in w:
            if q is UNDEF:
                return UNDEF
            q = self.trans[q][a]
        return q

    def image(self, S, w: Word) -> frozenset[int]:
        """{delta(q, w) : q in S, delta(q, w) defined}.

        The one word replay on a set of states; only the oracle replays
        words on bit masks, for n <= 24.  w is applied in chunks of
        _chunk_len letters, the leftover letters one column at a time.
        Chunks group into runs of _RUN_CHUNKS, counted from the start of w
        (64 letters at k = 2): a run applies as one action from its second
        appearance on, as its chunks before that, when it is short or when
        the run cache is full (_actions).  A word that repeats no run pays
        one dict probe per run for the cache.
        """
        w = tuple(w)
        cur = set(S)
        L = self._chunk_len
        whole = len(w) - len(w) % L if L > 1 else 0
        for act in self._actions(w, whole):
            cur = set(map(act.__getitem__, cur))
            cur.discard(UNDEF)
            if not cur:
                return frozenset()
        cols = self.columns
        for a in w[whole:]:
            col = cols[a]
            cur = {col[q] for q in cur}
            cur.discard(UNDEF)
            if not cur:
                break
        return frozenset(cur)

    def _actions(self, w, whole):
        """The actions whose composition is w[:whole], a word of whole
        chunks, in order.  _chunks caches one action per chunk (at most 256,
        as _chunk_len keeps k**L <= 256) and _runs at most 256 run actions:
        a run is marked on its first appearance, in _marks (at most 256
        runs, cleared when full), and gets an action, composed of its
        chunks' actions, on its second."""
        L, runs, marks = self._chunk_len, self._runs, self._marks
        span = _RUN_CHUNKS * L
        for i in range(0, whole, span):
            run = w[i:min(i + span, whole)]
            act = runs.get(run)
            if act is None and len(run) == span and len(runs) < 256:
                if run in marks:
                    act = runs[run] = _Action(
                        [self._chunk(run[j:j + L]) for j in range(0, span, L)])
                else:
                    if len(marks) >= 256:
                        marks.clear()
                    marks.add(run)
            if act is not None:
                yield act
                continue
            # a first appearance, a short run or a full cache
            for j in range(0, len(run), L):
                yield self._chunk(run[j:j + L])

    def _chunk(self, chunk):
        act = self._chunks.get(chunk)
        if act is None:
            act = self._chunks[chunk] = _Action(
                [self.columns[a] for a in chunk])
        return act

    def preimage(self, S, w: Word) -> frozenset[int]:
        """{q : delta(q, w) in S}."""
        target = frozenset(S)
        return frozenset(q for q in range(self.n) if self.run(q, w) in target)

    def rank(self, w: Word) -> int:
        return len(self.image(self.states, w))

    def word(self, text: str) -> Word:
        """Parse a word from letter tokens.

        Accepts space-separated tokens, the empty text or (when '-' is not a
        letter) '-' for the empty word, and (when all alphabet tokens are
        single characters) an unseparated string such as 'bab'.
        """
        text = text.strip()
        if not text or (text == "-" and "-" not in self._letter_index):
            return EPSILON
        toks = text.split()
        if len(toks) == 1 and toks[0] not in self._letter_index \
                and all(len(t) == 1 for t in self.alphabet):
            toks = list(toks[0])
        try:
            return tuple(self._letter_index[t] for t in toks)
        except KeyError as exc:
            raise InputError(f"unknown letter {exc.args[0]!r}") from None

    def format_word(self, w: Word) -> str:
        """Space-separated letter tokens; the empty word is '-', or the
        empty text when '-' is a letter."""
        if not w and "-" not in self._letter_index:
            return "-"
        return " ".join(self.alphabet[a] for a in w)


def _chunk_length(k: int) -> int:
    """The largest L <= 8 with k**L <= 256 (at least 1), so an automaton
    over k letters caches at most 256 chunk actions."""
    L = 1
    while L < 8 and k ** (L + 1) <= 256:
        L += 1
    return L


#: chunks per run, the second cache level of PartialDfa.image
_RUN_CHUNKS = 8


class _Action(dict):
    """The action of a fixed word spelled by parts applied in order (the
    columns of its letters for a chunk, chunk actions for a run), filled
    state by state on first use: self[q] is q's image, or UNDEF."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        super().__init__()
        self.parts = parts

    def __missing__(self, q):
        t = q
        for part in self.parts:
            t = part[t]
            if t is UNDEF:
                break
        self[q] = t
        return t


def is_complete(dfa: PartialDfa) -> bool:
    return all(t is not UNDEF for row in dfa.trans for t in row)


def is_properly_incomplete(dfa: PartialDfa) -> bool:
    """Some letter has both a defined and an undefined entry."""
    return any(UNDEF in col and any(t is not UNDEF for t in col)
               for col in dfa.columns)


def fully_undefined_letters(dfa: PartialDfa) -> list[int]:
    """Letters with no defined entry at all.

    Permitted by the data model but worth flagging: such a letter can only
    ever start a mortal suffix.
    """
    return [a for a, col in enumerate(dfa.columns)
            if all(t is UNDEF for t in col)]


def _reaches_all(adj, n) -> bool:
    """Whether every state is reachable from state 0; adj[q] lists the
    neighbours of q, UNDEF entries skipped."""
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        for t in adj[stack.pop()]:
            if t is not UNDEF and not seen[t]:
                seen[t] = 1
                count += 1
                stack.append(t)
    return count == n


def is_strongly_connected(dfa: PartialDfa) -> bool:
    """Strong connectivity of the digraph of defined transitions: every
    state is reachable from state 0 along the transitions and against them.
    Memory is O(n k), one list of predecessors per state, for any n (k per
    state, as predecessors() builds, took 1.4-2.3 times as long at
    MAX_CELLS).  Only the extremal search, on tables of at most 24 states,
    checks with bit masks instead (oracle._reaches_zero)."""
    if not _reaches_all(dfa.trans, dfa.n):
        return False
    pred = [[] for _ in range(dfa.n)]
    for q, row in enumerate(dfa.trans):
        for t in row:
            if t is not UNDEF:
                pred[t].append(q)
    return _reaches_all(pred, dfa.n)


def require_strongly_connected(dfa: PartialDfa) -> None:
    """Refuse an automaton that is not strongly connected, as every route
    does: the reductions hold only for strongly connected input.  A passed
    check is recorded on dfa, so later calls on it check nothing."""
    if not (dfa._strongly_connected or is_strongly_connected(dfa)):
        raise NotStronglyConnected("the automaton is not strongly connected")
    object.__setattr__(dfa, "_strongly_connected", True)


def predecessors(trans, k):
    """inv[a][t], the states that letter a maps to t, ascending, for a
    table trans of rows of k entries (a state or UNDEF); inv[a][len(trans)]
    holds the states a leaves undefined."""
    n = len(trans)
    inv = [[[] for _ in range(n + 1)] for _ in range(k)]
    for q, row in enumerate(trans):
        for a, t in enumerate(row):
            inv[a][n if t is UNDEF else t].append(q)
    return inv


def is_eulerian(dfa: PartialDfa) -> bool:
    """Strongly connected with per-state out-degree == in-degree."""
    if not is_strongly_connected(dfa):
        return False
    indeg = [0] * dfa.n
    outdeg = [0] * dfa.n
    for q, row in enumerate(dfa.trans):
        for t in row:
            if t is not UNDEF:
                outdeg[q] += 1
                indeg[t] += 1
    return indeg == outdeg


def connecting_word(dfa: PartialDfa, p: int, q: int) -> Word:
    """Shortest word with delta(p, w) = q, ties broken by letter order.

    Always has length <= n-1.  Raises NotStronglyConnected when q is not
    reachable from p.
    """
    if p == q:
        return EPSILON
    prev: dict[int, tuple[int, int]] = {p: None}
    queue = deque([p])
    while queue:
        u = queue.popleft()
        for a in range(len(dfa.alphabet)):
            v = dfa.trans[u][a]
            if v is not UNDEF and v not in prev:
                prev[v] = (u, a)
                if v == q:
                    letters = []
                    while v != p:
                        u, a = prev[v]
                        letters.append(a)
                        v = u
                    return tuple(reversed(letters))
                queue.append(v)
    raise NotStronglyConnected(f"state {q} not reachable from state {p}")


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

    A new table lists nothing, index included.  While it is unlisted,
    least_pair answers for a subset that holds a distance-1 pair, and word
    for such a pair, from the settle masks (computed once, at
    construction, to seed the BFS, and kept in _masks until the table
    lists), so on automata with many undefined transitions the seeds, most
    of the table, are often never listed.  Otherwise reads list the seed
    level whole and grow the arrays in place, whole levels at a time, so
    the listed pairs are always levels 1..L of the complete table, in its
    order, and len(dist) counts the pairs listed so far (0 while
    unlisted).  all_compressible and items complete the table first;
    distance and word list the seeds, and complete the table before they
    answer that no word settles a pair.  _masks is None once the table
    lists and _bfs once it is complete.
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
            m = 0
            for _, settled in _settled_with(self.trans[e], *self._masks):
                m |= settled
            m &= later
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
        Stops when the image has no settled pair."""
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
            best = self.least_pair(rep)
            if best is None:
                return
            w = self.word(elem[best[1]], elem[best[2]])
            S, was = image(S, w), met

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


# ---------------------------------------------------------------------------
# dfa v1 file format
#
#   dfa v1
#   states <n>
#   alphabet <tok1> <tok2> ...
#   <src> <tok> <dst>          (omitted pairs are UNDEF)
#
# UTF-8, LF, '#' starts a comment; each (src, tok) at most once.
# ---------------------------------------------------------------------------

def _is_decimal(tok: str) -> bool:
    # str.isdigit alone also passes non-ASCII digits such as '²' or '０'
    return tok.isascii() and tok.isdigit()


def content_lines(text: str):
    """(line number, text) per line of a document, '#' comments and blanks
    stripped, that leaves any text; lines end at LF alone.  Lazy, so a
    reader that stops early never splits the rest."""
    no = start = 0
    while True:
        no += 1
        end = text.find("\n", start)
        stripped = text[start:end if end >= 0 else None] \
            .split("#", 1)[0].strip()
        if stripped:
            yield no, stripped
        if end < 0:
            return
        start = end + 1


def parse_dfa(text: str, allow_gamma: bool = False,
              pair_table: bool = False) -> PartialDfa:
    """Parse a `dfa v1` document; errors carry the offending line number.

    Set pair_table when a pair table over the states will be built: a
    table above the limits (check_pair_table) is then refused at the
    alphabet line, which like the states line comes before any
    transition."""
    items = content_lines(text)
    head = next(items, None)
    if head is None or head[1] != "dfa v1":
        raise FormatError("expected header 'dfa v1'",
                          line=head[0] if head else 1)
    states_item, alpha_item = next(items, None), next(items, None)
    if alpha_item is None:
        raise FormatError("missing 'states'/'alphabet' lines")

    no, states_line = states_item
    parts = states_line.split()
    if len(parts) != 2 or parts[0] != "states" or not _is_decimal(parts[1]):
        raise FormatError("expected 'states <n>'", line=no)
    n = int(parts[1])
    if n < 1:
        raise FormatError("need at least one state", line=no)

    no, alpha_line = alpha_item
    parts = alpha_line.split()
    if len(parts) < 2 or parts[0] != "alphabet":
        raise FormatError("expected 'alphabet <tok> ...'", line=no)
    alphabet = tuple(parts[1:])
    if len(set(alphabet)) != len(alphabet):
        raise FormatError("duplicate alphabet token", line=no)
    if not allow_gamma and GAMMA_TOKEN in alphabet:
        raise FormatError(f"token {GAMMA_TOKEN!r} is reserved", line=no)
    if pair_table:
        check_pair_table(n, len(alphabet))
    check_cells(n, len(alphabet))
    index = {tok: i for i, tok in enumerate(alphabet)}

    table = [[UNDEF] * len(alphabet) for _ in range(n)]
    for no, line in items:
        parts = line.split()
        if len(parts) != 3:
            raise FormatError("expected '<src> <tok> <dst>'", line=no)
        src_s, tok, dst_s = parts
        if not _is_decimal(src_s) or not _is_decimal(dst_s):
            raise FormatError("states must be decimal", line=no)
        src, dst = int(src_s), int(dst_s)
        if src >= n or dst >= n:
            raise FormatError(f"state out of range (states {n})", line=no)
        if tok not in index:
            raise FormatError(f"unknown letter {tok!r}", line=no)
        if table[src][index[tok]] is not UNDEF:
            raise FormatError(f"duplicate transition for ({src}, {tok})", line=no)
        table[src][index[tok]] = dst

    return PartialDfa(n, alphabet, tuple(tuple(row) for row in table))


def format_dfa(dfa: PartialDfa, comment: str | None = None) -> str:
    out = ["dfa v1"]
    if comment:
        out.extend(f"# {line}" for line in comment.split("\n"))
    out.append(f"states {dfa.n}")
    out.append("alphabet " + " ".join(dfa.alphabet))
    for q, row in enumerate(dfa.trans):
        for a, t in enumerate(row):
            if t is not UNDEF:
                out.append(f"{q} {dfa.alphabet[a]} {t}")
    return "\n".join(out) + "\n"
