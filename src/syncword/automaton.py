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
automata can be shared freely across threads; pair tables may not
(syncword.pairs).

Four shared rules live here alone: require_strongly_connected, the one
refusal of every route, made once per automaton; predecessors, for the
pair BFS, Hopcroft's refinement and the collecting tree; bfs_tree, the
breadth-first tree of connecting words and of the collecting tree; and
content_lines, for both file formats.
"""
from __future__ import annotations

from collections import deque

from .errors import FormatError, InputError, NotStronglyConnected, Value

UNDEF = None

#: reserved letter token used by the collecting/duplicating constructions
GAMMA_TOKEN = "@g"

Word = tuple[int, ...]
EPSILON: Word = ()

#: the most transition-table cells (states x letters) of any automaton: the
#: PartialDfa constructor refuses more.  At the cap, `classes` peaks near
#: 0.6 GB, on one state with 2**20 letters (README)
MAX_CELLS = 1 << 20


def check_cells(n: int, k: int) -> None:
    """Refuse an n-state, k-letter table above MAX_CELLS before any of it
    is built."""
    if n * k > MAX_CELLS:
        raise InputError(f"{n} states x {k} letters is above the limit of "
                         f"{MAX_CELLS} transition-table cells")


#: the most index entries (elements squared) of a pair table that the
#: pairs.PairTable constructor accepts; it also takes at most
#: 4 * MAX_PAIR_INDEX pair transitions (elements squared times letters), so
#: 4 letters at 4,096 elements.  At the cap, `sync check` takes about 4 s at
#: 180 MB max RSS and `classes` 1.4-1.9 s at 84 MB (README)
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
    trans[q][a].  columns, the caches of image (_chunks, _runs) and
    the strong-connectivity record (require_strongly_connected) are set
    after the fields, so ==, hash and repr use n, alphabet and trans alone.
    """

    _fields = ("n", "alphabet", "trans")

    def __post_init__(self):
        if self.n < 1:
            raise InputError("automaton needs at least one state")
        if not self.alphabet:
            raise InputError("automaton needs at least one letter")
        check_cells(self.n, len(self.alphabet))
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
        object.__setattr__(self, "_strongly_connected", False)

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
        appearance on, as its chunks on its first or when it is short
        (_actions).  A word that repeats no run pays one dict probe and
        one empty action per run for the cache.
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
        as _chunk_len keeps k**L <= 256) and _runs one action per run of
        _RUN_CHUNKS chunks (at most 256, cleared when full).  A run's first
        appearance files a still-empty action over its chunks' actions and
        applies those; its later ones apply that action."""
        L, runs = self._chunk_len, self._runs
        span = _RUN_CHUNKS * L
        for i in range(0, whole, span):
            run = w[i:min(i + span, whole)]
            act = runs.get(run)
            if act is not None:
                yield act
                continue
            parts = [self._chunk(run[j:j + L]) for j in range(0, len(run), L)]
            if len(run) == span:
                if len(runs) >= 256:
                    runs.clear()
                runs[run] = _Action(parts)
            yield from parts

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


def bfs_tree(start, steps) -> dict:
    """Breadth-first tree from start: {node: (letter, parent)} for every
    node reached, start mapped to None.  steps(u) yields the (letter, node)
    edges out of u in tie-break order; a node keeps the first edge that
    reaches it, so each path back to start is a shortest one and, among
    those, the least in that order."""
    tree = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for a, v in steps(u):
            if v not in tree:
                tree[v] = (a, u)
                queue.append(v)
    return tree


def connecting_word(dfa: PartialDfa, p: int, q: int) -> Word:
    """Shortest word with delta(p, w) = q, ties broken by letter order.

    Always has length <= n-1.  Raises NotStronglyConnected when q is not
    reachable from p.
    """
    trans = dfa.trans
    tree = bfs_tree(p, lambda u: ((a, v) for a, v in enumerate(trans[u])
                                  if v is not UNDEF))
    if q not in tree:
        raise NotStronglyConnected(f"state {q} not reachable from state {p}")
    letters = []
    while q != p:
        a, q = tree[q]
        letters.append(a)
    return tuple(reversed(letters))


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
