"""Finite prefix codes and their literal automata.

The literal automaton has the proper prefixes of the code as states; reading
a codeword returns to the root, so it recognizes X* and doubles as a decoder
skeleton.  One-word codes synchronize via a conjugate split (Weinbaum);
larger codes admit a word of linear length and logarithmic rank, built in
two phases around the unique pivot state where the prefix tree first
branches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .automaton import (EPSILON, UNDEF, PartialDfa, Word, check_cells,
                        is_strongly_connected)
from .errors import FormatError, InputError, NotSynchronizing, SyncwordError

ENUMERATION_CAP = 2 ** 22

#: the most codeword letters, summed over the code, that literal_automaton
#: accepts.  The costs that grow with the square of the total length stay
#: below MAX_CODE_LETTERS squared: the characters of the proper prefixes
#: and Weinbaum's split of a one-word code.  At the cap, `code reset` on one
#: word takes 8 s (README).
MAX_CODE_LETTERS = 1 << 13


@dataclass(frozen=True)
class PrefixCode:
    """Non-empty, duplicate-free set of codewords, none a prefix of another."""

    words: tuple[str, ...]

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(sorted({ch for w in self.words for ch in w}))

    @property
    def total_length(self) -> int:
        return sum(len(w) for w in self.words)


def validate_code(words) -> PrefixCode:
    words = tuple(words)
    if not words:
        raise InputError("a code needs at least one codeword")
    for w in words:
        if not w:
            raise InputError("codewords must be non-empty")
        # letters become tokens of the literal automaton, which whitespace
        # would split
        if any(ch.isspace() for ch in w):
            raise InputError(f"codeword {w!r} contains whitespace")
    seen = {}
    for i, w in enumerate(words):
        if w in seen:
            raise InputError(f"duplicate codeword {w!r}")
        seen[w] = i
    # in lexicographic order the words a codeword is a prefix of follow it
    # directly, so comparing neighbours finds every prefix pair
    ordered = sorted(words)
    for u, v in zip(ordered, ordered[1:]):
        if v.startswith(u):
            raise InputError(f"codeword {u!r} is a prefix of {v!r}")
    return PrefixCode(words)


@dataclass(frozen=True)
class LiteralAutomaton:
    """Partial DFA on the proper prefixes of a prefix code.

    States are the proper prefixes in lexicographic order, so the root
    (empty prefix) is state 0; height is the longest codeword length minus
    one.
    """

    code: PrefixCode
    dfa: PartialDfa
    prefixes: tuple[str, ...]
    state_of: dict
    height: int

    @property
    def root(self) -> int:
        return 0

    def letters(self, s: str) -> Word:
        """The word spelling s, one letter per character."""
        return tuple(map(self.dfa.alphabet.index, s))


def check_code_letters(code: PrefixCode) -> None:
    """Refuse a code of more than MAX_CODE_LETTERS letters in total."""
    if code.total_length > MAX_CODE_LETTERS:
        raise InputError(f"a code of {code.total_length} letters is above the "
                         f"limit of {MAX_CODE_LETTERS} codeword letters")


def literal_automaton(code: PrefixCode) -> LiteralAutomaton:
    """Refuses, before building any prefix, a code of more than
    MAX_CODE_LETTERS letters in total, and before building the table, one
    whose prefixes times letters are above MAX_CELLS."""
    check_code_letters(code)
    codewords = set(code.words)
    prefixes = sorted({w[:i] for w in codewords for i in range(len(w))})
    alphabet = code.alphabet
    check_cells(len(prefixes), len(alphabet))
    state_of = {p: i for i, p in enumerate(prefixes)}
    table = []
    for p in prefixes:
        row = []
        for ch in alphabet:
            ext = p + ch
            if ext in codewords:
                row.append(state_of[""])
            elif ext in state_of:
                row.append(state_of[ext])
            else:
                row.append(UNDEF)
        table.append(tuple(row))
    dfa = PartialDfa(len(prefixes), alphabet, tuple(table))
    if not is_strongly_connected(dfa):
        raise SyncwordError("literal automata are strongly connected")
    height = max(len(w) for w in codewords) - 1
    return LiteralAutomaton(code, dfa, tuple(prefixes), state_of, height)


def primitive_root(x: str) -> tuple[str, int]:
    """The primitive y and maximal k with x = y^k.

    x is a power of its length-p prefix iff p divides |x| and x has period p,
    so it suffices to scan the divisors in increasing order.
    """
    if not x:
        raise InputError("empty word has no primitive root")
    n = len(x)
    for p in range(1, n + 1):
        if n % p == 0 and x == x[:p] * (n // p):
            return x[:p], n // p
    raise AssertionError("unreachable: every word is a power of itself")


def one_word_rank(code: PrefixCode) -> int:
    """Minimal non-zero rank of the literal automaton of a one-word code:
    the power k in x = y^k."""
    if len(code.words) != 1:
        raise InputError("defined for one-word codes only")
    return primitive_root(code.words[0])[1]


def _cyclic_overlaps(x: str) -> list[int]:
    """m[s] = max over t != s of the length of the longest common prefix of
    the rotations of x starting at s and at t.

    One backward sweep per shift d over x x x: run counts the letters that
    agree from p and p + d on.  Rotations of a primitive word differ, so an
    overlap is below |x| and a sweep from 2|x| - 1 down never truncates the
    runs at p < |x|.
    """
    n = len(x)
    y = x * 3
    m = [0] * n
    for d in range(1, n):
        run = 0
        for p in range(2 * n - 1, -1, -1):
            run = run + 1 if y[p] == y[p + d] else 0
            if p < n and run > m[p]:
                m[p] = run
    return m


def weinbaum_conjugate(x: str, lit: LiteralAutomaton) -> tuple[str, str]:
    """A conjugate x' = uv of the primitive word x such that the actions of
    both u and v are defined for exactly one state each (so both are reset
    words; the shorter one has length at most |x|/2).

    In the literal automaton of {x}, a word is defined at state s iff it
    occurs in the cyclic word x at position s, so the factor of length L
    at position s is defined at s alone iff L > m[s] (_cyclic_overlaps).
    Conjugates and split points are scanned in order, and the first split
    whose two parts pass this test is returned (Weinbaum, "Unique subwords
    in nonperiodic words", 1990, proves that one exists).
    """
    if primitive_root(x)[1] != 1:
        raise InputError(f"{x!r} is not primitive")
    if lit.code.words != (x,):
        raise InputError("literal automaton must belong to the one-word code")
    n = len(x)
    if n == 1:
        # a single state, which the empty word already resets
        return "", x
    m = _cyclic_overlaps(x)
    for i in range(n):
        for j in range(1, n):
            if j > m[i] and n - j > m[(i + j) % n]:
                conj = x[i:] + x[:i]
                return conj[:j], conj[j:]
    raise SyncwordError("no conjugate split found for a primitive word")


def pivot_walk(lit: LiteralAutomaton):
    """(path, letters, pivot, pivot letters) of the walk from the root to
    the pivot, the first state with >= 2 defined letters: letters[i] is the
    one letter defined at path[i], so letters[i:] leads from path[i] to the
    pivot, and the pivot letters are the two least defined there."""
    if len(lit.code.words) < 2:
        raise InputError("pivot exists only for codes with at least two words")
    trans = lit.dfa.trans
    path, letters = [], []
    q = lit.root
    for _ in range(lit.dfa.n + 1):
        defined = [a for a, t in enumerate(trans[q]) if t is not UNDEF]
        if len(defined) >= 2:
            return tuple(path), tuple(letters), q, (defined[0], defined[1])
        path.append(q)
        letters.append(defined[0])
        q = trans[q][defined[0]]
    raise AssertionError("unreachable: a multi-word code has a branching state")


def filtering_alpha(lit: LiteralAutomaton, pivot: int, w: Word) -> Word:
    """The filtering pass: consume the next letter of w while the pivot is
    active, otherwise apply the least letter that keeps the active set
    alive.  Stops when w is exhausted with the pivot active or the output
    reaches the height; the output is never mortal.
    """
    dfa = lit.dfa
    active = dfa.states
    out = []
    rest = iter(w)
    while len(out) < lit.height:
        if pivot in active:
            a = next(rest, None)
            if a is None:
                break
            nxt = dfa.image(active, (a,))
        else:
            for a in range(len(dfa.alphabet)):
                nxt = dfa.image(active, (a,))
                if nxt:
                    break
        active = nxt
        out.append(a)
        if not active:
            raise SyncwordError("filtering never applies a mortal letter")
    return tuple(out)


def _passes_through_root(lit: LiteralAutomaton, w: Word) -> bool:
    """Every state surviving w visits the root under some prefix of w.

    T is the image of the states that have not met the root yet, so w
    passes iff T ends empty.
    """
    dfa, root = lit.dfa, lit.root
    T = dfa.states - {root}
    for a in w:
        if not T:
            break
        T = dfa.image(T, (a,)) - {root}
    return not T


def _through_root_candidates(lit: LiteralAutomaton):
    """Filtered words with the all-through-root property, in the
    lexicographic order of the pivot-letter inputs they come from."""
    h, n = lit.height, lit.dfa.n
    length = max(1, (h * n - 1).bit_length())
    if 2 ** length > ENUMERATION_CAP:
        raise InputError(
            f"candidate enumeration 2^{length} exceeds cap {ENUMERATION_CAP}")
    _, _, p, (la, lb) = pivot_walk(lit)
    for bits in range(2 ** length):
        w = tuple(lb if (bits >> (length - 1 - i)) & 1 else la
                  for i in range(length))
        candidate = filtering_alpha(lit, p, w)
        if _passes_through_root(lit, candidate):
            yield candidate


def all_through_root_word(lit: LiteralAutomaton) -> Word:
    """A filtered word under which every surviving state passes through the
    root: the first success among the filtered images of all words of length
    ceil(log2(h n)) over the two pivot letters.  Existence is a theorem, so
    running out of candidates is an internal error.
    """
    if len(lit.code.words) < 2:
        raise InputError("needs a code with at least two words")
    if lit.height == 0:
        return EPSILON
    for candidate in _through_root_candidates(lit):
        return candidate
    raise SyncwordError("no all-through-root word found")


def compress_path_word(lit: LiteralAutomaton, R) -> Word:
    """Halving loop mapping the surviving path states into a set of at most
    ceil(log2 h) states: route the deepest active path state to the pivot,
    then apply whichever pivot letter kills at least half of the remaining
    active path states (alphabet-least on ties).
    """
    dfa = lit.dfa
    R = frozenset(R)
    if not R <= dfa.states:
        raise InputError("R must be a set of states")
    path, letters, p, (la, lb) = pivot_walk(lit)
    depth = {q: i for i, q in enumerate(path)}

    active = set(R) & set(path)
    if not active:
        return EPSILON
    out = []
    while True:
        deepest = max(active, key=depth.get)
        # forced letters from the deepest path state to the pivot
        ell = letters[depth[deepest]:]
        moved = dfa.image(active, ell)
        out.extend(ell)
        if p not in moved:
            raise SyncwordError("the forced letters must reach the pivot")
        survivors = {q for q in moved if q in depth}           # drop the pivot
        if len(survivors) > max(0, len(active) - 1):
            raise SyncwordError("routing to the pivot must drop a path state")
        if not survivors:
            break
        half = (len(survivors) + 1) // 2
        kills = {a: sum(1 for q in survivors if dfa.trans[q][a] is UNDEF)
                 for a in (la, lb)}
        choice = next(a for a in sorted((la, lb)) if kills[a] >= half)
        out.append(choice)
        nxt = dfa.image(survivors, (choice,))
        if len(nxt & frozenset(depth)) > len(active) // 2:
            raise SyncwordError("the pivot letter must halve the path states")
        active = set(nxt) & set(depth)
        if len(out) >= lit.height or not active:
            break
    if len(out) > lit.height:
        raise SyncwordError("path word must not exceed the height")
    return tuple(out)


def log_rank_bound(lit: LiteralAutomaton) -> int:
    """ceil(log2 hn) + ceil(log2 h), the rank bound of log_rank_word, for
    height h and n states; 1 at height 0, where the automaton has one state."""
    h = lit.height
    if h == 0:
        return 1
    return math.ceil(math.log2(h * lit.dfa.n)) + math.ceil(math.log2(h))


def log_rank_word(lit: LiteralAutomaton) -> Word:
    """A non-mortal word of length <= 2h and rank <= log_rank_bound(lit)
    for a code with at least two words.

    Built as an all-through-root word followed by the path-compressing word.
    A survivor perched exactly on the pivot after the last letter can cost
    one state over the bound for the first candidate at tiny sizes, so the
    enumeration continues to the first candidate whose composed word passes
    all three postconditions by direct evaluation.
    """
    if len(lit.code.words) < 2:
        raise InputError("one-word codes take the conjugate route instead")
    if lit.height == 0:
        return EPSILON  # single-state automaton, rank already 1
    bound = log_rank_bound(lit)
    seen_any = False
    for u in _through_root_candidates(lit):
        seen_any = True
        R = lit.dfa.image(lit.dfa.states, u)
        v = compress_path_word(lit, R)
        word = u + v
        r = lit.dfa.rank(word)
        if r == 0 or len(word) > 2 * lit.height:
            raise SyncwordError("log-rank word must be non-mortal and of "
                                "length <= 2h")
        if r <= bound:
            return word
    raise SyncwordError("no candidate met the rank bound"
                        if seen_any else "no all-through-root word found")


def literal_reset_word(lit: LiteralAutomaton) -> Word:
    """Reset word for a synchronizing literal automaton.

    One-word codes: the shorter part of a Weinbaum conjugate split (length
    <= |x|/2).  Otherwise: the log-rank word, then greedy pair compression of
    its image, which ends in one state iff every pair settles.
    """
    from .synchronization import compress_pairs, pair_table

    dfa = lit.dfa
    if len(lit.code.words) == 1:
        x = lit.code.words[0]
        y, k = primitive_root(x)
        if k > 1:
            raise NotSynchronizing(
                f"literal automaton of {x!r} has minimal non-zero rank {k}")
        u, v = weinbaum_conjugate(x, lit)
        word = lit.letters(u if len(u) <= len(v) else v)
        if dfa.rank(word) != 1:
            raise SyncwordError("conjugate split must give a reset word")
        return word

    table = pair_table(dfa)
    word = list(log_rank_word(lit))
    S = compress_pairs(table, dfa.image(dfa.states, tuple(word)), word, [])
    if len(S) >= 2:
        p, q = next((p, q) for p in range(dfa.n) for q in range(p + 1, dfa.n)
                    if table.distance(p, q) is None)
        raise NotSynchronizing(
            f"not synchronizing: pair {{{lit.prefixes[p]!r}, {lit.prefixes[q]!r}}} "
            "is incompressible")
    word = tuple(word)
    if dfa.rank(word) != 1:
        raise SyncwordError("greedy compression must end in a reset word")
    return word


def parse_code(text: str) -> PrefixCode:
    """Code file: one codeword per line, single-character letters, '#'
    starts a comment."""
    words = []
    for no, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if any(ch.isspace() for ch in stripped):
            raise FormatError("codewords cannot contain whitespace", line=no)
        words.append(stripped)
    return validate_code(words)


def format_code(code: PrefixCode) -> str:
    return "\n".join(code.words) + "\n"
