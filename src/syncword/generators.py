"""Fixture families for tests and benchmarks.

Randomness flows through Lcg64, a fully specified 64-bit linear congruential
generator, so golden files stay portable across implementations.
"""
from __future__ import annotations

from bisect import bisect_left

from .automaton import UNDEF, PartialDfa, check_cells, is_strongly_connected
from .errors import InputError

PARTIAL_RETRIES = 5000  # tables gen_random_partial draws before giving up
PARTIAL_CELLS = 1 << 22  # transition cells it draws before giving up
CODE_RETRIES = 1000  # draws per codeword before gen_random_prefix_code gives up


class Lcg64:
    """Knuth's MMIX linear congruential generator.

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64,
    seeded with (seed + 1) so that seed 0 is usable.  below(b) maps the top
    32 bits through (x * b) >> 32; unit() uses the top 53 bits / 2^53.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int = 0):
        self.state = (seed + 1) & self.MASK

    def next_u64(self) -> int:
        self.state = (self.MULT * self.state + self.INC) & self.MASK
        return self.state

    def below(self, bound: int) -> int:
        # the step of next_u64 inline: the randomized extremal profile draws
        # 2n + 2 of these per table
        self.state = x = (self.MULT * self.state + self.INC) & self.MASK
        return ((x >> 32) * bound) >> 32

    def unit(self) -> float:
        return (self.next_u64() >> 11) / (1 << 53)


def gen_cerny(n: int) -> PartialDfa:
    """The classical slowly synchronizing cycle family: one letter rotates,
    the other merges state 0 into state 1; reset threshold (n-1)^2."""
    if n < 1:
        raise InputError("need at least one state")
    check_cells(n, 2)
    table = tuple((((q + 1) % n), (1 % n if q == 0 else q)) for q in range(n))
    return PartialDfa(n, ("a", "b"), table)


def gen_oneword_code(k: int) -> PrefixCode:
    """The tight one-word family {a^k b a^(k+1) b}: the literal automaton
    has 2k+3 states and reset threshold k+1.  A code of more than
    MAX_CODE_LETTERS letters (k > 4094), which every code command refuses,
    is refused before the word is built."""
    from .codes import MAX_CODE_LETTERS, validate_code
    if k < 1:
        raise InputError("k must be at least 1")
    if 2 * k + 3 > MAX_CODE_LETTERS:
        raise InputError(f"k = {k} gives a code of {2 * k + 3} letters, above "
                         f"the limit of {MAX_CODE_LETTERS} codeword letters")
    return validate_code(["a" * k + "b" + "a" * (k + 1) + "b"])


def gen_random_partial(n: int, alpha: int, density: float, seed: int) -> PartialDfa:
    """Uniform transitions, each defined with the given probability,
    regenerated until strongly connected.

    Strong connectivity is rare for sparse tables (below one percent at
    n = 8, binary, density 0.6), hence the generous retry budget: it gives
    up after PARTIAL_RETRIES tables or PARTIAL_CELLS transition cells,
    whichever comes first, so all the tables are drawn while n * alpha <=
    838, and a table at the MAX_CELLS cap is drawn at most 4 times.
    """
    if not 0 < density <= 1:
        raise InputError("density must be in (0, 1]")
    if n < 1 or alpha < 1:
        raise InputError("need n >= 1 and alpha >= 1")
    check_cells(n, alpha)
    letters = tuple(_letter_name(i) for i in range(alpha))
    rng = Lcg64(seed)
    tries = min(PARTIAL_RETRIES, PARTIAL_CELLS // (n * alpha))
    for _ in range(tries):
        table = tuple(
            tuple(rng.below(n) if rng.unit() < density else UNDEF
                  for _ in range(alpha))
            for _ in range(n))
        dfa = PartialDfa(n, letters, table)
        if is_strongly_connected(dfa):
            return dfa
    raise InputError(
        f"no strongly connected automaton in {tries} tries; " + (
            f"a one-letter automaton is strongly connected only as a single "
            f"{n}-cycle, at most (n-1)!/n^n of the draws" if alpha == 1
            else "raise the density"))


def gen_random_prefix_code(count: int, maxlen: int, alpha: int,
                           seed: int) -> PrefixCode:
    """A prefix-free sample of the given size, deterministic per seed.

    Refuses, before drawing, what no code command could take (count or
    maxlen above MAX_CODE_LETTERS, letters past z) and what no prefix code
    meets: by Kraft's inequality, more than alpha ** maxlen words.  Gives
    up after CODE_RETRIES draws per word or CODE_RETRIES letters drawn per
    codeword letter a code command accepts, whichever comes first.  Refuses,
    after drawing, a code of more than MAX_CODE_LETTERS letters in total,
    which no code command takes either."""
    from .codes import MAX_CODE_LETTERS, check_code_letters, validate_code
    if count < 1 or maxlen < 1:
        raise InputError("need count >= 1 and maxlen >= 1")
    if not 1 <= alpha <= 26:
        raise InputError("need 1 <= alpha <= 26: code files spell each "
                         "letter as one character, a to z")
    if max(count, maxlen) > MAX_CODE_LETTERS:
        raise InputError(f"count and maxlen must be at most "
                         f"{MAX_CODE_LETTERS}, the codeword letters a code "
                         f"may hold")
    if alpha == 1 and count > 1:
        raise InputError("a unary alphabet admits only one-word prefix codes")
    # alpha >= 2 here, so alpha ** maxlen > count once maxlen reaches the
    # bit length of count, and the power is taken only below it
    if maxlen < count.bit_length() and count > alpha ** maxlen:
        raise InputError(f"no prefix code has {count} words of at most "
                         f"{maxlen} letters over {alpha}")
    letters = [_letter_name(i) for i in range(alpha)]
    rng = Lcg64(seed)
    chosen: list[str] = []
    # chosen, sorted: as chosen is prefix-free, a chosen prefix of a draw
    # sits just before the draw's place in it, a chosen extension just after
    ordered: list[str] = []
    attempts = drawn = 0
    stalled = 0
    while len(chosen) < count:
        attempts += 1
        # draws per codeword, and letters per letter a code command takes,
        # which bounds a feasible but tight request such as 8192 words of at
        # most 14 letters over 2
        if attempts > CODE_RETRIES * count or \
                drawn > CODE_RETRIES * MAX_CODE_LETTERS:
            raise InputError("could not sample a prefix-free set; "
                             "raise maxlen or lower count")
        length = 1 + rng.below(maxlen)
        drawn += length
        w = "".join(letters[rng.below(alpha)] for _ in range(length))
        i = bisect_left(ordered, w)
        if i < len(ordered) and ordered[i].startswith(w) or \
                i and w.startswith(ordered[i - 1]):
            # early picks can block every completion (e.g. a short word
            # eating a whole subtree); restart rather than backtrack
            stalled += 1
            if stalled > 20 + 2 * count:
                chosen.clear()
                ordered.clear()
                stalled = 0
            continue
        stalled = 0
        chosen.append(w)
        ordered.insert(i, w)
    code = validate_code(chosen)
    check_code_letters(code)
    return code


def _letter_name(i: int) -> str:
    # a..z, then t26, t27, ...
    return chr(ord("a") + i) if i < 26 else f"t{i}"
