"""Independent output checks for the benchmark jobs.

Nothing here calls the package under test: automata are re-parsed from the
`dfa v1` text, literal automata are rebuilt from the codewords, and every
emitted word is replayed with plain Python sets.  Reference thresholds come
from a separate bitmask BFS over the subset lattice.
"""
from __future__ import annotations

from collections import deque


class CheckError(Exception):
    """An output that does not match what the input implies."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


# ------------------------------------------------------------- automata

class Dfa:
    """Plain transition table: table[q][a] is a state or None."""

    def __init__(self, n, alphabet, table):
        self.n = n
        self.alphabet = tuple(alphabet)
        self.table = [list(row) for row in table]

    def __eq__(self, other):
        return (self.n, self.alphabet, self.table) == \
            (other.n, other.alphabet, other.table)

    def text(self, comment=None):
        """The automaton in `dfa v1` format."""
        out = ["dfa v1"]
        if comment:
            out.append(f"# {comment}")
        out.append(f"states {self.n}")
        out.append("alphabet " + " ".join(self.alphabet))
        for q, row in enumerate(self.table):
            for a, t in enumerate(row):
                if t is not None:
                    out.append(f"{q} {self.alphabet[a]} {t}")
        return "\n".join(out) + "\n"

    def letters(self, text):
        """Word tokens -> letter indices; '-' is the empty word."""
        text = text.strip()
        if text in ("", "-"):
            return ()
        index = {tok: i for i, tok in enumerate(self.alphabet)}
        try:
            return tuple(index[tok] for tok in text.split())
        except KeyError as exc:
            raise CheckError(f"unknown letter {exc.args[0]!r}") from None

    def image(self, states, word):
        cur = set(states)
        for a in word:
            cur = {self.table[q][a] for q in cur} - {None}
            if not cur:
                break
        return cur

    def rank(self, word):
        return len(self.image(range(self.n), word))

    def masks(self):
        """Per letter, per state: bit of the successor (0 when undefined)."""
        return [[0 if row[a] is None else 1 << row[a] for row in self.table]
                for a in range(len(self.alphabet))]


def parse_dfa(text):
    lines = [ln.split("#", 1)[0].strip() for ln in text.split("\n")]
    lines = [ln for ln in lines if ln]
    require(len(lines) >= 3 and lines[0] == "dfa v1", "not a dfa v1 document")
    n = int(lines[1].split()[1])
    alphabet = lines[2].split()[1:]
    index = {tok: i for i, tok in enumerate(alphabet)}
    table = [[None] * len(alphabet) for _ in range(n)]
    for ln in lines[3:]:
        src, tok, dst = ln.split()
        table[int(src)][index[tok]] = int(dst)
    return Dfa(n, alphabet, table)


def literal_dfa(words):
    """States are the proper prefixes in lexicographic order, letters the
    sorted symbols; reading a whole codeword returns to the root."""
    codewords = set(words)
    prefixes = sorted({w[:i] for w in codewords for i in range(len(w))})
    state_of = {p: i for i, p in enumerate(prefixes)}
    alphabet = sorted({ch for w in codewords for ch in w})
    table = []
    for p in prefixes:
        table.append([0 if p + ch in codewords else state_of.get(p + ch)
                      for ch in alphabet])
    return Dfa(len(prefixes), alphabet, table)


def all_pairs_compressible(dfa):
    """Backward BFS on state pairs from the pairs one letter compresses
    (both states merge, or exactly one dies)."""
    n, k = dfa.n, len(dfa.alphabet)
    inv = [[[] for _ in range(n)] for _ in range(k)]
    for q, row in enumerate(dfa.table):
        for a, t in enumerate(row):
            if t is not None:
                inv[a][t].append(q)
    done = set()
    queue = deque()
    for p in range(n):
        for q in range(p + 1, n):
            for a in range(k):
                tp, tq = dfa.table[p][a], dfa.table[q][a]
                if (tp is None) != (tq is None) or (tp is not None and tp == tq):
                    done.add((p, q))
                    queue.append((p, q))
                    break
    while queue:
        tp, tq = queue.popleft()
        for a in range(k):
            for p in inv[a][tp]:
                for q in inv[a][tq]:
                    key = (p, q) if p < q else (q, p)
                    if p != q and key not in done:
                        done.add(key)
                        queue.append(key)
    return len(done) == n * (n - 1) // 2


def lattice(dfa, limit=None):
    """BFS from the full set: ({subset size: shortest word length}, number
    of reachable subsets).  Stops with (None, count) once more than limit
    subsets are reached.  Images are OR-ed from per-byte lookup tables."""
    n = dfa.n
    letters = []
    for row in dfa.masks():
        per_byte = []
        for base in range(0, n, 8):
            tab = [0] * 256
            for bv in range(1, 256):
                low = bv & -bv
                q = base + low.bit_length() - 1
                tab[bv] = tab[bv ^ low] | (row[q] if q < n else 0)
            per_byte.append(tab)
        letters.append(per_byte)
    full = (1 << n) - 1
    seen = {full}
    first = {n: 0}
    frontier = [full]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for m in frontier:
            for per_byte in letters:
                t = 0
                mm = m
                i = 0
                while mm:
                    t |= per_byte[i][mm & 255]
                    mm >>= 8
                    i += 1
                if t not in seen:
                    seen.add(t)
                    first.setdefault(t.bit_count(), depth)
                    nxt.append(t)
                    if len(seen) == limit:
                        return None, limit
        frontier = nxt
    return first, len(seen)


def reset_threshold(dfa):
    return lattice(dfa)[0].get(1)


def strongly_connected(dfa):
    adj = [set(t for t in row if t is not None) for row in dfa.table]
    radj = [set() for _ in range(dfa.n)]
    for q, succ in enumerate(adj):
        for t in succ:
            radj[t].add(q)
    for graph in (adj, radj):
        seen = {0}
        stack = [0]
        while stack:
            for v in graph[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != dfa.n:
            return False
    return True


# --------------------------------------------------------------- output

def pairs(line):
    """'k=v k=v' -> dict."""
    out = {}
    for item in line.split():
        key, sep, value = item.partition("=")
        require(sep, f"expected key=value, got {item!r}")
        out[key] = value
    return out


def word_output(dfa, out):
    """The two-line word output: word, then 'rank=R len=L ...'.  The replayed
    rank and length must match the printed ones; returns (word, fields)."""
    lines = out.rstrip("\n").split("\n")
    require(len(lines) == 2, f"expected 2 lines, got {len(lines)}")
    word = dfa.letters(lines[0])
    fields = pairs(lines[1])
    require(int(fields["len"]) == len(word), "printed len differs from word")
    replayed = dfa.rank(word)
    require(replayed == int(fields["rank"]),
            f"printed rank {fields['rank']}, replay gives {replayed}")
    return word, fields


def reset_word(dfa, out):
    _, fields = word_output(dfa, out)
    require(int(fields["rank"]) == 1, "reset word must have rank 1")


def sync_check(out):
    require(out.strip() == "synchronizing", f"unexpected output {out[:80]!r}")


def rank_word(dfa, out, target, best_len=None):
    """A word of rank in 1..target; with best_len, also of that length."""
    word, fields = word_output(dfa, out)
    require(1 <= int(fields["rank"]) <= target, "rank outside 1..target")
    if best_len is not None:
        require(len(word) == best_len,
                f"length {len(word)}, shortest is {best_len}")


def logrank(dfa, out, height):
    word, fields = word_output(dfa, out)
    bound = (((height * dfa.n - 1).bit_length() + (height - 1).bit_length())
             if height else 1)
    require(int(fields["bound"]) == bound, "printed bound is not the formula")
    require(int(fields["height"]) == height, "wrong height")
    require(0 < int(fields["rank"]) <= bound, "rank above the bound")
    require(len(word) <= 2 * height, "log-rank word longer than 2h")


def literal(dfa, out):
    require(parse_dfa(out) == dfa, "emitted literal automaton differs")


def oracle(dfa, out, ref=None, cycle=False):
    """r=R len=L word=W per reachable rank; with ref, the exact lengths."""
    seen = {}
    for line in out.rstrip("\n").split("\n"):
        head, _, text = line.partition(" word=")
        fields = pairs(head)
        r, length = int(fields["r"]), int(fields["len"])
        word = dfa.letters(text)
        require(len(word) == length, f"r={r}: len differs from word")
        require(dfa.rank(word) == r, f"r={r}: replay gives another rank")
        seen[r] = length
    if cycle:
        require(seen.get(1) == (dfa.n - 1) ** 2,
                f"len_r1={seen.get(1)}, cycle family needs {(dfa.n - 1) ** 2}")
    if ref is not None:
        require(seen == ref, "thresholds differ from the reference BFS")


def duplicating(out, ref, n):
    lines = out.rstrip("\n").split("\n")
    require(lines[-1] == "identity holds", "identity not confirmed")
    got = {}
    for line in lines[:-1]:
        fields = pairs(line)
        base, dup = int(fields["base"]), int(fields["duplicated"])
        require(dup == 2 * base, "duplicated threshold is not doubled")
        got[int(fields["r"])] = base
    want = {r: d for r, d in ref.items() if 1 <= r < n}
    require(got == want, "base thresholds differ from the reference BFS")


def extremal(out, n, expect=None):
    """Header line, blank line, best automaton; attained=false is allowed."""
    head, _, rest = out.partition("\n\n")
    fields = pairs(head)
    target = (n * n - n) // 2
    require(int(fields["n"]) == n and int(fields["target"]) == target,
            "wrong n or target")
    best = int(fields["best_rt"])
    require(fields["attained"] == ("true" if best >= target else "false"),
            "attained flag does not match best_rt")
    if expect is not None:
        got = (int(fields["candidates"]), best)
        require(got == expect, f"(candidates, best_rt) = {got}, want {expect}")
    dfa = parse_dfa(rest)
    undefined = sum(t is None for row in dfa.table for t in row)
    require(dfa.n == n and len(dfa.alphabet) == 2 and undefined == 1,
            "best automaton is not binary with one undefined slot")
    require(strongly_connected(dfa), "best automaton is not strongly connected")
    require(reset_threshold(dfa) == best, "best automaton's threshold differs")


def oneword(x, out):
    fields = dict(line.split("=", 1) for line in out.split("\n")[:3])
    require(fields["primitive_root"] == x and fields["power"] == "1",
            "a primitive word is its own root")
    last = out.rstrip("\n").split("\n")[-1]
    require(last.startswith("reset_word="), "no reset word printed")
    body, _, length = last[len("reset_word="):].rpartition(" len=")
    dfa = literal_dfa([x])
    word = dfa.letters(body)
    require(len(word) == int(length), "printed len differs from word")
    require(dfa.rank(word) == 1, "reset word does not have rank 1")
    require(2 * len(word) <= len(x), "reset word longer than |x|/2")


def imprimitive(x, out):
    fields = dict(line.split("=", 1) for line in out.split("\n")[:3])
    root, power = fields["primitive_root"], int(fields["power"])
    require(power >= 2 and root * power == x, "wrong primitive root")
    require("not synchronizing" in out, "imprimitive word must not synchronize")
