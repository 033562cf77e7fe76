"""Seeded inputs and job lists of the three workloads.

Each workload's set-up draws its inputs from `random.Random(seed)`, writes
them as files and computes the reference values its checks need.  Library
generators are called only through `gen`, so their time is reported as
`generators.gen_s`.  Sizes are fixed per workload and the seed picks among
inputs of that size, so that run time varies little between seeds.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import check

CYCLE_NS = (100, 170)

CODE_COUNT = 2
CODE_WORDS = 80
CODE_MAXLEN = 16
CODE_ALPHA = 3
CODE_STATES = (465, 475)   # literal automaton size window
ONEWORD_K = 48
IMPRIMITIVE_ROOT = 8
IMPRIMITIVE_POWER = 3

LATTICE_CERNY = (17, 18, 19)
LATTICE_RANDOM = (19, 20, 20)
LATTICE_POOL = 4            # candidates drawn per random automaton
LATTICE_MASKS = 60_000      # reachable subsets aimed at
LATTICE_LIMIT = 100_000     # candidates reaching more are dropped
DUPLICATING_N = 12
EXTREMAL_TRIALS = 20_000

# A job's argument list may name the stdout of an earlier job of the same
# pass as its input file.
SOURCE = "<stdout of source job>"


@dataclass
class Job:
    name: str
    argv: list
    family: str
    n: int
    alpha: int
    check: object          # callable(stdout) raising check.CheckError
    exit_code: int = 0
    source: str | None = None

    def record(self):
        return {"job": self.name, "argv": self.argv, "family": self.family,
                "n": self.n, "alphabet": self.alpha,
                "expected_exit": self.exit_code}


@dataclass
class Inputs:
    jobs: list
    files: dict = field(default_factory=dict)   # path -> text


def relabel(base, rng):
    """Copy of a library automaton with states renamed by a seeded
    permutation: same structure, other tie-breaking."""
    perm = list(range(base.n))
    rng.shuffle(perm)
    table = [None] * base.n
    for q, row in enumerate(base.trans):
        table[perm[q]] = [None if t is None else perm[t] for t in row]
    return check.Dfa(base.n, base.alphabet, table)


def cycle_with_deficient_letter(n, rng):
    """Binary automaton: `a` is a random n-cycle, `b` a uniform random map
    with one undefined entry.  The cycle makes it strongly connected, so no
    rejection sampling is needed for that."""
    order = list(range(n))
    rng.shuffle(order)
    a = [0] * n
    for i, q in enumerate(order):
        a[q] = order[(i + 1) % n]
    b = [rng.randrange(n) for _ in range(n)]
    b[rng.randrange(n)] = None
    return check.Dfa(n, ("a", "b"), [[a[q], b[q]] for q in range(n)])


def is_primitive(x):
    return x not in (x + x)[1:-1]


def cycle_words(seed, d, gen, generators):
    rng = random.Random(seed)
    out = Inputs([])
    for n in CYCLE_NS:
        dfa = relabel(gen(generators.gen_cerny, n), rng)
        check.require(check.all_pairs_compressible(dfa),
                      "cycle family must synchronize")
        path = str(d / f"cycle{n}.dfa")
        out.files[path] = dfa.text(comment=f"cycle family n={n} seed={seed}")
        meta = dict(family="cycle", n=n, alpha=2)
        out.jobs += [
            Job(f"sync-check-{n}", ["sync", "check", path], **meta,
                check=check.sync_check),
            *(Job(f"sync-word-{m}-{n}", ["sync", "word", path, "--method", m],
                  **meta, check=lambda o, dfa=dfa: check.reset_word(dfa, o))
              for m in ("greedy", "fixing", "collecting")),
            Job(f"rank-min-{n}", ["rank", "min", path], **meta,
                check=lambda o, dfa=dfa: check.reset_word(dfa, o)),
            Job(f"rank-word-{n}", ["rank", "word", path, "--target", str(n // 2)],
                **meta,
                check=lambda o, dfa=dfa, r=n // 2: check.rank_word(dfa, o, r)),
        ]
    return out


def code_words(seed, d, gen, generators):
    rng = random.Random(seed)
    out = Inputs([])
    lo, hi = CODE_STATES
    for i in range(CODE_COUNT):
        while True:
            code = gen(generators.gen_random_prefix_code, CODE_WORDS,
                       CODE_MAXLEN, CODE_ALPHA, rng.randrange(2 ** 32))
            lit = check.literal_dfa(code.words)
            if lo <= lit.n <= hi and check.all_pairs_compressible(lit):
                break
        path = str(d / f"code{i}.code")
        out.files[path] = "\n".join(code.words) + "\n"
        height = max(map(len, code.words)) - 1
        meta = dict(family="random-code", n=lit.n, alpha=CODE_ALPHA)
        literal_job = f"code-literal-{i}"
        out.jobs += [
            Job(f"code-reset-{i}", ["code", "reset", path], **meta,
                check=lambda o, lit=lit: check.reset_word(lit, o)),
            Job(f"code-logrank-{i}", ["code", "logrank", path], **meta,
                check=lambda o, lit=lit, h=height: check.logrank(lit, o, h)),
            Job(literal_job, ["code", "literal", path], **meta,
                check=lambda o, lit=lit: check.literal(lit, o)),
            *(Job(f"literal-sync-word-{m}-{i}",
                  ["sync", "word", SOURCE, "--method", m], **meta,
                  source=literal_job,
                  check=lambda o, lit=lit: check.reset_word(lit, o))
              for m in ("collecting", "fixing")),
        ]

    k = ONEWORD_K
    x = gen(generators.gen_oneword_code, k).words[0]
    out.jobs.append(Job(f"code-oneword-{k}", ["code", "oneword", x],
                        family="oneword-code", n=2 * k + 3, alpha=2,
                        check=lambda o, x=x: check.oneword(x, o)))
    while True:
        root = "".join(rng.choice("ab") for _ in range(IMPRIMITIVE_ROOT))
        if is_primitive(root):
            break
    y = root * IMPRIMITIVE_POWER
    out.jobs.append(Job("code-oneword-imprimitive", ["code", "oneword", y],
                        family="oneword-code", n=len(y), alpha=2, exit_code=1,
                        check=lambda o, y=y: check.imprimitive(y, o)))
    return out


def oracle_lattice(seed, d, gen, generators):
    rng = random.Random(seed)
    out = Inputs([])

    def lattice_jobs(label, dfa, family, path, target, ref, best_len):
        meta = dict(family=family, n=dfa.n, alpha=2)
        return [
            Job(f"oracle-{label}", ["oracle", path], **meta,
                check=lambda o: check.oracle(dfa, o, ref=ref,
                                             cycle=family == "cycle")),
            Job(f"rank-word-oracle-{label}",
                ["rank", "word", path, "--target", str(target),
                 "--method", "oracle"], **meta,
                check=lambda o: check.rank_word(dfa, o, target, best_len)),
        ]

    for n in LATTICE_CERNY:
        dfa = relabel(gen(generators.gen_cerny, n), rng)
        ref = check.lattice(dfa)[0]
        path = str(d / f"cycle{n}.dfa")
        out.files[path] = dfa.text(comment=f"cycle family n={n} seed={seed}")
        out.jobs += lattice_jobs(f"cycle{n}", dfa, "cycle", path, 1, ref,
                                 (n - 1) ** 2)

    for i, n in enumerate(LATTICE_RANDOM):
        # a fixed number of draws keeps set-up time steady across seeds;
        # more are drawn only while none qualifies
        pool = []
        while len(pool) < LATTICE_POOL or not any(ref for _, ref, _ in pool):
            dfa = cycle_with_deficient_letter(n, rng)
            ref, masks = check.lattice(dfa, limit=LATTICE_LIMIT)
            pool.append((dfa, ref if ref and 1 in ref else None, masks))
        dfa, ref, masks = min((c for c in pool if c[1]),
                              key=lambda c: abs(c[2] - LATTICE_MASKS))
        path = str(d / f"cycle-deficient{i}.dfa")
        out.files[path] = dfa.text(
            comment=f"random {n}-cycle + deficient letter, {masks} subsets")
        target = n // 2
        best = min(ref[s] for s in range(1, target + 1) if s in ref)
        out.jobs += lattice_jobs(f"deficient{i}", dfa, "cycle-deficient",
                                 path, target, ref, best)

    n = DUPLICATING_N
    dfa = relabel(gen(generators.gen_cerny, n), rng)
    ref = check.lattice(dfa)[0]
    path = str(d / f"cycle{n}.dfa")
    out.files[path] = dfa.text(comment=f"cycle family n={n} seed={seed}")
    out.jobs.append(Job(f"verify-duplicating-{n}",
                        ["verify", "duplicating", path],
                        family="cycle", n=n, alpha=2,
                        check=lambda o: check.duplicating(o, ref, n)))

    out.jobs.append(Job("search-extremal-4", ["search", "extremal", "--n", "4",
                                              "--exhaustive"],
                        family="extremal", n=4, alpha=2,
                        check=lambda o: check.extremal(o, 4, (26304, 6))))
    s = rng.randrange(2 ** 31)
    out.jobs.append(Job("search-extremal-5",
                        ["search", "extremal", "--n", "5", "--seed", str(s),
                         "--trials", str(EXTREMAL_TRIALS)],
                        family="extremal", n=5, alpha=2,
                        check=lambda o: check.extremal(o, 5)))
    return out


WORKLOADS = {
    "cycle-words": cycle_words,
    "code-words": code_words,
    "oracle-lattice": oracle_lattice,
}


def build(workload, seed, directory: Path, generators):
    """Set up one workload: returns (Inputs, seconds spent in library
    generators).  Writes every input file under directory."""
    spent = [0.0]

    def gen(fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        spent[0] += time.perf_counter() - start
        return result

    directory.mkdir(parents=True, exist_ok=True)
    inputs = WORKLOADS[workload](seed, directory, gen, generators)
    for path, text in inputs.files.items():
        Path(path).write_text(text, encoding="utf-8")
    return inputs, spent[0]
