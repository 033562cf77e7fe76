"""Traced run: the workload's jobs sent in-process through the public
functions of each package module, with one span per call.

Spans are recorded here, around the calls, never inside the package.  A
job's main path makes the same calls as the CLI command (parse, the whole
pipeline call, the re-validation replays); those spans have no parent and
their sum is `trace.total_s`.  A pipeline call is then decomposed: its
sub-calls are run again one by one, in pipeline order, as child spans of
the whole call, so that self time = whole - timed children.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

from syncword import automaton as A
from syncword import codes as K
from syncword import constructions as C
from syncword import equivalence as E
from syncword import oracle as O
from syncword import synchronization as S

import check


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name, parent):
        self.name, self.parent = name, parent
        self.start = self.end = 0.0
        self.counts = {}

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.parent = None
        self.last = None

    def call(self, name, fn, *args, **kwargs):
        span = Span(name, self.parent)
        self.spans.append(span)
        span.start = time.perf_counter()
        result = fn(*args, **kwargs)
        span.end = time.perf_counter()
        self.last = span
        return result

    @contextmanager
    def under(self, span):
        saved, self.parent = self.parent, span
        try:
            yield
        finally:
            self.parent = saved


# --------------------------------------------------- pipeline decompositions

def scc(t, dfa):
    return t.call("automaton.is_strongly_connected", A.is_strongly_connected, dfa)


def pair_table(t, dfa):
    return t.call("synchronization.pair_table", S.pair_table, dfa)


def partition(t, dfa):
    part = t.call("equivalence.inseparability_partition",
                  E.inseparability_partition, dfa)
    t.last.counts["classes"] = len(part.classes)
    return part


def replay(t, dfa, word):
    t.call("automaton.rank", dfa.rank, word)
    t.last.counts["letters"] = len(word)


def is_sync(t, dfa):
    result = t.call("synchronization.is_synchronizing", S.is_synchronizing, dfa)
    with t.under(t.last):
        scc(t, dfa)
        if dfa.n > 1:
            pair_table(t, dfa)
    return result


def greedy(t, dfa):
    result = t.call("synchronization.greedy_min_rank", S.greedy_min_rank, dfa)
    whole = t.last
    with t.under(whole):
        scc(t, dfa)
        table = pair_table(t, dfa)
    whole.counts.update(steps=len(result.trace), letters=len(result.word),
                        pairs=len(table.dist))
    return result


def fixing_route(t, dfa):
    result = t.call("synchronization.min_rank_word_via_fixing",
                    S.min_rank_word_via_fixing, dfa)
    with t.under(t.last):
        scc(t, dfa)
        fixed = t.call("constructions.fixing", C.fixing, dfa)
        g = greedy(t, fixed)
        t.call("constructions.lift_word_to_partial", C.lift_word_to_partial,
               dfa, dfa.states, g.word)
        partition(t, dfa)
        pair_table(t, dfa)
    return result


def reduction(t, dfa):
    coll, tree = t.call("synchronization.reduction_to_complete",
                        S.reduction_to_complete, dfa)
    with t.under(t.last):
        scc(t, dfa)
        part = partition(t, dfa)
        sub = t.call("constructions.collecting_tree", C.collecting_tree, dfa,
                     part, tree.root_class)
        t.call("constructions.collecting", C.collecting, dfa, sub)
    return coll, tree


def collecting_route(t, dfa):
    word = t.call("synchronization.reset_word_via_collecting",
                  S.reset_word_via_collecting, dfa)
    with t.under(t.last):
        is_sync(t, dfa)
        coll, tree = reduction(t, dfa)
        part = tree.partition
        v = t.call("equivalence.collapse_to_single_class_word",
                   E.collapse_to_single_class_word, dfa, part, dfa.states)
        start = part.class_of[min(dfa.image(dfa.states, v))]
        qdfa, _ = t.call("equivalence.quotient", E.quotient, dfa, part)
        u = t.call("automaton.connecting_word", A.connecting_word, qdfa,
                   start, tree.root_class)
        g = greedy(t, coll)
        w = t.call("constructions.strip_gamma", C.strip_gamma, dfa, tree, g.word)
    check.require(v + u + w == word, "decomposition differs from the pipeline")
    return word


def subset_bfs(t, dfa):
    report = t.call("oracle.subset_bfs", O.subset_bfs, dfa)
    t.last.counts["ranks"] = len(report.thresholds)
    return report


def rank_target(t, dfa, r, method):
    word = t.call("synchronization.rank_target_word", S.rank_target_word,
                  dfa, r, method=method)
    with t.under(t.last):
        scc(t, dfa)
        if r < dfa.n:
            (greedy if method == "greedy" else subset_bfs)(t, dfa)
    return word


def dup_check(t, dfa):
    t.call("oracle.duplicating_identity_check", O.duplicating_identity_check, dfa)
    with t.under(t.last):
        scc(t, dfa)
        dup = t.call("constructions.duplicating", C.duplicating, dfa)
        subset_bfs(t, dfa)
        subset_bfs(t, dup)


def extremal(t, n, exhaustive, seed, trials):
    res = t.call("oracle.extremal_search", O.extremal_search, n,
                 exhaustive=exhaustive, seed=seed, trials=trials)
    tables = 2 * n * n ** (2 * n - 1) if exhaustive else trials
    t.last.counts.update(candidates=res.candidates, tables=tables)


def literal_reset(t, lit):
    word = t.call("codes.literal_reset_word", K.literal_reset_word, lit)
    with t.under(t.last):
        if len(lit.code.words) == 1:
            x = lit.code.words[0]
            t.call("codes.primitive_root", K.primitive_root, x)
            t.call("codes.weinbaum_conjugate", K.weinbaum_conjugate, x, lit)
        else:
            pair_table(t, lit.dfa)
            t.call("codes.log_rank_word", K.log_rank_word, lit)
    return word


# ------------------------------------------------------------ job main paths

def _load(t, text):
    def parse(text):
        dfa = A.parse_dfa(text, allow_gamma=True)
        A.fully_undefined_letters(dfa)
        return dfa
    return t.call("automaton.parse_dfa", parse, text)


def _option(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def run_job(t, argv, text_of):
    """Make the library calls the CLI makes for argv.  Returns the text a
    later job reads as its input (for `code literal`), else None."""
    cmd = argv[:2]
    if cmd in (["sync", "check"], ["sync", "word"], ["rank", "min"],
               ["rank", "word"]):
        dfa = _load(t, text_of(argv[2]))
        if cmd == ["sync", "check"]:
            is_sync(t, dfa)
        elif cmd == ["sync", "word"]:
            is_sync(t, dfa)
            method = _option(argv, "--method", "greedy")
            word = {"greedy": lambda: greedy(t, dfa).word,
                    "fixing": lambda: fixing_route(t, dfa).word,
                    "collecting": lambda: collecting_route(t, dfa),
                    "oracle": lambda: subset_bfs(t, dfa).witness(1)}[method]()
            replay(t, dfa, word)          # the CLI's rank-1 assertion
            replay(t, dfa, word)          # and its printed rank
        elif cmd == ["rank", "min"]:
            replay(t, dfa, greedy(t, dfa).word)
        else:
            word = rank_target(t, dfa, int(_option(argv, "--target")),
                               _option(argv, "--method", "greedy"))
            replay(t, dfa, word)
    elif argv[0] == "oracle":
        subset_bfs(t, _load(t, text_of(argv[1])))
    elif cmd == ["verify", "duplicating"]:
        dup_check(t, _load(t, text_of(argv[2])))
    elif cmd == ["search", "extremal"]:
        exhaustive = "--exhaustive" in argv
        extremal(t, int(_option(argv, "--n")), exhaustive,
                 int(_option(argv, "--seed", 0)),
                 int(_option(argv, "--trials", 10000)))
    elif argv[:2] == ["code", "oneword"]:
        x = argv[2]
        code = t.call("codes.validate_code", K.validate_code, [x])
        _, k = t.call("codes.primitive_root", K.primitive_root, x)
        if k == 1:
            lit = t.call("codes.literal_automaton", K.literal_automaton, code)
            literal_reset(t, lit)
    elif argv[0] == "code":
        code = t.call("codes.parse_code", K.parse_code, text_of(argv[2]))
        lit = t.call("codes.literal_automaton", K.literal_automaton, code)
        if argv[1] == "literal":
            return t.call("automaton.format_dfa", A.format_dfa, lit.dfa)
        if argv[1] == "logrank":
            replay(t, lit.dfa, t.call("codes.log_rank_word", K.log_rank_word, lit))
        else:
            replay(t, lit.dfa, literal_reset(t, lit))
    else:
        raise ValueError(f"no traced route for {argv}")
    return None


def traced_pass(jobs, source):
    """Run every job once in-process.  Returns (tracer, failures)."""
    t = Tracer()
    emitted = {}
    failures = []
    for job in jobs:
        def text_of(path, job=job):
            if job.source is not None and path == source:
                return emitted[job.source]
            return Path(path).read_text(encoding="utf-8")

        try:
            text = run_job(t, job.argv, text_of)
        except Exception as exc:  # recorded as a failed job, run goes on
            failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
            continue
        if text is not None:
            emitted[job.name] = text
    return t, failures


def parity(jobs):
    """Compare the Python and compiled subset-BFS kernels on every job
    input the oracle accepts.  Returns (status, failures)."""
    if O._bfs_c is None:
        return "skipped: syncword._bfs_c does not import", []
    failures = []
    checked = 0
    paths = sorted({a for job in jobs for a in job.argv if a.endswith(".dfa")})
    for path in paths:
        dfa = A.parse_dfa(Path(path).read_text(encoding="utf-8"))
        if dfa.n > O.MAX_ORACLE_STATES:
            continue
        checked += 1
        if O.subset_bfs(dfa, backend="python") != O.subset_bfs(dfa, backend="c"):
            failures.append(f"parity: kernels disagree on {path}")
    return f"checked {checked} inputs", failures


# ----------------------------------------------------------------- metrics

def metrics(t):
    """Per-layer metrics of one traced pass."""
    spans = t.spans
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(*names):
        return sum((s.seconds for name in names for s in named(name)), 0.0)

    def self_time(name):
        return sum((s.seconds - sum(c.seconds for c in children.get(id(s), ()))
                    for s in named(name)), 0.0)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    greedy_self = self_time("synchronization.greedy_min_rank")
    steps = count("synchronization.greedy_min_rank", "steps")
    letters = count("synchronization.greedy_min_rank", "letters")
    pairs = count("synchronization.greedy_min_rank", "pairs")
    tables = count("oracle.extremal_search", "tables")
    return {
        "automaton.parse_s": total("automaton.parse_dfa"),
        "automaton.scc_s": total("automaton.is_strongly_connected"),
        "automaton.rank_s": total("automaton.rank"),
        "automaton.letters_applied": count("automaton.rank", "letters"),
        "equivalence.partition_s": total("equivalence.inseparability_partition"),
        "equivalence.collapse_s": total("equivalence.collapse_to_single_class_word"),
        "equivalence.classes": count("equivalence.inseparability_partition",
                                     "classes"),
        "constructions.fixing_s": total("constructions.fixing"),
        "constructions.collecting_s": total("constructions.collecting_tree",
                                            "constructions.collecting"),
        "constructions.strip_gamma_s": total("constructions.strip_gamma"),
        "constructions.duplicating_s": total("constructions.duplicating"),
        "synchronization.pair_table_s": total("synchronization.pair_table"),
        "synchronization.greedy_s": total("synchronization.greedy_min_rank"),
        "synchronization.greedy_self_s": greedy_self,
        "synchronization.fixing_route_s":
            total("synchronization.min_rank_word_via_fixing"),
        "synchronization.fixing_route_self_s":
            self_time("synchronization.min_rank_word_via_fixing"),
        "synchronization.collecting_route_s":
            total("synchronization.reset_word_via_collecting"),
        "synchronization.collecting_route_self_s":
            self_time("synchronization.reset_word_via_collecting"),
        "synchronization.rank_target_s":
            self_time("synchronization.rank_target_word"),
        "synchronization.pairs": pairs,
        "synchronization.greedy_steps": steps,
        "synchronization.greedy_letters": letters,
        "synchronization.pair_use_ratio": steps / pairs if pairs else 0.0,
        "synchronization.letters_per_s":
            letters / greedy_self if greedy_self > 0 else 0.0,
        "codes.literal_s": total("codes.literal_automaton"),
        "codes.conjugate_s": total("codes.weinbaum_conjugate"),
        "codes.logrank_s": total("codes.log_rank_word"),
        "codes.reset_s": total("codes.literal_reset_word"),
        "oracle.subset_bfs_s": total("oracle.subset_bfs"),
        "oracle.extremal_s": total("oracle.extremal_search"),
        "oracle.extremal_candidates": count("oracle.extremal_search",
                                            "candidates"),
        "oracle.extremal_scc_ratio":
            count("oracle.extremal_search", "candidates") / tables
            if tables else 0.0,
        "oracle.dup_check_s": total("oracle.duplicating_identity_check"),
        "trace.total_s": sum((s.seconds for s in spans if s.parent is None), 0.0),
    }


def span_table(t):
    """{span name: {calls, total_s, self_s}} for the result record."""
    children = {}
    for s in t.spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in t.spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.seconds
        row["self_s"] += s.seconds - sum(c.seconds for c in children.get(id(s), ()))
    return out
