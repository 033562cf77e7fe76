import tracemalloc
from itertools import product

import pytest

from syncword import (EPSILON, UNDEF, InputError, class_reducing_word,
                      collapse_to_single_class_word, format_dfa, gen_cerny,
                      gen_random_partial, gen_random_prefix_code,
                      inseparability_partition, is_strongly_connected,
                      literal_automaton, parse_dfa, quotient,
                      separating_word, validate_code)

from conftest import FIXTURES
from test_cli import run_optimized


def brute_classes(dfa, maxlen):
    """Group states by the definedness signature of all words up to maxlen."""
    sigs = {}
    for q in range(dfa.n):
        sig = []
        for L in range(maxlen + 1):
            for w in product(range(len(dfa.alphabet)), repeat=L):
                sig.append(dfa.run(q, w) is not None)
        sigs.setdefault(tuple(sig), set()).add(q)
    return sorted((frozenset(s) for s in sigs.values()), key=min)


def test_fig1_classes(fig1):
    part = inseparability_partition(fig1)
    assert [sorted(c) for c in part.classes] == [[0, 3], [1, 4], [2, 5]]
    assert part.class_of == (0, 1, 2, 0, 1, 2)


def test_complete_dfa_single_class():
    dfa = parse_dfa("dfa v1\nstates 3\nalphabet a\n0 a 1\n1 a 2\n2 a 0\n")
    part = inseparability_partition(dfa)
    assert len(part.classes) == 1


def test_power_code_classes():
    # (aab)^2: three classes of size two, n/k each of size k
    lit = literal_automaton(validate_code(["aabaab"]))
    part = inseparability_partition(lit.dfa)
    assert [sorted(c) for c in part.classes] == [[0, 3], [1, 4], [2, 5]]


def test_classes_match_brute_force():
    for seed in range(30):
        dfa = gen_random_partial(2 + seed % 7, 2, 0.7 + (seed % 3) * 0.1, seed)
        part = inseparability_partition(dfa)
        # words of length kappa(Q) suffice once refinement has stabilized
        expected = brute_classes(dfa, len(part.classes))
        assert list(part.classes) == expected


def test_kappa(fig1):
    part = inseparability_partition(fig1)
    assert part.kappa(fig1.states) == 3
    assert part.kappa({0}) == 1
    assert part.kappa({0, 1, 3}) == 2
    assert part.kappa(frozenset()) == 0


def test_separating_word_levels(fig1):
    part = inseparability_partition(fig1)
    # classes {0,3} and {1,4} separate at level 2 via "ab"; both vs {2,5} at 1
    assert {pq: (a, d) for pq, d, a in part.table.items()} == \
        {(0, 2): (1, 1), (1, 2): (1, 1), (0, 1): (0, 2)}
    w = separating_word(fig1, part, 0, 1)
    assert w == fig1.word("ab")
    defined = [fig1.run(0, w) is not None, fig1.run(1, w) is not None]
    assert sorted(defined) == [False, True]


def test_separating_word_kills_exactly_one_side():
    for seed in range(25):
        dfa = gen_random_partial(3 + seed % 6, 2, 0.75, seed + 500)
        part = inseparability_partition(dfa)
        bound = len(part.classes) - 1
        for p in range(dfa.n):
            for q in range(p + 1, dfa.n):
                if part.class_of[p] == part.class_of[q]:
                    continue
                w = separating_word(dfa, part, p, q)
                assert len(w) <= bound
                assert (dfa.run(p, w) is None) != (dfa.run(q, w) is None)


def test_class_reducing_word_on_fig1(fig1):
    part = inseparability_partition(fig1)
    w = class_reducing_word(fig1, part, fig1.states)
    assert w == fig1.word("b")
    img = fig1.image(fig1.states, w)
    assert img and part.kappa(img) < 3
    assert len(w) <= 1  # kappa(Q) - kappa(Q) + 1


def test_class_reducing_word_requires_two_classes(fig1):
    part = inseparability_partition(fig1)
    with pytest.raises(InputError):
        class_reducing_word(fig1, part, {0, 3})


def test_class_reducing_word_random_postconditions():
    import random
    rnd = random.Random(1)
    for seed in range(40):
        dfa = gen_random_partial(3 + seed % 6, 2, 0.7 + (seed % 3) * 0.1, seed)
        part = inseparability_partition(dfa)
        kq = part.kappa(dfa.states)
        for _ in range(25):
            S = frozenset(q for q in range(dfa.n) if rnd.random() < 0.6)
            ks = part.kappa(S)
            if ks < 2:
                continue
            w = class_reducing_word(dfa, part, S)
            img = dfa.image(S, w)
            assert img, "voiding never empties the image"
            assert 1 <= part.kappa(img) < ks
            assert len(w) <= min(kq - ks + 1, dfa.n - len(S) + 1)


def test_collapse_to_single_class(fig1):
    part = inseparability_partition(fig1)
    assert collapse_to_single_class_word(fig1, part, {0}) == EPSILON
    w = collapse_to_single_class_word(fig1, part, fig1.states)
    assert w == fig1.word("bab")
    assert len(w) <= 3  # (kappa-1) * (kappa - kappa/2) = 2 * 1.5
    img = fig1.image(fig1.states, w)
    assert img and part.kappa(img) == 1
    with pytest.raises(InputError):
        collapse_to_single_class_word(fig1, part, frozenset())


def test_collapse_bound_random():
    import random
    rnd = random.Random(2)
    for seed in range(40):
        dfa = gen_random_partial(3 + seed % 6, 2, 0.75, seed + 900)
        part = inseparability_partition(dfa)
        kq = part.kappa(dfa.states)
        for _ in range(10):
            S = frozenset(q for q in range(dfa.n) if rnd.random() < 0.7)
            if not S:
                continue
            ks = part.kappa(S)
            w = collapse_to_single_class_word(dfa, part, S)
            img = dfa.image(S, w)
            assert img and part.kappa(img) == 1
            assert len(w) <= (ks - 1) * (kq - ks / 2)


def test_quotient_fig1(fig1):
    part = inseparability_partition(fig1)
    qdfa, class_of = quotient(fig1, part)
    assert qdfa.n == 3
    assert class_of == part.class_of
    assert qdfa.trans == ((1, 0), (2, 1), (0, None))
    assert is_strongly_connected(qdfa)


def test_quotient_of_complete_dfa_is_one_state():
    dfa = parse_dfa("dfa v1\nstates 3\nalphabet a\n0 a 1\n1 a 2\n2 a 0\n")
    qdfa, _ = quotient(dfa, inseparability_partition(dfa))
    assert qdfa.n == 1


def test_quotient_of_power_code_is_literal_of_root():
    # literal({y^k}) / equiv is isomorphic to literal({y}); both are cycles
    # anchored at their root, so matching the transitions along the cycle is
    # an isomorphism check
    y, k = "aab", 2
    big = literal_automaton(validate_code([y * k]))
    small = literal_automaton(validate_code([y]))
    part = inseparability_partition(big.dfa)
    qdfa, class_of = quotient(big.dfa, part)
    assert qdfa.n == small.dfa.n
    pairing = {class_of[big.root]: small.root}
    stack = [class_of[big.root]]
    while stack:
        c = stack.pop()
        for a in range(len(qdfa.alphabet)):
            t, s = qdfa.trans[c][a], small.dfa.trans[pairing[c]][a]
            assert (t is None) == (s is None)
            if t is not None:
                if t in pairing:
                    assert pairing[t] == s
                else:
                    pairing[t] = s
                    stack.append(t)
    assert len(pairing) == qdfa.n


def test_quotient_well_defined_random():
    for seed in range(30):
        dfa = gen_random_partial(3 + seed % 6, 2, 0.8, seed + 123)
        part = inseparability_partition(dfa)
        for cls in part.classes:
            for a in range(len(dfa.alphabet)):
                targets = {dfa.trans[q][a] for q in cls}
                dead = {t for t in targets if t is None}
                assert not dead or dead == targets
                if not dead:
                    assert len({part.class_of[t] for t in targets}) == 1


def test_one_moore_refinement_per_partition(monkeypatch, fig1):
    # the stability check is one pass over the states: Moore's refinement
    # runs once, on the quotient, to prove distinct classes separable
    from syncword import equivalence
    calls = []
    real = equivalence._moore

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(equivalence, "_moore", counted)
    for dfa in (fig1, gen_cerny(5),
                literal_automaton(gen_random_prefix_code(12, 6, 3, 1)).dfa):
        calls.clear()
        part = inseparability_partition(dfa)
        assert calls == [(part.table.trans,)]


def refinement_levels(dfa):
    """Moore-style chain of level-k partitions, coarsest first.

    Level-k classes group states whose word actions of length <= k agree on
    definedness.  The chain is strictly refining until it stabilizes at the
    inseparability partition; the stable partition is the last element.
    """
    k = len(dfa.alphabet)
    class_of = [0] * dfa.n
    chain = [class_of]
    while True:
        sig = {}
        nxt = [0] * dfa.n
        for q in range(dfa.n):
            key = (class_of[q],
                   tuple(UNDEF if dfa.trans[q][a] is UNDEF else class_of[dfa.trans[q][a]]
                         for a in range(k)))
            nxt[q] = sig.setdefault(key, len(sig))
        if nxt == class_of:
            break
        class_of = nxt
        chain.append(class_of)
    out = []
    for levels in chain:
        groups = {}
        for q, c in enumerate(levels):
            groups.setdefault(c, set()).add(q)
        out.append(tuple(sorted((frozenset(g) for g in groups.values()), key=min)))
    return out


def test_refinement_chain_monotone():
    for seed in range(20):
        dfa = gen_random_partial(3 + seed % 6, 2, 0.75, seed + 321)
        chain = refinement_levels(dfa)
        assert [frozenset(range(dfa.n))] == list(chain[0])
        for coarse, fine in zip(chain, chain[1:]):
            for cls in fine:
                assert any(cls <= sup for sup in coarse)
            assert len(fine) > len(coarse)
        part = inseparability_partition(dfa)
        assert list(chain[-1]) == list(part.classes)
        assert len(chain) - 1 <= max(len(part.classes) - 1, 0)


def test_partition_memory_per_class_pair():
    # the separation witnesses are one PairTable over class ids: a 4-byte
    # index entry per ordered class pair and three array items per
    # unordered one, about 26 B per class pair with the classes themselves
    dfa = literal_automaton(gen_random_prefix_code(40, 12, 3, 2)).dfa
    tracemalloc.start()
    try:
        part = inseparability_partition(dfa)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    kappa_ = len(part.classes)
    assert kappa_ == 118
    assert retained < 64 * (kappa_ * (kappa_ - 1) // 2)


# Mutants of the class computation, run under python -O so that a check
# written as an assert would let them through.  Merging two separable
# classes of fig1 gives a class that splits; the singletons of a complete
# automaton form a congruence, so only the refinement of the quotient can
# refuse them.
MUTANT_SCRIPT = """
import sys
from syncword import SyncwordError, cli, equivalence, parse_dfa
real = equivalence._hopcroft_classes

def merged(dfa):
    first, second, *rest = sorted(real(dfa), key=min)
    return [first | second, *rest]

def singletons(dfa):
    return [{q} for q in range(dfa.n)]

assert False, "assert statements must be off"
equivalence._hopcroft_classes = globals()[sys.argv[1]]
try:
    equivalence.inseparability_partition(parse_dfa(open(sys.argv[2]).read()))
except SyncwordError as exc:
    print(type(exc).__name__, exc)
sys.exit(cli.run(["classes", sys.argv[2]]))
"""


@pytest.mark.parametrize("mutant, text, message", [
    ("merged", (FIXTURES / "fig1left.dfa").read_text(),
     "class [0, 1, 3, 4] splits on its letters"),
    ("singletons", format_dfa(gen_cerny(5)),
     "classes [0] and [1] are not separable"),
], ids=["too-coarse", "too-fine"])
def test_wrong_classes_are_refused(tmp_path, mutant, text, message):
    path = tmp_path / "input.dfa"
    path.write_text(text)
    proc = run_optimized(MUTANT_SCRIPT, mutant, str(path))
    assert (proc.returncode, proc.stdout) == (3, f"SyncwordError {message}\n")
    assert proc.stderr == f"internal error: {message}\n"
