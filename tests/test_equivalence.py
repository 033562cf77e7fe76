from itertools import product

import pytest

from syncword import (EPSILON, UNDEF, InputError, class_reducing_word,
                      collapse_to_single_class_word, gen_random_partial,
                      inseparability_partition, is_strongly_connected, kappa,
                      literal_automaton, parse_dfa, quotient, separating_word,
                      validate_code)


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
    assert kappa(part, fig1.states) == 3
    assert kappa(part, {0}) == 1
    assert kappa(part, {0, 1, 3}) == 2
    assert kappa(part, frozenset()) == 0


def test_separating_word_levels(fig1):
    part = inseparability_partition(fig1)
    # classes {0,3} and {1,4} separate at level 2 via "ab"; both vs {2,5} at 1
    assert part.levels == {(0, 2): (1, 1), (1, 2): (1, 1), (0, 1): (0, 2)}
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
    assert img and kappa(part, img) < 3
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
        kq = kappa(part, dfa.states)
        for _ in range(25):
            S = frozenset(q for q in range(dfa.n) if rnd.random() < 0.6)
            ks = kappa(part, S)
            if ks < 2:
                continue
            w = class_reducing_word(dfa, part, S)
            img = dfa.image(S, w)
            assert img, "voiding never empties the image"
            assert 1 <= kappa(part, img) < ks
            assert len(w) <= min(kq - ks + 1, dfa.n - len(S) + 1)


def test_collapse_to_single_class(fig1):
    part = inseparability_partition(fig1)
    assert collapse_to_single_class_word(fig1, part, {0}) == EPSILON
    w = collapse_to_single_class_word(fig1, part, fig1.states)
    assert w == fig1.word("bab")
    assert len(w) <= 3  # (kappa-1) * (kappa - kappa/2) = 2 * 1.5
    img = fig1.image(fig1.states, w)
    assert img and kappa(part, img) == 1
    with pytest.raises(InputError):
        collapse_to_single_class_word(fig1, part, frozenset())


def test_collapse_bound_random():
    import random
    rnd = random.Random(2)
    for seed in range(40):
        dfa = gen_random_partial(3 + seed % 6, 2, 0.75, seed + 900)
        part = inseparability_partition(dfa)
        kq = kappa(part, dfa.states)
        for _ in range(10):
            S = frozenset(q for q in range(dfa.n) if rnd.random() < 0.7)
            if not S:
                continue
            ks = kappa(part, S)
            w = collapse_to_single_class_word(dfa, part, S)
            img = dfa.image(S, w)
            assert img and kappa(part, img) == 1
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
