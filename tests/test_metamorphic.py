"""Relabeling invariance (metamorphic testing: Chen, Cheung & Yiu, HKUST
1998).

Renaming the states and reordering the letters of an automaton changes the
words the algorithms pick, through tie-breaking, but none of the quantities
below: exact thresholds, minimum ranks, synchronizability decisions,
inseparability classes, pair distances and the duplicating identity.
"""
from hypothesis import given, settings, strategies as st

from syncword import (UNDEF, NotSynchronizing, PartialDfa,
                      duplicating_identity_check, gen_random_partial,
                      greedy_min_rank, inseparability_partition, is_complete,
                      min_rank_word_via_fixing, pair_table,
                      reset_word_via_collecting, subset_bfs)


def relabel(dfa, perm, order):
    """dfa with state q renamed perm[q] and letter a moved to position
    order[a]; each letter keeps its token."""
    k = len(dfa.alphabet)
    trans = [[UNDEF] * k for _ in range(dfa.n)]
    alphabet = [None] * k
    for a, b in enumerate(order):
        alphabet[b] = dfa.alphabet[a]
        for q, row in enumerate(dfa.trans):
            t = row[a]
            trans[perm[q]][b] = UNDEF if t is UNDEF else perm[t]
    return PartialDfa(dfa.n, tuple(alphabet), tuple(map(tuple, trans)))


@st.composite
def relabelings(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(2, 3))
    density = draw(st.sampled_from([0.75, 0.9, 1.0]))
    dfa = gen_random_partial(n, k, density, draw(st.integers(0, 2**32)))
    perm = draw(st.permutations(range(n)))
    order = draw(st.permutations(range(k)))
    return dfa, perm, relabel(dfa, perm, order)


def routes(dfa):
    """The final ranks of greedy and fixing, and the decisions of the
    collecting and oracle methods; `sync word` says yes for greedy and
    fixing when their final rank is 1."""
    try:
        reset_word_via_collecting(dfa)
        collecting = True
    except NotSynchronizing:
        collecting = False
    return (greedy_min_rank(dfa).final_rank,
            min_rank_word_via_fixing(dfa).final_rank,
            collecting,
            subset_bfs(dfa).witness(1) is not None)


def pair_distances(dfa, perm):
    return {frozenset((perm[p], perm[q])): d
            for (p, q), d, _ in pair_table(dfa).items()}


@settings(max_examples=100, deadline=None)
@given(relabelings())
def test_relabeling_invariance(case):
    dfa, perm, other = case
    identity = range(dfa.n)
    rep, other_rep = subset_bfs(dfa), subset_bfs(other)
    assert ({r: rep.length(r) for r in rep.thresholds}
            == {r: other_rep.length(r) for r in other_rep.thresholds})
    assert routes(dfa) == routes(other)
    assert ({frozenset(perm[q] for q in c)
             for c in inseparability_partition(dfa).classes}
            == set(inseparability_partition(other).classes))
    # the distance of each pair, mapped through perm, so also their multiset
    assert pair_distances(dfa, perm) == pair_distances(other, identity)
    if is_complete(dfa):
        assert (duplicating_identity_check(dfa)
                == duplicating_identity_check(other))
