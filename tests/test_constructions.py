import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncword import (EPSILON, UNDEF, InputError, NotStronglyConnected,
                      PartialDfa, collecting, collecting_tree, duplicating,
                      fixing, gen_cerny, gen_random_partial, induced,
                      inseparability_partition, is_complete, is_eulerian,
                      is_properly_incomplete, is_strongly_connected,
                      lift_word_to_partial, parse_dfa, strip_gamma,
                      subset_bfs, greedy_min_rank, is_synchronizing)
from syncword.automaton import GAMMA_TOKEN, MAX_CELLS, predecessors
from syncword.constructions import _composite_token

from conftest import small_automata


# ------------------------------------------------------------------ fixing

def test_fixing_complete_unchanged():
    dfa = parse_dfa("dfa v1\nstates 2\nalphabet a\n0 a 1\n1 a 0\n")
    assert fixing(dfa) == dfa


def test_fixing_fig1(fig1):
    fixed = fixing(fig1)
    assert is_complete(fixed)
    assert fixed.trans[2][1] == 2 and fixed.trans[5][1] == 5
    for q in range(6):
        for a in range(2):
            if fig1.trans[q][a] is not UNDEF:
                assert fixed.trans[q][a] == fig1.trans[q][a]


def test_fixing_preserves_eulerian():
    # partial Eulerian: cycle on a, b partially defined as a 2-cycle on {0,1}
    dfa = PartialDfa(4, ("a", "b"),
                     ((1, 1), (2, 0), (3, UNDEF), (0, UNDEF)))
    assert is_eulerian(dfa)
    assert is_eulerian(fixing(dfa))


def test_fixing_dominates_images(fig1):
    rnd = random.Random(0)
    fixed = fixing(fig1)
    for _ in range(200):
        w = tuple(rnd.randrange(2) for _ in range(rnd.randrange(8)))
        S = frozenset(q for q in range(6) if rnd.random() < 0.5)
        assert fig1.image(S, w) <= fixed.image(S, w)
        if all(fig1.run(q, w) is not None for q in S):
            assert fig1.image(S, w) == fixed.image(S, w)


def test_min_nonzero_rank_bounded_by_fixing_min_rank():
    for seed in range(25):
        dfa = gen_random_partial(3 + seed % 6, 2, 0.7 + (seed % 3) * 0.1, seed)
        partial_rank = subset_bfs(dfa).min_nonzero_rank
        fixed_report = subset_bfs(fixing(dfa))
        fixed_rank = min(r for r in fixed_report.thresholds)
        assert partial_rank <= fixed_rank


# ----------------------------------------------------------------- lifting

def test_lift_on_complete_is_identity():
    dfa = parse_dfa("dfa v1\nstates 2\nalphabet a b\n0 a 1\n1 a 0\n0 b 0\n1 b 1\n")
    w = dfa.word("abba")
    assert lift_word_to_partial(dfa, dfa.states, w) == w


def test_lift_fig1_bb(fig1):
    w = fig1.word("bb")
    lifted = lift_word_to_partial(fig1, fig1.states, w)
    assert lifted == w  # the whole image never dies under b here
    assert fig1.image(fig1.states, lifted) == {0, 1, 4}


def test_lift_requires_nonempty_subset(fig1):
    with pytest.raises(InputError):
        lift_word_to_partial(fig1, frozenset(), fig1.word("b"))


def test_lift_random_postconditions():
    rnd = random.Random(3)
    for seed in range(30):
        dfa = gen_random_partial(3 + seed % 6, 2, 0.7, seed + 50)
        fixed = fixing(dfa)
        for _ in range(40):
            S = frozenset(q for q in range(dfa.n) if rnd.random() < 0.6)
            if not S:
                continue
            w = tuple(rnd.randrange(2) for _ in range(rnd.randrange(10)))
            lifted = lift_word_to_partial(dfa, S, w)
            assert len(lifted) <= len(w)
            img = dfa.image(S, lifted)
            assert img and img <= fixed.image(S, w)


# -------------------------------------------------------------- collecting

def test_collecting_tree_fig1(fig1):
    part = inseparability_partition(fig1)
    tree = collecting_tree(fig1, part, 2)  # root [q3] = {2, 5}
    assert tree.root_class == 2
    assert set(tree.parent) == {0, 1}
    # every edge is a quotient transition toward the root
    for child, (letter, parent) in tree.parent.items():
        targets = {part.class_of[fig1.trans[q][letter]]
                   for q in part.classes[child]}
        assert targets == {parent}
    # directed toward the root: following parents terminates there
    for c in range(3):
        seen = set()
        while c != tree.root_class:
            assert c not in seen
            seen.add(c)
            c = tree.parent[c][1]


def test_collecting_tree_single_class():
    dfa = parse_dfa("dfa v1\nstates 2\nalphabet a\n0 a 1\n1 a 0\n")
    part = inseparability_partition(dfa)
    tree = collecting_tree(dfa, part, 0)
    assert tree.parent == {}


def test_collecting_tree_requires_strong_connectivity():
    line = parse_dfa("dfa v1\nstates 2\nalphabet a\n0 a 1\n")
    part = inseparability_partition(line)
    with pytest.raises(NotStronglyConnected):
        collecting_tree(line, part, 0)


def ref_collecting_parent(qtable, k, root_class):
    """The parent map of collecting_tree by a BFS loop of its own, a
    reference that shares no code with automaton.bfs_tree."""
    inv = predecessors(qtable, k)
    parent = {}
    seen = {root_class}
    queue = deque([root_class])
    while queue:
        target = queue.popleft()
        for a, inv_a in enumerate(inv):
            for c in inv_a[target]:
                if c not in seen:
                    parent[c] = (a, target)
                    seen.add(c)
                    queue.append(c)
    return parent


@settings(deadline=None)
# four classes, whose trees differ when the queue is read depth first
@example(PartialDfa(4, ("a", "b"), ((1, 2), (3, UNDEF), (1, 1), (0, 2))))
@given(small_automata(strongly_connected=True))
def test_collecting_tree_matches_reference_bfs(dfa):
    part = inseparability_partition(dfa)
    for root in range(len(part.classes)):
        parent = collecting_tree(dfa, part, root).parent
        expected = ref_collecting_parent(part.table.trans, len(dfa.alphabet),
                                         root)
        # in discovery order too, which the tree's repr shows
        assert list(parent.items()) == list(expected.items())


def test_collecting_automaton_fig1(fig1):
    part = inseparability_partition(fig1)
    tree = collecting_tree(fig1, part, 2)
    coll = collecting(fig1, tree)
    assert coll.alphabet == ("a", "b", GAMMA_TOKEN)
    assert is_complete(coll) and is_strongly_connected(coll)
    # the non-collecting part acts as the fixing automaton
    fixed = fixing(fig1)
    assert all(coll.trans[q][:2] == fixed.trans[q] for q in range(6))
    # @g acts as identity on the root class
    assert coll.trans[2][2] == 2 and coll.trans[5][2] == 5
    gamma_power = (2,) * (fig1.n - 1)
    assert coll.image(coll.states, gamma_power) <= part.classes[2]


def test_collecting_on_one_class_input():
    dfa = parse_dfa("dfa v1\nstates 2\nalphabet a\n0 a 1\n1 a 0\n")
    part = inseparability_partition(dfa)
    coll = collecting(dfa, collecting_tree(dfa, part, 0))
    assert all(coll.trans[q][-1] == q for q in range(2))


def test_collecting_random_properties():
    for seed in range(30):
        dfa = gen_random_partial(3 + seed % 6, 2, 0.7, seed + 77)
        part = inseparability_partition(dfa)
        for root in range(len(part.classes)):
            tree = collecting_tree(dfa, part, root)
            coll = collecting(dfa, tree)
            gamma_power = (2,) * (dfa.n - 1)
            assert coll.image(coll.states, gamma_power) <= part.classes[root]
            assert is_strongly_connected(coll)


def test_collecting_preserves_synchronizability_all_trees():
    # the equivalence holds for every collecting tree, not just the default
    for seed in range(25):
        dfa = gen_random_partial(3 + seed % 5, 2, 0.75, seed + 400)
        part = inseparability_partition(dfa)
        expected = is_synchronizing(dfa)
        assert expected == (subset_bfs(dfa).reset_threshold is not None)
        for root in range(len(part.classes)):
            coll = collecting(dfa, collecting_tree(dfa, part, root))
            assert is_synchronizing(coll) == expected


# ------------------------------------------------------------- strip gamma

def test_strip_gamma_plain_word_passthrough(fig1):
    part = inseparability_partition(fig1)
    tree = collecting_tree(fig1, part, 0)
    w = fig1.word("bab")  # no @g, defined along the tracked classes
    assert strip_gamma(fig1, tree, w) == w


def test_strip_gamma_removes_gamma(fig1):
    part = inseparability_partition(fig1)
    tree = collecting_tree(fig1, part, 0)
    coll = collecting(fig1, tree)
    root = part.classes[0]
    # gamma^5 then a word synchronizing the root class over the base alphabet
    w = (2,) * 5 + fig1.word("bb")
    assert len(coll.image(root, w)) == 1
    out = strip_gamma(fig1, tree, w)
    assert len(out) <= len(w)
    assert all(a < 2 for a in out)
    assert len(fig1.image(root, out)) == 1


def test_strip_gamma_rejects_nonsynchronizing_word(fig1):
    part = inseparability_partition(fig1)
    tree = collecting_tree(fig1, part, 0)
    with pytest.raises(InputError):
        strip_gamma(fig1, tree, fig1.word("a"))


def test_strip_gamma_random():
    for seed in range(25):
        dfa = gen_random_partial(3 + seed % 5, 2, 0.8, seed + 611)
        part = inseparability_partition(dfa)
        tree = collecting_tree(dfa, part, 0)
        coll = collecting(dfa, tree)
        if not is_synchronizing(coll):
            continue
        w = greedy_min_rank(coll).word
        out = strip_gamma(dfa, tree, w)
        assert len(out) <= len(w)
        root = part.classes[0]
        assert len(dfa.image(root, out)) == 1


def test_strip_gamma_rejects_reserved_token():
    dfa = PartialDfa(2, ("a", GAMMA_TOKEN), ((1, 0), (0, 1)))
    tree = collecting_tree(dfa, inseparability_partition(dfa), 0)
    with pytest.raises(InputError, match="reserved token '@g'"):
        strip_gamma(dfa, tree, ())


# ----------------------------------------------------------------- induced

def test_induced_identity_words(fig1):
    # W1 = W2 = {epsilon}: R is the whole state set and the only composite
    # letter is the identity
    ind = induced(fig1, [EPSILON], [EPSILON])
    assert ind.R == tuple(range(6))
    assert ind.letters == (EPSILON,)
    assert ind.dfa.trans == tuple((q,) for q in range(6))


def test_induced_single_letters_recover_base(fig1):
    ind = induced(fig1, [EPSILON], [(0,), (1,)])
    assert ind.R == tuple(range(6))
    assert ind.letters == ((0,), (1,))
    assert ind.dfa.trans == fig1.trans


def test_induced_decoder_example(fig1):
    w2 = [fig1.word(u + "a" * j) for u in ("ab", "aab") for j in range(6)]
    ind = induced(fig1, [fig1.word("b")], w2)
    assert ind.R == (0, 1, 4)
    # merged by action: twelve products collapse to seven distinct letters
    assert len(ind.letters) == 7
    assert fig1.word("abb") in ind.letters
    # synchronizing by a single composite letter, e.g. abb
    abb = ind.letters.index(fig1.word("abb"))
    assert ind.dfa.rank((abb,)) == 1


def test_induced_actions_stay_in_R():
    rnd = random.Random(4)
    for seed in range(20):
        dfa = gen_random_partial(3 + seed % 6, 2, 0.75, seed + 200)
        w1 = [tuple(rnd.randrange(2) for _ in range(rnd.randrange(1, 4)))
              for _ in range(2)]
        w2 = [tuple(rnd.randrange(2) for _ in range(rnd.randrange(3)))
              for _ in range(3)]
        R = frozenset().union(*(dfa.image(dfa.states, w) for w in w1))
        if not R:
            with pytest.raises(InputError):
                induced(dfa, w1, w2)
            continue
        ind = induced(dfa, w1, w2)
        assert frozenset(ind.R) == R
        for w in ind.letters:
            assert dfa.image(R, w) <= R


def test_induced_empty_word_token_when_dash_is_a_letter():
    # the empty word prints as "-" unless '-' is a letter, as words do
    dfa = PartialDfa(2, ("-", "a"), ((1, 0), (0, 1)))
    assert induced(dfa, [EPSILON], [EPSILON, (0,)]).dfa.alphabet == \
        ('""', '"-"')


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text("ab.\\-", min_size=1, max_size=3), min_size=1,
                max_size=4, unique=True), st.data())
def test_composite_tokens_are_distinct(alphabet, data):
    dfa = PartialDfa(1, tuple(alphabet), ((0,) * len(alphabet),))
    words = data.draw(st.lists(
        st.lists(st.integers(0, len(alphabet) - 1), max_size=4).map(tuple),
        unique=True))
    tokens = [_composite_token(dfa, w) for w in words]
    assert len(set(tokens)) == len(tokens)


def test_induced_requires_nonempty_sets(fig1):
    with pytest.raises(InputError):
        induced(fig1, [], [EPSILON])


# ------------------------------------------------------------- duplicating

def test_duplicating_one_state_loop():
    dfa = parse_dfa("dfa v1\nstates 1\nalphabet a\n0 a 0\n")
    dup = duplicating(dfa)
    assert dup.n == 2
    assert dup.trans == ((0, 1), (0, None))
    assert is_strongly_connected(dup) and is_properly_incomplete(dup)


def test_duplicating_structure():
    c4 = gen_cerny(4)
    dup = duplicating(c4)
    assert dup.n == 8 and dup.alphabet == ("a", "b", GAMMA_TOKEN)
    for q in range(4):
        assert dup.trans[q] == (q, q, 4 + q)
        assert dup.trans[4 + q] == c4.trans[q] + (None,)
    assert is_properly_incomplete(dup)
    assert is_strongly_connected(dup)


def test_duplicating_doubles_cerny_reset_threshold():
    dup = duplicating(gen_cerny(4))
    assert subset_bfs(dup).reset_threshold == 18  # 2 * (4-1)^2


def test_duplicating_requires_complete(fig1):
    with pytest.raises(InputError):
        duplicating(fig1)


def test_derived_automata_above_the_cell_limit_are_refused():
    # a complete 2-cycle over 2^19 letters is within the limit; its
    # collecting automaton has 2 x (2^19 + 1) cells and its duplicating one
    # 4 x (2^19 + 1).  collecting refuses before it reads the tree, so a
    # tree of a small automaton stands in for the costly one
    k = MAX_CELLS // 2
    wide = PartialDfa(2, tuple(f"x{i}" for i in range(k)),
                      ((1,) * k, (0,) * k))
    with pytest.raises(InputError, match="transition-table cells"):
        duplicating(wide)
    small = parse_dfa("dfa v1\nstates 1\nalphabet a\n0 a 0\n")
    tree = collecting_tree(small, inseparability_partition(small), 0)
    with pytest.raises(InputError, match="transition-table cells"):
        collecting(wide, tree)


def test_duplicating_random_properly_incomplete():
    for seed in range(10):
        dfa = gen_random_partial(2 + seed % 5, 2, 1.0, seed)
        dup = duplicating(dfa)
        assert is_properly_incomplete(dup)
        assert is_strongly_connected(dup) == is_strongly_connected(dfa)
