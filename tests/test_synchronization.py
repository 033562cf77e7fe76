import pytest

from syncword import (EPSILON, UNDEF, InputError, NotStronglyConnected,
                      NotSynchronizing, duplicating, gen_cerny,
                      gen_oneword_code, gen_random_partial,
                      gen_random_prefix_code, greedy_min_rank,
                      inseparability_partition, is_synchronizing,
                      literal_automaton, min_rank_word_via_fixing, pair_table,
                      parse_dfa, rank_target_word, reduction_to_complete,
                      reset_word_via_collecting, subset_bfs, validate_code)
from syncword import automaton, synchronization
from syncword.automaton import (GAMMA_TOKEN, PairTable, PartialDfa,
                               _settle_masks, settle_seeds)

from test_cli import FIG1, run_python


# -------------------------------------------------------------- pair table

def test_pair_table_fig1(fig1):
    table = pair_table(fig1)
    assert table.all_compressible()
    # frozen distances from an independent word-enumeration oracle
    expected = {(0, 1): 2, (0, 2): 1, (0, 3): 1, (0, 4): 2, (0, 5): 1,
                (1, 2): 1, (1, 3): 2, (1, 4): 3, (1, 5): 1, (2, 3): 1,
                (2, 4): 1, (2, 5): 2, (3, 4): 2, (3, 5): 1, (4, 5): 1}
    assert {key: d for key, d, _ in table.items()} == expected
    # {q3, q6}: both dying under b is no compression, so distance is 2
    assert table.distance(2, 5) == 2
    # the only merge-type pair: {q1, q4} collide at q1 under b
    w = table.word(0, 3)
    assert w == fig1.word("b")
    assert fig1.image({0, 3}, w) == {0}


def test_pair_words_compress(fig1):
    table = pair_table(fig1)
    for (p, q), d, _ in table.items():
        w = table.word(p, q)
        assert len(w) == d
        assert len(fig1.image({p, q}, w)) == 1


# gen_random_partial arguments; the first automaton is not synchronizing,
# so its compression table leaves pairs such as {0, 2} unsettled
RANDOM_AUTOMATA = [(6, 2, 0.70, 19)] + [
    (3 + s % 6, 2 + s % 2, 0.7, s + 41) for s in range(10)]


def random_tables():
    """(merge, table) for the compression and the separation table of each
    of RANDOM_AUTOMATA."""
    for args in RANDOM_AUTOMATA:
        dfa = gen_random_partial(*args)
        yield True, pair_table(dfa)
        yield False, inseparability_partition(dfa).table


def test_recorded_words_settle_their_pairs():
    for merge, table in random_tables():
        for p in range(table.n):
            for q in range(table.n):
                d = table.distance(p, q)
                if d is None:
                    continue
                w = table.word(p, q)
                assert len(w) == d
                x, y = p, q
                for a in w:
                    x = UNDEF if x is UNDEF else table.trans[x][a]
                    y = UNDEF if y is UNDEF else table.trans[y][a]
                # exactly one dies or, in a compression table, they merge
                assert (x is UNDEF) != (y is UNDEF) or \
                    merge and x is not UNDEF and x == y


# Runs in a child interpreter: a walk that misses the guard never returns.
UNSETTLED_SCRIPT = """
import ast, sys
from syncword import (InputError, gen_random_partial,
                      inseparability_partition, pair_table)
refused = 0
for args in ast.literal_eval(sys.argv[1]):
    dfa = gen_random_partial(*args)
    for table in (pair_table(dfa), inseparability_partition(dfa).table):
        for p in range(table.n):
            for q in range(table.n):
                if table.distance(p, q) is None:
                    try:
                        table.word(p, q)
                    except InputError:
                        refused += 1
                    else:
                        print("returned", p, q)
print("refused", refused)
"""


def test_unsettled_pairs_have_no_word():
    # every p == q, and the unsettled pairs of the compression tables
    unsettled = sum(table.distance(p, q) is None
                    for _, table in random_tables()
                    for p in range(table.n) for q in range(table.n))
    diagonal = sum(table.n for _, table in random_tables())
    assert unsettled > diagonal
    proc = run_python("-c", UNSETTLED_SCRIPT, repr(RANDOM_AUTOMATA), timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"refused {unsettled}\n"


def test_pair_table_complete_dfa_merge_only():
    c4 = gen_cerny(4)
    table = pair_table(c4)
    assert table.all_compressible()
    for (p, q), d, a in table.items():
        if d == 1:
            assert c4.trans[p][a] == c4.trans[q][a]


def test_pair_table_matches_word_enumeration():
    from itertools import product
    for seed in range(15):
        dfa = gen_random_partial(3 + seed % 4, 2, 0.7, seed + 31)
        table = pair_table(dfa)
        brute = {}
        for length in range(0, 9):
            for w in product(range(2), repeat=length):
                for p in range(dfa.n):
                    for q in range(p + 1, dfa.n):
                        if (p, q) in brute:
                            continue
                        if len(dfa.image({p, q}, w)) == 1:
                            brute[(p, q)] = length
        for key, d in brute.items():
            assert table.distance(*key) == d


# --------------------------------------------------------- is_synchronizing

def test_is_synchronizing_examples(fig1):
    assert is_synchronizing(fig1)
    one = parse_dfa("dfa v1\nstates 1\nalphabet a\n0 a 0\n")
    assert is_synchronizing(one)
    lit = literal_automaton(validate_code(["aa"]))
    assert not is_synchronizing(lit.dfa)


def test_is_synchronizing_rejects_non_strongly_connected():
    line = parse_dfa("dfa v1\nstates 2\nalphabet a\n0 a 1\n")
    with pytest.raises(NotStronglyConnected):
        is_synchronizing(line)


# ------------------------------------------------------------------- greedy

def test_greedy_fig1(fig1):
    res = greedy_min_rank(fig1)
    assert res.final_rank == 1
    assert fig1.rank(res.word) == 1
    assert len(res.word) >= 3  # bab is the unique shortest reset word
    assert res.replay(fig1)


def test_replay_rejects_a_tampered_trace(fig1):
    res = greedy_min_rank(fig1)
    size, sub = res.trace[0]
    assert not res.replace(trace=((size + 1, sub), *res.trace[1:])).replay(fig1)
    assert not res.replace(word=res.word + res.word[:1]).replay(fig1)
    assert not res.replace(final_rank=res.final_rank + 1).replay(fig1)


def test_greedy_cerny_family():
    for n in range(2, 9):
        cn = gen_cerny(n)
        res = greedy_min_rank(cn)
        assert res.final_rank == 1
        assert len(res.word) >= (n - 1) ** 2
        assert cn.rank(res.word) == 1


def test_greedy_oneword_example():
    lit = literal_automaton(gen_oneword_code(2))
    res = greedy_min_rank(lit.dfa)
    assert res.final_rank == 1
    assert subset_bfs(lit.dfa).reset_threshold == 3  # a^{k+1} with k=2


def test_greedy_trace_strictly_decreases():
    for seed in range(25):
        dfa = gen_random_partial(3 + seed % 6, 2, 0.7, seed + 17)
        res = greedy_min_rank(dfa)
        sizes = [dfa.n] + [s for s, _ in res.trace]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert res.replay(dfa)


def test_greedy_matches_oracle_min_rank():
    for seed in range(60):
        dfa = gen_random_partial(2 + seed % 7, 2, 0.6 + (seed % 4) * 0.1,
                                 seed + 1000)
        res = greedy_min_rank(dfa)
        assert res.final_rank == subset_bfs(dfa).min_nonzero_rank
        assert dfa.rank(res.word) == res.final_rank


# ------------------------------------------------------- fixing-based route

def test_fixing_route_complete_input():
    # fixing a complete automaton changes nothing, so the pipeline collapses
    # to plain greedy compression
    c4 = gen_cerny(4)
    res = min_rank_word_via_fixing(c4)
    assert res.final_rank == 1
    assert res.word == greedy_min_rank(c4).word


def test_fixing_route_fig1(fig1):
    res = min_rank_word_via_fixing(fig1)
    assert res.final_rank == 1
    assert fig1.rank(res.word) == 1


def test_fixing_route_matches_oracle():
    for seed in range(40):
        dfa = gen_random_partial(2 + seed % 7, 2, 0.65 + (seed % 3) * 0.1,
                                 seed + 2000)
        res = min_rank_word_via_fixing(dfa)
        assert res.final_rank == subset_bfs(dfa).min_nonzero_rank
        assert dfa.rank(res.word) == res.final_rank
        assert res.final_rank == greedy_min_rank(dfa).final_rank


def test_fixing_route_builds_one_pair_table(monkeypatch):
    # the lifted word already leaves one state: the final pair compression,
    # and its pair table, are skipped
    calls = []
    real = synchronization.pair_table

    def counting(dfa):
        calls.append(dfa.n)
        return real(dfa)
    monkeypatch.setattr(synchronization, "pair_table", counting)
    c12 = gen_cerny(12)
    res = min_rank_word_via_fixing(c12)
    assert res.final_rank == 1
    assert len(calls) == 1


@pytest.mark.parametrize("n", [4, 12, 40])
def test_fixing_route_replays_the_word_once(monkeypatch, n):
    # on a complete automaton the fixing word is the lifted word: the route
    # replays it from the full set once, not once to lift it and once more
    dfa = gen_cerny(n)
    whole = []
    real = PartialDfa.image

    def spy(self, S, w):
        if self is dfa and frozenset(S) == dfa.states and len(w) > 1:
            whole.append(tuple(w))
        return real(self, S, w)
    monkeypatch.setattr(PartialDfa, "image", spy)
    res = min_rank_word_via_fixing(dfa)
    assert res.final_rank == 1
    assert whole == [res.word]


# -------------------------------------------------------------- reduction

def test_reduction_fig1(fig1):
    complete, tree = reduction_to_complete(fig1)
    assert complete.alphabet == ("a", "b", GAMMA_TOKEN)
    assert complete.n == 6
    # all classes have size 2; the tie goes to the class holding state 0
    assert tree.root_class == 0
    assert is_synchronizing(complete)


def test_reduction_keeps_fixing_part_on_complete_input():
    c4 = gen_cerny(4)
    complete, _ = reduction_to_complete(c4)
    assert complete.alphabet == ("a", "b", GAMMA_TOKEN)
    assert all(complete.trans[q][:2] == c4.trans[q] for q in range(4))


def test_reduction_refuses_before_the_partition(fig1, monkeypatch, capsys):
    # with the cap at 17 cells, fig1 (6 x 2) passes and its collecting
    # automaton (6 x 3) does not; neither refusal may wait for the
    # inseparability partition
    from syncword import equivalence
    from syncword.cli import run

    def no_partition(dfa):
        pytest.fail("the partition ran before the refusal")
    monkeypatch.setattr(equivalence, "inseparability_partition", no_partition)
    monkeypatch.setattr(automaton, "MAX_CELLS", 17)
    with pytest.raises(InputError, match="transition-table cells"):
        reduction_to_complete(fig1)
    reserved = PartialDfa(2, ("a", GAMMA_TOKEN), ((1, 0), (0, 1)))
    with pytest.raises(InputError, match="reserved token '@g'"):
        reduction_to_complete(reserved)
    assert run(["build", "collecting", FIG1]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "transition-table cells" in err


def test_reduction_equivalence_random():
    for seed in range(50):
        dfa = gen_random_partial(2 + seed % 7, 2, 0.6 + (seed % 4) * 0.1,
                                 seed + 3000)
        complete, _ = reduction_to_complete(dfa)
        lhs = is_synchronizing(dfa)
        assert lhs == is_synchronizing(complete)
        assert lhs == (subset_bfs(dfa).reset_threshold is not None)
        assert is_synchronizing(complete) == \
            (subset_bfs(complete).reset_threshold is not None)


# ------------------------------------------------------- collecting route

def test_collecting_route_fig1(fig1):
    w = reset_word_via_collecting(fig1)
    assert fig1.rank(w) == 1


def test_collecting_route_complete_synchronizing():
    # one class only: the collapse and connecting parts are empty and the
    # collecting letter never helps, so the word stays on the base alphabet
    c4 = gen_cerny(4)
    w = reset_word_via_collecting(c4)
    assert c4.rank(w) == 1
    assert all(a < 2 for a in w)


def test_collecting_route_rejects_nonsynchronizing():
    lit = literal_automaton(validate_code(["abab"]))
    with pytest.raises(NotSynchronizing):
        reset_word_via_collecting(lit.dfa)


def test_collecting_route_random():
    for seed in range(40):
        dfa = gen_random_partial(2 + seed % 7, 2, 0.7 + (seed % 3) * 0.1,
                                 seed + 4000)
        if not is_synchronizing(dfa):
            continue
        w = reset_word_via_collecting(dfa)
        assert dfa.rank(w) == 1


def test_collecting_route_lists_one_level(built_tables):
    # greedy on the collecting automaton finds a distance-1 pair in every
    # image, and so do the class steps in the separation table: neither
    # table lists a pair, not even its seeds (62 of 231 pairs and 146 of
    # 171 class pairs), yet both have them
    dfa = literal_automaton(gen_random_prefix_code(12, 6, 3, 1)).dfa
    assert dfa.rank(reset_word_via_collecting(dfa)) == 1
    (_, coll), = [(m, t) for m, t in built_tables if m]
    seeds = list(settle_seeds(coll.trans, *_settle_masks(
        coll.trans, len(coll.dfa.alphabet), True)))
    assert (coll.n, len(coll.dist), len(seeds)) == (22, 0, 62)
    assert coll._bfs is not None
    (_, separation), = [(m, t) for m, t in built_tables if not m]
    seeds = list(settle_seeds(separation.trans, *_settle_masks(
        separation.trans, len(dfa.alphabet), False)))
    assert (separation.n, len(separation.dist), len(seeds)) == (19, 0, 146)
    assert separation._bfs is not None


# greedy on the cycle family reads nearly every level of its table, which
# has one pair per level: grown to twice its size from the one seed at a
# time, the table lists a power of two of pairs, or all n(n-1)/2
@pytest.mark.parametrize("n, listed", [(5, 10), (12, 64), (100, 4096),
                                       (170, 14365)])
def test_greedy_lists_the_cycle_family_table(built_tables, n, listed):
    assert greedy_min_rank(gen_cerny(n)).final_rank == 1
    (_, table), = built_tables
    assert len(table.dist) == listed
    assert (table._bfs is None) == (listed == n * (n - 1) // 2)


# the fixing route's word on a 473-state literal automaton, recorded before
# greedy steps searched forward, when they listed 108,983 of the fixing
# automaton's 111,628 pairs
LITERAL_26_FIXING_WORD = ("a a a a b b c c b b b a c c c a c c c a b a b a c "
                          "a b a a c c a a c a b a b b a a b a b a b c c a b "
                          "c c b b")


def test_fixing_route_on_a_literal_automaton_lists_no_pair(built_tables):
    # every late greedy step on the fixing automaton is answered by the
    # forward search, so its table lists nothing, and the word is unchanged
    lit = literal_automaton(gen_random_prefix_code(80, 16, 3, 26)).dfa
    assert lit.n == 473
    result = min_rank_word_via_fixing(lit)
    assert result.final_rank == 1
    assert lit.format_word(result.word) == LITERAL_26_FIXING_WORD
    (merge, table), = built_tables
    assert merge and table.dfa != lit and len(table.dist) == 0


def test_settle_masks_computed_once_per_table(monkeypatch, built_tables):
    # greedy on the 12-state cycle answers its first step from the masks of
    # its unlisted table, then lists the table, seeded from the same masks
    masks, seeds = [], []
    real_masks, real_seed = automaton._settle_masks, PairTable._least_seed

    def counted(*args):
        masks.append(args)
        return real_masks(*args)

    def least_seed(self, rep):
        seeds.append(real_seed(self, rep))
        return seeds[-1]
    monkeypatch.setattr(automaton, "_settle_masks", counted)
    monkeypatch.setattr(PairTable, "_least_seed", least_seed)
    assert greedy_min_rank(gen_cerny(12)).final_rank == 1
    (_, table), = built_tables
    assert seeds[0] is not None and len(table.dist) == 64
    assert len(masks) == 1


# ------------------------------------------------------------- rank target

def test_rank_target_trivial(fig1):
    assert rank_target_word(fig1, 6) == EPSILON


def test_rank_target_reset(fig1):
    w = rank_target_word(fig1, 1)
    assert fig1.rank(w) == 1


def test_rank_target_skips_unreachable_sizes(fig1):
    # no word of rank exactly 2 exists here; rank 1 satisfies the target
    w = rank_target_word(fig1, 2)
    assert 0 < fig1.rank(w) <= 2


def test_rank_target_oracle_mode_duplicating():
    c4 = gen_cerny(4)
    dup = duplicating(c4)
    w = rank_target_word(dup, 2, method="oracle")
    assert dup.rank(w) == 2
    assert len(w) == 2 * subset_bfs(c4).length(2)


def test_rank_target_unreachable_rank():
    lit = literal_automaton(validate_code(["abab"]))  # minimal non-zero rank 2
    with pytest.raises(InputError):
        rank_target_word(lit.dfa, 1)
    with pytest.raises(InputError):
        rank_target_word(lit.dfa, 1, method="oracle")


@pytest.mark.parametrize("r", [1, 4])
def test_rank_target_unknown_method(r):
    # r == n is answered by the empty word, yet the method is still checked
    with pytest.raises(InputError, match="unknown method 'bogus'"):
        rank_target_word(gen_cerny(4), r, method="bogus")


def test_rank_target_range_check(fig1):
    with pytest.raises(InputError):
        rank_target_word(fig1, 0)
    with pytest.raises(InputError):
        rank_target_word(fig1, 7)
