import pytest

from syncword import (InputError, Lcg64, UNDEF, gen_cerny, gen_oneword_code,
                      gen_random_partial, gen_random_prefix_code, is_complete,
                      is_strongly_connected, literal_automaton, subset_bfs)


def test_lcg64_golden_values():
    rng = Lcg64(0)
    assert rng.next_u64() == 7806831264735756412
    assert rng.next_u64() == 9396908728118811419
    rng = Lcg64(42)
    assert rng.below(6) == 5
    assert 0.0 <= Lcg64(7).unit() < 1.0


def test_lcg64_below_takes_the_top_bits_of_the_next_state():
    rng, ref = Lcg64(9), Lcg64(9)
    for bound in [1, 2, 5, 6, 24, 1 << 31, (1 << 32) - 1] * 40:
        assert rng.below(bound) == ((ref.next_u64() >> 32) * bound) >> 32
    assert rng.state == ref.state


def test_cerny_structure():
    for n in (1, 2, 4, 8):
        cn = gen_cerny(n)
        assert is_complete(cn) and is_strongly_connected(cn)
        assert len(cn.alphabet) == 2


def test_cerny_thresholds_small():
    assert subset_bfs(gen_cerny(1)).reset_threshold == 0
    assert subset_bfs(gen_cerny(2)).reset_threshold == 1
    assert subset_bfs(gen_cerny(4)).reset_threshold == 9


def test_oneword_code_family():
    assert gen_oneword_code(1).words == ("abaab",)
    assert gen_oneword_code(2).words == ("aabaaab",)
    lit = literal_automaton(gen_oneword_code(2))
    assert lit.dfa.n == 7
    assert subset_bfs(lit.dfa).reset_threshold == 3
    with pytest.raises(InputError):
        gen_oneword_code(0)


def test_random_partial_full_density_is_complete():
    dfa = gen_random_partial(5, 2, 1.0, 3)
    assert is_complete(dfa) and is_strongly_connected(dfa)


def test_random_partial_zero_density_rejected():
    with pytest.raises(InputError):
        gen_random_partial(4, 2, 0.0, 0)


def test_random_partial_golden():
    # frozen at first generation; guards the documented generator algorithm
    dfa = gen_random_partial(6, 2, 0.9, 42)
    assert dfa == gen_random_partial(6, 2, 0.9, 42)
    assert dfa.trans == ((4, 4), (5, 2), (1, UNDEF),
                         (4, 3), (2, UNDEF), (3, 0))


def test_random_partial_all_strongly_connected():
    for seed in range(15):
        dfa = gen_random_partial(3 + seed % 6, 2, 0.7, seed)
        assert is_strongly_connected(dfa)


def test_random_code_golden():
    code = gen_random_prefix_code(4, 5, 2, 7)
    assert code.words == ("ababa", "aaabb", "bbbbb", "bab")


def test_random_code_prefix_free():
    for seed in range(20):
        code = gen_random_prefix_code(2 + seed % 4, 3 + seed % 4, 2, seed)
        words = code.words
        for i, u in enumerate(words):
            for j, v in enumerate(words):
                if i != j:
                    assert not v.startswith(u)


def test_random_code_unary_alphabet_rules():
    assert gen_random_prefix_code(1, 4, 1, 0).words[0].startswith("a")
    with pytest.raises(InputError):
        gen_random_prefix_code(2, 4, 1, 0)
