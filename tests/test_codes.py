import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from syncword import (EPSILON, UNDEF, InputError, NotSynchronizing,
                      SyncwordError, all_through_root_word, compress_path_word,
                      filtering_alpha, gen_oneword_code,
                      gen_random_prefix_code, literal_automaton,
                      literal_reset_word, log_rank_word, one_word_rank,
                      parse_code, pivot_walk, primitive_root, subset_bfs,
                      validate_code, weinbaum_conjugate)
from syncword import codes
from syncword.synchronization import compress_pairs, pair_table

from test_cli import run_optimized


# -------------------------------------------------------------- validation

def test_validate_decoder_code():
    code = validate_code(["abaaa", "abaab", "abab", "abba"])
    assert code.alphabet == ("a", "b")


def test_validate_rejects_prefix_pair():
    with pytest.raises(InputError, match="'a' is a prefix of 'ab'"):
        validate_code(["a", "ab"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text("ab", min_size=1, max_size=4), min_size=1,
                max_size=8, unique=True))
def test_validate_finds_every_prefix_pair(words):
    pairs = [(u, v) for u in words for v in words
             if u != v and v.startswith(u)]
    if not pairs:
        assert validate_code(words).words == tuple(words)
        return
    with pytest.raises(InputError, match="is a prefix of") as err:
        validate_code(words)
    assert any(str(err.value) == f"codeword {u!r} is a prefix of {v!r}"
               for u, v in pairs)


def test_validate_rejects_empty_word_and_duplicates():
    with pytest.raises(InputError):
        validate_code(["", "a"])
    with pytest.raises(InputError):
        validate_code(["ab", "ab"])
    with pytest.raises(InputError):
        validate_code([])


@pytest.mark.parametrize("word", ["a b", "a\na", "\ta"])
def test_validate_rejects_whitespace_letters(word):
    with pytest.raises(InputError, match="whitespace"):
        validate_code([word, "c"])


def test_parse_code_comments():
    code = parse_code("# decoder\nab\nba # trailing\n\n")
    assert code.words == ("ab", "ba")


# -------------------------------------------------------- literal automaton

def test_literal_decoder_structure(decoder_lit):
    assert decoder_lit.prefixes == ("", "a", "ab", "aba", "abaa", "abb")
    assert decoder_lit.height == 4
    assert decoder_lit.root == 0
    assert decoder_lit.dfa.trans == (
        (1, None), (None, 2), (3, 5), (4, 0), (0, 0), (0, None))


def test_literal_single_letter_code():
    lit = literal_automaton(validate_code(["a"]))
    assert lit.dfa.n == 1
    assert lit.dfa.trans == ((0,),)


def test_literal_two_word_code():
    lit = literal_automaton(validate_code(["ab", "ba"]))
    assert lit.prefixes == ("", "a", "b")


def test_literal_recognizes_code_star(decoder_lit):
    # image({root}, m) == {root} exactly for concatenations of codewords
    dfa = decoder_lit.dfa
    codewords = set(decoder_lit.code.words)
    maxlen = 2 * max(len(w) for w in codewords)

    def in_star(word):
        if not word:
            return True
        return any(word.startswith(c) and in_star(word[len(c):])
                   for c in codewords)

    for length in range(maxlen + 1):
        for tup in product("ab", repeat=length):
            m = "".join(tup)
            loops = dfa.image({decoder_lit.root}, dfa.word(m)) == {decoder_lit.root}
            assert loops == in_star(m)


def test_codeword_actions_loop_on_root():
    for words in (["abaaa", "abaab", "abab", "abba"], ["ab", "b"], ["aa", "ab"]):
        lit = literal_automaton(validate_code(words))
        for w in words:
            assert lit.dfa.image({lit.root}, lit.dfa.word(w)) == {lit.root}


# Runs under `python -O`: the connectivity check must not be an assert.
DISCONNECTED_LITERAL_SCRIPT = """
from syncword import SyncwordError, codes, validate_code

codes.is_strongly_connected = lambda dfa: False
assert False, "assert statements must be off"
try:
    codes.literal_automaton(validate_code(["ab", "b"]))
    print("accepted")
except SyncwordError as exc:
    print("raised:", exc)
"""


def test_literal_connectivity_check_under_optimize():
    proc = run_optimized(DISCONNECTED_LITERAL_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: literal automata are strongly connected\n"


# ----------------------------------------------------------- one-word codes

def test_primitive_root_examples():
    assert primitive_root("abab") == ("ab", 2)
    assert primitive_root("aab") == ("aab", 1)
    assert primitive_root("aaaaaa") == ("a", 6)
    assert primitive_root("a") == ("a", 1)


def test_one_word_rank():
    assert one_word_rank(validate_code(["abab"])) == 2
    assert one_word_rank(validate_code(["aab"])) == 1
    assert one_word_rank(validate_code(["aabaab"])) == 2
    with pytest.raises(InputError):
        one_word_rank(validate_code(["ab", "ba"]))


def test_one_word_rank_matches_oracle():
    for x in ("abab", "aab", "aabaab", "abaab", "ababab", "abba"):
        code = validate_code([x])
        lit = literal_automaton(code)
        assert one_word_rank(code) == subset_bfs(lit.dfa).min_nonzero_rank


def test_weinbaum_ab():
    lit = literal_automaton(validate_code(["ab"]))
    u, v = weinbaum_conjugate("ab", lit)
    assert {u, v} == {"a", "b"}


def test_weinbaum_split_property():
    for x in ("aab", "abaab", "aabaaab", "abba"[:3]):
        lit = literal_automaton(validate_code([x]))
        u, v = weinbaum_conjugate(x, lit)
        assert u + v in {x[i:] + x[:i] for i in range(len(x))}
        for part in (u, v):
            word = lit.dfa.word(part)
            defined = [q for q in range(lit.dfa.n)
                       if lit.dfa.run(q, word) is not None]
            assert len(defined) == 1
        assert min(len(u), len(v)) <= len(x) / 2


def test_single_letter_word_is_reset_by_the_empty_word():
    lit = literal_automaton(validate_code(["a"]))
    assert weinbaum_conjugate("a", lit) == ("", "a")
    assert literal_reset_word(lit) == EPSILON


def test_dash_letter_is_not_the_empty_word():
    # '-' spells the empty word in word text, but is a letter of this code
    lit = literal_automaton(validate_code(["a-"]))
    u, v = weinbaum_conjugate("a-", lit)
    assert {u, v} == {"a", "-"}
    word = literal_reset_word(lit)
    assert len(word) == 1 and lit.dfa.rank(word) == 1


def _ref_defined_states(lit, w):
    word = lit.letters(w)
    return [q for q in range(lit.dfa.n) if lit.dfa.run(q, word) is not UNDEF]


def ref_weinbaum_conjugate(x, lit):
    """The former cubic scan: replays both parts of every split from every
    state of the literal automaton."""
    if primitive_root(x)[1] != 1:
        raise InputError(f"{x!r} is not primitive")
    if lit.code.words != (x,):
        raise InputError("literal automaton must belong to the one-word code")
    if len(x) == 1:
        # a single state, which the empty word already resets
        return "", x
    for i in range(len(x)):
        conj = x[i:] + x[:i]
        for j in range(1, len(conj)):
            u, v = conj[:j], conj[j:]
            if len(_ref_defined_states(lit, u)) == 1 and len(_ref_defined_states(lit, v)) == 1:
                return u, v
    raise SyncwordError("no conjugate split found for a primitive word")


@pytest.mark.parametrize("k", range(1, 61))
def test_weinbaum_matches_scan_on_oneword_family(k):
    x = gen_oneword_code(k).words[0]
    lit = literal_automaton(validate_code([x]))
    assert weinbaum_conjugate(x, lit) == ref_weinbaum_conjugate(x, lit)


# words of length 1..40 over 1-3 of the letters a, b and '-'; the tests
# take the primitive root of each
short_words = (st.lists(st.sampled_from("ab-"), min_size=1, max_size=3,
                        unique=True)
               .flatmap(lambda letters: st.text(letters, min_size=1,
                                                max_size=40)))


@settings(max_examples=300, deadline=None)
@given(short_words)
def test_weinbaum_matches_scan_on_primitive_words(text):
    x = primitive_root(text)[0]
    lit = literal_automaton(validate_code([x]))
    assert weinbaum_conjugate(x, lit) == ref_weinbaum_conjugate(x, lit)


def test_cyclic_overlaps_match_definition():
    # every primitive binary word up to length 10, so the long overlaps that
    # wrap around the end of x are covered too
    def lcp(a, b):
        return next((i for i, (c, d) in enumerate(zip(a, b)) if c != d), len(a))

    for n in range(1, 11):
        for letters in product("ab", repeat=n):
            x = "".join(letters)
            if primitive_root(x)[1] != 1:
                continue
            rotations = [(x + x)[s:s + n] for s in range(n)]
            assert codes._cyclic_overlaps(x) == [
                max((lcp(rotations[s], rotations[t])
                     for t in range(n) if t != s), default=0)
                for s in range(n)], x


def test_weinbaum_rejects_imprimitive():
    lit = literal_automaton(validate_code(["abab"]))
    with pytest.raises(InputError):
        weinbaum_conjugate("abab", lit)


def test_oneword_family_reset_words():
    for k in range(1, 5):
        code = gen_oneword_code(k)
        lit = literal_automaton(code)
        word = literal_reset_word(lit)
        assert len(word) == k + 1
        assert lit.dfa.rank(word) == 1


# ------------------------------------------------------------------- pivot

def test_pivot_decoder(decoder_lit):
    assert pivot_walk(decoder_lit)[2] == decoder_lit.state_of["ab"]
    assert pivot_walk(decoder_lit)[0] == (0, 1)
    assert pivot_walk(decoder_lit)[3] == (0, 1)


def test_pivot_at_root():
    lit = literal_automaton(validate_code(["ab", "b"]))
    assert pivot_walk(lit)[2] == lit.root
    assert pivot_walk(lit)[0] == ()


def test_pivot_one_step_down():
    lit = literal_automaton(validate_code(["aa", "ab"]))
    assert pivot_walk(lit)[2] == lit.state_of["a"]
    assert pivot_walk(lit)[0] == (lit.root,)


def test_pivot_needs_two_words():
    lit = literal_automaton(validate_code(["ab"]))
    with pytest.raises(InputError):
        pivot_walk(lit)


# --------------------------------------------------------------- filtering

def test_filtering_empty_input_stops_at_active_pivot(decoder_lit):
    p = pivot_walk(decoder_lit)[2]
    assert filtering_alpha(decoder_lit, p, EPSILON) == EPSILON


def test_filtering_output_bounds(decoder_lit):
    p = pivot_walk(decoder_lit)[2]
    for length in range(0, 6):
        for w in product((0, 1), repeat=length):
            out = filtering_alpha(decoder_lit, p, w)
            assert len(out) <= decoder_lit.height
            assert decoder_lit.dfa.rank(out) > 0


def test_filtering_distinctness(decoder_lit):
    # equal-length inputs with outputs shorter than the height are distinct
    p = pivot_walk(decoder_lit)[2]
    h = decoder_lit.height
    for length in (3, 5):
        outputs = {}
        for w in product((0, 1), repeat=length):
            out = filtering_alpha(decoder_lit, p, w)
            if len(out) < h:
                assert out not in outputs, (w, outputs[out])
                outputs[out] = w


def test_all_through_root_decoder(decoder_lit):
    w = all_through_root_word(decoder_lit)
    dfa = decoder_lit.dfa
    assert dfa.rank(w) > 0
    assert len(w) <= decoder_lit.height
    for q in range(dfa.n):
        cur = q
        visited = q == decoder_lit.root
        for a in w:
            cur = dfa.trans[cur][a]
            if cur is None:
                break
            visited = visited or cur == decoder_lit.root
        assert cur is None or visited


def test_all_through_root_instant_for_root_pivot():
    lit = literal_automaton(validate_code(["ab", "b"]))
    w = all_through_root_word(lit)
    assert lit.dfa.rank(w) > 0


def ref_passes_through_root(lit, w):
    """The per-state replay _passes_through_root made before its set walk."""
    dfa = lit.dfa
    for q in range(dfa.n):
        visited_root = q == lit.root
        cur = q
        for a in w:
            cur = dfa.trans[cur][a]
            if cur is UNDEF:
                break
            if cur == lit.root:
                visited_root = True
        if cur is not UNDEF and not visited_root:
            return False
    return True


@st.composite
def prefix_codes(draw):
    """The prefix-free greedy selection from a list of words over a, b, c."""
    chosen = []
    for w in draw(st.lists(st.text("abc", min_size=1, max_size=5),
                           min_size=1, max_size=10)):
        if not any(w.startswith(c) or c.startswith(w) for c in chosen):
            chosen.append(w)
    return validate_code(chosen)


@settings(max_examples=300, deadline=None)
@given(prefix_codes(), st.data())
def test_passes_through_root_matches_replay(code, data):
    lit = literal_automaton(code)
    k = len(lit.dfa.alphabet)
    w = tuple(data.draw(st.lists(st.integers(0, k - 1), max_size=12)))
    assert codes._passes_through_root(lit, w) == ref_passes_through_root(lit, w)


# ----------------------------------------------------- compression along P

def test_compress_path_empty_intersection(decoder_lit):
    assert compress_path_word(decoder_lit, {pivot_walk(decoder_lit)[2]}) == EPSILON


def test_log_rank_deep_pivot_families():
    # two-word codes {wa, wb} place the pivot at depth |w|, so the
    # path-compression phase actually runs, including on periodic paths
    # where the halving letter is tied
    for length in range(1, 7):
        for bits in product("ab", repeat=length):
            prefix = "".join(bits)
            for exts in (["a", "b"], ["aa", "b"], ["aa", "ba"]):
                lit = literal_automaton(validate_code([prefix + e for e in exts]))
                if lit.height == 0:
                    continue
                w = log_rank_word(lit)
                h, n = lit.height, lit.dfa.n
                assert lit.dfa.rank(w) <= \
                    math.ceil(math.log2(h * n)) + math.ceil(math.log2(h))


def test_compress_path_bound_decoder(decoder_lit):
    w = all_through_root_word(decoder_lit)
    R = decoder_lit.dfa.image(decoder_lit.dfa.states, w)
    v = compress_path_word(decoder_lit, R)
    P = set(pivot_walk(decoder_lit)[0])
    img = decoder_lit.dfa.image(P & set(R), v)
    h = decoder_lit.height
    if P & set(R):
        assert 1 <= len(img) <= math.ceil(math.log2(h))
    assert len(v) <= h


# ---------------------------------------------------------------- log rank

def test_log_rank_decoder(decoder_lit):
    w = log_rank_word(decoder_lit)
    h, n = decoder_lit.height, decoder_lit.dfa.n
    assert decoder_lit.dfa.rank(w) > 0
    assert len(w) <= 2 * h
    bound = math.ceil(math.log2(h * n)) + math.ceil(math.log2(h))
    assert bound == 7
    assert decoder_lit.dfa.rank(w) <= bound


def test_log_rank_two_word_code():
    lit = literal_automaton(validate_code(["ab", "b"]))
    w = log_rank_word(lit)
    assert lit.dfa.rank(w) > 0
    assert len(w) <= 2 * lit.height


def test_log_rank_rejects_one_word_code():
    lit = literal_automaton(validate_code(["abaab"]))
    with pytest.raises(InputError):
        log_rank_word(lit)


def test_candidate_enumeration_cap():
    # h*n beyond 2^22 would need millions of filtered candidates
    lit = literal_automaton(validate_code(["a" * 4100 + "b", "b"]))
    with pytest.raises(InputError, match="cap"):
        all_through_root_word(lit)


def test_log_rank_random_codes():
    done = 0
    seed = 0
    while done < 60:
        seed += 1
        code = gen_random_prefix_code(2 + seed % 4, 2 + seed % 6, 2, seed)
        lit = literal_automaton(code)
        if lit.height == 0:
            continue
        w = log_rank_word(lit)  # postconditions asserted inside
        h, n = lit.height, lit.dfa.n
        assert len(w) <= 2 * h
        r = lit.dfa.rank(w)
        assert 0 < r <= math.ceil(math.log2(h * n)) + math.ceil(math.log2(h))
        done += 1


# -------------------------------------------------------------- reset words

def test_literal_reset_word_decoder(decoder_lit):
    w = literal_reset_word(decoder_lit)
    assert decoder_lit.dfa.rank(w) == 1
    assert len(w) >= subset_bfs(decoder_lit.dfa).reset_threshold


def test_literal_reset_word_z2():
    lit = literal_automaton(gen_oneword_code(2))
    w = literal_reset_word(lit)
    assert w == lit.dfa.word("aaa")


def test_literal_reset_word_rejects_abab():
    lit = literal_automaton(validate_code(["abab"]))
    with pytest.raises(NotSynchronizing, match="rank 2"):
        literal_reset_word(lit)


def test_literal_reset_word_rejects_incompressible_pair():
    # every codeword has length 2, so each letter moves the states across
    # the two levels {''} and {'a', 'b'}: '' never meets 'a'
    lit = literal_automaton(validate_code(["aa", "ab", "ba", "bb"]))
    with pytest.raises(NotSynchronizing) as exc:
        literal_reset_word(lit)
    assert str(exc.value) == \
        "not synchronizing: pair {'', 'a'} is incompressible"


def _reset_word_from_complete_table(lit):
    """literal_reset_word on a multi-word code, deciding up front from the
    complete pair table: the word, or the message of the negative answer."""
    dfa = lit.dfa
    table = pair_table(dfa)
    if not table.all_compressible():
        p, q = next((p, q) for p in range(dfa.n) for q in range(p + 1, dfa.n)
                    if table.distance(p, q) is None)
        return (f"not synchronizing: pair {{{lit.prefixes[p]!r}, "
                f"{lit.prefixes[q]!r}}} is incompressible")
    word = list(log_rank_word(lit))
    compress_pairs(table, dfa.image(dfa.states, tuple(word)), word, [])
    return tuple(word)


def test_literal_reset_word_decides_as_the_complete_table():
    # greedy from the log-rank word's image ends in one state iff every
    # pair of the literal automaton settles
    codes_seen = negatives = 0
    for seed in range(3000):
        try:
            code = gen_random_prefix_code(2 + seed % 6, 2 + seed % 7,
                                          2 + seed % 2, seed)
        except InputError:
            continue  # more words than the length and alphabet allow
        lit = literal_automaton(code)
        try:
            got = literal_reset_word(lit)
        except NotSynchronizing as exc:
            got = str(exc)
            negatives += 1
        assert got == _reset_word_from_complete_table(lit), seed
        codes_seen += 1
    assert (codes_seen, negatives) == (2929, 79)


def test_literal_reset_word_random_codes():
    done = 0
    seed = 100
    while done < 40:
        seed += 1
        code = gen_random_prefix_code(2 + seed % 3, 2 + seed % 5, 2, seed)
        lit = literal_automaton(code)
        try:
            w = literal_reset_word(lit)
        except NotSynchronizing:
            assert subset_bfs(lit.dfa).reset_threshold is None
            continue
        assert lit.dfa.rank(w) == 1
        assert len(w) >= subset_bfs(lit.dfa).reset_threshold
        done += 1
