"""Golden outputs: exact words, traces and witness tables on fixed inputs.

Every routine here breaks ties by (letter order, then state order), and the
words it emits are part of the contract.  These snapshots catch any change
in tie-breaking, not just in word length or rank.  Short words are stored
as letter tokens; long words and whole tables as their length plus the
sha256 of their repr.
"""
import hashlib

import pytest

from syncword import (UNDEF, NotSynchronizing, PartialDfa, extremal_search,
                      gen_cerny, gen_random_partial, gen_random_prefix_code,
                      greedy_min_rank, inseparability_partition,
                      literal_automaton, literal_reset_word,
                      min_rank_word_via_fixing, pair_table,
                      reset_word_via_collecting, separating_word, subset_bfs)


def _digest(obj):
    return f"{len(obj)}:{hashlib.sha256(repr(obj).encode()).hexdigest()}"


def _word(dfa, w):
    return dfa.format_word(w) if len(w) <= 24 else _digest(w)


def _trace(dfa, trace):
    return _digest(tuple((size, dfa.format_word(sub)) for size, sub in trace))


def _literal():
    return literal_automaton(gen_random_prefix_code(12, 6, 3, 6))


CASES = {
    "cerny7": lambda: gen_cerny(7),
    # not synchronizing: the fixing route runs its class-reducing loop
    "rand-6-0.70-19": lambda: gen_random_partial(6, 2, 0.70, 19),
    "rand-8-0.75-27": lambda: gen_random_partial(8, 2, 0.75, 27),
    "rand-10-0.70-7": lambda: gen_random_partial(10, 2, 0.70, 7),
    "rand-12-0.80-6": lambda: gen_random_partial(12, 2, 0.80, 6),
    "literal-code-6": lambda: _literal().dfa,
}


def snapshot(dfa):
    table = pair_table(dfa)
    part = inseparability_partition(dfa)
    seps = tuple(dfa.format_word(separating_word(dfa, part, p, q))
                 for p in range(dfa.n) for q in range(p + 1, dfa.n)
                 if part.class_of[p] != part.class_of[q])
    greedy = greedy_min_rank(dfa)
    fixing = min_rank_word_via_fixing(dfa)
    try:
        collecting = _word(dfa, reset_word_via_collecting(dfa))
    except NotSynchronizing:
        collecting = "NotSynchronizing"
    return {
        "pair_table.dist": _digest(sorted((key, d) for key, d, _ in table.items())),
        "pair_table.letter": _digest(sorted((key, a) for key, _, a in table.items())),
        "partition.levels": _digest(sorted((pq, (a, d))
                                           for pq, d, a in part.table.items())),
        "separating_words": _digest(seps),
        "greedy.word": _word(dfa, greedy.word),
        "greedy.trace": _trace(dfa, greedy.trace),
        "fixing.word": _word(dfa, fixing.word),
        "fixing.trace": _trace(dfa, fixing.trace),
        "collecting.word": collecting,
    }


GOLDEN = {
    'cerny7': {
        'pair_table.dist':
            '21:8d477533ef24d73cf4f5117298949335f6831ae2a466a888604fafd2d3daba45',
        'pair_table.letter':
            '21:bc8192c12102fff0afd9d8c5a0590501775f0815f8a3298cf16270c32edba466',
        'partition.levels':
            '0:4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
        'separating_words':
            '0:2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d',
        'greedy.word':
            '43:faa8cfccb36a90901949ecec56682856dce0dac2cbafcadf1fb08550d12d58f2',
        'greedy.trace':
            '6:67d43aecb699bd6e39d8a69053169fdb569350fb8a1de12673c59de6721970f6',
        'fixing.word':
            '43:faa8cfccb36a90901949ecec56682856dce0dac2cbafcadf1fb08550d12d58f2',
        'fixing.trace':
            '1:537feff53300b481ec78c6fdde75857519f286852ccb5d65f2c2b9e1683e0edb',
        'collecting.word':
            '43:faa8cfccb36a90901949ecec56682856dce0dac2cbafcadf1fb08550d12d58f2',
    },
    'literal-code-6': {
        'pair_table.dist':
            '105:f49a97beb35d983af39141335d2a2380bfb468b8b062a70b3d0e0b8d86c6fc73',
        'pair_table.letter':
            '105:7bbc2be819e00602ae667ea262fe07ee79e474f12734531836d684170f37be7c',
        'partition.levels':
            '66:8d89d2fc0916d2d36fae787ea990f2907af31d4292b2a58d454ca5e7d1c26423',
        'separating_words':
            '101:66a719a1511a41a0efb3f672a57ba44c563f3ac794f06722e0a0e8a0c41ca5fc',
        'greedy.word': 'c a b c',
        'greedy.trace':
            '3:abca013aaebd58771cc75386ff3d31f7707e90d8852e86ad45f667f02e623384',
        'fixing.word': 'b b c c c c a b a b',
        'fixing.trace':
            '1:34a82bd5a98037ca4cf52f349e84ebce70fe5b2e6a4a4f7e8fb755a37d7299f5',
        'collecting.word': 'c a b c c a',
    },
    'rand-10-0.70-7': {
        'pair_table.dist':
            '45:8ec8a5ddad29be104004117e1e3a29d3415c5594387d468559727335274970f6',
        'pair_table.letter':
            '45:b542bf61aeebbb19ade8cfa08f0be331f1d6bcda0ba0dcb1dd96d963849b7890',
        'partition.levels':
            '21:02dfd412fcd26289349a3d3ca97ff6f7f3fcbd90c3acdf562b19226ec01fa862',
        'separating_words':
            '41:3ab1b340150cc163a70d8e3441029f847cf9dc0670fda90a31ba2840735b6b27',
        'greedy.word': 'a b a a',
        'greedy.trace':
            '4:4b0193188069f8337e763512618e73278b4bc4d44542b5eec06a2915d71268e6',
        'fixing.word': 'b b b a a a a b',
        'fixing.trace':
            '1:6b837bb69870ec147bf58a30e6eb86242e580f5b279bae97c593890b9a7c7c8a',
        'collecting.word': 'a b a b b b a a a a b',
    },
    'rand-12-0.80-6': {
        'pair_table.dist':
            '66:f6f3838c8cbe34a6d39849cd705b82e624e247e14338c29c06d31d46e8d9ee6b',
        'pair_table.letter':
            '66:e4405c729b944f200ddf663fb4f9135c3fd9e08e73c29ec2092585f88053677e',
        'partition.levels':
            '0:4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
        'separating_words':
            '0:2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d',
        'greedy.word': 'b a b a b a b',
        'greedy.trace':
            '7:7477bea5365b846a1f590cb275ac76f2498324b1c97443cdb0468fa0146a7c71',
        'fixing.word': 'b a b a b a b',
        'fixing.trace':
            '1:41d1c50f834ebe6fdc8cbf868a3b9e8694bee2b127f9c56f0d9bbc9eb7f0fe73',
        'collecting.word': 'b a b a b a b',
    },
    'rand-6-0.70-19': {
        'pair_table.dist':
            '12:7ab2261e94b41924a130244c090b09a1a9bebd03d8e09cc62d16515d3d50ab8f',
        'pair_table.letter':
            '12:4881251d3588a43e73400a535686085ce4dea35c82606bac3b6951f8dd62d552',
        'partition.levels':
            '3:e439f9aba8c68b0120f296f570143b82d79601a341a701909389263e24ad1747',
        'separating_words':
            '12:f02d6e7c099e99c5b73e9cdad89d36c932ea3e77b119eea8d7798b67422ff45c',
        'greedy.word': 'b',
        'greedy.trace':
            '1:860b523c1a2924d63cd589d93bcba27a44fc7672dad0d28e27370b108e71538d',
        'fixing.word': 'b',
        'fixing.trace':
            '2:2e588843875fb0e324a1b2e7f402ece7811922ff523146c51dd38e52b6187a1c',
        'collecting.word': 'NotSynchronizing',
    },
    'rand-8-0.75-27': {
        'pair_table.dist':
            '28:3fac889f3fb0afb931262158fa376a416491b253456e64e35e8e6b2cb148e2b6',
        'pair_table.letter':
            '28:eb08d8257260abc51e492e65e90bf37318daa69c6ac9ba73061e17b8cf5576ab',
        'partition.levels':
            '3:d795a8dc65032649b08c92aa7adefb4267aed4bec7a5934bb10be3e6946d2365',
        'separating_words':
            '19:0a53d944521d27edc7659b9f89f3fabfebd0751bb92da2ff86a067b86834eaf7',
        'greedy.word': 'a a a b b',
        'greedy.trace':
            '4:7ad0a0c0ad132b9f7a3de19e8d5116ec3ed1b5e6852a230d32bfca7c706179d7',
        'fixing.word': 'b b a b b a b b',
        'fixing.trace':
            '1:4a99d1ccc1648750a4886eff4939df0deba7e917fce615354f674f3eaea907a4',
        'collecting.word': 'a b b',
    },
}

LITERAL_RESET = 'a a a a a c a'


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_words(name):
    assert snapshot(CASES[name]()) == GOLDEN[name]


def test_golden_literal_reset_word():
    lit = _literal()
    assert lit.dfa.format_word(literal_reset_word(lit)) == LITERAL_RESET


# ---------------------------------------------------------------- oracle

def _twin_letters():
    """Cycle family n=7 plus c, a copy of the merge letter b, and d, the
    rotation undefined on state 3: on many subsets two letters have the
    same image, and the witness must name the least of them."""
    rot = [(q + 1) % 7 for q in range(7)]
    merge = [1 if q == 0 else q for q in range(7)]
    return PartialDfa(7, ("a", "b", "c", "d"), tuple(
        (rot[q], merge[q], merge[q], UNDEF if q == 3 else rot[q])
        for q in range(7)))


ORACLE_CASES = {
    "cerny7": lambda: gen_cerny(7),
    "rand-9-0.75-3": lambda: gen_random_partial(9, 2, 0.75, 3),
    "rand3-9-0.75-2": lambda: gen_random_partial(9, 3, 0.75, 2),
    "twin-letters": _twin_letters,
}

ORACLE_GOLDEN = {
    "cerny7": {
        1: (36, '36:0c78014f2c7080949ea66acb4d6cce2c3b9f8206a523a9c4f86a15063c55b5fb'),
        2: (17, 'b a a a b a a a b a a a b a a a b'),
        3: (10, 'b a a b a a b a a b'),
        4: (7, 'b a a b a a b'), 5: (4, 'b a a b'), 6: (1, 'b'), 7: (0, '-'),
    },
    "rand-9-0.75-3": {
        0: (4, 'b b b b'), 1: (3, 'b b b'), 2: (4, 'a a b b'), 3: (2, 'b b'),
        4: (2, 'b a'), 5: (1, 'b'), 6: (2, 'a a'), 7: (1, 'a'), 9: (0, '-'),
    },
    "rand3-9-0.75-2": {
        0: (4, 'b b b b'), 1: (3, 'a b b'), 2: (2, 'b b'), 3: (2, 'a b'),
        4: (1, 'b'), 5: (2, 'a c'), 6: (1, 'c'), 7: (1, 'a'), 9: (0, '-'),
    },
    "twin-letters": {
        0: (7, 'd d d b d d d'), 1: (6, 'd b d d b d'), 2: (5, 'b d d b d'),
        3: (4, 'b d d b'), 4: (3, 'b d d'), 5: (2, 'b d'), 6: (1, 'b'),
        7: (0, '-'),
    },
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_golden_oracle_thresholds(name):
    dfa = ORACLE_CASES[name]()
    rep = subset_bfs(dfa)
    got = {r: (length, _word(dfa, w))
           for r, (length, w) in rep.thresholds.items()}
    assert got == ORACLE_GOLDEN[name]


@pytest.mark.parametrize("args, best_rt, candidates, trans", [
    ((4,), 6, 26304, ((UNDEF, 1), (2, 2), (3, 0), (1, 3))),
    ((5, False, 5, 3000), 9, 498,
     ((1, 4), (2, 3), (3, UNDEF), (0, 1), (4, 0))),
    ((5,), 9, 3250320, ((UNDEF, 1), (2, 2), (3, 0), (1, 4), (4, 3))),
])
def test_golden_extremal(args, best_rt, candidates, trans):
    res = extremal_search(*args)
    assert (res.best_rt, res.candidates) == (best_rt, candidates)
    assert res.best_dfa.trans == trans
