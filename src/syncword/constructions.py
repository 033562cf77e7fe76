"""Automaton transformations: fixing, collecting, induced, duplicating.

fixing completes a partial automaton by turning undefined transitions into
self-loops; collecting additionally adds a letter that walks every state's
class down a tree of classes into a chosen root class; induced restricts to
the image of a word set with composite letters; duplicating doubles every
rank threshold while making the automaton properly incomplete.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .automaton import (GAMMA_TOKEN, UNDEF, PartialDfa, Word, bfs_tree,
                        check_cells, is_complete, predecessors,
                        require_strongly_connected)
from .errors import InputError, SyncwordError, Value

if TYPE_CHECKING:
    from .equivalence import Partition


def fixing(dfa: PartialDfa) -> PartialDfa:
    """Complete automaton: undefined transitions become self-loops."""
    table = tuple(tuple(q if t is UNDEF else t for t in row)
                  for q, row in enumerate(dfa.trans))
    return PartialDfa(dfa.n, dfa.alphabet, table)


def lift_word_to_partial(dfa: PartialDfa, S, w: Word) -> Word:
    """A subword w' of w with empty != image(S, w') <= image_fixing(S, w).

    Letter-by-letter filter: drop a letter exactly when the whole current
    image would die under it (those states are the ones the fixing automaton
    holds in place).  If image(S, w) is non-empty, nothing is dropped.
    """
    cur = frozenset(S)
    if not cur:
        raise InputError("empty subset")
    if dfa.image(cur, w):
        return tuple(w)
    out = []
    for a in w:
        nxt = dfa.image(cur, (a,))
        if nxt:
            out.append(a)
            cur = nxt
    return tuple(out)


class CollectingTree(Value):
    """Tree on inseparability classes directed toward a root class.

    parent maps every non-root class id to (letter, parent class id), where
    the quotient moves the class to its parent under the letter.
    """

    _fields = ("root_class", "parent", "partition")


def collecting_tree(dfa: PartialDfa, part: Partition, root_class: int) -> CollectingTree:
    """Breadth-first tree in the reversed quotient digraph from root_class.

    Deterministic: predecessors are scanned in (letter, class) order.
    """
    require_strongly_connected(dfa)
    qtable = part.table.trans
    kappa_ = len(qtable)
    if not 0 <= root_class < kappa_:
        raise InputError(f"no class {root_class}")
    inv = predecessors(qtable, len(dfa.alphabet))
    parent = bfs_tree(root_class, lambda t: ((a, c) for a, inv_a in
                                             enumerate(inv) for c in inv_a[t]))
    if len(parent) != kappa_:
        raise SyncwordError(
            "quotient of a strongly connected automaton must be strongly connected")
    del parent[root_class]
    return CollectingTree(root_class, parent, part)


def gamma_alphabet(dfa: PartialDfa, n: int) -> tuple[str, ...]:
    """dfa's alphabet plus @g, for an n-state automaton over both; refuses
    an alphabet that holds @g or a table above MAX_CELLS before any work."""
    if GAMMA_TOKEN in dfa.alphabet:
        raise InputError(f"alphabet already uses the reserved token {GAMMA_TOKEN!r}")
    check_cells(n, len(dfa.alphabet) + 1)
    return dfa.alphabet + (GAMMA_TOKEN,)


def collecting(dfa: PartialDfa, tree: CollectingTree) -> PartialDfa:
    """Complete automaton over the alphabet plus the collecting letter @g.

    On the original alphabet it acts as the fixing automaton; @g follows the
    tree edge of each state's class and is the identity on the root class,
    so @g^(n-1) maps everything into the root class.
    """
    alphabet = gamma_alphabet(dfa, dfa.n)
    part = tree.partition
    fixed = fixing(dfa)
    table = []
    for q in range(dfa.n):
        cls = part.class_of[q]
        if cls == tree.root_class:
            g = q
        else:
            a, _ = tree.parent[cls]
            g = dfa.trans[q][a]
            if g is UNDEF:
                raise SyncwordError(
                    "tree edge letter must be defined on the whole class")
        table.append(fixed.trans[q] + (g,))
    return PartialDfa(dfa.n, alphabet, tuple(table))


def strip_gamma(dfa: PartialDfa, tree: CollectingTree, w: Word) -> Word:
    """Rewrite a root-class-synchronizing word of the collecting automaton
    into one over the original alphabet that synchronizes the root class in
    the partial automaton itself; the output is never longer than the input.

    Left to right, tracking the image's class through the quotient table:
    @g becomes the tree letter of the current class (dropped on the root
    class), and a letter the class dies under is dropped.  By induction, the
    collecting automaton's image of the root class under each prefix of w
    equals dfa's image under the output so far: a class agrees on
    definedness, so a letter defined on it acts as in dfa, and one undefined
    on it holds the class in place in the collecting automaton; @g is the
    identity on the root class and elsewhere the tree letter, defined on the
    whole class.  So one replay of the output checks the input as well.
    """
    gamma = len(gamma_alphabet(dfa, dfa.n)) - 1
    root, qtable = tree.root_class, tree.partition.table.trans
    out = []
    cls = root
    for a in w:
        if a == gamma:
            if cls != root:
                a, cls = tree.parent[cls]
                out.append(a)
        elif qtable[cls][a] is not UNDEF:
            cls = qtable[cls][a]
            out.append(a)
    if len(dfa.image(tree.partition.classes[root], out)) != 1:
        raise InputError("word does not synchronize the root class in the collecting automaton")
    return tuple(out)


class InducedAutomaton(Value):
    """Restriction of an automaton to R = image under W1, with one composite
    letter per distinct action of a W2 W1 product word.

    dfa re-indexes R densely; letters[i] is the product word the i-th
    composite letter stands for.
    """

    _fields = ("base", "R", "letters", "dfa")


def _composite_token(base: PartialDfa, w: Word) -> str:
    """A distinct quoted token per word: its letters joined, with '.' when
    some letter of base is longer than one character ('\\' and '.' escaped
    inside letters); the empty word is "-", or "" when '-' is a letter."""
    if not w:
        return '""' if "-" in base.alphabet else '"-"'
    toks = [base.alphabet[a] for a in w]
    if all(len(t) == 1 for t in base.alphabet):
        return '"' + "".join(toks) + '"'
    return '"' + ".".join(t.replace("\\", "\\\\").replace(".", "\\.")
                          for t in toks) + '"'


def induced(dfa: PartialDfa, W1, W2) -> InducedAutomaton:
    """Induced automaton on R = union of image(Q, w1) with letters W2 W1.

    Product words with identical action on R are merged, keeping the
    shortest (then lexicographically least) representative: the product set
    can explode combinatorially while distinct actions cannot.
    """
    W1 = [tuple(w) for w in W1]
    W2 = [tuple(w) for w in W2]
    if not W1 or not W2:
        raise InputError("W1 and W2 must be non-empty")
    R = set()
    for w in W1:
        R |= dfa.image(dfa.states, w)
    if not R:
        raise InputError("image of W1 is empty")
    R = tuple(sorted(R))
    local = {q: i for i, q in enumerate(R)}

    by_action = {}
    for w2 in W2:
        for w1 in W1:
            word = w2 + w1
            action = tuple(dfa.run(q, word) for q in R)
            if not all(t is UNDEF or t in local for t in action):
                raise SyncwordError("a W2 W1 word must map into R or die")
            key = (len(word), word)
            if action not in by_action or key < by_action[action][0]:
                by_action[action] = (key, action)
    chosen = sorted(by_action.values())
    letters = tuple(key[1] for key, _ in chosen)
    actions = [action for _, action in chosen]

    table = tuple(tuple(UNDEF if action[i] is UNDEF else local[action[i]]
                        for action in actions)
                  for i in range(len(R)))
    tokens = tuple(_composite_token(dfa, w) for w in letters)
    sub = PartialDfa(len(R), tokens, table)
    return InducedAutomaton(dfa, R, letters, sub)


def duplicating(dfa: PartialDfa) -> PartialDfa:
    """2n-state properly incomplete automaton with doubled rank thresholds.

    Original letters fix every unprimed state and act as the original on the
    primed copy; @g swaps into the primed copy and is undefined there.
    """
    if not is_complete(dfa):
        raise InputError("duplicating automaton is defined for complete automata")
    n, k = dfa.n, len(dfa.alphabet)
    alphabet = gamma_alphabet(dfa, 2 * n)
    table = []
    for q in range(n):
        table.append(tuple([q] * k) + (n + q,))
    for q in range(n):
        table.append(dfa.trans[q] + (UNDEF,))
    return PartialDfa(2 * n, alphabet, tuple(table))
