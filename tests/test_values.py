"""The value types of the package: their repr, equality, hashing and
immutability, pinned on one small instance of each."""
import pytest

from syncword import (PartialDfa, collecting_tree, extremal_search,
                      greedy_min_rank, induced, inseparability_partition,
                      literal_automaton, pair_table, subset_bfs, validate_code)
from syncword.criteria import QUICK
from syncword.equivalence import Partition
from syncword.oracle import OracleReport

DFA = PartialDfa(2, ("a", "b"), ((1, None), (0, 0)))
DFA_REPR = "PartialDfa(n=2, alphabet=('a', 'b'), trans=((1, None), (0, 0)))"
PART_REPR = "Partition(class_of=(0, 1), classes=(frozenset({0}), frozenset({1})))"


def complete_table(dfa):
    table = pair_table(dfa)
    table.all_compressible()
    return table


def values():
    """One instance of each value type and its repr."""
    code = validate_code(["a", "ba"])
    part = inseparability_partition(DFA)
    return [
        (DFA, DFA_REPR),
        (complete_table(DFA),
         "PairTable(n=2, pairs=array('i', [1]), dist=array('i', [1]), "
         "letter=array('i', [1]), index=array('i', [-1, 1, 1, -1]))"),
        (greedy_min_rank(DFA),
         "SyncResult(word=(1,), final_rank=1, trace=((1, (1,)),))"),
        (code, "PrefixCode(words=('a', 'ba'))"),
        (literal_automaton(code),
         "LiteralAutomaton(code=PrefixCode(words=('a', 'ba')), "
         "dfa=PartialDfa(n=2, alphabet=('a', 'b'), trans=((0, 1), (0, None))), "
         "prefixes=('', 'b'), state_of={'': 0, 'b': 1}, height=1)"),
        (part, PART_REPR),
        (collecting_tree(DFA, part, 0),
         f"CollectingTree(root_class=0, parent={{1: (0, 0)}}, partition={PART_REPR})"),
        (induced(DFA, [()], [(0,)]),
         f"InducedAutomaton(base={DFA_REPR}, R=(0, 1), letters=((0,),), "
         "dfa=PartialDfa(n=2, alphabet=('\"a\"',), trans=((1,), (0,))))"),
        (subset_bfs(DFA),
         "OracleReport(n=2, thresholds={0: (2, (1, 1)), 1: (1, (1,)), "
         "2: (0, ())}, subsets=4, depth=2)"),
        (extremal_search(2),
         "ExtremalResult(n=2, target=1, best_rt=1, best_dfa=PartialDfa(n=2, "
         "alphabet=('a', 'b'), trans=((None, 1), (0, 0))), attained=True, "
         "candidates=12)"),
        (QUICK,
         "Profile(size_cap=8, seed=0, automata=35, subsets=20, codes=20, "
         "complete=10, oneword=3)"),
    ]


VALUES = values()
IDS = [type(value).__name__ for value, _ in VALUES]


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_repr(value, text):
    assert repr(value) == text


def test_every_value_type_is_pinned():
    assert sorted(IDS) == [
        "CollectingTree", "ExtremalResult", "InducedAutomaton",
        "LiteralAutomaton", "OracleReport", "PairTable", "PartialDfa",
        "Partition", "PrefixCode", "Profile", "SyncResult"]


def test_dfa_hash_and_equality_leave_out_its_caches():
    other = PartialDfa(2, ("a", "b"), ((1, None), (0, 0)))
    other.image({0, 1}, (0, 1) * 40)
    assert hash(DFA) == hash((DFA.n, DFA.alphabet, DFA.trans))
    assert hash(other) == hash(DFA) and other == DFA
    assert other != PartialDfa(2, ("a", "b"), ((1, 1), (0, 0)))


def test_report_equality_leaves_out_subsets_and_depth():
    report = subset_bfs(DFA)
    same = OracleReport(report.n, report.thresholds, subsets=0, depth=7)
    assert same == report
    assert OracleReport(report.n, {}, report.subsets, report.depth) != report


def test_partition_equality_and_hash_leave_out_its_table():
    part = inseparability_partition(DFA)
    same = Partition(part.class_of, part.classes, table=None)
    assert same == part and hash(same) == hash(part)
    assert Partition((0, 0), (frozenset({0, 1}),), part.table) != part


def test_pair_table_is_unhashable_and_equal_by_its_lists():
    assert pair_table(DFA) == complete_table(DFA)
    with pytest.raises(TypeError):
        hash(pair_table(DFA))


@pytest.mark.parametrize("value", [value for value, _ in VALUES], ids=IDS)
def test_fields_are_read_only(value):
    name = repr(value).split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.new_attribute = None


def test_values_of_different_types_are_unequal():
    for i, (value, _) in enumerate(VALUES):
        for j, (other, _) in enumerate(VALUES):
            assert (value == other) == (i == j)
