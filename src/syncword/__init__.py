"""Synchronization toolkit for strongly connected partial DFAs.

Core surface: partial automata with their word actions (automaton),
inseparability equivalence and voiding words (equivalence), the fixing /
collecting / induced / duplicating transformations (constructions), the
generalized pair-compression algorithms and reduction to the complete case
(synchronization), prefix codes with literal automata and low-rank words
(codes), an exact subset-BFS oracle (oracle), and fixture generators
(generators).

Every name below is imported from its submodule on first use (PEP 562), so
importing the package, as each `python -m syncword.cli` run does, loads no
submodule by itself.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "automaton": (
        "EPSILON", "GAMMA_TOKEN", "UNDEF", "PairTable", "PartialDfa", "Word",
        "connecting_word", "format_dfa", "is_complete", "is_eulerian",
        "is_properly_incomplete", "is_strongly_connected", "parse_dfa"),
    "codes": (
        "LiteralAutomaton", "PrefixCode", "all_through_root_word",
        "compress_path_word", "filtering_alpha", "format_code",
        "literal_automaton", "literal_reset_word", "log_rank_word",
        "one_word_rank", "parse_code", "pivot_walk", "primitive_root",
        "validate_code", "weinbaum_conjugate"),
    "constructions": (
        "CollectingTree", "InducedAutomaton", "collecting", "collecting_tree",
        "duplicating", "fixing", "induced", "lift_word_to_partial",
        "strip_gamma"),
    "equivalence": (
        "Partition", "class_reducing_word", "collapse_to_single_class_word",
        "inseparability_partition", "quotient", "separating_word"),
    "errors": (
        "FormatError", "InputError", "NotStronglyConnected",
        "NotSynchronizing", "SyncwordError"),
    "generators": (
        "Lcg64", "gen_cerny", "gen_oneword_code", "gen_random_partial",
        "gen_random_prefix_code"),
    "oracle": (
        "KERNEL_BACKEND", "OracleReport", "duplicating_identity_check",
        "extremal_search", "subset_bfs"),
    "synchronization": (
        "SyncResult", "greedy_min_rank", "is_synchronizing",
        "min_rank_word_via_fixing", "pair_table", "rank_target_word",
        "reduction_to_complete", "reset_word_via_collecting"),
}

_SUBMODULE = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_SUBMODULE)


def _submodule(module):
    # __import__, unlike importlib.import_module, takes the interpreter's own
    # import path, the one `python -X importtime` reports
    __import__(f"{__name__}.{module}")
    return globals()[module]


def __getattr__(name):
    if name in _EXPORTS:  # a submodule nothing has imported yet
        return _submodule(name)
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
