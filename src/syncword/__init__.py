"""Synchronization toolkit for strongly connected partial DFAs.

Core surface: partial automata with their word actions (automaton),
inseparability equivalence and voiding words (equivalence), the fixing /
collecting / induced / duplicating transformations (constructions), the
generalized pair-compression algorithms and reduction to the complete case
(synchronization), prefix codes with literal automata and low-rank words
(codes), an exact subset-BFS oracle (oracle), and fixture generators
(generators).
"""

from .automaton import (EPSILON, GAMMA_TOKEN, UNDEF, PartialDfa, Word,
                        connecting_word, format_dfa, image, is_complete,
                        is_eulerian, is_mortal, is_properly_incomplete,
                        is_strongly_connected, parse_dfa, preimage, rank)
from .codes import (LiteralAutomaton, PrefixCode, all_through_root_word,
                    compress_path_word, filtering_alpha, format_code,
                    literal_automaton, literal_reset_word, log_rank_word,
                    one_word_rank, parse_code, pivot_state, primitive_root,
                    validate_code, weinbaum_conjugate)
from .constructions import (CollectingTree, InducedAutomaton, collecting,
                            collecting_tree, duplicating, fixing, induced,
                            lift_word_to_partial, strip_gamma)
from .equivalence import (Partition, class_reducing_word,
                          collapse_to_single_class_word,
                          inseparability_partition, kappa, quotient,
                          separating_word)
from .errors import (FormatError, InputError, NotStronglyConnected,
                     NotSynchronizing, SyncwordError)
from .generators import (Lcg64, gen_cerny, gen_oneword_code,
                         gen_random_partial, gen_random_prefix_code)
from .oracle import (KERNEL_BACKEND, OracleReport, duplicating_identity_check,
                     extremal_search, subset_bfs)
from .synchronization import (PairTable, SyncResult, greedy_min_rank,
                              is_synchronizing, min_rank_word_via_fixing,
                              pair_table, pair_word, rank_target_word,
                              reduction_to_complete, reset_word_via_collecting)

__version__ = "0.1.0"
