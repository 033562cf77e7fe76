"""Mutants the test suite must kill, and a runner that checks that it does.

A mutant is a small change to the package that some test must catch
(DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE Computer
1978).  Each MUTANTS entry is (name, file under src/, old text, new text,
node ids): the old text occurs exactly once in the file, and every node id
must fail once the old text is replaced by the new one.
tests/test_mutants.py checks that each old text still occurs once and that
each node id names a test function, so the list cannot rot silently; this
file has no test_ prefix, so pytest does not collect it.

Run it from any directory:

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # the named ones

For each mutant the runner copies src/ to a temporary directory, applies
the mutant there and runs the mutant's node ids against the copy, under the
hypothesis profile "mutants" (tests/conftest.py): derandomized and with no
example database, so every run draws the same examples and a kill does not
rest on a lucky draw.  It prints one line per mutant and exits 1 if any
mutant survives, that is, if any of its node ids passes.
"""
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

MUTANTS = [
    ("best-tables-keeps-last-tie", "syncword/oracle.py",
     "        if rt > best_rt:\n",
     "        if rt >= best_rt:\n",
     ["tests/test_golden.py::test_golden_extremal",
      "tests/test_fast_paths.py::test_extremal_exhaustive_matches_table_enumeration",
      "tests/test_fast_paths.py::test_extremal_random_matches_table_draws"]),
    ("random-tables-skip-backward-check", "syncword/oracle.py",
     "        if _reaches_zero(pred, n):\n            yield flat\n",
     "        yield flat\n",
     ["tests/test_fast_paths.py::test_extremal_random_matches_table_draws"]),
    # the budget tested against the images already computed, as when the
    # test sat below the level it bounds
    ("image-budget-after-the-level", "syncword/oracle.py",
     "        if k * subsets > MAX_ORACLE_IMAGES:\n",
     "        if k * (subsets - len(level)) > MAX_ORACLE_IMAGES:\n",
     ["tests/test_oracle.py::test_subset_bfs_never_computes_past_the_image_budget"]),
    ("collecting-route-fault-as-input-error", "syncword/synchronization.py",
     "        raise SyncwordError(str(exc)) from exc\n",
     "        raise\n",
     ["tests/test_cli.py::test_collecting_route_fault_after_the_decision_exits_3"]),
    ("bfs-sources-in-int8", "syncword/oracle.py",
     '        src = array("i")\n',
     '        src = array("b")\n',
     ["tests/test_oracle.py::test_subset_bfs_moves_to_the_map_mid_search",
      "tests/test_fast_paths.py::test_bfs_kernel_matches_set_bfs_on_three_bytes"]),
    ("bfs-skips-set-to-map-copy", "syncword/oracle.py",
     "                for t in seen:\n                    marks[t] = 1\n",
     "",
     ["tests/test_oracle.py::test_subset_bfs_moves_to_the_map_mid_search"]),
    # the switch tested only in the last block of a level, that is, at the
    # level boundary
    ("bfs-map-switch-at-level-end", "syncword/oracle.py",
     "            if sparse and len(seen) > sparse_limit:\n",
     "            if sparse and len(seen) > sparse_limit "
     "and s + block >= len(level):\n",
     ["tests/test_oracle.py::test_subset_bfs_moves_to_the_map_inside_a_level"]),
    ("canonical-first-slot-off-by-one", "syncword/oracle.py",
     "if any(f >= 2 * j for j, f in enumerate(firsts, 1)):",
     "if any(f > 2 * j for j, f in enumerate(firsts, 1)):",
     ["tests/test_fast_paths.py::test_canonical_tables_are_the_bfs_relabelings",
      "tests/test_oracle.py::test_extremal_runs_one_bfs_per_canonical_table"]),
    ("canonical-skips-coreachability", "syncword/oracle.py",
     "                if _reaches_zero(tuple(map(or_, flat[0::2], flat[1::2])), n):\n",
     "                if True:\n",
     ["tests/test_fast_paths.py::test_canonical_tables_are_the_bfs_relabelings",
      "tests/test_golden.py::test_golden_extremal"]),
    ("least-seed-in-element-order", "syncword/pairs.py",
     "order = sorted((x, e) for e, x in enumerate(rep) if x is not None)",
     "order = [(x, e) for e, x in enumerate(rep) if x is not None]",
     ["tests/test_fast_paths.py::test_built_tables_break_ties_by_states"]),
    # a pair read as unsettled while the BFS is still paused short of it
    ("pair-lookup-skips-completion", "syncword/pairs.py",
     "        if self.index[p * self.n + q] <= 0:\n"
     "            self._complete()\n",
     "",
     ["tests/test_fast_paths.py::test_negative_reads_complete_the_table"]),
    # separation tables seeded by the compression rule, settling two
    # classes that one letter maps to one class
    ("pair-table-seeds-always-merge", "syncword/pairs.py",
     "masks = _settle_masks(trans, k, self.merge)",
     "masks = _settle_masks(trans, k, True)",
     ["tests/test_equivalence.py::test_separating_word_kills_exactly_one_side",
      "tests/test_fast_paths.py::test_pair_bfs_matches_dict_bfs_in_order"]),
    # a compression and a separation table on the same automaton compare
    # equal
    ("pair-table-compares-without-merge", "syncword/pairs.py",
     '    _fields = ("dfa", "trans", "elem", "merge")\n',
     '    _fields = ("dfa", "trans", "elem", "merge")\n'
     '    _compare = ("dfa", "trans", "elem")\n',
     ["tests/test_values.py::test_pair_table_is_hashable_and_equal_by_what_it_was_built_on"]),
    ("strong-connectivity-never-refused", "syncword/automaton.py",
     '        raise NotStronglyConnected("the automaton is not strongly '
     'connected")\n',
     "        return\n",
     ["tests/test_cli.py::test_not_strongly_connected_is_refused_with_one_message"]),
    # every automaton recorded as strongly connected, never checked
    ("sc-recorded-at-construction", "syncword/automaton.py",
     '        object.__setattr__(self, "_strongly_connected", False)\n',
     '        object.__setattr__(self, "_strongly_connected", True)\n',
     ["tests/test_cli.py::test_not_strongly_connected_is_refused_with_one_message",
      "tests/test_automaton.py::test_strong_connectivity_is_recorded_only_when_it_holds"]),
    # the record written before the check's result is known: the first
    # call refuses, every later one on the same automaton passes
    ("sc-recorded-before-the-check-passes", "syncword/automaton.py",
     "    if not (dfa._strongly_connected or is_strongly_connected(dfa)):\n"
     '        raise NotStronglyConnected("the automaton is not strongly '
     'connected")\n'
     '    object.__setattr__(dfa, "_strongly_connected", True)\n',
     "    ok = dfa._strongly_connected or is_strongly_connected(dfa)\n"
     '    object.__setattr__(dfa, "_strongly_connected", True)\n'
     "    if not ok:\n"
     '        raise NotStronglyConnected("the automaton is not strongly '
     'connected")\n',
     ["tests/test_automaton.py::test_strong_connectivity_is_recorded_only_when_it_holds"]),
    # Hopcroft's one seed splitter, the UNDEF sink, left empty
    ("predecessors-skip-undefined", "syncword/automaton.py",
     "            inv[a][n if t is UNDEF else t].append(q)\n",
     "            if t is not UNDEF:\n                inv[a][t].append(q)\n",
     ["tests/test_equivalence.py::test_fig1_classes",
      "tests/test_equivalence.py::test_classes_match_brute_force"]),
    ("run-action-skips-last-chunk", "syncword/automaton.py",
     "runs[run] = _Action(parts)",
     "runs[run] = _Action(parts[:-1])",
     ["tests/test_fast_paths.py::test_image_matches_replay_on_repetitive_words",
      "tests/test_fast_paths.py::test_image_states_die_mid_run",
      "tests/test_fast_paths.py::test_run_actions_follow_a_full_run_cache"]),
    # the run cache stops at nothing: every run seen once stays filed for
    # the life of the automaton
    ("run-cache-never-cleared", "syncword/automaton.py",
     "                if len(runs) >= 256:\n"
     "                    runs.clear()\n",
     "",
     ["tests/test_fast_paths.py::test_run_actions_follow_a_full_run_cache",
      "tests/test_fast_paths.py::test_chunk_cache_holds_at_most_256_actions",
      "tests/test_fast_paths.py::test_image_caches_shared_across_threads"]),
    # the reduction sized only by collecting, after the partition and the
    # tree
    ("reduction-sized-after-the-partition", "syncword/synchronization.py",
     "    gamma_alphabet(dfa, dfa.n)  # refuses before the partition\n",
     "",
     ["tests/test_synchronization.py::test_reduction_refuses_before_the_partition"]),
    # the stability pass compares each class's least state with itself
    # only, so a class that splits is let through
    ("stability-checks-least-states-only", "syncword/equivalence.py",
     "        if any(rows[q] != row for q in cls):\n",
     "        if any(rows[q] != row for q in [min(cls)]):\n",
     ["tests/test_equivalence.py::test_wrong_classes_are_refused[too-coarse]"]),
    # Moore's refinement of the quotient stops after its first round, so
    # classes separated only by longer words are refused as inseparable
    ("moore-stops-after-one-round", "syncword/equivalence.py",
     "        if len(least) == blocks:  # no block split, and not in the first "
     "round\n",
     "        if True:\n",
     ["tests/test_equivalence.py::test_fig1_classes",
      "tests/test_equivalence.py::test_classes_match_brute_force"]),
    # the fixing automaton keeps the last state's undefined transitions
    # (one on fig1).  No check runs on the derived automata, so the routes'
    # own checks must catch it: the collecting route's replay of the
    # stripped word (strip_gamma) refuses greedy's word on the collecting
    # automaton, and the fixing route's word changes
    ("fixing-leaves-last-row-partial", "syncword/constructions.py",
     "                  for q, row in enumerate(dfa.trans))\n"
     "    return PartialDfa(dfa.n, dfa.alphabet, table)\n",
     "                  for q, row in enumerate(dfa.trans[:-1])) "
     "+ dfa.trans[-1:]\n"
     "    return PartialDfa(dfa.n, dfa.alphabet, table)\n",
     ["tests/test_synchronization.py::test_collecting_route_rejects_nonsynchronizing",
      "tests/test_golden.py::test_golden_words"]),
    # the forward search ranks each level by pair code alone, dropping the
    # rank of the successor each pair picks
    ("forward-level-order-by-pair-code", "syncword/pairs.py",
     "        keyed.sort()\n",
     "        keyed.sort(key=lambda kc: kc[1])\n",
     ["tests/test_fast_paths.py::test_forward_search_reads_as_drained",
      "tests/test_synchronization.py::test_fixing_route_on_a_literal_automaton_lists_no_pair"]),
    ("forward-search-ignores-its-budget", "syncword/pairs.py",
     "            if len(seen) > budget:\n                return None\n",
     "",
     ["tests/test_fast_paths.py::test_forward_search_past_its_budget_lists_the_table"]),
    # a step whose forward search passes its budget leaves the seeds
    # unlisted, so least_pair checks the subset's seeds a second time
    ("over-budget-step-checks-seeds-again", "syncword/pairs.py",
     "                self._grow(0)\n        best = best or self.least_pair(rep)\n",
     "        best = best or self.least_pair(rep)\n",
     ["tests/test_fast_paths.py::test_each_greedy_step_checks_its_seeds_once"]),
    # the fixing route's pair step always on the fixing automaton's table,
    # also when the input is partial and the two tables differ
    ("fixing-pair-step-on-the-fixing-table", "syncword/synchronization.py",
     "        table = fixed if fixed.dfa == dfa else pair_table(dfa)\n",
     "        table = fixed\n",
     ["tests/test_cli.py::test_negative_sync_word_fixing_on_a_partial_input"]),
    # the shared tree read depth first: every node still gets a parent,
    # but connecting words and collecting trees are no longer shortest
    ("bfs-tree-depth-first", "syncword/automaton.py",
     "        u = queue.popleft()\n",
     "        u = queue.pop()\n",
     ["tests/test_automaton.py::test_connecting_word_is_the_least_shortest_word",
      "tests/test_constructions.py::test_collecting_tree_matches_reference_bfs"]),
    # the one-word route returns the longer part of the Weinbaum split
    ("weinbaum-split-takes-longer-side", "syncword/codes.py",
     "        word = lit.letters(u if len(u) <= len(v) else v)\n",
     "        word = lit.letters(v if len(u) <= len(v) else u)\n",
     ["tests/test_codes.py::test_single_letter_word_is_reset_by_the_empty_word",
      "tests/test_codes.py::test_oneword_family_reset_words",
      "tests/test_codes.py::test_literal_reset_word_z2",
      "tests/test_acceptance.py::test_criterion_2_oneword_family",
      "tests/test_cli.py::test_code_oneword",
      "tests/test_cli.py::test_code_oneword_long_word",
      "tests/test_cli.py::test_verify_all_quick",
      "tests/test_cli.py::test_verify_all_smallest_size_cap",
      "tests/test_cli.py::test_verify_all_fails_under_optimize",
      "tests/test_cli.py::test_command_loads_only_its_modules",
      "tests/test_cli.py::test_command_loads_no_introspection_modules",
      "tests/test_transcript.py::test_transcript"]),
    # the log-rank word's bound one state too loose
    ("log-rank-bound-plus-one", "syncword/codes.py",
     "    return math.ceil(math.log2(h * lit.dfa.n)) + math.ceil(math.log2(h))\n",
     "    return math.ceil(math.log2(h * lit.dfa.n)) + math.ceil(math.log2(h)) + 1\n",
     ["tests/test_codes.py::test_log_rank_deep_pivot_families",
      "tests/test_codes.py::test_log_rank_random_codes",
      "tests/test_cli.py::test_code_logrank",
      "tests/test_transcript.py::test_transcript"]),
    ("strip-gamma-skips-final-replay", "syncword/constructions.py",
     "    if len(dfa.image(tree.partition.classes[root], out)) != 1:\n",
     "    if False:\n",
     ["tests/test_constructions.py::test_strip_gamma_rejects_nonsynchronizing_word"]),
]


def failed_ids(output):
    """The node ids a `pytest -rfE` run reports as failed or in error."""
    return [line.split()[1] for line in output.splitlines()
            if line.startswith(("FAILED ", "ERROR "))]


def survivors(mutant):
    """The node ids of mutant that pass on a copy of src/ with it applied."""
    name, path, old, new, node_ids = mutant
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp, "src")
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = src / path
        text = target.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{name}: the old text occurs "
                             f"{text.count(old)} times in {path}")
        target.write_text(text.replace(old, new))
        # the ini option and PYTHONPATH both put the copy first, for this
        # run and for the child interpreters the tests start
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE",
             "-p", "no:cacheprovider", "-o", f"pythonpath={src}",
             "--hypothesis-profile", "mutants", *node_ids],
            cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)))
    failed = failed_ids(proc.stdout)
    return [i for i in node_ids
            if not any(f == i or f.startswith(i + "[") for f in failed)]


def main(names):
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {' '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    alive = 0
    for mutant in chosen:
        passed = survivors(mutant)
        if passed:
            alive += 1
            print(f"SURVIVED {mutant[0]}: {' '.join(passed)} passed")
        else:
            print(f"killed {mutant[0]}")
    print(f"{len(chosen) - alive} of {len(chosen)} mutants killed")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
