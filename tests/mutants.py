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
the mutant there and runs the mutant's node ids against the copy.  It
prints one line per mutant and exits 1 if any mutant survives, that is, if
any of its node ids passes.
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
     'sources.append(array("i", src))',
     'sources.append(array("b", src))',
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
    ("least-seed-in-element-order", "syncword/automaton.py",
     "order = sorted((x, e) for e, x in enumerate(rep) if x is not None)",
     "order = [(x, e) for e, x in enumerate(rep) if x is not None]",
     ["tests/test_fast_paths.py::test_built_tables_break_ties_by_states"]),
    # a pair read as unsettled while the BFS is still paused short of it
    ("pair-lookup-skips-completion", "syncword/automaton.py",
     "        if self.index[p * self.n + q] <= 0:\n"
     "            self._complete()\n",
     "",
     ["tests/test_fast_paths.py::test_negative_reads_complete_the_table"]),
    # separation tables seeded by the compression rule, settling two
    # classes that one letter maps to one class
    ("pair-table-seeds-always-merge", "syncword/automaton.py",
     "masks = _settle_masks(trans, k, self.merge)",
     "masks = _settle_masks(trans, k, True)",
     ["tests/test_equivalence.py::test_separating_word_kills_exactly_one_side",
      "tests/test_fast_paths.py::test_pair_bfs_matches_dict_bfs_in_order"]),
    # a compression and a separation table on the same automaton compare
    # equal
    ("pair-table-compares-without-merge", "syncword/automaton.py",
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
     "for j in range(0, span, L)])",
     "for j in range(0, span - L, L)])",
     ["tests/test_fast_paths.py::test_image_matches_replay_on_repetitive_words",
      "tests/test_fast_paths.py::test_image_states_die_mid_run"]),
    # no mark: a run gets its action on its first appearance, filed under
    # its first chunk, so runs that share a first chunk share an action
    ("run-cached-by-first-chunk", "syncword/automaton.py",
     "            act = runs.get(run)\n"
     "            if act is None and len(run) == span and len(runs) < 256:\n"
     "                if run in marks:\n"
     "                    act = runs[run] = _Action(\n",
     "            act = runs.get(run[:L])\n"
     "            if act is None and len(run) == span and len(runs) < 256:\n"
     "                if True:\n"
     "                    act = runs[run[:L]] = _Action(\n",
     ["tests/test_fast_paths.py::test_image_matches_replay_on_repetitive_words",
      "tests/test_fast_paths.py::test_image_states_die_mid_run"]),
    # the marks stop at 256 instead of being cleared, so a run first seen
    # after the 256th mark never gets an action
    ("run-marks-never-cleared", "syncword/automaton.py",
     "                    if len(marks) >= 256:\n"
     "                        marks.clear()\n"
     "                    marks.add(run)\n",
     "                    if len(marks) < 256:\n"
     "                        marks.add(run)\n",
     ["tests/test_fast_paths.py::test_run_actions_follow_a_full_set_of_marks"]),
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
             "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *node_ids],
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
