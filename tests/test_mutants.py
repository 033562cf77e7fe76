"""The mutant list of tests/mutants.py stays applicable: each old text
occurs exactly once in its file, and each node id names a test function
that exists.  Running the mutants themselves is `python tests/mutants.py`,
which tier-1 does not run."""
import ast

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m[0] for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    _, path, old, new, _ = mutant
    assert old != new
    assert (ROOT / "src" / path).read_text().count(old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_node_ids_name_tests(mutant):
    node_ids = mutant[4]
    assert node_ids
    for node_id in node_ids:
        path, _, name = node_id.partition("::")
        tree = ast.parse((ROOT / path).read_text())
        assert name.partition("[")[0] in {
            f.name for f in tree.body if isinstance(f, ast.FunctionDef)}, node_id
