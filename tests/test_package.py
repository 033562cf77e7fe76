"""The package surface: every exported name is imported from its submodule
on first use, and is that submodule's own object; every public definition
is exported or used; and no module of the package holds an assert
statement."""
import ast
import importlib
import importlib.util
import pathlib
import sys

import pytest


def _syncword_modules():
    return [m for m in sys.modules
            if m == "syncword" or m.startswith("syncword.")]


@pytest.fixture
def fresh():
    """syncword imported afresh with no submodule loaded; the session's
    modules come back at teardown."""
    saved = {m: sys.modules.pop(m) for m in _syncword_modules()}
    try:
        yield importlib.import_module("syncword")
    finally:
        for m in _syncword_modules():
            del sys.modules[m]
        sys.modules.update(saved)


def test_import_loads_no_submodule(fresh):
    assert _syncword_modules() == ["syncword"]


def test_exported_names_are_their_submodules_objects(fresh):
    for name in fresh.__all__:
        value = getattr(fresh, name)
        module = sys.modules[f"syncword.{fresh._SUBMODULE[name]}"]
        assert value is getattr(module, name), name


def test_dir_lists_every_export(fresh):
    assert set(fresh.__all__) <= set(dir(fresh))


def test_star_import_binds_every_export(fresh):
    namespace = {}
    exec("from syncword import *", namespace)
    assert {name: namespace[name] for name in fresh.__all__} == {
        name: getattr(fresh, name) for name in fresh.__all__}


def test_kernel_backend_resolves(fresh):
    assert fresh.KERNEL_BACKEND == "python"


def test_unknown_name_is_attribute_error(fresh):
    with pytest.raises(AttributeError,
                       match="module 'syncword' has no attribute 'no_such_name'"):
        fresh.no_such_name


def test_submodules_import_from_the_package(fresh):
    from syncword import oracle, synchronization
    assert oracle is sys.modules["syncword.oracle"]
    assert synchronization is sys.modules["syncword.synchronization"]
    assert fresh.constructions is sys.modules["syncword.constructions"]
    assert fresh.subset_bfs is oracle.subset_bfs


def test_package_has_no_assert_statements():
    """Checks that carry correctness raise, so they hold under python -O."""
    src = pathlib.Path(importlib.util.find_spec("syncword").origin).parent
    found = [f"{path.relative_to(src)}:{node.lineno}"
             for path in sorted(src.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_public_definition_is_exported_or_used(fresh):
    """A public top-level function or class of the package is exported from
    syncword or referenced by another top-level statement of the package;
    tests do not count as callers."""
    src = pathlib.Path(importlib.util.find_spec("syncword").origin).parent
    defined, used = [], set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and not own.startswith("_"):
                defined.append(f"{path.stem}.{own}")
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    used |= set(fresh.__all__)
    assert [name for name in defined if name.split(".")[1] not in used] == []
