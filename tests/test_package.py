"""The package surface: every exported name is imported from its submodule
on first use, and is that submodule's own object; every public definition
is exported or used; every annotation resolves; and no module of the
package holds an assert statement."""
import ast
import importlib
import importlib.util
import inspect
import pathlib
import sys
import typing

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


def test_exported_definitions_are_filed_under_their_own_module(fresh):
    # reading a name imports the module it is filed under, so a class or
    # function filed elsewhere loads that module for nothing
    misfiled = []
    for name in fresh.__all__:
        value = getattr(fresh, name)
        if (inspect.isclass(value) or inspect.isfunction(value)) and \
                value.__module__ != f"syncword.{fresh._SUBMODULE[name]}":
            misfiled.append(f"{name} (defined in {value.__module__})")
    assert misfiled == []


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


def _type_checking_namespace(module):
    """The module's globals with its `if TYPE_CHECKING:` imports run: the
    names a type checker resolves the module's annotations in."""
    namespace = dict(vars(module))
    for stmt in ast.parse(inspect.getsource(module)).body:
        if isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "TYPE_CHECKING":
            exec(compile(ast.Module(stmt.body, []), module.__file__, "exec"),
                 namespace)
    return namespace


def _annotated(module):
    """The functions and classes the module defines, with the methods,
    class methods, static methods and property getters of its classes."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield value
        elif inspect.isclass(value):
            yield value
            for member in vars(value).values():
                member = getattr(member, "fget", member)
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("name", sorted(
    path.stem for path in pathlib.Path(
        importlib.util.find_spec("syncword").origin).parent.glob("*.py")
    if path.stem != "__init__"))
def test_annotations_resolve(name):
    module = importlib.import_module(f"syncword.{name}")
    namespace = _type_checking_namespace(module)
    unresolved = []
    for value in _annotated(module):
        try:
            typing.get_type_hints(value, globalns=namespace)
        except NameError as exc:
            unresolved.append(f"{value.__qualname__}: {exc}")
    assert unresolved == []
