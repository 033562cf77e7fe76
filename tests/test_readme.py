"""The README is the user manual: its module table lists the package's
modules, it names no private identifier, its library example runs as its
comments say, and its command synopsis names exactly the CLI's commands."""
import argparse
import itertools
import pathlib
import re

from syncword import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title):
    """The text of the README section headed `## title`, up to the next
    section of that level."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def _fenced(text, lang=""):
    """The bodies of the fenced blocks of text opened by ```lang."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def test_module_table_lists_every_module():
    rows = re.findall(r"^\| `syncword\.(\w+)` \|", _section("What is inside"),
                      re.M)
    modules = [p.stem for p in (ROOT / "src" / "syncword").glob("*.py")
               if p.stem != "__init__"]
    assert sorted(rows) == sorted(modules)


def test_names_no_private_identifier():
    # an internal rename should never have to edit the user manual
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.M | re.S)
    code = _fenced(README, r"\w*") + re.findall(r"`([^`]+)`", prose)
    names = {m for span in code for m in re.findall(r"[A-Za-z_][\w.]*", span)}
    assert sorted(m for m in names if m.startswith("_") or "._" in m) == []


def test_library_example_runs_as_its_comments_say(monkeypatch):
    [block] = _fenced(_section("Library example"), "python")
    monkeypatch.chdir(ROOT)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    dfa = ns["dfa"]
    assert ns["is_synchronizing"](dfa) is True
    assert ns["res"].word == dfa.word("bab")
    assert ns["subset_bfs"](dfa).reset_threshold == 3
    assert ns["complete"].alphabet[-1] == "@g"


def _leaf_commands(parser, path=()):
    """Every command path of parser: subcommands down to the leaves, and a
    leaf's first positional argument when it takes fixed choices (`build`,
    `code`)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_commands(sub, (*path, name))
            return
    first = next((a for a in parser._actions if not a.option_strings), None)
    if first is not None and first.choices:
        for choice in first.choices:
            yield (*path, choice)
    else:
        yield path


def test_synopsis_names_every_command():
    synopsis = _fenced(_section("Command line"))[0]
    named = set()
    for line in synopsis.splitlines():
        words = itertools.takewhile(
            lambda w: re.fullmatch(r"[a-z][a-z-]*(\|[a-z][a-z-]*)*", w),
            line.split()[1:])
        named.update(itertools.product(*(w.split("|") for w in words)))
    assert named == set(_leaf_commands(cli._build_parser()))
