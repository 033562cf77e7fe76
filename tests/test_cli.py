import os
import pathlib
import subprocess
import sys

import pytest

import syncword
from syncword import (cli, constructions, format_code, format_dfa, gen_cerny,
                      gen_oneword_code, gen_random_partial,
                      gen_random_prefix_code, literal_automaton, oracle,
                      parse_code, parse_dfa, validate_code)
from syncword.automaton import UNDEF, PairTable, PartialDfa
from syncword.cli import run

from conftest import FIXTURES

FIG1 = str(FIXTURES / "fig1left.dfa")
LIT_ABAB = str(FIXTURES / "lit-abab.dfa")
DECODER = str(FIXTURES / "fig1right.code")


def test_no_args_is_usage_error():
    assert run([]) == 2


def test_unknown_command_is_usage_error():
    assert run(["frobnicate"]) == 2


def test_missing_file_is_input_error(capsys):
    assert run(["sync", "check", "/nonexistent.dfa"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "dfa v1\nstates \u00b2\nalphabet a\n",
    "dfa v1\nstates 1\nalphabet a\n\uff10 a 0\n",
])
def test_non_ascii_digits_are_input_errors(capsys, tmp_path, text):
    path = tmp_path / "digits.dfa"
    path.write_text(text, encoding="utf-8")
    assert run(["sync", "check", str(path)]) == 2
    assert "error: line" in capsys.readouterr().err


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "_cmd_classes", boom)
    assert run(["classes", FIG1]) == 3
    assert "internal error: boom" in capsys.readouterr().err


def test_failed_traceback_still_exits_3(capsys, monkeypatch):
    import traceback

    def boom(args):
        raise RuntimeError("boom")

    def no_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "_cmd_classes", boom)
    monkeypatch.setattr(traceback, "print_exc", no_memory)
    assert run(["classes", FIG1]) == 3
    assert "internal error: boom" in capsys.readouterr().err


NO_TRACEBACK_SCRIPT = """
import sys
from syncword import cli

def boom(args):
    raise RuntimeError("boom")

cli._cmd_classes = boom
sys.modules["traceback"] = None  # `import traceback` raises ImportError
print("exit", cli.run(["classes", sys.argv[1]]))
"""


def test_unimportable_traceback_still_exits_3():
    proc = run_python("-c", NO_TRACEBACK_SCRIPT, FIG1)
    assert (proc.returncode, proc.stdout) == (0, "exit 3\n"), proc.stderr
    assert "internal error: boom" in proc.stderr


def child_env():
    """The environment of a child interpreter that imports this checkout's
    package."""
    src = str(pathlib.Path(syncword.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src)


def run_python(*args, timeout=None, address_space=None):
    """Run a child interpreter that imports this checkout's package; with
    address_space, under that RLIMIT_AS in bytes, so that a size guard that
    regresses fails its test with a MemoryError instead of taking the
    host's memory."""
    def limit():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=child_env(), timeout=timeout,
                          preexec_fn=None if address_space is None else limit)


def run_optimized(script, *args):
    """Run a script under `python -O`, where assert statements are gone."""
    return run_python("-O", "-c", script, *args)


FAILED_BOUND_SCRIPT = """
import dataclasses, sys
from syncword import cli, oracle

real = oracle.extremal_search
oracle.extremal_search = lambda *a, **kw: dataclasses.replace(
    real(*a, **kw), attained=False)
assert False, "assert statements must be off"
sys.exit(cli.run(["verify", "all"]))
"""


def test_verify_all_fails_under_optimize():
    proc = run_optimized(FAILED_BOUND_SCRIPT)
    assert proc.returncode == 3
    lines = proc.stdout.splitlines()
    assert len(lines) == 8
    assert [line for line in lines if "status=ok" not in line] == [
        "check=extremal-bound status=fail (n=2: best 1 < target 1)"]


NON_RESET_SCRIPT = """
import sys
from syncword import cli, synchronization

synchronization.reset_word_via_collecting = lambda dfa: ()
assert False, "assert statements must be off"
sys.exit(cli.run(["sync", "word", "--method", "collecting", sys.argv[1]]))
"""


def test_sync_word_rank_check_under_optimize():
    proc = run_optimized(NON_RESET_SCRIPT, FIG1)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "internal error: collecting word has rank 6, not 1" in proc.stderr


WRONG_NEGATIVE_SCRIPT = """
import sys
from syncword import cli, synchronization

synchronization.min_rank_word_via_fixing = (
    lambda dfa: synchronization.SyncResult((), 2, ()))
assert False, "assert statements must be off"
sys.exit(cli.run(["sync", "word", "--method", "fixing", sys.argv[1]]))
"""


def test_sync_word_wrong_negative_is_internal_under_optimize():
    # greedy synchronizes FIG1, so a method's rank-2 verdict is a fault
    proc = run_optimized(WRONG_NEGATIVE_SCRIPT, FIG1)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "internal error: a method found no reset word" in proc.stderr


def test_sync_word_rejects_non_strongly_connected(capsys, tmp_path):
    path = tmp_path / "chain.dfa"
    path.write_text("dfa v1\nstates 2\nalphabet a\n0 a 1\n1 a 1\n")
    for method in ("greedy", "fixing", "collecting", "oracle"):
        assert run(["sync", "word", str(path), "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "strongly connected" in captured.err


def test_sync_check_positive(capsys):
    assert run(["sync", "check", FIG1]) == 0
    assert capsys.readouterr().out.strip() == "synchronizing"


def test_sync_check_negative(capsys):
    assert run(["sync", "check", LIT_ABAB]) == 1
    assert "minimal non-zero rank 2" in capsys.readouterr().out


def test_sync_check_summary_format(capsys):
    assert run(["--format", "summary", "sync", "check", FIG1]) == 0
    assert capsys.readouterr().out.strip() == "synchronizing=true"


def test_sync_word_methods(capsys, fig1):
    for method in ("greedy", "fixing", "collecting", "oracle"):
        assert run(["sync", "word", FIG1, "--method", method]) == 0
        out = capsys.readouterr().out.splitlines()
        word = fig1.word(out[0])
        assert fig1.rank(word) == 1
        assert out[1] == f"rank=1 len={len(word)}"


def test_sync_word_on_nonsynchronizing(capsys):
    assert run(["sync", "word", LIT_ABAB]) == 1


@pytest.mark.parametrize("method", ["greedy", "fixing", "collecting", "oracle"])
def test_sync_word_nonsynchronizing_output(capsys, tmp_path, method):
    path = tmp_path / "rand.dfa"
    path.write_text(format_dfa(gen_random_partial(6, 2, 0.70, 19)))
    assert run(["sync", "word", str(path), "--method", method]) == 1
    assert capsys.readouterr().out == "not synchronizing: minimal non-zero rank 2\n"
    assert run(["--format", "summary", "sync", "word", str(path),
                "--method", method]) == 1
    assert capsys.readouterr().out == "synchronizing=false\nmin_rank=2\n"


@pytest.fixture
def built_tables(monkeypatch):
    """(merge, table) for every pair table built while the test runs."""
    built = []
    real = PairTable.build

    def keeping(dfa, trans, elem, merge):
        built.append((merge, real(dfa, trans, elem, merge)))
        return built[-1][1]
    monkeypatch.setattr(PairTable, "build", staticmethod(keeping))
    return built


def table_counts(built):
    """(compression tables, separation tables) among built_tables."""
    merges = [merge for merge, _ in built]
    return merges.count(True), merges.count(False)


# each method decides synchronizability from the word it computes, so only
# the tables its own route reads are built: one compression table, greedy's
# on the input, fixing's and collecting's on the automaton they build;
# collecting's separation table of the inseparability partition, and
# fixing's only while its lifted word leaves two or more states, which on
# fig1 it does not; the oracle builds none
@pytest.mark.parametrize("method, tables", [
    ("greedy", 1), ("fixing", 1), ("collecting", 1), ("oracle", 0)])
def test_sync_word_pair_tables_per_method(capsys, built_tables, method, tables):
    assert run(["sync", "word", FIG1, "--method", method]) == 0
    separations = 1 if method == "collecting" else 0
    assert table_counts(built_tables) == (tables, separations)


def test_sync_word_fixing_separates_above_rank_one(capsys, built_tables,
                                                   tmp_path):
    # greedy on this automaton's fixing automaton stops at rank 2, so the
    # lifted image has two states and the class steps run
    path = tmp_path / "rand.dfa"
    path.write_text(format_dfa(gen_random_partial(4, 2, 0.7, 13)))
    assert run(["sync", "word", str(path), "--method", "fixing"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "a a b b"
    assert table_counts(built_tables) == (1, 1)


def test_rank_min(capsys):
    assert run(["rank", "min", LIT_ABAB]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("rank=2")


def test_rank_word_target(capsys, fig1):
    assert run(["rank", "word", FIG1, "--target", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert fig1.rank(fig1.word(out[0])) <= 3
    assert run(["rank", "word", LIT_ABAB, "--target", "1"]) == 2


def test_oracle_output(capsys):
    assert run(["oracle", FIG1]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r=6 len=0 word=-"
    assert "r=3 len=1 word=b" in lines
    assert "r=1 len=3 word=b a b" in lines
    assert "r=0 len=5 word=b a b a b" in lines


def test_oracle_words_over_the_letter_dash(capsys, tmp_path):
    path = tmp_path / "dash.dfa"
    path.write_text("dfa v1\nstates 2\nalphabet - a\n"
                    "0 - 1\n1 a 0\n1 - 1\n")
    assert run(["oracle", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "r=2 len=0 word=", "r=1 len=1 word=-", "r=0 len=2 word=a a"]


def test_classes_output(capsys):
    assert run(["classes", FIG1]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 3", "1 4", "2 5"]


def test_build_fixing_roundtrip(capsys, fig1):
    assert run(["build", "fixing", FIG1]) == 0
    dfa = parse_dfa(capsys.readouterr().out)
    assert dfa.trans[2][1] == 2 and dfa.trans[5][1] == 5


def test_build_collecting_emits_gamma(capsys):
    assert run(["build", "collecting", FIG1]) == 0
    out = capsys.readouterr().out
    dfa = parse_dfa(out, allow_gamma=True)
    assert dfa.alphabet == ("a", "b", "@g")


def test_build_duplicating_requires_complete(capsys):
    assert run(["build", "duplicating", FIG1]) == 2


def test_build_induced(capsys, fig1):
    w2 = ",".join(u + "a" * j for u in ("ab", "aab") for j in range(6))
    assert run(["build", "induced", FIG1, "--w1", "b", "--w2", w2]) == 0
    out = capsys.readouterr().out
    dfa = parse_dfa(out, allow_gamma=True)
    assert dfa.n == 3
    assert '"abb"' in dfa.alphabet


def test_build_induced_dot_letter(capsys, tmp_path):
    # '.' separates letters in a word list only when it is not a letter
    text = "dfa v1\nstates 2\nalphabet . a\n0 . 1\n1 a 0\n1 . 1\n"
    path = tmp_path / "dot.dfa"
    path.write_text(text)
    assert run(["build", "induced", str(path), "--w1", ".", "--w2", "a"]) == 0
    dfa = parse_dfa(text)
    ind = constructions.induced(dfa, [dfa.word(".")], [dfa.word("a")])
    assert capsys.readouterr().out == format_dfa(ind.dfa)
    assert ind.dfa.n == 1 and ind.dfa.alphabet == ('"a."',)


# the word (a, b) and the one-letter word spelled with the same characters
# get distinct tokens; a letter holding '.' is read whole in a word list
@pytest.mark.parametrize("alphabet, w2, tokens", [
    ("a b ab", "a b,ab", ('"ab"', '"a.b"')),
    ("a b a.b", "a b,a.b", ('"a\\.b"', '"a.b"')),
])
def test_build_induced_composite_tokens_are_distinct(capsys, tmp_path,
                                                     alphabet, w2, tokens):
    a, b, ab = alphabet.split()
    path = tmp_path / "composite.dfa"
    path.write_text(f"dfa v1\nstates 3\nalphabet {alphabet}\n" + "".join(
        f"{q} {a} {(q + 1) % 3}\n{q} {b} {q}\n{q} {ab} {q}\n"
        for q in range(3)))
    assert run(["build", "induced", str(path), "--w1", "-", "--w2", w2]) == 0
    assert parse_dfa(capsys.readouterr().out).alphabet == tokens


def test_build_induced_comma_letter_is_input_error(capsys, tmp_path):
    # a letter holding ',' would be split apart by the word list
    path = tmp_path / "comma.dfa"
    for letter, w1, w2 in [(",", "a", "a"), ("x,y", "-", "x,y")]:
        path.write_text(f"dfa v1\nstates 2\nalphabet {letter} a\n"
                        f"0 {letter} 1\n1 a 0\n1 {letter} 1\n")
        assert run(["build", "induced", str(path), "--w1", w1,
                    "--w2", w2]) == 2
        assert f"cannot hold the letter {letter!r}" in capsys.readouterr().err


def test_verify_duplicating_on_cerny(capsys, tmp_path):
    assert run(["gen", "cerny", "--n", "4"]) == 0
    path = tmp_path / "c4.dfa"
    path.write_text(capsys.readouterr().out)
    assert run(["verify", "duplicating", str(path)]) == 0
    out = capsys.readouterr().out
    assert "r=1 base=9 duplicated=18" in out
    assert "identity holds" in out


def test_verify_duplicating_refuses_before_any_search(capsys, monkeypatch,
                                                     tmp_path):
    # the duplicated automaton would have 26 states: refused before the
    # base automaton's subset BFS runs
    calls = []
    real = oracle._bfs_witnesses

    def counting(dfa):
        calls.append(dfa.n)
        return real(dfa)
    monkeypatch.setattr(oracle, "_bfs_witnesses", counting)
    path = tmp_path / "c13.dfa"
    path.write_text(format_dfa(gen_cerny(13)))
    assert run(["verify", "duplicating", str(path)]) == 2
    assert calls == []
    assert "limited to 12 states" in capsys.readouterr().err


def test_search_extremal(capsys):
    assert run(["search", "extremal", "--n", "3", "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "best_rt=3" in out and "attained=true" in out


def test_search_extremal_exhaustive_guardrail(capsys):
    assert run(["search", "extremal", "--n", "6", "--exhaustive"]) == 2
    assert "limited to n <= 5" in capsys.readouterr().err


def test_search_extremal_seeded(capsys):
    assert run(["--format", "summary", "search", "extremal", "--n", "3",
                "--seed", "5", "--trials", "200"]) == 0
    out = capsys.readouterr().out
    assert "target=3" in out


@pytest.mark.parametrize("argv, message", [
    pytest.param(["search", "extremal", "--n", "3", "--seed", "1",
                  "--trials", trials], f"need at least one trial, got {trials}",
                 id=f"trials={trials}")
    for trials in ["0", "-1"]
] + [
    pytest.param(["verify", "all", "--size-cap", cap],
                 f"--size-cap must be in 3..8, got {cap}", id=f"size-cap={cap}")
    for cap in ["-5", "2", "9", "100"]
] + [
    pytest.param(["search", "extremal", "--n", "25", "--seed", "1",
                  "--trials", "1"],
                 "extremal search limited to 24 states, got 25", id="n=25"),
])
def test_out_of_range_option_is_input_error(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


def test_code_validate(capsys):
    assert run(["code", "validate", DECODER]) == 0
    assert "4 words" in capsys.readouterr().out


def test_code_literal_roundtrip(capsys):
    assert run(["code", "literal", DECODER]) == 0
    dfa = parse_dfa(capsys.readouterr().out)
    assert dfa.n == 6


def test_code_logrank(capsys):
    assert run(["code", "logrank", DECODER]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "bound=7" in out[1]


def test_code_reset(capsys, decoder_lit):
    assert run(["code", "reset", DECODER]) == 0
    out = capsys.readouterr().out.splitlines()
    word = decoder_lit.dfa.word(out[0])
    assert decoder_lit.dfa.rank(word) == 1


def test_code_reset_nonsynchronizing(capsys, tmp_path):
    path = tmp_path / "abab.code"
    path.write_text("abab\n")
    assert run(["code", "reset", str(path)]) == 1


def test_code_reset_names_an_incompressible_pair(capsys, tmp_path):
    path = tmp_path / "uniform.code"
    path.write_text("aa\nab\nba\nbb\n")
    assert run(["code", "reset", str(path)]) == 1
    assert capsys.readouterr().out == \
        "not synchronizing: pair {'', 'a'} is incompressible\n"


def test_code_reset_lists_only_the_pairs_greedy_reads(capsys, built_tables,
                                                     tmp_path):
    # a positive answer comes from the word, so the compression table of
    # the 452-state literal automaton is never completed
    path = tmp_path / "random.code"
    path.write_text(format_code(gen_random_prefix_code(80, 16, 3, 2)))
    assert run(["code", "reset", str(path)]) == 0
    [(merge, table)] = built_tables
    assert (merge, table.n) == (True, 452)
    assert len(table.dist) < table.n * (table.n - 1) // 2


def test_code_oneword(capsys):
    assert run(["code", "oneword", "aabaaab"]) == 0
    out = capsys.readouterr().out
    assert "power=1" in out and "reset_word=a a a len=3" in out
    assert run(["code", "oneword", "abab"]) == 1
    assert "not synchronizing" in capsys.readouterr().out
    assert run(["code", "oneword", "a"]) == 0
    assert "reset_word=- len=0" in capsys.readouterr().out
    assert run(["code", "oneword", "a\na"]) == 2
    assert "whitespace" in capsys.readouterr().err


def test_code_oneword_long_word():
    # the conjugate split is quadratic in |x|; the former cubic scan took
    # about two minutes at k=200, the timeout leaves a wide margin above
    # the quarter second the command takes now
    x = gen_oneword_code(200).words[0]
    proc = run_python("-m", "syncword.cli", "--format", "summary", "code",
                      "oneword", x, timeout=60)
    assert proc.returncode == 0
    fields = dict(line.split("=", 1) for line in proc.stdout.splitlines())
    lit = literal_automaton(validate_code([x]))
    word = lit.dfa.word(fields["reset_word"])
    assert len(word) == int(fields["len"]) == 201
    assert lit.dfa.rank(word) == 1


def test_gen_roundtrips(capsys):
    assert run(["gen", "cerny", "--n", "5"]) == 0
    assert parse_dfa(capsys.readouterr().out).n == 5
    assert run(["gen", "oneword", "--k", "2"]) == 0
    assert parse_code(capsys.readouterr().out).words == ("aabaaab",)
    assert run(["gen", "random-dfa", "--n", "6", "--alpha", "2",
                "--density", "0.9", "--seed", "42"]) == 0
    assert parse_dfa(capsys.readouterr().out).n == 6
    assert run(["gen", "random-code", "--count", "3", "--maxlen", "4",
                "--alpha", "2", "--seed", "1"]) == 0
    assert len(parse_code(capsys.readouterr().out).words) == 3


def test_gen_random_dfa_unary_advice(capsys):
    assert run(["gen", "random-dfa", "--n", "10", "--alpha", "1",
                "--density", "1", "--seed", "2"]) == 2
    err = capsys.readouterr().err
    assert "single 10-cycle, at most (n-1)!/n^n of the draws" in err
    assert "raise the density" not in err


@pytest.mark.parametrize("args", [
    ["gen", "cerny", "--n", "1000000000"],
    ["gen", "random-dfa", "--n", "3", "--alpha", "1000000", "--density",
     "0.5", "--seed", "1"],
])
def test_gen_size_limit(capsys, args):
    assert run(args) == 2
    assert "above the limit of 1048576 transition-table cells" in \
        capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--count", "1000000", "--maxlen", "2"],
     "count and maxlen must be at most 8192"),
    (["--count", "2", "--maxlen", "1000000000"],
     "count and maxlen must be at most 8192"),
    (["--count", "5000", "--maxlen", "12"],
     "no prefix code has 5000 words of at most 12 letters over 2"),
    (["--count", "2", "--maxlen", "2", "--alpha", "30"],
     "need 1 <= alpha <= 26"),
], ids=["count", "maxlen", "kraft", "alpha"])
def test_gen_random_code_refuses_before_drawing(args, message):
    proc = run_python("-m", "syncword.cli", "gen", "random-code", *args,
                      "--seed", "1", timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert message in proc.stderr


def test_gen_random_code_refuses_a_code_above_the_letter_cap():
    # count and maxlen are each at most the cap; what the three words drawn
    # sum to decides: 13,601 letters on seed 1, 6,918 on seed 5
    proc = run_python("-m", "syncword.cli", "gen", "random-code", "--count",
                      "3", "--maxlen", "8192", "--seed", "1", timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "a code of 13601 letters is above the limit of 8192 codeword " \
        "letters" in proc.stderr
    proc = run_python("-m", "syncword.cli", "gen", "random-code", "--count",
                      "3", "--maxlen", "8192", "--seed", "5", timeout=20)
    assert proc.returncode == 0
    assert literal_automaton(parse_code(proc.stdout)).code.total_length == 6918


def test_gen_oneword_at_the_letter_cap(capsys):
    # 2k + 3 letters: k = 4094 is the largest code the code commands take
    assert run(["gen", "oneword", "--k", "4094"]) == 0
    assert parse_code(capsys.readouterr().out).total_length == 8191
    assert run(["gen", "oneword", "--k", "4095"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "k = 4095 gives a code of 8193 letters, above the limit of 8192 " \
        "codeword letters" in err


@pytest.mark.parametrize("k", [5000, 1000000000])
def test_gen_oneword_refuses_before_building(k):
    # 5,000 gave a code that `code reset` refused; 10**9 ran out of memory
    # building the word
    proc = run_python("-m", "syncword.cli", "gen", "oneword", "--k", str(k),
                      timeout=30, address_space=1 << 30)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert f"a code of {2 * k + 3} letters, above the limit" in proc.stderr


def test_gen_random_dfa_gives_up_after_a_cell_budget():
    # 2**22 cells are 256 tables of 8192 x 2 cells, a few seconds, where
    # 5000 tables would take about a minute
    proc = run_python("-m", "syncword.cli", "gen", "random-dfa", "--n",
                      "8192", "--alpha", "2", "--density", "0.5", "--seed",
                      "1", timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "no strongly connected automaton in 256 tries; raise the " \
        "density" in proc.stderr


def test_gen_random_code_tight_request_gives_up():
    # 8,192 words of at most 14 letters meet Kraft's inequality, but a draw
    # almost never fits; the sampler stops after 1000 letters drawn per
    # letter a code command accepts, not 1000 draws per word
    proc = run_python("-m", "syncword.cli", "gen", "random-code", "--count",
                      "8192", "--maxlen", "14", "--seed", "1", timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "could not sample a prefix-free set" in proc.stderr


def test_parse_size_limit(capsys, tmp_path):
    path = tmp_path / "huge.dfa"
    path.write_text("dfa v1\nstates 1000000000\nalphabet a b\n")
    assert run(["classes", str(path)]) == 2
    assert "1000000000 states x 2 letters is above the limit" in \
        capsys.readouterr().err


def test_pair_table_size_limit(tmp_path):
    # the 20,000-state cycle has 40,000 cells, but its pair index would
    # take 1.6 GB
    path = tmp_path / "cycle.dfa"
    path.write_text(format_dfa(gen_cerny(20000)))
    proc = run_python("-m", "syncword.cli", "sync", "check", str(path),
                      timeout=30, address_space=1 << 30)
    assert proc.returncode == 2, proc.stderr
    assert "pair table over 20000 elements needs 400000000 index entries, " \
        "above the limit" in proc.stderr


@pytest.mark.parametrize("command", [["classes"], ["sync", "check"]],
                         ids=["classes", "sync-check"])
def test_pair_table_letter_limit(tmp_path, command):
    # a 2,048-cycle with a letter defined on state 0 only and 62 copies of
    # the cycle letter: 4.2 M index entries are within the limit, but before
    # the letters counted, its 268 M pair transitions took `classes` 5 s and
    # `sync check` 13 s
    n, k = 2048, 64
    path = tmp_path / "wide.dfa"
    rows = tuple(((q + 1) % n, 1 if q == 0 else UNDEF) + ((q + 1) % n,) * (k - 2)
                 for q in range(n))
    letters = tuple(f"t{a}" for a in range(k))
    path.write_text(format_dfa(PartialDfa(n, letters, rows)))
    proc = run_python("-m", "syncword.cli", *command, str(path), timeout=30,
                      address_space=1 << 30)
    assert proc.returncode == 2, proc.stderr
    assert "pair table over 2048 elements and 64 letters needs 268435456 " \
        "pair transitions, above the limit of 67108864" in proc.stderr


def test_strong_connectivity_memory(tmp_path):
    # 200,000 cells are within MAX_CELLS; one bit mask per state took the
    # strong-connectivity check, which runs before the pair-table guard, to
    # 1.3 GB on this cycle
    path = tmp_path / "cycle.dfa"
    path.write_text(format_dfa(gen_cerny(100000)))
    proc = run_python("-m", "syncword.cli", "sync", "check", str(path),
                      timeout=30, address_space=1 << 30)
    assert proc.returncode == 2, proc.stderr
    assert "pair table over 100000 elements" in proc.stderr


@pytest.mark.parametrize("command", [
    ["classes"], ["build", "collecting"],
    ["sync", "word", "--method", "collecting"],
], ids=["classes", "build", "sync-word"])
def test_partition_size_limit(tmp_path, command):
    # a cycle with a second letter defined on state 0 only has 20,000
    # classes; the partition must refuse their pair table before proving
    # them separable, whose refinement rounds number as many as the classes
    path = tmp_path / "cycle.dfa"
    path.write_text(format_dfa(PartialDfa(20000, ("a", "b"), tuple(
        ((q + 1) % 20000, 0 if q == 0 else UNDEF) for q in range(20000)))))
    proc = run_python("-m", "syncword.cli", *command, str(path), timeout=30,
                      address_space=1 << 30)
    assert proc.returncode == 2, proc.stderr
    assert "pair table over 20000 elements" in proc.stderr


def test_literal_table_size_limit(tmp_path):
    # 8,192 letters in total are within MAX_CODE_LETTERS, but the literal
    # automaton of the 4,096 words cc over 4,096 letters would have 4,097
    # states x 4,096 letters, 16.8 M cells
    path = tmp_path / "wide.code"
    path.write_text("".join(chr(0x4E00 + i) * 2 + "\n" for i in range(4096)),
                    encoding="utf-8")
    proc = run_python("-m", "syncword.cli", "code", "literal", str(path),
                      timeout=30, address_space=1 << 30)
    assert proc.returncode == 2, proc.stderr
    assert "4097 states x 4096 letters is above the limit" in proc.stderr


# the proper prefixes of one 40,000-letter codeword would take 800 MB; the
# 2**16 32-letter words have a literal automaton of about a million states
@pytest.mark.parametrize("what, words", [
    ("literal", ["a" * 39999 + "b"]),
    ("reset", ["a" * 39999 + "b"]),
    ("literal", [f"{i:016b}" + "a" * 16 for i in range(1 << 16)]),
], ids=["literal-one-word", "reset-one-word", "literal-many-words"])
def test_code_size_limit(tmp_path, what, words):
    path = tmp_path / "long.code"
    path.write_text("\n".join(words) + "\n")
    proc = run_python("-m", "syncword.cli", "code", what, str(path),
                      timeout=30, address_space=1 << 30)
    assert proc.returncode == 2, proc.stderr
    total = sum(map(len, words))
    assert f"a code of {total} letters is above the limit" in proc.stderr


def test_verify_all_quick(capsys):
    assert run(["verify", "all", "--size-cap", "5", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in lines]
    assert names == sorted(names)
    assert all("status=ok" in line for line in lines)


def test_verify_all_smallest_size_cap(capsys):
    # the smallest profile: random automata of 2 or 3 states
    assert run(["verify", "all", "--size-cap", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert all("status=ok" in line for line in lines)


def test_verify_all_reports_a_fault_and_goes_on(capsys, monkeypatch):
    from syncword import criteria

    def boom(profile):
        raise RuntimeError("boom")
    monkeypatch.setitem(criteria.CHECKS, "oneword-family", boom)
    assert run(["verify", "all", "--size-cap", "3"]) == 3
    captured = capsys.readouterr()
    assert [line for line in captured.out.splitlines()
            if "status=ok" not in line] == [
        "check=oneword-family status=fail (boom)"]
    assert "Traceback" in captured.err


LOADED_MODULES_SCRIPT = """
import sys
from syncword import cli
status = cli.run(sys.argv[1:])
print(status, *sorted(m for m in sys.modules if m.startswith("syncword.")),
      file=sys.stderr)
"""
SYNC = ["automaton", "cli", "errors", "synchronization"]
ORACLE = ["automaton", "cli", "errors", "oracle"]
ALL = ["automaton", "cli", "codes", "constructions", "criteria",
       "equivalence", "errors", "generators", "oracle", "synchronization"]


def loads(modules, *argv):
    """A command line (FILE: a complete automaton) and the sorted syncword
    modules it loads, with the command line as the test id."""
    return pytest.param(list(argv), modules,
                        id=" ".join(a for a in argv if a != "FILE"))


@pytest.mark.parametrize("argv, modules", [
    loads(["cli", "errors"], "--help"),
    loads(ORACLE, "oracle", "FILE"),
    loads(ORACLE, "search", "extremal", "--n", "3", "--exhaustive"),
    loads(sorted(ORACLE + ["synchronization"]),
          "rank", "word", "FILE", "--target", "1", "--method", "oracle"),
    loads(SYNC, "sync", "check", "FILE"),
    loads(SYNC, "sync", "word", "FILE", "--method", "greedy"),
    loads(SYNC, "rank", "min", "FILE"),
    loads(SYNC, "rank", "word", "FILE", "--target", "1"),
    loads(sorted(SYNC + ["constructions", "equivalence"]),
          "sync", "word", "FILE", "--method", "collecting"),
    loads(["automaton", "cli", "constructions", "errors", "oracle"],
          "verify", "duplicating", "FILE"),
    loads(["automaton", "cli", "errors", "generators"],
          "gen", "cerny", "--n", "3"),
    loads(ALL, "verify", "all", "--size-cap", "3"),
])
def test_command_loads_only_its_modules(tmp_path, argv, modules):
    # every CLI job is a fresh interpreter: a module a command does not run
    # is start-up time on each job, so a new eager import fails here
    path = tmp_path / "cerny4.dfa"
    path.write_text(format_dfa(gen_cerny(4)))
    argv = [str(path) if a == "FILE" else a for a in argv]
    proc = run_python("-c", LOADED_MODULES_SCRIPT, *argv)
    assert proc.stderr.splitlines()[-1].split() == [
        "0", *(f"syncword.{m}" for m in modules)]


def test_closed_stdout_ends_quietly():
    # a reader that leaves early (`syncword gen ... | head -1`) is no fault:
    # exit as a shell reports a writer killed by SIGPIPE, with nothing on stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "syncword.cli", "gen", "cerny", "--n", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_fully_undefined_letter_flagged(capsys, tmp_path):
    path = tmp_path / "dead.dfa"
    path.write_text("dfa v1\nstates 1\nalphabet a b\n0 a 0\n")
    assert run(["sync", "check", str(path)]) == 0
    assert "no defined transition: b" in capsys.readouterr().err


def test_console_entry_point():
    proc = run_python("-m", "syncword.cli", "sync", "check", FIG1)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "synchronizing"
