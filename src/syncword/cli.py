"""Command-line front door.

Exit codes: 0 success / positive decision, 1 negative decision, 2 usage or
input error, 3 internal error, 141 (128 + SIGPIPE) when the reader closes
stdout early.  All randomness flows through an explicit --seed.  --format
summary emits stable key=value lines.

Every command imports the package modules it runs inside its own function:
each CLI run is a fresh interpreter, and start-up is a large share of a short
job, so a command loads no module it does not use
(tests/test_cli.py::test_command_loads_only_its_modules lists them).
"""
from __future__ import annotations

import argparse
import sys

from .errors import (InputError, NotStronglyConnected, NotSynchronizing,
                     SyncwordError, require)


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None


def _load_dfa(path):
    from . import automaton
    # analysis commands accept @g automata emitted by the build commands;
    # constructions that add @g themselves reject colliding alphabets
    dfa = automaton.parse_dfa(_read(path), allow_gamma=True)
    dead = automaton.fully_undefined_letters(dfa)
    if dead:
        toks = ", ".join(dfa.alphabet[a] for a in dead)
        print(f"note: letters with no defined transition: {toks}",
              file=sys.stderr)
    return dfa


def _parse_word_list(dfa, text):
    """Comma-separated words; '.' separates letters unless a letter holds
    it."""
    for tok in dfa.alphabet:
        if "," in tok:
            raise InputError(f"a word list cannot hold the letter {tok!r}")
    if not any("." in tok for tok in dfa.alphabet):
        text = text.replace(".", " ")
    return [dfa.word(chunk) for chunk in text.split(",")]


def _emit(fmt, text_lines, summary_pairs):
    if fmt == "summary":
        for k, v in summary_pairs:
            print(f"{k}={v}")
    else:
        for line in text_lines:
            print(line)


def _bool(v):
    return "true" if v else "false"


# --------------------------------------------------------------- subcommands

def _cmd_classes(args):
    from . import equivalence
    dfa = _load_dfa(args.file)
    part = equivalence.inseparability_partition(dfa)
    for cls in part.classes:
        print(" ".join(str(q) for q in sorted(cls)))
    return 0


def _cmd_build(args):
    from . import automaton, constructions
    dfa = _load_dfa(args.file)
    if args.what == "fixing":
        out = constructions.fixing(dfa)
    elif args.what == "collecting":
        from . import synchronization as sync_mod
        out, _ = sync_mod.reduction_to_complete(dfa)
    elif args.what == "duplicating":
        out = constructions.duplicating(dfa)
    else:  # induced
        if not args.w1 or not args.w2:
            raise InputError("induced needs --w1 and --w2")
        ind = constructions.induced(dfa, _parse_word_list(dfa, args.w1),
                                    _parse_word_list(dfa, args.w2))
        out = ind.dfa
    sys.stdout.write(automaton.format_dfa(out))
    return 0


def _not_synchronizing(args, dfa, min_rank=None):
    """Report a negative decision with the greedy minimum rank.  A method
    other than greedy passes no rank: greedy then runs here as a cross-check,
    and an automaton it synchronizes is an internal fault, never exit 1."""
    from . import synchronization as sync_mod
    if min_rank is None:
        min_rank = sync_mod.greedy_min_rank(dfa).final_rank
    require(min_rank != 1, "a method found no reset word for an automaton "
            "that greedy synchronizes")
    _emit(args.format, [f"not synchronizing: minimal non-zero rank {min_rank}"],
          [("synchronizing", "false"), ("min_rank", min_rank)])
    return 1


def _cmd_sync_check(args):
    from . import synchronization as sync_mod
    dfa = _load_dfa(args.file)
    if sync_mod.is_synchronizing(dfa):
        _emit(args.format, ["synchronizing"], [("synchronizing", "true")])
        return 0
    return _not_synchronizing(args, dfa)


def _word_output(args, dfa, word, r):
    text = dfa.format_word(word)
    _emit(args.format, [text, f"rank={r} len={len(word)}"],
          [("word", text), ("rank", r), ("len", len(word))])


def _cmd_sync_word(args):
    from . import automaton
    from . import synchronization as sync_mod
    dfa = _load_dfa(args.file)
    if not automaton.is_strongly_connected(dfa):
        raise NotStronglyConnected(
            "synchronizability is only decided for strongly connected automata")
    # each method decides synchronizability from the word it computes
    if args.method == "greedy":
        result = sync_mod.greedy_min_rank(dfa)
        if result.final_rank != 1:
            return _not_synchronizing(args, dfa, result.final_rank)
        word = result.word
    elif args.method == "fixing":
        result = sync_mod.min_rank_word_via_fixing(dfa)
        if result.final_rank != 1:
            return _not_synchronizing(args, dfa)
        word = result.word
    elif args.method == "collecting":
        try:
            word = sync_mod.reset_word_via_collecting(dfa)
        except NotSynchronizing:
            return _not_synchronizing(args, dfa)
    else:  # oracle
        from . import oracle as oracle_mod
        word = oracle_mod.subset_bfs(dfa).witness(1)
        if word is None:
            return _not_synchronizing(args, dfa)
    r = dfa.rank(word)
    require(r == 1, f"{args.method} word has rank {r}, not 1")
    _word_output(args, dfa, word, r)
    return 0


def _cmd_rank_min(args):
    from . import synchronization as sync_mod
    dfa = _load_dfa(args.file)
    word = sync_mod.greedy_min_rank(dfa).word
    _word_output(args, dfa, word, dfa.rank(word))
    return 0


def _cmd_rank_word(args):
    from . import synchronization as sync_mod
    dfa = _load_dfa(args.file)
    word = sync_mod.rank_target_word(dfa, args.target, method=args.method)
    _word_output(args, dfa, word, dfa.rank(word))
    return 0


def _cmd_oracle(args):
    from . import oracle as oracle_mod
    dfa = _load_dfa(args.file)
    report = oracle_mod.subset_bfs(dfa)
    lines = []
    pairs = []
    for r in range(dfa.n, -1, -1):
        if report.reachable(r):
            w = dfa.format_word(report.witness(r))
            lines.append(f"r={r} len={report.length(r)} word={w}")
            pairs.append((f"len_r{r}", report.length(r)))
    _emit(args.format, lines, pairs)
    return 0


def _cmd_verify_duplicating(args):
    from . import oracle as oracle_mod
    dfa = _load_dfa(args.file)
    results = oracle_mod.duplicating_identity_check(dfa)
    lines = [f"r={r} base={lb} duplicated={ld}" for r, (lb, ld) in sorted(results.items())]
    lines.append("identity holds")
    pairs = [(f"rt2x_r{r}", ld) for r, (_, ld) in sorted(results.items())]
    pairs.append(("identity", "ok"))
    _emit(args.format, lines, pairs)
    return 0


def _cmd_verify_all(args):
    from . import criteria
    profile = criteria.quick(args.size_cap, args.seed)
    failed = False
    for name, check in sorted(criteria.CHECKS.items()):
        try:
            status, detail = "ok", check(profile)
        except Exception as exc:  # report and keep going
            if not isinstance(exc, SyncwordError):
                import traceback
                traceback.print_exc()
            status, detail, failed = "fail", str(exc), True
        if args.format == "summary":
            print(f"{name}={status}")
        else:
            suffix = f" ({detail})" if detail else ""
            print(f"check={name} status={status}{suffix}")
    return 3 if failed else 0


def _cmd_search_extremal(args):
    from . import automaton
    from . import oracle as oracle_mod
    if args.exhaustive and (args.seed is not None or args.trials is not None):
        raise InputError("--exhaustive excludes --seed/--trials")
    exhaustive = args.exhaustive or (args.seed is None and args.trials is None)
    res = oracle_mod.extremal_search(
        args.n, exhaustive=exhaustive,
        seed=args.seed if args.seed is not None else 0,
        trials=args.trials if args.trials is not None else 10000)
    pairs = [("n", res.n), ("target", res.target), ("best_rt", res.best_rt),
             ("attained", _bool(res.attained)), ("candidates", res.candidates)]
    lines = [f"n={res.n} target={res.target} best_rt={res.best_rt} "
             f"attained={_bool(res.attained)} candidates={res.candidates}"]
    _emit(args.format, lines, pairs)
    if args.format != "summary" and res.best_dfa is not None:
        print()
        sys.stdout.write(automaton.format_dfa(res.best_dfa))
    return 0


def _cmd_code(args):
    from . import automaton, codes
    if args.what == "oneword":
        word = args.file  # positional doubles as the codeword
        if not word:
            raise InputError("give the codeword")
        code = codes.validate_code([word])
        y, k = codes.primitive_root(word)
        lines = [f"primitive_root={y}", f"power={k}", f"rank={k}"]
        pairs = [("primitive_root", y), ("power", k), ("rank", k)]
        if k == 1:
            lit = codes.literal_automaton(code)
            w = codes.literal_reset_word(lit)
            text = lit.dfa.format_word(w)
            lines.append(f"reset_word={text} len={len(w)}")
            pairs.extend([("reset_word", text), ("len", len(w))])
            _emit(args.format, lines, pairs)
            return 0
        lines.append("not synchronizing")
        pairs.append(("synchronizing", "false"))
        _emit(args.format, lines, pairs)
        return 1

    code = codes.parse_code(_read(args.file))
    if args.what == "validate":
        _emit(args.format, [f"valid prefix code with {len(code.words)} words"],
              [("valid", "true"), ("words", len(code.words))])
        return 0
    lit = codes.literal_automaton(code)
    if args.what == "literal":
        names = ", ".join(repr(p) for p in lit.prefixes)
        sys.stdout.write(automaton.format_dfa(
            lit.dfa, comment=f"literal automaton; states = proper prefixes {names}"))
        return 0
    if args.what == "logrank":
        if len(code.words) == 1:
            raise InputError("log-rank words are for codes with >= 2 words; "
                             "use 'code oneword'")
        word = codes.log_rank_word(lit)
        r = lit.dfa.rank(word)
        h = lit.height
        bound = codes.log_rank_bound(lit)
        text = lit.dfa.format_word(word)
        _emit(args.format,
              [text, f"rank={r} len={len(word)} bound={bound} height={h}"],
              [("word", text), ("rank", r),
               ("len", len(word)), ("bound", bound), ("height", h)])
        return 0
    # reset
    try:
        word = codes.literal_reset_word(lit)
    except NotSynchronizing as exc:
        _emit(args.format, [str(exc)], [("synchronizing", "false")])
        return 1
    _word_output(args, lit.dfa, word, lit.dfa.rank(word))
    return 0


def _cmd_gen(args):
    from . import automaton, generators
    if args.family == "cerny":
        sys.stdout.write(automaton.format_dfa(generators.gen_cerny(args.n)))
    elif args.family == "oneword":
        from . import codes
        sys.stdout.write(codes.format_code(generators.gen_oneword_code(args.k)))
    elif args.family == "random-dfa":
        dfa = generators.gen_random_partial(args.n, args.alpha, args.density,
                                            args.seed)
        sys.stdout.write(automaton.format_dfa(dfa, comment=f"seed {args.seed}"))
    else:  # random-code
        from . import codes
        code = generators.gen_random_prefix_code(args.count, args.maxlen,
                                                 args.alpha, args.seed)
        sys.stdout.write(codes.format_code(code))
    return 0


# ------------------------------------------------------------------- parser

def _build_parser():
    top = argparse.ArgumentParser(
        prog="syncword",
        description="Synchronization toolkit for strongly connected partial DFAs")
    top.add_argument("--format", choices=["text", "summary"], default="text")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classes", help="print inseparability classes")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_classes)

    p = sub.add_parser("build", help="emit a derived automaton")
    p.add_argument("what", choices=["fixing", "collecting", "duplicating", "induced"])
    p.add_argument("file")
    p.add_argument("--w1", help="comma-separated words (induced)")
    p.add_argument("--w2", help="comma-separated words (induced)")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("sync", help="synchronizability")
    ssub = p.add_subparsers(dest="subcmd", required=True)
    pc = ssub.add_parser("check")
    pc.add_argument("file")
    pc.set_defaults(fn=_cmd_sync_check)
    pw = ssub.add_parser("word")
    pw.add_argument("file")
    pw.add_argument("--method", choices=["greedy", "fixing", "collecting", "oracle"],
                    default="greedy")
    pw.set_defaults(fn=_cmd_sync_word)

    p = sub.add_parser("rank", help="minimum-rank words")
    rsub = p.add_subparsers(dest="subcmd", required=True)
    pm = rsub.add_parser("min")
    pm.add_argument("file")
    pm.set_defaults(fn=_cmd_rank_min)
    pw = rsub.add_parser("word")
    pw.add_argument("file")
    pw.add_argument("--target", type=int, required=True)
    pw.add_argument("--method", choices=["greedy", "oracle"], default="greedy")
    pw.set_defaults(fn=_cmd_rank_word)

    p = sub.add_parser("oracle", help="exact thresholds by subset BFS")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("verify", help="verification suites")
    vsub = p.add_subparsers(dest="subcmd", required=True)
    pd = vsub.add_parser("duplicating")
    pd.add_argument("file")
    pd.set_defaults(fn=_cmd_verify_duplicating)
    pa = vsub.add_parser("all")
    pa.add_argument("--size-cap", type=int, default=8)
    pa.add_argument("--seed", type=int, default=0)
    pa.set_defaults(fn=_cmd_verify_all)

    p = sub.add_parser("search", help="extremal searches")
    xsub = p.add_subparsers(dest="subcmd", required=True)
    px = xsub.add_parser("extremal")
    px.add_argument("--n", type=int, required=True)
    px.add_argument("--exhaustive", action="store_true")
    px.add_argument("--seed", type=int)
    px.add_argument("--trials", type=int)
    px.set_defaults(fn=_cmd_search_extremal)

    p = sub.add_parser("code", help="prefix codes and literal automata")
    p.add_argument("what", choices=["validate", "literal", "logrank", "reset", "oneword"])
    p.add_argument("file", help="code file, or the codeword for 'oneword'")
    p.set_defaults(fn=_cmd_code)

    p = sub.add_parser("gen", help="fixture generators")
    gsub = p.add_subparsers(dest="family", required=True)
    pg = gsub.add_parser("cerny")
    pg.add_argument("--n", type=int, required=True)
    pg.set_defaults(fn=_cmd_gen, family="cerny")
    pg = gsub.add_parser("oneword")
    pg.add_argument("--k", type=int, required=True)
    pg.set_defaults(fn=_cmd_gen, family="oneword")
    pg = gsub.add_parser("random-dfa")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--alpha", type=int, default=2)
    pg.add_argument("--density", type=float, default=0.9)
    pg.add_argument("--seed", type=int, required=True)
    pg.set_defaults(fn=_cmd_gen, family="random-dfa")
    pg = gsub.add_parser("random-code")
    pg.add_argument("--count", type=int, required=True)
    pg.add_argument("--maxlen", type=int, required=True)
    pg.add_argument("--alpha", type=int, default=2)
    pg.add_argument("--seed", type=int, required=True)
    pg.set_defaults(fn=_cmd_gen, family="random-code")

    return top


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BrokenPipeError:
        raise  # the reader closed stdout: main() ends the process
    except NotSynchronizing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug, never a decision
        if not isinstance(exc, SyncwordError):
            try:
                import traceback
                traceback.print_exc()
            except Exception:
                pass  # the report may fail (no memory), the exit code may not
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main():
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:
        # End as a shell reports a writer killed by SIGPIPE (`yes | head -1`),
        # with stdout on /dev/null so the flush at exit has nothing to fail.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141  # 128 + SIGPIPE
    sys.exit(status)


if __name__ == "__main__":
    main()
