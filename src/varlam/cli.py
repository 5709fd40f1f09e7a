"""Command-line interface.

    varlam parse      -e '\\x.x'                   print the canonical form
    varlam normalize  -e 'Succ #2' --sugar        normal form (exit 2: no normal form, fuel, size)
    varlam eq 'Plus #1 #2' '#3'                   EQUAL / NOT-EQUAL / UNKNOWN (exit 3 on error)
    varlam bracket    --algo turner -e '\\x.x x'   basis term
    varlam expand     --n 3 -e '\\x[1..n] s. s x[1..n]'
    varlam church 4 / varlam unchurch -e 'Plus #2 #2'
    varlam check      --suite all --max-n 3       verification suites
    varlam repl                                   interactive loop

Expressions come from -e, from a file argument, or from stdin.  When a term
is certified to have no normal form, or the fuel or size limit stops the
reducer, normalize, bracket --n and unchurch print "<status> after N steps"
(no-normal-form, fuel-exhausted or size-exceeded) on stderr and exit 2; the
REPL prints the same line and reads on.  A term nested too deeply for the
recursive kernel is an error ("term too deep"), not a verdict.  The env var
VARLAM_PRELUDE may point to a directory with alternate prelude.lam /
variadic.lam files.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bracket as bracket_mod
from .checks import run_suites
from .church import church, unchurch
from .engine import ReductionConfig, Status, Verdict, beta_eta_equal, normalize, trace
from .env import standard_env
from .meta import expand
from .report import all_ok, format_report
from .syntax import parse, parse_meta, print_term
from .terms import App, LambdaError

USAGE_ERROR = 64
EQ_ERROR = 3  # eq's 1 means NOT-EQUAL, so its errors need a code of their own
TOO_DEEP = "term too deep for the recursion limit"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def natural(text: str) -> int:
    """argparse type of the limits and indices: an int of at least 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0: {n}")
    return n


def _add_common(p, expr=True):
    p.add_argument("--defs", action="append", default=[], metavar="FILE",
                   help="load additional .lam definition files")
    p.add_argument("--no-prelude", action="store_true", help="start from an empty table")
    p.add_argument("--max-steps", type=natural, default=1_000_000, metavar="N")
    p.add_argument("--max-size", type=natural, default=1_000_000, metavar="N")
    p.add_argument("--no-eta", action="store_true", help="skip the eta post-pass")
    if expr:
        p.add_argument("-e", "--expr", metavar="EXPR", help="expression text")
        p.add_argument("file", nargs="?", help="file with the expression (default: stdin)")


def build_parser() -> _Parser:
    top = _Parser(prog="varlam", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and reprint a term")
    _add_common(p)
    p.add_argument("--sugar", action="store_true")

    p = sub.add_parser("normalize", help="reduce to beta-eta-normal form")
    _add_common(p)
    p.add_argument("--sugar", action="store_true")
    p.add_argument("--trace", action="store_true", help="print every reduction step")

    p = sub.add_parser("eq", help="decide beta-eta-equality of two terms")
    _add_common(p, expr=False)
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = sub.add_parser("bracket", help="bracket-abstract into the combinator basis")
    _add_common(p)
    p.add_argument("--algo", choices=("turner", "variadic"), default="turner")
    p.add_argument("--n", type=natural, default=None,
                   help="variadic only: instantiate at this index and normalize")

    p = sub.add_parser("expand", help="expand a meta-term at a concrete index")
    _add_common(p)
    p.add_argument("--n", type=natural, required=True)
    p.add_argument("--sugar", action="store_true")

    p = sub.add_parser("church", help="print the n-th Church numeral")
    p.add_argument("n", type=natural)

    p = sub.add_parser("unchurch", help="print the natural a term denotes")
    _add_common(p)

    p = sub.add_parser("check", help="run the verification suites")
    _add_common(p, expr=False)
    p.add_argument("--suite", choices=("kernel", "bracket", "variadic", "fixpoint", "all"),
                   default="all")
    p.add_argument("--max-n", type=natural, default=3)

    p = sub.add_parser("repl", help="interactive loop (:def, :eq, :quit)")
    _add_common(p, expr=False)
    p.add_argument("--sugar", action="store_true", default=True)

    return top


def _make_env(args):
    directory = os.environ.get("VARLAM_PRELUDE") or None
    env = standard_env(prelude=not args.no_prelude, directory=directory)
    for path in args.defs:
        env.load_file(path)
    return env


def _make_cfg(args) -> ReductionConfig:
    return ReductionConfig(fuel=args.max_steps, max_term_size=args.max_size,
                           eta=not args.no_eta)


def _read_expr(args) -> str:
    if args.expr is not None:
        return args.expr
    if args.file:
        with open(args.file, encoding="utf-8") as f:
            return f.read()
    return sys.stdin.read()


def _stopped(outcome) -> bool:
    """Report an outcome without a normal form on stderr; True if it has none."""
    if outcome.status is Status.NORMAL_FORM:
        return False
    print(f"varlam: {outcome.status.value} after {outcome.steps} steps", file=sys.stderr)
    return True


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except LambdaError as exc:
        message = str(exc)
    except RecursionError:
        message = TOO_DEEP
    print(f"varlam: {message}", file=sys.stderr)
    return EQ_ERROR if args.command == "eq" else 1


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "church":
        print(print_term(church(args.n)))
        return 0

    if cmd == "check":
        env = _make_env(args)
        cfg = _make_cfg(args)
        cases = run_suites([args.suite], max_n=args.max_n, cfg=cfg, env=env)
        print(format_report(cases))
        return 0 if all_ok(cases) else 1

    if cmd == "repl":
        return _repl(_make_env(args), _make_cfg(args))

    if cmd == "eq":
        env = _make_env(args)
        cfg = _make_cfg(args)
        verdict = beta_eta_equal(parse(args.lhs, env), parse(args.rhs, env), env, cfg)
        print(verdict.value)
        return {Verdict.EQUAL: 0, Verdict.NOT_EQUAL: 1, Verdict.UNKNOWN: 2}[verdict]

    env = _make_env(args)
    cfg = _make_cfg(args)
    source = _read_expr(args)

    if cmd == "parse":
        print(print_term(parse(source, env), sugar=args.sugar))
        return 0

    if cmd == "normalize":
        t = parse(source, env)
        if args.trace:
            for step in trace(t, env, cfg):
                print(print_term(step, sugar=args.sugar))
        outcome = normalize(t, env, cfg)
        if _stopped(outcome):
            return 2
        if not args.trace:
            print(print_term(outcome.result, sugar=args.sugar))
        return 0

    if cmd == "unchurch":
        outcome = normalize(parse(source, env), env, cfg)
        if _stopped(outcome):
            return 2
        print(unchurch(outcome.result, env, cfg))
        return 0

    if cmd == "bracket":
        if args.algo == "turner":
            print(print_term(bracket_mod.turner(parse(source, env))))
            return 0
        m = parse_meta(source)
        bound = bracket_mod.extended_bound(m)
        if args.n is None:
            print(print_term(bound))
            return 0
        outcome = normalize(App(bound, church(args.n)), env, cfg)
        if _stopped(outcome):
            return 2
        print(print_term(outcome.result))
        return 0

    if cmd == "expand":
        print(print_term(expand(parse_meta(source), args.n), sugar=args.sugar))
        return 0

    raise AssertionError(f"unhandled command {cmd}")


def _repl(env, cfg) -> int:
    interactive = sys.stdin.isatty()
    while True:
        if interactive:
            sys.stdout.write("> ")
            sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:
            return 0
        line = line.strip()
        if not line or line.startswith("--"):
            continue
        try:
            if line == ":quit":
                return 0
            if line.startswith(":def "):
                body = line[len(":def "):].strip().rstrip(";").rstrip()
                env.load_text(body + " ;", "<repl>")
                continue
            if line.startswith(":eq "):
                lhs, _, rhs = line[len(":eq "):].partition("=")
                if not rhs:
                    print("usage: :eq TERM = TERM", file=sys.stderr)
                    continue
                verdict = beta_eta_equal(parse(lhs, env), parse(rhs, env), env, cfg)
                print(verdict.value)
                continue
            outcome = normalize(parse(line, env), env, cfg)
            if not _stopped(outcome):
                print(print_term(outcome.result, sugar=True))
        except LambdaError as exc:
            print(f"varlam: {exc}", file=sys.stderr)
        except RecursionError:
            print(f"varlam: {TOO_DEEP}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
