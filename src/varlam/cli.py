"""Command-line interface.

    varlam parse      -e '\\x.x'                   print the canonical form
    varlam normalize  -e 'Succ #2' --sugar        normal form (exit 2: no normal form, fuel, size)
    varlam eq 'Plus #1 #2' '#3'                   EQUAL / NOT-EQUAL / UNKNOWN (exit 3 on error)
    varlam bracket    --algo turner -e '\\x.x x'   basis term (--n: variadic only)
    varlam expand     --n 3 -e '\\x[1..n] s. s x[1..n]'
    varlam church 4 / varlam unchurch -e 'Plus #2 #2'
    varlam check      --suite all --max-n 3       verification suites
    varlam repl                                   interactive loop

Expressions come from -e, from a file argument, or from stdin.  Names come
from the packaged prelude.lam and variadic.lam (not with --no-prelude), then
from each --defs file; expand, church and bracket without --n read no names
and take neither option.  The limits --max-steps, --max-size and --no-eta are
taken where terms are reduced: not by parse, nor by bracket without --n, and
unchurch takes no --no-eta, for it reads the beta-eta-normal form as a
numeral.  An option a command does not apply is a usage error.  When a term
is certified to have no normal form, or the fuel or size limit stops the
reducer, normalize, bracket --n and unchurch print "<status> after N steps"
(no-normal-form, fuel-exhausted or size-exceeded) on stderr and exit 2; the
REPL prints the same line and reads on.  A term nested too deeply for the
recursive kernel is an error ("term too deep"), not a verdict.  normalize
--trace prints each step up to where normalize stops.  A file that cannot be
read, or is not UTF-8, prints "varlam: <reason>: <path>" and exits 1 (3 for
eq); a REPL line's error is reported the same way, and the REPL reads on.  A
closed stdout (varlam check | head) prints "varlam: Broken pipe" and exits 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import bracket as bracket_mod
from .checks import all_ok, format_report, run_suites
from .church import church, read_numeral
from .engine import ReductionConfig, Status, Verdict, beta_eta_equal, normalize, trace
from .env import Env, read_source, standard_env
from .meta import expand
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


def _add_expr(p):
    p.add_argument("-e", "--expr", metavar="EXPR", help="expression text")
    p.add_argument("file", nargs="?", help="file with the expression (default: stdin)")


# An option of these groups that is not given reads None, so that bracket can
# tell which were given; the limits then come from ReductionConfig.
_REDUCER_OPTIONS = ("defs", "no_prelude", "max_steps", "max_size", "no_eta")


def _add_defs(p):
    p.add_argument("--defs", action="append", metavar="FILE",
                   help="load additional .lam definition files")
    p.add_argument("--no-prelude", action="store_true", default=None,
                   help="start from an empty table")


def _add_limits(p):
    p.add_argument("--max-steps", type=natural, metavar="N")
    p.add_argument("--max-size", type=natural, metavar="N")


def _add_eta(p):
    p.add_argument("--no-eta", action="store_true", default=None, help="skip the eta post-pass")


def _command(sub, name, help_text, *groups):
    """The subparser of a command, with the option groups it applies."""
    p = sub.add_parser(name, help=help_text)
    for add_group in groups:
        add_group(p)
    return p


def build_parser() -> _Parser:
    top = _Parser(prog="varlam", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = _command(sub, "parse", "parse and reprint a term", _add_expr, _add_defs)
    p.add_argument("--sugar", action="store_true")

    p = _command(sub, "normalize", "reduce to beta-eta-normal form",
                 _add_expr, _add_defs, _add_limits, _add_eta)
    p.add_argument("--sugar", action="store_true")
    p.add_argument("--trace", action="store_true", help="print every reduction step")

    p = _command(sub, "eq", "decide beta-eta-equality of two terms", _add_defs, _add_limits, _add_eta)
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = _command(sub, "bracket", "bracket-abstract into the combinator basis",
                 _add_expr, _add_defs, _add_limits, _add_eta)
    p.add_argument("--algo", choices=("turner", "variadic"), default="turner")
    p.add_argument("--n", type=natural, default=None,
                   help="variadic only: instantiate at this index and normalize")

    p = _command(sub, "expand", "expand a meta-term at a concrete index", _add_expr)
    p.add_argument("--n", type=natural, required=True)
    p.add_argument("--sugar", action="store_true")

    p = _command(sub, "church", "print the n-th Church numeral")
    p.add_argument("n", type=natural)

    p = _command(sub, "unchurch", "print the natural a term denotes", _add_expr, _add_defs, _add_limits)
    p.set_defaults(no_eta=None)  # a numeral is read from the beta-eta-normal form

    p = _command(sub, "check", "run the verification suites", _add_defs, _add_limits, _add_eta)
    p.add_argument("--suite", choices=("kernel", "bracket", "variadic", "fixpoint", "all"),
                   default="all")
    p.add_argument("--max-n", type=natural, default=3)

    _command(sub, "repl", "interactive loop (:def, :eq, :quit)", _add_defs, _add_limits, _add_eta)

    return top


def _make_env(args):
    env = Env() if args.no_prelude else standard_env()
    for path in args.defs or ():
        env.load_file(path)
    return env


def _make_cfg(args) -> ReductionConfig:
    limits = {"fuel": args.max_steps, "max_term_size": args.max_size}
    return ReductionConfig(eta=not args.no_eta, **{k: v for k, v in limits.items() if v is not None})


def _read_expr(args) -> str:
    if args.expr is not None:
        return args.expr
    if args.file:
        return read_source(args.file)
    return sys.stdin.read()


def _print_outcome(outcome, render) -> int:
    """Print render(normal form), if render; without a normal form print
    "<status> after N steps" on stderr and return 2."""
    if outcome.status is not Status.NORMAL_FORM:
        print(f"varlam: {outcome}", file=sys.stderr)
        return 2
    if render is not None:
        print(render(outcome.result))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bracket" and (args.algo == "turner" or args.n is None):
        # no reduction and no name read: only variadic --n applies the reducer's options
        if args.algo == "turner" and args.n is not None:
            parser.error("--n applies to --algo variadic only")
        for dest in _REDUCER_OPTIONS:
            if getattr(args, dest) is not None:
                option = "--" + dest.replace("_", "-")
                parser.error(f"{option} applies to bracket --algo variadic --n only")
    return _guarded(lambda: _dispatch(args), EQ_ERROR if args.command == "eq" else 1)


def _guarded(action, error_code: int) -> int:
    """The error boundary of a command and of each REPL line: run action and
    flush stdout; an error becomes a "varlam: ..." line on stderr and
    error_code.  A closed stdout ends the process with exit 1."""
    try:
        code = action()
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except LambdaError as exc:
        message = str(exc)
    except RecursionError:
        message = TOO_DEEP
    except BrokenPipeError as exc:  # stdout is closed: nothing more can be shown
        print(f"varlam: {exc.strerror}", file=sys.stderr)
        # the interpreter flushes stdout again at exit: let that go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1) from None
    except OSError as exc:  # a file that cannot be read or is not UTF-8 (env.read_source)
        message = exc.strerror if exc.filename is None else f"{exc.strerror}: {exc.filename}"
    print(f"varlam: {message}", file=sys.stderr)
    return error_code


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "church":
        print(print_term(church(args.n)))
        return 0
    if cmd == "expand":
        print(print_term(expand(parse_meta(_read_expr(args)), args.n), sugar=args.sugar))
        return 0
    if cmd == "bracket":
        return _bracket(args)

    env = _make_env(args)
    if cmd == "parse":
        print(print_term(parse(_read_expr(args), env), sugar=args.sugar))
        return 0
    cfg = _make_cfg(args)
    if cmd == "check":
        cases = run_suites([args.suite], max_n=args.max_n, cfg=cfg, env=env)
        print(format_report(cases))
        return 0 if all_ok(cases) else 1
    if cmd == "repl":
        return _repl(env, cfg)
    if cmd == "eq":
        return _eq(args.lhs, args.rhs, env, cfg)

    source = _read_expr(args)
    if cmd == "normalize":
        return _normalize(source, env, cfg, args.sugar, args.trace)
    if cmd == "unchurch":
        return _print_outcome(normalize(parse(source, env), env, cfg), read_numeral)
    raise AssertionError(f"unhandled command {cmd}")


def _bracket(args) -> int:
    """Abstract the term; only variadic --n builds an env and reduces."""
    source = _read_expr(args)
    if args.algo == "turner":
        print(print_term(bracket_mod.turner(parse(source))))
        return 0
    bound = bracket_mod.extended_bound(parse_meta(source))
    if args.n is None:
        print(print_term(bound))
        return 0
    outcome = normalize(App(bound, church(args.n)), _make_env(args), _make_cfg(args))
    return _print_outcome(outcome, print_term)


def _eq(lhs: str, rhs: str, env, cfg) -> int:
    verdict = beta_eta_equal(parse(lhs, env), parse(rhs, env), env, cfg)
    print(verdict.value)
    return {Verdict.EQUAL: 0, Verdict.NOT_EQUAL: 1, Verdict.UNKNOWN: 2}[verdict]


def _normalize(source: str, env, cfg, sugar: bool, traced: bool = False) -> int:
    t = parse(source, env)
    outcome = normalize(t, env, cfg)
    if not traced:
        return _print_outcome(outcome, lambda nf: print_term(nf, sugar=sugar))
    # the trace ends where normalize stopped, a certified no-normal-form too
    for step in trace(t, env, replace(cfg, fuel=outcome.steps)):
        print(print_term(step, sugar=sugar))
    return _print_outcome(outcome, None)


def _repl(env, cfg) -> int:
    interactive = sys.stdin.isatty()
    while True:
        if interactive:
            sys.stdout.write("> ")
            sys.stdout.flush()
        line = sys.stdin.readline()
        command = line.strip()
        if not line or command == ":quit":
            return 0
        if command and not command.startswith("--"):
            _guarded(lambda: _repl_line(command, env, cfg), 1)


def _repl_line(line: str, env, cfg) -> None:
    if line.startswith(":def "):
        body = line[len(":def "):].strip().rstrip(";").rstrip()
        env.load_text(body + " ;")
    elif line.startswith(":eq "):
        lhs, _, rhs = line[len(":eq "):].partition("=")
        if rhs:
            _eq(lhs, rhs, env, cfg)
        else:
            print("usage: :eq TERM = TERM", file=sys.stderr)
    else:
        _normalize(line, env, cfg, sugar=True)


if __name__ == "__main__":
    sys.exit(main())
