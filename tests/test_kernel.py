import ast
import gc
import itertools
import re
import signal
import sys
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from varlam.church import church, numeral_value
from varlam import meta, syntax, terms as kernel
from varlam.bracket import turner
from varlam.engine import ReductionConfig, normalize
from varlam.env import Env, standard_env
from varlam.syntax import ParseError, parse, parse_definitions, parse_meta, print_term
from varlam.terms import (
    App,
    Const,
    Lam,
    LambdaError,
    UnboundName,
    UnexpandedConstant,
    Var,
    alpha_eq,
    apply,
    expand_consts,
    free_set,
    free_vars,
    lams,
    size,
    substitute,
)

# primed names, so that a renamed binder (a to a') can meet a free name
names = st.sampled_from(["a", "a'", "b", "b''", "c", "x", "y", "z"])
terms = st.recursive(
    names.map(Var) | st.sampled_from(["K", "S"]).map(Const),
    lambda sub: st.builds(Lam, names, sub) | st.builds(App, sub, sub),
    max_leaves=25,
)


def test_parse_identity():
    t = parse(r"\x.x")
    assert isinstance(t, Lam) and t.binder == "x"
    assert isinstance(t.body, Var) and t.body.name == "x"


def test_parse_church_literal():
    assert alpha_eq(parse("#2"), parse(r"\s z. s (s z)"))
    assert alpha_eq(parse("#0"), parse(r"\s z. z"))


def test_parse_application_left_assoc():
    t = parse("a b c")
    assert isinstance(t, App) and isinstance(t.fun, App)
    assert t.fun.fun.name == "a" and t.fun.arg.name == "b" and t.arg.name == "c"


def test_parse_lambda_utf8_and_multi_binder():
    assert alpha_eq(parse("λx y.x"), parse(r"\x.\y.x"))


def test_parse_comments():
    assert alpha_eq(parse("a b -- trailing\n"), parse("a b"))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("(a b")
    with pytest.raises(ParseError):
        parse(r"\.x")
    with pytest.raises(ParseError):
        parse("a ? b")


# (parser, source, message): positions are line:col, 1-based, of the token
# (or character) at fault; comments and blank lines count as lines.
PARSE_ERRORS = [
    ('parse', '(a b', "parse error at 1:5: expected rparen, found ''"),
    ('parse', 'a b)', "parse error at 1:4: expected eof, found ')'"),
    ('parse', '\\. x', 'parse error at 1:2: expected at least one binder'),
    ('parse', '\\x y x', "parse error at 1:7: expected dot, found ''"),
    ('parse', '', "parse error at 1:1: expected a term, found ''"),
    ('parse', 'x $ y', "parse error at 1:3: unexpected character '$'"),
    ('parse', 'x\n  -- a comment\n  (y z', "parse error at 3:7: expected rparen, found ''"),
    ('parse', '-- only a comment\n', "parse error at 2:1: expected a term, found ''"),
    ('parse', '\\x.\n\n   @', "parse error at 3:4: unexpected character '@'"),
    ('parse', 'λx. x ;', "parse error at 1:7: expected eof, found ';'"),
    ('parse', 'f x[1..n]', "parse error at 1:4: expected eof, found '['"),
    ('parse', 'a\r\nb )', "parse error at 2:3: expected eof, found ')'"),
    ('parse', '#', "parse error at 1:1: unexpected character '#'"),
    ('parse', 'x := y', "parse error at 1:3: expected eof, found ':='"),
    ('parse', '( )', "parse error at 1:3: expected a term, found ')'"),
    ('parse_meta', '\\x[2..n]. x[1..n]', 'parse error at 1:4: sequence ranges must start at 1'),
    ('parse_meta', '\\x[1..n] y[1..m]. x[1..n]', "parse error at 1:10: second index variable 'm'; only one is allowed"),
    ('parse_meta', '\\x[1..n]. x[1..n', "parse error at 1:17: expected rbrack, found ''"),
    ('parse_meta', '\\x[1 n]. x', "parse error at 1:6: expected dotdot, found 'n'"),
    ('parse_meta', 'x[1..N]', "parse error at 1:6: expected lident, found 'N'"),
    ('parse_meta', '-- spread\n\\x[1..n].\n  x[1..n] )', "parse error at 3:11: expected eof, found ')'"),
    ('parse_meta', '\\x[1..n].\n  x[1..m]', "parse error at 2:3: second index variable 'm'; only one is allowed"),
    ('parse_meta', '\\. x', 'parse error at 1:2: expected at least one binder'),
    ('parse_meta', 'x[', "parse error at 1:3: expected num, found ''"),
    ('parse_meta', '\\x[1..n] y. x1 y', "parse error at 1:13: 'x1' clashes with the names of the enclosing sequence 'x'"),
    ('parse_meta', '\\x[1..n]. \\x1. x[1..n]', "parse error at 1:12: 'x1' clashes with the names of the enclosing sequence 'x'"),
    ('parse_meta', '\\x[1..n] x. x12', "parse error at 1:13: 'x12' clashes with the names of the enclosing sequence 'x'"),
    ('parse_meta', '\\x[1..n] x1[1..n]. x[1..n]', "parse error at 1:10: 'x1' clashes with the names of the enclosing sequence 'x'"),
    ('parse_meta', '\\x1[1..n] x[1..n]. x1[1..n]', "parse error at 1:11: 'x' clashes with the names of the enclosing sequence 'x1'"),
    ('parse_meta', '\\x2[1..n] x1[1..n]. \\x[1..n]. x1[1..n]', "parse error at 1:22: 'x' clashes with the names of the enclosing sequence 'x1'"),
    ('defs', 'A := \\x.x ;\nB := A A', "parse error at 2:9: expected semi, found ''"),
    ('defs', 'A = \\x.x ;', "parse error at 1:3: unexpected character '='"),
    ('defs', 'a := \\x.x ;', "parse error at 1:1: expected uident, found 'a'"),
    ('defs', '-- header\nA := \\x.x ;\n-- more\nB := \\y. ( y ;', "parse error at 4:14: expected rparen, found ';'"),
    ('defs', 'A := ;', "parse error at 1:6: expected a term, found ';'"),
    ('defs', 'A := \\x.x ;\n\n  B := \\y.y ;;', "parse error at 3:14: expected uident, found ';'"),
]
_PARSERS = {"parse": parse, "parse_meta": parse_meta,
            "defs": lambda text: parse_definitions(text, Env())}


@pytest.mark.parametrize("parser, source, message", PARSE_ERRORS)
def test_parse_error_messages(collector, parser, source, message):
    with pytest.raises(ParseError) as exc:
        _PARSERS[parser](source)
    assert str(exc.value) == message
    assert gc.isenabled()


# token fragments, junk ('$', '#') and line ends included, that sources are drawn from
_FRAGMENTS = st.sampled_from(["\\", "λ", ".", "(", ")", "x", "x'", "K", "#3", ":=", ";",
                              "[1..n]", "-- c\n", "\r\n", " ", "  ", "$", "#"])
_FOUND = re.compile(r"(?:found|unexpected character) ('.*'|\".*\")$")


@given(st.lists(_FRAGMENTS, max_size=30).map("".join))
@example("x\n  -- c\n  (y $")
def test_parsers_raise_only_their_errors_at_the_token_at_fault(source):
    # every parser returns or raises a LambdaError; a ParseError that names a
    # token sits at that token's offset, found again only when it is raised
    for parser in _PARSERS.values():
        try:
            parser(source)
        except ParseError as err:
            m = _FOUND.search(str(err))
            if m:
                assert source.startswith(ast.literal_eval(m.group(1)), err.offset)
        except LambdaError:
            pass


def test_parsing_has_no_nesting_limit():
    # the parser keeps its frames in a list: a term nested far deeper than
    # the interpreter's default recursion limit parses under that limit
    depth = 100_000
    numeral = r"\s z. " + "s (" * (depth - 1) + "s z" + ")" * (depth - 1)
    meta_term = r"\x[1..n]. " + "(" * depth + "f x[1..n]" + ")" * depth
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        assert parse("(" * depth + "x" + ")" * depth) is Var("x")
        assert numeral_value(parse(numeral)) == depth
        m = parse_meta(meta_term)
    finally:
        sys.setrecursionlimit(limit)
    assert alpha_eq(m, parse_meta(r"\x[1..n]. f x[1..n]"))


def test_collector_paused_in_the_parser(monkeypatch, collector):
    seen = []  # gc.isenabled() each time parse builds a numeral
    real = syntax.church

    def recording(n):
        seen.append(gc.isenabled())
        return real(n)

    monkeypatch.setattr(syntax, "church", recording)
    parse("#2 x")
    with pytest.raises(ParseError):
        parse("#4 )")
    assert seen == [False] * 2
    assert gc.isenabled()
    gc.disable()
    parse("#2 x")
    assert not gc.isenabled()


def test_unbound_const_rejected(env):
    with pytest.raises(UnboundName):
        parse("NoSuchName", env)
    assert isinstance(parse("NoSuchName"), Const)  # without an env: unchecked


def test_print_examples():
    assert print_term(parse(r"\x.x")) == r"\x.x"
    assert print_term(parse("a (b c)")) == "a (b c)"
    assert print_term(parse("(a b) c")) == "a b c"
    assert print_term(church(0), sugar=True) == "#0"
    assert print_term(church(1), sugar=True) == "#1"
    assert print_term(parse(r"\s.s"), sugar=True) == "#1"  # eta-short numeral
    assert print_term(parse(r"\s.s"), sugar=False) == r"\s.s"
    assert print_term(parse(r"\s s.s"), sugar=True) == "#0"  # c_0 with a shadowed binder


@given(terms)
def test_print_parse_roundtrip(t):
    assert alpha_eq(parse(print_term(t)), t)


_ENV = standard_env()


@given(terms)
def test_print_parse_roundtrip_sugared(t):
    # sugar prints the eta-short c_1 (lam s.s) as #1, which reparses as the
    # full numeral: sugared round-trips are beta-eta-faithful, not alpha
    from varlam.engine import ReductionConfig, Verdict, beta_eta_equal

    back = parse(print_term(t, sugar=True))
    if alpha_eq(back, t):
        return
    cfg = ReductionConfig(fuel=3000, max_term_size=100_000)
    assert beta_eta_equal(back, t, _ENV, cfg) is not Verdict.NOT_EQUAL


def test_free_vars_examples(env):
    assert free_vars(parse(r"\x. x y")) == {"y"}
    assert free_vars(parse(r"x (\x.x)")) == {"x"}
    assert free_vars(parse("K", env)) == set()


@given(names, terms)
def test_free_vars_lam_law(x, t):
    assert free_vars(Lam(x, t)) == free_vars(t) - {x}


@given(terms, terms)
def test_free_vars_app_law(a, b):
    assert free_vars(App(a, b)) == free_vars(a) | free_vars(b)


def _naive_free(t):
    """The free names of t by the textbook recursion, reading no stored set."""
    c = t.__class__
    if c is Var:
        return {t.name}
    if c is Lam:
        return _naive_free(t.body) - {t.binder}
    if c is App:
        return _naive_free(t.fun) | _naive_free(t.arg)
    return set()


def _copy(t):
    """t rebuilt from new Lam and App nodes: a wide node's set is not filled."""
    c = t.__class__
    if c is Lam:
        return Lam(t.binder, _copy(t.body))
    if c is App:
        return App(_copy(t.fun), _copy(t.arg))
    return t


def _forced(t):
    """A copy of t whose wide sets are all filled."""
    t = _copy(t)
    free_set(t)
    return t


def _eager(t):
    """A copy of t built with no width limit, so that every node makes its set
    in its constructor: the representation before nodes could be wide."""
    width = kernel._WIDE
    kernel._WIDE = sys.maxsize
    try:
        return _copy(t)
    finally:
        kernel._WIDE = width


def _chain(width, bound, head="f"):
    """lam over the first bound of width names, around head applied to all of them."""
    xs = ["x", "a'", *(f"v{i}" for i in range(width - 2))]
    return lams(xs[:bound], apply(Var(head), *map(Var, xs)))


@st.composite
def _wide_chains(draw, most_bound):
    """Chains over 40-200 names, more than a node's set holds before it is
    left wide: lambdas over up to most_bound of the names around a random
    head applied to all of them and to a few random terms."""
    width = draw(st.integers(40, 200))
    xs = ["x", "a'", *(f"v{i}" for i in range(width - 2))]
    spine = apply(draw(terms), *map(Var, xs), *draw(st.lists(terms, max_size=3)))
    return lams(xs[:draw(st.integers(0, min(width, most_bound)))], spine)


def _wide_terms(most_bound):
    chains = _wide_chains(most_bound)
    return (chains | st.builds(App, chains, terms) | st.builds(App, terms, chains)
            | st.builds(Lam, names, chains))


@given(terms | _wide_terms(200))
@example(_chain(40, 1))
@example(App(_chain(200, 120), Lam("x", _chain(60, 60, "x"))))
def test_free_vars_agrees_with_a_naive_reference(t):
    want = _naive_free(t)
    assert free_vars(t) == want
    forced = _forced(t)
    assert free_set(forced) == want
    assert free_vars(forced) == want
    x = min(want, default="x")  # a lambda over a filled set, wide or not
    assert free_vars(Lam(x, forced)) == want - {x}


def test_only_wide_nodes_wait_for_their_sets():
    narrow = _chain(kernel._WIDE - 1, 3)  # f and W - 1 names
    assert narrow.free == {"f", *(f"v{i}" for i in range(1, kernel._WIDE - 3))}
    wide = _chain(kernel._WIDE, 0)
    assert wide.free is kernel._UNMADE and len(wide.fun.free) == kernel._WIDE
    assert wide.size == 2 * kernel._WIDE + 1 and not wide.has_const  # eager, as ever
    assert free_vars(wide) == _naive_free(wide) and wide.free is kernel._UNMADE  # the walk fills nothing
    assert free_set(wide) == free_vars(wide) == wide.free


_SMALL = ReductionConfig(fuel=200, max_term_size=20_000)


# Turner's output nests deeper with each binder it abstracts over a long spine,
# so the chains bind few names here: a dozen binders over 180 arguments reach
# the recursion limit under hypothesis's own frames.
@given(_wide_terms(8) | terms, names, terms)
@example(_chain(40, 40), "f", Var("a'"))
@example(_chain(40, 0), "v37", Var("y"))  # only the last argument of a wide spine changes
# the beta step substitutes a' into a wide body that binds a': the binder is primed
@example(App(Lam("f", _chain(50, 50)), Var("a'")), "x", Var("y"))
def test_wide_sets_lazy_forced_or_eager_give_the_same_answers(t, x, r):
    def answers(u):
        out = normalize(u, _ENV, _SMALL)
        return (print_term(substitute(u, x, r)), print_term(turner(u)),
                out.status, out.steps, print_term(out.result))

    lazy, forced, eager = _copy(t), _forced(t), _eager(t)
    assert alpha_eq(lazy, forced) and alpha_eq(lazy, eager)
    want = answers(eager)
    assert answers(forced) == want
    assert answers(lazy) == want


def _within(seconds, fn, *args):
    """fn(*args), or TimeoutError once seconds have passed."""
    def late(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    old = signal.signal(signal.SIGALRM, late)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@given(_wide_terms(200) | terms, names, _wide_terms(200) | terms)
# every binder of a wide chain captures the wide repl, and is primed
@example(_chain(200, 200, "p"), "p", _chain(200, 0, "y"))
@example(Lam("y", _chain(60, 60, "p")), "p", App(_chain(40, 0, "y"), Var("a'")))
def test_substitute_into_wide_chains_as_into_eager_ones(t, x, r):
    lazy = _within(10, substitute, _copy(t), x, _copy(r))
    assert print_term(lazy) == print_term(substitute(_eager(t), x, _eager(r)))


def test_beta_step_under_many_captured_wide_binders_takes_polynomial_time():
    # (\p x1 ... x40. p x1 ... x40) (y x1 ... x40): all 40 binders capture
    # the wide argument, and renaming each one must not substitute into the
    # body beneath it twice, which doubles the work at every binder
    xs = [f"x{i}" for i in range(1, 41)]
    t = App(lams(["p", *xs], apply(Var("p"), *map(Var, xs))), apply(Var("y"), *map(Var, xs)))
    out = _within(10, normalize, t, _ENV, _SMALL)
    want = normalize(_eager(t), _ENV, _SMALL)
    assert (out.status, out.steps, print_term(out.result)) == (want.status, want.steps, print_term(want.result))


def test_wide_family_members_build_print_parse_and_compare_in_linear_memory():
    # with a set made in every constructor the build, print, parse and
    # compare alone traced 126 MB: each of the n binders copied up to n names
    tracemalloc.start()
    try:
        for name in ("S", "tup", "selfapp"):
            t = meta.build(name, 1000)
            back = parse(print_term(t))
            assert alpha_eq(back, t)
            assert free_vars(back) == set()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_size_examples():
    assert size(parse("x")) == 1
    assert size(parse(r"\x.x")) == 2
    assert size(parse(r"\x.\y.x")) == 3
    assert size(parse(r"\a b c. b (a b c)")) == 10
    assert size(parse(r"\x. x x")) == 4


def test_size_rejects_constants(env):
    with pytest.raises(UnexpandedConstant):
        size(parse("S B", env))


def test_size_of_numerals(env):
    # |lam s z. s^n z| = 2 lambdas + (2n + 1) body nodes
    for n in range(9):
        assert size(expand_consts(church(n), env)) == 3 + 2 * n


def test_alpha_eq_examples():
    assert alpha_eq(parse(r"\x.x"), parse(r"\y.y"))
    assert alpha_eq(parse(r"\x.\y.x"), parse(r"\y.\x.y"))
    assert not alpha_eq(parse(r"\x.\y.x"), parse(r"\x.\y.y"))
    assert not alpha_eq(parse(r"\x.x"), parse(r"\x.x x"))
    assert alpha_eq(Const("K"), Const("K"))
    assert not alpha_eq(Const("K"), Const("S"))


@given(terms)
def test_alpha_eq_reflexive(t):
    assert alpha_eq(t, t)


@given(terms, terms)
def test_alpha_eq_symmetric(a, b):
    assert alpha_eq(a, b) == alpha_eq(b, a)


@given(terms, terms, terms)
def test_alpha_eq_transitive(a, b, c):
    if alpha_eq(a, b) and alpha_eq(b, c):
        assert alpha_eq(a, c)


def _de_bruijn(t, bound=()):
    """t as nested tuples in which a bound variable is the number of lambdas
    between it and its binder: alpha-equal terms, and only they, render equal."""
    c = t.__class__
    if c is Var:
        for i in range(len(bound) - 1, -1, -1):
            if bound[i] == t.name:
                return ("bound", len(bound) - 1 - i)
        return ("free", t.name)
    if c is Lam:
        return ("lam", _de_bruijn(t.body, (*bound, t.binder)))
    if c is App:
        return ("app", _de_bruijn(t.fun, bound), _de_bruijn(t.arg, bound))
    return ("const", t.name)


def _rebind(t, picks, ren=None):
    """t with each binder, in preorder, renamed to the next of picks and its
    bound occurrences after it; a free name may be captured on the way."""
    ren = ren or {}
    c = t.__class__
    if c is Var:
        return Var(ren.get(t.name, t.name))
    if c is Lam:
        b = next(picks)
        return Lam(b, _rebind(t.body, picks, {**ren, t.binder: b}))
    if c is App:
        return App(_rebind(t.fun, picks, ren), _rebind(t.arg, picks, ren))
    return t


# two names for every binder and variable: shadowing is the rule, not the exception
_SHADOWED = st.sampled_from(["x", "y"])
_shadowed_terms = st.recursive(
    _SHADOWED.map(Var) | st.just(Const("K")),
    lambda sub: st.builds(Lam, _SHADOWED, sub) | st.builds(App, sub, sub),
    max_leaves=12,
)


@given(_shadowed_terms, _shadowed_terms, st.lists(_SHADOWED | st.just("z"), min_size=1, max_size=6))
def test_alpha_eq_agrees_with_de_bruijn(a, b, picks):
    # b is most often not alpha-equal to a; a with its binders renamed often is
    for other in (b, _rebind(a, itertools.cycle(picks))):
        assert alpha_eq(a, other) == (_de_bruijn(a) == _de_bruijn(other))


@pytest.mark.parametrize("name", sorted(meta._META_SOURCES))
def test_alpha_eq_agrees_with_de_bruijn_on_large_families(name):
    # tests alpha_eq at scale, not the oracle: two separate expansions share no App or Lam
    expanded = meta.expand(meta.builtin_meta(name), 300)
    assert _de_bruijn(expanded) == _de_bruijn(meta.build(name, 300))
    assert alpha_eq(expanded, meta.build(name, 300))
    assert not alpha_eq(expanded, meta.build(name, 301))
    assert _de_bruijn(expanded) != _de_bruijn(meta.build(name, 301))


def test_leaves_are_shared():
    assert Var("x") is Var("x") and Var("x") is not Var("y")
    assert Const("K") is Const("K") and Const("K") is not Const("S")
    assert Var("K") is not Const("K")
    t = parse(r"\x. x (x y)")
    assert t.body.fun is t.body.arg.fun is Var("x")
    # the binder substitute renames to is shared as well
    renamed = substitute(parse(r"\y. x y"), "x", Var("y"))
    assert renamed.binder == "y'" and renamed.body.arg is Var("y'")


@given(terms, names, terms)
@example(parse(r"\a. x a'"), "x", Var("a"))  # a renamed to a' would capture the free a'
def test_substitute_free_vars_law(t, x, r):
    # no free name of t or r is captured: renamed binders avoid them all
    want = free_vars(t) - {x} | free_vars(r) if x in free_vars(t) else free_vars(t)
    assert free_vars(substitute(t, x, r)) == want


def test_substitute_capture_avoidance():
    t = substitute(parse(r"\y.x"), "x", Var("y"))
    assert isinstance(t, Lam) and t.binder != "y"
    assert isinstance(t.body, Var) and t.body.name == "y"
    assert alpha_eq(t, parse(r"\w.y"))


def test_substitute_examples(env):
    assert alpha_eq(substitute(Var("x"), "x", Const("K")), Const("K"))
    assert alpha_eq(substitute(parse(r"\x.x"), "x", parse("q r")), parse(r"\x.x"))


@given(terms, names, terms)
def test_substitute_noop_when_not_free(t, x, r):
    if x not in free_vars(t):
        assert alpha_eq(substitute(t, x, r), t)


def test_expand_consts(env):
    assert alpha_eq(expand_consts(parse("K", env), env), parse(r"\x.\y.x"))
    assert alpha_eq(expand_consts(parse(r"\x.x", env), env), parse(r"\x.x"))
    sb = expand_consts(parse("S B", env), env)
    assert not sb.has_const
    assert alpha_eq(sb, App(parse(r"\x y z. x z (y z)"), parse(r"\x y z. x (y z)")))


def test_env_rejects_forward_reference():
    env = Env()
    with pytest.raises(UnboundName):
        parse_definitions("A := B ; B := \\x.x ;", env)


def test_env_rejects_open_definition():
    from varlam.env import BadDefinition

    env = Env()
    with pytest.raises(BadDefinition):
        env.define("Bad", Var("x"))


def test_env_later_lines_see_earlier(env):
    e = Env()
    parse_definitions("Id := \\x.x ; Twice := \\f. Id f ;", e)
    assert "Twice" in e


def test_prelude_names_present(env):
    for name in ("I", "K", "B", "C", "S", "True", "False",
                 "Succ", "Plus", "Pred", "Monus", "Zero"):
        assert name in env
    assert Env().names() == []


def test_prelude_terms_match_table(env):
    assert alpha_eq(env.expanded("I"), parse(r"\x.x"))
    assert alpha_eq(env.expanded("K"), parse(r"\x y.x"))
    assert alpha_eq(env.expanded("B"), parse(r"\x y z.x (y z)"))
    assert alpha_eq(env.expanded("C"), parse(r"\x y z.x z y"))
    assert alpha_eq(env.expanded("S"), parse(r"\x y z.x z (y z)"))
    assert alpha_eq(env.expanded("Succ"), parse(r"\n s z.s (n s z)"))
    plus = expand_consts(parse(r"\a b.b Succ a", env), env)
    assert alpha_eq(env.expanded("Plus"), plus)
    monus = expand_consts(parse(r"\a b.b Pred a", env), env)
    assert alpha_eq(env.expanded("Monus"), monus)
    pred = expand_consts(
        parse(r"\n.Fst (n (\p.Pair (Snd p) (Succ (Snd p))) (Pair #0 #0))", env), env
    )
    assert alpha_eq(env.expanded("Pred"), pred)
    assert alpha_eq(env.expanded("Zero"),
                    parse(r"\n.n (\x.\a b.b) (\a b.a)"))
