import ast
import gc
import itertools
import pathlib
import re
import signal
import sys
import threading
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference as ref
from varlam.church import church, numeral_value
from varlam import bracket, meta, syntax, terms as kernel
from varlam.bracket import turner
from varlam.engine import ReductionConfig, Status, normalize
from varlam.env import Env, standard_env
from varlam.syntax import ParseError, parse, parse_definitions, parse_meta, print_term
from varlam.terms import (
    App,
    Const,
    Lam,
    LambdaError,
    SeqBinder,
    Splice,
    UnboundName,
    UnexpandedConstant,
    Var,
    alpha_eq,
    apply,
    expand_consts,
    free_vars,
    lams,
    size,
    substitute,
)

# primed names, so that a renamed binder (a to a') can meet a free name
names = st.sampled_from(["a", "a'", "b", "b''", "c", "x", "y", "z"])
consts = st.sampled_from(["K", "S"]).map(Const)
terms = st.recursive(
    names.map(Var) | consts,
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
    assert ref.identical(parse(print_term(t)), t)


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


def _recursive_fmt(t, ctx, sugar, out):
    """The printer as one recursive call per node: the reference the loop is
    held to."""
    if sugar:
        n = numeral_value(t)
        if n is not None:
            out.append(f"#{n}")
            return
    c = t.__class__
    if c is Var or c is Const:
        out.append(t.name)
        return
    if c is not Lam and c is not App:  # a splice
        out.append(f"({t.binder})" if t.grouped else t.binder)
        return
    paren = ctx != "top" if c is Lam else ctx == "arg"
    if paren:
        out.append("(")
    if c is Lam:
        binders = []
        while t.__class__ is Lam and (not sugar or numeral_value(t) is None):
            binders.append(t.binder)
            t = t.body
        out.append("\\" + " ".join(binders) + ".")
        _recursive_fmt(t, "top", sugar, out)
    else:
        _recursive_fmt(t.fun, "fun", sugar, out)
        out.append(" ")
        _recursive_fmt(t.arg, "arg", sugar, out)
    if paren:
        out.append(")")


@given(terms, st.booleans())
@example(parse(r"(\x. x) y (\y. y)"), False)  # a lambda in function position, a lambda argument
@example(parse(r"a (\x. b (c (d (\y. y x))))"), False)  # parentheses nested at the tail
@example(parse(r"f (g #2) (\s. s) (\s z. s (s z)) #0"), True)  # numerals and the eta-short c_1
@example(parse(r"f (g #2) #3"), False)
@example(parse_meta(r"\f x[1..n]. f (x[1..n]) x[1..n] (g x[1..n])"), False)  # splices
def test_print_term_agrees_with_the_recursive_printer(t, sugar):
    out = []
    _recursive_fmt(t, "top", sugar, out)
    assert print_term(t, sugar) == "".join(out)


def test_alpha_eq_and_the_printer_have_no_numeral_depth_limit():
    # a numeral nests to the right, and both walks loop down the argument
    depth = 100_000
    a, b = church(depth), church(depth)
    renamed = Var("x")
    for _ in range(depth):
        renamed = App(Var("f"), renamed)
    renamed = lams(["f", "x"], renamed)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        assert alpha_eq(a, b) and alpha_eq(a, renamed)
        assert not alpha_eq(a, church(depth - 1))
        text = print_term(a)
    finally:
        sys.setrecursionlimit(limit)
    assert text == r"\s z." + "s (" * (depth - 1) + "s z" + ")" * (depth - 1)


def test_free_vars_examples(env):
    assert free_vars(parse(r"\x. x y")) == {"y"}
    assert free_vars(parse(r"x (\x.x)")) == {"x"}
    assert free_vars(parse("K", env)) == set()


@given(names, terms)
def test_free_vars_lam_law(x, t):
    assert free_vars(Lam(x, t)) == ref.free(t) - {x}


@given(terms, terms)
def test_free_vars_app_law(a, b):
    assert free_vars(App(a, b)) == ref.free(a) | ref.free(b)


def _nodes(t):
    """Every node of t once, shared ones too."""
    seen, todo = {}, [t]
    while todo:
        u = todo.pop()
        if id(u) not in seen:
            seen[id(u)] = u
            todo += (u.body,) if type(u) is Lam else (u.fun, u.arg) if type(u) is App else ()
    return list(seen.values())


def _chain(width, bound, head="f"):
    """lam over the first bound of width names, around head applied to all of them."""
    xs = ["x", "a'", *(f"v{i}" for i in range(width - 2))]
    return lams(xs[:bound], apply(Var(head), *map(Var, xs)))


@st.composite
def _wide_chains(draw, most_bound):
    """Chains over 40-200 names: lambdas over up to most_bound of the names
    around a random head applied to all of them and to a few random terms."""
    width = draw(st.integers(40, 200))
    xs = ["x", "a'", *(f"v{i}" for i in range(width - 2))]
    spine = apply(draw(terms), *map(Var, xs), *draw(st.lists(terms, max_size=3)))
    return lams(xs[:draw(st.integers(0, min(width, most_bound)))], spine)


def _wide_terms(most_bound):
    chains = _wide_chains(most_bound)
    return (chains | st.builds(App, chains, terms) | st.builds(App, terms, chains)
            | st.builds(Lam, names, chains))


@given(terms | _wide_terms(200) | st.builds(App, _wide_chains(200), consts))
@example(_chain(40, 1))
@example(App(_chain(200, 120), Lam("x", _chain(60, 60, "x"))))
@example(App(_chain(40, 0), Const("K")))  # a constant below a wide spine
def test_free_vars_agrees_with_a_naive_reference(t):
    want = ref.free(t)
    x = min(want, default="x")
    assert (free_vars(t), free_vars(Lam(x, t))) == (want, want - {x})


_SMALL = ReductionConfig(fuel=200, max_term_size=20_000)


# Turner's output nests deeper with each binder it abstracts over a long spine,
# so the chains bind few names here: a dozen binders over 180 arguments reach
# the recursion limit under hypothesis's own frames.
@given(_wide_terms(8) | terms, names, terms)
@example(_chain(40, 40), "f", Var("a'"))
@example(_chain(40, 0), "v37", Var("y"))  # only the last argument of a wide spine changes
# the beta step substitutes a' into a wide body that binds a': the binder is primed
@example(App(Lam("f", _chain(50, 50)), Var("a'")), "x", Var("y"))
def test_wide_terms_agree_with_the_reference(t, x, r):
    # substitution, bracket abstraction and the beta loop on wide terms, each
    # against the reference, tree for tree; a normal form is compared with
    # the one the reference reaches in as many leftmost-outermost steps
    assert ref.identical(substitute(t, x, r), ref.subst(t, x, r))
    assert ref.identical(turner(t), ref.turner(t))
    out = normalize(t, _ENV, _SMALL)
    if out.status is Status.NORMAL_FORM:
        beta, steps, status = ref.naive_run(ref.expand(t, _ENV), _SMALL.fuel, _SMALL.max_term_size)
        assert (status, steps) == (Status.NORMAL_FORM, out.steps)
        assert ref.identical(out.result, ref.eta(beta))


def test_turner_asks_free_vars_of_no_wide_node(monkeypatch):
    # bracket abstraction reads where the binder is from the masks, one bit
    # test a node, and decodes no mask into a set of names
    t = _chain(200, 8)
    want = ref.turner(t)
    asks = []
    decode = kernel.free_vars
    for module in (kernel, bracket):
        monkeypatch.setattr(module, "free_vars", lambda u: asks.append(u) or decode(u))
    got = turner(t)
    assert len(asks) == 0
    assert ref.identical(got, want)


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
# a wide lambda that binds the name keeps its body: (\x.a x a' ...) x to (\x.a x a' ...) a
@example(App(Lam("x", apply(Var("a"), Var("x"), Var("a'"), *[Var(f"v{i}") for i in range(38)])), Var("x")),
         "x", Var("a"))
# a wide lambda that captures repl but does not mention the name keeps its binder
@example(App(_chain(40, 1), Var("p")), "p", Var("x"))
def test_substitute_into_wide_chains_agrees_with_the_reference(t, x, r):
    got = _within(10, substitute, t, x, r)
    assert ref.identical(got, ref.subst(t, x, r))


def test_beta_step_under_many_captured_wide_binders_takes_polynomial_time():
    # (\p x1 ... x40. p x1 ... x40) (y x1 ... x40): all 40 binders capture
    # the wide argument, and renaming each one must not substitute into the
    # body beneath it twice, which doubles the work at every binder.  The
    # primed binders are eta-erased, so the normal form is the argument
    xs = [f"x{i}" for i in range(1, 41)]
    arg = apply(Var("y"), *map(Var, xs))
    t = App(lams(["p", *xs], apply(Var("p"), *map(Var, xs))), arg)
    out = _within(10, normalize, t, _ENV, _SMALL)
    assert (out.status, out.steps) == (Status.NORMAL_FORM, 1) and ref.identical(out.result, arg)


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


def test_every_mask_decodes_to_its_free_names():
    # every node's mask decodes to its free names: those substitution's
    # capture test, a contraction's wide argument and the eta test read
    xs = [f"x{i}" for i in range(1, 41)]
    chain = _chain(200, 8)
    body, repl = _chain(200, 200, "p"), _chain(200, 0, "y")  # every binder captures
    beta = App(lams(["p", *xs], apply(Var("p"), *map(Var, xs))), apply(Var("y"), *map(Var, xs)))
    eta = Lam("x", apply(Var("f"), *map(Var, xs), Var("x"), Var("x")))  # keeps the wide f x1 ... x40 x
    seen = [chain, body, repl, substitute(body, "p", repl), beta, eta]
    for t in (beta, eta):
        out = normalize(t, _ENV, _SMALL)
        assert out.status.value == "normal-form"
        seen.append(out.result)
    for t in seen:
        for u in _nodes(t):
            assert free_vars(u) == ref.free(u)


def test_names_made_and_dropped_give_their_bits_to_later_names():
    # 20,000 names made and dropped leave their indices spare, and the names
    # of a term made after them, each tagged so that no other term holds it,
    # take the lowest of them.  With no index reused every name of the term
    # owned a bit above 20,000, each node held a mask that long, and the
    # reduction traced 41 MB
    early = [Var(f"early{i}") for i in range(20_000)]
    del early
    t = _tagged(expand_consts(parse("Monus #60 #30 s z", _ENV), _ENV), "/late")
    tracemalloc.start()
    try:
        out = normalize(t, _ENV)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.status, out.steps) == (Status.NORMAL_FORM, 13_836)
    want = Var("z/late")
    for _ in range(30):
        want = App(Var("s/late"), want)
    assert ref.identical(out.result, want)
    assert peak < 12 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_threads_that_make_one_name_at_once_share_one_var():
    # four threads make the same 20,000 new names at once.  With the making
    # unlocked a name was now and then made twice, with two bits, and a
    # lambda over it cleared one of them and read its bound name as free
    n = 20_000
    made = [[] for _ in range(4)]

    def work(out):
        for i in range(n):
            out.append(Var(f"shared/{i}"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in made]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(out[i] is made[0][i] for out in made for i in range(n))
    assert all(free_vars(Lam(v.name, v)) == set() for out in made for v in out)


def _tagged(t, tag):
    """t with tag appended to every name, bound or free."""
    c = type(t)
    if c is Var:
        return Var(t.name + tag)
    if c is Lam:
        return Lam(t.binder + tag, _tagged(t.body, tag))
    return App(_tagged(t.fun, tag), _tagged(t.arg, tag)) if c is App else t


def _bits(ts):
    return {u.free for t in ts for u in _nodes(t) if type(u) is Var}


@given(st.lists(terms, min_size=1, max_size=4), st.lists(terms, min_size=1, max_size=4),
       st.lists(terms, min_size=1, max_size=4))
def test_a_reused_bit_never_confuses_a_live_term(kept, dropped, made):
    # the names of the dropped terms die with them, and the names made next
    # take their bits, lowest first: every live node's mask still decodes to
    # its own free names.  The collector is paused, so that no other name
    # dies mid-test and frees a lower index
    gc.disable()
    try:
        kept = [_tagged(t, "/kept") for t in kept]
        dropped = [_tagged(t, "/dropped") for t in dropped]
        freed = _bits(dropped)
        del dropped
        made = [_tagged(t, "/made") for t in made]
    finally:
        gc.enable()
    assert _bits(made) & freed or not freed or not _bits(made)
    for t in kept + made:
        for u in _nodes(t):
            assert free_vars(u) == ref.free(u)


def test_a_wide_family_member_reduces_in_linear_memory():
    # S_200 a b c1 ... c200: each contraction substitutes into a wide body,
    # and filling the set of every wide node of it traced 390 MB
    cs = [Var(f"c{i}") for i in range(1, 201)]
    t = apply(meta.build("S", 200), Var("a"), Var("b"), *cs)
    tracemalloc.start()
    try:
        out = normalize(t, _ENV)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.status.value, out.steps) == ("normal-form", 202)
    assert ref.identical(out.result, App(apply(Var("a"), *cs), apply(Var("b"), *cs)))
    assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


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
    # a variable in function position is compared under the binder maps too
    assert alpha_eq(parse(r"\x. x y"), parse(r"\z. z y"))
    assert not alpha_eq(parse(r"\x y. x z"), parse(r"\y x. x z"))


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
        assert alpha_eq(a, other) == (ref.de_bruijn(a) == ref.de_bruijn(other))


@pytest.mark.parametrize("name", sorted(meta._META_SOURCES))
def test_alpha_eq_agrees_with_de_bruijn_on_large_families(name):
    # tests alpha_eq at scale, not the oracle: two separate expansions share no App or Lam
    expanded = meta.expand(meta.builtin_meta(name), 300)
    assert ref.de_bruijn(expanded) == ref.de_bruijn(meta.build(name, 300))
    assert alpha_eq(expanded, meta.build(name, 300))
    assert not alpha_eq(expanded, meta.build(name, 301))
    assert ref.de_bruijn(expanded) != ref.de_bruijn(meta.build(name, 301))


@given(_shadowed_terms, st.lists(_SHADOWED | st.just("z"), min_size=1, max_size=6))
@example(parse(r"\x. x (\y. y x) (\x. y)"), ["y", "x"])  # the renamed \x. y captures y: False
def test_alpha_puts_back_the_binder_maps_it_was_given(t, picks):
    # x and y are bound outside t at depths 0 and 1; t's binders shadow them.
    # The maps come back as given, whichever the answer.
    for other in (t, _rebind(t, itertools.cycle(picks))):
        ea, eb = {"x": 0, "y": 1}, {"x": 0, "y": 1}
        kernel._alpha(t, other, ea, eb, 2)
        assert ea == eb == {"x": 0, "y": 1}


def test_leaves_are_shared():
    assert Var("x") is Var("x") and Var("x") is not Var("y")
    assert Const("K") is Const("K") and Const("K") is not Const("S")
    assert Var("K") is not Const("K")
    t = parse(r"\x. x (x y)")
    assert t.body.fun is t.body.arg.fun is Var("x")
    # the binder substitute renames to is shared as well
    renamed = substitute(parse(r"\y. x y"), "x", Var("y"))
    assert renamed.binder == "y'" and renamed.body.arg is Var("y'")


def test_substitute_renames_a_binder_in_the_body_alone():
    # y is renamed to y' in the body with y''s own set as repl's: z, which
    # the outer repl y z would capture but y' does not, keeps its name
    t = substitute(parse(r"\y. x (\z. y z)"), "x", parse("y z"))
    assert print_term(t) == r"\y'.y z (\z.y' z)"


@given(terms, names, terms)
@example(parse(r"\a. x a'"), "x", Var("a"))  # a renamed to a' would capture the free a'
def test_substitute_free_vars_law(t, x, r):
    # no free name of t or r is captured: renamed binders avoid them all
    want = ref.free(t) - {x} | ref.free(r) if x in ref.free(t) else ref.free(t)
    assert free_vars(substitute(t, x, r)) == want


def test_substitute_capture_avoidance():
    t = substitute(parse(r"\y.x"), "x", Var("y"))
    assert isinstance(t, Lam) and t.binder != "y"
    assert isinstance(t.body, Var) and t.body.name == "y"
    assert alpha_eq(t, parse(r"\w.y"))


def test_substitute_examples(env):
    assert alpha_eq(substitute(Var("x"), "x", Const("K")), Const("K"))
    assert alpha_eq(substitute(parse(r"\x.x"), "x", parse("q r")), parse(r"\x.x"))


def test_substitute_into_a_meta_term():
    m = parse_meta(r"\x[1..n]. p x[1..n]")
    assert print_term(substitute(m, "p", Var("q"))) == r"\x[1..n].q x[1..n]"
    # the splice would be captured, and a sequence binder has no renaming yet
    with pytest.raises(LambdaError, match=re.escape("sequence x[1..n]")):
        substitute(m, "p", Splice(SeqBinder("x", "n")))


@given(terms, names, terms)
def test_substitute_noop_when_not_free(t, x, r):
    if x not in ref.free(t):
        assert substitute(t, x, r) is t


def test_expand_consts(env):
    assert alpha_eq(expand_consts(parse("K", env), env), parse(r"\x.\y.x"))
    assert alpha_eq(expand_consts(parse(r"\x.x", env), env), parse(r"\x.x"))
    sb = expand_consts(parse("S B", env), env)
    assert expand_consts(sb, None) is sb
    assert alpha_eq(sb, App(parse(r"\x y z. x z (y z)"), parse(r"\x y z. x (y z)")))
    for u in (_chain(8, 2), _chain(40, 40)):  # constant-free, short and wide
        assert expand_consts(u, None) is u
    # the constants end a wide spine: the walk goes down the nodes whose masks
    # hold the constants' mark, and keeps the constant-free part as it is
    spine = _chain(40, 0)
    t = apply(spine, Const("K"), Const("S"))
    got = expand_consts(t, env)
    assert ref.identical(got, ref.expand(t, env)) and got.fun.fun is spine
    with pytest.raises(UnexpandedConstant) as raised:
        expand_consts(t, None)
    assert raised.value.name == "K"  # the leftmost constant


def test_expand_consts_walks_a_term_deeper_than_the_recursion_limit(env):
    # 12,000 lambdas over a spine of 12,000 arguments: with a constant at the
    # head of the spine the walk goes down all of it, on its own stack
    xs = [f"v{i}" for i in range(12_000)]
    t = lams(xs, apply(Var("f"), *map(Var, reversed(xs))))
    assert expand_consts(t, None) is t
    out = normalize(t)
    assert out.status is Status.NORMAL_FORM and out.steps == 0
    assert out.result.size == t.size  # not alpha_eq: it recurses on lambda bodies
    k = lams(xs, apply(Const("K"), *map(Var, xs)))
    with pytest.raises(UnexpandedConstant):
        expand_consts(k, None)
    assert expand_consts(k, env).size == k.size - 1 + env.expanded("K").size


def test_env_rejects_forward_reference():
    env = Env()
    with pytest.raises(UnboundName):
        parse_definitions("A := B ; B := \\x.x ;", env)


def test_env_expanded_rejects_an_unbound_name():
    with pytest.raises(UnboundName):
        Env().expanded("Nope")


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


def test_no_module_reads_the_class_attribute():
    # classes are tested with type(x): Python 3.11 specializes that call and
    # not the attribute read x.__class__ (in the beta loop, 7.5% of perfbench's
    # diverge workload)
    reads = [f"{path.name}:{node.lineno}"
             for path in sorted(pathlib.Path(kernel.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "__class__"]
    assert reads == []


_MASK_TABLES = ("_CONST", "_VARS", "_BITS", "_NAMES", "_SPARE")


def test_only_terms_reads_a_free_slot():
    # the mask format (a name's bit is found in terms' private tables, and
    # _CONST marks a constant below) is terms' own: every other module reads
    # masks through free_vars and may_mention
    reads = [f"{path.name}:{node.lineno}"
             for path in sorted(pathlib.Path(kernel.__file__).parent.glob("*.py")) if path.name != "terms.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "free"
             or isinstance(node, ast.Name) and node.id in _MASK_TABLES
             or isinstance(node, ast.alias) and node.name in _MASK_TABLES]
    assert reads == []


def test_only_a_constructor_writes_a_free_slot():
    # a node's free slot is written where the node is built and never after,
    # so a mask is fixed for the node's life (the reuse of bits relies on it)
    def writes(node, scope):
        """(names of the enclosing classes and defs, line) of each write to a .free."""
        for child in ast.iter_child_nodes(node):
            for target in getattr(child, "targets", [getattr(child, "target", None)]):
                for part in ast.walk(target) if target else ():
                    if isinstance(part, ast.Attribute) and part.attr == "free":
                        yield scope, part.lineno
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            yield from writes(child, (*scope, child.name) if named else scope)

    constructors = {(name, method) for name, obj in vars(kernel).items()
                    if isinstance(obj, type) and issubclass(obj, kernel.Term) for method in ("__init__", "__new__")}
    found = [(path.name, *write)
             for path in sorted(pathlib.Path(kernel.__file__).parent.glob("*.py"))
             for write in writes(ast.parse(path.read_text()), ())]
    assert found  # the constructors' own writes
    assert [f"{path}:{line}" for path, scope, line in found if scope[-2:] not in constructors] == []


def test_the_reference_is_the_one_oracle_and_shares_no_code_with_the_kernel():
    # tests/reference.py imports only constructors, apply and Status, reads a
    # term only through its parts and calls no kernel oracle; no other test
    # module defines a helper named like an oracle
    tests = pathlib.Path(__file__).parent
    tree = ast.parse((tests / "reference.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert {getattr(node, "module", None) for node in imports} <= {"varlam.terms", "varlam.engine"}
    assert {a.name for node in imports for a in node.names} <= {"App", "Lam", "Var", "Const", "apply", "Status"}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not (names | read) & {"substitute", "free_vars", "alpha_eq", "fresh_name", "step_once", "print_term"}
    # besides a term's parts: Env.expanded, Status members, container methods
    assert read <= {"name", "binder", "body", "fun", "arg", "expanded",
                    "NORMAL_FORM", "FUEL_EXHAUSTED", "SIZE_EXCEEDED", "add", "append", "pop", "index"}
    words = {"subst", "substitute", "step", "eta", "reducts", "redex", "bruijn", "identical",
             "reference", "normal", "turner", "expand"}
    copies = [f"{path.name}:{node.name}" for path in sorted(tests.glob("*.py")) if path.name != "reference.py"
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("test_")
              and set(node.name.split("_")) & words]
    assert copies == []
