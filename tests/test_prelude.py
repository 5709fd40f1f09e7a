import pytest

from varlam.church import IndexOutOfRange, NotANumeral, church, tuple_of, unchurch
from varlam.engine import ReductionConfig, Verdict, beta_eta_equal
from varlam.meta import build
from varlam.syntax import parse, print_term
from varlam.terms import App, Var, apply


def test_church_shape():
    assert print_term(church(0)) == r"\s z.z"
    assert print_term(church(1)) == r"\s z.s z"
    assert print_term(church(3)) == r"\s z.s (s (s z))"
    with pytest.raises(IndexOutOfRange):
        church(-1)


def test_unchurch_roundtrip(env):
    for n in range(9):
        assert unchurch(church(n), env) == n


def test_unchurch_examples(env):
    assert unchurch(parse("Plus #2 #3", env), env) == 5
    assert unchurch(parse("Pred #0", env), env) == 0
    assert unchurch(parse(r"\s.s"), env) == 1  # eta-short c_1


def test_unchurch_reads_the_eta_normal_form_under_any_config():
    # the numeral reader needs the beta-eta-normal form: a config without
    # eta must not turn the eta-long c_1 into "not a Church numeral"
    eta_long = parse(r"\f x y. f x y")
    assert unchurch(eta_long) == 1
    assert unchurch(eta_long, None, ReductionConfig(eta=False)) == 1


def test_unchurch_rejects_non_numerals(env):
    with pytest.raises(NotANumeral):
        unchurch(parse("True", env), env)
    with pytest.raises(NotANumeral, match=r"^normal form is not a Church numeral$"):
        unchurch(parse(r"\s z. z s"), env)
    with pytest.raises(NotANumeral):
        unchurch(parse(r"(\x.x x) (\x.x x)"), env)


def test_unchurch_no_normal_form_messages(env):
    # a certificate is reported as such; a limit stop names the limit
    with pytest.raises(NotANumeral, match=r"^no normal form \(certified after 551 steps\)$"):
        unchurch(parse("VarPhi #1 #1", env), env)
    with pytest.raises(NotANumeral, match=r"^no normal form within limits \(fuel-exhausted\)$"):
        unchurch(parse(r"(\x.x x x) (\x.x x x)"), env, ReductionConfig(fuel=100))
    with pytest.raises(NotANumeral, match=r"^no normal form \(certified after 4 steps\)$"):
        unchurch(parse(r"(\x.x x) (\x.x x)"), env)
    with pytest.raises(NotANumeral, match=r"^no normal form within limits \(size-exceeded\)$"):
        unchurch(parse("Plus #1", env), env, ReductionConfig(max_term_size=5))


def test_succ_and_pred_properties(env):
    for n in range(9):
        assert beta_eta_equal(parse(f"Succ #{n}", env), church(n + 1), env) is Verdict.EQUAL
    for n in range(7):
        assert beta_eta_equal(parse(f"Pred #{n + 1}", env), church(n), env) is Verdict.EQUAL
    assert beta_eta_equal(parse("Pred #0", env), church(0), env) is Verdict.EQUAL


def test_tuple_shapes():
    assert print_term(tuple_of([Var("a"), Var("b")])) == r"\z.z a b"
    assert print_term(tuple_of([])) == r"\z.z"
    assert print_term(tuple_of([church(0)]), sugar=True) == r"\z.z #0"


def test_tuple_apply_law(env):
    lhs = App(tuple_of([Var("a"), Var("b"), Var("c")]), Var("p"))
    assert beta_eta_equal(lhs, parse("p a b c"), env) is Verdict.EQUAL


def test_selector_shapes():
    assert print_term(build("sel", 3, 2)) == r"\x1 x2 x3.x2"
    assert print_term(build("sel", 1, 1)) == r"\x1.x1"
    assert print_term(build("sel", 3, 3)) == r"\x1 x2 x3.x3"
    for k, n in ((0, 3), (4, 3), (1, 0)):
        with pytest.raises(IndexOutOfRange):
            build("sel", n, k)
    with pytest.raises(IndexOutOfRange):
        build("proj", 1, 2)


def test_projection_law(env):
    triple = tuple_of([Var("a"), Var("b"), Var("c")])
    assert beta_eta_equal(App(build("proj", 3, 2), triple), Var("b"), env) is Verdict.EQUAL
    assert beta_eta_equal(App(build("proj", 3, 3), triple), Var("c"), env) is Verdict.EQUAL
    pair00 = tuple_of([church(0), church(0)])
    assert beta_eta_equal(App(build("proj", 2, 1), pair00), church(0), env) is Verdict.EQUAL


def test_iterated_succ_demo(env):
    # R = lam n.(n Succ) adds k by iterating the successor k times
    r = parse(r"\n. n Succ", env)
    for k in range(6):
        for m in range(6):
            assert unchurch(apply(r, church(k), church(m)), env) == k + m
