import pytest

from varlam import meta
from varlam.church import church, projection, selector
from varlam.engine import ReductionConfig, Status, Verdict, beta_eta_equal, normalize
from varlam.meta import (
    FamilyInstance,
    IndexOutOfRange,
    MApp,
    MLam,
    MVar,
    Plain,
    SeqBinder,
    SingleBinder,
    Splice,
    UnknownFamily,
    UnknownSequence,
    build,
    expand,
    family,
)
from varlam.syntax import ParseError, parse, parse_meta
from varlam.terms import alpha_eq, apply, free_vars, lams


def test_parse_meta_tuple_maker():
    m = parse_meta(r"\x[1..n] s. s x[1..n]")
    assert m == MLam(
        [SeqBinder("x", "n"), SingleBinder("s")],
        MApp(MVar("s"), [Splice("x")]),
    )


def test_parse_meta_const_family():
    m = parse_meta(r"\p x[1..n]. p")
    assert m == MLam([SingleBinder("p"), SeqBinder("x", "n")], MVar("p"))


def test_parse_meta_self_apply():
    m = parse_meta(r"\x[1..n]. x[1..n] (x[1..n])")
    assert m == MLam(
        [SeqBinder("x", "n")],
        MApp(Splice("x"), [Plain(MApp(Splice("x"), []))]),
    )


def test_parse_meta_rejects_bad_sequences():
    with pytest.raises(ParseError):
        parse_meta(r"\x[2..n]. x[2..n]")  # ranges start at 1
    with pytest.raises(ParseError):
        parse_meta(r"\x[1..n] y[1..m]. x[1..n]")  # a second index variable
    with pytest.raises(UnknownSequence):
        parse_meta(r"\y. x[1..n]")  # splice of a sequence not in scope


def test_expand_examples():
    tup = parse_meta(r"\x[1..n] s. s x[1..n]")
    assert alpha_eq(expand(tup, 2), parse(r"\x1 x2 s. s x1 x2"))
    k = parse_meta(r"\p x[1..n]. p")
    assert alpha_eq(expand(k, 0), parse(r"\p.p"))
    d = parse_meta(r"\x[1..n]. x[1..n] (x[1..n])")
    assert alpha_eq(expand(d, 1), parse(r"\x. x x"))
    assert alpha_eq(expand(d, 2), parse(r"\x1 x2. x1 x2 (x1 x2)"))


def test_expand_closed():
    for name in meta._META_SOURCES:
        m = meta.builtin_meta(name)
        for n in range(5):
            assert free_vars(expand(m, n)) == set()


def test_expand_rejects_negative():
    with pytest.raises(IndexOutOfRange):
        expand(parse_meta(r"\x[1..n]. x[1..n]"), -1)


def test_family_basis_members():
    assert alpha_eq(build("S", 1), parse(r"\p q x.(p x (q x))"))
    assert alpha_eq(build("K", 1), parse(r"\p x.p"))
    assert alpha_eq(build("B", 2), parse(r"\p q x1 x2.p (q x1 x2)"))
    assert alpha_eq(build("C", 2), parse(r"\p q x1 x2.p x1 x2 q"))
    assert alpha_eq(build("I", 0), parse(r"\u.u"))
    assert alpha_eq(build("selfapp", 1), parse(r"\x.x x"))


def test_family_fixed_point_shapes():
    ycurry = parse(r"\f.((\x.f (x x)) (\x.f (x x)))")
    assert alpha_eq(build("ycurry", 1, 1), ycurry)
    yturing = parse(r"(\x f.f (x x f)) (\x f.f (x x f))")
    assert alpha_eq(build("yturing", 1, 1), yturing)
    m11 = parse(r"\p x.x (p x)")
    assert alpha_eq(build("boehm", 1, 1), m11)


def test_family_errors():
    with pytest.raises(UnknownFamily):
        family(FamilyInstance("nope", 2))
    with pytest.raises(IndexOutOfRange):
        build("sel", 3, 0)
    with pytest.raises(IndexOutOfRange):
        build("sel", 3, 4)
    with pytest.raises(IndexOutOfRange):
        build("sel", 3)  # k required
    with pytest.raises(IndexOutOfRange):
        build("K", 2, 1)  # k not taken
    with pytest.raises(IndexOutOfRange):
        build("K", -1)


def test_cross_oracle_selectors():
    for n in range(1, 5):
        for k in range(1, n + 1):
            assert alpha_eq(build("sel", n, k), selector(k, n))
            assert alpha_eq(build("proj", n, k), projection(k, n))


def test_cross_oracle_metas():
    for name in ("I", "K", "S", "B", "C", "tup", "selfapp"):
        m = meta.builtin_meta(name)
        for n in range(5):
            assert alpha_eq(expand(m, n), build(name, n))


def test_families_normalize_or_are_exempt(env):
    # families are definitions, not computations: everything but the
    # fixed-point combinators has a normal form
    cfg = ReductionConfig(fuel=10_000)
    needs_k = ("sel", "proj", "ycurry", "yturing", "boehm")
    for name in meta.FAMILY_NAMES:
        for n in range(5):
            ks = range(1, n + 1) if name in needs_k else (None,)
            for k in ks:
                out = normalize(build(name, n, k), env, cfg)
                if name in ("ycurry", "yturing"):
                    assert out.status is Status.NO_NORMAL_FORM, (name, n, k)
                else:
                    assert out.status is Status.NORMAL_FORM, (name, n, k)


def test_family_fixed_point_equation(env):
    # the defining equation, run on constant generators the reducer can finish
    for fam in ("ycurry", "yturing"):
        for n in (1, 2):
            ys = [f"y{i}" for i in range(1, n + 1)]
            gens = [lams(ys, church(j)) for j in range(1, n + 1)]
            for k in range(1, n + 1):
                got = apply(build(fam, n, k), *gens)
                assert beta_eta_equal(got, church(k), env) is Verdict.EQUAL
