import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

import varlam
from varlam import meta
from varlam import church as church_mod
from varlam.church import church
from varlam.engine import ReductionConfig, Status, Verdict, beta_eta_equal, normalize
from varlam.meta import (
    IndexOutOfRange,
    UnknownFamily,
    UnknownSequence,
    build,
    expand,
)
from varlam.syntax import ParseError, parse, parse_meta, print_term
from varlam.terms import App, Lam, SeqBinder, Splice, Var, alpha_eq, apply, free_vars, lams


def test_parse_meta_tuple_maker():
    m = parse_meta(r"\x[1..n] s. s x[1..n]")
    x = SeqBinder("x", "n")
    assert repr(m) == repr(Lam(x, Lam("s", App(Var("s"), Splice(x)))))
    assert free_vars(m) == set()  # the sequence binder binds the splice


def test_parse_meta_const_family():
    m = parse_meta(r"\p x[1..n]. p")
    assert repr(m) == repr(Lam("p", Lam(SeqBinder("x", "n"), Var("p"))))


def test_parse_meta_self_apply():
    m = parse_meta(r"\x[1..n]. x[1..n] (x[1..n])")
    x = SeqBinder("x", "n")
    assert repr(m) == repr(Lam(x, App(Splice(x), Splice(x, grouped=True))))


def test_import_varlam_leaves_meta_unloaded():
    # parse_meta needs only the kernel; the family registry loads on demand
    code = "import sys, varlam; varlam.parse_meta(r'\\x[1..n]. x[1..n]'); print(sorted(sys.modules))"
    src = str(Path(varlam.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert "'varlam.syntax'" in out and "'varlam.meta'" not in out


def test_parse_meta_rejects_bad_sequences():
    with pytest.raises(ParseError):
        parse_meta(r"\x[2..n]. x[2..n]")  # ranges start at 1
    with pytest.raises(ParseError):
        parse_meta(r"\x[1..n] y[1..m]. x[1..n]")  # a second index variable
    with pytest.raises(UnknownSequence):
        parse_meta(r"\y. x[1..n]")  # splice of a sequence not in scope
    with pytest.raises(UnknownSequence):
        parse_meta(r"\x[1..n] x. x[1..n]")  # the single binder x shadows the sequence


def test_parse_meta_names_outside_the_sequence_scope():
    # x1 is free outside the scope of x[1..n], and x or x1 shadow nothing there
    assert print_term(expand(parse_meta(r"(\x[1..n]. x[1..n]) x1"), 2)) == r"(\x1 x2.x1 x2) x1"
    assert print_term(expand(parse_meta(r"\x1 x[1..n]. x[1..n]"), 2)) == r"\x1 x1 x2.x1 x2"
    assert print_term(expand(parse_meta(r"\x1[1..n]. \x. x x1[1..n]"), 1)) == r"\x11 x.x x11"


def test_expand_examples():
    tup = parse_meta(r"\x[1..n] s. s x[1..n]")
    assert alpha_eq(expand(tup, 2), parse(r"\x1 x2 s. s x1 x2"))
    k = parse_meta(r"\p x[1..n]. p")
    assert alpha_eq(expand(k, 0), parse(r"\p.p"))
    d = parse_meta(r"\x[1..n]. x[1..n] (x[1..n])")
    assert alpha_eq(expand(d, 1), parse(r"\x. x x"))
    assert alpha_eq(expand(d, 2), parse(r"\x1 x2. x1 x2 (x1 x2)"))
    # the variable x is not the sequence x[1..n]
    assert alpha_eq(expand(parse_meta(r"\x[1..n]. x x[1..n]"), 2), parse(r"\x1 x2. x x1 x2"))
    # a parenthesized spine of splices alone is one term, I at n = 0; a bare
    # splice in head position spreads into no arguments
    assert print_term(expand(parse_meta(r"\q x[1..n]. (x[1..n] x[1..n]) q"), 0)) == r"\q.(\u.u) q"
    assert print_term(expand(parse_meta(r"\q x[1..n]. (x[1..n]) q"), 0)) == r"\q.(\u.u) q"
    assert print_term(expand(parse_meta(r"\q x[1..n]. x[1..n] q"), 0)) == r"\q.q"


# the grouping shapes of test_expand_examples
_GROUPING_SHAPES = [
    r"\x[1..n]. x x[1..n]",
    r"\q x[1..n]. (x[1..n] x[1..n]) q",
    r"\q x[1..n]. (x[1..n]) q",
    r"\q x[1..n]. x[1..n] q",
]


@pytest.mark.parametrize("source", [*meta._META_SOURCES.values(), *_GROUPING_SHAPES])
def test_meta_terms_print_and_compare(source):
    m = parse_meta(source)
    back = parse_meta(print_term(m))
    assert alpha_eq(back, m) and repr(back) == repr(m)


def test_alpha_eq_on_splices():
    assert alpha_eq(parse_meta(r"\x[1..n]. x[1..n]"), parse_meta(r"\y[1..n]. y[1..n]"))
    assert alpha_eq(parse_meta(r"\p x[1..n]. p x[1..n] (x[1..n])"),
                    parse_meta(r"\q y[1..n]. q y[1..n] (y[1..n])"))
    assert not alpha_eq(parse_meta(r"\f x[1..n]. f (x[1..n])"), parse_meta(r"\f x[1..n]. f x[1..n]"))
    assert not alpha_eq(parse_meta(r"\x[1..n] y[1..n]. x[1..n]"), parse_meta(r"\x[1..n] y[1..n]. y[1..n]"))


def test_expand_closed():
    for name in meta._META_SOURCES:
        m = meta.builtin_meta(name)
        for n in range(5):
            assert free_vars(expand(m, n)) == set()


def test_expand_rejects_negative():
    with pytest.raises(IndexOutOfRange):
        expand(parse_meta(r"\x[1..n]. x[1..n]"), -1)


# the seven families of meta._META_SOURCES at n = 0..3, written out by hand:
# build expands those sources, so only these goldens pin them from outside
_FAMILY_GOLDENS = {
    "I": [r"\u.u", r"\x1.x1", r"\x1 x2.x1 x2", r"\x1 x2 x3.x1 x2 x3"],
    "K": [r"\p.p", r"\p x1.p", r"\p x1 x2.p", r"\p x1 x2 x3.p"],
    "S": [r"\p q.p q", r"\p q x1.p x1 (q x1)", r"\p q x1 x2.p x1 x2 (q x1 x2)",
          r"\p q x1 x2 x3.p x1 x2 x3 (q x1 x2 x3)"],
    "B": [r"\p q.p q", r"\p q x1.p (q x1)", r"\p q x1 x2.p (q x1 x2)", r"\p q x1 x2 x3.p (q x1 x2 x3)"],
    "C": [r"\p q.p q", r"\p q x1.p x1 q", r"\p q x1 x2.p x1 x2 q", r"\p q x1 x2 x3.p x1 x2 x3 q"],
    "tup": [r"\s.s", r"\x1 s.s x1", r"\x1 x2 s.s x1 x2", r"\x1 x2 x3 s.s x1 x2 x3"],
    "selfapp": [r"\u.u", r"\x1.x1 x1", r"\x1 x2.x1 x2 (x1 x2)", r"\x1 x2 x3.x1 x2 x3 (x1 x2 x3)"],
}


def test_family_basis_members():
    assert _FAMILY_GOLDENS.keys() == meta._META_SOURCES.keys()
    for name, members in _FAMILY_GOLDENS.items():
        for n, source in enumerate(members):
            assert alpha_eq(build(name, n), parse(source)), (name, n)


def test_family_fixed_point_shapes():
    ycurry = parse(r"\f.((\x.f (x x)) (\x.f (x x)))")
    assert alpha_eq(build("ycurry", 1, 1), ycurry)
    yturing = parse(r"(\x f.f (x x f)) (\x f.f (x x f))")
    assert alpha_eq(build("yturing", 1, 1), yturing)
    m11 = parse(r"\p x.x (p x)")
    assert alpha_eq(build("boehm", 1, 1), m11)


# at n = 2 the rows are told apart by their head f_j or x_k, so a member that
# starts with the wrong row, or heads Boehm's step with the wrong x, differs
_ROW_GOLDENS = {
    ("ycurry", 1): r"\f1 f2.(\x1 x2.f1 (x1 x1 x2) (x2 x1 x2)) (\x1 x2.f1 (x1 x1 x2) (x2 x1 x2))"
                   r" (\x1 x2.f2 (x1 x1 x2) (x2 x1 x2))",
    ("ycurry", 2): r"\f1 f2.(\x1 x2.f2 (x1 x1 x2) (x2 x1 x2)) (\x1 x2.f1 (x1 x1 x2) (x2 x1 x2))"
                   r" (\x1 x2.f2 (x1 x1 x2) (x2 x1 x2))",
    ("yturing", 1): r"(\x1 x2 f1 f2.f1 (x1 x1 x2 f1 f2) (x2 x1 x2 f1 f2))"
                    r" (\x1 x2 f1 f2.f1 (x1 x1 x2 f1 f2) (x2 x1 x2 f1 f2))"
                    r" (\x1 x2 f1 f2.f2 (x1 x1 x2 f1 f2) (x2 x1 x2 f1 f2))",
    ("yturing", 2): r"(\x1 x2 f1 f2.f2 (x1 x1 x2 f1 f2) (x2 x1 x2 f1 f2))"
                    r" (\x1 x2 f1 f2.f1 (x1 x1 x2 f1 f2) (x2 x1 x2 f1 f2))"
                    r" (\x1 x2 f1 f2.f2 (x1 x1 x2 f1 f2) (x2 x1 x2 f1 f2))",
    ("boehm", 1): r"\p1 p2 x1 x2.x1 (p1 x1 x2) (p2 x1 x2)",
    ("boehm", 2): r"\p1 p2 x1 x2.x2 (p1 x1 x2) (p2 x1 x2)",
}


@pytest.mark.parametrize("name, k", sorted(_ROW_GOLDENS))
def test_family_fixed_point_rows_at_n2(name, k):
    assert print_term(build(name, 2, k)) == _ROW_GOLDENS[name, k]


# the one-index families built in Python at n = 0..3, written out by hand;
# with _FAMILY_GOLDENS, test_cross_oracle_selectors and _ROW_GOLDENS every
# family is pinned from outside its builder
_PYTHON_GOLDENS = {
    "rightapp": [r"\z.z", r"\x1 z.x1 z", r"\x1 x2 z.x1 (x2 z)", r"\x1 x2 x3 z.x1 (x2 (x3 z))"],
    "rev": [r"\w.w", r"\x1 w.w x1", r"\x1 x2 w.w x2 x1", r"\x1 x2 x3 w.w x3 x2 x1"],
    "map": [r"\f v.v (\z.z)", r"\f v.v (\x1 z.z (f x1))", r"\f v.v (\x1 x2 z.z (f x1) (f x2))",
            r"\f v.v (\x1 x2 x3 z.z (f x1) (f x2) (f x3))"],
}


@pytest.mark.parametrize("name", sorted(_PYTHON_GOLDENS))
def test_python_family_members(name):
    assert [print_term(build(name, n)) for n in range(4)] == _PYTHON_GOLDENS[name]


def test_every_family_member_repr_pinned():
    # the md5 of the reprs of every member at n < 12 in registry order, each
    # k = 1..n in turn: a builder that renames, reorders or reshapes a node shows
    digest = hashlib.md5()
    for name, (needs_k, _) in meta._FAMILIES.items():
        for n in range(12):
            for k in (range(1, n + 1) if needs_k else (None,)):
                digest.update(repr(build(name, n, k)).encode())
    assert digest.hexdigest() == "7c033173ce162e016cf5fe8d52037638"


def test_family_errors():
    assert IndexOutOfRange is church_mod.IndexOutOfRange  # one class for every index error
    with pytest.raises(UnknownFamily):
        build("nope", 2)
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


def test_build_refuses_an_index_that_is_no_int():
    # a bool passes the range tests (1 <= True <= 3) but is no index: sel(3, True)
    # would be the open term \x1 x2 x3. xTrue, and K(True) would be K_1
    for args in (("sel", 3, True), ("sel", True, 1), ("K", True), ("K", False),
                 ("K", 2.0), ("sel", 3, 1.0)):
        with pytest.raises(IndexOutOfRange):
            build(*args)


def test_builtin_meta_rejects_an_unknown_family():
    with pytest.raises(UnknownFamily):
        meta.builtin_meta("nope")


def test_cross_oracle_selectors():
    for n in range(1, 5):
        xs = " ".join(f"x{i}" for i in range(1, n + 1))
        for k in range(1, n + 1):
            assert alpha_eq(build("sel", n, k), parse(rf"\{xs}. x{k}"))
            assert alpha_eq(build("proj", n, k), parse(rf"\t. t (\{xs}. x{k})"))


def test_cross_oracle_metas():
    # each family's ellipsis source against its members spelled out as text,
    # through both build and expand of the registry meta-term
    for n in range(5):
        xs = " ".join(f"x{i}" for i in range(1, n + 1))
        members = {
            "I": rf"\{xs}. {xs}" if n else r"\u. u",
            "K": rf"\p {xs}. p",
            "S": rf"\p q {xs}. p {xs} (q {xs})",
            "B": rf"\p q {xs}. p (q {xs})",
            "C": rf"\p q {xs}. p {xs} q",
            "tup": rf"\{xs} s. s {xs}",
            "selfapp": rf"\{xs}. {xs} ({xs})" if n else r"\u. u",
        }
        assert members.keys() == meta._META_SOURCES.keys()
        for name, source in members.items():
            want = parse(source)
            assert alpha_eq(expand(meta.builtin_meta(name), n), want), (name, n)
            assert alpha_eq(build(name, n), want), (name, n)


def test_families_normalize_or_are_exempt(env):
    # families are definitions, not computations: everything but the
    # fixed-point combinators has a normal form
    cfg = ReductionConfig(fuel=10_000)
    assert meta.TAKES_K == {"sel", "proj", "ycurry", "yturing", "boehm"}
    for name in meta._FAMILIES:
        for n in range(5):
            ks = range(1, n + 1) if name in meta.TAKES_K else (None,)
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
