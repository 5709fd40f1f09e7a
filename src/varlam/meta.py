"""The ellipsis meta-language and the oracle registry of indexed families.

A meta-term may bind a *sequence* of variables ``x[1..n]`` indexed by a
single meta-variable and splice that sequence back in as a left-associated
application chain.  ``expand`` instantiates a meta-term at a concrete n.

``family`` builds members of the indexed combinator families (K_n, sigma_k^n,
the multiple fixed-point combinators, ...) directly and syntactically; it is
the brute-force oracle every arity-generic library entry is checked against.
Selectors and projections are the builders of ``church``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .church import IndexOutOfRange, projection, selector
from .terms import App, Const, Lam, LambdaError, Term, Var, apply, lams


class UnknownSequence(LambdaError):
    def __init__(self, name):
        super().__init__(f"splice of unknown sequence: {name}")
        self.name = name


class UnknownFamily(LambdaError):
    def __init__(self, name):
        super().__init__(f"unknown family: {name}")
        self.name = name


# -- meta-term AST ------------------------------------------------------------


class MetaTerm:
    __slots__ = ()


@dataclass(frozen=True)
class MVar(MetaTerm):
    name: str


@dataclass(frozen=True)
class MConst(MetaTerm):
    name: str


@dataclass(frozen=True)
class SingleBinder:
    name: str


@dataclass(frozen=True)
class SeqBinder:
    name: str
    index: str


@dataclass(frozen=True)
class Splice:
    """The sequence spliced in as x1 ... xn; legal in head or argument position."""

    name: str


@dataclass(frozen=True)
class Plain:
    term: "MetaTerm | Splice"


@dataclass(frozen=True)
class MLam(MetaTerm):
    binders: tuple
    body: "MetaTerm | Splice"

    def __init__(self, binders, body):
        object.__setattr__(self, "binders", tuple(binders))
        object.__setattr__(self, "body", body)


@dataclass(frozen=True)
class MApp(MetaTerm):
    head: "MetaTerm | Splice"
    args: tuple

    def __init__(self, head, args):
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "args", tuple(args))


def church_meta(n: int) -> MetaTerm:
    body: MetaTerm = MVar("z")
    for _ in range(n):
        body = MApp(MVar("s"), [Plain(body)])
    return MLam([SingleBinder("s"), SingleBinder("z")], body)


def validate(m) -> None:
    """Check that every splice refers to a sequence binder in scope."""

    def go(u, scope: frozenset):
        if isinstance(u, Splice):
            if u.name not in scope:
                raise UnknownSequence(u.name)
        elif isinstance(u, Plain):
            go(u.term, scope)
        elif isinstance(u, MLam):
            inner = scope
            for b in u.binders:
                if isinstance(b, SeqBinder):
                    inner = inner | {b.name}
                else:
                    inner = inner - {b.name}
            go(u.body, inner)
        elif isinstance(u, MApp):
            go(u.head, scope)
            for a in u.args:
                go(a, scope)

    go(m, frozenset())


def seq_occurs(u, name: str) -> bool:
    """Does the sequence occur (via a splice) in this meta-structure?"""
    if isinstance(u, Splice):
        return u.name == name
    if isinstance(u, Plain):
        return seq_occurs(u.term, name)
    if isinstance(u, MApp):
        return seq_occurs(u.head, name) or any(seq_occurs(a, name) for a in u.args)
    if isinstance(u, MLam):
        for b in u.binders:
            if isinstance(b, SeqBinder) and b.name == name:
                return False  # shadowed
        return seq_occurs(u.body, name)
    return False


# -- expansion ----------------------------------------------------------------


def expand(m, n: int) -> Term:
    """Instantiate a meta-term at a concrete n.

    Every sequence binder becomes n concrete binders x1..xn and every splice
    the left-associated chain of them.  An application whose pieces all
    vanish at n = 0 expands to the identity (so I_0 = I, matching the
    convention that the empty chain applied to nothing is I).
    """
    if n < 0:
        raise IndexOutOfRange(f"negative index {n}")
    return _expand(m, n, {})


def _expand(u, n: int, seqs: dict) -> Term:
    if isinstance(u, MVar):
        return Var(u.name)
    if isinstance(u, MConst):
        return Const(u.name)
    if isinstance(u, Splice):
        return _chain(_pieces_of(u, n, seqs))
    if isinstance(u, MLam):
        binders = []
        seqs2 = dict(seqs)
        for b in u.binders:
            if isinstance(b, SeqBinder):
                names = _xs(n, b.name)
                seqs2[b.name] = names
                binders.extend(names)
            else:
                binders.append(b.name)
        return lams(binders, _expand(u.body, n, seqs2))
    if isinstance(u, MApp):
        pieces = _pieces_of(u.head, n, seqs)
        for a in u.args:
            if isinstance(a, Splice):
                pieces.extend(_pieces_of(a, n, seqs))
            else:
                pieces.append(_expand(a.term, n, seqs))
        return _chain(pieces)
    raise TypeError(f"not a meta-term: {u!r}")


def _pieces_of(head, n: int, seqs: dict) -> list:
    if isinstance(head, Splice):
        if head.name not in seqs:
            raise UnknownSequence(head.name)
        return [Var(x) for x in seqs[head.name]]
    return [_expand(head, n, seqs)]


def _chain(pieces: list) -> Term:
    if not pieces:
        return Lam("u", Var("u"))
    t = pieces[0]
    for p in pieces[1:]:
        t = App(t, p)
    return t


# -- the family registry -------------------------------------------------------

_META_SOURCES = {
    "I": r"\x[1..n]. x[1..n]",
    "K": r"\p x[1..n]. p",
    "S": r"\p q x[1..n]. p x[1..n] (q x[1..n])",
    "B": r"\p q x[1..n]. p (q x[1..n])",
    "C": r"\p q x[1..n]. p x[1..n] q",
    "tup": r"\x[1..n] s. s x[1..n]",
    "selfapp": r"\x[1..n]. x[1..n] (x[1..n])",
}

_meta_cache: dict = {}


def builtin_meta(name: str):
    """The registry meta-term of a singly-indexed family, parsed once."""
    if name not in _META_SOURCES:
        raise UnknownFamily(name)
    if name not in _meta_cache:
        from .syntax import parse_meta

        _meta_cache[name] = parse_meta(_META_SOURCES[name])
    return _meta_cache[name]


def _xs(n: int, base: str = "x"):
    return [f"{base}{i}" for i in range(1, n + 1)]


def _vars(names):
    return [Var(x) for x in names]


def _fam_identity(n: int) -> Term:
    if n == 0:
        return Lam("u", Var("u"))
    xs = _xs(n)
    return lams(xs, apply(*_vars(xs)))


def _fam_const(n: int) -> Term:
    return lams(["p"] + _xs(n), Var("p"))


def _fam_fuse(n: int) -> Term:
    xs = _vars(_xs(n))
    body = apply(Var("p"), *xs, apply(Var("q"), *xs))
    return lams(["p", "q"] + _xs(n), body)


def _fam_compose(n: int) -> Term:
    xs = _vars(_xs(n))
    body = App(Var("p"), apply(Var("q"), *xs))
    return lams(["p", "q"] + _xs(n), body)


def _fam_flip(n: int) -> Term:
    xs = _vars(_xs(n))
    body = apply(Var("p"), *xs, Var("q"))
    return lams(["p", "q"] + _xs(n), body)


def _fam_selfapply(n: int) -> Term:
    if n == 0:
        return Lam("u", Var("u"))
    xs = _vars(_xs(n))
    return lams(_xs(n), App(apply(*xs), apply(*xs)))


def _fam_tuple_maker(n: int) -> Term:
    xs = _vars(_xs(n))
    return lams(_xs(n) + ["s"], apply(Var("s"), *xs))


def _fam_right_applicator(n: int) -> Term:
    body: Term = Var("z")
    for i in range(n, 0, -1):
        body = App(Var(f"x{i}"), body)
    return lams(_xs(n) + ["z"], body)


def _fam_reverser(n: int) -> Term:
    xs = [Var(f"x{i}") for i in range(n, 0, -1)]
    return lams(_xs(n) + ["w"], apply(Var("w"), *xs))


def _fam_mapper(n: int) -> Term:
    args = [App(Var("f"), Var(f"x{i}")) for i in range(1, n + 1)]
    q = lams(_xs(n) + ["z"], apply(Var("z"), *args))
    return lams(["f", "v"], App(Var("v"), q))


def _fam_ycurry(k: int, n: int) -> Term:
    fs = _xs(n, "f")
    xs = _vars(_xs(n))

    def row(j):
        sub = [apply(x, *xs) for x in xs]
        return lams(_xs(n), apply(Var(f"f{j}"), *sub))

    return lams(fs, apply(row(k), *[row(j) for j in range(1, n + 1)]))


def _fam_yturing(k: int, n: int) -> Term:
    xs = _vars(_xs(n))
    fs = _vars(_xs(n, "f"))

    def row(j):
        sub = [apply(x, *xs, *fs) for x in xs]
        return lams(_xs(n) + _xs(n, "f"), apply(Var(f"f{j}"), *sub))

    return apply(row(k), *[row(j) for j in range(1, n + 1)])


def _fam_boehm(k: int, n: int) -> Term:
    xs = _vars(_xs(n))
    phis = _vars(_xs(n, "p"))
    body = apply(Var(f"x{k}"), *[apply(p, *xs) for p in phis])
    return lams(_xs(n, "p") + _xs(n), body)


@dataclass(frozen=True)
class FamilyInstance:
    family: str
    n: int
    k: int | None = None


# name -> (needs k, builder)
_FAMILIES = {
    "I": (False, _fam_identity),
    "K": (False, _fam_const),
    "S": (False, _fam_fuse),
    "B": (False, _fam_compose),
    "C": (False, _fam_flip),
    "selfapp": (False, _fam_selfapply),
    "sel": (True, selector),
    "proj": (True, projection),
    "tup": (False, _fam_tuple_maker),
    "rightapp": (False, _fam_right_applicator),
    "rev": (False, _fam_reverser),
    "map": (False, _fam_mapper),
    "ycurry": (True, _fam_ycurry),
    "yturing": (True, _fam_yturing),
    "boehm": (True, _fam_boehm),
}

FAMILY_NAMES = tuple(_FAMILIES)


def family(inst: FamilyInstance) -> Term:
    """Build the concrete lambda-term of an indexed family member."""
    if inst.family not in _FAMILIES:
        raise UnknownFamily(inst.family)
    needs_k, builder = _FAMILIES[inst.family]
    if needs_k != (inst.k is not None):
        raise IndexOutOfRange(
            f"family {inst.family} {'requires' if needs_k else 'does not take'} an index k"
        )
    if inst.n < 0:
        raise IndexOutOfRange(f"negative arity {inst.n}")
    if needs_k:
        if not 1 <= inst.k <= inst.n:
            raise IndexOutOfRange(f"k = {inst.k} out of range for n = {inst.n}")
        return builder(inst.k, inst.n)
    return builder(inst.n)


def build(name: str, n: int, k: int | None = None) -> Term:
    return family(FamilyInstance(name, n, k))
