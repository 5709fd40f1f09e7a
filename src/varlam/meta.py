"""The ellipsis meta-language and the oracle registry of indexed families.

A meta-term is an ordinary ``Term`` that may bind a *sequence* of variables
``x[1..n]`` (a ``Lam`` whose binder is a ``SeqBinder``) and splice it back in
(a ``Splice`` leaf) as a left-associated application chain; ``parse_meta``
reads them.  ``expand`` instantiates a meta-term at a concrete n.

``build`` makes members of the indexed combinator families (K_n, sigma_k^n,
the multiple fixed-point combinators, ...); it is the brute-force oracle
every arity-generic library entry is checked against, and the one builder of
every member.  The seven singly-indexed families of ``_META_SOURCES`` (I, K,
S, B, C, ``tup``, ``selfapp``) are the expansions of their ellipsis sources;
the other eight are built in Python.  All of them but ``rightapp``, which
nests to the right, have one row shape, h (p1 a...) ... (pm a...), and one
builder of it, ``_row``: the selectors and projections, reversal, map,
Curry's and Turing's multiple fixed points and Boehm's step between them.
"""

from __future__ import annotations

import functools

from .church import IndexOutOfRange, natural
from .syntax import UnknownSequence, parse_meta  # parse_meta raises UnknownSequence
from .terms import App, Lam, LambdaError, SeqBinder, Splice, Term, Var, apply, lams


class UnknownFamily(LambdaError):
    def __init__(self, name):
        super().__init__(f"unknown family: {name}")
        self.name = name


# -- expansion ----------------------------------------------------------------


def expand(m: Term, n: int) -> Term:
    """Instantiate a meta-term at a concrete n.

    Every sequence binder becomes n concrete binders x1..xn and every splice
    the left-associated chain of them.  An application whose pieces all
    vanish at n = 0 expands to the identity (so I_0 = I, matching the
    convention that the empty chain applied to nothing is I).
    """
    return _expand(m, natural(n))


def _expand(u: Term, n: int) -> Term:
    c = type(u)
    if c is Lam:
        body = _expand(u.body, n)
        if type(u.binder) is SeqBinder:
            return lams(_xs(n, u.binder.name), body)
        return Lam(u.binder, body)
    if c is Splice:
        return _chain(_vars(_xs(n, u.binder.name)))
    if c is not App:
        return u
    spine = []
    while type(u) is App:
        spine.append(u.arg)
        u = u.fun
    spine.append(u)
    pieces = []
    for a in reversed(spine):
        if type(a) is Splice and not a.grouped:
            pieces.extend(_vars(_xs(n, a.binder.name)))
        else:
            pieces.append(_expand(a, n))
    return _chain(pieces)


def _chain(pieces: list) -> Term:
    if not pieces:
        return Lam("u", Var("u"))
    return apply(*pieces)


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


@functools.cache
def builtin_meta(name: str):
    """The registry meta-term of a singly-indexed family, parsed once."""
    if name not in _META_SOURCES:
        raise UnknownFamily(name)
    return parse_meta(_META_SOURCES[name])


def _xs(n: int, base: str = "x"):
    return [f"{base}{i}" for i in range(1, n + 1)]


def _vars(names):
    return [Var(x) for x in names]


def _row(binders, head: Term, ps, args=()) -> Term:
    """\\binders. head (p1 args) ... (pm args)."""
    return lams(binders, apply(head, *[apply(p, *args) for p in ps]))


def _fam_selector(k: int, n: int) -> Term:
    return _row(_xs(n), Var(f"x{k}"), ())


def _fam_projection(k: int, n: int) -> Term:
    return _row(["t"], Var("t"), [_fam_selector(k, n)])


def _fam_right_applicator(n: int) -> Term:
    body: Term = Var("z")
    for i in range(n, 0, -1):
        body = App(Var(f"x{i}"), body)
    return lams(_xs(n) + ["z"], body)


def _fam_reverser(n: int) -> Term:
    return _row(_xs(n) + ["w"], Var("w"), _vars(_xs(n))[::-1])


def _fam_mapper(n: int) -> Term:
    q = _row(_xs(n) + ["z"], Var("z"), [App(Var("f"), x) for x in _vars(_xs(n))])
    return _row(["f", "v"], Var("v"), [q])


def _fam_ycurry(k: int, n: int) -> Term:
    xs = _vars(_xs(n))
    rows = [_row(_xs(n), Var(f"f{j}"), xs, xs) for j in (k, *range(1, n + 1))]
    return _row(_xs(n, "f"), rows[0], rows[1:])


def _fam_yturing(k: int, n: int) -> Term:
    binders = _xs(n) + _xs(n, "f")
    xs = _vars(_xs(n))
    rows = [_row(binders, Var(f"f{j}"), xs, _vars(binders)) for j in (k, *range(1, n + 1))]
    return _row((), rows[0], rows[1:])


def _fam_boehm(k: int, n: int) -> Term:
    return _row(_xs(n, "p") + _xs(n), Var(f"x{k}"), _vars(_xs(n, "p")), _vars(_xs(n)))


# name -> (needs k, builder), and TAKES_K names the families that need k.  A
# family the meta-language can say is the expansion of its ellipsis source; the
# rest need reversed ranges, right nesting, a mapped splice or a second index.
_FAMILIES = {
    **{name: (False, lambda n, name=name: expand(builtin_meta(name), n)) for name in _META_SOURCES},
    "sel": (True, _fam_selector),
    "proj": (True, _fam_projection),
    "rightapp": (False, _fam_right_applicator),
    "rev": (False, _fam_reverser),
    "map": (False, _fam_mapper),
    "ycurry": (True, _fam_ycurry),
    "yturing": (True, _fam_yturing),
    "boehm": (True, _fam_boehm),
}
TAKES_K = frozenset(name for name, (needs_k, _) in _FAMILIES.items() if needs_k)


def build(name: str, n: int, k: int | None = None) -> Term:
    """The concrete lambda-term of the family member name(n) or name(k, n)."""
    if name not in _FAMILIES:
        raise UnknownFamily(name)
    needs_k, builder = _FAMILIES[name]
    if needs_k != (k is not None):
        raise IndexOutOfRange(f"family {name} {'requires' if needs_k else 'does not take'} an index k")
    natural(n)
    if needs_k:
        if not 1 <= natural(k) <= n:
            raise IndexOutOfRange(f"k = {k} out of range for n = {n}")
        return builder(k, n)
    return builder(n)
