"""Bracket abstraction over {I,K,B,C,S} and its arity-generic extension.

``turner`` rewrites a lambda term into an applicative combination over the
five-combinator basis, abstracting one variable at a time:

    [x]x            = I
    [x](P x)        = P               x not free in P
    [x]P            = K P             x not free in P
    [x](P Q)        = C ([x]P) Q      x free in P only
    [x](P Q)        = B P ([x]Q)      x free in Q only
    [x](P Q)        = S ([x]P) ([x]Q) x free in both

The same function abstracts a meta-term (see ``meta``).  A sequence binder
x[1..n] is abstracted as a block, with the rules above lifted to
VarI/VarK/VarB/VarC/VarS applied to the index variable n, plus the
sequence-eta rule [xs](P xs) = P when the sequence does not occur in P.
A bare splice that a rule moves into argument position becomes grouped, so
it stays one argument.  ``extended_bound`` binds the index variable.
"""

from __future__ import annotations

from .terms import App, Const, Lam, LambdaError, SeqBinder, Splice, Term, Var, grouped


class MixedSequenceUse(LambdaError):
    """The sequence is used in a way the block rules cannot abstract."""


# -- Turner's algorithm -------------------------------------------------------


def turner(t: Term) -> Term:
    """Translate t into the {I,K,B,C,S} basis; constants are opaque heads.

    Sequence binders are abstracted over {VarI,VarK,VarB,VarC,VarS}, leaving
    their index variable free.
    """
    c = t.__class__
    if c is App:
        return App(turner(t.fun), turner(t.arg))
    if c is Lam:
        if t.binder.__class__ is SeqBinder:
            return _abstract_seq(t.binder, turner(t.body))
        return _abstract(t.binder, turner(t.body))
    return t


def _abstract(x: str, b: Term) -> Term:
    if b.__class__ is Var and b.name == x:
        return Const("I")
    if x not in b.free:
        return App(Const("K"), grouped(b))
    # b is an application: after the body was bracketed there are no lambdas
    # left, and the two cases above dispose of variables, constants and splices.
    p, q = b.fun, b.arg
    if q.__class__ is Splice and not q.grouped:
        # lam x.(P x1...xn) with x free in P: the trailing splice is n
        # separate arguments, which no single-variable rule can absorb.
        raise MixedSequenceUse(
            f"cannot abstract {x!r} over a spine ending in the sequence {q.binder.name!r}"
        )
    if q.__class__ is Var and q.name == x and x not in p.free:
        return grouped(p)
    in_p = x in p.free
    in_q = x in q.free
    if in_p and in_q:
        return App(App(Const("S"), _abstract(x, p)), _abstract(x, q))
    if in_p:
        return App(App(Const("C"), _abstract(x, p)), q)
    return App(App(Const("B"), grouped(p)), _abstract(x, q))


def _abstract_seq(xs: SeqBinder, b: Term) -> Term:
    n = Var(xs.index)
    if b.__class__ is Splice and b.binder == xs:
        return App(Const("VarI"), n)
    if xs not in b.free:
        return App(App(Const("VarK"), n), grouped(b))
    p, q = b.fun, b.arg
    if q.__class__ is Splice and not q.grouped:
        if q.binder == xs and xs not in p.free:
            return grouped(p)  # sequence-eta
        raise MixedSequenceUse(
            f"sequence {xs.name!r} spread over a spine it cannot be blocked out of"
        )
    in_p = xs in p.free
    in_q = xs in q.free
    if in_p and in_q:
        return App(App(App(Const("VarS"), n), _abstract_seq(xs, p)), _abstract_seq(xs, q))
    if in_p:
        return App(App(App(Const("VarC"), n), _abstract_seq(xs, p)), q)
    return App(App(App(Const("VarB"), n), grouped(p)), _abstract_seq(xs, q))


# -- meta-terms -----------------------------------------------------------------

BUILTIN_META_NAMES = ("I", "K", "S", "B", "C", "selfapp")


def extended_bound(m: Term) -> Term:
    """turner(m) with the index variable bound by an outer abstraction.

    Apply it to a Church numeral c_n to obtain the n-th instance.
    """
    return Lam(index_var_of(m) or "n", turner(m))


def index_var_of(m: Term) -> str | None:
    """The index variable of the meta-term's sequence binders, if any."""
    stack = [m]
    while stack:
        u = stack.pop()
        if u.__class__ is Lam:
            if u.binder.__class__ is SeqBinder:
                return u.binder.index
            stack.append(u.body)
        elif u.__class__ is App:
            stack += (u.arg, u.fun)
    return None
