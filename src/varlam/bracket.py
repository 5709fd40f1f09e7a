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
x[1..n] is abstracted as a block by the same rules over another basis,
VarI/VarK/VarB/VarC/VarS applied to the index variable n: there x stands for
a splice of x[1..n], and the second rule is sequence-eta, [xs](P xs) = P,
for a bare splice only.  A bare splice that a rule moves into argument
position becomes grouped, so it stays one argument.  ``extended_bound``
binds the index variable.
"""

from __future__ import annotations

from .terms import App, Const, Lam, LambdaError, SeqBinder, Splice, Term, Var, free_set, fresh_name, grouped


class MixedSequenceUse(LambdaError):
    """The sequence is used in a way the block rules cannot abstract."""


# -- Turner's algorithm -------------------------------------------------------

_BASIS = tuple(Const(c) for c in ("I", "K", "S", "C", "B"))
_SEQ_BASIS = ("VarI", "VarK", "VarS", "VarC", "VarB")


def turner(t: Term) -> Term:
    """Translate t into the {I,K,B,C,S} basis; constants are opaque heads.

    Sequence binders are abstracted over {VarI,VarK,VarB,VarC,VarS}, leaving
    their index variable free.
    """
    c = t.__class__
    if c is App:
        return App(turner(t.fun), turner(t.arg))
    if c is Lam:
        x = t.binder
        body = turner(t.body)
        free_set(body)  # fills a wide body's sets: _abstract reads them all the way down
        if x.__class__ is SeqBinder:
            n = Var(x.index)
            return _abstract(x, body, [App(Const(name), n) for name in _SEQ_BASIS])
        return _abstract(x, body, _BASIS)
    return t


def _abstract(x: str, b: Term, basis) -> Term:
    """[x]b by Turner's rules over basis, the I, K, S, C and B of x's kind.

    b's set and every set below it are filled (see ``turner``)."""
    if x not in b.free:
        return App(basis[1], grouped(b))
    if b.size == 1:  # x itself, or a splice of it
        return basis[0]
    # b is an application: after the body was bracketed there are no lambdas
    # left, and the two cases above dispose of variables, constants and splices.
    p, q = b.fun, b.arg
    cq = q.__class__
    if cq is Splice and not q.grouped:
        # n separate arguments, which only sequence-eta can absorb
        if q.binder != x or x in p.free:
            raise MixedSequenceUse(f"cannot abstract {x} over a spine ending in the sequence {q.binder}")
        return grouped(p)
    if cq is Var and q.name == x and x not in p.free:
        return grouped(p)
    in_p = x in p.free
    in_q = x in q.free
    if in_p and in_q:
        return App(App(basis[2], _abstract(x, p, basis)), _abstract(x, q, basis))
    if in_p:
        return App(App(basis[3], _abstract(x, p, basis)), q)
    return App(App(basis[4], grouped(p)), _abstract(x, q, basis))


# -- meta-terms -----------------------------------------------------------------

BUILTIN_META_NAMES = ("I", "K", "S", "B", "C", "selfapp")


def extended_bound(m: Term) -> Term:
    """turner(m) with the index variable bound by an outer abstraction.

    Apply it to a Church numeral c_n to obtain the n-th instance.  The outer
    binder must not capture a variable of m: without a sequence binder it is
    a name not free in m, and an index variable that m also uses as a term
    variable, free or bound, raises ``MixedSequenceUse``.
    """
    index, binders = _index_and_binders(m)
    free = free_set(m)
    if index is None:
        return Lam(fresh_name("n", free) if "n" in free else "n", turner(m))
    if index in free or index in binders:
        raise MixedSequenceUse(f"the index variable {index} is also a term variable")
    return Lam(index, turner(m))


def _index_and_binders(m: Term):
    """The index variable of m's sequence binders (None if it has none) and
    the names of its other binders."""
    index = None
    binders = set()
    stack = [m]
    while stack:
        u = stack.pop()
        if u.__class__ is Lam:
            if u.binder.__class__ is SeqBinder:
                index = u.binder.index
            else:
                binders.add(u.binder)
            stack.append(u.body)
        elif u.__class__ is App:
            stack += (u.arg, u.fun)
    return index, binders
