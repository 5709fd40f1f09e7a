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

from .terms import App, Const, Lam, LambdaError, SeqBinder, Splice, Term, Var, free_vars, fresh_name, grouped, may_mention


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
    c = type(t)
    if c is App:
        return App(turner(t.fun), turner(t.arg))
    if c is Lam:
        x = t.binder
        body = turner(t.body)
        basis = [App(Const(name), Var(x.index)) for name in _SEQ_BASIS] if type(x) is SeqBinder else _BASIS
        abstracted = _abstract(x, body, basis)
        return App(basis[1], grouped(body)) if abstracted is None else abstracted
    return t


def _abstract(x: str, b: Term, basis) -> Term | None:
    """[x]b by Turner's rules over basis, the I, K, S, C and B of x's kind, or
    None if x is not free in b (then [x]b is K b).  Where x is in b is read
    from the masks of b's parts through ``may_mention``, one bit test a node."""
    if not may_mention(b, x):
        return None
    if type(b) is not App:  # x itself, or a splice of it: a bracketed body has no lambdas
        return basis[0]
    p, q = b.fun, b.arg
    ap = _abstract(x, p, basis)
    if type(q) is Splice and not q.grouped:
        # n separate arguments, which only sequence-eta can absorb: q is x's
        # own splice, since b mentions x and p does not
        if ap is not None:
            raise MixedSequenceUse(f"cannot abstract {x} over a spine ending in the sequence {q.binder}")
        return grouped(p)
    if type(q) is Var and q.name == x and ap is None:
        return grouped(p)
    aq = _abstract(x, q, basis)
    if aq is None:
        return None if ap is None else App(App(basis[3], ap), q)
    if ap is None:
        return App(App(basis[4], grouped(p)), aq)
    return App(App(basis[2], ap), aq)


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
    free = free_vars(m)
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
        if type(u) is Lam:
            if type(u.binder) is SeqBinder:
                index = u.binder.index
            else:
                binders.add(u.binder)
            stack.append(u.body)
        elif type(u) is App:
            stack += (u.arg, u.fun)
    return index, binders
