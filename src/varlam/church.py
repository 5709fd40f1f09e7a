"""Builders and recognizers for Church numerals and ordered tuples.  Every
indexed family, selectors and projections too, is built by ``meta.build``."""

from __future__ import annotations

from .engine import DEFAULT_CONFIG, Status, normalize
from .terms import App, Lam, LambdaError, Term, Var, apply, free_vars, fresh_name


class NotANumeral(LambdaError):
    pass


class IndexOutOfRange(LambdaError):
    pass


def natural(n) -> int:
    """n, if it is a natural number: an int, not a bool, of at least 0."""
    if type(n) is not int or n < 0:
        raise IndexOutOfRange(f"index {n!r} is not a natural number")
    return n


def church(n: int) -> Term:
    """The n-th Church numeral lam s z. s^n z."""
    s = Var("s")
    body: Term = Var("z")
    for _ in range(natural(n)):
        body = App(s, body)
    return Lam("s", Lam("z", body))


def numeral_value(t: Term):
    """n if t is the numeral lam s z. s^n z (lam s s. s is 0), or lam s. s,
    the eta-short c_1; None otherwise."""
    if type(t) is not Lam:
        return None
    if type(t.body) is not Lam:
        return 1 if type(t.body) is Var and t.body.name == t.binder else None
    s, z = t.binder, t.body.binder
    u = t.body.body
    n = 0
    while type(u) is App and s != z and type(u.fun) is Var and u.fun.name == s:
        n += 1
        u = u.arg
    return n if type(u) is Var and u.name == z else None


def unchurch(t: Term, env=None, cfg=DEFAULT_CONFIG) -> int:
    """The natural denoted by t: its beta-eta-normal form read as a numeral,
    whatever cfg.eta says (the beta-normal form of c_1 may be eta-long)."""
    outcome = normalize(t, env, cfg if cfg.eta else cfg._replace(eta=True))
    if outcome.status is Status.NO_NORMAL_FORM:
        raise NotANumeral(f"no normal form (certified after {outcome.steps} steps)")
    if outcome.status is not Status.NORMAL_FORM:
        raise NotANumeral(f"no normal form within limits ({outcome.status.value})")
    return read_numeral(outcome.result)


def read_numeral(nf: Term) -> int:
    """The natural the normal form nf denotes; NotANumeral if it denotes none."""
    n = numeral_value(nf)
    if n is None:
        raise NotANumeral("normal form is not a Church numeral")
    return n


def tuple_of(components) -> Term:
    """The ordered n-tuple lam z. z E1 ... En; the empty tuple is lam z.z."""
    components = list(components)
    avoid = set().union(*(free_vars(c) for c in components))
    z = fresh_name("z", avoid)
    return Lam(z, apply(Var(z), *components))
