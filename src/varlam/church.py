"""Builders and recognizers for numerals, tuples, selectors and projections."""

from __future__ import annotations

from .engine import DEFAULT_CONFIG, Status, normalize
from .terms import App, Lam, LambdaError, Term, Var, apply, fresh_name, lams


class NotANumeral(LambdaError):
    pass


class IndexOutOfRange(LambdaError):
    pass


def church(n: int) -> Term:
    """The n-th Church numeral lam s z. s^n z."""
    if n < 0:
        raise IndexOutOfRange(f"no Church numeral for {n}")
    body: Term = Var("z")
    for _ in range(n):
        body = App(Var("s"), body)
    return Lam("s", Lam("z", body))


def unchurch(t: Term, env=None, cfg=DEFAULT_CONFIG) -> int:
    """The natural denoted by t, robust to eta-short numerals.

    Applies t to two fresh free variables, normalizes, and counts the spine.
    """
    s = fresh_name("s", t.free)
    z = fresh_name("z", t.free | {s})
    outcome = normalize(App(App(t, Var(s)), Var(z)), env, cfg)
    if outcome.status is Status.NO_NORMAL_FORM:
        raise NotANumeral(f"no normal form (certified after {outcome.steps} steps)")
    if outcome.status is not Status.NORMAL_FORM:
        raise NotANumeral(f"no normal form within limits ({outcome.status.value})")
    u = outcome.result
    n = 0
    while u.__class__ is App:
        if u.fun.__class__ is not Var or u.fun.name != s:
            raise NotANumeral("normal form is not an iterated application")
        n += 1
        u = u.arg
    if u.__class__ is Var and u.name == z:
        return n
    raise NotANumeral("normal form does not end in the zero variable")


def tuple_of(components) -> Term:
    """The ordered n-tuple lam z. z E1 ... En; the empty tuple is lam z.z."""
    components = list(components)
    avoid = set().union(*(c.free for c in components)) if components else set()
    z = "z" if "z" not in avoid else fresh_name("z", avoid)
    return Lam(z, apply(Var(z), *components))


def selector(k: int, n: int) -> Term:
    """lam x1 ... xn. xk (1-indexed)."""
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"selector {k} of {n}")
    return lams([f"x{i}" for i in range(1, n + 1)], Var(f"x{k}"))


def projection(k: int, n: int) -> Term:
    """Extracts the k-th component of an ordered n-tuple."""
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"projection {k} of {n}")
    return Lam("t", App(Var("t"), selector(k, n)))
