"""The reduction oracles the tests hold the kernel to, written without it.

Every function here reads a term only through ``name``, ``binder``, ``body``,
``fun`` and ``arg``, and calls none of the kernel's substitution, free names,
alpha-equality, fresh names, step or printer, so a fault there cannot hide
in the answer it is compared with (McKeeman, "Differential testing for
software", 1998); a test in ``test_kernel.py`` holds these rules.  Names
follow the kernel's priming rule, so results compare tree for tree
(``identical``), or by ``de_bruijn`` keys where only alpha-classes matter.
Constants are opaque leaves; splices are not handled.
"""

from varlam.engine import Status
from varlam.terms import App, Const, Lam, Var, apply


def free(t) -> set:
    """The free names of t: the names of its Vars not bound on their path."""
    names, todo = set(), [(t, frozenset())]
    while todo:
        u, bound = todo.pop()
        c = type(u)
        if c is Var and u.name not in bound:
            names.add(u.name)
        elif c is Lam:
            todo.append((u.body, bound | {u.binder}))
        elif c is App:
            todo += ((u.fun, bound), (u.arg, bound))
    return names


def size(t) -> int:
    """The number of nodes of t."""
    c = type(t)
    return 1 + (size(t.body) if c is Lam else size(t.fun) + size(t.arg) if c is App else 0)


def primed(base: str, avoid) -> str:
    """base, primed until it is not in avoid."""
    while base in avoid:
        base += "'"
    return base


def subst(t, x: str, r):
    """t[x := r] by the textbook recursion.  A binder free in r is renamed
    only on the way to an occurrence of x, to ``primed`` past the free names
    of r and of its body."""
    captured = free(r)

    def go(t):
        c = type(t)
        if c is Var:
            return r if t.name == x else t
        if c is App:
            return App(go(t.fun), go(t.arg))
        if c is not Lam or t.binder == x:
            return t
        binder, body = t.binder, t.body
        if binder in captured:
            names = free(body)
            if x not in names:
                return t
            binder = primed(binder, captured | names)
            body = subst(body, t.binder, Var(binder))
        return Lam(binder, go(body))

    return go(t)


def one_step_reducts(t):
    """Every term that one beta contraction in t gives, as a generator: the
    leftmost-outermost redex first, then the redexes of the function part
    and those of the argument."""
    c = type(t)
    if c is App:
        if type(t.fun) is Lam:
            yield subst(t.fun.body, t.fun.binder, t.arg)
        yield from (App(s, t.arg) for s in one_step_reducts(t.fun))
        yield from (App(t.fun, s) for s in one_step_reducts(t.arg))
    elif c is Lam:
        yield from (Lam(t.binder, s) for s in one_step_reducts(t.body))


def step(t):
    """t after one leftmost-outermost beta contraction, or None if t is normal."""
    return next(one_step_reducts(t), None)


def naive_run(t, fuel: int, max_size: int):
    """(term, steps, status) where ``normalize`` stops with eta off: at the
    normal form, after fuel steps, or at the first reduct over max_size."""
    for steps in range(fuel + 1):
        if steps and size(t) > max_size:
            return t, steps, Status.SIZE_EXCEEDED
        nxt = step(t)
        if nxt is None:
            return t, steps, Status.NORMAL_FORM
        if steps == fuel:
            return t, steps, Status.FUEL_EXHAUSTED
        t = nxt


def eta(t):
    """t with its eta-redexes erased, innermost first."""
    c = type(t)
    if c is App:
        return App(eta(t.fun), eta(t.arg))
    if c is not Lam:
        return t
    body = eta(t.body)
    if (type(body) is App and type(body.arg) is Var and body.arg.name == t.binder
            and t.binder not in free(body.fun)):
        return body.fun
    return Lam(t.binder, body)


def turner(t):
    """Turner's rules over the I, K, S, C and B constants.  Each node's free
    names are found once, from its parts' (a walk per node is quadratic on
    a long spine)."""
    known = {}  # id -> (node, its free names); the node is kept so its id stays its own

    def names(u):
        if id(u) not in known:
            c = type(u)
            known[id(u)] = u, ({u.name} if c is Var else names(u.body) - {u.binder} if c is Lam
                               else names(u.fun) | names(u.arg) if c is App else set())
        return known[id(u)][1]

    def abstract(x, b):  # [x]b for a b with x free and no lambda
        if type(b) is Var:
            return Const("I")
        p, q = b.fun, b.arg
        in_p, in_q = x in names(p), x in names(q)
        if not in_p and type(q) is Var:  # q is x
            return p
        if in_p and in_q:
            return apply(Const("S"), abstract(x, p), abstract(x, q))
        if in_p:
            return apply(Const("C"), abstract(x, p), q)
        return apply(Const("B"), p, abstract(x, q))

    def go(u):
        c = type(u)
        if c is App:
            return App(go(u.fun), go(u.arg))
        if c is not Lam:
            return u
        body = go(u.body)
        return abstract(u.binder, body) if u.binder in names(body) else App(Const("K"), body)

    return go(t)


def expand(t, env):
    """t with every Const replaced by its definition in env, every node rebuilt."""
    c = type(t)
    if c is Const:
        return env.expanded(t.name)
    if c is Lam:
        return Lam(t.binder, expand(t.body, env))
    if c is App:
        return App(expand(t.fun, env), expand(t.arg, env))
    return t


def de_bruijn(t, bound=()):
    """t as nested tuples in which a bound variable is the number of lambdas
    between it and its binder: alpha-equal terms, and only they, have equal keys."""
    c = type(t)
    if c is Var:
        return ("bound", bound.index(t.name)) if t.name in bound else ("free", t.name)
    if c is Lam:
        return ("lam", de_bruijn(t.body, (t.binder, *bound)))
    if c is App:
        return ("app", de_bruijn(t.fun, bound), de_bruijn(t.arg, bound))
    return ("const", t.name)


def identical(a, b) -> bool:
    """Whether a and b are the same tree, binder names included."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if a is b:
            continue
        c = type(a)
        if c is not type(b):
            return False
        if c is App:
            pairs += ((a.arg, b.arg), (a.fun, b.fun))
        elif c is Lam:
            if a.binder != b.binder:
                return False
            pairs.append((a.body, b.body))
        elif a.name != b.name:
            return False
    return True
