"""Lambda-term representation and the basic syntactic operations.

Terms are immutable. Every node caches its size and whether it mentions a
named constant, and nearly every node its free-variable set, so the reducer
can skip substitution into subterms that do not mention the variable at all
(the shared subterm is returned as-is).  A node reuses a child's free set (or
the empty one) when its own is equal to it, so most nodes allocate no set of
their own.  An App whose new set would hold more than ``_WIDE`` names, and a
Lam that would remove its binder from a body's set of more than ``_WIDE``,
are *wide*: their ``free`` slot holds ``_UNMADE``, which is no set, and so
does that of every node built above a wide one.  An ellipsis x[1..n] expands
to n binders and n-argument spines, so a set made in each of them would copy
up to n names, quadratic time and memory in n; with wide nodes, building,
printing, parsing and comparing such a term take linear time and memory.
Every reader sees exact sets.  ``free_vars``, the public reader, walks a
wide term once and fills nothing.  The other readers (``substitute``, the
beta loop, bracket abstraction) call ``free_set``, which fills the set of a
wide node, and of every wide node below it, on the first read and keeps
them.  The leaves are shared: ``Var(name)`` and ``Const(name)`` return the
one object of that name, made at the first call and kept in a module table
that grows only with the distinct names ever built.  A leaf is immutable
and all that is read of it follows from its name, so sharing it changes no
answer, only memory and time (the redex memo of ``engine`` hits more
often).  An App also
has one cache slot, ``whnf``, which the reducer fills with the lambda the App
weak-head reduces to (see ``engine._beta_normalize``).  Meta-terms (see
``meta``) are terms too: a sequence binder is a ``SeqBinder`` string and a
splice a ``Splice`` leaf.

A term is built from children that already exist, so its ``fun``, ``arg``
and ``body`` edges never form a cycle and reference counting frees every
term.  The one exception is the ``whnf`` slot: a recorded lambda may contain
the App that records it, a knot that only the cycle collector frees.
``engine.normalize`` and ``syntax.parse`` run with that collector paused
(``gc_paused``).
"""

from __future__ import annotations

import functools
import gc
import sys

# The printer, alpha_eq, substitute and step_once recurse on term depth.  The
# check suites stay within the default limit; a numeral in the thousands,
# printed without sugar or compared by alpha_eq, does not.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))


class LambdaError(Exception):
    """Base class for all errors raised by this package."""


class UnboundName(LambdaError):
    def __init__(self, name: str):
        super().__init__(f"unbound name: {name}")
        self.name = name


class UnexpandedConstant(LambdaError):
    def __init__(self, name: str):
        super().__init__(f"term contains unexpanded constant: {name}")
        self.name = name


def gc_paused(fn):
    """Run fn with the cycle collector paused, and restore it on every exit.

    A reduction or a parse allocates hundreds of thousands of nodes, nearly
    all freed by reference counting, yet the collector walks the live ones
    again at every collection: unpaused, about 14% of a perfbench
    ``normalize`` pass and 13% of a ``syntax`` pass (2 vCPUs, Python 3.11);
    paused, 1% and 11%, the rest of ``syntax`` running outside ``parse``.
    Pausing it for the call is sound because
    terms cannot form cycles by their ``fun``, ``arg`` and ``body`` edges:
    they are immutable and built child-first.  The one cycle is an
    ``App.whnf`` knot.  The redex memo of ``engine._beta_normalize`` can
    return a reduct that contains the very App being recorded, as in
    ``(W W)`` -> ``f (W W)``, so the App reaches itself through its recorded
    lambda.  Only fixed points tie such knots (about 18k objects in a
    perfbench ``normalize`` pass, all from its fixed-point probes).  The memo
    holds each knot alive until it is emptied, at ``_MEMO_CAP`` distinct
    contractions, and a full collection there (once ``_KNOT_SWEEP`` objects
    were built since the last) frees the knots that died, so a long call
    does not pile them up; the first collection after the call frees the
    rest.

    A call that finds the collector paused leaves it paused, so paused calls
    nest and a caller that pauses the collector itself keeps it paused.  The
    collector is process-wide: another thread is not collected until the
    call returns.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


_EMPTY = frozenset()
# An App whose own free set would hold more names than this, or a Lam whose
# body's set does, is left wide (see the module docstring).  At this width
# `check --max-n 6` builds no wide node, and at n = 10 substitute meets one
# 16,640 times in 83 million beta steps.
_WIDE = 32


class _Unmade:
    """The free slot of a wide node.  It is no set, and a reader tests for it
    with ``is _UNMADE`` before it reads a slot as one.  Only the subset test
    is defined, as if it were a superset of every set, so that App's
    constructor makes a node above a wide one wide with no test of its own:
    its two subset tests run for every App, and ``meta.expand`` at n = 300
    builds thousands of wide ones."""

    __slots__ = ()

    def __ge__(self, other):
        return True

    def __le__(self, other):
        return other is self


_UNMADE = _Unmade()
_VARS: dict = {}  # name -> the one Var of that name
_CONSTS: dict = {}  # name -> the one Const of that name


class Term:
    __slots__ = ()


class Var(Term):
    __slots__ = ("name", "free", "size", "has_const")

    def __new__(cls, name: str):
        try:
            return _VARS[name]
        except KeyError:
            self = _VARS[name] = object.__new__(cls)
            self.name = name
            self.free = frozenset((name,))
            self.size = 1
            self.has_const = False
            return self

    def __repr__(self):
        return f"Var({self.name!r})"


class Lam(Term):
    __slots__ = ("binder", "body", "free", "size", "has_const")

    def __init__(self, binder: str, body: Term):
        self.binder = binder
        self.body = body
        self.size = 1 + body.size
        self.has_const = body.has_const
        bf = body.free
        if bf is not _UNMADE and binder in bf:  # a wide body makes a wide Lam
            width = len(bf)
            bf = _EMPTY if width == 1 else bf - {binder} if width <= _WIDE else _UNMADE
        self.free = bf

    def __repr__(self):
        return f"Lam({self.binder!r}, {self.body!r})"


class App(Term):
    __slots__ = ("fun", "arg", "free", "size", "has_const", "whnf")

    def __init__(self, fun: Term, arg: Term):
        self.fun = fun
        self.arg = arg
        self.size = 1 + fun.size + arg.size
        self.has_const = fun.has_const or arg.has_const
        self.whnf = None  # (lambda, beta-steps, peak size) once reduced; see engine
        ff = fun.free
        af = arg.free
        if af <= ff:  # _UNMADE is above every set: a wide child makes a wide App
            self.free = ff
        elif ff <= af:
            self.free = af
        else:
            union = ff | af
            self.free = union if len(union) <= _WIDE else _UNMADE

    def __repr__(self):
        return f"App({self.fun!r}, {self.arg!r})"


class Const(Term):
    """A reference to a named definition in an Env (e.g. K, Succ, VarPhi)."""

    __slots__ = ("name", "free", "size", "has_const")

    def __new__(cls, name: str):
        try:
            return _CONSTS[name]
        except KeyError:
            self = _CONSTS[name] = object.__new__(cls)
            self.name = name
            self.free = _EMPTY
            self.size = 1
            self.has_const = True
            return self

    def __repr__(self):
        return f"Const({self.name!r})"


class SeqBinder(str):
    """The binder of a sequence x[1..n] in a meta-term, used as a Lam binder.

    As a string it reads ``x[1..n]``, which no variable name can equal, so the
    free sets of Lam and App track where a sequence is in scope and occurs.
    """

    def __new__(cls, name: str, index: str):
        self = super().__new__(cls, f"{name}[1..{index}]")
        self.name = name
        self.index = index
        return self

    def __repr__(self):
        return f"SeqBinder({self.name!r}, {self.index!r})"


class Splice(Term):
    """A sequence x[1..n] spliced into a meta-term as the chain x1 ... xn.

    In argument position an ungrouped splice is n arguments; a grouped one,
    ``(x[1..n])``, is one argument, the chain (I at n = 0).
    """

    __slots__ = ("binder", "grouped", "free", "size", "has_const")

    def __init__(self, binder: SeqBinder, grouped: bool = False):
        self.binder = binder
        self.grouped = grouped
        self.free = frozenset((binder,))
        self.size = 1
        self.has_const = False

    def __repr__(self):
        return f"Splice({self.binder!r}{', grouped=True' if self.grouped else ''})"


def grouped(t: Term) -> Term:
    """t as one argument: a bare splice becomes grouped, anything else stays."""
    return Splice(t.binder, True) if t.__class__ is Splice else t


def apply(fun: Term, *args: Term) -> Term:
    """Left-associated application fun a1 ... an."""
    for a in args:
        fun = App(fun, a)
    return fun


def lams(binders, body: Term) -> Term:
    """Nested abstraction over a sequence of binder names."""
    for b in reversed(list(binders)):
        body = Lam(b, body)
    return body


def free_vars(t: Term) -> set[str]:
    """Free variables of t.  Constants contribute nothing (they are closed).

    A wide t is read by one walk that keeps the binders in scope and stops at
    every node with a set; it fills no slot, so reading the set of a wide
    term costs time and memory linear in its size.
    """
    f = t.free
    if f is not _UNMADE:
        return set(f)
    out = set()
    bound = {}  # binder -> how many lambdas of the walk's path bind it
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, str):  # the walk leaves the scope of the binder u
            if bound[u] == 1:
                del bound[u]
            else:
                bound[u] -= 1
            continue
        f = u.free
        if f is not _UNMADE:
            out.update([x for x in f if x not in bound] if bound else f)
        elif u.__class__ is Lam:
            b = u.binder
            bound[b] = bound.get(b, 0) + 1
            stack += (b, u.body)
        else:  # only a Lam or an App is wide
            stack += (u.arg, u.fun)
    return out


def free_set(t: Term) -> frozenset:
    """The free set of t: its ``free`` slot, filled first if t is wide.

    Filling computes the sets of t and of every wide node below it,
    bottom-up without recursion, and keeps them, so that a reader walking
    down from t (bracket abstraction, say) finds every set below t in its
    slot.
    """
    f = t.free
    if f is not _UNMADE:
        return f
    stack = [t]
    while stack:
        u = stack[-1]
        if u.free is not _UNMADE:  # filled since it was pushed: shared below two parents
            stack.pop()
        elif u.__class__ is Lam:
            bf = u.body.free
            if bf is _UNMADE:
                stack.append(u.body)
            else:
                stack.pop()
                u.free = bf - {u.binder} if u.binder in bf else bf
        else:
            ff = u.fun.free
            af = u.arg.free
            if ff is _UNMADE or af is _UNMADE:
                if ff is _UNMADE:
                    stack.append(u.fun)
                if af is _UNMADE:
                    stack.append(u.arg)
            else:
                stack.pop()
                u.free = ff if af <= ff else af if ff <= af else ff | af
    return t.free


def size(t: Term) -> int:
    """|v| = 1, |lam v.P| = 1 + |P|, |(P Q)| = 1 + |P| + |Q|.

    Defined on constant-free terms only: a constant raises
    ``UnexpandedConstant``, as ``expand_consts(t, None)`` does.
    """
    return expand_consts(t, None).size


def fresh_name(base: str, avoid) -> str:
    """Deterministic fresh name: prime the base until it is not in avoid."""
    name = base + "'"
    while name in avoid:
        name += "'"
    return name


def alpha_eq(a: Term, b: Term) -> bool:
    """Identity up to consistent renaming of binders.  Const compares by name,
    a splice by its (renamed) sequence and whether it is grouped."""
    if a is b:
        return True
    return _alpha(a, b, {}, {}, 0)


_UNBOUND = object()


def _alpha(a: Term, b: Term, ea: dict, eb: dict, depth: int) -> bool:
    """ea and eb map each binder in scope on their side to the depth of its
    lambda.  A lambda binds its binder for the body and then puts back the
    outer binding, so one dict per side serves the whole walk.  After a False
    nothing reads the dicts again, so only a True answer restores them."""
    ca = a.__class__
    if ca is not b.__class__:
        return False
    if ca is Var:
        return ea.get(a.name, a.name) == eb.get(b.name, b.name)
    if ca is App:
        return _alpha(a.fun, b.fun, ea, eb, depth) and _alpha(a.arg, b.arg, ea, eb, depth)
    if ca is Lam:
        xa = a.binder
        xb = b.binder
        outer_a = ea.get(xa, _UNBOUND)
        outer_b = eb.get(xb, _UNBOUND)
        ea[xa] = depth
        eb[xb] = depth
        if not _alpha(a.body, b.body, ea, eb, depth + 1):
            return False
        if outer_a is _UNBOUND:
            del ea[xa]
        else:
            ea[xa] = outer_a
        if outer_b is _UNBOUND:
            del eb[xb]
        else:
            eb[xb] = outer_b
        return True
    if ca is Const:
        return a.name == b.name
    return ea.get(a.binder, a.binder) == eb.get(b.binder, b.binder) and a.grouped == b.grouped  # Splice


def substitute(t: Term, name: str, repl: Term) -> Term:
    """Capture-avoiding t[name := repl]; binders are primed when needed.

    The sets of a wide t or repl are filled first (see ``free_set``), so that
    ``_substitute`` reads every slot below them as a set without testing it
    for ``_UNMADE``: that test in every recursive call cost about 4% of a
    perfbench ``normalize`` pass (2 vCPUs, Python 3.11).
    """
    if t.free is _UNMADE:
        free_set(t)
    if repl.free is _UNMADE:
        free_set(repl)
    return _substitute(t, name, repl)


def _substitute(t: Term, name: str, repl: Term) -> Term:
    """substitute, on a t and a repl whose sets are filled."""
    if name not in t.free:
        return t
    c = t.__class__
    if c is Var:
        return repl
    if c is App:
        return App(_substitute(t.fun, name, repl), _substitute(t.arg, name, repl))
    # Lam, with name free in the body (and binder != name, else name not free)
    binder = t.binder
    body = t.body
    if binder in repl.free:
        new = fresh_name(binder, repl.free | body.free)
        # the renamed body is built anew and may have wide sets to fill
        return Lam(new, substitute(_substitute(body, binder, Var(new)), name, repl))
    return Lam(binder, _substitute(body, name, repl))


def expand_consts(t: Term, env) -> Term:
    """Replace every Const by its (already closed) definition from env.

    Without an env (None) the first constant met, leftmost first, raises
    ``UnexpandedConstant``; a constant-free term is returned as it is.
    """
    if not t.has_const:
        return t
    c = t.__class__
    if c is Const:
        if env is None:
            raise UnexpandedConstant(t.name)
        return env.expanded(t.name)
    if c is App:
        return App(expand_consts(t.fun, env), expand_consts(t.arg, env))
    return Lam(t.binder, expand_consts(t.body, env))
