"""Lambda-term representation and the basic syntactic operations.

Terms are immutable, but for one cache slot.  Every node caches its size, and
nearly every node its free-variable set, so the reducer can skip substitution
into subterms that do not mention the variable at all (the shared subterm is
returned as-is).  A Const's set holds only ``_CONST``, a private object, so a
set also tells whether a constant occurs below.  A node reuses a child's free
set (or the empty one) when its own is equal to it, so most nodes allocate no
set of their own.  An App whose new set would hold more than ``_WIDE`` items is
*wide*: its ``free`` slot holds ``_UNMADE``, whose ``in`` answers True for
everything, and so does that of every node built above a wide one.  A Lam's
set is a subset of its body's, so a Lam is wide only over a wide body.  An
ellipsis x[1..n] expands to n binders and n-argument spines, so a set made in
each of them would copy up to n names, quadratic time and memory in n;
with wide nodes, building, printing, parsing and comparing such a term take
linear time and memory, and so does each beta step on it.  Only this module
reads a ``free`` slot, and only a node's constructor writes one.
``_substitute`` (under ``substitute``), the beta loop's ``_contract``, bracket
abstraction (through ``may_mention``) and ``expand_consts`` test every slot
with ``in``: a narrow slot answers exactly, and they walk down through a wide
node to the narrow nodes below.  ``free_vars`` is the one exact reader, and
drops ``_CONST``: a narrow node answers with its own set, and a wide one with
a set made by one walk and kept nowhere, so each ask about a wide node walks
it again.  The leaves are shared: ``Var(name)`` and ``Const(name)`` return the
one object of that name, made at the first call and kept in a module table
that grows only with the distinct names ever built.  A leaf is immutable and
all that is read of it follows from its name, so sharing it changes no
answer, only memory and time (the redex memo of ``engine`` hits more often).
The one slot written after a node is built is an App's ``whnf``, which the
reducer fills with the lambda the App weak-head reduces to (see
``engine._beta_normalize``).  Meta-terms (see ``meta``) are terms too: a
sequence binder is a ``SeqBinder`` string and a splice a ``Splice`` leaf.

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

# substitute (and _contract through it), step_once,
# engine.reduces_to's reach, bracket.turner and meta.expand recurse on term
# depth; alpha_eq and the printer loop down an App's argument but recurse on
# a function part that is no Var (and alpha_eq on a lambda's body).  The check
# suites stay within the default limit; a left spine of thousands of
# applications, compared or printed, and a numeral substituted into do not.
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
# An App whose own free set would hold more names than this is left wide
# (see the module docstring).  At this width `check --max-n 10` builds no
# wide node.
_WIDE = 32


class _Unmade:
    """The free slot of a wide node: it may mention any name."""

    __slots__ = ()

    def __contains__(self, name) -> bool:
        return True


_UNMADE = _Unmade()
_CONST = object()  # in the free set of a Const, so of every narrow node above one
_VARS: dict = {}  # name -> the one Var of that name
_CONSTS: dict = {}  # name -> the one Const of that name


class Term:
    __slots__ = ()


class Var(Term):
    __slots__ = ("name", "free", "size")

    def __new__(cls, name: str):
        try:
            return _VARS[name]
        except KeyError:
            self = _VARS[name] = object.__new__(cls)
            self.name = name
            self.free = frozenset((name,))
            self.size = 1
            return self

    def __repr__(self):
        return f"Var({self.name!r})"


class Lam(Term):
    __slots__ = ("binder", "body", "free", "size")

    def __init__(self, binder: str, body: Term):
        self.binder = binder
        self.body = body
        self.size = 1 + body.size
        bf = body.free
        if bf is not _UNMADE and binder in bf:  # a wide body makes a wide Lam
            bf = _EMPTY if len(bf) == 1 else bf - {binder}
        self.free = bf

    def __repr__(self):
        return f"Lam({self.binder!r}, {self.body!r})"


class App(Term):
    __slots__ = ("fun", "arg", "free", "size", "whnf")

    def __init__(self, fun: Term, arg: Term):
        self.fun = fun
        self.arg = arg
        self.size = 1 + fun.size + arg.size
        self.whnf = None  # (lambda, beta-steps, peak size) once reduced; see engine
        ff = fun.free
        af = arg.free
        if ff is _UNMADE or af is _UNMADE:  # a wide child makes a wide App
            self.free = _UNMADE
        elif af <= ff:
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

    __slots__ = ("name", "free", "size")

    def __new__(cls, name: str):
        try:
            return _CONSTS[name]
        except KeyError:
            self = _CONSTS[name] = object.__new__(cls)
            self.name = name
            self.free = frozenset((_CONST,))
            self.size = 1
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

    __slots__ = ("binder", "grouped", "free", "size")

    def __init__(self, binder: SeqBinder, grouped: bool = False):
        self.binder = binder
        self.grouped = grouped
        self.free = frozenset((binder,))
        self.size = 1

    def __repr__(self):
        return f"Splice({self.binder!r}{', grouped=True' if self.grouped else ''})"


def grouped(t: Term) -> Term:
    """t as one argument: a bare splice becomes grouped, anything else stays."""
    return Splice(t.binder, True) if type(t) is Splice else t


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


def free_vars(t: Term) -> frozenset:
    """Free variables of t.  Constants contribute nothing (they are closed).

    A narrow t answers with its own set, without ``_CONST``.  A wide t is read
    by one walk that keeps the binders in scope and stops at every node with
    a set; the set it makes is stored nowhere, so reading the set of a wide
    term costs time and memory linear in its size, at every ask.
    """
    f = t.free
    if f is not _UNMADE:
        return f - {_CONST} if _CONST in f else f
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
        elif type(u) is Lam:
            b = u.binder
            bound[b] = bound.get(b, 0) + 1
            stack += (b, u.body)
        else:  # only a Lam or an App is wide
            stack += (u.arg, u.fun)
    out.discard(_CONST)
    return frozenset(out)


def may_mention(t: Term, name: str) -> bool:
    """Whether name may be free in t: exact for a narrow t, True for a wide one."""
    return name in t.free


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
    outer binding, whatever the body's answer, so one dict per side serves
    the whole walk and a caller's maps come back as they were given.

    An App pair compares its function parts, in place when a side's is a Var,
    and the loop goes on down the arguments: a numeral, nested to the right,
    costs no frame per level.  A lambda's body and a function part that is no
    Var are compared by a recursive call."""
    while True:
        ca = type(a)
        if ca is not type(b):
            return False
        if ca is App:
            fa = a.fun
            fb = b.fun
            if type(fa) is Var:
                if type(fb) is not Var or ea.get(fa.name, fa.name) != eb.get(fb.name, fb.name):
                    return False
            elif not _alpha(fa, fb, ea, eb, depth):
                return False
            a = a.arg
            b = b.arg
            continue
        if ca is Var:
            return ea.get(a.name, a.name) == eb.get(b.name, b.name)
        if ca is Lam:
            xa = a.binder
            xb = b.binder
            outer_a = ea.get(xa, _UNBOUND)
            outer_b = eb.get(xb, _UNBOUND)
            ea[xa] = depth
            eb[xb] = depth
            same = _alpha(a.body, b.body, ea, eb, depth + 1)
            if outer_a is _UNBOUND:
                del ea[xa]
            else:
                ea[xa] = outer_a
            if outer_b is _UNBOUND:
                del eb[xb]
            else:
                eb[xb] = outer_b
            return same
        if ca is Const:
            return a.name == b.name
        return ea.get(a.binder, a.binder) == eb.get(b.binder, b.binder) and a.grouped == b.grouped  # Splice


def substitute(t: Term, name: str, repl: Term) -> Term:
    """Capture-avoiding t[name := repl]; binders are primed when needed.

    t itself comes back if name is not free in it.  Else ``_substitute``
    builds the result, given repl's exact set, which its capture test reads.
    """
    if name not in free_vars(t):
        return t
    return repl if type(t) is Var else _substitute(t, name, repl, free_vars(repl))


def _substitute(t: Term, name: str, repl: Term, rf: frozenset) -> Term:
    """substitute, on a t that is no Var and may mention name; rf is repl's
    exact free set, made once by the caller and passed down unchanged.  Every
    caller tests a node's slot before it passes the node down.  A wide node's
    slot answers that it may mention any name, so the walk goes down through
    wide nodes without making their sets, rebuilding them, and tests each
    narrow node below exactly."""
    c = type(t)  # faster than t.__class__ (see engine._beta_normalize)
    if c is App:  # a child is passed down only if it may contain name, and a Var child is name
        fun = t.fun
        arg = t.arg
        if name in fun.free:
            fun = repl if type(fun) is Var else _substitute(fun, name, repl, rf)
        if name in arg.free:
            arg = repl if type(arg) is Var else _substitute(arg, name, repl, rf)
        return App(fun, arg)
    if c is Splice:  # name is a sequence binder: renaming one is not defined yet
        raise LambdaError(f"cannot substitute for the sequence {name}")
    binder = t.binder  # a Lam: a narrow one has name free in its body
    if binder == name:  # a wide Lam that binds name
        return t
    body = t.body
    if binder in rf:
        bf = free_vars(body)
        if name not in bf:  # a wide Lam that does not mention name: no renaming
            return t
        new = fresh_name(binder, rf | bf)
        if binder in bf:  # so body is no Var
            fresh = Var(new)
            body = _substitute(body, binder, fresh, fresh.free)
        binder = new
    return Lam(binder, repl if type(body) is Var else _substitute(body, name, repl, rf))


def _contract(lam: Lam, arg: Term):
    """The reduct of the redex (lam arg), for engine's beta loop, which calls
    it once per contraction it performs (a miss of its memo).  It makes the
    argument's exact set once, for the capture test of ``_substitute``, and
    walks down through a wide body as ``_substitute`` does.  The result is
    (head, args, size): the reduct is head applied to args[-1], ..., args[0]
    (the order the loop pushes them), and size is its size.  args is empty
    unless the body is an App that may mention the binder.  Then the spine is
    walked while the function part may mention the binder, and the first
    spine App that does not is the head, as it is.
    """
    body = lam.body
    x = lam.binder
    if x not in body.free:
        return body, (), body.size
    rf = free_vars(arg)
    if type(body) is not App:
        body = arg if type(body) is Var else _substitute(body, x, arg, rf)
        return body, (), body.size
    args = []
    size = 0
    u = body
    while type(u) is App and x in u.free:
        a = u.arg
        if x in a.free:
            a = arg if type(a) is Var else _substitute(a, x, arg, rf)
        args.append(a)
        size += 1 + a.size
        u = u.fun
    if x in u.free:
        u = arg if type(u) is Var else _substitute(u, x, arg, rf)
    return u, args, size + u.size


def expand_consts(t: Term, env) -> Term:
    """Replace every Const by its (already closed) definition from env.

    Without an env (None) the first constant met, leftmost first, raises
    ``UnexpandedConstant``.  The walk ends at a slot without ``_CONST`` (never
    at a wide one) and returns a node itself if no part changed.  The walk
    keeps its own stack, so it takes a term of any depth: a node whose parts
    it must visit goes back on the stack under a ``None``, and is built once
    its parts, function part first, are on ``done``.
    """
    if _CONST not in t.free:
        return t
    done = []  # the expanded parts, in the order visited
    stack = [t]
    while stack:
        u = stack.pop()
        if u is None:  # the node below has its parts on done: build it
            u = stack.pop()
            if type(u) is App:
                arg = done.pop()
                fun = done.pop()
                done.append(u if fun is u.fun and arg is u.arg else App(fun, arg))
            else:
                body = done.pop()
                done.append(u if body is u.body else Lam(u.binder, body))
        elif _CONST not in u.free:
            done.append(u)
        elif type(u) is App:
            stack += (u, None, u.arg, u.fun)
        elif type(u) is Lam:
            stack += (u, None, u.body)
        elif env is None:
            raise UnexpandedConstant(u.name)
        else:
            done.append(env.expanded(u.name))
    return done[0]
