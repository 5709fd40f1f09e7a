"""Lambda-term representation and the basic syntactic operations.

Terms are immutable, but for one cache slot.  Every node caches its size and
its free-variable set, so the reducer can skip substitution into subterms
that do not mention the variable at all (the shared subterm is returned
as-is).  A free set is an int used as a bit mask, exact at every width: bit
0 marks a constant below, and each name owns one bit while its Var lives.  A
Var holds its name's bit and a Const holds bit 0; an App ORs its children's
masks, a Lam clears its binder's bit, and a Splice holds the bit of its
sequence name, whose Var it keeps alive.  An ellipsis x[1..n] expands to n
binders and n-argument spines, about n nodes over n names; a mask takes a
bit an index up to its highest, so their masks take about n*n/8 bytes in
all, where a frozenset per node held n*n references (``expand`` of S at n =
3000 peaks at 20 MB, against 633 MB with frozensets).  Only this module
reads a ``free`` slot, and only a node's constructor writes one.
``free_vars`` decodes a mask into its names, and ``may_mention`` tests one
name's bit.

The leaves are shared: ``Var(name)`` returns the one live Var of that name
and ``Const(name)`` the one Const, each made at the first call and kept in
a module table.  A leaf is immutable and all that is read of it follows
from its name, so sharing it changes no answer, only memory and time (the
redex memo of ``engine`` hits more often).  The Consts are few and kept for
good.  ``_VARS`` holds each Var weakly, with the index of its bit: a new
name takes the lowest index that no live Var owns, and once the last
reference to a Var dies, ``_release`` frees its index for the next new
name.  That reuse is sound.  A mask has bit i only if a Var owning index i
lies below the node (no other rule sets a name's bit), and the node keeps
that Var alive, so the index is neither freed nor given to another name
while any mask holding it lives.  A Lam whose binder has no live Var clears
nothing, since no Var of its binder lies below.  So a long process that
made and dropped many names keeps its masks as short as its live names;
names that stay alive keep their bits (see README).

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
from threading import RLock
from weakref import ref

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


_CONST = 1  # the constants' mark: bit 0 of the mask of a Const, so of every node above one
_VARS: dict = {}  # name -> a _Leaf, the weak reference to the one live Var of that name
_BITS: dict = {}  # name -> the bit of a name whose Var is alive
_NAMES: list = [None]  # index -> the name that owns it, or None; index 0 is the constants' mark
_SPARE = 0  # the indices below len(_NAMES) that no name owns, as a mask
_CONSTS: dict = {}  # name -> the one Const of that name
# Held while a Var is made or its index freed, so that two threads never take
# one index.  Reentrant: a collection that the making starts may free an index.
_LOCK = RLock()


class _Leaf(ref):
    """A weak reference to a Var, with the index of the Var's bit."""

    __slots__ = ("index",)


def _release(leaf: _Leaf) -> None:
    """The Var that leaf pointed to died: no live mask holds its bit, so its
    index is spare.  A Var of the same name made since keeps its entries."""
    global _SPARE
    with _LOCK:
        i = leaf.index
        name = _NAMES[i]
        if _VARS.get(name) is leaf:
            del _VARS[name], _BITS[name]
        _NAMES[i] = None
        _SPARE |= 1 << i


class Term:
    __slots__ = ()


class Var(Term):
    __slots__ = ("name", "free", "size", "__weakref__")

    def __new__(cls, name: str):
        global _SPARE
        try:
            self = _VARS[name]()
            if self is not None:
                return self
        except KeyError:
            pass
        with _LOCK:
            leaf = _VARS.get(name)
            if leaf is not None and (self := leaf()) is not None:  # made meanwhile by another thread
                return self
            self = object.__new__(cls)
            self.name = name
            self.size = 1
            if _SPARE:  # the lowest spare index
                low = _SPARE & -_SPARE
                _SPARE ^= low
                i = low.bit_length() - 1
                _NAMES[i] = name
            else:
                i = len(_NAMES)
                _NAMES.append(name)
            leaf = _VARS[name] = _Leaf(self, _release)
            leaf.index = i
            _BITS[name] = self.free = 1 << i
            return self

    def __repr__(self):
        return f"Var({self.name!r})"


class Lam(Term):
    __slots__ = ("binder", "body", "free", "size")

    def __init__(self, binder: str, body: Term):
        self.binder = binder
        self.body = body
        self.size = 1 + body.size
        f = body.free
        bit = _BITS.get(binder, 0)
        self.free = f ^ bit if f & bit else f

    def __repr__(self):
        return f"Lam({self.binder!r}, {self.body!r})"


class App(Term):
    __slots__ = ("fun", "arg", "free", "size", "whnf")

    def __init__(self, fun: Term, arg: Term):
        self.fun = fun
        self.arg = arg
        self.size = 1 + fun.size + arg.size
        self.whnf = None  # (lambda, beta-steps, peak size) once reduced; see engine
        self.free = fun.free | arg.free

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
            self.free = _CONST
            self.size = 1
            return self

    def __repr__(self):
        return f"Const({self.name!r})"


class SeqBinder(str):
    """The binder of a sequence x[1..n] in a meta-term, used as a Lam binder.

    As a string it reads ``x[1..n]``, which no variable name can equal, so the
    masks of Lam and App track where a sequence is in scope and occurs.
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
    ``(x[1..n])``, is one argument, the chain (I at n = 0).  Its mask is
    the bit of ``Var(binder)``, which it keeps alive as ``var``.
    """

    __slots__ = ("binder", "grouped", "var", "free", "size")

    def __init__(self, binder: SeqBinder, grouped: bool = False):
        self.binder = binder
        self.grouped = grouped
        self.var = Var(binder)
        self.free = self.var.free
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
    """Free variables of t.  Constants contribute nothing (they are closed)."""
    return _names(t.free)


def _names(mask: int) -> frozenset:
    """The names whose bits are set in mask; the constants' mark names none.
    The loop runs once a name, not once a bit below the highest."""
    names = []
    mask &= ~_CONST
    while mask:
        low = mask & -mask
        names.append(_NAMES[low.bit_length() - 1])
        mask ^= low
    return frozenset(names)


def may_mention(t: Term, name: str) -> bool:
    """Whether name is free in t."""
    return bool(t.free & _BITS.get(name, 0))


def size(t: Term) -> int:
    """|v| = 1, |lam v.P| = 1 + |P|, |(P Q)| = 1 + |P| + |Q|.

    Defined on constant-free terms only: a constant raises
    ``UnexpandedConstant``, as ``expand_consts(t, None)`` does.
    """
    return expand_consts(t, None).size


def fresh_name(base: str, avoid) -> str:
    """Deterministic fresh name: base, primed until it is not in avoid."""
    name = base
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

    t itself comes back if name is not free in it.
    """
    bit = _BITS.get(name, 0)
    if not t.free & bit:
        return t
    return repl if type(t) is Var else _substitute(t, bit, repl, repl.free)


def _substitute(t: Term, bit: int, repl: Term, rf: int) -> Term:
    """substitute, on a t that is no Var and has the name of the given bit
    free; rf is repl's mask, which the capture test reads.  Every caller
    tests a node's mask before it passes the node down."""
    c = type(t)  # faster than t.__class__ (see engine._beta_normalize)
    if c is App:  # a child is passed down only if it contains name, and a Var child is name
        fun = t.fun
        arg = t.arg
        if fun.free & bit:
            fun = repl if type(fun) is Var else _substitute(fun, bit, repl, rf)
        if arg.free & bit:
            arg = repl if type(arg) is Var else _substitute(arg, bit, repl, rf)
        return App(fun, arg)
    if c is Splice:  # name is a sequence binder: renaming one is not defined yet
        raise LambdaError(f"cannot substitute for the sequence {t.binder}")
    binder = t.binder  # a Lam with name free in its body
    body = t.body
    b = _BITS.get(binder, 0)
    if rf & b:  # binder is free in repl, which it would capture
        new = fresh_name(binder, _names(rf | body.free))
        if body.free & b:  # so body is no Var
            fresh = Var(new)
            body = _substitute(body, b, fresh, fresh.free)
        binder = new
    return Lam(binder, repl if type(body) is Var else _substitute(body, bit, repl, rf))


def _contract(lam: Lam, arg: Term):
    """The reduct of the redex (lam arg), for engine's beta loop, which calls
    it once per contraction it performs (a miss of its memo).  The result is
    (head, args, size): the reduct is head applied to args[-1], ..., args[0]
    (the order the loop pushes them), and size is its size.  args is empty
    unless the body is an App that mentions the binder.  Then the spine is
    walked while the function part mentions the binder, and the first spine
    App that does not is the head, as it is.
    """
    body = lam.body
    bit = _BITS.get(lam.binder, 0)
    if not body.free & bit:
        return body, (), body.size
    rf = arg.free
    if type(body) is not App:
        body = arg if type(body) is Var else _substitute(body, bit, arg, rf)
        return body, (), body.size
    args = []
    size = 0
    u = body
    while type(u) is App and u.free & bit:
        a = u.arg
        if a.free & bit:
            a = arg if type(a) is Var else _substitute(a, bit, arg, rf)
        args.append(a)
        size += 1 + a.size
        u = u.fun
    if u.free & bit:
        u = arg if type(u) is Var else _substitute(u, bit, arg, rf)
    return u, args, size + u.size


def expand_consts(t: Term, env) -> Term:
    """Replace every Const by its (already closed) definition from env.

    Without an env (None) the first constant met, leftmost first, raises
    ``UnexpandedConstant``.  The walk goes down only the nodes whose masks
    hold the constants' mark, so a constant-free part comes back as it is.
    It keeps its own stack, so it takes a term of any depth: a node whose
    parts it must visit goes back on the stack under a ``None``, and is
    rebuilt once its parts, function part first, are on ``done``.
    """
    done = []  # the expanded parts, in the order visited
    stack = [t]
    while stack:
        u = stack.pop()
        if u is None:  # the node below has its parts on done: build it
            u = stack.pop()
            if type(u) is App:
                arg = done.pop()
                done.append(App(done.pop(), arg))
            else:
                done.append(Lam(u.binder, done.pop()))
        elif not u.free & _CONST:
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
