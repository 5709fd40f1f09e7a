"""Fuel-bounded normal-order reduction and the equivalences built on it.

``normalize`` contracts the leftmost-outermost beta-redex until no redex
remains and (by default) erases each eta-redex as it builds the normal form,
yielding a canonical beta-eta-normal form in one walk.  Fuel counts
beta-steps only: an App reached again replays the weak-head reduct recorded
in ``App.whnf`` and adds the steps it took, and a contraction met again
within one call reuses its reduct, so the count is normal order's.  It stops
early with ``NO_NORMAL_FORM`` when an argument it starts to normalize is
alpha-equal to an argument it is still normalizing, and when an App it is
weak-head reducing reduces back into itself (see ``_beta_normalize``).

``trace`` runs the same strategy naively, one leftmost-outermost step at a
time, but not independently: ``step_once`` calls ``terms.substitute``, as
the beta loop's ``_contract`` does.  The independent oracle is
``tests/reference.py``, which reads terms only through their parts.

``reduces_to`` decides reachability M ->> N by standardization: it follows
weak-head chains on the same named terms, matches parts under binder maps
with no renaming, and never branches over all redexes.
"""

from __future__ import annotations

import gc
from collections import namedtuple
from enum import Enum

from .terms import (App, Lam, Term, Var, _alpha, _contract, alpha_eq, expand_consts, gc_paused, may_mention,
                    substitute)


class Status(Enum):
    NORMAL_FORM = "normal-form"
    FUEL_EXHAUSTED = "fuel-exhausted"
    SIZE_EXCEEDED = "size-exceeded"
    NO_NORMAL_FORM = "no-normal-form"


# The records below are named tuples, so immutable: a derived config is
# ``cfg._replace(fuel=...)``.  They need only ``collections``, which is loaded
# before varlam is; ``inspect``, with the ``ast``, ``dis`` and ``tokenize`` it
# loads, would be most of a fresh process's set-up (tests/test_cli.py keeps
# it out of ``import varlam``).

class ReductionConfig(namedtuple("ReductionConfig", "fuel max_term_size eta",
                                 defaults=(1_000_000, 1_000_000, True))):
    """Limits of one reduction: beta-steps (fuel), the term size no reduct
    may exceed (max_term_size), and whether to eta-reduce the normal form."""

    __slots__ = ()


DEFAULT_CONFIG = ReductionConfig()


class ReductionOutcome(namedtuple("ReductionOutcome", "status result steps")):
    """How a reduction stopped (status), at which term, after how many steps;
    under eta, the finished parts of a stopped term are eta-normal."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.status.value} after {self.steps} steps"


class Verdict(Enum):
    EQUAL = "EQUAL"
    NOT_EQUAL = "NOT-EQUAL"
    UNKNOWN = "UNKNOWN"


@gc_paused
def normalize(t: Term, env=None, cfg: ReductionConfig = DEFAULT_CONFIG) -> ReductionOutcome:
    """Reduce to beta(eta)-normal form, or stop on fuel / term-size limits.

    ``cfg.eta`` erases each eta-redex as the normal form is built, so the
    finished parts of a stopped result are eta-normal too: ``x (\\y. f y)
    Omega`` stops as ``x f Omega``.  Steps and status do not depend on it."""
    t = expand_consts(t, env)
    return ReductionOutcome(*_beta_normalize(t, cfg.fuel, cfg.max_term_size, cfg.eta))


_ARGDONE, _LAM, _PENDING = 0, 1, 2  # tags of the stack's tuple frames; an argument to apply is the bare term
_CHAIN = 4  # update frames adjacent on the stack, each App a reduct of the one below
# Contractions memoized per call before the memo starts afresh: a reduction
# that never repeats a contraction would otherwise hold every reduct it made.
# The largest memo of `check --max-n 10` holds 8,785.
_MEMO_CAP = 1 << 16
# A memo reset collects only once more objects than this were built since
# the last collection: a full collection walks every live object.
_KNOT_SWEEP = 1 << 16


def _beta_normalize(t: Term, fuel: int, max_size: int, eta: bool):
    """Iterative leftmost-outermost machine over one explicit context stack.

    Normal order starts on an argument N only once the head of its spine is a
    variable, so from then on every frame on the stack is final: the normal
    form of the whole term, if any, contains NF(N).  An argument is open from
    that start until its ``_ARGDONE`` frame is popped.  If N is alpha-equal to
    an open argument M, NF(M) would contain NF(N) = NF(M) as a proper subterm,
    so neither has a normal form: the regress is certified ``NO_NORMAL_FORM``.

    Weak-head reducts are shared (Wadsworth's graph reduction, on the named
    terms), with update frames as in the STG machine: an App M entered with
    no recorded reduct pushes a ``_PENDING`` frame.  Its arguments go above
    the frame, so when the head is a lambda with the frame on top, that
    lambda is M's weak-head normal form, and M.whnf records it, the steps
    taken and the peak of M's reduct sizes.  Update frames adjacent at the
    top are Apps each a reduct of the one below, and a lambda head records
    them all.  A variable head records none: the up pass drops the frames.
    M's weak-head reduction neither depends on its context nor starts an
    argument, so reaching M again (a copy of a duplicated argument) adds the
    recorded steps and resumes at the lambda, unless fuel or size would run
    out on the way: then M is reduced for real, to stop where normal order
    does.  Steps, stops and results are normal order's.  Not recorded: an App
    entered over ``_CHAIN`` adjacent update frames (a head loop would
    otherwise keep one frame per step).

    The head loop is certified too (blackholing, as in the STG machine): an
    App without a recorded reduct, entered when its own update frame is among
    those adjacent at the top, has been weak-head reduced back into itself
    with no argument started and no frame below it changed.  The machine is
    deterministic, one contraction giving one reduct object (the memo,
    below), so it is in the same state again and would never halt.  Only
    framed Apps are seen, so a loop through more than ``_CHAIN`` Apps, or one
    that grows its spine, runs on to a limit.

    Contractions are shared too: normal order applies the same lambda object
    to the same argument object again and again (a duplicated closure is
    read back once per copy), and a contraction is a pure function of its
    two objects.  So ``contracted``, local to this call, maps the pair
    ``(lam, arg)`` to the reduct, and a hit reuses it.  Terms define no
    ``__eq__``, so the pair hashes and compares by identity, and it holds
    both objects alive while it is a key.  Every step is still counted and
    checked against fuel and size.  The memo is emptied at ``_MEMO_CAP``
    entries and dies on return.  Every term this call builds is a reduct in
    the memo or inside one, so the memo holds each ``whnf`` knot alive until
    it is emptied.  The collector is paused (``terms.gc_paused``), so a reset
    runs a full collection to free the knots that died, once ``_KNOT_SWEEP``
    objects were built since the last one.

    A reduct's left spine is not built just to be taken apart (push/enter,
    as in the STG and Krivine machines): ``terms._contract`` returns every
    reduct as (head, args, size), the args going on the stack as the frames
    the spine's Apps would have pushed, and the loop goes on with the head.
    The memo keeps these pieces.  The first hit builds a spine once
    (``_rebuild``), keeps it as (spine, (), size) and enters it as an
    ordinary App, so it is recorded and a later hit replays it.  A stop
    rebuilds the same term from the stack, passing over update frames.

    With ``eta`` the up pass erases an eta-redex lam x.(P x), x not free in
    P, post-order, where it would build its Lam.  P is beta-normal, so no
    lambda, and a ``_LAM`` frame never lies on an argument frame: the
    erasure makes no beta-redex.  The down pass never sees it, so steps and
    statuses do not depend on ``eta``.
    """
    # an argument to apply, or a frame: (_ARGDONE, fun, the argument's size),
    # (_LAM, binder) or the update frame (_PENDING, App, steps, context size, enclosing peak)
    stack: list = []
    open_args: dict[int, list[Term]] = {}  # size -> open arguments of that size
    contracted: dict[tuple, object] = {}  # (lam, arg) -> the redex's reduct, or its pieces
    peak = 0  # largest total since the innermost update frame was pushed
    total = t.size
    steps = 0
    while True:
        while True:  # down, to the head of t's spine
            # type(x), not x.__class__, in this loop and its callees: Python
            # 3.11 specializes the call and not the attribute read
            cls = type(t)
            if cls is App:
                shared = t.whnf
                if shared is None:
                    i = n = len(stack)  # is t in an update frame at the top: reduced back into itself?
                    while i and type(stack[i - 1]) is tuple and stack[i - 1][0] == _PENDING:
                        i -= 1
                        if stack[i][1] is t:
                            return Status.NO_NORMAL_FORM, _rebuild(t, stack), steps
                    if n - i < _CHAIN:
                        stack.append((_PENDING, t, steps, total - t.size, peak))
                        peak = total
                else:
                    lam, k, rise = shared
                    context = total - t.size
                    if steps + k <= fuel and context + rise <= max_size:
                        steps += k
                        total = context + lam.size
                        if context + rise > peak:
                            peak = context + rise
                        t = lam
                        continue
                stack.append(t.arg)
                t = t.fun
            elif cls is Lam:
                while stack and type(stack[-1]) is tuple and stack[-1][0] == _PENDING:
                    _, node, start, context, outer = stack.pop()  # t is node's whnf
                    node.whnf = (t, steps - start, peak - context)
                    if outer > peak:
                        peak = outer
                if stack and type(stack[-1]) is not tuple:
                    if steps >= fuel:
                        return Status.FUEL_EXHAUSTED, _rebuild(t, stack), steps
                    arg = stack.pop()
                    total -= 1 + t.size + arg.size  # the redex App(t, arg)
                    key = (t, arg)
                    reduct = contracted.get(key)
                    if reduct is None:
                        if len(contracted) == _MEMO_CAP:
                            contracted.clear()
                            if gc.get_count()[0] > _KNOT_SWEEP:
                                gc.collect()
                        reduct = contracted[key] = _contract(t, arg)
                    elif reduct[1]:  # met again: build the spine once
                        reduct = contracted[key] = (_rebuild(reduct[0], reduct[1]), (), reduct[2])
                    t, args, size = reduct
                    stack += args
                    total += size
                    steps += 1
                    if total > max_size:
                        return Status.SIZE_EXCEEDED, _rebuild(t, stack), steps
                    if total > peak:
                        peak = total
                else:
                    stack.append((_LAM, t.binder))
                    t = t.body
            else:
                break
        while True:  # up, to the next argument to start
            if not stack:
                return Status.NORMAL_FORM, t, steps
            frame = stack.pop()
            if type(frame) is not tuple:  # an argument; t is no lambda: the down pass contracts those
                size = frame.size
                stack.append((_ARGDONE, t, size))
                same = open_args.setdefault(size, [])
                for m in same:
                    if alpha_eq(m, frame):
                        return Status.NO_NORMAL_FORM, _rebuild(frame, stack), steps
                same.append(frame)
                t = frame
                break
            tag = frame[0]
            if tag == _ARGDONE:
                open_args[frame[2]].pop()
                t = App(frame[1], t)
            elif tag == _LAM:
                binder = frame[1]
                if (eta and type(t) is App and type(t.arg) is Var and t.arg.name == binder
                        and not may_mention(t.fun, binder)):
                    t = t.fun  # an eta-redex: t.fun is beta-normal, so no lambda
                else:
                    t = Lam(binder, t)
            # an update frame is dropped: a variable head reduces its App to no lambda


def _rebuild(t: Term, stack: list) -> Term:
    """The term t in the context of stack's frames (or t applied to a list of arguments)."""
    for frame in reversed(stack):
        if type(frame) is not tuple:
            t = App(t, frame)
        elif frame[0] == _ARGDONE:
            t = App(frame[1], t)
        elif frame[0] == _LAM:
            t = Lam(frame[1], t)
    return t


def step_once(t: Term) -> Term | None:
    """Contract the leftmost-outermost beta-redex; None if t is beta-normal."""
    cls = type(t)
    if cls is App:
        if type(t.fun) is Lam:
            return substitute(t.fun.body, t.fun.binder, t.arg)
        s = step_once(t.fun)
        if s is not None:
            return App(s, t.arg)
        s = step_once(t.arg)
        return None if s is None else App(t.fun, s)
    if cls is Lam:
        s = step_once(t.body)
        return None if s is None else Lam(t.binder, s)
    return None


def trace(t: Term, env=None, cfg: ReductionConfig = DEFAULT_CONFIG) -> list[Term]:
    """The normal-order reduction sequence from t, up to normal form, fuel, or
    the first reduct larger than the size limit (the last term, as in
    ``normalize``)."""
    t = expand_consts(t, env)
    out = [t]
    for _ in range(cfg.fuel):
        nxt = step_once(t)
        if nxt is None:
            break
        t = nxt
        out.append(t)
        if t.size > cfg.max_term_size:
            break
    return out


def verdict(ra: ReductionOutcome, rb: ReductionOutcome) -> Verdict:
    """The verdict on a = b from the normalize outcomes ra and rb of its sides.

    EQUAL when the normal forms cfg asked for are alpha-equal.  NOT_EQUAL when
    they differ, and also when one side is certified to have no normal form and
    the other has one: by Church-Rosser and eta-postponement, a term
    beta-eta-equal to a normal form has a beta-normal form itself.  UNKNOWN when
    either side ran out of fuel or size, or when both sides have no normal form.
    """
    decided = (Status.NORMAL_FORM, Status.NO_NORMAL_FORM)
    if (ra.status not in decided or rb.status not in decided
            or ra.status is rb.status is Status.NO_NORMAL_FORM):
        return Verdict.UNKNOWN
    if ra.status is not rb.status or not alpha_eq(ra.result, rb.result):
        return Verdict.NOT_EQUAL
    return Verdict.EQUAL


def beta_eta_equal(a: Term, b: Term, env=None, cfg: ReductionConfig = DEFAULT_CONFIG) -> Verdict:
    """The ``verdict`` on a = b, on beta-equality if not ``cfg.eta`` (no command
    asks for that); b is not reduced when a stops at a limit."""
    ra = normalize(a, env, cfg)
    if ra.status in (Status.FUEL_EXHAUSTED, Status.SIZE_EXCEEDED):
        return Verdict.UNKNOWN
    return verdict(ra, normalize(b, env, cfg))


class ReachResult(namedtuple("ReachResult", "found inconclusive explored generated",
                             defaults=(False, 0, 0))):
    """Outcome of a bounded standard-reduction search (see ``reduces_to``).

    found        -- the target is reached
    inconclusive -- not found, and a cap was hit somewhere in the search
    explored     -- (term, target) pairs searched
    generated    -- weak-head steps taken, summed over all chains
    """

    __slots__ = ()


def reduces_to(a: Term, target: Term, env=None, node_cap: int = 100_000, depth_cap: int = 200) -> ReachResult:
    """Does a reduce (in any order) to the target, up to alpha?

    By standardization, m ->> n iff m weak-head reduces to a term with n's top
    constructor whose parts reduce to n's parts.  So each (term, target) pair
    follows one weak-head chain, and matches its terms against the target at
    the start and after each contraction at the top: a match after a step
    inside the function part is already implied by the match before it.
    Every part searched is a proper subterm of the target, so no pair is
    revisited while it is in progress.  A chain ends at a weak-head normal
    form or at a term alpha-equal to an earlier one of the chain (its matches
    repeat from there); ``depth_cap`` weak-head steps end it inconclusively,
    as do ``node_cap`` pairs the whole search.

    Two lambdas' bodies are searched as they stand, with no renaming: the
    maps ea and eb bind each binder in scope on their side to its lambda's
    depth, as in ``terms._alpha``, which puts them back.  A chain term meets
    its target only at equal size.  One chain shares one scope, so its loop
    test is plain ``alpha_eq``.  Off whnf the leftmost-outermost redex is the
    head redex, so a weak-head step is ``step_once``.
    """
    a = expand_consts(a, env)
    target = expand_consts(target, env)
    explored = generated = 0
    inconclusive = False

    def reach(m: Term, n: Term, ea: dict, eb: dict, depth: int) -> bool:
        nonlocal explored, generated, inconclusive
        if explored >= node_cap:
            inconclusive = True
            return False
        explored += 1
        seen: dict[int, list[Term]] = {}  # size -> chain terms of that size
        match = True
        for steps in range(depth_cap + 1):
            if match:
                if m.size == n.size and _alpha(m, n, ea, eb, depth):
                    return True
                cls = type(m)
                if cls is type(n):
                    if cls is Lam:
                        return reach(m.body, n.body, {**ea, m.binder: depth}, {**eb, n.binder: depth}, depth + 1)
                    if cls is App and reach(m.fun, n.fun, ea, eb, depth) and reach(m.arg, n.arg, ea, eb, depth):
                        return True
            same = seen.setdefault(m.size, [])
            for s in same:
                if alpha_eq(m, s):
                    return False
            same.append(m)
            head = m
            while type(head) is App:
                head = head.fun
            if type(head) is not Lam or head is m:
                return False
            if steps == depth_cap:
                inconclusive = True
                return False
            match = m.fun is head  # the step contracts at the top
            m = step_once(m)
            generated += 1

    found = reach(a, target, {}, {}, 0)
    return ReachResult(found, inconclusive and not found, explored, generated)
