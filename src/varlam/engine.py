"""Fuel-bounded normal-order reduction and the equivalences built on it.

``normalize`` contracts the leftmost-outermost beta-redex until no redex
remains and (by default) erases each eta-redex as it builds the normal form,
yielding a canonical beta-eta-normal form in one walk.  Fuel counts
beta-steps only: an App reached again replays the weak-head reduct recorded
in ``App.whnf`` and adds the steps it took, and a contraction met again
within one call reuses its reduct, so the count is normal order's.  It stops
early with ``NO_NORMAL_FORM`` when an argument it starts to normalize is
alpha-equal to an argument it is still normalizing (see ``_beta_normalize``).

``trace`` is an independent, deliberately naive implementation of the same
strategy (one global leftmost-outermost step at a time); the test suite holds
the two implementations to the same answers.

``reduces_to`` decides reachability M ->> N by standardization: it follows
weak-head chains on the same named terms, with ``substitute`` and
``alpha_eq``, and never branches over all redexes.
"""

from __future__ import annotations

import gc
from collections import namedtuple
from enum import Enum

from .terms import App, Lam, Term, Var, alpha_eq, expand_consts, free_set, fresh_name, gc_paused, substitute


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


_FUN, _ARGDONE, _LAM = 0, 1, 2
_CHAIN = 4  # pending Apps per stack depth, each a reduct of the one before
# Contractions memoized per call before the memo starts afresh: a reduction
# that never repeats a contraction would otherwise hold every reduct it made.
# The largest memo of `check --max-n 10` holds 8,785.
_MEMO_CAP = 1 << 16
# A memo reset collects only once more objects than this were built since
# the last collection: a full collection walks every live object.
_KNOT_SWEEP = 1 << 16


def _beta_normalize(t: Term, fuel: int, max_size: int, eta: bool):
    """Iterative leftmost-outermost machine over an explicit context stack.

    Normal order starts on an argument N only once the head of its spine is a
    variable, so from then on every frame on the stack is final: the normal
    form of the whole term, if any, contains NF(N).  An argument is open from
    that start until its ``_ARGDONE`` frame is popped.  If N is alpha-equal to
    an open argument M, NF(M) would contain NF(N) = NF(M) as a proper subterm,
    so neither has a normal form: the regress is certified ``NO_NORMAL_FORM``.

    Weak-head reducts are shared (Wadsworth's graph reduction, on the named
    terms): an App M entered at stack depth d is pending until its reduct is
    a lambda at depth d, when M.whnf records that lambda, the steps taken and
    the peak of M's reduct sizes; a variable head drops every pending App.
    M's weak-head reduction neither depends on its context nor starts an
    argument, so reaching M again (a copy of a duplicated argument) adds the
    recorded steps and resumes at the lambda, unless fuel or size would run
    out on the way: then M is reduced for real, to stop where normal order
    does.  Steps, stops and results are normal order's.  Not recorded: a
    reduct substitute has just built, and an App at a depth that already has
    ``_CHAIN`` pending (a head loop would otherwise keep one App per step).
    The memo can hand a fresh reduct out again, so skipping it is a measured
    choice, not a necessity: recording it too made a perfbench ``normalize``
    run slower in 7 of 11 alternating pairs of 5 s runs, median ``wall_cal``
    800 against 787 (2 vCPUs, Python 3.11).

    Contractions are shared too: normal order applies the same lambda object
    to the same argument object again and again (a duplicated closure is
    read back once per copy), and ``substitute`` is a pure function of its
    three objects.  So ``contracted``, local to this call, maps the pair
    ``(lam, arg)`` to the reduct, and a hit reuses it.  Terms define no
    ``__eq__``, so the pair hashes and compares by identity, and it holds
    both objects alive while it is a key.  Every step is still counted and
    checked against fuel and size.  The memo is emptied at ``_MEMO_CAP``
    entries and dies on return.  Every term this call builds is a reduct in
    the memo or inside one, so the memo holds each ``whnf`` knot alive until
    it is emptied.  The collector is paused (``terms.gc_paused``), so a reset
    runs a full collection to free the knots that died, once ``_KNOT_SWEEP``
    objects were built since the last one.

    With ``eta`` the up pass erases an eta-redex lam x.(P x), x not free in
    P, post-order, where it would build its Lam.  P is beta-normal, so no
    lambda, and a ``_LAM`` frame never lies on a ``_FUN`` frame: the erasure
    makes no beta-redex.  The down pass never sees it, so steps and statuses
    do not depend on ``eta``.
    """
    stack: list = []
    open_args: dict[int, list[Term]] = {}  # size -> open arguments of that size
    open_sizes: list[int] = []  # sizes of the open arguments, innermost last
    pending: list = []  # [App, depth, steps, context size, peak], innermost last
    contracted: dict[tuple, Term] = {}  # (lam, arg) -> the redex's reduct
    top = -1  # stack depth of the innermost pending App
    peak = 0  # largest total since the innermost pending App was entered
    built = None  # the reduct substitute has just built: not recorded (see above)
    total = t.size
    steps = 0
    down = True
    while True:
        if down:
            cls = t.__class__
            if cls is App:
                shared = t.whnf
                if shared is None:
                    depth = len(stack)
                    if t is not built and (len(pending) < _CHAIN or pending[-_CHAIN][1] != depth):
                        if pending:
                            pending[-1][4] = peak
                        pending.append([t, depth, steps, total - t.size, 0])
                        top = depth
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
                stack.append((_FUN, t.arg))
                t = t.fun
            elif cls is Lam:
                depth = len(stack)
                while top == depth:  # t is the weak-head normal form of these Apps
                    node, _, start, context, _ = pending.pop()
                    node.whnf = (t, steps - start, peak - context)
                    if pending:
                        below = pending[-1]
                        top = below[1]
                        if below[4] > peak:
                            peak = below[4]
                    else:
                        top = -1
                if stack and stack[-1][0] == _FUN:
                    if steps >= fuel:
                        return Status.FUEL_EXHAUSTED, _rebuild(t, stack), steps
                    _, arg = stack.pop()
                    total -= 1 + t.size + arg.size  # the redex App(t, arg)
                    key = (t, arg)
                    reduct = contracted.get(key)
                    if reduct is None:
                        body = t.body
                        reduct = substitute(body, t.binder, arg)
                        if len(contracted) == _MEMO_CAP:
                            contracted.clear()
                            if gc.get_count()[0] > _KNOT_SWEEP:
                                gc.collect()
                        contracted[key] = reduct
                        built = reduct if reduct is not body and reduct is not arg else None
                    else:
                        built = None
                    t = reduct
                    total += t.size
                    steps += 1
                    if total > max_size:
                        return Status.SIZE_EXCEEDED, _rebuild(t, stack), steps
                    if total > peak:
                        peak = total
                else:
                    stack.append((_LAM, t.binder))
                    t = t.body
            else:
                if pending:  # a variable head: no pending App reduces to a lambda
                    pending.clear()
                    top = -1
                down = False
        else:
            if not stack:
                return Status.NORMAL_FORM, t, steps
            tag, payload = stack.pop()
            if tag == _FUN:  # t is no lambda: the down pass contracts those
                stack.append((_ARGDONE, t))
                size = payload.size
                same = open_args.setdefault(size, [])
                for m in same:
                    if alpha_eq(m, payload):
                        return Status.NO_NORMAL_FORM, _rebuild(payload, stack), steps
                same.append(payload)
                open_sizes.append(size)
                t = payload
                down = True
            elif tag == _ARGDONE:
                open_args[open_sizes.pop()].pop()
                t = App(payload, t)
            elif (eta and t.__class__ is App and t.arg.__class__ is Var and t.arg.name == payload
                  and payload not in free_set(t.fun)):
                t = t.fun  # an eta-redex: t.fun is beta-normal, so no lambda
            else:
                t = Lam(payload, t)


def _rebuild(t: Term, stack: list) -> Term:
    for tag, payload in reversed(stack):
        if tag == _FUN:
            t = App(t, payload)
        elif tag == _ARGDONE:
            t = App(payload, t)
        else:
            t = Lam(payload, t)
    return t


def step_once(t: Term) -> Term | None:
    """Contract the leftmost-outermost beta-redex; None if t is beta-normal."""
    cls = t.__class__
    if cls is App:
        if t.fun.__class__ is Lam:
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

    EQUAL when the beta-eta-normal forms are alpha-equal.  NOT_EQUAL when they
    differ, and also when one side is certified to have no normal form and the
    other has one: by Church-Rosser and eta-postponement, a term beta-eta-equal
    to a normal form has a beta-normal form itself.  UNKNOWN when either side
    ran out of fuel or size, or when both sides have no normal form.
    """
    decided = (Status.NORMAL_FORM, Status.NO_NORMAL_FORM)
    if (ra.status not in decided or rb.status not in decided
            or ra.status is rb.status is Status.NO_NORMAL_FORM):
        return Verdict.UNKNOWN
    if ra.status is not rb.status or not alpha_eq(ra.result, rb.result):
        return Verdict.NOT_EQUAL
    return Verdict.EQUAL


def beta_eta_equal(a: Term, b: Term, env=None, cfg: ReductionConfig = DEFAULT_CONFIG) -> Verdict:
    """The ``verdict`` on a = b; b is not reduced when a stops at a limit."""
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


def _weak_head_step(t: Term):
    """(reduct, contracted at the top) of t's weak-head redex; None at whnf.

    Off whnf the leftmost-outermost redex is the head redex, so this is
    ``step_once``.
    """
    head = t
    while head.__class__ is App:
        head = head.fun
    if head.__class__ is not Lam or head is t:
        return None
    return step_once(t), t.fun is head


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
    """
    a = expand_consts(a, env)
    target = expand_consts(target, env)
    explored = generated = 0
    inconclusive = False

    def reach(m: Term, n: Term) -> bool:
        nonlocal explored, generated, inconclusive
        if explored >= node_cap:
            inconclusive = True
            return False
        explored += 1
        seen: dict[int, list[Term]] = {}  # size -> chain terms of that size
        match = True
        for steps in range(depth_cap + 1):
            if match:
                if alpha_eq(m, n):
                    return True
                cls = m.__class__
                if cls is n.__class__:
                    if cls is Lam:
                        return reach(*_common_binder(m, n))
                    if cls is App and reach(m.fun, n.fun) and reach(m.arg, n.arg):
                        return True
            same = seen.setdefault(m.size, [])
            if any(alpha_eq(m, s) for s in same):
                return False
            same.append(m)
            step = _weak_head_step(m)
            if step is None:
                return False
            if steps == depth_cap:
                inconclusive = True
                return False
            m, match = step
            generated += 1

    found = reach(a, target)
    return ReachResult(found, inconclusive and not found, explored, generated)


def _common_binder(m: Lam, n: Lam) -> tuple[Term, Term]:
    """The bodies of m and n with both binders renamed to one name."""
    x, y = m.binder, n.binder
    if x == y:
        return m.body, n.body
    if y not in free_set(m):
        return substitute(m.body, x, Var(y)), n.body
    z = Var(fresh_name(y, free_set(m.body) | free_set(n.body)))
    return substitute(m.body, x, z), substitute(n.body, y, z)
