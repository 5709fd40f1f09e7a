"""Fuel-bounded normal-order reduction and the equivalences built on it.

``normalize`` contracts the leftmost-outermost beta-redex until no redex
remains, then (by default) erases eta-redexes in a single uncounted post-pass,
yielding a canonical beta-eta-normal form.  Fuel counts beta-steps only.  It
stops early with ``NO_NORMAL_FORM`` when an argument it starts to normalize
is alpha-equal to an argument it is still normalizing (see ``_beta_normalize``).

``trace`` is an independent, deliberately naive implementation of the same
strategy (one global leftmost-outermost step at a time); the test suite holds
the two implementations to the same answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .terms import App, Lam, Term, UnexpandedConstant, Var, alpha_eq, expand_consts, substitute
from .terms import _first_const


class Status(Enum):
    NORMAL_FORM = "normal-form"
    FUEL_EXHAUSTED = "fuel-exhausted"
    SIZE_EXCEEDED = "size-exceeded"
    NO_NORMAL_FORM = "no-normal-form"


@dataclass(frozen=True)
class ReductionConfig:
    fuel: int = 1_000_000
    max_term_size: int = 1_000_000
    eta: bool = True


DEFAULT_CONFIG = ReductionConfig()


@dataclass
class ReductionOutcome:
    status: Status
    result: Term
    steps: int


class Verdict(Enum):
    EQUAL = "EQUAL"
    NOT_EQUAL = "NOT-EQUAL"
    UNKNOWN = "UNKNOWN"


def _prepare(t: Term, env) -> Term:
    if not t.has_const:
        return t
    if env is None:
        raise UnexpandedConstant(_first_const(t))
    return expand_consts(t, env)


def normalize(t: Term, env=None, cfg: ReductionConfig = DEFAULT_CONFIG) -> ReductionOutcome:
    """Reduce to beta(eta)-normal form, or stop on fuel / term-size limits."""
    t = _prepare(t, env)
    status, result, steps = _beta_normalize(t, cfg.fuel, cfg.max_term_size)
    if status is Status.NORMAL_FORM and cfg.eta:
        result = eta_normalize(result)
    return ReductionOutcome(status, result, steps)


_FUN, _ARGDONE, _LAM = 0, 1, 2


def _beta_normalize(t: Term, fuel: int, max_size: int):
    """Iterative leftmost-outermost machine over an explicit context stack.

    Normal order starts on an argument N only once the head of its spine is a
    variable, so from then on every frame on the stack is final: the normal
    form of the whole term, if any, contains NF(N).  An argument is open from
    that start until its ``_ARGDONE`` frame is popped.  If N is alpha-equal to
    an open argument M, NF(M) would contain NF(N) = NF(M) as a proper subterm,
    so neither has a normal form: the regress is certified ``NO_NORMAL_FORM``.
    """
    stack: list = []
    open_args: dict[int, list[Term]] = {}  # size -> open arguments of that size
    open_sizes: list[int] = []  # sizes of the open arguments, innermost last
    total = t.size
    steps = 0
    down = True
    while True:
        cls = t.__class__
        if down:
            if cls is App:
                stack.append((_FUN, t.arg))
                t = t.fun
            elif cls is Lam:
                if stack and stack[-1][0] == _FUN:
                    if steps >= fuel:
                        return Status.FUEL_EXHAUSTED, _rebuild(t, stack), steps
                    _, arg = stack.pop()
                    total -= 1 + t.size + arg.size  # the redex App(t, arg)
                    t = substitute(t.body, t.binder, arg)
                    total += t.size
                    steps += 1
                    if total > max_size:
                        return Status.SIZE_EXCEEDED, _rebuild(t, stack), steps
                else:
                    stack.append((_LAM, t.binder))
                    t = t.body
            else:
                down = False
        else:
            if not stack:
                return Status.NORMAL_FORM, t, steps
            tag, payload = stack.pop()
            if tag == _FUN:
                if cls is Lam:  # normalized function turned out to be a redex
                    stack.append((_FUN, payload))
                    down = True
                    continue
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


def eta_normalize(t: Term) -> Term:
    """Erase every eta-redex lam x.(P x) with x not free in P (post-order)."""
    cls = t.__class__
    if cls is App:
        return App(eta_normalize(t.fun), eta_normalize(t.arg))
    if cls is Lam:
        body = eta_normalize(t.body)
        if (
            body.__class__ is App
            and body.arg.__class__ is Var
            and body.arg.name == t.binder
            and t.binder not in body.fun.free
        ):
            return body.fun
        return Lam(t.binder, body) if body is not t.body else t
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
    """The normal-order reduction sequence from t, up to normal form or fuel."""
    t = _prepare(t, env)
    out = [t]
    for _ in range(cfg.fuel):
        nxt = step_once(t)
        if nxt is None:
            break
        t = nxt
        out.append(t)
    return out


def beta_eta_equal(a: Term, b: Term, env=None, cfg: ReductionConfig = DEFAULT_CONFIG) -> Verdict:
    """Compare beta-eta-normal forms.

    NOT_EQUAL also when one side is certified to have no normal form and the
    other has one: by Church-Rosser and eta-postponement, a term beta-eta-equal
    to a normal form has a beta-normal form itself.  UNKNOWN when either side
    runs out of fuel or size, or when both sides have no normal form.
    """
    decided = (Status.NORMAL_FORM, Status.NO_NORMAL_FORM)
    ra = normalize(a, env, cfg)
    if ra.status not in decided:
        return Verdict.UNKNOWN
    rb = normalize(b, env, cfg)
    if rb.status not in decided or ra.status is rb.status is Status.NO_NORMAL_FORM:
        return Verdict.UNKNOWN
    if ra.status is not rb.status or not alpha_eq(ra.result, rb.result):
        return Verdict.NOT_EQUAL
    return Verdict.EQUAL


def one_step_reducts(t: Term) -> list[Term]:
    """All single-step beta-reducts of t (every redex position)."""
    out = []
    cls = t.__class__
    if cls is App:
        if t.fun.__class__ is Lam:
            out.append(substitute(t.fun.body, t.fun.binder, t.arg))
        for s in one_step_reducts(t.fun):
            out.append(App(s, t.arg))
        for s in one_step_reducts(t.arg):
            out.append(App(t.fun, s))
    elif cls is Lam:
        for s in one_step_reducts(t.body):
            out.append(Lam(t.binder, s))
    return out


@dataclass
class ReachResult:
    """Outcome of a bounded reachability search in the beta-reduction graph.

    found        -- a term alpha-equal to the target was visited
    inconclusive -- a cap was hit before the graph was exhausted
    explored     -- number of distinct terms visited
    generated    -- one-step reducts generated, summed over the terms expanded
    """

    found: bool
    inconclusive: bool = False
    explored: int = 0
    generated: int = 0

    def __bool__(self):
        return self.found


# Key tags of the nodes of a _DeBruijnTable.
_BOUND, _FREE, _ABS, _APPL = range(4)


class _DeBruijnTable:
    """Hash-consed nameless terms for one reachability search.

    A node is an int id.  Bound variables are de Bruijn indices and free
    variables keep their names, so alpha-equal terms get the same key and
    hence the same id.  ``loose[i]`` is one more than the highest loose index
    of node i (0 if it has none): shifting and substitution return a subterm
    whose loose indices all lie below the cutoff untouched.  Reducts are cached
    per id for the life of the table.
    """

    def __init__(self):
        self.ids: dict = {}
        # id -> key: (_BOUND, index) | (_FREE, name) | (_ABS, body) | (_APPL, fun, arg)
        self.nodes: list = []
        self.loose: list[int] = []
        self._reducts: dict[int, list[int]] = {}

    def _node(self, key: tuple, loose: int) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.nodes)
            self.nodes.append(key)
            self.loose.append(loose)
        return i

    def bound(self, index: int) -> int:
        return self._node((_BOUND, index), index + 1)

    def lam(self, body: int) -> int:
        n = self.loose[body]
        return self._node((_ABS, body), n - 1 if n else 0)

    def app(self, fun: int, arg: int) -> int:
        return self._node((_APPL, fun, arg), max(self.loose[fun], self.loose[arg]))

    def intern(self, t: Term) -> int:
        """Id of a constant-free named term."""
        scope: dict[str, int] = {}  # binder name -> depth of its innermost binder

        def go(u: Term, depth: int) -> int:
            cls = u.__class__
            if cls is Var:
                level = scope.get(u.name)
                if level is None:
                    return self._node((_FREE, u.name), 0)
                return self.bound(depth - 1 - level)
            if cls is Lam:
                outer = scope.get(u.binder)
                scope[u.binder] = depth
                body = go(u.body, depth + 1)
                if outer is None:
                    del scope[u.binder]
                else:
                    scope[u.binder] = outer
                return self.lam(body)
            return self.app(go(u.fun, depth), go(u.arg, depth))

        return go(t, 0)

    def contract(self, body: int, arg: int) -> int:
        """Id of the reduct of the redex (lam. body) arg."""
        nodes, loose = self.nodes, self.loose
        shifted: dict = {}
        substituted: dict = {}

        def shift(t: int, by: int, cutoff: int) -> int:
            if loose[t] <= cutoff:
                return t
            memo = (t, by, cutoff)
            done = shifted.get(memo)
            if done is None:
                key = nodes[t]
                tag = key[0]
                if tag == _BOUND:
                    done = self.bound(key[1] + by)
                elif tag == _ABS:
                    done = self.lam(shift(key[1], by, cutoff + 1))
                else:
                    done = self.app(shift(key[1], by, cutoff), shift(key[2], by, cutoff))
                shifted[memo] = done
            return done

        def subst(t: int, depth: int) -> int:
            # index `depth` becomes arg (shifted under `depth` binders);
            # the indices above it lose the binder being contracted
            if loose[t] <= depth:
                return t
            memo = (t, depth)
            done = substituted.get(memo)
            if done is None:
                key = nodes[t]
                tag = key[0]
                if tag == _BOUND:
                    done = shift(arg, depth, 0) if key[1] == depth else self.bound(key[1] - 1)
                elif tag == _ABS:
                    done = self.lam(subst(key[1], depth + 1))
                else:
                    done = self.app(subst(key[1], depth), subst(key[2], depth))
                substituted[memo] = done
            return done

        return subst(body, 0)

    def reducts(self, t: int) -> list[int]:
        """Ids of the one-step reducts of node t, in ``one_step_reducts`` order."""
        out = self._reducts.get(t)
        if out is not None:
            return out
        key = self.nodes[t]
        tag = key[0]
        if tag == _ABS:
            out = [self.lam(s) for s in self.reducts(key[1])]
        elif tag == _APPL:
            _, f, x = key
            fun = self.nodes[f]
            out = [self.contract(fun[1], x)] if fun[0] == _ABS else []
            out += [self.app(s, x) for s in self.reducts(f)]
            out += [self.app(f, s) for s in self.reducts(x)]
        else:
            out = []
        self._reducts[t] = out
        return out


def reduces_to(a: Term, target: Term, env=None, node_cap: int = 100_000, depth_cap: int = 200) -> ReachResult:
    """Breadth-first search: does a reduce (in any order) to the target?

    Terms are compared up to alpha through the ids of a table that lives only
    for this call.
    """
    a = _prepare(a, env)
    target = _prepare(target, env)
    table = _DeBruijnTable()
    start = table.intern(a)
    goal = table.intern(target)
    if start == goal:
        return ReachResult(True, explored=1)
    seen = {start}
    frontier = [start]
    capped = False
    generated = 0
    for _ in range(depth_cap):
        if not frontier:
            return ReachResult(False, inconclusive=capped, explored=len(seen), generated=generated)
        nxt = []
        for t in frontier:
            reducts = table.reducts(t)
            generated += len(reducts)
            for r in reducts:
                if r in seen:
                    continue
                if r == goal:
                    return ReachResult(True, explored=len(seen) + 1, generated=generated)
                if len(seen) >= node_cap:
                    capped = True
                    continue
                seen.add(r)
                nxt.append(r)
        frontier = nxt
    return ReachResult(False, inconclusive=capped or bool(frontier), explored=len(seen),
                       generated=generated)

