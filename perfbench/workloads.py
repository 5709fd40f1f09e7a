"""The four benchmark workloads, generated from a seed.

Each workload is a list of queries.  A query calls the library once through
its public surface (``varlam`` plus ``meta.build``/``meta.expand``,
``bracket.turner``/``extended_bound`` and ``church``/``unchurch``) and
returns a raw result; ``answer`` maps that result to the value compared with
the known answer ``expect``, and ``counts`` to the machine-independent
numbers that must repeat exactly from pass to pass.

The module looks every library function up at call time (``V.parse``, not a
name bound at import), so the tracer can wrap it by rebinding the attribute.

Known answers come from outside the reducer under test: Boehm's theorem that
the Curry-style combinators reduce to the Turing-style ones (``reach``), the
fact that fixed-point combinators have no normal form (``diverge``), the
syntactic family oracles of ``meta`` (``normalize``), and alpha-equality of
round trips plus the Turner and extended-abstraction goldens (``syntax``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

import varlam as V
from varlam import bracket, church as C, meta

WORKLOADS = ("reach", "diverge", "normalize", "syntax")

# Caps of the Boehm reachability queries in ``varlam check``.
REACH_NODE_CAP = 100_000
REACH_DEPTH_CAP = 200
# Fuel and size of the upgrade probe on the fixed-point entries.
DIVERGE_CFG = V.ReductionConfig(fuel=20_000, max_term_size=1_000_000)
# Arities of the normalizing check suites, raised from the gate's 3.
NORMALIZE_MAX_N = 5
# Statuses that stop the reducer without a verdict.
UNDECIDED_STATUSES = ("fuel-exhausted", "size-exceeded")


@dataclass
class Query:
    label: str
    run: Callable[[], Any]
    expect: Any
    answer: Callable[[Any], Any] = lambda r: r
    counts: Callable[[Any], tuple] = lambda r: ()
    decided: Callable[[Any], bool] = lambda r: True
    # The term whose beta-normal form is cross-checked against engine.trace.
    term: Any = field(default=None, repr=False)


def build(name: str, seed: int, env, tiny: bool = False) -> list[Query]:
    """The query list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{name}:{seed}")
    queries = _BUILDERS[name](rng, env, tiny)
    rng.shuffle(queries)
    return queries


# -- term helpers ------------------------------------------------------------------


def _apply(f, *args):
    for a in args:
        f = V.App(f, a)
    return f


def _lams(binders, body):
    for b in reversed(binders):
        body = V.Lam(b, body)
    return body


def _rename(t, rng):
    """An alpha-variant of t whose binders all get distinct seeded names."""
    avoid = V.free_vars(t)
    used = set()

    def fresh(base):
        while True:
            name = f"{base[0]}{rng.randrange(10_000)}"
            if name not in avoid and name not in used:
                used.add(name)
                return name

    def go(u, ren):
        if isinstance(u, V.Var):
            return V.Var(ren.get(u.name, u.name))
        if isinstance(u, V.App):
            return V.App(go(u.fun, ren), go(u.arg, ren))
        if isinstance(u, V.Lam):
            new = fresh(u.binder)
            return V.Lam(new, go(u.body, {**ren, u.binder: new}))
        return u

    return go(t, {})


def _num(n, rng):
    return _rename(C.church(n), rng)


def _lambda_free(t) -> bool:
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, V.Lam):
            return False
        if isinstance(u, V.App):
            stack.append(u.fun)
            stack.append(u.arg)
    return True


def random_term(rng, size: int, bound: list[str], free: tuple[str, ...] = (),
                consts: tuple[str, ...] = ()):
    """A term of exactly ``size`` nodes over the names in scope.

    Binders come from a pool of four letters so that shadowing and capture
    occur; leaves are bound variables, the given free variables or constants.
    """
    if size == 1:
        pool = bound + list(free)
        if consts and (not pool or rng.random() < 0.2):
            return V.Const(rng.choice(consts))
        return V.Var(rng.choice(pool))
    if size == 2 or rng.random() < 0.35:
        binder = rng.choice("abcd")
        return V.Lam(binder, random_term(rng, size - 1, bound + [binder], free, consts))
    left = rng.randint(1, size - 2)
    return V.App(random_term(rng, left, bound, free, consts),
                 random_term(rng, size - 1 - left, bound, free, consts))


def _sizes(count: int, low: int, high: int) -> list[int]:
    """Term sizes spread evenly over [low, high]: the seed draws the shapes,
    not the sizes, so that every seed asks for about the same work."""
    return [low + (high - low) * i // max(count - 1, 1) for i in range(count)]


def _verdict_query(label, lhs, rhs_builder, env, rng, expect="EQUAL"):
    """beta-eta equality against a right-hand side built inside the query."""
    lhs = _rename(lhs, rng)
    return Query(
        label,
        run=lambda: V.beta_eta_equal(lhs, rhs_builder(), env),
        expect=expect,
        answer=lambda r: r.value,
        decided=lambda r: r.value != "UNKNOWN",
        term=lhs,
    )


# -- reach ---------------------------------------------------------------------------


def _reach(rng, env, tiny):
    queries = []
    for n, k in ((1, 1),) if tiny else ((1, 1), (2, 1), (2, 2)):
        steps = [meta.build("boehm", n, j) for j in range(1, n + 1)]
        lhs = _rename(_apply(meta.build("ycurry", n, k), *steps), rng)
        target = _rename(meta.build("yturing", n, k), rng)
        queries.append(Query(
            f"reduces-to k={k} n={n}",
            run=lambda lhs=lhs, target=target: V.reduces_to(
                lhs, target, env, REACH_NODE_CAP, REACH_DEPTH_CAP),
            expect=True,
            answer=lambda r: r.found,
            counts=lambda r: (r.explored,),
            decided=lambda r: r.found or not r.inconclusive,
        ))
    return queries


# -- diverge -------------------------------------------------------------------------


def _diverge(rng, env, tiny):
    queries = []
    for n in range(1, 2 if tiny else 4):
        for k in range(1, n + 1):
            terms = {
                "VarPhi": _apply(V.Const("VarPhi"), _num(k, rng), _num(n, rng)),
                "VarPsi": _apply(V.Const("VarPsi"), _num(k, rng), _num(n, rng)),
                "ycurry": _rename(meta.build("ycurry", n, k), rng),
                "yturing": _rename(meta.build("yturing", n, k), rng),
            }
            for label, t in terms.items():
                queries.append(Query(
                    f"{label} k={k} n={n}",
                    run=lambda t=t: V.normalize(t, env, DIVERGE_CFG),
                    expect="no-normal-form",
                    answer=lambda r: "normal-form" if r.status is V.Status.NORMAL_FORM
                    else "no-normal-form",
                    counts=lambda r: (r.status.value, r.steps, V.size(r.result)),
                    decided=lambda r: r.status.value not in UNDECIDED_STATUSES,
                ))
    return queries


# -- normalize -----------------------------------------------------------------------

# Library entry -> (family oracle in meta, takes an index k).
FAMILY_ENTRIES = {
    "VarI": ("I", False), "VarK": ("K", False), "VarS": ("S", False),
    "VarB": ("B", False), "VarBalt": ("B", False), "VarC": ("C", False),
    "VarCalt": ("C", False), "VarSel": ("sel", True), "VarProj": ("proj", True),
    "VarTup": ("tup", False), "VarRightApp": ("rightapp", False),
    "VarRev": ("rev", False), "VarMap": ("map", False), "VarM": ("boehm", True),
}
NEGATIVE_ENTRIES = ("VarK", "VarS", "VarB", "VarC")
EVEN = r"\e o m. Zero m True  (o (Pred m))"
ODD = r"\e o m. Zero m False (e (Pred m))"
MAKEX_BASIS = ("K", "S", "B", "C", "I")
TURNER_CORPUS = 60
TURNER_FUEL = 2_000
ARITHMETIC = 30


def _xs(n, base):
    return [V.Var(f"{base}{i}") for i in range(1, n + 1)]


def _generators(n):
    """F_j = lam y1...yn. c_j, whose fixed point is c_j itself."""
    return [_lams([f"y{i}" for i in range(1, n + 1)], C.church(j)) for j in range(1, n + 1)]


def _normalize(rng, env, tiny):
    max_n = 1 if tiny else NORMALIZE_MAX_N
    qs = []

    def q(label, lhs, rhs_builder, expect="EQUAL"):
        qs.append(_verdict_query(label, lhs, rhs_builder, env, rng, expect))

    for name, (fam, has_k) in FAMILY_ENTRIES.items():
        for n in range(max_n + 1):
            for k in range(1, n + 1) if has_k else (None,):
                idx = (_num(k, rng),) if has_k else ()
                q(f"{name} k={k} n={n}", _apply(V.Const(name), *idx, _num(n, rng)),
                  lambda fam=fam, n=n, k=k: meta.build(fam, n, k))

    # Negative controls: K_n, S_n, B_n and C_n differ from their n+1 members.
    for name in NEGATIVE_ENTRIES:
        for n in range(max_n):
            q(f"{name} n={n} vs n+1", _apply(V.Const(name), _num(n, rng)),
              lambda fam=FAMILY_ENTRIES[name][0], n=n: meta.build(fam, n + 1), "NOT-EQUAL")

    for n in range(max_n + 1):
        xs = _xs(n, "a")
        q(f"Apply n={n}", _apply(V.Const("Apply"), V.Var("f"), C.tuple_of(xs)),
          lambda xs=xs: _apply(V.Var("f"), *xs))
        q(f"VarExtend n={n}", _apply(V.Const("VarExtend"), _num(n, rng), C.tuple_of(xs), V.Var("b")),
          lambda xs=xs: C.tuple_of(xs + [V.Var("b")]))
        q(f"Iota n={n}", _apply(V.Const("Iota"), _num(n, rng)),
          lambda n=n: C.tuple_of([C.church(i) for i in range(n)]))
        for m in range(max_n + 1):
            ys = _xs(m, "b")
            q(f"Catenate n={n} k={m}",
              _apply(V.Const("Catenate"), _num(n, rng), C.tuple_of(xs), _num(m, rng), C.tuple_of(ys)),
              lambda xs=xs, ys=ys: C.tuple_of(xs + ys))
    for n in range(2, max(max_n, 2) + 1):
        basis = [V.Const(c) for c in MAKEX_BASIS[:n]]
        x = _apply(V.Const("VarMakeX"), _num(n, rng), *basis)
        for k in range(1, n + 1):
            q(f"VarMakeX n={n} recover E{k}", V.App(x, _apply(*[x] * (k + 1))),
              lambda e=basis[k - 1]: e)

    even, odd = V.parse(EVEN, env), V.parse(ODD, env)

    def truth(b):
        return lambda: V.Const("True" if b else "False")

    for name in ("VarPhi", "VarPsi"):
        for n in range(1, max_n + 1):
            for k in range(1, n + 1):
                q(f"{name} constant-probe k={k} n={n}",
                  _apply(V.Const(name), _num(k, rng), _num(n, rng), *_generators(n)),
                  lambda k=k: C.church(k))
        for m in range(7 if not tiny else 2):
            q(f"{name} even? {m}", _apply(V.Const(name), _num(1, rng), _num(2, rng), even, odd, _num(m, rng)),
              truth(m % 2 == 0))
            q(f"{name} odd? {m}", _apply(V.Const(name), _num(2, rng), _num(2, rng), even, odd, _num(m, rng)),
              truth(m % 2 == 1))
    for name in ("Ystar", "YstarCurried"):
        def ystar(n, gens, name=name):
            if name == "Ystar":
                return _apply(V.Const("Ystar"), _num(n, rng), C.tuple_of(gens))
            return _apply(V.Const("YstarCurried"), _num(n, rng), *gens)

        for n in range(1, max_n + 1):
            q(f"{name} constant-probe n={n}", ystar(n, _generators(n)),
              lambda n=n: C.tuple_of([C.church(j) for j in range(1, n + 1)]))
        pair = ystar(2, [even, odd])
        for m in range(7 if not tiny else 2):
            q(f"{name} even-projection {m}",
              _apply(V.Const("VarProj"), _num(1, rng), _num(2, rng), pair, _num(m, rng)), truth(m % 2 == 0))
            q(f"{name} odd-projection {m}",
              _apply(V.Const("VarProj"), _num(2, rng), _num(2, rng), pair, _num(m, rng)), truth(m % 2 == 1))

    q("VarM 1 1 = S I", _apply(V.Const("VarM"), _num(1, rng), _num(1, rng)),
      lambda: V.App(V.Const("S"), V.Const("I")))
    for n in range(1, min(max_n, 2) + 1):
        gens = _generators(n)
        msteps = [_apply(V.Const("VarM"), _num(j, rng), _num(n, rng)) for j in range(1, n + 1)]
        for k in range(1, n + 1):
            rhs = _apply(V.Const("VarPsi"), _num(k, rng), _num(n, rng), *gens)
            q(f"chain probe k={k} n={n}",
              _apply(V.Const("VarPhi"), _num(k, rng), _num(n, rng), *msteps, *gens), lambda rhs=rhs: rhs)

    probe = V.ReductionConfig(fuel=TURNER_FUEL, max_term_size=100_000)
    corpus = []
    for size in _sizes(4 if tiny else TURNER_CORPUS, 4, 24):
        t = V.Lam("a", random_term(rng, size, ["a"]))
        while V.normalize(t, None, probe).status is not V.Status.NORMAL_FORM:
            t = V.Lam("a", random_term(rng, size, ["a"]))
        corpus.append(t)
    for i, t in enumerate(corpus):
        enc = V.expand_consts(bracket.turner(t), env)
        q(f"turner soundness #{i}", enc, lambda t=t: t)

    for i in range(2 if tiny else ARITHMETIC):
        a, b = rng.randrange(13), rng.randrange(13)
        op, want = ("Plus", a + b) if i % 2 == 0 else ("Monus", max(a - b, 0))
        t = _apply(V.Const(op), _num(a, rng), _num(b, rng))
        qs.append(Query(f"unchurch {op} {a} {b}", run=lambda t=t: C.unchurch(t, env),
                        expect=want))
    return qs


# -- syntax --------------------------------------------------------------------------

TURNER_GOLDENS = {r"\a b c. b (a b c)": "S B", r"\x. x x": "S I I", r"\x. y": "K y"}
# The registry sources of the singly-indexed families (as in ``meta``).
META_SOURCES = {
    "I": r"\x[1..n]. x[1..n]",
    "K": r"\p x[1..n]. p",
    "S": r"\p q x[1..n]. p x[1..n] (q x[1..n])",
    "B": r"\p q x[1..n]. p (q x[1..n])",
    "C": r"\p q x[1..n]. p x[1..n] q",
    "tup": r"\x[1..n] s. s x[1..n]",
    "selfapp": r"\x[1..n]. x[1..n] (x[1..n])",
}
EXTENDED_GOLDENS = {
    "I": r"\n.VarI n", "K": r"\n.VarK n", "S": r"\n.VarS n", "B": r"\n.VarB n",
    "C": r"\n.VarC n", "selfapp": r"\n.VarS n (VarI n) (VarI n)",
}
ROUNDTRIPS = 300
TURNER_TERMS = 150
NUMERALS = (1000, 1500, 2000, 2500, 3000)
CONSTS = ("I", "K", "S", "B", "C", "Succ", "Pair", "VarS")


def _alter(t):
    """t with its leftmost leaf replaced by a variable free nowhere in t."""
    if isinstance(t, V.App):
        return V.App(_alter(t.fun), t.arg)
    if isinstance(t, V.Lam):
        return V.Lam(t.binder, _alter(t.body))
    return V.Var("fresh")


def _roundtrip(t, env):
    return V.alpha_eq(V.parse(V.print_term(t), env), t)


def _numeral_roundtrip(n, env):
    c = C.church(n)
    return (V.print_term(c, sugar=True) == f"#{n}"
            and V.alpha_eq(V.parse(f"#{n}", env), c)
            and V.alpha_eq(V.parse(V.print_term(c), env), c))


def _syntax(rng, env, tiny):
    qs = []
    metas = {name: V.parse_meta(src) for name, src in META_SOURCES.items()}
    for i, size in enumerate(_sizes(3 if tiny else ROUNDTRIPS, 8, 80)):
        t = random_term(rng, size, [], ("f", "g", "x"), CONSTS)
        qs.append(Query(f"roundtrip #{i}", run=lambda t=t: _roundtrip(t, env), expect=True))
        if i % 10 == 0:  # negative control: one leaf replaced by a fresh free variable
            qs.append(Query(f"roundtrip #{i} vs altered", expect=False,
                            run=lambda t=t, u=_alter(t): V.alpha_eq(V.parse(V.print_term(t), env), u)))
    for i, size in enumerate(_sizes(2 if tiny else TURNER_TERMS, 8, 60)):
        t = V.Lam("a", random_term(rng, size, ["a"]))
        qs.append(Query(f"turner purity #{i}", run=lambda t=t: bracket.turner(t),
                        expect=True, answer=_lambda_free))
    for src, want in TURNER_GOLDENS.items():
        qs.append(Query(f"turner {src}", run=lambda src=src: V.print_term(bracket.turner(V.parse(src))),
                        expect=want))
    for name, want in EXTENDED_GOLDENS.items():
        qs.append(Query(f"extended {name}",
                        run=lambda m=metas[name]: V.print_term(bracket.extended_bound(m)),
                        expect=want))
    for name in list(metas)[:2] if tiny else metas:
        n = (3 if tiny else 300) + rng.randrange(20)
        qs.append(Query(f"expand {name} n={n}",
                        run=lambda name=name, n=n: V.alpha_eq(
                            meta.expand(metas[name], n), meta.build(name, n)),
                        expect=True))
    for base in NUMERALS[:1] if tiny else NUMERALS:
        n = (base // 100 if tiny else base) + rng.randrange(50)
        qs.append(Query(f"numeral {n}", run=lambda n=n: _numeral_roundtrip(n, env), expect=True))
    return qs


_BUILDERS = {"reach": _reach, "diverge": _diverge, "normalize": _normalize, "syntax": _syntax}
