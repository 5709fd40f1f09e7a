"""Verification suites behind the `check` command (and the acceptance tests).

``VARIADIC`` maps each library entry of variadic.lam that normalizes to the
generator of its (label, lhs, rhs) instances: a family row (VarX c_n [c_k] is
the member ``meta.build`` makes), a law row or VarMakeX's recoveries.  The
kernel arithmetic and the bracket encodings have instances too.  ``_eq_cases``
normalizes both sides under ``cfg`` and ``engine.verdict`` rules on the two
outcomes, so ``eta=False``, which no command asks for, decides beta-equality.
The ``OBSERVATIONAL`` entries, the fixed-point combinators, have no normal
form and are checked on probes whose fixed points are computable.
"""

from __future__ import annotations

import operator
import random
from collections import namedtuple
from itertools import chain, product

from . import bracket, meta
from .church import church, tuple_of
from .engine import ReductionConfig, Status, Verdict, normalize, reduces_to, verdict
from .meta import _vars, _xs
from .syntax import parse, print_term
from .terms import App, Const, Lam, Term, Var, alpha_eq, apply, lams


# -- case records, the report and equality cases ------------------------------

class CaseResult(namedtuple("CaseResult", "suite name ok detail steps inconclusive",
                            defaults=("", 0, False))):
    """One check case: passed or not (ok), with a detail for the report, the
    beta-steps it took and whether a limit stopped it (inconclusive)."""

    __slots__ = ()


def format_report(cases: list[CaseResult]) -> str:
    lines = []
    for c in cases:
        mark = " OK " if c.ok else "FAIL"
        extra = f"  -- {c.detail}" if c.detail else ""
        lines.append(f"[{mark}] {c.suite}/{c.name}{extra}")
    groups: dict[str, list[CaseResult]] = {}
    for c in cases:
        groups.setdefault(c.suite, []).append(c)
    lines.append("cases: " + "  ".join(
        f"{name} {sum(1 for c in group if c.ok)}/{len(group)}"
        for name, group in groups.items()
    ))
    failed = sum(1 for c in cases if not c.ok)
    if failed:
        lines.append(f"FAIL  {failed}/{len(cases)} cases failed")
    else:
        lines.append(f"PASS  {len(cases)} cases")
    return "\n".join(lines)


def all_ok(cases: list[CaseResult]) -> bool:
    return all(c.ok for c in cases)


def _compared(suite, label, ra, rb) -> CaseResult:
    """The case lhs = rhs, from the normalize outcomes ra and rb of its sides."""
    v = verdict(ra, rb)
    stop = next((r for r in (ra, rb) if r.status is not Status.NORMAL_FORM), None)
    detail = "" if v is Verdict.EQUAL else str(stop) if stop else "normal forms differ"
    return CaseResult(suite, label, v is Verdict.EQUAL, detail, ra.steps + rb.steps,
                      v is Verdict.UNKNOWN)


def _eq_cases(suite, instances, cfg, env) -> list[CaseResult]:
    """One case per (label, lhs, rhs) instance, in order."""
    return [_compared(suite, label, normalize(lhs, env, cfg), normalize(rhs, env, cfg))
            for label, lhs, rhs in instances]


# -- random closed terms -------------------------------------------------------

def random_closed_terms(count: int = 200, seed: int = 2024) -> list[Term]:
    """Seeded corpus of distinct (not alpha-equal) closed terms of depth <= 5,
    each normalizing within 2000 steps, so that equality is decidable on it."""
    rng = random.Random(seed)
    probe = ReductionConfig(fuel=2000, max_term_size=100_000)
    out = []
    while len(out) < count:
        t = Lam("a", _random_term(rng, 4, ["a"]))
        if (not any(alpha_eq(t, u) for u in out)
                and normalize(t, None, probe).status is Status.NORMAL_FORM):
            out.append(t)
    return out


_NAME_POOL = ("a", "b", "c", "d")  # small pool so shadowing and capture occur


def _random_term(rng, depth, ctx):
    if depth <= 0:
        return Var(rng.choice(ctx))
    r = rng.random()
    if r < 0.40:
        return App(_random_term(rng, depth - 1, ctx), _random_term(rng, depth - 1, ctx))
    if r < 0.70:
        binder = rng.choice(_NAME_POOL)
        return Lam(binder, _random_term(rng, depth - 1, ctx + [binder]))
    return Var(rng.choice(ctx))


# -- kernel suite ---------------------------------------------------------------

_ROUNDTRIP_SOURCES = [
    r"\x.x",
    r"\x y.x",
    r"a b c",
    r"a (b c)",
    r"\s z.s (s z)",
    r"(\x.x x) (\x.x x)",
    r"\f.(\x.f (x x)) (\x.f (x x))",
    r"\k n x.x (k n)",
]


def suite_kernel(max_n: int, cfg: ReductionConfig, env) -> list[CaseResult]:
    terms = [*((repr(src), parse(src)) for src in _ROUNDTRIP_SOURCES),
             *((f"def {name}", env.expanded(name)) for name in env.names())]
    cases = [CaseResult("kernel", f"roundtrip {label}", alpha_eq(parse(print_term(t)), t))
             for label, t in terms]
    return cases + _eq_cases("kernel", _kernel_instances(env), cfg, env)


def _kernel_instances(env):
    """Each arithmetic row is one equality of n-tuples: for plus a=2,
    <Plus c_2 c_0, ..., Plus c_2 c_8> = <c_2, ..., c_10>."""
    for label, constant, oracle in (("plus", "Plus", operator.add),
                                    ("monus", "Monus", lambda a, b: max(a - b, 0))):
        for a in range(9):
            yield (f"{label} a={a}",
                   tuple_of(apply(Const(constant), church(a), church(b)) for b in range(9)),
                   tuple_of(church(oracle(a, b)) for b in range(9)))
    yield "zero-predicate 0", apply(Const("Zero"), church(0)), Const("True")
    yield "zero-predicate 3", apply(Const("Zero"), church(3)), Const("False")
    # the ellipsis-elimination demo: R = lam n.(n Succ) iterates the successor
    r = parse(r"\n. n Succ", env)
    for k in range(6):
        yield (f"iterated-succ k={k}",
               tuple_of(apply(r, church(k), church(m)) for m in range(6)),
               tuple_of(church(k + m) for m in range(6)))


# -- bracket suite ---------------------------------------------------------------

_SUCC_SOURCE = r"\a b c. b (a b c)"


def suite_bracket(max_n: int, cfg: ReductionConfig, env) -> list[CaseResult]:
    cases = []
    for label, src, want in [
        ("succ", _SUCC_SOURCE, "S B"),
        ("self-apply", r"\x. x x", "S I I"),
        ("constant", r"\x. y", "K y"),
    ]:
        got = print_term(bracket.turner(parse(src)))
        cases.append(CaseResult("bracket", f"turner {label}", got == want, f"{src} => {got}"))

    corpus = random_closed_terms()
    pure = sum(1 for t in corpus if _lam_free(bracket.turner(t)))
    cases.append(CaseResult("bracket", "turner purity",
                            pure == len(corpus), f"{pure}/{len(corpus)} outputs lambda-free"))
    soundness = _eq_cases("bracket", (("", bracket.turner(t), t) for t in corpus), cfg, env)
    failed = [c for c in soundness if not c.ok]
    cases.append(CaseResult("bracket", "turner soundness", not failed,
                            f"{len(corpus) - len(failed)}/{len(corpus)} encodings beta-eta-equal",
                            sum(c.steps for c in soundness),
                            bool(failed) and all(c.inconclusive for c in failed)))
    extended = []
    for name in bracket.BUILTIN_META_NAMES:
        m = meta.builtin_meta(name)
        bound = bracket.extended_bound(m)
        extended += ((f"extended {name} n={n}", App(bound, church(n)), meta.expand(m, n))
                     for n in range(max_n + 1))
    cases += _eq_cases("bracket", extended, cfg, env)

    cases.extend(size_observation(corpus))
    return cases


def _lam_free(t: Term) -> bool:
    cls = type(t)
    if cls is Lam:
        return False
    if cls is App:
        return _lam_free(t.fun) and _lam_free(t.arg)
    return True


def size_observation(corpus: list[Term]) -> list[CaseResult]:
    """Measured |turner(t)| vs |t| with every basis constant a single leaf.

    The succ golden must satisfy the bound; elsewhere the comparison depends
    on how constants are counted, so violations are reported, not failed.
    """
    cases = []
    succ = parse(_SUCC_SOURCE)
    enc = bracket.turner(succ)
    cases.append(CaseResult("bracket", "size succ",
                            enc.size <= succ.size, f"|S B| = {enc.size} <= |succ| = {succ.size}"))
    selfapp = parse(r"\x. x x")
    enc = bracket.turner(selfapp)
    flag = "holds" if enc.size <= selfapp.size else "exceeds (reported, not failed)"
    cases.append(CaseResult("bracket", "size self-apply", True,
                            f"|S I I| = {enc.size} vs |lam x.x x| = {selfapp.size}: {flag}"))
    grew = sum(1 for t in corpus if bracket.turner(t).size > t.size)
    cases.append(CaseResult("bracket", "size corpus", True,
                            f"{grew}/{len(corpus)} encodings larger than the input (reported)"))
    return cases


# -- the library entries ----------------------------------------------------------

def _family(fam):
    """The row VarX [c_k] c_n = meta.build(fam, n[, k]), 1 <= k <= n if fam takes k."""
    def instances(name, max_n):
        for n in range(max_n + 1):
            if fam in meta.TAKES_K:
                for k in range(1, n + 1):
                    yield f"k={k} n={n}", apply(Const(name), church(k), church(n)), meta.build(fam, n, k)
            else:
                yield f"n={n}", apply(Const(name), church(n)), meta.build(fam, n)
    return instances


def _law(indices, args, rhs):
    """The row (entry args) = rhs at each value 0..max_n of every index name."""
    def instances(name, max_n):
        for vs in product(range(max_n + 1), repeat=len(indices)):
            yield " ".join(f"{i}={v}" for i, v in zip(indices, vs)), apply(Const(name), *args(*vs)), rhs(*vs)
    return instances


def _makex_instances(name, max_n):
    # the basis constants, cycled so that every arity gets n terms
    pool = [Const(c) for c in ("K", "S", "B", "C", "I")]
    for n in range(2, max(max_n, 2) + 1):
        yield from _recoveries([pool[i % len(pool)] for i in range(n)])


# The entries decided by normalizing both sides, in report order.
VARIADIC = {
    "VarI": _family("I"),
    "VarK": _family("K"),
    "VarS": _family("S"),
    "VarB": _family("B"),
    "VarBalt": _family("B"),
    "VarC": _family("C"),
    "VarCalt": _family("C"),
    "VarSel": _family("sel"),
    "VarProj": _family("proj"),
    "VarTup": _family("tup"),
    "VarRightApp": _family("rightapp"),
    "VarRev": _family("rev"),
    "VarMap": _family("map"),
    "VarM": _family("boehm"),
    "Apply": _law(("n",),
                  lambda n: [Var("f"), tuple_of(_vars(_xs(n, "a")))],
                  lambda n: apply(Var("f"), *_vars(_xs(n, "a")))),
    "VarExtend": _law(("n",),
                      lambda n: [church(n), tuple_of(_vars(_xs(n, "a"))), Var("b")],
                      lambda n: tuple_of(_vars(_xs(n, "a") + ["b"]))),
    "Catenate": _law(("n", "k"),
                     lambda n, k: [church(n), tuple_of(_vars(_xs(n, "a"))),
                                   church(k), tuple_of(_vars(_xs(k, "b")))],
                     lambda n, k: tuple_of(_vars(_xs(n, "a") + _xs(k, "b")))),
    "Iota": _law(("n",),
                 lambda n: [church(n)],
                 lambda n: tuple_of([church(i) for i in range(n)])),
    "VarMakeX": _makex_instances,
}

# Entries with no normal form of their own, checked on probes, with the
# family their upgrade probe certifies alongside (None: the tuple-valued Y*).
OBSERVATIONAL = {"VarPhi": "ycurry", "VarPsi": "yturing", "Ystar": None, "YstarCurried": None}


def check_entry(name: str, max_n: int, cfg: ReductionConfig, env) -> list[CaseResult]:
    """Check one entry against its oracle for all indices up to max_n."""
    if name in VARIADIC:
        return _eq_cases(name, VARIADIC[name](name, max_n), cfg, env)
    if name not in OBSERVATIONAL:
        raise KeyError(f"unknown library entry: {name}")
    probes = chain(_constant_probes(name, max_n), _even_odd_probes(name))
    return [_upgrade_probe(name, max_n, cfg, env), *_eq_cases(name, probes, cfg, env)]


def _upgrade_probe(name, max_n, cfg, env) -> CaseResult:
    """Both (VarX c_k c_n) and the family member, or (Ystar c_n), must be
    certified to have no normal form, for the observational checks to apply."""
    uncertified = []
    for label, term in _probe_sides(name, max_n):
        status = normalize(term, env, cfg).status
        if status is not Status.NO_NORMAL_FORM:
            uncertified.append(f"{label} {status.value}")
    if uncertified:
        return CaseResult(name, "no-normal-form probe", False, "not certified: " + ", ".join(uncertified))
    return CaseResult(name, "no-normal-form probe", True,
                      "every instance certified to have no normal form; observational checks apply")


def _probe_sides(name, max_n):
    """The probed terms, one at a time: a normalized term keeps its reducts alive."""
    fam = OBSERVATIONAL[name]
    for n in range(1, max_n + 1):
        if fam is None:
            yield f"{name} n={n}", apply(Const(name), church(n))
        for k in (range(1, n + 1) if fam else ()):
            yield f"{name} k={k} n={n}", apply(Const(name), church(k), church(n))
            yield f"{fam} k={k} n={n}", meta.build(fam, n, k)


def _probe_generators(n: int) -> list[Term]:
    """F_j = lam y1...yn. c_j: the fixed point of F_j is c_j itself."""
    return [lams(_xs(n, "y"), church(j)) for j in range(1, n + 1)]


def _fixed_point(name, k, n, gens):
    """The k-th fixed point of F1 ... Fn: VarPhi/VarPsi c_k c_n F1 ... Fn, or
    the k-th component of the tuple of all n, Ystar c_n <F1, ..., Fn>
    (YstarCurried c_n F1 ... Fn), which is itself the fixed point at k None."""
    if OBSERVATIONAL[name]:
        return apply(Const(name), church(k), church(n), *gens)
    tup = apply(Const(name), church(n), *([tuple_of(gens)] if name == "Ystar" else gens))
    return tup if k is None else apply(Const("VarProj"), church(k), church(n), tup)


def _constant_probes(name, max_n):
    """With constant generators the fixed points are c_1, ..., c_n: checked one
    by one (indexed entries) or as their tuple (tupled entries)."""
    for n in range(1, max_n + 1):
        gens = _probe_generators(n)
        if OBSERVATIONAL[name]:
            for k in range(1, n + 1):
                yield f"constant-probe k={k} n={n}", _fixed_point(name, k, n, gens), church(k)
        else:
            fixed = tuple_of([church(j) for j in range(1, n + 1)])
            yield f"constant-probe n={n}", _fixed_point(name, None, n, gens), fixed


def _even_odd_probes(name):
    """The mutually recursive even/odd pair: fixed point k = 1 decides evenness,
    k = 2 oddness."""
    gens = [parse(r"\e o m. Zero m True  (o (Pred m))"),
            parse(r"\e o m. Zero m False (e (Pred m))")]
    label = "?" if OBSERVATIONAL[name] else "-projection"
    for m in range(7):
        for k, test in ((1, "even"), (2, "odd")):
            want = Const("True" if (m % 2 == 0) == (k == 1) else "False")
            yield f"{test}{label} {m}", apply(_fixed_point(name, k, 2, gens), church(m)), want


def check_boehm(max_n: int, cfg: ReductionConfig, env) -> list[CaseResult]:
    """The relation between the Curry- and Turing-style fixed points.

    (a) VarM c_1 c_1 normalizes to nf(S I); (b) at the concrete family level
    the Curry combinators applied to the step terms reduce (in the ->> sense)
    to the Turing ones, found by the standard-reduction search of
    ``reduces_to`` within its default caps; (c) the arity-generic counterpart
    holds observationally (the chain probe).  (b) and (c) are checked at
    every 1 <= k <= n <= max_n; the variadic suite checks VarM's family.
    """
    cases = _eq_cases("boehm", [("VarM 1 1 = S I", parse("VarM #1 #1"), parse("S I"))], cfg, env)
    for n in range(1, max_n + 1):
        steps = [meta.build("boehm", n, j) for j in range(1, n + 1)]
        for k in range(1, n + 1):
            lhs = apply(meta.build("ycurry", n, k), *steps)
            res = reduces_to(lhs, meta.build("yturing", n, k), env)
            detail = f"explored {res.explored} pairs"
            if res.inconclusive:
                detail += " (cap hit: inconclusive)"
            cases.append(CaseResult("boehm", f"reduces-to k={k} n={n}", res.found, detail,
                                    inconclusive=res.inconclusive))
    return cases + _eq_cases("boehm", _chain_probes(max_n), cfg, env)


def _chain_probes(max_n):
    for n in range(1, max_n + 1):
        gens = _probe_generators(n)
        msteps = [apply(Const("VarM"), church(j), church(n)) for j in range(1, n + 1)]
        for k in range(1, n + 1):
            yield (f"variadic chain probe k={k} n={n}",
                   apply(Const("VarPhi"), church(k), church(n), *msteps, *gens),
                   apply(Const("VarPsi"), church(k), church(n), *gens))


def check_makex(terms: list[Term], cfg: ReductionConfig, env) -> list[CaseResult]:
    """X = VarMakeX c_n E1...En (n terms) satisfies X (X ... X) = E_k (k+1 X's inside)."""
    if len(terms) < 2:
        raise ValueError("need at least two terms")
    return _eq_cases("VarMakeX", _recoveries(terms), cfg, env)


def _recoveries(terms):
    n = len(terms)
    x = apply(Const("VarMakeX"), church(n), *terms)
    for k in range(1, n + 1):
        yield f"n={n} recover E{k}", apply(x, apply(*[x] * (k + 1))), terms[k - 1]


# -- suites ---------------------------------------------------------------------

def suite_variadic(max_n: int, cfg: ReductionConfig, env) -> list[CaseResult]:
    return [c for name in VARIADIC for c in check_entry(name, max_n, cfg, env)]


def suite_fixpoint(max_n: int, cfg: ReductionConfig, env) -> list[CaseResult]:
    cases = [c for name in OBSERVATIONAL for c in check_entry(name, max_n, cfg, env)]
    return cases + check_boehm(max_n, cfg, env)


SUITES = {
    "kernel": suite_kernel,
    "bracket": suite_bracket,
    "variadic": suite_variadic,
    "fixpoint": suite_fixpoint,
}


def run_suites(names, max_n: int, cfg: ReductionConfig, env) -> list[CaseResult]:
    if "all" in names:
        names = list(SUITES)
    cases = []
    for name in names:
        cases.extend(SUITES[name](max_n, cfg, env))
    return cases
