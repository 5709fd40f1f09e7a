"""The arity-generic term library and its verification harness.

Every library entry lives in variadic.lam; this module registers each entry
with the checker of its oracle and checks the identity (VarX c_n) = X_n
against terms the oracle builds syntactically.  Entries without a normal
form (the fixed-point combinators) are checked observationally instead:
applied to probe generators whose fixed points the reducer can actually
compute.
"""

from __future__ import annotations

from itertools import product

from . import meta
from .church import church, tuple_of
from .engine import ReductionConfig, Status, normalize, reduces_to
from .meta import _vars, _xs
from .report import CaseResult
from .syntax import parse
from .terms import Const, Term, Var, alpha_eq, apply, lams

# Entries whose identity (VarX c_n [c_k]) = X_n is decided by normalizing
# both sides, keyed to the oracle family (whether it takes k: meta._FAMILIES).
FAMILY_ORACLES = {
    "VarI": "I",
    "VarK": "K",
    "VarS": "S",
    "VarB": "B",
    "VarBalt": "B",
    "VarC": "C",
    "VarCalt": "C",
    "VarSel": "sel",
    "VarProj": "proj",
    "VarTup": "tup",
    "VarRightApp": "rightapp",
    "VarRev": "rev",
    "VarMap": "map",
    "VarM": "boehm",
}

# Entries checked against equational laws (both sides normalize): entry ->
# (index names, each over 0..max_n; lhs builder; rhs builder), with free
# a1 ... an and b1 ... bk.  VarMakeX is checked by check_makex.
_LAWS = {
    "Apply": (("n",),
              lambda n: apply(Const("Apply"), Var("f"), tuple_of(_vars(_xs(n, "a")))),
              lambda n: apply(Var("f"), *_vars(_xs(n, "a")))),
    "VarExtend": (("n",),
                  lambda n: apply(Const("VarExtend"), church(n),
                                  tuple_of(_vars(_xs(n, "a"))), Var("b")),
                  lambda n: tuple_of(_vars(_xs(n, "a") + ["b"]))),
    "Catenate": (("n", "k"),
                 lambda n, k: apply(Const("Catenate"), church(n), tuple_of(_vars(_xs(n, "a"))),
                                    church(k), tuple_of(_vars(_xs(k, "b")))),
                 lambda n, k: tuple_of(_vars(_xs(n, "a") + _xs(k, "b")))),
    "Iota": (("n",),
             lambda n: apply(Const("Iota"), church(n)),
             lambda n: tuple_of([church(i) for i in range(n)])),
}

LAW_ENTRIES = (*_LAWS, "VarMakeX")

# Entries with no normal form of their own, checked on probes, with the
# family their upgrade probe compares against (None: the tuple-valued Y*).
_OBSERVED = {"VarPhi": "ycurry", "VarPsi": "yturing", "Ystar": None, "YstarCurried": None}
OBSERVATIONAL = tuple(_OBSERVED)


def _eq_case(suite, label, lhs, rhs, env, cfg) -> CaseResult:
    ra = normalize(lhs, env, cfg)
    rb = normalize(rhs, env, cfg)
    steps = ra.steps + rb.steps
    stopped = [r for r in (ra, rb) if r.status is not Status.NORMAL_FORM]
    if stopped:
        # a certificate is a definite failure; a fuel or size stop is not
        limited = any(r.status is not Status.NO_NORMAL_FORM for r in stopped)
        detail = f"{stopped[0].status.value} after {stopped[0].steps} steps"
        return CaseResult(suite, label, False, detail, steps, limited)
    ok = alpha_eq(ra.result, rb.result)
    return CaseResult(suite, label, ok, "" if ok else "normal forms differ", steps)


def _probe_generators(n: int) -> list[Term]:
    """F_j = lam y1...yn. c_j: the fixed point of F_j is c_j itself."""
    return [lams(_xs(n, "y"), church(j)) for j in range(1, n + 1)]


def _check_family_entry(name, max_n, cfg, env):
    fam = FAMILY_ORACLES[name]
    has_k = meta._FAMILIES[fam][0]
    cases = []
    for n in range(max_n + 1):
        if has_k:
            for k in range(1, n + 1):
                lhs = apply(Const(name), church(k), church(n))
                rhs = meta.build(fam, n, k)
                cases.append(_eq_case(name, f"k={k} n={n}", lhs, rhs, env, cfg))
        else:
            lhs = apply(Const(name), church(n))
            rhs = meta.build(fam, n)
            cases.append(_eq_case(name, f"n={n}", lhs, rhs, env, cfg))
    return cases


def _check_law_entry(name, max_n, cfg, env):
    indices, lhs, rhs = _LAWS[name]
    return [_eq_case(name, " ".join(f"{i}={v}" for i, v in zip(indices, vs)),
                     lhs(*vs), rhs(*vs), env, cfg)
            for vs in product(range(max_n + 1), repeat=len(indices))]


def _check_makex_entry(name, max_n, cfg, env):
    # the basis constants, cycled so that every arity gets n terms
    pool = [Const(c) for c in ("K", "S", "B", "C", "I")]
    return [case for n in range(2, max(max_n, 2) + 1)
            for case in check_makex(n, [pool[i % len(pool)] for i in range(n)], cfg, env)]


def _check_observational_entry(name, max_n, cfg, env):
    fam = _OBSERVED[name]
    fix = _indexed if fam else _tupled
    upgrade = _upgrade_probe(name, max_n, cfg, env) if fam else []
    return upgrade + _constant_probes(name, fix, max_n, cfg, env) + _even_odd_probes(name, fix, cfg, env)


# The registry: entry -> its checker.
_REGISTRY = {
    **dict.fromkeys(FAMILY_ORACLES, _check_family_entry),
    **dict.fromkeys(_LAWS, _check_law_entry),
    "VarMakeX": _check_makex_entry,
    **dict.fromkeys(OBSERVATIONAL, _check_observational_entry),
}


def check_entry(name: str, max_n: int, cfg: ReductionConfig, env) -> list[CaseResult]:
    """Check one entry against its oracle for all indices up to max_n."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown library entry: {name}")
    return _REGISTRY[name](name, max_n, cfg, env)


def _upgrade_probe(name, max_n, cfg, env):
    """If (VarX c_k c_n) and the family member both normalize after all,
    compare them directly (the observational classification is then moot).
    Otherwise both sides must be certified to have no normal form."""
    fam = _OBSERVED[name]
    cases = []
    uncertified = []
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            ra = normalize(apply(Const(name), church(k), church(n)), env, cfg)
            rb = normalize(meta.build(fam, n, k), env, cfg)
            if ra.status is Status.NORMAL_FORM and rb.status is Status.NORMAL_FORM:
                ok = alpha_eq(ra.result, rb.result)
                cases.append(
                    CaseResult(name, f"normal-form k={k} n={n} (upgraded)", ok,
                               "" if ok else "normal forms differ", ra.steps + rb.steps)
                )
                continue
            for side, r in ((name, ra), (fam, rb)):
                if r.status is not Status.NO_NORMAL_FORM:
                    uncertified.append(f"{side} k={k} n={n} {r.status.value}")
    if uncertified:
        cases.append(CaseResult(name, "no-normal-form probe", False,
                                "not certified: " + ", ".join(uncertified)))
    elif not cases:
        cases.append(CaseResult(name, "no-normal-form probe", True,
                                "every instance certified to have no normal form; observational checks apply"))
    return cases


def _indexed(name, k, n, gens):
    """VarPhi/VarPsi c_k c_n F1 ... Fn: the k-th fixed point of F1 ... Fn."""
    return apply(Const(name), church(k), church(n), *gens)


def _tupled(name, k, n, gens):
    """Ystar c_n <F1, ..., Fn> (YstarCurried c_n F1 ... Fn): the tuple of all
    n fixed points when k is None, else its k-th component."""
    tup = apply(Const(name), church(n), *([tuple_of(gens)] if name == "Ystar" else gens))
    return tup if k is None else apply(Const("VarProj"), church(k), church(n), tup)


def _constant_probes(name, fix, max_n, cfg, env):
    """With constant generators the fixed points are c_1, ..., c_n: checked one
    by one (indexed entries) or as their tuple (tupled entries)."""
    cases = []
    for n in range(1, max_n + 1):
        gens = _probe_generators(n)
        if fix is _tupled:
            rhs = tuple_of([church(j) for j in range(1, n + 1)])
            cases.append(_eq_case(name, f"constant-probe n={n}", fix(name, None, n, gens), rhs, env, cfg))
            continue
        for k in range(1, n + 1):
            lhs = fix(name, k, n, gens)
            cases.append(_eq_case(name, f"constant-probe k={k} n={n}", lhs, church(k), env, cfg))
    return cases


def _even_odd_probes(name, fix, cfg, env):
    """The mutually recursive even/odd pair: fixed point k = 1 decides evenness,
    k = 2 oddness."""
    gens = [parse(r"\e o m. Zero m True  (o (Pred m))", env),
            parse(r"\e o m. Zero m False (e (Pred m))", env)]
    label = "-projection" if fix is _tupled else "?"
    cases = []
    for m in range(7):
        for k, test in ((1, "even"), (2, "odd")):
            want = Const("True" if (m % 2 == 0) == (k == 1) else "False")
            lhs = apply(fix(name, k, 2, gens), church(m))
            cases.append(_eq_case(name, f"{test}{label} {m}", lhs, want, env, cfg))
    return cases


def check_boehm(max_n: int, cfg: ReductionConfig, env) -> list[CaseResult]:
    """The relation between the Curry- and Turing-style fixed points.

    (a) VarM c_1 c_1 normalizes to nf(S I); (b) VarM agrees with its family;
    (c) at the concrete family level the Curry combinators applied to the
    step terms reduce (in the ->> sense) to the Turing ones, found by the
    standard-reduction search of ``reduces_to`` within its default caps;
    (d) the arity-generic counterpart holds observationally (the chain
    probe).  (b), (c) and (d) are checked at every 1 <= k <= n <= max_n.
    """
    cases = [_eq_case("boehm", "VarM 1 1 = S I", apply(Const("VarM"), church(1), church(1)),
                      parse("S I", env), env, cfg)]
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            lhs = apply(Const("VarM"), church(k), church(n))
            cases.append(_eq_case("boehm", f"VarM vs family k={k} n={n}", lhs,
                                  meta.build("boehm", n, k), env, cfg))
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
    for n in range(1, max_n + 1):
        gens = _probe_generators(n)
        msteps = [apply(Const("VarM"), church(j), church(n)) for j in range(1, n + 1)]
        for k in range(1, n + 1):
            lhs = apply(Const("VarPhi"), church(k), church(n), *msteps, *gens)
            rhs = apply(Const("VarPsi"), church(k), church(n), *gens)
            cases.append(_eq_case("boehm", f"variadic chain probe k={k} n={n}", lhs, rhs, env, cfg))
    return cases


def check_makex(n: int, terms: list[Term], cfg: ReductionConfig, env) -> list[CaseResult]:
    """X = VarMakeX c_n E1...En satisfies X (X ... X) = E_k (k+1 X's inside)."""
    if n != len(terms) or n < 2:
        raise ValueError("need n = len(terms) >= 2")
    x = apply(Const("VarMakeX"), church(n), *terms)
    cases = []
    for k in range(1, n + 1):
        lhs = apply(x, apply(*[x] * (k + 1)))
        cases.append(_eq_case("VarMakeX", f"n={n} recover E{k}", lhs, terms[k - 1], env, cfg))
    return cases
