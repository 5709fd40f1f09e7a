"""The arity-generic term library and its verification harness.

Every library entry lives in variadic.lam; this module registers each entry
with its oracle and checks the identity (VarX c_n) = X_n against terms the
oracle builds syntactically.  Entries without a normal form (the fixed-point
combinators) are checked observationally instead: applied to probe
generators whose fixed points the reducer can actually compute.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import meta
from .church import church, tuple_of
from .engine import (
    DEFAULT_CONFIG,
    ReductionConfig,
    Status,
    normalize,
    reduces_to,
)
from .env import standard_env
from .report import CaseResult
from .terms import Const, Term, Var, alpha_eq, apply, lams

# Entries whose identity (VarX c_n [c_k]) = X_n is decided by normalizing
# both sides, keyed to the oracle family (second component: takes k).
FAMILY_ORACLES = {
    "VarI": ("I", False),
    "VarK": ("K", False),
    "VarS": ("S", False),
    "VarB": ("B", False),
    "VarBalt": ("B", False),
    "VarC": ("C", False),
    "VarCalt": ("C", False),
    "VarSel": ("sel", True),
    "VarProj": ("proj", True),
    "VarTup": ("tup", False),
    "VarRightApp": ("rightapp", False),
    "VarRev": ("rev", False),
    "VarMap": ("map", False),
    "VarM": ("boehm", True),
}

# Entries checked against equational laws (both sides normalize).
LAW_ENTRIES = ("Apply", "VarExtend", "Catenate", "Iota", "VarMakeX")

# Entries with no normal form of their own, checked on probes.
OBSERVATIONAL = ("VarPhi", "VarPsi", "Ystar", "YstarCurried")

ENTRY_NAMES = tuple(FAMILY_ORACLES) + LAW_ENTRIES + OBSERVATIONAL

# Fuel for the does-it-normalize-after-all probe on observational entries.
_UPGRADE_FUEL = 20_000


@dataclass
class VariadicEntry:
    name: str
    term: Term
    oracle: str
    check_mode: str  # "Normalizing" | "Observational"


def library(env=None) -> dict[str, VariadicEntry]:
    """All registered entries, with their terms from the loaded library file."""
    env = env if env is not None else standard_env()
    out = {}
    for name in ENTRY_NAMES:
        if name in FAMILY_ORACLES:
            fam, has_k = FAMILY_ORACLES[name]
            oracle = f"family {fam}" + ("(k, n)" if has_k else "(n)")
            mode = "Normalizing"
        elif name in LAW_ENTRIES:
            oracle = "equational laws"
            mode = "Normalizing"
        else:
            oracle = "probe suite"
            mode = "Observational"
        out[name] = VariadicEntry(name, env.raw(name), oracle, mode)
    return out


def _eq_case(suite, label, lhs, rhs, env, cfg) -> CaseResult:
    ra = normalize(lhs, env, cfg)
    rb = normalize(rhs, env, cfg)
    steps = ra.steps + rb.steps
    if ra.status is not Status.NORMAL_FORM or rb.status is not Status.NORMAL_FORM:
        bad = ra.status if ra.status is not Status.NORMAL_FORM else rb.status
        return CaseResult(suite, label, False, f"no normal form ({bad.value})", steps, True)
    ok = alpha_eq(ra.result, rb.result)
    return CaseResult(suite, label, ok, "" if ok else "normal forms differ", steps)


def _free(names):
    return [Var(x) for x in names]


def _args(n, base="a"):
    return _free([f"{base}{i}" for i in range(1, n + 1)])


def _probe_generators(n: int) -> list[Term]:
    """F_j = lam y1...yn. c_j: the fixed point of F_j is c_j itself."""
    ys = [f"y{i}" for i in range(1, n + 1)]
    return [lams(ys, church(j)) for j in range(1, n + 1)]


def _even_odd(env):
    from .syntax import parse

    even = parse(r"\e o m. Zero m True  (o (Pred m))", env)
    odd = parse(r"\e o m. Zero m False (e (Pred m))", env)
    return even, odd


def check_entry(name: str, max_n: int = 3, cfg: ReductionConfig = DEFAULT_CONFIG, env=None) -> list[CaseResult]:
    """Check one entry against its oracle for all indices up to max_n."""
    env = env if env is not None else standard_env()
    if name in FAMILY_ORACLES:
        return _check_family_entry(name, max_n, cfg, env)
    if name in LAW_ENTRIES:
        return _check_law_entry(name, max_n, cfg, env)
    if name in OBSERVATIONAL:
        return _check_observational_entry(name, max_n, cfg, env)
    raise KeyError(f"unknown library entry: {name}")


def _check_family_entry(name, max_n, cfg, env):
    fam, has_k = FAMILY_ORACLES[name]
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
    cases = []
    if name == "Apply":
        for n in range(max_n + 1):
            xs = _args(n)
            lhs = apply(Const("Apply"), Var("f"), tuple_of(xs))
            rhs = apply(Var("f"), *xs)
            cases.append(_eq_case(name, f"n={n}", lhs, rhs, env, cfg))
    elif name == "VarExtend":
        for n in range(max_n + 1):
            xs = _args(n)
            lhs = apply(Const("VarExtend"), church(n), tuple_of(xs), Var("b"))
            rhs = tuple_of(xs + [Var("b")])
            cases.append(_eq_case(name, f"n={n}", lhs, rhs, env, cfg))
    elif name == "Catenate":
        for n in range(max_n + 1):
            for k in range(max_n + 1):
                xs = _args(n)
                ys = _args(k, "b")
                lhs = apply(Const("Catenate"), church(n), tuple_of(xs), church(k), tuple_of(ys))
                rhs = tuple_of(xs + ys)
                cases.append(_eq_case(name, f"n={n} k={k}", lhs, rhs, env, cfg))
    elif name == "Iota":
        for n in range(max_n + 1):
            lhs = apply(Const("Iota"), church(n))
            rhs = tuple_of([church(i) for i in range(n)])
            cases.append(_eq_case(name, f"n={n}", lhs, rhs, env, cfg))
    elif name == "VarMakeX":
        for n in range(2, max(max_n, 2) + 1):
            cases.extend(check_makex(n, _default_basis_terms(n), cfg, env))
    return cases


def _default_basis_terms(n: int) -> list[Term]:
    pool = [Const(c) for c in ("K", "S", "B", "C", "I")]
    return pool[:n]


def _check_observational_entry(name, max_n, cfg, env):
    cases = []
    if name in ("VarPhi", "VarPsi"):
        cases.extend(_upgrade_probe(name, max_n, cfg, env))
        cases.extend(_constant_probes(name, max_n, cfg, env))
        cases.extend(_even_odd_probes(name, cfg, env))
    else:
        cases.extend(_ystar_constant_probes(name, max_n, cfg, env))
        cases.extend(_ystar_even_odd(name, cfg, env))
    return cases


def _upgrade_probe(name, max_n, cfg, env):
    """If (VarX c_k c_n) and the family member both normalize after all,
    compare them directly (the observational classification is then moot).
    Otherwise both sides must be certified to have no normal form."""
    fam, _ = {"VarPhi": ("ycurry", True), "VarPsi": ("yturing", True)}[name]
    probe_cfg = ReductionConfig(fuel=_UPGRADE_FUEL, max_term_size=cfg.max_term_size, eta=cfg.eta)
    cases = []
    uncertified = []
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            ra = normalize(apply(Const(name), church(k), church(n)), env, probe_cfg)
            rb = normalize(meta.build(fam, n, k), env, probe_cfg)
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
        cases.append(
            CaseResult(name, "no-normal-form probe", True,
                       f"no instance normalized within {_UPGRADE_FUEL} steps; observational checks apply")
        )
    return cases


def _constant_probes(name, max_n, cfg, env):
    cases = []
    for n in range(1, max_n + 1):
        gens = _probe_generators(n)
        for k in range(1, n + 1):
            lhs = apply(Const(name), church(k), church(n), *gens)
            cases.append(_eq_case(name, f"constant-probe k={k} n={n}", lhs, church(k), env, cfg))
    return cases


def _even_odd_probes(name, cfg, env):
    even, odd = _even_odd(env)
    cases = []
    for m in range(7):
        is_even = apply(Const(name), church(1), church(2), even, odd, church(m))
        want = Const("True") if m % 2 == 0 else Const("False")
        cases.append(_eq_case(name, f"even? {m}", is_even, want, env, cfg))
        is_odd = apply(Const(name), church(2), church(2), even, odd, church(m))
        want = Const("False") if m % 2 == 0 else Const("True")
        cases.append(_eq_case(name, f"odd? {m}", is_odd, want, env, cfg))
    return cases


def _ystar_apply(name, n, gens):
    if name == "Ystar":
        return apply(Const("Ystar"), church(n), tuple_of(gens))
    return apply(Const("YstarCurried"), church(n), *gens)


def _ystar_constant_probes(name, max_n, cfg, env):
    """With constant generators the fixed-point tuple is (c_1, ..., c_n)."""
    cases = []
    for n in range(1, max_n + 1):
        lhs = _ystar_apply(name, n, _probe_generators(n))
        rhs = tuple_of([church(j) for j in range(1, n + 1)])
        cases.append(_eq_case(name, f"constant-probe n={n}", lhs, rhs, env, cfg))
    return cases


def _ystar_even_odd(name, cfg, env):
    even, odd = _even_odd(env)
    tup = _ystar_apply(name, 2, [even, odd])
    cases = []
    for m in range(7):
        is_even = apply(Const("VarProj"), church(1), church(2), tup, church(m))
        want = Const("True") if m % 2 == 0 else Const("False")
        cases.append(_eq_case(name, f"even-projection {m}", is_even, want, env, cfg))
        is_odd = apply(Const("VarProj"), church(2), church(2), tup, church(m))
        want = Const("False") if m % 2 == 0 else Const("True")
        cases.append(_eq_case(name, f"odd-projection {m}", is_odd, want, env, cfg))
    return cases


def probe_fixedpoints(max_n: int = 3, cfg: ReductionConfig = DEFAULT_CONFIG, env=None) -> list[CaseResult]:
    """Constant-generator and even/odd probes for VarPhi, VarPsi and Y*."""
    env = env if env is not None else standard_env()
    cases = []
    for name in ("VarPhi", "VarPsi"):
        cases.extend(_constant_probes(name, max_n, cfg, env))
        cases.extend(_even_odd_probes(name, cfg, env))
    for name in ("Ystar", "YstarCurried"):
        cases.extend(_ystar_constant_probes(name, min(max_n, 3), cfg, env))
        cases.extend(_ystar_even_odd(name, cfg, env))
    return cases


def check_boehm(max_n: int = 2, node_cap: int = 100_000, depth_cap: int = 200,
                cfg: ReductionConfig = DEFAULT_CONFIG, env=None) -> list[CaseResult]:
    """The relation between the Curry- and Turing-style fixed points.

    (a) VarM c_1 c_1 normalizes to nf(S I); (b) VarM agrees with its family;
    (c) at the concrete family level the Curry combinators applied to the
    step terms reduce (in the ->> sense) to the Turing ones; (d) the
    arity-generic counterpart holds observationally.
    """
    env = env if env is not None else standard_env()
    from .syntax import parse

    cases = [_eq_case("boehm", "VarM 1 1 = S I", apply(Const("VarM"), church(1), church(1)),
                      parse("S I", env), env, cfg)]
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            lhs = apply(Const("VarM"), church(k), church(n))
            cases.append(_eq_case("boehm", f"VarM vs family k={k} n={n}", lhs,
                                  meta.build("boehm", n, k), env, cfg))
    for n in (1, 2):
        if n > max_n:
            continue
        steps = [meta.build("boehm", n, j) for j in range(1, n + 1)]
        for k in range(1, n + 1):
            lhs = apply(meta.build("ycurry", n, k), *steps)
            res = reduces_to(lhs, meta.build("yturing", n, k), env, node_cap, depth_cap)
            detail = f"explored {res.explored} terms"
            if res.inconclusive:
                detail += " (cap hit: inconclusive)"
            cases.append(CaseResult("boehm", f"reduces-to k={k} n={n}", res.found, detail,
                                    inconclusive=res.inconclusive))
    for n in range(1, min(max_n, 2) + 1):
        gens = _probe_generators(n)
        msteps = [apply(Const("VarM"), church(j), church(n)) for j in range(1, n + 1)]
        for k in range(1, n + 1):
            lhs = apply(Const("VarPhi"), church(k), church(n), *msteps, *gens)
            rhs = apply(Const("VarPsi"), church(k), church(n), *gens)
            cases.append(_eq_case("boehm", f"variadic chain probe k={k} n={n}", lhs, rhs, env, cfg))
    return cases


def check_makex(n: int, terms: list[Term], cfg: ReductionConfig = DEFAULT_CONFIG, env=None) -> list[CaseResult]:
    """X = VarMakeX c_n E1...En satisfies X (X ... X) = E_k (k+1 X's inside)."""
    if n != len(terms) or n < 2:
        raise ValueError("need n = len(terms) >= 2")
    env = env if env is not None else standard_env()
    x = apply(Const("VarMakeX"), church(n), *terms)
    cases = []
    for k in range(1, n + 1):
        lhs = apply(x, apply(*[x] * (k + 1)))
        cases.append(_eq_case("VarMakeX", f"n={n} recover E{k}", lhs, terms[k - 1], env, cfg))
    return cases
