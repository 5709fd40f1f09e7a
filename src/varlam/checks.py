"""Verification suites behind the `check` command (and the acceptance tests)."""

from __future__ import annotations

import random

from . import bracket, meta, variadic
from .church import church, unchurch
from .engine import ReductionConfig, Status, Verdict, beta_eta_equal, normalize
from .report import CaseResult
from .syntax import parse, print_term
from .terms import App, Const, Lam, Term, Var, alpha_eq, apply, expand_consts


# -- random closed terms -------------------------------------------------------

def random_closed_terms(count: int = 200, max_depth: int = 5, seed: int = 2024,
                        normalizing_within: int = 2000) -> list[Term]:
    """Seeded corpus of closed terms; divergent draws are skipped so that
    equality of normal forms is actually decidable for every element."""
    rng = random.Random(seed)
    probe = ReductionConfig(fuel=normalizing_within, max_term_size=100_000)
    out = []
    while len(out) < count:
        t = Lam("a", _random_term(rng, max_depth - 1, ["a"]))
        if normalize(t, None, probe).status is Status.NORMAL_FORM:
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
    cases = []
    for src in _ROUNDTRIP_SOURCES:
        t = parse(src)
        ok = alpha_eq(parse(print_term(t)), t)
        cases.append(CaseResult("kernel", f"roundtrip {src!r}", ok))
    for name in env.names():
        t = env.expanded(name)
        ok = alpha_eq(parse(print_term(t)), t)
        cases.append(CaseResult("kernel", f"roundtrip def {name}", ok))
    for a in range(9):
        ok = all(
            unchurch(apply(Const("Plus"), church(a), church(b)), env, cfg) == a + b
            for b in range(9)
        )
        cases.append(CaseResult("kernel", f"plus a={a}", ok))
    for a in range(9):
        ok = all(
            unchurch(apply(Const("Monus"), church(a), church(b)), env, cfg) == max(a - b, 0)
            for b in range(9)
        )
        cases.append(CaseResult("kernel", f"monus a={a}", ok))
    zero0 = normalize(apply(Const("Zero"), church(0)), env, cfg).result
    zero3 = normalize(apply(Const("Zero"), church(3)), env, cfg).result
    cases.append(CaseResult("kernel", "zero-predicate 0", alpha_eq(zero0, env.expanded("True"))))
    cases.append(CaseResult("kernel", "zero-predicate 3", alpha_eq(zero3, env.expanded("False"))))
    # the ellipsis-elimination demo: R = lam n.(n Succ) iterates the successor
    r = parse(r"\n. n Succ", env)
    for k in range(6):
        ok = all(unchurch(apply(r, church(k), church(m)), env, cfg) == k + m for m in range(6))
        cases.append(CaseResult("kernel", f"iterated-succ k={k}", ok))
    return cases


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
    sound = 0
    for t in corpus:
        enc = expand_consts(bracket.turner(t), env)
        if beta_eta_equal(enc, t, env, cfg) is Verdict.EQUAL:
            sound += 1
    cases.append(CaseResult("bracket", "turner soundness",
                            sound == len(corpus), f"{sound}/{len(corpus)} encodings beta-eta-equal"))

    for name in bracket.BUILTIN_META_NAMES:
        m = meta.builtin_meta(name)
        bound = bracket.extended_bound(m)
        for n in range(max_n + 1):
            verdict = beta_eta_equal(App(bound, church(n)), meta.expand(m, n), env, cfg)
            cases.append(CaseResult("bracket", f"extended {name} n={n}",
                                    verdict is Verdict.EQUAL, "", 0,
                                    verdict is Verdict.UNKNOWN))

    cases.extend(size_observation(corpus))
    return cases


def _lam_free(t: Term) -> bool:
    cls = t.__class__
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


# -- variadic / fixpoint suites ---------------------------------------------------

def suite_variadic(max_n: int, cfg: ReductionConfig, env) -> list[CaseResult]:
    cases = []
    for name in variadic.FAMILY_ORACLES:
        cases.extend(variadic.check_entry(name, max_n, cfg, env))
    for name in variadic.LAW_ENTRIES:
        cases.extend(variadic.check_entry(name, max_n, cfg, env))
    for alt, base in (("VarBalt", "VarB"), ("VarCalt", "VarC")):
        for n in range(max_n + 1):
            cases.append(variadic._eq_case("variadic", f"{alt} agrees with {base} n={n}",
                                           apply(Const(alt), church(n)), apply(Const(base), church(n)),
                                           env, cfg))
    return cases


def suite_fixpoint(max_n: int, cfg: ReductionConfig, env) -> list[CaseResult]:
    cases = []
    for name in variadic.OBSERVATIONAL:
        cases.extend(variadic.check_entry(name, max_n, cfg, env))
    cases.extend(variadic.check_boehm(max_n, cfg, env))
    return cases


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
