"""The acceptance gate: every criterion at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import time

import pytest

from varlam import checks, meta
from varlam.bracket import BUILTIN_META_NAMES, extended_bound, turner
from varlam.checks import all_ok, random_closed_terms, size_observation
from varlam.church import church, tuple_of
from varlam.engine import ReductionConfig, Verdict, beta_eta_equal, reduces_to
from varlam.env import standard_env
from varlam.syntax import parse, print_term
from varlam.terms import App, Const, Var, apply, expand_consts

CFG = ReductionConfig(fuel=1_000_000)
MAX_N = 3
# the entries checked against an indexed family, each a family row of checks.VARIADIC
FAMILY_ENTRIES = ("VarI", "VarK", "VarS", "VarB", "VarBalt", "VarC", "VarCalt", "VarSel",
                  "VarProj", "VarTup", "VarRightApp", "VarRev", "VarMap", "VarM")


@pytest.fixture(scope="module")
def env():
    return standard_env()


def _report(number, label, started, budget, ok=True):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} [{label}]: {status} ({elapsed:.2f}s, budget {budget:g}s)")
    assert ok, f"criterion {number} ({label}) failed"
    assert elapsed < budget, f"criterion {number} ({label}) over budget: {elapsed:.2f}s"


def test_criterion_1_turner_goldens():
    started = time.perf_counter()
    ok = (
        print_term(turner(parse(r"\a b c. b (a b c)"))) == "S B"
        and print_term(turner(parse(r"\x. x x"))) == "S I I"
    )
    _report(1, "turner goldens", started, 1.0, ok)


def test_criterion_2_basis_family_equivalence(env):
    started = time.perf_counter()
    cases = []
    for name in FAMILY_ENTRIES:
        cases.extend(checks.check_entry(name, MAX_N, CFG, env))
    ok = all_ok(cases) and len(cases) == 62  # 11 one-index entries x 4, 3 two-index x 6
    # the boundary identities, stated directly
    for varname, single in (("VarK", "K"), ("VarS", "S"), ("VarB", "B"), ("VarC", "C")):
        ok &= beta_eta_equal(apply(Const(varname), church(0)), Const("I"), env, CFG) is Verdict.EQUAL
        ok &= beta_eta_equal(apply(Const(varname), church(1)), Const(single), env, CFG) is Verdict.EQUAL
    for n in range(MAX_N + 1):
        ok &= beta_eta_equal(apply(Const("VarBalt"), church(n)),
                             apply(Const("VarB"), church(n)), env, CFG) is Verdict.EQUAL
        ok &= beta_eta_equal(apply(Const("VarCalt"), church(n)),
                             apply(Const("VarC"), church(n)), env, CFG) is Verdict.EQUAL
    _report(2, "basis-family equivalence", started, 60.0, ok)


def test_criterion_3_bracket_soundness(env):
    started = time.perf_counter()
    corpus = random_closed_terms(count=200, seed=2024)
    ok = len(corpus) == 200
    for t in corpus:
        ok &= beta_eta_equal(expand_consts(turner(t), env), t, env, CFG) is Verdict.EQUAL
    for name in BUILTIN_META_NAMES:
        m = meta.builtin_meta(name)
        bound = extended_bound(m)
        for n in range(MAX_N + 1):
            ok &= beta_eta_equal(App(bound, church(n)), meta.expand(m, n), env, CFG) is Verdict.EQUAL
    _report(3, "bracket soundness", started, 120.0, ok)


def test_criterion_4_library_laws(env):
    started = time.perf_counter()

    def eq(a, b):
        return beta_eta_equal(a, b, env, CFG) is Verdict.EQUAL

    # Apply, VarExtend, Catenate and Iota: the instances of their law rows,
    # 4 + 4 + 16 + 4 at every index up to MAX_N
    instances = [i for name in ("Apply", "VarExtend", "Catenate", "Iota")
                 for i in checks.VARIADIC[name](name, MAX_N)]
    ok = len(instances) == 28
    for _, lhs, rhs in instances:
        ok &= eq(lhs, rhs)
    es = [Var("e1"), Var("e2"), Var("e3")]
    four = es + [Var("e4")]
    ok &= eq(apply(Const("VarRev"), church(3), *es), tuple_of(list(reversed(es))))
    ok &= eq(apply(tuple_of(four), apply(Const("VarRev"), church(4))),
             tuple_of(list(reversed(four))))
    ok &= eq(apply(Const("VarMap"), church(2), Const("Succ"), tuple_of([church(1), church(2)])),
             tuple_of([church(2), church(3)]))
    _report(4, "library laws", started, 10.0, ok)


def test_criterion_5_fixed_points(env):
    started = time.perf_counter()
    cases = [c for name in checks.OBSERVATIONAL for c in checks.check_entry(name, MAX_N, CFG, env)]
    _report(5, "fixed points", started, 120.0, all_ok(cases))


def test_criterion_6_boehm_relation(env):
    started = time.perf_counter()
    ok = beta_eta_equal(apply(Const("VarM"), church(1), church(1)),
                        parse("S I", env), env, CFG) is Verdict.EQUAL
    for n in range(1, 5):
        steps = [meta.build("boehm", n, j) for j in range(1, n + 1)]
        for k in range(1, n + 1):
            res = reduces_to(apply(meta.build("ycurry", n, k), *steps),
                             meta.build("yturing", n, k), env,
                             node_cap=100_000, depth_cap=200)
            ok &= res.found
    _report(6, "Boehm relation", started, 120.0, ok)


def test_criterion_7_one_point_basis(env):
    started = time.perf_counter()
    ok = all_ok(checks.check_makex(2, [Const("K"), Const("S")], CFG, env))
    ok &= all_ok(checks.check_makex(3, [Const("I"), Const("K"), Const("S")], CFG, env))
    _report(7, "one-point basis", started, 30.0, ok)


def test_criterion_8_size_observation():
    started = time.perf_counter()
    rows = size_observation(random_closed_terms(count=50, seed=2024))
    by_name = {c.name: c for c in rows}
    succ = by_name["size succ"]
    ok = succ.ok and "3" in succ.detail and "10" in succ.detail
    # violations elsewhere are reported, never failed
    ok &= all(c.ok for c in rows)
    print("SIZE REPORT: " + "; ".join(f"{c.name}: {c.detail}" for c in rows))
    _report(8, "size observation", started, 30.0, ok)
