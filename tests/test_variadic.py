import functools
from itertools import product
from pathlib import Path

import pytest

import varlam
from varlam import checks
from varlam.checks import all_ok
from varlam.church import church, tuple_of
from varlam.engine import ReductionConfig, Verdict, beta_eta_equal, normalize, verdict
from varlam.env import Env
from varlam.meta import build
from varlam.syntax import parse, parse_definitions
from varlam.terms import Const, Var, alpha_eq, apply, free_vars

CFG = ReductionConfig()
DATA = Path(varlam.__file__).parent / "data"


def eq(a, b, env):
    return beta_eta_equal(a, b, env, CFG) is Verdict.EQUAL


def test_library_registry(env):
    for name in (*checks.VARIADIC, *checks.OBSERVATIONAL):
        assert name in env
        assert not free_vars(env.expanded(name))


def test_every_library_entry_is_checked_by_exactly_one_suite():
    # a definition added to variadic.lam without a row in either table fails here
    env = Env()
    env.load_file(DATA / "prelude.lam")
    prelude = set(env.names())
    env.load_file(DATA / "variadic.lam")
    added = set(env.names()) - prelude
    assert set(checks.VARIADIC).isdisjoint(checks.OBSERVATIONAL)
    assert added == set(checks.VARIADIC) | set(checks.OBSERVATIONAL)


def test_rows_name_every_index():
    # the instances a row generates, before anything is normalized
    def labels(name, max_n):
        return [label for label, _, _ in checks.VARIADIC[name](name, max_n)]
    assert labels("VarK", 2) == ["n=0", "n=1", "n=2"]
    assert labels("VarSel", 3) == ["k=1 n=1", "k=1 n=2", "k=2 n=2", "k=1 n=3", "k=2 n=3", "k=3 n=3"]
    assert labels("Catenate", 1) == ["n=0 k=0", "n=0 k=1", "n=1 k=0", "n=1 k=1"]
    [(_, lhs, rhs)] = [i for i in checks.VARIADIC["VarProj"]("VarProj", 2) if i[0] == "k=2 n=2"]
    assert alpha_eq(lhs, apply(Const("VarProj"), church(2), church(2)))
    assert alpha_eq(rhs, build("proj", 2, 2))


def test_basis_entries_against_families(env):
    for name in ("VarI", "VarK", "VarS", "VarB", "VarC", "VarBalt", "VarCalt",
                 "VarSel", "VarProj", "VarTup", "VarRightApp", "VarRev",
                 "VarMap", "VarM"):
        assert all_ok(checks.check_entry(name, 2, CFG, env)), name


def test_boundary_identities(env):
    # K_0 = I, K_1 = K, and likewise for S, B, C
    for name in ("VarK", "VarS", "VarB", "VarC"):
        assert eq(apply(Const(name), church(0)), Const("I"), env)
    for name, single in (("VarK", "K"), ("VarS", "S"), ("VarB", "B"), ("VarC", "C")):
        assert eq(apply(Const(name), church(1)), Const(single), env)


def test_alternates_agree(env):
    for n in range(3):
        assert eq(apply(Const("VarBalt"), church(n)), apply(Const("VarB"), church(n)), env)
        assert eq(apply(Const("VarCalt"), church(n)), apply(Const("VarC"), church(n)), env)


def test_selector_behavior(env):
    got = apply(Const("VarSel"), church(2), church(3), Var("a"), Var("b"), Var("c"))
    assert eq(got, Var("b"), env)


def test_iota_law(env):
    got = apply(Const("Iota"), church(3))
    assert eq(got, tuple_of([church(0), church(1), church(2)]), env)
    assert eq(apply(Const("Iota"), church(0)), Const("I"), env)


def test_reverse_laws(env):
    es = [Var("e1"), Var("e2"), Var("e3")]
    got = apply(Const("VarRev"), church(3), *es)
    assert eq(got, tuple_of(list(reversed(es))), env)
    four = [Var("e1"), Var("e2"), Var("e3"), Var("e4")]
    got = apply(tuple_of(four), apply(Const("VarRev"), church(4)))
    assert eq(got, tuple_of(list(reversed(four))), env)


def test_map_law(env):
    got = apply(Const("VarMap"), church(2), Const("Succ"), tuple_of([church(1), church(2)]))
    assert eq(got, tuple_of([church(2), church(3)]), env)


def test_extend_law(env):
    got = apply(Const("VarExtend"), church(2), tuple_of([Var("a"), Var("b")]), Var("c"))
    assert eq(got, tuple_of([Var("a"), Var("b"), Var("c")]), env)


def test_catenate_law(env):
    es = [Var("e1"), Var("e2"), Var("e3")]
    fs = [Var("f1"), Var("f2")]
    got = apply(Const("Catenate"), church(3), tuple_of(es), church(2), tuple_of(fs))
    assert eq(got, tuple_of(es + fs), env)


def test_apply_law(env):
    got = apply(Const("Apply"), Var("f"), tuple_of([Var("a"), Var("b")]))
    assert eq(got, parse("f a b"), env)


def test_right_applicator(env):
    got = apply(Const("VarRightApp"), church(2), Var("f"), Var("g"), Var("z"))
    assert eq(got, parse("f (g z)"), env)


def test_constant_fixed_point_probes(env):
    for name in checks.OBSERVATIONAL:
        cases = checks.check_entry(name, 2, CFG, env)
        assert any(c.name.startswith("constant-probe") for c in cases), name
        assert all_ok(cases), name


def test_makex_pair(env):
    cases = checks.check_makex(2, [Const("K"), Const("S")], CFG, env)
    assert len(cases) == 2 and all_ok(cases)


def test_makex_triple(env):
    cases = checks.check_makex(3, [Const("I"), Const("K"), Const("S")], CFG, env)
    assert len(cases) == 3 and all_ok(cases)


def test_makex_non_combinator_terms(env):
    # the packed terms need not be closed
    cases = checks.check_makex(2, [Var("u"), parse(r"\x. x u")], CFG, env)
    assert all_ok(cases)


def test_makex_entry_beyond_the_basis(env):
    # arity 6 packs more terms than the five basis constants: the pool cycles
    cases = checks.check_entry("VarMakeX", 6, CFG, env)
    assert [c.name for c in cases if c.name.startswith("n=6 ")] == [f"n=6 recover E{k}" for k in range(1, 7)]
    assert all_ok(cases)


def test_makex_validates_arguments(env):
    with pytest.raises(ValueError):
        checks.check_makex(1, [Const("K")], CFG, env)


def test_boehm_report(env):
    cases = checks.check_boehm(1, cfg=CFG, env=env)
    assert all_ok(cases)
    labels = [c.name for c in cases]
    assert "VarM 1 1 = S I" in labels
    assert any(c.name.startswith("reduces-to") for c in cases)


def test_boehm_report_names_a_search_that_hit_its_cap(env, monkeypatch):
    monkeypatch.setattr(checks, "reduces_to", functools.partial(checks.reduces_to, node_cap=1))
    [case] = [c for c in checks.check_boehm(1, cfg=CFG, env=env) if c.name.startswith("reduces-to")]
    assert case.detail == "explored 1 pairs (cap hit: inconclusive)"
    assert not case.ok and case.inconclusive


def test_check_entry_observational_names(env):
    cases = checks.check_entry("VarPhi", 1, CFG, env)
    assert all_ok(cases)
    assert any("constant-probe" in c.name for c in cases)
    assert any(c.name == "no-normal-form probe" for c in cases)


def test_check_entry_unknown_name(env):
    with pytest.raises(KeyError):
        checks.check_entry("NotAnEntry", 1, CFG, env)


def test_upgrade_probe_needs_certificates(env):
    # every instance is certified well within the probe's fuel
    cases = [checks._upgrade_probe("VarPhi", 2, CFG, env)]
    assert [(c.name, c.ok) for c in cases] == [("no-normal-form probe", True)]
    # a fuel stop no longer passes for "no normal form": VarPhi c_1 c_1 needs
    # 551 steps, ycurry(1, 1) only 2
    cases = [checks._upgrade_probe("VarPhi", 1, ReductionConfig(fuel=100), env)]
    assert [(c.name, c.ok) for c in cases] == [("no-normal-form probe", False)]
    assert cases[0].detail == "not certified: VarPhi k=1 n=1 fuel-exhausted"


def test_upgrade_probe_refuses_a_normalizing_entry():
    # an entry that normalizes is no fixed-point combinator: the probe fails
    # and names each side with a normal form; the family sides stay certified
    env = Env()
    parse_definitions(r"K := \x y. x ; VarPhi := \k n. K ;", env)
    case = checks._upgrade_probe("VarPhi", 2, CFG, env)
    assert not case.ok
    assert case.detail == ("not certified: VarPhi k=1 n=1 normal-form, "
                           "VarPhi k=1 n=2 normal-form, VarPhi k=2 n=2 normal-form")
    # so is a tupled Y* that normalizes
    parse_definitions(r"Ystar := \n. K ;", env)
    case = checks._upgrade_probe("Ystar", 2, CFG, env)
    assert (case.ok, case.detail) == (False, "not certified: Ystar n=1 normal-form, Ystar n=2 normal-form")


def test_upgrade_probe_uses_the_callers_fuel(env):
    # VarPhi c_1 c_6 is certified after 39,836 steps, VarPsi c_1 c_6 after 35,709
    for name in ("VarPhi", "VarPsi"):
        cases = [checks._upgrade_probe(name, 6, CFG, env)]
        assert [(c.name, c.ok) for c in cases] == [("no-normal-form probe", True)]


def test_eq_case_names_the_stop(env):
    omega3 = parse(r"(\x.x x x) (\x.x x x)")
    case = checks._eq_cases("t", [("omega3", omega3, Const("I"))], ReductionConfig(fuel=100), env)[0]
    assert (case.ok, case.detail, case.inconclusive) == (False, "fuel-exhausted after 100 steps", True)
    # a certificate is a definite failure, not an inconclusive one
    phi = parse("VarPhi #1 #1", env)
    case = checks._eq_cases("t", [("phi", phi, Const("I"))], CFG, env)[0]
    assert (case.ok, case.detail, case.inconclusive) == (False, "no-normal-form after 551 steps", False)
    assert case.steps == 551


def test_eq_case_two_certificates_are_inconclusive(env):
    # neither side has a normal form, and two such terms may still be equal
    phi, psi = parse("VarPhi #1 #1", env), parse("VarPsi #1 #1", env)
    case = checks._eq_cases("t", [("phi-psi", phi, psi)], CFG, env)[0]
    assert (case.ok, case.detail, case.inconclusive) == (False, "no-normal-form after 551 steps", True)
    assert case.steps == 1243


# one term per kind of outcome under _RULE_CFG; the first two share a normal form
_OUTCOMES = {
    "nf": "K",
    "nf-same": r"(\x.x) K",
    "nf-other": "S",
    "no-nf": "VarPhi #1 #1",
    "fuel": r"(\x. #20 I x x y) (\x. #20 I x x y)",  # grows by one y every 23 steps
    "size": r"(\x.x x x) (\x.x x x)",
}
_RULE_CFG = ReductionConfig(fuel=2000, max_term_size=2000)


def _expected_verdict(a, b):
    if {a, b} & {"fuel", "size"} or a == b == "no-nf":
        return Verdict.UNKNOWN
    if "no-nf" in (a, b) or ("nf-other" in (a, b) and a != b):
        return Verdict.NOT_EQUAL
    return Verdict.EQUAL


def test_one_equality_rule(env):
    # verdict decides every pair of outcomes; a check case and eq read it alike
    terms = {kind: parse(src, env) for kind, src in _OUTCOMES.items()}
    outcomes = {kind: normalize(t, env, _RULE_CFG) for kind, t in terms.items()}
    assert [r.status.value for r in outcomes.values()] == [
        "normal-form", "normal-form", "normal-form", "no-normal-form", "fuel-exhausted", "size-exceeded"]
    for a, b in product(_OUTCOMES, repeat=2):
        v = verdict(outcomes[a], outcomes[b])
        assert v is _expected_verdict(a, b), (a, b)
        case = checks._compared("t", f"{a} = {b}", outcomes[a], outcomes[b])
        assert (case.ok, case.inconclusive) == (v is Verdict.EQUAL, v is Verdict.UNKNOWN), (a, b)
        assert beta_eta_equal(terms[a], terms[b], env, _RULE_CFG) is v, (a, b)
