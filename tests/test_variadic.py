import pytest

from varlam import variadic
from varlam.church import church, tuple_of
from varlam.engine import ReductionConfig, Verdict, beta_eta_equal
from varlam.report import all_ok
from varlam.syntax import parse
from varlam.terms import Const, Var, apply, free_vars

CFG = ReductionConfig()


def eq(a, b, env):
    return beta_eta_equal(a, b, env, CFG) is Verdict.EQUAL


def test_library_registry(env):
    lib = variadic.library(env)
    assert set(lib) == set(variadic.ENTRY_NAMES)
    for entry in lib.values():
        assert entry.name in env
        assert not free_vars(env.expanded(entry.name))
        if entry.name in variadic.OBSERVATIONAL:
            assert entry.check_mode == "Observational"
        else:
            assert entry.check_mode == "Normalizing"


def test_basis_entries_against_families(env):
    for name in ("VarI", "VarK", "VarS", "VarB", "VarC", "VarBalt", "VarCalt",
                 "VarSel", "VarProj", "VarTup", "VarRightApp", "VarRev",
                 "VarMap", "VarM"):
        assert all_ok(variadic.check_entry(name, 2, CFG, env)), name


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
    cases = variadic.probe_fixedpoints(2, CFG, env)
    assert cases and all_ok(cases)


def test_makex_pair(env):
    cases = variadic.check_makex(2, [Const("K"), Const("S")], CFG, env)
    assert len(cases) == 2 and all_ok(cases)


def test_makex_triple(env):
    cases = variadic.check_makex(3, [Const("I"), Const("K"), Const("S")], CFG, env)
    assert len(cases) == 3 and all_ok(cases)


def test_makex_non_combinator_terms(env):
    # the packed terms need not be closed
    cases = variadic.check_makex(2, [Var("u"), parse(r"\x. x u")], CFG, env)
    assert all_ok(cases)


def test_makex_validates_arguments(env):
    with pytest.raises(ValueError):
        variadic.check_makex(1, [Const("K")], CFG, env)


def test_boehm_report(env):
    cases = variadic.check_boehm(1, cfg=CFG, env=env)
    assert all_ok(cases)
    labels = [c.name for c in cases]
    assert "VarM 1 1 = S I" in labels
    assert any(c.name.startswith("reduces-to") for c in cases)


def test_check_entry_observational_names(env):
    cases = variadic.check_entry("VarPhi", 1, CFG, env)
    assert all_ok(cases)
    assert any("constant-probe" in c.name for c in cases)
    assert any("no-normal-form" in c.name or "upgraded" in c.name for c in cases)


def test_check_entry_unknown_name(env):
    with pytest.raises(KeyError):
        variadic.check_entry("NotAnEntry", 1, CFG, env)


def test_upgrade_probe_needs_certificates(env, monkeypatch):
    # every instance is certified well within the probe's fuel
    cases = variadic._upgrade_probe("VarPhi", 2, CFG, env)
    assert [(c.name, c.ok) for c in cases] == [("no-normal-form probe", True)]
    # a fuel stop no longer passes for "no normal form": VarPhi c_1 c_1 needs
    # 551 steps, ycurry(1, 1) only 2
    monkeypatch.setattr(variadic, "_UPGRADE_FUEL", 100)
    cases = variadic._upgrade_probe("VarPhi", 1, CFG, env)
    assert [(c.name, c.ok) for c in cases] == [("no-normal-form probe", False)]
    assert cases[0].detail == "not certified: VarPhi k=1 n=1 fuel-exhausted"
