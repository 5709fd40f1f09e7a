import random

from hypothesis import given, settings
from hypothesis import strategies as st

from varlam.checks import random_closed_terms
from varlam.church import church
from varlam.engine import (
    ReductionConfig,
    _DeBruijnTable,
    Status,
    Verdict,
    beta_eta_equal,
    eta_normalize,
    normalize,
    one_step_reducts,
    reduces_to,
    step_once,
    trace,
)
from varlam.meta import build
from varlam.syntax import parse
from varlam.terms import App, Const, Lam, Term, Var, alpha_eq, apply, expand_consts

OMEGA = r"(\x.x x) (\x.x x)"


def nf(t, env=None, cfg=ReductionConfig()):
    out = normalize(t, env, cfg)
    assert out.status is Status.NORMAL_FORM
    return out.result


def test_normalize_identity_application(env):
    out = normalize(parse(r"(\x.x) K", env), env)
    assert out.status is Status.NORMAL_FORM and out.steps == 1
    assert alpha_eq(out.result, env.expanded("K"))


def test_normalize_succ(env):
    assert alpha_eq(nf(parse("Succ #2", env), env), church(3))


def test_normalize_discards_divergent_argument(env):
    # normal order never touches the unused Omega argument
    assert alpha_eq(nf(parse(r"(\x.\y.y) ((\x.x x) (\x.x x))"), None), parse(r"\y.y"))


def test_fuel_exhaustion():
    out = normalize(parse(OMEGA), None, ReductionConfig(fuel=100))
    assert out.status is Status.FUEL_EXHAUSTED
    assert out.steps == 100
    assert alpha_eq(out.result, parse(OMEGA))


def test_size_exceeded():
    out = normalize(parse("#9 #9"), None, ReductionConfig(max_term_size=5000))
    assert out.status is Status.SIZE_EXCEEDED


def test_eta_postpass():
    assert alpha_eq(nf(parse(r"\x. f x")), Var("f"))
    assert alpha_eq(nf(parse(r"\x.\y. f x y")), Var("f"))
    without = normalize(parse(r"\x. f x"), None, ReductionConfig(eta=False))
    assert alpha_eq(without.result, parse(r"\x. f x"))


def test_eta_only_when_not_free():
    assert alpha_eq(nf(parse(r"\x. x x")), parse(r"\x. x x"))


def test_beta_eta_equal_examples(env):
    assert beta_eta_equal(parse(r"\x. f x"), Var("f"), env) is Verdict.EQUAL
    assert beta_eta_equal(parse("#1"), parse(r"\s.s"), env) is Verdict.EQUAL
    assert beta_eta_equal(parse("K", env), parse("S", env), env) is Verdict.NOT_EQUAL
    small = ReductionConfig(fuel=50)
    assert beta_eta_equal(parse(OMEGA), Var("f"), env, small) is Verdict.UNKNOWN


def test_beta_eta_equal_certified_side(env):
    # a certified no-normal-form side differs from any side with a normal form
    phi, psi = parse("VarPhi #1 #1", env), parse("VarPsi #1 #1", env)
    assert beta_eta_equal(phi, parse("K", env), env) is Verdict.NOT_EQUAL
    assert beta_eta_equal(Var("f"), phi, env) is Verdict.NOT_EQUAL
    # two certified sides, or a fuel stop on either side, decide nothing
    assert beta_eta_equal(phi, psi, env) is Verdict.UNKNOWN
    assert beta_eta_equal(phi, parse(OMEGA), env, ReductionConfig(fuel=1000)) is Verdict.UNKNOWN
    assert beta_eta_equal(parse(OMEGA), phi, env, ReductionConfig(fuel=1000)) is Verdict.UNKNOWN
    assert beta_eta_equal(phi, parse("K", env), env, ReductionConfig(fuel=100)) is Verdict.UNKNOWN


def test_trace_examples(env):
    steps = trace(parse(r"(\x.x) y"))
    assert len(steps) == 2 and alpha_eq(steps[1], Var("y"))

    t = expand_consts(parse("I (I z)", env), env)
    steps = trace(t)
    assert len(steps) == 3 and alpha_eq(steps[-1], Var("z"))

    steps = trace(parse(OMEGA), None, ReductionConfig(fuel=3))
    assert len(steps) == 4
    assert all(alpha_eq(s, steps[0]) for s in steps)


def test_trace_agrees_with_normalize(env):
    # the naive global stepper and the zipper machine are independent
    # implementations of the same strategy
    for t in random_closed_terms(count=40, seed=7):
        out = normalize(t, None, ReductionConfig(eta=False))
        steps = trace(t)
        assert len(steps) - 1 == out.steps
        assert alpha_eq(steps[-1], out.result)


def test_normalize_idempotent(env):
    for t in random_closed_terms(count=40, seed=8):
        out = normalize(t)
        again = normalize(out.result)
        assert again.steps == 0
        assert alpha_eq(again.result, out.result)


def _has_beta_redex(t: Term) -> bool:
    if t.__class__ is App:
        return (t.fun.__class__ is Lam) or _has_beta_redex(t.fun) or _has_beta_redex(t.arg)
    if t.__class__ is Lam:
        return _has_beta_redex(t.body)
    return False


def _has_eta_redex(t: Term) -> bool:
    if t.__class__ is Lam:
        b = t.body
        if b.__class__ is App and b.arg.__class__ is Var and b.arg.name == t.binder \
                and t.binder not in b.fun.free:
            return True
        return _has_eta_redex(b)
    if t.__class__ is App:
        return _has_eta_redex(t.fun) or _has_eta_redex(t.arg)
    return False


def test_no_residual_redexes():
    for t in random_closed_terms(count=60, seed=9):
        r = nf(t)
        assert not _has_beta_redex(r)
        assert not _has_eta_redex(r)


def test_equivalence_coherence():
    # Equal verdicts coincide with alpha-equality of the normal forms
    corpus = random_closed_terms(count=20, seed=12)
    for a in corpus[:10]:
        for b in corpus[10:]:
            verdict = beta_eta_equal(a, b)
            assert (verdict is Verdict.EQUAL) == alpha_eq(nf(a), nf(b))


def random_strategy_normalize(t: Term, fuel: int = 10_000, max_size: int = 200_000, seed: int = 0):
    """Contract uniformly random redexes; None if fuel or size runs out."""
    rng = random.Random(seed)
    for _ in range(fuel):
        if t.size > max_size:
            return None
        reducts = one_step_reducts(t)
        if not reducts:
            return t
        t = rng.choice(reducts)
    return None


def test_confluence_spot_check():
    for i, t in enumerate(random_closed_terms(count=40, seed=10)):
        expected = nf(t)
        for attempt in range(3):
            other = random_strategy_normalize(t, seed=1000 * i + attempt)
            if other is not None:
                assert alpha_eq(eta_normalize(other), expected)
                break


def test_step_once_is_leftmost_outermost():
    t = parse(r"((\x.x) a) ((\y.y) b)")
    s = step_once(t)
    assert alpha_eq(s, parse(r"a ((\y.y) b)"))


def test_one_step_reducts_cover_all_positions():
    t = parse(r"((\x.x) a) ((\y.y) b)")
    reds = one_step_reducts(t)
    assert len(reds) == 2


def test_reduces_to_reflexive(env):
    t = parse(r"\x. x x")
    assert reduces_to(t, t, env).found


def test_reduces_to_refuted(env):
    res = reduces_to(parse("K", env), parse("S", env), env, node_cap=100, depth_cap=10)
    assert not res.found and not res.inconclusive


def test_reduces_to_boehm(env):
    # the three queries of check_boehm, which prints "explored N terms"
    expected = {(1, 1): (12, 13), (2, 1): (5597, 14653), (2, 2): (5056, 12940)}
    for (n, k), (explored, generated) in expected.items():
        steps = [build("boehm", n, j) for j in range(1, n + 1)]
        lhs = apply(build("ycurry", n, k), *steps)
        res = reduces_to(lhs, build("yturing", n, k), env, node_cap=100_000, depth_cap=200)
        assert res.found and not res.inconclusive
        assert (res.explored, res.generated) == (explored, generated)


def test_reduces_to_cap_reported(env):
    # Omega's graph is a single loop state: a genuine refutation
    res = reduces_to(parse(OMEGA), parse("K", env), env, node_cap=10, depth_cap=5)
    assert not res.found and not res.inconclusive
    # a growing graph hits the caps: inconclusive, not refuted
    grower = parse(r"(\x.x x x) (\x.x x x)")
    res = reduces_to(grower, parse("K", env), env, node_cap=10, depth_cap=5)
    assert not res.found and res.inconclusive


def test_arithmetic_sanity(env):
    from varlam.church import unchurch

    for a in range(9):
        for b in range(9):
            assert unchurch(apply(Const("Plus"), church(a), church(b)), env) == a + b
            assert unchurch(apply(Const("Monus"), church(a), church(b)), env) == max(a - b, 0)
    assert alpha_eq(nf(apply(Const("Zero"), church(0)), env), env.expanded("True"))
    assert alpha_eq(nf(apply(Const("Zero"), church(3)), env), env.expanded("False"))


# Names that collide with priming (x') and with binder-numbering schemes (v0).
reach_names = st.sampled_from(["x", "y", "z", "v0", "v1", "x'"])
reach_terms = st.recursive(
    reach_names.map(Var),
    lambda sub: (st.builds(Lam, reach_names, sub) | st.builds(App, sub, sub)
                 | st.builds(lambda b, body, arg: App(Lam(b, body), arg), reach_names, sub, sub)),
    max_leaves=10,
)


def _rename_binders(t: Term) -> Term:
    """An alpha-variant: every binder gets a fresh name of its own."""
    counter = [0]

    def go(u, ren):
        if u.__class__ is Var:
            return Var(ren.get(u.name, u.name))
        if u.__class__ is App:
            return App(go(u.fun, ren), go(u.arg, ren))
        counter[0] += 1
        fresh = f"b{counter[0]}"
        return Lam(fresh, go(u.body, {**ren, u.binder: fresh}))

    return go(t, {})


@given(reach_terms, reach_terms)
def test_table_ids_are_alpha_classes(a, b):
    table = _DeBruijnTable()
    assert table.intern(a) == table.intern(_rename_binders(a))
    assert (table.intern(a) == table.intern(b)) == alpha_eq(a, b)


@given(reach_terms)
def test_table_reducts_match_one_step_reducts(t):
    # position by position, up to alpha (ids are alpha classes, above)
    table = _DeBruijnTable()
    named = one_step_reducts(t)
    assert table.reducts(table.intern(t)) == [table.intern(r) for r in named]


def _naive_reduces_to(a, target, node_cap, depth_cap):
    """The reference search: named reducts, pairwise alpha-equality."""
    if alpha_eq(a, target):
        return True, False, 1, 0
    seen, frontier, capped, generated = [a], [a], False, 0
    for _ in range(depth_cap):
        if not frontier:
            return False, capped, len(seen), generated
        nxt = []
        for t in frontier:
            reducts = one_step_reducts(t)
            generated += len(reducts)
            for r in reducts:
                if any(alpha_eq(r, s) for s in seen):
                    continue
                if alpha_eq(r, target):
                    return True, False, len(seen) + 1, generated
                if len(seen) >= node_cap:
                    capped = True
                    continue
                seen.append(r)
                nxt.append(r)
        frontier = nxt
    return False, capped or bool(frontier), len(seen), generated


@given(reach_terms, reach_terms, st.lists(st.integers(0, 7), max_size=4),
       st.integers(1, 25), st.integers(1, 5))
def test_reduces_to_matches_naive_search(a, other, path, node_cap, depth_cap):
    # the target is either an unrelated term or one reached along `path`
    target = other
    if path:
        target = a
        for i in path:
            reducts = one_step_reducts(target)
            if not reducts:
                break
            target = reducts[i % len(reducts)]
    res = reduces_to(a, target, node_cap=node_cap, depth_cap=depth_cap)
    assert (res.found, res.inconclusive, res.explored, res.generated) == \
        _naive_reduces_to(a, target, node_cap, depth_cap)


def test_size_limit_is_exact(env):
    # The tracked size is the true size at every stop: a size limit stops at
    # the first step whose term outgrows it, and a fuel stop within the limit
    # is reported as such.
    t = parse(r"#6 (\x. Pair x x) I", env)
    fuel = 100
    sizes = [s.size for s in trace(t, env, ReductionConfig(fuel=fuel))]
    for limit in sorted(set(sizes)):
        out = normalize(t, env, ReductionConfig(fuel=fuel, max_term_size=limit))
        first = next((k for k in range(1, len(sizes)) if sizes[k] > limit), None)
        if first is None:
            assert out.status is Status.FUEL_EXHAUSTED and out.steps == fuel
            assert out.result.size == sizes[fuel]
        else:
            assert out.status is Status.SIZE_EXCEEDED and out.steps == first
            assert out.result.size == sizes[first]


def test_certified_no_normal_form_examples(env):
    # Curry's Y and Turing's Theta regress at once; Omega only cycles, which
    # the certificate does not cover, so it runs out of fuel (test_fuel_exhaustion)
    for source, steps in ((r"\f.(\x.f (x x)) (\x.f (x x))", 2),
                          (r"(\x y. y (x x y)) (\x y. y (x x y))", 3)):
        out = normalize(parse(source), None, ReductionConfig(fuel=100))
        assert out.status is Status.NO_NORMAL_FORM and out.steps == steps
        # the result is the term the machine stopped on: the trace's last term
        assert alpha_eq(out.result, trace(parse(source), None, ReductionConfig(fuel=steps))[-1])


def test_certificate_spares_normalizing_terms(env):
    # equal sibling arguments are never open at the same time
    out = normalize(parse("x (y z) (y z)"))
    assert out.status is Status.NORMAL_FORM and out.steps == 0
    # the open argument (\u. y (u u)) (\a. a b c) and its inner argument
    # (\a. a b c) (\a. a b c) have the same size but differ
    out = normalize(parse(r"x ((\u. y (u u)) (\a. a b c))"))
    assert out.status is Status.NORMAL_FORM and out.steps == 3
    assert alpha_eq(out.result, parse("x (y (b b c c))"))
    # normal order discards the regressing argument unseen
    out = normalize(parse(r"(\x.\y.y) (VarPhi #1 #1)", env), env)
    assert out.status is Status.NORMAL_FORM and out.steps == 1
    assert alpha_eq(out.result, parse(r"\y.y"))


# beta-steps to the certificate, at 1 <= k <= n <= 3
FIXPOINT_STEPS = {
    "VarPhi": {(1, 1): 551, (1, 2): 1548, (2, 2): 1573, (1, 3): 3815, (2, 3): 3850, (3, 3): 3875},
    "VarPsi": {(1, 1): 692, (1, 2): 1637, (2, 2): 1707, (1, 3): 3704, (2, 3): 3794, (3, 3): 3864},
    "ycurry": {(1, 1): 2, (1, 2): 4, (2, 2): 4, (1, 3): 6, (2, 3): 6, (3, 3): 6},
    "yturing": {(1, 1): 3, (1, 2): 6, (2, 2): 6, (1, 3): 9, (2, 3): 9, (3, 3): 9},
}
# beta-steps to the certificate of Ystar c_n and YstarCurried c_n, n = 1, 2, 3
YSTAR_STEPS = {"Ystar": (66, 182, 446), "YstarCurried": (382, 1059, 2586)}


def test_fixed_point_combinators_are_certified(env):
    for name, table in FIXPOINT_STEPS.items():
        for (k, n), steps in table.items():
            if name in ("VarPhi", "VarPsi"):
                t = apply(Const(name), church(k), church(n))
            else:
                t = build(name, n, k)
            out = normalize(t, env)
            assert (out.status, out.steps) == (Status.NO_NORMAL_FORM, steps), (name, k, n)
    for name, table in YSTAR_STEPS.items():
        for n, steps in enumerate(table, start=1):
            out = normalize(App(Const(name), church(n)), env)
            assert (out.status, out.steps) == (Status.NO_NORMAL_FORM, steps), (name, n)


# Random terms mixing free variables with self-application, fixed-point and
# discarding combinators, so that both regressing and normalizing terms occur.
_FIXPOINT_PARTS = [parse(s) for s in (
    r"\x.x x", r"\x.f (x x)", r"\f.(\x.f (x x)) (\x.f (x x))", r"\x y.y", r"\x y.x",
    r"(\x y. y (x x y)) (\x y. y (x x y))",
)]
mixed_terms = st.recursive(
    reach_names.map(Var) | st.sampled_from(_FIXPOINT_PARTS),
    lambda sub: st.builds(Lam, reach_names, sub) | st.builds(App, sub, sub),
    max_leaves=12,
)


def _reference_normal_form(t: Term, fuel: int, max_size: int):
    """(normal form, steps) by step_once, the step of trace; None past fuel or size."""
    for steps in range(fuel + 1):
        if t.size > max_size:
            return None
        nxt = step_once(t)
        if nxt is None:
            return t, steps
        t = nxt
    return None


@settings(max_examples=300)
@given(mixed_terms)
def test_certificate_never_fires_on_a_normalizing_term(t):
    fuel, max_size = 200, 2_000
    out = normalize(t, None, ReductionConfig(fuel=fuel, max_term_size=max_size, eta=False))
    ref = _reference_normal_form(t, fuel, max_size)
    if ref is not None:
        assert out.status is Status.NORMAL_FORM
        assert out.steps == ref[1]
        assert alpha_eq(out.result, ref[0])
    else:
        assert out.status is not Status.NORMAL_FORM
