import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varlam.checks import CaseResult, random_closed_terms
from varlam.church import church
from varlam.engine import (
    ReachResult,
    ReductionConfig,
    ReductionOutcome,
    Status,
    Verdict,
    beta_eta_equal,
    normalize,
    reduces_to,
    step_once,
    trace,
)
from varlam import engine
from varlam.meta import build
from varlam.syntax import parse, print_term
from varlam.terms import (
    App,
    Const,
    Lam,
    Term,
    UnexpandedConstant,
    Var,
    alpha_eq,
    apply,
    expand_consts,
    free_vars,
    size,
    substitute,
)

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


def test_records_keep_their_fields_defaults_and_text():
    """The result records are immutable named tuples: a derived config is
    ``cfg._replace(...)``, and construction, repr and str read as before."""
    cfg = ReductionConfig()
    assert (cfg.fuel, cfg.max_term_size, cfg.eta) == (1_000_000, 1_000_000, True)
    assert ReductionConfig(eta=False, fuel=5) == ReductionConfig(5, 1_000_000, False)
    with pytest.raises(AttributeError):
        cfg.fuel = 5
    assert cfg == ReductionConfig() and hash(cfg) == hash(ReductionConfig())
    assert repr(cfg) == "ReductionConfig(fuel=1000000, max_term_size=1000000, eta=True)"
    assert cfg._replace(fuel=7) == ReductionConfig(fuel=7) and cfg.fuel == 1_000_000
    out = normalize(parse(OMEGA), None, ReductionConfig(fuel=100))
    assert str(out) == "fuel-exhausted after 100 steps"
    assert out == ReductionOutcome(status=out.status, result=out.result, steps=100)
    assert ReachResult(True) == ReachResult(found=True, inconclusive=False, explored=0, generated=0)
    assert CaseResult("s", "n", True) == CaseResult(suite="s", name="n", ok=True, detail="",
                                                    steps=0, inconclusive=False)


def test_eta_postpass():
    assert alpha_eq(nf(parse(r"\x. f x")), Var("f"))
    assert alpha_eq(nf(parse(r"\x.\y. f x y")), Var("f"))
    without = normalize(parse(r"\x. f x"), None, ReductionConfig(eta=False))
    assert alpha_eq(without.result, parse(r"\x. f x"))


def test_eta_only_when_not_free():
    assert alpha_eq(nf(parse(r"\x. x x")), parse(r"\x. x x"))


def eta_reference(t: Term) -> Term:
    """Erase every eta-redex lam x.(P x) with x not free in P, post-order, in
    a separate pass: the reference for the erasure inside normalize."""
    cls = t.__class__
    if cls is App:
        fun = eta_reference(t.fun)
        arg = eta_reference(t.arg)
        return t if fun is t.fun and arg is t.arg else App(fun, arg)
    if cls is Lam:
        body = eta_reference(t.body)
        if (
            body.__class__ is App
            and body.arg.__class__ is Var
            and body.arg.name == t.binder
            and t.binder not in free_vars(body.fun)
        ):
            return body.fun
        return Lam(t.binder, body) if body is not t.body else t
    return t


def test_eta_erased_in_the_finished_parts_of_a_stopped_result():
    t = parse(r"x (\y. f y) ((\x.x x) (\x.x x))")
    on = normalize(t, None, ReductionConfig(fuel=5))
    off = normalize(t, None, ReductionConfig(fuel=5, eta=False))
    assert (on.status, on.steps) == (off.status, off.steps) == (Status.FUEL_EXHAUSTED, 5)
    assert print_term(on.result) == r"x f ((\x.x x) (\x.x x))"
    assert print_term(off.result) == r"x (\y.f y) ((\x.x x) (\x.x x))"


@pytest.mark.parametrize("source, name", [("x (K y) S", "K"), (r"\x. x (I (K x))", "I")])
def test_every_entry_point_names_the_leftmost_constant(source, name):
    t = parse(source)
    calls = (normalize, trace, size,
             lambda t: reduces_to(t, Var("x")), lambda t: reduces_to(Var("x"), t),
             lambda t: beta_eta_equal(t, Var("x")), lambda t: beta_eta_equal(Var("x"), t))
    for call in calls:
        with pytest.raises(UnexpandedConstant) as err:
            call(t)
        assert err.value.name == name
        assert str(err.value) == f"term contains unexpanded constant: {name}"


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


def test_trace_stops_at_the_size_limit():
    # the first reduct over the limit ends the trace, as it stops normalize
    t = parse(r"(\x. x x x) (\x. x x x)")
    cfg = ReductionConfig(fuel=12, max_term_size=30)
    steps = trace(t, None, cfg)
    out = normalize(t, None, cfg)
    assert (out.status, out.steps, len(steps) - 1) == (Status.SIZE_EXCEEDED, 3, 3)
    assert steps[-1].size > 30 >= steps[-2].size
    assert alpha_eq(steps[-1], out.result)


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


def test_no_residual_redexes():
    for t in random_closed_terms(count=60, seed=9):
        r = nf(t)
        assert not _has_beta_redex(r)
        assert eta_reference(r) is r  # no eta-redex left to erase


def test_equivalence_coherence():
    # Equal verdicts coincide with alpha-equality of the normal forms
    corpus = random_closed_terms(count=20, seed=12)
    for a in corpus[:10]:
        for b in corpus[10:]:
            verdict = beta_eta_equal(a, b)
            assert (verdict is Verdict.EQUAL) == alpha_eq(nf(a), nf(b))


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
                assert alpha_eq(eta_reference(other), expected)
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
    # matching the bodies must not capture the free y of the left side
    res = reduces_to(parse(r"\x. y x"), parse(r"\y. y y"))
    assert not res.found and not res.inconclusive


def test_reduces_to_boehm(env):
    # the queries of check_boehm, which prints "explored N pairs": (pairs,
    # weak-head steps) per n, the same for every k
    expected = {1: (7, 4), 2: (15, 11), 3: (25, 21), 4: (37, 34)}
    for n, counts in expected.items():
        steps = [build("boehm", n, j) for j in range(1, n + 1)]
        for k in range(1, n + 1):
            lhs = apply(build("ycurry", n, k), *steps)
            res = reduces_to(lhs, build("yturing", n, k), env, node_cap=100_000, depth_cap=200)
            assert res.found and not res.inconclusive
            assert (res.explored, res.generated) == counts, (n, k)
        if n in (2, 3):
            # negative control: the Curry combinator for k = 1 does not reach
            # the Turing combinator for k = 2
            lhs = apply(build("ycurry", n, 1), *steps)
            res = reduces_to(lhs, build("yturing", n, 2), env, node_cap=100_000, depth_cap=200)
            assert not res.found and not res.inconclusive


def test_reduces_to_node_cap(env):
    # the Boehm query at n = 2, k = 1 explores 15 pairs; a cap of 3 stops it
    steps = [build("boehm", 2, j) for j in (1, 2)]
    lhs, target = apply(build("ycurry", 2, 1), *steps), build("yturing", 2, 1)
    res = reduces_to(lhs, target, env)
    assert (res.found, res.inconclusive, res.explored) == (True, False, 15)
    res = reduces_to(lhs, target, env, node_cap=3)
    assert (res.found, res.inconclusive, res.explored) == (False, True, 3)


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


def _naive_reduces_to(a, target, node_cap, depth_cap):
    """The reference search: breadth-first over the reducts at every redex,
    with pairwise alpha-equality."""
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
    res = reduces_to(a, target)
    found, inconclusive, _, _ = _naive_reduces_to(a, target, node_cap, depth_cap)
    if found or path:
        assert res.found and not res.inconclusive
    if not inconclusive:
        assert (res.found, res.inconclusive) == (found, False)


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
# beta-steps to the certificate of Ystar c_n and YstarCurried c_n from n = 1,
# for every n certified under the default fuel of 1M steps; YstarCurried #12
# exhausts it
YSTAR_STEPS = {
    "Ystar": (66, 182, 446, 1016, 2208, 4654, 9618, 19628, 39740, 80066, 160830, 322480),
    "YstarCurried": (382, 1059, 2586, 5853, 12640, 26507, 54574, 111081, 224508, 451815, 906922),
}


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
    out = normalize(App(Const("YstarCurried"), church(12)), env)
    assert (out.status, out.steps) == (Status.FUEL_EXHAUSTED, ReductionConfig().fuel)


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


# Both term mixes, combined under lambdas that are eta-redexes unless the
# variable they apply to is free in the function part.
_closed_terms = st.integers(0, 2**32).map(lambda seed: random_closed_terms(count=1, seed=seed)[0])
_eta_terms = st.recursive(
    mixed_terms | _closed_terms,
    lambda sub: (st.builds(lambda p, x: Lam(x, App(p, Var(x))), sub, reach_names)
                 | st.builds(Lam, reach_names, sub) | st.builds(App, sub, sub)),
    max_leaves=6,
)


@settings(max_examples=300)
@given(_eta_terms)
def test_eta_in_the_beta_loop_matches_the_separate_pass(t):
    cfg = ReductionConfig(fuel=200, max_term_size=2_000)
    off = normalize(t, None, cfg._replace(eta=False))
    on = normalize(t, None, cfg)
    assert (on.status, on.steps) == (off.status, off.steps)
    if on.status is Status.NORMAL_FORM:
        assert print_term(on.result) == print_term(eta_reference(off.result))


def _reference_run(t: Term, fuel: int, max_size: int):
    """(term, steps, status) where normalize (eta off) must stop, by step_once,
    the step of trace."""
    for steps in range(fuel + 1):
        if steps and t.size > max_size:
            return t, steps, Status.SIZE_EXCEEDED
        nxt = step_once(t)
        if nxt is None:
            return t, steps, Status.NORMAL_FORM
        if steps == fuel:
            return t, steps, Status.FUEL_EXHAUSTED
        t = nxt


@settings(max_examples=300)
@given(mixed_terms)
def test_certificate_never_fires_on_a_normalizing_term(t):
    fuel, max_size = 200, 2_000
    out = normalize(t, None, ReductionConfig(fuel=fuel, max_term_size=max_size, eta=False))
    ref, steps, status = _reference_run(t, fuel, max_size)
    if status is Status.NORMAL_FORM:
        assert out.status is Status.NORMAL_FORM
        assert out.steps == steps
        assert alpha_eq(out.result, ref)
    else:
        assert out.status is not Status.NORMAL_FORM


# Normal order copies these unevaluated arguments; normalize reduces each copy
# once (App.whnf), trace contracts every copy.
SHARING_TERMS = (
    r"#6 (\x. Pair x x) I", "VarS #5", "VarTup #4", "Iota #4",
    r"Catenate #2 (\z. z a1 a2) #2 (\z. z b1 b2)",
    r"Catenate #3 (\z. z a1 a2 a3) #3 (\z. z b1 b2 b3)",
)


def _identical(a: Term, b: Term) -> bool:
    """The same tree, binder names included (what print_term shows)."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if a is b:
            continue
        cls = a.__class__
        if cls is not b.__class__:
            return False
        if cls is App:
            pairs += ((a.arg, b.arg), (a.fun, b.fun))
        elif cls is Lam:
            if a.binder != b.binder:
                return False
            pairs.append((a.body, b.body))
        elif a.name != b.name:
            return False
    return True


def _assert_stops_match_trace(t: Term):
    """At every fuel cutoff and every size limit along t's trace, normalize
    (eta off) and trace agree on status and steps, and the stopped term is
    the same, binder names included."""
    steps = trace(t)
    sizes = [s.size for s in steps]
    last = len(steps) - 1
    for fuel in range(last + 1):
        out = normalize(t, None, ReductionConfig(fuel=fuel, eta=False))
        status = Status.NORMAL_FORM if fuel == last else Status.FUEL_EXHAUSTED
        assert (out.status, out.steps) == (status, fuel), fuel
        assert _identical(out.result, steps[fuel]), fuel
    for limit in sorted(set(sizes)):
        out = normalize(t, None, ReductionConfig(max_term_size=limit, eta=False))
        first = next((k for k in range(1, last + 1) if sizes[k] > limit), None)
        expected = (Status.NORMAL_FORM, last) if first is None else (Status.SIZE_EXCEEDED, first)
        assert (out.status, out.steps) == expected, limit
        assert _identical(out.result, steps[out.steps]), limit


def test_shared_reducts_stop_where_trace_does(env):
    for source in SHARING_TERMS:
        t = expand_consts(parse(source, env), env)
        normalize(t)  # the cutoffs below meet every reduct recorded here
        _assert_stops_match_trace(t)


def _count_substitutions(monkeypatch) -> list[int]:
    """A one-item list that counts the reducer's calls of substitute (counted
    where the reducer looks it up, as perfbench does)."""
    calls = [0]
    real = engine.substitute

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(engine, "substitute", counting)
    return calls


def test_shared_reducts_keep_normal_order_counts(env, monkeypatch):
    # VarS iterates a pair, so normal order reduces 2^n copies of it; each
    # step is still counted, but far fewer substitutions are performed
    contractions = _count_substitutions(monkeypatch)
    for n, steps in ((6, 2639), (8, 10869)):
        t = expand_consts(parse(f"VarS #{n}", env), env)
        contractions[0] = 0
        out = normalize(t)
        assert (out.status, out.steps) == (Status.NORMAL_FORM, steps)
        assert contractions[0] * 5 < steps, (n, contractions[0])
        again = normalize(t)  # now every App on the way has its reduct recorded
        assert (again.status, again.steps) == (out.status, out.steps)
        assert print_term(again.result) == print_term(out.result)


def test_each_redex_is_contracted_once_per_call(env, monkeypatch):
    # normal order meets the same lambda applied to the same argument again
    # and again; one call of normalize substitutes for each such redex once
    contractions = _count_substitutions(monkeypatch)
    t = expand_consts(parse("VarS #16", env), env)
    out = normalize(t, None, ReductionConfig(fuel=3_000_000))
    assert (out.status, out.steps) == (Status.NORMAL_FORM, 2_817_805)
    assert contractions[0] < 5_000, contractions[0]
    assert alpha_eq(out.result, build("S", 16))


def test_memo_started_afresh_keeps_steps_and_results(env, monkeypatch):
    # a memo emptied every few contractions loses reuse, never a step
    monkeypatch.setattr(engine, "_MEMO_CAP", 3)
    for source in ("VarS #5", r"Catenate #2 (\z. z a1 a2) #2 (\z. z b1 b2)"):
        _assert_stops_match_trace(expand_consts(parse(source, env), env))


def test_replayed_reduct_raises_the_enclosing_peak():
    # M swells before it shrinks to a lambda.  Recorded on its own first, M
    # is replayed inside E = I M, so E's recorded peak must include M's: at a
    # size limit below that peak, E reduces for real and stops where trace does.
    m = parse(r"(\x. (\a b. b) (x x x x) (\y. y)) (\u. u u u)")
    e = App(parse(r"\z. z"), m)
    normalize(m)
    normalize(e)
    _assert_stops_match_trace(e)


@settings(max_examples=300)
@given(mixed_terms, st.integers(0, 60), st.integers(1, 300))
def test_shared_reducts_match_trace_exactly(t, fuel, max_size):
    normalize(t, None, ReductionConfig(fuel=200, max_term_size=2_000))  # record reducts first
    out = normalize(t, None, ReductionConfig(fuel=fuel, max_term_size=max_size, eta=False))
    ref, steps, status = _reference_run(t, fuel, max_size)
    if out.status is Status.NO_NORMAL_FORM:
        # the certificate may stop earlier, never on a term that normalizes
        assert status is not Status.NORMAL_FORM and out.steps <= steps
        ref = trace(t, None, ReductionConfig(fuel=out.steps))[-1]
    else:
        assert (out.status, out.steps) == (status, steps)
    assert print_term(out.result) == print_term(ref)


# -- the cycle collector is paused for one kernel call, and restored ---------


def _record_collector(monkeypatch) -> list[bool]:
    """gc.isenabled() at each of the reducer's calls of substitute."""
    seen = []
    real = engine.substitute

    def recording(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(engine, "substitute", recording)
    return seen


@pytest.mark.parametrize("source, cfg, status", [
    ("Succ #2", ReductionConfig(), Status.NORMAL_FORM),
    (OMEGA, ReductionConfig(fuel=100), Status.FUEL_EXHAUSTED),
    ("#9 #9", ReductionConfig(max_term_size=5000), Status.SIZE_EXCEEDED),
    (r"\f.(\x.f (x x)) (\x.f (x x))", ReductionConfig(), Status.NO_NORMAL_FORM),
], ids=["normal-form", "fuel-exhausted", "size-exceeded", "no-normal-form"])
def test_collector_paused_in_the_beta_loop(env, monkeypatch, collector, source, cfg, status):
    seen = _record_collector(monkeypatch)
    out = normalize(parse(source, env), env, cfg)
    assert out.status is status
    assert seen and not any(seen)
    assert gc.isenabled()


def test_collector_restored_after_an_error_in_the_loop(monkeypatch, collector):
    seen = []

    def failing(*args):
        seen.append(gc.isenabled())
        raise RuntimeError("substitute failed")

    monkeypatch.setattr(engine, "substitute", failing)
    with pytest.raises(RuntimeError):
        normalize(parse(OMEGA))
    assert seen == [False]
    assert gc.isenabled()


def test_collector_left_off_when_the_caller_paused_it(env, collector):
    gc.disable()
    assert normalize(parse("Succ #2", env), env).status is Status.NORMAL_FORM
    assert beta_eta_equal(parse("Plus #1 #2", env), parse("#3", env), env) is Verdict.EQUAL
    assert not gc.isenabled()


def test_knots_freed_when_the_memo_starts_afresh(env, monkeypatch, collector):
    """A long paused call leaves no more whnf-knot garbage than one memo holds:
    each of the 800 fixed points below ties a knot, about 12,300 objects that
    only the cycle collector frees, and all would be left without the
    collection at each memo reset."""
    monkeypatch.setattr(engine, "_MEMO_CAP", 1024)
    monkeypatch.setattr(engine, "_KNOT_SWEEP", 0)
    t = parse(r"#800 (\x. VarPsi #1 #1 (\r m. Zero m x (r (Pred m))) #3) #0", env)
    gc.collect()
    out = normalize(t, env, ReductionConfig(max_term_size=10**9))
    left = gc.collect()  # before any allocation can start a collection itself
    assert out.status is Status.FUEL_EXHAUSTED
    assert left < 2000
