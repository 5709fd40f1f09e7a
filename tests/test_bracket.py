import pytest

from varlam import meta
from varlam.bracket import (
    BUILTIN_META_NAMES,
    MixedSequenceUse,
    extended_bound,
    turner,
)
from varlam.checks import _eq_cases, random_closed_terms, size_observation, suite_bracket
from varlam.church import church
from varlam.engine import ReductionConfig, Verdict, beta_eta_equal
from varlam.env import standard_env
from varlam.syntax import parse, parse_meta, print_term
from varlam.terms import App, Lam, Term, alpha_eq, expand_consts


def _lam_free(t: Term) -> bool:
    if t.__class__ is Lam:
        return False
    if t.__class__ is App:
        return _lam_free(t.fun) and _lam_free(t.arg)
    return True


def test_turner_succ_golden():
    assert print_term(turner(parse(r"\a b c. b (a b c)"))) == "S B"


def test_turner_self_application_golden():
    assert print_term(turner(parse(r"\x. x x"))) == "S I I"


def test_turner_constant_golden():
    assert print_term(turner(parse(r"\x. y"))) == "K y"


def test_turner_more_shapes():
    assert print_term(turner(parse(r"\x. x"))) == "I"
    assert print_term(turner(parse(r"\x. f x"))) == "f"  # eta row
    assert print_term(turner(parse(r"\x y. x"))) == "K"  # via eta on K x
    assert print_term(turner(parse(r"\x.\y.\z. x z (y z)"))) == "S"
    assert print_term(turner(parse(r"\f x. f (x x)"))) == "C B (S I I)"


def test_turner_consts_are_opaque(env):
    assert print_term(turner(parse(r"\x. K x", env))) == "K"
    assert print_term(turner(parse(r"\x. Succ (Succ x)", env))) == "B Succ Succ"


def test_random_closed_terms_are_distinct():
    # a repeated draw would count one encoding twice in turner soundness
    for corpus, count in ((random_closed_terms(), 200), (random_closed_terms(count=40, seed=7), 40)):
        assert len(corpus) == count
        assert not any(alpha_eq(t, u) for i, t in enumerate(corpus) for u in corpus[:i])


def test_turner_purity_and_soundness(env):
    corpus = random_closed_terms(count=100, seed=31)
    for t in corpus:
        enc = turner(t)
        assert _lam_free(enc)
        assert beta_eta_equal(expand_consts(enc, env), t, env) is Verdict.EQUAL


def test_extended_goldens():
    d = parse_meta(r"\x[1..n]. x[1..n] (x[1..n])")
    assert print_term(extended_bound(d)) == r"\n.VarS n (VarI n) (VarI n)"
    assert print_term(turner(parse_meta(r"\x[1..n]. x[1..n]"))) == "VarI n"
    assert print_term(turner(parse_meta(r"\x[1..n]. y"))) == "VarK n y"
    assert print_term(turner(parse_meta(r"\p q x[1..n]. p x[1..n] (q x[1..n])"))) == "VarS n"
    assert print_term(turner(parse_meta(r"\p q x[1..n]. p (q x[1..n])"))) == "VarB n"
    assert print_term(turner(parse_meta(r"\p q x[1..n]. p x[1..n] q"))) == "VarC n"
    assert print_term(turner(parse_meta(r"\p x[1..n]. p"))) == "VarK n"


def test_extended_sequence_eta():
    assert print_term(turner(parse_meta(r"\x[1..n]. f x[1..n]"))) == "f"


def test_extended_soundness_builtins(env):
    for name in BUILTIN_META_NAMES:
        m = meta.builtin_meta(name)
        bound = extended_bound(m)
        for n in range(4):
            verdict = beta_eta_equal(App(bound, church(n)), meta.expand(m, n), env)
            assert verdict is Verdict.EQUAL, (name, n)


def test_extended_soundness_parsed_shapes(env):
    sources = [
        r"\x[1..n]. x[1..n] (x[1..n])",
        r"\a b x[1..n]. a (b x[1..n])",
        r"\a x[1..n]. a x[1..n] (a x[1..n])",
        r"\x[1..n]. y (z x[1..n])",
    ]
    # a splice that a rule moves into argument position stays one argument
    pinned = {
        r"\x[1..n] y[1..n]. x[1..n] (y[1..n])": r"\n.VarC n (VarB n (VarB n) (VarI n)) (VarI n)",
        r"\x[1..n]. \y. x[1..n]": r"\n.VarB n K (VarI n)",
        r"\p x[1..n]. (\y. x[1..n]) p": r"\n.VarC n (VarB n K (VarI n))",
        r"\g y[1..n] x. g x (y[1..n] x)": r"\n.C (B (VarB n) S) (VarI n)",
    }
    for src in sources + list(pinned):
        m = parse_meta(src)
        bound = extended_bound(m)
        if src in pinned:
            assert print_term(bound) == pinned[src]
        for n in range(4):
            verdict = beta_eta_equal(App(bound, church(n)), meta.expand(m, n), env)
            assert verdict is Verdict.EQUAL, (src, n)


def test_extended_mixed_sequence_use():
    # a single binder cannot be abstracted over a spine ending in the
    # sequence: the n trailing arguments are not one term
    with pytest.raises(MixedSequenceUse):
        turner(parse_meta(r"\x[1..n] s. s x[1..n]"))


def test_extended_bound_captures_no_free_variable(env):
    # without a sequence binder the outer binder avoids the free names
    for src, want in ((r"\x. n x", r"\n'.n"), (r"\y. y n", r"\n'.C I n"), (r"\x. x", r"\n.I")):
        m = parse_meta(src)
        bound = extended_bound(m)
        assert print_term(bound) == want
        for n in range(3):
            assert beta_eta_equal(App(bound, church(n)), meta.expand(m, n), env) is Verdict.EQUAL, (src, n)


def test_extended_bound_rejects_the_index_as_a_term_variable():
    # the binder of the index variable would capture these uses of n
    for src in (r"\x[1..n]. n x[1..n]", r"\n x[1..n]. x[1..n]"):
        with pytest.raises(MixedSequenceUse, match="index variable n"):
            extended_bound(parse_meta(src))


def test_size_observation_rows():
    rows = {c.name: c for c in size_observation(random_closed_terms(count=20, seed=5))}
    assert rows["size succ"].ok  # |S B| = 3 <= |succ| = 10
    assert "3" in rows["size succ"].detail and "10" in rows["size succ"].detail
    assert rows["size self-apply"].ok  # reported, never failed
    assert "5" in rows["size self-apply"].detail and "4" in rows["size self-apply"].detail
    assert "exceeds" in rows["size self-apply"].detail


def test_turner_soundness_reports_steps_and_limit_stops(env):
    # the summary case counts the steps of its 200 cases, and a failure made
    # only of fuel stops is inconclusive, not a refutation
    def soundness(cfg):
        return next(c for c in suite_bracket(1, cfg, env) if c.name == "turner soundness")
    case = soundness(ReductionConfig())
    assert (case.ok, case.steps, case.inconclusive) == (True, 2548, False)
    case = soundness(ReductionConfig(fuel=5))
    assert (case.ok, case.inconclusive) == (False, True) and case.steps > 0


def test_turner_soundness_with_refuted_and_stopped_cases_is_a_failure():
    # with a wrong S some encodings normalize to another term and, at 10
    # steps, others stop: a definite refutation among fuel stops is no
    # longer inconclusive
    wrong = standard_env()
    wrong.define("S", parse(r"\x y z. x z", wrong))
    cfg = ReductionConfig(fuel=10)
    cases = _eq_cases("bracket", (("", turner(t), t) for t in random_closed_terms()), cfg, wrong)
    assert {c.inconclusive for c in cases if not c.ok} == {False, True}
    case = next(c for c in suite_bracket(1, cfg, wrong) if c.name == "turner soundness")
    assert (case.ok, case.inconclusive) == (False, False)
