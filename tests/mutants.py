"""The mutant table: each row breaks the program in one known way, and the
tests it names must then fail.

Run it with ``python tests/mutants.py`` (it takes no options).  Every old
text must occur exactly once in its file, so that a row cannot go stale
silently.  The named tests must pass on an unmutated copy.  Then each
mutant is applied to its own temporary copy of ``src/``, ``tests/`` and
``pyproject.toml`` (pytest's settings) and only its named tests run there;
each of them must fail.  The exit status is 1 if a text is missing or
repeated, a named test is missing or fails unmutated, or a mutant survives
a named test.

A row is added only if its tests fail under the mutant on every run, not on
a lucky hypothesis draw: pin such a case with an ``@example`` first.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

ROOT = pathlib.Path(__file__).resolve().parents[1]

# (file, old text, new text, what the mutant breaks, tests that must fail)
MUTANTS = [
    ("src/varlam/terms.py",
     "new = fresh_name(binder, rf | bf)",
     "new = fresh_name(binder, rf)",
     "substitute renames a binder to a name free in the body, and captures it",
     ["tests/test_cli.py::test_normalize_renames_past_primed_free_names"]),
    ("src/varlam/terms.py",
     "        binder = new\n",
     "",
     "substitute renames a capturing binder's occurrences but keeps the binder, which captures repl",
     ["tests/test_kernel.py::test_substitute_capture_avoidance"]),
    ("src/varlam/terms.py",
     "body = _substitute(body, binder, fresh, fresh.free)",
     "body = _substitute(body, binder, fresh, rf)",
     "renaming a binder in its body tests capture against repl's set, not the fresh name's, and renames an inner binder",
     ["tests/test_kernel.py::test_substitute_renames_a_binder_in_the_body_alone"]),
    ("src/varlam/terms.py",
     "def __contains__(self, name) -> bool:\n        return True\n",
     "def __contains__(self, name) -> bool:\n        return False\n",
     "a wide node's slot answers that it mentions no name, so substitution skips it",
     ["tests/test_kernel.py::test_substitute_into_wide_chains_as_into_eager_ones",
      "tests/test_kernel.py::test_a_wide_family_member_reduces_in_linear_memory"]),
    ("src/varlam/terms.py",
     "    if binder == name:  # a wide Lam that binds name\n        return t\n",
     "",
     "substitute replaces the bound occurrences under a wide lambda that binds the name",
     ["tests/test_kernel.py::test_substitute_into_wide_chains_as_into_eager_ones"]),
    ("src/varlam/terms.py",
     "        if name not in bf:  # a wide Lam that does not mention name: no renaming\n            return t\n",
     "",
     "substitute renames a capturing binder of a wide lambda that does not mention the name",
     ["tests/test_kernel.py::test_substitute_into_wide_chains_as_into_eager_ones"]),
    ("src/varlam/terms.py",
     "if ff is _UNMADE or af is _UNMADE:  # a wide child makes a wide App",
     "if ff is _UNMADE:  # a wide child makes a wide App",
     "App's constructor tests only its function part for a wide child, and reads a wide argument's slot as a set",
     ["tests/test_kernel.py::test_alpha_eq_agrees_with_de_bruijn_on_large_families[B]"]),
    ("src/varlam/terms.py",
     "ea.get(fa.name, fa.name) != eb.get(fb.name, fb.name)",
     "fa.name != fb.name",
     "alpha_eq compares a variable in function position by its bare name, ignoring the binder maps",
     ["tests/test_kernel.py::test_alpha_eq_examples"]),
    ("src/varlam/syntax.py",
     "            opened += 1\n",
     "",
     "the printer opens a parenthesis and does not count it, so it is never closed",
     ["tests/test_kernel.py::test_print_examples",
      "tests/test_kernel.py::test_print_term_agrees_with_the_recursive_printer"]),
    ("src/varlam/church.py",
     "while type(u) is App and s != z and ",
     "while type(u) is App and ",
     r"numeral_value reads \s s. s (s s), whose binders coincide, as 2",
     ["tests/test_cli.py::test_unchurch_rejects_a_numeral_whose_binders_coincide"]),
    ("src/varlam/checks.py",
     "if status is not Status.NO_NORMAL_FORM:",
     "if status not in (Status.NO_NORMAL_FORM, Status.NORMAL_FORM):",
     "the no-normal-form probe accepts an entry that normalizes",
     ["tests/test_variadic.py::test_upgrade_probe_refuses_a_normalizing_entry"]),
    ("src/varlam/checks.py",
     "bool(failed) and all(c.inconclusive for c in failed)",
     "bool(failed) and any(c.inconclusive for c in failed)",
     "turner soundness calls a refutation inconclusive when another case stopped",
     ["tests/test_bracket.py::test_turner_soundness_with_refuted_and_stopped_cases_is_a_failure"]),
    ("src/varlam/meta.py",
     r'"S": r"\p q x[1..n]. p x[1..n] (q x[1..n])",',
     r'"S": r"\p q x[1..n]. p x[1..n] (p x[1..n])",',
     "the ellipsis source of S, the one definition of its oracle, is wrong",
     ["tests/test_meta.py::test_family_basis_members",
      "tests/test_meta.py::test_cross_oracle_metas"]),
    ("src/varlam/engine.py",
     "from collections import namedtuple\n",
     "import dataclasses\nfrom collections import namedtuple\n",
     "import varlam loads dataclasses, and with it inspect, in every fresh process",
     ["tests/test_cli.py::test_import_loads_neither_dataclasses_nor_inspect"]),
    ("src/varlam/engine.py",
     "\n                        and binder not in free_vars(t.fun)):",
     "):",
     r"the beta loop erases \x. x x as if it were an eta-redex",
     ["tests/test_engine.py::test_eta_only_when_not_free"]),
    ("src/varlam/engine.py",
     "if (eta and type(t) is App",
     "if (type(t) is App",
     "the beta loop erases eta-redexes under --no-eta",
     ["tests/test_engine.py::test_eta_postpass"]),
    ("src/varlam/engine.py",
     "stack += args",
     "stack += reversed(args)",
     "the beta loop pushes an unbuilt spine's arguments in reverse order",
     ["tests/test_engine.py::test_shared_reducts_stop_where_trace_does",
      "tests/test_engine.py::test_memo_started_afresh_keeps_steps_and_results"]),
    ("src/varlam/terms.py",
     "size += 1 + a.size",
     "size += a.size",
     "the beta loop counts an unbuilt spine's size without its Apps",
     ["tests/test_engine.py::test_shared_reducts_stop_where_trace_does",
      "tests/test_engine.py::test_size_limit_is_exact"]),
    ("src/varlam/engine.py",
     "elif reduct[1]:  # met again: build the spine once",
     "elif False:",
     "a memo hit pushes an unbuilt spine's pieces again, so their App is never recorded or replayed",
     ["tests/test_engine.py::test_an_unbuilt_spine_is_built_at_its_first_hit_only"]),
    ("src/varlam/terms.py",
     "        return body, (), body.size\n    args = []",
     "        return body, (), 0\n    args = []",
     "a contraction whose reduct is no spine counts its size as 0, so no size limit sees it",
     ["tests/test_engine.py::test_contract_builds_what_substitute_builds",
      "tests/test_engine.py::test_size_limit_is_exact"]),
    ("src/varlam/engine.py",
     "while i and type(stack[i - 1]) is tuple and stack[i - 1][0] == _PENDING:\n"
     "                        i -= 1\n"
     "                        if stack[i][1] is t:",
     "while i:\n"
     "                        i -= 1\n"
     "                        if type(stack[i]) is tuple and stack[i][0] == _PENDING and stack[i][1] is t:",
     "the head-loop certificate matches an App pending under another frame, and certifies a growing loop",
     ["tests/test_engine.py::test_head_loops_the_certificate_does_not_cover"]),
    ("src/varlam/engine.py",
     "            if tag == _ARGDONE:\n",
     "            if tag != _LAM:\n",
     "the up pass reads an update frame that a variable head left as an _ARGDONE frame: it closes an open argument and applies the App",
     ["tests/test_engine.py::test_certificate_never_fires_on_a_normalizing_term",
      "tests/test_engine.py::test_trace_agrees_with_normalize"]),
    ("src/varlam/engine.py",
     "            elif tag == _LAM:\n",
     "            else:\n",
     "the up pass builds a lambda from an update frame that a variable head left",
     ["tests/test_engine.py::test_trace_agrees_with_normalize"]),
    ("src/varlam/engine.py",
     "        elif frame[0] == _LAM:\n",
     "        else:\n",
     "a stop rebuilds a lambda from each update frame on the stack",
     ["tests/test_engine.py::test_shared_reducts_stop_where_trace_does"]),
    ("src/varlam/engine.py",
     "while stack and type(stack[-1]) is tuple and stack[-1][0] == _PENDING:",
     "if stack and type(stack[-1]) is tuple and stack[-1][0] == _PENDING:",
     "a lambda head records only the top update frame, and is read as a whnf with no argument",
     ["tests/test_engine.py::test_a_lambda_head_records_every_update_frame_at_the_top"]),
    ("src/varlam/terms.py",
     "            same = _alpha(a.body, b.body, ea, eb, depth + 1)\n",
     "            same = _alpha(a.body, b.body, ea, eb, depth + 1)\n"
     "            if not same:\n"
     "                return False\n",
     "_alpha returns False before it puts back its binder maps, and reduces_to reads them changed",
     ["tests/test_engine.py::test_reduces_to_under_binder_maps_examples",
      "tests/test_engine.py::test_reduces_to_matches_the_renaming_search"]),
    ("src/varlam/terms.py",
     "    rf = free_vars(arg)\n",
     "    rf = arg.free\n",
     "a contraction passes a wide argument's slot, not its exact set, to the capture test",
     ["tests/test_kernel.py::test_beta_step_under_many_captured_wide_binders_takes_polynomial_time"]),
    ("src/varlam/meta.py",
     'Var(f"f{j}"), xs, xs) for j in (k, *range(1, n + 1))',
     'Var(f"f{j}"), xs, xs) for j in (1, *range(1, n + 1))',
     "Curry's k-th multiple fixed point starts with row 1 instead of row k",
     ["tests/test_meta.py::test_family_fixed_point_rows_at_n2[ycurry-2]"]),
    ("src/varlam/engine.py",
     "{**ea, m.binder: depth}",
     "{**ea}",
     "reduces_to leaves the left binder out of the map, so its bound name matches a free one",
     ["tests/test_engine.py::test_reduces_to_under_binder_maps_examples",
      "tests/test_engine.py::test_reduces_to_matches_the_renaming_search",
      "tests/test_engine.py::test_reduces_to_boehm",
      "tests/test_engine.py::test_reduces_to_node_cap"]),
    ("src/varlam/cli.py",
     "_eq(lhs, rhs, env, cfg._replace(eta=True))",
     "_eq(lhs, rhs, env, cfg)",
     "the REPL's :eq decides beta-equality under --no-eta",
     ["tests/test_cli.py::test_repl_no_eta_keeps_eta_redexes_in_printed_forms_only"]),
    ("src/varlam/cli.py",
     "if alpha_eq(steps[-1], outcome.result):",
     "if True:",
     "normalize --trace stops at the beta-normal form, before the eta erasure that normalize prints",
     ["tests/test_cli.py::test_normalize_trace_prints_the_eta_erasure_as_one_more_line",
      "tests/test_cli.py::test_normalize_trace_ends_with_what_normalize_prints"]),
    ("src/varlam/bracket.py",
     "return grouped(p) if q.binder == x else None",
     "return grouped(p)",
     "bracket abstraction absorbs a trailing splice of another sequence by sequence-eta",
     ["tests/test_bracket.py::test_extended_soundness_parsed_shapes"]),
    ("src/varlam/bracket.py",
     "if type(q) is Var and q.name == x and ap is None:",
     "if type(q) is Var and q.name == x:",
     r"bracket abstraction applies the eta rule [x](P x) = P where P mentions x",
     ["tests/test_bracket.py::test_turner_self_application_golden"]),
    ("src/varlam/bracket.py",
     "App(App(basis[3], ap), q)\n    if ap is None:\n        return App(App(basis[4], ",
     "App(App(basis[4], ap), q)\n    if ap is None:\n        return App(App(basis[3], ",
     "bracket abstraction swaps the B and C rules",
     ["tests/test_bracket.py::test_turner_more_shapes"]),
    ("src/varlam/terms.py",
     "            self.free = frozenset((_CONST,))\n",
     "            self.free = _EMPTY\n",
     "a Const's set lacks the constants' mark, so expand_consts returns a term with constants as it is",
     ["tests/test_kernel.py::test_expand_consts"]),
    ("src/varlam/terms.py",
     "        return f - {_CONST} if _CONST in f else f\n",
     "        return f\n",
     "free_vars returns a narrow node's set with the constants' mark in it",
     ["tests/test_kernel.py::test_free_vars_examples",
      "tests/test_kernel.py::test_free_vars_agrees_with_a_naive_reference"]),
    ("src/varlam/terms.py",
     "    out.discard(_CONST)\n",
     "",
     "free_vars returns a wide term's set with the constants' mark in it",
     ["tests/test_kernel.py::test_free_vars_agrees_with_a_naive_reference"]),
    ("src/varlam/terms.py",
     "done.append(u if fun is u.fun and arg is u.arg else App(fun, arg))",
     "done.append(App(fun, arg))",
     "expand_consts rebuilds a wide App whose parts came back unchanged",
     ["tests/test_kernel.py::test_only_wide_nodes_wait_for_their_sets",
      "tests/test_kernel.py::test_expand_consts"]),
    ("src/varlam/terms.py",
     "done.append(u if body is u.body else Lam(u.binder, body))",
     "done.append(Lam(u.binder, body))",
     "expand_consts rebuilds a wide Lam whose body came back unchanged",
     ["tests/test_kernel.py::test_expand_consts"]),
    ("src/varlam/terms.py",
     "stack += (u, None, u.arg, u.fun)",
     "stack += (u, None, u.fun, u.arg)",
     "expand_consts visits an argument before its function part, and names a constant that is not the leftmost",
     ["tests/test_kernel.py::test_expand_consts"]),
    ("src/varlam/meta.py",
     "_vars(_xs(n))[::-1])",
     "_vars(_xs(n)))",
     "the reverser applies w to x1 ... xn in order, not reversed",
     ["tests/test_meta.py::test_python_family_members[rev]",
      "tests/test_meta.py::test_every_family_member_repr_pinned"]),
    ("src/varlam/meta.py",
     "apply(head, *[apply(p, *args) for p in ps])",
     "apply(head, *args, *ps)",
     "a row applies its head, not each p, to the shared arguments",
     ["tests/test_meta.py::test_family_fixed_point_rows_at_n2[boehm-1]",
      "tests/test_meta.py::test_every_family_member_repr_pinned"]),
    ("src/varlam/meta.py",
     "[apply(p, *args) for p in ps]",
     "[apply(p, *args[::-1]) for p in ps]",
     "a row applies each p to the shared arguments in reverse order",
     ["tests/test_meta.py::test_family_fixed_point_rows_at_n2[boehm-1]",
      "tests/test_meta.py::test_every_family_member_repr_pinned"]),
    ("src/varlam/meta.py",
     'Var(f"x{k}"), ())',
     'Var("x1"), ())',
     "the k-th selector of n selects x1 whatever k is",
     ["tests/test_prelude.py::test_selector_shapes",
      "tests/test_meta.py::test_cross_oracle_selectors"]),
    ("src/varlam/meta.py",
     "if type(k) is not int or not 1 <= k <= n:",
     "if not isinstance(k, int) or not 1 <= k <= n:",
     r"build takes a bool k as an index, and sel(3, True) is the open term \x1 x2 x3. xTrue",
     ["tests/test_meta.py::test_build_refuses_an_index_that_is_no_int"]),
    ("src/varlam/meta.py",
     "if type(n) is not int or n < 0:",
     "if not isinstance(n, int) or n < 0:",
     "build takes a bool n as an arity, and K(True) is K_1",
     ["tests/test_meta.py::test_build_refuses_an_index_that_is_no_int"]),
    ("src/varlam/checks.py",
     '"VarBalt": _family("B"),',
     '"VarBalt": _family("C"),',
     "the VarBalt row checks the entry against the family C",
     ["tests/test_variadic.py::test_basis_entries_against_families",
      "tests/test_acceptance.py::test_criterion_2_basis_family_equivalence"]),
    ("src/varlam/checks.py",
     "for k in range(1, n + 1):\n                    yield f\"k={k} n={n}\"",
     "for k in range(1, min(n, 1) + 1):\n                    yield f\"k={k} n={n}\"",
     "a family row that takes k checks k = 1 alone",
     ["tests/test_variadic.py::test_rows_name_every_index",
      "tests/test_acceptance.py::test_criterion_2_basis_family_equivalence",
      "tests/test_cli.py::test_check_all_matches_golden"]),
    ("src/varlam/engine.py",
     "                if alpha_eq(m, s):\n                    return False\n",
     "                if alpha_eq(m, s):\n                    pass\n",
     "reduces_to never ends a chain at a repeated term, so a loop runs to the depth cap",
     ["tests/test_engine.py::test_reduces_to_cap_reported"]),
    ("src/varlam/terms.py",
     "    return name in t.free\n",
     "    return True\n",
     "may_mention answers that every node mentions every name, so bracket abstraction reads any leaf as its variable",
     ["tests/test_bracket.py::test_turner_constant_golden"]),
]


def _stale_rows() -> list[str]:
    """A line for each row whose old text is not in its file exactly once."""
    out = []
    for path, old, _new, what, _tests in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            out.append(f"{path}: the old text of '{what}' occurs {count} times, not once")
    return out


def _failed(tests: list[str], mutant=None) -> set[str]:
    """The tests that fail in a fresh copy with the mutant (file, old, new)
    applied; a test that pytest does not report fails."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if mutant:
            path, old, new = mutant
            target = tmp / path
            target.write_text(target.read_text().replace(old, new))
        report = tmp / "report.xml"
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        f"--junitxml={report}", *tests],
                       cwd=tmp, env={**os.environ, "PYTHONPATH": str(tmp / "src")},
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        passed = set()
        if report.exists():
            for case in ET.parse(report).iter("testcase"):
                if not any(child.tag in ("failure", "error", "skipped") for child in case):
                    passed.add(f"{case.get('classname').replace('.', '/')}.py::{case.get('name')}")
    return set(tests) - passed


def main() -> int:
    stale = _stale_rows()
    for line in stale:
        print(f"STALE     {line}")
    if stale:
        return 1
    named = sorted({t for *_, tests in MUTANTS for t in tests})
    broken = _failed(named)
    for test in sorted(broken):
        print(f"BROKEN    {test} fails, or is not found, without a mutant")
    if broken:
        return 1
    survivors = 0
    for path, old, new, what, tests in MUTANTS:
        passed = set(tests) - _failed(tests, (path, old, new))
        survivors += bool(passed)
        print(f"{'SURVIVED' if passed else 'killed  '}  {path}: {what}")
        for test in sorted(passed):
            print(f"          still passes: {test}")
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
