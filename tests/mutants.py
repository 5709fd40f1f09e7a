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
     "new = fresh_name(binder, repl.free | body.free)",
     "new = fresh_name(binder, repl.free)",
     "substitute renames a binder to a name free in the body, and captures it",
     ["tests/test_cli.py::test_normalize_renames_past_primed_free_names"]),
    ("src/varlam/terms.py",
     "u.free = bf - {u.binder} if u.binder in bf else bf",
     "u.free = bf",
     "filling a wide Lam's set keeps the binder in it",
     ["tests/test_kernel.py::test_free_vars_agrees_with_a_naive_reference"]),
    ("src/varlam/terms.py",
     "return Lam(new, substitute(_substitute(body, binder, Var(new)), name, repl))",
     "return Lam(new, _substitute(_substitute(body, binder, Var(new)), name, repl))",
     "substitute reads the unfilled sets of a renamed wide body",
     ["tests/test_kernel.py::test_substitute_into_wide_chains_as_into_eager_ones"]),
    ("src/varlam/church.py",
     "while u.__class__ is App and s != z and ",
     "while u.__class__ is App and ",
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
     "\n                  and payload not in free_set(t.fun)):",
     "):",
     r"the beta loop erases \x. x x as if it were an eta-redex",
     ["tests/test_engine.py::test_eta_only_when_not_free"]),
    ("src/varlam/engine.py",
     "elif (eta and t.__class__ is App",
     "elif (t.__class__ is App",
     "the beta loop erases eta-redexes under --no-eta",
     ["tests/test_engine.py::test_eta_postpass"]),
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
