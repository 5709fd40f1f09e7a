import contextlib
import gc
import io
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varlam.cli import main

GOLDEN = Path(__file__).parent / "data" / "check_all_n3.txt"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_command(capsys):
    code, out, _ = run(capsys, "parse", "-e", r"\x . x")
    assert code == 0 and out.strip() == r"\x.x"


def test_normalize_sugar(capsys):
    code, out, _ = run(capsys, "normalize", "-e", "Succ #2", "--sugar")
    assert code == 0 and out.strip() == "#3"


def test_normalize_fuel_diagnostic(capsys):
    code, out, err = run(capsys, "normalize", "-e", r"(\x.x x x) (\x.x x x)", "--max-steps", "20")
    assert code == 2 and "fuel-exhausted" in err and out == ""


def test_no_normal_form_diagnostic(capsys):
    for argv in (["normalize", "-e", "VarPhi #1 #1"], ["unchurch", "-e", "VarPhi #1 #1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.strip() == "varlam: no-normal-form after 551 steps"
    # a head loop is certified as soon as the machine is back where it was
    for source, steps in ((r"(\x.x x)(\x.x x)", 4), (r"y ((\x.x x)(\y.y y)) z", 4),
                          (r"(\x. x x) (\x. (\y. y) x x)", 6)):
        code, out, err = run(capsys, "normalize", "-e", source)
        assert (code, out, err.strip()) == (2, "", f"varlam: no-normal-form after {steps} steps")


def test_normalize_no_eta(capsys):
    code, out, _ = run(capsys, "normalize", "--no-eta", "-e", r"\x. f x")
    assert code == 0 and out.strip() == r"\x.f x"
    code, out, _ = run(capsys, "normalize", "-e", r"\x. f x")
    assert code == 0 and out.strip() == "f"


def test_normalize_trace(capsys):
    code, out, _ = run(capsys, "normalize", "--trace", "-e", r"(\x.x) y")
    assert code == 0 and out.splitlines() == [r"(\x.x) y", "y"]


def test_normalize_trace_prints_the_eta_erasure_as_one_more_line(capsys):
    # the beta-steps end on \x.f x; eta erasure makes the normal form f one line more
    code, out, _ = run(capsys, "normalize", "--trace", "-e", r"(\y. \x. y x) f")
    assert code == 0 and out.splitlines() == [r"(\y x.y x) f", r"\x.f x", "f"]
    code, out, _ = run(capsys, "normalize", "--trace", "--no-eta", "-e", r"(\y. \x. y x) f")
    assert code == 0 and out.splitlines() == [r"(\y x.y x) f", r"\x.f x"]


def test_normalize_trace_stops_where_normalize_does(capsys):
    # at the size limit, and at a certified no-normal-form
    code, out, err = run(capsys, "normalize", "--trace", "--max-steps", "12", "--max-size", "30",
                         "-e", r"(\x. x x x) (\x. x x x)")
    assert (code, len(out.splitlines()), err) == (2, 4, "varlam: size-exceeded after 3 steps\n")
    code, out, err = run(capsys, "normalize", "--trace", "-e", "VarPhi #1 #1")
    assert (code, len(out.splitlines()), err) == (2, 552, "varlam: no-normal-form after 551 steps\n")


def test_eq_exit_codes(capsys):
    assert run(capsys, "eq", "Plus #1 #2", "#3")[0] == 0
    code, out, _ = run(capsys, "eq", "K", "S")
    assert code == 1 and out.strip() == "NOT-EQUAL"
    code, out, _ = run(capsys, "eq", "--max-steps", "30", r"(\x.x x x) (\x.x x x)", "K")
    assert code == 2 and out.strip() == "UNKNOWN"
    # one side certified to have no normal form, the other normalizing
    code, out, _ = run(capsys, "eq", "VarPhi #1 #1", "K")
    assert code == 1 and out.strip() == "NOT-EQUAL"
    code, out, _ = run(capsys, "eq", r"(\x.x x)(\x.x x)", r"\x.x")
    assert code == 1 and out.strip() == "NOT-EQUAL"
    # errors have a code of their own, distinct from NOT-EQUAL
    code, out, err = run(capsys, "eq", "(K", "K")
    assert code == 3 and out == "" and "varlam:" in err
    code, out, err = run(capsys, "eq", "K", "NoSuchName")
    assert code == 3 and out == "" and "NoSuchName" in err


def test_bracket_turner(capsys):
    code, out, _ = run(capsys, "bracket", "--algo", "turner", "-e", r"\x. x x")
    assert code == 0 and out.strip() == "S I I"


def test_bracket_turner_takes_no_index(capsys):
    # --n instantiates a variadic encoding; turner has no index to take
    with pytest.raises(SystemExit) as exc:
        main(["bracket", "--algo", "turner", "--n", "3", "-e", r"\x. x x"])
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == "" and "--n applies to --algo variadic only" in err


@pytest.mark.parametrize("algo", [["--algo", "turner"], ["--algo", "variadic"]],
                         ids=["turner", "variadic"])
@pytest.mark.parametrize("option", [["--max-steps", "0"], ["--max-size", "1"], ["--no-eta"],
                                    ["--defs", "nosuch.lam"], ["--no-prelude"]],
                         ids=lambda option: option[0])
def test_bracket_without_an_index_rejects_the_reducer_options(capsys, algo, option):
    # without --n bracket neither reduces nor reads a name
    with pytest.raises(SystemExit) as exc:
        main(["bracket", *algo, *option, "-e", r"\x. x x"])
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == "" and f"{option[0]} applies to bracket --algo variadic --n only" in err


def test_bracket_without_an_index_reads_no_name(capsys):
    code, out, _ = run(capsys, "bracket", "--algo", "turner", "-e", r"\x. NoSuch x")
    assert code == 0 and out.strip() == "NoSuch"


def test_bracket_variadic(capsys):
    code, out, _ = run(capsys, "bracket", "--algo", "variadic", "-e",
                       r"\x[1..n]. x[1..n] (x[1..n])")
    assert code == 0 and out.strip() == r"\n.VarS n (VarI n) (VarI n)"


def test_bracket_variadic_instantiated(capsys):
    from varlam.syntax import parse
    from varlam.terms import alpha_eq

    code, out, _ = run(capsys, "bracket", "--algo", "variadic", "--n", "1", "-e",
                       r"\x[1..n]. x[1..n] (x[1..n])")
    assert code == 0 and alpha_eq(parse(out.strip()), parse(r"\x.x x"))


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "--n", "2", "-e", r"\x[1..n] s. s x[1..n]")
    assert code == 0 and out.strip() == r"\x1 x2 s.s x1 x2"


def test_church_unchurch(capsys):
    code, out, _ = run(capsys, "church", "3")
    assert code == 0 and out.strip() == r"\s z.s (s (s z))"
    code, out, _ = run(capsys, "unchurch", "-e", "Monus #5 #2")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "unchurch", "-e", r"\f x y. f x y")  # eta-long c_1
    assert code == 0 and out.strip() == "1"


def test_unchurch_rejects_a_numeral_whose_binders_coincide(capsys):
    # s^n z with s = z is no numeral: the inner binder shadows the outer one
    code, out, err = run(capsys, "unchurch", "-e", r"\s s. s (s s)")
    assert code == 1 and out == ""
    assert err.strip() == "varlam: normal form is not a Church numeral"


def test_normalize_renames_past_primed_free_names(capsys):
    # renaming y to y' would capture the free y'
    code, out, _ = run(capsys, "normalize", "-e", r"(\x. \y. x y') y")
    assert code == 0 and out.strip() == r"\y''.y y'"


def test_check_kernel_suite(capsys):
    code, out, _ = run(capsys, "check", "--suite", "kernel", "--max-n", "2")
    assert code == 0
    assert out.splitlines()[-1].startswith("PASS")
    assert "[ OK ] kernel/" in out


def test_check_reports_a_fuel_stop_as_a_case(capsys):
    # a kernel row out of fuel is a failed case of the report, not an error
    code, out, err = run(capsys, "check", "--suite", "kernel", "--max-steps", "5")
    assert code == 1 and err == ""
    assert "[FAIL] kernel/plus a=0  -- fuel-exhausted after 5 steps" in out.splitlines()
    assert out.splitlines()[-1].startswith("FAIL")


def test_check_deterministic(capsys):
    _, first, _ = run(capsys, "check", "--suite", "kernel", "--max-n", "2")
    _, second, _ = run(capsys, "check", "--suite", "kernel", "--max-n", "2")
    assert first == second


def test_check_all_matches_golden(capsys):
    # the full report is byte-stable; regenerate the file only on purpose
    code, out, _ = run(capsys, "check", "--suite", "all", "--max-n", "3")
    assert code == 0
    assert out == GOLDEN.read_text(encoding="utf-8")


def test_parse_error_diagnostic(capsys):
    code, _, err = run(capsys, "parse", "-e", "(a b")
    assert code == 1 and "parse error" in err


def test_unbound_name_diagnostic(capsys):
    code, _, err = run(capsys, "normalize", "-e", "NoSuchCombinator")
    assert code == 1 and "unbound name" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 64


@pytest.mark.parametrize("argv", [
    pytest.param(["check", "--suite", "variadic", flag, "-1"], id=flag)
    for flag in ("--max-n", "--max-steps", "--max-size")
] + [
    pytest.param(["expand", "--n", "-1", "-e", r"\x[1..n]. x[1..n]"], id="expand --n"),
    pytest.param(["bracket", "--algo", "variadic", "--n", "-1", "-e", r"\x[1..n]. x[1..n]"],
                 id="bracket --n"),
    pytest.param(["church", "--", "-1"], id="church"),
])
def test_negative_limits_are_usage_errors(capsys, argv):
    # a negative --max-n would check no case and still print PASS
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert "must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["parse", "--max-steps", "5", "-e", "K"], id="parse --max-steps"),
    pytest.param(["expand", "--n", "1", "--defs", "x.lam", "-e", r"\x[1..n]. x[1..n]"],
                 id="expand --defs"),
    pytest.param(["unchurch", "--no-eta", "-e", r"\f x y. f x y"], id="unchurch --no-eta"),
    pytest.param(["eq", "--no-eta", r"\x. f x", "f"], id="eq --no-eta"),
    pytest.param(["check", "--no-eta", "--suite", "kernel", "--max-n", "0"], id="check --no-eta"),
])
def test_options_a_command_does_not_apply_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert "unrecognized arguments" in capsys.readouterr().err


def test_too_deep_term_is_an_error(capsys):
    # the recursion limit is an error, never eq's NOT-EQUAL (exit 1): alpha_eq
    # recurses on a left spine, substitute on the argument of a numeral
    spine = " ".join(["x"] * 25_000)
    code, out, err = run(capsys, "eq", spine, spine)
    assert code == 3 and out == ""
    assert err.strip() == "varlam: term too deep for the recursion limit"
    code, out, err = run(capsys, "normalize", "-e", "#25000 x")
    assert code == 1 and out == ""
    assert err.strip() == "varlam: term too deep for the recursion limit"


def test_deep_numerals(capsys):
    # the beta loop with its eta erasure, the numeral reader, alpha_eq and the
    # printer, sugared or not, take a numeral of any depth
    assert run(capsys, "unchurch", "-e", "#200000") == (0, "200000\n", "")
    assert run(capsys, "normalize", "--sugar", "-e", "#200000") == (0, "#200000\n", "")
    assert run(capsys, "eq", "#200000", "#200000") == (0, "EQUAL\n", "")
    code, out, err = run(capsys, "church", "200000")
    assert (code, err) == (0, "")
    assert out == "\\s z." + "s (" * 199_999 + "s z" + ")" * 199_999 + "\n"


def test_no_prelude(capsys):
    code, _, err = run(capsys, "normalize", "--no-prelude", "-e", "K")
    assert code == 1 and "unbound name" in err
    code, out, _ = run(capsys, "normalize", "--no-prelude", "-e", r"(\x.x) y")
    assert code == 0 and out.strip() == "y"


def test_defs_flag(tmp_path, capsys):
    defs = tmp_path / "extra.lam"
    defs.write_text("Twice := \\f x. f (f x) ;\n", encoding="utf-8")
    code, out, _ = run(capsys, "normalize", "--defs", str(defs), "-e", "Twice Succ #0", "--sugar")
    assert code == 0 and out.strip() == "#2"


def test_no_prelude_with_defs_replaces_the_prelude(tmp_path, capsys):
    prelude = tmp_path / "prelude.lam"
    prelude.write_text("Id := \\x.x ;\n", encoding="utf-8")
    code, out, _ = run(capsys, "normalize", "--no-prelude", "--defs", str(prelude), "-e", "Id y")
    assert code == 0 and out.strip() == "y"
    code, _, err = run(capsys, "normalize", "--no-prelude", "--defs", str(prelude), "-e", "Succ #1")
    assert code == 1 and "unbound name" in err


def test_file_and_stdin_input(tmp_path, capsys, monkeypatch):
    f = tmp_path / "term.lam"
    f.write_text(r"\x.x x", encoding="utf-8")
    code, out, _ = run(capsys, "bracket", "--algo", "turner", str(f))
    assert code == 0 and out.strip() == "S I I"

    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("Plus #2 #2"))
    code, out, _ = run(capsys, "unchurch")
    assert code == 0 and out.strip() == "4"


def test_repl_session(capsys, monkeypatch):
    import io

    script = "\n".join([
        ":def Twice := \\f x. f (f x)",
        "Twice Succ #3",
        ":eq Twice Succ #0 = #2",
        ":quit",
    ]) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    code = main(["repl"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["#5", "EQUAL"]


def test_repl_no_eta_keeps_eta_redexes_in_printed_forms_only(capsys, monkeypatch):
    # --no-eta changes what a term line prints, not what :eq decides
    monkeypatch.setattr("sys.stdin", io.StringIO("\\x. f x\n:eq \\x. f x = f\n"))
    code = main(["repl", "--no-eta"])
    assert (code, capsys.readouterr().out.splitlines()) == (0, [r"\x.f x", "EQUAL"])


def test_repl_reads_on_after_a_too_deep_line(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("#25000 x\nK\n"))
    code = main(["repl"])
    out, err = capsys.readouterr()
    assert code == 0
    assert err.strip() == "varlam: term too deep for the recursion limit"
    assert out.splitlines() == [r"\x y.x"]


@pytest.mark.parametrize("argv, code", [
    (["normalize", "nosuch.lam"], 1),
    (["normalize", "--defs", "nosuch.lam", "-e", "K"], 1),
    (["eq", "--defs", "nosuch.lam", "K", "K"], 3),
])
def test_missing_file_is_an_error(capsys, tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (code, "", "varlam: No such file or directory: nosuch.lam\n")


@pytest.mark.parametrize("argv, code", [
    (["normalize", "bad.lam"], 1),
    (["normalize", "--defs", "bad.lam", "-e", "K"], 1),
    (["eq", "--defs", "bad.lam", "K", "K"], 3),
])
def test_file_not_utf8_is_an_error(capsys, tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.lam").write_bytes(b"\xff\xfe K")
    assert run(capsys, *argv) == (
        code, "", "varlam: not UTF-8 (invalid start byte at byte 0): bad.lam\n")


def test_repl_reads_on_after_a_file_error(capsys, monkeypatch):
    from varlam.env import Env

    load_text = Env.load_text

    def unreadable_in_repl(self, text):
        if text == "A := \\x.x ;":  # the REPL's :def line
            raise FileNotFoundError(2, "No such file or directory", "gone.lam")
        load_text(self, text)

    monkeypatch.setattr(Env, "load_text", unreadable_in_repl)
    monkeypatch.setattr("sys.stdin", io.StringIO(":def A := \\x.x\n(\nK\n"))
    code = main(["repl"])
    out, err = capsys.readouterr()
    assert code == 0 and out.splitlines() == [r"\x y.x"]
    assert err.splitlines() == ["varlam: No such file or directory: gone.lam",
                                "varlam: parse error at 1:2: expected a term, found ''"]


@pytest.mark.parametrize("argv, stdin", [
    (["church", "3"], ""),
    (["check", "--suite", "kernel", "--max-n", "0"], ""),
    (["repl"], "K\nS\n"),
], ids=["church", "check", "repl"])
def test_closed_stdout_exits_1_without_traceback(argv, stdin):
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen([sys.executable, "-m", "varlam.cli", *argv], env={"PYTHONPATH": src},
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    proc.stdout.close()  # before the program has written anything
    _, err = proc.communicate(stdin)
    assert proc.returncode == 1
    assert err == "varlam: Broken pipe\n"


def test_import_loads_neither_dataclasses_nor_inspect():
    """Start-up: ``inspect`` (with ``ast``, ``dis`` and ``tokenize``) would be
    most of a fresh process's set-up.  Only modules the import itself loads
    count, so a site that preloads them does not fail the test."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import varlam, varlam.cli; "
            "print(*sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-I", "-c", code, src],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []


# -- the CLI contract: any argv ends in a documented exit code ----------------

_LEAVES = st.sampled_from(["x", "y", "f", "K", "S", "I", "Succ", "Plus", "Y", "NoSuch"]) \
    | st.integers(0, 20).map(lambda n: f"#{n}")
_TERM = st.recursive(_LEAVES, lambda sub: st.one_of(
    st.tuples(sub, sub).map(" ".join),
    sub.map(lambda t: f"({t})"),
    st.tuples(st.sampled_from(["x", "y", "f"]), sub).map(lambda p: f"\\{p[0]}. {p[1]}"),
), max_leaves=8)
_JUNK = st.text(alphabet="()\\.#[]:=;$é- \n", max_size=3)
_TEXT = st.tuples(_TERM, _JUNK, st.booleans()).map(lambda p: p[0] + p[1] if p[2] else p[0])
_LIMIT = st.sampled_from(["-1", "0", "5", "200"])
_LIMITS = st.tuples(_LIMIT, _LIMIT).map(lambda p: ["--max-steps", p[0], "--max-size", p[1]])
_INDEX = st.integers(-1, 5).map(str)
_SOURCE = _TEXT.map(lambda t: ["-e", t]) | st.just(["no/such/file.lam"])
# limits only for the commands that apply them: parse, expand and bracket
# without --n take none
_ARGV = st.one_of(
    _SOURCE.map(lambda s: ["parse", *s]),
    st.tuples(st.sampled_from(["normalize", "unchurch"]), _LIMITS, _SOURCE)
      .map(lambda p: [p[0], *p[1], *p[2]]),
    st.tuples(_LIMITS, _SOURCE).map(lambda p: ["normalize", "--trace", *p[0], *p[1]]),
    st.tuples(_LIMITS, _TEXT, _TEXT).map(lambda p: ["eq", *p[0], "--", p[1], p[2]]),
    st.tuples(st.sampled_from(["turner", "variadic"]), _SOURCE)
      .map(lambda p: ["bracket", "--algo", p[0], *p[1]]),
    st.tuples(_INDEX, _LIMITS, _SOURCE)
      .map(lambda p: ["bracket", "--algo", "variadic", "--n", p[0], *p[1], *p[2]]),
    st.tuples(_INDEX, _SOURCE).map(lambda p: ["expand", "--n", p[0], *p[1]]),
    _INDEX.map(lambda n: ["church", "--", n]),
    st.tuples(st.sampled_from(["kernel", "bracket"]), st.integers(0, 2), _LIMITS)
      .map(lambda p: ["check", "--suite", p[0], "--max-n", str(p[1]), *p[2]]),
    _LIMITS.map(lambda p: ["repl", *p]),
)
# what the REPL reads: term lines and :eq lines
_STDIN = st.lists(_TEXT | st.tuples(_TEXT, _TEXT).map(lambda p: f":eq {p[0]} = {p[1]}"),
                  max_size=4).map("\n".join)


@settings(max_examples=120)
@given(_ARGV, _STDIN)
def test_cli_contract(argv, stdin):
    """Nothing escapes main but argparse's usage exit, every exit code is
    documented: 0, 1 (error, NOT-EQUAL), 2 (no verdict), 3 (eq error), 64,
    every exit leaves the cycle collector on, and a check run puts every
    stop in its report, with nothing on stderr."""
    assert gc.isenabled()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO(stdin)):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 64, argv
            code = None
    assert gc.isenabled(), argv
    assert code in (None, 0, 1, 2, 3), argv
    if argv[0] == "check" and code is not None:
        assert err.getvalue() == "", argv


def _stdout(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=100)
@given(_TERM, st.booleans())
@example(r"(\y. \x. y x) f", True)
def test_normalize_trace_ends_with_what_normalize_prints(term, eta):
    """Whenever normalize prints a normal form, normalize --trace ends with it."""
    options = ["--max-steps", "200", *([] if eta else ["--no-eta"]), "-e", term]
    code, out = _stdout(["normalize", *options])
    if code == 0:
        traced = _stdout(["normalize", "--trace", *options])
        assert traced[0] == 0 and traced[1].splitlines()[-1] == out.rstrip("\n")


def test_repl_commands_parse_by_their_first_word(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(":eq\n:def\n:q\nK\n:eq K\n:def A := \\x.x\n:eq A = I\n"))
    code = main(["repl"])
    out, err = capsys.readouterr()
    assert code == 0 and out.splitlines() == [r"\x y.x", "EQUAL"]
    assert err.splitlines() == ["usage: :eq TERM = TERM",
                                "usage: :def NAME := TERM",
                                "usage: :def NAME := TERM | :eq TERM = TERM | :quit",
                                "usage: :eq TERM = TERM"]
