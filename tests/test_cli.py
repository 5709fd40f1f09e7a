import pytest

from varlam.cli import main


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
    code, out, err = run(capsys, "normalize", "-e", r"(\x.x x) (\x.x x)", "--max-steps", "20")
    assert code == 2 and "fuel-exhausted" in err and out == ""


def test_no_normal_form_diagnostic(capsys):
    for argv in (["normalize", "-e", "VarPhi #1 #1"], ["unchurch", "-e", "VarPhi #1 #1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.strip() == "varlam: no-normal-form after 551 steps"


def test_normalize_trace(capsys):
    code, out, _ = run(capsys, "normalize", "--trace", "-e", r"(\x.x) y")
    assert code == 0 and out.splitlines() == [r"(\x.x) y", "y"]


def test_eq_exit_codes(capsys):
    assert run(capsys, "eq", "Plus #1 #2", "#3")[0] == 0
    code, out, _ = run(capsys, "eq", "K", "S")
    assert code == 1 and out.strip() == "NOT-EQUAL"
    code, out, _ = run(capsys, "eq", "--max-steps", "30", r"(\x.x x) (\x.x x)", "K")
    assert code == 2 and out.strip() == "UNKNOWN"
    # one side certified to have no normal form, the other normalizing
    code, out, _ = run(capsys, "eq", "VarPhi #1 #1", "K")
    assert code == 1 and out.strip() == "NOT-EQUAL"
    # errors have a code of their own, distinct from NOT-EQUAL
    code, out, err = run(capsys, "eq", "(K", "K")
    assert code == 3 and out == "" and "varlam:" in err
    code, out, err = run(capsys, "eq", "K", "NoSuchName")
    assert code == 3 and out == "" and "NoSuchName" in err


def test_bracket_turner(capsys):
    code, out, _ = run(capsys, "bracket", "--algo", "turner", "-e", r"\x. x x")
    assert code == 0 and out.strip() == "S I I"


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


def test_check_kernel_suite(capsys):
    code, out, _ = run(capsys, "check", "--suite", "kernel", "--max-n", "2")
    assert code == 0
    assert out.splitlines()[-1].startswith("PASS")
    assert "[ OK ] kernel/" in out


def test_check_deterministic(capsys):
    _, first, _ = run(capsys, "check", "--suite", "kernel", "--max-n", "2")
    _, second, _ = run(capsys, "check", "--suite", "kernel", "--max-n", "2")
    assert first == second


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


def test_prelude_dir_env_var(tmp_path, capsys, monkeypatch):
    (tmp_path / "prelude.lam").write_text("Id := \\x.x ;\n", encoding="utf-8")
    monkeypatch.setenv("VARLAM_PRELUDE", str(tmp_path))
    code, out, _ = run(capsys, "normalize", "-e", "Id y")
    assert code == 0 and out.strip() == "y"
    code, _, err = run(capsys, "normalize", "-e", "Succ #1")
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
