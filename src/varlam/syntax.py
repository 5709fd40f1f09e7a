"""Concrete syntax: tokenizer, parsers and the printer.

Term grammar:

    term  := lam | app
    lam   := ('\\' | 'λ') binder+ '.' term
    app   := atom+                      -- applications associate left
    atom  := lowerIdent | UpperIdent | '#' digits | '(' term ')'

Lowercase identifiers are variables, uppercase ones reference named
definitions, ``#n`` expands to the n-th Church numeral at parse time.
Comments run from ``--`` to the end of the line.

Definition files (.lam) are sequences of ``Name := term ;`` where later
definitions may reference earlier ones only.

The meta grammar additionally allows ``x[1..n]`` both as a binder (a sequence
of n binders) and in application position (a splice: the left-associated
chain x1 ... xn).
"""

from __future__ import annotations

import re

from .church import church
from .terms import App, Const, Lam, LambdaError, Term, UnboundName, Var


class ParseError(LambdaError):
    def __init__(self, position, message):
        line, col = position
        super().__init__(f"parse error at {line}:{col}: {message}")
        self.position = position


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|--[^\n]*)
    | (?P<lambda>[\\λ])
    | (?P<define>:=)
    | (?P<dotdot>\.\.)
    | (?P<dot>\.)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<lbrack>\[)
    | (?P<rbrack>\])
    | (?P<semi>;)
    | (?P<hashnum>\#[0-9]+)
    | (?P<num>[0-9]+)
    | (?P<lident>[a-z][A-Za-z0-9_']*)
    | (?P<uident>[A-Z][A-Za-z0-9_']*)
    """,
    re.VERBOSE,
)


def tokenize(source: str):
    """Yield (kind, text, (line, col)) triples; raises ParseError on junk."""
    tokens = []
    pos = 0
    line, col = 1, 1
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError((line, col), f"unexpected character {source[pos]!r}")
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            tokens.append((kind, text, (line, col)))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(("eof", "", (line, col)))
    return tokens


_ATOM_STARTERS = {"lident", "uident", "hashnum", "lparen", "lambda"}


class _Parser:
    def __init__(self, tokens, env=None):
        self.tokens = tokens
        self.i = 0
        self.env = env
        self.index_var = None  # the single index meta-variable, once seen

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(tok[2], f"expected {kind}, found {tok[1]!r}")
        return tok

    def fail(self, message):
        raise ParseError(self.peek()[2], message)

    # -- plain terms --------------------------------------------------------

    def term(self) -> Term:
        if self.peek()[0] == "lambda":
            return self.lam()
        return self.app()

    def lam(self) -> Term:
        self.expect("lambda")
        binders = []
        while self.peek()[0] == "lident":
            binders.append(self.next()[1])
        if not binders:
            self.fail("expected at least one binder")
        self.expect("dot")
        body = self.term()
        for b in reversed(binders):
            body = Lam(b, body)
        return body

    def app(self) -> Term:
        t = self.atom()
        while self.peek()[0] in _ATOM_STARTERS:
            if self.peek()[0] == "lambda":
                t = App(t, self.lam())
            else:
                t = App(t, self.atom())
        return t

    def atom(self) -> Term:
        kind, text, pos = self.peek()
        if kind == "lident":
            self.next()
            return Var(text)
        if kind == "uident":
            self.next()
            if self.env is not None and text not in self.env:
                raise UnboundName(text)
            return Const(text)
        if kind == "hashnum":
            self.next()
            return church(int(text[1:]))
        if kind == "lparen":
            self.next()
            t = self.term()
            self.expect("rparen")
            return t
        if kind == "lambda":
            return self.lam()
        self.fail(f"expected a term, found {text!r}")

    # -- meta terms ---------------------------------------------------------

    def seq_suffix(self, pos):
        """Parse '[1..n]' after an identifier; returns the index variable."""
        self.expect("lbrack")
        low = self.expect("num")
        if low[1] != "1":
            raise ParseError(low[2], "sequence ranges must start at 1")
        self.expect("dotdot")
        idx = self.expect("lident")[1]
        self.expect("rbrack")
        if self.index_var is None:
            self.index_var = idx
        elif idx != self.index_var:
            raise ParseError(pos, f"second index variable {idx!r}; only one is allowed")
        return idx

    def meta_term(self):
        if self.peek()[0] == "lambda":
            return self.meta_lam()
        return self.meta_app()

    def meta_lam(self):
        from . import meta

        self.expect("lambda")
        binders = []
        while self.peek()[0] == "lident":
            kind, name, pos = self.next()
            if self.peek()[0] == "lbrack":
                idx = self.seq_suffix(pos)
                binders.append(meta.SeqBinder(name, idx))
            else:
                binders.append(meta.SingleBinder(name))
        if not binders:
            self.fail("expected at least one binder")
        self.expect("dot")
        body = self.meta_term()
        return meta.MLam(binders, body)

    def meta_app(self):
        from . import meta

        head = self.meta_atom()
        args = []
        while self.peek()[0] in _ATOM_STARTERS:
            if self.peek()[0] == "lambda":
                args.append(meta.Plain(self.meta_lam()))
                continue
            piece = self.meta_atom()
            if isinstance(piece, meta.Splice):
                args.append(piece)
            else:
                args.append(meta.Plain(piece))
        if not args:
            return head
        return meta.MApp(head, args)

    def meta_atom(self):
        from . import meta

        kind, text, pos = self.peek()
        if kind == "lident":
            self.next()
            if self.peek()[0] == "lbrack":
                self.seq_suffix(pos)
                return meta.Splice(text)
            return meta.MVar(text)
        if kind == "uident":
            self.next()
            return meta.MConst(text)
        if kind == "hashnum":
            self.next()
            return meta.church_meta(int(text[1:]))
        if kind == "lparen":
            self.next()
            t = self.meta_term()
            self.expect("rparen")
            if isinstance(t, meta.Splice):
                # a parenthesized splice is the chain as a grouped term
                t = meta.MApp(t, [])
            return t
        if kind == "lambda":
            return self.meta_lam()
        self.fail(f"expected a meta-term, found {text!r}")


def parse(source: str, env=None) -> Term:
    """Parse a term.  With an env, uppercase names must resolve in it."""
    p = _Parser(tokenize(source), env=env)
    t = p.term()
    p.expect("eof")
    return t


def parse_meta(source: str):
    """Parse a meta-term with sequence binders and splices."""
    from . import meta

    p = _Parser(tokenize(source))
    m = p.meta_term()
    p.expect("eof")
    meta.validate(m)
    return m


def parse_definitions(text: str, env, source: str = "<string>"):
    """Parse 'Name := term ;' entries into env, in order."""
    tokens = tokenize(text)
    p = _Parser(tokens, env=env)
    while p.peek()[0] != "eof":
        name = p.expect("uident")[1]
        p.expect("define")
        term = p.term()
        p.expect("semi")
        env.define(name, term, source)


# -- printing ---------------------------------------------------------------


def print_term(t: Term, sugar: bool = False) -> str:
    """Render a term; parse(print_term(t)) is alpha-equal to t.

    With sugar on, subterms in Church-numeral normal form (and the eta-short
    form of c_1) render as #n.
    """
    return _fmt(t, ctx="top", sugar=sugar)


def _numeral_value(t: Term):
    """n if t is lam s z. s^n z (or lam s.s); None otherwise."""
    if t.__class__ is not Lam:
        return None
    if t.body.__class__ is Var:
        return 1 if t.body.name == t.binder else None
    if t.body.__class__ is not Lam:
        return None
    s, z = t.binder, t.body.binder
    if s == z:
        return None
    u = t.body.body
    n = 0
    while u.__class__ is App:
        if u.fun.__class__ is not Var or u.fun.name != s:
            return None
        n += 1
        u = u.arg
    return n if (u.__class__ is Var and u.name == z) else None


def _fmt(t: Term, ctx: str, sugar: bool) -> str:
    if sugar:
        n = _numeral_value(t)
        if n is not None:
            return f"#{n}"
    c = t.__class__
    if c is Var or c is Const:
        return t.name
    if c is Lam:
        binders = []
        while t.__class__ is Lam and (not sugar or _numeral_value(t) is None):
            binders.append(t.binder)
            t = t.body
        s = "\\" + " ".join(binders) + "." + _fmt(t, "top", sugar)
        return f"({s})" if ctx != "top" else s
    # application: function position keeps bare apps, arguments get parens
    fun = _fmt(t.fun, "fun", sugar)
    arg = _fmt(t.arg, "arg", sugar)
    s = f"{fun} {arg}"
    return f"({s})" if ctx != "fun" and ctx != "top" else s
