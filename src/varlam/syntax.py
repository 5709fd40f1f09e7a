"""Concrete syntax: tokenizer, parsers and the printer.

Term grammar:

    term  := atom+                      -- applications associate left
    atom  := lowerIdent | UpperIdent | '#' digits | '(' term ')' | lam
    lam   := ('\\' | 'λ') binder+ '.' term   -- the body extends rightmost

Lowercase identifiers are variables, uppercase ones reference named
definitions, ``#n`` expands to the n-th Church numeral at parse time.
Comments run from ``--`` to the end of the line.

Definition files (.lam) are sequences of ``Name := term ;`` where later
definitions may reference earlier ones only.

``parse_meta`` reads the meta grammar, which additionally allows ``x[1..n]``
both as a binder (a sequence of n binders, a ``SeqBinder``) and as an atom (a
``Splice``: the left-associated chain x1 ... xn, spread into n arguments in
argument position).  A parenthesized splice, or a parenthesized spine of
splices alone, is one grouped term.  One index variable per meta-term; every
splice must name a sequence binder in scope (else ``UnknownSequence``).
Within the scope of x[1..n], shadowed or not, no variable or binder may be
named x followed by digits (x1, x12, a sequence x1[1..n]), and no sequence
binder x[1..n] may open within the scope of such a sequence x1[1..n]: the
expansion would capture it (a ``ParseError``).
"""

from __future__ import annotations

import re

from .church import church, numeral_value
from .terms import App, Const, Lam, LambdaError, SeqBinder, Splice, Term, UnboundName, Var, gc_paused, grouped


class ParseError(LambdaError):
    """A syntax error at an offset of the source, reported as line:col."""

    def __init__(self, source, offset, message):
        line = source.count("\n", 0, offset) + 1
        col = offset - source.rfind("\n", 0, offset)
        super().__init__(f"parse error at {line}:{col}: {message}")
        self.offset = offset


class UnknownSequence(LambdaError):
    def __init__(self, name):
        super().__init__(f"splice of unknown sequence: {name}")
        self.name = name


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
    | (?P<junk>.)
    """,
    re.VERBOSE,
)


def tokenize(source: str):
    """Return the (kind, text, offset) triples of source; raises ParseError on junk."""
    tokens = [(kind, m.group(), m.start())
              for m in _TOKEN_RE.finditer(source) if (kind := m.lastgroup) != "ws"]
    for kind, text, pos in tokens:
        if kind == "junk":
            raise ParseError(source, pos, f"unexpected character {text!r}")
    tokens.append(("eof", "", len(source)))
    return tokens


_ATOM_STARTERS = {"lident", "uident", "hashnum", "lparen", "lambda"}


class _Parser:
    def __init__(self, source, env=None, meta=False):
        self.source = source
        self.tokens = tokenize(source)
        self.i = 0
        self.env = env
        self.meta = meta  # accept x[1..n] binders and splices
        self.index_var = None  # the single index meta-variable, once seen
        self.seqs = frozenset()  # names of the sequences in scope
        self.outer = frozenset()  # names of the enclosing sequence binders, shadowed ones too
        self.unknown = None  # the first splice of a sequence not in scope

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, offset, message):
        return ParseError(self.source, offset, message)

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise self.error(tok[2], f"expected {kind}, found {tok[1]!r}")
        return tok

    def lam(self) -> Term:
        """The rest of a lambda after its lambda sign: binders, '.', the body."""
        binders = []
        scope, outer = self.seqs, self.outer
        while self.peek()[0] == "lident":
            kind, name, pos = self.next()
            if self.outer:
                self.check_clash(name, pos)
            if self.meta and self.peek()[0] == "lbrack":
                name = SeqBinder(name, self.seq_suffix(pos))
                self.seqs = self.seqs | {name.name}
                self.outer = self.outer | {name.name}
            elif name in self.seqs:
                self.seqs = self.seqs - {name}
            binders.append(name)
        if not binders:
            raise self.error(self.peek()[2], "expected at least one binder")
        self.expect("dot")
        body = self.term()
        self.seqs, self.outer = scope, outer
        for b in reversed(binders):
            body = Lam(b, body)
        return body

    def term(self) -> Term:
        t = self.atom()
        while self.peek()[0] in _ATOM_STARTERS:
            t = App(t, self.atom())
        return t

    def atom(self) -> Term:
        kind, text, pos = self.next()
        if kind == "lident":
            if self.meta and self.peek()[0] == "lbrack":
                binder = SeqBinder(text, self.seq_suffix(pos))
                if text not in self.seqs and self.unknown is None:
                    self.unknown = text
                return Splice(binder)
            if self.outer:
                self.check_clash(text, pos)
            return Var(text)
        if kind == "uident":
            if self.env is not None and text not in self.env:
                raise UnboundName(text)
            return Const(text)
        if kind == "hashnum":
            return church(int(text[1:]))
        if kind == "lparen":
            t = self.term()
            self.expect("rparen")
            if self.meta:
                t = _group_splice_spine(t) or t
            return t
        if kind == "lambda":
            return self.lam()
        raise self.error(pos, f"expected a {'meta-term' if self.meta else 'term'}, found {text!r}")

    def check_clash(self, name, pos):
        """Raise if the expansion of an enclosing sequence binder could capture
        name (x1 under x[1..n]) or, when name starts a sequence binder, the
        expansion of that binder could capture the enclosing one's (x[1..n]
        under x1[1..n])."""
        for seq in self.outer:
            if _numbered(name, seq) or (_numbered(seq, name) and self.peek()[0] == "lbrack"):
                raise self.error(pos, f"{name!r} clashes with the names of the enclosing sequence {seq!r}")

    def seq_suffix(self, pos):
        """Parse '[1..n]' after an identifier; returns the index variable."""
        self.expect("lbrack")
        low = self.expect("num")
        if low[1] != "1":
            raise self.error(low[2], "sequence ranges must start at 1")
        self.expect("dotdot")
        idx = self.expect("lident")[1]
        self.expect("rbrack")
        if self.index_var is None:
            self.index_var = idx
        elif idx != self.index_var:
            raise self.error(pos, f"second index variable {idx!r}; only one is allowed")
        return idx


def _numbered(name, base):
    """Whether name is base followed by digits, as x12 is for x."""
    return name.startswith(base) and name[len(base):].isdigit()


def _group_splice_spine(t):
    """A parenthesized spine of bare splices is one term, I at n = 0, not
    nothing: group its head.  None when t is no such spine."""
    if t.__class__ is Splice:
        return None if t.grouped else grouped(t)
    if t.__class__ is App and t.arg.__class__ is Splice and not t.arg.grouped:
        fun = _group_splice_spine(t.fun)
        return None if fun is None else App(fun, t.arg)
    return None


@gc_paused
def parse(source: str, env=None) -> Term:
    """Parse a term.  With an env, uppercase names must resolve in it."""
    p = _Parser(source, env=env)
    t = p.term()
    p.expect("eof")
    return t


def parse_meta(source: str) -> Term:
    """Parse a meta-term with sequence binders and splices."""
    p = _Parser(source, meta=True)
    t = p.term()
    p.expect("eof")
    if p.unknown is not None:
        raise UnknownSequence(p.unknown)
    return t


def parse_definitions(text: str, env):
    """Parse 'Name := term ;' entries into env, in order."""
    p = _Parser(text, env=env)
    while p.peek()[0] != "eof":
        name = p.expect("uident")[1]
        p.expect("define")
        term = p.term()
        p.expect("semi")
        env.define(name, term)


# -- printing ---------------------------------------------------------------


def print_term(t: Term, sugar: bool = False) -> str:
    """Render a term; parse(print_term(t)) is alpha-equal to t.

    With sugar on, subterms in Church-numeral normal form (and the eta-short
    form of c_1) render as #n.
    """
    out: list[str] = []
    _fmt(t, "top", sugar, out)
    return "".join(out)


def _fmt(t: Term, ctx: str, sugar: bool, out: list) -> None:
    """Append the pieces of t, in context ctx, to out."""
    if sugar:
        n = numeral_value(t)
        if n is not None:
            out.append(f"#{n}")
            return
    c = t.__class__
    if c is Var or c is Const:
        out.append(t.name)
        return
    if c is not Lam and c is not App:  # a splice
        out.append(f"({t.binder})" if t.grouped else t.binder)
        return
    # a lambda extends rightmost; function position keeps bare apps, arguments get parens
    paren = ctx != "top" if c is Lam else ctx == "arg"
    if paren:
        out.append("(")
    if c is Lam:
        binders = []
        while t.__class__ is Lam and (not sugar or numeral_value(t) is None):
            binders.append(t.binder)
            t = t.body
        out.append("\\" + " ".join(binders) + ".")
        _fmt(t, "top", sugar, out)
    else:
        _fmt(t.fun, "fun", sugar, out)
        out.append(" ")
        _fmt(t.arg, "arg", sugar, out)
    if paren:
        out.append(")")
