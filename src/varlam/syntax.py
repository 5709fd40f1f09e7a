"""Concrete syntax: the tokenizer, the parser and the printer.

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

The tokenizer is one ``findall`` over ``_TOKEN_RE``: each match skips
whitespace and comments and captures one token, the empty one at the end.
It keeps the token texts and their kinds in two parallel lists and no
offsets: a ``ParseError`` finds the offset of its token again by matching
the source anew.  ``parse``, ``parse_meta`` and ``parse_definitions`` read
terms with one loop, ``_term``, over the token index.  Instead of calling
itself on a nested term it pushes a frame: at '(' the application to its
left, at a lambda that application, the binders and the sequences in scope
before them.  A token that cannot start an atom ends the innermost term.  It
closes every open lambda, since a body extends rightmost, and then ')'
closes its '('.  So the depth of a term costs list entries, not Python
frames, and no nesting is too deep to parse.
"""

from __future__ import annotations

import itertools
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


# whitespace and comments, then one token: a junk character matches '.', the end '\Z'
_TOKEN_RE = re.compile(r"\s*(?:--[^\n]*\s*)*(\\|λ|:=|\.\.|[.()\[\];]|#[0-9]+|[0-9]+|[A-Za-z][A-Za-z0-9_']*|.|\Z)")
# the kind of a token by its text ('#' alone is no numeral), else by its first character
_KINDS = {"\\": "lambda", "λ": "lambda", ":=": "define", "..": "dotdot", ".": "dot",
          "(": "lparen", ")": "rparen", "[": "lbrack", "]": "rbrack", ";": "semi",
          "#": "junk", "": "eof"}
_FIRST = {**dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "lident"),
          **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "uident"),
          **dict.fromkeys("0123456789", "num"), "#": "hashnum"}


def _tokens(source):
    """The kinds and the texts of the tokens of source, the last one eof;
    raises ParseError on the first junk character."""
    texts = _TOKEN_RE.findall(source)
    if len(texts) > 1 and not texts[-2]:
        del texts[-1]  # after trailing blanks the end matches twice
    kinds = [_KINDS.get(t) or _FIRST.get(t[0], "junk") for t in texts]
    if "junk" in kinds:
        i = kinds.index("junk")
        raise _error(source, i, f"unexpected character {texts[i]!r}")
    return kinds, texts


def _error(source, i, message):
    """A ParseError at the i-th token, whose offset is found only now."""
    m = next(itertools.islice(_TOKEN_RE.finditer(source), i, None))
    return ParseError(source, m.start(1), message)


def _expect(source, kinds, texts, i, kind):
    if kinds[i] != kind:
        raise _error(source, i, f"expected {kind}, found {texts[i]!r}")


def _term(source, kinds, texts, i, env, meta):
    """Read the term that starts at token i.  Returns it and the index of the
    token after it."""
    stack = []  # frames (application to the left, binders or None for '(', seqs, outer)
    left = None  # the application read so far in the innermost open term
    seqs = outer = frozenset()  # sequences in scope; enclosing sequence binders, shadowed ones too
    index_var = None
    while True:
        kind = kinds[i]
        if kind == "lident":
            text = texts[i]
            if meta and kinds[i + 1] == "lbrack":
                index_var = _seq_index(source, kinds, texts, i, index_var)
                if text not in seqs:
                    raise UnknownSequence(text)
                atom = Splice(SeqBinder(text, index_var))
                i += 5  # onto the ']' of '[1..n]'
            else:
                if outer:
                    _check_clash(source, kinds, texts, i, outer)
                atom = Var(text)
        elif kind == "lparen":
            stack.append((left, None, None, None))
            left = None
            i += 1
            continue
        elif kind == "lambda":
            i += 1
            binders = []
            frame = (left, binders, seqs, outer)
            while kinds[i] == "lident":
                name = texts[i]
                if outer:
                    _check_clash(source, kinds, texts, i, outer)
                if meta and kinds[i + 1] == "lbrack":
                    index_var = _seq_index(source, kinds, texts, i, index_var)
                    name = SeqBinder(name, index_var)
                    seqs = seqs | {name.name}
                    outer = outer | {name.name}
                    i += 5  # onto the ']' of '[1..n]'
                elif name in seqs:
                    seqs = seqs - {name}
                binders.append(name)
                i += 1
            if not binders:
                raise _error(source, i, "expected at least one binder")
            _expect(source, kinds, texts, i, "dot")
            stack.append(frame)
            left = None
            i += 1
            continue
        elif kind == "uident":
            text = texts[i]
            if env is not None and text not in env:
                raise UnboundName(text)
            atom = Const(text)
        elif kind == "hashnum":
            atom = church(int(texts[i][1:]))
        else:  # the innermost term ends here
            if left is None:
                raise _error(source, i, f"expected a {'meta-term' if meta else 'term'}, found {texts[i]!r}")
            while stack and stack[-1][1] is not None:  # close the open lambdas
                up, binders, seqs, outer = stack.pop()
                for b in reversed(binders):
                    left = Lam(b, left)
                if up is not None:
                    left = App(up, left)
            if not stack:
                return left, i
            _expect(source, kinds, texts, i, "rparen")  # only its ')' closes a '('
            up = stack.pop()[0]
            if meta:
                left = _group_splice_spine(left) or left
            if up is not None:
                left = App(up, left)
            i += 1
            continue
        left = atom if left is None else App(left, atom)
        i += 1


def _check_clash(source, kinds, texts, i, outer):
    """Raise if the expansion of an enclosing sequence binder could capture
    the name at token i (x1 under x[1..n]) or, when that name starts a
    sequence binder, the expansion of that binder could capture the
    enclosing one's (x[1..n] under x1[1..n]).  Sorted, so that of two such
    sequences the same one is named whatever the hash seed."""
    name = texts[i]
    for seq in sorted(outer):
        if _numbered(name, seq) or (_numbered(seq, name) and kinds[i + 1] == "lbrack"):
            raise _error(source, i, f"{name!r} clashes with the names of the enclosing sequence {seq!r}")


def _seq_index(source, kinds, texts, i, index_var):
    """The index variable of the '[1..n]' after the identifier at token i,
    which must be index_var unless that is None."""
    for j, kind in enumerate(("lbrack", "num", "dotdot", "lident", "rbrack"), i + 1):
        _expect(source, kinds, texts, j, kind)
        if kind == "num" and texts[j] != "1":
            raise _error(source, j, "sequence ranges must start at 1")
    idx = texts[i + 4]
    if index_var is not None and idx != index_var:
        raise _error(source, i, f"second index variable {idx!r}; only one is allowed")
    return idx


def _numbered(name, base):
    """Whether name is base followed by digits, as x12 is for x."""
    return name.startswith(base) and name[len(base):].isdigit()


def _group_splice_spine(t):
    """A parenthesized spine of bare splices is one term, I at n = 0, not
    nothing: group its head.  None when t is no such spine."""
    args = []
    while type(t) is App and type(t.arg) is Splice and not t.arg.grouped:
        args.append(t.arg)
        t = t.fun
    if type(t) is not Splice or t.grouped:
        return None
    t = grouped(t)
    for a in reversed(args):
        t = App(t, a)
    return t


@gc_paused
def parse(source: str, env=None) -> Term:
    """Parse a term.  With an env, uppercase names must resolve in it."""
    kinds, texts = _tokens(source)
    t, i = _term(source, kinds, texts, 0, env, False)
    _expect(source, kinds, texts, i, "eof")
    return t


def parse_meta(source: str) -> Term:
    """Parse a meta-term with sequence binders and splices."""
    kinds, texts = _tokens(source)
    t, i = _term(source, kinds, texts, 0, None, True)
    _expect(source, kinds, texts, i, "eof")
    return t


def parse_definitions(text: str, env):
    """Parse 'Name := term ;' entries into env, in order."""
    kinds, texts = _tokens(text)
    i = 0
    while kinds[i] != "eof":
        _expect(text, kinds, texts, i, "uident")
        _expect(text, kinds, texts, i + 1, "define")
        term, j = _term(text, kinds, texts, i + 2, env, False)
        _expect(text, kinds, texts, j, "semi")
        env.define(texts[i], term)
        i = j + 1


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
    """Append the pieces of t, in context ctx, to out.

    A lambda's body and an App's argument are the last pieces of their term,
    so the loop goes on down them and writes the closers of the parentheses
    it opened once, at the end: a numeral, nested to the right, costs no
    frame per level.  A Var function part is written in place; any other
    function part is formatted by a recursive call."""
    opened = 0
    while True:
        if sugar:
            n = numeral_value(t)
            if n is not None:
                out.append(f"#{n}")
                break
        c = type(t)
        if c is not App and c is not Lam:
            if c is Var or c is Const:
                out.append(t.name)
            else:  # a splice
                out.append(f"({t.binder})" if t.grouped else t.binder)
            break
        # a lambda extends rightmost; function position keeps bare apps, arguments get parens
        if ctx == "arg" or (c is Lam and ctx == "fun"):
            out.append("(")
            opened += 1
        if c is App:
            f = t.fun
            if type(f) is Var:
                out.append(f.name)
            else:
                _fmt(f, "fun", sugar, out)
            out.append(" ")
            t = t.arg
            ctx = "arg"
        else:
            binders = []
            while type(t) is Lam and (not sugar or numeral_value(t) is None):
                binders.append(t.binder)
                t = t.body
            out.append("\\" + " ".join(binders) + ".")
            ctx = "top"
    if opened:
        out.append(")" * opened)
