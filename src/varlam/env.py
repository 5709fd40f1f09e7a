"""Named-definition tables and the shipped prelude."""

from __future__ import annotations

import errno
from pathlib import Path

from .syntax import parse_definitions
from .terms import LambdaError, Term, UnboundName, expand_consts, free_vars

_DATA = Path(__file__).parent / "data"


class BadDefinition(LambdaError):
    pass


class Env:
    """Ordered map from names to closed terms.

    Definitions may only reference earlier names, so the table is acyclic by
    construction; each entry stores its fully constant-free expansion.
    """

    def __init__(self):
        self._expanded: dict[str, Term] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._expanded

    def names(self):
        return list(self._expanded)

    def expanded(self, name: str) -> Term:
        if name not in self._expanded:
            raise UnboundName(name)
        return self._expanded[name]

    def define(self, name: str, term: Term) -> None:
        expanded = expand_consts(term, self)  # raises UnboundName on forward refs
        fv = free_vars(expanded)
        if fv:
            raise BadDefinition(f"{name} is not closed; free: {', '.join(sorted(fv))}")
        self._expanded[name] = expanded

    def load_text(self, text: str) -> None:
        parse_definitions(text, self)

    def load_file(self, path) -> None:
        self.load_text(read_source(path))


def read_source(path) -> str:
    """The text of a file, read as UTF-8.  A file that is not UTF-8 raises an
    OSError that names it, as a file that cannot be read does."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 ({exc.reason} at byte {exc.start})"
        raise OSError(errno.EILSEQ, reason, str(path)) from None


def standard_env() -> Env:
    """The default environment: the packaged prelude.lam, then variadic.lam."""
    env = Env()
    env.load_file(_DATA / "prelude.lam")
    env.load_file(_DATA / "variadic.lam")
    return env
