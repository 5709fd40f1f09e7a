"""Named-definition tables and the shipped prelude."""

from __future__ import annotations

import errno
import importlib.resources
from pathlib import Path

from .syntax import parse_definitions
from .terms import LambdaError, Term, UnboundName, expand_consts, free_vars


class BadDefinition(LambdaError):
    pass


class Env:
    """Ordered map from names to closed terms, with per-name provenance.

    Definitions may only reference earlier names, so the table is acyclic by
    construction; each entry also stores its fully constant-free expansion.
    """

    def __init__(self):
        self._raw: dict[str, Term] = {}
        self._expanded: dict[str, Term] = {}
        self.provenance: dict[str, str] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._raw

    def __iter__(self):
        return iter(self._raw)

    def names(self):
        return list(self._raw)

    def raw(self, name: str) -> Term:
        if name not in self._raw:
            raise UnboundName(name)
        return self._raw[name]

    def expanded(self, name: str) -> Term:
        if name not in self._expanded:
            raise UnboundName(name)
        return self._expanded[name]

    def define(self, name: str, term: Term, source: str = "<interactive>") -> None:
        expanded = expand_consts(term, self)  # raises UnboundName on forward refs
        fv = free_vars(expanded)
        if fv:
            raise BadDefinition(f"{name} is not closed; free: {', '.join(sorted(fv))}")
        self._raw[name] = term
        self._expanded[name] = expanded
        self.provenance[name] = source

    def load_text(self, text: str, source: str = "<string>") -> None:
        parse_definitions(text, self, source)

    def load_file(self, path) -> None:
        self.load_text(read_source(path), str(path))


def read_source(path) -> str:
    """The text of a file, read as UTF-8.  A file that is not UTF-8 raises an
    OSError that names it, as a file that cannot be read does."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 ({exc.reason} at byte {exc.start})"
        raise OSError(errno.EILSEQ, reason, str(path)) from None


def _data_text(filename: str) -> str:
    return (importlib.resources.files("varlam") / "data" / filename).read_text("utf-8")


def standard_env(prelude: bool = True, directory=None) -> Env:
    """The default environment: prelude names plus the variadic library.

    With a directory, prelude.lam and variadic.lam are read from there
    instead of the packaged copies.
    """
    env = Env()
    if not prelude:
        return env
    if directory is not None:
        base = Path(directory)
        env.load_file(base / "prelude.lam")
        variadic = base / "variadic.lam"
        if variadic.exists():
            env.load_file(variadic)
    else:
        env.load_text(_data_text("prelude.lam"), "<prelude>")
        env.load_text(_data_text("variadic.lam"), "<variadic>")
    return env
