"""Spans at the calls between varlam's modules, for the traced run.

Each traced function is wrapped at the names its callers look it up by: the
wrapper of ``varlam.engine.substitute`` sees every beta-step substitution the
reducer makes, but not the recursion inside ``terms``.  A span opens only at
the outermost entry of a name; re-entrant calls through the same name (the
recursion of ``eta_normalize``, ``one_step_reducts`` or ``turner``) belong to
the span already open.  Spans are kept in memory and aggregated at the end:
a layer's self time is its spans' time minus the time their child spans
cover.  Hooks on a few results add machine-independent counts.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import varlam
from varlam import bracket, church, engine, meta


def _nodes(t) -> int:
    count, stack = 0, [t]
    while stack:
        u = stack.pop()
        count += 1
        if isinstance(u, varlam.App):
            stack.append(u.fun)
            stack.append(u.arg)
        elif isinstance(u, varlam.Lam):
            stack.append(u.body)
    return count


def _on_normalize(counts, args, r):
    counts["engine.beta_steps"] += r.steps
    status = r.status.value
    if status == "fuel-exhausted":
        counts["engine.fuel_exhausted"] += 1
    elif status == "size-exceeded":
        counts["engine.size_exceeded"] += 1
    counts["engine.result_size_max"] = max(counts["engine.result_size_max"], varlam.size(r.result))


def _on_reduces_to(counts, args, r):
    counts["engine.reach_explored"] += r.explored


def _on_one_step_reducts(counts, args, r):
    counts["engine.reducts_generated"] += len(r)


def _on_turner(counts, args, r):
    counts["bracket.turner_nodes_in"] += _nodes(args[0])
    counts["bracket.turner_nodes_out"] += _nodes(r)


# span name -> (bindings callers look it up by, hook on its result)
SPANS = {
    "env.standard_env": ([(varlam, "standard_env")], None),
    "syntax.parse": ([(varlam, "parse")], None),
    "syntax.print_term": ([(varlam, "print_term")], None),
    "terms.alpha_normal": ([(engine, "alpha_normal")], None),
    "terms.substitute": ([(engine, "substitute")], None),
    "terms.alpha_eq": ([(varlam, "alpha_eq"), (engine, "alpha_eq")], None),
    "terms.expand_consts": ([(varlam, "expand_consts"), (engine, "expand_consts")], None),
    "engine.normalize": ([(varlam, "normalize"), (engine, "normalize"), (church, "normalize")],
                         _on_normalize),
    "engine.eta_normalize": ([(engine, "eta_normalize")], None),
    "engine.reduces_to": ([(varlam, "reduces_to")], _on_reduces_to),
    "engine.one_step_reducts": ([(engine, "one_step_reducts")], _on_one_step_reducts),
    "bracket.turner": ([(bracket, "turner")], _on_turner),
    "bracket.extended_bound": ([(bracket, "extended_bound")], None),
    "meta.build": ([(meta, "build")], None),
    "meta.expand": ([(meta, "expand")], None),
    "church.unchurch": ([(church, "unchurch")], None),
}

COUNTS = ("engine.beta_steps", "engine.fuel_exhausted", "engine.size_exceeded",
          "engine.result_size_max", "engine.reach_explored", "engine.reducts_generated",
          "bracket.turner_nodes_in", "bracket.turner_nodes_out")


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list = []

    def install(self) -> None:
        """Rebind every traced name; a name the program no longer has is skipped."""
        for nid, (name, (bindings, hook)) in enumerate(SPANS.items()):
            active = [False]  # shared by all bindings of one name
            for module, attr in bindings:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(nid, fn, hook, active))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, nid, fn, hook, active):
        clock = time.perf_counter
        span_name, parent, start, end, open_ = self.span_name, self.parent, self.start, self.end, self.open

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            i = len(start)
            span_name.append(nid)
            parent.append(open_[-1] if open_ else -1)
            end.append(0.0)
            open_.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()
                active[0] = False
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def take_counts(self) -> dict:
        """The counts since the last call, every known count present."""
        out = {name: self.counts[name] for name in COUNTS}
        self.counts.clear()
        return out

    def mark(self) -> int:
        return len(self.start)

    def layers(self, begin: int = 0, stop: int | None = None) -> dict:
        """name -> [calls, self seconds, root seconds] over spans[begin:stop].

        Root seconds is the time of spans with no traced parent, which is the
        part of the caller's time the traced layers account for.
        """
        stop = len(self.start) if stop is None else stop
        dur = array("d", (self.end[i] - self.start[i] for i in range(begin, stop)))
        child = array("d", bytes(8 * len(dur)))
        for j in range(len(dur)):
            p = self.parent[begin + j]
            if p >= begin:
                child[p - begin] += dur[j]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for j, d in enumerate(dur):
            row = out[self.names[self.span_name[begin + j]]]
            row[0] += 1
            row[1] += d - child[j]
            if self.parent[begin + j] < begin:
                row[2] += d
        return out
