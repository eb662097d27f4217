"""Spans and counters recorded around calls into normcl, from outside it.

The benchmark does not edit the program to trace it.  A ``Hook`` names
the attribute a caller looks up -- a module global such as
``normcl.cli.train_step``, or a method such as ``Transformer.decode`` --
and ``installed`` swaps in a wrapper for the duration of a ``with``
block, then puts the original back.  A wrapper either times the call as
a span or only counts it.

Spans nest through a stack, so every span knows the span that caused
it.  That gives a layer's self time (its duration minus the time its
direct children cover) and lets counters be read per enclosing span,
e.g. forward kernel calls per ``trainer.train_step``: a counter only
bumps a running total, and each span adds what the totals gained while
it was open.  Everything stays in memory until the benchmark reads it.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

__all__ = ["Recorder", "Hook", "MissingHook", "installed"]


class MissingHook(RuntimeError):
    """A hooked attribute no longer exists where the benchmark looks."""


class Recorder:
    """In-memory spans (per-call durations) and counters."""

    def __init__(self):
        self.stack: list[str] = []
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        # (parent span, span) -> calls / seconds, parent None at top level
        self.child_calls: Counter = Counter()
        self.child_seconds: Counter = Counter()
        # key -> amount over the whole run, and (span, key) -> the part
        # tallied while that span was open
        self.totals: Counter = Counter()
        self.tallies: Counter = Counter()

    def span(self, name: str, keep_samples: bool = True,
             after: Callable | None = None) -> Callable:
        """Return a wrapper factory timing each call as span ``name``.

        ``after(args, result)`` runs outside the timed interval and may
        add tallies from the call's arguments or result.
        """
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent = self.stack[-1] if self.stack else None
                self.stack.append(name)
                before = dict(self.totals)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    self.stack.pop()
                    for key, amount in self.totals.items():
                        gained = amount - before.get(key, 0)
                        if gained:
                            self.tallies[(name, key)] += gained
                    self.calls[name] += 1
                    self.seconds[name] += dt
                    if keep_samples:
                        self.samples[name].append(dt)
                    self.child_calls[(parent, name)] += 1
                    self.child_seconds[(parent, name)] += dt
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return make

    def counter(self, key: str, measure: Callable | None = None) -> Callable:
        """Return a wrapper factory that tallies ``key`` once per call,
        plus ``measure(args)`` -> {key: amount} when given."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.tally(key, 1)
                if measure is not None:
                    for k, amount in measure(args).items():
                        self.tally(k, amount)
                return fn(*args, **kwargs)
            return wrapper
        return make

    def tally(self, key: str, amount: float) -> None:
        self.totals[key] += amount

    def self_seconds(self, name: str) -> float:
        """Time in span ``name`` not covered by its direct children."""
        children = sum(s for (parent, _), s in self.child_seconds.items()
                       if parent == name)
        return self.seconds[name] - children


@dataclass(frozen=True)
class Hook:
    owner: object          # a module or a class
    attr: str              # the attribute its callers look up
    make: Callable         # original callable -> wrapper


def _label(owner, attr: str) -> str:
    return f"{getattr(owner, '__name__', owner)}.{attr}"


@contextlib.contextmanager
def installed(hooks):
    """Swap every hook's wrapper in, and the originals back on exit.

    Fails with MissingHook before installing anything when an attribute
    is gone, so a refactor that moves a call site is reported, not
    silently untraced.
    """
    for h in hooks:
        if h.attr not in vars(h.owner):
            raise MissingHook(f"{_label(h.owner, h.attr)} does not exist")
    saved = []
    try:
        for h in hooks:
            raw = vars(h.owner)[h.attr]
            if isinstance(raw, classmethod):
                new = classmethod(h.make(raw.__func__))
            else:
                new = h.make(raw)
            setattr(h.owner, h.attr, new)
            saved.append((h.owner, h.attr, raw))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

