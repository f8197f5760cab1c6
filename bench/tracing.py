"""Bench-side spans around calls into the library's public functions.

The traced run must not depend on spans inside the program (a later
change may move or remove them), so it times the layer boundaries from
outside: :meth:`Tracer.patch` swaps a public function or method for a
wrapper that records a span, for the duration of a ``with`` block, and
puts the original back afterwards.  Nothing under ``src/`` is edited.

A layer's *self time* is its spans' duration minus the part their child
spans cover.  Parent links are per thread, so work a library thread
does (service scheduler, conveyor reader/writer) forms its own roots.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    thread: int
    end: float = 0.0
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)


@dataclass
class Stat:
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0

    @property
    def mean_ms(self) -> float:
        return 1e3 * self.total / self.count if self.count else 0.0


class Tracer:
    """In-memory span recorder with temporary function patching."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(name, time.perf_counter(), parent, threading.get_ident())
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.children.append(record)
            self.spans.append(record)  # list.append is atomic under the GIL

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap each ``(owner, attribute, span_name)`` for the block.

        ``owner`` is a module or a class; ``span_name`` is a string or a
        callable taking the call's positional arguments (used to name a
        span after the object it was called on).
        """
        originals = []
        try:
            for owner, attr, name in targets:
                raw = vars(owner)[attr]
                originals.append((owner, attr, raw))
                setattr(owner, attr, self._wrap(raw, name))
            yield self
        finally:
            for owner, attr, raw in reversed(originals):
                setattr(owner, attr, raw)

    def _wrap(self, raw, name):
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if binder else raw

        @functools.wraps(func)
        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            with self.span(label):
                return func(*args, **kwargs)

        return binder(traced) if binder else traced

    # -- queries -------------------------------------------------------

    def stats(self, root: Span) -> dict[str, Stat]:
        """Per span name inside ``root``'s subtree: call count, summed
        duration and summed self time.  The root's own self time — wall
        time no child span covers — is the ``unattributed`` entry."""
        table: dict[str, Stat] = {}

        def walk(node: Span) -> None:
            for child in node.children:
                stat = table.setdefault(child.name, Stat())
                stat.count += 1
                stat.total += child.duration
                stat.self_time += child.self_time
                walk(child)

        walk(root)
        table["unattributed"] = Stat(1, root.self_time, root.self_time)
        return table

    def named(self, name: str) -> list[Span]:
        """Every span called ``name``, in completion order."""
        return [s for s in self.spans if s.name == name]


def accounting_table(title: str, total: float, table: dict[str, Stat]) -> tuple[str, float]:
    """Render the layer self times of one traced region.

    Returns the table and the unattributed share of ``total`` — the
    number the traced run fails on when it exceeds its limit.
    """
    share = table["unattributed"].self_time / total if total > 0 else 0.0
    lines = [f"  {title}: {total:.3f} s"]
    rows = {name: stat.self_time for name, stat in table.items()}
    for name, seconds in sorted(rows.items(), key=lambda kv: -kv[1]):
        label = "unattributed_s" if name == "unattributed" else name
        lines.append(f"    {label:<28} {seconds:9.3f} s  {100 * seconds / total if total else 0:5.1f} %")
    return "\n".join(lines), share
