"""Time the program's public functions from outside, as spans of the
program's own tracer.

A :class:`Tracer` replaces chosen functions and methods with wrappers
that open a ``repro.obs.trace.TRACER`` span of category :data:`CATEGORY`
around each call, and puts the originals back on :meth:`Tracer.restore`.
:func:`totals` reads the recorded spans: a wrapped span's self time is
its duration minus the durations of the wrapped spans directly inside
it (the program's own spans do not take time from it), so the self
times of all wrapped spans add up to the time the outermost ones cover
(``covered_s``); the rest of an operation's wall time is unattributed.

The spans, the program's included, can be saved with
:func:`repro.obs.trace.write_trace`, so ``repro trace summary`` reads
them.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

#: Category of the wrapper spans, which tells them from the program's.
CATEGORY = "perfbench"

#: A span name, or a function of the call's positional arguments that
#: returns one (used where the name depends on the receiver's class).
SpanName = Union[str, Callable[[tuple], str]]

#: Called after a wrapped call returns: (tracer, args, kwargs, result).
CountHook = Callable[["Tracer", tuple, dict, Any], None]


def totals(spans: Iterable[Dict[str, Any]]
           ) -> Tuple[Dict[str, List[float]], float]:
    """(span name -> [calls, self seconds], seconds covered by outermost
    spans) over the wrapper spans among ``spans``."""
    mine = sorted((s for s in spans if s.get("cat") == CATEGORY),
                  key=lambda s: (s["lane"], s["ts"], -s["dur"]))
    table: Dict[str, List[float]] = {}
    covered = 0.0
    open_spans: List[tuple] = []  # (lane, end, row) of enclosing spans
    for span in mine:
        while open_spans and (open_spans[-1][0] != span["lane"]
                              or open_spans[-1][1] <= span["ts"]):
            open_spans.pop()
        row = table.setdefault(span["name"], [0, 0.0])
        row[0] += 1
        row[1] += span["dur"]
        if open_spans:
            open_spans[-1][2][1] -= span["dur"]
        else:
            covered += span["dur"]
        open_spans.append((span["lane"], span["ts"] + span["dur"], row))
    return table, covered


class Tracer:
    """Installs the wrappers and sums what the traced operations did."""

    def __init__(self) -> None:
        #: span name -> [calls, self seconds], over collected operations
        self.totals: Dict[str, List[float]] = {}
        #: counter name -> value, filled by count hooks and by merge()
        self.counts: Dict[str, float] = {}
        #: Seconds covered by outermost spans.
        self.covered_s = 0.0
        #: Objects registered by observer hooks (see layers.py).
        self.engines: List[Any] = []
        self._restore: List[tuple] = []

    # -- counters ----------------------------------------------------------
    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def calls(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0))[1]

    def merge(self, table: Dict[str, List[float]],
              counts: Dict[str, float], covered_s: float) -> None:
        """Fold in span totals and counters (of one operation, or of a
        child process)."""
        for name, (calls, self_s) in table.items():
            row = self.totals.setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += self_s
        for name, value in counts.items():
            self.add(name, value)
        self.covered_s += covered_s

    def collect(self) -> List[Dict[str, Any]]:
        """Fold the spans recorded since the last call into the totals,
        clear them from ``TRACER`` and return them."""
        from repro.obs.trace import TRACER

        spans = TRACER.spans()
        TRACER.clear()
        table, covered = totals(spans)
        self.merge(table, {}, covered)
        return spans

    # -- wrapping ----------------------------------------------------------
    def timed(self, name: SpanName, fn: Callable,
              count: Optional[CountHook] = None) -> Callable:
        """``fn`` wrapped so that each call records one span."""
        from repro.obs.trace import TRACER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            with TRACER.span(label, CATEGORY):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper

    def observed(self, fn: Callable, count: CountHook) -> Callable:
        """``fn`` wrapped to run ``count`` after each call, untimed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self, args, kwargs, result)
            return result

        return wrapper

    def wrap(self, owner: Any, attr: str, name: Optional[SpanName],
             count: Optional[CountHook] = None) -> None:
        """Replace ``owner.attr`` (a function, method, classmethod or
        staticmethod defined on ``owner`` itself) by a wrapper.

        ``name=None`` installs an untimed observer that only runs
        ``count``.
        """
        original = owner.__dict__[attr]
        kind = type(original) if isinstance(
            original, (classmethod, staticmethod)) else None
        fn = original.__func__ if kind is not None else original
        if name is None:
            wrapped = self.observed(fn, count)
        else:
            wrapped = self.timed(name, fn, count)
        setattr(owner, attr, kind(wrapped) if kind is not None else wrapped)
        self._restore.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped original back (last wrapped, first restored)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
