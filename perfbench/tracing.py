"""Outside-in tracing: spans recorded around calls into each layer.

Nothing under ``src/`` knows about this module.  A traced pass replaces
a layer's public function at the binding its caller looks it up through
(for example ``repro.fleet.service.split_segments``) with a wrapper
that records a span, and restores the original when the pass ends.
Spans stay in memory; self time is a span's duration minus the part of
it its direct child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

#: A result hook: ``hook(args, kwargs, result)`` runs after the call.
Hook = Callable[[tuple, dict, Any], None]


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """In-memory span recorder with a parent stack."""

    spans: List[Span] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable[..., Any],
             hook: Optional[Hook] = None,
             name_of: Optional[Callable[[tuple, dict], str]] = None
             ) -> Callable[..., Any]:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name if name_of is None else name_of(args, kwargs)
            span = Span(label, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def total(self, *names: str) -> float:
        wanted = set(names)
        return sum(s.end - s.start for s in self.spans
                   if s.name in wanted)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out: Dict[str, float] = {}
        for i, span in enumerate(self.spans):
            out[span.name] = (out.get(span.name, 0.0)
                              + span.end - span.start - child[i])
        return out

    def table(self, per: int) -> List[str]:
        """Human-readable per-span totals, self times and call counts."""
        selfs = self.self_times()
        totals = {name: self.total(name) for name in selfs}
        return [f"  {name:<22} calls/epoch {self.count(name) / per:>10.1f}"
                f"  total/epoch {totals[name] / per:>10.6f} s"
                f"  self/epoch {selfs[name] / per:>10.6f} s"
                for name in sorted(selfs, key=lambda n: -totals[n])]


@dataclass(frozen=True)
class Target:
    """One binding to wrap: ``module:attr`` or ``module:Class.attr``."""

    where: str
    span: str
    hook: Optional[Hook] = None
    name_of: Optional[Callable[[tuple, dict], str]] = None


def _resolve(where: str) -> tuple:
    module_name, _, path = where.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


@contextmanager
def patched(tracer: Tracer, targets: Sequence[Target]) -> Iterator[None]:
    """Install wrappers for ``targets`` for the duration of the block.

    A binding a later refactor removed is reported on stderr (and its
    metrics read zero) rather than failing the run.
    """
    undo = []
    missing = []
    try:
        for target in targets:
            try:
                owner, attr = _resolve(target.where)
                original = owner.__dict__[attr] if isinstance(
                    owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError, ImportError):
                missing.append(target.where)
                continue
            setattr(owner, attr, tracer.wrap(target.span, original,
                                             target.hook, target.name_of))
            undo.append((owner, attr, original))
        if missing:
            print("trace: bindings not found: " + ", ".join(missing),
                  file=sys.stderr)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]
