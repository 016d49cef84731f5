"""In-memory spans and counters around the public functions of each layer.

The benchmark never edits the program: it replaces a function at the module
or class attribute the pipeline resolves (for example
``riskcast.calibration.train_quantile_model``, which ``QuantileEvaluator``
looks up in its own module), records a span for every call and puts the
original back afterwards. Spans stay in memory and are written out once, at
the end of a run.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int  # operation id: every span of one cli.main call shares it


class Tracer:
    """Records nested spans and per-operation counters; patches functions.

    Set `op` before each operation; spans and counters recorded meanwhile
    carry it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: defaultdict[int, Counter] = defaultdict(Counter)
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.op))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Time every call of owner.attr as span `name`.

        on_result(counts, args, result) runs after a successful call and may
        add counters taken from the arguments or the returned object.
        """
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapped(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(idx)
            counts = tracer.counts[tracer.op]
            counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(counts, args, result)
            return result

        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def total(self, name: str, op: int) -> float:
        """Summed duration of operation op's spans called `name`."""
        return sum(s.end - s.start for s in self.spans if s.name == name and s.op == op)

    def self_total(self, name: str, op: int) -> float:
        """Summed self time of operation op's spans called `name`."""
        own = self_times(self.spans)
        return sum(own[i] for i, s in enumerate(self.spans) if s.name == name and s.op == op)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": [asdict(s) for s in self.spans],
                "counts": {str(op): dict(c) for op, c in self.counts.items()},
            }, fh)
            fh.write("\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out
