"""In-memory span tracer that wraps library functions from the outside.

The benchmark never edits the program under test: a traced run replaces
public functions and methods of ``repro`` with timing wrappers for its
duration (the ``patch_*`` methods) and puts the originals back afterwards
(:meth:`Tracer.restore`).  Every wrapped call records one span: name,
start and end (``perf_counter_ns``), parent span, and batch id.

The parent is the span that was open when the call started (-1 for a
top-level call); the batch id is whatever the benchmark, or a hook such
as the one that reads a decoded frame's client ``seq``, put in
:attr:`Tracer.batch` (-1 for none).  Spans are stored column-wise in
arrays, so recording one allocates no object the garbage collector
tracks: a traced round would otherwise run the program's collections
over hundreds of thousands of span records.  A span's self time is its
duration minus its direct children's; the tracer is single-threaded, so
children never overlap.

A wrapper costs time of its own: some inside its span (between the clock
read and the wrapped call) and some charged to its parent (the call into
the wrapper, the bookkeeping).  :meth:`Tracer.calibrate` measures both
on this host, and folding subtracts them, so self times estimate the
untraced program rather than the traced one.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

_NOW = time.perf_counter_ns


class Tracer:
    """Collects spans from wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.batches = array("q")
        #: Batch id given to spans that start from now on (-1: none).
        self.batch = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Wrapper cost inside each span, and charged to its parent (ns).
        self.inner_cost_ns = 0.0
        self.parent_cost_ns = 0.0

    # -- recording ----------------------------------------------------------------

    def wrap(self, fn, name: str, hook=None):
        """A wrapper of ``fn`` that records one span per call.

        ``hook(tracer, index, args, result)`` runs after a successful
        call; it may rename span ``index``, set its batch id or add
        counters.
        """
        names, starts, ends = self.names, self.starts, self.ends
        parents, batches, stack = self.parents, self.batches, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            batches.append(self.batch)
            ends.append(0)
            stack.append(index)
            starts.append(_NOW())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = _NOW()
                stack.pop()
            if hook is not None:
                hook(self, index, args, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        """Wrap a generator function: each ``next`` is one span."""
        step = self.wrap(next, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    item = step(iterator)
                except StopIteration:
                    return
                yield item

        return traced

    # -- patching -----------------------------------------------------------------

    def patch_method(self, owner: type, attr: str, name: str, hook=None,
                     generator: bool = False) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) with a wrapper."""
        original = owner.__dict__[attr]
        if generator:
            wrapper = self.wrap_generator(original, name)
        else:
            wrapper = self.wrap(original, name, hook)
        self.patch_value(owner, attr, wrapper)

    def patch_function(self, module, attr: str, name: str, hook=None) -> None:
        """Replace a module function everywhere it was imported by name."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, hook)
        for loaded in list(sys.modules.values()):
            if loaded is not None and getattr(loaded, attr, None) is original:
                self.patch_value(loaded, attr, wrapper)

    def patch_value(self, owner, attr: str, value) -> None:
        """Replace any attribute, restored by :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def calibrate(self, calls: int = 20_000, repeats: int = 5) -> None:
        """Measure the wrapper's own cost (see the module docstring)."""

        def noop():
            return None

        def loop(fn):
            for _ in range(calls):
                fn()

        traced_noop = self.wrap(noop, "calibrate.child")
        traced_loop = self.wrap(loop, "calibrate.parent")
        inner, parent = [], []
        for _ in range(repeats):
            self.reset()
            start = _NOW()
            loop(noop)
            plain = _NOW() - start
            traced_loop(traced_noop)
            own = self_times(self.starts, self.ends, self.parents)
            parent.append((own[0] - plain) / calls)
            inner.append(sum(own[1:]) / calls)
        self.reset()
        self.inner_cost_ns = max(0.0, min(inner))
        self.parent_cost_ns = max(0.0, min(parent))

    # -- folding ------------------------------------------------------------------

    def reset(self) -> None:
        """Forget every span and counter (a forked child starts clean)."""
        del self.names[:]
        for column in (self.starts, self.ends, self.parents, self.batches):
            del column[:]
        self._stack.clear()
        self.counters.clear()
        self.batch = -1

    def take(self, keep_top: bool = False, durations=()) -> "Summary":
        """Fold the recorded spans into a :class:`Summary` and clear them."""
        summary = Summary()
        own = self_times(
            self.starts, self.ends, self.parents,
            (self.inner_cost_ns, self.parent_cost_ns),
        )
        inclusive = inclusive_times(self.parents, own)
        wanted = set(durations)
        names = summary.names
        for index, name in enumerate(self.names):
            entry = names.get(name)
            if entry is None:
                entry = names[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += inclusive[index]
            entry[2] += own[index]
            if name in wanted:
                summary.durations[name].append(inclusive[index])
            if self.parents[index] < 0:
                summary.top_ns += self.ends[index] - self.starts[index]
                if keep_top:
                    summary.top.append([
                        name, self.starts[index], self.ends[index],
                        self.batches[index],
                    ])
        for key, value in self.counters.items():
            summary.counters[key] += value
        self.reset()
        return summary


def self_times(starts, ends, parents, costs=(0.0, 0.0)) -> list[float]:
    """Self time of every span: duration minus its direct children's,
    minus the wrapper costs ``(inner, per child)`` (never below 0)."""
    inner, per_child = costs
    child = [0.0] * len(starts)
    for index, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[index] - starts[index] + per_child
    return [
        max(0.0, ends[index] - starts[index] - child[index] - inner)
        for index in range(len(starts))
    ]


def inclusive_times(parents, own: list[float]) -> list[float]:
    """Each span's self time plus all its descendants' (children follow
    their parent, so one backward pass suffices)."""
    total = list(own)
    for index in range(len(parents) - 1, -1, -1):
        parent = parents[index]
        if parent >= 0:
            total[parent] += total[index]
    return total


class Summary:
    """Per-name span totals of one or more traced rounds or processes.

    ``names`` maps a span name to ``[calls, inclusive_ns, self_ns]``
    (wrapper costs subtracted); ``durations`` keeps every inclusive
    duration of the names asked for, for medians; ``top_ns`` is the raw
    (traced) time inside top-level spans, and ``top`` keeps ``[name,
    start, end, batch]`` of each top-level span when asked, for
    attribution across processes.
    """

    def __init__(self) -> None:
        self.top_ns = 0
        self.names: dict[str, list] = {}
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.top: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)

    def merge(self, other: "Summary") -> "Summary":
        """Add ``other`` into this summary (returns self)."""
        for name, (calls, incl, own) in other.names.items():
            entry = self.names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += own
        for name, values in other.durations.items():
            self.durations[name].extend(values)
        self.top_ns += other.top_ns
        self.top.extend(other.top)
        for key, value in other.counters.items():
            self.counters[key] += value
        return self

    def calls(self, name: str) -> int:
        return self.names.get(name, (0, 0, 0))[0]

    def inclusive_ns(self, name: str) -> float:
        return self.names.get(name, (0, 0, 0))[1]

    def self_ns(self, name: str) -> float:
        return self.names.get(name, (0, 0, 0))[2]

    def to_json(self) -> dict:
        return {
            "top_ns": self.top_ns,
            "names": self.names,
            "durations": dict(self.durations),
            "top": self.top,
            "counters": dict(self.counters),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Summary":
        other = cls()
        other.top_ns = data["top_ns"]
        other.names = {name: list(entry) for name, entry in data["names"].items()}
        other.durations.update(data["durations"])
        other.top = data["top"]
        other.counters.update(data["counters"])
        return other
