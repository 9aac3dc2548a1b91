"""Layer spans recorded from outside the engine.

The tracer replaces public methods of the engine's layers with wrappers
that record one span per call: name, start, end, parent span and tick.
Nothing under ``src/`` knows about it; the wrappers are installed on the
classes by :func:`installed` in the traced process only, before the
executor is built, and removed again on exit.

Spans live in flat typed arrays (about 28 bytes a span) so a traced pass
of a million probes stays small, and are written out once, when the run
ends (:meth:`Tracer.write`).
"""

from __future__ import annotations

import contextlib
import inspect
import time
import types
from array import array
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np


class Tracer:
    """In-memory span store plus the wrapper factory that feeds it."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span and counter (names stay registered)."""
        self.name_id = array("i")
        self.parent = array("i")
        self.tick = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._tick = [0]

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: float) -> None:
        """Add to a named counter recorded at a layer boundary."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        after: Callable[[Tracer, object], None] | None = None,
        tick_arg: int | None = None,
    ) -> Callable:
        """A wrapper around ``fn`` that records one ``name`` span per call.

        ``after`` sees each call's result (to count work at the boundary);
        ``tick_arg`` names the positional argument that carries the tick,
        which every span opened inside the call then shares.
        """
        nid = self._intern(name)
        clock = self.clock

        def traced(*args, **kwargs):
            stack = self._stack
            i = len(self.start)
            if tick_arg is not None:
                self._tick[0] = args[tick_arg]
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.tick.append(self._tick[0])
            self.end.append(0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return traced

    def self_times(self) -> dict[str, tuple[int, int]]:
        """``name -> (calls, self ns)`` over the recorded spans."""
        calls, self_ns = self_times(
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            len(self.names),
        )
        return {
            name: (int(calls[i]), int(self_ns[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def write(self, path: Path) -> None:
        """Write the recorded spans to ``path`` as an uncompressed ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            tick=np.frombuffer(self.tick, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def self_times(
    name_id: np.ndarray,
    parent: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    n_names: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-name call counts and self times.

    A span's self time is its duration minus the time its direct children
    cover.  Spans come from one thread, so a span's children never
    overlap one another and the part they cover is the sum of their
    durations.  ``parent`` is ``-1`` for a root span.
    """
    duration = (end - start).astype(np.float64)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(start))
    own = duration - covered
    calls = np.bincount(name_id, minlength=n_names)
    self_ns = np.bincount(name_id, weights=own, minlength=n_names)
    return calls, self_ns


def _defining_classes(base: type, method: str) -> Iterator[type]:
    """``base`` and every subclass whose own body defines ``method``."""
    seen: set[type] = set()
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        fn = cls.__dict__.get(method)
        if isinstance(fn, types.FunctionType) and not getattr(fn, "__isabstractmethod__", False):
            yield cls


@contextlib.contextmanager
def installed(
    tracer: Tracer,
    targets: list[tuple[type, str, str, Callable | None]],
    *,
    root: tuple[type, str, str, int],
) -> Iterator[Tracer]:
    """Wrap each ``(base class, method, span name, after)`` target.

    Every class in ``base``'s hierarchy that defines the method gets its
    own wrapper.  ``root`` is ``(class, method, span name, tick argument)``
    for the per-tick call whose spans all others nest under.  The original
    methods are restored on exit.
    """
    patched: list[tuple[type, str, object]] = []
    try:
        cls, method, name, tick_arg = root
        patched.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, tracer.wrap(name, cls.__dict__[method], tick_arg=tick_arg))
        for base, method, name, after in targets:
            for cls in list(_defining_classes(base, method)):
                fn = inspect.getattr_static(cls, method)
                patched.append((cls, method, fn))
                setattr(cls, method, tracer.wrap(name, fn, after=after))
        yield tracer
    finally:
        for cls, method, fn in reversed(patched):
            setattr(cls, method, fn)
