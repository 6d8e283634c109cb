"""Per-layer timing for the benchmark's traced runs.

The program is timed from outside: :class:`LayerTracer` replaces public
functions and methods of each layer with wrappers that open a named
phase on a :class:`LayerProfiler` for the duration of the call, and
puts the originals back on :meth:`LayerTracer.restore`.  The profiler
is the same one ``SimulatedSystem(profiler=...)`` feeds its kernel
phases (``event_dispatch``, ``pe_execute``, ``transport``,
``controller_tick``) into, so every wrapped call nests inside those
phases and each phase's self time stays exclusive.

Spans of the coarse phases (solves, re-optimizations, migrations, tier
ticks, checks) are kept in memory and written out as JSON lines when
the run ends; the per-PE and per-tick phases are only totalled.
"""

from __future__ import annotations

import json
import os
import threading
import time
import typing as _t

from repro.obs.profiler import PhaseProfiler

#: The vector engine's decision pass reports itself as ``controller_tick``
#: inside ``ControlPlane.tick_nodes``; it is charged to the vector tick.
VECTOR_TICK = "control.vector.tick"

#: Phases opened once per PE step or per node tick: totalled, no spans.
HOT_PHASES = frozenset(
    {
        "event_dispatch",
        "pe_execute",
        "transport",
        "controller_tick",
        "control.tier2.feedback_aggregate",
        "control.tier2.cpu_allocate",
        "control.tier2.flow_update",
        "control.tier2.feedback_publish",
        "control.tier2.grant_apply",
        VECTOR_TICK,
        "check.oracle",
        "obs.spans",
    }
)


class LayerProfiler(PhaseProfiler):
    """A :class:`PhaseProfiler` that also keeps inclusive time and spans."""

    def __init__(self) -> None:
        super().__init__()
        #: Phase -> wall seconds from entry to exit, children included.
        self.inclusive: _t.Dict[str, float] = {}
        #: (name, start, end, parent span index or -1), coarse phases only.
        self.spans: _t.List[_t.Tuple[str, float, float, int]] = []
        self._opened: _t.List[_t.Tuple[str, float, int]] = []

    def push(self, name: str) -> None:
        if name == "controller_tick" and self._stack:
            if self._stack[-1][0] == VECTOR_TICK:
                name = VECTOR_TICK
        super().push(name)
        span = -1
        if name not in HOT_PHASES:
            span = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._parent()))
        self._opened.append((name, self._stack[-1][1], span))

    def pop(self) -> None:
        name, start, span = self._opened.pop()
        super().pop()
        end = _t.cast(float, self._stack[-1][1]) if self._stack else self._clock()
        self.inclusive[name] = self.inclusive.get(name, 0.0) + end - start
        if span >= 0:
            self.spans[span] = (name, start, end, self.spans[span][3])

    def _parent(self) -> int:
        for _name, _start, span in reversed(self._opened):
            if span >= 0:
                return span
        return -1

    def write_spans(self, path: str) -> None:
        """Write the coarse spans as JSON lines (relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_s": round(start - origin, 9),
                            "end_s": round(end - origin, 9),
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


class LayerTracer:
    """Installs and removes the timing wrappers for one traced run."""

    def __init__(self, profiler: LayerProfiler):
        self.profiler = profiler
        #: Named call counters kept by the wrappers' ``count`` hooks.
        self.counts: _t.Dict[str, int] = {}
        self._undo: _t.List[_t.Tuple[object, str, object, bool]] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(
        self,
        owner: object,
        attr: str,
        phase: str,
        after: _t.Optional[_t.Callable[..., None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as ``phase``.

        ``after(args, result)`` runs once the call returned, outside the
        timed region.
        """
        original = getattr(owner, attr)
        own = attr in getattr(owner, "__dict__", {})
        profiler = self.profiler

        def timed(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            profiler.push(phase)
            try:
                result = original(*args, **kwargs)
            finally:
                profiler.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, original, own))

    def hook(
        self, owner: object, attr: str, before: _t.Callable[..., None]
    ) -> None:
        """Call ``before(args)`` ahead of every call, without timing it."""
        original = getattr(owner, attr)
        own = attr in getattr(owner, "__dict__", {})

        def hooked(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            before(args)
            return original(*args, **kwargs)

        setattr(owner, attr, hooked)
        self._undo.append((owner, attr, original, own))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class TickLog:
    """Wall-clock stamps of every ``NodeController.tick``, per node.

    Appends from the runtime's control threads; ``list.append`` is
    atomic, and each node's list has a single writer.
    """

    def __init__(self) -> None:
        self.stamps: _t.Dict[str, _t.List[float]] = {}
        self._lock = threading.Lock()

    def record(self, args: _t.Tuple[_t.Any, ...]) -> None:
        node_id = args[0].node_id
        stamps = self.stamps.get(node_id)
        if stamps is None:
            with self._lock:
                stamps = self.stamps.setdefault(node_id, [])
        stamps.append(time.monotonic())


def thread_cpu_seconds() -> _t.Dict[str, float]:
    """CPU seconds of each live thread of this process, keyed by name.

    Reads ``utime + stime`` from ``/proc/self/task/<tid>/stat``.
    """
    ticks = os.sysconf("SC_CLK_TCK")
    names = {
        thread.native_id: thread.name for thread in threading.enumerate()
    }
    result: _t.Dict[str, float] = {}
    for tid, name in names.items():
        try:
            with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the thread exited between enumerate and open
        # fields[0] is field 3 (state); utime and stime are fields 14, 15.
        result[name] = (int(fields[11]) + int(fields[12])) / ticks
    return result
