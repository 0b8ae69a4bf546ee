"""In-memory span tracer installed around calls into ``repro`` from outside.

The tracer wraps public functions and methods of the analyser with thin
timing shims.  Nothing in ``src/`` knows about it: :func:`install` patches
every place a wrapped object is bound by name (a function imported into
five modules is patched in all five) and :meth:`Patches.restore` puts the
originals back.

Each wrapped call becomes one span: name, layer, start, end and the span
that was open when it started (its parent).  Spans are kept in flat typed
arrays (28 bytes each) and written out once, at the end of the run.
Self time is accumulated online: a span's self time is its duration minus
the time its child spans cover.  Span times are wall clock
(``time.perf_counter``); a CPU-time read costs a system call, five times
as much, and the tracer reads the clock twice per call.

Generator-returning functions (``homomorphisms``) are timed over their
consumption: every ``next()`` re-enters the span, and the span's busy
time is the sum of those segments plus the creation call — never the
wall time between creation and exhaustion, which belongs to the consumer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

NO_PARENT = -1


class Tracer:
    """Span store plus per-name and per-layer time accounting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_busy = array("d")
        self.span_is_gen = bytearray()
        # Open spans, innermost last, with the child time seen so far.
        self._stack: list[int] = []
        self._child: list[float] = []
        # Aggregates, indexed by name id / keyed by layer.
        self.calls: list[int] = []
        self.busy: list[float] = []
        self.self_time: list[float] = []
        self.layer_total: dict[str, float] = {}
        self.layer_self: dict[str, float] = {}
        self._layer_depth: dict[str, int] = {}
        #: Free-form counters filled by the observers of wrapped calls.
        self.counters: dict[str, float] = {}

    # -- names ---------------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.name_layer.append(layer)
            self.calls.append(0)
            self.busy.append(0.0)
            self.self_time.append(0.0)
            self.layer_total.setdefault(layer, 0.0)
            self.layer_self.setdefault(layer, 0.0)
            self._layer_depth.setdefault(layer, 0)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- span bookkeeping ------------------------------------------------------

    def open(self, nid: int, gen: bool = False) -> int:
        sid = len(self.span_start)
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else NO_PARENT)
        self.span_start.append(self.clock())
        self.span_end.append(0.0)
        self.span_busy.append(0.0)
        self.span_is_gen.append(gen)
        self.calls[nid] += 1
        return sid

    def enter(self, sid: int) -> float:
        """Make ``sid`` the innermost open span; returns the segment start."""
        self._stack.append(sid)
        self._child.append(0.0)
        self._layer_depth[self.name_layer[self.span_name[sid]]] += 1
        return self.clock()

    def leave(self, sid: int, began: float) -> None:
        """Close the segment of ``sid`` that started at ``began``."""
        now = self.clock()
        self._stack.pop()
        child = self._child.pop()
        seg = now - began
        nid = self.span_name[sid]
        layer = self.name_layer[nid]
        self.span_end[sid] = now
        self.span_busy[sid] += seg
        self.busy[nid] += seg
        self.self_time[nid] += seg - child
        self.layer_self[layer] += seg - child
        depth = self._layer_depth[layer] - 1
        self._layer_depth[layer] = depth
        if depth == 0:
            self.layer_total[layer] += seg
        if self._child:
            self._child[-1] += seg

    # -- wrappers ------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[[tuple], str],
        layer: str,
        observe: Callable[["Tracer", tuple, Any], None] | None = None,
        generator: bool = False,
    ) -> Callable:
        """A timing shim around ``fn``; ``name`` may be derived from the
        call's positional arguments (e.g. the criterion a ``check`` runs)."""
        tracer = self
        fixed = None if callable(name) else self.name_id(name, layer)

        def nid_of(args: tuple) -> int:
            if fixed is not None:
                return fixed
            return tracer.name_id(name(args), layer)  # type: ignore[operator]

        if generator:

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                sid = tracer.open(nid_of(args), gen=True)
                began = tracer.enter(sid)
                try:
                    it = iter(fn(*args, **kwargs))
                finally:
                    tracer.leave(sid, began)
                return tracer._consume(it, sid)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(nid_of(args))
            began = tracer.enter(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(sid, began)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def _consume(self, it: Iterator, sid: int) -> Iterator:
        try:
            while True:
                began = self.enter(sid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.leave(sid, began)
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    # -- reports -------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def by_name(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "layer": self.name_layer[i],
                "calls": self.calls[i],
                "ms": self.busy[i] * 1e3,
                "self_ms": self.self_time[i] * 1e3,
            }
            for i, name in enumerate(self.names)
        }

    def by_layer(self) -> dict[str, dict[str, float]]:
        return {
            layer: {
                "total_ms": self.layer_total[layer] * 1e3,
                "self_ms": self.layer_self[layer] * 1e3,
            }
            for layer in self.layer_total
        }

    def write_json(self, path: str, meta: dict) -> None:
        """Every span, column-wise, plus the per-name and per-layer tables."""
        t0 = self.span_start[0] if self.span_start else 0.0
        doc = {
            "meta": meta,
            "names": self.names,
            "layers": self.name_layer,
            "by_name": self.by_name(),
            "by_layer": self.by_layer(),
            "counters": self.counters,
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start_us": [round((t - t0) * 1e6, 1) for t in self.span_start],
                "end_us": [round((t - t0) * 1e6, 1) for t in self.span_end],
                "busy_us": [round(t * 1e6, 1) for t in self.span_busy],
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def write_chrome_trace(self, path: str, meta: dict, limit: int) -> None:
        """The first ``limit`` spans in Chrome's trace-event format (JSON
        object form); ``otherData.spans_omitted`` says how many were left
        out, so the file stays loadable however long the run was.

        Calls become complete ("X") events on one thread track and nest
        by time.  A generator's segments interleave with its consumer's
        work, so generator spans go on their own async track ("b"/"e"
        pairs) with their busy time as an argument.  ui.perfetto.dev and
        chrome://tracing load the file as is.
        """
        t0 = self.span_start[0] if self.span_start else 0.0
        names, layers = self.names, self.name_layer
        shown = min(limit, self.span_count)
        with open(path, "w") as fh:
            fh.write('{"displayTimeUnit":"ms","otherData":')
            fh.write(json.dumps({**meta, "spans_omitted": self.span_count - shown}))
            fh.write(',"traceEvents":[\n')
            fh.write(
                '{"ph":"M","pid":1,"tid":1,"name":"thread_name",'
                '"args":{"name":"calls"}}'
            )
            for sid in range(shown):
                nid = self.span_name[sid]
                ts = (self.span_start[sid] - t0) * 1e6
                end = (self.span_end[sid] - t0) * 1e6
                head = f'"name":"{names[nid]}","cat":"{layers[nid]}","pid":1'
                if self.span_is_gen[sid]:
                    busy = self.span_busy[sid] * 1e6
                    fh.write(
                        f',\n{{{head},"tid":2,"ph":"b","id":{sid},"ts":{ts:.3f},'
                        f'"args":{{"busy_us":{busy:.3f}}}}}'
                        f',\n{{{head},"tid":2,"ph":"e","id":{sid},"ts":{end:.3f}}}'
                    )
                else:
                    fh.write(
                        f',\n{{{head},"tid":1,"ph":"X","ts":{ts:.3f},'
                        f'"dur":{end - ts:.3f}}}'
                    )
            fh.write("\n]}\n")


# -- patching ------------------------------------------------------------------


@dataclass
class Patches:
    """Every (owner, attribute, original) a traced run replaced."""

    entries: list[tuple[Any, str, Any]] = field(default_factory=list)

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self.entries.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.entries:
            owner, attr, original = self.entries.pop()
            setattr(owner, attr, original)


def loaded_modules(prefix: str) -> list[Any]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == prefix or name.startswith(prefix + "."))
    ]


def bindings_of(obj: Any, modules: list[Any]) -> list[tuple[Any, str]]:
    """Every (module, attribute) under which ``obj`` is bound by name."""
    return [
        (mod, attr)
        for mod in modules
        for attr, value in list(vars(mod).items())
        if value is obj
    ]
