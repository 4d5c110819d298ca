"""Span recording for the traced benchmark run.

The traced run wraps the system's public seams with timing proxies that
live in this file, so the program under test is unchanged.  Each proxied
call records one span: which seam, which method, start, end, and the
span that was open on the driving thread when it started (its parent).
Spans of one NFS request share the request's id, which is the index of
its root span.  Spans stay in memory and are written out once, when the
run ends.

A layer's self time is the duration of its spans minus the part their
child spans cover.  Self times of the spans under one request partition
that request's time, so the per-layer figures add up to the traced
per-call latency.

The store served over TCP in ``bonnie-durable`` runs on the server's
connection thread.  Its spans have no parent on the driving thread; they
are kept apart and reported as ``storage.served``.
"""

from __future__ import annotations

import threading
from array import array
from time import perf_counter_ns

#: Which layer each seam's self time belongs to.  The root span is the
#: benchmark's own call into ``DisCFSClient``; what the client does
#: outside ``Transport.call`` is the client-side codec.
SEAM_LAYERS = {
    "client": "rpc.client",
    "transport": "rpc.server",
    "nfs": "nfs.server",
    "controller": "core.controller",
    "cache": "core.cache",
    "engine": "keynote.eval",
    "session": "keynote.session",
    "issuer": "core.credentials",
    "audit": "core.audit",
    "vfs": "fs",
    "device": "storage",
    "served": "storage.served",
}

#: Layers that partition the driving thread's time, in call order.
THREAD_LAYERS = tuple(dict.fromkeys(
    layer for seam, layer in SEAM_LAYERS.items() if seam != "served"
))

_NO_PARENT = -1


class Tracer:
    """In-memory span store for one traced run.

    Spans are kept in parallel arrays (a few dozen bytes each) so a run of
    several hundred thousand spans stays small.  Only the driving thread
    may open nested spans; other threads record detached spans.
    """

    def __init__(self) -> None:
        self.active = False
        self._thread = threading.get_ident()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return ident

    def __len__(self) -> int:
        return len(self.start)

    def begin(self, name: str) -> int:
        """Open a span on the driving thread; returns its index."""
        index = len(self.start)
        stack = self._stack
        parent = stack[-1] if stack else _NO_PARENT
        self.name.append(self._intern(name))
        self.parent.append(parent)
        self.request.append(self.request[parent] if stack else index)
        self.end.append(0)
        stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    def detached(self, name: str, start: int, end: int) -> None:
        """Record a span from another thread, tagged with the request
        the driving thread has open.  The driving thread is blocked on
        that request's reply meanwhile, so the two never append at once.
        """
        stack = self._stack
        self.name.append(self._intern(name))
        self.parent.append(_NO_PARENT)
        self.request.append(stack[0] if stack else _NO_PARENT)
        self.start.append(start)
        self.end.append(end)

    def on_driving_thread(self) -> bool:
        return threading.get_ident() == self._thread

    def write_tsv(self, path: str) -> None:
        """Write every span as ``id parent request seam.method start end``."""
        with open(path, "w", encoding="ascii") as out:
            out.write("id\tparent\trequest\tspan\tstart_ns\tend_ns\n")
            names = self._names
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.request[i]}\t"
                    f"{names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\n"
                )

    def layer_self_ns(self) -> tuple[dict[str, int], int, int]:
        """Sum self time per layer over the driving thread's spans.

        Returns ``(self_ns by layer, root span count, root span ns)``;
        detached spans are summed under their own seam's layer without
        being subtracted from anything.
        """
        durations = [e - s for s, e in zip(self.start, self.end)]
        self_ns = list(durations)
        for i, parent in enumerate(self.parent):
            if parent != _NO_PARENT:
                self_ns[parent] -= durations[i]
        seam_layer = [SEAM_LAYERS[n.split(".", 1)[0]] for n in self._names]
        totals: dict[str, int] = dict.fromkeys(SEAM_LAYERS.values(), 0)
        roots = root_ns = 0
        for i, parent in enumerate(self.parent):
            layer = seam_layer[self.name[i]]
            if parent == _NO_PARENT and layer == "storage.served":
                totals[layer] += durations[i]
                continue
            totals[layer] += self_ns[i]
            if parent == _NO_PARENT:
                roots += 1
                root_ns += durations[i]
        return totals, roots, root_ns


class SeamProxy:
    """Duck-typed stand-in that times every method call on ``target``.

    Attribute reads that are not callables pass through; attribute writes
    land on the target.  Nothing here depends on the target's class, so a
    seam that changes shape keeps being measured as long as it keeps its
    place in the call path.  ``observe(method, args, result)`` lets the
    caller count what a call did (blocks moved, cache hits).
    """

    def __init__(self, target, seam: str, tracer: Tracer, observe=None) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_seam", seam)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_observe", observe)

    def __getattr__(self, name: str):
        attr = getattr(self._target, name)
        if not callable(attr) or name.startswith("__"):
            return attr
        wrapped = timed_call(attr, f"{self._seam}.{name}", self._tracer,
                             self._observe, name)
        object.__setattr__(self, name, wrapped)
        return wrapped

    def __setattr__(self, name: str, value) -> None:
        setattr(self._target, name, value)


def timed_call(fn, span: str, tracer: Tracer, observe=None, method: str = ""):
    """Wrap ``fn`` so that each call records ``span`` while the tracer is
    active.  Calls from other threads record detached spans."""

    def call(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if not tracer.on_driving_thread():
            start = perf_counter_ns()
            result = fn(*args, **kwargs)
            tracer.detached(span, start, perf_counter_ns())
            if observe is not None:
                observe(method, args, result)
            return result
        index = tracer.begin(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(index)
        if observe is not None:
            observe(method, args, result)
        return result

    return call
