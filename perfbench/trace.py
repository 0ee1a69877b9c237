"""Span tracer for the traced benchmark run.

The traced run wraps public functions of each layer of ``repro`` from
here, at class or module level, before the traced phase starts; the
program itself is untouched.  Every wrapped call is a span: name,
start, end, the span that caused it and the point or job it belongs
to.  The current span lives in a :class:`contextvars.ContextVar`, so
the two client coroutines of the serve workload and the service's
worker threads each keep their own nesting.

A layer's self time is its span's duration minus the part its direct
child spans cover.  Hot spans (``min_hop``, ``decide``, taps, ...) fire
hundreds of thousands of times a run: they are folded into per-thread
counters (calls, total, self) instead of being stored one by one;
coarse spans (points, jobs, runs, cache reads) are also kept in memory
and written out when the run ends.  A method that calls its own name through
``super()`` is one span, not two.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)

# frame layout (a list, for speed): [name, t0, child_s, span_id, ctx]
_NAME, _T0, _CHILD, _SID, _CTX = range(5)


class Tracer:
    """Collects spans and per-name counters for one traced phase."""

    def __init__(self) -> None:
        #: kept spans: (name, start, end, span_id, parent_id, ctx, thread)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._per_thread: list[dict] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ counters
    def _stats(self) -> dict:
        try:
            return self._local.stats
        except AttributeError:
            stats = self._local.stats = {}
            with self._lock:
                self._per_thread.append(stats)
            return stats

    def totals(self) -> dict[str, list]:
        """``name -> [calls, total_s, self_s]`` merged over threads."""
        out: dict[str, list] = {}
        with self._lock:
            per_thread = list(self._per_thread)
        for stats in per_thread:
            for name, (calls, total, self_s) in stats.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
        return out

    def covered_s(self) -> float:
        """Wall seconds covered by at least one root span (any thread)."""
        roots = sorted((t0, t1) for _, t0, t1, _, parent, _, _ in self.spans
                       if parent is None)
        covered, end = 0.0, float("-inf")
        for t0, t1 in roots:
            if t1 > end:
                covered += t1 - max(t0, end)
                end = t1
        return covered

    # --------------------------------------------------------------- spans
    def _enter(self, name: str, ctx):
        parent = _current.get()
        if ctx is None and parent is not None:
            ctx = parent[_CTX]
        frame = [name, 0.0, 0.0, next(self._ids), ctx]
        token = _current.set(frame)
        frame[_T0] = time.perf_counter()
        return frame, parent, token

    def _exit(self, frame, parent, token, keep: bool) -> None:
        t1 = time.perf_counter()
        _current.reset(token)
        name, t0 = frame[_NAME], frame[_T0]
        dur = t1 - t0
        stats = self._stats()
        acc = stats.get(name)
        if acc is None:
            acc = stats[name] = [0, 0.0, 0.0]
        acc[0] += 1
        acc[1] += dur
        acc[2] += dur - frame[_CHILD]
        if parent is not None:
            parent[_CHILD] += dur
        if keep:
            self.spans.append((name, t0, t1, frame[_SID],
                               None if parent is None else parent[_SID],
                               frame[_CTX], threading.get_ident()))

    def call(self, name: str, fn, args=(), kwargs=None, *, keep: bool = True,
             ctx=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        parent = _current.get()
        if parent is not None and parent[_NAME] == name:
            return fn(*args, **(kwargs or {}))  # super() chain: one span
        frame, parent, token = self._enter(name, ctx)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self._exit(frame, parent, token, keep)

    async def acall(self, name: str, awaitable, *, ctx=None):
        """Await ``awaitable`` inside a kept span named ``name``.

        For the client side of the service: the span covers the whole
        request, including the time the client waits on the workers.
        """
        frame, parent, token = self._enter(name, ctx)
        try:
            return await awaitable
        finally:
            self._exit(frame, parent, token, True)

    def wrap(self, name: str, fn, *, keep: bool = False, ctx_of=None):
        """``fn`` wrapped so every call is a span named ``name``.

        ``ctx_of(args)`` names the point or job a root span belongs to
        (for spans that start a thread's work, e.g. a service worker).
        """
        call = self.call

        def traced(*args, **kwargs):
            ctx = None if ctx_of is None else ctx_of(args)
            return call(name, fn, args, kwargs, keep=keep, ctx=ctx)

        traced.__wrapped__ = fn
        return traced

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(old)`` until :meth:`unpatch`."""
        old = vars(owner)[attr]
        self._patches.append((owner, attr, old))
        setattr(owner, attr, make(old))

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a span.

        Only attributes defined on ``owner`` itself are patched, so a
        subclass that inherits a method is traced through its base.
        """
        self.replace(owner, attr, lambda fn: self.wrap(name, fn, **kw))

    def unpatch(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -------------------------------------------------------------- output
    def dump(self, path) -> None:
        """Write the kept spans as JSON lines, one span per line."""
        with open(path, "w") as f:
            for name, t0, t1, sid, parent, ctx, thread in self.spans:
                f.write(json.dumps({
                    "name": name, "start": t0, "end": t1, "span": sid,
                    "parent": parent, "ctx": ctx, "thread": thread,
                }, separators=(",", ":")) + "\n")


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every layer of ``repro``.

    Must run before the traced phase builds its first simulator, so
    that classes derived at run time see the wrapped methods.
    """
    import repro.facade as facade
    import repro.runplan.runner as runplan_runner
    import repro.serve.runner as serve_runner
    from repro.core.base import RoutingAlgorithm
    from repro.metrics.hub import LatencyTap, MetricsHub
    from repro.network.simulator import Simulator
    from repro.registry import ROUTING_REGISTRY, TOPOLOGY_REGISTRY
    from repro.runplan.cache import ResultCache
    from repro.traffic import processes

    patch = tracer.patch
    for cls in _classes(TOPOLOGY_REGISTRY.get(n) for n in TOPOLOGY_REGISTRY):
        if "min_hop" in vars(cls):
            patch(cls, "min_hop", "topology.min_hop")
        if "__init__" in vars(cls):
            patch(cls, "__init__", "topology.build", keep=True)
    routing = _classes([RoutingAlgorithm] + [ROUTING_REGISTRY.get(n)
                                             for n in ROUTING_REGISTRY])
    for cls in routing:
        if "decide" in vars(cls):
            patch(cls, "decide", "core.decide")
        if "on_hop" in vars(cls):
            patch(cls, "on_hop", "core.on_hop")
    for attr in ("run", "run_until_drained"):
        patch(Simulator, attr, f"network.{attr}", keep=True)
    for cls in (processes.BernoulliTraffic, processes.BurstTraffic):
        for attr in ("inject", "inject_batch"):
            if attr in vars(cls):
                patch(cls, attr, "traffic.inject")
    for attr in ("on_inject", "on_grant", "on_eject", "on_credit",
                 "on_ring_entry"):
        patch(MetricsHub, attr, "metrics.tap")
    patch(MetricsHub, "verify", "metrics.verify", keep=True)
    for attr in ("on_eject", "on_eject_batch"):
        patch(LatencyTap, attr, "metrics.latency_tap")
    patch(facade.Session, "__init__", "facade.session_build", keep=True)
    patch(runplan_runner, "execute_point", "runplan.execute_point", keep=True)
    patch(ResultCache, "get", "runplan.cache.get", keep=True)
    patch(ResultCache, "put", "runplan.cache.put", keep=True)
    patch(serve_runner, "run_submission", "serve.run_submission", keep=True,
          ctx_of=lambda args: args[0].key()[:16])


def _classes(roots) -> list:
    """Every class in the MRO of ``roots`` that belongs to ``repro``."""
    seen: list = []
    for root in roots:
        for cls in root.__mro__:
            if cls.__module__.startswith("repro.") and cls not in seen:
                seen.append(cls)
    return seen


#: "wait" is not a layer: the client's stream requests, which mostly
#: wait for the service's workers to finish the job
LAYERS = ("topology", "core", "network", "traffic", "metrics", "runplan",
          "serve", "facade", "bench", "wait")


def layer_of(span: str) -> str:
    """A span's layer: its name's prefix; the benchmark's own otherwise."""
    if span == "serve.stream":
        return "wait"
    layer = span.split(".", 1)[0]
    return layer if layer in LAYERS else "bench"


def layer_self_times(totals: dict) -> dict[str, float]:
    """Self seconds per layer; unmapped span names are the benchmark's."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, self_s) in totals.items():
        out[layer_of(name)] += self_s
    return out
