"""In-memory span tracer that wraps the program's public layer functions.

The program carries no tracing of its own, so the traced run patches each
layer's public functions from the outside.  Callers import functions by
name (``from repro.core.online import solve_batch``), so a function is
patched in *every* ``repro`` module namespace that binds it, not only in
the module that defines it; methods are patched on their class.

A span records ``(trace_id, span_id, parent_id, name, start, end)``.
Spans nest through a stack, so a span's parent is the span that was
open when it started.  A span opened with no parent starts a new trace:
here one Metis solve, one broker cycle, one gateway window or one
decomposed solve (an instance build or a journal write outside those
forms a trace of its own).  Spans are kept in memory and written out
once, when the process ends.

Self time is a span's duration minus the time covered by its direct
children (children of one parent never overlap: the traced code is
single-threaded).
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import defaultdict

from benchlib import percentile

#: (span name, target, attribute, kind).  ``target`` is a dotted module or
#: ``module:Class``; ``kind`` is "function" (patched in every repro module
#: that binds it), "method" or "classmethod" (patched on the class).
TRACE_POINTS = (
    ("net.candidate_paths", "repro.net.topology:Topology", "candidate_paths", "method"),
    ("core.instance.build", "repro.core.instance:SPMInstance", "build", "classmethod"),
    ("core.metis.solve", "repro.core.metis:Metis", "solve", "method"),
    ("core.metis.prune_unprofitable", "repro.core.metis", "prune_unprofitable", "function"),
    ("core.maa.solve_maa", "repro.core.maa", "solve_maa", "function"),
    ("core.maa.improve_paths", "repro.core.maa", "improve_paths", "function"),
    ("core.taa.solve_taa", "repro.core.taa", "solve_taa", "function"),
    ("core.online.solve_batch", "repro.core.online", "solve_batch", "function"),
    ("core.online.commit_decision", "repro.core.online", "commit_decision", "function"),
    # Every HiGHS dispatch: solve_compiled_raw and ResolveSession cold
    # solves both end in one of these two, split by integrality.
    ("lp.lp", "repro.lp.solvers", "_solve_linprog", "function"),
    ("lp.milp", "repro.lp.solvers", "_solve_milp", "function"),
    ("lp.session", "repro.lp.warmstart:ResolveSession", "solve", "method"),
    ("service.cache.make_key", "repro.service.cache:DecisionCache", "make_key", "classmethod"),
    ("service.cache.get", "repro.service.cache:DecisionCache", "get", "method"),
    ("service.broker.run_cycle", "repro.service.broker", "run_cycle", "function"),
    ("state.append", "repro.state.journal:Journal", "append", "method"),
    ("state.commit", "repro.state.journal:Journal", "commit", "method"),
    ("gateway.decide", "repro.gateway.engine:LiveCycleEngine", "decide", "method"),
    ("decomp.solve_decomposed", "repro.decomp.solver", "solve_decomposed", "function"),
    ("decomp.partition_requests", "repro.decomp.partition", "partition_requests", "function"),
    ("decomp.update_prices", "repro.decomp.ledger:BandwidthLedger", "update_prices", "method"),
)

SPAN_NAMES = tuple(point[0] for point in TRACE_POINTS)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return module, (getattr(module, class_name) if class_name else None)


class Tracer:
    """Records spans and per-span notes; installs and removes its wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: Numeric side notes taken at span boundaries (hits, bytes, sizes).
        self.notes: dict[str, list[float]] = defaultdict(list)
        #: Cold-solve count of each resolve session at its last solve.
        self.session_cold: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: (trace_id, span_id) of every open span; the traced code runs
        #: on one thread (the gateway included: it is one asyncio loop).
        self._stack: list[tuple[int, int]] = []
        self._next_span = 0
        self._next_trace = 0
        self._undo: list[tuple] = []

    # ------------------------------------------------------------- recording

    def wrap(self, name: str, fn, observe=None):
        """``fn`` wrapped in a span; ``observe(args, kwargs, result, tracer)``
        may record notes after each call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack:
                trace_id, parent_id = stack[-1]
            else:
                trace_id, parent_id = tracer._next_trace, None
                tracer._next_trace += 1
            span_id = tracer._next_span
            tracer._next_span += 1
            stack.append((trace_id, span_id))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((trace_id, span_id, parent_id, name, start, end))
            if observe is not None:
                observe(args, kwargs, result, tracer)
            return result

        return traced

    # ---------------------------------------------------------- installation

    def install(self) -> None:
        """Patch every trace point (idempotent per tracer)."""
        if self._undo:
            return
        for name, target, attr, kind in TRACE_POINTS:
            module, cls = _resolve(target)
            observe = _OBSERVERS.get(name)
            if kind == "function":
                original = getattr(module, attr)
                wrapped = self.wrap(name, original, observe)
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("repro") or mod is None:
                        continue
                    if getattr(mod, attr, None) is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
            else:
                raw = cls.__dict__[attr]
                self._undo.append((cls, attr, raw))
                if kind == "classmethod":
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, observe)))
                else:
                    setattr(cls, attr, self.wrap(name, raw, observe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------- reporting

    def summary(self) -> dict:
        """Per span name: ``calls``, ``total_s``, ``self_s``, ``p99_ms`` and
        ``max_ms``; per note: ``count``, ``sum``, ``max`` and ``p50``."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent_id, _, start, end in self.spans:
            if parent_id is not None:
                child_time[parent_id] += end - start
        durations: dict[str, list[float]] = {name: [] for name in SPAN_NAMES}
        self_s: dict[str, float] = defaultdict(float)
        for _, span_id, _, name, start, end in self.spans:
            durations[name].append(end - start)
            self_s[name] += end - start - child_time.get(span_id, 0.0)
        spans = {}
        for name, values in durations.items():
            spans[name] = {
                "calls": len(values),
                "total_s": sum(values),
                "self_s": self_s[name],
                "p99_ms": percentile(values, 99.0) * 1e3 if values else 0.0,
                "max_ms": max(values) * 1e3 if values else 0.0,
            }
        notes = {
            key: {
                "count": len(values),
                "sum": sum(values),
                "max": max(values),
                "p50": percentile(values, 50.0),
            }
            for key, values in self.notes.items()
            if values
        }
        return {
            "spans": spans,
            "notes": notes,
            "num_spans": len(self.spans),
            "num_traces": self._next_trace,
        }

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for trace_id, span_id, parent_id, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "trace": trace_id,
                            "span": span_id,
                            "parent": parent_id,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


# ------------------------------------------------------------------ observers


def _session_hit(args, kwargs, result, tracer) -> None:
    # A hit is a solve the session answered without a backend dispatch.
    session = args[0]
    cold = session.stats.cold_solves
    last = tracer.session_cold.get(session, 0)
    tracer.session_cold[session] = cold
    tracer.notes["lp.session.hit"].append(0.0 if cold > last else 1.0)


def _cache_get(args, kwargs, result, tracer) -> None:
    tracer.notes["service.cache.hit"].append(0.0 if result is None else 1.0)


def _journal_append(args, kwargs, result, tracer) -> None:
    tracer.notes["state.wal_bytes"].append(float(result))


def _decide(args, kwargs, result, tracer) -> None:
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    if batch:  # windows with no arrivals decide nothing
        tracer.notes["gateway.window_bids"].append(float(len(batch)))


def _decomposed(args, kwargs, result, tracer) -> None:
    tracer.notes["decomp.rounds"].append(float(result.rounds))
    tracer.notes["decomp.evicted"].append(float(len(result.evicted)))
    tracer.notes["decomp.max_violation"].append(float(result.max_violation))


_OBSERVERS = {
    "lp.session": _session_hit,
    "service.cache.get": _cache_get,
    "state.append": _journal_append,
    "gateway.decide": _decide,
    "decomp.solve_decomposed": _decomposed,
}
