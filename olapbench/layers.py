"""Per-layer tracing from outside the program.

The traced pass wraps the public entry points of each layer of the server
(``TARGETS``) and records one span per call: layer, name, start, end,
parent span and op id.  A function that callers import by name is patched
in every ``repro`` module that holds it, because a caller resolves the name
in its own module.  A layer's self time is its spans' duration minus the
time their child spans cover.  The untraced pass installs nothing.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

_perf = time.perf_counter
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "olapbench_span", default=None
)

#: ``(layer, "module:attribute", how)``.  ``how`` is ``fn`` for a plain
#: call, ``cm`` for a context-manager factory (entering and leaving are
#: timed; the body is not part of the span).
TARGETS = [
    # server: admission, deadline, context stack, stats around each call.
    *[
        ("server", f"repro.server:OLAPServer.{m}", "fn")
        for m in (
            "view", "rollup", "query_batch", "rollup_batch", "range_sum",
            "update", "update_many", "reconfigure", "snapshot",
        )
    ],
    # obs: context activation, spans, events, alerts, flight, fingerprints.
    # Metric updates are left in their callers' self time: wrapping each
    # counter bump would cost more than the bump.
    ("obs", "repro.obs:Observability.activate", "cm"),
    ("obs", "repro.obs.tracing:Tracer.span", "cm"),
    ("obs", "repro.obs.events:log_event", "fn"),
    ("obs", "repro.obs.tracing:add_span_event", "fn"),
    ("obs", "repro.obs.alerts:AlertEngine.record", "fn"),
    ("obs", "repro.obs.flight:FlightRecorder.on_span", "fn"),
    ("obs", "repro.obs.fingerprint:SiteProfiler.on_span", "fn"),
    ("obs", "repro.obs.fingerprint:FingerprintTracker.note_query", "fn"),
    ("obs", "repro.obs.fingerprint:FingerprintTracker.note_ingest", "fn"),
    # obs.cache: the result cache (its in-place patch belongs to delta).
    ("obs.cache", "repro.obs.cache:LRUCache.get", "fn"),
    ("obs.cache", "repro.obs.cache:LRUCache.put", "fn"),
    ("obs.cache", "repro.obs.cache:LRUCache.keys", "fn"),
    ("obs.cache", "repro.obs.cache:LRUCache.clear", "fn"),
    ("obs.cache", "repro.obs.cache:LRUCache.bump_generation", "fn"),
    # planning: Procedure 3 routing and shared-plan DAG construction.
    ("planning", "repro.core.planning:best_route", "fn"),
    ("planning", "repro.core.planning:sorted_by_volume", "fn"),
    ("planning", "repro.core.select_redundant:generation_cost", "fn"),
    ("planning", "repro.core.exec:plan_batch", "fn"),
    ("planning", "repro.core.exec:fuse_plan", "fn"),
    # exec: the DAG executor and the arithmetic kernels.
    ("exec", "repro.core.exec:execute_plan", "fn"),
    ("exec", "repro.core.kernels:fused_cascade", "fn"),
    ("exec", "repro.core.kernels:fused_synthesize", "fn"),
    ("exec", "repro.core.kernels:fused_partial_sum_k", "fn"),
    ("exec", "repro.core.kernels:fused_aggregate", "fn"),
    ("exec", "repro.core.operators:partial_sum", "fn"),
    ("exec", "repro.core.operators:partial_residual", "fn"),
    ("exec", "repro.core.operators:synthesize", "fn"),
    # materialize: assembly from, and storage into, the selected set.
    ("materialize", "repro.core.materialize:MaterializedSet.assemble", "fn"),
    ("materialize", "repro.core.materialize:MaterializedSet.assemble_batch", "fn"),
    ("materialize", "repro.core.materialize:MaterializedSet.store", "fn"),
    ("materialize", "repro.core.materialize:compute_element", "fn"),
    # range_query: dyadic range sums over assembled intermediates.
    ("range_query", "repro.core.range_query:RangeQueryEngine.range_sum", "fn"),
    ("range_query", "repro.core.range_query:RangeQueryEngine.prefetch", "fn"),
    ("range_query", "repro.core.range_query:range_sum_direct", "fn"),
    # delta: propagating update deltas into stored and warm state.
    ("delta", "repro.core.delta:patch_array", "fn"),
    ("delta", "repro.core.delta:validate_coordinates", "fn"),
    ("delta", "repro.core.materialize:MaterializedSet.apply_updates", "fn"),
    ("delta", "repro.core.range_query:RangeQueryEngine.apply_updates", "fn"),
    ("delta", "repro.obs.cache:LRUCache.patch", "fn"),
    # wal: the write-ahead log append that acknowledges an update.
    ("wal", "repro.durability.wal:WriteAheadLog.append", "fn"),
    # shard: scatter/gather over per-shard sets (per-shard work is in the
    # children, so the self time is the scatter/gather itself).
    *[
        ("shard", f"repro.shard.sets:ShardedSet.{m}", "fn")
        for m in (
            "assemble", "assemble_batch", "apply_updates", "store", "array",
            "migrate_selection",
        )
    ],
    # select: Algorithm 1 (DP) and Algorithm 2 (greedy, with its tables).
    ("select", "repro.core.select_basis:select_minimum_cost_basis", "fn"),
    ("select", "repro.core.engine:SelectionEngine.__init__", "fn"),
    ("select", "repro.core.engine:SelectionEngine.greedy_redundant_selection", "fn"),
]

LAYERS = (
    "server", "obs", "obs.cache", "planning", "exec", "materialize",
    "range_query", "delta", "wal", "shard", "select",
)

ALG1 = "select_minimum_cost_basis"
ALG2 = "SelectionEngine.greedy_redundant_selection"
TABLES = "SelectionEngine.__init__"
RECONFIGURE = "OLAPServer.reconfigure"


#: Fields of one span record.  A span is a plain list, the cheapest
#: mutable record to build on every traced call.
LAYER, NAME, START, END, PARENT, OP, COVERED, MIGRATE = range(8)

#: Layers whose every span duration is kept by name.
_TIMED_LAYERS = ("select",)


class Recorder:
    """Collects spans and counts while its wrappers are installed.

    Self time is folded in as each span ends: a child adds its duration to
    its parent's covered time, and the parent's self time is its duration
    minus that cover (clipped at zero, for children that ran in parallel
    on pool threads).  Spans opened while ``op`` is negative (set-up) are
    not counted.  Spans of the first ``keep_ops`` ops are also kept whole,
    for the report.
    """

    def __init__(self, keep_ops: int = 0):
        self.op = -1
        self.keep_ops = keep_ops
        self.kept: list[list] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.migrate_s: list[float] = []
        self._undo: list = []

    # -- recording ----------------------------------------------------

    def _closer(self, layer: str, name: str):
        """The function that ends one span of ``layer``/``name``."""
        rec, self_s, calls = self, self.self_s, self.calls
        durations = self.durations[name] if layer in _TIMED_LAYERS else None
        migrating = layer in ("materialize", "shard")
        reconfigure = name == RECONFIGURE
        reset = _CURRENT.reset

        def close(span: list, token) -> None:
            span[END] = end = _perf()
            reset(token)
            op = span[OP]
            if op < 0:
                return
            duration = end - span[START]
            own = duration - span[COVERED]
            self_s[layer] += own if own > 0.0 else 0.0
            calls[layer] += 1
            parent = span[PARENT]
            if parent is not None:
                parent[COVERED] += duration
                if migrating and parent[NAME] == RECONFIGURE:
                    parent[MIGRATE] += duration
            if durations is not None:
                durations.append(duration)
            if reconfigure:
                rec.migrate_s.append(span[MIGRATE])
            if op < rec.keep_ops:
                rec.kept.append(span)

        return close

    def _wrap_fn(self, layer: str, name: str, fn, hook=None):
        rec, close = self, self._closer(layer, name)
        get, set_ = _CURRENT.get, _CURRENT.set

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, get(), rec.op, 0.0, 0.0]
            token = set_(span)
            span[START] = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(span, token)
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        return traced

    def _wrap_cm(self, layer: str, name: str, factory, hook=None):
        rec, close = self, self._closer(layer, name)

        @functools.wraps(factory)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(rec, args, kwargs, None)
            return _TimedContext(rec, layer, name, close, factory(*args, **kwargs))

        return traced

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Patch every target; a call made before :meth:`uninstall` is traced."""
        if self._undo:
            raise RuntimeError("already installed")
        for layer, path, how in TARGETS:
            module_name, attr = path.split(":")
            module = importlib.import_module(module_name)
            owner_name, _, member = attr.rpartition(".")
            hook = HOOKS.get(attr)
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[member]
                wrap = self._wrap_cm if how == "cm" else self._wrap_fn
                setattr(owner, member, wrap(layer, attr, original, hook))
                self._undo.append((owner, member, original))
                continue
            original = getattr(module, member)
            wrapped = self._wrap_fn(layer, attr, original, hook)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, member, original in reversed(self._undo):
            setattr(owner, member, original)
        self._undo.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading ------------------------------------------------------

    def kept_spans(self) -> list[dict]:
        """Kept spans as ``{layer, name, start, end, parent, op}`` dicts."""
        index = {id(s): i for i, s in enumerate(self.kept)}
        return [
            {
                "layer": s[LAYER], "name": s[NAME], "start": s[START],
                "end": s[END], "parent": index.get(id(s[PARENT])), "op": s[OP],
            }
            for s in self.kept
        ]


class _TimedContext:
    """Times entering and leaving a program context manager as two spans.

    The body of the ``with`` block is not part of either span.
    """

    __slots__ = ("rec", "layer", "name", "close", "cm")

    def __init__(self, rec, layer, name, close, cm):
        self.rec, self.layer, self.name, self.close, self.cm = (
            rec, layer, name, close, cm,
        )

    def _open(self):
        span = [self.layer, self.name, 0.0, 0.0, _CURRENT.get(), self.rec.op, 0.0, 0.0]
        token = _CURRENT.set(span)
        span[START] = _perf()
        return span, token

    def __enter__(self):
        span, token = self._open()
        try:
            return self.cm.__enter__()
        finally:
            self.close(span, token)

    def __exit__(self, *exc):
        span, token = self._open()
        try:
            return self.cm.__exit__(*exc)
        finally:
            self.close(span, token)


# ----------------------------------------------------------------------
# Count hooks: called outside the span, after a traced call returns (for a
# context manager, when it is created).


def _count_span(rec, args, kwargs, result):
    rec.counts["obs.spans"] += 1


def _count_get(rec, args, kwargs, result):
    rec.counts["cache.lookups"] += 1
    if result is not None:
        rec.counts["cache.hits"] += 1


def _count_cache_patch(rec, args, kwargs, result):
    if result:
        rec.counts["delta.entries_patched"] += 1


def _count_range_patch(rec, args, kwargs, result):
    rec.counts["delta.entries_patched"] += int(result)


def _count_range(rec, args, kwargs, result):
    rec.counts["range.queries"] += 1
    rec.counts["range.cells_read"] += int(result.cells_read)


def _count_update(rec, args, kwargs, result):
    rec.counts["updates"] += 1
    rec.counts["update.cells"] += len(args[2] if len(args) > 2 else kwargs["deltas"])


def _count_greedy(rec, args, kwargs, result):
    rec.counts["select.graph_nodes"] = int(args[0].num_nodes)


HOOKS = {
    "Tracer.span": _count_span,
    "LRUCache.get": _count_get,
    "LRUCache.patch": _count_cache_patch,
    "RangeQueryEngine.apply_updates": _count_range_patch,
    "RangeQueryEngine.range_sum": _count_range,
    "OLAPServer.update_many": _count_update,
    "SelectionEngine.greedy_redundant_selection": _count_greedy,
}
