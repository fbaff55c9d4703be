"""Continuous profiling and live workload fingerprinting.

Two always-on, bounded accounting layers that turn the telemetry stream
into an answer to "what regime is this server in right now?":

- :class:`SiteProfiler` — a tracer finish-listener keeping cheap EWMA +
  sliding-reservoir latency accounting per instrumented site
  (``exec.compute_node``, ``materialize.assemble``, ``shard.scatter`` /
  ``shard.gather``, ``wal.append``, cache ops — every span name that
  flows past).  It adds zero new instrumentation to hot paths: the spans
  already exist, the profiler just refuses to forget their statistics
  when the tracer ring evicts them.
- :class:`FingerprintTracker` — exponentially-decayed counters over the
  serving stream (query-kind mix, per-element hot-key weights, ingest
  cells, cost-model divergence) summarized into a
  :class:`WorkloadFingerprint`: a small normalized vector a server can
  compare against the fingerprints of previously *tuned* workloads.

The :class:`ProfileLibrary` closes the loop with ``repro tune``: the
tuner stores each tuned profile keyed by the fingerprint of the workload
it was tuned on (:func:`fingerprint_of_trace` computes it analytically
from a soak trace), and a live server asks the library for the nearest
profile to its *current* fingerprint — surfacing "you look like the
range-heavy drifted regime; here is the tuning that won there" in
``health()``.

Decay is tick-based and lazy (per-slot ``value * decay**(tick - last)``),
so ``note_query`` is O(1) regardless of how many element keys are being
tracked, and O(log n) when a new key evicts the lightest one — the
overhead gate (``bench_flight_overhead``) covers this path.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

from .tracing import Span, Tracer

__all__ = [
    "FingerprintTracker",
    "ProfileLibrary",
    "SiteProfiler",
    "WorkloadFingerprint",
    "fingerprint_of_trace",
]


QUERY_KINDS = ("view", "rollup", "range")


@dataclass(frozen=True)
class WorkloadFingerprint:
    """A normalized signature of a workload regime.

    All six coordinates live in ``[0, 1]`` so unweighted L2 distance is
    meaningful: the first three are the query-kind mix (they sum to 1 for
    a non-empty workload), ``hot_share`` is the weight fraction of the
    top-k hottest elements (key skew), ``ingest_norm`` is the squashed
    ingest-cells-per-query rate ``x / (1 + x)``, and ``divergence_norm``
    is the squashed planned-vs-measured cost-model divergence.
    """

    view_frac: float = 0.0
    rollup_frac: float = 0.0
    range_frac: float = 0.0
    hot_share: float = 0.0
    ingest_norm: float = 0.0
    divergence_norm: float = 0.0

    def to_vector(self) -> tuple[float, ...]:
        return (
            self.view_frac,
            self.rollup_frac,
            self.range_frac,
            self.hot_share,
            self.ingest_norm,
            self.divergence_norm,
        )

    def distance(self, other: "WorkloadFingerprint") -> float:
        """Euclidean distance in fingerprint space."""
        return math.sqrt(
            sum(
                (a - b) ** 2
                for a, b in zip(self.to_vector(), other.to_vector())
            )
        )

    def to_dict(self) -> dict:
        return {key: round(value, 4) for key, value in asdict(self).items()}

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadFingerprint":
        fields = {
            key: float(payload.get(key, 0.0))
            for key in (
                "view_frac",
                "rollup_frac",
                "range_frac",
                "hot_share",
                "ingest_norm",
                "divergence_norm",
            )
        }
        return cls(**fields)


class FingerprintTracker:
    """Decayed workload accounting feeding :class:`WorkloadFingerprint`.

    Every counter is a ``[value, last_tick]`` slot decayed lazily by
    ``decay ** (tick - last_tick)`` — one global tick per query — so the
    per-query cost is a few dict operations whatever the tracked-element
    count.  The element table is bounded: on overflow the lightest
    (effective-weight) key is evicted, which is exactly the key that
    least affects ``hot_share``.

    Eviction is O(log n) through a heap holding one entry per key, ordered
    by the tick-invariant score ``log(value) + last * log(1/decay)`` (the
    log of the effective weight, minus ``tick * log(decay)``, which every
    key shares), ties broken by insertion order.  A bump only raises a
    key's score, so entries go stale low, never high: eviction pops the
    lowest entry and, when its key was bumped since it was pushed,
    re-pushes the current score instead of evicting.
    """

    def __init__(
        self,
        decay: float = 0.995,
        hot_top: int = 8,
        max_elements: int = 512,
    ):
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.decay = float(decay)
        self.hot_top = int(hot_top)
        self.max_elements = int(max_elements)
        self._lock = threading.Lock()
        self._tick = 0
        self._kinds = {kind: [0.0, 0] for kind in QUERY_KINDS}
        self._elements: dict = {}
        # (score, insertion seq, last tick at push, key) per element key.
        self._heap: list = []
        self._seq = itertools.count()
        self._log_inv_decay = -math.log(self.decay)
        self._ingest = [0.0, 0]
        self._divergence: float | None = None
        self._divergence_alpha = 0.2
        self.queries = 0
        self.ingest_batches = 0
        self.evicted_elements = 0

    def _bump(self, slot: list, amount: float) -> None:
        value, last = slot
        slot[0] = value * self.decay ** (self._tick - last) + amount
        slot[1] = self._tick

    def _effective(self, slot: list) -> float:
        return slot[0] * self.decay ** (self._tick - slot[1])

    def note_query(self, kind: str, element_key=None) -> None:
        """Account one served query (``kind`` in :data:`QUERY_KINDS`)."""
        if kind not in self._kinds:
            return
        with self._lock:
            self._tick += 1
            self.queries += 1
            self._bump(self._kinds[kind], 1.0)
            if element_key is None:
                return
            slot = self._elements.get(element_key)
            if slot is not None:
                self._bump(slot, 1.0)
                return
            if len(self._elements) >= self.max_elements:
                self._evict_lightest()
                self.evicted_elements += 1
            slot = self._elements[element_key] = [0.0, self._tick]
            self._bump(slot, 1.0)
            heapq.heappush(
                self._heap,
                (self._score(slot), next(self._seq), slot[1], element_key),
            )

    def _score(self, slot: list) -> float:
        """``log`` of the slot's weight, up to a term shared by every key."""
        return math.log(slot[0]) + slot[1] * self._log_inv_decay

    def _evict_lightest(self) -> None:
        heap = self._heap
        while True:
            _, seq, last, key = heap[0]
            slot = self._elements[key]
            if slot[1] == last:
                heapq.heappop(heap)
                del self._elements[key]
                return
            heapq.heapreplace(heap, (self._score(slot), seq, slot[1], key))

    def note_ingest(self, cells: int) -> None:
        """Account one applied ingest batch of ``cells`` updates."""
        with self._lock:
            self.ingest_batches += 1
            self._bump(self._ingest, float(cells))

    def note_divergence(self, divergence: float) -> None:
        """Feed a planned-vs-measured cost divergence observation."""
        value = abs(float(divergence))
        with self._lock:
            if self._divergence is None:
                self._divergence = value
            else:
                alpha = self._divergence_alpha
                self._divergence += alpha * (value - self._divergence)

    def fingerprint(self) -> WorkloadFingerprint:
        with self._lock:
            kinds = {
                kind: self._effective(slot)
                for kind, slot in self._kinds.items()
            }
            total = sum(kinds.values())
            weights = sorted(
                (self._effective(slot) for slot in self._elements.values()),
                reverse=True,
            )
            weight_total = sum(weights)
            ingest = self._effective(self._ingest)
            divergence = self._divergence or 0.0
        if total <= 0.0:
            return WorkloadFingerprint()
        rate = ingest / total
        return WorkloadFingerprint(
            view_frac=kinds["view"] / total,
            rollup_frac=kinds["rollup"] / total,
            range_frac=kinds["range"] / total,
            hot_share=(
                sum(weights[: self.hot_top]) / weight_total
                if weight_total > 0.0
                else 0.0
            ),
            ingest_norm=rate / (1.0 + rate),
            divergence_norm=divergence / (1.0 + divergence),
        )

    def snapshot(self) -> dict:
        """JSON-friendly state for ``health()`` and diag bundles."""
        fp = self.fingerprint()
        with self._lock:
            return {
                "fingerprint": fp.to_dict(),
                "queries": self.queries,
                "ingest_batches": self.ingest_batches,
                "tracked_elements": len(self._elements),
                "evicted_elements": self.evicted_elements,
                "decay": self.decay,
                "hot_top": self.hot_top,
            }


def fingerprint_of_trace(
    trace: list, hot_top: int = 8
) -> WorkloadFingerprint:
    """The analytic fingerprint of a soak trace (no decay, no server).

    Uses the same element-key and coordinate definitions as the live
    tracker, so a server replaying this trace converges toward this
    fingerprint — this is what ``repro tune`` keys its profile library
    entries by.
    """
    kinds = {kind: 0 for kind in QUERY_KINDS}
    elements: dict = {}
    ingest_cells = 0
    for op in trace:
        name = op.get("op")
        if name == "query_batch":
            for dims in op.get("requests", ()):
                kinds["view"] += 1
                key = ("view", tuple(sorted(dims)))
                elements[key] = elements.get(key, 0) + 1
        elif name == "rollup_batch":
            for levels in op.get("levels_list", ()):
                kinds["rollup"] += 1
                key = ("rollup", tuple(sorted(levels.items())))
                elements[key] = elements.get(key, 0) + 1
        elif name == "range":
            kinds["range"] += 1
            key = ("range", tuple(tuple(r) for r in op.get("ranges", ())))
            elements[key] = elements.get(key, 0) + 1
        elif name == "ingest":
            ingest_cells += len(op.get("coords", ()))
    total = sum(kinds.values())
    if total == 0:
        return WorkloadFingerprint()
    weights = sorted(elements.values(), reverse=True)
    weight_total = sum(weights)
    rate = ingest_cells / total
    return WorkloadFingerprint(
        view_frac=kinds["view"] / total,
        rollup_frac=kinds["rollup"] / total,
        range_frac=kinds["range"] / total,
        hot_share=(
            sum(weights[:hot_top]) / weight_total if weight_total else 0.0
        ),
        ingest_norm=rate / (1.0 + rate),
        divergence_norm=0.0,
    )


class ProfileLibrary:
    """Tuned profiles keyed by the workload fingerprint they won on.

    Entries are ``{"label", "fingerprint", "tuning", "meta"}`` dicts;
    :meth:`nearest` is a linear scan (libraries hold a handful of
    regimes, not millions).  JSON round-trips via :meth:`save` /
    :meth:`load` — ``repro tune`` writes ``profiles.json``, a serving
    process loads it at startup.
    """

    def __init__(self, entries: list | None = None):
        self.entries: list[dict] = list(entries or ())

    def add(
        self,
        fingerprint: WorkloadFingerprint,
        tuning: dict,
        label: str = "",
        meta: dict | None = None,
    ) -> dict:
        entry = {
            "label": label or f"profile-{len(self.entries)}",
            "fingerprint": fingerprint.to_dict(),
            "tuning": dict(tuning),
            "meta": dict(meta or {}),
        }
        self.entries.append(entry)
        return entry

    def nearest(
        self, fingerprint: WorkloadFingerprint
    ) -> tuple[dict, float] | None:
        """The closest stored entry and its distance, or ``None``."""
        best: tuple[dict, float] | None = None
        for entry in self.entries:
            candidate = WorkloadFingerprint.from_dict(entry["fingerprint"])
            distance = fingerprint.distance(candidate)
            if best is None or distance < best[1]:
                best = (entry, distance)
        return best

    def to_dict(self) -> dict:
        return {"format": 1, "profiles": [dict(e) for e in self.entries]}

    @classmethod
    def from_dict(cls, payload: dict) -> "ProfileLibrary":
        return cls(entries=list(payload.get("profiles", ())))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ProfileLibrary":
        return cls.from_dict(json.loads(Path(path).read_text()))


class _SiteStats:
    __slots__ = ("count", "ewma_ms", "total_ms", "max_ms", "reservoir")

    def __init__(self):
        self.count = 0
        self.ewma_ms = 0.0
        self.total_ms = 0.0
        self.max_ms = 0.0
        self.reservoir: list[float] = []


class SiteProfiler:
    """Always-on per-site latency profiles from the span stream.

    Attaches to a tracer as a finish listener; per span *name* it keeps a
    count, an EWMA, and a bounded sliding reservoir of recent durations
    (slot ``count % size`` is overwritten — deterministic, no RNG), from
    which :meth:`snapshot` derives p50/p95.  The site table is bounded;
    span names past ``max_sites`` are counted in ``overflow_sites``.
    """

    def __init__(
        self,
        tracer: Tracer,
        alpha: float = 0.05,
        reservoir_size: int = 64,
        max_sites: int = 64,
    ):
        self.tracer = tracer
        self.alpha = float(alpha)
        self.reservoir_size = int(reservoir_size)
        self.max_sites = int(max_sites)
        self._lock = threading.Lock()
        self._sites: dict[str, _SiteStats] = {}
        self.overflow_sites = 0
        tracer.add_listener(self.on_span)

    def close(self) -> None:
        self.tracer.remove_listener(self.on_span)

    def on_span(self, span: Span) -> None:
        end = span.end if span.end is not None else span.start
        duration_ms = (end - span.start) * 1e3
        with self._lock:
            stats = self._sites.get(span.name)
            if stats is None:
                if len(self._sites) >= self.max_sites:
                    self.overflow_sites += 1
                    return
                stats = self._sites[span.name] = _SiteStats()
            if stats.count == 0:
                stats.ewma_ms = duration_ms
            else:
                stats.ewma_ms += self.alpha * (duration_ms - stats.ewma_ms)
            if len(stats.reservoir) < self.reservoir_size:
                stats.reservoir.append(duration_ms)
            else:
                stats.reservoir[stats.count % self.reservoir_size] = (
                    duration_ms
                )
            stats.count += 1
            stats.total_ms += duration_ms
            stats.max_ms = max(stats.max_ms, duration_ms)

    def snapshot(self) -> dict:
        """Per-site latency profile: count, EWMA, p50/p95/max."""
        with self._lock:
            out = {}
            for name in sorted(self._sites):
                stats = self._sites[name]
                ordered = sorted(stats.reservoir)
                out[name] = {
                    "count": stats.count,
                    "ewma_ms": round(stats.ewma_ms, 4),
                    "mean_ms": round(
                        stats.total_ms / stats.count if stats.count else 0.0,
                        4,
                    ),
                    "p50_ms": round(
                        ordered[len(ordered) // 2] if ordered else 0.0, 4
                    ),
                    "p95_ms": round(
                        ordered[
                            min(
                                len(ordered) - 1,
                                int(0.95 * (len(ordered) - 1)),
                            )
                        ]
                        if ordered
                        else 0.0,
                        4,
                    ),
                    "max_ms": round(stats.max_ms, 4),
                }
            if self.overflow_sites:
                out["_overflow_sites"] = self.overflow_sites
            return out
