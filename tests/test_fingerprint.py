"""Workload fingerprinting: tracker, analytic trace fingerprint, profile
library round-trip, and the per-site continuous profiler.

The acceptance property lives in ``TestRoundTrip``: a profile library
keyed by :func:`fingerprint_of_trace` must let a *live* server replaying
that same trace recognize its regime — the server's decayed fingerprint
converges close enough that ``nearest()`` picks the right entry, and
``health()`` surfaces it.
"""

import numpy as np
import pytest

from repro.obs import Tracer
from repro.obs.fingerprint import (
    FingerprintTracker,
    ProfileLibrary,
    SiteProfiler,
    WorkloadFingerprint,
    fingerprint_of_trace,
)
from repro.soak import SoakConfig, generate_soak_trace, run_soak

TINY = SoakConfig(
    sizes=(16, 8, 4),
    batches=12,
    phase_batches=4,
    batch_size=3,
    burst_every=4,
    burst_cells=8,
)


class TestWorkloadFingerprint:
    def test_vector_and_distance(self):
        a = WorkloadFingerprint(view_frac=1.0)
        b = WorkloadFingerprint(rollup_frac=1.0)
        assert a.distance(a) == 0.0
        assert a.distance(b) == pytest.approx(2**0.5)
        assert len(a.to_vector()) == 6

    def test_dict_round_trip(self):
        fp = WorkloadFingerprint(0.5, 0.25, 0.25, 0.8, 0.3, 0.1)
        assert WorkloadFingerprint.from_dict(fp.to_dict()) == fp
        # Missing keys default to zero (forward compatibility).
        assert WorkloadFingerprint.from_dict({}) == WorkloadFingerprint()


class TestFingerprintTracker:
    def test_mix_fractions(self):
        tracker = FingerprintTracker(decay=1.0)
        for _ in range(7):
            tracker.note_query("view")
        for _ in range(2):
            tracker.note_query("rollup")
        tracker.note_query("range")
        fp = tracker.fingerprint()
        assert fp.view_frac == pytest.approx(0.7)
        assert fp.rollup_frac == pytest.approx(0.2)
        assert fp.range_frac == pytest.approx(0.1)

    def test_empty_tracker_is_zero(self):
        assert FingerprintTracker().fingerprint() == WorkloadFingerprint()

    def test_unknown_kind_ignored(self):
        tracker = FingerprintTracker()
        tracker.note_query("mystery")
        assert tracker.queries == 0

    def test_decay_forgets_old_regime(self):
        tracker = FingerprintTracker(decay=0.5)
        for _ in range(20):
            tracker.note_query("view")
        for _ in range(20):
            tracker.note_query("range")
        fp = tracker.fingerprint()
        # After 20 half-life ticks the view era is noise.
        assert fp.range_frac > 0.99

    def test_hot_share_reflects_skew(self):
        skewed = FingerprintTracker(decay=1.0, hot_top=2)
        uniform = FingerprintTracker(decay=1.0, hot_top=2)
        for i in range(100):
            skewed.note_query("view", ("view", i % 2))
            uniform.note_query("view", ("view", i))
        assert skewed.fingerprint().hot_share == pytest.approx(1.0)
        assert uniform.fingerprint().hot_share == pytest.approx(0.02)

    def test_element_table_bounded_evicts_lightest(self):
        tracker = FingerprintTracker(decay=1.0, max_elements=4)
        heavy = ("view", "heavy")
        for _ in range(10):
            tracker.note_query("view", heavy)
        for i in range(10):
            tracker.note_query("view", ("view", f"light-{i}"))
        assert len(tracker._elements) == 4
        assert tracker.evicted_elements == 7
        assert heavy in tracker._elements  # the heavy key survives

    @pytest.mark.parametrize("decay", [0.995, 1.0])
    def test_heap_eviction_matches_min_scan(self, decay):
        """Same victims as the O(n) scan over every slot it replaced."""

        class MinScanTracker(FingerprintTracker):
            def note_query(self, kind, element_key=None):
                with self._lock:
                    self._tick += 1
                    self.queries += 1
                    self._bump(self._kinds[kind], 1.0)
                    slot = self._elements.get(element_key)
                    if slot is None:
                        if len(self._elements) >= self.max_elements:
                            lightest = min(
                                self._elements,
                                key=lambda k: self._effective(self._elements[k]),
                            )
                            del self._elements[lightest]
                            self.evicted_elements += 1
                        slot = self._elements[element_key] = [0.0, self._tick]
                    self._bump(slot, 1.0)

        rng = np.random.default_rng(2024)
        # Zipf-skewed keys over a universe wider than the table: hot keys
        # stay, the long tail churns through eviction.
        keys = rng.zipf(1.3, size=5000) % 3000
        kinds = rng.choice(["view", "rollup", "range"], size=5000)
        heap, scan = (
            cls(decay=decay, max_elements=512)
            for cls in (FingerprintTracker, MinScanTracker)
        )
        for kind, key in zip(kinds, keys):
            heap.note_query(str(kind), (str(kind), int(key)))
            scan.note_query(str(kind), (str(kind), int(key)))
        assert scan.evicted_elements > 500
        assert heap.evicted_elements == scan.evicted_elements
        assert set(heap._elements) == set(scan._elements)
        assert heap.fingerprint() == scan.fingerprint()

    def test_ingest_and_divergence_norms(self):
        tracker = FingerprintTracker(decay=1.0)
        tracker.note_query("view")
        tracker.note_ingest(3)
        fp = tracker.fingerprint()
        assert fp.ingest_norm == pytest.approx(3 / 4)  # rate 3 -> 0.75
        tracker.note_divergence(1.0)
        assert tracker.fingerprint().divergence_norm == pytest.approx(0.5)

    def test_snapshot_shape(self):
        tracker = FingerprintTracker()
        tracker.note_query("view", ("view", "a"))
        snap = tracker.snapshot()
        assert set(snap) == {
            "fingerprint",
            "queries",
            "ingest_batches",
            "tracked_elements",
            "evicted_elements",
            "decay",
            "hot_top",
        }
        assert snap["queries"] == 1
        assert snap["tracked_elements"] == 1


class TestTraceFingerprint:
    def test_deterministic_and_normalized(self):
        trace = generate_soak_trace(TINY)
        fp = fingerprint_of_trace(trace)
        assert fp == fingerprint_of_trace(generate_soak_trace(TINY))
        assert fp.view_frac + fp.rollup_frac + fp.range_frac == pytest.approx(
            1.0
        )
        assert 0.0 < fp.hot_share <= 1.0
        assert 0.0 <= fp.ingest_norm < 1.0

    def test_distinct_mixes_are_far_apart(self):
        view_heavy = [
            {"op": "query_batch", "requests": [["d0"]] * 10},
        ]
        range_heavy = [
            {"op": "range", "ranges": [[0, 1]]} for _ in range(10)
        ]
        distance = fingerprint_of_trace(view_heavy).distance(
            fingerprint_of_trace(range_heavy)
        )
        assert distance > 1.0

    def test_empty_trace(self):
        assert fingerprint_of_trace([]) == WorkloadFingerprint()


class TestProfileLibrary:
    def test_nearest_and_round_trip(self, tmp_path):
        library = ProfileLibrary()
        assert library.nearest(WorkloadFingerprint()) is None
        a = WorkloadFingerprint(view_frac=1.0)
        b = WorkloadFingerprint(range_frac=1.0, hot_share=1.0)
        library.add(a, {"max_workers": 2}, label="view-heavy")
        library.add(b, {"max_workers": 8}, label="range-heavy")
        entry, distance = library.nearest(
            WorkloadFingerprint(view_frac=0.9, rollup_frac=0.1)
        )
        assert entry["label"] == "view-heavy"
        assert distance < 0.5
        path = library.save(tmp_path / "profiles.json")
        reloaded = ProfileLibrary.load(path)
        assert reloaded.to_dict() == library.to_dict()
        assert reloaded.nearest(b)[0]["tuning"] == {"max_workers": 8}

    def test_default_labels(self):
        library = ProfileLibrary()
        entry = library.add(WorkloadFingerprint(), {})
        assert entry["label"] == "profile-0"


class TestSiteProfiler:
    def test_sites_accumulate_past_tracer_ring(self):
        tracer = Tracer(max_spans=4)  # tiny ring: spans evict fast
        profiler = SiteProfiler(tracer)
        with tracer.activate():
            for _ in range(50):
                with tracer.span("materialize.assemble"):
                    pass
        snap = profiler.snapshot()
        site = snap["materialize.assemble"]
        assert site["count"] == 50  # profiler never forgot evicted spans
        assert site["p50_ms"] >= 0.0
        assert site["p95_ms"] >= site["p50_ms"]
        assert site["max_ms"] >= site["p95_ms"]
        profiler.close()

    def test_site_table_bounded(self):
        tracer = Tracer()
        profiler = SiteProfiler(tracer, max_sites=2)
        with tracer.activate():
            for name in ("a", "b", "c", "d"):
                with tracer.span(name):
                    pass
        snap = profiler.snapshot()
        assert snap["_overflow_sites"] == 2
        assert set(snap) == {"a", "b", "_overflow_sites"}
        profiler.close()

    def test_close_detaches(self):
        tracer = Tracer()
        profiler = SiteProfiler(tracer)
        profiler.close()
        with tracer.activate():
            with tracer.span("late"):
                pass
        assert profiler.snapshot() == {}


class TestRoundTrip:
    """The acceptance property: tune-time fingerprint keys, serve-time
    recognition."""

    def test_server_replaying_trace_recognizes_its_profile(self, tmp_path):
        trace = generate_soak_trace(TINY)
        tuned = {"max_workers": 2, "cache_entries": 64}
        library = ProfileLibrary()
        library.add(
            fingerprint_of_trace(trace), tuned, label="tiny-soak"
        )
        # A decoy regime far from the soak mix: pure range scanning.
        library.add(
            WorkloadFingerprint(range_frac=1.0, hot_share=1.0),
            {"max_workers": 16},
            label="range-heavy-decoy",
        )
        path = library.save(tmp_path / "profiles.json")

        report = run_soak(
            TINY, trace=trace, server_kwargs={"profile_library": str(path)}
        )
        section = report["fingerprint"]
        assert section is not None
        nearest = section["nearest_profile"]
        assert nearest["label"] == "tiny-soak"
        assert nearest["tuning"] == tuned
        # The live decayed fingerprint lands near the analytic one.
        live = WorkloadFingerprint.from_dict(section["fingerprint"])
        assert live.distance(fingerprint_of_trace(trace)) < nearest[
            "distance"
        ] + live.distance(
            WorkloadFingerprint(range_frac=1.0, hot_share=1.0)
        )
        assert nearest["distance"] < 0.6

    def test_health_without_library_has_no_nearest(self):
        report = run_soak(TINY)
        section = report["fingerprint"]
        assert section is not None
        assert "nearest_profile" not in section
