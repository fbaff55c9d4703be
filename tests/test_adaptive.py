"""Tests for the dynamic adaptation layer (the paper's titular feature)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AccessTracker, DynamicViewAssembler
from repro.core.element import CubeShape

VIEWS_2X2X2 = list(CubeShape((2, 2, 2)).aggregated_views())


class EagerTracker:
    """Reference: decays every tracked key on every access, O(keys)."""

    def __init__(self, decay: float):
        self.decay = decay
        self.weights: dict = {}

    def record(self, view) -> None:
        for key in self.weights:
            self.weights[key] *= self.decay
        self.weights[view] = self.weights.get(view, 0.0) + 1.0


def assert_matches_eager(decay: float, stream: list[int]) -> AccessTracker:
    tracker, eager = AccessTracker(decay=decay), EagerTracker(decay)
    for i in stream:
        tracker.record(VIEWS_2X2X2[i])
        eager.record(VIEWS_2X2X2[i])
    for smoothing, universe in ((0.0, None), (0.01, VIEWS_2X2X2)):
        got = tracker.population(smoothing=smoothing, universe=universe)
        total = sum(eager.weights.get(v, 0.0) + smoothing for v in (
            universe or eager.weights
        ))
        assert len(got) == len(universe or eager.weights)
        for view, frequency in got:
            want = (eager.weights.get(view, 0.0) + smoothing) / total
            assert frequency == pytest.approx(want, rel=1e-12, abs=0.0)
    return tracker


@pytest.fixture
def shape() -> CubeShape:
    return CubeShape((4, 4, 4))


@pytest.fixture
def data(rng, shape) -> np.ndarray:
    return rng.integers(0, 50, size=shape.sizes).astype(np.float64)


class TestAccessTracker:
    def test_decay_validation(self):
        with pytest.raises(ValueError, match="decay"):
            AccessTracker(decay=0.0)
        with pytest.raises(ValueError, match="decay"):
            AccessTracker(decay=1.5)

    def test_frequencies_reflect_counts(self, shape):
        tracker = AccessTracker(decay=1.0)  # no forgetting
        views = list(shape.aggregated_views())
        for _ in range(3):
            tracker.record(views[0])
        tracker.record(views[1])
        population = tracker.population()
        assert population.frequency_of(views[0]) == pytest.approx(0.75)
        assert population.frequency_of(views[1]) == pytest.approx(0.25)

    def test_decay_forgets_old_accesses(self, shape):
        tracker = AccessTracker(decay=0.5)
        views = list(shape.aggregated_views())
        tracker.record(views[0])
        for _ in range(10):
            tracker.record(views[1])
        population = tracker.population()
        assert population.frequency_of(views[1]) > 0.99

    def test_smoothing_includes_universe(self, shape):
        tracker = AccessTracker()
        views = list(shape.aggregated_views())
        tracker.record(views[0])
        population = tracker.population(smoothing=0.1, universe=views)
        assert len(population) == len(views)
        assert population.frequency_of(views[-1]) > 0.0

    def test_empty_tracker_raises(self):
        with pytest.raises(ValueError, match="no accesses"):
            AccessTracker().population()

    @settings(max_examples=80, deadline=None)
    @given(
        decay=st.sampled_from([0.5, 0.9, 0.98, 0.999, 1.0]),
        stream=st.lists(st.integers(0, 7), min_size=1, max_size=900),
    )
    def test_population_matches_eager_reference(self, decay, stream):
        assert_matches_eager(decay, stream)

    def test_matches_eager_across_renormalization(self):
        rng = np.random.default_rng(5)
        stream = [int(i) for i in rng.integers(0, 8, size=900)]
        tracker = assert_matches_eager(0.5, stream)
        # Unrenormalized, the scale would be 2**900 > RENORMALIZE_AT.
        assert 1.0 <= tracker._scale <= AccessTracker.RENORMALIZE_AT

    def test_no_decay_counts_exactly(self):
        stream = [0, 3, 3, 7, 3, 0]
        tracker = assert_matches_eager(1.0, stream)
        population = tracker.population()
        assert population.frequency_of(VIEWS_2X2X2[3]) == 0.5
        assert tracker.total_accesses == len(stream)


class TestDynamicViewAssembler:
    def test_serves_correct_views(self, data, shape):
        assembler = DynamicViewAssembler(data, shape, reconfigure_every=1000)
        values = assembler.query_view([0, 1])
        np.testing.assert_array_equal(
            values, data.sum(axis=(0, 1), keepdims=True)
        )

    def test_answers_survive_reconfiguration(self, data, shape):
        assembler = DynamicViewAssembler(data, shape, reconfigure_every=5)
        views = list(shape.aggregated_views())
        for i in range(20):
            view = views[i % len(views)]
            values = assembler.query(view)
            expected = data.sum(
                axis=tuple(view.aggregated_dims), keepdims=True
            )
            np.testing.assert_allclose(values, expected)
        assert len(assembler.history) == 4

    def test_reconfiguration_reduces_cost_for_hot_view(self, data, shape):
        """After reconfiguring for a single hot view, serving it is free."""
        assembler = DynamicViewAssembler(data, shape, reconfigure_every=10_000)
        hot = shape.aggregated_view([0, 1, 2])
        for _ in range(10):
            assembler.query(hot)
        record = assembler.reconfigure()
        assert record.expected_cost == pytest.approx(0.0)
        assert hot in assembler.materialized.elements
        before = assembler.stats.operations
        assembler.query(hot)
        assert assembler.stats.operations == before  # zero-op serve

    def test_storage_budget_adds_redundancy(self, data, shape):
        assembler = DynamicViewAssembler(
            data,
            shape,
            storage_budget=int(1.5 * shape.volume),
            reconfigure_every=10_000,
        )
        views = list(shape.aggregated_views())
        rng = np.random.default_rng(4)
        for _ in range(30):
            assembler.query(views[int(rng.integers(len(views)))])
        record = assembler.reconfigure()
        assert record.storage <= 1.5 * shape.volume
        # Cube remains reconstructable from the adaptive selection.
        np.testing.assert_allclose(
            assembler.materialized.reconstruct_cube(), data
        )

    def test_migration_operations_recorded(self, data, shape):
        assembler = DynamicViewAssembler(data, shape, reconfigure_every=10_000)
        assembler.query_view([0])
        record = assembler.reconfigure()
        assert record.migration_operations >= 0
        assert record.at_access == 1

    def test_average_operations_counter(self, data, shape):
        assembler = DynamicViewAssembler(data, shape, reconfigure_every=10_000)
        assert assembler.average_operations_per_query == 0.0
        assembler.query_view([0, 1, 2])
        assert assembler.average_operations_per_query > 0.0

    def test_shape_mismatch(self, shape):
        with pytest.raises(ValueError, match="does not match"):
            DynamicViewAssembler(np.zeros((2, 2)), shape)
