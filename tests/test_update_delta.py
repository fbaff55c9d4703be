"""Delta propagation: the math, the cache plumbing, and the server path.

The filter bank is linear (P1/R1 are signed pair sums), so a cube-cell
delta touches exactly one cell of every view element with a computable
sign.  These tests pin that law (:mod:`repro.core.delta`) against brute
recomputation, then the machinery built on it: generation-tagged LRU
entries, range-engine intermediate patching, sharded batch routing, and
the server's patch-instead-of-clear update path.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import range_query as range_query_module
from repro.core.delta import (
    delta_cell,
    delta_cells,
    dyadic_scope,
    patch_array,
    validate_coordinates,
)
from repro.core.element import CubeShape, ElementId
from repro.core.materialize import MaterializedSet, compute_element
from repro.core.operators import OpCounter
from repro.core.range_query import RangeQueryEngine
from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro.obs import LRUCache
from repro.obs.metrics import MetricsRegistry
from repro.server import OLAPServer
from repro.shard.partition import CubePartition
from repro.shard.sets import ShardedSet

SHAPES = [CubeShape((4, 4)), CubeShape((8, 2)), CubeShape((2, 2, 4))]


def _all_elements(shape: CubeShape):
    """Every element id of the shape's full dyadic graph."""
    import itertools

    per_dim = []
    for depth in shape.depths:
        nodes = [
            (k, j) for k in range(depth + 1) for j in range(1 << k)
        ]
        per_dim.append(nodes)
    return [
        ElementId(shape, nodes) for nodes in itertools.product(*per_dim)
    ]


class TestDeltaCell:
    """A point delta touches exactly one cell, with the predicted sign."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_brute_recomputation(self, shape):
        rng = np.random.default_rng(3)
        base = rng.integers(-9, 10, size=shape.sizes).astype(np.float64)
        for element in _all_elements(shape):
            before = compute_element(base, element)
            for _ in range(4):
                coords = tuple(
                    int(rng.integers(0, n)) for n in shape.sizes
                )
                delta = float(rng.integers(1, 7))
                bumped = base.copy()
                bumped[coords] += delta
                after = compute_element(bumped, element)
                diff = after - before
                cell, sign = delta_cell(element, coords)
                assert diff[cell] == sign * delta
                touched = np.count_nonzero(diff)
                assert touched == 1

    def test_sign_flips_on_odd_residual_half(self):
        # R1 at level 1: out[p] = in[2p] - in[2p+1]; the odd slot is
        # subtracted, so its sign is -1 and the even slot's is +1.
        shape = CubeShape((4,))
        element = ElementId(shape, ((1, 1),))
        assert delta_cell(element, (0,)) == ((0,), 1.0)
        assert delta_cell(element, (1,)) == ((0,), -1.0)
        assert delta_cell(element, (2,)) == ((1,), 1.0)
        assert delta_cell(element, (3,)) == ((1,), -1.0)

    def test_rank_mismatch_raises(self):
        shape = CubeShape((4, 4))
        element = shape.root()
        with pytest.raises(ValueError):
            delta_cell(element, (1,))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_vectorized_equals_scalar(self, shape):
        rng = np.random.default_rng(5)
        coords = np.stack(
            [rng.integers(0, n, size=16) for n in shape.sizes], axis=1
        )
        for element in _all_elements(shape):
            cells, signs = delta_cells(element, coords)
            for row in range(coords.shape[0]):
                cell, sign = delta_cell(element, tuple(coords[row]))
                assert tuple(cells[row]) == cell
                assert signs[row] == sign

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_closed_form_matches_bit_walk(self, data):
        depths = data.draw(
            st.lists(st.integers(0, 6), min_size=1, max_size=4), label="depths"
        )
        shape = CubeShape(tuple(1 << k for k in depths))
        nodes = []
        for depth in depths:
            level = data.draw(st.integers(0, depth))
            index = data.draw(st.integers(0, (1 << level) - 1))
            nodes.append((level, index))
        element = ElementId(shape, tuple(nodes))
        rows = data.draw(
            st.lists(
                st.tuples(*[st.integers(0, n - 1) for n in shape.sizes]),
                min_size=1,
                max_size=12,
            ),
            label="coordinates",
        )
        cells, signs = delta_cells(element, np.array(rows, dtype=np.int64))
        assert signs.dtype == np.float64
        for row, coords in enumerate(rows):
            cell, sign = delta_cell(element, coords)
            assert tuple(cells[row]) == cell
            assert signs[row] == sign


class TestValidateAndScope:
    def test_validate_rejects_rank_and_bounds(self):
        shape = CubeShape((4, 4))
        with pytest.raises(ValueError, match="coordinates must be"):
            validate_coordinates(shape, np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(ValueError, match="outside"):
            validate_coordinates(shape, np.array([[0, 4]]))
        with pytest.raises(ValueError, match="outside"):
            validate_coordinates(shape, np.array([[-1, 0]]))

    def test_dyadic_scope_names_the_touched_subtree(self):
        shape = CubeShape((8, 4))
        scope = dyadic_scope(shape, np.array([[1, 3], [6, 3]]))
        assert scope[0] == {0: [1, 6], 1: [0, 3], 2: [0, 1], 3: [0]}
        assert scope[1] == {0: [3], 1: [1], 2: [0]}

    def test_scope_bounds_patch_cells(self):
        # Every element's touched cells are drawn from the scope at the
        # element's per-axis levels.
        shape = CubeShape((8, 4))
        rng = np.random.default_rng(11)
        coords = np.stack(
            [rng.integers(0, n, size=5) for n in shape.sizes], axis=1
        )
        scope = dyadic_scope(shape, coords)
        for element in _all_elements(shape)[::5]:
            cells, _ = delta_cells(element, coords)
            for axis, (level, _index) in enumerate(element.nodes):
                assert set(cells[:, axis].tolist()) <= set(scope[axis][level])


class TestPatchArray:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_patch_equals_recompute(self, shape):
        rng = np.random.default_rng(7)
        base = rng.integers(0, 50, size=shape.sizes).astype(np.float64)
        coords = np.stack(
            [rng.integers(0, n, size=6) for n in shape.sizes], axis=1
        )
        deltas = rng.integers(-5, 6, size=6).astype(np.float64)
        bumped = base.copy()
        np.add.at(bumped, tuple(coords.T), deltas)
        for element in _all_elements(shape)[::4]:
            values = compute_element(base, element).copy()
            applied = patch_array(element, values, coords, deltas)
            assert applied == 6
            assert np.array_equal(values, compute_element(bumped, element))

    def test_empty_batch_is_a_no_op(self):
        shape = CubeShape((4, 4))
        values = np.zeros(shape.root().data_shape)
        assert patch_array(
            shape.root(), values, np.empty((0, 2), dtype=np.int64), []
        ) == 0
        assert not values.any()


class TestCacheGenerations:
    def _cache(self, **kw):
        registry = MetricsRegistry()
        return LRUCache(registry=registry, name="c", **kw), registry

    def test_bump_generation_lazily_drops_stale_entries(self):
        cache, registry = self._cache(max_entries=4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.bump_generation()
        assert len(cache) == 2  # nothing freed eagerly
        assert "a" not in cache
        assert cache.get("a") is None  # dropped on lookup, counted
        assert registry.counter("c_stale_drops_total").total() == 1
        assert registry.counter("c_generation_bumps_total").total() == 1
        cache.put("a", 3)
        assert cache.get("a") == 3  # fresh entries live at the new gen

    def test_keys_exclude_stale_entries(self):
        cache, _ = self._cache(max_entries=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.keys() == ("a", "b")
        cache.mark_stale("a")
        assert cache.keys() == ("b",)
        assert cache.get("b") == 2

    def test_mark_stale_is_scoped_to_one_key(self):
        cache, registry = self._cache(max_entries=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.mark_stale("a")
        assert not cache.mark_stale("missing")
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert registry.counter("c_stale_drops_total").total() == 1

    def test_patch_repairs_in_place_and_counts(self):
        cache, registry = self._cache(max_entries=4)
        box = {"v": 1}
        cache.put("a", box)

        def bump(value):
            value["v"] += 10
            return True

        assert cache.patch("a", bump)
        assert cache.get("a")["v"] == 11
        assert registry.counter("c_patches_total").total() == 1

    def test_patch_skip_protocol_and_stale_keys(self):
        cache, registry = self._cache(max_entries=4)
        cache.put("a", object())
        assert not cache.patch("a", lambda _v: False)  # alias skip
        assert not cache.patch("missing", lambda _v: True)
        cache.bump_generation()
        assert not cache.patch("a", lambda _v: True)  # stale: fn not run
        assert registry.counter("c_patches_total").total() == 0

    def test_stale_weight_is_released_on_drop(self):
        cache, _ = self._cache(max_entries=4, weigh=lambda v: v)
        cache.put("a", 10.0)
        cache.bump_generation()
        assert cache.weight == 10.0
        cache.get("a")
        assert cache.weight == 0.0


class TestRangeEnginePatch:
    def test_patched_intermediates_match_fresh_engine(self):
        shape = CubeShape((8, 8))
        rng = np.random.default_rng(13)
        base = rng.integers(0, 50, size=shape.sizes).astype(np.float64)
        materialized = MaterializedSet.from_cube(base.copy(), [shape.root()])
        engine = RangeQueryEngine(materialized)
        ranges = ((1, 7), (2, 6))
        engine.range_sum(ranges)  # warms on-demand intermediates
        assert engine._cache

        coords = np.array([[3, 3], [0, 7], [6, 2]])
        deltas = np.array([4.0, -2.0, 9.0])
        materialized.apply_updates(coords, deltas)
        np.add.at(base, tuple(coords.T), deltas)
        patched = engine.apply_updates(coords, deltas)
        assert patched == len(engine._cache)

        fresh = RangeQueryEngine(
            MaterializedSet.from_cube(base.copy(), [shape.root()])
        )
        for probe in (ranges, ((0, 8), (0, 8)), ((3, 5), (1, 8))):
            assert (
                engine.range_sum(probe).value
                == fresh.range_sum(probe).value
            )

    def test_validation_and_empty_batch(self):
        shape = CubeShape((4, 4))
        engine = RangeQueryEngine(
            MaterializedSet.from_cube(np.zeros(shape.sizes), [shape.root()])
        )
        with pytest.raises(ValueError, match="deltas must be"):
            engine.apply_updates(np.array([[0, 0]]), [1.0, 2.0])
        assert engine.apply_updates(np.empty((0, 2), dtype=np.int64), []) == 0


def _reference_patch(reference, coords, deltas):
    """The per-element patch loop the arena scatter replaces."""
    for element, values in reference.items():
        patch_array(element, values, coords, deltas)


class _CountingAdd:
    """Stands in for ``np.add`` and counts ``at`` scatters."""

    def __init__(self):
        self.at_calls = 0

    def at(self, *args):
        self.at_calls += 1
        return np.add.at(*args)


class _CountingNumpy:
    """``numpy`` with a counting ``add``, for one module's globals."""

    def __init__(self):
        self.add = _CountingAdd()

    def __getattr__(self, name):
        return getattr(np, name)


class TestRangeEngineArena:
    """Cached intermediates live in one arena patched by one scatter."""

    SHAPE = CubeShape((8, 16, 4))

    def _engine(self, base):
        materialized = MaterializedSet.from_cube(
            base.copy(), [self.SHAPE.root()]
        )
        return RangeQueryEngine(materialized), materialized

    def _batches(self, rng, float_data, count=4, rows=9):
        for _ in range(count):
            coords = np.stack(
                [rng.integers(0, n, size=rows) for n in self.SHAPE.sizes],
                axis=1,
            )
            # Duplicate coordinates within the batch: the same cell gets
            # several deltas, which must land in batch order.
            coords[-3:] = coords[0]
            if float_data:
                deltas = rng.lognormal(0.0, 4.0, size=rows) * rng.choice(
                    [-1.0, 1.0], size=rows
                )
            else:
                deltas = rng.integers(-9, 10, size=rows).astype(np.float64)
            yield coords, deltas

    @pytest.mark.parametrize("float_data", [False, True])
    def test_bytes_equal_per_element_patch(self, float_data):
        rng = np.random.default_rng(37)
        if float_data:
            # Mixed magnitudes: every addition rounds.
            base = rng.lognormal(0.0, 3.0, size=self.SHAPE.sizes) * (
                10.0 ** rng.integers(-6, 7, size=self.SHAPE.sizes)
            )
        else:
            base = rng.integers(0, 50, size=self.SHAPE.sizes).astype(
                np.float64
            )
        engine, _ = self._engine(base)
        engine.prefetch([((0, 8), (0, 16), (0, 4)), ((1, 8), (1, 16), (1, 4))])
        assert len(engine._cache) > 20
        reference = {e: v.copy() for e, v in engine._cache.items()}
        counting = _CountingNumpy()
        for batch, (coords, deltas) in enumerate(
            self._batches(rng, float_data)
        ):
            counter = OpCounter()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(range_query_module, "np", counting)
                patched = engine.apply_updates(coords, deltas, counter=counter)
            assert counting.add.at_calls == batch + 1
            assert patched == len(reference)
            assert counter.total == len(deltas) * len(reference)
            _reference_patch(reference, coords, deltas)
            assert set(engine._cache) == set(reference)
            for element, values in reference.items():
                assert engine._cache[element].tobytes() == values.tobytes()

    def test_growth_mid_stream_repoints_views(self):
        rng = np.random.default_rng(41)
        base = rng.integers(0, 50, size=self.SHAPE.sizes).astype(np.float64)
        engine, materialized = self._engine(base)
        engine.range_sum(((0, 2), (0, 2), (0, 2)))  # a partial cache
        first, capacity = len(engine._cache), engine._arena.size
        held = next(iter(engine._cache.values()))
        batches = self._batches(rng, float_data=False)
        for step in range(2):
            coords, deltas = next(batches)
            materialized.apply_updates(coords, deltas)
            np.add.at(base, tuple(coords.T), deltas)
            engine.apply_updates(coords, deltas)
            if step == 0:
                engine.range_sum(((1, 7), (3, 13), (1, 4)))
                engine.range_sum(((0, 8), (1, 16), (0, 3)))
        assert len(engine._cache) > first
        assert engine._arena.size > capacity
        for element, values in engine._cache.items():
            assert values.flags.c_contiguous
            assert np.shares_memory(values, engine._arena)
            assert np.array_equal(values, compute_element(base, element))
        # A view handed out before the growth still reads the old slot.
        assert not np.shares_memory(held, engine._arena)

    def test_invalidate_then_reassemble(self):
        rng = np.random.default_rng(43)
        base = rng.integers(0, 50, size=self.SHAPE.sizes).astype(np.float64)
        engine, materialized = self._engine(base)
        ranges = ((1, 7), (3, 13), (1, 4))
        batches = self._batches(rng, float_data=False)

        def update():
            coords, deltas = next(batches)
            materialized.apply_updates(coords, deltas)
            np.add.at(base, tuple(coords.T), deltas)
            return engine.apply_updates(coords, deltas)

        engine.range_sum(ranges)
        address = engine._arena.ctypes.data
        engine.invalidate()
        assert not engine._cache
        assert update() == 0
        assert engine.range_sum(ranges).value == base[1:7, 3:13, 1:4].sum()
        # Nobody held a view, so the re-assembly refilled the same pages.
        assert engine._arena.ctypes.data == address
        assert update() == len(engine._cache)
        for element, values in engine._cache.items():
            assert np.array_equal(values, compute_element(base, element))

        # A view held across invalidate() keeps its slot untouched.
        held = next(iter(engine._cache.values()))
        frozen = held.copy()
        engine.invalidate()
        engine.range_sum(ranges)
        update()
        assert not np.shares_memory(held, engine._arena)
        assert held.tobytes() == frozen.tobytes()
        for element, values in engine._cache.items():
            assert np.array_equal(values, compute_element(base, element))

    def test_patches_survive_concurrent_growth(self):
        # One thread patches while another keeps installing intermediates
        # (each arena growth copies the slots and re-points the views).  A
        # patch that landed in an arena a growth had already copied would
        # be lost; the slots cached before the race must end up exact.
        shape = CubeShape((16, 64, 64))
        rng = np.random.default_rng(59)
        base = rng.integers(0, 50, size=shape.sizes).astype(np.float64)
        engine = RangeQueryEngine(
            MaterializedSet.from_cube(base.copy(), [shape.root()])
        )
        combos = [
            (a, b, c)
            for a in range(shape.depths[0] + 1)
            for b in range(shape.depths[1] + 1)
            for c in range(shape.depths[2] + 1)
        ]
        order = rng.permutation(len(combos))
        for i in order[:4]:
            engine.range_sum(tuple((0, 1 << k) for k in combos[i]))
        before, capacity = dict(engine._cache), engine._arena.size
        batches = []
        for _ in range(300):
            coords = np.stack(
                [rng.integers(0, n, size=4) for n in shape.sizes], axis=1
            )
            batches.append((coords, rng.integers(-9, 10, size=4) * 1.0))

        def patch():
            for coords, deltas in batches:
                engine.apply_updates(coords, deltas)

        def grow():
            for i in order[4:]:
                engine.range_sum(tuple((0, 1 << k) for k in combos[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=patch),
                threading.Thread(target=grow),
                threading.Thread(target=patch),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for coords, deltas in batches + batches:
            np.add.at(base, tuple(coords.T), deltas)
        for element in before:
            assert np.array_equal(
                engine._cache[element], compute_element(base, element)
            )
        assert engine._arena.size > capacity  # the race window existed


class TestShardedBatchRouting:
    def _sharded(self, sizes=(8, 8), shards=4, seed=17):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 50, size=sizes).astype(np.float64)
        shape = CubeShape(sizes)
        partition = CubePartition.for_shape(shape, shards)
        sharded = ShardedSet(partition, base_values=base)
        sharded.store(shape.root(), base)
        return sharded, base, shape

    def test_bulk_matches_single_cell_routing(self):
        sharded, base, shape = self._sharded()
        single, _, _ = self._sharded()
        rng = np.random.default_rng(19)
        coords = np.stack(
            [rng.integers(0, n, size=10) for n in shape.sizes], axis=1
        )
        deltas = rng.integers(-5, 6, size=10).astype(np.float64)
        sharded.apply_updates(coords, deltas)
        for row, delta in zip(coords, deltas):
            single.apply_update(tuple(int(c) for c in row), float(delta))
        assert (
            sharded.assemble(shape.root()).tobytes()
            == single.assemble(shape.root()).tobytes()
        )

    def test_only_owning_shards_bump_epochs(self):
        sharded, _, shape = self._sharded(shards=4)
        axis = sharded.partition.axis
        extent = sharded.partition.shard_extent
        before = sharded.epochs
        # All deltas land in shard 2's slab of the shard axis.
        coords = np.zeros((3, len(shape.sizes)), dtype=np.int64)
        coords[:, axis] = 2 * extent
        sharded.apply_updates(coords, [1.0, 2.0, 3.0])
        after = sharded.epochs
        assert after[2] == before[2] + 1
        assert [a for i, a in enumerate(after) if i != 2] == [
            b for i, b in enumerate(before) if i != 2
        ]

    def test_validation_and_empty_batch(self):
        sharded, _, _ = self._sharded()
        with pytest.raises(ValueError, match="outside"):
            sharded.apply_updates(np.array([[0, 99]]), [1.0])
        with pytest.raises(ValueError, match="deltas must be"):
            sharded.apply_updates(np.array([[0, 0]]), [1.0, 2.0])
        before = sharded.epochs
        sharded.apply_updates(np.empty((0, 2), dtype=np.int64), [])
        assert sharded.epochs == before

    def test_array_refs_is_empty(self):
        sharded, _, _ = self._sharded()
        assert sharded.array_refs() == {}


def _make_server(sizes=(8, 16), seed=29, **kwargs):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 50, size=sizes).astype(np.float64)
    dims = [Dimension(f"d{i}", list(range(n))) for i, n in enumerate(sizes)]
    return (
        OLAPServer(DataCube(values.copy(), dims, measure="m"), **kwargs),
        values,
    )


class TestServerUpdatePath:
    def test_warm_cache_is_patched_not_cleared(self):
        server, base = _make_server()
        server.view(["d0"])
        server.view(["d1"])
        server.range_sum(((1, 7), (3, 13)))
        server.update(5.0, d0=3, d1=9)
        server.update_many(np.array([[0, 0], [7, 15]]), [1.0, -2.0])
        ref = base.copy()
        ref[3, 9] += 5.0
        ref[0, 0] += 1.0
        ref[7, 15] += -2.0
        assert np.array_equal(server.cube.values, ref)
        assert np.array_equal(
            server.view(["d0"]).ravel(), ref.sum(axis=1)
        )
        assert server.range_sum(((1, 7), (3, 13))) == ref[1:7, 3:13].sum()
        health = server.health()
        assert health["updates"] == 3
        assert health["updates_cache_patched"] > 0
        assert health["updates_cache_cleared"] == 0
        # The result cache was never wholesale-cleared.
        assert (
            server.metrics.counter("view_cache_clears_total").total() == 0
        )

    def test_update_many_accepts_mappings(self):
        server, base = _make_server()
        server.update_many([{"d0": 2, "d1": 4}, {"d0": 2, "d1": 4}], [3.0, 1.0])
        assert server.cube.values[2, 4] == base[2, 4] + 4.0

    def test_update_many_validates(self):
        server, _ = _make_server()
        with pytest.raises(ValueError, match="outside"):
            server.update_many(np.array([[0, 99]]), [1.0])
        with pytest.raises(ValueError, match="deltas must be"):
            server.update_many(np.array([[0, 0]]), [1.0, 2.0])
        server.update_many(np.empty((0, 2), dtype=np.int64), [])  # no-op

    def test_stored_aliases_are_not_double_patched(self):
        # The root is stored; a full-cube view serves the stored array by
        # reference and caches that same object.  The patcher must skip
        # it — apply_updates already repaired storage — or the delta
        # would land twice.
        server, base = _make_server()
        full = server.view(["d0", "d1"])
        server.update(7.0, d0=1, d1=2)
        ref = base.copy()
        ref[1, 2] += 7.0
        assert np.array_equal(server.view(["d0", "d1"]), ref)
        assert np.array_equal(full, ref)  # same live array, patched once

    def test_clear_policy_restores_legacy_behaviour(self):
        server, base = _make_server(update_policy="clear")
        server.view(["d0"])
        server.update(2.0, d0=1, d1=1)
        health = server.health()
        assert health["updates_cache_cleared"] == 1
        assert health["updates_cache_patched"] == 0
        ref = base.copy()
        ref[1, 1] += 2.0
        assert np.array_equal(server.view(["d0"]).ravel(), ref.sum(axis=1))

    def test_clear_policy_drops_intermediates_each_update(self):
        server, base = _make_server(update_policy="clear")
        ref = base.copy()
        rng = np.random.default_rng(47)
        for _ in range(3):
            assert server.range_sum(((1, 7), (3, 13))) == ref[1:7, 3:13].sum()
            assert server._state.range_engine._cache
            coords = np.stack(
                [rng.integers(0, n, size=5) for n in ref.shape], axis=1
            )
            deltas = rng.integers(-9, 10, size=5).astype(np.float64)
            server.update_many(coords, deltas)
            np.add.at(ref, tuple(coords.T), deltas)
            assert not server._state.range_engine._cache
        assert server.range_sum(((0, 8), (1, 16))) == ref[:, 1:].sum()

    def test_sharded_range_answers_match_monolithic(self):
        mono, base = _make_server(seed=31)
        sharded, _ = _make_server(seed=31, shards=2)
        ref = base.copy()
        rng = np.random.default_rng(53)
        probes = [((1, 7), (3, 13)), ((0, 8), (0, 16)), ((2, 5), (7, 16))]
        for _ in range(4):
            for probe in probes:
                a = mono.range_sum(probe)
                b = sharded.range_sum(probe)
                assert np.float64(a).tobytes() == np.float64(b).tobytes()
                lo, hi = zip(*probe)
                assert a == ref[lo[0]:hi[0], lo[1]:hi[1]].sum()
            coords = np.stack(
                [rng.integers(0, n, size=6) for n in ref.shape], axis=1
            )
            coords[-1] = coords[0]
            deltas = rng.integers(-9, 10, size=6).astype(np.float64)
            mono.update_many(coords, deltas)
            sharded.update_many(coords, deltas)
            np.add.at(ref, tuple(coords.T), deltas)

    @pytest.mark.parametrize("shards, expected", [(1, 33), (2, 36)])
    def test_update_operation_count_is_pinned(self, shards, expected):
        # len(deltas) additions per patched stored array, cache entry and
        # cached intermediate: 3 x (1 + 2 + 8) monolithic, 3 x (1 + 2 + 9)
        # sharded (the shard patch counts once).
        server, _ = _make_server(shards=shards)
        server.view(["d0"])
        server.view(["d1"])
        server.range_sum(((1, 7), (3, 13)))
        server.range_sum(((0, 5), (2, 16)))
        ops = server.metrics.counter("server_operations_total")
        before = ops.total()
        server.update_many(
            np.array([[0, 0], [7, 15], [0, 0]]), [1.0, -2.0, 3.0]
        )
        assert ops.total() - before == expected

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="update_policy"):
            _make_server(update_policy="nuke")

    def test_sharded_update_leaves_other_shards_warm(self):
        server, base = _make_server(sizes=(8, 16), shards=4)
        server.view(["d0"])
        before = server.materialized.epochs
        server.update(3.0, d0=0, d1=1)  # shard axis 1, owner shard 0
        after = server.materialized.epochs
        assert after[0] == before[0] + 1
        assert after[1:] == before[1:]
        ref = base.copy()
        ref[0, 1] += 3.0
        assert np.array_equal(server.view(["d0"]).ravel(), ref.sum(axis=1))
        assert server.health()["updates_cache_cleared"] == 0

    def test_patch_failure_falls_back_to_coarse(self, monkeypatch):
        server, base = _make_server()
        server.view(["d0"])
        monkeypatch.setattr(
            type(server._state.range_engine),
            "apply_updates",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        server.update(4.0, d0=2, d1=2)
        health = server.health()
        assert health["updates_cache_cleared"] == 1
        ref = base.copy()
        ref[2, 2] += 4.0
        # Coarse fallback is cold but still correct.
        assert np.array_equal(server.view(["d0"]).ravel(), ref.sum(axis=1))
