"""Seeded OLAP workloads, their numpy shadow oracle, and the closed loop.

Everything a run feeds the server is generated here from ``--seed``, so a
change to the program under test can never change the benchmark's inputs.
Each workload is a single client in a closed loop: the next operation is
drawn and sent only after the previous one returned.  Only the server call
is timed; drawing the operation, checking its answer against the shadow
cube and hashing it happen outside the timed interval.
"""

from __future__ import annotations

import hashlib
import itertools
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Workload name -> fixed parameters, recorded verbatim in every report.
#: ``block_ops``: a run stops only at a multiple of this many ops; a block
#: is one sample of ``ops_per_s``, and the first block is the window the
#: traced run's counts are taken over.  ``reselect`` alternates between
#: ``hot_views`` and its mirror image (``d1`` and ``d2`` swapped, both of
#: extent 8), so every re-selection after the first solves the same
#: problem up to a permutation of dimensions, whatever the seed.
PARAMS = {
    "dashboard": {
        "shape": (16, 64, 64),
        "hot_rollups": 16,
        "zipf_s": 1.2,
        "single_frac": 0.8,
        "batch_size": 5,
        "block_ops": 1000,
    },
    "explore": {
        "shape": (16, 64, 64),
        "single_frac": 0.5,
        "range_frac": 0.4,
        "batch_size": 5,
        "warmup_keys": 128,
        "block_ops": 200,
    },
    "ingest": {
        "shape": (16, 64, 64),
        "shards": 2,
        "durability": {"fsync": "off", "snapshot_interval_s": None},
        "update_frac": 0.3,
        "read_frac": 0.4,
        "update_cells": 32,
        "max_abs_delta": 9,
        "hot_rollups": 8,
        "zipf_s": 1.2,
        "block_ops": 100,
    },
    "reselect": {
        "shape": (4, 8, 8),
        "storage_budget_volumes": 2,
        "hot_views": (("d1",), ("d0", "d1"), ("d0",)),
        "queries_per_phase": 1000,
        "block_ops": 1001,
    },
}

#: Every seed warms the same keys: hot sets and warm-up lists are drawn
#: from this fixed stream, so ``setup_s`` times the same work on every
#: seed.  The seed drives the cube values and the op stream only.
FIXED_PICK = 0

#: Setups per measured run; ``setup_s`` is their (host-scaled) median.
SETUP_REPEATS = 15

#: Operation kind -> the end-to-end latency family it reports under.
FAMILY = {
    "view": "view",
    "rollup": "view",
    "query_batch": "batch",
    "rollup_batch": "batch",
    "range": "range",
    "update": "update",
    "reconfigure": "reconfigure",
}


@dataclass(frozen=True)
class Op:
    """One client request: ``kind`` plus its argument."""

    kind: str
    arg: object = None


def dim_names(shape) -> tuple[str, ...]:
    return tuple(f"d{i}" for i in range(len(shape)))


def make_values(shape, seed: int) -> np.ndarray:
    """Integer-valued float64 cells, so every SUM is exact."""
    rng = np.random.default_rng([seed, 0])
    return rng.integers(0, 100, size=shape).astype(np.float64)


def all_views(shape) -> list[tuple]:
    """Every aggregated view, as ``("view", retained dimension names)``."""
    names = dim_names(shape)
    return [
        ("view", tuple(n for n, keep in zip(names, mask) if keep))
        for mask in itertools.product((True, False), repeat=len(names))
    ]


def all_rollups(shape) -> list[tuple]:
    """Every roll-up that is not also an aggregated view.

    A level of 0 keeps a dimension and the top level sums it away, so a
    level tuple made only of those two values names an aggregated view;
    the rest are the genuine dyadic roll-ups.
    """
    tops = [n.bit_length() - 1 for n in shape]
    out = []
    for levels in itertools.product(*[range(t + 1) for t in tops]):
        if all(k in (0, t) for k, t in zip(levels, tops)):
            continue
        out.append(("rollup", levels))
    return out


def zipf_weights(n: int, s: float, rng) -> np.ndarray:
    """Zipf(s) probabilities over ``n`` items, ranks shuffled by ``rng``."""
    w = 1.0 / np.arange(1, n + 1) ** s
    return (w / w.sum())[rng.permutation(n)]


def random_range(rng, shape) -> tuple:
    bounds = []
    for n in shape:
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo + 1, n + 1))
        bounds.append((lo, hi))
    return tuple(bounds)


def covering_ranges(shape) -> list[tuple]:
    """Ranges whose dyadic decompositions together touch every level combination.

    Per dimension of extent ``n >= 4``: ``[1, n-1)`` touches every level
    below ``log2(n) - 1``, ``[0, n/2)`` that level, ``[0, n)`` the top one.
    Serving these once assembles every range intermediate, so later range
    sums and updates run against the full warm state from the first op.
    """
    per_dim = [((1, n - 1), (0, n // 2), (0, n)) for n in shape]
    return list(itertools.product(*per_dim))


def key_op(key) -> Op:
    return Op(key[0], key[1])


def _block_mix(rng, block: int, fractions: dict) -> list:
    """One block's op kinds: exact counts per kind, in a seeded order.

    Fixing the counts per block keeps the mix from drifting between blocks
    and runs; only the order and the arguments are random.
    """
    kinds = []
    for kind, frac in fractions.items():
        kinds += [kind] * round(block * frac)
    kinds += [kind] * (block - len(kinds))
    rng.shuffle(kinds)
    return kinds


def _pick(rng, keys, weights=None):
    return keys[int(rng.choice(len(keys), p=weights))]


def _distinct(rng, keys, k, weights=None) -> list:
    idx = rng.choice(len(keys), size=k, replace=False, p=weights)
    return [keys[int(i)] for i in idx]


@dataclass
class Plan:
    """A workload instance: cube, server options, warm-up, op stream."""

    name: str
    shape: tuple
    values: np.ndarray
    server_kwargs: dict
    durable: bool
    warmup: list
    _stream: object = field(repr=False, default=None)

    def ops(self):
        """A fresh, identical op stream (one per pass)."""
        return self._stream()


def build_plan(name: str, seed: int) -> Plan:
    """Generate every input of workload ``name`` from ``seed``."""
    p = PARAMS[name]
    shape = p["shape"]
    values = make_values(shape, seed)
    # Hot sets and warm-up lists come from a fixed stream (the same for
    # every seed); the Zipf ranks and the op stream from seeded ones.
    fixed = np.random.default_rng(FIXED_PICK)
    pick = np.random.default_rng([seed, 1])
    views, rollups = all_views(shape), all_rollups(shape)
    kwargs: dict = {}
    durable = False

    if name == "dashboard":
        hot = views + _distinct(fixed, rollups, p["hot_rollups"])
        weights = zipf_weights(len(hot), p["zipf_s"], pick)
        view_w = weights[: len(views)] / weights[: len(views)].sum()
        warmup = [key_op(k) for k in hot]

        mix = {"single": p["single_frac"], "batch": 1 - p["single_frac"]}

        def stream():
            rng = np.random.default_rng([seed, 2])
            while True:
                for kind in _block_mix(rng, p["block_ops"], mix):
                    if kind == "single":
                        yield key_op(_pick(rng, hot, weights))
                    else:
                        batch = _distinct(rng, views, p["batch_size"], view_w)
                        yield Op("query_batch", [k[1] for k in batch])

    elif name == "explore":
        keys = views + rollups
        warmup = [key_op(k) for k in _distinct(fixed, keys, p["warmup_keys"])]
        warmup += [Op("range", r) for r in covering_ranges(shape)]

        mix = {
            "single": p["single_frac"],
            "range": p["range_frac"],
            "batch": 1 - p["single_frac"] - p["range_frac"],
        }

        def stream():
            rng = np.random.default_rng([seed, 2])
            while True:
                for kind in _block_mix(rng, p["block_ops"], mix):
                    if kind == "single":
                        yield key_op(_pick(rng, keys))
                    elif kind == "range":
                        yield Op("range", random_range(rng, shape))
                    else:
                        batch = _distinct(rng, rollups, p["batch_size"])
                        yield Op("rollup_batch", [k[1] for k in batch])

    elif name == "ingest":
        hot = views + _distinct(fixed, rollups, p["hot_rollups"])
        weights = zipf_weights(len(hot), p["zipf_s"], pick)
        kwargs = {"shards": p["shards"]}
        durable = True
        warmup = [key_op(k) for k in hot]
        warmup += [Op("range", r) for r in covering_ranges(shape)]

        mix = {
            "update": p["update_frac"],
            "read": p["read_frac"],
            "range": 1 - p["update_frac"] - p["read_frac"],
        }

        def stream():
            rng = np.random.default_rng([seed, 2])
            n, m = p["update_cells"], p["max_abs_delta"]
            while True:
                for kind in _block_mix(rng, p["block_ops"], mix):
                    if kind == "update":
                        coords = np.stack(
                            [rng.integers(0, s, size=n) for s in shape], axis=1
                        ).astype(np.int64)
                        deltas = rng.integers(-m, m + 1, size=n).astype(np.float64)
                        yield Op("update", (coords, deltas))
                    elif kind == "read":
                        yield key_op(_pick(rng, hot, weights))
                    else:
                        yield Op("range", random_range(rng, shape))

    elif name == "reselect":
        kwargs = {"storage_budget": p["storage_budget_volumes"] * values.size}
        warmup = [key_op(k) for k in views + rollups]
        hot = [("view", dims) for dims in p["hot_views"]]
        mirror = {"d1": "d2", "d2": "d1"}
        hot_sets = (hot, [
            ("view", tuple(sorted(mirror.get(d, d) for d in dims)))
            for _, dims in hot
        ])

        def stream():
            rng = np.random.default_rng([seed, 2])
            for hot in itertools.cycle(hot_sets):
                for _ in range(p["queries_per_phase"]):
                    yield key_op(_pick(rng, hot))
                yield Op("reconfigure")

    else:
        raise KeyError(f"unknown workload {name!r}; have {sorted(PARAMS)}")

    return Plan(name, shape, values, kwargs, durable, warmup, stream)


# ----------------------------------------------------------------------
# The shadow oracle


class Shadow:
    """A numpy copy of the cube that answers every query independently.

    Views are axis sums, roll-ups are dyadic block sums, ranges are slice
    sums.  Data are integer-valued, so answers compare exactly.
    """

    def __init__(self, values: np.ndarray):
        self.values = values.copy()
        self.names = dim_names(values.shape)
        self._memo: dict = {}

    def answer(self, key) -> np.ndarray:
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._compute(key)
        return hit

    def _compute(self, key) -> np.ndarray:
        kind, arg = key
        if kind == "view":
            axes = tuple(
                i for i, n in enumerate(self.names) if n not in set(arg)
            )
            return self.values.sum(axis=axes, keepdims=True)
        blocked = []
        for n, k in zip(self.values.shape, arg):
            blocked += [n >> k, 1 << k]
        return self.values.reshape(blocked).sum(
            axis=tuple(range(1, 2 * len(arg), 2))
        )

    def range_sum(self, ranges) -> float:
        return float(self.values[tuple(slice(lo, hi) for lo, hi in ranges)].sum())

    def apply(self, coords, deltas) -> None:
        np.add.at(self.values, tuple(coords.T), deltas)
        self._memo.clear()


def check(shadow: Shadow, op: Op, result) -> bool:
    """Whether ``result`` is exactly the shadow's answer to ``op``."""
    if op.kind in ("view", "rollup"):
        return _same(result, shadow.answer((op.kind, op.arg)))
    if op.kind == "query_batch":
        keys = [("view", tuple(a)) for a in op.arg]
    elif op.kind == "rollup_batch":
        keys = [("rollup", tuple(a)) for a in op.arg]
    elif op.kind == "range":
        return float(result) == shadow.range_sum(op.arg)
    else:  # update, reconfigure: checked by every later read
        return True
    return len(result) == len(keys) and all(
        _same(r, shadow.answer(k)) for r, k in zip(result, keys)
    )


def _same(got, want) -> bool:
    got = np.asarray(got)
    return got.shape == want.shape and bool(np.array_equal(got, want))


def digest(result) -> str:
    """Stable fingerprint of one answer, for traced-vs-untraced identity."""
    h = hashlib.blake2b(digest_size=16)
    parts = result if isinstance(result, list) else [result]
    for part in parts:
        if part is None:
            h.update(b"none")
        elif isinstance(part, tuple):
            h.update(repr(part).encode())
        else:
            a = np.ascontiguousarray(part)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Serving


def new_server(plan: Plan, work: Path, tag: str):
    """A fresh server over the plan's cube (durable workloads get a dir)."""
    from repro import OLAPServer
    from repro.cube.datacube import DataCube
    from repro.cube.dimensions import Dimension
    from repro.durability import DurabilityConfig

    dims = [Dimension(n, list(range(s))) for n, s in zip(dim_names(plan.shape), plan.shape)]
    kwargs = dict(plan.server_kwargs)
    directory = None
    if plan.durable:
        directory = work / tag
        shutil.rmtree(directory, ignore_errors=True)
        kwargs["durability"] = DurabilityConfig(
            directory, **PARAMS[plan.name]["durability"]
        )
    server = OLAPServer(DataCube(plan.values.copy(), dims), **kwargs)
    return server, directory


def prepare(server, op: Op):
    """The bound server method and arguments that send ``op``."""
    kind, arg = op.kind, op.arg
    names = dim_names(server.cube.values.shape)
    if kind == "view":
        return server.view, (arg,)
    if kind == "rollup":
        return server.rollup, (dict(zip(names, arg)),)
    if kind == "query_batch":
        return server.query_batch, (arg,)
    if kind == "rollup_batch":
        return server.rollup_batch, ([dict(zip(names, a)) for a in arg],)
    if kind == "range":
        return server.range_sum, (arg,)
    if kind == "update":
        return server.update_many, arg
    if kind == "reconfigure":
        return server.reconfigure, ()
    raise ValueError(f"unknown op kind {kind!r}")


def call(server, op: Op):
    """Send one request; returns what the server returned."""
    fn, args = prepare(server, op)
    return fn(*args)


def setup(plan: Plan, work: Path, tag: str):
    """Construct a server and warm it; returns ``(server, dir, seconds)``."""
    start = time.perf_counter()
    server, directory = new_server(plan, work, tag)
    for op in plan.warmup:
        call(server, op)
    return server, directory, time.perf_counter() - start


@dataclass
class PassResult:
    """What one closed-loop pass measured."""

    latencies: dict = field(default_factory=dict)  # family -> [seconds]
    served: int = 0
    busy_s: float = 0.0
    blocks: int = 0
    block_rates: list = field(default_factory=list)  # served ops / busy s
    host_factors: list = field(default_factory=list)  # one per block edge
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    digests: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    stored_cells_ratio: float | None = None
    shadow: Shadow | None = None

    def normalised_rates(self) -> list:
        """Each block's throughput as on the nominal host (``hostspeed``).

        A block's throughput is its served ops per second of summed op
        latency, scaled by the mean host factor at its two edges.
        """
        if not self.host_factors:
            return list(self.block_rates)
        f = self.host_factors
        return [r * (f[i] + f[i + 1]) / 2 for i, r in enumerate(self.block_rates)]

    def ops_per_s(self) -> float:
        """The median per-block throughput, on the nominal host."""
        rates = self.normalised_rates()
        return statistics.median(rates) if rates else 0.0


def run_loop(
    server,
    plan: Plan,
    seconds: float,
    on_op=None,
    keep_digests: bool = False,
    host=None,
) -> PassResult:
    """Serve the plan's op stream in whole blocks until ``seconds`` passed.

    ``on_op(i)`` is called before op ``i`` is sent, and once more with the
    op count at the end (the tracer stamps spans and cuts its count window
    with it).  ``host``, a ``hostspeed.HostSpeed``, is sampled at every
    block edge, outside the timed intervals.
    """
    shadow = Shadow(plan.values)
    out = PassResult()
    volume = plan.values.size
    block = PARAMS[plan.name]["block_ops"]
    deadline = time.perf_counter() + seconds
    mark = (0, 0.0)
    for i, op in enumerate(plan.ops()):
        if i % block == 0:
            if host is not None:
                out.host_factors.append(host.factor())
            if i:
                out.block_rates.append(
                    (out.served - mark[0]) / max(out.busy_s - mark[1], 1e-9)
                )
                mark = (out.served, out.busy_s)
                if time.perf_counter() >= deadline:
                    break
            out.blocks += 1
        if on_op is not None:
            on_op(i)
        out.attempted += 1
        fn, args = prepare(server, op)
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # counted, reported, never hidden
            out.failed += 1
            out.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            if keep_digests:
                out.digests.append("error")
            continue
        elapsed = time.perf_counter() - start
        out.served += 1
        out.busy_s += elapsed
        out.latencies.setdefault(FAMILY[op.kind], []).append(elapsed)
        if op.kind == "update":
            shadow.apply(*op.arg)
        elif op.kind == "reconfigure" and out.stored_cells_ratio is None:
            out.stored_cells_ratio = server.materialized.storage / volume
        if not check(shadow, op, result):
            out.failed += 1
            out.wrong += 1
            out.errors.append(f"{op.kind}: wrong answer for {op.arg!r}")
        if keep_digests:
            out.digests.append(digest(result))
    if on_op is not None:
        on_op(out.attempted)
    if out.stored_cells_ratio is None:
        out.stored_cells_ratio = server.materialized.storage / volume
    out.shadow = shadow
    return out


def restore_matches(directory: Path, shadow: Shadow) -> bool:
    """Reopen a closed durable server; every acknowledged update must be in it."""
    from repro import OLAPServer

    restored = OLAPServer.restore(directory)
    try:
        return bool(np.array_equal(restored.cube.values, shadow.values))
    finally:
        restored.close()
