"""One end-to-end OLAP serving benchmark over the public ``OLAPServer`` API.

Run from the repository root::

    python3 olapbench/run.py --workload dashboard --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs the same op stream twice on fresh servers, untraced and
then traced through the per-layer wrappers of ``layers.py``, and reports the
per-layer metrics plus the tracing overhead.  Every answer is checked
against a numpy shadow cube outside the timed interval.  Human-readable
lines come first; the last line of standard output is one JSON object.
The command exits non-zero on any wrong answer, and with code 2 (printing
no result) when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import hostspeed
import layers
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    """``BENCHMARK.json``: the metric names and units the result line carries."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


#: Per-layer metrics that count work over the traced pass's first block;
#: they repeat exactly for a seed.
COUNT_METRICS = (
    "obs.spans_per_op",
    "obs.cache.hit_ratio",
    "obs.cache.lookups",
    "obs.cache.evictions_per_op",
    "planning.calls_per_op",
    "exec.scalar_ops_per_query",
    "range_query.cells_read",
    "range_query.intermediates_assembled",
    "delta.entries_patched_per_update",
    "wal.bytes_per_cell",
    "select.graph_nodes",
)

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)


# ----------------------------------------------------------------------
# Statistics


def tail(samples) -> tuple[float | None, float | None]:
    """The highest ladder percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(samples, p))
    return None, None


def latency_metrics(result: wl.PassResult) -> dict:
    """Every end-to-end latency family the workload exercised."""
    out = {}
    for family, samples in sorted(result.latencies.items()):
        if family == "reconfigure":
            out["reconfigure_s"] = {
                "value": statistics.median(samples), "unit": "s",
                "samples": len(samples),
            }
            continue
        us = np.asarray(samples) * 1e6
        out[f"{family}_p50_us"] = {
            "value": float(np.median(us)), "unit": "us", "samples": len(us),
        }
        p, value = tail(us)
        if p is not None:
            out[f"{family}_tail_us"] = {
                "value": value, "unit": "us", "percentile": p,
                "samples": len(us), "beyond": int(len(us) * (100 - p) / 100),
            }
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Provenance


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over the program's source files, paths included."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    return {
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": wl.PARAMS[args.workload],
        "setup_repeats": wl.SETUP_REPEATS,
        "reference_job_nominal_s": hostspeed.NOMINAL_S,
    }


# ----------------------------------------------------------------------
# Runs


def durable_ok(server, directory, result) -> bool | None:
    """Untimed: restoring from the run's directory must give the shadow cube."""
    server.close()
    if directory is None:
        return None
    return wl.restore_matches(directory, result.shadow)


def measure(plan, args, work: Path) -> tuple[dict, wl.PassResult, bool]:
    """The end-to-end run: several setups, then one timed closed loop.

    ``setup_s`` and ``ops_per_s`` are medians of samples scaled to the
    nominal host (``hostspeed``); the raw medians are printed beside them.
    """
    setups, scaled = [], []
    with hostspeed.HostSpeed() as host:
        for r in range(wl.SETUP_REPEATS):
            before = host.factor()
            server, directory, seconds = wl.setup(plan, work, f"setup{r}")
            setups.append(seconds)
            scaled.append(seconds * 2 / (before + host.factor()))
            if r + 1 < wl.SETUP_REPEATS:
                server.close()
                if directory is not None:
                    shutil.rmtree(directory, ignore_errors=True)
                del server
                gc.collect()
        result = wl.run_loop(server, plan, args.seconds, host=host)
    restored = durable_ok(server, directory, result)
    metrics = {
        "setup_s": {
            "value": statistics.median(scaled), "unit": "s",
            "samples": len(setups), "raw_median": statistics.median(setups),
        },
        "ops_per_s": {
            "value": result.ops_per_s(), "unit": "1/s",
            "blocks": len(result.block_rates),
            "raw_median": statistics.median(result.block_rates),
            "host_factor_median": statistics.median(result.host_factors),
        },
        "failed_frac": {
            "value": result.failed / result.attempted, "unit": "ratio",
        },
        **latency_metrics(result),
        "stored_cells_ratio": {
            "value": result.stored_cells_ratio, "unit": "ratio",
        },
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    if restored is not None:
        metrics["durability_restore_ok"] = {"value": restored, "unit": "bool"}
    return metrics, result, restored is not False


def _wal_bytes(directory) -> int:
    if directory is None:
        return 0
    return sum(p.stat().st_size for p in (Path(directory) / "wal").glob("*") if p.is_file())


class _Window:
    """Counts at the start and the end of the traced pass's first block."""

    def __init__(self, rec: layers.Recorder, window: int):
        self.rec, self.window = rec, window
        self.server = self.directory = None
        self.marks: dict[int, dict] = {}

    def __call__(self, i: int) -> None:
        if i in (0, self.window) and i not in self.marks:
            self.marks[i] = self.snapshot()
        self.rec.op = i

    def snapshot(self) -> dict:
        metrics = self.server.metrics
        total = lambda name: metrics.get(name).total() if metrics.get(name) else 0.0
        return {
            "counts": Counter(self.rec.counts),
            "calls": Counter(self.rec.calls),
            "operations": self.server.stats.operations,
            "queries": self.server.stats.queries,
            "evictions": total("view_cache_evictions_total"),
            "assembled": total("range_intermediate_assembled_total"),
            "wal_bytes": _wal_bytes(self.directory),
        }

    def delta(self) -> dict:
        a, b = self.marks[0], self.marks[self.window]
        return {
            key: (b[key] - a[key]) if not isinstance(b[key], Counter)
            else Counter({k: b[key][k] - a[key].get(k, 0) for k in b[key]})
            for key in b
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace(plan, args, work: Path, keep_spans: bool) -> tuple[dict, list, bool, dict]:
    """Untraced then traced pass of the same op stream; per-layer metrics."""
    block = wl.PARAMS[plan.name]["block_ops"]
    half = args.seconds / 2.0

    server, directory, _ = wl.setup(plan, work, "untraced")
    plain = wl.run_loop(server, plan, half, keep_digests=True)
    ok_plain = durable_ok(server, directory, plain) is not False
    del server
    gc.collect()

    rec = layers.Recorder(keep_ops=block if keep_spans else 0)
    marks = _Window(rec, block)
    with rec:
        server, directory, _ = wl.setup(plan, work, "traced")
        marks.server, marks.directory = server, directory
        traced = wl.run_loop(
            server, plan, half, on_op=marks, keep_digests=True
        )
        rec.op = -1
    ok_traced = durable_ok(server, directory, traced) is not False

    d = marks.delta()
    dc, dcalls = d["counts"], d["calls"]
    n, busy = traced.attempted, traced.busy_s
    per_op_us = lambda layer: rec.self_s.get(layer, 0.0) / n * 1e6
    median_s = lambda name: (
        statistics.median(rec.durations[name]) if rec.durations.get(name) else 0.0
    )
    common = min(len(plain.digests), len(traced.digests))
    identical = plain.digests[:common] == traced.digests[:common]
    p50 = lambda r: float(np.median(r.latencies["view"]))
    metrics = {
        **{f"{layer}.self_us": per_op_us(layer) for layer in (
            "server", "obs", "obs.cache", "planning", "exec", "materialize",
            "range_query", "delta", "shard",
        )},
        "obs.spans_per_op": dc["obs.spans"] / block,
        "obs.cache.hit_ratio": _ratio(dc["cache.hits"], dc["cache.lookups"]),
        "obs.cache.lookups": float(dc["cache.lookups"]),
        "obs.cache.evictions_per_op": d["evictions"] / block,
        "planning.share": _ratio(rec.self_s.get("planning", 0.0), busy),
        "planning.calls_per_op": dcalls["planning"] / block,
        "exec.scalar_ops_per_query": _ratio(d["operations"], d["queries"]),
        "materialize.migrate_s": (
            statistics.median(rec.migrate_s) if rec.migrate_s else 0.0
        ),
        "range_query.cells_read": _ratio(dc["range.cells_read"], dc["range.queries"]),
        "range_query.intermediates_assembled": _ratio(d["assembled"], dc["range.queries"]),
        "delta.entries_patched_per_update": _ratio(dc["delta.entries_patched"], dc["updates"]),
        "wal.append_us": _ratio(rec.self_s["wal"], rec.calls["wal"]) * 1e6,
        "wal.bytes_per_cell": _ratio(d["wal_bytes"], dc["update.cells"]),
        "select.alg1_s": median_s(layers.ALG1),
        "select.alg2_s": median_s(layers.ALG2),
        "select.tables_s": sum(rec.durations.get(layers.TABLES, [])),
        "select.graph_nodes": float(marks.marks[block]["counts"]["select.graph_nodes"]),
        "trace.view_p50_ratio": p50(traced) / p50(plain),
        "trace.answers_identical": 1.0 if identical else 0.0,
    }
    units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    out = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    extra = {
        "untraced_view_p50_us": p50(plain) * 1e6,
        "traced_view_p50_us": p50(traced) * 1e6,
        "traced_ops": n,
        "block_ops": block,
        "answers_compared": common,
        "stored_cells_ratio": traced.stored_cells_ratio,
        "layer_self_s": dict(rec.self_s),
        "layer_calls": dict(rec.calls),
        "spans": rec.kept_spans() if keep_spans else None,
    }
    ok = ok_plain and ok_traced and identical
    return out, [plain, traced], ok, extra


# ----------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.PARAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--report", type=Path, default=None,
        help="also write the full report (and traced spans) as JSON here",
    )
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro  # the program under test, from this checkout only
    except ImportError as exc:
        print(f"olapbench: cannot import repro from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(repro.__file__).resolve().parents:
        print(f"olapbench: repro was imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    work = ROOT / ".olapbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = wl.build_plan(args.workload, args.seed)
        if args.trace:
            metrics, passes, ok, extra = trace(plan, args, work, args.report is not None)
        else:
            metrics, result, ok = measure(plan, args, work)
            passes, extra = [result], {}
        listed = spec()["per_layer" if args.trace else "end_to_end"]
        emitted = {m["name"]: metrics[m["name"]] for m in listed}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = sum(p.wrong for p in passes)
    correct = ok and wrong == 0
    prov = provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        detail = ", ".join(f"{k}={v}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"metric {name} = {m['value']} {m['unit']}" + (f"  ({detail})" if detail else ""))
    for key, value in extra.items():
        if key not in ("spans", "layer_self_s", "layer_calls"):
            print(f"info {key} = {value}")
    for p in passes:
        for err in p.errors[:20]:
            print(f"error {err}")
    if args.report is not None:
        args.report.write_text(json.dumps({
            "provenance": prov, "correct": correct, "attempted": attempted,
            "failed": failed, "metrics": metrics, "extra": extra,
        }, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in emitted.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
