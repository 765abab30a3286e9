"""Per-layer numbers of a traced run, read from outside the program.

Every figure here comes from spans the program already emits (the
session's ``queue_wait`` / ``window_assembly`` / ``engine_execute``, the
plan's ``kernel`` and the pool's ``proc_worker``), from its
``PlanProfiler`` rows, from ``stats()``, or from the benchmark timing a
call into a layer's public function.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.flops import count_flops, dynamic_flops
from repro.nn import Tensor, no_grad
from repro.obs import PlanProfiler, trace_coverage

#: Conv strategies the plan dispatches (``ExecutionPlan.DISPATCH_KINDS``).
STRATEGIES = (
    "dense", "stacked", "grouped", "per_input", "ragged", "ragged_spatial", "per_position",
)
#: Units of the pool's figures, which only the pool workload reports and
#: so ``BENCHMARK.json`` does not list.
POOL_UNITS = {
    "procpool.worker_ms": "ms",
    "procpool.transport_ms": "ms",
    "procpool.window_imbalance": "ratio",
    "procpool.spawn_s": "s",
}
FLOPS_IMAGES = 32
FLOPS_ROUNDS = 3

# Span record fields (``repro.obs.trace``: a plain tuple per span).
TRACE_ID, SPAN_ID, PARENT_ID, NAME, START, END, ATTRS = range(7)


def _p50_ms(values: List[float]) -> float:
    return float(np.median(values)) * 1e3 if values else 0.0


def span_metrics(records: List[tuple], requests: int) -> Dict[str, float]:
    """Session, pool and plan-glue figures from one traced phase."""
    by_name: Dict[str, List[tuple]] = {}
    for record in records:
        by_name.setdefault(record[NAME], []).append(record)

    def durations(name: str) -> List[float]:
        return [r[END] - r[START] for r in by_name.get(name, [])]

    # Every request of a window carries its own engine_execute span with
    # the window's interval; one window is one (worker, start, end).
    windows: Dict[tuple, tuple] = {}
    for r in by_name.get("engine_execute", []):
        windows.setdefault((r[ATTRS].get("worker"), r[START], r[END]), r)
    window_spans = list(windows.values())
    execute_s = sum(r[END] - r[START] for r in window_spans)

    out = {
        "session.queue_wait_ms": _p50_ms(durations("queue_wait")),
        "session.window_assembly_ms": _p50_ms(durations("window_assembly")),
        "session.samples_per_window": float(
            np.mean([r[ATTRS]["samples"] for r in window_spans])
        ) if window_spans else 0.0,
        "session.engine_execute_ms": _p50_ms([r[END] - r[START] for r in window_spans]),
    }
    kernel_s = sum(durations("kernel"))
    workers = by_name.get("proc_worker", [])
    if workers:
        # engine_execute = transport + proc_worker; the plan's glue is the
        # worker's time outside its kernels.
        span_ids = {r[SPAN_ID]: r for r in by_name.get("engine_execute", [])}
        transport = [
            (span_ids[w[PARENT_ID]][END] - span_ids[w[PARENT_ID]][START]) - (w[END] - w[START])
            for w in workers
            if w[PARENT_ID] in span_ids
        ]
        out["procpool.worker_ms"] = _p50_ms(durations("proc_worker"))
        out["procpool.transport_ms"] = _p50_ms(transport)
        plan_s = sum(durations("proc_worker"))
    else:
        plan_s = execute_s
    out["plan.other_ms_per_request"] = max(0.0, plan_s - kernel_s) * 1e3 / requests

    roots = {r[TRACE_ID] for r in by_name.get("bench.request", [])}
    request_records = [r for r in records if r[TRACE_ID] in roots]
    coverage = trace_coverage(request_records)
    out["obs.trace_coverage_min"] = min(
        (entry["coverage"] if entry["connected"] else 0.0) for entry in coverage.values()
    ) if coverage else 0.0
    return out


def profile_metrics(rows: List[dict], requests: int) -> Dict[str, float]:
    """Per-strategy kernel time and bytes moved, per answered request."""
    out = {f"kernel.{s}.ms_per_request": 0.0 for s in STRATEGIES}
    mbytes = 0.0
    for row in rows:
        key = f"kernel.{row['strategy']}.ms_per_request"
        out[key] = out.get(key, 0.0) + row["seconds"] * 1e3 / requests
        mbytes += row["mbytes"]
    out["kernel.mb_per_request"] = mbytes / requests
    return out


def profile_delta(after: List[dict], before: List[dict]) -> List[dict]:
    """Rows of ``after`` minus ``before`` (a profiler that cannot be reset)."""
    base = {(tuple(r["geometry"]), r["strategy"]): r for r in before}
    rows = []
    for row in after:
        prior = base.get((tuple(row["geometry"]), row["strategy"]))
        if prior is None:
            rows.append(row)
        else:
            rows.append(
                dict(row, seconds=row["seconds"] - prior["seconds"],
                     mbytes=row["mbytes"] - prior["mbytes"],
                     calls=row["calls"] - prior["calls"])
            )
    return rows


def engine_memory_metrics(stats: List[dict]) -> Dict[str, float]:
    """Weight-slice cache and workspace figures, summed over plans."""
    hits = sum(s["cache"]["hits"] for s in stats)
    lookups = hits + sum(s["cache"]["misses"] for s in stats)
    return {
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.entries": float(sum(s["cache"]["entries"] for s in stats)),
        "workspace.mb": sum(s["workspace"]["bytes"] for s in stats) / 1e6,
    }


# ----------------------------------------------------------------------
# Achieved vs analytic speedup per block
# ----------------------------------------------------------------------
def _block_of(arch: str, in_c: int, out_c: int, h: int, widths: List[int]) -> Optional[int]:
    """Paper block (VGG, by resolution) or group (ResNet, by width) of a conv."""
    if arch == "vgg16":
        return int(round(np.log2(32 / h)))
    if in_c == 3:
        return None  # the ResNet stem belongs to no group
    return widths.index(out_c)


def _block_kernel_seconds(engine, images: np.ndarray, arch: str, widths: List[int]) -> np.ndarray:
    profiler = PlanProfiler()
    engine.plan.profiler = profiler
    for i in range(0, len(images), 8):
        engine(images[i : i + 8])
    engine.plan.profiler = None
    seconds = np.zeros(len(widths) if arch == "resnet56" else 5)
    for row in profiler.snapshot():
        in_c, out_c, h = row["geometry"][0], row["geometry"][1], row["geometry"][5]
        block = _block_of(arch, in_c, out_c, h, widths)
        if block is not None:
            seconds[block] += row["seconds"]
    return seconds


def achieved_over_analytic(
    arch: str, pruned_engine, dense_engine, flops_handle, images: np.ndarray
) -> Dict[str, float]:
    """Per block: (dense ÷ pruned kernel time) ÷ (dense ÷ pruned ``dynamic_flops``).

    Both engines run the same requests in windows of 8, alternating, and
    each block keeps its median round.  ``flops_handle`` is a separate
    copy of the pruned model whose pruners record the keep fractions of
    those requests through the dense masked forward.
    """
    model = flops_handle.model
    widths = []
    if arch == "resnet56":
        widths = [int(model.conv1.weight.data.shape[0]) * m for m in (1, 2, 4)]
    rounds_pruned, rounds_dense = [], []
    for _ in range(FLOPS_ROUNDS):
        rounds_pruned.append(_block_kernel_seconds(pruned_engine, images, arch, widths))
        rounds_dense.append(_block_kernel_seconds(dense_engine, images, arch, widths))
    achieved = np.median(rounds_dense, axis=0) / np.median(rounds_pruned, axis=0)

    flops_handle.reset_stats()
    with no_grad():
        for i in range(0, len(images), 8):
            model(Tensor(images[i : i + 8]))
    report = count_flops(model, tuple(images.shape[1:]))
    effective = dynamic_flops(flops_handle, tuple(images.shape[1:]), report).per_conv
    base = np.zeros_like(achieved)
    pruned = np.zeros_like(achieved)
    for layer in report.conv_layers():
        if arch == "vgg16":
            block = _block_of(arch, 0, 0, layer.output_shape[1], widths)
        elif layer.path.startswith("group"):
            block = int(layer.path[5]) - 1
        else:
            continue
        base[block] += layer.flops
        pruned[block] += effective.get(layer.path, (layer.flops, layer.flops))[1]
    analytic = base / pruned
    label = "block" if arch == "vgg16" else "group"
    return {
        f"flops.{label}{b + 1}.achieved_over_analytic": float(achieved[b] / analytic[b])
        for b in range(len(achieved))
    }


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start
