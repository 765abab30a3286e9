"""Opt-in per-op profiling: wall time + bytes moved, keyed by geometry.

A :class:`PlanProfiler` attaches to an
:class:`~repro.core.sparse_exec.ExecutionPlan` (``plan.profiler = ...``)
and the plan's conv ops feed it one record per dispatch: the op's
memoized geometry tuple, the strategy that ran, the measured wall time,
and the bytes the dispatch touched (input + weight + output).  The
accumulator is constant-size per distinct ``(geometry, strategy)`` pair,
so profiling a long serving run costs a dict lookup and a few float adds
per op — but it is still a timer call per conv, which is why it is
opt-in and separate from the always-cheap dispatch counters.
``perfbench/run.py --trace 1`` takes its per-kernel and per-block layer
metrics from these snapshots.

Snapshots merge across threads trivially (one profiler, one lock) and
across *processes* via :meth:`snapshot` → ship → :meth:`merge` — the
procpool's ``("stats",)`` round-trip carries worker snapshots home.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["PlanProfiler", "merge_profiles"]

GeometryKey = Tuple[Any, ...]


class PlanProfiler:
    """Accumulates per-(geometry, strategy) wall time and bytes moved."""

    __slots__ = ("_lock", "_cells")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # key -> [calls, seconds, bytes]
        self._cells: Dict[Tuple[GeometryKey, str], List[float]] = {}

    def record(
        self,
        geometry: GeometryKey,
        strategy: str,
        seconds: float,
        nbytes: int,
    ) -> None:
        key = (geometry, strategy)
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                self._cells[key] = [1, seconds, float(nbytes)]
            else:
                cell[0] += 1
                cell[1] += seconds
                cell[2] += nbytes

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-ready rows, hottest geometry first."""
        with self._lock:
            items = [
                (key, list(cell)) for key, cell in self._cells.items()
            ]
        rows = [
            {
                "geometry": list(geometry),
                "strategy": strategy,
                "calls": int(calls),
                "seconds": seconds,
                "ms_per_call": (seconds / calls * 1e3) if calls else 0.0,
                "mbytes": nbytes / 1e6,
                "gb_per_s": (nbytes / seconds / 1e9) if seconds > 0 else 0.0,
            }
            for (geometry, strategy), (calls, seconds, nbytes) in items
        ]
        rows.sort(key=lambda row: row["seconds"], reverse=True)
        return rows

    def merge(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Fold a snapshot from another profiler (thread or process) in."""
        for row in rows:
            self.record(
                tuple(row["geometry"]),
                str(row["strategy"]),
                float(row["seconds"]),
                int(row["mbytes"] * 1e6),
            )
            # record() counted one call; correct to the snapshot's tally.
            key = (tuple(row["geometry"]), str(row["strategy"]))
            with self._lock:
                self._cells[key][0] += int(row["calls"]) - 1

    def reset(self) -> None:
        with self._lock:
            self._cells.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._cells)


def merge_profiles(
    snapshots: Iterable[Optional[Iterable[Mapping[str, Any]]]],
) -> List[Dict[str, Any]]:
    """Merge several snapshot row-lists (e.g. one per worker process)."""
    merged = PlanProfiler()
    for snapshot in snapshots:
        if snapshot:
            merged.merge(snapshot)
    return merged.snapshot()
