"""Measured per-geometry kernel autotuner: calibrated dispatch tables.

``PlanConfig`` picks one execution strategy for every convolution in a
model, but ``BENCH_sparse.json`` shows the winner flips with image size
and keep fraction: the stacked path wins small feature maps, the grouped
path wins large ones, ragged bucketing wins adaptive masks, and the best
im2col tile size tracks the L2 working set of each geometry.  This module
replaces the global knobs with a **measured calibration pass at plan
compile time**:

1. Run a small calibration batch through the untuned plan with capture
   enabled, recording each convolution's *site* — input geometry, pending
   channel mask, ragged flag (:func:`tune_plan`).
2. Deduplicate sites by canonical conv geometry ``(Cin, Cout, k, stride,
   padding, H, W, kind, kept, dtype)`` so repeated layers (e.g. VGG conv
   blocks) measure once.
3. For each unique geometry, execute every *candidate* strategy on the
   captured operands, verify its output is bit-identical to the untuned
   baseline (``np.array_equal`` — candidates outside the structurally
   safe family are rejected, never silently shipped), and time it with a
   noise-robust best-of-N harness.
4. Bake the winner ``(strategy, kept_quantum, tile_rows,
   dense_threshold)`` into a :class:`DispatchTable` the plan consults at
   execution; geometries the table has never seen fall back to the
   heuristic defaults (and count ``dispatch_fallbacks``).

**Bit-identity is by construction, then verified.**  Candidates are
restricted per site to strategies whose per-sample GEMM slices see the
same operand values, shapes, and strides as the baseline:

* *top-k* sites keep a fixed channel count per sample, so the grouped,
  stacked, and exact-width ragged (``kept_quantum=1``) paths are
  interchangeable — each runs the identical ``(Cout, kept*k*k) @
  (kept*k*k, OH*OW)`` slice per sample;
* sites whose baseline ran *dense* (no mask pending, or the batch-mean
  shortcut fired on an input that upstream masking already zeroed) tune
  only the dense path's tile size;
* *ragged* (adaptive) channel sites sweep ``kept_quantum`` — K-dim
  zero-padding feeds extra exact ``+0.0`` terms into the same
  summation, so every quantum is verified ``array_equal`` against the
  **exact-ragged oracle** (``kept_quantum=1``, the unpadded per-sample
  GEMM) rather than excluded structurally.

*Spatial-mask* sites get their own candidate family — the per-position
gather oracle, kept-position-bucketed ``ragged_spatial`` (the untuned
plan's choice) at several quanta, and dense-plus-zeroing.
Cross-strategy bitwise equality is impossible here (a padded-width
bucket GEMM blocks differently from an exact-width one), so spatial
candidates are verified on three axes instead: ``allclose`` against the
per-position oracle at kept positions, *exactly zero* at dropped
positions, and per-request
**bit-identity** (the batched output ``array_equal`` the concatenation
of single-sample runs of the same candidate — the invariant serving
relies on).

Tile-size variants are pure copy blocking (``im2col`` gathers the same
values in a different order) and never change results.  On top of the
structural argument, every candidate's calibration output is verified
against its family's oracle and mismatches are rejected.

The table serializes to a versioned, JSON-safe manifest block
(:data:`DISPATCH_SCHEMA`) that :class:`repro.serve.ModelRegistry`
persists inside artifacts (SHA-256 covered) and
:class:`repro.serve.ProcPoolEngine` ships through spawn args, so tuning
survives reload and reaches every worker process.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..obs import runtime as _obs
from ..obs.metrics import global_registry
from .masks import group_by_kept_count
from .sparse_exec import (
    STACKED_PATH_MAX_POSITIONS,
    group_by_mask_signature,
    output_keep_grid,
    sparse_conv2d,
)

__all__ = [
    "DISPATCH_SCHEMA",
    "GEOMETRY_FIELDS",
    "DispatchEntry",
    "DispatchTable",
    "SiteReport",
    "TuneReport",
    "conv_geometry",
    "synthesize_calibration",
    "tune_plan",
]

#: Versioned schema tag for the serialized dispatch-table manifest block.
#: Bumped on any incompatible change; loaders reject unknown schemas
#: instead of guessing.
DISPATCH_SCHEMA = "repro.dispatch.v1"

#: Field names of the canonical conv-geometry key, in key order.  ``kind``
#: is ``"none"`` (no pending channel mask), ``"topk"`` (fixed per-sample
#: kept-count, recorded in ``kept``), or ``"ragged"`` (adaptive masks,
#: ``kept`` is ``-1``).  A pending spatial mask appends a suffix:
#: ``"+spr"`` (adaptive kept-position counts), ``"+sp<count>"`` (top-k,
#: every sample keeps the same position count).  Geometries the tuner
#: cannot classify safely (mixed kept-counts without the ragged flag —
#: ``"mixed"`` channel kinds or a ``"+spx"`` spatial suffix) are never
#: tuned — lookups miss and fall back to the heuristics.
GEOMETRY_FIELDS = (
    "in_c",
    "out_c",
    "kernel",
    "stride",
    "padding",
    "h",
    "w",
    "kind",
    "kept",
    "dtype",
)

#: Strategies a dispatch entry may name.  The last two are spatial-mask
#: strategies (kept-position bucketing and the per-sample gather
#: oracle); entries carrying them are only ever looked up for
#: geometries whose ``kind`` has a spatial suffix.
STRATEGIES = ("grouped", "stacked", "ragged", "dense", "ragged_spatial", "per_position")


def conv_geometry(
    weight: np.ndarray,
    stride: int,
    padding: int,
    h: int,
    w: int,
    kind: str,
    kept: int,
    dtype: np.dtype,
) -> Tuple:
    """Build the canonical geometry key tuple (see :data:`GEOMETRY_FIELDS`)."""
    return (
        int(weight.shape[1]),
        int(weight.shape[0]),
        int(weight.shape[2]),
        int(stride),
        int(padding),
        int(h),
        int(w),
        str(kind),
        int(kept),
        np.dtype(dtype).name,
    )


@dataclasses.dataclass(frozen=True)
class DispatchEntry:
    """The measured winner for one conv geometry.

    ``tile_rows`` is ``None`` when the default L2 heuristic tile won (the
    runtime then uses the memoized :func:`repro.nn.functional.default_tile_rows`);
    ``dense_threshold`` records the effective threshold the entry encodes
    (``1.0`` for the dense strategy — always dense — else ``0.0``: a tuned
    sparse entry never re-consults the batch-mean shortcut, keeping the
    decision batch-invariant by construction).
    """

    strategy: str
    kept_quantum: int = 1
    tile_rows: Optional[int] = None
    dense_threshold: float = 0.0
    baseline_ms: float = 0.0
    winner_ms: float = 0.0
    sites: int = 1

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.kept_quantum < 1:
            raise ValueError("kept_quantum must be >= 1")
        if self.tile_rows is not None and self.tile_rows < 1:
            raise ValueError("tile_rows must be >= 1 (or None for the heuristic)")


class DispatchTable:
    """Geometry → :class:`DispatchEntry` mapping consulted at execution.

    Lookups are plain dict gets on tuples the plan memoizes per op, so the
    hot-path cost is one hash probe.  Tables are immutable in spirit —
    built once by :func:`tune_plan` or :meth:`from_manifest` — and safe to
    share across threads and plans.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[Dict[Tuple, DispatchEntry]] = None):
        self._entries: Dict[Tuple, DispatchEntry] = dict(entries or {})

    def lookup(self, geometry: Tuple) -> Optional[DispatchEntry]:
        return self._entries.get(geometry)

    def add(self, geometry: Tuple, entry: DispatchEntry) -> None:
        self._entries[geometry] = entry

    def geometries(self) -> List[Tuple]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DispatchTable):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"DispatchTable({len(self._entries)} geometries)"

    def to_manifest(self) -> Dict:
        """JSON-safe manifest block (sorted canonically for stable hashes)."""
        entries = []
        for geo in self.geometries():
            entry = self._entries[geo]
            entries.append(
                {
                    "geometry": dict(zip(GEOMETRY_FIELDS, geo)),
                    "strategy": entry.strategy,
                    "kept_quantum": entry.kept_quantum,
                    "tile_rows": entry.tile_rows,
                    "dense_threshold": entry.dense_threshold,
                    "baseline_ms": entry.baseline_ms,
                    "winner_ms": entry.winner_ms,
                    "sites": entry.sites,
                }
            )
        return {"schema": DISPATCH_SCHEMA, "entries": entries}

    @classmethod
    def from_manifest(cls, manifest: Dict) -> "DispatchTable":
        """Rebuild a table from :meth:`to_manifest` output.

        Raises ``ValueError`` on an unknown schema version — a table tuned
        under different dispatch semantics must not silently steer this
        runtime.
        """
        schema = manifest.get("schema")
        if schema != DISPATCH_SCHEMA:
            raise ValueError(
                f"unsupported dispatch schema {schema!r} (expected {DISPATCH_SCHEMA!r})"
            )
        entries: Dict[Tuple, DispatchEntry] = {}
        for row in manifest.get("entries", []):
            geo_fields = row["geometry"]
            geometry = tuple(geo_fields[name] for name in GEOMETRY_FIELDS)
            entries[geometry] = DispatchEntry(
                strategy=row["strategy"],
                kept_quantum=int(row["kept_quantum"]),
                tile_rows=None if row.get("tile_rows") is None else int(row["tile_rows"]),
                dense_threshold=float(row.get("dense_threshold", 0.0)),
                baseline_ms=float(row.get("baseline_ms", 0.0)),
                winner_ms=float(row.get("winner_ms", 0.0)),
                sites=int(row.get("sites", 1)),
            )
        return cls(entries)


@dataclasses.dataclass
class SiteReport:
    """Measurements for one unique geometry."""

    geometry: Tuple
    sites: int
    baseline_label: str
    baseline_ms: float
    measured_ms: Dict[str, float]
    winner: str
    rejected: List[str]
    entry: DispatchEntry


@dataclasses.dataclass
class TuneReport:
    """What :func:`tune_plan` did, for logs, benchmarks, and tests."""

    table: DispatchTable
    sites: int
    unique_geometries: int
    duplicates_skipped: int
    skipped_untunable: int
    reports: List[SiteReport]

    @property
    def rejected_total(self) -> int:
        return sum(len(r.rejected) for r in self.reports)


# ----------------------------------------------------------------------
# Calibration input synthesis
# ----------------------------------------------------------------------
def _first_conv(plan) -> Optional[object]:
    stem = getattr(plan, "stem", None)
    if stem is not None:
        return stem
    for op in getattr(plan, "ops", []):
        if hasattr(op, "weight") and getattr(op, "stride", None) is not None:
            return op
    return None


def synthesize_calibration(
    plan,
    batch: int = 8,
    image_size: int = 32,
    seed: int = 0,
) -> np.ndarray:
    """A synthetic NCHW calibration batch matching the plan's input width.

    Standard-normal activations exercise every strategy the way real
    traffic does (top-k and threshold masks both key off activation
    magnitude); callers with representative data should pass it to
    :func:`tune_plan` directly instead.
    """
    conv = _first_conv(plan)
    if conv is None:
        raise ValueError("plan has no convolution to calibrate against")
    in_c = int(conv.weight.shape[1])
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, in_c, image_size, image_size)).astype(np.float32)


# ----------------------------------------------------------------------
# The tuner
# ----------------------------------------------------------------------
def _best_of(fn: Callable[[], np.ndarray], repeats: int) -> float:
    """Best-of-N wall time in milliseconds (noise-robust: min, not mean)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best * 1000.0


def _run_dense(op, x: np.ndarray, plan, tile_rows: Optional[int]) -> np.ndarray:
    """The plan's dense fast path, as a standalone candidate runner."""
    n, c = x.shape[:2]
    oh, ow = op.output_shape(x.shape[2], x.shape[3])
    k = op.weight.shape[2]
    out_c = op.weight.shape[0]
    arena = plan.arena
    col = F.im2col_t(
        x, k, op.stride, op.padding,
        out=arena.take("im2col", (n, c * k * k, oh * ow), x.dtype),
        tile_rows=tile_rows
        if tile_rows is not None
        else F.default_tile_rows(c, k, ow, x.dtype.itemsize),
    )
    out = np.empty((n, out_c, oh, ow), dtype=x.dtype)
    np.matmul(op.weight.reshape(out_c, -1), col, out=out.reshape(n, out_c, oh * ow))
    if op.bias is not None:
        out += op.bias.reshape(1, out_c, 1, 1)
    return out


def _run_sparse(
    op,
    x: np.ndarray,
    mask: Optional[np.ndarray],
    plan,
    strategy: str,
    kept_quantum: int,
    tile_rows: Optional[int],
    spatial: Optional[np.ndarray] = None,
) -> np.ndarray:
    out = sparse_conv2d(
        x,
        op.weight,
        op.bias,
        op.stride,
        op.padding,
        channel_mask=mask,
        spatial_mask=spatial,
        cache=plan.cache,
        cache_key=op.key,
        batch_invariant=plan.config.batch_invariant,
        arena=plan.arena,
        ragged=strategy == "ragged",
        kept_quantum=kept_quantum,
        strategy=strategy,
        tile_rows=tile_rows,
    )
    return out


def _stacked_eligible(mask: np.ndarray) -> bool:
    """Can the stacked equal-kept-count path actually engage for ``mask``?"""
    groups = list(group_by_mask_signature(mask))
    if len(groups) <= 1:
        return False
    counts = mask.sum(axis=1)
    kept = int(counts[0])
    return kept > 0 and int(counts.min()) == int(counts.max())


def _classify(
    op,
    x: np.ndarray,
    mask: Optional[np.ndarray],
    spatial: Optional[np.ndarray],
    ragged: bool,
    config,
):
    """Geometry kind + the label the *untuned* heuristics would dispatch.

    Mirrors ``_ConvOp.geometry`` (kind string, spatial suffixes included)
    and ``_ConvOp.run``'s untuned shortcuts, so tuned entries land on
    exactly the keys the runtime will probe.
    """
    oh, ow = op.output_shape(x.shape[2], x.shape[3])
    if mask is None:
        kind, kept, label = "none", -1, "dense"
    elif ragged:
        kind, kept, label = "ragged", -1, "ragged"
    else:
        counts = mask.sum(axis=1)
        if int(counts.min()) != int(counts.max()):
            kind, kept, label = "mixed", -1, "grouped"
        else:
            kept = int(counts[0])
            if 1.0 - float(mask.mean()) < config.dense_threshold:
                kind, label = "topk", "dense"
            elif oh * ow <= STACKED_PATH_MAX_POSITIONS and _stacked_eligible(mask):
                kind, label = "topk", "stacked"
            else:
                kind, label = "topk", "grouped"
    if spatial is None:
        return kind, kept, label
    if ragged:
        return kind + "+spr", kept, "ragged_spatial"
    # Non-adaptive spatial masks run the bucketed kernel too; only the
    # pre-ragged dispatch sends them to the per-sample gather loop.
    spatial_label = "per_position" if config.ragged_mode == "never" else "ragged_spatial"
    sp_counts = spatial.reshape(spatial.shape[0], -1).sum(axis=1)
    smn, smx = int(sp_counts.min()), int(sp_counts.max())
    if smn != smx:
        return kind + "+spx", kept, spatial_label
    keep2d = output_keep_grid(np.asarray(spatial, dtype=bool), op.stride, oh, ow)
    if 1.0 - float(keep2d.mean()) < config.dense_threshold:
        return kind + f"+sp{smn}", kept, "dense"
    return kind + f"+sp{smn}", kept, spatial_label


def _tile_variants(base: int) -> List[int]:
    """Tile-row candidates bracketing the L2 heuristic (dedup'd, >0)."""
    variants = []
    for tile in (max(1, base // 2), base * 2, base * 4):
        if tile != base and tile not in variants:
            variants.append(tile)
    return variants


def _ragged_tile_base(mask: np.ndarray, op, ow: int, quantum: int, itemsize: int) -> int:
    """Representative default tile for the ragged path (widest bucket)."""
    buckets = group_by_kept_count(np.asarray(mask, dtype=bool), quantum)
    widths = [count for count, _ in buckets if count > 0]
    width = max(widths) if widths else int(op.weight.shape[1])
    return F.default_tile_rows(width, op.weight.shape[2], ow, itemsize)


def tune_plan(
    plan,
    calibration: np.ndarray,
    *,
    repeats: int = 3,
    tune_tiles: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> TuneReport:
    """Measure, verify, and bake a dispatch table into ``plan``.

    Runs ``calibration`` through the untuned plan once with site capture
    enabled, dedupes the captured conv sites by canonical geometry, then
    per unique geometry times every candidate (best-of-``repeats``),
    verifies each candidate's output against its family's oracle
    (``array_equal`` for channel families — the exact-ragged quantum-1
    run for adaptive sites — and the allclose/exact-zero/bit-identity
    triple for spatial families), and installs the winning entries as
    ``plan.dispatch``.  Returns a :class:`TuneReport`; the
    plan's dispatch/stat counters are reset afterwards so calibration
    traffic never pollutes serving telemetry.
    """
    emit = log if log is not None else (lambda msg: None)
    config = plan.config
    tune_start = perf_counter()

    # --- capture pass: one untuned forward recording every conv site ---
    saved_dispatch = plan.dispatch
    plan.dispatch = None
    plan.capture = []
    try:
        plan.run(np.ascontiguousarray(calibration))
        records = plan.capture
    finally:
        plan.capture = None
        plan.dispatch = saved_dispatch

    # --- geometry dedup (satellite: repeated layers measure once) ---
    unique: Dict[Tuple, Dict] = {}
    duplicates = 0
    skipped = 0
    for op, x, mask, spatial, ragged in records:
        kind, kept, baseline_label = _classify(op, x, mask, spatial, ragged, config)
        if kind.startswith("mixed") or kind.endswith("+spx"):
            skipped += 1  # unclassifiable: heuristics stay in charge
            continue
        geo = conv_geometry(
            op.weight, op.stride, op.padding, x.shape[2], x.shape[3], kind, kept, x.dtype
        )
        if geo in unique:
            unique[geo]["sites"] += 1
            duplicates += 1
        else:
            unique[geo] = {
                "op": op,
                "x": x,
                "mask": mask,
                "spatial": spatial,
                "ragged": ragged,
                "kind": kind,
                "baseline": baseline_label,
                "sites": 1,
            }
    emit(
        f"tune-dispatch: {len(records)} conv sites -> {len(unique)} unique geometries "
        f"({duplicates} duplicates skipped, {skipped} untunable)"
    )

    # --- per-geometry measurement ---
    table = DispatchTable()
    reports: List[SiteReport] = []
    for geo, site in unique.items():
        op, x, mask = site["op"], site["x"], site["mask"]
        spatial, ragged_site = site["spatial"], site["ragged"]
        kind, baseline_label = site["kind"], site["baseline"]
        oh, ow = op.output_shape(x.shape[2], x.shape[3])
        itemsize = x.dtype.itemsize
        quantum = config.kept_quantum
        n = int(x.shape[0])

        # Candidate runners: label -> (strategy, kept_quantum, thunk).
        # Thunks take (tile, sl) — ``sl`` sub-batch slicing exists for the
        # spatial family's per-request bit-identity verification.
        candidates: List[Tuple[str, str, int, Callable]] = []
        oracle: Optional[np.ndarray] = None

        if spatial is not None:
            # Spatial family: the per-sample gather oracle, kept-position
            # bucketing at several quanta, and dense-plus-zeroing.  No two
            # of these are bitwise interchangeable (GEMM width changes the
            # blocking), so verification is allclose-at-kept + exact-zero-
            # at-dropped + per-request bit-identity instead of array_equal.
            spatial_b = np.asarray(spatial, dtype=bool)
            keep_full = output_keep_grid(spatial_b, op.stride, oh, ow)
            positions = oh * ow
            mask_eff = mask
            if (
                mask is not None
                and not ragged_site
                and 1.0 - float(mask.mean()) < config.dense_threshold
            ):
                mask_eff = None  # the untuned run nulls the channel mask too

            def spatial_runner(strategy, kq, op=op, x=x, mask_eff=mask_eff,
                               spatial_b=spatial_b, keep_full=keep_full):
                def run(tile, sl=slice(None)):
                    xs = x[sl]
                    ms = None if mask_eff is None else mask_eff[sl]
                    if strategy == "dense":
                        out = _run_dense(op, xs, plan, tile)
                        return out * keep_full[sl][:, None, :, :]
                    return _run_sparse(
                        op, xs, ms, plan, strategy, kq, tile, spatial=spatial_b[sl]
                    )
                return run

            candidates.append(
                ("per_position", "per_position", 1, spatial_runner("per_position", 1))
            )
            # The executor's effective quantum is max(kept_quantum,
            # ceil(positions/32)); sweep coarser granularities around that
            # floor, deduped by effective value.
            floor = -(-positions // 32)
            seen_eff = {max(quantum, floor)}
            candidates.append(
                ("ragged_spatial", "ragged_spatial", quantum,
                 spatial_runner("ragged_spatial", quantum))
            )
            for q in (1, -(-positions // 16), -(-positions // 8)):
                eff = max(int(q), floor)
                if eff in seen_eff:
                    continue
                seen_eff.add(eff)
                candidates.append(
                    (f"ragged_spatial@q{q}", "ragged_spatial", int(q),
                     spatial_runner("ragged_spatial", int(q)))
                )
            candidates.append(("dense", "dense", 1, spatial_runner("dense", 1)))
            tile_base = F.default_tile_rows(x.shape[1], op.weight.shape[2], ow, itemsize)

            dropped = np.broadcast_to(
                ~keep_full[:, None], (n, int(op.weight.shape[0]), oh, ow)
            )

            def check(out, run, strategy, dropped=dropped):
                if not np.allclose(out, oracle, rtol=1e-4, atol=1e-5):
                    return False
                if out[dropped].any():
                    return False
                if strategy == "per_position" and not config.batch_invariant:
                    # The flat-GEMM baseline never promised invariance.
                    return True
                solo = np.concatenate([run(None, slice(i, i + 1)) for i in range(n)])
                return np.array_equal(out, solo)

            # The per-sample gather path IS the kept-position oracle.
            oracle = candidates[0][3](None)
        else:
            if baseline_label == "dense":
                # No mask pending, or upstream masking already zeroed the
                # input and the shortcut fired: only the dense path is exact.
                candidates.append(
                    ("dense", "dense", 1,
                     lambda tile, sl=None, op=op, x=x: _run_dense(op, x, plan, tile))
                )
                tile_base = F.default_tile_rows(x.shape[1], op.weight.shape[2], ow, itemsize)
            elif kind == "ragged":
                # Adaptive masks: sweep the bucket quantum.  K-dim zero
                # padding feeds exact +0.0 terms into the same summation, so
                # every quantum must be array_equal to the exact-ragged
                # (quantum=1) oracle — verified, not assumed.
                def ragged_runner(q, op=op, x=x, m=mask):
                    def run(tile, sl=None):
                        return _run_sparse(op, x, m, plan, "ragged", q, tile)
                    return run

                candidates.append(("ragged", "ragged", quantum, ragged_runner(quantum)))
                for q in (1, 2, 4, 8):
                    if q == quantum:
                        continue
                    candidates.append((f"ragged@q{q}", "ragged", q, ragged_runner(q)))
                tile_base = _ragged_tile_base(mask, op, ow, quantum, itemsize)
                oracle = ragged_runner(1)(None)
            else:  # top-k: the structurally interchangeable family
                kept = int(geo[GEOMETRY_FIELDS.index("kept")])
                candidates.append(
                    (
                        "grouped",
                        "grouped",
                        quantum,
                        lambda tile, sl=None, op=op, x=x, m=mask: _run_sparse(
                            op, x, m, plan, "grouped", quantum, tile
                        ),
                    )
                )
                if _stacked_eligible(mask):
                    candidates.append(
                        (
                            "stacked",
                            "stacked",
                            quantum,
                            lambda tile, sl=None, op=op, x=x, m=mask: _run_sparse(
                                op, x, m, plan, "stacked", quantum, tile
                            ),
                        )
                    )
                candidates.append(
                    (
                        "ragged_exact",
                        "ragged",
                        1,
                        lambda tile, sl=None, op=op, x=x, m=mask: _run_sparse(
                            op, x, m, plan, "ragged", 1, tile
                        ),
                    )
                )
                tile_base = F.default_tile_rows(max(1, kept), op.weight.shape[2], ow, itemsize)

            def check(out, run, strategy):
                return np.array_equal(out, oracle)

        # Verification reference: family oracle if one was computed, else
        # the baseline output (what the untuned plan computes).
        if oracle is None:
            baseline_runner = next(
                run for label, _, _, run in candidates if label == baseline_label
            )
            oracle = baseline_runner(None)

        measured: Dict[str, float] = {}
        rejected: List[str] = []
        runners: Dict[str, Tuple[str, int, Callable]] = {}
        for label, strategy, kq, run in candidates:
            out = run(None)  # warm-up doubles as the verification output
            if not check(out, run, strategy):
                rejected.append(label)
                continue
            measured[label] = _best_of(lambda run=run: run(None), repeats)
            runners[label] = (strategy, kq, run)

        winner_label = min(measured, key=measured.get)
        winner_strategy, winner_kq, winner_run = runners[winner_label]
        winner_ms = measured[winner_label]
        baseline_ms = measured.get(baseline_label, winner_ms)

        # Phase 2: tile-rows sweep on the winner (pure copy blocking; the
        # stacked path does not tile its single gather, and the two spatial
        # sparse paths never consult tile_rows, so they are skipped).
        winner_tile: Optional[int] = None
        if tune_tiles and winner_strategy not in (
            "stacked", "ragged_spatial", "per_position"
        ):
            for tile in _tile_variants(tile_base):
                out = winner_run(tile)
                if not check(out, winner_run, winner_strategy):
                    rejected.append(f"{winner_label}@tile{tile}")
                    continue
                ms = _best_of(lambda run=winner_run, t=tile: run(t), repeats)
                measured[f"{winner_label}@tile{tile}"] = ms
                if ms < winner_ms:
                    winner_ms = ms
                    winner_tile = tile

        entry = DispatchEntry(
            strategy=winner_strategy,
            kept_quantum=winner_kq,
            tile_rows=winner_tile,
            dense_threshold=1.0 if winner_strategy == "dense" else 0.0,
            baseline_ms=baseline_ms,
            winner_ms=winner_ms,
            sites=site["sites"],
        )
        table.add(geo, entry)
        reports.append(
            SiteReport(
                geometry=geo,
                sites=site["sites"],
                baseline_label=baseline_label,
                baseline_ms=baseline_ms,
                measured_ms=measured,
                winner=winner_label if winner_tile is None else f"{winner_label}@tile{winner_tile}",
                rejected=rejected,
                entry=entry,
            )
        )
        emit(
            f"  {geo[0]}x{geo[5]}x{geo[6]} k{geo[2]} {geo[7]}"
            f" -> {reports[-1].winner} {winner_ms:.3f}ms"
            f" (baseline {baseline_label} {baseline_ms:.3f}ms, sites={site['sites']})"
        )

    plan.dispatch = table
    plan.reset_stats()

    tune_end = perf_counter()
    metrics = global_registry()
    metrics.counter(
        "repro_tune_runs_total", help="Completed tune_plan invocations."
    ).inc()
    metrics.counter(
        "repro_tune_geometries_total",
        help="Unique conv geometries measured by the tuner.",
    ).inc(len(unique))
    metrics.histogram(
        "repro_tune_seconds", help="Wall time of tune_plan runs."
    ).observe(tune_end - tune_start)
    if _obs.enabled:
        tracer = _obs.tracer()
        ctx = _obs.current()
        if tracer is not None and ctx is not None:
            tracer.emit_child(
                ctx,
                "tune_plan",
                tune_start,
                tune_end,
                {
                    "sites": len(records),
                    "geometries": len(unique),
                    "duplicates": duplicates,
                    "untunable": skipped,
                },
            )

    return TuneReport(
        table=table,
        sites=len(records),
        unique_geometries=len(unique),
        duplicates_skipped=duplicates,
        skipped_untunable=skipped,
        reports=reports,
    )
