"""Spatial ragged execution: kept-position bucketing (ISSUE 8).

Contract under test (see ``_ragged_spatial_conv`` in
``repro/core/sparse_exec.py``):

* combined channel x spatial ``sparse_conv2d`` (kept-position bucketing)
  agrees with the per-sample gather oracle
  (:func:`tests.oracles.per_position_conv`) to floating-point round-off at
  kept positions, is **exactly zero** at dropped positions, and is
  **bit-identical** to its own per-request
  execution for every batch composition, bucket-boundary kept-count,
  quantum, stride, and padded geometry;
* :func:`repro.core.sparse_exec.output_keep_grid` maps input-column masks
  onto full output grids even when heavy padding makes the strided view
  come up short;
* the serving stack (threaded sessions, the process pool) carries
  spatial threshold masks end-to-end without changing a single response,
  and surfaces the ``ragged_spatial`` dispatch counter through session
  telemetry;
* fixed top-k column sites dispatch the bucketed kernel;
* ``FBSGate.mean_spatial_keep_pooled`` and
  ``DynamicPruning.mean_spatial_keep_pooled`` both go through
  :func:`repro.core.pruning.pooled_keep_fraction` — the FLOPs accounting
  of the two methods can never diverge on pooling semantics.
"""

import numpy as np
import pytest

from repro.baselines.dynamic import FBSGate
from repro.core.engine import create_engine
from repro.core.pruning import DynamicPruning, pooled_keep_fraction
from repro.core.sparse_exec import output_keep_grid, sparse_conv2d
from repro.models import build_conv_stack
from repro.nn import Tensor, no_grad
from repro.nn import functional as F
from repro.serve import InferenceSession, SessionConfig

from .oracles import per_position_conv

TIGHT = dict(rtol=1e-4, atol=1e-5)

#: (cin, cout, kernel, stride, padding, h, w) — includes stride-2 and a
#: heavily padded geometry whose strided output view comes up short.
GEOMETRIES = [
    (8, 12, 3, 1, 1, 10, 10),
    (8, 12, 3, 2, 1, 11, 11),
    (4, 6, 3, 2, 3, 9, 9),
    (6, 8, 1, 1, 0, 8, 8),
]


def _conv_params(rng, cin, cout, kernel):
    weight = rng.normal(size=(cout, cin, kernel, kernel)).astype(np.float32)
    bias = rng.normal(size=cout).astype(np.float32)
    return weight, bias


def _channel_mask(rng, n, cin, keep=0.5):
    mask = rng.random((n, cin)) < keep
    # every sample keeps at least one channel
    mask[np.arange(n), rng.integers(0, cin, size=n)] = True
    return mask


def _spatial_mask(rng, h, w, counts):
    """One (len(counts), h, w) mask with exactly counts[i] kept columns."""
    mask = np.zeros((len(counts), h, w), dtype=bool)
    for i, count in enumerate(counts):
        idx = rng.choice(h * w, size=count, replace=False)
        mask[i].reshape(-1)[idx] = True
    return mask


def _capture_site_scores(stack, pruners, calib):
    """One calibration forward, returning each site's raw score arrays.

    Temporarily wraps every pruner's criterion to record the
    ``(channel_scores, spatial_scores)`` pair it computes, without
    changing what the forward pass does.
    """
    captured = {}
    saved = []
    for index, pruner in enumerate(pruners):
        original = pruner._score
        saved.append((pruner, original))

        def wrapped(fm, _index=index, _orig=original):
            scores = _orig(fm)
            captured[_index] = scores
            return scores

        pruner._score = wrapped
    try:
        create_engine(stack, backend="dense")(calib)
    finally:
        for pruner, original in saved:
            pruner._score = original
    return captured


def _spatial_threshold_stack(keep, image_size, width, depth, seed):
    """A conv stack whose sites prune *spatially* in threshold mode.

    Each site's threshold is placed at the ``(1 - keep)`` quantile of its
    spatial attention over one calibration batch of 8, so the mean kept
    fraction lands near ``keep`` while per-sample kept-position counts
    still vary.  Channel pruning is off, so every conv sees a pure
    spatial threshold mask.
    """
    stack = build_conv_stack(
        0.0, spatial_ratio=0.5, width=width, depth=depth, seed=seed
    )
    pruners = [m for m in stack.modules() if isinstance(m, DynamicPruning)]
    for pruner in pruners:
        pruner.mask_mode = "threshold"
        pruner.threshold = 0.0  # keep everything until calibrated
    calib = np.random.default_rng(seed + 11).normal(
        size=(8, 3, image_size, image_size)
    ).astype(np.float32)
    # Calibrate sites *sequentially*: each site's pruning shifts the score
    # distribution every deeper site sees, so a one-shot calibration
    # compounds into far lower keeps than asked for.
    for index, pruner in enumerate(pruners):
        spatial_scores = _capture_site_scores(stack, pruners, calib)[index][1]
        pruner.threshold = float(
            np.percentile(np.asarray(spatial_scores, dtype=np.float64), (1.0 - keep) * 100.0)
        )
    for pruner in pruners:
        pruner.reset_stats()
    return stack, pruners


def _run(x, weight, bias, stride, padding, cm, sm, quantum=4):
    return sparse_conv2d(x, weight, bias, stride, padding, cm, sm, kept_quantum=quantum)


def _oracle(x, weight, bias, stride, padding, cm, sm):
    oh, ow = F.conv_output_shape(x.shape[2], x.shape[3], weight.shape[2], stride, padding)
    return per_position_conv(x, weight, bias, stride, padding, sm, cm, oh, ow)


# ----------------------------------------------------------------------
# Combined channel x spatial kernel contract
# ----------------------------------------------------------------------
class TestCombinedChannelSpatial:
    @pytest.mark.parametrize("geo", GEOMETRIES)
    def test_matches_per_position_zeros_exact(self, rng, geo):
        cin, cout, kernel, stride, padding, h, w = geo
        n = 6
        x = rng.normal(size=(n, cin, h, w)).astype(np.float32)
        weight, bias = _conv_params(rng, cin, cout, kernel)
        cm = _channel_mask(rng, n, cin)
        counts = rng.integers(1, h * w, size=n)
        sm = _spatial_mask(rng, h, w, counts)
        ragged = _run(x, weight, bias, stride, padding, cm, sm)
        perpos = _oracle(x, weight, bias, stride, padding, cm, sm)
        np.testing.assert_allclose(ragged, perpos, **TIGHT)
        oh, ow = ragged.shape[2], ragged.shape[3]
        keep = output_keep_grid(sm, stride, oh, ow)
        for i in range(n):
            assert not ragged[i, :, ~keep[i]].any()
            assert not perpos[i, :, ~keep[i]].any()

    @pytest.mark.parametrize("geo", GEOMETRIES)
    def test_per_sample_bit_identity(self, rng, geo):
        cin, cout, kernel, stride, padding, h, w = geo
        n = 5
        x = rng.normal(size=(n, cin, h, w)).astype(np.float32)
        weight, bias = _conv_params(rng, cin, cout, kernel)
        cm = _channel_mask(rng, n, cin)
        sm = _spatial_mask(rng, h, w, rng.integers(0, h * w + 1, size=n))
        batched = _run(x, weight, bias, stride, padding, cm, sm)
        for i in range(n):
            solo = _run(
                x[i : i + 1], weight, bias, stride, padding,
                cm[i : i + 1], sm[i : i + 1],
            )
            np.testing.assert_array_equal(batched[i : i + 1], solo)

    def test_batch_permutation_invariance(self, rng):
        cin, cout, kernel, stride, padding, h, w = GEOMETRIES[0]
        n = 8
        x = rng.normal(size=(n, cin, h, w)).astype(np.float32)
        weight, bias = _conv_params(rng, cin, cout, kernel)
        cm = _channel_mask(rng, n, cin)
        sm = _spatial_mask(rng, h, w, rng.integers(1, h * w, size=n))
        out = _run(x, weight, bias, stride, padding, cm, sm)
        perm = rng.permutation(n)
        permuted = _run(
            x[perm], weight, bias, stride, padding, cm[perm], sm[perm],
        )
        np.testing.assert_array_equal(permuted, out[perm])

    def test_bucket_boundary_counts(self, rng):
        """Zero kept, all kept, and quantum multiples +-1 in one batch."""
        cin, cout, kernel, stride, padding, h, w = (6, 8, 3, 1, 1, 6, 6)
        positions = h * w  # output grid == input grid at stride 1, pad same
        counts = [0, positions, 4, 5, 3, 8, 1]
        n = len(counts)
        x = rng.normal(size=(n, cin, h, w)).astype(np.float32)
        weight, bias = _conv_params(rng, cin, cout, kernel)
        cm = _channel_mask(rng, n, cin)
        sm = _spatial_mask(rng, h, w, counts)
        ragged = _run(x, weight, bias, stride, padding, cm, sm)
        perpos = _oracle(x, weight, bias, stride, padding, cm, sm)
        np.testing.assert_allclose(ragged, perpos, **TIGHT)
        assert not ragged[0].any()  # nothing kept -> output exactly zero
        for i in range(n):
            solo = _run(
                x[i : i + 1], weight, bias, stride, padding,
                cm[i : i + 1], sm[i : i + 1],
            )
            np.testing.assert_array_equal(ragged[i : i + 1], solo)

    def test_quantum_is_padding_only(self, rng):
        """Any quantum agrees with per-position and stays per-request exact."""
        cin, cout, kernel, stride, padding, h, w = GEOMETRIES[0]
        n = 6
        x = rng.normal(size=(n, cin, h, w)).astype(np.float32)
        weight, bias = _conv_params(rng, cin, cout, kernel)
        sm = _spatial_mask(rng, h, w, rng.integers(1, h * w, size=n))
        perpos = _oracle(x, weight, bias, stride, padding, None, sm)
        for quantum in (1, 4, 16):
            out = _run(
                x, weight, bias, stride, padding, None, sm, quantum=quantum,
            )
            np.testing.assert_allclose(out, perpos, **TIGHT)
            solo = np.concatenate([
                _run(
                    x[i : i + 1], weight, bias, stride, padding, None,
                    sm[i : i + 1], quantum=quantum,
                )
                for i in range(n)
            ])
            np.testing.assert_array_equal(out, solo)

    def test_spatial_only_matches_masked_dense(self, rng):
        """With dropped input columns pre-zeroed, kept positions equal the
        dense conv to round-off (the executors' calling convention)."""
        cin, cout, kernel, stride, padding, h, w = GEOMETRIES[0]
        n = 4
        x = rng.normal(size=(n, cin, h, w)).astype(np.float32)
        weight, bias = _conv_params(rng, cin, cout, kernel)
        sm = _spatial_mask(rng, h, w, rng.integers(1, h * w, size=n))
        x = x * sm[:, None, :, :]
        with no_grad():
            dense = F.conv2d(
                Tensor(x), Tensor(weight), Tensor(bias), stride, padding
            ).data
        out = _run(x, weight, bias, stride, padding, None, sm)
        keep = output_keep_grid(sm, stride, out.shape[2], out.shape[3])
        for i in range(n):
            np.testing.assert_allclose(
                out[i, :, keep[i]], dense[i, :, keep[i]], rtol=1e-4, atol=1e-5
            )


# ----------------------------------------------------------------------
# output_keep_grid
# ----------------------------------------------------------------------
class TestOutputKeepGrid:
    def test_heavy_padding_pads_false(self, rng):
        # stride 2 + padding 3 on a 5x5 input, k=3: oh = ow = 5 but the
        # strided view of the input mask only covers a 3x3 corner.
        mask = rng.random((2, 5, 5)) < 0.5
        grid = output_keep_grid(mask, 2, 5, 5)
        assert grid.shape == (2, 5, 5)
        np.testing.assert_array_equal(grid[:, :3, :3], mask[:, ::2, ::2])
        assert not grid[:, 3:, :].any()
        assert not grid[:, :, 3:].any()

    def test_matches_strided_view_when_it_covers(self, rng):
        mask = rng.random((3, 10, 10)) < 0.5
        np.testing.assert_array_equal(output_keep_grid(mask, 1, 10, 10), mask)
        np.testing.assert_array_equal(
            output_keep_grid(mask, 2, 5, 5), mask[:, ::2, ::2]
        )


# ----------------------------------------------------------------------
# Serving: spatial threshold masks end-to-end
# ----------------------------------------------------------------------
class TestSpatialServing:
    def test_threaded_session_bit_identical_with_counters(self, rng):
        stack, _ = _spatial_threshold_stack(0.5, 16, width=16, depth=3, seed=0)
        engine = create_engine(stack, backend="sparse")
        requests = [
            rng.normal(size=(1, 3, 16, 16)).astype(np.float32) for _ in range(10)
        ]
        reference = [engine(r) for r in requests]
        session = InferenceSession(
            engine, SessionConfig(max_batch=4, batch_window_ms=20.0, workers=2)
        )
        try:
            outputs = session.infer_many(requests)
            stats = session.stats()
        finally:
            session.close()
        for out, ref in zip(outputs, reference):
            np.testing.assert_array_equal(out, ref)
        # Per-strategy dispatch counters surface through the session.
        assert stats["engine"]["dispatch"].get("ragged_spatial", 0) > 0

    def test_procpool_session_spatial_masks(self, rng):
        stack, _ = _spatial_threshold_stack(0.5, 12, width=12, depth=2, seed=1)
        pool = create_engine(
            stack, backend="procpool", proc_workers=2, slot_mb=2.0
        )
        try:
            requests = [
                rng.normal(size=(1, 3, 12, 12)).astype(np.float32)
                for _ in range(8)
            ]
            reference = [pool(r) for r in requests]
            with InferenceSession(
                pool, SessionConfig(max_batch=4, batch_window_ms=20.0, workers=2)
            ) as session:
                outputs = session.infer_many(requests)
            for out, ref in zip(outputs, reference):
                np.testing.assert_array_equal(out, ref)
        finally:
            pool.close()


# ----------------------------------------------------------------------
# Fixed top-k column sites
# ----------------------------------------------------------------------
class TestTopkColumns:
    def test_dispatched_kernel(self, rng):
        # Fixed top-k column sites run the kept-position bucketed kernel.
        stack = build_conv_stack(0.4, spatial_ratio=0.5, width=8, depth=3, seed=0)
        engine = create_engine(stack, backend="sparse")
        engine(rng.normal(size=(4, 3, 12, 12)).astype(np.float32))
        assert engine.stats()["dispatch"]["ragged_spatial"] > 0


# ----------------------------------------------------------------------
# Pooled-keep unification (FBSGate vs DynamicPruning)
# ----------------------------------------------------------------------
class TestPooledKeepUnification:
    def test_fbs_gate_pooled_keep_through_shared_helper(self, rng):
        gate = FBSGate(8, prune_ratio=0.5, seed=0, pool_between=2)
        x = Tensor(rng.normal(size=(3, 8, 6, 6)).astype(np.float32))
        with no_grad():
            gate(x)
        # FBS never prunes spatially: its pooled keep is exactly 1.0, and
        # it is computed from an explicit all-True mask via the same
        # helper DynamicPruning uses — not hardcoded.
        assert gate.mean_spatial_keep_pooled == 1.0
        assert gate.last_spatial_mask.shape == (3, 6, 6)
        assert gate.last_spatial_mask.all()
        assert gate.mean_spatial_keep_pooled == pooled_keep_fraction(
            gate.last_spatial_mask, gate.pool_between
        )

    def test_fbs_gate_defaults_before_forward(self):
        gate = FBSGate(4, prune_ratio=0.5, seed=0)
        assert gate.mean_spatial_keep_pooled == 1.0
        gate.reset_stats()
        assert gate.mean_spatial_keep_pooled == 1.0

    def test_dynamic_pruning_pooled_keep_matches_helper(self, rng):
        pruner = DynamicPruning(0.0, 0.5, pool_between=2, seed=0)
        fm = rng.normal(size=(2, 8, 6, 6)).astype(np.float32)
        pruner.compute_masks(fm)
        assert pruner.mean_spatial_keep_pooled == pytest.approx(
            pooled_keep_fraction(pruner.last_spatial_mask, pruner.pool_between)
        )
