"""Property-based tests for the sparse executor and checkpointing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from numpy.lib.stride_tricks import sliding_window_view

from repro.core.sparse_exec import sparse_conv2d
from repro.nn import Tensor
from repro.nn import functional as F

from .oracles import per_position_conv

small_floats = st.floats(-3, 3, allow_nan=False, allow_infinity=False, width=32)


def conv_inputs():
    return st.tuples(
        st.integers(1, 2),  # batch
        st.integers(1, 4),  # in channels
        st.integers(1, 3),  # out channels
        st.integers(4, 7),  # spatial
    )


@given(conv_inputs(), st.data())
@settings(max_examples=30, deadline=None)
def test_sparse_channel_conv_equals_dense_masked(dims, data):
    n, cin, cout, size = dims
    rng = np.random.default_rng(data.draw(st.integers(0, 100)))
    x = rng.normal(size=(n, cin, size, size)).astype(np.float32)
    w = rng.normal(size=(cout, cin, 3, 3)).astype(np.float32)
    mask = rng.random((n, cin)) > 0.4
    mask[:, 0] = True  # at least one channel survives per sample
    masked = x * mask[:, :, None, None]
    sparse = sparse_conv2d(x, w, None, 1, 1, channel_mask=mask)
    dense = F.conv2d(Tensor(masked), Tensor(w), None, 1, 1).data
    np.testing.assert_allclose(sparse, dense, rtol=1e-3, atol=1e-4)


@given(conv_inputs(), st.data())
@settings(max_examples=30, deadline=None)
def test_sparse_column_conv_zero_exactly_off_mask(dims, data):
    n, cin, cout, size = dims
    rng = np.random.default_rng(data.draw(st.integers(0, 100)))
    x = rng.normal(size=(n, cin, size, size)).astype(np.float32)
    w = rng.normal(size=(cout, cin, 3, 3)).astype(np.float32)
    smask = rng.random((n, size, size)) > 0.5
    out = sparse_conv2d(x * smask[:, None], w, None, 1, 1, spatial_mask=smask)
    for i in range(n):
        dropped = ~smask[i]
        np.testing.assert_allclose(out[i][:, dropped], 0.0)


@st.composite
def spatial_cases(draw):
    """A conv geometry with channel and spatial masks, plus a permutation.

    Channel masks are equal-count top-k (1 kept through all kept), ragged
    per-sample counts, or absent; spatial masks are top-k, random, all
    dropped or all kept.
    """
    n = draw(st.integers(1, 4))
    cin = draw(st.integers(1, 6))
    cout = draw(st.integers(1, 5))
    kernel = draw(st.sampled_from([1, 3]))
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.integers(0, 2))
    low = max(1, kernel - 2 * padding)
    h = draw(st.integers(low, 9))
    w = draw(st.integers(low, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    channel_kind = draw(st.sampled_from(["none", "topk", "ragged"]))
    if channel_kind == "none":
        cmask = None
    else:
        if channel_kind == "topk":
            counts = [draw(st.integers(1, cin))] * n
        else:
            counts = draw(st.lists(st.integers(1, cin), min_size=n, max_size=n))
        cmask = np.zeros((n, cin), dtype=bool)
        for i, count in enumerate(counts):
            cmask[i, rng.choice(cin, size=count, replace=False)] = True

    spatial_kind = draw(st.sampled_from(["topk", "random", "none_kept", "all_kept"]))
    if spatial_kind == "topk":
        count = draw(st.integers(1, h * w))
        smask = np.zeros((n, h * w), dtype=bool)
        for i in range(n):
            smask[i, rng.choice(h * w, size=count, replace=False)] = True
        smask = smask.reshape(n, h, w)
    elif spatial_kind == "random":
        smask = rng.random((n, h, w)) < draw(st.floats(0.05, 0.95))
    else:
        smask = np.full((n, h, w), spatial_kind == "all_kept")

    x = rng.normal(size=(n, cin, h, w)).astype(np.float32)
    weight = rng.normal(size=(cout, cin, kernel, kernel)).astype(np.float32)
    bias = rng.normal(size=cout).astype(np.float32)
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return x, weight, bias, stride, padding, cmask, smask, perm


def _keep_grid(smask, stride, oh, ow):
    """Output position (y, x) is kept iff input (y*stride, x*stride) is."""
    n, h, w = smask.shape
    keep = np.zeros((n, oh, ow), dtype=bool)
    for y in range(oh):
        for x in range(ow):
            if y * stride < h and x * stride < w:
                keep[:, y, x] = smask[:, y * stride, x * stride]
    return keep


def _masked_reference(x, weight, bias, stride, padding, cmask, smask=None):
    """The paper's semantics in float64: dense conv of the masked input,
    dropped output positions zero (no spatial mask keeps every column)."""
    xm = x.astype(np.float64)
    if smask is not None:
        xm = xm * smask[:, None]
    if cmask is not None:
        xm = xm * cmask[:, :, None, None]
    k = weight.shape[2]
    xp = np.pad(xm, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (xp.shape[2] - k) // stride + 1
    ow = (xp.shape[3] - k) // stride + 1
    windows = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.einsum("nchwij,ocij->nohw", windows[:, :, :oh, :ow], weight.astype(np.float64))
    out += bias.astype(np.float64)[None, :, None, None]
    if smask is None:
        return out
    return out * _keep_grid(smask, stride, oh, ow)[:, None]


@given(spatial_cases())
@settings(max_examples=150, deadline=None)
def test_spatial_default_dispatch_contract(case):
    # The default spatial kernel: bit-identical to per-request execution
    # and to its own permuted run, within round-off of the per-position
    # oracle and of the float64 masked reference, exactly zero at
    # dropped positions.
    x, weight, bias, stride, padding, cmask, smask, perm = case
    xin = x * smask[:, None]  # executors zero dropped columns first

    def run(rows):
        cm = None if cmask is None else cmask[rows]
        return sparse_conv2d(xin[rows], weight, bias, stride, padding, cm, smask[rows])

    every = np.arange(x.shape[0])
    out = run(every)
    solo = np.concatenate([run(every[i : i + 1]) for i in every])
    np.testing.assert_array_equal(out, solo)
    np.testing.assert_array_equal(run(perm), out[perm])

    oracle = per_position_conv(
        xin, weight, bias, stride, padding, smask, cmask, out.shape[2], out.shape[3]
    )
    np.testing.assert_allclose(out, oracle, rtol=1e-4, atol=1e-5)
    reference = _masked_reference(x, weight, bias, stride, padding, cmask, smask)
    np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-4)

    dropped = ~_keep_grid(smask, stride, out.shape[2], out.shape[3])
    assert not out.transpose(0, 2, 3, 1)[dropped].any()


@st.composite
def channel_cases(draw):
    """A conv geometry with a channel mask, a grouping quantum and a permutation.

    Masks keep equal (top-k) or ragged counts, include an all-dropped or an
    all-kept row, or sit on both sides of a quantum boundary.
    """
    n = draw(st.integers(1, 6))
    cin = draw(st.integers(1, 12))
    cout = draw(st.integers(1, 5))
    kernel = draw(st.sampled_from([1, 3]))
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.integers(0, 2))
    odd = [size for size in range(1, 12, 2) if size >= kernel - 2 * padding]
    h = draw(st.sampled_from(odd))
    w = draw(st.sampled_from(odd))
    ragged = draw(st.booleans())
    quantum = draw(st.sampled_from([1, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    any_counts = st.lists(st.integers(0, cin), min_size=n, max_size=n)
    kind = draw(st.sampled_from(["topk", "ragged", "all_dropped", "all_kept", "boundary"]))
    if kind == "topk":
        counts = [draw(st.integers(1, cin))] * n
    elif kind == "ragged":
        counts = draw(any_counts)
    elif kind == "boundary":
        near = st.sampled_from([quantum - 1, quantum, quantum + 1])
        counts = [min(c, cin) for c in draw(st.lists(near, min_size=n, max_size=n))]
    else:
        counts = draw(any_counts)
        counts[draw(st.integers(0, n - 1))] = 0 if kind == "all_dropped" else cin
    cmask = np.zeros((n, cin), dtype=bool)
    for i, count in enumerate(counts):
        cmask[i, rng.choice(cin, size=count, replace=False)] = True

    x = rng.normal(size=(n, cin, h, w)).astype(np.float32)
    weight = rng.normal(size=(cout, cin, kernel, kernel)).astype(np.float32)
    bias = rng.normal(size=cout).astype(np.float32)
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return x, weight, bias, stride, padding, cmask, ragged, quantum, perm


@given(channel_cases())
@settings(max_examples=150, deadline=None)
def test_channel_kernel_contract(case):
    # The channel kernel: bit-identical to per-request execution and to
    # its own permuted run, within round-off of the float64 masked
    # reference on an unmasked input, exactly zero for all-dropped rows.
    x, weight, bias, stride, padding, cmask, ragged, quantum, perm = case

    def run(rows):
        return sparse_conv2d(
            x[rows], weight, bias, stride, padding, cmask[rows],
            ragged=ragged, kept_quantum=quantum,
        )

    every = np.arange(x.shape[0])
    out = run(every)
    solo = np.concatenate([run(every[i : i + 1]) for i in every])
    np.testing.assert_array_equal(out, solo)
    np.testing.assert_array_equal(run(perm), out[perm])

    kept = cmask.any(axis=1)
    reference = _masked_reference(x, weight, bias, stride, padding, cmask)
    np.testing.assert_allclose(out[kept], reference[kept], rtol=1e-4, atol=1e-4)
    assert not out[~kept].any()


@given(conv_inputs(), st.data())
@settings(max_examples=20, deadline=None)
def test_sparse_conv_linear_in_input(dims, data):
    # Convolution is linear; skipping must preserve that on kept positions.
    n, cin, cout, size = dims
    rng = np.random.default_rng(data.draw(st.integers(0, 100)))
    a = rng.normal(size=(n, cin, size, size)).astype(np.float32)
    b = rng.normal(size=(n, cin, size, size)).astype(np.float32)
    w = rng.normal(size=(cout, cin, 3, 3)).astype(np.float32)
    mask = rng.random((n, cin)) > 0.3
    mask[:, 0] = True
    out_sum = sparse_conv2d(a + b, w, None, 1, 1, channel_mask=mask)
    out_parts = sparse_conv2d(a, w, None, 1, 1, channel_mask=mask) + sparse_conv2d(
        b, w, None, 1, 1, channel_mask=mask
    )
    np.testing.assert_allclose(out_sum, out_parts, rtol=1e-2, atol=1e-3)


@given(
    hnp.arrays(np.float32, st.tuples(st.integers(1, 4), st.integers(1, 6)),
               elements=small_floats),
    st.dictionaries(st.sampled_from(["epoch", "acc", "note"]),
                    st.one_of(st.integers(0, 99), st.floats(0, 1, allow_nan=False),
                              st.text(max_size=10)), max_size=3),
)
@settings(max_examples=20, deadline=None)
def test_checkpoint_roundtrip_property(tmp_path_factory, weight, metadata):
    from repro.nn import Linear
    from repro.nn.serialization import load_checkpoint, save_checkpoint

    out_features, in_features = weight.shape
    model = Linear(in_features, out_features)
    model.weight.data = weight.copy()
    path = str(tmp_path_factory.mktemp("ckpt") / "m.npz")
    save_checkpoint(model, path, metadata=metadata)

    target = Linear(in_features, out_features)
    restored = load_checkpoint(target, path)
    np.testing.assert_array_equal(target.weight.data, weight)
    for key, value in metadata.items():
        if isinstance(value, float):
            assert restored[key] == pytest.approx(value)
        else:
            assert restored[key] == value
