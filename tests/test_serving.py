"""Tests for the serving layer: engines, registry artifacts, sessions.

The load-bearing contract is **round-trip bit-exactness**: a model saved
to the registry, loaded back, and served through a micro-batched
:class:`~repro.serve.InferenceSession` must produce byte-for-byte the
outputs the original engine produces one request at a time — batch
composition is an invisible scheduling detail.
"""

import queue

import numpy as np
import pytest

from repro.core.pruning import DynamicPruning, PruningConfig, instrument_model
from repro.core.sparse_exec import ExecutionPlan, PlanConfig
from repro.models import ResNet, build_conv_stack, vgg16
from repro.nn import AvgPool2d, Identity, Sequential
from repro.serve import (
    ArtifactNotFoundError,
    DenseEngine,
    InferenceSession,
    ModelRegistry,
    SessionClosed,
    SessionConfig,
    SparseEngine,
    available_backends,
    create_engine,
    parse_ref,
)


def make_requests(count, image_size=32, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=(1, 3, image_size, image_size)).astype(np.float32)
        for _ in range(count)
    ]


def slim_vgg_handle(seed=3):
    model = vgg16(num_classes=10, width_multiplier=0.125, seed=seed)
    model.eval()
    return instrument_model(
        model, PruningConfig([0.2, 0.2, 0.5, 0.7, 0.7], [0.0] * 5)
    )


def slim_resnet_handle(seed=0, width=0.5):
    model = ResNet(1, num_classes=10, width_multiplier=width, seed=seed)
    model.eval()
    return instrument_model(model, PruningConfig([0.5] * 3, [0.0] * 3))


# ----------------------------------------------------------------------
# Engine factory
# ----------------------------------------------------------------------
class TestEngineFactory:
    def test_backends_registered(self):
        assert {"dense", "sparse", "auto"} <= set(available_backends())

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            create_engine(build_conv_stack(0.5), backend="tpu")

    def test_sparse_engine_for_stack_and_resnet(self):
        assert isinstance(create_engine(build_conv_stack(0.5), "sparse"), SparseEngine)
        assert isinstance(create_engine(slim_resnet_handle().model, "sparse"), SparseEngine)

    def test_auto_dispatches_on_sparsity(self):
        # auto compiles the plan whatever the pruning ratios: an unpruned
        # model gets it too, since the dense forward cannot honor the
        # bit-exactness contract.  A PlanConfig is accepted and ignored.
        for ratio in (0.6, 0.0):
            stack = build_conv_stack(ratio)
            assert isinstance(create_engine(stack, "auto"), SparseEngine)
            engine = create_engine(stack, "auto", config=PlanConfig(batch_invariant=False))
            assert isinstance(engine, SparseEngine)

    def test_auto_mistyped_keyword_raises_sparse_engines_error(self):
        with pytest.raises(TypeError, match="bogus") as excinfo:
            create_engine(build_conv_stack(0.5), "auto", bogus=1)
        # SparseEngine's own error, not DenseEngine's raised while
        # handling (and hiding) it.
        assert excinfo.value.__context__ is None

    def test_auto_propagates_plain_type_error_from_compilation(self, monkeypatch):
        def broken(cls, layers):
            raise TypeError("bug while compiling")

        monkeypatch.setattr(ExecutionPlan, "compile", classmethod(broken))
        with pytest.raises(TypeError, match="bug while compiling"):
            create_engine(build_conv_stack(0.6), "auto")

    def test_auto_falls_back_to_dense_on_unsupported_graph(self):
        layers = list(build_conv_stack(0.6, width=8, depth=3))
        stack = Sequential(*layers[:4], AvgPool2d(2), *layers[4:])
        assert isinstance(create_engine(stack, "auto"), DenseEngine)

    def test_auto_compiles_a_stack_holding_an_identity(self):
        # The plan compiler skips Identity layers, so such a stack serves
        # on the batch-invariant sparse engine, not the dense fallback.
        layers = list(build_conv_stack(0.5, width=8, depth=2))
        stack = Sequential(layers[0], Identity(), *layers[1:])
        engine = create_engine(stack, "auto")
        assert isinstance(engine, SparseEngine)
        requests = make_requests(6, image_size=16, seed=13)
        reference = [engine(r) for r in requests]
        with InferenceSession.from_model(
            stack, session=SessionConfig(max_batch=4, batch_window_ms=50.0)
        ) as session:
            assert isinstance(session.engine, SparseEngine)
            outputs = session.infer_many(requests)
        for out, ref in zip(outputs, reference):
            np.testing.assert_array_equal(out, ref)

    def test_stats_and_reset(self):
        engine = create_engine(build_conv_stack(0.5), "sparse")
        engine(make_requests(1)[0])
        stats = engine.stats()
        assert stats["dispatch"]["channel"] > 0
        engine.reset_stats()
        fresh = engine.stats()
        assert sum(fresh["dispatch"].values()) == 0
        assert fresh["cache"]["hits"] == 0

    def test_vgg_layer_stack_view(self):
        handle = slim_vgg_handle()
        engine = create_engine(handle, "sparse")
        out = engine(make_requests(1)[0])
        assert out.shape == (1, 10)


# ----------------------------------------------------------------------
# Registry artifacts
# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_versions_append_only(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        handle = slim_vgg_handle()
        assert registry.save("m", handle) == ("m", 1)
        assert registry.save("m", handle) == ("m", 2)
        assert registry.versions("m") == [1, 2]
        assert registry.names() == ["m"]
        assert registry.resolve("m")[0] == 2  # latest by default

    def test_missing_artifact_raises(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        with pytest.raises(ArtifactNotFoundError):
            registry.load("ghost")
        registry.save("m", slim_vgg_handle())
        with pytest.raises(ArtifactNotFoundError):
            registry.load("m", 9)

    def test_list_artifacts_reports_versions_and_sizes(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        assert registry.list_artifacts() == []
        handle = slim_vgg_handle()
        registry.save("vgg", handle, metadata={"note": "a"})
        registry.save("vgg", handle)
        registry.save("res", slim_resnet_handle())
        rows = registry.list_artifacts()
        assert [(r["name"], r["version"]) for r in rows] == [
            ("res", 1), ("vgg", 1), ("vgg", 2),
        ]
        for row in rows:
            assert row["size_bytes"] > 0
            assert row["created_at"]
            assert row["family"] in {"vgg", "resnet"}
            assert row["pruning_sites"] > 0
            assert "batch_invariant" in row["plan"]
        assert rows[1]["metadata"] == {"note": "a"}

    def test_parse_ref(self):
        assert parse_ref("name") == ("name", None)
        assert parse_ref("name@v3") == ("name", 3)
        assert parse_ref("name@3") == ("name", 3)
        with pytest.raises(ValueError):
            parse_ref("@v3")

    def test_manifest_records_pruning_and_metadata(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        registry.save("m", slim_vgg_handle(), metadata={"note": "hi"})
        manifest = registry.manifest("m")
        assert manifest["metadata"] == {"note": "hi"}
        assert manifest["arch"]["family"] == "vgg"
        ratios = {site["channel_ratio"] for site in manifest["pruning"]}
        assert ratios == {0.2, 0.5, 0.7}

    def test_vgg_roundtrip_outputs_identical(self, tmp_path):
        handle = slim_vgg_handle()
        reference_engine = create_engine(handle, "sparse")
        requests = make_requests(6, seed=2)
        reference = [reference_engine(r) for r in requests]

        registry = ModelRegistry(str(tmp_path))
        registry.save("vgg", handle)
        artifact = registry.load("vgg")
        loaded_engine = create_engine(artifact.handle, "sparse")
        for req, ref in zip(requests, reference):
            np.testing.assert_array_equal(loaded_engine(req), ref)

    @pytest.mark.parametrize("width", [0.5, 0.3, 0.125])
    def test_resnet_roundtrip_outputs_identical(self, tmp_path, width):
        # Widths off the x16 grid (0.3 gives groups 5/10/19) must rebuild
        # at the width they were saved with, not one read off the stem.
        handle = slim_resnet_handle(width=width)
        reference_engine = create_engine(handle, "sparse")
        requests = make_requests(6, seed=4)
        reference = [reference_engine(r) for r in requests]

        registry = ModelRegistry(str(tmp_path))
        registry.save("rn", handle)
        artifact = registry.load("rn")
        loaded_engine = create_engine(artifact.handle, "sparse")
        for req, ref in zip(requests, reference):
            np.testing.assert_array_equal(loaded_engine(req), ref)

    def test_loaded_pruners_match_sites(self, tmp_path):
        handle = slim_vgg_handle()
        registry = ModelRegistry(str(tmp_path))
        registry.save("m", handle)
        artifact = registry.load("m")
        originals = {pt.path: pr for pt, pr in handle.pruners}
        for point, pruner in artifact.handle.pruners:
            original = originals[point.path]
            assert pruner.channel_ratio == original.channel_ratio
            assert pruner.granularity == original.granularity
            assert pruner.mask_mode == original.mask_mode

    def test_sequential_without_arch_spec_rejected(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        with pytest.raises(TypeError, match="architecture spec"):
            registry.save("s", build_conv_stack(0.5))

    def test_conv_stack_family_with_explicit_arch(self, tmp_path):
        stack = build_conv_stack(0.5, width=16, depth=3, seed=7)
        registry = ModelRegistry(str(tmp_path))
        registry.save(
            "stack",
            stack,
            arch={"family": "conv_stack", "channel_ratio": 0.5, "width": 16, "depth": 3},
        )
        artifact = registry.load("stack")
        request = make_requests(1, seed=5)[0]
        np.testing.assert_array_equal(
            create_engine(artifact.model, "sparse")(request),
            create_engine(stack, "sparse")(request),
        )


# ----------------------------------------------------------------------
# Registry operations: content hashes, delete, gc
# ----------------------------------------------------------------------
class TestRegistryOperations:
    def test_manifest_records_content_hash(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        registry.save("m", slim_vgg_handle())
        manifest = registry.manifest("m")
        content = manifest["content"]
        assert len(content["weights_sha256"]) == 64
        assert content["weights_bytes"] > 0
        rows = registry.list_artifacts()
        assert rows[0]["weights_sha256"] == content["weights_sha256"]

    def test_load_verifies_hash(self, tmp_path):
        import os

        from repro.serve import ArtifactIntegrityError

        registry = ModelRegistry(str(tmp_path))
        registry.save("m", slim_vgg_handle())
        registry.load("m")  # intact: verifies silently
        weights = os.path.join(str(tmp_path), "m", "v1", "weights.npz")
        with open(weights, "r+b") as fh:
            fh.seek(40)
            fh.write(b"\x13\x37\x13\x37")
        with pytest.raises(ArtifactIntegrityError, match="hash mismatch"):
            registry.load("m")

    def test_delete_version_and_name(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        handle = slim_vgg_handle()
        registry.save("m", handle)
        registry.save("m", handle)
        assert registry.delete("m", 1) == [1]
        assert registry.versions("m") == [2]
        assert registry.delete("m") == [2]
        assert registry.names() == []
        with pytest.raises(ArtifactNotFoundError):
            registry.delete("m")
        with pytest.raises(ArtifactNotFoundError):
            registry.delete("ghost", 3)

    def test_gc_keeps_newest_and_sweeps_tmp(self, tmp_path):
        import os

        registry = ModelRegistry(str(tmp_path))
        handle = slim_vgg_handle()
        for _ in range(3):
            registry.save("m", handle)
        registry.save("other", handle)
        stale = os.path.join(str(tmp_path), "m", ".tmp-v9-123")
        os.makedirs(stale)
        with open(os.path.join(stale, "junk"), "w") as fh:
            fh.write("x")
        os.utime(stale, (0, 0))  # crashed long ago
        report = registry.gc(keep_last=1)
        assert report["removed"] == {"m": [1, 2]}
        assert report["tmp_removed"] == [stale]
        assert report["bytes_freed"] > 0
        assert registry.versions("m") == [3]
        assert registry.versions("other") == [1]
        # idempotent
        assert registry.gc(keep_last=1)["removed"] == {}

    def test_gc_spares_fresh_tmp_dirs(self, tmp_path):
        # A fresh .tmp-* directory may be a save in flight in another
        # process; gc must not break the atomic-save guarantee.
        import os

        registry = ModelRegistry(str(tmp_path))
        registry.save("m", slim_vgg_handle())
        live = os.path.join(str(tmp_path), "m", ".tmp-v2-999")
        os.makedirs(live)
        report = registry.gc(keep_last=1)
        assert report["tmp_removed"] == []
        assert os.path.isdir(live)
        # explicit short threshold sweeps it
        os.utime(live, (0, 0))
        assert registry.gc(keep_last=1)["tmp_removed"] == [live]

    def test_gc_keep_beyond_version_count_is_noop(self, tmp_path):
        # keep_last larger than an artifact's version count must keep
        # everything, not wrap the slice around and drop versions.
        registry = ModelRegistry(str(tmp_path))
        handle = slim_vgg_handle()
        registry.save("m", handle)
        registry.save("m", handle)
        report = registry.gc(keep_last=3)
        assert report["removed"] == {}
        assert registry.versions("m") == [1, 2]

    def test_gc_keep_zero_empties_registry(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        registry.save("m", slim_vgg_handle())
        report = registry.gc(keep_last=0)
        assert report["removed"] == {"m": [1]}
        assert registry.names() == []
        with pytest.raises(ValueError):
            registry.gc(keep_last=-1)

    def test_cli_registry_rm_and_gc(self, tmp_path, capsys):
        from repro.cli import main

        registry = ModelRegistry(str(tmp_path))
        handle = slim_vgg_handle()
        registry.save("m", handle)
        registry.save("m", handle)
        assert main(["registry", "rm", "m@v1", "--registry", str(tmp_path)]) == 0
        assert registry.versions("m") == [2]
        assert main(["registry", "rm", "ghost", "--registry", str(tmp_path)]) == 2
        assert main(["registry", "rm", "--registry", str(tmp_path)]) == 2
        registry.save("m", handle)
        assert main(["registry", "gc", "--registry", str(tmp_path), "--keep", "1"]) == 0
        assert registry.versions("m") == [3]
        capsys.readouterr()


# ----------------------------------------------------------------------
# Artifacts and callers from before the dispatch tuner was removed
# ----------------------------------------------------------------------
def _legacy_dispatch_block(schema):
    """A ``dispatch`` manifest block as older versions saved it."""
    geometry = {
        "in_c": 8, "out_c": 8, "kernel": 3, "stride": 1, "padding": 1,
        "h": 32, "w": 32, "kind": "topk", "kept": 4, "dtype": "float32",
    }
    entry = {
        "geometry": geometry, "strategy": "stacked", "kept_quantum": 1,
        "tile_rows": None, "dense_threshold": 0.0, "baseline_ms": 1.0,
        "winner_ms": 0.9, "sites": 1,
    }
    return {"schema": schema, "entries": [entry]}


class TestLegacyDispatch:
    def test_old_manifest_dispatch_blocks_are_ignored(self, tmp_path, capsys):
        import hashlib
        import json
        import os

        from repro.cli import main

        handle = slim_vgg_handle()
        registry = ModelRegistry(str(tmp_path))
        for name in ("plain", "mismatch", "unknown"):
            registry.save(name, handle)
        unknown = _legacy_dispatch_block("repro.dispatch.v999")
        legacy = {
            # A block whose recorded digest does not match it.
            "mismatch": (_legacy_dispatch_block("repro.dispatch.v1"), "0" * 64),
            # A block with a consistent digest but an unknown schema.
            "unknown": (
                unknown,
                hashlib.sha256(
                    json.dumps(unknown, sort_keys=True).encode("utf-8")
                ).hexdigest(),
            ),
        }
        for name, (block, digest) in legacy.items():
            path = os.path.join(registry.resolve(name)[1], "artifact.json")
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
            manifest["dispatch"] = block
            manifest["content"]["dispatch_sha256"] = digest
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh)

        requests = make_requests(4, seed=11)

        def serve(name):
            with InferenceSession.from_registry(
                registry, name, backend="sparse", session=SessionConfig(max_batch=4)
            ) as session:
                return session.infer_many(requests)

        expected = serve("plain")
        for name in legacy:
            assert registry.load(name).plan_config == registry.load("plain").plan_config
            for out, ref in zip(serve(name), expected):
                np.testing.assert_array_equal(out, ref)
        rows = registry.list_artifacts()
        assert [row["name"] for row in rows] == ["mismatch", "plain", "unknown"]
        assert main(["registry", "ls", "--registry", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert "mismatch" in printed and "unknown" in printed

    def test_old_manifest_cache_entries_is_ignored(self, tmp_path, capsys):
        import json
        import os

        from repro.cli import main

        handle = slim_vgg_handle()
        registry = ModelRegistry(str(tmp_path))
        registry.save("plain", handle)
        registry.save("cached", handle)
        path = os.path.join(registry.resolve("cached")[1], "artifact.json")
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        # Older versions saved the weight-slice cache's capacity here, and
        # every artifact saved before the plan kept only batch_invariant
        # recorded these four retired fields at their defaults.
        manifest["plan"].update(
            cache_entries=256, fuse_conv_bn=True, dense_threshold=0.15,
            ragged_mode="auto", kept_quantum=4,
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)

        requests = make_requests(4, seed=12)

        def serve(name):
            with InferenceSession.from_registry(
                registry, name, backend="sparse", session=SessionConfig(max_batch=4)
            ) as session:
                return session.infer_many(requests)

        assert registry.load("cached").plan_config == registry.load("plain").plan_config
        for out, ref in zip(serve("cached"), serve("plain")):
            np.testing.assert_array_equal(out, ref)
        assert [row["name"] for row in registry.list_artifacts()] == ["cached", "plain"]
        assert main(["registry", "ls", "--registry", str(tmp_path)]) == 0
        assert "cached" in capsys.readouterr().out
        for retired in (
            {"cache_entries": 1}, {"ragged_mode": "auto"}, {"fuse_conv_bn": True},
            {"dense_threshold": 0.15}, {"kept_quantum": 4},
        ):
            with pytest.raises(TypeError):
                PlanConfig(**retired)

    def test_removed_tuner_options_raise(self, monkeypatch):
        from repro.serve import ProcPoolEngine

        stack = build_conv_stack(0.5, width=8, depth=2, seed=0)
        for backend in ("sparse", "auto", "dense"):
            with pytest.raises(TypeError):
                create_engine(stack, backend=backend, tuned=True)
        with pytest.raises(ValueError):
            create_engine(stack, backend="adaptive")

        def no_spawn(self, index, gen):
            raise AssertionError("a worker process was spawned")

        monkeypatch.setattr(ProcPoolEngine, "_spawn", no_spawn)
        for retired in (
            {"dispatch_table": None},
            {"inner_backend": "sparse"},
            {"registry": "artifacts", "ref": "stack"},
            {"slots_per_worker": 2},
            {"respawn_limit": 8},
            {"start_timeout": 1.0},
        ):
            with pytest.raises(TypeError):
                ProcPoolEngine(stack, proc_workers=1, **retired)

    def test_retired_scheduling_options(self):
        stack = build_conv_stack(0.5, width=8, depth=2, seed=0)
        requests = make_requests(4, image_size=16, seed=14)
        served = []
        # bucket_requests is accepted and ignored: it serves like the default.
        for config in (
            SessionConfig(max_batch=4),
            SessionConfig(max_batch=4, bucket_requests=True),
        ):
            with InferenceSession.from_model(stack, session=config) as session:
                served.append((session.infer_many(requests), set(session.stats())))
        (default, default_keys), (bucketed, bucketed_keys) = served
        assert bucketed_keys == default_keys
        assert "bucket_windows" not in default_keys
        for out, ref in zip(bucketed, default):
            np.testing.assert_array_equal(out, ref)
        for retired in ({"bucket_fn": lambda a: 0}, {"shard_by_bucket": True}):
            with pytest.raises(TypeError):
                SessionConfig(**retired)


# ----------------------------------------------------------------------
# InferenceSession
# ----------------------------------------------------------------------
class TestInferenceSession:
    def test_micro_batched_outputs_bit_identical(self):
        stack = build_conv_stack(0.6, width=16, depth=3)
        engine = create_engine(stack, "sparse")
        requests = make_requests(12, image_size=16, seed=6)
        reference = [engine(r) for r in requests]
        with InferenceSession(
            engine, SessionConfig(max_batch=8, batch_window_ms=20.0)
        ) as session:
            outputs = session.infer_many(requests)
        for out, ref in zip(outputs, reference):
            np.testing.assert_array_equal(out, ref)

    def test_registry_session_matches_original_executor(self, tmp_path):
        handle = slim_vgg_handle()
        executor_out = [
            create_engine(handle, "sparse")(r)
            for r in make_requests(5, seed=8)
        ]
        registry = ModelRegistry(str(tmp_path))
        registry.save("vgg", handle)
        with InferenceSession.from_registry(
            registry, "vgg@v1", backend="sparse",
            session=SessionConfig(max_batch=4, batch_window_ms=20.0),
        ) as session:
            outputs = session.infer_many(make_requests(5, seed=8))
        for out, ref in zip(outputs, executor_out):
            np.testing.assert_array_equal(out, ref)

    def test_telemetry_counts_and_occupancy(self):
        with InferenceSession.from_model(
            build_conv_stack(0.5, width=16, depth=3), backend="sparse",
            session=SessionConfig(max_batch=4, batch_window_ms=50.0),
        ) as session:
            session.infer_many(make_requests(8, image_size=16, seed=9))
            stats = session.stats()
        assert stats["requests"] == 8
        assert stats["samples"] == 8
        assert stats["batches"] >= 2
        assert 0.0 < stats["occupancy"] <= 1.0
        assert stats["latency_ms"]["p95"] >= stats["latency_ms"]["p50"] > 0.0

    def test_reset_stats_keeps_warm_workspace(self):
        session = InferenceSession.from_model(
            build_conv_stack(0.7, width=16, depth=3, granularity="batch"),
            backend="sparse",
        )
        batch = np.concatenate(make_requests(4, image_size=16, seed=10))
        session.predict(batch)
        before = session.stats()["engine"]
        assert before["dispatch"]["channel"] > 0
        session.reset_stats()
        after = session.stats()["engine"]
        # Counters reset; the warmed workspace survives the reset.
        assert sum(after["dispatch"].values()) == 0
        assert after["workspace"]["bytes"] == before["workspace"]["bytes"]
        # Steady-state traffic resumes with no scratch allocation.
        session.predict(batch)
        resumed = session.stats()["engine"]["workspace"]
        assert resumed["allocations"] == before["workspace"]["allocations"]
        session.close()

    def test_multi_sample_requests_and_shapes(self):
        with InferenceSession.from_model(
            build_conv_stack(0.5, width=16, depth=3), backend="sparse",
            session=SessionConfig(max_batch=4),
        ) as session:
            out = session.infer(np.zeros((3, 16, 16), dtype=np.float32))
            assert out.shape == (1, 10)
            out = session.infer(np.zeros((3, 3, 16, 16), dtype=np.float32))
            assert out.shape == (3, 10)
            with pytest.raises(ValueError):
                session.submit(np.zeros((16, 16), dtype=np.float32))

    def test_oversized_request_rejected(self):
        with InferenceSession.from_model(
            build_conv_stack(0.5, width=16, depth=3), backend="sparse",
            session=SessionConfig(max_batch=4),
        ) as session:
            with pytest.raises(ValueError, match="batch window"):
                session.submit(np.zeros((5, 3, 16, 16), dtype=np.float32))
            # predict() is the sanctioned path for oversized batches.
            out = session.predict(np.zeros((5, 3, 16, 16), dtype=np.float32))
            assert out.shape == (5, 10)

    def test_worker_survives_mixed_shape_window(self):
        with InferenceSession.from_model(
            build_conv_stack(0.5, width=16, depth=3), backend="sparse",
            session=SessionConfig(max_batch=4, batch_window_ms=50.0),
        ) as session:
            a = session.submit(np.zeros((3, 16, 16), dtype=np.float32))
            b = session.submit(np.zeros((3, 8, 8), dtype=np.float32))
            # One of the fused requests fails (concatenate or engine), but
            # both resolve and the worker keeps serving.
            outcomes = []
            for handle in (a, b):
                try:
                    outcomes.append(handle.result(timeout=10.0))
                except Exception as error:  # noqa: BLE001 - expected path
                    outcomes.append(error)
            assert any(isinstance(o, Exception) for o in outcomes)
            ok = session.infer(np.zeros((3, 16, 16), dtype=np.float32), timeout=10.0)
            assert ok.shape == (1, 10)

    def test_engine_error_surfaces_per_request(self):
        with InferenceSession.from_model(
            build_conv_stack(0.5, width=16, depth=3), backend="sparse",
        ) as session:
            pending = session.submit(np.zeros((5, 16, 16), dtype=np.float32))
            with pytest.raises(ValueError):
                pending.result(timeout=10.0)
            # The worker survives bad requests.
            ok = session.infer(np.zeros((3, 16, 16), dtype=np.float32), timeout=10.0)
            assert ok.shape == (1, 10)

    def test_closed_session_rejects_submits(self):
        session = InferenceSession.from_model(
            build_conv_stack(0.5, width=16, depth=3), backend="sparse",
        )
        session.close()
        with pytest.raises(SessionClosed):
            session.submit(np.zeros((3, 16, 16), dtype=np.float32))
        with pytest.raises(SessionClosed):
            session.predict(np.zeros((3, 16, 16), dtype=np.float32))

    def test_queue_backpressure_nonblocking(self):
        session = InferenceSession.from_model(
            build_conv_stack(0.5, width=16, depth=3), backend="sparse",
            session=SessionConfig(max_batch=1, queue_depth=1, batch_window_ms=0.0),
        )
        try:
            with pytest.raises(queue.Full):
                for _ in range(64):
                    session.submit(
                        np.zeros((3, 16, 16), dtype=np.float32), block=False
                    )
        finally:
            session.close()

    def test_session_config_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(max_batch=0)
        with pytest.raises(ValueError):
            SessionConfig(batch_window_ms=-1.0)
        with pytest.raises(ValueError):
            SessionConfig(queue_depth=0)

    def test_predict_validates_input_rank(self):
        with InferenceSession.from_model(
            build_conv_stack(0.5, width=16, depth=3), backend="sparse",
        ) as session:
            with pytest.raises(ValueError, match="expected"):
                session.predict(np.zeros((16, 16), dtype=np.float32))

    def test_predict_does_not_skew_window_stats(self):
        with InferenceSession.from_model(
            build_conv_stack(0.5, width=16, depth=3), backend="sparse",
            session=SessionConfig(max_batch=4),
        ) as session:
            session.predict(np.zeros((32, 3, 16, 16), dtype=np.float32))
            stats = session.stats()
            assert stats["requests"] == 1 and stats["samples"] == 32
            # Window occupancy describes only scheduler-fused batches.
            assert stats["batches"] == 0 and stats["occupancy"] == 0.0


# ----------------------------------------------------------------------
# Multi-worker sessions
# ----------------------------------------------------------------------
class TestMultiWorkerSession:
    def test_outputs_bit_identical_across_worker_counts(self):
        # A VGG16 and a ResNet with top-k channel sites beside the conv
        # stack: windows of 4 at 1, 2 and 4 workers must answer exactly
        # as per-request execution does.
        subjects = [
            ("conv_stack", build_conv_stack(0.6, width=16, depth=3), 16),
            ("vgg16", slim_vgg_handle(), 32),
            ("resnet", slim_resnet_handle(), 32),
        ]
        for name, model, image_size in subjects:
            engine = create_engine(model, "sparse")
            assert engine.thread_safe
            requests = make_requests(24, image_size=image_size, seed=21)
            reference = [engine(r) for r in requests]
            for workers in (1, 2, 4):
                with InferenceSession(
                    engine,
                    SessionConfig(max_batch=4, batch_window_ms=5.0, workers=workers),
                ) as session:
                    outputs = session.infer_many(requests)
                for out, ref in zip(outputs, reference):
                    np.testing.assert_array_equal(
                        out, ref, err_msg=f"{name} at {workers} workers"
                    )

    def test_concurrent_submitters_get_their_own_answers(self):
        import threading

        stack = build_conv_stack(0.6, width=16, depth=3)
        requests = make_requests(30, image_size=16, seed=22)
        engine = create_engine(stack, "sparse")
        reference = [engine(r) for r in requests]
        results: dict = {}
        with InferenceSession(
            engine, SessionConfig(max_batch=4, batch_window_ms=5.0, workers=3)
        ) as session:

            def client(start: int) -> None:
                for i in range(start, len(requests), 3):
                    results[i] = session.infer(requests[i])

            threads = [threading.Thread(target=client, args=(s,)) for s in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = session.stats()
        assert stats["requests"] == 30
        assert stats["errors"] == 0
        for i, ref in enumerate(reference):
            np.testing.assert_array_equal(results[i], ref)

    def test_merged_telemetry_sums_per_worker(self):
        with InferenceSession.from_model(
            build_conv_stack(0.5, width=16, depth=3), backend="sparse",
            session=SessionConfig(max_batch=2, batch_window_ms=5.0, workers=2),
        ) as session:
            session.infer_many(make_requests(12, image_size=16, seed=23))
            stats = session.stats()
        assert stats["workers"] == 2
        assert stats["requests"] == 12
        assert sum(stats["per_worker"].values()) == stats["batches"]
        # Per-thread workspace arenas surface in the merged engine stats.
        assert stats["engine"]["workspace"]["arenas"] >= 1

    def test_non_thread_safe_engine_is_serialized_not_rejected(self):
        model = vgg16(num_classes=10, width_multiplier=0.125, seed=1)
        model.eval()
        engine = DenseEngine(model)
        assert not engine.thread_safe
        requests = make_requests(6, seed=24)
        reference = [engine(r) for r in requests]
        # max_batch=1: DenseEngine is not batch-invariant, so only
        # per-request windows can be compared bitwise — the point here is
        # that two workers around a non-thread-safe engine still serialize
        # onto correct answers instead of racing the autograd state.
        with InferenceSession(
            engine, SessionConfig(max_batch=1, batch_window_ms=5.0, workers=2)
        ) as session:
            outputs = session.infer_many(requests)
        for out, ref in zip(outputs, reference):
            np.testing.assert_array_equal(out, ref)

    def test_close_race_with_tiny_queue_strands_no_request(self):
        import threading
        import time

        # Regression: with queue_depth < workers, a shutdown sentinel can
        # surface mid-window while close() is still blocked posting the
        # next one.  A worker must take it as its own exit ticket (never
        # re-post, never collect again) or its window's requests would be
        # stranded unresolved.
        stack = build_conv_stack(0.5, width=16, depth=3)
        requests = make_requests(6, image_size=16, seed=30)
        for _ in range(5):
            session = InferenceSession.from_model(
                stack, backend="sparse",
                session=SessionConfig(
                    max_batch=4, batch_window_ms=1.0, queue_depth=1, workers=2
                ),
            )
            accepted: list = []

            def client() -> None:
                for r in requests:
                    try:
                        accepted.append(session.submit(r))
                    except SessionClosed:
                        return

            threads = [threading.Thread(target=client) for _ in range(2)]
            for t in threads:
                t.start()
            time.sleep(0.002)
            session.close(timeout=10.0)
            for t in threads:
                t.join(timeout=10.0)
            for pending in accepted:
                # A stranded request would raise TimeoutError here.
                assert pending.result(timeout=10.0).shape[0] == 1
            for worker in session._workers:
                worker.join(timeout=10.0)
                assert not worker.is_alive()

    def test_close_stops_every_worker(self):
        session = InferenceSession.from_model(
            build_conv_stack(0.5, width=16, depth=3), backend="sparse",
            session=SessionConfig(workers=3),
        )
        session.infer(make_requests(1, image_size=16, seed=25)[0])
        session.close(timeout=10.0)
        for worker in session._workers:
            assert not worker.is_alive()
        with pytest.raises(SessionClosed):
            session.submit(make_requests(1, image_size=16)[0])

    def test_workers_config_validated(self):
        with pytest.raises(ValueError):
            SessionConfig(workers=0)


# ----------------------------------------------------------------------
# Serve loop
# ----------------------------------------------------------------------
class TestServeLoop:
    def test_jsonl_round_trip(self, tmp_path):
        import io
        import json

        from repro.serve import serve_lines, synthetic_request_lines

        lines = synthetic_request_lines(6, image_size=16, seed=0)
        lines.append('{"id": "bad", "nonsense": 1}')
        out = io.StringIO()
        with InferenceSession.from_model(
            build_conv_stack(0.5, width=16, depth=3), backend="sparse",
            session=SessionConfig(max_batch=4, batch_window_ms=20.0),
        ) as session:
            stats = serve_lines(session, lines, out, include_output=False)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(responses) == 7
        good = [r for r in responses if "error" not in r]
        assert len(good) == 6
        assert all("argmax" in r and "latency_ms" in r for r in good)
        assert "error" in responses[-1]
        # The id survives decode failures so clients can correlate errors.
        assert responses[-1]["id"] == "bad"
        assert stats["requests"] == 6

# ----------------------------------------------------------------------
# Scheduler / lifecycle bugfixes (PR 6)
# ----------------------------------------------------------------------
class _SlowEngine:
    """Engine whose forward sleeps — for close-timeout and loop-timeout tests."""

    backend = "slow"
    thread_safe = True

    def __init__(self, delay: float, classes: int = 4):
        self.delay = delay
        self.classes = classes

    def forward(self, x):
        import time as _time

        _time.sleep(self.delay)
        return np.zeros((x.shape[0], self.classes), dtype=np.float32)

    def __call__(self, x):
        return self.forward(x)

    def stats(self):
        return {"backend": self.backend}

    def reset_stats(self):
        pass


def _stopped_session(config):
    """A session whose worker has exited, for driving _collect by hand."""
    engine = create_engine(build_conv_stack(0.5, width=16, depth=3), "sparse")
    session = InferenceSession(engine, config)
    session.close()
    session._queue = queue.Queue()  # fresh queue, no shutdown sentinels
    return session


class TestCollectorDeadline:
    def test_expired_deadline_stops_queue_draining(self):
        """Past the deadline an overflowing request is carried, not a hunt.

        The collector takes at most the one request that overflows the
        window (it seeds the worker's next window); every other queued
        request stays on the shared queue for sibling workers.
        """
        from repro.serve.session import PendingResult, _Request

        session = _stopped_session(
            SessionConfig(max_batch=2, batch_window_ms=0.0, workers=1)
        )
        one = make_requests(1, image_size=8)[0]
        two = np.concatenate([one, one])
        for _ in range(6):
            session._queue.put(_Request(two, PendingResult()))
        first = _Request(one, PendingResult())
        batch, carry, saw_shutdown = session._collect(first)
        assert batch == [first]
        assert carry is not None and carry.array.shape[0] == 2
        assert not saw_shutdown
        assert session._queue.qsize() == 5


class TestResultMemoryIndependence:
    def test_window_results_do_not_share_memory(self):
        """Each caller's result owns its buffer — no view pinning the window.

        Before the fix every response was a view into the fused window
        output, so one caller keeping its logits alive pinned every other
        caller's logits (and the whole base array) in memory.
        """
        engine = create_engine(build_conv_stack(0.5, width=16, depth=3), "sparse")
        with InferenceSession(
            engine,
            SessionConfig(max_batch=4, batch_window_ms=100.0, workers=1),
        ) as session:
            outputs = session.infer_many(make_requests(4, image_size=8, seed=2))
        stats = session.stats()
        assert stats["batches"] < stats["requests"]  # windows actually fused
        for out in outputs:
            assert out.base is None  # owns its memory outright
        for i in range(len(outputs)):
            for j in range(i + 1, len(outputs)):
                assert not np.shares_memory(outputs[i], outputs[j])


class TestCloseDeadline:
    def test_close_timeout_is_shared_and_surfaces_stragglers(self):
        """close(timeout) bounds the whole close and names unjoined workers.

        Before the fix each worker got its own ``join(timeout)`` (an
        effective bound of N x timeout) and close returned silently even
        when workers never exited.
        """
        import time as _time

        session = InferenceSession(
            _SlowEngine(delay=1.0),
            SessionConfig(max_batch=1, batch_window_ms=0.0, workers=3),
        )
        handles = [session.submit(x) for x in make_requests(3, image_size=8)]
        _time.sleep(0.1)  # let every worker pick up a request
        start = _time.monotonic()
        with pytest.raises(TimeoutError, match="worker"):
            session.close(timeout=0.2)
        elapsed = _time.monotonic() - start
        assert elapsed < 0.75  # one shared deadline, not 3 x 1.0s joins
        # The workers do finish; nothing is abandoned mid-request.
        for handle in handles:
            handle.result(timeout=5.0)
        for worker in session._workers:
            worker.join(timeout=5.0)
            assert not worker.is_alive()

    def test_close_without_timeout_still_joins_everything(self):
        session = InferenceSession(
            _SlowEngine(delay=0.05),
            SessionConfig(max_batch=1, batch_window_ms=0.0, workers=2),
        )
        session.submit(make_requests(1, image_size=8)[0])
        session.close()
        for worker in session._workers:
            assert not worker.is_alive()


class TestServeLoopHardening:
    def test_result_timeout_is_a_parameter(self):
        """A stuck request produces a per-line error, on the caller's budget."""
        import io
        import json

        from repro.serve import serve_lines

        session = InferenceSession(
            _SlowEngine(delay=0.5),
            SessionConfig(max_batch=1, batch_window_ms=0.0, workers=1),
        )
        out = io.StringIO()
        try:
            serve_lines(
                session,
                ['{"id": "slow", "synthetic": 0, "shape": [3, 8, 8]}'],
                out,
                include_output=False,
                result_timeout=0.02,
            )
        finally:
            session.close()
        (response,) = [json.loads(line) for line in out.getvalue().splitlines()]
        assert response["id"] == "slow"
        assert "error" in response and "complete in time" in response["error"]

    @pytest.mark.parametrize(
        "shape",
        [
            [3, 32],  # not a triple
            [3, 32, 32, 32],  # not a triple
            [3, 0, 32],  # non-positive dim
            [3, -4, 32],  # negative dim
            [3, 2.5, 32],  # non-integer dim
            ["3", 32, 32],  # stringly-typed dim
            [True, 32, 32],  # bool is not a sane channel count
            [3, 100000, 100000],  # absurd element count
            [3, 32768, 2],  # single dim beyond the cap
            "3x32x32",  # not even a list
        ],
    )
    def test_decode_request_rejects_bad_shapes(self, shape):
        import json

        from repro.serve import decode_request

        line = json.dumps({"id": "r", "synthetic": 1, "shape": shape})
        with pytest.raises(ValueError, match="shape"):
            decode_request(line)

    def test_bad_shape_line_errors_without_killing_the_loop(self):
        import io
        import json

        from repro.serve import serve_lines

        lines = [
            '{"id": "good", "synthetic": 0, "shape": [3, 8, 8]}',
            '{"id": "evil", "synthetic": 0, "shape": [3, 99999, 99999]}',
            '{"id": "also-good", "synthetic": 1, "shape": [3, 8, 8]}',
        ]
        out = io.StringIO()
        with InferenceSession.from_model(
            build_conv_stack(0.5, width=16, depth=3),
            backend="sparse",
            session=SessionConfig(max_batch=4, batch_window_ms=20.0),
        ) as session:
            stats = serve_lines(session, lines, out, include_output=False)
        responses = {r["id"]: r for r in map(json.loads, out.getvalue().splitlines())}
        assert "argmax" in responses["good"]
        assert "argmax" in responses["also-good"]
        assert "shape" in responses["evil"]["error"]
        assert stats["requests"] == 2
