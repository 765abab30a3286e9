"""Tests for confidence-gated cascade serving and registry gc pinning.

Two load-bearing contracts:

* **Escalated responses are bit-identical to direct stage execution** —
  an answer from ladder stage ``i`` is byte-for-byte what running stage
  ``i``'s model standalone would produce, and *which* stage answers is a
  deterministic function of the input alone (batch composition, worker
  scheduling, and submission order are invisible).
* **gc never collects a served version** — a live session's pin file
  protects its artifact version from ``delete`` and ``gc`` across
  processes; stale pins (dead pids) protect nothing.
"""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.models import build_conv_stack
from repro.nn.functional import predictive_entropy, softmax_probs, top2_margin
from repro.serve import (
    ArtifactNotFoundError,
    ArtifactPinnedError,
    CascadeSession,
    GATES,
    InferenceSession,
    ModelRegistry,
    PendingResult,
    SessionClosed,
    SessionConfig,
    gate_confidence,
)


def make_requests(count, image_size=16, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=(1, 3, image_size, image_size)).astype(np.float32)
        for _ in range(count)
    ]


def stage_session(ratio, width=12, depth=2, seed=0, workers=1):
    stack = build_conv_stack(ratio, width=width, depth=depth, seed=seed)
    return InferenceSession.from_model(
        stack,
        backend="sparse",
        session=SessionConfig(max_batch=4, batch_window_ms=1.0, workers=workers),
    )


def family_registry(root, name_prefix="fam", family="demo", ratios=(0.7, 0.0), seed=0):
    """A registry holding one shared-weight family at several sparsities."""
    registry = ModelRegistry(str(root))
    for ratio in ratios:
        stack = build_conv_stack(ratio, width=12, depth=2, seed=seed)
        arch = {
            "family": "conv_stack",
            "channel_ratio": ratio,
            "spatial_ratio": 0.0,
            "width": 12,
            "depth": 2,
            "seed": seed,
        }
        registry.save(
            f"{name_prefix}-r{int(round(ratio * 100)):02d}",
            stack,
            arch=arch,
            family=family,
            sparsity_level=ratio,
        )
    return registry


# ----------------------------------------------------------------------
# Gate helpers vs float64 oracles
# ----------------------------------------------------------------------
class TestGateHelpers:
    def _logits(self, seed=0, n=64, k=10, scale=1.0):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(n, k)) * scale).astype(np.float32)

    def test_softmax_probs_matches_float64_oracle(self):
        for scale in (1.0, 30.0):
            logits = self._logits(seed=1, scale=scale)
            got = softmax_probs(logits)
            z = logits.astype(np.float64)
            oracle = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
            np.testing.assert_allclose(got, oracle, atol=1e-6)
            np.testing.assert_allclose(got.sum(axis=-1), 1.0, atol=1e-6)

    def test_softmax_probs_survives_huge_logits(self):
        logits = np.array([[1e4, 1e4 - 2.0], [-1e4, -1e4 + 1.0]], dtype=np.float32)
        got = softmax_probs(logits)
        assert np.all(np.isfinite(got))
        # The shift makes overflow impossible; ratios survive exactly.
        oracle = 1.0 / (1.0 + np.exp(-2.0))
        assert got[0, 0] == pytest.approx(oracle, abs=1e-6)

    def test_predictive_entropy_matches_float64_oracle(self):
        logits = self._logits(seed=2, scale=5.0)
        got = predictive_entropy(logits)
        z = logits.astype(np.float64)
        p = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
        oracle = -(p * np.log(p)).sum(axis=-1) / np.log(logits.shape[-1])
        np.testing.assert_allclose(got, oracle, atol=1e-6)

    def test_predictive_entropy_extremes(self):
        uniform = np.zeros((1, 8), dtype=np.float32)
        assert predictive_entropy(uniform)[0] == pytest.approx(1.0)
        certain = np.array([[200.0] + [0.0] * 7], dtype=np.float32)
        assert predictive_entropy(certain)[0] == pytest.approx(0.0, abs=1e-6)
        unnormalized = predictive_entropy(uniform, normalize=False)
        assert unnormalized[0] == pytest.approx(np.log(8))
        # Single-class logits carry no uncertainty (and no 0*log(0)).
        assert predictive_entropy(np.zeros((3, 1), dtype=np.float32)).tolist() == [
            0.0,
            0.0,
            0.0,
        ]

    def test_top2_margin_matches_float64_oracle(self):
        logits = self._logits(seed=3, scale=3.0)
        got = top2_margin(logits)
        z = logits.astype(np.float64)
        p = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
        ordered = np.sort(p, axis=-1)
        oracle = ordered[:, -1] - ordered[:, -2]
        np.testing.assert_allclose(got, oracle, atol=1e-6)
        # A single class has nothing to be confused with.
        assert top2_margin(np.zeros((2, 1), dtype=np.float32)).tolist() == [1.0, 1.0]

    def test_gates_rank_confident_above_uniform(self):
        confident = np.array([[6.0] + [0.0] * 9], dtype=np.float32)
        uniform = np.zeros((1, 10), dtype=np.float32)
        for gate in GATES:
            assert gate_confidence(gate, confident)[0] > gate_confidence(gate, uniform)[0]

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError, match="unknown gate"):
            gate_confidence("oracle", np.zeros((1, 4)))


# ----------------------------------------------------------------------
# Routing: degenerate ladders and the escalation contract
# ----------------------------------------------------------------------
class TestCascadeRouting:
    def test_default_thresholds_escalate_everything(self):
        stages = [stage_session(0.7, seed=0), stage_session(0.0, seed=1)]
        cascade = CascadeSession(stages)
        try:
            requests = make_requests(6, seed=5)
            handles = [cascade.submit(x) for x in requests]
            for handle, x in zip(handles, requests):
                out = handle.result(timeout=30.0)
                assert handle.stage == 1
                np.testing.assert_array_equal(out, stages[1].predict(x))
            stats = cascade.stats()
            assert stats["escalated"] == 6
            assert stats["escalation_rate"] == 1.0
            assert stats["stages"][0]["accepted"] == 0
            assert stats["stages"][1]["accepted"] == 6
        finally:
            cascade.close()
            for stage in stages:
                stage.close()

    def test_neg_inf_threshold_accepts_everything_at_stage0(self):
        stages = [stage_session(0.7, seed=0), stage_session(0.0, seed=1)]
        cascade = CascadeSession(stages, thresholds=[-np.inf])
        try:
            requests = make_requests(5, seed=6)
            for x in requests:
                handle = cascade.submit(x)
                out = handle.result(timeout=30.0)
                assert handle.stage == 0
                assert handle.confidence is not None
                np.testing.assert_array_equal(out, stages[0].predict(x))
            assert cascade.stats()["escalated"] == 0
        finally:
            cascade.close()
            for stage in stages:
                stage.close()

    def test_single_stage_ladder_answers_everything(self):
        stage = stage_session(0.5, seed=2)
        cascade = CascadeSession([stage])
        try:
            x = make_requests(1, seed=7)[0]
            handle = cascade.submit(x)
            np.testing.assert_array_equal(handle.result(timeout=30.0), stage.predict(x))
            assert handle.stage == 0
            assert cascade.stats()["escalation_rate"] == 0.0
        finally:
            cascade.close()
            stage.close()

    def test_done_callback_sees_the_answering_stage(self):
        stages = [stage_session(0.7, seed=0), stage_session(0.0, seed=1)]
        cascade = CascadeSession(stages)
        try:
            handle = cascade.submit(make_requests(1, seed=7)[0])
            assert isinstance(handle, PendingResult)
            seen = []
            fired = threading.Event()

            def callback(result):
                seen.append((result.stage, result.result(0).shape))
                fired.set()

            handle.add_done_callback(callback)
            assert fired.wait(30.0)
            # Default thresholds escalate everything to the final stage.
            assert seen == [(1, (1, 10))]
        finally:
            cascade.close()
            for stage in stages:
                stage.close()

    def _mixed_threshold(self, stage, requests, gate="msp"):
        """A threshold splitting these requests into accept and escalate."""
        confidences = sorted(
            float(gate_confidence(gate, stage.predict(x)).min()) for x in requests
        )
        assert confidences[0] < confidences[-1]
        return (confidences[len(confidences) // 2 - 1] + confidences[len(confidences) // 2]) / 2.0

    def test_escalated_bit_identity_across_batch_composition_and_workers(self):
        requests = make_requests(10, seed=8)
        reference = None
        for workers in (1, 2):
            for order_seed in (0, 1):
                stages = [
                    stage_session(0.7, seed=0, workers=workers),
                    stage_session(0.0, seed=1, workers=workers),
                ]
                threshold = self._mixed_threshold(stages[0], requests)
                cascade = CascadeSession(stages, thresholds=[threshold])
                try:
                    order = np.random.default_rng(order_seed).permutation(len(requests))
                    handles = {i: cascade.submit(requests[i]) for i in order}
                    outcome = {}
                    for i, handle in handles.items():
                        out = handle.result(timeout=30.0)
                        # The answering stage, run directly, gives the
                        # same bytes.
                        np.testing.assert_array_equal(
                            out, stages[handle.stage].predict(requests[i])
                        )
                        outcome[i] = (handle.stage, out.tobytes())
                    stats = cascade.stats()
                    assert 0 < stats["escalated"] < len(requests)
                except BaseException:
                    raise
                finally:
                    cascade.close()
                    for stage in stages:
                        stage.close()
                if reference is None:
                    reference = outcome
                else:
                    # Same inputs -> same stage decisions and same bytes,
                    # no matter the workers or submission order.
                    assert outcome == reference

    def test_verify_escalations_recomputes_accepted_answers(self):
        stages = [stage_session(0.7, seed=0), stage_session(0.0, seed=1)]
        requests = make_requests(8, seed=9)
        threshold = self._mixed_threshold(stages[0], requests)
        cascade = CascadeSession(stages, thresholds=[threshold], verify_escalations=True)
        try:
            for x in requests:
                cascade.submit(x)
            handles = [cascade.submit(x) for x in requests]
            for handle in handles:
                handle.result(timeout=30.0)
            stats = cascade.stats()
            assert stats["escalated"] > 0
            assert stats["verified_escalations"] > 0
        finally:
            cascade.close()
            for stage in stages:
                stage.close()

    def test_multi_sample_request_escalates_on_least_confident_sample(self):
        stages = [stage_session(0.7, seed=0), stage_session(0.0, seed=1)]
        requests = make_requests(8, seed=10)
        ranked = sorted(
            requests,
            key=lambda x: float(gate_confidence("msp", stages[0].predict(x)).min()),
        )
        low, high = ranked[0], ranked[-1]
        low_conf = float(gate_confidence("msp", stages[0].predict(low)).min())
        high_conf = float(gate_confidence("msp", stages[0].predict(high)).min())
        threshold = (low_conf + high_conf) / 2.0
        cascade = CascadeSession(stages, thresholds=[threshold])
        try:
            assert cascade.submit(high).result(timeout=30.0) is not None
            solo = cascade.submit(high)
            solo.result(timeout=30.0)
            assert solo.stage == 0
            # Pairing the confident sample with a shaky one drags the
            # request's min-confidence below the gate: the pair escalates.
            pair = np.concatenate([high, low], axis=0)
            joint = cascade.submit(pair)
            out = joint.result(timeout=30.0)
            assert joint.stage == 1
            np.testing.assert_array_equal(out, stages[1].predict(pair))
        finally:
            cascade.close()
            for stage in stages:
                stage.close()

    def test_constructor_and_threshold_validation(self):
        with pytest.raises(ValueError, match="at least one stage"):
            CascadeSession([])
        stage = stage_session(0.5)
        try:
            with pytest.raises(ValueError, match="unknown gate"):
                CascadeSession([stage], gate="crystal-ball")
            cascade = CascadeSession([stage])
            try:
                with pytest.raises(ValueError, match="thresholds"):
                    cascade.set_thresholds([0.5])
            finally:
                cascade.close()
        finally:
            stage.close()

    def test_submit_after_close_raises(self):
        stage = stage_session(0.5)
        cascade = CascadeSession([stage])
        cascade.close()
        stage.close()
        with pytest.raises(SessionClosed):
            cascade.submit(make_requests(1)[0])


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
class TestCalibration:
    def test_calibrate_installs_thresholds_and_reports(self):
        stages = [stage_session(0.7, seed=0), stage_session(0.0, seed=1)]
        cascade = CascadeSession(stages)
        try:
            inputs = np.concatenate(make_requests(32, seed=11), axis=0)
            report = cascade.calibrate(inputs, retention=0.5)
            assert report.samples == 32
            assert len(report.thresholds) == 1
            assert cascade.thresholds == report.thresholds
            assert sum(report.accept_fraction) == pytest.approx(1.0)
            assert 0.0 <= report.expected_accuracy <= 1.0
            # With labels = densest argmax the final stage is always
            # perfectly "accurate" on whatever reaches it.
            if report.accept_fraction[-1] > 0:
                assert report.stage_agreement[-1] == pytest.approx(1.0)
        finally:
            cascade.close()
            for stage in stages:
                stage.close()

    def test_calibrate_with_hostile_labels_closes_the_gate(self):
        stages = [stage_session(0.7, seed=0), stage_session(0.0, seed=1)]
        cascade = CascadeSession(stages)
        try:
            inputs = np.concatenate(make_requests(16, seed=12), axis=0)
            wrong = (stages[0].predict(inputs).argmax(axis=1) + 1) % 10
            report = cascade.calibrate(inputs, labels=wrong, retention=0.99)
            # Stage 0 can never hit 99% agreement with labels built to
            # disagree with it: the gate stays closed (+inf).
            assert report.thresholds[0] == np.inf
            assert report.accept_fraction[0] == 0.0
            assert report.stage_agreement[0] is None
        finally:
            cascade.close()
            for stage in stages:
                stage.close()

    def test_calibrate_validation(self):
        stage = stage_session(0.5)
        cascade = CascadeSession([stage])
        try:
            inputs = np.concatenate(make_requests(4, seed=13), axis=0)
            with pytest.raises(ValueError, match="retention"):
                cascade.calibrate(inputs, retention=0.0)
            with pytest.raises(ValueError, match=r"\(N,C,H,W\)"):
                cascade.calibrate(inputs[0])
            with pytest.raises(ValueError, match="labels shape"):
                cascade.calibrate(inputs, labels=np.zeros(3, dtype=np.int64))
        finally:
            cascade.close()
            stage.close()


# ----------------------------------------------------------------------
# Registry families and from_registry ladders
# ----------------------------------------------------------------------
class TestRegistryFamilies:
    def test_family_filter_and_ladder_order(self, tmp_path):
        registry = family_registry(tmp_path, ratios=(0.4, 0.7, 0.0))
        registry.save(
            "outsider", build_conv_stack(0.5, width=12, depth=2, seed=3),
            arch={"family": "conv_stack", "channel_ratio": 0.5, "spatial_ratio": 0.0,
                  "width": 12, "depth": 2, "seed": 3},
        )
        rows = registry.list_artifacts(family="demo")
        assert {row["name"] for row in rows} == {"fam-r40", "fam-r70", "fam-r00"}
        assert all(row["model_family"] == "demo" for row in rows)
        ladder = registry.family_ladder("demo")
        assert [row["sparsity_level"] for row in ladder] == [0.7, 0.4, 0.0]
        assert [row["ref"] for row in ladder] == [
            "fam-r70@v1", "fam-r40@v1", "fam-r00@v1",
        ]
        with pytest.raises(ArtifactNotFoundError, match="family"):
            registry.family_ladder("nonexistent")

    def test_family_ladder_uses_newest_version(self, tmp_path):
        registry = family_registry(tmp_path, ratios=(0.7,))
        # Re-save the same name denser: the ladder must pick v2's level.
        registry.save(
            "fam-r70", build_conv_stack(0.2, width=12, depth=2, seed=0),
            arch={"family": "conv_stack", "channel_ratio": 0.2, "spatial_ratio": 0.0,
                  "width": 12, "depth": 2, "seed": 0},
            family="demo", sparsity_level=0.2,
        )
        ladder = registry.family_ladder("demo")
        assert [(row["ref"], row["sparsity_level"]) for row in ladder] == [
            ("fam-r70@v2", 0.2)
        ]

    def test_sparsity_level_validated(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        with pytest.raises(ValueError, match="sparsity_level"):
            registry.save(
                "bad", build_conv_stack(0.5, width=12, depth=2),
                arch={"family": "conv_stack", "channel_ratio": 0.5,
                      "spatial_ratio": 0.0, "width": 12, "depth": 2, "seed": 0},
                family="demo", sparsity_level=1.5,
            )

    def test_from_registry_family_ladder_serves_and_matches(self, tmp_path):
        registry = family_registry(tmp_path, ratios=(0.7, 0.0))
        cascade = CascadeSession.from_registry(registry, family="demo")
        try:
            assert len(cascade.stages) == 2
            x = make_requests(1, seed=14)[0]
            handle = cascade.submit(x)
            out = handle.result(timeout=30.0)
            assert handle.stage == 1  # default thresholds escalate
            np.testing.assert_array_equal(out, cascade.stages[1].predict(x))
        finally:
            cascade.close()

    def test_from_registry_needs_exactly_one_ladder_source(self, tmp_path):
        registry = family_registry(tmp_path)
        with pytest.raises(ValueError, match="exactly one"):
            CascadeSession.from_registry(registry)
        with pytest.raises(ValueError, match="exactly one"):
            CascadeSession.from_registry(
                registry, refs=["fam-r70"], family="demo"
            )


# ----------------------------------------------------------------------
# GC pinning
# ----------------------------------------------------------------------
class TestPinning:
    def test_session_pins_version_against_delete_and_gc(self, tmp_path):
        registry = family_registry(tmp_path, ratios=(0.7,))
        session = InferenceSession.from_registry(registry, "fam-r70")
        try:
            assert registry.live_pins("fam-r70", 1)
            with pytest.raises(ArtifactPinnedError, match="pinned"):
                registry.delete("fam-r70")
            report = registry.gc(keep_last=0)
            assert report["pinned_kept"] == {"fam-r70": [1]}
            assert report["removed"] == {}
        finally:
            session.close()
        # Close released the pin: gc may now collect it.
        assert registry.live_pins("fam-r70", 1) == []
        report = registry.gc(keep_last=0)
        assert report["removed"] == {"fam-r70": [1]}

    def test_force_delete_overrides_pin(self, tmp_path):
        registry = family_registry(tmp_path, ratios=(0.7,))
        session = InferenceSession.from_registry(registry, "fam-r70")
        try:
            assert registry.delete("fam-r70", force=True) == [1]
        finally:
            session.close()

    def test_gc_without_respect_pins_collects_pinned(self, tmp_path):
        registry = family_registry(tmp_path, ratios=(0.7,))
        session = InferenceSession.from_registry(registry, "fam-r70")
        try:
            report = registry.gc(keep_last=0, respect_pins=False)
            assert report["removed"] == {"fam-r70": [1]}
        finally:
            session.close()

    def test_stale_pin_from_dead_pid_is_swept(self, tmp_path):
        registry = family_registry(tmp_path, ratios=(0.7,))
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        pins_dir = os.path.join(str(tmp_path), "fam-r70", "v1", ".pins")
        os.makedirs(pins_dir, exist_ok=True)
        stale = os.path.join(pins_dir, f"pin-{proc.pid}-deadbeef.json")
        with open(stale, "w", encoding="utf-8") as fh:
            json.dump({"pid": proc.pid, "name": "fam-r70", "version": 1}, fh)
        assert registry.live_pins("fam-r70", 1, sweep_stale=True) == []
        assert not os.path.exists(stale)
        # A stale pin protects nothing.
        report = registry.gc(keep_last=0)
        assert report["removed"] == {"fam-r70": [1]}

    def test_cascade_pins_every_stage_until_close(self, tmp_path):
        registry = family_registry(tmp_path, ratios=(0.7, 0.0))
        cascade = CascadeSession.from_registry(registry, family="demo")
        try:
            assert registry.live_pins("fam-r70", 1)
            assert registry.live_pins("fam-r00", 1)
            report = registry.gc(keep_last=0)
            assert report["removed"] == {}
            assert sorted(report["pinned_kept"]) == ["fam-r00", "fam-r70"]
        finally:
            cascade.close()
        report = registry.gc(keep_last=0)
        assert sorted(report["removed"]) == ["fam-r00", "fam-r70"]

    def test_unpin_is_idempotent(self, tmp_path):
        registry = family_registry(tmp_path, ratios=(0.7,))
        token = registry.pin("fam-r70")
        registry.unpin(token)
        registry.unpin(token)  # no-op
        assert registry.live_pins("fam-r70", 1) == []


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCascadeCli:
    def test_serve_cascade_family_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        family_registry(tmp_path / "reg", ratios=(0.7, 0.0))
        out_path = tmp_path / "responses.jsonl"
        code = main([
            "serve", "--cascade",
            "--registry", str(tmp_path / "reg"),
            "--family", "demo",
            "--calibrate", "16", "--retention", "0.5",
            "--synthetic", "6", "--image-size", "16",
            "--no-output", "--output", str(out_path),
        ])
        assert code == 0
        responses = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(responses) == 6
        assert all("stage" in r and "argmax" in r for r in responses)
        err = capsys.readouterr().err
        assert "calibrated msp gate" in err
        assert "2-stage cascade" in err

    def test_serve_cascade_flag_validation(self, capsys):
        from repro.cli import main

        assert main(["serve", "--cascade"]) == 2
        assert main(["serve", "--cascade", "--registry", "reg"]) == 2
        assert main([
            "serve", "--cascade", "--registry", "reg",
            "--family", "demo", "--model", "fam-r70",
        ]) == 2
        assert main(["serve", "--family", "demo"]) == 2

    def test_registry_rm_pinned_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        registry = family_registry(tmp_path / "reg", ratios=(0.7,))
        session = InferenceSession.from_registry(registry, "fam-r70")
        try:
            code = main([
                "registry", "rm", "fam-r70", "--registry", str(tmp_path / "reg"),
            ])
            assert code == 1
            assert "--force" in capsys.readouterr().out
            code = main([
                "registry", "rm", "fam-r70", "--force",
                "--registry", str(tmp_path / "reg"),
            ])
            assert code == 0
        finally:
            session.close()

    def test_registry_ls_family_filter(self, tmp_path, capsys):
        from repro.cli import main

        family_registry(tmp_path / "reg", ratios=(0.7,))
        assert main([
            "registry", "ls", "--registry", str(tmp_path / "reg"),
            "--family", "demo",
        ]) == 0
        out = capsys.readouterr().out
        assert "fam-r70" in out and "0.70" in out
        assert main([
            "registry", "ls", "--registry", str(tmp_path / "reg"),
            "--family", "other",
        ]) == 0
        assert "no artifacts" in capsys.readouterr().out
