#!/usr/bin/env python3
"""Serving the sparse engine: registry artifacts + micro-batched sessions.

PR 1 built the batched sparse engine; this example shows the serving stack
(:mod:`repro.serve`) that PR 2 put on top of it:

1. build a VGG-style conv stack with AntiDote dynamic-pruning layers and
   register it as a named, versioned artifact (``.npz`` + JSON manifest);
2. load it back through the :class:`~repro.serve.ModelRegistry` and wrap
   it in an :class:`~repro.serve.InferenceSession` — the stable inference
   API with a bounded queue and a micro-batching scheduler;
3. verify the serving contract: responses are **bit-identical** to
   one-request-at-a-time execution (every compiled plan op is
   batch-invariant, so batch composition is unobservable);
4. time one-at-a-time vs micro-batched serving and print the session
   telemetry (latency quantiles, occupancy, kernel dispatch counts);
5. run the same traffic through a **multi-worker** session (PR 3): N
   threads share the compiled plan's read-only weights, each with its own
   workspace arena, and responses stay bit-identical.

The script exits 1 if either bit-identity check fails.

Serving throughput and latency on the paper's Table I models are
measured by ``perfbench/run.py`` (see ``perfbench/README.md``).
"""

import sys
import tempfile
import time

import numpy as np

from repro.models import build_conv_stack
from repro.serve import InferenceSession, ModelRegistry, SessionConfig

REQUESTS = 48


def main() -> int:
    rng = np.random.default_rng(1)
    requests = [rng.normal(size=(1, 3, 8, 8)).astype(np.float32) for _ in range(REQUESTS)]

    with tempfile.TemporaryDirectory() as root:
        print("== register a model artifact ==")
        registry = ModelRegistry(root)
        stack = build_conv_stack(channel_ratio=0.6, width=16, depth=4)
        name, version = registry.save(
            "conv-demo",
            stack,
            arch={"family": "conv_stack", "channel_ratio": 0.6, "width": 16, "depth": 4},
            metadata={"note": "sparse serving demo"},
        )
        print(f"saved {name}@v{version} under {root}")

        print("\n== serve it through a micro-batched session ==")
        session = InferenceSession.from_registry(
            registry, "conv-demo", backend="sparse",
            session=SessionConfig(max_batch=8, batch_window_ms=20.0),
        )

        # One-at-a-time reference (and the bit-exactness oracle).
        session.predict(np.concatenate(requests[:8]))  # warm plan + workspace
        start = time.perf_counter()
        reference = [session.predict(r) for r in requests]
        t_seq = time.perf_counter() - start
        session.reset_stats()

        start = time.perf_counter()
        outputs = session.infer_many(requests)
        t_batched = time.perf_counter() - start

        single_worker = all(np.array_equal(a, b) for a, b in zip(outputs, reference))
        print(f"one-at-a-time: {REQUESTS / t_seq:7.0f} requests/s")
        print(f"micro-batched: {REQUESTS / t_batched:7.0f} requests/s "
              f"({t_seq / t_batched:.2f}x)")
        print(f"responses bit-identical to per-request execution: {single_worker}")

        stats = session.stats()
        print(f"\nsession telemetry: {stats['batches']} batches, "
              f"occupancy {stats['occupancy']:.2f}, "
              f"p50 {stats['latency_ms']['p50']:.2f}ms, "
              f"p95 {stats['latency_ms']['p95']:.2f}ms")
        dispatch = {k: v for k, v in stats["engine"]["dispatch"].items() if v}
        print(f"conv kernel dispatches: {dispatch}")
        session.close()

        print("\n== multi-worker session (same contract, N threads) ==")
        # Plan-backed engines are thread-safe: read-only fused weights and
        # per-thread workspace arenas.  Which
        # worker runs a window is as unobservable as batch composition.
        session = InferenceSession.from_registry(
            registry, "conv-demo", backend="sparse",
            session=SessionConfig(max_batch=8, batch_window_ms=20.0, workers=2),
        )
        outputs = session.infer_many(requests)
        two_workers = all(np.array_equal(a, b) for a, b in zip(outputs, reference))
        stats = session.stats()
        workspace = stats["engine"]["workspace"]
        print(f"2 workers, per-worker windows {stats['per_worker']}, "
              f"bit-identical: {two_workers}")
        print(f"workspace arenas: {workspace['arenas']} threads, "
              f"{workspace['reuses']} buffer reuses, "
              f"{workspace['bytes'] / 1024:.0f}K resident scratch")
        session.close()

    print(
        "\nMicro-batching is where the engine's kept-count grouping"
        "\namortizes across callers: requests that share a window run as"
        "\none batched GEMM per kept-count group, while batch-invariant plans keep"
        "\nevery response bit-identical to solo execution — batching is an"
        "\ninvisible scheduling detail, exactly what a serving API must"
        "\nguarantee."
    )
    return 0 if single_worker and two_workers else 1


if __name__ == "__main__":
    sys.exit(main())
