#!/usr/bin/env python3
"""The repository's serving benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload vgg16_cifar10_topk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The program under test is imported from
``src/`` beside this directory and driven only through its public
serving API: ``ModelRegistry.save``/``load``,
``InferenceSession.from_registry`` and ``create_engine``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` installs the program's ``Tracer`` and a ``PlanProfiler``
and measures the per-layer metrics instead.  Both check the answers.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the metric names and units
being those ``BENCHMARK.json`` lists.  Everything else a run measured,
and for traced runs a Chrome trace and a per-layer table, is written
under ``perfbench/results/``.  A failed answer check exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
ARTIFACT = "bench-model"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Warm-up requests per set-up (two closed-loop rounds), never timed.
WARMUP = 32
#: Distinct request images per second of run: far above any workload's
#: throughput today, so no image repeats (a faster program wraps around,
#: and the run reports how many requests reused an image).
POOL_RATE = 100
#: Answers per run checked bit for bit against a lone run, and the share
#: of those also checked against the float64 reference.
BIT_SAMPLE = 24
REFERENCE_EVERY = 2


def _load_program():
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: the program's source is missing: {src}")
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _metric_specs():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: {path} is missing")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def _environment(steal):
    import numpy as np

    from loadgen import blas_threads

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "steal_share": steal,
    }


def _lone_engine(registry):
    """In-process engine built from the served artifact, as sessions build it."""
    from repro.serve import create_engine

    artifact = registry.load(ARTIFACT)
    config = dataclasses.replace(artifact.plan_config, batch_invariant=True)
    return artifact, create_engine(artifact.handle, backend="sparse", config=config)


def _setup(registry, workload, images, profile=False):
    """``from_registry`` through warm-up; returns (session, setup_s, warmup_s)."""
    from loadgen import run_closed_loop
    from repro.serve import InferenceSession

    start = time.perf_counter()
    session = InferenceSession.from_registry(
        registry, ARTIFACT, backend=workload.backend, session=workload.session,
        **workload.engine_kwargs(profile),
    )
    built = time.perf_counter()
    warm = run_closed_loop(session, images, 0, workload.inflight, count=WARMUP)
    if any(a.error is not None for a in warm.answers):
        session.close()
        raise RuntimeError(f"warm-up request failed: {warm.answers[0].error}")
    end = time.perf_counter()
    return session, end - start, end - built


def check_answers(answers, images, registry, lone=None):
    """Bit-identity on an evenly spread sample, float64 reference on a part."""
    import numpy as np

    from answers import bit_identical, matches_reference, reference_logits

    artifact, engine = lone if lone is not None else _lone_engine(registry)
    served = sorted((a for a in answers if a.error is None), key=lambda a: a.done)
    picks = np.unique(np.linspace(0, len(served) - 1, BIT_SAMPLE).round().astype(int))
    sample = [served[i] for i in picks]
    wrong = set()
    for a in sample:
        if not bit_identical(a.output, engine(images[a.index][None])):
            wrong.add(id(a))
    ref_sample = sample[::REFERENCE_EVERY]
    logits, ambiguous = reference_logits(artifact.model, images[[a.index for a in ref_sample]])
    compared = 0
    for a, ref, skip in zip(ref_sample, logits, ambiguous):
        if skip:
            continue
        compared += 1
        close, top1 = matches_reference(a.output, ref[None])
        if not (close and top1):
            wrong.add(id(a))
    return {
        "bit_identity_checked": len(sample),
        "reference_checked": compared,
        "reference_left_out": int(ambiguous.sum()),
        "wrong": len(wrong),
    }


def run_untraced(workload, seconds, registry, images):
    import numpy as np

    from loadgen import peak_rss_mb, quiet_figures, run_closed_loop

    setups = []
    for i in range(SETUPS):
        session, setup_s, _ = _setup(registry, workload, images)
        setups.append(setup_s)
        if i < SETUPS - 1:
            session.close()
            gc.collect()
    try:
        phase = run_closed_loop(session, images, WARMUP, workload.inflight, seconds)
        rss = peak_rss_mb()
    finally:
        session.close()
    metrics = quiet_figures(phase)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = rss
    latencies = [a.latency * 1e3 for a in phase.answers]
    details = {
        "setups_s": setups,
        "quiet_share": metrics.pop("quiet_share"),
        "quiet_requests": metrics.pop("quiet_requests"),
        # The latency figures over the whole phase, for comparison (README.md).
        "whole_phase": {
            "answered": len(phase.answers),
            "latency_p50_ms": float(np.percentile(latencies, 50)),
            "latency_p95_ms": float(np.percentile(latencies, 95)),
            "latency_p99_ms": float(np.percentile(latencies, 99)),
        },
        "requests": [
            [round(a.submitted - phase.start, 5), round(a.latency * 1e3, 3)] for a in phase.answers
        ],
        "timeline": [
            [round(t - phase.start, 4), round(c, 4), None if st is None else st[:8]]
            for t, c, st in phase.timeline
        ],
    }
    return metrics, [phase], details, None


def run_traced(workload, seconds, registry, images, trace_path):
    import numpy as np

    import layers
    from loadgen import quiet_figures, run_closed_loop
    from repro.obs import PlanProfiler, Tracer, merge_profiles
    from repro.obs import runtime as obs_runtime
    from repro.serve import create_engine

    tracer = Tracer()
    setup_root = tracer.new_trace()
    t0 = time.perf_counter()
    artifact, load_s = layers.timed(registry.load, ARTIFACT)
    t1 = time.perf_counter()
    config = dataclasses.replace(artifact.plan_config, batch_invariant=True)
    engine, build_s = layers.timed(create_engine, artifact.handle, backend="sparse", config=config)
    t2 = time.perf_counter()
    tracer.emit_child(setup_root, "bench.registry_load", t0, t1)
    tracer.emit_child(setup_root, "bench.engine_build", t1, t2)
    metrics = {"registry.load_s": load_s, "engine.build_s": build_s}
    procpool = workload.backend == "procpool"
    if procpool:
        pool, spawn_s = layers.timed(
            create_engine, artifact.handle, backend="procpool", config=config,
            **workload.engine_kwargs(),
        )
        pool.close()
        tracer.emit_child(setup_root, "bench.pool_spawn", t2, t2 + spawn_s)
        metrics["procpool.spawn_s"] = spawn_s
    t3 = time.perf_counter()
    session, _, warmup_s = _setup(registry, workload, images, profile=procpool)
    t4 = time.perf_counter()
    tracer.emit_child(setup_root, "bench.from_registry", t3, t4 - warmup_s)
    tracer.emit_child(setup_root, "bench.warmup", t4 - warmup_s, t4)
    tracer.emit(setup_root, None, "bench.setup", t0, t4)
    metrics["session.warmup_s"] = warmup_s

    half = seconds / 2
    try:
        untraced = run_closed_loop(session, images, WARMUP, workload.inflight, half)
        if procpool:
            before = merge_profiles(
                s.get("profile") for s in session.engine.process_stats().values()
            )
        else:
            session.engine.plan.profiler = PlanProfiler()
        session.reset_stats()
        obs_runtime.install(tracer)
        try:
            traced = run_closed_loop(
                session, images, WARMUP + len(untraced.answers), workload.inflight, half,
                tracer=tracer,
            )
        finally:
            obs_runtime.uninstall()
        if procpool:
            per_process = session.engine.process_stats()
            plans = list(per_process.values())
            rows = layers.profile_delta(
                merge_profiles(s.get("profile") for s in plans), before
            )
            windows = list(session.stats()["engine"]["per_process"].values())
            metrics["procpool.window_imbalance"] = max(windows) / float(np.mean(windows))
        else:
            plans = [session.engine.stats()]
            rows = session.engine.plan.profiler.snapshot()
            session.engine.plan.profiler = None
    finally:
        session.close()
    requests = len(traced.answers)
    records = tracer.snapshot()
    metrics.update(layers.span_metrics(records, requests))
    metrics.update(layers.profile_metrics(rows, requests))
    metrics.update(layers.engine_memory_metrics(plans))
    untraced_rps = quiet_figures(untraced)["throughput_rps"]
    traced_rps = quiet_figures(traced)["throughput_rps"]
    metrics["obs.traced_throughput_ratio"] = traced_rps / untraced_rps

    dense_artifact = registry.load(ARTIFACT)
    dense_artifact.handle.set_enabled(False)
    dense = create_engine(dense_artifact.handle, backend="sparse", config=config)
    metrics.update(
        layers.achieved_over_analytic(
            workload.arch, engine, dense, registry.load(ARTIFACT).handle,
            images[WARMUP : WARMUP + layers.FLOPS_IMAGES],
        )
    )
    with open(trace_path, "w", encoding="utf-8") as fh:
        tracer.export_chrome(fh)
    details = {
        "untraced_throughput_rps": untraced_rps,
        "traced_throughput_rps": traced_rps,
        "spans": len(records),
        "profile": rows[:20],
    }
    return metrics, [untraced, traced], details, (artifact, engine)


def _self_test():
    """Each answer check passes on true responses and fails on perturbed ones."""
    import numpy as np

    from answers import bit_identical, matches_reference, perturbations, reference_logits
    from repro.serve import ModelRegistry
    from workloads import WORKLOADS, build_model, make_images

    ok = True
    for name in ("vgg16_cifar10_topk", "resnet56_cifar10_columns", "vgg16_cifar10_adaptive"):
        workload = WORKLOADS[name]
        images, calibration = make_images(0, 8)
        root = RESULTS / f"selftest-{os.getpid()}"
        try:
            registry = ModelRegistry(str(root))
            registry.save(ARTIFACT, build_model(workload, 0, calibration))
            artifact, engine = _lone_engine(registry)
            outputs = [engine(image[None]) for image in images]
            logits, ambiguous = reference_logits(artifact.model, images)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        i = int(np.flatnonzero(~ambiguous)[0])
        response, ref = outputs[i], logits[i][None]
        verdicts = {"true": (bit_identical(response, outputs[i]), *matches_reference(response, ref))}
        for label, bad in perturbations(response):
            verdicts[label] = (bit_identical(bad, outputs[i]), *matches_reference(bad, ref))
        expected = {
            "true": (True, True, True),
            "one_ulp": (False, True, True),
            "shifted_logit": (False, False, True),
            "swapped_top2": (False, False, False),
        }
        print(f"{name}: (bit_identical, allclose, top1_equal)")
        for label, verdict in verdicts.items():
            match = verdict == expected[label]
            ok &= match
            print(f"  {label:<14} {verdict} {'as expected' if match else 'UNEXPECTED'}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    _load_program()
    end_to_end, per_layer = _metric_specs()
    RESULTS.mkdir(exist_ok=True)
    if args.self_test:
        return _self_test()

    from repro.serve import ModelRegistry
    from workloads import WORKLOADS, build_model, make_images

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    pool = WARMUP + max(200, int(POOL_RATE * args.seconds))
    images, calibration = make_images(args.seed, pool)
    registry_root = RESULTS / f"registry-{os.getpid()}"
    try:
        registry = ModelRegistry(str(registry_root))
        registry.save(ARTIFACT, build_model(workload, args.seed, calibration))
        gc.collect()
        if args.trace:
            metrics, phases, details, lone = run_traced(
                workload, args.seconds, registry, images,
                RESULTS / f"{stem}.trace.json",
            )
        else:
            metrics, phases, details, lone = run_untraced(
                workload, args.seconds, registry, images
            )
        answers = [a for phase in phases for a in phase.answers]
        checks = check_answers(answers, images, registry, lone)
    finally:
        shutil.rmtree(registry_root, ignore_errors=True)

    errors = sum(a.error is not None for a in answers)
    served = WARMUP + sum(len(p.answers) for p in phases)
    listed = per_layer if args.trace else end_to_end
    result = {
        "correct": checks["wrong"] == 0,
        "attempted": len(answers),
        "failed": errors + checks["wrong"],
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in listed
        },
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(phases[-1].steal_share),
        "checks": checks,
        "errors": [repr(a.error) for a in answers if a.error is not None][:5],
        "reused_images": max(0, served - len(images)),
        "metrics": metrics,
        "details": details,
        "result": result,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        import layers

        lines = [f"{'metric':<42} {'value':>14}  unit"]
        units = dict(layers.POOL_UNITS, **{m["name"]: m["unit"] for m in per_layer})
        for name, value in sorted(metrics.items()):
            lines.append(f"{name:<42} {value:>14.6g}  {units.get(name, '')}")
        (RESULTS / f"{stem}.layers.txt").write_text("\n".join(lines) + "\n")
        print("\n".join(lines))
    print("environment", json.dumps(record["environment"]))
    print("checks", json.dumps(checks))
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
