"""Command-line interface for the AntiDote reproduction.

Usage (after ``pip install -e .``)::

    python -m repro.cli table1 --setting vgg16_cifar10
    python -m repro.cli table1 --all --fast
    python -m repro.cli fig2 --arch vgg16
    python -m repro.cli fig3 --arch resnet
    python -m repro.cli fig4
    python -m repro.cli autotune --target 30 --tolerance 0.15
    python -m repro.cli quick
    python -m repro.cli save-artifact --registry artifacts --name vgg-demo
    python -m repro.cli registry ls --registry artifacts
    python -m repro.cli serve --registry artifacts --model vgg-demo --synthetic 16 --workers 2
    python -m repro.cli serve --cascade --registry artifacts --family demo --calibrate 64 --synthetic 32

The experiment subcommands (``table1``, ``fig2``–``fig4``, ``autotune``,
``quick``) train at harness scale (slim models, synthetic data) and print
paper-reported vs measured numbers.  All subcommands take ``--seed`` so
runs are reproducible from the command line (weights, synthetic data, and
request streams all derive from it).  Serving speed is measured by
``perfbench/run.py`` (see ``perfbench/README.md``), not by this CLI.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .analysis.experiments import TABLE1_SETTINGS, run_table1_setting
from .analysis.figures import fig2_series, fig3_series, fig4_composition, render_series
from .core.engine import available_backends
from .core.pruning import PruningConfig, instrument_model
from .core.sensitivity import suggest_upper_bounds
from .core.training import fit
from .datasets import cifar10_like, make_loaders
from .models import ResNet, vgg16

FAST = dict(pretrain_epochs=3, ttd_epochs_per_stage=1, ttd_final_epochs=3, ttd_step=0.4)
FULL = dict(pretrain_epochs=6, ttd_epochs_per_stage=1, ttd_final_epochs=8, ttd_step=0.2)


def _trained_handle(arch: str, epochs: int = 6, seed: int = 0):
    train_loader, test_loader = make_loaders(
        cifar10_like(train_per_class=48, test_per_class=12, seed=seed),
        batch_size=32,
        seed=seed,
    )
    if arch == "vgg16":
        model = vgg16(num_classes=10, width_multiplier=0.125, seed=seed)
    elif arch == "resnet":
        model = ResNet(2, num_classes=10, width_multiplier=0.5, seed=seed)
    else:
        raise SystemExit(f"unknown arch {arch!r} (expected vgg16 or resnet)")
    print(f"training slim {arch} ({epochs} epochs, seed {seed})...")
    fit(model, train_loader, epochs=epochs, lr=0.08)
    handle = instrument_model(model, PruningConfig.disabled(model.num_blocks))
    return handle, test_loader


def cmd_table1(args: argparse.Namespace) -> int:
    keys = list(TABLE1_SETTINGS) if args.all else [args.setting]
    kwargs = FAST if args.fast else FULL
    for key in keys:
        if key not in TABLE1_SETTINGS:
            print(f"unknown setting {key!r}; choose from {sorted(TABLE1_SETTINGS)}")
            return 2
        start = time.time()
        outcome = run_table1_setting(key, seed=args.seed, **kwargs)
        setting = outcome.setting
        print(f"\n[{setting.name}]  ({time.time() - start:.0f}s)")
        print(f"  ratios: ch={list(setting.channel_ratios)} sp={list(setting.spatial_ratios)}")
        print(
            f"  FLOPs reduction: paper {setting.paper_reduction_pct:.1f}% | "
            f"projected {outcome.full_scale_reduction_pct:.1f}% "
            f"(channel {outcome.full_scale_channel_pct:.1f}% + spatial {outcome.full_scale_spatial_pct:.1f}%)"
        )
        print(
            f"  accuracy: baseline {outcome.baseline_accuracy:.3f} -> pruned {outcome.pruned_accuracy:.3f}"
        )
    return 0


def cmd_fig2(args: argparse.Namespace) -> int:
    handle, test_loader = _trained_handle(args.arch, seed=args.seed)
    sweep = fig2_series(handle, test_loader, ratios=[0.1, 0.2, 0.4, 0.6, 0.8])
    print(render_series(sweep, title=f"\nFig. 2 — {args.arch}, last-block channel pruning"))
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    handle, test_loader = _trained_handle(args.arch, seed=args.seed)
    result = fig3_series(handle, test_loader, ratios=[0.1, 0.3, 0.5, 0.7, 0.9])
    print(f"\nFig. 3 — {args.arch} block sensitivity (baseline {result.baseline_accuracy:.3f})")
    for block, curve in sorted(result.curves.items()):
        cells = "".join(f"  {r:.1f}:{acc:.3f}" for r, acc in curve)
        print(f"  block {block + 1}:{cells}")
    bounds = suggest_upper_bounds(result, max_drop=args.tolerance)
    print(f"  suggested upper bounds (tolerance {args.tolerance}): {bounds}")
    return 0


def cmd_fig4(args: argparse.Namespace) -> int:
    kwargs = FAST if args.fast else FULL
    pairs = {}
    for key, label in [
        ("vgg16_cifar10", "VGG16-CIFAR10"),
        ("resnet56_cifar10", "ResNet56-CIFAR10"),
        ("vgg16_imagenet100_s2", "VGG16-ImageNet100"),
    ]:
        outcome = run_table1_setting(key, seed=args.seed, **kwargs)
        pairs[label] = (outcome.full_scale_channel_pct, outcome.full_scale_spatial_pct)
    print("\nFig. 4 — redundancy composition")
    print(fig4_composition(pairs))
    return 0


def cmd_autotune(args: argparse.Namespace) -> int:
    from .core.autotune import autotune_metadata, greedy_ratio_search

    handle, test_loader = _trained_handle(args.arch, seed=args.seed)
    result = greedy_ratio_search(
        handle,
        test_loader,
        (3, 32, 32),
        target_reduction_pct=args.target,
        max_drop=args.tolerance,
        step=args.step,
    )
    print(f"\nautotune ({args.arch}): target {args.target:.0f}% reduction, "
          f"tolerance {args.tolerance}")
    print(f"  found ratios: {[round(r, 2) for r in result.ratios]}")
    print(f"  reduction {result.reduction_pct:.1f}% "
          f"({'target reached' if result.target_reached else 'budget exhausted'})")
    print(f"  accuracy {result.baseline_accuracy:.3f} -> {result.accuracy:.3f} "
          "(pre-TTD; run TTD ratio ascent to recover)")
    for step in result.history:
        print(f"    block {step.block + 1} -> {step.ratio:.2f}: "
              f"acc {step.accuracy:.3f}, red {step.reduction_pct:.1f}%")
    if args.save:
        from .serve import ModelRegistry

        # greedy_ratio_search leaves the handle at the winning vector, so
        # the artifact's pruning sites record exactly what was measured.
        handle.model.eval()
        registry = ModelRegistry(args.registry)
        # Mean fraction pruned across blocks: the machine-readable ladder
        # position `registry ls --family` / cascade assembly sort on.
        sparsity = float(sum(result.ratios) / len(result.ratios)) if result.ratios else 0.0
        name, version = registry.save(
            args.save,
            handle,
            family=args.family,
            sparsity_level=sparsity,
            metadata=autotune_metadata(
                result,
                arch=args.arch,
                seed=args.seed,
                search={
                    "target_reduction_pct": args.target,
                    "tolerance": args.tolerance,
                    "step": args.step,
                },
            ),
        )
        tag = f" (family {args.family}, sparsity {sparsity:.2f})" if args.family else ""
        print(f"  saved tuned artifact {name}@v{version} to {args.registry}{tag}")
    return 0


def cmd_quick(args: argparse.Namespace) -> int:
    outcome = run_table1_setting("vgg16_cifar10", seed=args.seed, **FAST)
    print(
        f"\nquick check: VGG16-CIFAR10 projected reduction "
        f"{outcome.full_scale_reduction_pct:.1f}% (paper 53.5%), "
        f"pruned accuracy {outcome.pruned_accuracy:.3f} "
        f"(baseline {outcome.baseline_accuracy:.3f})"
    )
    return 0


def _session_from_args(args: argparse.Namespace):
    """Build the InferenceSession ``repro serve`` / tests drive."""
    from .serve import InferenceSession, ModelRegistry, SessionConfig

    backend = args.backend
    engine_kwargs = {}
    workers = args.workers
    if getattr(args, "proc_workers", 0):
        # Process-parallel serving: the pool replaces the in-process
        # engine; session worker threads only dispatch, so give the pool
        # at least as many dispatchers as processes.
        backend = "procpool"
        engine_kwargs["proc_workers"] = args.proc_workers
        workers = max(workers, args.proc_workers)
    session_config = SessionConfig(
        max_batch=args.max_batch, batch_window_ms=args.window_ms, workers=workers
    )
    if args.registry and args.model:
        registry = ModelRegistry(args.registry)
        return InferenceSession.from_registry(
            registry, args.model, backend=backend, session=session_config,
            **engine_kwargs,
        )
    # No artifact named: serve a self-contained demo stack so the loop can
    # be exercised without a prior save-artifact run.
    from .models import build_conv_stack

    stack = build_conv_stack(0.6, width=16, depth=4, seed=args.seed)
    return InferenceSession.from_model(
        stack, backend=backend, session=session_config, **engine_kwargs
    )


def cmd_save_artifact(args: argparse.Namespace) -> int:
    from .serve import ModelRegistry

    registry = ModelRegistry(args.registry)
    ratios = [float(r) for r in args.ratios.split(",") if r.strip()]
    if args.arch == "vgg16":
        model = vgg16(num_classes=10, width_multiplier=args.width_multiplier, seed=args.seed)
    else:
        model = ResNet(1, num_classes=10, width_multiplier=args.width_multiplier, seed=args.seed)
    if len(ratios) != model.num_blocks:
        print(f"--ratios needs {model.num_blocks} comma-separated values for {args.arch}")
        return 2
    if args.epochs > 0:
        train_loader, _ = make_loaders(
            cifar10_like(train_per_class=48, test_per_class=12, seed=args.seed),
            batch_size=32,
            seed=args.seed,
        )
        print(f"training {args.arch} for {args.epochs} epochs...")
        fit(model, train_loader, epochs=args.epochs, lr=0.08)
    model.eval()
    handle = instrument_model(model, PruningConfig(ratios, [0.0] * model.num_blocks))
    name, version = registry.save(
        args.name,
        handle,
        metadata={"arch": args.arch, "trained_epochs": args.epochs, "seed": args.seed},
    )
    print(f"saved artifact {name}@v{version} to {args.registry}")
    return 0


def _cascade_from_args(args: argparse.Namespace):
    """Build the calibrated CascadeSession ``repro serve --cascade`` drives."""
    import numpy as np

    from .serve import CascadeSession, ModelRegistry, SessionConfig

    session_config = SessionConfig(
        max_batch=args.max_batch, batch_window_ms=args.window_ms, workers=args.workers
    )
    refs = None
    if args.model:
        refs = [r.strip() for r in args.model.split(",") if r.strip()]
    thresholds = None
    if args.thresholds:
        thresholds = [float(t) for t in args.thresholds.split(",") if t.strip()]
    cascade = CascadeSession.from_registry(
        ModelRegistry(args.registry),
        refs=refs,
        family=args.family,
        backend=args.backend,
        session=session_config,
        gate=args.gate,
        thresholds=thresholds,
    )
    try:
        if args.calibrate > 0:
            inputs = np.random.default_rng(args.seed + 99).normal(
                size=(args.calibrate, 3, args.image_size, args.image_size)
            ).astype(np.float32)
            report = cascade.calibrate(inputs, retention=args.retention)
            print(
                f"calibrated {args.gate} gate on {report.samples} synthetic "
                f"samples (retention {args.retention}): thresholds "
                f"{[round(t, 4) for t in report.thresholds]}, accept fractions "
                f"{[round(f, 3) for f in report.accept_fraction]}",
                file=sys.stderr,
            )
    except BaseException:
        cascade.close()
        raise
    return cascade


def _write_trace(tracer, path: str) -> None:
    """Export a tracer's spans as Chrome trace JSON + a coverage line."""
    from .obs import trace_coverage

    records = tracer.snapshot()
    with open(path, "w", encoding="utf-8") as fh:
        tracer.export_chrome(fh)
    coverage = trace_coverage(records)
    connected = sum(1 for entry in coverage.values() if entry["connected"])
    worst = min(
        (entry["coverage"] for entry in coverage.values() if entry["connected"]),
        default=0.0,
    )
    print(
        f"trace: {len(records)} spans across {len(coverage)} request(s) "
        f"({connected} connected, worst coverage {worst:.1%}) -> {path}",
        file=sys.stderr,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    import json as _json

    from .serve import ArtifactNotFoundError, serve_lines, synthetic_request_lines

    if args.cascade:
        if not args.registry:
            print("--cascade needs --registry (a ladder of saved artifacts)")
            return 2
        if bool(args.family) == bool(args.model):
            print("--cascade needs exactly one of --family or --model "
                  "(comma-separated refs, sparsest first)")
            return 2
    elif args.family:
        print("--family only applies with --cascade")
        return 2
    elif bool(args.registry) != bool(args.model):
        print("--registry and --model must be given together")
        return 2
    try:
        session = _cascade_from_args(args) if args.cascade else _session_from_args(args)
    except ArtifactNotFoundError as error:
        print(f"artifact not found: {error.args[0]}")
        return 2
    except ValueError as error:
        print(f"cannot serve {args.model or args.family!r}: {error}")
        return 2
    tracer = None
    if args.trace_out:
        from .obs import Tracer
        from .obs import runtime as obs_runtime

        tracer = obs_runtime.install(Tracer())
    try:
        if args.synthetic:
            lines = synthetic_request_lines(
                args.synthetic, image_size=args.image_size, seed=args.seed
            )
        elif args.input == "-":
            lines = sys.stdin
        else:
            lines = open(args.input, encoding="utf-8")
        out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
        try:
            stats = serve_lines(
                session, lines, out, include_output=not args.no_output,
                result_timeout=args.timeout if args.timeout > 0 else None,
            )
        finally:
            if out is not sys.stdout:
                out.close()
            if not args.synthetic and args.input != "-":
                lines.close()
        # Both artifacts read registry state the session owns, so they
        # must be written before close() unregisters its metric series.
        if args.metrics_file:
            with open(args.metrics_file, "w", encoding="utf-8") as fh:
                fh.write(session.metrics_text())
            print(f"metrics exposition -> {args.metrics_file}", file=sys.stderr)
        if tracer is not None:
            _write_trace(tracer, args.trace_out)
    finally:
        if tracer is not None:
            from .obs import runtime as obs_runtime

            obs_runtime.uninstall()
        session.close()
    if args.json:
        # Machine-readable stats land on stderr exactly where the human
        # summary would — stdout stays a pure response stream.
        print(_json.dumps(stats, default=str), file=sys.stderr)
        return 0
    if args.cascade:
        per_stage = ", ".join(
            f"s{i}: {row['entered']}->{row['accepted']}"
            for i, row in enumerate(stats["stages"])
        )
        print(
            f"served {stats['requests']} requests through a "
            f"{len(stats['stages'])}-stage cascade ({stats['gate']} gate, "
            f"{stats['escalated']} escalated, "
            f"p50 {stats['latency_ms']['p50']:.1f}ms, "
            f"p95 {stats['latency_ms']['p95']:.1f}ms)",
            file=sys.stderr,
        )
        print(f"stages (entered->accepted): {per_stage}", file=sys.stderr)
    else:
        print(
            f"served {stats['requests']} requests in {stats['batches']} batches "
            f"(occupancy {stats['occupancy']:.2f}, "
            f"p50 {stats['latency_ms']['p50']:.1f}ms, p95 {stats['latency_ms']['p95']:.1f}ms)",
            file=sys.stderr,
        )
        print(f"engine: {_json.dumps(stats['engine'])}", file=sys.stderr)
    return 0


def cmd_registry(args: argparse.Namespace) -> int:
    from .serve import (
        ArtifactNotFoundError,
        ArtifactPinnedError,
        ModelRegistry,
        parse_ref,
    )

    registry = ModelRegistry(args.registry)
    if args.action == "ls":
        rows = registry.list_artifacts(family=args.family)
        if args.json:
            import json as _json

            print(_json.dumps(rows, default=str))
            return 0
        if not rows:
            suffix = f" tagged family={args.family!r}" if args.family else ""
            print(f"no artifacts in {args.registry}{suffix}")
            return 0
        print(f"{'name':<20} {'ver':>4} {'arch':>8} {'family':>10} {'spars':>5} "
              f"{'sites':>5} {'size':>9} {'sha256':>10}  created")
        for row in rows:
            size_kb = row["size_bytes"] / 1024.0
            sha = (row["weights_sha256"] or "-")[:10]
            sparsity = row["sparsity_level"]
            print(f"{row['name']:<20} {'v' + str(row['version']):>4} "
                  f"{str(row['family']):>8} {str(row['model_family'] or '-'):>10} "
                  f"{('%.2f' % sparsity) if sparsity is not None else '-':>5} "
                  f"{row['pruning_sites']:>5} "
                  f"{size_kb:>8.1f}K {sha:>10}  {row['created_at']}")
        print(f"\n{len(rows)} artifact version(s) in {args.registry}")
        return 0
    if args.action == "rm":
        if not args.ref:
            print("registry rm needs an artifact reference (name or name@vN)")
            return 2
        try:
            name, version = parse_ref(args.ref)
        except ValueError as error:
            print(error)
            return 2
        try:
            removed = registry.delete(name, version, force=args.force)
        except ArtifactNotFoundError as error:
            print(f"artifact not found: {error.args[0]}")
            return 2
        except ArtifactPinnedError as error:
            print(f"{error.args[0]}\n(use --force to remove a version a live "
                  "session is serving)")
            return 1
        print(f"removed {name} version(s) {', '.join('v' + str(v) for v in removed)} "
              f"from {args.registry}")
        return 0
    # gc
    report = registry.gc(keep_last=args.keep, respect_pins=args.respect_pins)
    for name, versions in sorted(report["removed"].items()):
        print(f"pruned {name}: {', '.join('v' + str(v) for v in versions)}")
    for name, versions in sorted(report["pinned_kept"].items()):
        print(f"kept pinned {name}: {', '.join('v' + str(v) for v in versions)} "
              "(served by a live session)")
    for path in report["tmp_removed"]:
        print(f"swept stale temp dir {path}")
    if not report["removed"] and not report["tmp_removed"]:
        print(f"nothing to collect in {args.registry} (keep-last {args.keep})")
    else:
        print(f"freed {report['bytes_freed'] / 1024.0:.1f}K from {args.registry}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Serve synthetic traffic with tracing on; export a Chrome trace.

    The CI observability smoke: drives ``--synthetic N`` requests through
    the same session/cascade factories ``repro serve`` uses, writes the
    spans as Chrome trace-event JSON, and fails (exit 1) unless every
    request produced one connected span tree covering at least
    ``--min-coverage`` of its end-to-end latency.
    """
    import io

    from .obs import Tracer, trace_coverage
    from .obs import runtime as obs_runtime
    from .serve import ArtifactNotFoundError, serve_lines, synthetic_request_lines

    if args.cascade and not args.registry:
        print("--cascade needs --registry (a ladder of saved artifacts)")
        return 2
    try:
        session = _cascade_from_args(args) if args.cascade else _session_from_args(args)
    except ArtifactNotFoundError as error:
        print(f"artifact not found: {error.args[0]}")
        return 2
    tracer = obs_runtime.install(Tracer())
    try:
        lines = synthetic_request_lines(
            args.synthetic, image_size=args.image_size, seed=args.seed
        )
        serve_lines(session, lines, io.StringIO(), include_output=False)
        metrics_text = session.metrics_text()
    finally:
        obs_runtime.uninstall()
        session.close()
    records = tracer.drain()
    import json as _json

    from .obs import chrome_trace_events

    with open(args.output, "w", encoding="utf-8") as fh:
        _json.dump({"traceEvents": chrome_trace_events(records)}, fh, indent=1)
        fh.write("\n")
    if args.metrics_file:
        with open(args.metrics_file, "w", encoding="utf-8") as fh:
            fh.write(metrics_text)
    coverage = trace_coverage(records)
    ok = bool(coverage)
    for trace_id, entry in sorted(coverage.items()):
        verdict = "ok" if entry["connected"] and entry["coverage"] >= args.min_coverage else "LOW"
        if verdict == "LOW":
            ok = False
        print(f"  {trace_id}: {entry['spans']} spans, "
              f"connected={entry['connected']}, "
              f"coverage {entry['coverage']:.1%} of {entry['duration_ms']:.1f}ms "
              f"[{verdict}]")
    print(f"{len(records)} spans across {len(coverage)} trace(s) -> {args.output}")
    if not ok:
        print(f"TRACE INCOMPLETE: a request trace was disconnected or covered "
              f"less than {args.min_coverage:.0%} of its latency")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table1", help="regenerate Table I 'Proposed' rows")
    p_table.add_argument("--setting", default="vgg16_cifar10",
                         help=f"one of {sorted(TABLE1_SETTINGS)}")
    p_table.add_argument("--all", action="store_true", help="run every setting")
    p_table.add_argument("--fast", action="store_true", help="minimal training budget")
    p_table.set_defaults(func=cmd_table1)

    p_fig2 = sub.add_parser("fig2", help="attention vs random vs inverse sweep")
    p_fig2.add_argument("--arch", default="vgg16", choices=["vgg16", "resnet"])
    p_fig2.set_defaults(func=cmd_fig2)

    p_fig3 = sub.add_parser("fig3", help="block sensitivity analysis")
    p_fig3.add_argument("--arch", default="vgg16", choices=["vgg16", "resnet"])
    p_fig3.add_argument("--tolerance", type=float, default=0.15)
    p_fig3.set_defaults(func=cmd_fig3)

    p_fig4 = sub.add_parser("fig4", help="redundancy composition")
    p_fig4.add_argument("--fast", action="store_true")
    p_fig4.set_defaults(func=cmd_fig4)

    p_auto = sub.add_parser("autotune", help="greedy per-block ratio search")
    p_auto.add_argument("--arch", default="vgg16", choices=["vgg16", "resnet"])
    p_auto.add_argument("--target", type=float, default=30.0, help="FLOPs reduction %%")
    p_auto.add_argument("--tolerance", type=float, default=0.15, help="accuracy-drop budget")
    p_auto.add_argument("--step", type=float, default=0.15, help="ratio increment per move")
    p_auto.add_argument("--save", default=None, metavar="NAME",
                        help="register the tuned model as an artifact with the "
                             "measured accuracy/FLOPs in its metadata")
    p_auto.add_argument("--registry", default="artifacts",
                        help="registry root directory for --save")
    p_auto.add_argument("--family", default=None,
                        help="with --save: tag the artifact with this model "
                             "family (plus its mean prune ratio as "
                             "sparsity_level) so `registry ls --family` and "
                             "cascade ladders can find it")
    p_auto.set_defaults(func=cmd_autotune)

    p_quick = sub.add_parser("quick", help="one fast end-to-end sanity run")
    p_quick.set_defaults(func=cmd_quick)

    p_save = sub.add_parser(
        "save-artifact", help="train (optionally) and register a model artifact"
    )
    p_save.add_argument("--registry", default="artifacts", help="registry root directory")
    p_save.add_argument("--name", required=True, help="artifact name")
    p_save.add_argument("--arch", default="vgg16", choices=["vgg16", "resnet8"])
    p_save.add_argument("--width-multiplier", type=float, default=0.125)
    p_save.add_argument("--epochs", type=int, default=0,
                        help="training epochs before saving (0 = random weights)")
    p_save.add_argument("--ratios", default="0.3,0.3,0.6,0.7,0.7",
                        help="per-block channel pruning ratios")
    p_save.set_defaults(func=cmd_save_artifact)

    p_serve = sub.add_parser(
        "serve",
        help="serve JSONL requests through a micro-batched InferenceSession",
    )
    p_serve.add_argument("--registry", default=None, help="registry root directory")
    p_serve.add_argument("--model", default=None, help="artifact name or name@vN")
    p_serve.add_argument("--backend", default="auto", choices=available_backends(),
                         help="engine backend")
    p_serve.add_argument("--input", default="-",
                         help="JSONL request file, or - for stdin")
    p_serve.add_argument("--output", default="-",
                         help="JSONL response file, or - for stdout")
    p_serve.add_argument("--synthetic", type=int, default=0,
                         help="serve N self-generated requests instead of --input")
    p_serve.add_argument("--image-size", type=int, default=32,
                         help="synthetic request resolution")
    p_serve.add_argument("--max-batch", type=int, default=8,
                         help="micro-batch window (samples per engine call)")
    p_serve.add_argument("--window-ms", type=float, default=2.0,
                         help="how long the collector waits to fill a window")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="worker threads sharing the request queue")
    p_serve.add_argument("--proc-workers", type=int, default=0,
                         help="serve through a process-parallel engine pool "
                              "of N worker processes (0 = in-process engine)")
    p_serve.add_argument("--timeout", type=float, default=60.0,
                         help="per-request result timeout in seconds "
                              "(0 = wait forever)")
    p_serve.add_argument("--no-output", action="store_true",
                         help="omit logits from responses (argmax + latency only)")
    p_serve.add_argument("--cascade", action="store_true",
                         help="serve a confidence-gated cascade: stage 0 "
                              "(sparsest) answers every request, low-confidence "
                              "ones escalate toward the densest stage")
    p_serve.add_argument("--family", default=None,
                         help="cascade ladder = newest artifact per name tagged "
                              "with this metadata family, densest-last "
                              "(alternative: --model as comma-separated refs, "
                              "sparsest first)")
    p_serve.add_argument("--gate", default="msp",
                         choices=["msp", "entropy", "margin"],
                         help="confidence statistic the cascade gates on")
    p_serve.add_argument("--thresholds", default=None,
                         help="comma-separated per-stage accept thresholds "
                              "(len(stages)-1 values; omit to calibrate or "
                              "escalate everything)")
    p_serve.add_argument("--calibrate", type=int, default=0,
                         help="fit gate thresholds on N synthetic samples "
                              "before serving (agreement with the densest "
                              "stage as the reference)")
    p_serve.add_argument("--retention", type=float, default=0.99,
                         help="accuracy-retention target for --calibrate")
    p_serve.add_argument("--trace-out", default=None, metavar="FILE",
                         help="trace every request and write Chrome "
                              "trace-event JSON here on exit")
    p_serve.add_argument("--metrics-file", default=None, metavar="FILE",
                         help="write the Prometheus text exposition here "
                              "after serving")
    p_serve.add_argument("--json", action="store_true",
                         help="emit the final stats dump as one JSON object "
                              "on stderr instead of the human summary")
    p_serve.set_defaults(func=cmd_serve)

    p_trace = sub.add_parser(
        "trace",
        help="serve synthetic requests with tracing on; export Chrome "
             "trace JSON and verify span coverage",
    )
    p_trace.add_argument("--output", default="TRACE.json",
                         help="Chrome trace-event JSON output path")
    p_trace.add_argument("--metrics-file", default=None, metavar="FILE",
                         help="also write the Prometheus text exposition here")
    p_trace.add_argument("--synthetic", type=int, default=8,
                         help="number of synthetic requests to trace")
    p_trace.add_argument("--image-size", type=int, default=32,
                         help="synthetic request resolution")
    p_trace.add_argument("--min-coverage", type=float, default=0.95,
                         help="fail unless every trace covers at least this "
                              "fraction of its request latency")
    p_trace.add_argument("--registry", default=None, help="registry root directory")
    p_trace.add_argument("--model", default=None, help="artifact name or name@vN")
    p_trace.add_argument("--backend", default="auto", choices=available_backends(),
                         help="engine backend")
    p_trace.add_argument("--max-batch", type=int, default=8)
    p_trace.add_argument("--window-ms", type=float, default=2.0)
    p_trace.add_argument("--workers", type=int, default=1)
    p_trace.add_argument("--proc-workers", type=int, default=0,
                         help="trace through a process-parallel engine pool "
                              "of N worker processes (0 = in-process)")
    p_trace.add_argument("--cascade", action="store_true",
                         help="trace through a confidence-gated cascade "
                              "(needs --registry with --family or --model)")
    p_trace.add_argument("--family", default=None,
                         help="cascade ladder family tag (with --cascade)")
    p_trace.add_argument("--gate", default="msp",
                         choices=["msp", "entropy", "margin"])
    p_trace.add_argument("--thresholds", default=None,
                         help="comma-separated per-stage accept thresholds")
    p_trace.add_argument("--calibrate", type=int, default=0,
                         help="fit gate thresholds on N synthetic samples first")
    p_trace.add_argument("--retention", type=float, default=0.99)
    p_trace.set_defaults(func=cmd_trace)

    p_registry = sub.add_parser(
        "registry", help="inspect and maintain a model-artifact registry"
    )
    p_registry.add_argument("action", choices=["ls", "rm", "gc"],
                            help="ls: list artifacts; rm: delete one artifact "
                                 "(or version); gc: prune old versions and "
                                 "stale temp dirs")
    p_registry.add_argument("ref", nargs="?", default=None,
                            help="artifact reference for rm (name or name@vN; "
                                 "a bare name removes every version)")
    p_registry.add_argument("--registry", default="artifacts",
                            help="registry root directory")
    p_registry.add_argument("--keep", type=int, default=1,
                            help="gc: newest versions to keep per artifact")
    p_registry.add_argument("--family", default=None,
                            help="ls: only artifacts tagged with this "
                                 "metadata family")
    p_registry.add_argument("--force", action="store_true",
                            help="rm: delete even versions pinned by live "
                                 "serving sessions")
    p_registry.add_argument("--respect-pins", default=True,
                            action=argparse.BooleanOptionalAction,
                            help="gc: keep versions pinned by live serving "
                                 "sessions (default on; --no-respect-pins "
                                 "collects them anyway)")
    p_registry.add_argument("--json", action="store_true",
                            help="ls: emit the artifact rows as JSON instead "
                                 "of the human table")
    p_registry.set_defaults(func=cmd_registry)

    for sub_parser in sub.choices.values():
        sub_parser.add_argument("--seed", type=int, default=0,
                                help="master seed for weights, data, and request streams")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
