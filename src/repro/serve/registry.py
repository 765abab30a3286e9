"""Named, versioned model artifacts that rebuild without caller boilerplate.

Before this layer, every deployment script re-ran the same ritual: build
the architecture with the right constructor arguments, instrument it with
the right pruning ratios, load a checkpoint, compile an execution plan.
:class:`ModelRegistry` turns that ritual into data.  An **artifact** is a
directory holding the model's ``.npz`` state plus a JSON manifest that
records how to rebuild it:

.. code-block:: text

    <root>/
      <name>/
        v1/
          weights.npz      # state dict (repro.nn.serialization layout)
          artifact.json    # schema, arch spec, pruning sites, plan config
        v2/
          ...

Versions are append-only integers; ``save`` never overwrites, ``load``
resolves ``version=None`` to the newest.  The manifest's ``arch`` block
names a registered architecture family (``vgg``, ``resnet``,
``conv_stack``) with its constructor arguments; ``pruning`` records every
:class:`~repro.core.pruning.DynamicPruning` site (path, ratios, criterion,
mask mode, threshold, granularity) so the loaded model is re-instrumented
exactly; ``plan`` is written from a default
:class:`~repro.core.sparse_exec.PlanConfig`, which no plan reads any more
(``load`` still parses it into :attr:`LoadedArtifact.plan_config`).
Manifests saved by older versions may also carry a ``dispatch`` block (a
measured per-geometry strategy table) and a ``content.dispatch_sha256``;
:meth:`ModelRegistry.load` ignores both, since execution no longer reads
them.

Writes are atomic (temp directory + ``os.replace``), so a crashed save
never leaves a half-registered version.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shutil
import time
import uuid
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.pruning import InstrumentedModel, PruningConfig, instrument_model
from ..core.sparse_exec import PlanConfig
from ..models.base import PrunableModel
from ..models.conv_stack import build_conv_stack
from ..models.resnet import ResNet
from ..models.vgg import VGG
from ..nn import Module
from ..nn.serialization import load_state_dict, save_state_dict

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactNotFoundError",
    "ArtifactIntegrityError",
    "ArtifactPinnedError",
    "LoadedArtifact",
    "ModelRegistry",
    "parse_ref",
]

ARTIFACT_SCHEMA = "repro.artifact.v1"
_MANIFEST = "artifact.json"
_WEIGHTS = "weights.npz"
_PINS_DIR = ".pins"
_VERSION_RE = re.compile(r"^v(\d+)$")
_PIN_RE = re.compile(r"^pin-(\d+)-[0-9a-f]+\.json$")


class ArtifactNotFoundError(KeyError):
    """Requested name/version does not exist in the registry."""


class ArtifactIntegrityError(ValueError):
    """Stored weights do not match the manifest's recorded content hash."""


class ArtifactPinnedError(RuntimeError):
    """Refused to delete a version a live process has pinned."""


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a pin owner on this host.

    ``kill(pid, 0)`` delivers no signal; ``PermissionError`` means the pid
    exists but belongs to another user — still alive, still a valid pin.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _dir_size(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def parse_ref(ref: str) -> Tuple[str, Optional[int]]:
    """Split ``"name"`` or ``"name@v3"`` / ``"name@3"`` into (name, version)."""
    name, sep, version = ref.partition("@")
    if not sep:
        return ref, None
    match = _VERSION_RE.match(version) or re.match(r"^(\d+)$", version)
    if not match or not name:
        raise ValueError(f"bad artifact reference {ref!r} (expected name or name@vN)")
    return name, int(match.group(1))


# ----------------------------------------------------------------------
# Architecture families
# ----------------------------------------------------------------------
def _build_vgg(blocks: List[List[int]], num_classes: int, in_channels: int) -> VGG:
    return VGG(
        [tuple(b) for b in blocks],
        num_classes=num_classes,
        in_channels=in_channels,
        width_multiplier=1.0,
        seed=0,
    )


def _build_resnet(
    blocks_per_group: int, num_classes: int, in_channels: int, width_multiplier: float
) -> ResNet:
    return ResNet(
        blocks_per_group,
        num_classes=num_classes,
        in_channels=in_channels,
        width_multiplier=width_multiplier,
        seed=0,
    )


_ARCH_BUILDERS: Dict[str, Callable[..., Module]] = {
    "vgg": _build_vgg,
    "resnet": _build_resnet,
    "conv_stack": build_conv_stack,
}


def infer_arch(model: Module) -> Dict[str, Any]:
    """Derive the manifest ``arch`` block from a live model.

    VGG records its (already width-scaled) block spec verbatim and ResNet
    the ``width_multiplier`` it was built with, so any width round-trips
    exactly.  Plain ``Sequential`` stacks carry no constructor spec, so
    they always need an explicit ``arch`` passed to
    :meth:`ModelRegistry.save`.
    """
    if isinstance(model, VGG):
        first_conv = model.features[0]
        return {
            "family": "vgg",
            "blocks": [list(b) for b in model.block_spec],
            "num_classes": model.num_classes,
            "in_channels": int(first_conv.weight.data.shape[1]),
        }
    if isinstance(model, ResNet):
        return {
            "family": "resnet",
            "blocks_per_group": model.blocks_per_group,
            "num_classes": model.num_classes,
            "in_channels": int(model.conv1.weight.data.shape[1]),
            "width_multiplier": float(model.width_multiplier),
        }
    raise TypeError(
        f"cannot infer an architecture spec for {type(model).__name__}; "
        "pass arch={'family': ..., ...} to ModelRegistry.save"
    )


# ----------------------------------------------------------------------
# Pruning site (de)hydration
# ----------------------------------------------------------------------
def _pruning_spec(handle: InstrumentedModel) -> List[Dict[str, Any]]:
    sites = []
    for point, pruner in handle.pruners:
        sites.append(
            {
                "path": point.path,
                "block_index": point.block_index,
                "channel_ratio": pruner.channel_ratio,
                "spatial_ratio": pruner.spatial_ratio,
                "criterion": pruner.criterion_name,
                # Stochastic criteria ("random") are only reproducible with
                # their seed; None round-trips as fresh OS entropy.
                "criterion_seed": pruner.criterion_seed,
                "mask_mode": pruner.mask_mode,
                "threshold": pruner.threshold,
                "granularity": pruner.granularity,
                "enabled": pruner.enabled,
            }
        )
    return sites


def _apply_pruning_spec(
    model: PrunableModel, sites: List[Dict[str, Any]]
) -> InstrumentedModel:
    handle = instrument_model(model, PruningConfig.disabled(model.num_blocks))
    by_path = {point.path: pruner for point, pruner in handle.pruners}
    for site in sites:
        pruner = by_path.get(site["path"])
        if pruner is None:
            raise ValueError(
                f"artifact pruning site {site['path']!r} does not exist on the rebuilt model"
            )
        pruner.set_ratios(site["channel_ratio"], site["spatial_ratio"])
        pruner.set_criterion(site.get("criterion", "attention"), site.get("criterion_seed"))
        pruner.mask_mode = site.get("mask_mode", "topk")
        pruner.threshold = float(site.get("threshold", 0.0))
        pruner.granularity = site.get("granularity", "input")
        pruner.enabled = bool(site.get("enabled", True))
    return handle


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclasses.dataclass
class LoadedArtifact:
    """A rebuilt artifact, ready for :func:`repro.core.engine.create_engine`.

    ``handle`` is the re-instrumented pruning handle (``None`` for models
    saved without pruning sites); ``model`` is the module to execute —
    pruners, when present, already live inside its graph.  ``plan_config``
    is the manifest's ``plan`` block, which nothing reads (see
    :class:`~repro.core.sparse_exec.PlanConfig`).
    """

    name: str
    version: int
    model: Module
    handle: Optional[InstrumentedModel]
    plan_config: PlanConfig
    arch: Dict[str, Any]
    metadata: Dict[str, Any]
    path: str


class ModelRegistry:
    """Filesystem-backed store of named, versioned model artifacts."""

    def __init__(self, root: str):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """Registered artifact names (sorted)."""
        out = []
        for entry in sorted(os.listdir(self.root)):
            if os.path.isdir(os.path.join(self.root, entry)) and self.versions(entry):
                out.append(entry)
        return out

    def versions(self, name: str) -> List[int]:
        """Existing version numbers for ``name`` (sorted ascending)."""
        base = os.path.join(self.root, name)
        if not os.path.isdir(base):
            return []
        found = []
        for entry in os.listdir(base):
            match = _VERSION_RE.match(entry)
            if match and os.path.isfile(os.path.join(base, entry, _MANIFEST)):
                found.append(int(match.group(1)))
        return sorted(found)

    def list_artifacts(self, family: Optional[str] = None) -> List[Dict[str, Any]]:
        """One row per stored version, without rebuilding any model.

        This is what ``repro registry ls`` prints: enough to re-run a
        serving or benchmark sweep from saved artifacts (name, version,
        arch family, pruning-site count, recorded backend-relevant plan
        knobs) plus the on-disk footprint of each version directory.
        ``family`` filters to versions whose *metadata* ``family`` key
        matches (the model-family tag :meth:`save` records, distinct from
        the arch family) — the view ``repro registry ls --family`` shows.
        """
        rows: List[Dict[str, Any]] = []
        for name in self.names():
            for version in self.versions(name):
                path = os.path.join(self.root, name, f"v{version}")
                with open(os.path.join(path, _MANIFEST), encoding="utf-8") as fh:
                    manifest = json.load(fh)
                size = 0
                for entry in os.listdir(path):
                    full = os.path.join(path, entry)
                    if os.path.isfile(full):
                        size += os.path.getsize(full)
                metadata = manifest.get("metadata") or {}
                if family is not None and metadata.get("family") != family:
                    continue
                pruning = manifest.get("pruning") or []
                rows.append(
                    {
                        "name": name,
                        "version": version,
                        "created_at": manifest.get("created_at"),
                        "family": (manifest.get("arch") or {}).get("family"),
                        "pruning_sites": len(pruning),
                        "plan": manifest.get("plan") or {},
                        "metadata": metadata,
                        "model_family": metadata.get("family"),
                        "sparsity_level": metadata.get("sparsity_level"),
                        "size_bytes": size,
                        "weights_sha256": (manifest.get("content") or {}).get(
                            "weights_sha256"
                        ),
                        "path": path,
                    }
                )
        return rows

    def family_ladder(self, family: str) -> List[Dict[str, Any]]:
        """Cascade ladder for a model family: sparsest first, densest last.

        Takes the *newest* version of every artifact tagged with the
        metadata ``family`` key and orders them by descending
        ``sparsity_level`` (fraction pruned — the most aggressively pruned
        variant answers first, the densest is the fallback).  Artifacts
        without a recorded ``sparsity_level`` sort as dense (0.0).  Each
        row is a :meth:`list_artifacts` row plus a ``"ref"`` key
        (``name@vN``) ready for session factories.
        """
        newest: Dict[str, Dict[str, Any]] = {}
        for row in self.list_artifacts(family=family):
            current = newest.get(row["name"])
            if current is None or row["version"] > current["version"]:
                newest[row["name"]] = row
        if not newest:
            raise ArtifactNotFoundError(
                f"no artifacts tagged family={family!r} in {self.root}"
            )
        ladder = sorted(
            newest.values(),
            key=lambda row: (-(row["sparsity_level"] or 0.0), row["name"]),
        )
        for row in ladder:
            row["ref"] = f"{row['name']}@v{row['version']}"
        return ladder

    def resolve(self, name: str, version: Optional[int] = None) -> Tuple[int, str]:
        """Resolve (version, directory), defaulting to the newest version."""
        versions = self.versions(name)
        if not versions:
            raise ArtifactNotFoundError(f"no artifact named {name!r} in {self.root}")
        if version is None:
            version = versions[-1]
        if version not in versions:
            raise ArtifactNotFoundError(
                f"artifact {name!r} has no version v{version} (have {versions})"
            )
        return version, os.path.join(self.root, name, f"v{version}")

    # ------------------------------------------------------------------
    # GC pinning: a session serving a version drops a pin file in the
    # version directory; gc/delete refuse to collect while the owning
    # process is alive.  Pins are plain files (not in-memory state) so
    # ``repro registry gc`` in another process honors them too.
    # ------------------------------------------------------------------
    def pin(self, name: str, version: Optional[int] = None) -> str:
        """Pin a version against gc; returns an opaque token for :meth:`unpin`.

        The token is the pin file's path.  The file records the owning
        pid; a pin whose process has exited is *stale* and no longer
        protects the version (gc sweeps stale pins as it scans).
        """
        resolved, path = self.resolve(name, version)
        pins_dir = os.path.join(path, _PINS_DIR)
        os.makedirs(pins_dir, exist_ok=True)
        token = os.path.join(pins_dir, f"pin-{os.getpid()}-{uuid.uuid4().hex[:8]}.json")
        payload = {
            "pid": os.getpid(),
            "name": name,
            "version": resolved,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        with open(token, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
        return token

    def unpin(self, token: str) -> None:
        """Release a pin; already-released (or gc-swept) tokens are a no-op."""
        try:
            os.remove(token)
        except OSError:
            pass
        try:
            os.rmdir(os.path.dirname(token))
        except OSError:
            pass  # other pins remain, or already gone

    def live_pins(self, name: str, version: int, sweep_stale: bool = False) -> List[str]:
        """Pin tokens on ``name@vN`` whose owning process is still alive.

        With ``sweep_stale=True``, pin files from dead pids are removed as
        a side effect (gc does this so crashed sessions cannot pin a
        version forever).
        """
        pins_dir = os.path.join(self.root, name, f"v{version}", _PINS_DIR)
        if not os.path.isdir(pins_dir):
            return []
        live: List[str] = []
        for entry in sorted(os.listdir(pins_dir)):
            match = _PIN_RE.match(entry)
            if not match:
                continue
            token = os.path.join(pins_dir, entry)
            if _pid_alive(int(match.group(1))):
                live.append(token)
            elif sweep_stale:
                try:
                    os.remove(token)
                except OSError:
                    pass
        return live

    # ------------------------------------------------------------------
    def delete(self, name: str, version: Optional[int] = None, force: bool = False) -> List[int]:
        """Remove one version of ``name`` (or, with ``version=None``, all).

        Returns the removed version numbers.  The artifact's directory is
        dropped once its last version is gone, so a deleted name vanishes
        from :meth:`names` entirely.  Raises
        :class:`ArtifactNotFoundError` for unknown names/versions —
        deletion is an operator action and a silent no-op would hide
        typos.  Versions pinned by a live process raise
        :class:`ArtifactPinnedError` unless ``force=True``.
        """
        if version is None:
            removed = self.versions(name)
            if not removed:
                raise ArtifactNotFoundError(f"no artifact named {name!r} in {self.root}")
        else:
            removed = [self.resolve(name, version)[0]]
        if not force:
            for v in removed:
                pins = self.live_pins(name, v, sweep_stale=True)
                if pins:
                    raise ArtifactPinnedError(
                        f"artifact {name}@v{v} is pinned by a live session "
                        f"({len(pins)} pin(s)); pass force=True / --force to override"
                    )
        for v in removed:
            shutil.rmtree(os.path.join(self.root, name, f"v{v}"))
        base = os.path.join(self.root, name)
        if os.path.isdir(base) and not self.versions(name):
            shutil.rmtree(base, ignore_errors=True)
        return removed

    def gc(
        self,
        keep_last: int = 1,
        tmp_age_seconds: float = 3600.0,
        respect_pins: bool = True,
    ) -> Dict[str, Any]:
        """Prune old artifact versions and stale temp directories.

        Keeps the newest ``keep_last`` versions of every artifact
        (``0`` removes everything) and sweeps ``.tmp-*`` directories left
        by crashed saves.  Only temp directories untouched for
        ``tmp_age_seconds`` (default one hour) are swept — a fresh one may
        belong to a save in flight in another process, and deleting it
        would break the atomic-save guarantee.

        With ``respect_pins=True`` (the default) a version pinned by a
        live session — :meth:`pin` files with a living pid — is never
        collected even if it falls outside ``keep_last``; such versions
        are reported under ``"pinned_kept"``.  Stale pins (dead pids) are
        swept during the scan and do not protect anything.  Returns
        ``{"removed": {name: [versions]}, "pinned_kept": {name: [versions]},
        "tmp_removed": [paths], "bytes_freed": int}``.
        """
        if keep_last < 0:
            raise ValueError("keep_last must be >= 0")
        removed: Dict[str, List[int]] = {}
        pinned_kept: Dict[str, List[int]] = {}
        tmp_removed: List[str] = []
        bytes_freed = 0
        now = time.time()
        for entry in sorted(os.listdir(self.root)):
            base = os.path.join(self.root, entry)
            if not os.path.isdir(base):
                continue
            for sub in sorted(os.listdir(base)):
                if sub.startswith(".tmp-"):
                    tmp_path = os.path.join(base, sub)
                    try:
                        age = now - os.path.getmtime(tmp_path)
                    except OSError:
                        continue  # vanished mid-scan (save completed)
                    if age < tmp_age_seconds:
                        continue
                    bytes_freed += _dir_size(tmp_path)
                    shutil.rmtree(tmp_path, ignore_errors=True)
                    tmp_removed.append(tmp_path)
            versions = self.versions(entry)
            # max(0, ...): keep_last beyond the version count must be a
            # no-op, not a negative slice wrapping around the list.
            drop = versions[: max(0, len(versions) - keep_last)]
            for v in drop:
                if respect_pins and self.live_pins(entry, v, sweep_stale=True):
                    pinned_kept.setdefault(entry, []).append(v)
                    continue
                path = os.path.join(base, f"v{v}")
                bytes_freed += _dir_size(path)
                shutil.rmtree(path)
                removed.setdefault(entry, []).append(v)
            if os.path.isdir(base) and not os.listdir(base):
                os.rmdir(base)
        return {
            "removed": removed,
            "pinned_kept": pinned_kept,
            "tmp_removed": tmp_removed,
            "bytes_freed": bytes_freed,
        }

    # ------------------------------------------------------------------
    def save(
        self,
        name: str,
        model: object,
        *,
        arch: Optional[Dict[str, Any]] = None,
        metadata: Optional[Dict[str, Any]] = None,
        family: Optional[str] = None,
        sparsity_level: Optional[float] = None,
    ) -> Tuple[str, int]:
        """Register a new version of ``name``; returns ``(name, version)``.

        ``model`` may be a plain module or an
        :class:`~repro.core.pruning.InstrumentedModel` handle — pruning
        sites are recorded in the manifest either way (wrapping changes no
        parameter names, so the state dict stays architecture-shaped).

        ``family`` and ``sparsity_level`` (fraction of compute pruned, in
        ``[0, 1]``) land in the manifest metadata as the machine-readable
        keys :meth:`family_ladder` uses to assemble cascade ladders —
        artifacts in the same family are sparsity-ordered variants of one
        logical model.
        """
        if not re.match(r"^[A-Za-z0-9][A-Za-z0-9._-]*$", name):
            raise ValueError(f"bad artifact name {name!r}")
        metadata = dict(metadata or {})
        if family is not None:
            metadata["family"] = str(family)
        if sparsity_level is not None:
            level = float(sparsity_level)
            if not 0.0 <= level <= 1.0:
                raise ValueError(f"sparsity_level must be in [0, 1], got {level}")
            metadata["sparsity_level"] = level
        handle: Optional[InstrumentedModel] = None
        if isinstance(model, InstrumentedModel):
            handle = model
            module = model.model
        elif isinstance(model, Module):
            module = model
        else:
            raise TypeError(f"cannot save a {type(model).__name__} as an artifact")

        manifest = {
            "schema": ARTIFACT_SCHEMA,
            "name": name,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "arch": arch if arch is not None else infer_arch(module),
            "pruning": _pruning_spec(handle) if handle is not None else None,
            "plan": dataclasses.asdict(PlanConfig()),
            "metadata": metadata,
        }

        version = (self.versions(name) or [0])[-1] + 1
        base = os.path.join(self.root, name)
        os.makedirs(base, exist_ok=True)
        final_dir = os.path.join(base, f"v{version}")
        tmp_dir = os.path.join(base, f".tmp-v{version}-{os.getpid()}")
        os.makedirs(tmp_dir)
        try:
            weights_path = os.path.join(tmp_dir, _WEIGHTS)
            save_state_dict(module.state_dict(), weights_path)
            # Content hash of the weights as written: load() re-hashes and
            # refuses silently corrupted or tampered artifacts.
            manifest["content"] = {
                "weights_sha256": _sha256_file(weights_path),
                "weights_bytes": os.path.getsize(weights_path),
            }
            with open(os.path.join(tmp_dir, _MANIFEST), "w", encoding="utf-8") as fh:
                json.dump({**manifest, "version": version}, fh, indent=2)
                fh.write("\n")
            os.replace(tmp_dir, final_dir)
        except BaseException:
            for leftover in (_WEIGHTS, _MANIFEST):
                try:
                    os.remove(os.path.join(tmp_dir, leftover))
                except OSError:
                    pass
            try:
                os.rmdir(tmp_dir)
            except OSError:
                pass
            raise
        return name, version

    # ------------------------------------------------------------------
    def manifest(self, name: str, version: Optional[int] = None) -> Dict[str, Any]:
        """Read an artifact's manifest without rebuilding the model."""
        _, path = self.resolve(name, version)
        with open(os.path.join(path, _MANIFEST), encoding="utf-8") as fh:
            return json.load(fh)

    def load(self, name: str, version: Optional[int] = None) -> LoadedArtifact:
        """Rebuild a registered model: arch → weights → pruning → plan.

        The returned model is in eval mode with its state strictly loaded
        (any arch/weights disagreement raises the per-key
        ``load_state_dict`` diagnostic rather than mis-building silently).
        Unknown ``plan`` fields, and the ``dispatch`` block of manifests
        saved by older versions, are ignored.
        """
        version, path = self.resolve(name, version)
        with open(os.path.join(path, _MANIFEST), encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("schema") != ARTIFACT_SCHEMA:
            raise ValueError(
                f"artifact {name}@v{version} has unknown schema {manifest.get('schema')!r}"
            )

        arch = dict(manifest["arch"])
        family = arch.pop("family")
        try:
            builder = _ARCH_BUILDERS[family]
        except KeyError:
            raise ValueError(
                f"artifact {name}@v{version} needs unregistered arch family {family!r}"
            ) from None
        weights_path = os.path.join(path, _WEIGHTS)
        content = manifest.get("content") or {}
        recorded = content.get("weights_sha256")
        if recorded:
            # Pre-hash-era artifacts (no "content" block) load unverified;
            # everything saved since records its digest and must match it.
            actual = _sha256_file(weights_path)
            if actual != recorded:
                raise ArtifactIntegrityError(
                    f"artifact {name}@v{version} weights hash mismatch: "
                    f"manifest records sha256 {recorded}, file is {actual}"
                )
        model = builder(**arch)
        model.load_state_dict(load_state_dict(weights_path))
        model.eval()

        handle = None
        if manifest.get("pruning"):
            if not isinstance(model, PrunableModel):
                raise ValueError(
                    f"artifact {name}@v{version} records pruning sites but "
                    f"{family!r} models are not instrumentable"
                )
            handle = _apply_pruning_spec(model, manifest["pruning"])

        plan_fields = {f.name for f in dataclasses.fields(PlanConfig)}
        plan_config = PlanConfig(
            **{k: v for k, v in (manifest.get("plan") or {}).items() if k in plan_fields}
        )

        return LoadedArtifact(
            name=name,
            version=version,
            model=model,
            handle=handle,
            plan_config=plan_config,
            arch=manifest["arch"],
            metadata=manifest.get("metadata") or {},
            path=path,
        )
