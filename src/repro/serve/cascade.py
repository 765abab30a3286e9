"""Confidence-gated cascade serving: cheap sparse models answer first.

The registry holds *families* of artifacts — the same logical model saved
at several sparsity levels (``autotune --save``, or any
:meth:`~repro.serve.registry.ModelRegistry.save` call with ``family=`` /
``sparsity_level=``).  :class:`CascadeSession` turns such a family into a
serving ladder: every request runs the most-pruned stage first, a
**confidence gate** on the stage's logits decides accept-or-escalate, and
escalated requests re-enter the next denser stage's micro-batching queue.
Under skewed traffic most requests exit at the cheap stage and the
expensive model only sees the hard tail — a scenario-level speedup
multiplicative with everything the per-stage engines already do
(skipping each input's pruned channels and columns in batched kernels).

Gates (``higher = more confident``, computed on plain logits with the
stable helpers in :mod:`repro.nn.functional`):

* ``"msp"`` — max softmax probability (:func:`softmax_probs`).
* ``"entropy"`` — one minus normalized predictive entropy
  (:func:`predictive_entropy`), so the scale is still "1 is certain".
* ``"margin"`` — top-1 minus top-2 softmax probability
  (:func:`top2_margin`).

A request (possibly multi-sample) escalates when its **least confident
sample** falls below the stage threshold — conservative by construction.
Thresholds default to ``+inf`` (everything escalates to the densest
stage, which always accepts) until :meth:`CascadeSession.calibrate` fits
them on a held-out set to a target accuracy retention, or the caller
passes explicit values.

Correctness contract: stages are plain :class:`InferenceSession`\\ s, so
every stage's responses are bit-identical to running that stage's model
directly (``batch_invariant=True``).  An escalated response is therefore
bit-identical to what the denser model would have answered standalone —
by construction, and asserted when ``verify_escalations=True`` (every
gate-accepted response is re-run through the stage's synchronous
``predict`` and compared with ``array_equal``).  Because the gate reads
only batch-invariant logits, *which* stage answers is a deterministic
function of the input alone — batch composition and worker scheduling
cannot change escalation decisions.

Escalation never blocks a stage worker: stage callbacks hand finished
results to a dedicated **router thread**, and only the router submits
into the next stage's (bounded, possibly full) queue.
"""

from __future__ import annotations

import dataclasses
import itertools
import queue
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..nn.functional import predictive_entropy, softmax_probs, top2_margin
from ..obs import runtime as _obs
from ..obs.metrics import global_registry
from .session import InferenceSession, PendingResult, SessionClosed, SessionConfig

__all__ = [
    "GATES",
    "CascadeResult",
    "CascadeSession",
    "CalibrationReport",
    "gate_confidence",
]


def _msp_confidence(logits: np.ndarray) -> np.ndarray:
    return softmax_probs(logits, axis=-1).max(axis=-1)


def _entropy_confidence(logits: np.ndarray) -> np.ndarray:
    return 1.0 - predictive_entropy(logits, axis=-1, normalize=True)


GATES: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "msp": _msp_confidence,
    "entropy": _entropy_confidence,
    "margin": top2_margin,
}


def gate_confidence(gate: str, logits: np.ndarray) -> np.ndarray:
    """Per-sample confidence of ``(N, K)`` logits under a named gate."""
    try:
        fn = GATES[gate]
    except KeyError:
        raise ValueError(f"unknown gate {gate!r} (have {sorted(GATES)})") from None
    return np.asarray(fn(np.asarray(logits)))


@dataclasses.dataclass
class CalibrationReport:
    """What :meth:`CascadeSession.calibrate` fitted.

    ``thresholds`` has one entry per non-final stage.  ``accept_fraction``
    is the fraction of the *calibration* traffic each stage answered
    (sums to 1.0 across all stages including the final one);
    ``stage_agreement`` is the label agreement of each stage's accepted
    set (``None`` where a stage accepted nothing); ``expected_accuracy``
    is the overall accuracy of the cascade's answers on the calibration
    set under the fitted thresholds.
    """

    gate: str
    retention: float
    thresholds: List[float]
    accept_fraction: List[float]
    stage_agreement: List[Optional[float]]
    expected_accuracy: float
    samples: int


class CascadeResult:
    """Future-like handle for one cascade request.

    After :meth:`result` returns, :attr:`stage` is the index of the
    ladder stage that answered (0 = most pruned) and :attr:`confidence`
    the request's gate confidence at that stage (``None`` when the final
    stage answered without being gated).
    """

    __slots__ = (
        "_event",
        "_value",
        "_error",
        "submitted_at",
        "latency",
        "stage",
        "confidence",
        "trace_id",
    )

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self.submitted_at = time.perf_counter()
        self.latency: Optional[float] = None
        self.stage: Optional[int] = None
        self.confidence: Optional[float] = None
        #: Trace id when a tracer was installed at submit time, else None.
        self.trace_id: Optional[str] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until some stage answered; raises the first stage error."""
        if not self._event.wait(timeout):
            raise TimeoutError("cascade request did not complete in time")
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value

    def _resolve(
        self,
        value: Optional[np.ndarray],
        error: Optional[BaseException],
        stage: Optional[int] = None,
        confidence: Optional[float] = None,
    ) -> None:
        self.latency = time.perf_counter() - self.submitted_at
        self.stage = stage
        self.confidence = confidence
        self._value = value
        self._error = error
        self._event.set()


class _CascadeRequest:
    __slots__ = ("array", "result", "ctx", "stage_ctx", "stage_start")

    def __init__(self, array: np.ndarray, result: CascadeResult):
        self.array = array
        self.result = result
        #: Root trace context (the cascade owns the ``request`` span).
        self.ctx: Any = None
        #: The current stage hop's span context + submit timestamp.
        self.stage_ctx: Any = None
        self.stage_start: float = 0.0


_ROUTER_STOP = object()

#: Distinguishes each cascade's metric series in the process registry.
_CASCADE_SEQ = itertools.count(1)


class CascadeSession:
    """An ordered ladder of :class:`InferenceSession`\\ s behind one gate.

    ``stages`` runs sparsest (cheapest) first; the final stage always
    accepts.  Stage sessions passed in stay the caller's to close;
    ladders built by :meth:`from_registry` are owned and closed by the
    cascade (releasing their artifact gc-pins).

    ``thresholds`` — per non-final stage, accept when the request's
    minimum sample confidence is ``>=`` the stage threshold.  Defaults to
    all-``+inf`` (escalate everything) until :meth:`calibrate` replaces
    them; a threshold of ``-inf`` makes a stage accept everything.
    """

    def __init__(
        self,
        stages: Sequence[InferenceSession],
        gate: str = "msp",
        thresholds: Optional[Sequence[float]] = None,
        verify_escalations: bool = False,
    ):
        if not stages:
            raise ValueError("a cascade needs at least one stage")
        if gate not in GATES:
            raise ValueError(f"unknown gate {gate!r} (have {sorted(GATES)})")
        self.stages = list(stages)
        self.gate = gate
        self.verify_escalations = verify_escalations
        self._owns_stages = False
        self.set_thresholds(thresholds)
        self._closed = False
        self._lock = threading.Lock()
        self._inflight = 0
        self._drained = threading.Condition(self._lock)
        self._requests = 0
        self._samples = 0
        self._errors = 0
        self._verified = 0
        self._entered = [0] * len(self.stages)
        self._accepted = [0] * len(self.stages)
        # Ladder-level latency lives in the process metrics registry as a
        # streaming histogram (quantiles without a sample list), next to
        # the per-stage sessions' own series.
        self.name = f"cascade-{next(_CASCADE_SEQ)}"
        labels = {"cascade": self.name}
        registry = global_registry()
        self._metric_labels = labels
        self._c_requests = registry.counter(
            "repro_cascade_requests_total", labels,
            help="Requests answered by the cascade",
        )
        self._c_escalations = registry.counter(
            "repro_cascade_escalations_total", labels,
            help="Stage hops past stage 0",
        )
        self._h_latency = registry.histogram(
            "repro_cascade_latency_seconds", labels,
            help="Submit-to-final-resolve cascade latency",
        )
        self._router_queue: "queue.Queue[object]" = queue.Queue()
        self._router = threading.Thread(
            target=self._route, name="repro-cascade-router", daemon=True
        )
        self._router.start()

    # ------------------------------------------------------------------
    @classmethod
    def from_registry(
        cls,
        registry: "Any",
        refs: Optional[Sequence[str]] = None,
        family: Optional[str] = None,
        backend: str = "auto",
        session: Optional[SessionConfig] = None,
        gate: str = "msp",
        thresholds: Optional[Sequence[float]] = None,
        verify_escalations: bool = False,
        **engine_kwargs: Any,
    ) -> "CascadeSession":
        """Build a ladder from registry artifacts and serve it.

        Either pass explicit ``refs`` (sparsest first) or a ``family``
        name — the ladder is then discovered via
        :meth:`~repro.serve.registry.ModelRegistry.family_ladder` from the
        machine-readable ``family`` / ``sparsity_level`` metadata.  Every
        stage gets its own :class:`InferenceSession` (own queue, window,
        workers) and pins its artifact version against
        ``registry gc`` until the cascade closes.
        """
        if (refs is None) == (family is None):
            raise ValueError("pass exactly one of refs= or family=")
        if family is not None:
            refs = [row["ref"] for row in registry.family_ladder(family)]
        assert refs is not None
        if not refs:
            raise ValueError("empty cascade ladder")
        stages: List[InferenceSession] = []
        try:
            for ref in refs:
                stages.append(
                    InferenceSession.from_registry(
                        registry, ref, backend=backend, session=session, **engine_kwargs
                    )
                )
        except BaseException:
            for stage in stages:
                stage.close()
            raise
        built = cls(
            stages, gate=gate, thresholds=thresholds, verify_escalations=verify_escalations
        )
        built._owns_stages = True
        return built

    # ------------------------------------------------------------------
    def set_thresholds(self, thresholds: Optional[Sequence[float]]) -> None:
        """Install per-stage accept thresholds (``len(stages) - 1`` of them)."""
        gates = len(self.stages) - 1
        if thresholds is None:
            self.thresholds = [float("inf")] * gates
            return
        values = [float(t) for t in thresholds]
        if len(values) != gates:
            raise ValueError(
                f"need {gates} thresholds for a {len(self.stages)}-stage ladder, "
                f"got {len(values)}"
            )
        self.thresholds = values

    # ------------------------------------------------------------------
    # Serving path
    # ------------------------------------------------------------------
    def submit(self, x: np.ndarray) -> CascadeResult:
        """Enqueue one request into stage 0; returns a :class:`CascadeResult`."""
        array = InferenceSession._normalize(x)
        record = _CascadeRequest(array, CascadeResult())
        if _obs.enabled:
            tracer = _obs.tracer()
            if tracer is not None:
                # The cascade owns the root span: one trace shows the full
                # ladder (every stage hop parents under this context).
                record.ctx = tracer.new_trace()
                record.result.trace_id = record.ctx.trace_id
        with self._lock:
            if self._closed:
                raise SessionClosed("cannot submit to a closed CascadeSession")
            self._inflight += 1
        try:
            self._submit_to_stage(record, 0)
        except BaseException:
            self._finish()
            raise
        return record.result

    def infer(self, x: np.ndarray, timeout: Optional[float] = None) -> np.ndarray:
        """Submit one request and block for its (possibly escalated) output."""
        return self.submit(x).result(timeout)

    def infer_many(
        self, inputs: Sequence[np.ndarray], timeout: Optional[float] = None
    ) -> List[np.ndarray]:
        """Submit a burst, then gather results in submission order."""
        results = [self.submit(x) for x in inputs]
        return [r.result(timeout) for r in results]

    def _submit_to_stage(self, record: _CascadeRequest, stage_index: int) -> None:
        with self._lock:
            self._entered[stage_index] += 1
        if stage_index > 0:
            self._c_escalations.inc()
        trace_ctx = None
        if record.ctx is not None and _obs.enabled:
            tracer = _obs.tracer()
            if tracer is not None:
                # Pre-derive this hop's span; the stage session parents
                # its queue_wait/window/engine spans under it instead of
                # opening a new root.  The span itself is emitted when the
                # router picks the stage's answer back up.
                record.stage_ctx = tracer.derive(record.ctx)
                record.stage_start = time.perf_counter()
                trace_ctx = record.stage_ctx
        pending = self.stages[stage_index].submit(record.array, trace_ctx=trace_ctx)
        pending.add_done_callback(
            # The callback runs on a stage worker thread; it must never
            # block, so routing (gate compute, possibly a blocking submit
            # into the next stage's bounded queue) happens on the router.
            lambda p, record=record, idx=stage_index: self._router_queue.put(
                (record, idx, p)
            )
        )

    def _route(self) -> None:
        while True:
            item = self._router_queue.get()
            if item is _ROUTER_STOP:
                break
            record, stage_index, pending = item  # type: ignore[misc]
            try:
                self._route_one(record, stage_index, pending)
            except BaseException as error:  # noqa: BLE001 - surfaced per request
                with self._lock:
                    self._errors += 1
                record.result._resolve(None, error)
                self._finish()

    def _route_one(
        self, record: _CascadeRequest, stage_index: int, pending: PendingResult
    ) -> None:
        # The stage hop's span closes here — router pickup time — so it
        # also covers the stage callback and the router-queue hand-off.
        tracer = _obs.tracer() if (record.stage_ctx is not None and _obs.enabled) else None
        route_start = time.perf_counter() if tracer is not None else 0.0
        if tracer is not None:
            tracer.emit(
                record.stage_ctx,
                record.ctx,
                f"stage{stage_index}",
                record.stage_start,
                route_start,
                {"stage": stage_index},
            )
        if pending._error is not None:
            with self._lock:
                self._errors += 1
            if tracer is not None:
                tracer.emit(
                    record.ctx, None, "request",
                    record.result.submitted_at, time.perf_counter(),
                    {"stage": stage_index, "error": str(pending._error)},
                )
            record.result._resolve(None, pending._error, stage=stage_index)
            self._finish()
            return
        logits = pending._value
        assert logits is not None
        last = len(self.stages) - 1
        if stage_index >= last:
            self._accept(record, stage_index, logits, None, route_start)
            return
        # The request's least confident sample speaks for it.
        confidence = float(gate_confidence(self.gate, logits).min())
        if confidence >= self.thresholds[stage_index]:
            self._accept(record, stage_index, logits, confidence, route_start)
            return
        self._submit_to_stage(record, stage_index + 1)
        if tracer is not None:
            # Escalation hop: gate compute + re-admission into the next
            # stage's bounded queue, all on the router thread.
            tracer.emit_child(
                record.ctx,
                "escalation",
                route_start,
                time.perf_counter(),
                {
                    "from_stage": stage_index,
                    "to_stage": stage_index + 1,
                    "confidence": confidence,
                },
            )

    def _accept(
        self,
        record: _CascadeRequest,
        stage_index: int,
        logits: np.ndarray,
        confidence: Optional[float],
        route_start: float = 0.0,
    ) -> None:
        if self.verify_escalations and stage_index > 0:
            # The serving contract, asserted live: an escalated response
            # must be bit-identical to running this stage's model directly.
            direct = self.stages[stage_index].predict(record.array)
            if not np.array_equal(direct, logits):
                record.result._resolve(
                    None,
                    AssertionError(
                        f"escalated response at stage {stage_index} is not "
                        "bit-identical to direct execution"
                    ),
                    stage=stage_index,
                )
                with self._lock:
                    self._errors += 1
                self._finish()
                return
            with self._lock:
                self._verified += 1
        with self._lock:
            self._requests += 1
            self._samples += record.array.shape[0]
            self._accepted[stage_index] += 1
        self._c_requests.inc()
        if record.ctx is not None and _obs.enabled:
            tracer = _obs.tracer()
            if tracer is not None:
                done = time.perf_counter()
                # Gate compute + (optional) verification ran on the router
                # since the stage span closed; account for it explicitly
                # so the root stays fully covered.
                attrs: Dict[str, Any] = {"stage": stage_index}
                if confidence is not None:
                    attrs["confidence"] = confidence
                if route_start:
                    tracer.emit_child(record.ctx, "gate_accept", route_start, done, attrs)
                tracer.emit(
                    record.ctx, None, "request",
                    record.result.submitted_at, done, attrs,
                )
        record.result._resolve(logits, None, stage=stage_index, confidence=confidence)
        self._h_latency.observe(record.result.latency or 0.0)
        self._finish()

    def _finish(self) -> None:
        with self._drained:
            self._inflight -= 1
            if self._inflight <= 0:
                self._drained.notify_all()

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def calibrate(
        self,
        inputs: np.ndarray,
        labels: Optional[np.ndarray] = None,
        retention: float = 0.99,
    ) -> CalibrationReport:
        """Fit per-stage thresholds on a held-out set and install them.

        For each non-final stage, samples are ranked by gate confidence
        and the threshold is set at the **largest accept-prefix whose
        agreement with ``labels`` is >= ``retention``** — the cheapest
        operating point that keeps the accepted set at the target
        accuracy.  Samples below the threshold flow to the next stage's
        calibration, so each stage is fitted on the traffic it will
        actually see.  With ``labels=None`` the densest stage's argmax is
        the reference — retention then means *agreement with the densest
        model*, and the densest-only baseline scores 1.0 by definition.

        Runs synchronously on the calling thread (``predict``), installs
        the thresholds via :meth:`set_thresholds`, and returns a
        :class:`CalibrationReport`.
        """
        if not 0.0 < retention <= 1.0:
            raise ValueError(f"retention must be in (0, 1], got {retention}")
        data = np.asarray(inputs, dtype=np.float32)
        if data.ndim != 4 or data.shape[0] < 1:
            raise ValueError(f"calibration inputs must be (N,C,H,W), got {data.shape}")
        n = data.shape[0]
        if labels is None:
            labels = self.stages[-1].predict(data).argmax(axis=1)
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise ValueError(f"labels shape {labels.shape} does not match {n} inputs")

        thresholds: List[float] = []
        accept_fraction: List[float] = []
        stage_agreement: List[Optional[float]] = []
        correct_answered = 0
        remaining = np.arange(n)
        for stage in self.stages[:-1]:
            if remaining.size == 0:
                # Nothing flows this deep; keep the stage closed.
                thresholds.append(float("inf"))
                accept_fraction.append(0.0)
                stage_agreement.append(None)
                continue
            logits = stage.predict(data[remaining])
            confidence = gate_confidence(self.gate, logits)
            agree = (logits.argmax(axis=1) == labels[remaining]).astype(np.float64)
            order = np.argsort(-confidence, kind="stable")
            cumulative = np.cumsum(agree[order]) / (np.arange(remaining.size) + 1)
            meets = np.nonzero(cumulative >= retention)[0]
            accept_count = int(meets[-1]) + 1 if meets.size else 0
            if accept_count == 0:
                thresholds.append(float("inf"))
                accept_fraction.append(0.0)
                stage_agreement.append(None)
                continue
            threshold = float(confidence[order[accept_count - 1]])
            accepted_mask = confidence >= threshold
            # Ties at the threshold may accept a few more samples than the
            # prefix; recompute agreement over the actual accepted set.
            thresholds.append(threshold)
            accept_fraction.append(float(accepted_mask.sum()) / n)
            stage_agreement.append(float(agree[accepted_mask].mean()))
            correct_answered += int(agree[accepted_mask].sum())
            remaining = remaining[~accepted_mask]

        final_fraction = remaining.size / n
        accept_fraction.append(float(final_fraction))
        if remaining.size:
            final_logits = self.stages[-1].predict(data[remaining])
            final_agree = (final_logits.argmax(axis=1) == labels[remaining]).astype(np.float64)
            stage_agreement.append(float(final_agree.mean()))
            correct_answered += int(final_agree.sum())
        else:
            stage_agreement.append(None)

        self.set_thresholds(thresholds)
        return CalibrationReport(
            gate=self.gate,
            retention=retention,
            thresholds=thresholds,
            accept_fraction=accept_fraction,
            stage_agreement=stage_agreement,
            expected_accuracy=correct_answered / n,
            samples=n,
        )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Cascade telemetry: gate decisions plus every stage's session stats.

        ``stages[i]`` merges the stage's own :meth:`InferenceSession.stats`
        (latency quantiles, occupancy, per-worker windows) with the
        cascade's routing counters: ``entered`` (requests that reached the
        stage), ``accepted`` (answered there) and ``escalated``
        (``entered - accepted``; always 0 for the final stage).
        ``latency_ms`` at the top level is submit-to-final-resolve across
        however many stages each request visited.
        """
        with self._lock:
            entered = list(self._entered)
            accepted = list(self._accepted)
            requests = self._requests
            stats: Dict[str, Any] = {
                "gate": self.gate,
                "thresholds": list(self.thresholds),
                "requests": requests,
                "samples": self._samples,
                "errors": self._errors,
                "verified_escalations": self._verified,
                "escalated": sum(entered) - requests if requests else 0,
                "escalation_rate": (
                    (entered[1] / requests) if len(entered) > 1 and requests else 0.0
                ),
            }
        stage_rows: List[Dict[str, Any]] = []
        for index, stage in enumerate(self.stages):
            row = {
                "entered": entered[index],
                "accepted": accepted[index],
                "escalated": entered[index] - accepted[index],
            }
            row.update(stage.stats())
            stage_rows.append(row)
        stats["stages"] = stage_rows
        # Streaming histogram view (mean/max exact, quantiles estimated).
        stats["latency_ms"] = {
            "p50": self._h_latency.percentile(50) * 1e3,
            "p95": self._h_latency.percentile(95) * 1e3,
            "mean": self._h_latency.mean() * 1e3,
            "max": float(self._h_latency.snapshot()["max"]) * 1e3,
        }
        return stats

    def metrics_text(self) -> str:
        """Prometheus exposition of the process registry (ladder + stages)."""
        return global_registry().expose_text()

    def reset_stats(self) -> None:
        """Zero routing counters and every stage's telemetry."""
        with self._lock:
            self._requests = 0
            self._samples = 0
            self._errors = 0
            self._verified = 0
            self._entered = [0] * len(self.stages)
            self._accepted = [0] * len(self.stages)
        for instrument in (self._c_requests, self._c_escalations, self._h_latency):
            instrument.reset()
        for stage in self.stages:
            stage.reset_stats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> None:
        """Drain in-flight requests, stop the router, close owned stages.

        Pending requests — including those mid-escalation — are answered
        before the router exits.  ``timeout`` bounds the whole close; a
        drain that cannot finish raises ``TimeoutError`` with the
        in-flight count rather than abandoning requests silently.
        """
        with self._drained:
            if self._closed:
                return
            self._closed = True
            deadline = None if timeout is None else time.monotonic() + timeout
            while self._inflight > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"CascadeSession.close: {self._inflight} request(s) still "
                        f"in flight after {timeout}s"
                    )
                self._drained.wait(remaining)
        self._router_queue.put(_ROUTER_STOP)
        self._router.join(timeout)
        if self._router.is_alive():
            raise TimeoutError("CascadeSession.close: router thread did not exit")
        if self._owns_stages:
            for stage in self.stages:
                remaining = None if timeout is None else max(0.0, timeout)
                stage.close(remaining)
        # Retire the ladder's metric series (stage sessions retire theirs).
        metrics = global_registry()
        for metric_name in (
            "repro_cascade_requests_total",
            "repro_cascade_escalations_total",
            "repro_cascade_latency_seconds",
        ):
            metrics.remove(metric_name, self._metric_labels)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "CascadeSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
