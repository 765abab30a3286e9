"""Closed-loop load from one thread, and the readings taken around it.

One thread keeps a fixed number of requests in flight and replaces each
answered request at once.  An open loop below capacity would pin
throughput to the offered rate, so no change to the program could move
it; a closed loop lets throughput and latency both respond.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import queue
import resource
import time
from typing import Dict, List, Optional

import numpy as np


@dataclasses.dataclass
class Answer:
    index: int  # position in the image pool
    submitted: float
    done: float
    output: Optional[np.ndarray]
    error: Optional[BaseException]

    @property
    def latency(self) -> float:
        return self.done - self.submitted


@dataclasses.dataclass
class Phase:
    start: float
    seconds: float
    answers: List[Answer]
    steal_share: Optional[float]
    #: About once a second: (time, cpu_seconds(), /proc/stat cpu counters).
    timeline: List[tuple]


#: A stretch of the timed phase counts as quiet when the hypervisor stole
#: at most this share of the machine's CPU time in it.  An idle 2-vCPU
#: cloud virtual machine showed about 1%.
QUIET_STEAL = 0.05
#: With less quiet time than this share of the phase, the whole phase is
#: measured instead.
MIN_QUIET = 1 / 3
#: With fewer requests than this inside quiet stretches, latency is taken
#: over every request of the phase.
MIN_QUIET_REQUESTS = 200
#: Answers closer together than this were resolved by one window.
BURST_GAP_S = 1e-3


def quiet_figures(phase: Phase) -> Dict[str, float]:
    """Throughput, latency p50/p95 and CPU per request over quiet stretches.

    Hypervisor steal on a shared host comes and goes over seconds, and a
    stolen second costs this program several times its share, because
    its BLAS threads wait on each other (README.md).  The figures are
    therefore taken over the stretches (about a second each, between
    timeline samples) in which the machine lost at most ``QUIET_STEAL``
    of its CPU time: throughput and CPU per answer from the answers and
    CPU time those stretches saw, latency from the requests that lived
    wholly inside them.  Steal is the hypervisor's, never the program's,
    so this drops no time the program itself wasted.

    Answers arrive a window at a time, so the answered count is
    interpolated linearly between the ends of those bursts: a stretch
    boundary inside a window's service time counts the share of the
    window served before it, and throughput moves continuously.
    """
    end = phase.start + phase.seconds
    times = np.array([sample[0] for sample in phase.timeline])
    cpu = np.array([sample[1] for sample in phase.timeline])
    if all(sample[2] is not None for sample in phase.timeline):
        counters = np.array([sample[2][:8] for sample in phase.timeline], dtype=float)
        ticks = np.diff(counters, axis=0)
        stolen = ticks[:, 7] / np.maximum(ticks.sum(axis=1), 1.0)
    else:  # no /proc/stat: every stretch counts as quiet
        stolen = np.zeros(len(times) - 1)
    begin, finish = times[:-1], np.minimum(times[1:], end)
    inside = begin < end
    quiet = inside & (stolen <= QUIET_STEAL)
    if (finish - begin)[quiet].sum() < MIN_QUIET * phase.seconds:
        quiet = inside

    done = np.sort([a.done for a in phase.answers])
    ends = np.flatnonzero(np.diff(done) > BURST_GAP_S)
    knots_t = np.concatenate(([phase.start], done[ends], done[-1:]))
    knots_n = np.concatenate(([0], ends + 1, [len(done)]))
    served = np.interp(finish, knots_t, knots_n) - np.interp(begin, knots_t, knots_n)
    used = np.interp(finish, times, cpu) - cpu[:-1]

    # A request counts when every stretch it lived through was quiet.
    noisy = np.concatenate(([0], np.cumsum(~quiet)))
    submitted = np.array([a.submitted for a in phase.answers])
    answered = np.array([a.done for a in phase.answers])
    first = np.clip(np.searchsorted(times, submitted, side="right") - 1, 0, len(quiet) - 1)
    last = np.clip(np.searchsorted(times, answered, side="right") - 1, 0, len(quiet) - 1)
    calm = (answered <= end) & (noisy[last + 1] - noisy[first] == 0)
    if calm.sum() < MIN_QUIET_REQUESTS:
        calm = answered <= end
    latencies = np.array([a.latency for a in phase.answers])[calm]
    return {
        "throughput_rps": served[quiet].sum() / (finish - begin)[quiet].sum(),
        "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "latency_p95_ms": float(np.percentile(latencies, 95)) * 1e3,
        "cpu_ms_per_request": used[quiet].sum() * 1e3 / served[quiet].sum(),
        "quiet_share": (finish - begin)[quiet].sum() / phase.seconds,
        "quiet_requests": int(calm.sum()),
    }


def run_closed_loop(
    session,
    images: np.ndarray,
    first: int,
    inflight: int,
    seconds: float = float("inf"),
    count: Optional[int] = None,
    tracer=None,
) -> Phase:
    """Serve ``images[first:]`` in order for ``seconds``, then drain.

    ``count`` instead bounds the number of requests (the warm-up).  A run
    that outpaces the image pool wraps around to its start.

    With a ``tracer``, every request opens its own trace whose root span
    (``bench.request``) runs from just before ``submit`` to its answer;
    the session parents its scheduler spans under it.
    """
    answered: "queue.SimpleQueue" = queue.SimpleQueue()
    answers: List[Answer] = []
    cursor = first
    outstanding = 0

    def submit() -> None:
        nonlocal cursor, outstanding
        index = cursor % len(images)
        cursor += 1
        ctx = tracer.new_trace() if tracer is not None else None
        submitted = time.perf_counter()
        pending = session.submit(images[index], trace_ctx=ctx)
        outstanding += 1

        def on_done(p, index=index, submitted=submitted, ctx=ctx) -> None:
            done = p.submitted_at + p.latency
            if ctx is not None:
                tracer.emit(ctx, None, "bench.request", submitted, done)
            answered.put((index, submitted, done, p))

        pending.add_done_callback(on_done)

    steal0 = read_proc_stat()
    start = time.perf_counter()
    deadline = start + seconds
    timeline = [(start, cpu_seconds(), steal0)]
    for _ in range(inflight if count is None else min(inflight, count)):
        submit()
    while outstanding:
        index, submitted, done, pending = answered.get()
        outstanding -= 1
        now = time.perf_counter()
        if now - timeline[-1][0] >= 1.0:
            timeline.append((now, cpu_seconds(), read_proc_stat()))
        try:
            output, error = pending.result(0), None
        except Exception as exc:  # noqa: BLE001 - counted as a failed request
            output, error = None, exc
        answers.append(Answer(index, submitted, done, output, error))
        if time.perf_counter() < deadline and (count is None or cursor - first < count):
            submit()
    timeline.append((time.perf_counter(), cpu_seconds(), read_proc_stat()))
    return Phase(start, seconds, answers, steal_share(steal0, timeline[-1][2]), timeline)


# ----------------------------------------------------------------------
# Readings of this process and its children (the procpool's workers)
# ----------------------------------------------------------------------
def _children() -> List[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid]


def cpu_seconds() -> float:
    """User + system CPU of this process and its live child processes."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    total = own.ru_utime + own.ru_stime
    tick = os.sysconf("SC_CLK_TCK")
    for pid in _children():
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def peak_rss_mb() -> float:
    """Summed peak resident memory (VmHWM) of this process and its children."""
    total_kb = 0
    for pid in ["self"] + [str(p) for p in _children()]:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def read_proc_stat() -> Optional[List[int]]:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of the machine's CPU time the hypervisor stole in between.

    ``/proc/stat``'s ``cpu`` line: user nice system idle iowait irq
    softirq steal [guest guest_nice], where guest time is already part of
    user and nice and so is left out of the total.
    """
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(delta)
    return delta[7] / total if total > 0 else None


def blas_threads() -> Dict[str, object]:
    """BLAS thread settings as found: environment and OpenBLAS's own count."""
    found: Dict[str, object] = {
        key: os.environ.get(key)
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    found["openblas_threads"] = None
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    import ctypes

    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                found["openblas_threads"] = int(getter())
                return found
    return found
