"""Open-loop load on the in-process serving layer.

One asyncio loop drives :meth:`AWEService.handle_eval` with seeded
Poisson arrivals: each request is sent at its due time whether or not
earlier ones have finished (independent users), and its latency runs
from that due time to its response, so a stalled generator or a backed
up service shows in every later request.  The service runs on its
default :class:`ServiceConfig`.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import models
import tracing
from common import log, percentile, windowed_p99

#: fixed rates (req/s) of the light and loaded phases, below what the
#: mix saturates at (360-750 req/s on a 2-vCPU virtual machine, depending
#: on how busy its host was)
LIGHT_RPS = 200.0
LOADED_RPS = 250.0
#: seconds per window of the fixed-rate phases
WINDOW_S = 1.0
#: the saturation phase offers OVERLOAD_RPS, more than the service can
#: take, for SATURATE_S seconds; completions per second after the first
#: SATURATE_WARM_S (while admission holds the backlog, the service is
#: never idle) are the highest rate it sustains
OVERLOAD_RPS = 1000.0
SATURATE_S = 1.2
SATURATE_WARM_S = 0.3
N_TENANTS = 16
MODEL_MIX = (("op741", 0.8), ("ota", 0.2))
METRIC_MIX = (("dominant_pole_hz", 0.8), ("phase_margin", 0.1),
              ("dc_gain", 0.1))
SPEC_OF = {"op741": "op741_o2", "ota": "ota_o2"}

#: (due time, phase rate) of the request the current task is sending
_DUE = contextvars.ContextVar("perfbench_due", default=None)


def due_time():
    return _DUE.get()


@dataclass
class Phase:
    """Everything one phase of arrivals observed."""

    rate: float
    sent: int = 0
    latencies_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    rejected: Counter = field(default_factory=Counter)
    #: (model, metric, order, value items, value, degraded, queue_s) per
    #: answer: atoms only, so the garbage collector does not track them
    answered: list = field(default_factory=list)
    #: completion time of each answer, seconds after the first due time
    done_s: list = field(default_factory=list)
    #: each window's latencies when this phase pools several (merged)
    windows: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.rejected.values())

    @property
    def p50_ms(self) -> float:
        if not self.latencies_ms:
            return float("inf")
        return percentile(self.latencies_ms, 50.0)

    @property
    def p99_ms(self) -> float:
        """p99 latency; for pooled windows, the median of the windows'
        p99s (see :func:`common.windowed_p99`)."""
        if self.windows:
            return windowed_p99(self.windows)
        if not self.latencies_ms:
            return float("inf")
        return percentile(self.latencies_ms, 99.0)

    @classmethod
    def merged(cls, windows: list) -> "Phase":
        """One phase pooling consecutive windows at one rate."""
        out = cls(rate=windows[0].rate)
        for w in windows:
            out.sent += w.sent
            out.latencies_ms += w.latencies_ms
            out.late_ms += w.late_ms
            out.rejected += w.rejected
            out.answered += w.answered
            out.windows.append(w.latencies_ms)
        return out


class Load:
    """The service under test plus its seeded request stream."""

    def __init__(self, specs: dict) -> None:
        from repro.service.server import AWEService, ServiceConfig

        self.specs = specs
        #: set while a traced pass drives the load
        self.tracer = None
        self.service = AWEService(ServiceConfig())
        for name, key in SPEC_OF.items():
            spec = specs[key]
            self.service.registry.register(name, spec.circuit, spec.output,
                                           symbols=spec.symbols,
                                           order=spec.order)
        self.models: dict = {}

    async def warm(self) -> float:
        """Compile every registered model; returns the seconds taken."""
        t0 = time.perf_counter()
        for name in SPEC_OF:
            entry = await self.service.registry.ensure(
                name, executor=self.service.executor)
            self.models[name] = entry.model
        return time.perf_counter() - t0

    def payloads(self, rng, n: int) -> list[dict]:
        names = [m for m, _ in MODEL_MIX]
        which = rng.choice(len(names), size=n,
                           p=[p for _, p in MODEL_MIX])
        metric_names = [m for m, _ in METRIC_MIX]
        metrics = rng.choice(len(metric_names), size=n,
                             p=[p for _, p in METRIC_MIX])
        tenants = rng.integers(0, N_TENANTS, size=n)
        values = {name: models.draw_values(self.specs[SPEC_OF[name]],
                                           self.models[name], rng, n)
                  for name in names}
        return [{"model": names[w], "metric": metric_names[m],
                 "values": values[names[w]][i], "tenant": f"t{t:02d}"}
                for i, (w, m, t) in enumerate(zip(which, metrics, tenants))]

    def schedule(self, rng, rate: float, seconds: float):
        """Poisson due offsets (s) over ``seconds`` plus their payloads."""
        n_max = int(rate * seconds * 2 + 50)
        gaps = rng.exponential(1.0 / rate, size=n_max)
        dues = np.cumsum(gaps)
        dues = dues[dues < seconds]
        return dues, self.payloads(rng, len(dues))

    async def _one(self, due: float, base: float, payload: dict,
                   phase: Phase) -> None:
        from repro.service.errors import ServiceRejection

        _DUE.set((due, phase.rate))
        op = None
        if self.tracer is not None:
            op = self.tracer.new_op()
            tracing.set_operation(op)
        try:
            response = await self.service.handle_eval(payload)
        except ServiceRejection as exc:
            phase.rejected[exc.code] += 1
        except Exception as exc:  # a library error is a failed request
            phase.rejected[type(exc).__name__] += 1
            log(f"request failed: {exc!r}")
        else:
            done = time.perf_counter()
            phase.latencies_ms.append((done - due) * 1e3)
            phase.done_s.append(done - base)
            phase.answered.append((
                payload["model"], payload["metric"], int(response["order"]),
                tuple(payload["values"].items()), float(response["value"]),
                bool(response["degraded"]), response.get("queue_s")))
        if self.tracer is not None:
            self.tracer.record("serve.request", due, time.perf_counter(),
                               op=op, tenant=payload["tenant"],
                               model=payload["model"])

    async def phase(self, dues, payloads, rate: float) -> Phase:
        """Send ``payloads`` at ``dues`` (offsets from now), open loop."""
        phase = Phase(rate=rate, sent=len(payloads))
        tasks = []
        base = time.perf_counter() + 0.002
        for offset, payload in zip(dues, payloads):
            due = base + float(offset)
            delay = due - time.perf_counter()
            await asyncio.sleep(delay if delay > 0.0 else 0.0)
            phase.late_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
            tasks.append(asyncio.ensure_future(
                self._one(due, base, payload, phase)))
        await asyncio.gather(*tasks)
        return phase

    async def windows(self, rng, rate: float, seconds: float) -> Phase:
        """``seconds`` of arrivals at ``rate`` as one-second windows,
        returned pooled."""
        n = max(1, round(seconds / WINDOW_S))
        out = []
        for _ in range(n):
            out.append(await self.phase(*self.schedule(rng, rate,
                                                       seconds / n), rate))
        return Phase.merged(out)

    async def saturate(self, rng) -> tuple:
        """``(requests served per second, the phase)`` while offered
        :data:`OVERLOAD_RPS`; excess requests are shed or refused."""
        phase = await self.phase(
            *self.schedule(rng, OVERLOAD_RPS, SATURATE_S), OVERLOAD_RPS)
        served = sum(SATURATE_WARM_S <= t <= SATURATE_S
                     for t in phase.done_s)
        return served / (SATURATE_S - SATURATE_WARM_S), phase

    async def close(self) -> None:
        await self.service.close()
