"""Lightweight instrumentation for the batched sweep runtime.

The paper's evaluation (Table 1) hinges on separating the *setup* cost
(symbolic derivation + compilation, paid once) from the *per-iteration*
cost (the compiled straight-line program).  :class:`RuntimeStats` keeps
that accounting honest for batched sweeps: per-stage wall times, point
counters splitting the vectorized fast path from the per-point fallback,
and the op count of the compiled program, so benchmarks can report
compile-vs-evaluate cost instead of one opaque total.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

from ..obs import metrics as _metrics
from ..obs import trace as _trace


@dataclass
class RuntimeStats:
    """Counters and per-stage timers for one batched sweep.

    Attributes:
        points: total grid points evaluated.
        vectorized_points: points settled by the batched Padé ladder
            (closed form or a stacked general rung, orders dropped
            included).
        fallback_points: points no ladder rung settled, handed to the
            per-point :func:`~repro.awe.stability.rom_from_moments`
            (exhausted ladders it quarantines, non-finite moments).
        nan_points: points that ended up NaN (degenerate Padé).
        quarantined_points: points removed by the resilience layer (see
            the sweep's ``diagnostics`` report for the per-point records).
        shards: number of grid shards the sweep was split into.
        workers: worker threads/processes used (1 = serial).
        backend: execution backend the sweep resolved to
            (``"serial"``, ``"thread"``, or ``"process"``).
        spawn_seconds: one-time cost of standing up the process pool
            (0 for serial/thread backends and for warm pool reuse) —
            the amortized overhead the process backend pays once.
        worker_busy: wall seconds each worker spent inside shard
            evaluation, keyed by worker identity (``"main"``,
            ``"thread-<ident>"``, or ``"pid-<pid>"``) — the raw data
            behind :attr:`parallel_efficiency` for multi-worker runs.
        n_ops: arithmetic op count of the compiled moment program.
        compile_seconds: time spent compiling the symbolic model
            (amortized setup, not per-sweep; copied from the model).
        evaluate_seconds: evaluating the compiled moment program over the
            grid (the paper's "reduced set of operations").
        pade_seconds: pole/residue extraction: the batched ladder plus
            the per-point reductions of the fallback points.
        metric_seconds: metric evaluation.
        total_seconds: wall-clock for the whole sweep call.  Stage times
            are summed across shards, so with parallel workers their sum
            can exceed ``total_seconds``; :attr:`parallel_efficiency`
            normalizes that sum into a utilization figure.
    """

    points: int = 0
    vectorized_points: int = 0
    fallback_points: int = 0
    nan_points: int = 0
    quarantined_points: int = 0
    shards: int = 0
    workers: int = 1
    n_ops: int = 0
    compile_seconds: float = 0.0
    evaluate_seconds: float = 0.0
    pade_seconds: float = 0.0
    metric_seconds: float = 0.0
    total_seconds: float = 0.0
    backend: str = "serial"
    spawn_seconds: float = 0.0
    worker_busy: dict = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str):
        """Accumulate wall time of the enclosed block into ``<name>_seconds``.

        Also opens an obs span ``sweep.<name>`` so traced runs see every
        stage (including per-shard ``sweep.evaluate`` / ``sweep.pade`` /
        ``sweep.metric`` on worker threads); when tracing is disabled the
        span is a shared no-op.
        """
        attr = f"{name}_seconds"
        t0 = time.perf_counter()
        try:
            with _trace.span(f"sweep.{name}"):
                yield self
        finally:
            setattr(self, attr, getattr(self, attr) + time.perf_counter() - t0)

    def merge(self, other: "RuntimeStats") -> "RuntimeStats":
        """Fold a shard's partial stats into this one (counters and stage
        times add; ``workers``/``n_ops``/``total_seconds`` are whole-sweep
        quantities and keep the maximum; ``backend`` is whole-sweep and
        keeps this sweep's value; ``worker_busy`` adds per worker)."""
        for f in fields(self):
            if f.name in ("workers", "n_ops", "total_seconds"):
                setattr(self, f.name, max(getattr(self, f.name),
                                          getattr(other, f.name)))
            elif f.name == "backend":
                continue
            elif f.name == "worker_busy":
                for key, busy in other.worker_busy.items():
                    self.worker_busy[key] = (
                        self.worker_busy.get(key, 0.0) + busy)
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    @property
    def points_per_second(self) -> float:
        """Throughput over the whole sweep (0 when nothing was timed)."""
        if self.total_seconds <= 0.0:
            return 0.0
        return self.points / self.total_seconds

    @property
    def parallel_efficiency(self) -> float:
        """Stage busy-time over available worker-time, in ``[0, 1]``.

        Stage times (``evaluate + pade + metric``) are summed across
        shards, so with parallel workers their sum can exceed
        ``total_seconds``; dividing by ``workers * total_seconds``
        normalizes that into a utilization figure (1.0 = every worker
        busy in measured stages for the whole sweep; serial sweeps
        report the fraction of the wall spent inside measured stages).
        """
        if self.total_seconds <= 0.0:
            return 0.0
        busy = self.evaluate_seconds + self.pade_seconds + self.metric_seconds
        return min(1.0, busy / (max(1, self.workers) * self.total_seconds))

    # ------------------------------------------------------------------
    # serialization (the --stats JSON schema) and metrics emission
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Schema-stable JSON payload: every field plus derived rates.

        Round-trips through :meth:`from_dict` (derived keys are
        recomputed, not stored state).
        """
        # coerce to builtin types: counters accumulate numpy ints when the
        # shard bounds come from np.linspace, and the schema is JSON
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float":
                out[f.name] = float(value)
            elif f.type == "int":
                out[f.name] = int(value)
            elif f.name == "worker_busy":
                out[f.name] = {str(k): float(v) for k, v in value.items()}
            else:
                out[f.name] = str(value)
        out["points_per_second"] = self.points_per_second
        out["parallel_efficiency"] = self.parallel_efficiency
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RuntimeStats":
        """Rebuild from :meth:`to_dict` output (ignores derived keys)."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    def publish(self, registry=None) -> None:
        """Emit this sweep's accounting into the metrics registry.

        Called once per sweep by the batched runtime — RuntimeStats is
        the per-sweep struct, the registry is the process-wide rollup.
        """
        reg = registry if registry is not None else _metrics.registry()
        reg.counter("repro_sweep_runs_total", "batched sweeps executed").inc()
        reg.counter("repro_sweep_points_total",
                    "grid points evaluated").inc(self.points)
        reg.counter("repro_sweep_vectorized_points_total",
                    "points served by the vectorized closed form"
                    ).inc(self.vectorized_points)
        reg.counter("repro_sweep_fallback_points_total",
                    "points routed through the per-point fallback"
                    ).inc(self.fallback_points)
        reg.counter("repro_sweep_nan_points_total",
                    "NaN results").inc(self.nan_points)
        for name in ("compile", "evaluate", "pade", "metric", "total"):
            reg.histogram(f"repro_sweep_{name}_seconds",
                          f"per-sweep {name} stage wall time"
                          ).observe(getattr(self, f"{name}_seconds"))
        if self.spawn_seconds > 0.0:
            reg.histogram("repro_sweep_spawn_seconds",
                          "process-pool spawn cost paid by this sweep"
                          ).observe(self.spawn_seconds)
        reg.gauge("repro_sweep_program_ops",
                  "ops/point of the last swept program").set(self.n_ops)
        reg.gauge("repro_sweep_parallel_efficiency",
                  "stage busy-time over worker-time of the last sweep"
                  ).set(self.parallel_efficiency)

    def summary(self) -> str:
        """One-paragraph human-readable accounting."""
        lines = [
            f"runtime stats: {self.points} points "
            f"({self.vectorized_points} vectorized, "
            f"{self.fallback_points} fallback, {self.nan_points} NaN, "
            f"{self.quarantined_points} quarantined) "
            f"in {self.shards} shard(s) / {self.workers} worker(s) "
            f"[{self.backend}]",
            f"  compile  {self.compile_seconds * 1e3:9.3f} ms "
            f"(one-time, {self.n_ops} ops/point program)",
            f"  evaluate {self.evaluate_seconds * 1e3:9.3f} ms   "
            f"pade {self.pade_seconds * 1e3:9.3f} ms   "
            f"metric {self.metric_seconds * 1e3:9.3f} ms",
            f"  total    {self.total_seconds * 1e3:9.3f} ms "
            f"({self.points_per_second:,.0f} points/s, "
            f"{self.parallel_efficiency * 100.0:.0f}% parallel efficiency)",
        ]
        return "\n".join(lines)
