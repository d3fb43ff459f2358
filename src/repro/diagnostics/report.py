"""Quarantine records, health summaries, and the sweep diagnostics report.

The quarantine contract (see ``docs/robustness.md``): in lenient mode a
grid point whose moment evaluation, Padé reduction, or metric raises a
library error yields NaN in the result array *and* a structured
:class:`QuarantinedPoint` in the diagnostics report — the sweep always
completes.  In strict mode the first such failure raises.  Non-library
exceptions (``TypeError`` and friends) always propagate: quarantine
degrades on *numerical* failure, it never masks bugs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..obs import metrics as _metrics

__all__ = [
    "HealthSummary",
    "QuarantinedPoint",
    "ShardFailure",
    "SweepDiagnostics",
    "SweepResult",
]


@dataclass
class QuarantinedPoint:
    """One grid point removed from a sweep, with enough context to act on.

    Attributes:
        index: flat index into the C-ordered grid.
        grid_index: per-axis index (filled by the sweep driver).
        values: swept element values at the point (natural units).
        stage: where it failed — ``"moments"`` (singular symbolic system),
            ``"pade"`` (reduction fallback), or ``"metric"``.
        error: exception class name.
        message: exception message (includes the numeric context that
            :class:`~repro.errors.ApproximationError` carries).
        condition_number: Hankel condition number at the point, when the
            failing layer measured one.
        moment_scale: estimated dominant-pole scale at the point, ditto.
    """

    index: int
    stage: str
    error: str
    message: str
    grid_index: tuple[int, ...] = ()
    values: dict[str, float] = field(default_factory=dict)
    condition_number: float | None = None
    moment_scale: float | None = None

    def to_dict(self) -> dict:
        return {
            "index": int(self.index),
            "grid_index": [int(i) for i in self.grid_index],
            "values": {k: float(v) for k, v in self.values.items()},
            "stage": self.stage,
            "error": self.error,
            "message": self.message,
            "condition_number": self.condition_number,
            "moment_scale": self.moment_scale,
        }

    def describe(self) -> str:
        at = ", ".join(f"{k}={v:.6g}" for k, v in self.values.items())
        head = f"point {self.index}"
        if self.grid_index:
            head += f" {tuple(self.grid_index)}"
        if at:
            head += f" ({at})"
        return f"{head}: [{self.stage}] {self.error}: {self.message}"


@dataclass
class ShardFailure:
    """A shard-level incident and how the runtime resolved it.

    ``resolution`` is one of ``"retried"`` (a later pooled attempt
    succeeded), ``"serial"`` (recovered by the in-process serial
    fallback), or ``"abandoned"`` (every attempt failed; the slice is NaN
    and quarantined).
    """

    shard: int
    lo: int
    hi: int
    attempts: int
    error: str
    message: str
    resolution: str

    def to_dict(self) -> dict:
        return {"shard": int(self.shard), "lo": int(self.lo),
                "hi": int(self.hi), "attempts": int(self.attempts),
                "error": self.error, "message": self.message,
                "resolution": self.resolution}

    def describe(self) -> str:
        return (f"shard {self.shard} [{self.lo}:{self.hi}] "
                f"{self.resolution} after {self.attempts} attempt(s): "
                f"{self.error}: {self.message}")


@dataclass
class HealthSummary:
    """Streaming min/mean/max over finite values of a per-point quantity.

    Mergeable across shards (unlike a median), which is why the report
    stores these three and not percentiles.
    """

    count: int = 0
    vmin: float = math.inf
    vmax: float = -math.inf
    total: float = 0.0

    def add(self, values) -> None:
        """Fold in an array, ignoring non-finite entries."""
        arr = np.asarray(values, dtype=float).ravel()
        finite = arr[np.isfinite(arr)]
        if finite.size == 0:
            return
        self.count += int(finite.size)
        self.vmin = min(self.vmin, float(finite.min()))
        self.vmax = max(self.vmax, float(finite.max()))
        self.total += float(finite.sum())

    def merge(self, other: "HealthSummary") -> None:
        if other.count == 0:
            return
        self.count += other.count
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        self.total += other.total

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def to_dict(self) -> dict | None:
        if self.count == 0:
            return None
        return {"min": self.vmin, "mean": self.mean, "max": self.vmax,
                "count": self.count}

    def describe(self) -> str:
        if self.count == 0:
            return "n/a"
        return (f"min {self.vmin:.3g}  mean {self.mean:.3g}  "
                f"max {self.vmax:.3g}  (n={self.count})")


@dataclass
class SweepDiagnostics:
    """Machine-readable health report for one sweep.

    Attributes:
        points: grid points evaluated.
        nan_points: NaN entries in the result (quarantined or degenerate).
        strict: whether the sweep ran in strict (fail-fast) mode.
        cancelled: the sweep was drained by a cancellation token
            (deadline, SIGINT, service shutdown) — shards with
            resolution ``"cancelled"`` NaN-filled their slices and the
            result is partial.
        quarantined: per-point failures (empty on a clean sweep).
        shard_failures: shard-level incidents and their resolutions.
        dropped_orders: ``{orders dropped: point count}`` from the
            stable-order fallback (only nonzero drops are recorded).
        hankel_condition: condition number of the (scaled) order-2 Hankel
            system across the grid — the paper's instability early-warning.
        moment_decay: ``|m0/m1|`` across the grid, the dominant-pole scale
            estimate; collapsing decay means the Padé is running out of
            precision.
        y0_det_abs: ``|det Y0|`` across the grid; zero means the DC
            symbolic system is singular (quarantine stage ``"moments"``).
    """

    points: int = 0
    nan_points: int = 0
    strict: bool = False
    cancelled: bool = False
    quarantined: list[QuarantinedPoint] = field(default_factory=list)
    shard_failures: list[ShardFailure] = field(default_factory=list)
    dropped_orders: dict[int, int] = field(default_factory=dict)
    hankel_condition: HealthSummary = field(default_factory=HealthSummary)
    moment_decay: HealthSummary = field(default_factory=HealthSummary)
    y0_det_abs: HealthSummary = field(default_factory=HealthSummary)

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """True when nothing was quarantined and no shard misbehaved."""
        return not self.quarantined and not self.shard_failures

    def quarantine(self, point: QuarantinedPoint) -> None:
        self.quarantined.append(point)

    def quarantine_error(self, index: int, stage: str,
                         exc: BaseException) -> None:
        """Record a library error at one grid point — or, in strict mode,
        re-raise it (fail-fast semantics)."""
        if self.strict:
            raise exc
        self.quarantine(QuarantinedPoint(
            index=int(index), stage=stage, error=type(exc).__name__,
            message=str(exc),
            condition_number=getattr(exc, "condition_number", None),
            moment_scale=getattr(exc, "moment_scale", None)))

    def record_drop(self, dropped: int, count: int = 1) -> None:
        """Count ``count`` points that dropped ``dropped`` orders."""
        if dropped > 0:
            self.dropped_orders[dropped] = \
                self.dropped_orders.get(dropped, 0) + count

    def merge(self, other: "SweepDiagnostics") -> "SweepDiagnostics":
        """Fold a shard's partial report into this one (indices in
        ``other`` must already be global)."""
        self.points += other.points
        self.nan_points += other.nan_points
        self.cancelled = self.cancelled or other.cancelled
        self.quarantined.extend(other.quarantined)
        self.shard_failures.extend(other.shard_failures)
        for dropped, count in other.dropped_orders.items():
            self.dropped_orders[dropped] = \
                self.dropped_orders.get(dropped, 0) + count
        self.hankel_condition.merge(other.hankel_condition)
        self.moment_decay.merge(other.moment_decay)
        self.y0_det_abs.merge(other.y0_det_abs)
        return self

    def publish(self, registry=None) -> None:
        """Emit this sweep's health counters into the metrics registry.

        The diagnostics report stays the per-sweep record; the registry
        aggregates across sweeps (quarantines by stage, shard incidents
        by resolution, conditioning extremes) for scraping.
        """
        reg = registry if registry is not None else _metrics.registry()
        for point in self.quarantined:
            reg.counter(f"repro_quarantined_points_total_stage_{point.stage}",
                        "points quarantined, by failing stage").inc()
        if self.quarantined:
            reg.counter("repro_quarantined_points_total",
                        "points quarantined across all sweeps"
                        ).inc(len(self.quarantined))
        for failure in self.shard_failures:
            reg.counter(
                f"repro_shard_incidents_total_{failure.resolution}",
                "shard incidents, by resolution").inc()
        if self.hankel_condition.count:
            reg.gauge("repro_sweep_hankel_condition_max",
                      "worst Hankel condition seen in the last sweep"
                      ).set(self.hankel_condition.vmax)
        if self.moment_decay.count:
            reg.gauge("repro_sweep_moment_decay_min",
                      "smallest |m0/m1| seen in the last sweep"
                      ).set(self.moment_decay.vmin)
        if self.y0_det_abs.count:
            reg.gauge("repro_sweep_y0_det_abs_min",
                      "smallest |det Y0| seen in the last sweep"
                      ).set(self.y0_det_abs.vmin)

    # ------------------------------------------------------------------
    # serialization / rendering
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "points": int(self.points),
            "nan_points": int(self.nan_points),
            "strict": bool(self.strict),
            "cancelled": bool(self.cancelled),
            "quarantined": [q.to_dict() for q in self.quarantined],
            "shard_failures": [s.to_dict() for s in self.shard_failures],
            "dropped_orders": {str(k): int(v)
                               for k, v in sorted(self.dropped_orders.items())},
            "hankel_condition": self.hankel_condition.to_dict(),
            "moment_decay": self.moment_decay.to_dict(),
            "y0_det_abs": self.y0_det_abs.to_dict(),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self, max_listed: int = 10) -> str:
        """Human-readable report (the ``repro doctor`` output body)."""
        mode = "strict" if self.strict else "lenient"
        if self.cancelled:
            mode += ", cancelled"
        lines = [
            f"sweep diagnostics ({mode}): {self.points} points, "
            f"{self.nan_points} NaN, {len(self.quarantined)} quarantined, "
            f"{len(self.shard_failures)} shard incident(s)",
            f"  hankel condition   {self.hankel_condition.describe()}",
            f"  moment decay |m0/m1|  {self.moment_decay.describe()}",
            f"  |det Y0|           {self.y0_det_abs.describe()}",
        ]
        if self.dropped_orders:
            drops = ", ".join(f"{count} point(s) dropped {k} order(s)"
                              for k, count in sorted(self.dropped_orders.items()))
            lines.append(f"  order fallback     {drops}")
        for failure in self.shard_failures:
            lines.append(f"  {failure.describe()}")
        for point in self.quarantined[:max_listed]:
            lines.append(f"  {point.describe()}")
        hidden = len(self.quarantined) - max_listed
        if hidden > 0:
            lines.append(f"  ... {hidden} more quarantined point(s)")
        return "\n".join(lines)


class SweepResult(np.ndarray):
    """A sweep's value grid with the diagnostics report attached.

    Behaves exactly like the plain :class:`numpy.ndarray` the sweep APIs
    have always returned (same dtype, shape, and values — existing code
    and tests are unaffected); ``result.diagnostics`` carries the
    :class:`SweepDiagnostics` for callers that want the health report.
    """

    diagnostics: SweepDiagnostics | None

    def __new__(cls, values, diagnostics: SweepDiagnostics | None = None):
        obj = np.asarray(values).view(cls)
        obj.diagnostics = diagnostics
        return obj

    def __array_finalize__(self, obj) -> None:
        if obj is None:
            return
        self.diagnostics = getattr(obj, "diagnostics", None)
