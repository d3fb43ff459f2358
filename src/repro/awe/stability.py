"""Stable Padé reduction.

Padé-from-moments can hallucinate right-half-plane poles (a well-known AWE
failure mode).  Standard practice — and what we do — is to retry at lower
orders until the model is stable, recording how many orders were dropped
so callers can report it.  Moments are frequency-scaled before the Hankel
solve and the poles/residues unscaled afterwards.
"""

from __future__ import annotations

import numpy as np

from ..errors import ApproximationError
from ..obs import metrics as _metrics
from .model import ReducedOrderModel
from .pade import fast_poles_residues, poles_and_residues
from .scaling import moment_scale, scale_moments, unscale_poles, unscale_residues


def record_dropped_orders(dropped: int) -> None:
    """Add ``dropped`` to the ``repro_pade_dropped_orders_total`` counter."""
    if dropped:
        _metrics.registry().counter(
            "repro_pade_dropped_orders_total",
            "orders dropped by the stable-reduction fallback"
        ).inc(dropped)


def stable_reduction(moments: np.ndarray, order: int,
                     require_stable: bool = True,
                     scale: float | None = None) -> ReducedOrderModel:
    """Build the highest-order stable model with at most ``order`` poles.

    Args:
        moments: at least ``2 * order`` transfer-function moments.
        order: requested number of poles.
        require_stable: when False, returns the first successful Padé even
            if unstable (used by diagnostics and ablation benches).
        scale: frequency scale override; estimated from the moments when None.

    Raises:
        ApproximationError: if no order down to 1 yields a (stable) model.
    """
    m = np.asarray(moments, dtype=float)
    a = moment_scale(m) if scale is None else float(scale)
    # m'_k = m_k * a^k stays O(m0) because m_k decays like 1/a^k
    scaled = scale_moments(m, a)
    # (order, error text or unstable poles) per dropped rung: the poles
    # are formatted only if every rung fails — a lower rung usually wins
    failures: list[tuple[int, object]] = []
    for q in range(order, 0, -1):
        try:
            poles_s, residues_s = poles_and_residues(scaled, q)
        except ApproximationError as exc:
            failures.append((q, str(exc)))
            continue
        poles = unscale_poles(poles_s, a)
        residues = unscale_residues(residues_s, a)
        dropped = len(failures)
        model = ReducedOrderModel(poles, residues, order_requested=order,
                                  scale=a, dropped_unstable=dropped)
        if model.stable or not require_stable:
            record_dropped_orders(dropped)
            return model
        failures.append((q, poles))
    lines = [f"order {q}: {why}" if isinstance(why, str)
             else f"order {q}: unstable poles {why[why.real >= 0]}"
             for q, why in failures]
    raise ApproximationError(
        "no stable Padé reduction found:\n  " + "\n  ".join(lines),
        moment_scale=a, order=order)


def rom_from_moments(moments, order: int,
                     require_stable: bool = True) -> ReducedOrderModel:
    """Reduced-order model from already-computed numeric moments.

    The shared per-point evaluation tail of every compiled-model path
    (:meth:`CompiledAWEModel.rom`, :meth:`LoadedModel.rom`, and the
    batched runtime's fallback): orders 1-2 take the closed-form
    pure-Python Padé, anything degenerate/unstable or higher-order goes
    through the general scaled Hankel solve with stable order fallback.

    Raises:
        ApproximationError: no (stable) model at any order down to 1.
    """
    q = int(order)
    if q <= 2:
        try:
            poles, residues = fast_poles_residues(moments, q)
            model = ReducedOrderModel(poles, residues, order_requested=q)
            if model.stable or not require_stable:
                return model
        except ApproximationError:
            pass  # fall through to the general path
    return stable_reduction(np.asarray(moments, dtype=float), q,
                            require_stable=require_stable)
