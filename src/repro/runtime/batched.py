"""Vectorized, shardable evaluation of compiled AWE models over grids.

The compiled straight-line programs emitted by
:mod:`repro.symbolic.compile` are numpy-vectorized: passing arrays sweeps
a whole grid in one call.  Historically :meth:`CompiledAWEModel.sweep`
still walked the cartesian grid point by point; this module closes that
gap.  A batched sweep:

1. maps every grid axis through the element→symbol value transforms and
   flattens the cartesian product into positional argument columns;
2. evaluates the *fused* multi-output moment tape (schema 2, see
   :func:`repro.symbolic.tape.fuse_moments`) once per shard — one
   register-machine pass emits every moment, sharing subexpressions
   across outputs and performing the determinant unscaling inside the
   kernel with the same IEEE operations as the numpy ladder;
3. extracts poles and residues with one batched, lockstep version of
   the per-point stable-order ladder (:func:`_pade_ladder`): orders 1-2
   first try exact array transcriptions of
   :func:`repro.awe.pade.fast_poles_residues`; every lane left over —
   and every lane at higher orders — retries with the others at ``q``,
   ``q-1``, ... ``1``, each rung a stacked Hankel solve, companion
   ``eigvals`` and Vandermonde solve (:func:`_pade_rung`).  A singular
   lane is screened out on its own (``slogdet`` sign 0 on the LU that
   ``solve`` factors, :func:`_solve`) and drops an order like the scalar
   ladder, so it never costs the rest of the stack.  Lanes settle with their
   orders-dropped count and reach the metric grouped by final order,
   through a registered vectorized implementation when one exists;
4. leaves to the per-point :func:`repro.awe.stability.rom_from_moments`
   only the lanes no rung settles — exhausted ladders, which it
   quarantines, and the rare lanes whose outcome the stacked form cannot
   vouch for (non-finite intermediates).  The final order, orders
   dropped and NaN / quarantine placement of every lane are the
   per-point path's.  Lanes the closed form settles are bit-identical
   to the legacy sweep (``tests/runtime/test_differential.py`` enforces
   this); the general rungs are held to the ``ToleranceLadder.exact``
   band (``docs/runtime.md``, ``tests/runtime/test_pade_ladder.py``).

Shards split the flattened grid into contiguous chunks evaluated
independently (optionally on a thread pool), and a
:class:`~repro.runtime.stats.RuntimeStats` records per-stage cost.

Failure handling is quarantine-based (see :mod:`repro.runtime.resilience`
and ``docs/robustness.md``): degenerate points degrade to NaN with a
structured record in the returned
:class:`~repro.diagnostics.SweepDiagnostics` instead of aborting the
sweep, unless strict mode is requested; crashed or hung shards are
retried and spliced back in order.
"""

from __future__ import annotations

import logging
import math
import os
import threading
import time
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from ..awe.model import ReducedOrderModel
from ..awe.stability import record_dropped_orders, rom_from_moments
from ..core import metrics as _metrics
from ..diagnostics import (QuarantinedPoint, ShardFailure, SweepDiagnostics,
                           SweepResult)
from ..errors import ApproximationError, PartitionError
from ..obs import metrics as _obs_metrics
from ..obs import trace as _trace
from ..testing import faults as _faults
from .backends import ProcessShardRunner, resolve_backend
from .cancel import CancelToken
from .resilience import DEFAULT_RESILIENCE, ResilienceConfig, run_shards
from .stats import RuntimeStats

__all__ = [
    "CANCEL_CHUNK_POINTS",
    "batched_sweep",
    "grid_columns",
    "sample_columns",
    "vector_poles_residues",
    "vector_poles_residues_general",
    "vector_metric",
    "VECTOR_METRICS",
]

logger = logging.getLogger("repro.runtime.batched")

#: default sub-chunk size (points) for cancellable shard execution: the
#: granularity at which a shard observes its cancel token, i.e. the upper
#: bound on wasted work after a deadline/timeout/interrupt fires.  Small
#: enough to stop within milliseconds at kernel throughput, large enough
#: that per-chunk dispatch overhead stays invisible.
CANCEL_CHUNK_POINTS = 2048

#: scalar metric -> vectorized implementation ``(poles, residues) -> values``
#: where ``poles``/``residues`` are ``(order, n_points)`` complex arrays.
VECTOR_METRICS: dict[Callable, Callable] = {}


def vector_metric(scalar_metric: Callable):
    """Register a vectorized implementation for ``scalar_metric``.

    The batched runtime looks sweeps' metric callables up in
    :data:`VECTOR_METRICS`; on a hit the whole grid's metric values come
    from one array expression instead of per-point model objects.
    """
    def register(fn):
        VECTOR_METRICS[scalar_metric] = fn
        return fn
    return register


@vector_metric(_metrics.dominant_pole_hz)
def _v_dominant_pole_hz(poles: np.ndarray, residues: np.ndarray) -> np.ndarray:
    idx = np.argmin(np.abs(poles.real), axis=0)
    dom = np.take_along_axis(poles, idx[None, :], axis=0)[0]
    return np.abs(dom.real) / (2.0 * np.pi)


@vector_metric(_metrics.dc_gain)
def _v_dc_gain(poles: np.ndarray, residues: np.ndarray) -> np.ndarray:
    return (-residues / poles).sum(axis=0).real


#: sample count of the gain-crossing scan grid — must match the scalar
#: :func:`repro.core.metrics.gain_crossing_frequency` so crossing /
#: no-crossing (NaN) decisions are made from the identical 600 samples.
_CROSSING_POINTS = 600
#: column-block size for the crossing scan: bounds the (600, block)
#: complex intermediates to a few tens of MB regardless of chunk size.
_CROSSING_BLOCK = 4096


def _v_frequency_response(poles: np.ndarray, residues: np.ndarray,
                          s: np.ndarray) -> np.ndarray:
    """``H(s)`` per point: term-by-term accumulation over the pole rows,
    the same left-to-right order as the small-axis ``.sum(axis=-1)`` in
    :meth:`ReducedOrderModel.transfer`, so magnitudes match bit-for-bit."""
    acc = residues[0] / (s - poles[0])
    for k in range(1, poles.shape[0]):
        acc = acc + residues[k] / (s - poles[k])
    return acc


def _v_gain_crossing_block(poles: np.ndarray, residues: np.ndarray,
                           level) -> np.ndarray:
    q, n = poles.shape
    out = np.full(n, np.nan)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mags = np.abs(poles)
        lo = mags.min(axis=0) * 1e-4
        hi = mags.max(axis=0) * 1e4
        omegas = np.logspace(np.log10(lo), np.log10(hi),
                             _CROSSING_POINTS, axis=0)
        h = _v_frequency_response(poles, residues, 1j * omegas)
        above = np.abs(h) > level
        flips = above[:-1] != above[1:]
        found = flips.any(axis=0)
        if not found.any():
            return out
        first = np.argmax(flips, axis=0)
        cols = np.arange(n)
        lo_log = np.log(omegas[first, cols])
        hi_log = np.log(omegas[first + 1, cols])
        side_lo = above[first, cols]
        lvl = np.broadcast_to(np.asarray(level, dtype=float), (n,))
        # boolean bisection on log-omega: 60 halvings shrink the logspace
        # step (~0.031 in log for the 1e8-wide bracket) to ~3e-20, far
        # below the scalar path's brentq xtol=1e-12, so both land on the
        # same crossing well inside the differential suite's 1e-9 rtol
        for _ in range(60):
            mid = 0.5 * (lo_log + hi_log)
            h_mid = _v_frequency_response(poles, residues, 1j * np.exp(mid))
            same = (np.abs(h_mid) > lvl) == side_lo
            lo_log = np.where(same, mid, lo_log)
            hi_log = np.where(same, hi_log, mid)
        out[found] = np.exp(0.5 * (lo_log + hi_log))[found]
    return out


def _v_gain_crossing(poles: np.ndarray, residues: np.ndarray,
                     level) -> np.ndarray:
    """First ω (scanning upward) where ``|H(jω)|`` crosses ``level``.

    Vectorized transcription of
    :func:`repro.core.metrics.gain_crossing_frequency`: identical
    bracket, identical 600-point log scan (so the crossing / NaN
    decision is made from the same samples), with the per-point
    ``brentq`` refinement replaced by a vectorized boolean bisection.
    ``level`` is a scalar or an ``(n_points,)`` array.
    """
    n = poles.shape[1]
    out = np.empty(n)
    scalar_level = np.ndim(level) == 0
    for start in range(0, n, _CROSSING_BLOCK):
        stop = min(start + _CROSSING_BLOCK, n)
        lvl = level if scalar_level else level[start:stop]
        out[start:stop] = _v_gain_crossing_block(
            poles[:, start:stop], residues[:, start:stop], lvl)
    return out


@vector_metric(_metrics.unity_gain_frequency)
def _v_unity_gain_frequency(poles: np.ndarray, residues: np.ndarray,
                            ) -> np.ndarray:
    return _v_gain_crossing(poles, residues, 1.0)


@vector_metric(_metrics.phase_margin)
def _v_phase_margin(poles: np.ndarray, residues: np.ndarray) -> np.ndarray:
    w_u = _v_gain_crossing(poles, residues, 1.0)
    out = np.full(w_u.shape, np.nan)
    found = np.isfinite(w_u)
    if found.any():
        h = _v_frequency_response(poles[:, found], residues[:, found],
                                  1j * w_u[found])
        out[found] = 180.0 + np.degrees(np.angle(h))
    return out


@vector_metric(_metrics.bandwidth_3db)
def _v_bandwidth_3db(poles: np.ndarray, residues: np.ndarray) -> np.ndarray:
    # the scalar metric *raises* on zero DC gain (quarantining the
    # point); the vectorized path yields the same NaN output without a
    # quarantine record — values stay identical across paths
    dc = np.abs((-residues / poles).sum(axis=0).real)
    out = np.full(dc.shape, np.nan)
    defined = dc != 0.0
    if defined.any():
        out[defined] = _v_gain_crossing(
            poles[:, defined], residues[:, defined],
            dc[defined] / np.sqrt(2.0))
    return out


@vector_metric(_metrics.gain_bandwidth_product)
def _v_gain_bandwidth_product(poles: np.ndarray, residues: np.ndarray,
                              ) -> np.ndarray:
    dc = np.abs((-residues / poles).sum(axis=0).real)
    return dc * _v_bandwidth_3db(poles, residues)


# ----------------------------------------------------------------------
# grid flattening
# ----------------------------------------------------------------------
def _slot_table(model) -> Mapping[str, tuple]:
    """``element name -> (symbol position, value transform)`` for either a
    :class:`CompiledAWEModel` or a deserialized :class:`LoadedModel`."""
    slots = getattr(model, "element_slots", None)
    if slots is None:  # pragma: no cover - both classes expose element_slots
        raise ApproximationError(
            f"{type(model).__name__} does not expose element slots")
    return slots


def _apply_transform(transform, values: np.ndarray) -> np.ndarray:
    """Element→symbol transform over an array (scalar-only transforms get
    an elementwise fallback)."""
    try:
        out = transform(values)
    except TypeError:
        out = np.array([transform(float(v)) for v in values.ravel()]
                       ).reshape(values.shape)
    return np.asarray(out, dtype=float)


def grid_columns(model, grids: Mapping[str, np.ndarray],
                 ) -> tuple[list[str], tuple[int, ...], list]:
    """Flatten cartesian element-value grids into positional symbol columns.

    Returns ``(names, shape, columns)`` where ``columns`` has one entry
    per model symbol: a flattened ``(n_points,)`` float array for swept
    symbols, or the scalar nominal for the rest.

    Raises:
        ApproximationError: a grid name is not a symbolic element.
    """
    slots = _slot_table(model)
    names = list(grids)
    axes = []
    for name in names:
        if name not in slots:
            raise ApproximationError(
                f"{name!r} is not a symbolic element of this model "
                f"(symbols: {list(slots)})")
        axes.append(np.asarray(grids[name], dtype=float))
    shape = tuple(len(a) for a in axes)
    columns: list = [float(s.nominal) for s in model.space.symbols]
    if axes:
        mesh = np.meshgrid(*axes, indexing="ij")
        for name, grid in zip(names, mesh):
            pos, transform = slots[name]
            columns[pos] = _apply_transform(transform, grid.reshape(-1))
    return names, shape, columns


def sample_columns(model, samples: Mapping[str, np.ndarray],
                   ) -> tuple[list[str], tuple[int, ...], list]:
    """Paired (joint) sample columns — the Monte Carlo flattening.

    Unlike :func:`grid_columns`, the value arrays are *not* crossed:
    sample ``i`` of every element belongs to one scenario, so ``n``
    samples of ``k`` elements are ``n`` points, not ``n**k``.  Returns
    the same ``(names, shape, columns)`` contract with ``shape == (n,)``,
    which is why everything downstream of the flattening — sharding,
    backends, quarantine, stats — serves Monte Carlo unchanged.

    Raises:
        ApproximationError: unknown element, no samples, or columns of
            unequal length.
    """
    slots = _slot_table(model)
    names = list(samples)
    if not names:
        raise ApproximationError("paired sweep needs at least one "
                                 "sample column")
    arrays = []
    for name in names:
        if name not in slots:
            raise ApproximationError(
                f"{name!r} is not a symbolic element of this model "
                f"(symbols: {list(slots)})")
        arrays.append(np.asarray(samples[name], dtype=float).reshape(-1))
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ApproximationError(
            "paired sample columns must share one length, got "
            + str({name: a.size for name, a in zip(names, arrays)}))
    columns: list = [float(s.nominal) for s in model.space.symbols]
    for name, arr in zip(names, arrays):
        pos, transform = slots[name]
        columns[pos] = _apply_transform(transform, arr)
    return names, (n,), columns


# ----------------------------------------------------------------------
# vectorized closed-form Padé (orders 1 and 2)
# ----------------------------------------------------------------------
def vector_poles_residues(moments: np.ndarray, order: int,
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized transcription of :func:`repro.awe.pade.fast_poles_residues`.

    Args:
        moments: ``(>= 2*order, n_points)`` float array.
        order: 1 or 2.

    Returns:
        ``(poles, residues, ok)`` with ``poles``/``residues`` of shape
        ``(order, n_points)`` (complex) and ``ok`` a boolean mask of the
        points where the closed form is non-degenerate and finite.  Points
        with ``ok`` False carry garbage values and must be re-evaluated by
        the per-point fallback; ``ok`` is deliberately conservative so
        that every ``ok`` point matches the scalar fast path exactly.
    """
    poles, residues, ok, _failed = _closed_form(moments, order)
    return poles, residues, ok


def _closed_form(moments: np.ndarray, order: int):
    """:func:`vector_poles_residues` plus a ``failed`` mask: the lanes on
    which the scalar fast path raises :class:`ApproximationError` (so
    :func:`~repro.awe.stability.rom_from_moments` moves on to the general
    ladder at the same order).  Lanes neither ``ok`` nor ``failed`` are
    ones whose scalar outcome the array form cannot vouch for."""
    if order == 1:
        m0, m1 = moments[0], moments[1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            p = m0 / m1
            r = -(m0 * m0) / m1
        ok = (m1 != 0.0) & np.isfinite(p) & np.isfinite(r)
        return (p[None, :].astype(complex), r[None, :].astype(complex), ok,
                m1 == 0.0)
    if order != 2:
        raise ApproximationError(
            f"vectorized closed form supports orders 1-2, got {order}")

    m0, m1, m2, m3 = moments[0], moments[1], moments[2], moments[3]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # conditioning scale a ~ dominant pole magnitude (as in the scalar path)
        safe = (m0 != 0.0) & (m1 != 0.0)
        a = np.where(safe, np.abs(m0 / np.where(m1 != 0.0, m1, 1.0)), 1.0)
        s0 = m0
        s1 = m1 * a
        s2 = m2 * a * a
        s3 = m3 * a * a * a
        det = s1 * s1 - s0 * s2
        detz = np.where(det != 0.0, det, 1.0)
        b1 = (s0 * s3 - s1 * s2) / detz
        b2 = (s2 * s2 - s1 * s3) / detz
        ok = (det != 0.0) & (b2 != 0.0) & np.isfinite(b1) & np.isfinite(b2)
        disc = b1 * b1 - 4.0 * b2
        root = np.sqrt(disc.astype(complex))
        b2z = np.where(b2 != 0.0, b2, 1.0)
        # branch A: complex roots (or b1 == 0) via the plain quadratic formula
        pa1 = (-b1 + root) / (2.0 * b2z)
        pa2 = (-b1 - root) / (2.0 * b2z)
        # branch B: numerically stable real roots via q = -(b1 + sign(b1) root)/2
        signed_root = np.where(b1 >= 0.0, root.real, -root.real)
        qv = -(b1 + signed_root) / 2.0
        qvz = np.where(qv != 0.0, qv, 1.0)
        pb1 = qv / b2z
        pb2 = 1.0 / qvz
        branch_a = (disc < 0.0) | (b1 == 0.0)
        p1 = np.where(branch_a, pa1, pb1)
        p2 = np.where(branch_a, pa2, pb2)
        ok &= branch_a | (qv != 0.0)
        ok &= np.isfinite(p1) & np.isfinite(p2) & (p1 != p2)
        p1z = np.where(p1 != 0.0, p1, 1.0)
        p2z = np.where(p2 != 0.0, p2, 1.0)
        u1 = 1.0 / p1z
        u2 = 1.0 / p2z
        vden = u1 * u2 * (u2 - u1)
        r1 = u2 * (s1 - s0 * u2) / vden
        r2 = u1 * (s0 * u1 - s1) / vden
        poles = np.stack([p1 * a, p2 * a])
        residues = np.stack([r1 * a, r2 * a])
    ok &= np.isfinite(residues).all(axis=0) & (p1 != 0.0) & (p2 != 0.0)
    failed = np.zeros_like(ok)
    if not ok.all():
        # the scalar raises, in order: singular Hankel, zero b2, then
        # (with a finite denominator, where both branch tests agree) a
        # zero q or repeated poles; NaN/inf intermediates raise nothing
        failed = (det == 0.0) | (b2 == 0.0)
        finite = np.isfinite(b1) & np.isfinite(b2)
        failed |= finite & ((~branch_a & (qv == 0.0)) | (p1 == p2))
    return poles, residues, ok, failed


# ----------------------------------------------------------------------
# vectorized general-order Padé (stacked Hankel + companion eigvals)
# ----------------------------------------------------------------------
def _pairwise_sum(rows: np.ndarray) -> np.ndarray:
    """Column sums of ``rows`` in the order numpy sums a 1-D array:
    sequential below 8 terms, eight interleaved accumulators up to 128,
    halving above — so a lane's sum is bit-identical to ``np.sum`` of
    that lane's values alone."""
    n = rows.shape[0]
    if n < 8:
        acc = rows[0]
        for row in rows[1:]:
            acc = acc + row
        return acc
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(rows[:half]) + _pairwise_sum(rows[half:])
    r = rows[:8].copy()
    i = 8
    while i < n - n % 8:
        r += rows[i:i + 8]
        i += 8
    acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in rows[i:]:
        acc = acc + row
    return acc


def _scaled_moments(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane :func:`~repro.awe.scaling.moment_scale` and
    :func:`~repro.awe.scaling.scale_moments`, bit for bit.

    Returns ``(s, a)``: the scaled moments ``s_k = m_k a^k`` and the scale
    ``a`` (the geometric mean of the lane's nonzero successive-moment
    ratios).  Each lane's ratios are packed to the front before summing,
    so the mean adds the same terms in the same order as the scalar path.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        valid = (m[:-1] != 0.0) & (m[1:] != 0.0)
        if valid.all():
            logs = np.log(np.abs(m[:-1] / m[1:]))
            a = np.exp(_pairwise_sum(logs) / len(logs))
        else:
            logs = np.log(np.abs(np.where(valid, m[:-1], 1.0)
                                 / np.where(valid, m[1:], 1.0)))
            logs = np.take_along_axis(
                logs, np.argsort(~valid, axis=0, kind="stable"), axis=0)
            count = valid.sum(axis=0)
            a = np.ones(m.shape[1])
            for k in np.unique(count[count > 0]):
                lanes = count == k
                a[lanes] = np.exp(_pairwise_sum(logs[:k, lanes]) / k)
        a = np.where(np.isfinite(a) & (a != 0.0), a, 1.0)
        # exponent along the inner loop, like the scalar ``a ** arange``
        powers = np.power(a[:, None], np.arange(m.shape[0], dtype=float))
        return m * powers.T, a


def _eigvals(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``eigvals`` plus a per-matrix success mask: when LAPACK
    fails to converge somewhere in the stack, halve it and retry, so only
    the failing matrices are lost."""
    try:
        return np.linalg.eigvals(stack), np.ones(len(stack), dtype=bool)
    except np.linalg.LinAlgError:
        if len(stack) == 1:
            return (np.zeros(stack.shape[:2], dtype=complex),
                    np.zeros(1, dtype=bool))
        half = len(stack) // 2
        lo, ok_lo = _eigvals(stack[:half])
        hi, ok_hi = _eigvals(stack[half:])
        return (np.concatenate([lo.astype(complex), hi.astype(complex)]),
                np.concatenate([ok_lo, ok_hi]))


def _solve(stack: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``solve`` plus a per-matrix singular mask.  When the stack
    raises, the exactly singular matrices are screened out on their own:
    ``slogdet``'s sign is 0 exactly where the LU factorization ``solve``
    runs hits a zero pivot, which is where ``solve`` raises.  Their rows
    of the solution are garbage."""
    try:
        return np.linalg.solve(stack, rhs), np.zeros(len(stack), dtype=bool)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(stack)[0] == 0
        stack = stack.copy()
        stack[singular] = np.eye(stack.shape[-1])
        return np.linalg.solve(stack, rhs), singular


def _pade_rung(s: np.ndarray, q: int):
    """One order-``q`` attempt of :func:`repro.awe.stability.stable_reduction`
    over scaled-moment lanes (columns of ``s``).

    Hankel solve for the denominator, roots via the companion matrix
    ``np.roots`` builds, residues from the moment/pole Vandermonde system
    — each lane with the same LAPACK calls the scalar path makes, so a
    lane raises where the scalar attempt raises, alone (:func:`_solve`,
    :func:`_eigvals`).

    Returns ``(poles, residues, ok, failed)`` in the scaled domain, shape
    ``(q, lanes)``.  ``failed`` marks lanes where the scalar attempt
    raises :class:`ApproximationError` (the ladder drops an order);
    lanes neither ``ok`` nor ``failed`` hit an outcome the stacked form
    does not reproduce (non-finite intermediates, a LAPACK convergence
    failure) and belong to the per-point path.
    """
    n = s.shape[1]
    eye = np.eye(q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Hankel solve for b1..bq: sum_j b_j s_{k-j} = -s_k, k = q..2q-1
        live = np.isfinite(s[:2 * q]).all(axis=0)
        A = s[np.arange(q - 1, 2 * q - 1)[:, None] - np.arange(q)]
        A = A.transpose(2, 0, 1)
        A[~live] = eye
        b, failed = _solve(A, -s[q:2 * q].T[:, :, None])
        b = b[:, :, 0]
        # a non-finite b or a zero b_q (np.roots then finds < q roots) raise
        live &= ~failed
        degenerate = live & ~(np.isfinite(b).all(axis=1) & (b[:, -1] != 0.0))
        failed |= degenerate
        live &= ~degenerate
        # roots of 1 + b1 s + ... + bq s^q via the np.roots companion
        # matrix: monic-normalized [b_q .. b_1, 1], subdiagonal ones
        comp = np.zeros((n, q, q))
        comp[:, np.arange(1, q), np.arange(q - 1)] = 1.0
        comp[:, 0, :q - 1] = -b[:, -2::-1]
        comp[:, 0, q - 1] = -1.0
        comp[:, 0, :] /= np.where(live, b[:, -1], 1.0)[:, None]
        live &= np.isfinite(comp[:, 0, :]).all(axis=1)
        comp[~live] = eye
        poles, converged = _eigvals(comp)
        live &= converged & np.isfinite(poles).all(axis=1)
        origin = live & (np.abs(poles) < 1e-300).any(axis=1)
        failed |= origin
        live &= ~origin
        # residues from the moment/pole Vandermonde system:
        # s_k = -sum_i r_i / p_i^(k+1), k = 0..q-1
        safe_p = np.where(live[:, None], poles, 1.0)
        V = -1.0 / safe_p[:, None, :] ** np.arange(1, q + 1)[None, :, None]
        live &= np.isfinite(V).all(axis=(1, 2))
        V[~live] = eye
        res, repeated = _solve(V, s[:q].T[:, :, None].astype(complex))
        res = res[:, :, 0]
        failed |= live & repeated
        ok = live & ~repeated & np.isfinite(res).all(axis=1)
    return poles.T.astype(complex), res.T, ok, failed


def vector_poles_residues_general(moments: np.ndarray, order: int,
                                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized general-order Padé: stacked Hankel solves plus batched
    companion-matrix eigenvalues.

    Array transcription of the order-``q`` attempt inside
    :func:`repro.awe.stability.stable_reduction` — moment-ratio
    conditioning scale, Hankel solve for the denominator, roots via the
    same companion matrix ``np.roots`` builds, residues from the
    moment/pole Vandermonde system, unscale by ``a`` (see
    :func:`_pade_rung`).

    Args:
        moments: ``(>= 2*order, n_points)`` float array (all rows enter
            the conditioning-scale estimate, as in the scalar path).
        order: number of poles ``q`` (any ``q >= 1``).

    Returns:
        ``(poles, residues, ok)`` with ``poles``/``residues`` of shape
        ``(order, n_points)`` complex.  ``ok`` is conservative: lanes
        with a degenerate denominator, a singular system, or any
        non-finite intermediate are left to the caller.  Stacked LAPACK
        calls match the per-point ones lane by lane, but batched powers
        and complex promotion may round residues differently from
        ``np.roots`` / per-point solves, so ``ok`` points agree with the
        scalar path to the ``ToleranceLadder.exact`` band rather than
        bit-for-bit (``docs/runtime.md`` documents this carve-out).
    """
    q = int(order)
    if q < 1 or moments.shape[0] < 2 * q:
        raise ApproximationError(
            f"order {q} Padé needs {2 * q} moments, got {moments.shape[0]}")
    s, a = _scaled_moments(moments)
    poles, residues, ok, _failed = _pade_rung(s, q)
    return poles * a, residues * a, ok


class _Settled(NamedTuple):
    """Lanes the Padé ladder settled at one final order ``q``, having
    dropped ``order - q`` orders on the way (as the scalar ladder does)."""

    lanes: np.ndarray      # chunk-local point indices
    poles: np.ndarray      # (q, lanes) complex
    residues: np.ndarray   # (q, lanes) complex


def _pade_ladder(moments: np.ndarray, order: int, require_stable: bool,
                 alive: np.ndarray) -> tuple[dict, np.ndarray]:
    """Batched, lockstep :func:`~repro.awe.stability.rom_from_moments`.

    Orders 1-2 first try the closed form (:func:`_closed_form`).  Every
    lane it does not settle — and every lane at higher orders — then
    climbs down the general ladder together: the lanes still pending
    retry at ``q``, ``q-1``, ... ``1`` (:func:`_pade_rung`), each rung
    settling the lanes that produce a (stable, when required) model and
    dropping the rest an order, exactly as the scalar ladder does.

    Returns ``(settled, residual)``: ``{final order: _Settled}`` and the
    sorted indices of lanes no rung settled — exhausted ladders (the
    scalar raises "no stable Padé reduction") and lanes whose outcome
    the stacked form does not reproduce.  Those go through the exact
    per-point path.
    """
    blocks: dict[int, list[_Settled]] = {}
    residual = []

    def settle(q, lanes, poles, residues):
        if len(lanes):
            blocks.setdefault(q, []).append(_Settled(lanes, poles, residues))

    n_alive = np.count_nonzero(alive)
    if order <= 2 and n_alive:
        head = moments[:2 * order]
        poles, residues, ok, failed = _closed_form(
            head if n_alive == len(alive) else head[:, alive], order)
        # lane indices only now, past the closed form's peak memory
        lanes = np.flatnonzero(alive)
        keep = ok
        if require_stable:
            keep = ok & np.all(poles.real < 0.0, axis=0)
        if keep.all():
            settle(order, lanes, poles, residues)
            lanes = lanes[:0]
        else:
            settle(order, lanes[keep], poles[:, keep], residues[:, keep])
            residual.append(lanes[~ok & ~failed])
            lanes = lanes[~keep & (ok | failed)]
    else:
        lanes = np.flatnonzero(alive)
    if len(lanes):
        s, a = _scaled_moments(moments[:, lanes])
        for q in range(order, 0, -1):
            if not len(lanes):
                break
            poles, residues, ok, failed = _pade_rung(s, q)
            poles, residues = poles * a, residues * a
            keep = ok
            if require_stable:
                keep = ok & np.all(poles.real < 0.0, axis=0)
            settle(q, lanes[keep], poles[:, keep], residues[:, keep])
            residual.append(lanes[~ok & ~failed])
            drop = ~keep & (ok | failed)
            lanes, s, a = lanes[drop], s[:, drop], a[drop]
        residual.append(lanes)
    settled = {q: parts[0] if len(parts) == 1 else _Settled(
                   *(np.concatenate(f, axis=-1) for f in zip(*parts)))
               for q, parts in blocks.items()}
    residual = (np.sort(np.concatenate(residual)) if residual
                else np.empty(0, dtype=int))
    return settled, residual


# ----------------------------------------------------------------------
# sweep core
# ----------------------------------------------------------------------
_SINGULAR_MSG = "global symbolic system singular at this point"

_FUSED_UNSET = object()


def _fused_companion(cm):
    """The fused (schema-2) twin of a compiled moment program, or ``None``.

    A fused tape evaluates every moment *and* the determinant unscaling
    in one register-machine pass (:func:`repro.symbolic.tape.fuse_moments`),
    so a chunk costs one kernel dispatch instead of one per output plus a
    numpy division ladder.  The fused function is derived lazily from the
    program's own tape and cached on the :class:`CompiledFunction`; when
    no tape can be built (e.g. a program lowered from source without
    expression roots) the sweep keeps the unfused path.
    """
    fn = cm.fn
    cached = getattr(fn, "_fused_fn", _FUSED_UNSET)
    if cached is not _FUSED_UNSET:
        return cached
    if getattr(fn, "moments_fused", False):
        fn._fused_fn = fn
        return fn
    fused = None
    try:
        from ..symbolic.tape import fuse_moments, tape_for
        fused = fuse_moments(tape_for(fn)).build_function()
    except Exception as exc:
        logger.info("fused moment tape unavailable (%s); sweeping with "
                    "per-output evaluation", exc)
        fused = None
    fn._fused_fn = fused
    return fused


def _chunk_moments(model, columns: Sequence, n_points: int,
                   stats: RuntimeStats, diag: SweepDiagnostics,
                   offset: int, kernel: str | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Run the compiled moment program once over a flattened chunk.

    Returns ``(moments, singular)`` where ``singular`` marks points whose
    symbolic system determinant is exactly zero.  In strict mode any such
    point raises :class:`PartitionError` (the pre-quarantine behavior);
    in lenient mode those points are quarantined with stage ``"moments"``
    and their moment columns are NaN.

    When a fused tape is available the whole slab (moments + det) comes
    from one pass; its unscaling ladder performs exactly the same IEEE
    operations as the numpy ladder below, so non-singular columns are
    bit-identical either way (singular columns are NaN-masked in both).
    """
    cm = model.compiled_moments
    fused_fn = _fused_companion(cm)
    with stats.stage("evaluate"):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            moments = det = None
            if fused_fn is not None:
                try:
                    raw = [np.broadcast_to(np.asarray(v, dtype=float),
                                           (n_points,))
                           for v in fused_fn.eval_batch(columns, n_points,
                                                        kernel=kernel)]
                except ZeroDivisionError:
                    # all-scalar (no-grid) chunks evaluate in pure Python,
                    # where a zero determinant raises instead of yielding
                    # inf/NaN; the unfused ladder below handles it
                    raw = None
                if raw is not None:
                    det = raw[-1]
                    moments = np.empty((len(raw) - 1, n_points))
                    for k in range(len(raw) - 1):
                        moments[k] = raw[k]
            if moments is None:
                raw = [np.broadcast_to(np.asarray(v, dtype=float),
                                       (n_points,))
                       for v in cm.fn.eval_batch(columns, n_points,
                                                 kernel=kernel)]
                det = raw[-1]
            singular = det == 0.0
            if singular.any():
                if diag.strict:
                    raise PartitionError(_SINGULAR_MSG)
                for i in np.flatnonzero(singular):
                    diag.quarantine(QuarantinedPoint(
                        index=offset + int(i), stage="moments",
                        error="PartitionError", message=_SINGULAR_MSG))
            if moments is None:
                safe_det = np.where(singular, np.nan, det)
                moments = np.empty((len(raw) - 1, n_points))
                scale = safe_det.copy()
                for k in range(len(raw) - 1):
                    moments[k] = raw[k] / scale
                    if k < len(raw) - 2:
                        scale = scale * safe_det
            elif singular.any():
                moments[:, singular] = np.nan
    diag.y0_det_abs.add(np.abs(det))
    if _faults.ACTIVE is not None:
        _faults.fault_point("sweep.moments", moments=moments, offset=offset)
    return moments, singular


def _hankel_cond2(moments: np.ndarray) -> np.ndarray:
    """Per-point condition number of the scaled 2x2 Hankel system.

    Closed form for a 2x2 matrix ``[[s1, s0], [s2, s1]]`` from its
    Frobenius norm and determinant (``σ1 σ2 = |det|``,
    ``σ1² + σ2² = ‖A‖_F²``) — the early-warning signal the diagnostics
    report summarizes across the grid.
    """
    m0, m1, m2 = moments[0], moments[1], moments[2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        safe = (m0 != 0.0) & (m1 != 0.0)
        a = np.where(safe, np.abs(m0 / np.where(m1 != 0.0, m1, 1.0)), 1.0)
        s0, s1, s2 = m0, m1 * a, m2 * a * a
        frob = s0 * s0 + 2.0 * s1 * s1 + s2 * s2
        absdet = np.abs(s1 * s1 - s0 * s2)
        root = np.sqrt(np.maximum(frob * frob - 4.0 * absdet * absdet, 0.0))
        sigma2_sq = (frob - root) / 2.0
        cond = np.sqrt((frob + root) / np.where(sigma2_sq > 0.0,
                                                sigma2_sq, np.nan))
        return np.where(sigma2_sq > 0.0, cond, np.inf)


def _chunk_health(moments: np.ndarray, order: int,
                  diag: SweepDiagnostics) -> None:
    """Record moment-decay and Hankel-condition summaries for a chunk."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        diag.moment_decay.add(np.abs(moments[0] / moments[1]))
    if order == 2 and moments.shape[0] >= 3:
        diag.hankel_condition.add(_hankel_cond2(moments))


def _sweep_chunk(model, columns: Sequence, n_points: int,
                 metric: Callable[[ReducedOrderModel], float], order: int,
                 require_stable: bool, offset: int = 0,
                 diag: SweepDiagnostics | None = None,
                 kernel: str | None = None,
                 ) -> tuple[np.ndarray, RuntimeStats, SweepDiagnostics]:
    """Evaluate one flattened chunk.

    Returns ``(values, partial stats, partial diagnostics)``; quarantine
    indices inside the diagnostics are global (``offset`` + local).
    """
    stats = RuntimeStats()
    diag = diag if diag is not None else SweepDiagnostics()
    out = np.full(n_points, np.nan, dtype=complex)
    if n_points == 0:
        return out, stats, diag
    moments, singular = _chunk_moments(model, columns, n_points, stats,
                                       diag, offset, kernel=kernel)
    _chunk_health(moments, order, diag)

    with stats.stage("pade"):
        settled, residual = _pade_ladder(moments, order, require_stable,
                                         ~singular)
    with stats.stage("metric"):
        vectorized = VECTOR_METRICS.get(metric)
        for q, block in settled.items():
            if vectorized is not None:
                out[block.lanes] = vectorized(block.poles, block.residues)
                continue
            for j, i in enumerate(block.lanes):
                rom = ReducedOrderModel(
                    block.poles[:, j], block.residues[:, j],
                    order_requested=order, dropped_unstable=order - q)
                try:
                    out[i] = metric(rom)  # NaN stays, like the legacy sweep
                except ApproximationError as exc:
                    diag.quarantine_error(offset + int(i), "metric", exc)
    for q, block in settled.items():
        stats.vectorized_points += len(block.lanes)
        if q < order:
            diag.record_drop(order - q, len(block.lanes))
            record_dropped_orders((order - q) * len(block.lanes))

    if len(residual):
        _residual_lanes(moments, residual, out, metric, order,
                        require_stable, offset, stats, diag)
    stats.points += n_points
    diag.points += n_points
    return out, stats, diag


def _residual_lanes(moments, residual, out, metric, order, require_stable,
                    offset, stats, diag) -> None:
    """The lanes no ladder rung settled, through the exact per-point path,
    which quarantines them (or reproduces what the stacked form cannot)."""
    roms = []
    with stats.stage("pade"):
        for i in residual:
            try:
                rom = rom_from_moments(moments[:, i], order,
                                       require_stable=require_stable)
            except ApproximationError as exc:
                diag.quarantine_error(offset + int(i), "pade", exc)
                continue
            diag.record_drop(rom.dropped_unstable)
            roms.append((i, rom))
    with stats.stage("metric"):
        for i, rom in roms:
            try:
                out[i] = metric(rom)
            except ApproximationError as exc:
                diag.quarantine_error(offset + int(i), "metric", exc)
    stats.fallback_points += len(residual)


def _collapse_dtype(out: np.ndarray) -> np.ndarray:
    """Return a float array when every value is real (NaN counts as real),
    keeping complex only when the metric genuinely produced complex values."""
    imag = out.imag
    if np.all((imag == 0.0) | np.isnan(imag)):
        # .copy() rather than ascontiguousarray: the latter promotes 0-d
        # (no-grid) results to shape (1,)
        return out.real.copy()
    return out


def _resolve_sharding(n_points: int, shards: int | None,
                      max_workers: int | None) -> tuple[int, int]:
    if max_workers:
        workers = max(1, int(max_workers))
    elif shards is not None and int(shards) > 1:
        # a multi-shard sweep with no explicit worker count should
        # actually run its shards in parallel, up to the machine's cores
        workers = min(int(shards), os.cpu_count() or 1)
    else:
        workers = 1
    if shards is None:
        n_shards = workers
    else:
        n_shards = max(1, int(shards))
    n_shards = max(1, min(n_shards, n_points)) if n_points else 1
    return n_shards, min(workers, n_shards)


def batched_sweep(model, grids: Mapping[str, np.ndarray],
                  metric: Callable[[ReducedOrderModel], float],
                  order: int | None = None,
                  require_stable: bool = True,
                  shards: int | None = None,
                  max_workers: int | None = None,
                  stats: RuntimeStats | None = None,
                  strict: bool = False,
                  resilience: ResilienceConfig | None = None,
                  backend: str | None = None,
                  paired: bool = False,
                  cancel: CancelToken | None = None,
                  chunk_points: int | None = None) -> SweepResult:
    """Evaluate ``metric`` over the cartesian product of element-value grids.

    Drop-in vectorized replacement for the per-point
    :meth:`CompiledAWEModel.sweep` loop: same arguments, same output
    (including NaN placement at degenerate Padé points), orders of
    magnitude faster on large grids.

    Failure semantics (see ``docs/robustness.md``): in lenient mode (the
    default) a point whose moment evaluation, Padé reduction, or metric
    raises a library error yields NaN and a structured quarantine record
    in the returned diagnostics; the sweep always completes.  In strict
    mode the first such failure raises.  Shards that crash or hang are
    retried with backoff and fall back to in-process serial execution,
    preserving the order-preserving splice (sharded == serial on all
    surviving points).

    Args:
        model: a :class:`~repro.core.compiled_model.CompiledAWEModel` or
            deserialized :class:`~repro.core.serialize.LoadedModel`.
        grids: ``{element_name: 1-D value array}``; output has one axis
            per grid in the given order.
        metric: scalar metric of a reduced-order model.  Metrics listed
            in :data:`VECTOR_METRICS` evaluate as one array expression.
        order: Padé order (default: the model's compiled order).
        require_stable: demand stable poles (unstable lanes drop orders
            on the batched Padé ladder, like the scalar path).
        shards: number of contiguous grid chunks (default: one per worker).
        max_workers: worker-pool width for shard execution (default:
            ``min(shards, os.cpu_count())`` when sharding was requested,
            else 1).
        backend: where shard attempts run — ``"serial"``, ``"thread"``,
            ``"process"``, or ``"auto"``/``None`` (thread pool when more
            than one worker, else serial).  The process backend ships
            the compiled program to spawned workers and moves bulk
            arrays through shared memory; results are bit-identical
            across backends (see :mod:`repro.runtime.backends`).
        stats: optional :class:`RuntimeStats` to fill with per-stage cost.
        strict: raise on the first quarantined point instead of degrading
            to NaN.
        resilience: shard retry/timeout/backoff policy (default
            :data:`~repro.runtime.resilience.DEFAULT_RESILIENCE`).
        paired: treat ``grids`` as equal-length *joint sample* columns
            (Monte Carlo / corner scenarios) instead of cartesian axes;
            the output is 1-D with one entry per sample
            (see :func:`sample_columns`).
        cancel: cooperative cancellation token (deadline, SIGINT,
            service shutdown).  A fired token *drains* the sweep: shards
            already finished keep their results, everything else
            NaN-fills with resolution ``"cancelled"`` and
            ``diagnostics.cancelled`` is set — the sweep returns
            normally rather than raising, so partial results and the
            diagnostics report survive the interruption.
        chunk_points: cancellation granularity — each shard evaluates
            its range in sub-chunks of at most this many points and
            checks its token between them (default
            :data:`CANCEL_CHUNK_POINTS` when a token is in play, one
            single chunk otherwise, which is bit-identical to the
            pre-cancellation behavior).

    Returns:
        A :class:`~repro.diagnostics.SweepResult` — a plain ndarray with
        one axis per grid (``float`` dtype, or ``complex`` when the
        metric returns complex values) plus a ``diagnostics`` attribute
        carrying the :class:`~repro.diagnostics.SweepDiagnostics` report.

    Raises:
        ApproximationError: unknown grid name, order exceeding the
            compiled moment count, or (strict mode) a failing point.
        PartitionError: (strict mode) the symbolic system is singular at
            a grid point.
    """
    stats = stats if stats is not None else RuntimeStats()
    config = resilience if resilience is not None else DEFAULT_RESILIENCE
    if strict:
        config = config.with_strict(True)
    diagnostics = SweepDiagnostics(strict=config.strict)
    with stats.stage("total"):
        q = model.order if order is None else int(order)
        n_moments = model.compiled_moments.order + 1
        if 2 * q > n_moments:
            raise ApproximationError(
                f"model compiled with {n_moments} moments; "
                f"order {q} needs {2 * q}")
        if paired:
            names, shape, columns = sample_columns(model, grids)
        else:
            names, shape, columns = grid_columns(model, grids)
        n_points = int(math.prod(shape))
        stats.n_ops = model.compiled_moments.n_ops
        stats.compile_seconds = getattr(model, "compile_seconds", 0.0)

        n_shards, workers = _resolve_sharding(n_points, shards, max_workers)
        backend_name = resolve_backend(backend, workers)
        if backend_name == "serial":
            workers = 1
        # the native backend evaluates moments through the compiled
        # (C / numba) tape kernel; shard topology is in-process like
        # serial/thread, and eval_batch degrades to the ufunc kernel
        # (with a logged warning) when no native kernel can be built
        kernel_hint = "native" if backend_name == "native" else None
        stats.backend = backend_name
        stats.shards = n_shards
        stats.workers = workers
        bounds = np.linspace(0, n_points, n_shards + 1, dtype=int)

        # worker threads have no span stack of their own; adopt the
        # sweep.total span as logical parent so shards nest in the trace
        tracer = _trace.current_tracer()
        parent_ctx = tracer.context() if tracer is not None else None
        sweep_cancel = cancel

        if n_points and VECTOR_METRICS.get(metric) is None:
            # a VECTOR_METRICS miss drops the metric stage to per-point
            # model objects (~100x slower); surface it once per sweep so
            # profile output shows *why* the sweep was slow
            metric_name = getattr(metric, "__name__", repr(metric))
            _obs_metrics.registry().counter(
                "repro_sweep_scalar_metric_fallback",
                "sweeps whose metric had no vectorized implementation",
            ).inc()
            if tracer is not None:
                with tracer.span("sweep.scalar_metric_fallback",
                                 metric=metric_name):
                    pass
            logger.info("metric %s has no VECTOR_METRICS entry; the metric "
                        "stage runs per point", metric_name)

        def eval_range(lo: int, hi: int,
                       token: CancelToken | None, shard: int = 0,
                       ) -> tuple[np.ndarray, RuntimeStats, SweepDiagnostics]:
            """Evaluate ``[lo, hi)`` in cancellable sub-chunks.

            With no token the whole range is one chunk — the exact
            pre-cancellation code path.  With a token the range splits
            at ``chunk_points`` boundaries and the token is observed
            between chunks, bounding post-cancel work to one chunk.

            Drain keeps *chunk* granularity: a token firing mid-range
            keeps every chunk already evaluated, NaN-fills the tail,
            and records the drained slice as a ``"cancelled"`` shard
            incident.  Only a token that fired before the first chunk
            raises (whole-shard drain, handled by the resilience
            layer).
            """
            step = max(1, hi - lo)  # hi == lo: range(lo, hi, 0) raises
            if token is not None:
                step = max(1, int(chunk_points if chunk_points is not None
                                  else CANCEL_CHUNK_POINTS))
            values_parts: list[np.ndarray] = []
            acc_stats: RuntimeStats | None = None
            acc_diag: SweepDiagnostics | None = None
            for a in range(lo, hi, step):
                if token is not None and token.cancelled:
                    if not values_parts:
                        token.raise_if_cancelled("shard")
                    # keep finished chunks, drain the rest of the range
                    values_parts.append(
                        np.full(hi - a, np.nan, dtype=complex))
                    acc_diag.shard_failures.append(ShardFailure(
                        shard=shard, lo=int(a), hi=int(hi), attempts=1,
                        error="CancelledSweep", message=token.reason,
                        resolution="cancelled"))
                    break
                b = min(a + step, hi)
                cols = [c[a:b] if isinstance(c, np.ndarray) else c
                        for c in columns]
                values, part_stats, part_diag = _sweep_chunk(
                    model, cols, b - a, metric, q, require_stable,
                    offset=int(a),
                    diag=SweepDiagnostics(strict=config.strict),
                    kernel=kernel_hint)
                values_parts.append(values)
                if acc_stats is None:
                    acc_stats, acc_diag = part_stats, part_diag
                else:
                    acc_stats.merge(part_stats)
                    acc_diag.merge(part_diag)
            if acc_stats is None:  # empty range
                return (np.empty(0, dtype=complex), RuntimeStats(),
                        SweepDiagnostics(strict=config.strict))
            values = (values_parts[0] if len(values_parts) == 1
                      else np.concatenate(values_parts))
            return values, acc_stats, acc_diag

        def run_shard(lo: int, hi: int, shard: int = 0, attempt: int = 0,
                      cancel: CancelToken | None = None,
                      ) -> tuple[np.ndarray, RuntimeStats, SweepDiagnostics]:
            if _faults.ACTIVE is not None:
                _faults.fault_point("sweep.shard", shard=shard,
                                    attempt=attempt, lo=int(lo), hi=int(hi))
            token = cancel if cancel is not None else sweep_cancel
            t0 = time.perf_counter()
            if tracer is None:
                result = eval_range(int(lo), int(hi), token, shard)
            else:
                with tracer.attach(parent_ctx), \
                        tracer.span("sweep.shard", shard=shard,
                                    attempt=attempt, lo=int(lo), hi=int(hi)):
                    result = eval_range(int(lo), int(hi), token, shard)
            busy_key = ("main"
                        if threading.current_thread() is threading.main_thread()
                        else f"thread-{threading.get_ident()}")
            partial = result[1]
            partial.worker_busy[busy_key] = (
                partial.worker_busy.get(busy_key, 0.0)
                + time.perf_counter() - t0)
            return result

        if backend_name == "process" and n_points:
            runner = ProcessShardRunner(model, columns, n_points, metric,
                                        q, require_stable, config.strict,
                                        workers, n_shards=len(bounds) - 1)
            stats.spawn_seconds = runner.spawn_seconds
            try:
                results = run_shards(run_shard, bounds, workers=workers,
                                     config=config, diagnostics=diagnostics,
                                     executor=runner.pool,
                                     submit=runner.submit, cancel=cancel)
                results = [runner.normalize(r) for r in results]
            finally:
                runner.close()
        else:
            results = run_shards(run_shard, bounds, workers=workers,
                                 config=config, diagnostics=diagnostics,
                                 cancel=cancel)

        parts = []
        for (lo, hi), result in zip(zip(bounds[:-1], bounds[1:]), results):
            if result is None:  # abandoned shard: NaN slice, recorded above
                parts.append(np.full(int(hi - lo), np.nan, dtype=complex))
                continue
            values, partial, chunk_diag = result
            parts.append(values)
            stats.merge(partial)
            diagnostics.merge(chunk_diag)
        out = np.concatenate(parts) if parts else np.empty(0, dtype=complex)

        stats.shards = n_shards
        stats.workers = workers
        stats.nan_points = int(np.isnan(out.real).sum())
        stats.quarantined_points = len(diagnostics.quarantined)
        diagnostics.cancelled = bool(
            (cancel is not None and cancel.cancelled)
            or any(f.resolution == "cancelled"
                   for f in diagnostics.shard_failures))
        _finalize_diagnostics(diagnostics, grids, names, shape, out,
                              paired=paired)
        out = _collapse_dtype(out.reshape(shape))
    stats.publish()
    diagnostics.publish()
    return SweepResult(out, diagnostics)


def _finalize_diagnostics(diagnostics: SweepDiagnostics,
                          grids: Mapping[str, np.ndarray],
                          names: Sequence[str], shape: tuple[int, ...],
                          flat_out: np.ndarray,
                          paired: bool = False) -> None:
    """Fill grid coordinates and totals once all shards are spliced."""
    diagnostics.points = int(flat_out.size)
    diagnostics.nan_points = int(np.isnan(flat_out.real).sum())
    axes = [np.asarray(grids[n], dtype=float).reshape(-1) for n in names]
    for point in diagnostics.quarantined:
        if not shape:
            continue
        if paired:
            # one flat sample index addresses every column
            point.grid_index = (int(point.index),)
            point.values = {n: float(a[point.index])
                            for n, a in zip(names, axes)}
        else:
            point.grid_index = tuple(
                int(i) for i in np.unravel_index(point.index, shape))
            point.values = {n: float(a[i]) for n, a, i
                            in zip(names, axes, point.grid_index)}
    diagnostics.quarantined.sort(key=lambda p: p.index)
