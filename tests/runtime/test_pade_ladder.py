"""The batched Padé ladder against the per-point reduction, lane by lane.

:func:`repro.runtime.batched._pade_ladder` runs the stable-order ladder
of :func:`repro.awe.stability.rom_from_moments` over a whole chunk in
lockstep.  Its contract is the per-point path's answer on every lane:
the same final order and orders dropped, poles and residues equal as
multisets to the exact tier, and the same NaN / quarantine placement.
Moments come from known pole/residue sets
(:func:`repro.awe.pade.moments_from_poles`), stable and unstable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.awe.pade import moments_from_poles
from repro.awe.stability import rom_from_moments
from repro.core import metrics
from repro.errors import ApproximationError
from repro.obs import metrics as obs_metrics
from repro.runtime.batched import _pade_ladder, _sweep_chunk
from repro.testing.differential import ToleranceLadder

EXACT = ToleranceLadder().exact


def _dropped_total() -> float:
    return obs_metrics.registry().counter(
        "repro_pade_dropped_orders_total").value


class _MomentRows:
    """A fused moment program that returns fixed moment rows (and a unit
    determinant), so :func:`_sweep_chunk` runs on chosen moments."""

    moments_fused = True

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows

    def eval_batch(self, columns, n_points, kernel=None):
        return [*self.rows, np.ones(n_points)]


class _FixedMomentsModel:
    def __init__(self, rows: np.ndarray) -> None:
        self.compiled_moments = type("CM", (), {"fn": _MomentRows(rows)})()


def _term(draw):
    """One real pole or one conjugate pair, stable or not."""
    mag = 10.0 ** draw(st.floats(-2.0, 2.0))
    sign = 1.0 if draw(st.booleans()) and draw(st.booleans()) else -1.0
    res = draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([1.0, -1.0]))
    if draw(st.booleans()):
        return [sign * mag], [res]
    angle = draw(st.floats(0.05, 1.5))
    p = mag * complex(sign * np.cos(angle), np.sin(angle))
    r = complex(res, draw(st.floats(-10.0, 10.0)))
    return [p, p.conjugate()], [r, r.conjugate()]


@st.composite
def lane_moments(draw, count: int):
    kind = draw(st.sampled_from(["poles"] * 6 + ["alternating", "zeros",
                                                 "nan"]))
    if kind == "alternating":
        # one pole at -1: every Hankel above order 1 is exactly singular
        return (-1.0) ** np.arange(count)
    if kind == "zeros":
        return np.zeros(count)
    if kind == "nan":
        return np.full(count, np.nan)
    poles, residues = [], []
    for _ in range(draw(st.integers(1, 3))):
        p, r = _term(draw)
        poles += p
        residues += r
    m = moments_from_poles(np.array(poles, dtype=complex),
                           np.array(residues, dtype=complex), count)
    return np.real(m).astype(float)


@st.composite
def chunks(draw):
    order = draw(st.integers(1, 4))
    count = 2 * order + draw(st.integers(0, 2))
    lanes = draw(st.lists(lane_moments(count), min_size=1, max_size=12))
    return order, np.stack(lanes, axis=1)


def _oracle(column: np.ndarray, order: int, require_stable: bool):
    try:
        return rom_from_moments(column, order, require_stable=require_stable)
    except ApproximationError:
        return None


def _assert_same_multiset(got_p, got_r, want_p, want_r):
    """Poles (and their residues) equal as multisets, to the exact tier."""
    p_scale = np.abs(want_p).max()
    r_scale = max(np.abs(want_r).max(), np.finfo(float).tiny)
    unused = list(range(len(got_p)))
    for p, r in zip(want_p, want_r):
        j = min(unused, key=lambda k: abs(got_p[k] - p))
        unused.remove(j)
        assert abs(got_p[j] - p) <= EXACT * p_scale
        assert abs(got_r[j] - r) <= EXACT * r_scale


@settings(max_examples=300)
@given(chunk=chunks(), require_stable=st.booleans())
def test_ladder_matches_rom_from_moments(chunk, require_stable):
    order, moments = chunk
    n = moments.shape[1]
    oracle = [_oracle(moments[:, i], order, require_stable) for i in range(n)]

    settled, residual = _pade_ladder(moments, order, require_stable,
                                     np.ones(n, dtype=bool))
    seen = set(residual.tolist())
    for q, block in settled.items():
        for j, i in enumerate(block.lanes):
            seen.add(int(i))
            rom = oracle[i]
            assert rom is not None, f"lane {i}: settled, oracle raises"
            assert rom.order == q
            assert rom.dropped_unstable == order - q
            _assert_same_multiset(block.poles[:, j], block.residues[:, j],
                                  rom.poles, rom.residues)
    assert seen == set(range(n))
    for i in range(n):
        # only lanes the per-point path rejects (or cannot be fed finite
        # moments) are left to it
        if oracle[i] is None:
            assert i in residual
        elif np.isfinite(moments[:, i]).all():
            assert i not in residual, f"lane {i}: settled per point only"

    before = _dropped_total()
    values, stats, diag = _sweep_chunk(
        _FixedMomentsModel(moments), [], n, metrics.dominant_pole_hz, order,
        require_stable)
    assert _dropped_total() - before == sum(
        rom.dropped_unstable for rom in oracle if rom is not None)
    want = np.array([np.nan if rom is None else metrics.dominant_pole_hz(rom)
                     for rom in oracle])
    np.testing.assert_array_equal(np.isnan(values.real), np.isnan(want))
    np.testing.assert_allclose(values.real, want, rtol=EXACT, equal_nan=True)
    assert sorted(p.index for p in diag.quarantined) == \
        [i for i in range(n) if oracle[i] is None]
    assert all(p.stage == "pade" for p in diag.quarantined)
    drops: dict[int, int] = {}
    for rom in oracle:
        if rom is not None and rom.dropped_unstable:
            drops[rom.dropped_unstable] = drops.get(rom.dropped_unstable,
                                                    0) + 1
    assert diag.dropped_orders == drops
    assert stats.vectorized_points + stats.fallback_points == n
    assert stats.fallback_points == len(residual)


@pytest.mark.parametrize("order", [3, 4])
def test_singular_lane_stays_on_its_own(order):
    """One exactly singular Hankel lane no longer sends the chunk per
    point: it drops to order 1 alone, every other lane stays batched."""
    rng = np.random.default_rng(order)
    count = 2 * order
    lanes = []
    for _ in range(63):
        poles = -10.0 ** rng.uniform(-1.0, 1.0, order)
        residues = rng.uniform(0.5, 2.0, order)
        lanes.append(moments_from_poles(poles, residues, count))
    lanes.insert(17, (-1.0) ** np.arange(count))
    moments = np.stack(lanes, axis=1).astype(float)

    values, stats, diag = _sweep_chunk(
        _FixedMomentsModel(moments), [], 64, metrics.dominant_pole_hz, order,
        True)
    assert stats.fallback_points <= 1
    assert stats.vectorized_points >= 63
    assert not diag.quarantined
    rom = rom_from_moments(moments[:, 17], order)
    assert rom.order == 1 and rom.dropped_unstable == order - 1
    assert diag.dropped_orders.get(order - 1, 0) >= 1
    assert values[17].real == metrics.dominant_pole_hz(rom)
