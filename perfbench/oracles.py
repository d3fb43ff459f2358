"""Output checks: the per-point oracle and numeric AWE.

Two references, both independent of the batched runtime:

* the **per-point oracle** — ``model.rom(values, order)`` plus the
  scalar metric, the path the batched runtime is documented to
  reproduce;
* **numeric AWE** — ``Circuit.replace_value`` on a copy of the circuit
  and :func:`repro.awe.awe`, the paper's reference analysis.

Any disagreement beyond the rules below raises
:class:`common.CheckFailed`, and the run exits non-zero without
printing a number.
"""

from __future__ import annotations

import importlib

import numpy as np

from common import EXACT_RTOL, check

#: order <= 2 tolerance against the per-point oracle: the differential
#: suite's (tests/runtime/test_differential.py).  The batched path is
#: documented as equal to the oracle at these orders, but today the
#: crossing metrics refine with a batched bisection instead of Brent
#: and some lanes land an ulp away; every point that is not
#: bit-identical is counted in ``oracle.inexact_points``.
O2_RTOL = 1e-9

#: a pole whose residue is this small relative to the largest one
#: nearly cancels a zero: its position is not fixed by the moments
CANCELLING_RESIDUE = 1e-6


def metric_fn(name: str):
    return getattr(importlib.import_module("repro.core.metrics"), name)


class Tally:
    """What the checks saw, reported as ``oracle.*`` / ``awe.*``.

    ``perturb`` offsets every reference value; the self-test sets it
    (``--perturb-oracle``) to prove that a wrong output fails the run.
    """

    def __init__(self, perturb: float = 0.0) -> None:
        self.perturb = perturb
        self.points = 0
        self.inexact = 0
        self.illposed = 0
        self.awe_points = 0
        self.far_pole_dev = 0.0


def oracle_value(model, values: dict, order: int, metric: str):
    """``(value, rom)`` from the per-point path; NaN where it
    quarantines (raises a library error), like the sweep does."""
    from repro.errors import ApproximationError, PartitionError
    try:
        rom = model.rom(values, order=order)
    except (ApproximationError, PartitionError):
        return float("nan"), None
    try:
        return float(metric_fn(metric)(rom)), rom
    except ApproximationError:
        return float("nan"), rom


def _illposed(rom) -> bool:
    """The oracle's answer is not pinned by the moments: it dropped an
    order for stability, or holds a nearly cancelling pole/zero pair."""
    if rom is None or rom.dropped_unstable > 0:
        return True
    mags = np.abs(np.asarray(rom.residues))
    return bool(mags.min() < CANCELLING_RESIDUE * mags.max())


def compare(tally: Tally, got: float, model, values: dict, order: int,
            metric: str, where: str) -> None:
    """Check one batched / served value against the per-point oracle.

    Orders <= 2 are held to :data:`O2_RTOL`.  Above order 2 the batched
    Padé reorders reductions and is held to the exact tier, except on lanes
    where the oracle itself is ill-posed (see :func:`_illposed`); those
    lanes are counted in ``oracle.illposed_points`` instead — the
    stable-order-drop ladder that would make them agree is an open
    item.  NaN placement must match everywhere.
    """
    want, rom = oracle_value(model, values, order, metric)
    want *= 1.0 + tally.perturb
    tally.points += 1
    got = float(got)
    check(np.isnan(got) == np.isnan(want),
          f"{where}: NaN placement differs (got {got!r}, oracle {want!r})")
    if np.isnan(want) or got == want:
        return
    tally.inexact += 1
    err = abs(got - want)
    if order <= 2:
        check(err <= O2_RTOL * abs(want),
              f"{where}: {metric} order {order} got {got!r}, oracle "
              f"{want!r} (rtol {O2_RTOL})")
    elif err > EXACT_RTOL * abs(want):
        check(_illposed(rom),
              f"{where}: {metric} order {order} got {got!r}, oracle "
              f"{want!r} outside the exact tier on a well-posed lane")
        tally.illposed += 1


def compiled_side(model, values: dict, order: int) -> tuple:
    """What :func:`numeric_awe` compares, without holding the model:
    the first ``2 * order`` compiled moments and the compiled reduction's
    poles and residues (arrays, which the garbage collector skips)."""
    rom = model.rom(values, order=order)
    moments = np.asarray(model.moments_at(values), dtype=float)
    return moments[:2 * order], rom.poles, rom.residues


def numeric_awe(tally: Tally, compiled: tuple, circuit, output: str,
                values: dict, order: int, where: str) -> None:
    """Compiled model (``compiled_side``) vs a full numeric AWE
    re-analysis at ``values``.

    The moments must agree within the exact tier.  Poles are compared
    through the pole-residue response they define, normalised by its
    peak (the ``ToleranceLadder`` convention), over two decades below
    the slowest to one decade above the fastest reference pole; where
    both reductions have the same order <= 2 the dominant pole must
    also agree within the exact tier.  One-by-one pole lists are not
    compared: a far pole or a nearly cancelling pair moves far under a
    1e-11 moment difference.  The largest such far-pole deviation is
    reported as ``awe.far_pole_dev``.
    """
    from repro.awe.model import ReducedOrderModel
    awe = importlib.import_module("repro.awe.driver").awe
    copy = circuit.copy()
    for name, value in values.items():
        copy.replace_value(name, float(value))
    ref = awe(copy, output, order=order)
    got_m, poles, residues = compiled
    want_m = np.asarray(ref.moments, dtype=float)[:2 * order]
    want_m = want_m * (1.0 + tally.perturb)
    check(bool(np.all(np.abs(got_m - want_m)
                      <= EXACT_RTOL * np.abs(want_m))),
          f"{where}: compiled moments {got_m} != numeric AWE {want_m}")
    rom = ReducedOrderModel(poles, residues, order_requested=order)
    ref_rom = ref.model
    mags = np.abs(ref_rom.poles)
    w = np.logspace(np.log10(mags.min()) - 2, np.log10(mags.max()) + 1, 64)
    h_got = rom.frequency_response(w)
    h_want = ref_rom.frequency_response(w)
    err = np.max(np.abs(h_got - h_want)) / np.max(np.abs(h_want))
    check(err <= EXACT_RTOL,
          f"{where}: response differs from numeric AWE by {err:.3g}")
    if rom.order == ref_rom.order:
        if rom.order <= 2:
            p, q = rom.dominant_pole(), ref_rom.dominant_pole()
            check(abs(p - q) <= EXACT_RTOL * abs(q),
                  f"{where}: dominant pole {p} != numeric AWE {q}")
        dev = (np.max(np.abs(np.sort_complex(rom.poles)
                             - np.sort_complex(ref_rom.poles)))
               / mags.max())
        tally.far_pole_dev = max(tally.far_pole_dev, float(dev))
    tally.awe_points += 1
