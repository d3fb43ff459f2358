"""Measurements every workload shares: single points, 1-point sweeps,
small grids, cold compiles, and the per-layer probes of traced runs."""

from __future__ import annotations

import importlib
import os
import shutil
import tempfile
import time

import numpy as np

import oracles
from common import check, median


def points(jobs) -> tuple[list, list]:
    """Time ``model.rom(values, order)`` + scalar metric per job
    ``(model, order, values, metric)``.  Returns microseconds per point
    and the outputs ``(model, values, order, metric, value)``."""
    from repro.errors import ApproximationError
    us, outputs = [], []
    for model, order, values, metric in jobs:
        fn = oracles.metric_fn(metric)
        t0 = time.perf_counter()
        try:
            value = fn(model.rom(values, order=order))
        except ApproximationError:
            value = float("nan")
        us.append((time.perf_counter() - t0) * 1e6)
        outputs.append((model, values, order, metric, float(value)))
    return us, outputs


def sweep1(jobs) -> tuple[list, list]:
    """Time one 1-point ``model.sweep`` per job; microseconds each, and
    the outputs as :func:`points` returns them."""
    us, outputs = [], []
    for model, order, values, metric in jobs:
        grids = {name: np.array([v]) for name, v in values.items()}
        fn = oracles.metric_fn(metric)
        t0 = time.perf_counter()
        result = model.sweep(grids, fn, order=order)
        us.append((time.perf_counter() - t0) * 1e6)
        outputs.append((model, values, order, metric,
                        float(np.asarray(result).reshape(-1)[0])))
    return us, outputs


def grid_rate(model, grids: dict, metric: str,
              order: int) -> tuple[float, np.ndarray]:
    """Points per second of one grid sweep, and its values."""
    fn = oracles.metric_fn(metric)
    n = int(np.prod([len(v) for v in grids.values()]))
    t0 = time.perf_counter()
    result = model.sweep(grids, fn, order=order)
    return n / (time.perf_counter() - t0), np.asarray(result)


def cell_rates(model, grids: dict, cells, min_s: float) -> dict:
    """``{(order, metric): (points per second, values)}`` per cell: after
    one untimed sweep, the median over sweeps repeated until the cell
    has run ``min_s`` seconds (at least once), and the last values."""
    n = int(np.prod([len(v) for v in grids.values()]))
    out = {}
    for order, metric in cells:
        fn = oracles.metric_fn(metric)
        model.sweep(grids, fn, order=order)
        walls = []
        while not walls or sum(walls) < min_s:
            t0 = time.perf_counter()
            result = model.sweep(grids, fn, order=order)
            walls.append(time.perf_counter() - t0)
        out[(order, metric)] = (n / median(walls), np.asarray(result))
    return out


def check_grid(tally, model, grids: dict, values: np.ndarray, order: int,
               metric: str, rng, n_points: int, where: str) -> None:
    """Compare ``n_points`` seeded grid points against the oracle."""
    names = list(grids)
    shape = values.shape
    flat = rng.choice(values.size, size=min(n_points, values.size),
                      replace=False)
    for k in flat:
        idx = np.unravel_index(int(k), shape)
        point = {name: float(grids[name][i]) for name, i in zip(names, idx)}
        oracles.compare(tally, values[idx], model, point, order, metric,
                        f"{where} point {tuple(int(i) for i in idx)}")


# ----------------------------------------------------------------------
# per-layer probes (traced runs)
# ----------------------------------------------------------------------
def rom_parts(model, order: int, jobs) -> dict:
    """Median microseconds of the three pieces of one point
    (``compiled_moments.scalars``, ``rom_from_moments``, the metric) and
    the p99 of their sum."""
    from repro.awe.stability import rom_from_moments
    from repro.errors import ApproximationError
    parts = {"rom.moments_us": [], "rom.pade_us": [], "rom.metric_us": []}
    for values, metric in jobs:
        fn = oracles.metric_fn(metric)
        sv = model.symbol_values(values)
        t0 = time.perf_counter()
        moments = model.compiled_moments.scalars(sv)
        t1 = time.perf_counter()
        rom = rom_from_moments(moments, order)
        t2 = time.perf_counter()
        try:
            fn(rom)
        except ApproximationError:
            pass
        t3 = time.perf_counter()
        parts["rom.moments_us"].append((t1 - t0) * 1e6)
        parts["rom.pade_us"].append((t2 - t1) * 1e6)
        parts["rom.metric_us"].append((t3 - t2) * 1e6)
    out = {k: median(v) for k, v in parts.items()}
    totals = np.sum([parts[k] for k in parts], axis=0)
    out["rom.p99_us"] = float(np.percentile(totals, 99.0))
    return out


def numeric_iteration_us(circuit, output: str, order: int,
                         repeats: int) -> float:
    """The paper's Table 1 accounting of one numeric AWE iteration:
    ``awe_from_system`` on an already assembled system."""
    from repro.mna import assemble
    driver = importlib.import_module("repro.awe.driver")
    system = assemble(circuit)
    driver.awe_from_system(system, output, order)
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        driver.awe_from_system(system, output, order)
        out.append((time.perf_counter() - t0) * 1e6)
    return median(out)


def native_build_s(model, scratch: str) -> float:
    """Build + byte-identity probe of the model's native kernel into an
    empty cache directory."""
    from repro.runtime.native import native_kernel_for
    fn = model.compiled_moments.fn
    mask = (True,) * len(fn.space.symbols)
    fresh = tempfile.mkdtemp(prefix="native-fresh-", dir=scratch)
    saved = os.environ.get("REPRO_NATIVE_CACHE")
    os.environ["REPRO_NATIVE_CACHE"] = fresh
    try:
        t0 = time.perf_counter()
        native_kernel_for(fn, mask)
        return time.perf_counter() - t0
    finally:
        if saved is None:
            del os.environ["REPRO_NATIVE_CACHE"]
        else:
            os.environ["REPRO_NATIVE_CACHE"] = saved
        shutil.rmtree(fresh, ignore_errors=True)


def kernel_rates(model, grids: dict, repeats: int = 3) -> dict:
    """Raw moment-kernel throughput on the grid batch, ufunc vs native."""
    from repro.runtime.batched import grid_columns
    fn = model.compiled_moments.fn
    _, shape, cols = grid_columns(model, grids)
    n = int(np.prod(shape))
    out = {}
    for key, kernel in (("kernel.ufunc_pts_per_s", None),
                        ("kernel.native_pts_per_s", "native")):
        with np.errstate(all="ignore"):
            fn.eval_batch(cols, n, kernel=kernel)
            walls = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn.eval_batch(cols, n, kernel=kernel)
                walls.append(time.perf_counter() - t0)
        out[key] = n / median(walls)
    return out


def backend_rates(model, grids: dict, metric: str, reference) -> dict:
    """Sweep throughput per execution backend (one warm-up, then the
    median of two), each checked bit-identical to ``reference``."""
    from repro.runtime import RuntimeStats, shutdown_pools
    fn = oracles.metric_fn(metric)
    n = int(np.prod([len(v) for v in grids.values()]))
    workers = os.cpu_count() or 1
    out = {}
    try:
        for backend in ("serial", "thread", "process", "native"):
            warm = RuntimeStats()
            model.sweep(grids, fn, backend=backend, max_workers=workers,
                        stats=warm)
            if backend == "process":
                out["backend.process.spawn_s"] = warm.spawn_seconds
            walls = []
            for _ in range(2):
                t0 = time.perf_counter()
                values = model.sweep(grids, fn, backend=backend,
                                     max_workers=workers)
                walls.append(time.perf_counter() - t0)
                check(np.array_equal(np.asarray(values), reference,
                                     equal_nan=True),
                      f"backend {backend} differs from the default sweep")
            out[f"backend.{backend}.pts_per_s"] = n / median(walls)
    finally:
        shutdown_pools()
    return out


def op_counts(specs: dict) -> dict:
    """Compiled-program op counts per circuit (nominal values): the
    moment program's ``n_ops`` and the fused op tape's length."""
    from repro.symbolic.tape import tape_from_model
    out = {}
    for key, spec in specs.items():
        result = spec.compile()
        out[f"symbolic.n_ops.{key}"] = int(result.model.n_ops)
        tape = tape_from_model(result, fused=True)
        out[f"symbolic.tape_ops.{key}"] = int(tape.n_ops)
    return out
