"""The two workloads.

Each workload has a *primary* phase — the work it exists to load — and
reports every end-to-end metric.  Metrics outside its primary phase
come from probes on its own model(s): single points, 1-point sweeps
and cold compiles, taken in small batches *between* units of the
primary work (see :class:`Sampler`).  Spreading the probes over the run
averages out the machine's slow and fast spells; a change to a shared
layer shows on every workload that calls it.  Serving is measured by
the traced run (see :meth:`Workload.trace`).

A workload runs in three steps:

* ``setup()`` — import, circuit build, compile, warm-up, and one result
  checked against its oracle (the parent process times this);
* ``measure()`` (untraced) or ``trace()`` (per-layer metrics);
* ``check()`` — every recorded output against its oracles.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import os
import time
import zlib
from collections import Counter

import numpy as np

import models
import oracles
import probes
import serveload
import spec
import tracing
from common import Deadline, check, geomean, median, percentile, tail
import common

#: grid points per check of one sweep result against the oracle
CHECK_POINTS = 256
#: numeric AWE points every workload checks (design-loop checks all)
AWE_POINTS = 8
#: seconds of each fixed-rate phase of the traced serving pass
SERVE_TRACE_S = 3.0


class Sampler:
    """The shared probes, spread evenly over the run.

    Jobs are drawn up front from the seed, in proportion to the run's
    length.  Each :meth:`step` (called between units of primary work)
    runs jobs until the share done matches the
    share of the run's ``horizon`` seconds elapsed; :meth:`finish` runs
    what is left and fills the metrics.
    """

    def __init__(self, wl: "Workload", horizon: float) -> None:
        self.wl = wl
        self.start = time.perf_counter()
        self.horizon = horizon
        self.queues = {
            "points": wl.jobs("points", wl.per_run(wl.POINTS_PER_S, 60)),
            "sweep1": wl.jobs("sweep1", wl.per_run(wl.SWEEP1_PER_S, 20)),
            "compile": ([wl.specs[k] for k in wl.compile_keys]
                        * wl.per_run(wl.COMPILES_PER_S, 1))}
        self.totals = {k: len(v) for k, v in self.queues.items()}
        self.rng = wl.rng("compile")
        self.point_us: list = []
        self.sweep1_us: list = []
        self.compile_s: dict = {k: [] for k in wl.compile_keys}

    def _take(self, kind: str, share: float) -> list:
        queue = self.queues[kind]
        done = self.totals[kind] - len(queue)
        n = max(0, math.ceil(share * self.totals[kind]) - done)
        batch = queue[:n]
        del queue[:n]
        return batch

    def step(self, final: bool = False) -> None:
        wl = self.wl
        share = 1.0 if final else min(
            1.0, (time.perf_counter() - self.start) / self.horizon)
        us, _outputs = probes.points(self._take("points", share))
        self.point_us += us
        us, outputs = probes.sweep1(self._take("sweep1", share))
        self.sweep1_us += us
        wl.keep_sweep1(outputs)
        for s in self._take("compile", share):
            circuit = models.perturbed(s.circuit, s.symbols, self.rng)
            wl.settle()
            t0 = time.perf_counter()
            s.compile(circuit)
            self.compile_s[s.key].append(time.perf_counter() - t0)

    def finish(self, m: dict) -> None:
        self.step(final=True)
        t = tail(self.point_us)
        m["point_p50_us"] = t["p50"]
        m["sweep1_p50_us"] = median(self.sweep1_us)
        m["compile_s"] = geomean([median(v)
                                  for v in self.compile_s.values()])
        self.wl.details.update(point_us=t, sweep1_us=tail(self.sweep1_us),
                               compile_s=self.compile_s)
        self.wl.attempted += len(self.point_us) + len(self.sweep1_us)


class Workload:
    name = ""
    #: circuit specs this workload builds
    keys: tuple = ()
    #: specs whose cold compile makes ``compile_s``
    compile_keys: tuple = ()
    #: single points / 1-point sweeps / cold compiles of each compile
    #: circuit the sampler takes per second of the run
    POINTS_PER_S = 300
    SWEEP1_PER_S = 30
    COMPILES_PER_S = 0.75
    #: share of ``--seconds`` one pass of the traced run's primary work
    #: takes (the traced run makes three)
    TRACE_SHARE = 0.2

    def __init__(self, seed: int, seconds: float, tiny: bool,
                 scratch: str, perturb: float = 0.0) -> None:
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.tiny = tiny
        self.scratch = scratch
        self.tally = oracles.Tally(perturb)
        self.tracer = None
        self.sampler = None
        #: the untraced run's reference timings (see common.HostSpeed)
        self.host = None
        self.settling = False
        self.attempted = 0
        self.failed = 0
        #: outputs recorded for the checks (see keep_sweep1)
        self.sweep1_records: list = []
        self.kept_models: dict = {}
        self.grid_checks: list = []
        self.serve_answers: list = []
        self.details: dict = {}

    # ------------------------------------------------------------------
    def rng(self, purpose: str):
        """An independent generator per purpose, fixed by the seed."""
        return np.random.default_rng(
            [self.seed, zlib.crc32(f"{self.name}/{purpose}".encode())])

    def op(self):
        """One traced operation (a sweep, a request, a compile)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return tracing.operation(self.tracer.new_op())

    def n(self, full, tiny):
        return tiny if self.tiny else full

    def per_run(self, per_second: float, tiny: int) -> int:
        """How many of something taken ``per_second`` one run takes."""
        return self.n(max(1, round(per_second * self.seconds)), tiny)

    def settle(self) -> None:
        """Untraced runs collect garbage before each timed unit (see
        :func:`common.settle`); the traced run's passes do not, so that
        their wall time is the program's."""
        if self.settling:
            common.settle()

    def tick(self) -> None:
        """Between units of primary work: one batch of shared probes and
        of reference work."""
        if self.sampler is not None:
            self.sampler.step()
        if self.host is not None:
            self.host.sample()

    def keep_sweep1(self, outputs) -> None:
        """Keep 1-point sweep outputs for the checks, as tuples of atoms:
        the garbage collector stops tracking them, so thousands add no
        collection work to the program under test."""
        for model, values, order, metric, value in outputs:
            self.kept_models[id(model)] = model
            self.sweep1_records.append(
                (id(model), tuple(values.items()), order, metric, value))

    def build(self) -> None:
        self.specs = models.build(self.keys)

    def main(self):
        """``(spec, model, order, metrics)`` the shared probes use."""
        raise NotImplementedError

    def jobs(self, purpose: str, n: int) -> list:
        """``n`` seeded ``(model, order, values, metric)`` probe jobs."""
        spec_, model, order, metrics = self.main()
        values = models.draw_values(spec_, model, self.rng(purpose), n)
        return [(model, order, v, metrics[i % len(metrics)])
                for i, v in enumerate(values)]

    def awe_points(self) -> list:
        """Numeric AWE jobs on the workload's own model(s)."""
        spec_, _model, _order, _ = self.main()
        return [(model, spec_.circuit, spec_.output, values, order)
                for model, order, values, _ in self.jobs("awe", AWE_POINTS)]

    # ------------------------------------------------------------------
    # the untraced run
    # ------------------------------------------------------------------
    def measure(self) -> dict:
        """Every end-to-end metric but ``setup_s`` and the two the parent
        adds (``peak_rss_mb``, ``served_share``)."""
        m: dict = {}
        self.settling = True
        self.host = common.HostSpeed()
        self.sampler = Sampler(self, self.seconds)
        self.primary(Deadline(self.seconds), m)
        self.sampler.finish(m)
        self.sampler = None
        self.at_reference_speed(m)
        return m

    def at_reference_speed(self, m: dict) -> None:
        """Report the timings of ``spec.HOST_SCALED`` at the reference
        host speed; the wall-clock values stay in the run's record."""
        slowdown = self.host.slowdown
        self.details["host"] = {
            "reference_ms": median(self.host.samples) * 1e3,
            "samples": len(self.host.samples), "slowdown": slowdown,
            "wall_clock": {name: m[name] for name in spec.HOST_SCALED}}
        for name, sign in spec.HOST_SCALED.items():
            m[name] /= slowdown ** sign

    async def open_service(self):
        """A fresh service on default settings, both models compiled
        (``registry.warm_s``) and every (model, metric) bucket served
        once, untimed."""
        load = serveload.Load(self.specs)
        self.warm_s = await load.warm()
        self.serve_models = load.models
        await self.warm_serve(load)
        return load

    async def warm_serve(self, load) -> None:
        """Untimed warm-up: every (model, metric) bucket served."""
        dues, payloads = load.schedule(self.rng("serve-warm"),
                                       serveload.LIGHT_RPS, self.n(1.0, 0.3))
        await load.phase(dues, payloads, serveload.LIGHT_RPS)

    async def serve_phases(self, load, seconds: float):
        """A light phase and a loaded phase of ``seconds`` each, as
        one-second windows, then the saturation phase."""
        rng = self.rng("serve")
        light = await load.windows(rng, serveload.LIGHT_RPS, seconds)
        loaded = await load.windows(rng, serveload.LOADED_RPS, seconds)
        rate, saturated = await load.saturate(rng)
        return light, loaded, rate, saturated

    def count_served(self, fixed: list, saturated) -> None:
        """Keep every answer for the checks; only the fixed-rate phases
        count toward ``attempted`` / ``failed``."""
        for ph in fixed:
            self.attempted += ph.sent
            self.failed += ph.failed
            self.serve_answers.extend(ph.answered)
        self.serve_answers.extend(saturated.answered)

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Every recorded output against its oracles."""
        for model, grids, values, order, metric, label in self.grid_checks:
            probes.check_grid(self.tally, model, grids, values, order,
                              metric, self.rng("check-grid"), CHECK_POINTS,
                              f"{self.name} {label}")
        for key, items, order, metric, value in self.sweep1_records:
            oracles.compare(self.tally, value, self.kept_models[key],
                            dict(items), order, metric,
                            f"{self.name} 1-point sweep")
        for answer in self.serve_answers:
            self.check_answer(answer)
        for model, circuit, output, values, order in self.awe_points():
            oracles.numeric_awe(
                self.tally, oracles.compiled_side(model, values, order),
                circuit, output, values, order, f"{self.name} numeric AWE")

    def check_answer(self, answer: tuple) -> None:
        """One served answer (see ``serveload.Phase.answered``) against
        in-process ``rom()`` + metric for the same request."""
        name, metric, order, items, value, degraded, _queue = answer
        model, values = self.serve_models[name], dict(items)
        where = f"{self.name} served {name}"
        if degraded:
            # the order-1 fallback runs the same scalar path: bit for bit
            want = oracles.metric_fn(metric)(model.rom(
                values, order=1, require_stable=False))
            want *= 1.0 + self.tally.perturb
            check(value == want or (np.isnan(want) and np.isnan(value)),
                  f"{where}: degraded value differs")
            return
        oracles.compare(self.tally, value, model, values, order, metric,
                        where)

    def check_counts(self) -> dict:
        """What the checks saw (per-layer metrics; read after check())."""
        return {"oracle.points": self.tally.points,
                "oracle.inexact_points": self.tally.inexact,
                "oracle.illposed_points": self.tally.illposed,
                "awe.checked_points": self.tally.awe_points,
                "awe.far_pole_dev": self.tally.far_pole_dev}

    # ------------------------------------------------------------------
    # the traced run
    # ------------------------------------------------------------------
    def trace(self) -> dict:
        """Per-layer metrics.  An untraced pass sets the primary work (and
        warms every cache); the same work then runs traced, followed by a
        traced serving pass on a fresh, warmed service (a light, a loaded
        and a saturation phase); the primary work runs once more untraced
        as the baseline of ``trace.overhead_pct``."""
        plan = self.primary(Deadline(self.seconds * self.TRACE_SHARE), {})
        # the repeated passes' outputs are not checked again
        kept = {k: len(getattr(self, k)) for k in
                ("sweep1_records", "grid_checks", "serve_answers")}
        serve_s = self.n(SERVE_TRACE_S, 0.5)
        loop = asyncio.new_event_loop()
        try:
            load = loop.run_until_complete(self.open_service())
            try:
                tracer, counters = tracing.Tracer(), tracing.Counters()
                undo = tracing.install(tracer, counters,
                                       due_time=serveload.due_time)
                self.tracer = load.tracer = tracer
                t1 = time.perf_counter()
                try:
                    self.primary(None, {}, plan=plan)
                    mid = time.perf_counter()
                    phases = loop.run_until_complete(
                        self.serve_phases(load, serve_s))
                finally:
                    end = time.perf_counter()
                    undo()
                    self.tracer = load.tracer = None
            finally:
                loop.run_until_complete(load.close())
        finally:
            loop.close()

        m = {name: 0.0 for name, _unit in spec.PER_LAYER}
        owned, unowned = tracing.self_times(tracer.spans, t1, end)
        check(set(owned) <= set(spec.SPAN_METRICS),
              f"unexpected span kinds {set(owned) - set(spec.SPAN_METRICS)}")
        for kind, metric in spec.SPAN_METRICS.items():
            m[metric] = owned.get(kind, 0.0)
        m["trace.overhead_s"] = unowned
        m["trace.wall_s"] = end - t1
        closure = sum(owned.values()) + unowned
        check(abs(closure - (end - t1)) <= 1e-6 * (end - t1),
              f"self times add up to {closure}, wall is {end - t1}")
        self.sweep_layers(m, counters)
        m["gc.full_collections"] = sum(g == 2 for g, _ in counters.gc_pauses)
        m["gc.pause_ms"] = sum(p for _, p in counters.gc_pauses) * 1e3
        self.serve_layers(m, counters, phases)
        path = os.path.join(self.scratch, "traces",
                            f"{self.name}-seed{self.seed}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tracing.write_chrome_trace(path, tracer.spans, t1, {
            "workload": self.name, "seed": self.seed})
        self.details["trace_file"] = os.path.relpath(path)
        self.details["self_times_s"] = dict(owned, **{"(none)": unowned})
        # the spans would burden the replay's garbage collections
        del tracer, counters

        t0 = time.perf_counter()
        self.primary(None, {}, plan=plan)
        untraced = time.perf_counter() - t0
        for k, n in kept.items():
            del getattr(self, k)[n:]
        light, loaded, _rate, saturated = phases
        self.count_served([light, loaded], saturated)
        m["trace.overhead_pct"] = (mid - t1 - untraced) / untraced * 100
        self.layer_extras(m)
        self.common_layers(m)
        return m

    def sweep_layers(self, m: dict, counters) -> None:
        stats = counters.sweeps
        m["sweep.calls"] = len(stats)
        m["fallback.calls"] = counters.fallback_calls
        m["fallback.orders_dropped"] = counters.orders_dropped
        if not stats:
            return
        m["moments.s"] = sum(s.evaluate_seconds for s in stats)
        m["pade.s"] = sum(s.pade_seconds for s in stats)
        m["metric.s"] = sum(s.metric_seconds for s in stats)
        m["sweep.overhead_s"] = sum(
            wall - s.evaluate_seconds - s.pade_seconds - s.metric_seconds
            for s, wall in zip(stats, counters.sweep_walls))
        points = sum(s.points for s in stats)
        if points:
            m["pade.vector_share"] = (
                sum(s.vectorized_points for s in stats) / points)

    def serve_layers(self, m: dict, counters, phases) -> None:
        """Serving counts over every phase; waits and lateness over the
        fixed-rate phases only (the saturation phase queues by design)."""
        light, loaded, _rate, saturated = phases
        every = (light, loaded, saturated)
        answered = [a for ph in every for a in ph.answered]
        rejected = sum((ph.rejected for ph in every), Counter())
        m["admission.shed"] = rejected.get("shed", 0)
        m["quota.rejected"] = rejected.get("quota", 0)
        m["serve.degraded"] = sum(a[5] for a in answered)
        if counters.paired_points:
            m["coalescer.batch_mean"] = float(np.mean(counters.paired_points))
            m["serve.sweep_ms"] = float(np.mean(counters.paired_walls)) * 1e3
        fixed = (serveload.LIGHT_RPS, serveload.LOADED_RPS)
        queue = [a[6] for ph in (light, loaded) for a in ph.answered
                 if a[6] is not None]
        if queue:
            m["coalescer.linger_ms"] = median(queue) * 1e3
        waits = [w for rate, w in counters.submit_waits if rate in fixed]
        if waits:
            m["serve.queue_ms"] = median(waits) * 1e3
        self.details["serve"] = {"light": tail(light.latencies_ms),
                                 "loaded": tail(loaded.latencies_ms)}
        m["serve.p50_ms_light"] = light.p50_ms
        m["serve.p99_ms_light"] = light.p99_ms
        m["serve.p50_ms_loaded"] = loaded.p50_ms
        m["serve.p99_ms_loaded"] = loaded.p99_ms
        m["serve.max_rps"] = phases[2]
        m["registry.warm_s"] = self.warm_s
        late = light.late_ms + loaded.late_ms
        m["gen.late_ms_max"] = max(late)
        m["gen.late_ms_p99"] = percentile(late, 99.0)

    def layer_extras(self, m: dict) -> None:
        """Workload-specific per-layer probes."""

    def common_layers(self, m: dict) -> None:
        """Per-layer probes every traced run makes, outside the pass."""
        _spec, model, order, _metrics = self.main()
        jobs = [(values, metric) for _m, _o, values, metric
                in self.jobs("rom-parts", self.n(1000, 50))]
        m.update(probes.rom_parts(model, order, jobs))
        c741 = self.specs_all["op741_o2"]
        numeric = probes.numeric_iteration_us(c741.circuit, c741.output, 2,
                                              self.n(200, 10))
        m["awe.numeric_iter_us"] = numeric
        point741 = median(probes.points([
            (self.table1_model, 2, v, "dominant_pole_hz")
            for v in models.draw_values(c741, self.table1_model,
                                        self.rng("table1"),
                                        self.n(1000, 50))])[0])
        m["table1_ratio"] = numeric / point741
        self.details["table1"] = {
            "numeric_awe_ms": numeric / 1e3, "awesymbolic_ms": point741 / 1e3,
            "ratio": m["table1_ratio"],
            "paper": {"numeric_awe_ms": 53.2, "awesymbolic_ms": 0.16,
                      "ratio": 330}}
        m["native.build_s"] = probes.native_build_s(model, self.scratch)
        m.update(probes.kernel_rates(model, self.kernel_grid(),
                                     self.n(3, 1)))
        m.update(probes.op_counts(self.specs_all))

    @property
    def specs_all(self) -> dict:
        """Every design-loop circuit (for op counts and the Table 1 row)."""
        full = getattr(self, "_specs_all", None)
        if full is None:
            missing = [k for k, _ in spec.CIRCUITS if k not in self.specs]
            full = self._specs_all = dict(self.specs, **models.build(missing))
        return full

    @property
    def table1_model(self):
        model = getattr(self, "_table1_model", None)
        if model is None:
            model = self._table1_model = (
                self.specs_all["op741_o2"].compile().model)
        return model

    def kernel_grid(self) -> dict:
        return models.grid_741(self.rng("grid"), self.n(64, 8),
                               self.nominal_go)

    @property
    def nominal_go(self) -> float:
        return float(self.specs_all["op741_o2"].circuit["go_Q14"].value)


# ----------------------------------------------------------------------
class SweepBulk(Workload):
    """The paper's 741 at order 2 over a seeded 1024 x 1024 grid."""

    name = "sweep-bulk"
    keys = ("op741_o2", "ota_o2")
    compile_keys = ("op741_o2",)

    def setup(self) -> None:
        self.build()
        self.model = self.specs["op741_o2"].compile().model
        self.grids = models.grid_741(self.rng("bulk-grid"),
                                     self.n(1024, 32), self.nominal_go)
        self.first = np.asarray(self.model.sweep(
            self.grids, oracles.metric_fn("dominant_pole_hz")))
        probes.check_grid(self.tally, self.model, self.grids, self.first, 2,
                          "dominant_pole_hz", self.rng("setup-check"), 16,
                          "sweep-bulk first sweep")
        self.grid_checks.append((self.model, self.grids, self.first, 2,
                                 "dominant_pole_hz", "bulk grid"))

    def main(self):
        return self.specs["op741_o2"], self.model, 2, ["dominant_pole_hz"]

    def primary(self, deadline, m: dict, plan=None) -> dict:
        fn = oracles.metric_fn("dominant_pole_hz")
        walls = []
        while (len(walls) < plan["sweeps"] if plan
               else not walls or not deadline.expired()):
            self.settle()
            with self.op():
                t0 = time.perf_counter()
                result = self.model.sweep(self.grids, fn)
                walls.append(time.perf_counter() - t0)
            values = np.asarray(result)
            check(np.array_equal(values, self.first, equal_nan=True),
                  "sweep-bulk: a repeated sweep changed its values")
            self.attempted += values.size
            self.failed += len(result.diagnostics.quarantined)
            del result, values
            self.tick()
        m["sweep_pts_per_s"] = self.first.size / median(walls)
        self.details["bulk_sweep_s"] = walls
        return {"sweeps": len(walls)}

    def kernel_grid(self) -> dict:
        return self.grids

    def layer_extras(self, m: dict) -> None:
        m.update(probes.backend_rates(self.model, self.grids,
                                      "dominant_pole_hz", self.first))
        self.cells(m)

    def cells(self, m: dict) -> None:
        """The 741 compiled at order 4: each (order, metric) cell of
        ``spec.CELLS`` over a seeded 32 x 32 grid, where the per-point
        Padé fallback and the scan, bisection and time-domain metrics do
        nearly all the work.  Every cell's values are checked."""
        model = self.specs_all["op741_o4"].compile().model
        grids = models.grid_741(self.rng("cell-grid"), self.n(32, 8),
                                self.nominal_go)
        for (order, metric), (rate, values) in probes.cell_rates(
                model, grids, spec.CELLS, self.n(0.3, 0.0)).items():
            m[f"cell.o{order}.{metric}.pts_per_s"] = rate
            self.grid_checks.append((model, grids, values, order, metric,
                                     f"cell o{order}.{metric}"))


# ----------------------------------------------------------------------
class DesignLoop(Workload):
    """The paper's Table 1 flow: cold compiles, then single points."""

    name = "design-loop"
    keys = tuple(k for k, _ in spec.CIRCUITS)
    compile_keys = keys
    #: single points / 1-point sweeps per circuit per iteration, taken
    #: in TURNS round-robin batches
    POINTS = {"lines_o2": 8}
    SWEEP1 = {"lines_o2": 4}
    TURNS = 4

    def setup(self) -> None:
        self.build()
        #: (key, iteration, value items, order, compiled side) per point
        self.awe_records: list = []
        s = self.specs["op741_o2"]
        self.model = s.compile().model
        values = models.draw_values(s, self.model, self.rng("setup"), 1)[0]
        self.model.rom(values)
        oracles.numeric_awe(self.tally,
                            oracles.compiled_side(self.model, values, 2),
                            s.circuit, s.output, values, 2,
                            "design-loop first point")

    def main(self):
        return self.specs["op741_o2"], self.model, 2, ["dominant_pole_hz"]

    def measure(self) -> dict:
        m: dict = {}
        self.settling = True
        self.host = common.HostSpeed()
        self.primary(Deadline(self.seconds), m)
        self.at_reference_speed(m)
        return m

    def perturbed(self, key: str, iteration: int):
        """The circuit ``key`` as compiled in ``iteration``."""
        s = self.specs[key]
        return models.perturbed(s.circuit, s.symbols,
                                self.rng(f"perturb-{iteration}-{key}"))

    def primary(self, deadline, m: dict, plan=None) -> dict:
        """Iterations over the circuit set: cold-compile every circuit,
        then single points, 1-point sweeps and a grid per model, taken
        round-robin across the models in small batches so that each
        circuit's samples spread over the iteration.

        An untraced pass checks the 1-point sweeps (and the first
        iteration's grids) as it goes and keeps only arrays for the
        numeric AWE checks, so the compiled models do not pile up in
        the heap between iterations."""
        from repro.symbolic.tape import tape_from_model
        collect = plan is None
        compile_s = {k: [] for k in self.keys}
        grid_rates = {k: [] for k in self.keys}
        # per circuit: point and 1-point sweep times, in microseconds
        us = {k: [] for k in self.keys}
        s1 = {k: [] for k in self.keys}
        iterations = 0
        while (iterations < plan["iterations"] if plan
               else iterations == 0 or not deadline.expired()):
            rng = self.rng(f"iteration-{iterations}")
            compiled = {}
            for key in self.keys:
                s = self.specs[key]
                self.settle()
                with self.op():
                    t0 = time.perf_counter()
                    result = s.compile(self.perturbed(key, iterations))
                    compile_s[key].append(time.perf_counter() - t0)
                    tape_from_model(result, fused=True)
                self.tick()
                model = result.model
                n_pts = self.POINTS.get(key, self.n(32, 4))
                n_s1 = self.SWEEP1.get(key, self.n(10, 2))
                jobs = [(model, s.order, v, "dominant_pole_hz") for v in
                        models.draw_values(s, model, rng, n_pts + n_s1)]
                compiled[key] = (model, jobs[:n_pts], jobs[n_pts:],
                                 self.grid(s, model, rng))
            for turn in range(self.TURNS):
                for key, (model, pts, swp, _grids) in compiled.items():
                    with self.op():
                        took, points = probes.points(pts[turn::self.TURNS])
                    with self.op():
                        took_s1, swept = probes.sweep1(
                            swp[turn::self.TURNS])
                    us[key] += took
                    s1[key] += took_s1
                    if collect:
                        self.awe_records += [
                            (key, iterations, tuple(v.items()), order,
                             oracles.compiled_side(model, v, order))
                            for _m, v, order, _metric, _value in points]
                        for mdl, v, order, metric, value in swept:
                            oracles.compare(self.tally, value, mdl, v, order,
                                            metric, f"design-loop {key} "
                                            "1-point sweep")
                self.tick()
            for key, (model, _pts, _swp, grids) in compiled.items():
                order = self.specs[key].order
                with self.op():
                    rate, grid_values = probes.grid_rate(
                        model, grids, "dominant_pole_hz", order)
                grid_rates[key].append(rate)
                if collect and iterations == 0:
                    probes.check_grid(
                        self.tally, model, grids, grid_values, order,
                        "dominant_pole_hz", self.rng("check-grid"),
                        CHECK_POINTS, f"design-loop {key} 16x16 grid")
            iterations += 1
        self.attempted += sum(map(len, us.values())) + sum(
            map(len, s1.values()))
        if collect:
            # geometric means over the circuit set, like compile_s: pooled
            # medians would sit in the gaps between the circuits' costs
            m["compile_s"] = geomean([median(v) for v in compile_s.values()])
            m["point_p50_us"] = geomean([median(v) for v in us.values()])
            m["sweep1_p50_us"] = geomean([median(v) for v in s1.values()])
            m["sweep_pts_per_s"] = geomean(
                [median(v) for v in grid_rates.values()])
            self.details.update(
                point_us={k: tail(v) for k, v in us.items()},
                sweep1_us={k: tail(v) for k, v in s1.items()},
                compile_s=compile_s, iterations=iterations)
        return {"iterations": iterations}

    def grid(self, s, model, rng) -> dict:
        """A seeded 16 x 16 grid over the first two symbols."""
        side = self.n(16, 4)
        points = models.draw_values(s, model, rng, side)
        names = list(model.element_slots)[:2]
        return {name: np.sort([p[name] for p in points]) for name in names}

    def check(self) -> None:
        """Also every single point against numeric AWE on the perturbed
        circuit its model was compiled from."""
        super().check()
        circuits = {}
        for key, iteration, items, order, compiled in self.awe_records:
            if (key, iteration) not in circuits:
                circuits[(key, iteration)] = self.perturbed(key, iteration)
            oracles.numeric_awe(self.tally, compiled,
                                circuits[(key, iteration)],
                                self.specs[key].output, dict(items), order,
                                "design-loop numeric AWE")


WORKLOADS = {w.name: w for w in (SweepBulk, DesignLoop)}
