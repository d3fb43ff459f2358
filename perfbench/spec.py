"""Names, units and shapes the benchmark promises to report.

``BENCHMARK.json`` at the repository root mirrors these lists; the
self-test (``perfbench/test_perfbench.py``) fails when the two drift.
"""

WORKLOADS = ("sweep-bulk", "design-loop")

#: fixed PYTHONHASHSEED per workload process: the netlist -> program
#: compile orders symbolic-solve terms through hashed containers, so the
#: op counts only repeat exactly under a pinned hash seed
HASH_SEEDS = {"sweep-bulk": 101, "design-loop": 104}

#: (name, unit, better) of every end-to-end metric; every workload
#: reports all of them (see README.md for what each means per workload)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("served_share", "ratio", "higher"),
    ("sweep_pts_per_s", "pts/s", "higher"),
    ("compile_s", "s", "lower"),
    ("point_p50_us", "us", "lower"),
    ("sweep1_p50_us", "us", "lower"),
)

#: end-to-end timings reported at the reference host speed (see
#: ``common.HostSpeed``): name -> 1 for a time, -1 for a rate
HOST_SCALED = {"sweep_pts_per_s": -1, "compile_s": 1, "point_p50_us": 1,
               "sweep1_p50_us": 1}

#: the design-loop circuit set: (key, Padé order); the key names the
#: per-circuit op-count metrics
CIRCUITS = (("fig1_o3", 3), ("ota_o2", 2), ("op741_o2", 2),
            ("op741_o4", 4), ("op741auto_o2", 2), ("lines_o2", 2))

#: the mixed order x metric cells sweep-bulk's traced run probes on the
#: 741 compiled at order 4: (Padé order, metric name)
CELLS = ((1, "dominant_pole_hz"), (2, "dominant_pole_hz"),
         (3, "dominant_pole_hz"), (4, "dominant_pole_hz"),
         (2, "phase_margin"), (2, "unity_gain_frequency"),
         (2, "bandwidth_3db"), (2, "overshoot"), (2, "settling_time"),
         (4, "phase_margin"))

#: traced span kind -> the per-layer metric holding its self time.
#: These self times plus ``trace.overhead_s`` add up to ``trace.wall_s``.
SPAN_METRICS = {
    "compile": "compile.self_s",
    "select.symbols": "select.symbols_s",
    "partition.split": "partition.split_s",
    "partition.condense": "partition.condense_s",
    "partition.recursion": "partition.recursion_s",
    "mna.assemble": "mna.assemble_s",
    "symbolic.codegen": "symbolic.codegen_s",
    "symbolic.tape": "symbolic.tape_s",
    "sweep": "sweep.self_s",
    "grid.flatten": "grid.flatten_s",
    "fallback": "fallback.s",
    "rom.moments": "rom.moments_s",
    "rom.pade": "rom.pade_s",
    "serve.submit": "coalescer.submit_s",
}


def _per_layer():
    rows = [(metric, "s") for metric in SPAN_METRICS.values()]
    rows += [("trace.overhead_s", "s"), ("trace.wall_s", "s"),
             ("trace.overhead_pct", "%")]
    for key, _order in CIRCUITS:
        rows.append((f"symbolic.n_ops.{key}", "count"))
        rows.append((f"symbolic.tape_ops.{key}", "count"))
    rows += [
        ("native.build_s", "s"),
        ("kernel.ufunc_pts_per_s", "pts/s"),
        ("kernel.native_pts_per_s", "pts/s"),
        ("moments.s", "s"), ("pade.s", "s"), ("metric.s", "s"),
        ("sweep.overhead_s", "s"),
        ("sweep.calls", "count"),
        ("pade.vector_share", "ratio"),
        ("fallback.calls", "count"),
        ("fallback.orders_dropped", "count"),
    ]
    for order, metric in CELLS:
        rows.append((f"cell.o{order}.{metric}.pts_per_s", "pts/s"))
    rows += [(f"backend.{name}.pts_per_s", "pts/s")
             for name in ("serial", "thread", "process", "native")]
    rows += [
        ("backend.process.spawn_s", "s"),
        ("rom.moments_us", "us"), ("rom.pade_us", "us"),
        ("rom.metric_us", "us"), ("rom.p99_us", "us"),
        ("awe.numeric_iter_us", "us"), ("table1_ratio", "ratio"),
        ("admission.shed", "count"), ("quota.rejected", "count"),
        ("serve.degraded", "count"),
        ("coalescer.batch_mean", "count"), ("coalescer.linger_ms", "ms"),
        ("serve.queue_ms", "ms"), ("serve.sweep_ms", "ms"),
        ("serve.p50_ms_light", "ms"), ("serve.p99_ms_light", "ms"), ("serve.p50_ms_loaded", "ms"),
        ("serve.p99_ms_loaded", "ms"), ("serve.max_rps", "req/s"),
        ("registry.warm_s", "s"),
        ("gen.late_ms_max", "ms"), ("gen.late_ms_p99", "ms"),
        ("gc.full_collections", "count"), ("gc.pause_ms", "ms"),
        ("oracle.points", "count"), ("oracle.inexact_points", "count"),
        ("oracle.illposed_points", "count"),
        ("awe.checked_points", "count"), ("awe.far_pole_dev", "ratio"),
    ]
    return tuple(rows)


#: (name, unit) of every per-layer metric, reported by every traced run;
#: a layer a workload never calls reports 0
PER_LAYER = _per_layer()
