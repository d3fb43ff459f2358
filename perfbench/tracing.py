"""Benchmark-side tracing: spans around public layer calls.

The program is traced from outside.  :func:`install` rebinds each
public layer entry point the benchmark measures (module functions at
every module that imported them by name, methods on their classes) to a
wrapper that opens a span, and returns an undo function that restores
the originals.  Spans live in memory and are written once, at the end,
as a Chrome/Perfetto ``traceEvents`` file.

Every span records name, start, end, thread and parent.  Spans of one
sweep, request or compile share an operation ID: a span opened with no
traced parent on its thread takes the ID set by :func:`operation` (or a
fresh one) and its children inherit it.

:func:`self_times` attributes the traced pass's wall time to span kinds:
at each instant the time goes to the innermost busy spans open at that
instant (split evenly when several threads are busy at once), and any
instant with no busy span open goes to ``trace.overhead_s``.  The parts
therefore add up to the wall time exactly.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: operation ID of the sweep / request / compile being driven
_OPERATION = contextvars.ContextVar("perfbench_operation", default=None)


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "tid", "op",
                 "busy", "args")

    def __init__(self, sid, parent, name, start, tid, op, busy, args):
        self.sid, self.parent, self.name = sid, parent, name
        self.start, self.end = start, None
        self.tid, self.op, self.busy, self.args = tid, op, busy, args


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def new_op(self) -> int:
        return next(self._ops)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **args):
        """A busy span on the calling thread."""
        stack = self._stack()
        if stack:
            parent, op = stack[-1].sid, stack[-1].op
        else:
            parent, op = None, _OPERATION.get() or self.new_op()
        s = Span(next(self._ids), parent, name, time.perf_counter(),
                 threading.get_ident(), op, True, args)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(s)

    def record(self, name: str, start: float, end: float, op=None,
               **args) -> None:
        """A waiting span (an async request's lifetime): kept in the
        trace file, left out of the self-time attribution."""
        s = Span(next(self._ids), None, name, start,
                 threading.get_ident(), op, False, args)
        s.end = end
        with self._lock:
            self.spans.append(s)


@contextmanager
def operation(op):
    token = _OPERATION.set(op)
    try:
        yield op
    finally:
        _OPERATION.reset(token)


def set_operation(op) -> None:
    """Bind ``op`` for the rest of the current asyncio task."""
    _OPERATION.set(op)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
class Counters:
    """Per-layer counts collected by the wrappers during a traced pass."""

    def __init__(self) -> None:
        self.sweeps = []           # RuntimeStats of every batched_sweep
        self.sweep_walls = []      # wall seconds of every batched_sweep
        self.paired_points = []    # points of every paired (serving) sweep
        self.paired_walls = []     # wall seconds of those sweeps
        self.fallback_calls = 0
        self.orders_dropped = 0
        self.submit_waits = []     # (phase rate, due -> submit seconds)
        self.gc_pauses = []        # (generation, seconds) of collections


def _wrap(tracer: Tracer, fn, name: str, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before()
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _rebind_everywhere(original, wrapper, undo: list) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``wrapper`` (modules import layer functions by name)."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "repro"
                                  or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, original))
                setattr(module, attr, wrapper)


def _rebind(owner, attr: str, wrapper, undo: list) -> None:
    undo.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, wrapper)


def install(tracer: Tracer, counters: Counters, due_time=None):
    """Wrap every measured public layer call; returns the undo function.

    ``due_time`` (serving only) returns the current request's scheduled
    send time and its phase's rate, so ``Coalescer.submit`` can book the
    wait before it.
    """
    # by module path: several packages re-export a function under its
    # module's own name (``repro.core.awesymbolic`` is also a function)
    mod = importlib.import_module
    core_awesymbolic = mod("repro.core.awesymbolic")
    compiled_model = mod("repro.core.compiled_model")
    core_select = mod("repro.core.select")
    mna_assemble = mod("repro.mna.assemble")
    blocks = mod("repro.partition.blocks")
    composite = mod("repro.partition.composite")
    condense = mod("repro.partition.condense")
    batched = mod("repro.runtime.batched")
    tape = mod("repro.symbolic.tape")
    from repro.runtime.stats import RuntimeStats
    from repro.service.coalescer import Coalescer

    undo: list = []

    def everywhere(fn, name):
        _rebind_everywhere(fn, _wrap(tracer, fn, name), undo)

    def method(cls, attr, name, before=None):
        fn = getattr(cls, attr)
        _rebind(cls, attr, _wrap(tracer, fn, name, before), undo)

    # compile pipeline
    method(core_awesymbolic.CompileSession, "compile", "compile")
    everywhere(core_select.select_symbols, "select.symbols")
    everywhere(blocks.partition, "partition.split")
    everywhere(condense.condense_blocks, "partition.condense")
    method(composite.MomentRecursion, "extend", "partition.recursion")
    method(composite.MomentRecursion, "moments", "partition.recursion")
    everywhere(mna_assemble.assemble, "mna.assemble")
    method(composite.SymbolicMoments, "compile", "symbolic.codegen")
    everywhere(tape.tape_from_model, "symbolic.tape")
    everywhere(tape.fuse_moments, "symbolic.tape")

    # sweep pipeline
    def sweep_call(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kwargs.get("stats") is None:
                kwargs["stats"] = RuntimeStats()
            t0 = time.perf_counter()
            with tracer.span("sweep"):
                result = fn(*args, **kwargs)
            wall = time.perf_counter() - t0
            counters.sweeps.append(kwargs["stats"])
            counters.sweep_walls.append(wall)
            if kwargs.get("paired"):
                counters.paired_points.append(int(kwargs["stats"].points))
                counters.paired_walls.append(wall)
            return result
        return wrapper

    _rebind_everywhere(batched.batched_sweep,
                       sweep_call(batched.batched_sweep), undo)
    everywhere(batched.grid_columns, "grid.flatten")
    everywhere(batched.sample_columns, "grid.flatten")

    def fallback_call(fn):
        # a fallback that raises (a quarantined lane) is still a call
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters.fallback_calls += 1
            with tracer.span("fallback"):
                rom = fn(*args, **kwargs)
            counters.orders_dropped += int(rom.dropped_unstable)
            return rom
        return wrapper

    _rebind(batched, "rom_from_moments",
            fallback_call(batched.rom_from_moments), undo)

    # single-point path (the Table 1 iteration)
    _rebind(compiled_model, "rom_from_moments",
            _wrap(tracer, compiled_model.rom_from_moments, "rom.pade"),
            undo)
    method(composite.CompiledMoments, "scalars", "rom.moments")

    # serving
    def submit_before():
        if due_time is not None and due_time() is not None:
            due, rate = due_time()
            counters.submit_waits.append((rate, time.perf_counter() - due))

    method(Coalescer, "submit", "serve.submit", before=submit_before)

    # garbage collections during the pass (traced passes never settle,
    # so every one of them is the program's)
    started = []

    def on_gc(phase, info):
        if phase == "start":
            started.append(time.perf_counter())
        elif started:
            counters.gc_pauses.append(
                (info["generation"], time.perf_counter() - started.pop()))

    gc.callbacks.append(on_gc)

    def uninstall() -> None:
        gc.callbacks.remove(on_gc)
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return uninstall


# ----------------------------------------------------------------------
# attribution and export
# ----------------------------------------------------------------------
def self_times(spans, start: float, end: float) -> tuple[dict, float]:
    """Attribute ``[start, end]`` to busy span kinds; returns
    ``(seconds per span name, seconds attributed to no span)``."""
    by_id = {s.sid: s for s in spans if s.busy}
    events = []
    for s in by_id.values():
        a, b = max(s.start, start), min(s.end, end)
        if b <= a:
            continue
        events.append((a, 1, s.sid))
        events.append((b, 0, s.sid))
    events.sort()
    owned = defaultdict(float)
    unowned = 0.0
    open_ids: set = set()
    open_children: dict = defaultdict(int)
    leaves: set = set()
    prev = start
    for t, kind, sid in events:
        dt = t - prev
        if dt > 0.0:
            if leaves:
                share = dt / len(leaves)
                for leaf in leaves:
                    owned[by_id[leaf].name] += share
            else:
                unowned += dt
            prev = t
        parent = by_id[sid].parent
        if kind == 1:
            if parent in open_ids:
                open_children[parent] += 1
                leaves.discard(parent)
            open_ids.add(sid)
            leaves.add(sid)
        else:
            open_ids.discard(sid)
            leaves.discard(sid)
            if parent in open_ids:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    if end > prev:
        if leaves:
            share = (end - prev) / len(leaves)
            for leaf in leaves:
                owned[by_id[leaf].name] += share
        else:
            unowned += end - prev
    return dict(owned), unowned


def write_chrome_trace(path, spans, origin: float, meta: dict) -> None:
    """Chrome/Perfetto ``traceEvents`` JSON: busy spans as complete
    events per thread, waiting spans as async events per operation."""
    tids: dict = {}
    events = []
    for s in sorted(spans, key=lambda s: s.start):
        args = {"id": s.sid, "parent": s.parent, "op": s.op}
        args.update(s.args)
        ts = (s.start - origin) * 1e6
        if s.busy:
            tid = tids.setdefault(s.tid, len(tids) + 1)
            events.append({"name": s.name, "ph": "X", "ts": ts,
                           "dur": (s.end - s.start) * 1e6, "pid": 1,
                           "tid": tid, "args": args})
        else:
            common = {"name": s.name, "cat": "wait", "pid": 1, "tid": 0,
                      "id": s.sid}
            events.append(dict(common, ph="b", ts=ts, args=args))
            events.append(dict(common, ph="e",
                               ts=(s.end - origin) * 1e6))
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": meta}, fh)
