"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-bulk --seed 1 --seconds 16 \\
        --trace 0

Each run starts fresh processes for the workload (see ``child.py``):
a priming process fills the benchmark's native-kernel cache once per
checkout, two set-up-only processes and the measuring process each time
"fresh process to first correct result", and the measuring process then
measures untraced (``--trace 0``: every end-to-end metric) or traced
(``--trace 1``: every per-layer metric) and checks its outputs.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

Everything the run writes stays under ``.perfbench/`` in the working
directory.  Any failed output check, crash or missing metric exits
non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
# byte code goes under .perfbench/ too, never next to the sources
sys.pycache_prefix = os.path.join(os.getcwd(), ".perfbench", "pycache")

import spec  # noqa: E402

#: set-up-only processes per untraced run (plus the measuring one)
SETUP_RUNS = 2
#: a run that is still going after this long is killed
RUN_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(root: str, env: dict, args, mode: str, deadline: float):
    """Start ``child.py`` in ``mode``; returns ``(seconds to READY,
    result payload or None)``."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--root", root]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb_oracle:
        cmd.append("--perturb-oracle")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root,
                            text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                            proc.kill)
    timer.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("PERFBENCH-READY"):
                ready = time.perf_counter() - t0
            elif line.startswith("PERFBENCH-RESULT "):
                result = json.loads(line[len("PERFBENCH-RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise ChildFailed(f"{mode} process exited with status {code}")
    if mode in ("setup", "run", "trace") and ready is None:
        raise ChildFailed(f"{mode} process never became ready")
    if mode in ("run", "trace") and result is None:
        raise ChildFailed(f"{mode} process printed no result")
    return ready, result


def environment(root: str, workload: str) -> dict:
    scratch = os.path.join(root, ".perfbench")
    for sub in ("tmp", "native", "results"):
        os.makedirs(os.path.join(scratch, sub), exist_ok=True)
    env = dict(os.environ)
    # byte code cached as an installed package has it: the first process
    # in a checkout compiles, later ones load (under .perfbench/pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({
        "PYTHONPATH": os.path.join(root, "src"),
        "PYTHONHASHSEED": str(spec.HASH_SEEDS[workload]),
        "REPRO_NATIVE_CACHE": os.path.join(scratch, "native"),
        "TMPDIR": os.path.join(scratch, "tmp"),
        "PYTHONPYCACHEPREFIX": os.path.join(scratch, "pycache"),
    })
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--perturb-oracle", action="store_true",
                        help="offset every reference value (must fail)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro missing)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = environment(root, args.workload)
    try:
        marker = os.path.join(root, ".perfbench", "native",
                              f"primed-{args.workload}")
        if not os.path.exists(marker):
            run_child(root, env, args, "prime", deadline)
            open(marker, "w").close()
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS):
                setups.append(run_child(root, env, args, "setup",
                                        deadline)[0])
        ready, result = run_child(root, env, args,
                                  "trace" if args.trace else "run", deadline)
        setups.append(ready)
    except ChildFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    measured = dict(result["metrics"])
    if args.trace:
        names = spec.PER_LAYER
    else:
        measured["setup_s"] = statistics.median(setups)
        measured["peak_rss_mb"] = result["peak_rss_mb"]
        measured["served_share"] = 1.0 - (result["failed"]
                                          / result["attempted"])
        names = [(name, unit) for name, unit, _better in spec.END_TO_END]
    metrics = {}
    for name, unit in names:
        value = measured.get(name)
        if value is None or not math.isfinite(value) or (
                not args.trace and value <= 0):
            print(f"perfbench: {args.workload}: metric {name} = {value!r}",
                  file=sys.stderr)
            return 1
        metrics[name] = {"value": float(value), "unit": unit}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_samples_s": setups, "metrics": metrics,
              "oracle": result["oracle"], "env": result["env"],
              "details": result["details"]}
    path = os.path.join(root, ".perfbench", "results",
                        f"{args.workload}-seed{args.seed}-trace"
                        f"{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:38s} {m['value']:14.6g} "
              f"{m['unit']}")
    env_line = " ".join(f"{k}={v}" for k, v in result["env"].items())
    print(f"env: {env_line}")
    print(f"details: {os.path.relpath(path, root)}")
    print(json.dumps({"correct": True, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
