"""One workload in one fresh process; ``run.py`` starts it.

Modes:

* ``prime`` — build the workload's native kernels into the benchmark's
  on-disk kernel cache (users pay that build once, not per run);
* ``setup`` — set up, print ``PERFBENCH-READY``, exit (``setup_s``);
* ``run`` / ``trace`` — set up, print ``PERFBENCH-READY``, measure
  untraced / traced, check every output, then print
  ``PERFBENCH-RESULT <json>``.

A failed output check exits with status 3 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def env_info(flavor: str | None) -> dict:
    import numpy as np
    return {"cpu_count": os.cpu_count(), "numpy": np.__version__,
            "python": platform.python_version(),
            "native_flavor": flavor, "cc": shutil.which("cc"),
            "hash_seed": os.environ.get("PYTHONHASHSEED")}


def native_flavor(model) -> str | None:
    """The native kernel flavor this machine builds (None: none)."""
    from repro.runtime.native import NativeUnavailable, native_kernel_for
    fn = model.compiled_moments.fn
    try:
        return native_kernel_for(fn, (True,) * len(fn.space.symbols)).flavor
    except NativeUnavailable:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("prime", "setup", "run", "trace"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--perturb-oracle", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    import repro
    src = os.path.join(os.path.abspath(args.root), "src")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"repro imported from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import workloads
    from common import CheckFailed, peak_rss_mb

    scratch = os.path.join(os.path.abspath(args.root), ".perfbench")
    wl = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, args.tiny, scratch,
        perturb=1e-3 if args.perturb_oracle else 0.0)
    try:
        if args.mode == "prime":
            wl.build()
            for key in wl.compile_keys:
                native_flavor(wl.specs[key].compile().model)
            return 0
        wl.setup()
        print("PERFBENCH-READY", flush=True)
        if args.mode == "setup":
            return 0
        metrics = wl.measure() if args.mode == "run" else wl.trace()
        rss = peak_rss_mb()
        wl.check()
        if args.mode == "trace":
            metrics.update(wl.check_counts())
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 4
    finally:
        from repro.runtime import shutdown_pools
        shutdown_pools()
        for worker in multiprocessing.active_children():
            worker.join(timeout=30)
    payload = {
        "metrics": metrics, "peak_rss_mb": rss,
        "attempted": wl.attempted, "failed": wl.failed,
        "oracle": wl.check_counts(),
        "details": wl.details,
        "env": env_info(native_flavor(wl.main()[1])),
    }
    print("PERFBENCH-RESULT " + json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
