"""Repository benchmark: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload abr-decide --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate traced run reporting the per-layer metrics.
The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``; the line before it describes the run (environment
stamp, tree and served-artifact hashes, sample counts).  Workloads and
metric definitions are in ``perfbench/README.md``.

The program is imported from ``src/``; nothing is installed.  Kernel
caches and temporary files live in ``.perfbench-tmp/`` under the root
and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A run that takes longer than this is stopped: its thread stacks go to
#: standard error, its child processes are killed and reaped, and it
#: exits with code 3 without a result.
WATCHDOG_S = 160.0


def _remove_scratch(scratch: Path) -> None:
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        scratch.parent.rmdir()  # other runs may still be using it
    except OSError:
        pass


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except OSError:
        pass


def _stop_children(children) -> None:
    """Stop every process the run started and wait for each to end.

    The cluster tier starts the multiprocessing resource tracker for its
    shared memory; left alone it outlives the run by the moment it takes
    to notice the run is gone.  Any other child still alive (a shard
    worker the tier failed to stop) is killed first, because every fork
    child holds the tracker's pipe open.  The tracker is then sent EOF
    and given a few seconds to unlink any segment left behind, and killed
    if it has not ended by then.  Its lock is not taken: the watchdog and
    the signal handlers call this while another thread may hold it.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    for pid in children():
        if pid != tracker._pid:
            _kill(pid)
    fd, pid = tracker._fd, tracker._pid
    if pid is None:
        return
    tracker._fd = tracker._pid = None
    try:
        os.close(fd)
    except OSError:
        pass
    for _ in range(100):
        try:
            if os.waitpid(pid, os.WNOHANG)[0]:
                return
        except OSError:
            return
        time.sleep(0.05)
    _kill(pid)


def _abort(scratch: Path, children, code: int) -> None:
    """End the run at once, without a result: stop every child, remove
    the scratch space and exit with ``code``."""
    _stop_children(children)
    _remove_scratch(scratch)
    os._exit(code)


def _start_watchdog(scratch: Path, children) -> threading.Timer:
    def fire() -> None:
        print(f"run exceeded {WATCHDOG_S:.0f}s; thread stacks follow",
              file=sys.stderr, flush=True)
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        _abort(scratch, children, 3)

    timer = threading.Timer(WATCHDOG_S, fire)
    timer.daemon = True
    timer.start()
    return timer


def _stamp() -> dict:
    """Environment the numbers were measured in."""
    import numpy as np

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True,
                            text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        cc = "unavailable"
    git_sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": git_sha,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cc": cc,
        "switch_interval_s": sys.getswitchinterval(),
        "REPRO_TREE_BACKEND": os.environ.get("REPRO_TREE_BACKEND", "unset"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"no program to benchmark under {ROOT}: src/repro or "
              f"BENCHMARK.json is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    # Import the program from source without writing bytecode into the
    # tree, and keep every file the run writes inside the root.
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ.pop("REPRO_POSTMORTEM_DIR", None)
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".perfbench-tmp" / str(os.getpid())
    scratch.mkdir(parents=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        import layers
        import workloads

        table = layers.TRACED if args.trace else workloads.UNTRACED
        if args.workload not in table:
            print(f"unknown workload {args.workload!r}; expected one of "
                  f"{sorted(table)}", file=sys.stderr)
            return 2
        watchdog = _start_watchdog(scratch, workloads.children)
        # A run told to stop stops what it started and exits at once.
        # Unwinding instead would cancel the clients' futures under the
        # tier, whose close() then waits for answers it can no longer
        # deliver.
        handlers = {
            signum: signal.signal(signum, lambda signum, _frame: _abort(
                scratch, workloads.children, 128 + signum))
            for signum in (signal.SIGTERM, signal.SIGHUP, signal.SIGINT)
        }
        try:
            result = table[args.workload](workloads.Run(scratch),
                                          args.workload, args.seed,
                                          args.seconds)
        finally:
            _stop_children(workloads.children)
            for signum, handler in handlers.items():
                signal.signal(signum, handler)
        watchdog.cancel()
    finally:
        _remove_scratch(scratch)

    metrics = result["metrics"]
    missing = sorted(set(units) - set(metrics))
    bad = sorted(k for k in units
                 if k in metrics and not math.isfinite(metrics[k]))
    if missing or bad:
        print(f"metrics missing {missing} or not finite {bad}",
              file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "env": _stamp(),
                      **result["info"]}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
