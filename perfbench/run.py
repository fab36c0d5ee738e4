"""Run one charshock benchmark workload and print its result line.

    python3 perfbench/run.py --workload focus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Set-up is timed in several fresh processes and reported as their median.
The workload itself runs in one more fresh process (see worker.py), whose
peak resident memory this process reads when it exits. Every child runs
with ``CHARSHOCK_WORKERS`` unset and BLAS/OpenMP pinned to one thread.

The last line of stdout is the result, with the end-to-end metrics under
``--trace 0`` and the per-layer figures under ``--trace 1``; the line
before it records the checks, the workload's own figures, the pass count
and the Python, numpy, scipy and CPU counts of the run. ``--smoke`` runs
the reduced-size inputs of the benchmark's own test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
from layers import PER_LAYER  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("focus", "reach_sigma", "calibrate")
SETUP_PROBES = 4        # set-up processes besides the measured one
TIME_LIMIT = 170.0      # seconds a whole run may take
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("CHARSHOCK_WORKERS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv, timeout):
    """Run worker.py; return its JSON output and its peak RSS in MB."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RunFailed(f"worker {' '.join(argv[:2])} exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise RunFailed("worker printed no result")
    return json.loads(lines[-1]), usage.ru_maxrss * 1024 / 1e6


def measure(args, workdir, deadline):
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--workdir", str(workdir)] + (["--smoke"] if args.smoke else [])

    def probe():
        return run_child(base + ["--setup-only"], deadline - time.monotonic())[0]["setup_s"]

    # half the probes before the workload and half after, so that a slow
    # stretch of the machine sways fewer of the set-up samples
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    res, rss = run_child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                         deadline - time.monotonic())
    setups += [res["setup_s"]] + [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    info = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "passes": len(res["walls"]), "walls_s": res["walls"], "setups_s": setups,
            "checks": res["checks"], "figures": res["figures"],
            "versions": dict(res["versions"], nproc=len(os.sched_getaffinity(0)),
                             cpu_count=os.cpu_count())}
    if args.trace:
        info["layer_totals"] = res["layer_totals"]
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return info, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced-size inputs, for the benchmark's own test")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "charshock" / "__init__.py").is_file():
        print(f"error: no charshock package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    out_root = ROOT / ".perfbench_out"
    workdir = out_root / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        info, result = measure(args, workdir, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
