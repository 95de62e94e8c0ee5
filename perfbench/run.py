#!/usr/bin/env python3
"""stakesim benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload simulate_final --seed 1 --seconds 10 --trace 0

Run from anywhere; paths resolve from this file, and stakesim is imported
from the checkout's src/.  The run:

1. writes the config generated from --seed into .bench_build/perfbench/;
2. starts fresh interpreters that only set up stakesim (import stakesim.cli,
   load_config, reward_matrix) and times each from start to its "ready" line;
3. starts one more, which sets up the same way (its set-up counts too), runs
   the workload's CLI commands back to back for --seconds, checks the
   outputs and writes its result file;
4. prints a readable summary, then as the last line of stdout
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1.

Standard library only; every process it starts is waited for or killed.
See DESIGN.md for the workloads and what each metric is for.
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

import workloads
from calibration import calibrated

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_build" / "perfbench"

# set-up samples per run: SETUP_PROBES processes that only set up, plus the
# measuring process; the median absorbs the first one writing bytecode
SETUP_PROBES = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def declared_metrics(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json declares: "end_to_end"
    or "per_layer".  A run prints exactly these."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in doc[kind]]


def _start(args, work: Path, setup_only: bool, env) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env,
                            cwd=ROOT, text=True)


def _until_ready(proc: subprocess.Popen, t0: float) -> tuple[float, dict, float]:
    """Set-up time seen from here, the worker's inner timings, and the
    calibration it ran right after getting ready."""
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    cal = proc.stdout.readline()
    if not line.startswith("ready ") or not cal.startswith("calibration "):
        raise BenchError(f"worker did not get ready (exit code {proc.wait()})")
    return elapsed, json.loads(line[len("ready "):]), float(cal.split()[1])


def _wait(proc: subprocess.Popen, deadline: float) -> None:
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline") from None
    if code != 0:
        raise BenchError(f"worker exited with code {code}")


def measure(args, work: Path) -> tuple[list[float], list[float], list[dict], dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    deadline = time.monotonic() + DEADLINE_S
    setup_s: list[float] = []
    setup_cal: list[float] = []
    inner: list[dict] = []
    procs: list[subprocess.Popen] = []
    # a worker stuck before its "ready" line would block readline; killing
    # it at the deadline turns that into end-of-file
    watchdog = threading.Timer(DEADLINE_S, lambda: [p.kill() for p in procs])
    watchdog.start()
    try:
        for i in range(SETUP_PROBES + 1):
            last = i == SETUP_PROBES
            t0 = time.perf_counter()
            proc = _start(args, work, setup_only=not last, env=env)
            procs.append(proc)
            elapsed, timings, cal = _until_ready(proc, t0)
            setup_s.append(elapsed)
            setup_cal.append(cal)
            inner.append(timings)
            if not last:
                _wait(proc, deadline)
        _wait(procs[-1], deadline)
    finally:
        watchdog.cancel()
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    return setup_s, setup_cal, inner, json.loads((work / "result.json").read_text())


def main() -> int:
    p = argparse.ArgumentParser(description="Run one stakesim benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    if not (SRC / "stakesim" / "cli.py").is_file():
        print(f"no stakesim sources under {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    work = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "config.json").write_bytes(wl.config_bytes(args.seed))
        setup_s, setup_cal, inner, result = measure(args, work)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        for sub in ("out", "first"):
            shutil.rmtree(work / sub, ignore_errors=True)

    walls = result["walls_s"]["plain"]
    cals = result["calibration_s"]["plain"]
    wall_cal = result["wall_s_calibrated"]
    if args.trace:
        layers = result["layers"]
        layers["stakesim.import_s"] = statistics.median(t["import_s"] for t in inner)
        layers["schemes.reward_matrix.s"] = statistics.median(t["reward_matrix_s"] for t in inner)
        layers["cli.load_config.s"] = statistics.median(t["load_config_s"] for t in inner)
        values = layers
    else:
        values = {
            "wall_s_calibrated": wall_cal,
            "rep_steps_per_s_calibrated": wl.rep_steps / wall_cal,
            "setup_s": calibrated(setup_s, setup_cal),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_metrics("per_layer" if args.trace else "end_to_end")}

    summary = {
        "workload": args.workload, "seed": args.seed,
        "program_seed": workloads.program_seed(args.seed), "trace": args.trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "wall_s": statistics.median(walls), "wall_s_max": max(walls), "wall_s_count": len(walls),
        "rep_steps_per_s": wl.rep_steps / statistics.median(walls),
        "wall_s_samples": walls, "calibration_s_samples": cals,
        "setup_s_raw": statistics.median(setup_s), "setup_s_samples": setup_s,
        "setup_calibration_s_samples": setup_cal, "setup_inner": inner,
        "check_failures": result["failed"] / result["attempted"],
        **{k: v for k, v in result.items() if k not in ("layers",)},
        "metrics": metrics,
    }
    (work / "summary.json").write_text(json.dumps(summary, indent=1))
    print(f"workload {args.workload}  seed {args.seed}  program base_seed "
          f"{summary['program_seed']}  trace {args.trace}")
    print(f"passes {result['attempted']}  failed {result['failed']}  "
          f"check_failures {summary['check_failures']:.3g}")
    for c in result["checks"]:
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}  {c['detail']}")
    for name, sha in (result["outputs_sha256"] or {}).items():
        print(f"  sha256 {name} {sha}")
    print("  versions " + " ".join(f"{k}={v}" for k, v in result["versions"].items()))
    print(f"  wall_s median {summary['wall_s']:.4f} max {max(walls):.4f} n={len(walls)}; "
          f"rep_steps_per_s {summary['rep_steps_per_s']:.6g} (uncalibrated)")
    print("  wall_s samples: " + " ".join(f"{w:.4f}" for w in walls))
    print("  calibration_s samples: " + " ".join(f"{c:.4f}" for c in cals))
    print(f"  setup_s raw median {summary['setup_s_raw']:.4f}; samples "
          + " ".join(f"{s:.4f}" for s in setup_s) + "; calibration "
          + " ".join(f"{c:.4f}" for c in setup_cal))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  results in {work / 'summary.json'}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
