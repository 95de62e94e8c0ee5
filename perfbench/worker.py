"""One benchmark process, started by run.py with PYTHONPATH pointing at src.

It sets up stakesim (import, load_config, reward_matrix), prints a "ready"
line, then a "calibration" line, and with --setup-only stops there.
Otherwise it runs the workload's CLI commands in a closed loop (one command
at a time, in this process) for --seconds, with a calibration before and
after each pass, checks the outputs, and writes a JSON result file.  With
--trace 1 the first half of the time runs untraced and the second half
traced, so the tracing overhead is measured within one process; the traced
run then times the layer probes the workload's commands do not cover on
their own.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import tracing
import workloads
from calibration import calibrate, calibrated, scaled

# repetitions fed to the scalar-path and accumulator probes (per-rate
# metrics, so a slice of the workload is enough)
TRAJECTORY_PROBE_REPS = 16
ACCUMULATOR_PROBE_VALUES = 40_000


def _setup(config_bytes: bytes) -> tuple[dict, object]:
    t0 = time.perf_counter()
    import stakesim.cli as cli
    t1 = time.perf_counter()
    config = cli.load_config(config_bytes)
    t2 = time.perf_counter()
    config.reward_matrix()
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "load_config_s": t2 - t1, "reward_matrix_s": t3 - t2}, cli


def _hashes(out: Path, names) -> dict:
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest()
            if (out / n).exists() else None for n in names}


def _versions(cli) -> dict:
    """Versions of what is measured; the source digest stands in for the
    commit, since a benchmark checkout need not be a git repository."""
    import numpy
    import scipy
    import stakesim

    package = Path(cli.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "stakesim": stakesim.__version__,
            "stakesim_source_sha256": digest.hexdigest()}


def _peak_rss_mb() -> float:
    """Peak RSS of this process (ru_maxrss is in KiB).  The workloads run
    on one worker, so no pool process exists while the passes run."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    work = Path(args.dir)
    config_path = work / "config.json"
    config_bytes = config_path.read_bytes()
    setup, cli = _setup(config_bytes)
    print("ready " + json.dumps(setup), flush=True)
    print(f"calibration {calibrate()!r}", flush=True)
    if args.setup_only:
        return 0

    import checks
    from stakesim import montecarlo, urn

    src = (Path(__file__).resolve().parent.parent / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"stakesim imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    wl = workloads.WORKLOADS[args.workload]
    out = work / "out"
    ref = work / "first"
    commands = wl.commands(args.seed, str(config_path), str(out))
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()

    def one_pass() -> tuple[float, bool]:
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            codes = [tracer.call("cli.main", cli.main, argv) for argv in commands]
        return time.perf_counter() - t0, all(c == 0 for c in codes)

    phases = [("plain", args.seconds)]
    if args.trace:
        phases = [("plain", args.seconds / 2), ("traced", args.seconds / 2)]
    walls: dict[str, list[float]] = {name: [] for name, _ in phases}
    cals: dict[str, list[float]] = {name: [] for name, _ in phases}
    traced_runs: list[str] = []
    first_hashes = None
    attempted = failed = 0
    for phase, seconds in phases:
        ctx = (tracing.patched(tracer, tracing.stakesim_targets()) if phase == "traced"
               else contextlib.nullcontext())
        with ctx:
            deadline = time.perf_counter() + seconds
            # stop before a pass would overrun: runs last --seconds, not
            # --seconds plus most of a pass
            while not walls[phase] or (time.perf_counter() + statistics.median(
                    w + 2 * c for w, c in zip(walls[phase], cals[phase])) <= deadline):
                tracer.run_id = f"pass-{attempted}"
                if phase == "traced":
                    traced_runs.append(tracer.run_id)
                before = calibrate()
                wall, ok = one_pass()
                cals[phase].append((before + calibrate()) / 2)
                walls[phase].append(wall)
                hashes = _hashes(out, wl.outputs)
                if first_hashes is None:
                    first_hashes = hashes
                    shutil.copytree(out, ref)
                attempted += 1
                failed += not (ok and hashes == first_hashes and None not in hashes.values())
    peak_rss_mb = _peak_rss_mb()

    tracer.run_id = "check"
    if wl.table1:
        found = checks.check_table1(tracer, wl, args.seed, ref)
    else:
        found = checks.check_simulate(tracer, config_bytes, ref)
    if not all(ok for _, ok, _ in found):
        failed = attempted  # every pass wrote the checked bytes, or already failed

    result = {
        "attempted": attempted,
        "failed": failed,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in found],
        "outputs_sha256": first_hashes,
        "walls_s": walls,
        "calibration_s": cals,
        "wall_s_calibrated": calibrated(walls["plain"], cals["plain"]),
        "peak_rss_mb": peak_rss_mb,
        "setup": setup,
        "versions": _versions(cli),
    }
    if args.trace:
        tracer.run_id = "probe"
        configs = checks.workload_configs(wl, args.seed, config_bytes)
        result["layers"] = _layer_metrics(tracer, traced_runs, walls, cals, ref, configs,
                                          montecarlo, urn)
        spans_path = work / "spans.json"
        spans_path.write_text(json.dumps(tracer.spans))
        result["spans_file"] = str(spans_path)
    (work / "result.json").write_text(json.dumps(result, indent=1))
    return 0


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - t0, value


def _scaled_runs(run_experiment, configs, workers: int) -> tuple[float, list]:
    """Total time of run_experiment over the configs, between two
    calibrations and scaled to the reference speed, and the results."""
    before = calibrate()
    timed = [_timed(run_experiment, config, workers=workers) for config in configs]
    total = sum(t for t, _ in timed)
    return scaled(total, (before + calibrate()) / 2), [r for _, r in timed]


def _stride_zero(config):
    """The same config without time-series recording."""
    return replace(config, record=replace(config.record, stride=0))


def _layer_metrics(tracer, runs, walls, cals, out, configs, montecarlo, urn) -> dict:
    """Per-layer numbers from the traced passes, plus probes for what the
    passes cannot show alone: recording cost, 1- against 2-worker time, the
    exact accumulator's rate and the scalar path's rate.  `configs` are the
    runs one pass makes, all on one worker."""
    table = tracing.per_run(tracer.spans, runs)

    def med(name, field=0):
        return tracing.median_over_runs(table, runs, name, field)

    run_s = med("montecarlo.run_experiment")
    rep_steps = sum(c.repetitions * c.steps_n for c in configs)

    # The same runs without time-series recording, and on 2 workers.  They
    # run after the passes, so both sides of each comparison are scaled to
    # the reference speed.
    serial_s = calibrated([table[r]["montecarlo.run_experiment"][0] / 1e9 for r in runs],
                          cals["traced"])
    twin_s, twin_results = _scaled_runs(montecarlo.run_experiment,
                                        [_stride_zero(c) for c in configs], workers=1)
    parallel_s, _ = _scaled_runs(montecarlo.run_experiment, configs, workers=2)

    recorded_values = sum(
        c.repetitions * len(urn.recorded_steps(c.steps_n, c.record.stride)) * len(c.tracked_nodes())
        for c in configs if c.record.stride > 0
    )
    values = twin_results[0].final_fractions.ravel()[:ACCUMULATOR_PROBE_VALUES]
    acc_s, _ = _timed(tracer.call, "montecarlo.RunningMoments.add_values",
                      montecarlo.RunningMoments().add_values, values)

    first = configs[0]
    matrix = first.reward_matrix()
    traj_s = sum(
        _timed(tracer.call, "urn.simulate_trajectory", urn.simulate_trajectory,
               urn.new_state(first.initial_stakes), matrix, first.steps_n, first.base_seed + r)[0]
        for r in range(TRAJECTORY_PROBE_REPS))

    check = tracing.per_run(tracer.spans, ["check"])["check"]
    esm_ns, _, esm_calls = check.get("analytics.exact_stake_moments", [0, 0, 0])
    traced_wall = calibrated(walls["traced"], cals["traced"])

    def size(name):
        path = out / name
        return path.stat().st_size if path.exists() else 0

    return {
        "montecarlo.run_experiment.s": run_s,
        "montecarlo.run_experiment.ns_per_rep_step": run_s * 1e9 / rep_steps,
        "montecarlo.rep_steps": rep_steps,
        "montecarlo.record_overhead_s": serial_s - twin_s,
        "montecarlo.RunningMoments.add_values.ns_per_value": acc_s * 1e9 / len(values),
        "montecarlo.RunningMoments.values": recorded_values,
        "montecarlo.parallel_speedup": serial_s / parallel_s,
        "montecarlo.merge_results.s": check.get("montecarlo.merge_results", [0])[0] / 1e9,
        "montecarlo.draw_bytes": rep_steps * 8,
        "cli.write_samples_csv.s": med("cli.write_samples_csv"),
        "cli.write_samples_csv.bytes": size("samples.csv"),
        "cli.load_samples_csv.s": med("cli.load_samples_csv"),
        "cli.render_histogram_svg.s": med("cli.render_histogram_svg"),
        "cli.write_stats_csv.s": med("cli.write_stats_csv"),
        "cli.write_stats_csv.bytes": size("stats.csv"),
        "cli.table1_report.self_s": med("cli.table1_report", 1),
        "analytics.predict.s": med("analytics.predict"),
        "analytics.beta_limit_params.s": med("analytics.beta_limit_params"),
        "analytics.empirical_stats.s": med("analytics.empirical_stats"),
        "analytics.exact_stake_moments.ns_per_step": esm_ns / max(1, esm_calls * first.steps_n),
        "urn.simulate_trajectory.ns_per_slot":
            traj_s * 1e9 / (TRAJECTORY_PROBE_REPS * first.steps_n),
        **{f"layer.{m}.self_s": tracing.layer_self_s(table, runs, m)
           for m in ("cli", "montecarlo", "analytics", "schemes", "urn")},
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - calibrated(walls["plain"], cals["plain"]),
        "trace.spans": len(tracer.spans),
    }


if __name__ == "__main__":
    sys.exit(main())
