"""Output checks for the benchmark's workloads.

Each check returns (name, ok, detail).  The moment oracle is
`analytics.exact_stake_moments` with (w, l) worked out here from the scheme
definitions, not read from the program's reward matrix.  No golden bytes are
pinned: stream changes re-roll every sample, so bytes are compared only
between two routes through the same code.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

import workloads
from stakesim import analytics, cli, montecarlo

# a fixed number of standard errors; far enough out that a correct program
# fails once in about 1e8 checks
Z = 6.0


def exact_fraction_moments(tracer, stakes, scheme: str, budget: float, n: int, node: int):
    """Exact mean and variance of one node's fraction after n slots."""
    s0 = float(sum(stakes))
    si = float(stakes[node])
    if scheme == "frd":
        l = si / s0 * budget / 2.0
        w = l + budget / 2.0
    else:
        w, l = budget, 0.0
    m1, var = tracer.call("analytics.exact_stake_moments", analytics.exact_stake_moments,
                          si, s0, w, l, budget, n)
    total = s0 + n * budget
    return m1 / total, var / (total * total)


def moments_check(name, samples, exact):
    """Empirical mean and unbiased variance of `samples` against exact
    ones, within Z standard errors; the variance's standard error uses the
    samples' fourth central moment."""
    mean_ex, var_ex = exact
    count = samples.size
    mean, var = float(samples.mean()), float(samples.var(ddof=1))
    m4 = float(np.mean((samples - mean) ** 4))
    se_mean = math.sqrt(var_ex / count)
    se_var = math.sqrt(max(m4 - var * var * (count - 3) / (count - 1), 0.0) / count)
    ok = abs(mean - mean_ex) <= Z * se_mean and abs(var - var_ex) <= Z * se_var
    detail = (f"mean {mean:.6g} vs {mean_ex:.6g} (se {se_mean:.3g}), "
              f"var {var:.6g} vs {var_ex:.6g} (se {se_var:.3g})")
    return name, ok, detail


def _parse_samples(data: bytes, reps: int, nodes: int):
    """Independent parse of samples.csv into a (reps, nodes) array."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    if rows[0] != ["rep", "node", "final_fraction"] or len(rows) != 1 + reps * nodes:
        return None
    arr = np.array([[float(r[0]), float(r[1]), float(r[2])] for r in rows[1:]])
    expected_index = np.stack([np.repeat(np.arange(reps), nodes),
                               np.tile(np.arange(nodes), reps)], axis=1)
    if not np.array_equal(arr[:, :2], expected_index):
        return None
    return arr[:, 2].reshape(reps, nodes)


def check_simulate(tracer, config_bytes: bytes, out: Path):
    config = cli.load_config(config_bytes)
    reps, m, n = config.repetitions, config.num_nodes, config.steps_n
    found = []
    samples = _parse_samples((out / "samples.csv").read_bytes(), reps, m)
    found.append(("samples.csv layout", samples is not None, f"{reps} reps x {m} nodes"))
    if samples is None:
        return found
    in_range = bool(np.all((samples >= 0.0) & (samples <= 1.0)))
    sums_to_one = bool(np.all(np.abs(samples.sum(axis=1) - 1.0) <= 1e-12))
    found.append(("fractions in [0,1] and sum to 1", in_range and sums_to_one, ""))
    x = samples[:, 0]
    exact = exact_fraction_moments(tracer, config.initial_stakes, config.scheme,
                                   config.reward_budget_K, n, 0)
    found.append(moments_check("node 0 final moments (samples.csv)", x, exact))

    svg = (out / "hist.svg").read_bytes()
    well_formed = svg.startswith(b"<svg") and svg.endswith(b"</svg>\n")
    found.append(("hist.svg has 100 bars", well_formed and svg.count(b"<rect ") == 101, ""))

    stats = (out / "stats.csv").read_bytes()
    if config.record.stride == 0:
        found.append(("stats.csv is header only", stats == b"step,node,mean,variance\n", ""))
        # the determinism promise across worker counts, and with it the pool
        # and chunking path (a recorded run fits in one chunk)
        result = tracer.call("montecarlo.run_experiment", montecarlo.run_experiment,
                             config, workers=2)
        same = (out / "samples.csv").read_bytes() == cli.write_samples_csv(result)
        found.append(("samples.csv byte-identical to the 2-worker run", same, ""))
    else:
        half = reps // 2
        parts = [tracer.call("montecarlo.run_experiment", montecarlo.run_experiment,
                             config, rep_range=r) for r in ((0, half), (half, reps))]
        merged = tracer.call("montecarlo.merge_results", montecarlo.merge_results, parts)
        expected = cli.write_stats_csv(merged.time_series)
        found.append(("stats.csv equals the merge of two rep_range halves", stats == expected,
                      f"{len(stats)} bytes"))
        last = [row for row in csv.reader(io.StringIO(stats.decode()))
                if row[0] == str(n) and row[1] == "0"]
        # exact sums in the program, numpy's in the check: equal to rounding
        found.append(("stats.csv final step for node 0 matches samples.csv",
                      len(last) == 1 and np.allclose([float(v) for v in last[0][2:]],
                                                     [x.mean(), x.var(ddof=1)],
                                                     rtol=1e-9, atol=0.0),
                      f"{last[0][2:] if last else None}"))
    return found


def table1_configs(workload, seed_base: int):
    """(label, config) of every run `table1` makes, in its order: each
    stock setup under the constant scheme, then under frd."""
    return [(label, replace(config, scheme=scheme, custom_entries=None))
            for label, config in cli.builtin_benchmark_configs(
                repetitions=workload.repetitions, base_seed=seed_base)
            for scheme in ("constant", "frd")]


def workload_configs(workload, seed: int, config_bytes: bytes):
    """The configs a pass of the workload's commands runs, in order."""
    if workload.table1:
        return [c for _, c in table1_configs(workload, workloads.program_seed(seed))]
    return [cli.load_config(config_bytes)]


def _stats_cells(samples) -> list[str]:
    """Mean and unbiased variance as the CLI writes them (17 digits)."""
    return [format(float(samples.mean()), ".17g"), format(float(samples.var(ddof=1)), ".17g")]


def check_table1(tracer, workload, seed: int, out: Path):
    """Reruns every row's experiment: the report's mean and variance must
    be the samples' own, digit for digit, and those samples must match the
    exact moments."""
    runs = table1_configs(workload, workloads.program_seed(seed))
    rows = list(csv.DictReader(io.StringIO((out / "report.csv").read_text())))
    by_key = {(r["label"], r["scheme"]): r for r in rows}
    wanted = [(label, config.scheme) for label, config in runs]
    found = [("report.csv has one row per setup and scheme",
              len(rows) == len(wanted) and set(by_key) == set(wanted), f"{len(rows)} rows")]
    for label, config in runs:
        row = by_key.get((label, config.scheme))
        if row is None:
            continue
        node = config.tracked_nodes()[0]
        result = tracer.call("montecarlo.run_experiment", montecarlo.run_experiment, config)
        samples = result.final_fractions[:, node]
        name = f"{label} {config.scheme} node {node}"
        found.append((f"{name} report equals its rerun",
                      [row["mean_emp"], row["var_emp"]] == _stats_cells(samples), ""))
        exact = exact_fraction_moments(tracer, config.initial_stakes, config.scheme,
                                       config.reward_budget_K, config.steps_n, node)
        found.append(moments_check(f"{name} moments", samples, exact))
    return found
