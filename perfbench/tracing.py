"""In-memory spans around calls into stakesim's public functions.

Spans are recorded from the benchmark's side only: `patched` swaps the names
the CLI and the library look up for wrappers, and puts the originals back on
exit.  Nothing inside a function (such as montecarlo's chunk kernel) is
timed.  A span is [name, start_ns, end_ns, parent_index, run_id]; spans of
one pass of a workload's commands share a run id.
"""
from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = "setup"
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter_ns(), 0, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


class NullTracer:
    """Stand-in with the same `call` for untraced runs."""

    run_id = "setup"

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """targets: (owner, attribute, span name) tuples."""
    saved = []
    try:
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def stakesim_targets():
    """Every public boundary the workloads cross, named module.function.

    Names are patched where the caller looks them up: `cli` imports
    run_experiment, predict and friends into its own namespace, and
    montecarlo imports the scheme constructors and urn helpers.
    """
    from stakesim import analytics, cli, montecarlo, schemes

    targets = [
        (cli, f, f"cli.{f}")
        for f in ("load_config", "serialize_config", "write_samples_csv", "write_stats_csv",
                  "load_samples_csv", "render_histogram_svg", "builtin_benchmark_configs",
                  "table1_report", "write_report_csv")
    ]
    targets += [
        (cli, "run_experiment", "montecarlo.run_experiment"),
        (cli, "predict", "analytics.predict"),
        (cli, "beta_limit_params", "analytics.beta_limit_params"),
        (cli, "empirical_stats", "analytics.empirical_stats"),
        (montecarlo.ExperimentConfig, "reward_matrix", "montecarlo.ExperimentConfig.reward_matrix"),
        (montecarlo.TimeSeries, "mean", "montecarlo.TimeSeries.mean"),
        (montecarlo.TimeSeries, "variance", "montecarlo.TimeSeries.variance"),
        (montecarlo, "frd_matrix", "schemes.frd_matrix"),
        (montecarlo, "constant_matrix", "schemes.constant_matrix"),
        (montecarlo, "custom_matrix", "schemes.custom_matrix"),
        (montecarlo, "recorded_steps", "urn.recorded_steps"),
        (montecarlo, "stake_vector", "urn.stake_vector"),
        (analytics, "classify_regime", "schemes.classify_regime"),
        (analytics, "stake_vector", "urn.stake_vector"),
        (schemes, "stake_vector", "urn.stake_vector"),
    ]
    return targets


def self_ns(spans) -> list[int]:
    """Each span's duration minus the part its child spans cover.  Spans
    come from one thread, so children nest and never overlap."""
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, covered)]


def per_run(spans, run_ids):
    """{run_id: {name: [inclusive_ns, self_ns, calls]}} over the given runs.
    Inclusive time counts only outermost spans of a name, so recursion
    would not be counted twice."""
    selfs = self_ns(spans)
    wanted = set(run_ids)
    out = {r: defaultdict(lambda: [0, 0, 0]) for r in run_ids}
    for i, (name, start, end, parent, run) in enumerate(spans):
        if run not in wanted:
            continue
        entry = out[run][name]
        entry[1] += selfs[i]
        entry[2] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            entry[0] += end - start
    return out


def median_over_runs(table, run_ids, name: str, field: int) -> float:
    """Median across runs of one name's field, in seconds (0 when absent)."""
    return statistics.median(table[r][name][field] if name in table[r] else 0
                             for r in run_ids) / 1e9


def layer_self_s(table, run_ids, layer: str) -> float:
    """Median across runs of the summed self time of a module's spans."""
    prefix = layer + "."
    return statistics.median(
        sum(v[1] for k, v in table[r].items() if k.startswith(prefix)) for r in run_ids
    ) / 1e9
