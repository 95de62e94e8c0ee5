"""Config ingestion, CSV/JSON/SVG emission, and the command-line surface.

Exit codes: 0 success, 2 config error, 3 runtime error.  Floating-point
values in CSVs are printed with 17 significant digits so emitted files can
be compared and replayed bit-exactly.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .analytics import BetaParams, SampleStats, beta_limit_params, empirical_stats, predict
from .errors import (
    DegenerateBeta, InvalidInput, ParseError, SchemaError, StakeSimError, check_integer,
)
from .montecarlo import (
    ExperimentConfig,
    ExperimentResult,
    RecordPolicy,
    TimeSeries,
    run_experiment,
    run_experiments,
)
from .schemes import RewardMatrix
from .urn import STREAM_VERSION

DEFAULT_TABLE_SEED = 1009
DEFAULT_TABLE_REPS = 20_000

_TOP_KEYS = ("initial_stakes", "scheme", "reward_budget_K", "steps_n",
             "repetitions", "base_seed", "record")
_REQUIRED_KEYS = _TOP_KEYS[:-1]
_RECORD_KEYS = ("stride", "track_nodes")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load_config(data: bytes | str) -> ExperimentConfig:
    """Parse a JSON experiment config.  Unknown keys are rejected; `record`
    is optional (defaults: stride 0, track all nodes).

    Only the JSON layer is checked here: syntax, keys and JSON shapes.  The
    value rules, integrality included, are ExperimentConfig's and
    RecordPolicy's; their InvalidInput, and the OverflowError of a number
    too large for a float, come out as SchemaError("config", ...).
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(1, "config is not valid UTF-8") from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise ParseError(e.lineno, e.msg) from None
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be a JSON object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise SchemaError(key, "unknown key")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise SchemaError(key, "required key missing")

    stakes = doc["initial_stakes"]
    if not isinstance(stakes, list) or not all(_is_number(x) for x in stakes):
        raise SchemaError("initial_stakes", "must be an array of numbers")

    scheme = doc["scheme"]
    custom_entries = None
    if isinstance(scheme, str):
        if scheme not in ("constant", "frd"):
            raise SchemaError("scheme", f"must be 'constant', 'frd', or {{'custom': ...}}, got {scheme!r}")
    elif isinstance(scheme, dict):
        if set(scheme) != {"custom"}:
            raise SchemaError("scheme", "object form must have exactly the key 'custom'")
        rows = scheme["custom"]
        if (not isinstance(rows, list)
                or not all(isinstance(r, list) and all(_is_number(x) for x in r) for r in rows)):
            raise SchemaError("scheme", "'custom' must be an array of arrays of numbers")
        custom_entries = rows
        scheme = "custom"
    else:
        raise SchemaError("scheme", "must be a string or a {'custom': ...} object")

    if not _is_number(doc["reward_budget_K"]):
        raise SchemaError("reward_budget_K", "must be a number")

    rec = doc.get("record", {})
    if not isinstance(rec, dict):
        raise SchemaError("record", "must be an object")
    for key in rec:
        if key not in _RECORD_KEYS:
            raise SchemaError(f"record.{key}", "unknown key")
    track = rec.get("track_nodes")
    if track is not None and not isinstance(track, list):
        raise SchemaError("record.track_nodes", "must be an array")

    try:
        config = ExperimentConfig(
            initial_stakes=tuple(float(x) for x in stakes),
            scheme=scheme,
            reward_budget_K=float(doc["reward_budget_K"]),
            steps_n=doc["steps_n"],
            repetitions=doc["repetitions"],
            base_seed=doc["base_seed"],
            record=RecordPolicy(stride=rec.get("stride", 0), track_nodes=track),
            custom_entries=custom_entries,
        )
    except (ValueError, OverflowError) as e:
        raise SchemaError("config", str(e)) from None
    return config


def serialize_config(config: ExperimentConfig) -> dict:
    """JSON-ready dict; load_config(json.dumps(...)) round-trips exactly."""
    scheme: object = config.scheme
    if config.scheme == "custom":
        scheme = {"custom": [list(row) for row in config.custom_entries]}
    record: dict[str, object] = {"stride": config.record.stride}
    if config.record.track_nodes is not None:
        record["track_nodes"] = list(config.record.track_nodes)
    return {
        "initial_stakes": list(config.initial_stakes),
        "scheme": scheme,
        "reward_budget_K": config.reward_budget_K,
        "steps_n": config.steps_n,
        "repetitions": config.repetitions,
        "base_seed": config.base_seed,
        "record": record,
    }


# --- CSV ----------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(x, ".17g")


def _format_rows(header: str, row_format: str, columns: Sequence[list]) -> bytes:
    """The header line, then one row_format line per row of the equal-length
    columns, all formatted by one % call (%.17g is _fmt's text)."""
    rows = len(columns[0])
    cells = [None] * (len(columns) * rows)
    for i, column in enumerate(columns):
        cells[i::len(columns)] = column
    return (header + "\n" + (row_format + "\n") * rows % tuple(cells)).encode()


def write_samples_csv(result: ExperimentResult) -> bytes:
    """rep,node,final_fraction rows; rep is the absolute repetition index."""
    reps, m = result.final_fractions.shape
    start = result.rep_range[0]
    return _format_rows("rep,node,final_fraction", "%d,%d,%.17g", [
        np.repeat(np.arange(start, start + reps), m).tolist(),
        list(range(m)) * reps,
        result.final_fractions.ravel().tolist(),
    ])


def write_stats_csv(series: TimeSeries | None) -> bytes:
    """step,node,mean,variance rows; header only when nothing was recorded."""
    header = "step,node,mean,variance"
    if series is None:
        return (header + "\n").encode()
    k = len(series.nodes)
    return _format_rows(header, "%d,%d,%.17g,%.17g", [
        [step for step in series.steps for _ in range(k)],
        list(series.nodes) * len(series.steps),
        series.mean().ravel().tolist(),
        series.variance().ravel().tolist(),
    ])


def load_samples_csv(data: bytes | str) -> dict[int, np.ndarray]:
    """Parse a samples.csv back into per-node fraction arrays, each in rep
    order; the keys come in the order in which their node first appears.

    Accepted: UTF-8 text whose first csv record is rep,node,final_fraction,
    then rows of two Python-int cells and one Python-float cell (csv
    quoting and the whitespace `int`/`float` strip allowed), blank lines
    skipped, and no (rep, node) pair twice.  Anything else raises
    SchemaError, naming the row's line where there is one.

    np.loadtxt reads the rows first; a file it rejects, or cannot be
    trusted to read as int()/float() do, or that repeats a pair or has no
    rows, goes to the csv row loop, which decides it and words its error."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError:
            raise SchemaError("samples", "not valid UTF-8") from None
    header, _, body = data.partition("\n")
    if (header.removesuffix("\r") != "rep,node,final_fraction" or not body.strip("\r\n")
            or not _loadtxt_reads_as_python(body)):
        return _parse_samples_rows(data)
    try:
        rows = np.loadtxt(io.StringIO(body), dtype=[("rep", "i8"), ("node", "i8"), ("value", "f8")],
                          delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return _parse_samples_rows(data)
    rep, node = rows["rep"], rows["node"]
    order = np.lexsort((rep, node))
    rep, node = rep[order], node[order]
    if ((rep[1:] == rep[:-1]) & (node[1:] == node[:-1])).any():
        return _parse_samples_rows(data)
    starts = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
    first_seen = np.minimum.reduceat(order, starts)
    values = np.split(rows["value"][order], starts[1:])
    return {int(node[starts[i]]): values[i] for i in np.argsort(first_seen)}


def _loadtxt_reads_as_python(body: str) -> bool:
    r"""Whether every cell np.loadtxt accepts in body, int() and float()
    read the same.  Outside ASCII they may not (loadtxt reads "1\u01fe" as
    the int 472); loadtxt strips \x1c-\x1f, which they refuse; and int()
    refuses more digits than sys.get_int_max_str_digits() (0, or at least
    640) and csv a field over csv.field_size_limit(), so every line, newline
    included, must be shorter than 640 characters."""
    if not body.isascii() or any(c in body for c in "\x1c\x1d\x1e\x1f"):
        return False
    raw = np.frombuffer(body.encode(), np.uint8)
    return np.diff(np.flatnonzero(raw == 10), prepend=-1, append=raw.size).max() < 640


def _parse_samples_rows(data: str) -> dict[int, np.ndarray]:
    """load_samples_csv's csv row loop: the reference for what a samples.csv
    may hold, and the source of every SchemaError it raises."""
    reader = csv.reader(io.StringIO(data))
    per_node: dict[int, list[tuple[int, float]]] = {}
    try:
        header = next(reader, None)
        if header != ["rep", "node", "final_fraction"]:
            raise SchemaError("samples", "expected header rep,node,final_fraction")
        for row in reader:
            if not row:
                continue
            try:
                rep, node, value = row
                rep, node, value = int(rep), int(node), float(value)
            except ValueError:
                raise SchemaError("samples", f"line {reader.line_num}: expected "
                                  f"rep,node,final_fraction, got {row!r}") from None
            per_node.setdefault(node, []).append((rep, value))
    except csv.Error as e:
        raise SchemaError("samples", f"line {reader.line_num}: {e}") from None
    for node, pairs in per_node.items():
        pairs.sort()
        if len(dict(pairs)) != len(pairs):  # a rep given twice would count twice
            rep = next(a for (a, _), (b, _) in zip(pairs, pairs[1:]) if a == b)
            raise SchemaError("samples", f"rep {rep} appears more than once for node {node}")
    return {node: np.array([v for _, v in pairs]) for node, pairs in per_node.items()}


# --- SVG histogram --------------------------------------------------------------

_SVG_W, _SVG_H = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 16, 16, 40


def render_histogram_svg(
    stats: SampleStats,
    *,
    beta: BetaParams | None = None,
    mean_marker: float | None = None,
) -> bytes:
    """Standalone SVG: density bars over [0, 1], an optional beta-density
    overlay, and an optional vertical predicted-mean marker."""
    if mean_marker is not None and not 0.0 <= mean_marker <= 1.0:  # also rejects nan
        raise InvalidInput(f"mean marker must be in [0, 1], got {mean_marker!r}")
    counts = np.asarray(stats.bin_counts, dtype=np.float64)
    edges = np.asarray(stats.bin_edges, dtype=np.float64)
    total = counts.sum()
    if counts.size == 0 or total <= 0:
        raise InvalidInput("no counts to draw")
    widths = np.diff(edges)
    density = counts / (total * widths)

    curve = None
    if beta is not None:
        from scipy import stats as sp_stats

        grid = np.linspace(0.002, 0.998, 250)
        curve = sp_stats.beta(beta.a, beta.b).pdf(grid)
    y_max = float(density.max())
    if curve is not None:
        y_max = max(y_max, float(np.percentile(curve, 90)))
    y_max *= 1.08

    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + x * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + plot_h - min(y / y_max, 1.0) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    for i, d in enumerate(density.tolist()):
        x0, x1 = px(edges[i]), px(edges[i + 1])
        y = py(d)
        h = _MARGIN_T + plot_h - y
        parts.append(
            f'<rect x="{x0:.2f}" y="{y:.2f}" width="{x1 - x0:.2f}" height="{h:.2f}" '
            f'fill="#4878a8" fill-opacity="0.85"/>'
        )
    if curve is not None:
        points = " ".join(
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(grid.tolist(), curve.tolist())
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#c03028" stroke-width="1.5"/>'
        )
    if mean_marker is not None:
        x = px(float(mean_marker))
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T}" x2="{x:.2f}" y2="{_MARGIN_T + plot_h}" '
            f'stroke="#208040" stroke-width="1.5" stroke-dasharray="5,4"/>'
        )
    # axes and ticks
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" x2="{_SVG_W - _MARGIN_R}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="black"/>'
    )
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = px(tick)
        y0 = _MARGIN_T + plot_h
        parts.append(f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{y0 + 20}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L - 8}" y="{_MARGIN_T + plot_h}" font-size="12" text-anchor="end" '
        f'font-family="sans-serif">0</text>'
    )
    parts.append(
        f'<text x="{_MARGIN_L - 8}" y="{_MARGIN_T + 12}" font-size="12" text-anchor="end" '
        f'font-family="sans-serif">{y_max:.4g}</text>'
    )
    parts.append(
        f'<text x="{px(0.5):.2f}" y="{_SVG_H - 6}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif">final fractional stake</text>'
    )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


# --- benchmark report -------------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    """One (config, scheme) line of the benchmark report.

    For the supercritical constant scheme the predicted columns carry the
    beta-limit implied mean/variance (there is no closed form at finite n);
    nan when the beta limit is degenerate (single node).  var_empirical is
    the unbiased sample variance, nan for a single repetition.
    """

    label: str
    scheme: str
    mean_empirical: float
    var_empirical: float
    mean_predicted: float
    var_predicted: float
    regime: str


def builtin_benchmark_configs(
    repetitions: int = DEFAULT_TABLE_REPS,
    base_seed: int = DEFAULT_TABLE_SEED,
) -> list[tuple[str, ExperimentConfig]]:
    """The four stock benchmark setups: S(0)=100, K=200, n=1000, tracked
    node 0.

    Config i is seeded with base_seed + i: a tracked node's fraction path
    depends only on its own (w, l, v0), so sharing one seed would make the
    two share-1/10 rows literally identical.
    """
    stock = [
        ("four nodes (share 1/10)", (10.0, 30.0, 30.0, 30.0)),
        ("ten nodes (share 1/10)", (10.0,) * 10),
        ("two nodes (share 1/2)", (50.0, 50.0)),
        ("two nodes (share 1/3)", (100.0 / 3.0, 200.0 / 3.0)),
    ]
    return [
        (
            label,
            ExperimentConfig(
                initial_stakes=stakes,
                scheme="frd",
                reward_budget_K=200.0,
                steps_n=1000,
                repetitions=repetitions,
                base_seed=base_seed + offset,
                record=RecordPolicy(track_nodes=(0,)),
            ),
        )
        for offset, (label, stakes) in enumerate(stock)
    ]


def table1_report(
    configs: Sequence[tuple[str, ExperimentConfig]], *, workers: int = 1
) -> tuple[list[ReportRow], str]:
    """Run both the constant and frd schemes on each config's initial stakes
    and report empirical vs predicted statistics of the first tracked node.
    Only final fractions are read, so the runs record nothing (stride 0).
    The two schemes of a config differ only in the reward matrix, so they
    run as one batch (run_experiments) over one set of draws.

    Returns one ReportRow per (config, scheme) and a rendered text table
    with one line per config, mirroring the benchmark table layout.
    """
    rows: list[ReportRow] = []
    for label, config in configs:
        node = config.tracked_nodes()[0]
        runs = [replace(config, scheme=scheme, custom_entries=None,
                        record=replace(config.record, stride=0))
                for scheme in ("constant", "frd")]
        for cfg, result in zip(runs, run_experiments(runs, workers=workers)):
            samples = result.final_fractions[:, node]
            emp_mean = float(samples.mean())
            emp_var = float(samples.var(ddof=1)) if samples.size > 1 else float("nan")
            try:
                law = _predicted_law(cfg, node)
            except DegenerateBeta:
                law = {"mean_fraction": math.nan, "var_fraction": math.nan,
                       "regime": "supercritical"}
            rows.append(ReportRow(label, cfg.scheme, emp_mean, emp_var, law["mean_fraction"],
                                  law["var_fraction"], law["regime"]))
    return rows, _render_report_table(rows)


def _render_report_table(rows: Sequence[ReportRow]) -> str:
    """One line per config, from its (constant, frd) pair of rows."""
    headers = ["initial values", "mean constant", "var constant", "mean frd", "var frd"]
    table = [headers]
    for pair in zip(rows[::2], rows[1::2]):
        cells = [pair[0].label]
        for row in pair:
            cells.append(f"{row.mean_empirical:.4f} ({row.mean_predicted:.4f})")
            cells.append(f"{row.var_empirical:.3e} ({row.var_predicted:.3e})")
        table.append(cells)
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    sep = "-+-".join("-" * w for w in widths)
    out = ["empirical (predicted); constant predictions are the beta-limit values"]
    for i, row in enumerate(table):
        out.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if i == 0:
            out.append(sep)
    return "\n".join(out)


def write_report_csv(rows: Sequence[ReportRow]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "scheme", "mean_emp", "var_emp", "mean_pred", "var_pred", "regime"])
    for r in rows:
        writer.writerow(
            [r.label, r.scheme, _fmt(r.mean_empirical), _fmt(r.var_empirical),
             _fmt(r.mean_predicted), _fmt(r.var_predicted), r.regime]
        )
    return buf.getvalue().encode()


# --- subcommands ---------------------------------------------------------------

def _cmd_simulate(args) -> int:
    config = load_config(Path(args.config).read_bytes())
    print(f"base_seed={config.base_seed}")
    result = run_experiment(config, workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "samples.csv").write_bytes(write_samples_csv(result))
    (out / "stats.csv").write_bytes(write_stats_csv(result.time_series))
    run_doc = {"base_seed": config.base_seed, "config": serialize_config(config),
               "stream_version": STREAM_VERSION}
    (out / "run.json").write_text(json.dumps(run_doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote samples.csv, stats.csv, run.json to {out}")
    return 0


def _predicted_law(
    config: ExperimentConfig, node: int, matrix: RewardMatrix | None = None
) -> dict:
    """One node's predicted law, as `predict` prints it.

    Under the constant scheme the urn is a Polya urn, so the fraction's law
    is its beta limit (DegenerateBeta when the node holds everything or
    nothing); every other scheme gets the closed-form leading order.  Pass
    `matrix` (config.reward_matrix()) when predicting many nodes, so the
    O(m^2) matrix is built once.
    """
    if config.scheme == "constant":
        bp = beta_limit_params(config.initial_stakes, config.reward_budget_K, node)
        return {"node": node, "basis": "beta_limit", "regime": "supercritical",
                "beta_a": bp.a, "beta_b": bp.b,
                "mean_fraction": bp.mean, "var_fraction": bp.variance}
    if matrix is None:
        matrix = config.reward_matrix()
    p = predict(matrix, node, sum(config.initial_stakes), config.steps_n)
    return {"node": node, "basis": "closed_form", "regime": p.regime.value,
            "horizon_n": p.horizon_n, "mean_stake": p.mean_stake, "var_stake": p.var_stake,
            "mean_fraction": p.mean_fraction, "var_fraction": p.var_fraction,
            "leading_order_only": p.leading_order_only}


def _cmd_predict(args) -> int:
    config = load_config(Path(args.config).read_bytes())
    matrix = config.reward_matrix()
    doc = {
        "scheme": config.scheme,
        "steps_n": config.steps_n,
        "reward_budget_K": config.reward_budget_K,
        "initial_total": sum(config.initial_stakes),
        "nodes": [_predicted_law(config, node, matrix) for node in config.tracked_nodes()],
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_compare(args) -> int:
    config = load_config(Path(args.config).read_bytes())
    print(f"base_seed={config.base_seed}")
    node = config.tracked_nodes()[0]
    share = config.initial_stakes[node] / sum(config.initial_stakes)
    label = f"{config.num_nodes} nodes (share {share:.4g})"
    rows, text = table1_report([(label, config)], workers=args.workers)
    print(text)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_bytes(write_report_csv(rows))
    print(f"wrote report.csv to {out}")
    return 0


def _cmd_hist(args) -> int:
    per_node = load_samples_csv(Path(args.samples).read_bytes())
    if args.node not in per_node:
        raise SchemaError("node", f"node {args.node} not present in samples")
    beta = None
    if args.beta is not None:
        try:
            a, b = (float(x) for x in args.beta.split(","))
        except ValueError:
            raise SchemaError("beta", "expected two comma-separated numbers") from None
        if not (0 < a < math.inf and 0 < b < math.inf):
            raise SchemaError("beta", "both parameters must be finite and > 0")
        beta = BetaParams(a=a, b=b)
    try:
        stats = empirical_stats(per_node[args.node], bins=args.bins)
        svg = render_histogram_svg(stats, beta=beta, mean_marker=args.mean_marker)
    except InvalidInput as e:
        raise SchemaError("hist", str(e)) from None
    Path(args.out).write_bytes(svg)
    print(f"wrote {args.out}")
    return 0


def _cmd_table1(args) -> int:
    try:
        configs = builtin_benchmark_configs(repetitions=args.reps, base_seed=args.seed)
    except InvalidInput as e:
        raise SchemaError("table1", str(e)) from None
    print(f"base_seed={args.seed}")
    rows, text = table1_report(configs, workers=args.workers)
    print(text)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.csv").write_bytes(write_report_csv(rows))
        print(f"wrote report.csv to {out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stakesim",
        description="Simulate and analyze stake evolution under proof-of-stake reward schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one experiment; write samples.csv, stats.csv, run.json")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("predict", help="print analytic predictions as JSON")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("compare", help="run constant and frd on the same stakes; print the report table")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("hist", help="render a histogram SVG from a samples.csv")
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--node", type=int, default=0)
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--beta", default=None, metavar="A,B")
    p.add_argument("--mean-marker", type=float, default=None)
    p.set_defaults(func=_cmd_hist)

    p = sub.add_parser("table1", help="run the four stock benchmark configurations end to end")
    p.add_argument("--reps", type=int, default=DEFAULT_TABLE_REPS)
    p.add_argument("--seed", type=int, default=DEFAULT_TABLE_SEED)
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_table1)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "workers" in args:
            try:
                check_integer(args.workers, "workers", 1)
            except InvalidInput as e:
                raise SchemaError(args.command, str(e)) from None
        return args.func(args)
    except (ParseError, SchemaError, FileNotFoundError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (StakeSimError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
