"""Config ingestion, CSV/JSON/SVG emission, and the command-line surface.

Exit codes: 0 success, 2 config error, 3 runtime error.  Floating-point
values in CSVs are printed with 17 significant digits so emitted files can
be compared and replayed bit-exactly.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import dataclass, fields, replace
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

def _format_rows(header: str, row_format: str, columns: Sequence[list]) -> bytes:
    """The header line, then one row_format line per row of the equal-length
    columns, all formatted by one % call: only the header when the columns
    are empty.  %.17g is the text of format(x, ".17g"), nan, inf and -0
    included."""
    rows = len(columns[0])
    cells = [None] * (len(columns) * rows)
    for i, column in enumerate(columns):
        cells[i::len(columns)] = column
    return (header + "\n" + (row_format + "\n") * rows % tuple(cells)).encode()


def write_samples_csv(result: ExperimentResult) -> bytes:
    """rep,node,final_fraction rows; rep is the absolute repetition index.

    Fractions repeat (a node's final stake under a balanced matrix depends
    only on how often it proposed), so each distinct float64 bit pattern is
    formatted once, by one %.17g call over all of them, and the rows take
    their texts.  Bit patterns, not values, are compared: +0.0 and -0.0, and
    NaNs with different payloads, are formatted apart, as one row at a time
    would be."""
    reps, m = result.final_fractions.shape
    start = result.rep_range[0]
    bits, which = np.unique(result.final_fractions.ravel().view(np.uint64), return_inverse=True)
    texts = ("%.17g," * bits.size % tuple(bits.view(np.float64).tolist())).split(",")
    return _format_rows("rep,node,final_fraction", "%d,%d,%s", [
        np.repeat(np.arange(start, start + reps), m).tolist(),
        list(range(m)) * reps,
        np.array(texts, dtype=object)[which].tolist(),
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


def load_samples_csv(data: bytes) -> dict[int, np.ndarray]:
    r"""Parse a samples.csv back into per-node fraction arrays, each in rep
    order; the keys come in the order in which their node first appears.

    Accepted: ASCII text whose first line is rep,node,final_fraction, then
    lines of three comma-separated cells as np.loadtxt reads them: two
    int64 cells and one float64 cell, each perhaps padded with spaces, tabs
    or \x0b, \x0c, \x1c-\x1f.  Lines end in \n or \r\n, empty lines are
    skipped, and no (rep, node) pair may appear twice.  A header with no
    rows gives {}.  Anything else raises SchemaError; a row np.loadtxt
    refuses keeps numpy's reason, whose row numbers count data rows, not
    file lines."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise SchemaError("samples", "not ASCII") from None
    header, _, body = text.partition("\n")
    if header.removesuffix("\r") != "rep,node,final_fraction":
        raise SchemaError("samples", "expected header rep,node,final_fraction")
    if not body.strip("\r\n"):
        return {}
    try:
        rows = np.loadtxt(io.StringIO(body), dtype=[("rep", "i8"), ("node", "i8"), ("value", "f8")],
                          delimiter=",", comments=None, ndmin=1)
    except ValueError as e:
        raise SchemaError("samples", str(e)) from None
    rep, node = rows["rep"], rows["node"]
    order = np.lexsort((rep, node))
    rep, node = rep[order], node[order]
    repeated = np.flatnonzero((rep[1:] == rep[:-1]) & (node[1:] == node[:-1]))
    if repeated.size:  # a rep given twice would count twice
        i = repeated[0]
        raise SchemaError("samples", f"rep {rep[i]} appears more than once for node {node[i]}")
    starts = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
    first_seen = np.minimum.reduceat(order, starts)
    values = np.split(rows["value"][order], starts[1:])
    return {int(node[starts[i]]): values[i] for i in np.argsort(first_seen)}


# --- SVG histogram --------------------------------------------------------------

_SVG_W, _SVG_H = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 16, 16, 40
# hist draws at most one bar per pixel of the plot's width
_MAX_BINS = _SVG_W - _MARGIN_L - _MARGIN_R


def render_histogram_svg(
    stats: SampleStats,
    *,
    beta: BetaParams | None = None,
    mean_marker: float | None = None,
) -> bytes:
    """Standalone SVG: density bars over [0, 1], an optional beta-density
    overlay, and an optional vertical predicted-mean marker.  Positions are
    written to 2 decimals, but the fixed frame's int ones as ints."""
    if mean_marker is not None and not 0.0 <= mean_marker <= 1.0:  # also rejects nan
        raise InvalidInput(f"mean marker must be in [0, 1], got {mean_marker!r}")
    counts = np.asarray(stats.bin_counts, dtype=np.float64)
    edges = np.asarray(stats.bin_edges, dtype=np.float64)
    total = counts.sum()
    if counts.size == 0 or total <= 0:
        raise InvalidInput("no counts to draw")
    widths = np.diff(edges)
    density = counts / (total * widths)

    y_max = float(density.max())
    if beta is not None:
        grid = np.linspace(0.002, 0.998, 250)
        curve = beta.pdf(grid)
        y_max = max(y_max, float(np.percentile(curve, 90)))
    y_max *= 1.08

    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B
    bottom = _MARGIN_T + plot_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]

    def px(x: float) -> float:
        return _MARGIN_L + x * plot_w

    def py(y: float) -> float:
        return bottom - min(y / y_max, 1.0) * plot_h

    def at(v: float | int) -> str:
        return f"{v:.2f}" if isinstance(v, float) else str(v)

    def line(x1, y1, x2, y2, style='stroke="black"') -> None:
        parts.append(f'<line x1="{at(x1)}" y1="{at(y1)}" x2="{at(x2)}" y2="{at(y2)}" {style}/>')

    def text(x, y, label: str, anchor="middle", size=12) -> None:
        parts.append(f'<text x="{at(x)}" y="{at(y)}" font-size="{size}" text-anchor="{anchor}" '
                     f'font-family="sans-serif">{label}</text>')

    for i, d in enumerate(density.tolist()):
        x0, x1 = px(edges[i]), px(edges[i + 1])
        y = py(d)
        parts.append(
            f'<rect x="{x0:.2f}" y="{y:.2f}" width="{x1 - x0:.2f}" height="{bottom - y:.2f}" '
            f'fill="#4878a8" fill-opacity="0.85"/>'
        )
    if beta is not None:
        points = " ".join(
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(grid.tolist(), curve.tolist())
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#c03028" stroke-width="1.5"/>'
        )
    if mean_marker is not None:
        x = px(float(mean_marker))
        line(x, _MARGIN_T, x, bottom, 'stroke="#208040" stroke-width="1.5" stroke-dasharray="5,4"')
    # axes and ticks
    line(_MARGIN_L, bottom, _SVG_W - _MARGIN_R, bottom)
    line(_MARGIN_L, _MARGIN_T, _MARGIN_L, bottom)
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        line(px(tick), bottom, px(tick), bottom + 5)
        text(px(tick), bottom + 20, f"{tick:g}")
    text(_MARGIN_L - 8, bottom, "0", "end")
    text(_MARGIN_L - 8, _MARGIN_T + 12, f"{y_max:.4g}", "end")
    text(px(0.5), _SVG_H - 6, "final fractional stake", size=13)
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


# --- benchmark report -------------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    """One (config, scheme) line of the benchmark report.

    For the supercritical constant scheme the predicted columns carry the
    beta-limit implied mean/variance (there is no closed form at finite n),
    or, when the node holds nothing or everything (a single node, say), the
    point mass at its initial fraction, with variance 0.  var_empirical is
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
    run as one batch (run_experiments) over one set of draws, which keeps
    nodes up to the tracked one (leading_nodes), the rest lumped into one.

    Returns one ReportRow per (config, scheme) and a rendered text table
    with one line per config, mirroring the benchmark table layout.
    """
    rows: list[ReportRow] = []
    for label, config in configs:
        node = config.tracked_nodes()[0]
        runs = [replace(config, scheme=scheme, custom_entries=None,
                        record=replace(config.record, stride=0))
                for scheme in ("constant", "frd")]
        results = run_experiments(runs, workers=workers, leading_nodes=node + 1)
        for cfg, result in zip(runs, results):
            samples = result.final_fractions[:, node]
            emp_mean = float(samples.mean())
            emp_var = float(samples.var(ddof=1)) if samples.size > 1 else float("nan")
            law = _predicted_law(cfg, node)
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
    out = ["empirical (predicted); constant predictions are the beta-limit values; frd ones "
           "are leading order in n, and their mean leaves out S_i(0)"]
    for i, row in enumerate(table):
        out.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if i == 0:
            out.append(sep)
    return "\n".join(out)


def write_report_csv(rows: Sequence[ReportRow]) -> bytes:
    """label,scheme,mean_emp,var_emp,mean_pred,var_pred,regime rows, one per
    ReportRow and one column per field, in field order; the header only
    when there are none.

    Cells are written unquoted.  No cell needs quoting: the labels come
    from builtin_benchmark_configs and from compare's "{m} nodes (share
    {share:.4g})", the schemes and regimes are fixed words, and the numbers
    are %.17g text, so none holds a comma, a quote or a line break.  Rows
    that other code builds must keep to that."""
    return _format_rows(
        "label,scheme,mean_emp,var_emp,mean_pred,var_pred,regime",
        "%s,%s,%.17g,%.17g,%.17g,%.17g,%s",
        [[getattr(r, f.name) for r in rows] for f in fields(ReportRow)],
    )


# --- subcommands ---------------------------------------------------------------

def _cmd_simulate(args) -> int:
    config = load_config(Path(args.config).read_bytes())
    print(f"base_seed={config.base_seed}")
    result = run_experiment(config, workers=args.workers)
    run_doc = {"base_seed": config.base_seed, "config": serialize_config(config),
               "stream_version": STREAM_VERSION}
    _write_outputs(args.out, {
        "samples.csv": write_samples_csv(result),
        "stats.csv": write_stats_csv(result.time_series),
        "run.json": (json.dumps(run_doc, indent=2, sort_keys=True) + "\n").encode(),
    })
    return 0


def _write_outputs(out: str, files: dict[str, bytes]) -> None:
    """Make the directory out (parents too), write each file's bytes, say so."""
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (path / name).write_bytes(data)
    print(f"wrote {', '.join(files)} to {path}")


def _report(args, base_seed: int, configs: Sequence[tuple[str, ExperimentConfig]]) -> int:
    """compare's and table1's tail: print the seed and the report table, and
    write report.csv into --out when it is set."""
    print(f"base_seed={base_seed}")
    rows, text = table1_report(configs, workers=args.workers)
    print(text)
    if args.out is not None:
        _write_outputs(args.out, {"report.csv": write_report_csv(rows)})
    return 0


def _predicted_law(config: ExperimentConfig, node: int) -> dict:
    """One node's predicted law, as `predict` prints it.

    Under the constant scheme the urn is a Polya urn, so the fraction's law
    is its beta limit, or, when the node holds nothing or everything, the
    point mass at its initial fraction, which it then keeps; every other
    scheme gets the closed-form leading order.
    """
    if config.scheme == "constant":
        try:
            bp = beta_limit_params(config.initial_stakes, config.reward_budget_K, node)
        except DegenerateBeta:
            return {"node": node, "basis": "point_mass", "regime": "supercritical",
                    "mean_fraction": config.initial_stakes[node] / config.initial_total,
                    "var_fraction": 0.0}
        return {"node": node, "basis": "beta_limit", "regime": "supercritical",
                "beta_a": bp.a, "beta_b": bp.b,
                "mean_fraction": bp.mean, "var_fraction": bp.variance}
    p = predict(config.reward_matrix(), node, config.initial_total, config.steps_n)
    return {"node": node, "basis": "closed_form", "regime": p.regime.value,
            "horizon_n": p.horizon_n, "mean_stake": p.mean_stake, "var_stake": p.var_stake,
            "mean_fraction": p.mean_fraction, "var_fraction": p.var_fraction,
            "leading_order_only": p.leading_order_only}


def _cmd_predict(args) -> int:
    config = load_config(Path(args.config).read_bytes())
    doc = {
        "scheme": config.scheme,
        "steps_n": config.steps_n,
        "reward_budget_K": config.reward_budget_K,
        "initial_total": config.initial_total,
        "nodes": [_predicted_law(config, node) for node in config.tracked_nodes()],
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_compare(args) -> int:
    config = load_config(Path(args.config).read_bytes())
    node = config.tracked_nodes()[0]
    share = config.initial_stakes[node] / config.initial_total
    return _report(args, config.base_seed,
                   [(f"{config.num_nodes} nodes (share {share:.4g})", config)])


def _cmd_hist(args) -> int:
    if args.bins > _MAX_BINS:
        raise SchemaError("hist", f"bins must be <= {_MAX_BINS}, got {args.bins}")
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
    out = Path(args.out)
    _write_outputs(str(out.parent), {out.name: svg})
    return 0


def _cmd_table1(args) -> int:
    try:
        configs = builtin_benchmark_configs(repetitions=args.reps, base_seed=args.seed)
    except InvalidInput as e:
        raise SchemaError("table1", str(e)) from None
    return _report(args, args.seed, configs)


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

    p = sub.add_parser("compare", help="run constant and frd on the config's stakes, whatever its "
                       "scheme; print the report table")
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
