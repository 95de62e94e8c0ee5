"""Tests for config IO, CSV/SVG emission, the report table, and the CLI."""

import hashlib
import json
import math
import os
import pickle
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stakesim
from stakesim import (
    ExperimentConfig,
    ExperimentResult,
    RecordPolicy,
    RunningMoments,
    TimeSeries,
    empirical_stats,
    run_experiment,
    run_experiments,
)
from stakesim import cli, montecarlo
from stakesim.analytics import BetaParams, SampleStats
from stakesim.cli import (
    builtin_benchmark_configs,
    load_config,
    load_samples_csv,
    main,
    render_histogram_svg,
    serialize_config,
    table1_report,
    write_report_csv,
    write_samples_csv,
    write_stats_csv,
)
from stakesim.errors import InvalidInput, ParseError, SchemaError

MINIMAL = {
    "initial_stakes": [50, 50],
    "scheme": "frd",
    "reward_budget_K": 200,
    "steps_n": 1000,
    "repetitions": 100,
    "base_seed": 42,
}


def as_json(doc) -> bytes:
    return json.dumps(doc).encode()


class TestLoadConfig:
    def test_minimal_document(self):
        config = load_config(as_json(MINIMAL))
        assert config.initial_stakes == (50.0, 50.0)
        assert config.scheme == "frd"
        assert config.steps_n == 1000
        assert config.record == RecordPolicy()  # defaults: stride 0, all nodes

    def test_custom_scheme(self):
        doc = dict(MINIMAL, scheme={"custom": [[150, 50], [50, 150]]})
        config = load_config(as_json(doc))
        assert config.scheme == "custom"
        assert config.custom_entries == ((150.0, 50.0), (50.0, 150.0))

    def test_record_block(self):
        doc = dict(MINIMAL, record={"stride": 10, "track_nodes": [1]})
        config = load_config(as_json(doc))
        assert config.record == RecordPolicy(stride=10, track_nodes=(1,))

    def test_missing_required_key(self):
        doc = dict(MINIMAL)
        del doc["reward_budget_K"]
        with pytest.raises(SchemaError) as exc:
            load_config(as_json(doc))
        assert exc.value.field == "reward_budget_K"

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError):
            load_config(as_json(dict(MINIMAL, extra=1)))

    def test_unknown_record_key_rejected(self):
        for key in ("strife", "histogram_bins"):
            with pytest.raises(SchemaError, match=f"^record.{key}: unknown key$"):
                load_config(as_json(dict(MINIMAL, record={key: 1})))

    def test_malformed_json_reports_line(self):
        with pytest.raises(ParseError) as exc:
            load_config(b'{\n  "initial_stakes": [50, 50],\n  oops\n}')
        assert exc.value.line == 3

    def test_booleans_are_not_numbers(self):
        with pytest.raises(SchemaError):
            load_config(as_json(dict(MINIMAL, reward_budget_K=True)))

    def test_bad_values_rejected(self):
        for patch in (
            {"initial_stakes": []},
            {"initial_stakes": [-5, 10]},
            {"reward_budget_K": 0},
            {"reward_budget_K": math.inf},
            {"reward_budget_K": math.nan},
            {"steps_n": -1},
            {"repetitions": 0},
            {"base_seed": -3},
            {"scheme": "geometric"},
            {"record": {"track_nodes": [7]}},
            {"record": {"stride": -1}},
            {"record": {"track_nodes": [0, 0]}},
            # integers too large for a float, and finite stakes whose sum is inf
            {"reward_budget_K": 10**400},
            {"initial_stakes": [10**400, 50]},
            {"scheme": {"custom": [[10**400, 0], [0, 200]]}},
            {"initial_stakes": [1e308, 1e308]},
            # a final total S(0) + steps_n*K that overflows, via K or via steps_n
            {"reward_budget_K": 1e308},
            {"steps_n": 10**400},
        ):
            with pytest.raises(SchemaError):
                load_config(as_json(dict(MINIMAL, **patch)))

    def test_custom_matrix_validated_at_load(self):
        doc = dict(MINIMAL, scheme={"custom": [[150, 40], [50, 150]]})
        with pytest.raises(SchemaError):
            load_config(as_json(doc))

    @pytest.mark.parametrize("config", [
        ExperimentConfig(**{**{k: v for k, v in dict(
            initial_stakes=(50.0, 50.0), scheme="frd", reward_budget_K=200.0,
            steps_n=10, repetitions=3, base_seed=7).items()}}),
        ExperimentConfig(
            initial_stakes=(1.0, 2.0, 3.0), scheme="custom", reward_budget_K=4.0,
            steps_n=8, repetitions=2, base_seed=9,
            custom_entries=((2.0, 1.0, 1.0), (1.0, 2.0, 1.0), (1.0, 1.0, 2.0)),
            record=RecordPolicy(stride=2, track_nodes=(0, 2)),
        ),
        ExperimentConfig(
            initial_stakes=(33.33, 66.67), scheme="constant", reward_budget_K=200.0,
            steps_n=1000, repetitions=5, base_seed=2**63,
            record=RecordPolicy(stride=100),
        ),
    ])
    def test_round_trip(self, config):
        assert load_config(as_json(serialize_config(config))) == config


@pytest.fixture(scope="module")
def small_result():
    config = ExperimentConfig(
        initial_stakes=(50.0, 50.0), scheme="frd", reward_budget_K=200.0,
        steps_n=50, repetitions=8, base_seed=99,
        record=RecordPolicy(stride=25, track_nodes=(0,)),
    )
    return run_experiment(config)


def reference_samples_csv(result) -> bytes:
    """The per-value writer loop that write_samples_csv replaced."""
    lines = ["rep,node,final_fraction"]
    start = result.rep_range[0]
    for i, row in enumerate(result.final_fractions):
        for j, value in enumerate(row.tolist()):
            lines.append(f"{start + i},{j},{format(value, '.17g')}")
    return ("\n".join(lines) + "\n").encode()


def reference_stats_csv(series) -> bytes:
    """The per-cell writer loop that write_stats_csv replaced."""
    lines = ["step,node,mean,variance"]
    means = series.mean()
    variances = series.variance()
    for t, step in enumerate(series.steps):
        for j, node in enumerate(series.nodes):
            lines.append(f"{step},{node},{format(means[t, j], '.17g')},"
                         f"{format(variances[t, j], '.17g')}")
    return ("\n".join(lines) + "\n").encode()


# 0, 1, the smallest subnormal, the largest double below 1, and values whose
# shortest round-trip text needs all 17 significant digits
EDGE_VALUES = [0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0, 0.7,
               2.0**-1022, 0.123456789012345678]


def hand_built_result(first: int, reps: int, m: int, values) -> ExperimentResult:
    config = ExperimentConfig(initial_stakes=(1.0,) * m, scheme="constant",
                              reward_budget_K=1.0, steps_n=0, repetitions=first + reps,
                              base_seed=0)
    fractions = np.resize(np.array(values), (reps, m))
    return ExperimentResult(config=config, rep_range=(first, first + reps),
                            final_fractions=fractions,
                            proposer_counts=np.zeros(m, dtype=np.int64), time_series=None)


# samples.csv cells that np.loadtxt and a plain reader might read
# differently: padding (loadtxt strips \x1c-\x1f and, outside ASCII, reads
# "1\u01fe" as 472), "_" and Unicode digits, quotes, a float or an exponent
# as an int, int64's edges and beyond, hex, a comment, an int of more
# digits than int() converts and a long field
_PAD = st.sampled_from(["", "", "", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
                        "\u01fe", "\u2028", "\u3000", "\ufeff", "\x00"])
_INT_CELL = st.one_of(st.integers(-1, 3).map(str), st.sampled_from([
    "+1", "-0", "007", "1_0", "\u0663", "1.0", "1e3", str(2**63 - 1), str(2**63), str(-2**63),
    str(-2**63 - 1), "0x10", '"4"', "", "0" * 4400 + "1"]))
_FLOAT_CELL = st.one_of(st.floats().map(repr), st.sampled_from([
    "nan", "-nan", "NaN", "inf", "-Infinity", "infinite", "-0.0", "1e-400", "1e400", ".5", "5.",
    "1_0.5", "\u0663", "0x10", "0.5 # x", '"0.25"', "", "1e", "nan(1)", " " * 131_073 + "0.5"]))


def _padded(cell):
    return st.tuples(_PAD, cell, _PAD).map("".join)


_PLAIN_ROW = st.builds("{},{},{!r}".format, st.integers(0, 20), st.integers(0, 2), st.floats())
_ODD_ROW = st.one_of(
    st.tuples(_padded(_INT_CELL), _padded(_INT_CELL), _padded(_FLOAT_CELL)).map(",".join),
    st.lists(_padded(_FLOAT_CELL), min_size=1, max_size=4).map(",".join),  # short and long rows
    st.sampled_from(["", "  ", "\t", "\r"]),  # blank and whitespace lines
)


def _samples_text(row, eol):
    return st.builds(
        lambda head_eol, rows: ("rep,node,final_fraction" + head_eol
                                + "".join(text + end for text, end in rows)),
        eol, st.lists(st.tuples(row, eol), max_size=8))


# half the files hold only rows np.loadtxt reads, so its path is tried in full
_SAMPLES_TEXT = st.one_of(
    _samples_text(_PLAIN_ROW, st.sampled_from(["\n", "\r\n"])),
    _samples_text(st.one_of(_PLAIN_ROW, _ODD_ROW),
                  st.sampled_from(["\n", "\n", "\r\n", "\r", "\r\r\n", ""])),
)

# what np.loadtxt strips around a cell: ASCII whitespace but the line ends
_CELL_PAD = " \t\x0b\x0c\x1c\x1d\x1e\x1f"
_ROW_REFUSED = "a row np.loadtxt refuses"


def _int64_cell(cell: str) -> int:
    """A signed decimal int64 cell.  Leading zeros are dropped first: numpy
    reads any number of them, but int() refuses over 4,300 digits."""
    match = re.fullmatch(r"([+-]?)0*([0-9]+)", cell)
    if match is None or len(match[2]) > 19:
        raise ValueError(cell)
    value = int(match[1] + match[2])
    if not -2**63 <= value < 2**63:
        raise ValueError(cell)
    return value


def reference_samples(data: bytes) -> dict[int, np.ndarray]:
    r"""load_samples_csv's grammar read line by line in plain Python: split
    on \n, one \r dropped before each \n and at the end, a \r anywhere
    else refused, and _int64_cell and float() on the stripped cells,
    with no "_" in the float."""
    if not data.isascii():
        raise SchemaError("samples", "not ASCII")
    header, _, body = data.decode().partition("\n")
    if header.removesuffix("\r") != "rep,node,final_fraction":
        raise SchemaError("samples", "expected header rep,node,final_fraction")
    if not body.strip("\r\n"):
        return {}
    per_node: dict[int, list[tuple[int, float]]] = {}
    for line in body.split("\n"):
        line = line.removesuffix("\r")
        if not line:
            continue
        cells = [cell.strip(_CELL_PAD) for cell in line.split(",")]
        try:
            if "\r" in line or len(cells) != 3 or "_" in cells[2]:
                raise ValueError(line)
            rep, node, value = _int64_cell(cells[0]), _int64_cell(cells[1]), float(cells[2])
        except ValueError:
            raise SchemaError("samples", _ROW_REFUSED) from None
        per_node.setdefault(node, []).append((rep, value))
    for node in sorted(per_node):
        reps = sorted(rep for rep, _ in per_node[node])
        repeated = [a for a, b in zip(reps, reps[1:]) if a == b]
        if repeated:
            raise SchemaError("samples", f"rep {repeated[0]} appears more than once for node {node}")
    return {node: np.array([v for _, v in sorted(pairs, key=lambda pair: pair[0])])
            for node, pairs in per_node.items()}


def _samples_outcome(parse, data):
    try:
        return parse(data)
    except SchemaError as e:
        return str(e)


class TestCsv:
    @pytest.mark.parametrize("first,reps,m,values", [
        *(pytest.param(*shape, EDGE_VALUES, id="-".join(map(str, shape)))
          for shape in [(0, 10, 1), (7, 4, 1), (3, 5, 3), (1000, 7, 3)]),
        # the writer formats each distinct bit pattern once: a few values
        # repeated, both zeros, NaNs of three bit patterns, no repeats
        pytest.param(5, 2000, 3, np.random.default_rng(0).choice(EDGE_VALUES[:5], 6000),
                     id="repeated"),
        pytest.param(0, 4, 3, [0.0, -0.0, 0.5, -0.0, 0.0], id="signed-zeros"),
        pytest.param(0, 3, 2, [np.nan, 0.5, -np.nan, np.uint64(0x7FF8000000000001).view(np.float64)],
                     id="nan"),
        pytest.param(0, 200, 3, np.random.default_rng(1).random(600), id="distinct"),
    ])
    def test_samples_match_reference_writer(self, first, reps, m, values):
        result = hand_built_result(first, reps, m, values)
        assert write_samples_csv(result) == reference_samples_csv(result)

    def test_stats_match_reference_writer(self):
        # a cell of one value has a nan variance, an empty one a nan mean too
        cells = []
        for values in ([], [0.5], EDGE_VALUES[:4], EDGE_VALUES[4:]):
            cell = RunningMoments()
            cell.add_values(np.array(values, dtype=np.float64))
            cells.append(cell)
        series = TimeSeries(steps=(0, 40), nodes=(1, 4), cells=(tuple(cells[:2]), tuple(cells[2:])))
        assert write_stats_csv(series) == reference_stats_csv(series)

    def test_samples_layout(self):
        config = ExperimentConfig(
            initial_stakes=(30.0, 70.0), scheme="frd", reward_budget_K=200.0,
            steps_n=0, repetitions=1, base_seed=1,
        )
        lines = write_samples_csv(run_experiment(config)).decode().splitlines()
        assert lines[0] == "rep,node,final_fraction"
        assert len(lines) == 3
        assert lines[1] == "0,0,0.29999999999999999"

    def test_deterministic_bytes(self, small_result):
        assert write_samples_csv(small_result) == write_samples_csv(small_result)
        assert write_stats_csv(small_result.time_series) == write_stats_csv(small_result.time_series)

    def test_empty_series_is_header_only(self):
        assert write_stats_csv(None).decode() == "step,node,mean,variance\n"

    def test_samples_round_trip_bit_exact(self, small_result):
        per_node = load_samples_csv(write_samples_csv(small_result))
        for node in (0, 1):
            assert np.array_equal(per_node[node], small_result.final_fractions[:, node])

    def test_samples_load_in_first_seen_node_order(self):
        # nodes first appear as 2, 0, 1 and reps come shuffled
        reps = [3, 0, 1]
        special = {(0, 2): "-0.0", (1, 0): "nan", (3, 1): "-nan"}

        def cell(rep, node):
            return special.get((rep, node), f"0.{rep}{node}")

        text = "rep,node,final_fraction\n" + "".join(
            f"{rep},{node},{cell(rep, node)}\n" for rep in reps for node in (2, 0, 1))
        per_node = load_samples_csv(text.encode())
        assert list(per_node) == [2, 0, 1]
        for node, values in per_node.items():
            expected = np.array([float(cell(rep, node)) for rep in sorted(reps)])
            assert values.dtype == np.float64 and values.flags.c_contiguous
            assert np.array_equal(values.view(np.int64), expected.view(np.int64))
        assert np.signbit(per_node[2][0]) and not np.signbit(per_node[0][1])
        assert np.isnan(per_node[1][2]) and np.signbit(per_node[1][2])

    @settings(max_examples=300, deadline=None)
    @given(text=_SAMPLES_TEXT)
    @example(text="rep,node,final_fraction\r0,0,0.5\r1,0,0.25\r")
    @example(text="rep,node,final_fraction\n1\u01fe,0,0.5\n")
    @example(text="rep,node,final_fraction\n0,0,0.5\x1e\n")
    @example(text="rep,node,final_fraction\n" + "0" * 4400 + "1,0,0.5\n")
    @example(text="rep,node,final_fraction\n0,0," + " " * 131_073 + "0.5\n")
    @example(text="rep,node,final_fraction\n\r\r")
    @example(text="rep,node,final_fraction\n0,1,0.5\n0,0,0.5\n0,1,0.5\n0,0,0.5\n")
    def test_samples_loader_matches_row_loop(self, text):
        # the reference words its own errors as the loader does; a row it
        # refuses must come out as numpy's reason, none of those
        data = text.encode()
        fast = _samples_outcome(load_samples_csv, data)
        reference = _samples_outcome(reference_samples, data)
        if reference == f"samples: {_ROW_REFUSED}":
            assert isinstance(fast, str) and fast.startswith("samples: ")
            assert not re.match(r"samples: (not ASCII|expected header|rep -?\d+ appears)", fast)
            return
        if isinstance(reference, str):
            assert fast == reference
            return
        assert isinstance(fast, dict) and list(fast) == list(reference)
        for node, values in reference.items():
            assert fast[node].dtype == np.float64
            assert np.array_equal(fast[node].view(np.int64), values.view(np.int64))

    def test_stats_round_trip_bit_exact(self, small_result):
        series = small_result.time_series
        rows = write_stats_csv(series).decode().splitlines()[1:]
        means = series.mean()
        variances = series.variance()
        for t, row in enumerate(rows):
            step, node, mean, var = row.split(",")
            assert int(step) == series.steps[t]
            assert float(mean) == means[t, 0]
            assert float(var) == variances[t, 0]


class TestSvg:
    def test_uniform_counts_give_equal_bars(self):
        stats = SampleStats(
            count=40, mean=0.5, variance=0.1,
            bin_edges=np.linspace(0, 1, 5), bin_counts=np.array([10, 10, 10, 10]),
        )
        svg = render_histogram_svg(stats).decode()
        heights = re.findall(r'<rect [^>]*height="([0-9.]+)" fill="#4878a8"', svg)
        assert len(heights) == 4
        assert len(set(heights)) == 1

    def test_beta_overlay_and_marker(self):
        stats = empirical_stats([0.1, 0.4, 0.5, 0.5, 0.6, 0.9], bins=10)
        svg = render_histogram_svg(
            stats, beta=BetaParams(0.25, 0.25), mean_marker=0.5
        ).decode()
        assert "<polyline" in svg
        assert "stroke-dasharray" in svg

    def test_deterministic_bytes(self):
        stats = empirical_stats([0.2, 0.4, 0.6, 0.8], bins=8)
        assert render_histogram_svg(stats) == render_histogram_svg(stats)

    def test_empty_rejected(self):
        stats = SampleStats(
            count=0, mean=0.0, variance=0.0,
            bin_edges=np.linspace(0, 1, 4), bin_counts=np.zeros(3, dtype=int),
        )
        with pytest.raises(InvalidInput, match="no counts to draw"):
            render_histogram_svg(stats)


class TestHistogramShapes:
    @pytest.fixture(scope="class")
    def final_fractions(self):
        def run(scheme):
            config = ExperimentConfig(
                initial_stakes=(50.0, 50.0), scheme=scheme, reward_budget_K=200.0,
                steps_n=1000, repetitions=2000, base_seed=606,
            )
            return run_experiment(config).final_fractions[:, 0]
        return {scheme: run(scheme) for scheme in ("frd", "constant")}

    def test_shared_reward_spikes_at_initial_share(self, final_fractions):
        stats = empirical_stats(final_fractions["frd"], bins=100)
        center = stats.bin_counts[45:55].sum()  # mass within [0.45, 0.55]
        assert center / stats.count > 0.95

    def test_winner_takes_all_spreads_to_the_edges(self, final_fractions):
        stats = empirical_stats(final_fractions["constant"], bins=100)
        edges = stats.bin_counts[:10].sum() + stats.bin_counts[90:].sum()
        assert edges / stats.count > 0.4  # beta-limit tails hold ~60%


class TestReport:
    def test_one_config_gives_two_rows(self):
        config = ExperimentConfig(
            initial_stakes=(50.0, 50.0), scheme="frd", reward_budget_K=200.0,
            steps_n=100, repetitions=40, base_seed=3,
        )
        rows, text = table1_report([("equal split", config)])
        assert [r.scheme for r in rows] == ["constant", "frd"]
        assert rows[0].regime == "supercritical"
        assert rows[1].regime == "critical"
        assert text.count("equal split") == 1

    def test_single_node_degenerate(self):
        config = ExperimentConfig(
            initial_stakes=(100.0,), scheme="frd", reward_budget_K=200.0,
            steps_n=50, repetitions=10, base_seed=4,
        )
        rows, _ = table1_report([("solo", config)])
        frd_row = rows[1]
        assert frd_row.mean_empirical == 1.0
        assert frd_row.var_empirical == 0.0
        # under constant the one node holds everything: a point mass at 1
        assert (rows[0].mean_predicted, rows[0].var_predicted) == (1.0, 0.0)

    def test_one_repetition_has_no_variance(self):
        config = ExperimentConfig(
            initial_stakes=(50.0, 50.0), scheme="frd", reward_budget_K=200.0,
            steps_n=50, repetitions=1, base_seed=6,
        )
        rows, text = table1_report([("one", config)])
        assert [math.isnan(r.var_empirical) for r in rows] == [True, True]
        assert all(0.0 < r.mean_empirical < 1.0 for r in rows)
        assert "0.000e+00" not in text
        fields = write_report_csv(rows).decode().splitlines()[1].split(",")
        assert fields[3] == "nan"

    def test_report_csv_round_trip(self):
        config = ExperimentConfig(
            initial_stakes=(50.0, 50.0), scheme="frd", reward_budget_K=200.0,
            steps_n=50, repetitions=20, base_seed=5,
        )
        rows, _ = table1_report([("x", config)])
        data = write_report_csv(rows).decode().splitlines()
        assert data[0] == "label,scheme,mean_emp,var_emp,mean_pred,var_pred,regime"
        fields = data[1].split(",")
        assert float(fields[2]) == rows[0].mean_empirical

    def test_share_one_tenth_rows_differ(self):
        # the four- and ten-node setups track the same (w, l, v0), so only
        # their seeds, 1009 and 1010, keep their rows apart
        rows, _ = table1_report(builtin_benchmark_configs(repetitions=300)[:2])
        by_key = {(r.label, r.scheme): r for r in rows}
        for scheme in ("constant", "frd"):
            four = by_key[("four nodes (share 1/10)", scheme)]
            ten = by_key[("ten nodes (share 1/10)", scheme)]
            assert four.mean_empirical != ten.mean_empirical, scheme
            assert four.var_empirical != ten.var_empirical, scheme

    def test_repeated_labels_each_get_a_line(self):
        configs = [
            ("same", ExperimentConfig(initial_stakes=stakes, scheme="frd", reward_budget_K=200.0,
                                      steps_n=50, repetitions=20, base_seed=seed))
            for stakes, seed in (((50.0, 50.0), 11), ((10.0, 90.0), 12))
        ]
        rows, text = table1_report(configs)
        lines = text.splitlines()[3:]  # after the caption, the header and the rule
        assert len(rows) == 4 and len(lines) == 2
        for line, pair in zip(lines, zip(rows[::2], rows[1::2])):
            cells = [cell.strip() for cell in line.split(" | ")]
            assert cells[0] == "same"
            for i, row in enumerate(pair):
                assert cells[1 + 2 * i] == f"{row.mean_empirical:.4f} ({row.mean_predicted:.4f})"
                assert cells[2 + 2 * i] == f"{row.var_empirical:.3e} ({row.var_predicted:.3e})"

    def test_legend_names_both_bases(self):
        # the frd column is predict's leading order: its mean drops S_i(0)
        _, text = table1_report(builtin_benchmark_configs(repetitions=20)[:1])
        assert text.splitlines()[0] == (
            "empirical (predicted); constant predictions are the beta-limit values; frd ones "
            "are leading order in n, and their mean leaves out S_i(0)")

    def test_builtin_configs(self):
        pairs = builtin_benchmark_configs(repetitions=10)
        assert len(pairs) == 4
        assert [len(cfg.initial_stakes) for _, cfg in pairs] == [4, 10, 2, 2]
        assert all(sum(cfg.initial_stakes) == pytest.approx(100.0) for _, cfg in pairs)


class TestMainCommands:
    def write_config(self, tmp_path, doc=None):
        path = tmp_path / "config.json"
        path.write_bytes(as_json(doc or dict(MINIMAL, repetitions=50, steps_n=100,
                                             record={"stride": 25})))
        return path

    def test_simulate_writes_outputs(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr().out
        assert "base_seed=42" in captured
        for name in ("samples.csv", "stats.csv", "run.json"):
            assert (tmp_path / "out" / name).exists()
        run_doc = json.loads((tmp_path / "out" / "run.json").read_text())
        assert run_doc["base_seed"] == 42
        assert run_doc["stream_version"] == 2

    def test_simulate_is_reproducible(self, tmp_path):
        path = self.write_config(tmp_path)
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "b")])
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "c"), "--workers", "2"])
        for name in ("samples.csv", "stats.csv"):
            data = (tmp_path / "a" / name).read_bytes()
            assert (tmp_path / "b" / name).read_bytes() == data
            assert (tmp_path / "c" / name).read_bytes() == data

    def test_predict_outputs_json(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["predict", "--config", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        node = doc["nodes"][0]
        assert node["regime"] == "critical"
        assert node["mean_fraction"] == pytest.approx(0.5, abs=1e-2)

    def test_predict_beta_for_constant(self, tmp_path, capsys):
        path = self.write_config(tmp_path, dict(MINIMAL, scheme="constant"))
        assert main(["predict", "--config", str(path)]) == 0
        node = json.loads(capsys.readouterr().out)["nodes"][0]
        assert node["basis"] == "beta_limit"
        assert node["beta_a"] == 0.25

    def test_compare_writes_report(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
        assert "mean frd" in capsys.readouterr().out
        assert (out / "report.csv").exists()

    def test_compare_records_nothing(self, tmp_path, monkeypatch):
        # compare reads only final fractions: both schemes run at stride 0
        # with the config's track_nodes, keep nodes up to the tracked one,
        # and the report is the stride-0 one
        seen = []
        leading = []

        def spy(configs, **kwargs):
            seen.extend(configs)
            leading.append(kwargs.get("leading_nodes"))
            return run_experiments(configs, **kwargs)

        monkeypatch.setattr(stakesim.cli, "run_experiments", spy)
        for name, stride in (("recorded", 1), ("final", 0)):
            path = tmp_path / f"{name}.json"
            path.write_bytes(as_json(dict(MINIMAL, repetitions=50, steps_n=100,
                                          record={"stride": stride, "track_nodes": [1]})))
            assert main(["compare", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        assert [c.record for c in seen] == [RecordPolicy(stride=0, track_nodes=(1,))] * 4
        assert leading == [2, 2]
        report = (tmp_path / "final" / "report.csv").read_bytes()
        assert (tmp_path / "recorded" / "report.csv").read_bytes() == report

    def test_hist_renders_svg(self, tmp_path):
        path = self.write_config(tmp_path)
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        svg = tmp_path / "h.svg"
        code = main(["hist", "--samples", str(tmp_path / "out" / "samples.csv"),
                     "--beta", "0.25,0.25", "--out", str(svg)])
        assert code == 0
        assert svg.read_bytes().startswith(b"<svg")

    def test_hist_bins_up_to_the_plot_width(self, tmp_path):
        path = self.write_config(tmp_path)
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        svg = tmp_path / "h.svg"
        code = main(["hist", "--samples", str(tmp_path / "out" / "samples.csv"),
                     "--bins", "564", "--out", str(svg)])
        assert code == 0
        assert svg.read_bytes().startswith(b"<svg")

    def test_table1_runs_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "t1"
        assert main(["table1", "--reps", "20", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "two nodes (share 1/2)" in captured
        report = (out / "report.csv").read_text().splitlines()
        assert len(report) == 1 + 8  # header + 4 configs x 2 schemes

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_schema_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(as_json(dict(MINIMAL, reward_budget_K=-1)))
        assert main(["predict", "--config", str(path)]) == 2

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"{nope")
        assert main(["predict", "--config", str(path)]) == 2

    def test_runtime_error_exit_code(self, tmp_path):
        # supercritical custom matrix without a closed form: predict fails
        doc = dict(MINIMAL, scheme={"custom": [[200, 0], [0, 200]]})
        path = tmp_path / "super.json"
        path.write_bytes(as_json(doc))
        assert main(["predict", "--config", str(path)]) == 3

    def test_predict_subcritical_custom_matrix(self, tmp_path, capsys):
        doc = dict(
            MINIMAL,
            initial_stakes=[10, 10, 10],
            scheme={"custom": [[120, 40, 40], [40, 120, 40], [40, 40, 120]]},
        )
        path = tmp_path / "sub.json"
        path.write_bytes(as_json(doc))
        assert main(["predict", "--config", str(path)]) == 0
        node = json.loads(capsys.readouterr().out)["nodes"][0]
        assert node["regime"] == "subcritical"
        assert node["mean_fraction"] == pytest.approx(1 / 3, abs=1e-3)

    def test_hist_bad_beta_flag(self, tmp_path):
        path = self.write_config(tmp_path)
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        code = main(["hist", "--samples", str(tmp_path / "out" / "samples.csv"),
                     "--beta", "nope", "--out", str(tmp_path / "h.svg")])
        assert code == 2

    def test_hist_missing_node(self, tmp_path):
        path = self.write_config(tmp_path)
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        code = main(["hist", "--samples", str(tmp_path / "out" / "samples.csv"),
                     "--node", "9", "--out", str(tmp_path / "h.svg")])
        assert code == 2

    @pytest.mark.parametrize("flags,message", [
        (["--bins", "0"], "hist: bins must be >= 1, got 0"),
        (["--beta", "0,1"], "beta: both parameters must be finite and > 0"),
        (["--beta=-1,2"], "beta: both parameters must be finite and > 0"),
        (["--mean-marker", "nan"], "hist: mean marker must be in [0, 1], got nan"),
        (["--mean-marker", "7"], "hist: mean marker must be in [0, 1], got 7.0"),
        (["--bins", "565"], "hist: bins must be <= 564, got 565"),
    ])
    def test_hist_bad_flag_is_config_error(self, tmp_path, capsys, flags, message):
        path = self.write_config(tmp_path)
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        capsys.readouterr()
        svg = tmp_path / "h.svg"
        code = main(["hist", "--samples", str(tmp_path / "out" / "samples.csv"),
                     "--out", str(svg), *flags])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not svg.exists()

    @pytest.mark.parametrize("patch,message", [
        ({"reward_budget_K": 10**400}, "config: int too large to convert to float"),
        ({"initial_stakes": [10**400, 50]}, "config: int too large to convert to float"),
        ({"initial_stakes": [1e308, 1e308]}, "config: stakes must sum to a finite total"),
        ({"reward_budget_K": 1e308}, "config: total stake after steps_n slots must be finite"),
    ])
    def test_simulate_bad_value_is_config_error(self, tmp_path, capsys, patch, message):
        path = self.write_config(tmp_path, dict(MINIMAL, **patch))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("patch,message", [
        ({"steps_n": 10.5}, "config: steps_n must be an integer, got 10.5"),
        ({"repetitions": "5"}, "config: repetitions must be an integer, got '5'"),
        ({"base_seed": True}, "config: base_seed must be an integer, got True"),
        ({"record": {"stride": 2.5}}, "config: stride must be an integer, got 2.5"),
        ({"record": {"track_nodes": [1.5]}}, "config: track_nodes entry must be an integer, got 1.5"),
        ({"record": {"track_nodes": [True]}},
         "config: track_nodes entry must be an integer, got True"),
        ({"record": {"track_nodes": 1}}, "record.track_nodes: must be an array"),
        ({"record": []}, "record: must be an object"),
    ], ids=["steps_n-float", "repetitions-string", "base_seed-bool", "stride-float",
            "track_nodes-float", "track_nodes-bool", "track_nodes-not-array",
            "record-not-object"])
    def test_non_integer_is_config_error(self, tmp_path, capsys, patch, message):
        path = self.write_config(tmp_path, dict(MINIMAL, **patch))
        assert main(["predict", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "compare", "predict"])
    def test_empty_track_nodes_is_config_error(self, tmp_path, capsys, command):
        path = self.write_config(tmp_path, dict(MINIMAL, record={"stride": 25, "track_nodes": []}))
        out = tmp_path / "out"
        flags = [] if command == "predict" else ["--out", str(out)]
        assert main([command, "--config", str(path), *flags]) == 2
        message = "config: track_nodes must name at least one node"
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_simulate_bad_workers_is_config_error(self, tmp_path, capsys, workers):
        path = self.write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(path), "--out", str(out), "--workers", workers])
        assert code == 2
        message = f"simulate: workers must be >= 1, got {workers}"
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    # numpy words a row it refuses, perhaps differently in another numpy
    # version, so there "..." stands for any text around the bad cell or
    # the column count
    @pytest.mark.parametrize("rows,message", [
        (b"x,0,0.4\n", "samples: ...'x'..."),
        (b"0,0,0.5\n1,0\n", "samples: ...requires 3 columns but 2 were found..."),
        (b"0,0,0.5\n1,0,nan\n2,0,0.3\n", "hist: samples must lie in [0, 1]"),
        (b"0,0,0.5\xff\n", "samples: not ASCII"),
        (b"0,0,0.5\n0,0,0.7\n", "samples: rep 0 appears more than once for node 0"),
        (b"0,0,0.5\n0,1,0.5\n1,0,0.2\n1,1,0.8\n1,1,0.8\n",
         "samples: rep 1 appears more than once for node 1"),
        (b"0,0,0.5\n  \n", "samples: ...requires 3 columns but 1 were found..."),
        (b"0,0,0.5 # x\n", "samples: ...'0.5 # x'..."),
        (b"0,0,0.5,\n", "samples: ...requires 3 columns but 4 were found..."),
        (b"", "node: node 0 not present in samples"),
        (b"0,0,0.5\r1,0,0.25\r", "samples: ...embedded newline..."),
        # loadtxt would read the first as the int 472
        (b"1\xc7\xbe,0,0.5\n", "samples: not ASCII"),
        (b'"0",0,0.5\n', "samples: ...'\"0\"'..."),
        (b"9223372036854775808,0,0.5\n", "samples: ...'9223372036854775808'..."),
    ])
    def test_hist_bad_samples_is_config_error(self, tmp_path, capsys, rows, message):
        samples = tmp_path / "samples.csv"
        samples.write_bytes(b"rep,node,final_fraction\n" + rows)
        svg = tmp_path / "h.svg"
        assert main(["hist", "--samples", str(samples), "--out", str(svg)]) == 2
        pattern = ".*".join(re.escape(part) for part in message.split("..."))
        assert re.fullmatch(f"config error: {pattern}\n", capsys.readouterr().err)
        assert not svg.exists()

    def test_hist_missing_samples_is_config_error(self, tmp_path, capsys):
        # as a missing --config is; hist makes its --out directory, so only
        # a missing input can be missing
        svg = tmp_path / "out" / "h.svg"
        assert main(["hist", "--samples", str(tmp_path / "none.csv"), "--out", str(svg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [Errno 2] ") and "none.csv" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--reps", "0"], "table1: repetitions must be >= 1, got 0"),
        (["--seed", "-1"], "table1: base_seed must be an unsigned 64-bit integer"),
        # config i is seeded with seed + i, so the last config overflows
        (["--seed", str(2**64 - 2)], "table1: base_seed must be an unsigned 64-bit integer"),
        (["--workers", "0"], "table1: workers must be >= 1, got 0"),
        (["--workers", "-1"], "table1: workers must be >= 1, got -1"),
    ])
    def test_table1_bad_flag_is_config_error(self, capsys, flags, message):
        assert main(["table1", *flags]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


# sha256 of predict's stdout, pinned when the beta-limit and closed-form
# branches were folded into one function; track_nodes [0, 2] puts two nodes
# in each document
PREDICT_GOLDEN = {
    "frd": (
        dict(MINIMAL, initial_stakes=[10, 30, 30, 30], record={"track_nodes": [0, 2]}),
        "9282414d26763d3f9d336ce48e2c8d734f744e3fc523d5ef53c14ffc96882e30",
    ),
    "constant": (
        dict(MINIMAL, initial_stakes=[10, 30, 30, 30], scheme="constant",
             record={"track_nodes": [0, 2]}),
        "424cbb9f0b9104758626e336383f466d97032f852cf9887d3542484be31a1509",
    ),
    "subcritical_custom": (
        dict(MINIMAL, initial_stakes=[10, 20, 30],
             scheme={"custom": [[120, 40, 40], [40, 120, 40], [40, 40, 120]]},
             record={"track_nodes": [0, 2]}),
        "768b36177956aec3155de97ee267ed80fdefa9ac1db47e44d5fcf822c68ff700",
    ),
}


# sha256 of report.csv, pinned before table1 and compare stopped simulating
# the nodes after the tracked one: None is `table1 --reps 300`; the 4-node
# stakes sum to 100.0 in node order but to 100.00000000000001 with nodes 2
# and 3 summed first, and K is small enough that the final totals differ
# too, so a run on the latter total changes the bytes; the 3-node config
# tracks its last node
REPORT_GOLDEN = {
    "table1": (
        None,
        "9241a4f533fc03e44390168817bf6cda635165bdce6a96efc91f6913ade67a74",
    ),
    "compare_four_nodes_track_1": (
        dict(MINIMAL, initial_stakes=[12.3, 7.9, 41.6, 38.2], reward_budget_K=0.05,
             repetitions=200, steps_n=300, record={"track_nodes": [1]}),
        "7e299e143563f7417f00de001dba80deae27ef26b8ff5000bb24a9e274149e25",
    ),
    "compare_three_nodes_track_last": (
        dict(MINIMAL, initial_stakes=[20.5, 30.25, 49.25], repetitions=200, steps_n=300,
             record={"track_nodes": [2]}),
        "95f3f038d3bd6e8351dcaeca07a4abe22ab5578b28fab0b361dd8965a68ef134",
    ),
}


# sha256 of `hist --beta A,B` on a fixed samples.csv (rep r of 200 has
# fraction r/199), pinned while scipy still drew the overlay; the last two
# laws are so narrow that their density is 0 at every grid point.  The test
# blocks scipy: a None entry in sys.modules makes `import scipy` raise.
HIST_BETA_GOLDEN = {
    "0.25,0.25": "1a5405b1e388821d2d58cd64d69f5e8b4ac470646b5aa12d14eba69beee8b4b0",
    "2,5": "a799a7e4e73dffd23bea99ee22e599f7d0b964f0e0d3f17a9288a50352782e79",
    "0.01,50": "7bb8e08c68acc808f6334e3c09cdb698ff2041aaa2c9750ec05eabd840d108ba",
    "2000,3000": "ae38d6c2ee39e2e0922070d1953021050e772b798d168513519212163f380172",
    "1e308,1e308": "953590aed6cad9fe209fa25117eb477c6749b70f4b74d2d4ee3bcf5fc221414f",
    "1,1.7e308": "953590aed6cad9fe209fa25117eb477c6749b70f4b74d2d4ee3bcf5fc221414f",
}


def write_ramp_samples(tmp_path) -> Path:
    """The fixed samples.csv of the hist pins: rep r of 200 has fraction r/199."""
    samples = tmp_path / "samples.csv"
    samples.write_text("rep,node,final_fraction\n"
                       + "".join(f"{r},0,{r / 199!r}\n" for r in range(200)))
    return samples


@pytest.mark.parametrize("pair", list(HIST_BETA_GOLDEN))
def test_hist_beta_svg_pinned(tmp_path, monkeypatch, pair):
    monkeypatch.setitem(sys.modules, "scipy", None)
    samples = write_ramp_samples(tmp_path)
    svg = tmp_path / "h.svg"
    assert main(["hist", "--samples", str(samples), "--beta", pair, "--out", str(svg)]) == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == HIST_BETA_GOLDEN[pair]


# sha256 of `hist` with a mean marker on the same samples.csv, pinned before
# the axis lines and labels were each drawn by one element writer; the
# benchmark's hist runs `--mean-marker 0.5` alone
HIST_MARKER_GOLDEN = {
    "--mean-marker 0.5": "5ae98ce81377d2634e2c868b654c7d7fd6c8669c21af3c91ac8f2d5cd3b6e406",
    "--beta 2,5 --mean-marker 0.3":
        "86106a6084f7f189c11989881626cf4001c8d33cf21323c8b75a815f96f89e15",
}


@pytest.mark.parametrize("flags", list(HIST_MARKER_GOLDEN))
def test_hist_marker_svg_pinned(tmp_path, flags):
    samples = write_ramp_samples(tmp_path)
    svg = tmp_path / "h.svg"
    assert main(["hist", "--samples", str(samples), *flags.split(), "--out", str(svg)]) == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == HIST_MARKER_GOLDEN[flags]


# sha256 of each command's whole stdout, the test's directory shown as TMP;
# {config} is MINIMAL with 50 reps of 100 steps, recorded at stride 25.
# Pinned before simulate, compare and table1 shared one directory writer;
# compare's and table1's were then re-pinned with only the report legend
# changed, when it began to name the frd basis, and hist's with only its
# "wrote" line changed, when hist joined that writer
STDOUT_GOLDEN = {
    "simulate": ("simulate --config {config} --out {tmp}/out",
                 "f15ea7739eca203dbcc4cf60032be0177704a7f0c94292e90c8480fa73c00b25"),
    "compare": ("compare --config {config} --out {tmp}/cmp",
                "1ca9ec2f56c9048b5c7faab09be3faba0c707dc8a7bb8217cbf3b893146c54a5"),
    "table1_out": ("table1 --reps 20 --out {tmp}/t1",
                   "f5e68fb99d72b47622c5d21ba13f9d2f7084c0ced885ab698cf6b5b24ac62974"),
    "table1": ("table1 --reps 20",
               "b51f374c291997be3e3c0799613f19f9ced45b6b1a35c5f2e76387ae7521bce1"),
    "hist": ("hist --samples {samples} --mean-marker 0.5 --out {tmp}/h.svg",
             "2f4203f4c9726f9ed50667bf65a067ace00ef8dd019f2d4ad6cc721824e6589e"),
}


@pytest.mark.parametrize("name", list(STDOUT_GOLDEN))
def test_stdout_pinned(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    argv, sha = STDOUT_GOLDEN[name]
    config = tmp_path / "config.json"
    config.write_bytes(as_json(dict(MINIMAL, repetitions=50, steps_n=100, record={"stride": 25})))
    samples = write_ramp_samples(tmp_path)
    assert main([a.format(tmp=tmp_path, config=config, samples=samples) for a in argv.split()]) == 0
    out = capsys.readouterr().out.replace(str(tmp_path), "TMP")
    assert hashlib.sha256(out.encode()).hexdigest() == sha, out


class TestOutputDirectory:
    """simulate, compare, table1 and hist write their files through one
    writer; hist's --out names its file, the others' their directory."""

    FILES = {"simulate": ("samples.csv", "stats.csv", "run.json"),
             "compare": ("report.csv",), "table1": ("report.csv",), "hist": ("h.svg",)}

    @pytest.mark.parametrize("command", list(FILES))
    def test_missing_nested_out_is_made_and_overwritten(self, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_bytes(as_json(dict(MINIMAL, repetitions=20, steps_n=50)))
        out = tmp_path / "a" / "b" / "c"
        flags = ["--config", str(config), "--out", str(out)]
        if command == "table1":
            flags = ["--reps", "20", "--out", str(out)]
        elif command == "hist":
            flags = ["--samples", str(write_ramp_samples(tmp_path)), "--out", str(out / "h.svg")]
        argv = [command, *flags]
        assert main(argv) == 0
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        assert sorted(first) == sorted(self.FILES[command])
        for name in first:
            (out / name).write_bytes(b"stale")
        assert main(argv) == 0
        assert {f.name: f.read_bytes() for f in out.iterdir()} == first
        wrote = f"wrote {', '.join(self.FILES[command])} to {out}\n"
        assert capsys.readouterr().out.count(wrote) == 2

    def test_table1_without_out_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["table1", "--reps", "20"]) == 0
        assert list(tmp_path.iterdir()) == []
        assert "wrote" not in capsys.readouterr().out

    def test_compare_writes_to_the_working_directory_by_default(self, tmp_path, capsys,
                                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_bytes(as_json(dict(MINIMAL, repetitions=20, steps_n=50)))
        assert main(["compare", "--config", "config.json"]) == 0
        assert sorted(f.name for f in tmp_path.iterdir()) == ["config.json", "report.csv"]
        assert capsys.readouterr().out.endswith("\nwrote report.csv to .\n")


@pytest.mark.parametrize("name", sorted(REPORT_GOLDEN))
def test_report_csv_pinned(tmp_path, name):
    doc, sha = REPORT_GOLDEN[name]
    out = tmp_path / "out"
    if doc is None:
        argv = ["table1", "--reps", "300", "--out", str(out)]
    else:
        path = tmp_path / "config.json"
        path.write_bytes(as_json(doc))
        argv = ["compare", "--config", str(path), "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256((out / "report.csv").read_bytes()).hexdigest() == sha


@pytest.mark.parametrize("doc", [
    None,
    dict(MINIMAL, initial_stakes=[12.5, 7.25, 30, 0, 50.25], reward_budget_K=0.7,
         repetitions=200, steps_n=100, record={"track_nodes": [2]}),
])
def test_report_csv_same_for_any_worker_count(tmp_path, monkeypatch, doc):
    # four chunks on one worker and on two: None is `table1 --reps 200`
    monkeypatch.setattr(montecarlo, "_MAX_CHUNK", 64)
    if doc is None:
        argv = ["table1", "--reps", "200"]
    else:
        path = tmp_path / "config.json"
        path.write_bytes(as_json(doc))
        argv = ["compare", "--config", str(path)]
    for workers in ("1", "2"):
        assert main([*argv, "--workers", workers, "--out", str(tmp_path / workers)]) == 0
    report = (tmp_path / "1" / "report.csv").read_bytes()
    assert (tmp_path / "2" / "report.csv").read_bytes() == report


def test_compare_ignores_the_config_scheme(tmp_path):
    # compare runs constant and frd on the config's stakes, whatever its
    # scheme: a custom matrix's report is the frd config's, byte for byte
    custom = [[100, 50, 50], [0, 200, 0], [10, 10, 180]]
    reports = []
    for name, scheme in (("frd", "frd"), ("custom", {"custom": custom})):
        path = tmp_path / f"{name}.json"
        path.write_bytes(as_json(dict(MINIMAL, initial_stakes=[20, 30, 50], scheme=scheme,
                                      repetitions=200, steps_n=200, base_seed=4)))
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        reports.append((tmp_path / name / "report.csv").read_bytes())
    assert reports[1] == reports[0]


# nine stakes of 0.1: numpy sums them to 0.9, a left-to-right sum to
# 0.8999999999999999
NINE_TENTHS = dict(MINIMAL, initial_stakes=[0.1] * 9, reward_budget_K=0.01, steps_n=10,
                   repetitions=50)


class TestOneConfigDerivation:
    def test_initial_total_is_numpys_sum_everywhere(self, tmp_path, capsys, monkeypatch):
        stakes = NINE_TENTHS["initial_stakes"]
        path = tmp_path / "config.json"
        path.write_bytes(as_json(NINE_TENTHS))
        assert main(["predict", "--config", str(path)]) == 0
        initial_total = json.loads(capsys.readouterr().out)["initial_total"]
        assert initial_total == 0.9 == float(np.sum(stakes))

        totals = []
        slot_snapshots = montecarlo.slot_snapshots
        def spy(stakes, total, *args, **kwargs):
            totals.append(total)
            return slot_snapshots(stakes, total, *args, **kwargs)
        monkeypatch.setattr(montecarlo, "slot_snapshots", spy)
        run_experiment(load_config(path.read_bytes()))
        assert totals == [0.9]

        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "cmp")]) == 0
        frd_row = (tmp_path / "cmp" / "report.csv").read_text().splitlines()[2].split(",")
        assert frd_row[1] == "frd"
        p = stakesim.predict(stakesim.frd_matrix(stakes, 0.01), 0, 0.9, 10)
        assert [float(x) for x in frd_row[4:6]] == [p.mean_fraction, p.var_fraction]

    def test_reward_matrix_is_built_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "config.json"
        path.write_bytes(as_json(NINE_TENTHS))
        config = load_config(path.read_bytes())
        assert config.reward_matrix() is config.reward_matrix()

        calls = []
        frd_matrix = montecarlo.frd_matrix
        def spy(*args, **kwargs):
            calls.append(args)
            return frd_matrix(*args, **kwargs)
        monkeypatch.setattr(montecarlo, "frd_matrix", spy)
        assert main(["predict", "--config", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["nodes"]) == 9
        assert len(calls) == 1

        constant = replace(config, scheme="constant", custom_entries=None).reward_matrix()
        assert constant.entries.tolist() == stakesim.constant_matrix(9, 0.01).entries.tolist()
        twin = load_config(path.read_bytes())
        assert twin == config and hash(twin) == hash(config)
        assert pickle.loads(pickle.dumps(twin)) == config
        assert pickle.loads(pickle.dumps(config)) == twin

    def test_compare_builds_only_the_matrices_it_runs(self, tmp_path, monkeypatch):
        # the loaded frd config's own matrix is never read: compare runs a
        # constant and an frd config made from it, one build each
        path = tmp_path / "config.json"
        path.write_bytes(as_json(NINE_TENTHS))
        builds = []
        for name in ("frd_matrix", "constant_matrix"):
            def spy(*args, build=getattr(montecarlo, name), name=name, **kwargs):
                builds.append(name)
                return build(*args, **kwargs)
            monkeypatch.setattr(montecarlo, name, spy)
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "cmp")]) == 0
        assert sorted(builds) == ["constant_matrix", "frd_matrix"]


class TestPredictedLaw:
    @pytest.mark.parametrize("name", sorted(PREDICT_GOLDEN))
    def test_predict_stdout_pinned(self, tmp_path, capsys, name):
        doc, sha = PREDICT_GOLDEN[name]
        path = tmp_path / "config.json"
        path.write_bytes(as_json(doc))
        assert main(["predict", "--config", str(path)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha

    @pytest.mark.parametrize("stakes,node,mean", [
        ([0, 50, 50], 0, 0.0), ([100], 0, 1.0), ([0, 50, 0], 1, 1.0),
    ])
    def test_predict_constant_point_mass(self, tmp_path, capsys, stakes, node, mean):
        # a node that holds nothing or everything keeps its initial fraction
        path = tmp_path / "config.json"
        path.write_bytes(as_json(dict(MINIMAL, initial_stakes=stakes, scheme="constant",
                                      record={"track_nodes": [node]})))
        assert main(["predict", "--config", str(path)]) == 0
        [law] = json.loads(capsys.readouterr().out)["nodes"]
        assert law == {"node": node, "basis": "point_mass", "regime": "supercritical",
                       "mean_fraction": mean, "var_fraction": 0.0}

    def test_compare_row_of_an_empty_node(self, tmp_path, capsys):
        # compare reports predict's point mass, not nan, for a node with no
        # stake under constant; it stays empty, so the empirical law agrees
        doc = dict(MINIMAL, initial_stakes=[0, 50, 50], repetitions=20, steps_n=200,
                   record={"track_nodes": [0]})
        path = tmp_path / "config.json"
        path.write_bytes(as_json(doc))
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "cmp")]) == 0
        report = (tmp_path / "cmp" / "report.csv").read_text().splitlines()
        assert report[1].split(",")[1:] == ["constant", "0", "0", "0", "0", "supercritical"]
        assert "nan" not in report[1]

    def test_report_predictions_are_predicts(self, tmp_path, capsys):
        # compare's report.csv and predict print the same law for the
        # config's first tracked node, under both schemes, to 17 digits
        doc = dict(MINIMAL, initial_stakes=[10, 30, 20, 40], repetitions=20, steps_n=200,
                   record={"track_nodes": [2, 0]})
        path = tmp_path / "config.json"
        path.write_bytes(as_json(doc))
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "cmp")]) == 0
        report = (tmp_path / "cmp" / "report.csv").read_text().splitlines()
        rows = {fields[1]: fields for fields in (line.split(",") for line in report[1:])}
        for scheme in ("constant", "frd"):
            path.write_bytes(as_json(dict(doc, scheme=scheme)))
            capsys.readouterr()
            assert main(["predict", "--config", str(path)]) == 0
            law = json.loads(capsys.readouterr().out)["nodes"][0]
            assert law["node"] == 2
            expected = [format(law["mean_fraction"], ".17g"),
                        format(law["var_fraction"], ".17g"), law["regime"]]
            assert rows[scheme][4:] == expected, scheme


@pytest.mark.parametrize("steps_n", [0, 3])
def test_negative_zero_stake_reads_as_zero(tmp_path, capsys, steps_n):
    # frd pays the -0.0 node l = 0.0 * K/2; no output may show a -0
    path = tmp_path / "config.json"
    path.write_bytes(as_json(dict(MINIMAL, initial_stakes=[-0.0, 50.0], steps_n=steps_n,
                                  repetitions=2)))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "samples.csv").read_text().splitlines() == [
        "rep,node,final_fraction", "0,0,0", "0,1,1", "1,0,0", "1,1,1"]
    run_doc = (out / "run.json").read_text()
    assert json.loads(run_doc)["config"]["initial_stakes"] == [0.0, 50.0]
    assert "-0.0" not in run_doc
    capsys.readouterr()
    assert main(["predict", "--config", str(path)]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["nodes"][0]["var_fraction"] == 0.0
    assert "-0.0" not in printed


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy is not a runtime dependency: importing every stakesim module
    # loads no scipy module at all
    code = ("import importlib, pkgutil, sys, stakesim\n"
            "for m in pkgutil.iter_modules(stakesim.__path__):\n"
            "    if m.name != '__main__':\n"
            "        importlib.import_module('stakesim.' + m.name)\n"
            "sys.exit(any(n.split('.')[0] == 'scipy' for n in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(stakesim.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_commands_run_without_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(as_json(dict(MINIMAL, repetitions=20, steps_n=100)))
    out = tmp_path / "out"
    commands = [
        ["simulate", "--config", str(config), "--out", str(out)],
        ["hist", "--samples", str(out / "samples.csv"), "--beta", "0.25,0.25",
         "--out", str(tmp_path / "h.svg")],
        ["predict", "--config", str(config)],
        ["compare", "--config", str(config), "--out", str(tmp_path / "compare")],
        ["table1", "--reps", "20", "--out", str(tmp_path / "table1")],
    ]
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from stakesim.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps(codes), file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(Path(stakesim.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stderr.splitlines()[-1]) == [0] * len(commands)
    assert (tmp_path / "h.svg").read_bytes().startswith(b"<svg")
