import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdrcv import cli, oracle
from mdrcv.cli import main
from mdrcv.dataio import ingest_csv, write_dataset_csv
from mdrcv.errors import ValidationError
from mdrcv.mcverify import HISTOGRAM_BINS
from mdrcv.model import (
    MAX_LEVEL,
    Dataset,
    FactorSpace,
    FactorSubset,
    sample,
    save_distribution,
)
from mdrcv.oracle import high_risk_set, significance
from mdrcv.scenarios import PRESETS, generate_scenario
from mdrcv.search import enumerate_subsets, rank_subsets

from conftest import grid_reference, reference_cdf, wide_csv

ROOT = Path(__file__).resolve().parent.parent


def child_env(**extra):
    """Environment of a CLI child process: this checkout's ``src`` first on
    the path, and ``PATH`` and ``PYTHONDONTWRITEBYTECODE`` passed through, so
    a run that writes no bytecode into the checkout keeps its children from
    writing any."""
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": os.environ.get("PATH", "")}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return {**env, **extra}


@pytest.fixture
def toy_dist_file(tmp_path, toy_balanced):
    path = tmp_path / "toy.json"
    save_distribution(toy_balanced, path)
    return path


class TestIngestCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("X1,Y\n0,1\n1,-1\n")
        ds = ingest_csv(path)
        assert len(ds) == 2
        assert ds.space.n == 1
        assert ds.x.tolist() == [[0], [1]] and ds.y.tolist() == [1, -1]

    def test_zero_label_names_the_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("X1,Y\n0,1\n1,0\n")
        with pytest.raises(ValidationError, match="row 3"):
            ingest_csv(path)

    def test_non_integer_cell_names_the_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("X1,Y\n0,1\nx,-1\n")
        with pytest.raises(ValidationError, match="row 3"):
            ingest_csv(path)

    def test_level_beyond_int16_names_the_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("X1,Y\n0,1\n99999,-1\n")
        with pytest.raises(ValidationError, match=r"row 3.*outside 0\.\.32767"):
            ingest_csv(path)

    def test_utf8_bom_is_skipped_on_either_path(self, tmp_path):
        # the bad label sends the row walk back to the top of the file
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfX1,Y\n0,1\n4,-1\n")
        ds = ingest_csv(path)
        assert ds.space.q == 4 and ds.x.tolist() == [[0], [4]]
        path.write_bytes(b"\xef\xbb\xbfX1,Y\n0,1\n1,0\n")
        with pytest.raises(ValidationError, match=r"row 3: label must be -1 or \+1"):
            ingest_csv(path)

    def test_first_bad_row_named_in_file_order(self, tmp_path):
        # rows judged a block at a time: a bad label just before a block's
        # end, or a record before a later unreadable cell, is still the first
        rows = [f"{i % 3},{1 if i % 2 else -1}" for i in range(3000)]
        for bad_at, later in ((1023, None), (1024, None), (2000, 2100), (5, 7)):
            lines = list(rows)
            lines[bad_at] = "1,0"
            if later is not None:
                lines[later] = "1,x"
            path = tmp_path / "bad.csv"
            path.write_text("X1,Y\n" + "\n".join(lines) + "\n")
            with pytest.raises(ValidationError, match=rf"row {bad_at + 2}: label must be"):
                ingest_csv(path)

    def test_every_cell_quoted(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('"X1","X2","Y"\n"0","2","1"\n"1","0","-1"\n')
        ds = ingest_csv(path)
        assert ds.space == FactorSpace(2, 2) and ds.x.tolist() == [[0, 2], [1, 0]]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n0,1\n")
        with pytest.raises(ValidationError, match="header"):
            ingest_csv(path)

    def test_roundtrip_preserves_records(self, tmp_path, toy_balanced):
        ds = sample(toy_balanced, 300, seed=6)
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        back = ingest_csv(path)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)

    @pytest.mark.parametrize("n_records, n, labels", [
        # the first shape keeps the id of the record count alone
        pytest.param(k, n, labels, id=f"{k}" if i == 0 else f"{k}-{n}-{labels}")
        for k in [1, 1023, 1024, 1025, 3000]
        for i, (n, labels) in enumerate([(3, "alternating"), (1, "alternating"),
                                         (3, "negative"), (3, "positive")])
    ])
    def test_block_writer_matches_row_writer(self, tmp_path, n_records, n, labels):
        # the text table starts at the least value: -1 from the labels, or,
        # with every label +1, the least level
        rng = np.random.default_rng(n_records)
        x = rng.integers(0, MAX_LEVEL + 1, size=(n_records, n))
        x[0, 0] = MAX_LEVEL
        y = {"alternating": np.where(np.arange(n_records) % 2, 1, -1),
             "negative": np.full(n_records, -1), "positive": np.full(n_records, 1)}[labels]
        ds = Dataset(FactorSpace(n, MAX_LEVEL), x, y)
        with open(tmp_path / "rows.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"X{i}" for i in range(1, n + 1)] + ["Y"])
            for row, label in zip(ds.x, ds.y):
                writer.writerow([int(v) for v in row] + [int(label)])
        write_dataset_csv(ds, tmp_path / "blocks.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def _padded(cell):
    return st.tuples(st.sampled_from(["", " ", "  ", "\t"]),
                     st.sampled_from(["", " ", "\t "])).map(lambda p: p[0] + cell + p[1])


@st.composite
def csv_texts(draw):
    """CSV text mixing valid rows with the cases the row walk treats
    specially: ``#`` rows, blank and blank-looking lines, padded cells, the
    spellings ``+1``, ``1.0``, ``"1"`` and ``1_0``, short and long rows, and
    out-of-range levels and labels."""
    n = draw(st.integers(1, 3))
    level = st.integers(0, 4).map(str)
    label = st.sampled_from(["-1", "1", "+1"])
    if draw(st.booleans()):  # spellings only a quote-aware parser or int() reads
        level = st.one_of(level, st.sampled_from(['"1"', "1_0"]))
        label = st.one_of(label, st.just('"-1"'))
    odd = st.sampled_from(["+1", "1.0", '"1"', "1_0", "-1", "0", "2", "5", "-3",
                           "32768", "99999", "#1", "", "x"])
    valid = st.tuples(st.lists(level.flatmap(_padded), min_size=n, max_size=n),
                      label.flatmap(_padded)).map(lambda t: ",".join(t[0] + [t[1]]))
    wild = st.lists(st.one_of(level, odd).flatmap(_padded),
                    min_size=1, max_size=n + 2).map(",".join)
    blank = st.sampled_from(["", "   ", "# comment", "#"])
    lines = draw(st.lists(valid, max_size=12))
    for extra in draw(st.lists(st.one_of(wild, blank), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    header = ",".join([f"X{i}" for i in range(1, n + 1)] + ["Y"])
    return newline.join([header] + lines) + draw(st.sampled_from(["", newline]))


def _loadtxt_table(body):
    """The one parse ``ingest_csv`` makes of the rows after the header: an
    int64 table, empty where ``np.loadtxt`` refuses or warns."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(io.StringIO(body, newline=""), delimiter=",", dtype=np.int64,
                              ndmin=2, comments=None, quotechar='"')
    except (ValueError, Warning):
        return np.zeros((0, 0), dtype=np.int64)  # what no Dataset accepts


def _first_bad_row(text, n):
    """Line number of the first row with the wrong cell count, a cell
    ``int()`` cannot read, or a record ``Dataset`` refuses; else None."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            cells = [int(c) for c in row]
            Dataset(FactorSpace(n, MAX_LEVEL), [cells[:n]], cells[n:])
        except (ValueError, ValidationError):
            return line_no
    return None


@given(text=csv_texts())
@settings(max_examples=300, deadline=None)
def test_csv_is_read_by_one_loadtxt_parse(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "one-parse.csv"
    path.write_bytes(text.encode("utf-8"))
    n = text.splitlines()[0].count(",")  # the header X1,...,Xn,Y
    table = _loadtxt_table(text.partition("\n")[2])
    try:
        want = Dataset(FactorSpace(n, max(1, int(table[:, :-1].max()))),
                       table[:, :-1], table[:, -1])
    except (ValueError, ValidationError):  # a table with no level, or one Dataset refuses
        want = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = ingest_csv(path)
        except ValidationError as exc:
            got = exc
    assert caught == []
    if want is not None:
        assert isinstance(got, Dataset) and got.space == want.space
        assert got.x.dtype == np.int16 and got.y.dtype == np.int8
        assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)
        return
    assert isinstance(got, ValidationError) and "\n" not in str(got)
    bad = _first_bad_row(text, n)
    if bad is not None:
        assert f"row {bad}:" in str(got)


@pytest.mark.parametrize("cell,shown", [
    ("1_0", "'1_0'"), ("\u0661", "'\u0661'"), ("\uff11", "'\uff11'"), ('"1_0\n"', "'1_0\\n'"),
], ids=["underscore", "arabic-indic", "fullwidth", "quoted-newline"])
def test_csv_refuses_cells_only_int_reads(tmp_path, cell, shown):
    # int() reads each cell as 10 or 1; loadtxt, the one parser, does not, and
    # its message is one line, a newline inside a quoted cell escaped
    assert int(cell.strip('"')) in (10, 1)
    path = tmp_path / "int-only.csv"
    path.write_text(f"X1,Y\n0,1\n{cell},-1\n", encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        ingest_csv(path)
    assert "\n" not in str(info.value) and shown in str(info.value)


def _ingest_or_message(path):
    try:
        ds = ingest_csv(path)
    except ValidationError as exc:
        return str(exc).replace(str(path), "<path>")
    return ds.space, ds.x.tolist(), ds.y.tolist()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("text", [
    'X1,X2,Y\n0,2,1\n"1",0,-1\n2,1,1\n',
    "X1,X2,Y\n0,2,1\n1,0,0\n2,1,1\n",  # refused: the walk re-reads the rows
], ids=["accepted", "bad-label"])
def test_csv_from_a_fifo_equals_the_file(tmp_path, text):
    (tmp_path / "d.csv").write_text(text)
    fifo = tmp_path / "d.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    got = _ingest_or_message(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == _ingest_or_message(tmp_path / "d.csv")


class TestGenerateScenario:
    def test_null_makes_every_subset_significant(self):
        dist = generate_scenario("null", n=3, q=1, p_pos=0.3)
        for r in (1, 2, 3):
            for sub in enumerate_subsets(3, r):
                assert significance(dist, [FactorSubset(sub)])[0]

    def test_single_factor_structure(self):
        dist = generate_scenario("single-factor", n=2, q=2)
        assert significance(dist, [FactorSubset.of(1)])[0]
        assert not significance(dist, [FactorSubset.of(2)])[0]

    def test_pair_epistasis_structure(self):
        dist = generate_scenario("pair-epistasis", n=3, q=1)
        assert significance(dist, [FactorSubset.of(1, 2)])[0]
        assert not significance(dist, [FactorSubset.of(1, 3)])[0]
        assert not significance(dist, [FactorSubset.of(2, 3)])[0]
        assert not significance(dist, [FactorSubset.of(1)])[0]
        assert not significance(dist, [FactorSubset.of(2)])[0]

    def test_independent_needs_every_factor(self):
        dist = generate_scenario("independent", n=2, q=1, effect=0.8)
        assert not significance(dist, [FactorSubset.of(1)])[0]
        assert not significance(dist, [FactorSubset.of(2)])[0]
        assert significance(dist, [FactorSubset.of(1, 2)])[0]

    @given(
        nq=st.tuples(st.integers(1, 12), st.integers(1, 15)).filter(
            lambda nq: (nq[1] + 1) ** nq[0] <= 4096
        ),
        effect=st.sampled_from((0.5, -0.5, 1 / 3, 700.0, -700.0))
        | st.floats(-1000, 1000).filter(lambda e: e != 0.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_independent_matches_grid_formula(self, nq, effect):
        # the formula the preset used over the materialized point grid
        n, q = nq
        grid = np.indices((q + 1,) * n).reshape(n, -1).T
        logit = effect * (grid.astype(np.float64) - q / 2.0).sum(axis=1)
        with np.errstate(over="ignore"):
            cond = 1.0 / (1.0 + np.exp(-logit))
        m = np.full(len(cond), 1.0 / len(cond))
        want = np.stack([m * (1.0 - cond), m * cond], axis=1)
        got = generate_scenario("independent", n, q, effect=effect).probs
        assert got.tobytes() == want.tobytes()

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValidationError):
            generate_scenario("mystery", n=2, q=1)


class TestCliCommands:
    def test_oracle_on_toy_table(self, toy_dist_file, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        code = main([
            "oracle", "--dist", str(toy_dist_file), "--subsets", "1", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["threshold"] == pytest.approx(0.5)
        assert doc["subsets"][0]["error"] == pytest.approx(0.8)
        assert doc["high_risk_set"] == [[0]]

    def test_tie_tolerance_is_relative_to_a_tiny_threshold(self, capsys):
        # threshold P(Y=1) = 5e-11: an absolute 1e-10 tolerance would send
        # the cell with P(Y=1 | x) = 1e-10 to -1, an error of 2, variance 0
        assert main(["oracle", "--preset", "single-factor", "--n", "1", "--q", "1",
                     "--p-low", "0", "--p-high", "1e-10"]) == 0
        assert "error 1.000000, variance 1.000000" in capsys.readouterr().out

    def test_oracle_builds_high_risk_set_only_for_out(self, monkeypatch, tmp_path, capsys):
        calls = []

        def spy(dist, psi):
            calls.append(dist.space.n)
            return high_risk_set(dist, psi)

        monkeypatch.setattr(cli, "high_risk_set", spy)
        args = ["oracle", "--preset", "pair-epistasis", "--n", "3", "--q", "2"]
        assert main(args) == 0 and calls == []
        assert main(args + ["--out", str(tmp_path / "o.json")]) == 0 and calls == [3]

    def test_oracle_reads_significance_off_one_union_marginal(self, monkeypatch, capsys):
        # nine subsets: one significance call, whose conditionals all come
        # from one marginal of the whole table; the predictors take one more
        whole_table, inside, calls = [], [], []
        masses, flags = oracle.cylinder_masses, cli.significance

        def masses_spy(dist, subset):
            whole_table.append(bool(inside))
            return masses(dist, subset)

        def flags_spy(dist, subsets):
            calls.append(len(subsets))
            inside.append(True)
            try:
                return flags(dist, subsets)
            finally:
                inside.clear()

        monkeypatch.setattr(oracle, "cylinder_masses", masses_spy)
        monkeypatch.setattr(cli, "significance", flags_spy)
        assert main(["oracle", "--preset", "pair-epistasis", "--n", "5", "--q", "2",
                     "--subsets", "1,2;1,3;2,3;1,4;2,4;3,4;1,5;2,5;3,5"]) == 0
        assert calls == [9]
        assert sorted(whole_table) == [False, True]
        assert capsys.readouterr().out.count("significant=True") == 1

    def test_every_factor_spelled_out_prints_and_writes_the_default(self, tmp_path, capsys):
        # no --subsets means every factor; listing all six takes the same path
        args = ["oracle", "--preset", "pair-epistasis", "--n", "6", "--q", "2"]
        runs = []
        for extra in ([], ["--subsets", "1,2,3,4,5,6"]):
            out = tmp_path / f"oracle{len(runs)}.json"
            assert main(args + extra + ["--out", str(out)]) == 0
            runs.append((capsys.readouterr().out, out.read_bytes()))
        assert runs[0] == runs[1]
        assert "subset [1, 2, 3, 4, 5, 6]: " in runs[0][0] and "significant=True" in runs[0][0]

    def test_simulate_then_reingest(self, toy_dist_file, tmp_path):
        out = tmp_path / "sim.csv"
        code = main([
            "simulate", "--dist", str(toy_dist_file),
            "--N", "50", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        ds = ingest_csv(out)
        assert len(ds) == 50

    def test_search_on_forty_factors(self, tmp_path, capsys):
        path = wide_csv(tmp_path / "wide.csv", n=40, n_records=1500)
        assert main(["search", "--data", str(path), "--r", "2", "--K", "5"]) == 0
        assert capsys.readouterr().out.startswith("ranked 780 subsets of size 2")

    def test_search_reports_are_byte_identical(self, tmp_path):
        data = tmp_path / "data.csv"
        assert main([
            "simulate", "--preset", "pair-epistasis", "--n", "3", "--q", "2",
            "--p-low", "0.05", "--p-high", "0.95",
            "--N", "2000", "--seed", "12", "--out", str(data),
        ]) == 0
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main([
                "search", "--data", str(data), "--r", "2", "--K", "5", "--out", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_clt_verify_single_replication(self, tmp_path):
        out = tmp_path / "clt.json"
        code = main([
            "clt-verify", "--preset", "pair-epistasis", "--n", "3", "--q", "2",
            "--p-low", "0.05", "--p-high", "0.95",
            "--subsets", "1,2", "--N", "500", "--K", "5", "--M", "1",
            "--seed", "77", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n_replications"] == 1
        assert len(doc["univariate"]) == 1

    def test_usage_error_exits_one(self):
        assert main(["search", "--r", "2"]) == 1  # no data source
        assert main(["clt-verify", "--subsets", "1,2", "--N", "100",
                     "--M", "1", "--seed", "1"]) == 1

    def test_unknown_flag_exits_one(self):
        assert main(["simulate", "--no-such-flag"]) == 1

    def test_invalid_schedule_rejected_before_compute(self, tmp_path, capsys):
        # the schedule is refused before the CSV is opened
        missing = tmp_path / "missing.csv"
        assert main(["search", "--data", str(missing), "--r", "1", "--eps-beta", "0.7"]) == 1
        assert capsys.readouterr().err == (
            "error: eps schedule needs beta in (0, 1/2), got 0.7\n")

    def test_fold_count_rejected_before_the_csv_is_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["search", "--data", str(missing), "--r", "1", "--K", "1"]) == 1
        assert capsys.readouterr().err == "error: --K must be >= 2\n"

    def test_degenerate_replication_is_reported(self, tmp_path, capsys):
        # tiny samples from a rare-positive null scenario produce
        # single-label datasets; the degenerate branch reads no plug-in scale
        out = tmp_path / "r.json"
        code = main([
            "clt-verify", "--preset", "null", "--n", "1", "--q", "1",
            "--p-pos", "0.05", "--subsets", "1", "--N", "4", "--K", "2",
            "--M", "50", "--seed", "3", "--out", str(out),
        ])
        assert code == 0 and capsys.readouterr().err == ""
        (entry,) = json.loads(out.read_text(), parse_constant=refuse_constant)["univariate"]
        assert entry["degenerate"] and "zero_scale" not in entry
        assert entry["ks_limit"] is None  # undefined without a scale: JSON null

    def test_one_class_replication_is_reported(self, tmp_path, capsys):
        # 140 of the 200 replications hold one label class; 190 have a fold
        # that lacks one
        out = tmp_path / "r.json"
        code = main([
            "clt-verify", "--preset", "null", "--n", "1", "--q", "1",
            "--p-pos", "0.02", "--subsets", "1", "--N", "20", "--K", "2",
            "--M", "200", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith(
            "subset (1,): degenerate (oracle variance 0), 190 of 200 with a one-class fold [FAIL]\n")
        (entry,) = json.loads(out.read_text())["univariate"]
        assert entry["degenerate"] and entry["ks_self_norm"] is None
        assert "zero_scale" not in entry
        assert entry["one_class_folds"] == 190 and not entry["passed"]

    def test_single_one_class_replication_fails_the_null_check(self, tmp_path, capsys):
        # replication 167's fold 1 holds 400 y = -1 records and no y = +1:
        # its z is -sqrt(2000) * 0.4, and the other 199 are exactly 0
        out = tmp_path / "r.json"
        code = main([
            "clt-verify", "--preset", "null", "--n", "1", "--q", "1",
            "--p-pos", "0.02", "--subsets", "1", "--N", "2000", "--K", "5",
            "--M", "200", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith(
            "subset (1,): degenerate (oracle variance 0), 1 of 200 with a one-class fold [FAIL]\n")
        (entry,) = json.loads(out.read_text())["univariate"]
        assert entry["one_class_folds"] == 1 and not entry["passed"]

    @pytest.mark.parametrize("command", ["simulate", "clt-verify"])
    def test_negative_seed_exits_one(self, command, tmp_path, capsys):
        args = [command, "--preset", "null", "--n", "2", "--q", "1",
                "--N", "10", "--seed", "-1"]
        args += {
            "simulate": ["--out", str(tmp_path / "x.csv")],
            "clt-verify": ["--subsets", "1", "--M", "2"],
        }[command]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == "error: --seed must be >= 0, got -1\n"
        assert not (tmp_path / "x.csv").exists()

    def test_zero_plug_in_scale_is_counted(self, tmp_path, capsys):
        # near-deterministic labels on one binary factor: most replications
        # see no misclassified record, so their plug-in scale is exactly 0
        out = tmp_path / "r.json"
        code = main([
            "clt-verify", "--preset", "single-factor", "--n", "1", "--q", "1",
            "--p-low", "0.02", "--p-high", "0.98", "--subsets", "1",
            "--N", "30", "--M", "300", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert ", 200 of 300 with plug-in scale 0 [FAIL]\n" in captured.out
        (entry,) = json.loads(out.read_text())["univariate"]
        assert entry["zero_scale"] == 200 and not entry["passed"]
        # counted independently: 28 replications are in both counts
        assert entry["one_class_folds"] == 40

    def test_empty_rule_replication_is_counted(self, tmp_path, capsys):
        # eps_500 lifts the threshold of subset {1,3} above every cell in
        # one of the 20 replications: its rule is empty, its scale 0
        out = tmp_path / "r.json"
        code = main([
            "clt-verify", "--preset", "pair-epistasis", "--n", "3", "--q", "2",
            "--subsets", "1,2;1,3", "--N", "500", "--M", "20", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 0 and capsys.readouterr().err == ""
        doc = json.loads(out.read_text())
        assert [u.get("zero_scale") for u in doc["univariate"]] == [None, 1]
        assert not doc["univariate"][1]["passed"]
        # that replication's plug-in covariance is singular: it alone is left out
        assert not doc["multivariate"]["whitening_skipped"]
        assert doc["multivariate"]["near_singular"] == 1
        assert len(doc["multivariate"]["whitened_ks"]) == 2

    def test_near_singular_replications_are_counted(self, tmp_path, capsys):
        # 32 of 200 replications have scale 0 on {1,3}: a singular covariance
        out = tmp_path / "r.json"
        code = main([
            "clt-verify", "--preset", "pair-epistasis", "--n", "3", "--q", "2",
            "--subsets", "1,2;1,3", "--N", "500", "--K", "5", "--M", "200", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        joint = captured.out.splitlines()[2]
        assert re.fullmatch(r"joint: .*, whitened KS \d\.\d{4}, \d\.\d{4}, "
                            r"32 of 200 near-singular \[FAIL\]", joint), joint
        mv = json.loads(out.read_text())["multivariate"]
        assert mv["near_singular"] == 32 and not mv["whitening_skipped"]
        assert len(mv["whitened_ks"]) == 2 and not mv["passed"]

    @pytest.mark.parametrize("command", ["clt-verify", "oracle"])
    def test_empty_subset_list_exits_one(self, command, tmp_path, capsys):
        args = [command, "--preset", "pair-epistasis", "--n", "3", "--q", "2",
                "--subsets", ";", "--out", str(tmp_path / "r.json")]
        if command == "clt-verify":
            args += ["--N", "100", "--M", "5", "--seed", "1"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no subset given" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command, flag, least", [
        ("clt-verify", "N", 1), ("clt-verify", "K", 2), ("clt-verify", "M", 1),
        ("clt-verify", "workers", 1), ("search", "K", 2),
    ])
    def test_flag_below_its_least_value_exits_one(
        self, command, flag, least, tmp_path, capsys
    ):
        if command == "clt-verify":
            values = {"N": 50, "K": 2, "M": 2, "workers": 1}
            args = [command, "--preset", "null", "--n", "2", "--q", "1", "--seed", "1",
                    "--subsets", "1"]
        else:
            values = {"K": 2}
            args = [command, "--data", str(_small_csv(tmp_path)), "--r", "1"]
        values[flag] = least - 1
        for name, value in values.items():
            args += [f"--{name}", str(value)]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: --{flag} must be >= {least}\n"

    def test_flags_are_checked_in_order(self, capsys):
        args = ["clt-verify", "--preset", "null", "--n", "2", "--q", "1", "--seed", "1",
                "--subsets", "1", "--N", "0", "--K", "1", "--M", "0", "--workers", "0"]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: --N must be >= 1\n"

    def test_module_entry_point(self, toy_dist_file):
        proc = subprocess.run(
            [sys.executable, "-m", "mdrcv.cli", "oracle", "--dist", str(toy_dist_file)],
            capture_output=True, text=True,
            cwd=ROOT, env=child_env(),
        )
        assert proc.returncode == 0
        assert "threshold" in proc.stdout


def _dist_json(tmp_path, content: bytes):
    path = tmp_path / "dist.json"
    path.write_bytes(content)
    return ["oracle", "--dist", str(path)]


def _csv_with_ff(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"X1,Y\n0,1\n\xff,-1\n")
    return ["search", "--data", str(path), "--r", "1", "--K", "2"]


def _csv_level_overflow(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("X1,Y\n99999,-1\n")
    return ["search", "--data", str(path), "--r", "1", "--K", "2"]


def _csv_field_past_limit(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('X1,Y\n"' + "1" * 200_000 + '",1\n')
    return ["search", "--data", str(path), "--r", "1", "--K", "2"]


def _search_over_budget(tmp_path):
    # C(1000, 3) subsets of 8 records
    path = wide_csv(tmp_path / "data.csv", n=1000, n_records=8, q=1)
    return ["search", "--data", str(path), "--r", "3", "--K", "2"]


def _cell_table_over_cap(tmp_path):
    # 64^5 cells per fold and label
    path = tmp_path / "data.csv"
    path.write_text("X1,X2,X3,X4,X5,Y\n" + "63,0,1,2,3,1\n0,63,1,2,3,-1\n" * 4)
    return ["search", "--data", str(path), "--r", "5", "--K", "2"]


def _small_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("X1,Y\n0,1\n1,-1\n2,1\n")
    return path


def _data_with(tmp_path, *flags):
    return ["search", "--data", str(_small_csv(tmp_path)), *flags, "--r", "1", "--K", "2"]


def _tiny_positive_mass(command, p_pos):
    """A null preset whose P(Y=1) lies below ``oracle.MIN_POSITIVE_MASS``."""
    flags = ["--subsets", "1", "--N", "20", "--M", "2", "--seed", "1"]
    return lambda tmp: [command, "--preset", "null", "--n", "1", "--q", "1",
                        "--p-pos", p_pos, *(flags if command == "clt-verify" else [])]


def _tiny_positive_atom(tmp_path):
    # a large influence value on the unlisted, zero-mass atom (0, -1)
    return _dist_json(tmp_path, b'{"n": 1, "q": 1, "atoms": [{"x": [0], "y": 1, "p": 1e-200},'
                                b' {"x": [1], "y": -1, "p": 1.0}]}')


# (preset, a flag it does not read, value): each is refused, not ignored.
UNREAD_PRESET_FLAGS = [
    ("pair-epistasis", "effect", "5"), ("null", "p-low", "0.1"),
    ("single-factor", "p-pos", "0.5"), ("independent", "p-high", "0.9"),
]


# A P(Y=1) whose CLT scale overflows when squared, by repro.
TINY_POSITIVE_MASS = {
    "oracle-p-pos-1e-308": _tiny_positive_mass("oracle", "1e-308"),
    "clt-verify-p-pos-1e-308": _tiny_positive_mass("clt-verify", "1e-308"),
    "oracle-p-pos-1e-320": _tiny_positive_mass("oracle", "1e-320"),
    "clt-verify-p-pos-1e-320": _tiny_positive_mass("clt-verify", "1e-320"),
    "dist-positive-atom-1e-200": _tiny_positive_atom,
}


# The flags search had for sampling its own dataset; it reads a CSV only.
DROPPED_SEARCH_FLAGS = {
    "dist": "missing.json", "preset": "single-factor", "n": "5", "p-pos": "0.5",
    "p-low": "0.2", "p-high": "0.8", "effect": "0.5", "N": "10", "seed": "1",
}


@pytest.mark.parametrize("make_args", [
    _csv_with_ff,
    lambda tmp: _dist_json(tmp, b'{"n": 1, "q": 1, "atoms": []}\xff'),
    lambda tmp: _dist_json(tmp, b'{"n": "x", "q": 1, "atoms": []}'),
    lambda tmp: _dist_json(tmp, b'{"n": 1, "q": 1, "atoms": 5}'),
    lambda tmp: ["oracle", "--preset", "independent", "--n", "2", "--q", "1",
                 "--effect", "inf"],
    lambda tmp: ["oracle", "--preset", "pair-epistasis", "--n", "3", "--q", "2",
                 "--subsets", ""],
    lambda tmp: _dist_json(tmp, b'{"n": 100000000000000000000, "q": 1, "atoms": []}'),
    lambda tmp: ["oracle", "--preset", "null", "--n", "100000000000000000000", "--q", "1"],
    _csv_level_overflow,
    lambda tmp: ["simulate", "--preset", "null", "--n", "1", "--q", "40000",
                 "--N", "10", "--seed", "1", "--out", str(tmp / "q.csv")],
    _csv_field_past_limit,
    *[lambda tmp, preset=preset: ["oracle", "--preset", preset,
                                  "--n", "100000000000000000000", "--q", "1"]
      for preset in ("single-factor", "pair-epistasis", "independent")],
    _search_over_budget,
    _cell_table_over_cap,
    *[lambda tmp, flag=flag, value=value: _data_with(tmp, f"--{flag}", value)
      for flag, value in DROPPED_SEARCH_FLAGS.items()],
    *[lambda tmp, preset=preset, flag=flag, value=value: [
        "oracle", "--preset", preset, "--n", "3", "--q", "2", f"--{flag}", value]
      for preset, flag, value in UNREAD_PRESET_FLAGS],
    *TINY_POSITIVE_MASS.values(),
], ids=["csv-not-utf8", "json-not-utf8", "n-not-int", "atoms-not-list", "effect-inf",
        "oracle-empty-subsets",
        "json-huge-n", "preset-huge-n", "csv-level-overflow", "preset-q-past-int16",
        "csv-field-past-limit", "single-factor-huge-n", "pair-epistasis-huge-n",
        "independent-huge-n", "search-over-budget", "cell-table-over-cap",
        *[f"data-with-{flag}" for flag in DROPPED_SEARCH_FLAGS],
        *[f"{preset}-with-{flag}" for preset, flag, _ in UNREAD_PRESET_FLAGS],
        *TINY_POSITIVE_MASS])
def test_malformed_input_is_one_line_error(make_args, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mdrcv", *make_args(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env=child_env(PYTHONWARNINGS="error"),  # a warning would be a traceback
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("make_args", TINY_POSITIVE_MASS.values(), ids=TINY_POSITIVE_MASS)
def test_tiny_positive_mass_names_the_bound(make_args, tmp_path, capsys):
    # (2 / P(Y=1))**2 overflows below the bound: refused before any oracle sum
    assert main(make_args(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: P(Y=1) = ") and err.count("\n") == 1
    assert f"is below {oracle.MIN_POSITIVE_MASS!r}, " in err


def test_small_positive_mass_above_the_bound_is_kept(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mdrcv", "oracle", "--preset", "null", "--n", "1", "--q", "1",
         "--p-pos", "1e-150"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env=child_env(PYTHONWARNINGS="error"),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "variance 0.000000" in proc.stdout


def test_cell_table_over_cap_names_the_subset_size(tmp_path, capsys):
    assert main(_cell_table_over_cap(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err == "error: r=5, q=63: (q+1)^r cells exceed dense-table cap 16777216\n"


def test_data_with_a_sampling_flag_names_the_flag(tmp_path, capsys):
    # none of these flags has a meaning for a CSV, so none is ignored
    args = _data_with(tmp_path, "--n", "50", "--p-high", "3", "--seed", "9")
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: unrecognized arguments: --n 50 --p-high 3 --seed 9\n")


def test_search_refuses_q(tmp_path, capsys):
    # a search's levels are its data's; a top level past them changes nothing
    assert main(_data_with(tmp_path, "--q", "2")) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --q 2\n"


def test_search_reads_a_csv_with_a_utf8_bom(tmp_path, capsys):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfX1,Y\n0,1\n1,-1\n0,-1\n1,1\n")
    assert main(["search", "--data", str(path), "--r", "1", "--K", "2"]) == 0
    assert capsys.readouterr().out.startswith("ranked 1 subsets of size 1 (N=4, K=2)")


def test_oracle_reads_a_dist_with_a_utf8_bom(toy_dist_file, capsys):
    plain = main(["oracle", "--dist", str(toy_dist_file)]), capsys.readouterr()
    toy_dist_file.write_bytes(b"\xef\xbb\xbf" + toy_dist_file.read_bytes())
    assert (main(["oracle", "--dist", str(toy_dist_file)]), capsys.readouterr()) == plain
    assert plain[0] == 0


@pytest.mark.parametrize("flag, value", [
    ("n", "5"), ("q", "7"), ("p-pos", "0.5"), ("p-low", "0.2"), ("p-high", "3"),
    ("effect", "0.5"),
])
def test_dist_with_a_preset_flag_names_the_flag(toy_dist_file, flag, value, capsys):
    assert main(["oracle", "--dist", str(toy_dist_file), f"--{flag}", value]) == 1
    assert capsys.readouterr().err == f"error: --dist cannot be combined with --{flag}\n"


def _field_past_limit_on_line_3(tmp_path, dist_file):
    path = tmp_path / "wide-cell.csv"
    path.write_text('X1,Y\n0,1\n"' + "1" * 200_000 + '",-1\n')
    return (["search", "--data", str(path), "--r", "1", "--K", "2"],
            f"{path}, line 3: field larger than field limit (131072)")


@pytest.mark.parametrize("make_case", [
    lambda tmp, dist: (["oracle", "--dist", str(dist), "--preset", "null"],
                       "give either --dist or --preset, not both"),
    lambda tmp, dist: (["oracle", "--preset", "null", "--q", "1"], "--preset requires --n and --q"),
    lambda tmp, dist: (["oracle", "--preset", "null", "--n", "1"], "--preset requires --n and --q"),
    _field_past_limit_on_line_3,
], ids=["dist-and-preset", "preset-without-n", "preset-without-q", "csv-field-past-limit"])
def test_refusal_names_its_fault(make_case, toy_dist_file, tmp_path, capsys):
    args, message = make_case(tmp_path, toy_dist_file)
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_histogram_is_printed_for_each_non_degenerate_subset(tmp_path, capsys):
    # {1} carries the signal; {2} has oracle variance 0 and gets no histogram
    args = ["clt-verify", "--preset", "single-factor", "--n", "2", "--q", "1",
            "--subsets", "1;2", "--N", "200", "--M", "20", "--seed", "1"]
    plain, drawn = tmp_path / "plain.json", tmp_path / "drawn.json"
    assert main(args + ["--out", str(plain)]) == 0
    capsys.readouterr()
    assert main(args + ["--histogram", "--out", str(drawn)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "subset (2,): degenerate" in "\n".join(lines)
    heads = [i for i, line in enumerate(lines) if line.startswith("standardized deviations")]
    assert [lines[i] for i in heads] == ["standardized deviations, subset (1,):"]
    bars = lines[heads[0] + 1 : heads[0] + 1 + HISTOGRAM_BINS]
    counts = [re.fullmatch(r"\[ *[+-]\d+\.\d{3}, +[+-]\d+\.\d{3}\) +(\d+) #*", b) for b in bars]
    assert all(counts) and sum(int(c[1]) for c in counts) == 20
    assert lines[heads[0] + 1 + HISTOGRAM_BINS] == f"report written to {drawn}"
    assert plain.read_bytes() == drawn.read_bytes()


@pytest.mark.parametrize("command", ["simulate", "clt-verify", "oracle"])
@pytest.mark.parametrize("preset, flag, readers", [
    ("null", "effect", "independent"),
    ("null", "p-high", "single-factor or pair-epistasis"),
    ("independent", "p-low", "single-factor or pair-epistasis"),
    ("single-factor", "effect", "independent"),
    ("pair-epistasis", "p-pos", "null"),
])
def test_preset_refuses_a_flag_it_does_not_read(command, preset, flag, readers, tmp_path,
                                                capsys):
    args = [command, "--preset", preset, "--n", "2", "--q", "1", f"--{flag}", "0.5"]
    args += {
        "simulate": ["--N", "10", "--seed", "1", "--out", str(tmp_path / "x.csv")],
        "clt-verify": ["--subsets", "1", "--N", "10", "--M", "2", "--seed", "1"],
        "oracle": [],
    }[command]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: --{flag} applies only to --preset {readers}\n"
    assert not (tmp_path / "x.csv").exists()


def refuse_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def test_joint_check_at_one_replication_warns_nothing(tmp_path):
    args = ["clt-verify", "--preset", "pair-epistasis", "--n", "3", "--q", "2",
            "--p-low", "0.05", "--p-high", "0.95",
            "--subsets", "1,2;1,3", "--N", "500", "--M", "1", "--seed", "77",
            "--out", str(tmp_path / "r.json")]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "mdrcv", *args],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    doc = json.loads((tmp_path / "r.json").read_text(), parse_constant=refuse_constant)
    sample_cov = doc["multivariate"]["sample_cov"]
    assert len(sample_cov) == 2 and all(v is None for row in sample_cov for v in row)


def test_out_of_memory_is_one_line_error(tmp_path):
    # 64^4 cells x 5 folds x 2 labels of int64 counts need 1.25 GiB; only
    # the child's address space is capped below that
    import resource

    rng = np.random.default_rng(0)
    x = rng.integers(0, 64, size=(200, 4))
    x[0] = 63
    path = tmp_path / "q63.csv"
    lines = ["X1,X2,X3,X4,Y"]
    lines += [",".join(map(str, row)) + f",{1 - 2 * (i % 2)}" for i, row in enumerate(x)]
    path.write_text("\n".join(lines) + "\n")
    limit = 2**30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    args = ["search", "--data", str(path), "--r", "4", "--K", "5"]
    proc = subprocess.run(
        [sys.executable, "-m", "mdrcv", *args],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        preexec_fn=cap_address_space,
        env=child_env(OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: out of memory: ")
    assert "Traceback" not in proc.stderr


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    # the reader of stdout is gone before the ranking is written, as when
    # the output goes through `| head`
    args = ["simulate", "--preset", "pair-epistasis", "--n", "6", "--q", "1",
            "--N", "2000", "--seed", "7", "--out", str(tmp_path / "d.csv")]
    assert main(args) == 0
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mdrcv", "search", "--data", "d.csv", "--r", "2", "--K", "5"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=tmp_path, timeout=60,
            env=child_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""


@given(
    preset=st.sampled_from(PRESETS),
    n=st.integers(0, 4),
    q=st.integers(0, 3),
    n_records=st.integers(1, 5000),  # crosses the number of atoms, 4 to 512
    seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(-(2**70), -1),
                   st.integers(2**64, 2**80)),
)
@settings(max_examples=150, deadline=None)
def test_simulate_fuzz_exits_cleanly_with_reference_records(
    tmp_path_factory, preset, n, q, n_records, seed
):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    args = ["simulate", "--preset", preset, "--n", str(n), "--q", str(q),
            "--N", str(n_records), "--seed", str(seed), "--out", str(path)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        return
    # the inverse-CDF sampler the CLI must match: searchsorted on the full CDF
    dist = generate_scenario(preset, n, q)
    u = np.random.default_rng(seed).random(n_records)
    atom = np.searchsorted(reference_cdf(dist), u, side="right")
    table = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(table[:, :n], grid_reference(dist.space)[atom >> 1])
    assert np.array_equal(table[:, n], np.where(atom & 1, 1, -1))


# Ways a search CSV can be off: each maps the file's lines to its bytes.
CSV_MUTATIONS = {
    "none": lambda lines, at: "\n".join(lines).encode() + b"\n",
    "crlf": lambda lines, at: "\r\n".join(lines).encode() + b"\r\n",
    "bom": lambda lines, at: "\ufeff".encode() + "\n".join(lines).encode() + b"\n",
    "truncated-last-row": lambda lines, at: "\n".join(lines).encode()[:-at],
    "blank-lines": lambda lines, at: "\n".join(lines[:at] + ["", ""] + lines[at:]).encode(),
    "quoted-cells": lambda lines, at: "\n".join(
        lines[:at] + [",".join(f'"{c}"' for c in line.split(",")) for line in lines[at:]]
    ).encode(),
    "huge-integer": lambda lines, at: "\n".join(
        lines[:at] + ["9" * 30 + line[line.index(","):] for line in lines[at:at + 1]]
        + lines[at + 1:]
    ).encode(),
    "max-level": lambda lines, at: "\n".join(
        lines[:at] + [f"{MAX_LEVEL}" + line[line.index(","):] for line in lines[at:at + 1]]
        + lines[at + 1:]
    ).encode(),
    "empty-file": lambda lines, at: b"",
    "header-only": lambda lines, at: lines[0].encode() + b"\n",
    "non-utf8": lambda lines, at: "\n".join(lines[:at]).encode() + b"\n\xff" + "\n".join(
        lines[at:]).encode(),
}


@st.composite
def search_csvs(draw):
    """Bytes of a small search CSV, with one ``CSV_MUTATIONS`` entry applied."""
    n = draw(st.integers(1, 3))
    row = st.tuples(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                    st.sampled_from(("-1", "1")))
    rows = draw(st.lists(row, min_size=1, max_size=12))
    lines = [",".join([f"X{i}" for i in range(1, n + 1)] + ["Y"])]
    lines += [",".join(map(str, x)) + "," + y for x, y in rows]
    at = draw(st.integers(1, len(lines)))
    return CSV_MUTATIONS[draw(st.sampled_from(sorted(CSV_MUTATIONS)))](lines, at)


# K = 1 last: draws lean to the first entries, and a valid K reaches the search
@given(data=search_csvs(), r=st.sampled_from((1, 2)), k=st.sampled_from((2, 3, 1)))
@settings(max_examples=120, deadline=None)
def test_search_fuzz_exits_cleanly_with_the_library_ranking(tmp_path_factory, data, r, k):
    path = tmp_path_factory.getbasetemp() / "search-fuzz.csv"
    out = tmp_path_factory.getbasetemp() / "search-fuzz.json"
    path.write_bytes(data)
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["search", "--data", str(path), "--r", str(r), "--K", str(k),
                     "--out", str(out)])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        return
    want = rank_subsets(ingest_csv(path), r, k).to_dict()
    got = json.loads(out.read_text())
    assert got["ranking"] == want["ranking"] and got["selected"] == want["selected"]



def _uniform_dist_doc():
    """The JSON object of the uniform law on {0,1}^2 x {-1,+1}."""
    atoms = [{"x": [a, b], "y": y, "p": 0.125} for a in (0, 1) for b in (0, 1) for y in (-1, 1)]
    return {"n": 2, "q": 1, "atoms": atoms}


def _set(key, text):
    """A ``DIST_MUTATIONS`` entry that writes ``text`` as the JSON value of
    n or q, or of one atom's first level (``x0``), y or p."""
    def mutate(doc, at):
        atom = doc["atoms"][at % len(doc["atoms"])]
        if key in ("n", "q"):
            doc[key] = "@"
        elif key == "x0":
            atom["x"][0] = "@"
        else:
            atom[key] = "@"
        return json.dumps(doc).replace('"@"', text).encode()
    return mutate


def _drop_field(doc, at):
    key = ("n", "q", "atoms", "x", "y", "p")[at % 6]
    del (doc if key in ("n", "q", "atoms") else doc["atoms"][at % len(doc["atoms"])])[key]
    return json.dumps(doc).encode()


# Ways a distribution JSON can be off: each maps the document to the file's bytes.
DIST_MUTATIONS = {
    "none": lambda doc, at: json.dumps(doc).encode(),
    "truncated": lambda doc, at: json.dumps(doc).encode()[: at % len(json.dumps(doc))],
    "bom": lambda doc, at: b"\xef\xbb\xbf" + json.dumps(doc).encode(),
    "non-utf8": lambda doc, at: (lambda t: t[:at] + b"\xff" + t[at:])(json.dumps(doc).encode()),
    "float-level": _set("x0", "0.5"),
    "bool-level": _set("x0", "true"),
    "string-level": _set("x0", '"0"'),
    "huge-n": _set("n", "9" * 30),
    "huge-q": _set("q", "9" * 30),
    "huge-level": _set("x0", "9" * 30),
    "huge-label": _set("y", "9" * 30),
    "past-int-digit-limit": _set("q", "9" * 5000),
    "missing-field": _drop_field,
    "duplicate-atom": lambda doc, at: json.dumps(
        {**doc, "atoms": doc["atoms"] + [doc["atoms"][at % len(doc["atoms"])]]}).encode(),
    "negative-p": _set("p", "-0.125"),
    "sum-not-one": _set("p", "0.5"),
}


@given(mutation=st.sampled_from(sorted(DIST_MUTATIONS)), at=st.integers(0, 200))
@settings(max_examples=100, deadline=None)
def test_oracle_dist_fuzz_exits_cleanly(tmp_path_factory, mutation, at):
    path = tmp_path_factory.getbasetemp() / "oracle-fuzz.json"
    path.write_bytes(DIST_MUTATIONS[mutation](_uniform_dist_doc(), at))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["oracle", "--dist", str(path)])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") == code and err.getvalue().endswith("\n" * code)


def test_dist_p_must_be_a_json_number(tmp_path):
    for i, p in enumerate(('"0.5"', "true")):
        atoms = ['{"x": [0], "y": 1, "p": 0.5}', '{"x": [1], "y": -1, "p": 0.5}']
        atoms[i] = atoms[i].replace("0.5", p)
        path = tmp_path / f"p{i}.json"
        path.write_text('{"n": 1, "q": 1, "atoms": [' + ", ".join(atoms) + "]}")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["oracle", "--dist", str(path)]) == 1
        assert err.getvalue().count("\n") == 1 and f"atom #{i}: p must be" in err.getvalue()


# Odd values of the clt-verify flags: --subsets strings that are duplicated,
# out of range, empty or malformed, and schedules at 0, 0.5, nan and inf.
CLT_ODD = {
    "--subsets": ("2;2", "1,1", "4", "0", "1;-1", "", ";", " ", "a", "1,,2", "2,1"),
    "--eps-c0": ("0", "nan", "inf", "-1"),
    "--eps-beta": ("0", "0.5", "nan", "inf"),
    "--K": ("1", "0", "-3"),
}


@st.composite
def clt_verify_args(draw):
    """clt-verify arguments on a preset with n <= 3 and q <= 2, N in 1..60,
    K and M in 1..4; at most one ``CLT_ODD`` flag, drawn in 4 of 7 examples,
    takes an odd value."""
    n = draw(st.integers(1, 3))
    subsets = [s for s in ("1", "1,2", "1;2", "2,3", "1,2;1,3", "1;2;3")
               if max(map(int, s.replace(";", ",").split(","))) <= n]
    flags = {
        "--subsets": draw(st.sampled_from(subsets)),
        "--eps-c0": draw(st.sampled_from(("1.0", "0.5", "3"))),
        "--eps-beta": draw(st.sampled_from(("0.25", "0.1", "0.45"))),
        "--K": str(draw(st.integers(2, 4))),
    }
    odd = draw(st.sampled_from((None, None, None, *CLT_ODD)))
    if odd is not None:
        flags[odd] = draw(st.sampled_from(CLT_ODD[odd]))
    args = ["clt-verify", "--preset", draw(st.sampled_from(PRESETS)), "--n", str(n),
            "--q", str(draw(st.integers(1, 2))), "--N", str(draw(st.integers(1, 60))),
            "--M", str(draw(st.integers(1, 4))), "--seed", str(draw(st.integers(0, 2**32)))]
    return args + [t for flag_value in flags.items() for t in flag_value]


@given(args=clt_verify_args())
@settings(max_examples=80, deadline=None)
def test_clt_verify_fuzz_exits_cleanly(args):
    # one label class in a replication, or a plug-in scale of 0, is counted
    # in the report: no input ends in exit 2
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
