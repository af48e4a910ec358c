"""Byte-level pins of six small CLI reports and three sampled CSVs.

Report JSON is a deterministic function of its configuration, so a
refactor that keeps the numbers must keep these digests.  A change that
moves any reported float, even in its last bit, fails here and has to
say why the new bytes are right.
"""

import contextlib
import hashlib
import io

import pytest

from mdrcv.cli import main

# Scenario A (pair epistasis, n=3, q=2, penetrance 0.05/0.95).
CLT_VERIFY_ARGS = [
    "clt-verify", "--preset", "pair-epistasis", "--n", "3", "--q", "2",
    "--p-low", "0.05", "--p-high", "0.95", "--subsets", "1,2;1,3",
    "--N", "500", "--K", "5", "--M", "40", "--seed", "23",
]
CLT_VERIFY_SHA256 = "a5ad13ccb299bf52dba06401cfb6bb3b8e3f8f44d022f5e768db2c685eaa4145"

# search reads a CSV, so the pin runs simulate first and searches its output.
SEARCH_DATA_ARGS = [
    "simulate", "--preset", "pair-epistasis", "--n", "6", "--q", "1",
    "--N", "2000", "--seed", "7",
]
SEARCH_ARGS = ["search", "--r", "2", "--K", "5"]
SEARCH_SHA256 = "c5ada2b2e9b915707eba692ce59a67aed7ac20d6cb77ae6133fa9699fbc4c629"

# A deep binary search: 220 triples of 12 factors on 5000 records, so each
# prefix's pairs are counted from joint tables over several factors.
DEEP_SEARCH_DATA_ARGS = [
    "simulate", "--preset", "pair-epistasis", "--n", "12", "--q", "1",
    "--N", "5000", "--seed", "7",
]
DEEP_SEARCH_ARGS = ["search", "--r", "3", "--K", "5"]
DEEP_SEARCH_SHA256 = "fb3332113fe02207f22a8490e366a8cc86635cada260436d14744202c3447776"

ORACLE_ARGS = [
    "oracle", "--preset", "pair-epistasis", "--n", "6", "--q", "2",
    "--subsets", "1,2;1,3",
]
ORACLE_SHA256 = "a6b240298197411f08f3a97361e3c74ba17ecb8d271bcb21c0f1bde6a2ee5c73"

# Additive main effects: its table is summed from per-factor level grids.
INDEPENDENT_ORACLE_ARGS = [
    "oracle", "--preset", "independent", "--n", "4", "--q", "2",
    "--subsets", "1;1,2",
]
INDEPENDENT_ORACLE_SHA256 = "7a67cca8c8af21532cab2e81fc8bff2a3449c3cf8308f4e0aa138798d48aa576"

# 65536 points, 32768 of them high-risk: the report lists them in rank order.
HIGH_RISK_ORACLE_ARGS = ["oracle", "--preset", "single-factor", "--n", "8", "--q", "3"]
HIGH_RISK_ORACLE_SHA256 = "c40b694571fb01799ca234474827e7d43d68894752c80dd5c118707521e1a710"

# Sampled datasets: 54 atoms and 500 draws go through the guide table; 39366
# atoms (a partial last block) and 3000 draws re-sum only the blocks hit, in
# one sorted chunk; 118098 atoms and 20000 draws in five.
SIMULATE_SHA256 = {
    ("--n", "3", "--N", "500"): "115904d10f512b013af206fce6d4b7d39caf7457fe6cc4ec77d3c6434218a2c4",
    ("--n", "9", "--N", "3000"): "aff84262483dec83c6c852d947b0eda53c2762c4e258ec2b7ab766634b60ec7e",
    ("--n", "10", "--N", "20000"): "a83ab92f87d9fda59182055f858a03296ef180b4d3377aff705bfb3748f1e4ac",
}


def report_digest(args, path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args + ["--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_clt_verify_report_bytes(tmp_path):
    assert report_digest(CLT_VERIFY_ARGS, tmp_path / "clt.json") == CLT_VERIFY_SHA256


def test_search_report_bytes(tmp_path):
    data = tmp_path / "data.csv"
    report_digest(SEARCH_DATA_ARGS, data)
    got = report_digest(SEARCH_ARGS + ["--data", str(data)], tmp_path / "search.json")
    assert got == SEARCH_SHA256


def test_deep_search_report_bytes(tmp_path):
    data = tmp_path / "data.csv"
    report_digest(DEEP_SEARCH_DATA_ARGS, data)
    got = report_digest(DEEP_SEARCH_ARGS + ["--data", str(data)], tmp_path / "search.json")
    assert got == DEEP_SEARCH_SHA256


def test_oracle_report_bytes(tmp_path):
    assert report_digest(ORACLE_ARGS, tmp_path / "oracle.json") == ORACLE_SHA256


def test_independent_oracle_report_bytes(tmp_path):
    got = report_digest(INDEPENDENT_ORACLE_ARGS, tmp_path / "independent.json")
    assert got == INDEPENDENT_ORACLE_SHA256


def test_high_risk_oracle_report_bytes(tmp_path):
    got = report_digest(HIGH_RISK_ORACLE_ARGS, tmp_path / "high-risk.json")
    assert got == HIGH_RISK_ORACLE_SHA256


@pytest.mark.parametrize("size_args", list(SIMULATE_SHA256))
def test_simulate_csv_bytes(tmp_path, size_args):
    args = ["simulate", "--preset", "pair-epistasis", "--q", "2", *size_args, "--seed", "1"]
    assert report_digest(args, tmp_path / "sample.csv") == SIMULATE_SHA256[size_args]
