"""The helpers behind tools/same_bits.py and tools/bench_pairs.py reports."""

import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import same_bits  # noqa: E402
from bench_pairs import quartiles, run_config, summarize  # noqa: E402
from scale_probe import probe_config  # noqa: E402
from fairgfl.cli import CONFIG_SCHEMA, SUITES  # noqa: E402
from same_bits import column_drift  # noqa: E402


def csv_pair(tmp_path, a, b):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_text(a)
    pb.write_text(b)
    return pa, pb


class TestColumnDrift:
    def test_largest_relative_difference_per_numeric_column(self, tmp_path):
        """|a - b| / max(|a|, |b|), 0 where both are 0; text columns are skipped."""
        a, b = csv_pair(tmp_path, "x,y,tag,z,w\n1,0,a,-2,-1.5\n2,4,b,8,0\n3,-1,c,0,0\n",
                        "x,y,tag,z,w\n1,0,a,-2,1.5\n3,5,d,8,0\n3,-1,c,0,0\n")
        assert column_drift(a, b) == {"x": pytest.approx(1 / 3), "y": 0.2, "z": 0.0, "w": 2.0}

    def test_header_only_gives_zero_per_column(self, tmp_path):
        a, b = csv_pair(tmp_path, "x,y\n", "x,y\n")
        assert column_drift(a, b) == {"x": 0.0, "y": 0.0}

    @pytest.mark.parametrize("a, b", [
        ("x,y\n1,2\n", "x,z\n1,2\n"),
        ("x,y\n1,2\n", "y,x\n2,1\n"),
        ("x,y\n1,2\n", "x,y\n1,2\n3,4\n"),
        ("", ""),
        ("", "x\n1\n"),
    ], ids=["header-names", "header-order", "row-count", "both-empty", "one-empty"])
    def test_mismatch_gives_empty(self, tmp_path, a, b):
        assert column_drift(*csv_pair(tmp_path, a, b)) == {}


def test_same_bits_has_a_case_for_every_suite(tmp_path, monkeypatch):
    """A suite added to cli.SUITES cannot land without a byte comparison."""
    monkeypatch.setattr(same_bits, "ROOT", ROOT)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(os, "environ", dict(os.environ))  # bench/run.py sets BLAS threads
    assert {suite for suite, _ in same_bits.cases(tmp_path).values()} == set(SUITES)


def test_bench_config_records_every_schema_default():
    """BENCH_<tag>.json records each config key's default as the schema
    holds it, through a JSON round trip, so no hand copy goes stale."""
    config = json.loads(json.dumps(run_config({"fedavg-l": {"rounds": 40}}, 30.0)))
    assert config["other_keys"] == {key: default
                                    for key, (_, _, default) in CONFIG_SCHEMA.items()}
    assert config["bench_workloads"] == {"fedavg-l": {"rounds": 40}}


def test_scale_config_records_every_schema_default():
    """BENCH_scale_<tag>.json records each config key's default as the
    schema holds it, and each size's own keys, through a JSON round trip."""
    config = json.loads(json.dumps(probe_config([21000, 700], 5)))
    assert config["other_keys"] == {key: default
                                    for key, (_, _, default) in CONFIG_SCHEMA.items()}
    assert config["probe_keys"] == {
        str(n): {"sbm_block_size": n // 7, "sbm_p_in": 15 / (n // 7),
                 "sbm_p_out": 1.5 / (n // 7), "rounds": 5}
        for n in (21000, 700)}


def pair(metrics_parent, metrics_change):
    def side(values):
        return {"metrics": {name: {"value": v} for name, v in values.items()}}

    return {"parent": side(metrics_parent), "change": side(metrics_change)}


class TestQuartiles:
    def test_inclusive_quartiles(self):
        assert quartiles([5, 1, 4, 2, 3]) == {"median": 3, "q1": 2, "q3": 4, "n": 5}

    def test_even_count_interpolates(self):
        assert quartiles([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4}

    def test_one_value_is_every_quartile(self):
        assert quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


class TestSummarize:
    PAIRS = [
        pair({"time": 1.0, "rate": 10.0}, {"time": 0.8, "rate": 12.0}),
        pair({"time": 1.0, "rate": 10.0}, {"time": 1.0, "rate": 10.0}),
        pair({"time": 1.0, "rate": 10.0}, {"time": 1.2, "rate": 9.0}),
        pair({"time": 2.0, "rate": 5.0}, {"time": 1.5, "rate": 6.0}),
    ]

    def test_wins_and_ties_in_both_directions(self):
        got = summarize(self.PAIRS, {"time": "lower", "rate": "higher"})
        assert {name: (s["better"], s["change_wins"], s["ties"], s["pairs"])
                for name, s in got.items()} == {
            "time": ("lower", 2, 1, 4),
            "rate": ("higher", 2, 1, 4),
        }

    def test_direction_decides_the_winner(self):
        """The same values read as wins for one direction are losses for the other."""
        lower = summarize(self.PAIRS, {"time": "lower"})["time"]
        higher = summarize(self.PAIRS, {"time": "higher"})["time"]
        assert (lower["change_wins"], higher["change_wins"]) == (2, 1)
        assert lower["ties"] == higher["ties"] == 1

    def test_quartiles_per_side(self):
        got = summarize(self.PAIRS, {"time": "lower"})["time"]
        assert got["parent"] == quartiles([1.0, 1.0, 1.0, 2.0])
        assert got["change"] == quartiles([0.8, 1.0, 1.2, 1.5])
