import csv
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fairgfl.cli
from fairgfl.cli import (
    CONFIG_SCHEMA,
    SUITES,
    ConfigError,
    _thirds_multipliers,
    build_graph,
    main,
    parse_config,
    run_suite,
)
from fairgfl.federation import run_experiment
from fairgfl.gcn import NumericError
from fairgfl.metrics import RoundRecord, read_round_records, write_csv, write_round_records
from fairgfl.overlap import HISTORY

SMALL = """
# tiny run for tests
P = 4
K = 2
J = 2
E = 1
b = 10
sbm_blocks = 3
sbm_block_size = 15
feature_dim = 8
encoder_dim = 4
encoder_epochs = 3
"""

# Every non-bool numeric config key at each boundary value of its type, on a
# 2-round, 60-node config: each run exits 0 or 2, never with a traceback.
BOUNDARY_BASE = SMALL + "b = 5\nsbm_block_size = 20\n"
BOUNDARY_VALUES = {float: ("nan", "inf", "-inf", "-1", "0"), int: ("-1", "0")}
BOUNDARY_LINES = [
    f"{key} = {value}"
    for key, (_, _, default) in CONFIG_SCHEMA.items()
    if type(default) in BOUNDARY_VALUES
    for value in BOUNDARY_VALUES[type(default)]
]


def write_cfg(tmp_path, text=SMALL, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_empty_gives_defaults(self):
        part, fed, ldp, extras = parse_config(None)
        assert fed.num_clients == 10
        assert fed.lam == 0.1
        assert part.overlap_coefficient == 0.1
        assert ldp.epsilon_a == 3.0
        assert extras["dataset"] == "sbm"

    def test_aliases_resolve(self, tmp_path):
        path = write_cfg(tmp_path, "P = 6\nK = 3\nlambda = 0.2\nN = 0.15\n")
        part, fed, _, _ = parse_config(path)
        assert fed.num_clients == 6
        assert fed.clients_per_round == 3
        assert fed.lam == 0.2
        assert part.overlap_coefficient == 0.15

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write_cfg(tmp_path, "\n# note\nrounds = 7  # inline\n\n")
        _, fed, _, _ = parse_config(path)
        assert fed.rounds == 7

    def test_unknown_key_lists_valid(self, tmp_path):
        path = write_cfg(tmp_path, "learning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="valid keys"):
            parse_config(path)

    def test_type_mismatch_names_key_and_type(self, tmp_path):
        path = write_cfg(tmp_path, "rounds = many\n")
        with pytest.raises(ConfigError, match="'rounds' expects int"):
            parse_config(path)

    def test_bool_parsing(self, tmp_path):
        path = write_cfg(tmp_path, "use_ldp = off\npermanent_cache = yes\n")
        _, fed, _, _ = parse_config(path)
        assert fed.use_ldp is False
        assert fed.permanent_cache is True

    def test_bad_bool_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "use_ldp = maybe\n")
        with pytest.raises(ConfigError, match="'use_ldp' expects bool"):
            parse_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "rounds 7\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config(path)

    def test_overrides_win(self, tmp_path):
        path = write_cfg(tmp_path, "seed = 1\n")
        _, fed, _, _ = parse_config(path, {"seed": 9})
        assert fed.seed == 9

    def test_alpha_roundtrip(self, tmp_path):
        path = write_cfg(tmp_path, "alpha = 0.8\nbeta = 0.4\n")
        _, fed, _, _ = parse_config(path)
        assert fed.alpha == 0.8
        assert fed.beta == 0.4


class TestBuildGraph:
    def test_sbm_dimensions(self):
        _, _, _, extras = parse_config(None)
        extras.update(sbm_blocks=3, sbm_block_size=10, feature_dim=6)
        g = build_graph(extras)
        assert g.num_nodes == 30
        assert g.feature_dim == 6

    def test_file_requires_paths(self):
        _, _, _, extras = parse_config(None)
        extras["dataset"] = "file"
        with pytest.raises(ConfigError, match="node_file"):
            build_graph(extras)

    def test_unknown_dataset(self):
        _, _, _, extras = parse_config(None)
        extras["dataset"] = "citeseer"
        with pytest.raises(ConfigError, match="unknown dataset"):
            build_graph(extras)


class TestRunSuite:
    def test_single_writes_rounds_and_manifest(self, tmp_path):
        part, fed, ldp, extras = parse_config(write_cfg(tmp_path))
        out = tmp_path / "out"
        assert run_suite("single", part, fed, ldp, extras, out) == 0
        records = read_round_records(out / "rounds.csv")
        assert len(records) == 2
        manifest = (out / "manifest.txt").read_text()
        assert "suite=single" in manifest
        assert "num_clients=4" in manifest
        assert "epsilon_a=3.0" in manifest

    def test_single_writes_overlap_history(self, tmp_path):
        part, fed, ldp, extras = parse_config(write_cfg(tmp_path))
        out = tmp_path / "out"
        run_suite("single", part, fed, ldp, extras, out)
        result = run_experiment(build_graph(extras), part, fed, ldp)
        est = out / "overlap_estimates"
        for name in ("N_round", "T_round", "N_acc", "T_acc", "O"):
            lines = (est / f"{name}.csv").read_text().strip().splitlines()
            assert len(lines) == 3  # header + one row per round
            assert lines[0].startswith("round,o_0_0")
            for j, (line, snap) in enumerate(zip(lines[1:], result.overlap_history), 1):
                cells = line.split(",")
                assert cells[0] == str(j)
                assert [float(c) for c in cells[1:]] == snap[name].ravel().tolist()

    def test_overlap_history_bytes_match_csv_writer(self, tmp_path):
        """The writer formats each distinct value once; its files are the
        csv.writer ones byte for byte, with -0.0 apart from 0.0."""
        rng = np.random.default_rng(5)
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, 1 / 3, 1e16]
        history = [{name: rng.choice(special + list(rng.random(3)), size=(3, 3))
                    for name in HISTORY} for _ in range(6)]
        fairgfl.cli._write_overlap_history(tmp_path / "est", history)
        for name in HISTORY:
            ref = tmp_path / f"ref_{name}.csv"
            with open(ref, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["round"] + [f"o_{i}_{k}" for i in range(3) for k in range(3)])
                for j, snap in enumerate(history, start=1):
                    writer.writerow([j, *map(repr, snap[name].ravel().tolist())])
            got = (tmp_path / "est" / f"{name}.csv").read_bytes()
            assert got == ref.read_bytes()
            assert b",-0.0" in got and b",0.0" in got

        # rounds.csv and motivation.csv rows through the same writer
        values = rng.choice(special + list(rng.random(3)), size=(6, 7)).tolist()
        records = [RoundRecord(j, "fairgfl", *values[j][:4], tuple(values[j][4:]))
                   for j in range(6)]
        write_round_records(tmp_path / "rounds.csv", records)
        coeffs = [0.0, -0.0, 0.05, np.nan, np.inf, -np.inf]
        write_csv(tmp_path / "motivation.csv", ["overlap_coefficient", "loss_var", "loss_entropy"],
                  (((), (c, v[0], v[1])) for c, v in zip(coeffs, values)))
        with open(tmp_path / "ref_rounds.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "algorithm", "test_loss", "test_acc", "loss_var",
                             "loss_entropy", "client_0_loss", "client_1_loss", "client_2_loss"])
            for j, v in enumerate(values):
                writer.writerow([j, "fairgfl", *map(repr, v)])
        with open(tmp_path / "ref_motivation.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["overlap_coefficient", "loss_var", "loss_entropy"])
            for c, v in zip(coeffs, values):
                writer.writerow([c, repr(v[0]), repr(v[1])])
        for name in ("rounds", "motivation"):
            got = (tmp_path / f"{name}.csv").read_bytes()
            assert got == (tmp_path / f"ref_{name}.csv").read_bytes()
            assert b"-0.0" in got and b"nan" in got and b"inf" in got

    def test_manifest_roundtrip(self, tmp_path):
        configs = parse_config(write_cfg(tmp_path, SMALL + "use_ldp = off\nlam = 0.3\n"))
        out = tmp_path / "out"
        assert run_suite("single", *configs, out) == 0
        lines = (out / "manifest.txt").read_text().splitlines()
        assert lines[0] == "suite=single"
        resolved = write_cfg(tmp_path, "\n".join(lines[1:]) + "\n", name="resolved.txt")
        assert parse_config(resolved) == configs

    def test_compare_one_file_per_algorithm(self, tmp_path):
        part, fed, ldp, extras = parse_config(write_cfg(tmp_path))
        out = tmp_path / "out"
        assert run_suite("compare", part, fed, ldp, extras, out) == 0
        counts = set()
        for alg in ("fairgfl", "fedavg", "qfedavg"):
            records = read_round_records(out / f"rounds_{alg}.csv")
            assert all(r.algorithm == alg for r in records)
            counts.add(len(records))
        assert counts == {2}

    def test_motivation_summary(self, tmp_path):
        configs = parse_config(write_cfg(tmp_path, SMALL + "P = 6\nK = 3\nJ = 1\n"))
        part, fed, ldp, extras = configs
        out = tmp_path / "out"
        assert run_suite("motivation", part, fed, ldp, extras, out) == 0
        lines = (out / "motivation.csv").read_text().strip().splitlines()
        assert lines[0] == "overlap_coefficient,loss_var,loss_entropy"
        assert len(lines) == 6
        assert (out / "rounds_N0.csv").exists()
        assert (out / "rounds_N0.2.csv").exists()
        manifest = (out / "manifest.txt").read_text().splitlines()
        line = next(x for x in manifest if x.startswith("# overlap_multipliers="))
        multipliers = tuple(float(v) for v in line.split("=", 1)[1].split(","))
        assert multipliers == _thirds_multipliers(6)
        assert [x for x in manifest if x.startswith("# run ")] == [
            "# run N0: overlap_coefficient=0.0",
            "# run N0.05: overlap_coefficient=0.05",
            "# run N0.1: overlap_coefficient=0.1",
            "# run N0.15: overlap_coefficient=0.15",
            "# run N0.2: overlap_coefficient=0.2",
        ]
        # the runs' algorithm; the multipliers and run lines are comments to parse_config
        resolved = write_cfg(tmp_path, "\n".join(manifest[1:]) + "\n", name="resolved.txt")
        assert parse_config(resolved) == (part, replace(fed, algorithm="fedavg"), ldp, extras)

    def test_privacy_sweep_keeps_every_runs_estimates(self, tmp_path):
        part, fed, ldp, extras = parse_config(write_cfg(tmp_path, SMALL + "J = 1\n"))
        out = tmp_path / "out"
        assert run_suite("privacy-sweep", part, fed, ldp, extras, out) == 0
        tags = ("eps1", "eps4", "eps50", "noldp")
        assert sorted(p.name for p in out.glob("overlap_estimates*")) == sorted(
            f"overlap_estimates_{tag}" for tag in tags
        )
        graph = build_graph(extras)
        for tag, run_ldp, run_fed in (
            ("eps4", replace(ldp, epsilon_a=4.0), fed),
            ("noldp", ldp, replace(fed, use_ldp=False)),
        ):
            snap = run_experiment(graph, part, run_fed, run_ldp)
            csv_text = (out / f"overlap_estimates_{tag}" / "N_round.csv").read_text()
            row = csv_text.splitlines()[1]
            assert [float(c) for c in row.split(",")[1:]] == (
                snap.overlap_history[0]["N_round"].ravel().tolist()
            )

    def test_privacy_sweep_manifest_names_each_runs_keys(self, tmp_path):
        configs = parse_config(write_cfg(tmp_path, SMALL + "J = 1\n"))
        out = tmp_path / "out"
        assert run_suite("privacy-sweep", *configs, out) == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[0] == "suite=privacy-sweep"
        assert [x for x in manifest if x.startswith("#")] == [
            "# run eps1: epsilon_a=1.0",
            "# run eps4: epsilon_a=4.0",
            "# run eps50: epsilon_a=50.0",
            "# run noldp: use_ldp=False",
        ]
        resolved = write_cfg(tmp_path, "\n".join(manifest[1:]) + "\n", name="resolved.txt")
        assert parse_config(resolved) == configs

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_every_suite_writes_the_files_of_its_runs(self, tmp_path, suite):
        """One rounds file per run of the table, overlap estimates for each
        run that uploads (fairgfl's), and one manifest line per tagged run."""
        part, fed, ldp, extras = parse_config(write_cfg(tmp_path, SMALL + "J = 1\n"))
        out = tmp_path / "out"
        assert run_suite(suite, part, fed, ldp, extras, out) == 0
        runs = SUITES[suite]
        suffixes = [f"_{tag}" if tag else "" for tag, _ in runs]
        algorithm = "fedavg" if suite == "motivation" else fed.algorithm
        uploads = [keys.get("algorithm", algorithm) == "fairgfl" for _, keys in runs]
        assert {p.name for p in out.iterdir()} == (
            {f"rounds{s}.csv" for s in suffixes}
            | {f"overlap_estimates{s}" for s, up in zip(suffixes, uploads) if up}
            | {"manifest.txt"} | ({"motivation.csv"} if suite == "motivation" else set()))
        for s in suffixes:
            assert [r.round_index for r in read_round_records(out / f"rounds{s}.csv")] == [1]
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[0] == f"suite={suite}"
        assert [x for x in manifest if x.startswith("# run ")] == [
            f"# run {tag}: " + ", ".join(f"{k}={v}" for k, v in keys.items())
            for tag, keys in runs if tag]

    def test_thirds_multipliers_match_the_sizes_rule(self):
        """Thirds of sizes p // 3, the first p % 3 of them one larger."""
        for p in range(1, 301):
            sizes = [p // 3 + (1 if i < p % 3 else 0) for i in range(3)]
            want = (0.0,) * sizes[0] + (1.0,) * sizes[1] + (2.0,) * sizes[2]
            assert _thirds_multipliers(p) == want

    def test_unknown_suite(self, tmp_path):
        part, fed, ldp, extras = parse_config(write_cfg(tmp_path))
        with pytest.raises(ConfigError, match="unknown suite"):
            run_suite("ablation", part, fed, ldp, extras, tmp_path / "out")


class TestMain:
    def test_smoke_run(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        status = main(["run", "--config", str(cfg), "--out", str(out)])
        assert status == 0
        assert (out / "rounds.csv").exists()

    def test_invalid_config_value_exits_two(self, tmp_path):
        cfg = write_cfg(tmp_path, "K = 0\n")
        status = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert status == 2

    @pytest.mark.parametrize("line", [
        "epsilon_a = inf",
        "epsilon_b = nan",
        "epsilon_b = 1e-300",
        "epsilon_a = 1000",  # e^1000 overflows float64
        "epsilon_b = 1000",
        "hidden_dim = 0",
        "encoder_dim = 0",
        "batch_size = 0",
        "lr = nan",
        "lr = inf",
        "tau_percentile = 150",
        "test_fraction = 1.0",
        "public_fraction = -0.1",
        "test_fraction = 0.6\npublic_fraction = 0.4",
        "alpha = 2",
        "beta = 0",
        "encoder_dim = 8",
        "P = 60",
        "seed = -1",
        "partition_seed = -1",
        "sbm_seed = -1",
        "sbm_blocks = 0",
        "encoder_epochs = -1",
    ])
    def test_out_of_range_value_exits_two(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path, SMALL + line + "\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_qfedavg_weight_past_float64_exits_one(self, tmp_path, capsys):
        """Over 7 classes a client's loss is near ln 7, and its 2000th power
        overflows float64: one error line that names the q-FedAvg weight."""
        cfg = write_cfg(tmp_path, SMALL + "sbm_blocks = 7\nalgorithm = qfedavg\nq = 2000\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: round 1, server: q-FedAvg weight") and err.count("\n") == 1
        assert not out.exists()

    def test_qfedavg_zero_normalizer_exits_one(self, tmp_path, capsys):
        """On one class every loss and update is 0, and so is the normalizer:
        one error line that names it, not the NaN model's forward pass."""
        cfg = write_cfg(tmp_path, SMALL + "sbm_blocks = 1\nalgorithm = qfedavg\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: round 1, server: q-FedAvg weight normalizer is ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("algorithm, status", [
        ("fairgfl", 2), ("fedavg", 0), ("qfedavg", 0), ("fairgfl\nestimate_overlap = off", 0),
    ])
    def test_empty_public_split_exits_two_where_the_run_uploads(self, tmp_path, capsys,
                                                               algorithm, status):
        cfg = write_cfg(tmp_path, SMALL + f"public_fraction = 0\nalgorithm = {algorithm}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == status
        err = capsys.readouterr().err
        if status == 2:
            assert err == "error: the public split is empty; raise public_fraction\n"
            assert not out.exists()
        else:
            assert err == "" and (out / "rounds.csv").exists()

    @pytest.mark.parametrize("key", ["feature_dim", "hidden_dim"])
    def test_unallocatable_size_exits_two(self, tmp_path, capsys, key):
        """The first array of this size (the SBM's block means, or the
        GCN's first weight matrix) takes over 2^57 bytes, more than any
        64-bit address space holds, so its allocation fails at once and
        touches no memory."""
        cfg = write_cfg(tmp_path, SMALL + f"{key} = {10**16}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key", ["feature_dim", "hidden_dim", "sbm_block_size"])
    def test_size_past_numpys_limit_exits_two(self, tmp_path, capsys, key):
        """At 10^18 the SBM's features or the GCN's first weight matrix would
        pass numpy's largest byte count, where numpy raises a bare
        ValueError: the shape is refused before any allocation."""
        cfg = write_cfg(tmp_path, SMALL + f"{key} = {10**18}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: an array of shape") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("quantiles", [10**20, 10**400], ids=["1e20", "400-digit"])
    def test_quantiles_past_numpys_limit_exits_two(self, tmp_path, capsys, quantiles):
        """The grid's quantiles + 1 points are refused before any
        allocation or float arithmetic."""
        cfg = write_cfg(tmp_path, SMALL + f"quantiles = {quantiles}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: an array of shape ({quantiles + 1},) is too large\n"
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "alpha = 2", "alpha = -0.1", "alpha = nan", "beta = 0", "beta = 1.5", "beta = nan",
    ])
    def test_bad_alpha_or_beta_exits_two_before_the_graph(self, tmp_path, capsys,
                                                          monkeypatch, line):
        """alpha and beta are checked with the rest of the config, before
        the graph is built and the encoder trained."""
        def no_graph(extras):
            raise AssertionError("graph built")

        monkeypatch.setattr(fairgfl.cli, "build_graph", no_graph)
        cfg = write_cfg(tmp_path, SMALL + line + "\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and line.split()[0] in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("line", BOUNDARY_LINES)
    def test_boundary_value_exits_zero_or_two(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path, BOUNDARY_BASE + line + "\n")
        status = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert status in (0, 2)
        if status == 2:
            assert capsys.readouterr().err.startswith("error: ")

    def test_config_not_utf8_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"\xff\xfeP = 4\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text\n"
        assert not out.exists()

    @pytest.mark.parametrize("binary", ["node_file", "edge_file"])
    def test_graph_file_not_utf8_exits_two(self, tmp_path, capsys, binary):
        files = {"node_file": tmp_path / "nodes.txt", "edge_file": tmp_path / "edges.txt"}
        files["node_file"].write_text(
            "".join(f"n{i} {i % 3} {i % 5} {i % 7} {i % 2} {i % 4} {i % 6} c{i % 2}\n"
                    for i in range(40)))
        files["edge_file"].write_text("".join(f"n{i} n{i + 1}\n" for i in range(39)))
        # An executable's first bytes: an ELF header, then bytes that are not UTF-8.
        files[binary].write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)))
        cfg = write_cfg(tmp_path, SMALL + "dataset = file\n" + "".join(
            f"{key} = {path}\n" for key, path in files.items()))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {files[binary]}: not UTF-8 text\n"
        assert not out.exists()

    def test_motivation_without_rounds_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL + "J = 0\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--suite", "motivation"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rounds" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_single_without_rounds_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL + "J = 0\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_round_records(out / "rounds.csv") == []
        assert (out / "manifest.txt").exists()

    @pytest.mark.parametrize("missing", ["node_file", "edge_file"])
    def test_missing_graph_file_exits_two(self, tmp_path, capsys, missing):
        (tmp_path / "nodes.txt").write_text("0 0 1.0\n1 1 0.5\n")
        (tmp_path / "edges.txt").write_text("0 1\n")
        files = {"node_file": tmp_path / "nodes.txt", "edge_file": tmp_path / "edges.txt"}
        files[missing] = tmp_path / "absent.txt"
        cfg = write_cfg(tmp_path, "dataset = file\n" + "".join(
            f"{key} = {path}\n" for key, path in files.items()))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.txt" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_malformed_graph_file_exits_two(self, tmp_path, capsys):
        (tmp_path / "nodes.txt").write_text("0 1.0 a\n1 x b\n")
        (tmp_path / "edges.txt").write_text("0 1\n")
        cfg = write_cfg(tmp_path, f"dataset = file\nnode_file = {tmp_path / 'nodes.txt'}\n"
                        f"edge_file = {tmp_path / 'edges.txt'}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("line", [
        "algorithm = fedavg", "algorithm = qfedavg", "estimate_overlap = off", "use_ldp = off",
    ])
    def test_privacy_sweep_without_uploads_exits_two(self, tmp_path, capsys,
                                                     monkeypatch, line):
        """No uploads, or no perturbation of them, means no budget to vary:
        rejected before the graph is built."""
        def no_graph(extras):
            raise AssertionError("graph built")

        monkeypatch.setattr(fairgfl.cli, "build_graph", no_graph)
        cfg = write_cfg(tmp_path, SMALL + line + "\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--suite", "privacy-sweep"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "privacy-sweep" in err
        assert not out.exists()

    def test_server_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        def nonfinite(*args, **kwargs):
            raise NumericError("non-finite logits in forward pass")

        monkeypatch.setattr(fairgfl.metrics, "evaluate_global", nonfinite)
        cfg = write_cfg(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: round 1, server: non-finite")
        assert "Traceback" not in err

    @staticmethod
    def huge_features_cfg(tmp_path):
        """A 60-node path graph on files, its features about +-1e200."""
        rng = np.random.default_rng(0)
        feats = rng.choice([-1.0, 1.0], size=(60, 8)) * rng.uniform(0.5, 1.5, (60, 8)) * 1e200
        (tmp_path / "nodes.txt").write_text("".join(
            f"n{i} {' '.join(map(repr, row.tolist()))} c{i % 3}\n" for i, row in enumerate(feats)))
        (tmp_path / "edges.txt").write_text("".join(f"n{i} n{i + 1}\n" for i in range(59)))
        return write_cfg(tmp_path, SMALL + f"dataset = file\nnode_file = {tmp_path / 'nodes.txt'}\n"
                         f"edge_file = {tmp_path / 'edges.txt'}\n")

    def test_diverged_encoder_exits_one(self, tmp_path, capsys):
        """Finite features of about 1e200 pass validation, but the encoder
        trained on them diverges in set-up: one error line, no directory."""
        cfg = self.huge_features_cfg(tmp_path)
        out = tmp_path / "o"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "encoder training diverged" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--algorithm", "fedavg"]])
    def test_numeric_failure_prints_only_its_error_line(self, tmp_path, flags):
        """Outside pytest's warning capture too, a run that overflows writes
        exactly one stderr line, its error (encoder set-up, or a round)."""
        cfg = self.huge_features_cfg(tmp_path)
        src = Path(fairgfl.cli.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "fairgfl.cli", "run", "--config", str(cfg),
             "--out", str(tmp_path / "o"), *flags],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr

    def test_unknown_key_exits_two(self, tmp_path):
        cfg = write_cfg(tmp_path, "bogus = 1\n")
        status = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert status == 2

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out),
              "--algorithm", "fedavg", "--seed", "5", "--no-ldp"])
        manifest = (out / "manifest.txt").read_text()
        assert "algorithm=fedavg" in manifest
        assert "seed=5" in manifest
        assert "use_ldp=False" in manifest

    def test_seed_changes_trajectory(self, tmp_path):
        cfg = write_cfg(tmp_path)
        losses = {}
        for seed in ("1", "2"):
            out = tmp_path / f"out{seed}"
            main(["run", "--config", str(cfg), "--out", str(out), "--seed", seed])
            losses[seed] = [r.test_loss for r in read_round_records(out / "rounds.csv")]
        assert losses["1"] != losses["2"]
