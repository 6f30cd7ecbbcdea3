"""Experiment runner: config parsing, suites, and result persistence."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .federation import ALGORITHMS, FedConfig, RoundError, run_experiment
from .gcn import NumericError
from .graph import (GraphFormatError, PartitionSpec, ValidationError, generate_sbm, load_graph,
                    text_lines)
from .ldp import LdpParams
from .metrics import write_csv, write_round_records
from .overlap import HISTORY

# Each suite's runs in run order: (tag, the config keys that the run sets).
_COEFFICIENT_RUNS = tuple((f"N{c:g}", {"overlap_coefficient": c})
                          for c in (0.0, 0.05, 0.10, 0.15, 0.20))
SUITES = {
    "single": (("", {}),),
    "compare": tuple((alg, {"algorithm": alg}) for alg in ALGORITHMS),
    "motivation": _COEFFICIENT_RUNS,
    "privacy-sweep": tuple((f"eps{e:g}", {"epsilon_a": e}) for e in (1.0, 4.0, 50.0))
    + (("noldp", {"use_ldp": False}),),
    "overlap-sweep": _COEFFICIENT_RUNS,
}


class ConfigError(ValueError):
    """Raised for unknown config keys or type mismatches."""


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


# Dataset selection keys and their defaults; build_graph reads them.
DATASET_DEFAULTS = {
    "dataset": "sbm",
    "sbm_blocks": 7,
    "sbm_block_size": 60,
    "sbm_p_in": 0.2,
    "sbm_p_out": 0.02,
    "feature_dim": 32,
    "sbm_seed": 7,
    "node_file": "",
    "edge_file": "",
}

# Config key -> (section, field, default), derived from the config
# dataclasses: each key's type is the type of its default. partition takes
# num_clients from FedConfig, PartitionSpec's seed is the partition_seed key,
# and its overlap_multipliers are set by the motivation suite only.
_SECTIONS = (("fed", FedConfig), ("part", PartitionSpec), ("ldp", LdpParams))
_RENAMED = {("part", "seed"): "partition_seed"}
CONFIG_SCHEMA = {
    _RENAMED.get((section, f.name), f.name): (section, f.name, f.default)
    for section, cls in _SECTIONS
    for f in dataclasses.fields(cls)
    if f.default is not dataclasses.MISSING and f.default is not None
}
CONFIG_SCHEMA.update((k, ("extras", k, v)) for k, v in DATASET_DEFAULTS.items())

_ALIASES = {
    "P": "num_clients",
    "K": "clients_per_round",
    "E": "local_iters",
    "J": "rounds",
    "b": "batch_size",
    "lambda": "lam",
    "N": "overlap_coefficient",
    "r": "overlap_pool_fraction",
    "p": "quantiles",
    "d1": "encoder_dim",
}


def parse_config(path=None, overrides: dict | None = None):
    """Resolve a flat key=value config file into the typed config objects.

    Returns (PartitionSpec, FedConfig, LdpParams, extras) where extras
    holds dataset selection keys. Unknown keys and malformed values raise
    ConfigError.
    """
    values = {}

    def assign(key, raw):
        key = _ALIASES.get(key, key)
        if key not in CONFIG_SCHEMA:
            valid = ", ".join(sorted(list(CONFIG_SCHEMA) + list(_ALIASES)))
            raise ConfigError(f"unknown config key {key!r}; valid keys: {valid}")
        typ, text = type(CONFIG_SCHEMA[key][2]), str(raw)
        try:
            values[key] = _bool(text) if typ is bool else typ(text)
        except ValueError:
            raise ConfigError(f"config key {key!r} expects {typ.__name__}, got {text!r}") from None

    if path is not None:
        for lineno, line in text_lines(path, ConfigError):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            assign(key, raw)
    for key, raw in (overrides or {}).items():
        assign(key, raw)

    extras = {key: values.pop(key, default) for key, default in DATASET_DEFAULTS.items()}
    return (*_with_keys((PartitionSpec(), FedConfig(), LdpParams()), values), extras)


def build_graph(extras: dict):
    if extras["dataset"] == "sbm":
        return generate_sbm(
            extras["sbm_blocks"],
            extras["sbm_block_size"],
            extras["sbm_p_in"],
            extras["sbm_p_out"],
            extras["feature_dim"],
            extras["sbm_seed"],
        )
    if extras["dataset"] == "file":
        if not extras["node_file"] or not extras["edge_file"]:
            raise ConfigError("dataset=file requires node_file and edge_file")
        return load_graph(extras["node_file"], extras["edge_file"])
    raise ConfigError(f"unknown dataset {extras['dataset']!r}; use sbm or file")


def write_manifest(path, part, fed, ldp, extras, suite, runs):
    """Write suite= and every config key as parse_config reads them back.

    overlap_multipliers, which only the motivation suite sets, is not a
    config key; it is recorded as a comment so the file still parses, as
    is one "# run TAG: key=value, ..." line per (tag, keys) in runs.
    """
    sections = {"fed": vars(fed), "part": vars(part), "ldp": vars(ldp), "extras": extras}
    lines = [f"suite={suite}"]
    lines.extend(
        f"{key}={sections[section][name]}"
        for key, (section, name, _) in CONFIG_SCHEMA.items()
    )
    if part.overlap_multipliers is not None:
        lines.append(
            "# overlap_multipliers=" + ",".join(str(m) for m in part.overlap_multipliers)
        )
    lines.extend(
        f"# run {tag}: " + ", ".join(f"{key}={value}" for key, value in keys.items())
        for tag, keys in runs
    )
    Path(path).write_text("\n".join(lines) + "\n")


def _write_overlap_history(est_dir: Path, history):
    """One CSV per HISTORY matrix: per round, the round and the matrix's entries."""
    if not history:
        return
    est_dir.mkdir(exist_ok=True)
    p = history[0]["O"].shape[0]
    header = ["round"] + [f"o_{i}_{k}" for i in range(p) for k in range(p)]
    for name in HISTORY:
        write_csv(est_dir / f"{name}.csv", header,
                  (((j,), snap[name]) for j, snap in enumerate(history, start=1)))


def _run_one(graph, part, fed, ldp, out_dir: Path, tag: str):
    """Run one experiment and write its files; returns its last RoundRecord
    (None without rounds), which is all of the result a suite reads."""
    result = run_experiment(graph, part, fed, ldp)
    # Created only now, so a run that fails in set-up leaves no directory.
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = f"_{tag}" if tag else ""
    write_round_records(out_dir / f"rounds{suffix}.csv", result.records)
    _write_overlap_history(out_dir / f"overlap_estimates{suffix}", result.overlap_history)
    return result.records[-1] if result.records else None


def _thirds_multipliers(p: int) -> tuple[float, ...]:
    """No/low/high overlap multipliers 0, 1, 2 in near-equal thirds, larger first."""
    return tuple(float(3 * i // p) for i in range(p))


def _with_keys(configs, keys: dict):
    """(part, fed, ldp) with the given config keys replaced: each section
    once, in _SECTIONS order, so FedConfig's checks run first."""
    sections = dict(zip(("part", "fed", "ldp"), configs))
    changes = {section: {} for section in sections}
    for key, value in keys.items():
        section, name, _ = CONFIG_SCHEMA[key]
        changes[section][name] = value
    for section, _ in _SECTIONS:
        sections[section] = dataclasses.replace(sections[section], **changes[section])
    return sections["part"], sections["fed"], sections["ldp"]


def run_suite(suite, part, fed, ldp, extras, out_dir) -> int:
    """Execute one experiment suite; returns a process exit status."""
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; use one of {tuple(SUITES)}")
    runs = SUITES[suite]
    if suite == "motivation" and fed.rounds == 0:
        raise ConfigError("suite motivation summarizes the last round; it needs rounds >= 1")
    if suite == "privacy-sweep" and not (
        fed.algorithm == "fairgfl" and fed.estimate_overlap and fed.use_ldp
    ):
        raise ConfigError(
            "suite privacy-sweep varies the budget of the overlap uploads; "
            "it needs algorithm = fairgfl, estimate_overlap = on and use_ldp = on"
        )
    if suite == "motivation":
        # Set on the suite-level configs, so the manifest records them too.
        part = dataclasses.replace(part, overlap_multipliers=_thirds_multipliers(fed.num_clients))
        fed = dataclasses.replace(fed, algorithm="fedavg")
    graph = build_graph(extras)
    out_dir = Path(out_dir)
    try:
        last_records = [
            _run_one(graph, *_with_keys((part, fed, ldp), keys), out_dir, tag)
            for tag, keys in runs
        ]
    except (RoundError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if suite == "motivation":
        write_csv(out_dir / "motivation.csv", ["overlap_coefficient", "loss_var", "loss_entropy"],
                  (((), (keys["overlap_coefficient"], last.loss_variance, last.loss_entropy))
                   for (_, keys), last in zip(runs, last_records)))
    write_manifest(out_dir / "manifest.txt", part, fed, ldp, extras, suite,
                   [(tag, keys) for tag, keys in runs if tag])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment suite")
    run.add_argument("--config", help="flat key=value config file")
    run.add_argument("--suite", default="single", choices=SUITES)
    run.add_argument("--out", required=True, help="output directory")
    # Each flag's dest is the config key that it sets.
    run.add_argument("--seed", type=int)
    run.add_argument("--algorithm", choices=ALGORITHMS)
    run.add_argument("--no-ldp", dest="use_ldp", action="store_const", const=False,
                     help="upload encoded but unperturbed batches")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items()
                 if key in CONFIG_SCHEMA and value is not None}
    try:
        part, fed, ldp, extras = parse_config(args.config, overrides)
        with np.errstate(all="ignore"):  # every non-finite result is checked explicitly
            return run_suite(args.suite, part, fed, ldp, extras, args.out)
    except (ConfigError, ValidationError, GraphFormatError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
