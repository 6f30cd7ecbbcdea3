"""Experiment runner: config parsing, suites, and result persistence."""

from __future__ import annotations

import argparse
import dataclasses
import functools
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


@dataclasses.dataclass(frozen=True)
class DatasetConfig:
    """The graph that build_graph makes: an SBM draw, or node and edge files."""

    dataset: str = "sbm"
    sbm_blocks: int = 7
    sbm_block_size: int = 60
    sbm_p_in: float = 0.2
    sbm_p_out: float = 0.02
    feature_dim: int = 32
    sbm_seed: int = 7
    node_file: str = ""
    edge_file: str = ""

    def __post_init__(self):
        if self.dataset not in ("sbm", "file"):
            raise ConfigError(f"unknown dataset {self.dataset!r}; use sbm or file")
        if self.dataset == "file" and not (self.node_file and self.edge_file):
            raise ConfigError("dataset=file requires node_file and edge_file")


# Config key -> (section, field, default), derived from the config
# dataclasses: each key's type is the type of its default. partition takes
# num_clients from FedConfig, PartitionSpec's seed is the partition_seed key,
# and its overlap_multipliers are set by the motivation suite only.
_SECTIONS = (("fed", FedConfig), ("part", PartitionSpec), ("ldp", LdpParams),
             ("dataset", DatasetConfig))
_RENAMED = {("part", "seed"): "partition_seed"}
CONFIG_SCHEMA = {
    _RENAMED.get((section, f.name), f.name): (section, f.name, f.default)
    for section, cls in _SECTIONS
    for f in dataclasses.fields(cls)
    if f.default is not dataclasses.MISSING and f.default is not None
}

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

    Returns (PartitionSpec, FedConfig, LdpParams, DatasetConfig). Unknown
    keys, malformed values and an unknown or incomplete dataset raise
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

    return _with_keys((PartitionSpec(), FedConfig(), LdpParams(), DatasetConfig()), values)


def build_graph(dataset: DatasetConfig):
    if dataset.dataset == "file":
        return load_graph(dataset.node_file, dataset.edge_file)
    return generate_sbm(dataset.sbm_blocks, dataset.sbm_block_size, dataset.sbm_p_in,
                        dataset.sbm_p_out, dataset.feature_dim, dataset.sbm_seed)


def write_manifest(path, part, fed, ldp, dataset, suite, runs):
    """Write suite= and every config key as parse_config reads them back.

    overlap_multipliers, which only the motivation suite sets, is not a
    config key; it is recorded as a comment so the file still parses, as
    is one "# run TAG: key=value, ..." line per (tag, keys) in runs.
    """
    sections = dict(part=part, fed=fed, ldp=ldp, dataset=dataset)
    lines = [f"suite={suite}"]
    lines.extend(
        f"{key}={getattr(sections[section], name)}"
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
    """(part, fed, ldp, dataset) with the given config keys replaced: each
    section once, in _SECTIONS order, so FedConfig's checks run first."""
    sections = dict(zip(("part", "fed", "ldp", "dataset"), configs))
    changes = {section: {} for section in sections}
    for key, value in keys.items():
        section, name, _ = CONFIG_SCHEMA[key]
        changes[section][name] = value
    for section, _ in _SECTIONS:
        sections[section] = dataclasses.replace(sections[section], **changes[section])
    return tuple(sections.values())


def run_suite(suite, part, fed, ldp, dataset, out_dir) -> int:
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
    graph_of = functools.cache(build_graph)  # one graph per distinct DatasetConfig
    out_dir = Path(out_dir)
    try:
        last_records = []
        for tag, keys in runs:
            *configs, run_dataset = _with_keys((part, fed, ldp, dataset), keys)
            last_records.append(_run_one(graph_of(run_dataset), *configs, out_dir, tag))
    except (RoundError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if suite == "motivation":
        write_csv(out_dir / "motivation.csv", ["overlap_coefficient", "loss_var", "loss_entropy"],
                  (((), (keys["overlap_coefficient"], last.loss_variance, last.loss_entropy))
                   for (_, keys), last in zip(runs, last_records)))
    write_manifest(out_dir / "manifest.txt", part, fed, ldp, dataset, suite,
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
        configs = parse_config(args.config, overrides)
        with np.errstate(all="ignore"):  # every non-finite result is checked explicitly
            return run_suite(args.suite, *configs, args.out)
    except (ConfigError, ValidationError, GraphFormatError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
