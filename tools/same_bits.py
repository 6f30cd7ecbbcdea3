"""Byte-for-byte comparison of ``sim run`` outputs with a parent revision.

Run from the repository root:

    python3 tools/same_bits.py --parent HEAD~1 --work /tmp/bits

The parent revision is extracted with ``git archive`` into ``WORK/parent``;
the change side is the current working tree. Each tree runs ``sim run`` from
its own ``src`` on the same fixed cases, one process at a time: the
``bench/run.py`` workloads at the default graph draw, ``fairgfl-m`` at
``alpha = 1`` with the cache on (``fairgfl-m-alpha1``: its uploads carry no
link half, so against a parent whose α = 1 uploads still carry one, its only
expected differences are ``overlap_estimates/T_round.csv`` and
``overlap_estimates/T_acc.csv``, all zeros on the change side), ``fairgfl-m``
without LDP with the cache on and off (``fairgfl-m-noldp-nocache``: an upload
without a mechanism caches nothing either way), at tau percentile 25, with
``quantiles = 1`` (``fairgfl-m-p1``: every uploaded coordinate is 0 or 1, so
almost every distance ties and the matcher's tie rule decides every pair),
with 21-node blocks (147 nodes, 29 test rows: a row count that is not a
multiple of 4, where BLAS may take another kernel) and with 9 blocks (9
classes: numpy sums a row of 8 or more terms in pairwise lanes, so a softmax
row reduction may hold its bits below 8 classes alone), with every SBM key
off its default (``fairgfl-m-dataset``: 5 blocks of 40 nodes, p_in 0.25,
p_out 0.03, 24 features, SBM seed 3, so the manifests' dataset lines are
compared with values of their own), ``fairgfl-m`` on
node and edge files (``dataset = file``: a small block graph whose edges are
written shuffled, some in both directions and some twice, among a few
``u u`` self-loop rows that the loader drops), ``fairgfl-m`` on uneven clients
(``dirichlet_alpha_nonoverlap = 0.05``, ``overlap_coefficient = 0.02``:
clients of 38, 1, 19, 75, 50, 2, 53, 5, 33 and 1 nodes, so two hold a single
node and five fewer than the ``batch_size`` of 20), ``fedavg-l`` (600-node
blocks) under ``algorithm = qfedavg`` and under ``algorithm = fairgfl`` with
``lam = 0`` (a step's batch rows are under a quarter of the clients' rows,
so local steps multiply those rows alone, with the clients' train-loss pass
run and skipped), and every multi-run suite on a 3-round config with 20-node
blocks.
Every output file (manifests included) is compared byte for byte. Each file
that differs, or exists on one side only, is printed; for a differing CSV
whose header and row count match, so is the largest relative difference
|a - b| / max(|a|, |b|) in each numeric column. The exit status is 1 if any
file differs or a run fails, else 0.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import revision

ROOT = Path.cwd()


def graph_files(top: Path) -> dict:
    """Write a 140-node, 4-class block graph as node and edge files in top;
    returns their config keys. Edges come in shuffled order and random
    direction, a quarter of them also reversed and an eighth twice, mixed
    with four self-loop rows."""
    rng = np.random.default_rng(11)
    n, dim = 140, 32
    labels = rng.integers(0, 4, size=n)
    features = rng.standard_normal((n, dim))
    features[np.arange(n), labels] += 4.0
    same = labels[:, None] == labels[None, :]
    edges = np.argwhere(np.triu(rng.random((n, n)) < np.where(same, 0.2, 0.02), k=1))
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]
    extra = rng.random(len(edges))
    loops = np.repeat(rng.integers(0, n, size=(4, 1)), 2, axis=1)
    edges = np.concatenate([edges, edges[extra < 0.25, ::-1], edges[extra > 0.875], loops])
    edges = edges[rng.permutation(len(edges))]
    node_file, edge_file = top / "nodes.txt", top / "edges.txt"
    node_file.write_text("".join(
        f"{i} {' '.join(map(repr, row.tolist()))} c{lab}\n"
        for i, (row, lab) in enumerate(zip(features, labels))))
    edge_file.write_text("".join(f"{u} {v}\n" for u, v in edges.tolist()))
    return {"dataset": "file", "node_file": node_file, "edge_file": edge_file}


def cases(top: Path) -> dict[str, tuple[str, dict]]:
    """Case name -> (suite, config keys); graph files are written in top."""
    sys.path.insert(0, str(ROOT / "bench"))
    from run import DEFAULT_SBM_SEED, WORKLOADS

    out = {w: ("single", dict(keys, sbm_seed=DEFAULT_SBM_SEED)) for w, keys in WORKLOADS.items()}
    base = out["fairgfl-m"][1]
    out["fairgfl-m-alpha1"] = ("single", dict(base, alpha=1.0))
    out["fairgfl-m-noldp"] = ("single", dict(base, use_ldp="off"))
    out["fairgfl-m-noldp-nocache"] = ("single", dict(base, use_ldp="off", permanent_cache="off"))
    out["fairgfl-m-tau25"] = ("single", dict(base, tau_percentile=25))
    out["fairgfl-m-p1"] = ("single", dict(base, quantiles=1))
    out["fairgfl-m-b21"] = ("single", dict(base, sbm_block_size=21))
    out["fairgfl-m-c9"] = ("single", dict(base, sbm_blocks=9))
    out["fairgfl-m-dataset"] = ("single", dict(base, sbm_blocks=5, sbm_block_size=40,
                                                sbm_p_in=0.25, sbm_p_out=0.03,
                                                feature_dim=24, sbm_seed=3))
    out["fairgfl-m-file"] = ("single", dict(base, **graph_files(top)))
    out["fairgfl-m-uneven"] = ("single", dict(base, dirichlet_alpha_nonoverlap=0.05,
                                              overlap_coefficient=0.02))
    large = out["fedavg-l"][1]
    out["fedavg-l-qfedavg"] = ("single", dict(large, algorithm="qfedavg"))
    out["fedavg-l-fairgfl-lam0"] = ("single", dict(large, algorithm="fairgfl", lam=0))
    for suite in ("compare", "motivation", "privacy-sweep", "overlap-sweep"):
        out[suite] = (suite, {"rounds": 3, "sbm_block_size": 20})
    return out


def run_case(tree: Path, cfg: Path, suite: str, out: Path) -> str:
    """Run one case in ``tree``; returns its stderr on failure, else ''."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "fairgfl.cli", "run", "--config", str(cfg),
         "--suite", suite, "--out", str(out)],
        cwd=tree, env=env, capture_output=True, text=True)
    return proc.stderr.strip() if proc.returncode else ""


def column_drift(a: Path, b: Path) -> dict[str, float]:
    """Largest relative difference per numeric column of two CSV files;
    empty if their headers or row counts differ."""
    rows_a, rows_b = (list(csv.reader(p.read_text().splitlines())) for p in (a, b))
    if not rows_a or rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        return {}
    out = {}
    for k, name in enumerate(rows_a[0]):
        try:
            x = np.array([float(r[k]) for r in rows_a[1:]])
            y = np.array([float(r[k]) for r in rows_b[1:]])
        except ValueError:
            continue
        scale = np.maximum(np.abs(x), np.abs(y))
        rel = np.abs(x - y) / np.where(scale > 0, scale, 1.0)
        out[name] = float(rel.max(initial=0.0))
    return out


def files(top: Path) -> set[Path]:
    return {p.relative_to(top) for p in top.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--work", required=True, type=Path, help="empty directory for the runs")
    args = ap.parse_args(argv)

    work = args.work.resolve()
    commit = revision.extract(ROOT, args.parent, work / "parent")
    trees = {"parent": work / "parent", "change": ROOT}
    (work / "cases").mkdir()
    bad = 0
    for name, (suite, keys) in cases(work / "cases").items():
        cfg = work / "cases" / f"{name}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        outs = {side: work / "out" / side / name for side in trees}
        identical = 0
        for side, tree in trees.items():
            err = run_case(tree, cfg, suite, outs[side])
            if err:
                print(f"{name}: run failed in {side}: {err}")
                bad += 1
        got = {side: files(out) if out.is_dir() else set() for side, out in outs.items()}
        every = sorted(got["parent"] | got["change"])
        for rel in every:
            sides = [s for s in trees if rel in got[s]]
            if len(sides) == 1:
                print(f"{name}/{rel}: only in {sides[0]}")
            elif not filecmp.cmp(outs["parent"] / rel, outs["change"] / rel, shallow=False):
                line = f"{name}/{rel}: differs"
                if rel.suffix == ".csv":
                    drift = column_drift(outs["parent"] / rel, outs["change"] / rel)
                    if drift:
                        line += "; largest relative difference by column: " + ", ".join(
                            f"{col} {d:.2g}" for col, d in drift.items())
                print(line)
            else:
                identical += 1
                continue
            bad += 1
        print(f"{name} ({suite}): {identical} of {len(every)} files identical")
    verdict = "every output file identical" if not bad else f"{bad} differences or failures"
    print(f"parent {commit} vs working tree: {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
