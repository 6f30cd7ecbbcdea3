"""Build and run times and peak memory of ``sim run`` defaults on large sparse SBMs.

Run from the repository root:

    python3 tools/scale_probe.py --tag mytag --nodes 21000 --nodes 100002 --rounds 5 \\
        --parent HEAD~1 --work /tmp/probe

Each size runs the ``sim run`` defaults on an SBM of N nodes in ``sbm_blocks``
(7) blocks of B = N / 7, with ``sbm_p_in = 15 / B`` and ``sbm_p_out = 1.5 / B``,
so the expected degree stays near 15 + 6 · 1.5 = 24 whatever N is. Every size
runs in a fresh process with 1 BLAS thread. Each repeatable ``--set
key=value`` goes to ``cli.parse_config`` after the size's own keys, which it
overrides (``--set alpha=1.0`` probes runs whose uploads carry no link half).
Every size reports the seconds of
``cli.build_graph`` and of ``federation.run_experiment``, the bytes of the
global adjacency's ``data``, ``indices`` and ``indptr`` arrays, and
``ru_maxrss`` after the build, after a set-up (``run_experiment`` at 0
rounds, run once before the timed experiment) and at the end. The set-up
figure leaves out what only the rounds hold, such as the uploads' link
cache. With ``--parent`` the parent revision is extracted with ``git
archive`` into ``WORK/parent`` and every size runs on the parent first,
then on the working tree. The results, with the config (each size's own
keys, the ``--set`` keys and every other key's default), machine and
numpy/scipy versions, go
to ``BENCH_scale_<tag>.json``, rewritten after every run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import revision
from bench_pairs import machine, versions

ROOT = Path.cwd()

# Runs in the fresh process, with the tree's src first on sys.path.
CHILD = """
import dataclasses, json, resource, sys, time
from fairgfl import cli, federation

part, fed, ldp, dataset = cli.parse_config(None, json.loads(sys.argv[1]))
maxrss_mb = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
t0 = time.perf_counter()
graph = cli.build_graph(dataset)
build_s = time.perf_counter() - t0
after_build = maxrss_mb()
adj = graph.adjacency
adjacency_bytes = sum(a.nbytes for a in (adj.data, adj.indices, adj.indptr))
federation.run_experiment(graph, part, dataclasses.replace(fed, rounds=0), ldp)
after_setup = maxrss_mb()
t0 = time.perf_counter()
result = federation.run_experiment(graph, part, fed, ldp)
run_s = time.perf_counter() - t0
print(json.dumps({
    "nodes": graph.num_nodes, "edges": graph.adjacency.nnz // 2,
    "build_s": build_s, "run_s": run_s, "adjacency_bytes": adjacency_bytes,
    "maxrss_after_build_mb": after_build,
    "maxrss_after_setup_mb": after_setup, "maxrss_mb": maxrss_mb(),
    "final_test_loss": result.records[-1].test_loss,
}))
"""


def probe_keys(nodes: int, rounds: int, blocks: int) -> dict:
    """The config keys that a probe of `nodes` nodes sets over the sim run
    defaults: blocks of B = nodes / blocks, sbm_p_in 15 / B, sbm_p_out 1.5 / B."""
    size = nodes // blocks
    return {"sbm_block_size": size, "sbm_p_in": 15 / size, "sbm_p_out": 1.5 / size,
            "rounds": rounds}


def probe_config(nodes: list[int], rounds: int, set_keys: dict | None = None) -> dict:
    """The runs' config: each size's own keys, the keys set for every size
    (over the size's own), and every config key's default in the working
    tree's schema, which those keys override."""
    sys.path.insert(0, str(ROOT / "src"))
    from fairgfl.cli import CONFIG_SCHEMA, DatasetConfig

    blocks = DatasetConfig().sbm_blocks
    return {
        "probe_keys": {str(n): probe_keys(n, rounds, blocks) for n in nodes},
        "set_keys": dict(set_keys or {}),
        "other_keys": {key: default for key, (_, _, default) in CONFIG_SCHEMA.items()},
        "blas_threads": 1,
        "timed": "build_s: cli.build_graph; run_s: federation.run_experiment "
                 "(partition, normalization, encoder, tau calibration and rounds)",
        "maxrss_after_setup_mb": "ru_maxrss after run_experiment at 0 rounds, "
                                 "run between the build and the timed run",
    }


def probe(tree: Path, keys: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(keys)],
                          cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True)
    ap.add_argument("--nodes", type=int, action="append", required=True,
                    help="graph size; a multiple of the SBM block count")
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--parent", help="git revision to probe before the working tree")
    ap.add_argument("--work", type=Path, help="directory for the parent tree")
    ap.add_argument("--out", type=Path, help="default: BENCH_scale_<tag>.json")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="a config key for every size, over its own; repeatable")
    args = ap.parse_args(argv)
    if args.parent and not args.work:
        ap.error("--parent needs --work")
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    if any("=" not in item for item in args.set):
        ap.error("--set takes key=value")
    set_keys = dict(item.split("=", 1) for item in args.set)

    sys.path.insert(0, str(ROOT / "src"))
    from fairgfl.cli import DatasetConfig, parse_config

    try:
        parse_config(None, set_keys)
    except ValueError as exc:  # ConfigError and ValidationError alike
        ap.error(str(exc))

    blocks = DatasetConfig().sbm_blocks
    for n in args.nodes:
        if n < 2 * blocks or n % blocks:
            ap.error(f"--nodes {n} is not a multiple of {blocks} blocks of >= 2 nodes")

    trees = {"change": ROOT}
    doc = {"tag": args.tag, "command": " ".join(["python3", "tools/scale_probe.py", *sys.argv[1:]])}
    if args.parent:
        trees = {"parent": args.work.resolve() / "parent", **trees}
        doc["parent_commit"] = revision.extract(ROOT, args.parent, trees["parent"])
    config = probe_config(args.nodes, args.rounds, set_keys)
    doc.update({
        "config": config,
        "machine": machine(),
        "versions": versions(),
        "runs": [],
    })
    out_path = args.out or ROOT / f"BENCH_scale_{args.tag}.json"
    for n in args.nodes:
        for side, tree in trees.items():
            run = {"side": side, **probe(tree, {**config["probe_keys"][str(n)], **set_keys})}
            doc["runs"].append(run)
            out_path.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"{side} {n} nodes: build {run['build_s']:.2f} s "
                  f"({run['maxrss_after_build_mb']:.0f} MB), set-up "
                  f"{run['maxrss_after_setup_mb']:.0f} MB, run {run['run_s']:.2f} s, "
                  f"peak {run['maxrss_mb']:.0f} MB", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
