"""Parent/change pairs of bench/run.py, written as one BENCH_<tag>.json.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --work /tmp/pairs --tag mytag \\
        --note "what the change does" --pairs fairgfl-m=10 --pairs fedavg-l=5

The parent revision is extracted with ``git archive`` into ``WORK/parent``;
the change side is the current working tree. Pair i of every workload runs
both sides on seed ``--first-seed`` + i, one process at a time, the parent
first on even i and the change first on odd i. With ``--trace-seed`` each
side also makes one traced run of every workload given with ``--pairs``,
kept under ``traced`` by workload. The JSON is rewritten after every run,
so an interrupted run of this script keeps what it measured.
bench/run.py itself is run unedited from each tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import revision

ROOT = Path.cwd()


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py process in ``tree``: its JSON line plus the drift probe line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["drift_probe"] = next((x for x in lines if x.startswith("drift probe")), "")
    return out


def quartiles(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(pairs: list, better: dict) -> dict:
    """Per end-to-end metric: each side's quartiles and the change's wins."""
    out = {}
    for name, direction in better.items():
        got = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
               for p in pairs]
        lower = direction == "lower"
        out[name] = {
            "better": direction,
            "parent": quartiles([a for a, _ in got]),
            "change": quartiles([b for _, b in got]),
            "change_wins": sum((b < a) if lower else (b > a) for a, b in got),
            "ties": sum(a == b for a, b in got),
            "pairs": len(got),
        }
    return out


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    kb = next(int(line.split()[1]) for line in Path("/proc/meminfo").read_text().splitlines()
              if line.startswith("MemTotal"))
    return {"cpu": cpu, "cores": os.cpu_count(), "memory_gb": round(kb / 2**20, 1),
            "os": f"{platform.system()} {platform.release()}"}


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def run_config(workloads: dict, seconds: float) -> dict:
    """The runs' config: each workload's keys, and every config key's
    default in the working tree's schema, which a workload's keys and the
    sbm_seed that bench/run.py takes from --seed override."""
    sys.path.insert(0, str(ROOT / "src"))
    from fairgfl.cli import CONFIG_SCHEMA

    return {
        "bench_workloads": workloads,
        "other_keys": {key: default for key, (_, _, default) in CONFIG_SCHEMA.items()},
        "run_seconds": seconds,
        "blas_threads": 1,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--work", required=True, type=Path, help="directory for the parent tree")
    ap.add_argument("--tag", required=True)
    ap.add_argument("--note", required=True, help="one line saying what the change does")
    ap.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N")
    ap.add_argument("--first-seed", type=int, default=31)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace-seed", type=int,
                    help="one traced run per side of every --pairs workload")
    ap.add_argument("--out", type=Path, help="default: BENCH_<tag>.json")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    counts = {w: int(n) for w, n in (spec.split("=", 1) for spec in args.pairs)}
    parent_tree = args.work / "parent"
    commit = revision.extract(ROOT, args.parent, parent_tree)
    trees = {"parent": parent_tree, "change": ROOT}
    sys.path.insert(0, str(ROOT / "bench"))
    import run as bench_run

    out_path = args.out or ROOT / f"BENCH_{args.tag}.json"
    doc = {
        "tag": args.tag,
        "change": args.note,
        "parent_commit": commit,
        "command": f"python3 bench/run.py --workload <w> --seed <s> --seconds {args.seconds:g} "
                   f"--trace 0 (traced: --workload <w> --seed {args.trace_seed} --trace 1)",
        "protocol": "one process at a time; each pair runs parent and change on the same "
                    "seed, alternating which side runs first; quartiles are inclusive; "
                    + ", ".join(f"{n} pairs on {w}" for w, n in counts.items()),
        "config": run_config({w: bench_run.WORKLOADS[w] for w in counts}, args.seconds),
        "machine": machine(),
        "versions": versions(),
        "workloads": {},
    }

    def save():
        out_path.write_text(json.dumps(doc, indent=1) + "\n")

    for workload, n in counts.items():
        pairs = []
        doc["workloads"][workload] = {"pairs": pairs}
        for i in range(n):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(trees[side], workload, seed, args.seconds, 0)
            pairs.append(pair)
            doc["workloads"][workload]["summary"] = summarize(pairs, better)
            save()
            exp = {s: pair[s]["metrics"]["experiment_s"]["value"] for s in trees}
            print(f"{workload} seed {seed}: experiment_s parent {exp['parent']:.3f} s, "
                  f"change {exp['change']:.3f} s", file=sys.stderr, flush=True)
    if args.trace_seed is not None:
        doc["traced"] = {}
        for workload in counts:
            doc["traced"][workload] = {
                side: run_bench(tree, workload, args.trace_seed, args.seconds, 1)
                for side, tree in trees.items()
            }
            save()
    for workload, entry in doc["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload} {name}: parent {s['parent']['median']:.6g} "
                  f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}], change "
                  f"{s['change']['median']:.6g} [{s['change']['q1']:.6g}, "
                  f"{s['change']['q3']:.6g}], change better in {s['change_wins']} of "
                  f"{s['pairs']} ({s['ties']} ties)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
