"""Benchmark of fairgfl: whole experiments through the public entry points.

Run from the repository root:

    python3 bench/run.py --workload fairgfl-m --seed 1 --seconds 30 --trace 0

One process runs one workload. Experiments run one at a time in a closed
loop (the next starts when the previous has ended) for ``--seconds``. With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a run whose
experiments alternate between untraced and traced. Every run checks the
program's outputs against bench/reference.py; a failed check counts as a
failed operation.
"""

from __future__ import annotations

import os

# One BLAS thread: the operands are small, and a second thread only adds
# contention noise on a 2-core machine. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import inspect
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"

# Workload -> config keys written to the generated config file. Keys left
# out keep the ``sim run`` defaults (7x60 SBM, P=10, K=5, b=20, eps_a=3,
# eps_b=1, p=8, tau percentile 95, seed 0, partition_seed 0). The seed sets
# ``sbm_seed``, the graph draw; the client node sets stay those of the
# defaults, so client sizes, and with them the work per round, do not vary.
WORKLOADS = {
    "fairgfl-m": {"rounds": 120},
    "fairgfl-m-nocache": {"rounds": 60, "permanent_cache": "off"},
    "fedavg-l": {"rounds": 40, "algorithm": "fedavg", "sbm_block_size": 600},
}
# Set-ups timed before each experiment; setup_s is the median of all of them.
SETUP_REPS = {"fairgfl-m": 3, "fairgfl-m-nocache": 3, "fedavg-l": 1}
# test_loss and loss_var are measured on the CLI default graph draw: over
# eight graph draws, loss_var of one experiment spread several-fold
# (IQR/median about 1.0), so a seeded value would have no steady median.
DEFAULT_SBM_SEED = 7


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def load_program():
    """Import fairgfl from ./src of the current checkout, or exit 2."""
    src = ROOT / "src"
    if not (src / "fairgfl" / "__init__.py").is_file():
        log(f"error: {src / 'fairgfl'} not found; run from the repository root")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import fairgfl.cli
    if Path(fairgfl.__file__).resolve().parent != (src / "fairgfl").resolve():
        log(f"error: imported fairgfl from {fairgfl.__file__}, not {src}")
        sys.exit(2)
    return fairgfl


def drift_probe_ms() -> float:
    """Best of three timings of a fixed pure-Python loop (machine speed)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


@dataclasses.dataclass
class Experiment:
    seconds: float
    status: int
    round_ms: list        # the program's own per-round wall times
    digest: tuple         # everything a rerun of the config must reproduce bit for bit
    graph: object         # kept for the last experiment of a loop only
    result: object

    def release(self):
        self.graph = self.result = None


class Runner:
    """Runs single-suite experiments and keeps the program's own result."""

    def __init__(self, fairgfl, cfg_path: Path, out_dir: Path):
        self.fg = fairgfl
        self.out_dir = out_dir
        self.config = fairgfl.cli.parse_config(cfg_path)
        self._captured = []

        def capture(graph, *args, **kwargs):
            # Looked up per call, so a traced federation.run_experiment is used.
            result = fairgfl.federation.run_experiment(graph, *args, **kwargs)
            self._captured.append((graph, result))
            return result

        fairgfl.cli.run_experiment = capture

    @property
    def fed(self):
        return self.config[1]

    def experiment(self, tracer=None) -> Experiment:
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        self._captured.clear()
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        status = self.fg.cli.run_suite("single", *self.config, self.out_dir)
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.remove()
        graph, result = self._captured[-1]
        records = result.records
        digest = (
            [repr(dataclasses.replace(r, wall_time_ms=0.0)) for r in records],
            result.model.W1.tobytes(),
            result.model.W2.tobytes(),
            (self.out_dir / "rounds.csv").read_bytes(),
        )
        return Experiment(elapsed, status, [r.wall_time_ms for r in records],
                          digest, graph, result)

    def setup_seconds(self) -> float:
        """Graph construction plus run_experiment up to round 1 (J = 0)."""
        part, fed, ldp, extras = self.config
        no_rounds = dataclasses.replace(fed, rounds=0)
        t0 = time.perf_counter()
        graph = self.fg.cli.build_graph(extras)
        self.fg.federation.run_experiment(graph, part, no_rounds, ldp)
        return time.perf_counter() - t0


def closed_loop(seconds: float, step, minimum: int) -> list:
    """Call ``step(i)`` until ``seconds`` have passed and ``minimum`` calls are done.

    Only the last experiment keeps its graph and result, so memory and the
    peak RSS do not grow with the number of experiments a run fits in.
    """
    done = []
    t0 = time.perf_counter()
    while len(done) < minimum or time.perf_counter() - t0 < seconds:
        if done:
            done[-1].release()
        done.append(step(len(done)))
    return done


def check_runs(check, reference, runner, exps, tag) -> dict:
    """Exit status and determinism of all experiments; reference checks of the last."""
    for i, exp in enumerate(exps):
        check(f"{tag} experiment {i} exit status", exp.status == 0, str(exp.status))
        if i:
            check(f"{tag} experiment {i} bitwise equal to experiment 0",
                  exp.digest == exps[0].digest)
    last = exps[-1]
    return reference.check_experiment(check, last.graph, last.result, runner.fed,
                                      runner.out_dir, tag)


def end_to_end(args, fairgfl, check, reference, cfg, default_cfg, work) -> dict:
    runner = Runner(fairgfl, cfg, work / "seeded")
    runner.setup_seconds()   # warm-up, not counted
    setups = []

    def step(i):
        # Set-ups are spread over the run so that their median, like the
        # experiments', samples the whole run rather than its first second.
        setups.extend(runner.setup_seconds() for _ in range(SETUP_REPS[args.workload]))
        return runner.experiment()

    exps = closed_loop(args.seconds, step, minimum=2)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_runs(check, reference, runner, exps, "seeded")

    quality = Runner(fairgfl, default_cfg, work / "default")
    qexp = quality.experiment()
    check_runs(check, reference, quality, [qexp], "default")
    final = qexp.result.records[-1]
    log(f"experiment_s: {' '.join(f'{e.seconds:.3f}' for e in exps)}")
    log(f"setup_s: {' '.join(f'{t:.4f}' for t in setups)}")
    round_ms = [ms for e in exps for ms in e.round_ms]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "experiment_s": (statistics.median(e.seconds for e in exps), "s"),
        "rounds_per_s": (len(round_ms) / (sum(round_ms) / 1000.0), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "test_loss": (final.test_loss, "nats"),
        "loss_var": (final.loss_variance, "nats2"),
    }


class Probes:
    """Hooks around ldp and overlap calls that record what was uploaded and matched."""

    def __init__(self, fairgfl, tracer):
        self.uploads, self.matches = [], []
        self.hits = self.uploaded = self.elements = 0
        sig = inspect.signature(fairgfl.ldp.sanitize_batch)

        def on_sanitize(fn, args, kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            cache, ids = bound["cache"], [int(g) for g in bound["batch"]]
            if cache is not None:
                self.hits += sum(g in cache.nodes for g in ids)
            self.uploaded += len(ids)
            batch = fn(*args, **kwargs)
            self.uploads.append((batch.client_id, batch.node_ids, batch))
            return batch

        def on_match(fn, args, kwargs):
            res = fn(*args, **kwargs)
            self.matches.append((args[0].node_ids, args[1].node_ids, res.pairs))
            return res

        def on_perturb(fn, args, kwargs):
            self.elements += int(getattr(args[0], "size", 1))
            return fn(*args, **kwargs)

        tracer.install()
        tracer.around(fairgfl.ldp, "sanitize_batch", on_sanitize)
        tracer.around(fairgfl.overlap, "match_nodes", on_match)
        tracer.around(fairgfl.ldp, "perturb_node", on_perturb)
        tracer.remove()

    def reset(self):
        self.uploads.clear()
        self.matches.clear()
        self.hits = self.uploaded = self.elements = 0


def layer_times(spans_mod, spans, seconds: float) -> dict:
    """Per-layer times (ms) of one traced experiment lasting ``seconds``."""
    s = spans_mod.summarize(spans)

    def t(name, kind="self"):
        return s.get(name, {}).get(kind, 0.0) * 1000.0

    def under(name, parent):
        return spans_mod.inclusive_under(spans, name, parent) * 1000.0

    out = {f"{layer}.self_ms": sum(v["self"] for k, v in s.items()
                                   if k.startswith(layer + ".")) * 1000.0
           for layer in spans_mod.MODULES}
    out.update({
        "graph.generate_sbm_ms": t("graph.generate_sbm"),
        "graph.partition_ms": t("graph.partition", "incl"),
        "gcn.forward_ms": t("gcn.forward"),
        "gcn.loss_and_grad_ms": t("gcn.loss_and_grad"),
        "gcn.normalize_adjacency_ms": t("gcn.normalize_adjacency"),
        "ldp.perturb_node_ms": t("ldp.perturb_node"),
        "ldp.sanitize_batch_ms": t("ldp.sanitize_batch"),
        "ldp.sparsify_correct_ms": t("ldp.sparsify_correct"),
        "ldp.train_encoder_ms": t("ldp.train_encoder"),
        "overlap.calibrate_tau_ms": t("overlap.calibrate_tau"),
        "overlap.match_nodes_ms": t("overlap.match_nodes"),
        "federation.aggregate_ms": sum(t(f"federation.aggregate_{a}", "incl")
                                       for a in ("fair", "fedavg", "qfedavg")),
        "federation.client_eval_ms": under("gcn.masked_loss", "federation.run_experiment"),
        "metrics.evaluate_global_ms": t("metrics.evaluate_global", "incl"),
        "cli.outputs_ms": t("cli.run_suite", "incl") - under("cli.build_graph", "cli.run_suite")
                          - under("federation.run_experiment", "cli.run_suite"),
        "trace.experiment_ms": seconds * 1000.0,
        "trace.remainder_ms": seconds * 1000.0 - sum(v["self"] for v in s.values()) * 1000.0,
    })
    return out


def traced(args, fairgfl, check, reference, cfg, work) -> dict:
    import spans as spans_mod

    runner = Runner(fairgfl, cfg, work / "seeded")
    fed, quantiles = runner.fed, runner.config[2].quantiles
    cache_on = fed.permanent_cache and fed.algorithm == "fairgfl"
    tracer = spans_mod.Tracer()
    probes = Probes(fairgfl, tracer)
    untraced, times = [], []
    last = {}

    def step(i):
        if i % 2 == 0:
            untraced.append(runner.experiment())
            return untraced[-1]
        tracer.reset()
        probes.reset()
        exp = runner.experiment(tracer)
        times.append(layer_times(spans_mod, tracer.spans, exp.seconds))
        if probes.uploads:
            reference.check_uploads(check, probes.uploads, quantiles, cache_on,
                                    f"traced experiment {i}")
        calls = spans_mod.summarize(tracer.spans)
        matched, same = reference.match_precision(probes.matches)
        last.update({
            "gcn.forward_calls": (calls.get("gcn.forward", {}).get("calls", 0), "count"),
            "ldp.perturb_node_elements": (probes.elements, "count"),
            "ldp.cache_hit_ratio": (probes.hits / probes.uploaded if probes.uploaded else 0.0,
                                    "ratio"),
            "overlap.match_nodes_calls": (calls.get("overlap.match_nodes", {}).get("calls", 0),
                                          "count"),
            "overlap.matched_pairs": (matched, "count"),
            "overlap.match_precision": (same / matched if matched else 0.0, "ratio"),
            "trace.spans": (len(tracer.spans), "count"),
        })
        return exp

    exps = closed_loop(args.seconds, step, minimum=4)
    sets = check_runs(check, reference, runner, exps, "traced")
    node_mae = link_mae = 0.0
    if exps[-1].result.state is not None:
        node_mae, link_mae = reference.overlap_errors(exps[-1].result.state,
                                                      sets["nodes"], sets["edges"])
    metrics = {k: (statistics.median(f[k] for f in times), "ms") for k in times[0]}
    untraced_ms = statistics.median(e.seconds for e in untraced) * 1000.0
    rounds = [ms for e in untraced for ms in e.round_ms]
    metrics.update(last)
    metrics.update({
        "overlap.node_mae": (node_mae, "ratio"),
        "overlap.link_mae": (link_mae, "ratio"),
        "federation.round_ms_p50": (statistics.median(rounds), "ms"),
        "federation.round_ms_p99": (statistics.quantiles(rounds, n=100)[98], "ms"),
        "federation.round_samples": (len(rounds), "count"),
        "trace.untraced_experiment_ms": (untraced_ms, "ms"),
        "trace.overhead_ms": (metrics["trace.experiment_ms"][0] - untraced_ms, "ms"),
        "trace.traced_experiments": (len(times), "count"),
    })
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    fairgfl = load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import reference

    work = OUT / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    keys = dict(WORKLOADS[args.workload], sbm_seed=args.seed)
    cfg, default_cfg = work / "seeded.cfg", work / "default.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    keys["sbm_seed"] = DEFAULT_SBM_SEED
    default_cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))

    check = reference.Checks(log)
    drift_before = drift_probe_ms()
    if args.trace:
        metrics = traced(args, fairgfl, check, reference, cfg, work)
    else:
        metrics = end_to_end(args, fairgfl, check, reference, cfg, default_cfg, work)
    drift_after = drift_probe_ms()
    print(f"drift probe: {drift_before:.2f} ms before, {drift_after:.2f} ms after "
          "(fixed pure-Python loop; not a metric, nothing is scaled by it)")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
