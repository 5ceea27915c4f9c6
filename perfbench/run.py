#!/usr/bin/env python3
"""The repository benchmark: one workload, measured end to end or per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload create_hotdir --seed 1 --seconds 20 --trace 0

A run repeats *rounds* of the workload until ``--seconds`` have passed.
A round builds a fresh cluster, runs a fixed number of ops through the
public ``repro`` API (``run_stream`` or ``run_fanin``), lets aggregation
settle and checks the namespace.  Round ``r`` plays input ``r mod
INPUTS``, each input derived from ``--seed``; a run plays every input at
least once, and a round that replays an input must reproduce its
simulated results and work counts exactly (the determinism check).  The
simulated metrics pool the latency samples of the ``INPUTS`` distinct
rounds; host times are medians over all rounds, scaled to nominal host
speed by the reference in hostspeed.py.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` plays pairs of
an untraced and a traced round (cProfile plus per-op virtual-time spans)
on the same input and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 1 when a correctness check fails, and 2
when the checkout holds no ``src/repro`` to measure.  The default seed is
1; seed 7919 is held out of tuning.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import platform
import pstats
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: Distinct inputs per run.  Pooling their samples steadies the tail
#: percentiles across seeds; playing all of them makes set-up time and host
#: throughput medians of at least this many rounds.
INPUTS = 3
#: An open-loop run whose achieved rate falls below this share of the
#: offered rate has a backlog: the workload is past saturation.
MIN_ACHIEVED_SHARE = 0.97

#: name -> unit of the end-to-end metrics, in print order.
END_TO_END = {
    "wall_ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_kops": "kops/s",
    "sim_mean_us": "us",
    "sim_p99_us": "us",
    "sim_p999_us": "us",
}


def percentile(sorted_xs, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def host_stamp() -> str:
    return (f"host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"machine={platform.machine()}")


def verify(workload, rnd) -> list:
    """Correctness problems of one finished round (empty when correct).

    After aggregation settles, statdir and readdir of every directory must
    agree with each other and with the files the acknowledged ops left
    behind: the bootstrap files adjusted by every acked create, delete and
    rename (see ``workloads._NamespaceFS``).
    """
    from repro.sim import AllOf

    problems = []
    rec = rnd.recorder
    if rec.issued != workload.total_ops or rec.completed != workload.total_ops:
        problems.append(f"issued {rec.issued} / completed {rec.completed} "
                        f"of {workload.total_ops} ops")
    if rec.late:
        problems.append(f"{rec.late} open-loop ops started after their due time")
    if workload.offered_load_ops:
        achieved = rnd.result.throughput_ops
        if achieved < MIN_ACHIEVED_SHARE * workload.offered_load_ops:
            problems.append(f"backlog: achieved {achieved:.0f} ops/s of "
                            f"{workload.offered_load_ops:.0f} offered")
    cluster, pop = rnd.cluster, rnd.pop
    cluster.settle()
    expected = {d: {pop.file_name(i) for i in range(pop.files_per_dir)}
                for d in pop.dir_paths}
    for path, net in rec.net.items():
        d, _, name = path.rpartition("/")
        names = expected.get(d)
        if names is None:
            problems.append(f"op wrote outside the population: {path}")
            continue
        exists = (name in names) + net
        if exists not in (0, 1):
            problems.append(f"{path}: acked creates minus deletes gives {exists}")
        elif exists:
            names.add(name)
        else:
            names.discard(name)
    fs = cluster.client(0)
    sim = cluster.sim
    reads = {d: (sim.spawn(fs.statdir(d)), sim.spawn(fs.readdir(d)))
             for d in pop.dir_paths}

    def join():
        yield AllOf(sim, [p for pair in reads.values() for p in pair])

    cluster.run_op(join())
    for d, (st_proc, rd_proc) in reads.items():
        st, rd = st_proc.value, rd_proc.value
        entries = rd["entries"]
        want = expected[d]
        if not (st["entry_count"] == rd["entry_count"] == len(entries) == len(want)):
            problems.append(f"{d}: statdir {st['entry_count']}, readdir "
                            f"{rd['entry_count']}/{len(entries)} entries, "
                            f"acked ops leave {len(want)}")
        elif set(entries) != want:
            problems.append(f"{d}: readdir names differ from the acked ops' files")
    return problems


def input_seed(seed: int, workload, index: int) -> int:
    from repro.bench import derive_seed

    return derive_seed(seed, workload.name, index)


def play_round(workload, seed: int, tracer=None, profiler=None) -> dict:
    """One round on input *seed*: set up, run, verify, and measure."""
    from layers import layer_counts, snapshot, window_counts
    from workloads import CHUNK_OPS

    marks = {}

    def on_window(cluster, edge):
        marks[edge] = snapshot(cluster, list(range(workload.clients)))

    rnd = workload.play(seed, on_window, tracer=tracer, profiler=profiler)
    result, rec = rnd.result, rnd.recorder
    problems = verify(workload, rnd)
    measured = workload.total_ops - workload.warmup_ops
    samples = sorted(result.latency.samples("all"))
    if len(samples) != measured:
        problems.append(f"{len(samples)} latency samples for {measured} measured ops")
    sim_values = {
        "sim_kops": result.throughput_kops,
        "sim_p50_us": percentile(samples, 0.50),
        "sim_p99_us": percentile(samples, 0.99),
        "sim_p999_us": percentile(samples, 0.999),
    }
    work = window_counts(marks["open"], marks["close"])
    slow_setup = rnd.setup_slowdown
    out = {
        "problems": problems,
        "attempted": rec.issued,
        "failed": rec.failed,
        "wall_s": result.wall_seconds,
        "raw_ops_per_s": len(rec.chunks) * CHUNK_OPS / sum(c for c, _ in rec.chunks),
        "chunk_ops_per_s": [CHUNK_OPS * slow / c for c, slow in rec.chunks],
        "raw_setup_s": rec.first_issue - rnd.t_start,
        "setup_s": (rec.first_issue - rnd.t_start) / slow_setup,
        "slowdown": statistics.median(slow for _, slow in rec.chunks),
        "setup.cluster_s": (rnd.t_cluster - rnd.t_start) / slow_setup,
        "setup.bootstrap_s": (rnd.t_bootstrap - rnd.t_cluster) / slow_setup,
        "workloads.table_build_s": (rec.first_issue - rnd.t_bootstrap) / slow_setup,
        "workloads.peak_inflight": result.inflight,
        "bench.latency_samples": len(samples),
        "samples": samples,
        "window_us": result.sim_elapsed_us,
        "sim": sim_values,
        "work": work,
        "layers": layer_counts(work, result.phases, measured),
    }
    # Free this round's cluster now, outside every timed region, so the
    # next round's set-up does not pay for collecting it.
    del rnd, result, rec
    gc.collect()
    return out


def signature(rnd_out: dict):
    """What must repeat exactly across rounds of one run."""
    return rnd_out["sim"], rnd_out["work"], rnd_out["bench.latency_samples"]


def end_to_end(rounds: list) -> dict:
    """End-to-end metrics of a run.

    Host times are at nominal host speed (hostspeed.py).  Throughput is
    the median over every chunk of CHUNK_OPS completions in every round,
    so a burst of host interference spoils a few chunks instead of a whole
    round.  Simulated metrics pool the samples of the distinct inputs.
    """
    distinct = rounds[:INPUTS]
    samples = sorted(x for r in distinct for x in r["samples"])
    metrics = {
        "wall_ops_per_s": statistics.median(
            c for r in rounds for c in r["chunk_ops_per_s"]),
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_kops": len(samples) / sum(r["window_us"] for r in distinct) * 1e3,
        "sim_mean_us": statistics.fmean(samples),
        "sim_p99_us": percentile(samples, 0.99),
        "sim_p999_us": percentile(samples, 0.999),
    }
    print(f"  sim_p50_us {percentile(samples, 0.50):.6f} us over "
          f"{len(samples)} pooled samples (printed only, see README)")
    return {k: {"value": metrics[k], "unit": unit} for k, unit in END_TO_END.items()}


def per_layer(workload, untraced: list, traced: list) -> dict:
    """Per-layer metrics from paired untraced/traced rounds.

    Work counts come from the first input's untraced round, host time per
    layer is the median over traced rounds, per op of the profiled call
    (warm-up included, since the profiler covers the whole call).
    """
    from layers import HOST_LAYERS

    first = untraced[0]
    metrics = {}
    for name, value in first["layers"].items():
        metrics[name] = (value, _layer_unit(name))
    for layer in HOST_LAYERS:
        metrics[f"{layer}.host_us_per_op"] = (
            statistics.median(t["host_s"][layer] for t in traced)
            / workload.total_ops * 1e6, "us/op")
    for name in ("setup.cluster_s", "setup.bootstrap_s", "workloads.table_build_s"):
        metrics[name] = (statistics.median(r[name] for r in untraced), "s")
    metrics["workloads.peak_inflight"] = (first["workloads.peak_inflight"], "count")
    metrics["bench.latency_samples"] = (first["bench.latency_samples"], "count")
    metrics["bench.rounds"] = (len(untraced) + len(traced), "count")
    metrics["trace.overhead"] = (statistics.median(
        t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced)), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_us_per_op", "us/op"), ("_per_op", "count/op"),
                         ("_per_aggregation", "count/agg"), ("_rate", "frac"),
                         ("_frac", "frac")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1; 7919 is held out)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    print(host_stamp())
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")

    t_begin = time.perf_counter()
    untraced, traced = [], []
    tracer = None
    while True:
        index = len(untraced) % INPUTS
        seed = input_seed(args.seed, workload, index)
        untraced.append(play_round(workload, seed))
        if args.trace:
            from layers import SpanTracer, host_time_by_layer

            tracer = SpanTracer()
            profiler = cProfile.Profile()
            rnd = play_round(workload, seed, tracer=tracer, profiler=profiler)
            rnd["host_s"] = host_time_by_layer(pstats.Stats(profiler))
            traced.append(rnd)
        done = args.trace or len(untraced) >= INPUTS
        if done and time.perf_counter() - t_begin >= args.seconds:
            break

    rounds = untraced + traced
    problems = [p for r in rounds for p in r["problems"]]
    for i, rnd in enumerate(untraced):
        twin = traced[i] if traced else None
        replay = untraced[i % INPUTS]
        for other, what in ((replay, f"replay of input {i % INPUTS}"),
                            (twin, "traced twin")):
            if other is not None and signature(other) != signature(rnd):
                problems.append(f"round {i}: simulated results or work counts "
                                f"differ from its {what}")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if failed:
        problems.append(f"{failed} of {attempted} ops failed")

    if args.trace:
        metrics = per_layer(workload, untraced, traced)
        spans = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl")
        tracer.write(spans, {"workload": workload.name, "seed": args.seed,
                             "host": host_stamp()})
        print(f"spans: {len(tracer.spans)} ops written to {spans}")
    else:
        metrics = end_to_end(untraced)
    print(f"rounds: {len(untraced)} untraced, {len(traced)} traced; "
          f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    for label, key, fmt in (("raw ops/s", "raw_ops_per_s", ".0f"),
                            ("raw setup_s", "raw_setup_s", ".3f"),
                            ("host slowdown", "slowdown", ".3f")):
        print(f"  per-round {label}: "
              + " ".join(format(r[key], fmt) for r in rounds))
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6f} {m['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
