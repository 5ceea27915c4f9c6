"""Command-line interface: run experiments without writing code.

Examples
--------
::

    python -m repro info
    python -m repro throughput --system SwitchFS --op create --dirs 1 \\
        --servers 8 --ops 4000
    python -m repro compare --op create --dirs 1 --ops 2000
    python -m repro workload --mix dcs --system SwitchFS --ops 3000
    python -m repro faults --loss 0.1 --dup 0.05 --ops 200
    python -m repro perf --tiny

All numbers except ``perf``'s are virtual-time measurements from the
deterministic simulation; repeated invocations with the same arguments
reproduce the same results bit-for-bit.  ``compare`` fans its per-system
runs across a process pool (``--serial`` / ``--jobs`` control it), which
does not change the reported numbers — each run is an independent
seeded simulation.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .bench import SweepPool, SYSTEMS, make_cluster, print_table, run_stream, scaled_config
from .bench.perf import (
    SUITES,
    compare_rates,
    profile_suite,
    record_entry,
    trajectory_entry,
    write_profile,
)
from .core import FSConfig, SwitchFSCluster
from .net import FaultModel
from .sim import make_rng
from .workloads import (
    CNN_TRAINING_MIX,
    DATA_CENTER_SERVICES_MIX,
    FixedOpStream,
    MixStream,
    THUMBNAIL_MIX,
    bootstrap,
    multiple_directories,
    single_large_directory,
)

__all__ = ["main"]

MIXES = {
    "dcs": DATA_CENTER_SERVICES_MIX,
    "cnn": CNN_TRAINING_MIX,
    "thumbnail": THUMBNAIL_MIX,
}

OPS = ["create", "delete", "mkdir", "rmdir", "stat", "open", "close", "statdir", "readdir"]


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--system", default="SwitchFS", choices=sorted(SYSTEMS),
                        help="which filesystem to run (default: SwitchFS)")
    parser.add_argument("--servers", type=int, default=8,
                        help="metadata servers (default: 8)")
    parser.add_argument("--cores", type=int, default=4,
                        help="cores per server (default: 4)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--switch-cache", action="store_true",
                        help="provision the in-switch dentry cache "
                             "(applies to SwitchFS; baselines have no switch)")


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ops", type=int, default=3000,
                        help="operations to run (default: 3000)")
    parser.add_argument("--inflight", type=int, default=64,
                        help="concurrent requests (default: 64)")
    parser.add_argument("--dirs", type=int, default=64,
                        help="directories in the namespace (1 = hotspot)")
    parser.add_argument("--files", type=int, default=None,
                        help="pre-populated files per directory "
                             "(default: sized to --ops)")


def _population(args):
    files = args.files if args.files is not None else max(8, args.ops // max(1, args.dirs) + 8)
    if args.dirs == 1:
        return single_large_directory(files)
    return multiple_directories(args.dirs, files)


def _build(args, system: Optional[str] = None):
    # The dentry cache lives in the programmable switch, which only the
    # SwitchFS datapath has; the knob is a no-op for baseline systems.
    cache = getattr(args, "switch_cache", False) and (system or args.system) == "SwitchFS"
    config = scaled_config(num_servers=args.servers, cores_per_server=args.cores,
                           seed=args.seed, switch_cache=cache,
                           population_users=getattr(args, "users", 0) or 0,
                           offered_load_ops=getattr(args, "offered_load", 0.0) or 0.0)
    cluster = make_cluster(system or args.system, config)
    population = bootstrap(cluster, _population(args), warm_clients=[0])
    return cluster, population


def cmd_info(args) -> int:
    rows = [[name] for name in sorted(SYSTEMS)]
    print_table("available systems", ["system"], rows)
    print_table(
        "workload mixes (--mix)",
        ["name", "description"],
        [
            ["dcs", "PanguFS data-center-services mix (Table 5), 80/20 skew"],
            ["cnn", "CNN-training lifecycle mix"],
            ["thumbnail", "thumbnail-generation mix"],
        ],
    )
    cfg = FSConfig()
    print_table(
        "FSConfig defaults",
        ["knob", "value"],
        [
            ["num_servers", cfg.num_servers],
            ["cores_per_server", cfg.cores_per_server],
            ["async_updates / recast", f"{cfg.async_updates} / {cfg.recast}"],
            ["stale set", f"{cfg.stale_stages} stages x 2^{cfg.stale_index_bits}"],
            ["proactive push threshold", cfg.proactive_push_entries],
            ["topology", cfg.topology],
        ],
    )
    return 0


def _throughput_fanin(args) -> int:
    """Open-loop fan-in run (``--users`` / ``--offered-load``, DESIGN.md §16)."""
    from .workloads import run_fanin

    cluster, population = _build(args)

    def make_stream(a: int):
        return FixedOpStream(
            args.op, population, seed=args.seed + a,
            dir_choice="single" if args.dirs == 1 else "uniform",
        )

    result = run_fanin(
        cluster,
        make_stream,
        users=args.users,
        offered_load_ops=args.offered_load,
        total_ops=args.ops,
        aggregates=min(args.users, args.aggregates),
        theta=cluster.config.population_theta,
        seed=args.seed,
    )
    print_table(
        f"{args.system}: open-loop {args.op}, {args.users:,} users",
        ["metric", "value"],
        [
            ["offered load", f"{args.offered_load:,.0f} ops/s"],
            ["achieved load", f"{result.throughput_ops:,.0f} ops/s"],
            ["avg latency", f"{result.mean_latency_us:,.1f} us"],
            ["p99 latency", f"{result.p99_latency_us():,.1f} us"],
            ["peak in-flight", result.inflight],
            ["simulated time", f"{result.sim_elapsed_us/1000:,.2f} ms"],
            ["wall time", f"{result.wall_seconds:,.2f} s"],
        ],
    )
    print_table(
        "populations",
        ["pop", "users", "load ops/s", "ops", "avg us", "p99 us",
         "active", "top share", "epoch catchups"],
        [
            [name, f"{p['users']:,}", f"{p['offered_load_ops']:,.0f}",
             p["ops_completed"], f"{p.get('mean_latency_us', 0.0):,.1f}",
             f"{p.get('p99_latency_us', 0.0):,.1f}", p["active_users"],
             f"{p['top_user_share']:.1%}", p["epoch_catchups"]]
            for name, p in result.populations.items()
        ],
    )
    return 0


def cmd_throughput(args) -> int:
    if args.users:
        if args.offered_load <= 0:
            print("error: --users needs --offered-load > 0 (total ops per "
                  "simulated second)", file=sys.stderr)
            return 2
        return _throughput_fanin(args)
    cluster, population = _build(args)
    stream = FixedOpStream(
        args.op, population, seed=args.seed,
        dir_choice="single" if args.dirs == 1 else "uniform",
    )
    result = run_stream(cluster, stream, total_ops=args.ops, inflight=args.inflight)
    rows = [
        ["throughput", f"{result.throughput_kops:,.1f} Kops/s"],
        ["avg latency", f"{result.mean_latency_us:,.1f} us"],
        ["p99 latency", f"{result.p99_latency_us():,.1f} us"],
        ["simulated time", f"{result.sim_elapsed_us/1000:,.2f} ms"],
        ["wall time", f"{result.wall_seconds:,.2f} s"],
    ]
    if result.switch_cache:
        rows.append([
            "switch cache",
            f"{result.switch_cache_hit_rate:.1%} hit "
            f"({result.switch_cache.get('hits', 0)} hit / "
            f"{result.switch_cache.get('misses', 0)} miss / "
            f"{result.switch_cache.get('evictions', 0)} evict)",
        ])
    print_table(
        f"{args.system}: {args.op} x {args.ops} over {args.dirs} dir(s)",
        ["metric", "value"],
        rows,
    )
    return 0


def _compare_point(point: dict) -> List:
    """Picklable sweep worker: one system's run for ``repro compare``."""
    args = argparse.Namespace(**point["args"])
    system = point["system"]
    cluster, population = _build(args, system=system)
    stream = FixedOpStream(
        args.op, population, seed=args.seed,
        dir_choice="single" if args.dirs == 1 else "uniform",
    )
    total = args.ops if system != "Ceph" else max(200, args.ops // 4)
    result = run_stream(cluster, stream, total_ops=total, inflight=args.inflight)
    hit_rate = (
        f"{result.switch_cache_hit_rate:.1%}" if result.switch_cache else "-"
    )
    return [system, round(result.throughput_kops, 1),
            round(result.mean_latency_us, 1), hit_rate]


def _compare_trajectories(labels: str, out_dir: Optional[str]) -> int:
    """Print per-workload speedups between two labels across every
    BENCH_*.json trajectory file present (one per perf suite)."""
    older, _, newer = labels.partition(",")
    older, newer = older.strip(), newer.strip()
    if not older or not newer:
        print("error: --perf-labels wants OLD,NEW", file=sys.stderr)
        return 2
    base = out_dir or os.getcwd()
    shown = 0
    for suite in SUITES.values():
        path = os.path.join(base, suite.filename)
        old = trajectory_entry(path, suite.name, older)
        new = trajectory_entry(path, suite.name, newer)
        if old is None or new is None:
            continue
        old_cpus, new_cpus = old.get("host_cpus"), new.get("host_cpus")
        if old_cpus != new_cpus:
            print(
                f"warning: {suite.name}: {older!r} ({old_cpus or '?'} cpus) and "
                f"{newer!r} ({new_cpus or '?'} cpus) were recorded on "
                f"different hardware — wall-rate speedups are not comparable",
                file=sys.stderr,
            )
        speedups = compare_rates(old, new, suite.rate_key)
        print_table(
            f"{suite.name}: {newer} / {older} ({suite.rate_key})",
            ["workload", "speedup"],
            [[name, f"{s:,.3f}x"] for name, s in speedups.items()],
        )
        shown += 1
    if not shown:
        print(
            f"error: no trajectory file under {base} has both labels "
            f"{older!r} and {newer!r}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_compare(args) -> int:
    if args.perf_labels:
        return _compare_trajectories(args.perf_labels, args.out_dir)
    systems = [s.strip() for s in args.systems.split(",")]
    arg_dict = {k: v for k, v in vars(args).items() if k != "fn"}
    points = [{"system": system, "args": arg_dict} for system in systems]
    pool = SweepPool(max_workers=args.jobs, serial=True if args.serial else None)
    rows = pool.map(_compare_point, points)
    print_table(
        f"compare: {args.op} over {args.dirs} dir(s), "
        f"{args.servers} servers x {args.cores} cores",
        ["system", "Kops/s", "avg us", "sw-cache hit"], rows,
    )
    return 0


def cmd_perf(args) -> int:
    """Wall-clock suites of the :data:`repro.bench.perf.SUITES` registry;
    see EXPERIMENTS.md "Wall-clock methodology"."""
    scale = "tiny" if args.tiny else "full"
    selected = list(SUITES) if args.suite == "all" else [args.suite]
    recorded = []
    out_dir = args.out_dir or os.getcwd()

    # --parallel N short-circuits the suites: it runs the partitioned
    # serial-vs-parallel comparison point (repro.bench.parallel) and
    # records it in its own trajectory file.
    if args.parallel:
        from .bench.parallel import bench_parallel

        results = bench_parallel(scale=scale, workers=args.parallel)
        entry = results["parallel_partition_create"]
        print_table(
            f"parallel-partition create ({scale}, {entry['workers']} workers, "
            f"{entry['host_cpus']} host cpu(s))",
            ["mode", "ops/s wall", "wall s"],
            [
                ["serial", f"{entry['serial_wall_ops_per_sec']:,.0f}",
                 entry["serial_wall_seconds"]],
                ["parallel", f"{entry['parallel_wall_ops_per_sec']:,.0f}",
                 entry["parallel_wall_seconds"]],
            ],
        )
        print(f"speedup {entry['speedup']}x, "
              f"state-equivalent: {entry['equivalent']}")
        if not entry["equivalent"]:
            print("error: partitioned run diverged from serial reference",
                  file=sys.stderr)
            return 1
        if not args.no_record:
            path = os.path.join(out_dir, "BENCH_parallel.json")
            record_entry(path, "parallel", results, label=args.label,
                         scale=scale)
            print(f"recorded {args.label!r} -> {path}")
        return 0

    # --profile interposes cProfile around each suite and writes
    # PROFILE_<suite>.json next to the BENCH files.  Profiled runs are
    # never recorded in the trajectory: the profiler overhead (~2x)
    # would poison the wall-rate history.
    profiling = getattr(args, "profile", False)
    if profiling:
        args.no_record = True

    for name in selected:
        suite = SUITES[name]
        if profiling:
            results, report = profile_suite(suite.run, scale, top=args.profile_top)
            for sort_key, title in (
                ("top_cumulative", "cumulative"),
                ("top_tottime", "self time"),
            ):
                print_table(
                    f"{name} profile: top {args.profile_top} by {title} "
                    f"({report['total_time_s']:.3f}s total)",
                    ["function", "ncalls", "tottime s", "cumtime s"],
                    [[r["function"], f"{r['ncalls']:,}",
                      f"{r['tottime_s']:.4f}", f"{r['cumtime_s']:.4f}"]
                     for r in report[sort_key]],
                )
            path = os.path.join(out_dir, f"PROFILE_{name}.json")
            write_profile(path, name, report, label=args.label, scale=scale)
            print(f"profile -> {path}")
        else:
            results = suite.run(scale)
        print_table(
            f"{suite.title} ({scale})",
            ["workload", suite.rate_key, "wall s", "sim Kops/s", "cache hit"],
            [[workload, f"{r[suite.rate_key]:,.0f}", r["wall_seconds"],
              f"{r['sim_throughput_kops']:,.1f}" if "sim_throughput_kops" in r else "-",
              f"{r['cache_hit_rate']:.1%}" if r.get("cache_hit_rate") else "-"]
             for workload, r in results.items()],
        )
        if not args.no_record:
            path = os.path.join(out_dir, suite.filename)
            record_entry(path, name, results, label=args.label, scale=scale)
            recorded.append(path)
    if recorded:
        print(f"recorded {args.label!r} -> {', '.join(recorded)}")
    return 0


def _changed_paths(base: str, scope: List[str]) -> Optional[List[str]]:
    """Python files changed vs *base* (``git diff --name-only``), kept to
    those under one of the *scope* paths and still present on disk.

    Returns None when git is unavailable (caller falls back to a full
    run) and [] when nothing relevant changed.
    """
    import subprocess
    from pathlib import Path

    try:
        out = subprocess.run(
            ["git", "diff", "--name-only", base, "--"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    prefixes = [Path(s).as_posix().rstrip("/") for s in scope]
    changed: List[str] = []
    for line in out.splitlines():
        name = line.strip()
        if not name.endswith(".py") or not Path(name).exists():
            continue
        posix = Path(name).as_posix()
        if any(posix == p or posix.startswith(p + "/") for p in prefixes):
            changed.append(name)
    return changed


def cmd_lint(args) -> int:
    """Run ``reprolint`` (the repo-specific AST lint) over paths."""
    from .analysis import format_finding, lint_paths

    paths = args.paths
    if args.changed is not None:
        changed = _changed_paths(args.changed, paths)
        if changed is not None:
            if not changed:
                print(f"reprolint: no python files changed vs {args.changed}")
                return 0
            paths = changed
    findings = lint_paths(paths)
    for f in findings:
        print(format_finding(f))
    count = len(findings)
    files = len({f.path for f in findings})
    if count:
        print(f"reprolint: {count} finding(s) in {files} file(s)")
        return 1
    print("reprolint: clean")
    return 0


def cmd_flow(args) -> int:
    """Run the flow-sensitive analyses (RL101-RL104) over paths."""
    import json as _json

    from .analysis import flow

    restrict = None
    if args.changed is not None:
        changed = _changed_paths(args.changed, args.paths)
        if changed is not None:
            if not changed:
                print(f"repro flow: no python files changed vs {args.changed}")
                return 0
            # Full-scope scan (interprocedural facts), changed-only report.
            restrict = changed
    report = flow.analyze_paths(args.paths, restrict_to=restrict)

    if args.write_baseline:
        flow.write_baseline(args.write_baseline, report)
        print(f"repro flow: wrote {len(report.findings)} fingerprint(s) "
              f"to {args.write_baseline}")
        return 0

    findings = report.findings
    if args.baseline:
        try:
            baseline = flow.load_baseline(args.baseline)
        except OSError as exc:
            print(f"repro flow: cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
        findings = flow.new_findings(report, baseline)

    if args.lock_graph:
        with open(args.lock_graph, "w", encoding="utf-8") as fh:
            _json.dump(flow.lock_graph_json(report), fh, indent=2)
            fh.write("\n")
    if args.sarif:
        doc = flow.to_sarif(report, findings)
        if args.sarif == "-":
            print(_json.dumps(doc, indent=2))
        else:
            with open(args.sarif, "w", encoding="utf-8") as fh:
                _json.dump(doc, fh, indent=2)
                fh.write("\n")

    if args.json:
        doc = {
            "findings": [
                {
                    "path": f.path, "line": f.line, "col": f.col,
                    "rule": f.rule, "name": f.name, "message": f.message,
                    "function": f.function, "fingerprint": f.fingerprint,
                }
                for f in findings
            ],
            "lock_graph": flow.lock_graph_json(report),
            "counts": report.counts(),
        }
        print(_json.dumps(doc, indent=2))
    else:
        for f in findings:
            print(flow.format_flow_finding(f))
        scope = f"{report.files_scanned} file(s)"
        if findings:
            label = "new finding(s)" if args.baseline else "finding(s)"
            print(f"repro flow: {len(findings)} {label} in {scope}")
        else:
            print(f"repro flow: clean ({scope}, "
                  f"{len(report.lock_graph)} lock-order edge(s))")
    return 1 if findings else 0


def cmd_analyze(args) -> int:
    """Run a traced workload and report lock-order cycles and races."""
    from .analysis import SimTracer, analyze_report, instrument_server
    from .analysis.detect import lock_order_cycles, race_findings

    config = scaled_config(num_servers=args.servers, cores_per_server=args.cores,
                           seed=args.seed)
    cluster = make_cluster(args.system, config)
    tracer = SimTracer(capture_stacks=not args.no_stacks)
    tracer.attach(cluster.sim)
    for server in cluster.servers:
        instrument_server(tracer, server)

    fs = cluster.client(0)
    rng = make_rng(args.seed, "cli-analyze")
    cluster.run_op(fs.mkdir("/a"))
    cluster.run_op(fs.mkdir("/b"))
    for i in range(args.ops):
        # A mixed metadata workload that exercises the double-inode and
        # rename participant paths the detector is aimed at.
        which = rng.randrange(6)
        if which == 0:
            cluster.run_op(fs.create(f"/a/f{i}"))
        elif which == 1:
            cluster.run_op(fs.create(f"/b/f{i}"))
        elif which == 2 and i > 0:
            try:
                cluster.run_op(fs.rename(f"/a/f{i-1}", f"/b/r{i}"))
            except Exception:
                pass
        elif which == 3:
            cluster.run_op(fs.statdir("/a"))
        elif which == 4:
            cluster.run_op(fs.mkdir(f"/a/d{i}"))
        else:
            try:
                cluster.run_op(fs.rmdir(f"/a/d{i-1}"))
            except Exception:
                pass
    tracer.detach()

    print(analyze_report(tracer, include_reads=args.include_reads))
    failed = args.strict and (
        lock_order_cycles(tracer)
        or race_findings(tracer, include_reads=args.include_reads)
    )
    if args.strict:
        # Fold in the static complement: new (unbaselined) flow findings
        # fail strict mode just like dynamic cycles/races do.
        from pathlib import Path

        from .analysis import flow

        src = Path("src/repro")
        if src.is_dir():
            report = flow.analyze_paths([src])
            baseline_path = Path("flow-baseline.json")
            baseline = (
                flow.load_baseline(baseline_path) if baseline_path.exists() else {}
            )
            fresh = flow.new_findings(report, baseline)
            for f in fresh:
                print(flow.format_flow_finding(f))
            print(f"static flow: {len(fresh)} new finding(s), "
                  f"{len(report.lock_graph)} lock-order edge(s)")
            failed = failed or bool(fresh)
    return 1 if failed else 0


def cmd_workload(args) -> int:
    cluster, population = _build(args)
    stream = MixStream(MIXES[args.mix], population, seed=args.seed,
                       data_enabled=not args.no_data)
    result = run_stream(cluster, stream, total_ops=args.ops, inflight=args.inflight)
    print_table(
        f"{args.system} on mix {args.mix!r}",
        ["metric", "value"],
        [
            ["end-to-end throughput", f"{result.throughput_kops:,.1f} Kops/s"],
            ["avg latency", f"{result.mean_latency_us:,.1f} us"],
            ["p99 latency", f"{result.p99_latency_us():,.1f} us"],
        ],
    )
    return 0


def cmd_faults(args) -> int:
    faults = FaultModel(
        make_rng(args.seed, "cli-faults"),
        loss_prob=args.loss, dup_prob=args.dup,
        reorder_prob=args.reorder, reorder_jitter_us=3.0,
    )
    config = scaled_config(num_servers=args.servers, cores_per_server=args.cores,
                           seed=args.seed)
    cluster = SwitchFSCluster(config, faults=faults)
    fs = cluster.client(0)
    cluster.run_op(fs.mkdir("/drill"))
    for i in range(args.ops):
        cluster.run_op(fs.create(f"/drill/f{i}"))
    listing = cluster.run_op(fs.readdir("/drill"))
    ok = len(listing["entries"]) == args.ops
    print_table(
        f"fault drill: {args.ops} creates under loss={args.loss} "
        f"dup={args.dup} reorder={args.reorder}",
        ["metric", "value"],
        [
            ["entries visible", f"{len(listing['entries'])} / {args.ops}"],
            ["correct", "yes" if ok else "NO"],
            ["client retransmits", fs.node.retransmits],
            ["packets dropped", cluster.net.packets_dropped],
            ["packets sent", cluster.net.packets_sent],
        ],
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SwitchFS/AsyncFS reproduction — simulated experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="list systems, mixes, and defaults")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("throughput", help="closed-loop throughput of one op")
    _add_cluster_args(p)
    _add_workload_args(p)
    p.add_argument("--op", default="create", choices=OPS)
    p.add_argument("--users", type=int, default=0,
                   help="logical users for an open-loop fan-in run "
                        "(0 = legacy closed-loop; DESIGN.md §16)")
    p.add_argument("--offered-load", type=float, default=0.0,
                   help="total offered load in ops per simulated second "
                        "(required with --users)")
    p.add_argument("--aggregates", type=int, default=2,
                   help="aggregate processes carrying the population "
                        "(default: 2)")
    p.set_defaults(fn=cmd_throughput)

    p = sub.add_parser("compare", help="run one op across several systems")
    _add_cluster_args(p)
    _add_workload_args(p)
    p.add_argument("--op", default="create", choices=OPS)
    p.add_argument("--systems", default="SwitchFS,InfiniFS,CFS-KV",
                   help="comma-separated system list")
    p.add_argument("--serial", action="store_true",
                   help="run systems in-process instead of across a process pool")
    p.add_argument("--jobs", type=int, default=None,
                   help="max sweep worker processes (default: all cores)")
    p.add_argument("--perf-labels", default=None, metavar="OLD,NEW",
                   help="instead of simulating, print wall-clock speedups "
                        "between two trajectory labels across BENCH_*.json "
                        "(kernel, rpc, store, e2e)")
    p.add_argument("--out-dir", default=None,
                   help="directory holding BENCH_*.json (with --perf-labels; "
                        "default: cwd)")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("perf", help="wall-clock kernel + rpc + store + e2e suites")
    p.add_argument("--suite", default="all",
                   choices=("all", *SUITES),
                   help="run one suite only (default: all)")
    p.add_argument("--tiny", action="store_true",
                   help="CI-smoke scale (seconds, not minutes)")
    p.add_argument("--label", default="dev", help="trajectory entry label")
    p.add_argument("--out-dir", default=None,
                   help="where to write BENCH_*.json (default: cwd)")
    p.add_argument("--no-record", action="store_true",
                   help="print without touching the trajectory files")
    p.add_argument("--profile", action="store_true",
                   help="run each suite under cProfile; print the hottest "
                        "functions and write PROFILE_<suite>.json next to "
                        "the BENCH files (implies --no-record)")
    p.add_argument("--profile-top", type=int, default=15, metavar="N",
                   help="rows per profile table (default: 15)")
    p.add_argument("--parallel", type=int, default=0, metavar="N",
                   help="instead of the suites, run the partitioned "
                        "parallel-DES comparison point across N worker "
                        "processes (records BENCH_parallel.json)")
    p.set_defaults(fn=cmd_perf)

    p = sub.add_parser("workload", help="run a Table-5 workload mix")
    _add_cluster_args(p)
    _add_workload_args(p)
    p.add_argument("--mix", default="dcs", choices=sorted(MIXES))
    p.add_argument("--no-data", action="store_true",
                   help="skip modelled datanode reads/writes")
    p.set_defaults(fn=cmd_workload)

    p = sub.add_parser("lint", help="repo-specific AST lint (reprolint)")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files/directories to lint (default: src)")
    p.add_argument("--changed", nargs="?", const="HEAD", default=None,
                   metavar="BASE",
                   help="lint only files changed vs BASE "
                        "(git diff --name-only; default base: HEAD)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("flow",
                       help="flow-sensitive static analyses (RL101-RL104)")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files/directories to analyze (default: src)")
    p.add_argument("--json", action="store_true",
                   help="emit findings + lock-order graph as JSON")
    p.add_argument("--sarif", metavar="FILE",
                   help="write SARIF 2.1.0 to FILE ('-' for stdout)")
    p.add_argument("--baseline", metavar="FILE",
                   help="fail only on findings not fingerprinted in FILE")
    p.add_argument("--write-baseline", metavar="FILE",
                   help="write the current findings as a baseline and exit")
    p.add_argument("--lock-graph", metavar="FILE",
                   help="write the static lock-order graph JSON to FILE")
    p.add_argument("--changed", nargs="?", const="HEAD", default=None,
                   metavar="BASE",
                   help="analyze only files changed vs BASE "
                        "(git diff --name-only; default base: HEAD)")
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("analyze",
                       help="traced run: lock-order cycle + race detection")
    _add_cluster_args(p)
    p.add_argument("--ops", type=int, default=200,
                   help="mixed metadata ops to trace (default: 200)")
    p.add_argument("--no-stacks", action="store_true",
                   help="skip acquisition-stack capture (faster)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any cycle or race is reported")
    p.add_argument("--include-reads", action="store_true",
                   help="also report read/write conflicts (lock-free reads)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("faults", help="correctness drill on a lossy network")
    _add_cluster_args(p)
    p.add_argument("--ops", type=int, default=100)
    p.add_argument("--loss", type=float, default=0.1)
    p.add_argument("--dup", type=float, default=0.05)
    p.add_argument("--reorder", type=float, default=0.1)
    p.set_defaults(fn=cmd_faults)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
