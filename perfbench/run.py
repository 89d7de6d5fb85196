"""Dionea's benchmark: one workload per run, every output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

Workloads: wordcount-quiet, wordcount-armed and fork-follow (see
``spec.py`` and ``README.md``).  ``--trace 0`` measures the
end-to-end metrics with no instrumentation.  ``--trace 1`` spends half
the time untraced and half with span wrappers installed in every
process, and reports the per-layer metrics plus the difference between
the halves as ``bench.trace_overhead_pct``.  Human-readable lines go
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import benchstats  # noqa: E402
import spec  # noqa: E402

PR_SET_CHILD_SUBREAPER = 36
#: a run that has not finished by then is abandoned: its teardown still
#: kills and reaps the debuggee tree, and it exits without a result
RUN_DEADLINE_S = 150


def _import_program() -> None:
    """Put the repository's ``src`` on the path, or fail the run."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no program to measure ({src}/repro missing)")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)


def environment() -> dict:
    from benchmarks.envinfo import local_table1
    env = dict(local_table1())
    env["nproc"] = os.cpu_count()
    env["traffic"] = "loopback TCP between processes on one host"
    return env


def write_spec() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w",
              encoding="utf-8") as fh:
        json.dump(spec.benchmark_json(), fh, indent=2)
        fh.write("\n")
    with open(os.path.join(HERE, "SPEC.json"), "w", encoding="utf-8") as fh:
        json.dump(spec.spec_json(environment()), fh, indent=2)
        fh.write("\n")


def _become_subreaper() -> None:
    """Orphaned debuggee grandchildren re-parent to this process, so the
    run can reap its whole tree."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def end_to_end(workload: str, phase) -> tuple:
    """``(bounded metrics, the workload's own named values, op p50 ms)``
    for one phase.  The named values carry their units."""
    s = phase.samples
    if workload.startswith("wordcount"):
        op = s["dbg_job_s"]
        overhead = benchstats.paired_ratio(op, s["bare_job_s"])
        named = {"job_mb_s": (phase.values["corpus_mb"]
                              / benchstats.median(op), "MB/s"),
                 "slowdown_x": (overhead, "ratio")}
        prefix = "job"
    else:
        op = s["follow_s"]
        task_p50 = benchstats.median(s["dbg_task_s"])
        bare_task_p50 = benchstats.median(s["bare_task_s"])
        overhead = benchstats.paired_ratio(s["dbg_task_s"],
                                           s["bare_task_s"])
        fork_p50 = benchstats.median(s["dbg_fork_us"])
        bare_fork_p50 = benchstats.median(s["bare_fork_us"])
        named = {"task_p50_ms": (task_p50 * 1e3, "ms"),
                 "bare_task_p50_ms": (bare_task_p50 * 1e3, "ms"),
                 "fork_p50_us": (fork_p50, "us"),
                 "bare_fork_p50_us": (bare_fork_p50, "us"),
                 "fork_x": (fork_p50 / bare_fork_p50, "ratio")}
        prefix = "follow"
    p50_ms = benchstats.median(op) * 1e3
    tail, pct, n = benchstats.tail(op)
    named[f"{prefix}_p50_ms"] = (p50_ms, "ms")
    named[f"{prefix}_tail_ms"] = (tail * 1e3, f"ms (p{pct:g} of {n})")
    metrics = {
        "setup_s": benchstats.median(phase.setup_s),
        "overhead_x": overhead,
        "debuggee_rss_mb": phase.values["peak_rss_mb"],
    }
    return metrics, named, p50_ms


def run(args) -> dict:
    import layers
    import layertrace
    import workloads

    _become_subreaper()
    rundir = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    os.makedirs(rundir)
    nproc = os.cpu_count() or 2
    ctx = workloads.Context(ROOT, rundir, args.seed, nproc)
    phases = []
    client_tracer = None
    try:
        if not args.trace:
            phases.append(workloads.run_phase(
                ctx, args.workload, args.seconds, traced=False,
                probes=spec.SETUPS_PER_RUN - 1))
        else:
            half = args.seconds / 2.0
            phases.append(workloads.run_phase(ctx, args.workload, half,
                                              traced=False, probes=0))
            client_tracer = layertrace.Tracer(layers.CLIENT, ctx.trace_dir)
            layertrace.install_client(client_tracer)
            phases.append(workloads.run_phase(ctx, args.workload, half,
                                              traced=True, probes=0))
    finally:
        survivors = ctx.reap_tree()
        if survivors and phases:
            phases[-1].fail(f"{survivors} debuggee processes survived")
        if client_tracer is not None:
            client_tracer.dump()
        docs = layertrace.load_dumps(ctx.trace_dir)
        failed_logs = [d.log_path for d in ctx.drivers
                       if d.proc.returncode not in (0, None)]
        for path in failed_logs[:3]:
            with open(path, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(f"--- {os.path.basename(path)}\n"
                                 + fh.read()[-2000:])
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(rundir))
        except OSError:
            pass

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = sum(p.wrong for p in phases)
    metrics, named, p50_ms = end_to_end(args.workload, phases[0])
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}  nproc {nproc}")
    print("environment " + json.dumps(environment()))
    units = {m["name"]: m["unit"] for m in spec.END_TO_END}
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.4f} {units[name]}")
    for name, (value, unit) in named.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    print(f"  {'error_rate':28s} {failed / max(1, attempted):14.6f} ratio "
          f"({failed} failed of {attempted} attempted)")
    for phase in phases:
        for reason in phase.reasons:
            print(f"  failure: {reason}")

    if args.trace:
        traced = phases[1]
        debugged_ops = len(traced.samples.get("dbg_worker_pids", ())) \
            or traced.ops
        layer = layers.per_layer(layers.SpanIndex(docs), traced,
                                 debugged_ops)
        traced_p50_ms = end_to_end(args.workload, traced)[2]
        layer["bench.trace_overhead_pct"] = \
            100.0 * (traced_p50_ms / p50_ms - 1.0)
        layer_units = {name: unit for name, unit, *_ in spec.PER_LAYER}
        for name, value in layer.items():
            print(f"  {name:32s} {value:14.4f} {layer_units[name]}")
        out_metrics = {k: {"value": v, "unit": layer_units[k]}
                       for k, v in layer.items()}
    else:
        out_metrics = {k: {"value": v, "unit": units[k]}
                       for k, v in metrics.items()}
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": out_metrics}


def _abandon(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_S}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json and perfbench/SPEC.json")
    args = parser.parse_args(argv)
    _import_program()
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    signal.signal(signal.SIGALRM, _abandon)
    signal.alarm(RUN_DEADLINE_S)
    result = run(args)
    signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
