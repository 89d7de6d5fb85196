"""What the benchmark measures: workloads, metrics, bounds and the
per-layer predictions.  ``run.py --write-spec`` renders this module into
``BENCHMARK.json`` (the fixed contract keys) and ``perfbench/SPEC.json``
(everything else: which end-to-end metric each layer metric should move
and where, how the layers interact, the environment and notes).
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 35
#: untraced runs repeat set-up this many times and report the median
SETUPS_PER_RUN = 9

QUIET = "wordcount-quiet"
ARMED = "wordcount-armed"
FORK = "fork-follow"
WORDCOUNT = (QUIET, ARMED)
ALL = (QUIET, ARMED, FORK)

WORKLOADS = [
    {"name": QUIET,
     "why": "Paper s7: 12 MB word-count, nproc pool workers, Dionea "
            "attached, no breakpoint; trace quiet dispatch and mp queues "
            "dominate. ABBA vs bare, closed loop, 1 client",
     "loop": "closed", "clients": 1},
    {"name": ARMED,
     "why": "Same job with one never-hit breakpoint set by "
            "cluster_set_break and inherited by workers: every call takes "
            "the LineTable probe. ABBA vs bare, closed loop, 1 client",
     "loop": "closed", "clients": 1},
    {"name": FORK,
     "why": "Driver forks one child per task; fork bracket, child re-init, "
            "announce, discovery, attach and first info do the work, "
            "tracing idle. ABBA vs bare, closed loop, 1 client",
     "loop": "closed", "clients": 1},
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "definition": "Median over the run's launches (half before, half "
                   "after the workload) of debuggee launch until the "
                   "client's first session answers info; corpus "
                   "generation excluded."},
    {"name": "overhead_x", "unit": "ratio", "better": "lower", "bound": 0.24,
     "definition": "Debugged operation time over the same operation on "
                   "the bare driver: the median, over the run's ABBA "
                   "order, of each debugged op's time over the bare op "
                   "that ran next to it, so a change in host load "
                   "between pairs cancels. wordcount-*: one job (the s7 "
                   "slowdown_x). fork-follow: one task, from the fork "
                   "command until the child's count is back and it is "
                   "reaped; on the debugged arm the task includes the "
                   "follow (fork bracket, child re-init, announce, "
                   "discovery, attach, first info)."},
    {"name": "debuggee_rss_mb", "unit": "MB", "better": "lower",
     "bound": 0.1,
     "definition": "Peak RSS (VmHWM) of the debugged driver's main "
                   "process."},
]

#: Printed by every run of the workload, by name with unit, but not
#: bounded: see the NOTES entry on absolute latencies.
NAMED = {
    QUIET: ["job_p50_ms", "job_tail_ms", "job_mb_s", "slowdown_x"],
    ARMED: ["job_p50_ms", "job_tail_ms", "job_mb_s", "slowdown_x"],
    FORK: ["follow_p50_ms", "follow_tail_ms", "task_p50_ms",
           "bare_task_p50_ms", "fork_p50_us", "bare_fork_p50_us",
           "fork_x"],
}

#: Per-layer metrics that are a difference, so may be negative; the
#: others are never below 0.
SIGNED = {"tracing.cost_us_per_doc", "bench.trace_overhead_pct"}

TASK = "overhead_x (fork-follow task)"

# name, unit, definition (timed call / source), moves, shows on (the
# workloads where it must be nonzero), idle on
PER_LAYER = [
    ("mapreduce.map_us_per_doc", "us",
     "wordcount.map_wordcount self time per call in pool workers, "
     "debugged arm",
     "job_mb_s", WORDCOUNT, "fork-follow (no pool)"),
    ("mapreduce.map_us_per_doc_bare", "us",
     "wordcount.map_wordcount self time per call in pool workers, "
     "bare arm",
     "job_mb_s", WORDCOUNT, "fork-follow (no pool)"),
    ("tracing.cost_us_per_doc", "us",
     "map_us_per_doc - map_us_per_doc_bare",
     "overhead_x (slowdown_x)", (ARMED,), "wordcount-quiet ~0"),
    ("tracing.fastpath_hits", "count",
     "trace.fastpath_hits per debugged job, every debugged process",
     "overhead_x (slowdown_x)", (ARMED,), "wordcount-quiet, fork-follow"),
    ("tracing.local_installs", "count",
     "trace.local_installs per debugged job, every debugged process",
     "overhead_x (slowdown_x)", (),
     "all: the armed breakpoint's file never runs, so no frame needs a "
     "local trace; nonzero means the armed path installs traces it does "
     "not need"),
    ("mp.queue_put_us", "us", "mp.queues.Queue.put, debugged processes",
     "job_mb_s", WORDCOUNT, "fork-follow"),
    ("mp.queue_get_us", "us",
     "mp.queues.Queue.get incl. its wait, debugged processes",
     "job_mb_s", WORDCOUNT, "fork-follow"),
    ("mp.queue_ops", "count", "Queue.put + Queue.get calls per operation",
     "job_mb_s", WORDCOUNT, "fork-follow"),
    ("mp.pool_start_ms", "ms", "mp.pool.Pool(...) until workers ready",
     "job_mb_s", WORDCOUNT, "fork-follow"),
    ("forkhooks.prepare_us", "us", "ForkHandlerRegistry.run_prepare",
     f"{TASK}, fork_p50_us", ALL,
     "none: wordcount forks nproc pool workers per job"),
    ("forkhooks.parent_us", "us", "ForkHandlerRegistry.run_parent",
     f"{TASK}, fork_p50_us", ALL,
     "none: wordcount forks nproc pool workers per job"),
    ("forkhooks.child_us", "us", "ForkHandlerRegistry.run_child",
     f"{TASK}, follow_p50_ms", ALL,
     "none: wordcount forks nproc pool workers per job"),
    ("forkhooks.bare_fork_us", "us",
     "os.fork() return in the undebugged driver, floor of fork_p50_us",
     "-", (FORK,), "wordcount-* (no bare fork task)"),
    ("forkhooks.handler_failures", "count",
     "registry failures + fork.quarantined + fork.reentrant, all "
     "debugged processes", "error rate", (), "all when healthy"),
    ("server.reinit_ms", "ms", "DebugServer.reinit_after_fork in the child",
     f"{TASK}, follow_p50_ms", ALL, "-"),
    ("server.announce_us", "us", "DebugServer.announce in the child",
     f"{TASK}, follow_p50_ms", ALL, "-"),
    ("server.start_ms", "ms", "Dionea.start", "setup_s", ALL, "-"),
    ("server.command_us", "us",
     "server.commands.dispatch self time per command",
     f"{TASK}, follow_p50_ms", ALL, "-"),
    ("obs.child_reset_us", "us", "repro.obs.reset_after_fork in the child",
     f"{TASK}, follow_p50_ms", ALL, "-"),
    ("client.discover_ms", "ms",
     "child's announce return until DebugClient.attach is entered "
     "(the port-file watcher's wait)", f"{TASK}, follow_p50_ms",
     ALL, "-"),
    ("util.portfile_poll_us", "us", "PortFileWatcher.poll_once self time",
     f"{TASK}, follow_p50_ms", ALL, "-"),
    ("util.portfile_polls", "count", "PortFileWatcher.poll_once calls per "
     "operation", f"{TASK}, follow_p50_ms", ALL, "-"),
    ("client.attach_ms", "ms", "DebugClient.attach",
     f"{TASK}, follow_p50_ms, setup_s", ALL, "-"),
    ("client.first_request_ms", "ms",
     "first DebugSession.request per session (info)",
     f"{TASK}, follow_p50_ms, setup_s", ALL, "-"),
    ("util.encode_us", "us", "framing.encode_frame self time, all processes",
     f"{TASK}, follow_p50_ms", ALL, "-"),
    ("util.decode_us", "us",
     "FrameDecoder.messages self time per call, all processes",
     f"{TASK}, follow_p50_ms", ALL, "-"),
    ("util.bytes_per_cycle", "count",
     "encoded frame bytes, all processes, per operation",
     f"{TASK}, follow_p50_ms", ALL, "-"),
    ("client.request_failures", "count",
     "exceptions, timeouts, cluster holes, lost sessions and failed "
     "checks seen by the benchmark in the traced phase", "error rate",
     (), "all when healthy"),
    ("bench.trace_overhead_pct", "%",
     "traced-phase operation p50 over the untraced phase's, minus 100 "
     "(the cost of these wrappers)", "-", ALL, "-"),
]

#: a fast-path hit is an event dismissed without the full probe
HIGHER_IS_BETTER = {"tracing.fastpath_hits"}

INTERACTIONS = [
    "A wordcount job is pool start, then the parallel map, then queue "
    "traffic, then reduce. On nproc workers the slowest worker sets the "
    "map time, so a per-doc saving shows in job_p50_ms only as far as it "
    "shortens the slowest worker.",
    "A follow is the fork bracket, then the child obs reset and server "
    "re-init, announce, discovery, attach and the first request. "
    "Discovery probably dominates, given the watcher's 20 ms poll.",
    "A fork-follow task is the follow plus what the bare task also does: "
    "release, the child's count of one document, and the reap. So "
    "overhead_x moves by a layer's saving over the whole bare task time.",
]

NOTES = [
    "error_rate is failed / attempted in each run's result line (it is 0 "
    "when healthy, so it cannot be a bounded end-to-end metric, whose "
    "medians must be nonzero). Nonzero values are printed and never "
    "filtered.",
    "Absolute latencies (job_p50_ms, job_mb_s, follow_p50_ms, "
    "task_p50_ms, fork_p50_us and the tails) are printed by name with "
    "their units in every run but are not bounded. On a shared 2-vCPU "
    "host they moved by up to 2x within minutes: over ten runs, "
    "wordcount-quiet's job p50 spread (IQR/median) was 0.14 in a calm "
    "period and 0.36 in a busy one. No bound of at most 0.25 holds "
    "that. The debugged/bare ratios, measured interleaved in the same "
    "run, stayed at or under 0.12 in both periods, so they are the "
    "bounded metrics.",
    "fork-follow's overhead_x compares whole tasks, so a change in any "
    "part of the follow (fork bracket, child re-init, announce, "
    "discovery, attach, first info) moves it. fork_x, the debugged "
    "driver's os.fork() return p50 over the bare driver's, is printed "
    "but not bounded, because a bounded metric must have a value on "
    "every workload and the wordcount workloads have no bare fork to "
    "time.",
    "stop-resume (continue all, wait for every loop process to stop "
    "again, inspect each) is not a workload yet. Its best floor ratio, "
    "stop cycle p50 over one scatter-gather info round trip p50, had a "
    "spread (IQR/median) of 0.02 over ten runs on a calm host, but 0.15 "
    "and 0.30 over two sets of ten on a busy one, past the largest "
    "bound allowed (0.25). The server command path, framing and client "
    "attach/request stay measured on fork-follow; the resume, "
    "run-to-stop and inspect spans are left to a later change.",
    "The tail is the highest percentile up to p90 with at least 10 "
    "samples beyond it (the maximum below 20 samples). A varying 1-5% "
    "share of follows hits 5-20 ms scheduler stalls, so p95 moved by up "
    "to 1.7x and p99 by 2.5x between runs.",
    "BENCH_fork.json's 1.13x gate times the prepare/parent bracket with "
    "no fork(2) in it. The debuggee-visible ratio is fork-follow's "
    "fork_x: fork_p50_us over bare_fork_p50_us (forkhooks.bare_fork_us "
    "in a traced run).",
    "fork-follow releases each child through the driver (a pipe) rather "
    "than through s6.4 disturb mode: the disturb protocol command also "
    "parks new threads, including a forked child's own listener thread, "
    "so the child never announces. In a trial 3 of 3 children never got "
    "a session; the in-process integration test avoids this with "
    "stop_new_threads=False. That defect is left for a later change.",
    "tracing.fastpath_hits and local_installs are read from each debugged "
    "process's trace engine when it exits, minus what a forked child "
    "inherited, rather than through cluster_telemetry(): pool workers exit "
    "before a telemetry poll can reach them.",
    "Every per-layer metric is emitted on every workload. A metric with "
    "no samples in a run reads 0; the benchmark's smoke test requires a "
    "nonzero value on each workload in its shows_on list, so a wrapper "
    "that stops firing fails the test.",
]


def benchmark_json() -> dict:
    """The contract file, exactly its keys."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]}
                      for w in WORKLOADS],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better",
                                          "bound")}
                       for m in END_TO_END],
        "per_layer": [{"name": name, "unit": unit,
                       "better": "higher" if name in HIGHER_IS_BETTER
                       else "lower"}
                      for name, unit, *_ in PER_LAYER],
    }


def spec_json(environment: dict) -> dict:
    """Everything beyond the contract keys."""
    return {
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [{"name": name, "unit": unit, "source": source,
                       "moves": moves, "shows_on": list(shows),
                       "idle_on": idle}
                      for name, unit, source, moves, shows, idle
                      in PER_LAYER],
        "interactions": INTERACTIONS,
        "notes": NOTES,
        "environment": environment,
    }
