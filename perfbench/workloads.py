"""The workloads, run from the benchmark process.

Topology: this process hosts one ``DebugClient`` (its reactor adds two
threads).  Each workload spawns driver processes (``driver.py``) that
start ``Dionea`` on a port file the client watches, so client and
debugger never share an interpreter lock.  Every loop is closed: the
next operation starts only after the previous one completed.  Each
phase returns raw samples; :mod:`layers` and ``run.py`` turn them into
metrics.
"""

from __future__ import annotations

import collections
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import benchstats

HERE = os.path.dirname(os.path.abspath(__file__))
DRIVER = os.path.join(HERE, "driver.py")
#: a file no debuggee ever executes; the armed workload's breakpoint
NEVER_RUN = os.path.join(HERE, "benchstats.py")

SETUP_TIMEOUT = 30.0
OP_TIMEOUT = 10.0
JOB_TIMEOUT = 60.0
#: The client's port-file watcher polls every 20 ms.  An operation that
#: starts at a fixed offset from the poll phase-locks with it, so its
#: time moves in 20 ms steps between runs.  A seeded random pause of up
#: to one poll period before each launch and each debugged fork samples
#: every phase.
POLL_PERIOD_S = 0.02


class OpError(Exception):
    """An operation failed; counted against ``attempted``."""


def source_line(path: str, marker: str) -> int:
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if marker in line:
                return lineno
    raise RuntimeError(f"{marker!r} not found in {path}")


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reference_digest(text: str) -> dict:
    """Word counts by a separate implementation from the program's."""
    from repro.corpus.reserved import RESERVED_WORDS
    counts = collections.Counter(
        w for w in re.findall(r"[A-Za-z]+", text)
        if w not in RESERVED_WORDS)
    return {"words": sum(counts.values()), "distinct": len(counts)}


def seeded_corpus(seed: int, n_files: Optional[int] = None) -> list:
    """Documents with the ``rust`` profile's sizes and the given seed."""
    from repro.corpus import generate_corpus, get_profile
    profile = replace(get_profile("rust"), name=f"rust-seed{seed}",
                      seed=seed)
    if n_files is not None:
        profile = replace(profile, n_files=n_files)
    return generate_corpus(profile)


@dataclass
class Phase:
    """Samples and bookkeeping of one untraced or traced phase."""

    traced: bool
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: List[str] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(
        default_factory=lambda: collections.defaultdict(list))
    values: Dict[str, float] = field(default_factory=dict)
    ops: int = 0
    window: tuple = (0.0, 0.0)

    def fail(self, reason: str, wrong_output: bool = False) -> None:
        self.failed += 1
        if wrong_output:
            self.wrong += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, ok: bool, reason: str) -> None:
        """An output check: a mismatch fails the operation."""
        if not ok:
            self.fail(reason, wrong_output=True)


class DriverProc:
    """One driver process and its line-per-message control pipe."""

    def __init__(self, ctx: "Context", bare: bool, portfile: str,
                 traced: bool):
        cmd = [sys.executable, DRIVER, "--portfile", portfile]
        if bare:
            cmd.append("--bare")
        if traced:
            cmd += ["--trace-dir", ctx.trace_dir]
        self.log_path = os.path.join(ctx.rundir,
                                     f"driver-{len(ctx.drivers)}.log")
        self._log = open(self.log_path, "wb")
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log, cwd=ctx.root)
        self.pid = self.proc.pid
        self._buf = b""
        ctx.drivers.append(self)
        ctx.known_pids.add(self.pid)

    def read(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise OpError(f"driver {self.pid}: no reply in {timeout}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise OpError(f"driver {self.pid} closed its pipe")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        msg = json.loads(line)
        if "error" in msg:
            raise OpError(f"driver {self.pid}: {msg['error']}")
        return msg

    def send(self, op: str, **args) -> None:
        args["op"] = op
        try:
            self.proc.stdin.write((json.dumps(args) + "\n").encode())
            self.proc.stdin.flush()
        except OSError as exc:
            raise OpError(f"driver {self.pid}: send failed: {exc}") from exc

    def call(self, op: str, timeout: float = OP_TIMEOUT, **args) -> dict:
        self.send(op, **args)
        return self.read(timeout)

    def close(self, timeout: float = 10.0) -> bool:
        """Ask the driver to quit; kill it if it does not.  True when it
        exited cleanly with status 0."""
        clean = False
        if self.proc.poll() is None:
            try:
                self.call("quit", timeout=timeout)
                self.proc.wait(timeout)
                clean = self.proc.returncode == 0
            except (OpError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait(timeout)
        self._log.close()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        return clean


class Context:
    """Per-run state shared by the phases: paths, seed, client hooks."""

    def __init__(self, root: str, rundir: str, seed: int, nproc: int):
        self.root = root
        self.rundir = rundir
        self.trace_dir = os.path.join(rundir, "spans")
        os.makedirs(self.trace_dir, exist_ok=True)
        self.seed = seed
        self.nproc = nproc
        self.launch_rng = random.Random(seed)
        self.drivers: List[DriverProc] = []
        self.known_pids = set()
        self.portfiles: List[str] = []
        # client-side event stamps (monotonic)
        self.attached: Dict[int, float] = {}
        self.lost: Dict[int, str] = {}

    def new_portfile(self) -> str:
        path = os.path.join(self.rundir, f"port-{len(self.portfiles)}")
        self.portfiles.append(path)
        return path

    # -- client hooks (dispatcher thread) -----------------------------------

    def _on_new_session(self, session) -> None:
        self.attached[session.pid] = time.monotonic()
        self.known_pids.add(session.pid)

    def _on_lost(self, session, reason: str) -> None:
        self.lost[session.pid] = reason

    def new_client(self):
        from repro.client import DebugClient
        return DebugClient(on_new_session=self._on_new_session,
                           on_session_lost=self._on_lost)

    def launch_debugged(self, phase: Phase, traced: bool):
        """Launch a debugged driver; returns ``(client, driver)``.

        Set-up time runs from the launch until the client's first
        session to the driver answers ``info``.
        """
        from repro.util.portfile import PortFile
        portfile = self.new_portfile()
        client = self.new_client()
        client.watch_portfile(PortFile(portfile))
        time.sleep(self.launch_rng.uniform(0.0, POLL_PERIOD_S))
        phase.attempted += 1
        driver = DriverProc(self, bare=False, portfile=portfile,
                            traced=traced)
        try:
            session = client.session_for_pid(driver.pid,
                                             timeout=SETUP_TIMEOUT)
            info = session.request("info", timeout=OP_TIMEOUT)
            answered = time.monotonic()
            driver.read(SETUP_TIMEOUT)
        except Exception:
            client.close()
            driver.close()
            raise
        phase.setup_s.append(answered - driver.launched)
        phase.check(info.get("pid") == driver.pid,
                    f"info pid {info.get('pid')} != driver {driver.pid}")
        return client, driver

    def launch_bare(self, traced: bool) -> DriverProc:
        driver = DriverProc(self, bare=True, portfile=self.new_portfile(),
                            traced=traced)
        driver.read(SETUP_TIMEOUT)
        return driver

    def probe_setups(self, phase: Phase, count: int) -> None:
        """Extra launch-attach-info-quit cycles, for a set-up median."""
        for _ in range(count):
            client, driver = self.launch_debugged(phase, phase.traced)
            self.finish(phase, client, [driver])

    def finish(self, phase: Phase, client, drivers: List[DriverProc],
               rss_of: Optional[DriverProc] = None) -> None:
        """Tear down one client and its drivers, then check hygiene:
        every driver quits cleanly and leaves no port file behind."""
        phase.attempted += 1
        if rss_of is not None and rss_of.proc.poll() is None:
            phase.values["peak_rss_mb"] = peak_rss_mb(rss_of.pid)
            if rss_of.pid in self.lost:
                phase.fail(f"session to driver {rss_of.pid} lost: "
                           f"{self.lost[rss_of.pid]}")
        for driver in drivers:
            if not driver.close():
                phase.fail(f"driver {driver.pid} did not quit cleanly; "
                           f"see {os.path.basename(driver.log_path)}")
        if client is not None:
            client.close()
        for path in self.portfiles:
            if os.path.exists(path):
                phase.fail(f"port file {os.path.basename(path)} left behind")
                os.unlink(path)
            if os.path.exists(f"{path}.lock"):
                os.unlink(f"{path}.lock")

    def reap_tree(self) -> int:
        """Reap orphans re-parented to this process and kill survivors;
        returns the number of survivors found.

        A known pid counts only while it still descends from this
        process: most of them exited long ago, and the kernel may have
        given the number to an unrelated process since.
        """
        survivors = 0
        for pid in sorted(self.known_pids):
            _reap_zombies()
            if not _descends_from(pid, os.getpid()):
                continue
            survivors += 1
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and _reap_zombies():
            time.sleep(0.01)
        return survivors


def _parent_pid(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("PPid:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _descends_from(pid: int, ancestor: int) -> bool:
    """True while ``pid`` is alive and ``ancestor`` is on its parent chain."""
    while pid > 1:
        pid = _parent_pid(pid)
        if pid == ancestor:
            return True
        if pid is None:
            return False
    return False


def _reap_zombies() -> bool:
    """Reap exited children; True while live children remain."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == 0:
            return True


def _wait_followed(ctx: Context, pids, timeout: float) -> List[int]:
    deadline = time.monotonic() + timeout
    missing = [p for p in pids if p not in ctx.attached]
    while missing and time.monotonic() < deadline:
        time.sleep(0.005)
        missing = [p for p in missing if p not in ctx.attached]
    return missing


# -- wordcount-quiet / wordcount-armed ------------------------------------------


def wordcount(ctx: Context, phase: Phase, seconds: float,
              armed: bool) -> None:
    traced = phase.traced
    docs = seeded_corpus(ctx.seed)
    corpus_path = os.path.join(ctx.rundir, "corpus.json")
    if not os.path.exists(corpus_path):
        with open(corpus_path, "w", encoding="utf-8") as fh:
            json.dump(docs, fh)
    phase.values["corpus_mb"] = sum(len(t) for _, t in docs) / 1e6
    client, dbg = ctx.launch_debugged(phase, traced)
    bare = ctx.launch_bare(traced)
    try:
        for driver in (dbg, bare):
            driver.call("load", timeout=SETUP_TIMEOUT, path=corpus_path)
        if armed:
            res = client.cluster_set_break(
                file=NEVER_RUN,
                line=source_line(NEVER_RUN, "median of no samples"),
                timeout=OP_TIMEOUT)
            phase.check(not res["errors"] and len(res["breakpoints"]) == 1,
                        f"cluster_set_break: {res}")
        _wordcount_loop(ctx, phase, seconds, dbg, bare)
    finally:
        ctx.finish(phase, client, [dbg, bare], rss_of=dbg)


def _wordcount_loop(ctx, phase, seconds, dbg, bare) -> None:
    reference = None
    unchecked = []
    timed = 0
    start = time.monotonic()
    deadline = start + seconds
    for arm, warmup in benchstats.abba_arms():
        if not warmup and timed and benchstats.balanced(timed) \
                and time.monotonic() >= deadline:
            break
        driver = dbg if arm == benchstats.ARM_A else bare
        phase.attempted += 1
        try:
            out = driver.call("job", timeout=JOB_TIMEOUT,
                              workers=ctx.nproc)
        except OpError as exc:
            phase.fail(str(exc))
            break
        digest = (out["sha"], out["words"], out["distinct"])
        if arm == benchstats.ARM_B and reference is None:
            reference = digest
        unchecked.append((arm, digest))
        if reference is not None:
            for job_arm, got in unchecked:
                phase.check(got == reference and got[1] > 0,
                            f"{job_arm}-arm job counts differ from the "
                            f"bare driver's")
            unchecked = []
        if arm == benchstats.ARM_A:
            phase.samples["dbg_worker_pids"].append(len(out["workers"]))
            phase.attempted += len(out["workers"])
            for pid in _wait_followed(ctx, out["workers"], OP_TIMEOUT):
                phase.fail(f"pool worker {pid} was never followed")
            ctx.known_pids.update(out["workers"])
        if warmup:
            continue
        timed += 1
        key = "dbg_job_s" if arm == benchstats.ARM_A else "bare_job_s"
        phase.samples[key].append(out["end"] - out["start"])
    phase.ops = timed
    phase.window = (start, time.monotonic())


# -- fork-follow ------------------------------------------------------------------


FORK_DOCS = 64


def fork_follow(ctx: Context, phase: Phase, seconds: float) -> None:
    traced = phase.traced
    docs = seeded_corpus(ctx.seed, n_files=FORK_DOCS)
    order = list(range(len(docs)))
    rng = random.Random(ctx.seed)
    rng.shuffle(order)
    expected = [reference_digest(text) for _, text in docs]
    docs_path = os.path.join(ctx.rundir, "fork-docs.json")
    with open(docs_path, "w", encoding="utf-8") as fh:
        json.dump(docs, fh)
    client, dbg = ctx.launch_debugged(phase, traced)
    bare = ctx.launch_bare(traced)
    try:
        for driver in (dbg, bare):
            driver.call("load", timeout=SETUP_TIMEOUT, path=docs_path)
        timed = 0
        start = time.monotonic()
        deadline = start + seconds
        for i, (arm, warmup) in enumerate(benchstats.abba_arms()):
            if not warmup and timed and benchstats.balanced(timed) \
                    and time.monotonic() >= deadline:
                break
            doc = order[i % len(order)]
            phase.attempted += 1
            try:
                if arm == benchstats.ARM_A:
                    time.sleep(rng.uniform(0.0, POLL_PERIOD_S))
                    t0 = time.monotonic()
                    fork_us, follow_s = _follow_one(ctx, phase, client,
                                                    dbg, doc, expected)
                else:
                    t0 = time.monotonic()
                    fork_us, follow_s = _bare_fork_one(phase, bare, doc,
                                                       expected), None
                task_s = time.monotonic() - t0
            except Exception as exc:  # noqa: BLE001 - one failed op
                phase.fail(f"{arm}: {type(exc).__name__}: {exc}")
                if dbg.proc.poll() is not None or bare.proc.poll() is not None:
                    break
                continue
            if warmup:
                continue
            timed += 1
            if arm == benchstats.ARM_A:
                phase.samples["dbg_fork_us"].append(fork_us)
                phase.samples["follow_s"].append(follow_s)
                phase.samples["dbg_task_s"].append(task_s)
            else:
                phase.samples["bare_fork_us"].append(fork_us)
                phase.samples["bare_task_s"].append(task_s)
        phase.ops = timed // 2
        phase.window = (start, time.monotonic())
    finally:
        ctx.finish(phase, client, [dbg, bare], rss_of=dbg)


def _follow_one(ctx, phase, client, dbg, doc, expected):
    out = dbg.call("fork", doc=doc)
    pid = out["pid"]
    ctx.known_pids.add(pid)
    try:
        session = client.session_for_pid(pid, timeout=OP_TIMEOUT)
        info = session.request("info", timeout=OP_TIMEOUT)
        answered = time.monotonic()
    finally:
        released = dbg.call("release")
    phase.check(info.get("pid") == pid and info.get("parent_pid") == dbg.pid,
                f"info for child {pid}: pid {info.get('pid')} parent "
                f"{info.get('parent_pid')}, expected parent {dbg.pid}")
    _check_child(phase, released, doc, expected)
    return ((out["fork_return"] - out["fork_start"]) * 1e6,
            answered - out["fork_start"])


def _bare_fork_one(phase, bare, doc, expected):
    out = bare.call("fork", doc=doc)
    _check_child(phase, bare.call("release"), doc, expected)
    return (out["fork_return"] - out["fork_start"]) * 1e6


def _check_child(phase, released, doc, expected) -> None:
    result = released.get("result") or {}
    phase.check(released.get("status") == 0
                and result.get("words") == expected[doc]["words"]
                and result.get("distinct") == expected[doc]["distinct"],
                f"child {released.get('pid')} counted {result}, "
                f"expected {expected[doc]} (status {released.get('status')})")


def run_phase(ctx: Context, workload: str, seconds: float, traced: bool,
              probes: int) -> Phase:
    """One phase of ``workload`` plus ``probes`` extra set-ups, half
    before and half after it, so the set-up median samples the host
    over the whole run rather than its first seconds."""
    phase = Phase(traced=traced)
    ctx.probe_setups(phase, probes // 2)
    if workload == "fork-follow":
        fork_follow(ctx, phase, seconds)
    else:
        wordcount(ctx, phase, seconds, armed=workload == "wordcount-armed")
    ctx.probe_setups(phase, probes - probes // 2)
    return phase
