"""Debuggee driver: the program the benchmark runs under Dionea (or bare).

One driver process per arm.  It reads one JSON command per line on
stdin and answers one JSON line on its control stream (the original
stdout; fd 1 itself is pointed at stderr so nothing the program prints
can corrupt the protocol).  Commands:

``load``     read the generated inputs (a JSON list of [path, text])
``job``      one word-count job on ``nproc`` pool workers
``fork``     fork one child that waits on a pipe, then counts a document
``release``  let that child count, reap it and return its count
``quit``     stop the debugger and exit

Usage (normally spawned by ``perfbench/run.py``)::

    python3 perfbench/driver.py --portfile PATH [--bare] [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layertrace  # noqa: E402


def count_digest(counts: dict) -> dict:
    blob = json.dumps(sorted(counts.items()), separators=(",", ":"))
    return {"sha": hashlib.sha256(blob.encode()).hexdigest(),
            "words": sum(counts.values()), "distinct": len(counts)}


class Driver:
    def __init__(self, args):
        self.args = args
        self.docs = []
        self.dionea = None
        self.tracer = None
        self.pending = None  # (pid, release_w, result_r) of a fork task
        self.counter_base = {}

    # -- set-up -------------------------------------------------------------

    def start(self) -> None:
        if self.args.trace_dir:
            label = "bare" if self.args.bare else "debugged"
            self.tracer = layertrace.Tracer(label, self.args.trace_dir)
            layertrace.install_debuggee(self.tracer)
            self.tracer.counters_fn = self.process_counters
            os.register_at_fork(after_in_child=self._rebase_counters)
        if not self.args.bare:
            from repro.core import Dionea
            self.dionea = Dionea(program="perfbench",
                                 portfile_path=self.args.portfile)
            self.dionea.start()

    def _engine_counters(self) -> dict:
        from repro.core.dionea import current_dionea
        dbg = current_dionea()
        if dbg is None:
            return {}
        engine = dbg.server.engine
        return {"fastpath_hits": engine.fastpath_hits,
                "local_installs": engine.local_installs}

    def _rebase_counters(self) -> None:
        # A forked child inherits the engine's counters; count only its own.
        self.counter_base = self._engine_counters()

    def process_counters(self) -> dict:
        """This process's trace-engine counters and fork-handler failures,
        read when it exits."""
        from repro.core.dionea import current_dionea
        from repro.obs.metrics import REGISTRY
        dbg = current_dionea()
        if dbg is None:
            return {}
        out = {k: v - self.counter_base.get(k, 0)
               for k, v in self._engine_counters().items()}
        counters = REGISTRY.snapshot().get("counters", {})
        out["handler_failures"] = len(dbg.fork_registry.failures) + sum(
            v for k, v in counters.items()
            if k.startswith(("fork.quarantined", "fork.reentrant")))
        return out

    # -- commands -----------------------------------------------------------

    def cmd_load(self, msg):
        with open(msg["path"], encoding="utf-8") as fh:
            self.docs = [tuple(d) for d in json.load(fh)]
        return {"docs": len(self.docs)}

    def cmd_job(self, msg):
        from repro.mapreduce import MapReduceEngine, MapReduceJob
        from repro.mapreduce import wordcount
        engine = MapReduceEngine(n_workers=msg["workers"], chunksize=4)
        job = MapReduceJob(map_func=wordcount.map_wordcount,
                           reduce_func=wordcount.reduce_wordcount,
                           name="wordcount")
        start = time.monotonic()
        counts = engine.run(job, self.docs, timeout=60)
        end = time.monotonic()
        out = count_digest(counts)
        out.update(start=start, end=end,
                   workers=engine.last_stats.worker_pids)
        return out

    def cmd_fork(self, msg):
        from repro.mapreduce.wordcount import map_wordcount
        doc = self.docs[msg["doc"]]
        release_r, release_w = os.pipe()
        result_r, result_w = os.pipe()
        start = time.monotonic()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(release_w)
                os.close(result_r)
                os.read(release_r, 1)
                data = json.dumps(count_digest(map_wordcount(doc)))
                os.write(result_w, data.encode())
                if self.tracer is not None:
                    self.tracer.dump()
                status = 0
            finally:
                os._exit(status)
        returned = time.monotonic()
        os.close(release_r)
        os.close(result_w)
        self.pending = (pid, release_w, result_r)
        return {"pid": pid, "fork_start": start, "fork_return": returned}

    def cmd_release(self, msg):
        pid, release_w, result_r = self.pending
        self.pending = None
        os.write(release_w, b"x")
        os.close(release_w)
        chunks = []
        while True:
            data = os.read(result_r, 65536)
            if not data:
                break
            chunks.append(data)
        os.close(result_r)
        _, status = os.waitpid(pid, 0)
        result = json.loads(b"".join(chunks)) if chunks else None
        return {"pid": pid, "status": status, "result": result}

    def cmd_quit(self, msg):
        if self.tracer is not None:
            self.tracer.dump()
        if self.dionea is not None:
            self.dionea.stop()
        return {"bye": True}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--portfile", required=True)
    parser.add_argument("--bare", action="store_true",
                        help="run without a debugger attached")
    parser.add_argument("--trace-dir", default=None,
                        help="record layer spans and write them here")
    args = parser.parse_args(argv)

    control = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)

    def reply(obj):
        control.write(json.dumps(obj) + "\n")
        control.flush()

    driver = Driver(args)
    driver.start()
    reply({"ready": os.getpid()})
    for line in sys.stdin:
        msg = json.loads(line)
        op = msg["op"]
        try:
            out = getattr(driver, f"cmd_{op}")(msg)
        except Exception as exc:  # noqa: BLE001 - reported to the benchmark
            out = {"error": f"{type(exc).__name__}: {exc}"}
        reply(out)
        if op == "quit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
