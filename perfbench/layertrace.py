"""Span recording around calls into each layer's public functions.

The benchmark installs these wrappers only in its traced runs; the
untraced runs that give the end-to-end numbers carry none of them.  A
wrapper records ``(id, parent, name, start, end, thread, note)`` with
``time.monotonic()``, which is system-wide on Linux, so spans from the
benchmark process and from every debuggee process share one clock.
Spans stay in memory and each process writes its own file when it ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

Note = Callable[[tuple, dict, Any], Optional[dict]]


class Tracer:
    """In-memory span recorder for one process (reset in forked children)."""

    def __init__(self, label: str, out_dir: str):
        self.label = label
        #: what this process is, for metrics that read one kind of process
        self.role = "main"
        self.out_dir = out_dir
        self.spans: List[tuple] = []
        self.counters_fn: Optional[Callable[[], Dict[str, float]]] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[tuple] = []
        os.register_at_fork(after_in_child=self._after_fork_child)

    def _after_fork_child(self) -> None:
        # The child inherits the parent's spans and the forking thread's
        # open-span stack; neither describes this process.
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: Any, attr: str, name: str,
             note: Optional[Note] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.monotonic()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                extra = note(args, kwargs, result) if note else None
                tracer.spans.append((span_id, parent, name, start, end,
                                     threading.get_ident(), extra))

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def dump(self) -> str:
        """Write this process's spans and counters; returns the path."""
        counters = self.counters_fn() if self.counters_fn else {}
        doc = {"pid": os.getpid(), "label": self.label, "role": self.role,
               "spans": self.spans, "counters": counters}
        path = os.path.join(self.out_dir,
                            f"spans-{os.getpid()}-{self.label}.json")
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
        return path


def _frame_bytes(args, kwargs, result) -> dict:
    return {"nbytes": len(result)}


def _install_framing(tracer: Tracer) -> None:
    from repro.client import reactor
    from repro.server import sockets
    from repro.util import framing

    tracer.wrap(framing, "encode_frame", "util.encode", _frame_bytes)
    # Both transports import the encoder by name; point them at the
    # same wrapper so every frame is counted once, where it is sent.
    reactor.encode_frame = framing.encode_frame
    sockets.encode_frame = framing.encode_frame

    original = framing.FrameDecoder.messages

    def messages_list(self):
        return list(original(self))

    functools.update_wrapper(messages_list, original)
    framing.FrameDecoder.messages = messages_list
    tracer.wrap(framing.FrameDecoder, "messages", "util.decode")


def install_debuggee(tracer: Tracer) -> None:
    """Wrap the debuggee-side layers: mapreduce, mp, forkhooks, server,
    core, obs and framing.  Call before ``Dionea`` is created."""
    import repro.obs
    from repro.core import dionea
    from repro.forkhooks.registry import ForkHandlerRegistry
    from repro.mapreduce import wordcount
    from repro.mp import pool, queues
    from repro.server import debugserver

    tracer.wrap(wordcount, "map_wordcount", "mapreduce.map")
    tracer.wrap(queues.Queue, "put", "mp.queue_put")
    tracer.wrap(queues.Queue, "get", "mp.queue_get")
    tracer.wrap(pool.Pool, "__init__", "mp.pool_start")
    tracer.wrap(ForkHandlerRegistry, "run_prepare", "forkhooks.prepare")
    tracer.wrap(ForkHandlerRegistry, "run_parent", "forkhooks.parent")
    tracer.wrap(ForkHandlerRegistry, "run_child", "forkhooks.child")
    tracer.wrap(debugserver.DebugServer, "reinit_after_fork",
                "server.reinit")
    tracer.wrap(debugserver.DebugServer, "announce", "server.announce",
                lambda a, k, r: {"port": a[0].port})
    tracer.wrap(debugserver, "dispatch", "server.command",
                lambda a, k, r: {"command": a[1]})
    tracer.wrap(dionea.Dionea, "start", "server.start")
    tracer.wrap(repro.obs, "reset_after_fork", "obs.child_reset")
    _install_framing(tracer)

    # A pool worker ends in os._exit, so it writes its spans on the way
    # out of its main loop.
    worker = pool._pool_worker

    @functools.wraps(worker)
    def traced_worker(*args, **kwargs):
        tracer.role = "pool-worker"
        try:
            return worker(*args, **kwargs)
        finally:
            tracer.dump()

    pool._pool_worker = traced_worker


def install_client(tracer: Tracer) -> None:
    """Wrap the client-side layers: client, session, portfile watcher
    and framing, in the benchmark process."""
    from repro.client.client import DebugClient
    from repro.client.session import DebugSession
    from repro.util.portfile import PortFileWatcher

    tracer.wrap(DebugClient, "attach", "client.attach",
                lambda a, k, r: {"port": a[2],
                                 "pid": r.pid if r is not None else None})
    tracer.wrap(DebugSession, "request", "client.request",
                lambda a, k, r: {"command": a[1], "pid": a[0].pid})
    tracer.wrap(PortFileWatcher, "poll_once", "util.portfile_poll")
    _install_framing(tracer)


def load_dumps(out_dir: str) -> List[dict]:
    docs = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                docs.append(json.load(fh))
    return docs
