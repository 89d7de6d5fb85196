"""Per-layer metrics from one traced phase's spans.

Every process (the benchmark itself and each debuggee) contributes one
span list.  A span's self time is its duration minus the part covered
by its child spans on the same thread (see :func:`benchstats.self_time`).
Each metric below names the span it reads; ``spec.PER_LAYER`` says which
end-to-end metric it should move and on which workload.
"""

from __future__ import annotations

import collections
import statistics
from typing import Dict, Iterable, List

import benchstats

DEBUGGED = "debugged"
BARE = "bare"
CLIENT = "client"


class SpanIndex:
    """Spans of all processes by name, with self times computed."""

    def __init__(self, docs: Iterable[dict]):
        self.by_name: Dict[str, List[dict]] = collections.defaultdict(list)
        self.counters: List[dict] = []
        for doc in docs:
            self._add(doc)

    def _add(self, doc: dict) -> None:
        spans = doc["spans"]
        children = collections.defaultdict(list)
        for sid, parent, _name, start, end, _tid, _note in spans:
            if parent:
                children[parent].append((start, end))
        for sid, _parent, name, start, end, _tid, note in spans:
            self.by_name[name].append({
                "label": doc["label"], "pid": doc["pid"],
                "role": doc.get("role"),
                "start": start, "end": end, "note": note or {},
                "self": benchstats.self_time(start, end, children[sid]),
            })
        if doc.get("counters"):
            self.counters.append(dict(doc["counters"], label=doc["label"]))

    def spans(self, name: str, label: str = None) -> List[dict]:
        return [s for s in self.by_name.get(name, ())
                if label is None or s["label"] == label]

    def self_times(self, name: str, label: str = None) -> List[float]:
        return [s["self"] for s in self.spans(name, label)]

    def counter_sum(self, key: str, label: str = DEBUGGED) -> float:
        return sum(c.get(key, 0) for c in self.counters
                   if c["label"] == label)


def _median(values, scale: float) -> float:
    return statistics.median(values) * scale if values else 0.0


def _mean(values, scale: float) -> float:
    return statistics.fmean(values) * scale if values else 0.0


def _discover_ms(index: SpanIndex) -> List[float]:
    """Announce return in the child until the client's attach to that
    port is entered: the port-file watcher's share of a follow."""
    announced = {}
    for span in index.spans("server.announce", DEBUGGED):
        port = span["note"].get("port")
        if port is not None:
            announced.setdefault(port, []).append(span["end"])
    waits = []
    for span in index.spans("client.attach", CLIENT):
        ends = [t for t in announced.get(span["note"].get("port"), ())
                if t <= span["start"]]
        if ends:
            waits.append(span["start"] - max(ends))
    return waits


def _first_requests(index: SpanIndex) -> List[float]:
    first = {}
    for span in sorted(index.spans("client.request", CLIENT),
                       key=lambda s: s["start"]):
        first.setdefault(span["note"].get("pid"), span)
    return [s["end"] - s["start"] for s in first.values()]


def _in_window(spans: List[dict], window: tuple) -> List[dict]:
    return [s for s in spans if window[0] <= s["start"] <= window[1]]


def per_layer(index: SpanIndex, phase, debugged_ops: int) -> Dict[str, float]:
    """Every ``spec.PER_LAYER`` metric for one traced phase."""
    ops = max(1, phase.ops)
    jobs = max(1, debugged_ops)
    samples = phase.samples
    encodes = index.spans("util.encode")
    maps = [s for s in index.spans("mapreduce.map")
            if s["role"] == "pool-worker"]
    map_dbg = _mean([s["self"] for s in maps if s["label"] == DEBUGGED], 1e6)
    map_bare = _mean([s["self"] for s in maps if s["label"] == BARE], 1e6)
    return {
        "mapreduce.map_us_per_doc": map_dbg,
        "mapreduce.map_us_per_doc_bare": map_bare,
        "tracing.cost_us_per_doc": map_dbg - map_bare,
        "tracing.fastpath_hits": index.counter_sum("fastpath_hits") / jobs,
        "tracing.local_installs": index.counter_sum("local_installs") / jobs,
        "mp.queue_put_us": _mean(index.self_times("mp.queue_put", DEBUGGED),
                                 1e6),
        "mp.queue_get_us": _mean(index.self_times("mp.queue_get", DEBUGGED),
                                 1e6),
        "mp.queue_ops": (len(index.spans("mp.queue_put", DEBUGGED))
                         + len(index.spans("mp.queue_get", DEBUGGED))) / jobs,
        "mp.pool_start_ms": _median(
            [s["end"] - s["start"]
             for s in index.spans("mp.pool_start", DEBUGGED)], 1e3),
        "forkhooks.prepare_us": _median(
            index.self_times("forkhooks.prepare", DEBUGGED), 1e6),
        "forkhooks.parent_us": _median(
            index.self_times("forkhooks.parent", DEBUGGED), 1e6),
        "forkhooks.child_us": _median(
            index.self_times("forkhooks.child", DEBUGGED), 1e6),
        "forkhooks.bare_fork_us": _median(samples.get("bare_fork_us", ()),
                                          1.0),
        "forkhooks.handler_failures": index.counter_sum("handler_failures"),
        "server.reinit_ms": _median(
            index.self_times("server.reinit", DEBUGGED), 1e3),
        "server.announce_us": _median(
            index.self_times("server.announce", DEBUGGED), 1e6),
        "server.start_ms": _median(
            [s["end"] - s["start"]
             for s in index.spans("server.start", DEBUGGED)], 1e3),
        "server.command_us": _median(
            index.self_times("server.command", DEBUGGED), 1e6),
        "obs.child_reset_us": _median(
            index.self_times("obs.child_reset", DEBUGGED), 1e6),
        "client.discover_ms": _median(_discover_ms(index), 1e3),
        "util.portfile_poll_us": _median(
            index.self_times("util.portfile_poll", CLIENT), 1e6),
        "util.portfile_polls": len(_in_window(
            index.spans("util.portfile_poll", CLIENT), phase.window)) / ops,
        "client.attach_ms": _median(
            [s["end"] - s["start"]
             for s in index.spans("client.attach", CLIENT)], 1e3),
        "client.first_request_ms": _median(_first_requests(index), 1e3),
        "util.encode_us": _median([s["self"] for s in encodes], 1e6),
        "util.decode_us": _median(index.self_times("util.decode"), 1e6),
        "util.bytes_per_cycle": sum(
            s["note"].get("nbytes", 0)
            for s in _in_window(encodes, phase.window)) / ops,
        "client.request_failures": float(phase.failed),
    }
