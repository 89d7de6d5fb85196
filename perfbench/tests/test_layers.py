import os
import threading

import layers
import layertrace


def _doc(label, spans, counters=None, pid=1):
    return {"pid": pid, "label": label, "spans": spans,
            "counters": counters or {}}


def test_span_index_self_time_excludes_children():
    spans = [
        # id, parent, name, start, end, thread, note
        (2, 1, "server.announce", 1.0, 1.5, 7, {"port": 9}),
        (1, 0, "server.reinit", 0.0, 2.0, 7, None),
    ]
    index = layers.SpanIndex([_doc(layers.DEBUGGED, spans)])
    assert index.self_times("server.reinit") == [1.5]
    assert index.self_times("server.announce") == [0.5]


def test_discover_pairs_announce_with_attach_on_the_same_port():
    child = _doc(layers.DEBUGGED, [
        (1, 0, "server.announce", 1.0, 1.25, 7, {"port": 9}),
        (2, 0, "server.announce", 1.0, 1.5, 7, {"port": 10})])
    client = _doc(layers.CLIENT, [
        (1, 0, "client.attach", 1.75, 1.8, 7, {"port": 9, "pid": 5})])
    index = layers.SpanIndex([child, client])
    assert layers._discover_ms(index) == [0.5]


def test_counters_sum_per_label():
    index = layers.SpanIndex([
        _doc(layers.DEBUGGED, [], {"fastpath_hits": 3}),
        _doc(layers.DEBUGGED, [], {"fastpath_hits": 4}),
        _doc(layers.BARE, [], {"fastpath_hits": 100})])
    assert index.counter_sum("fastpath_hits") == 7


class _Target:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


def test_tracer_records_nested_spans_and_dumps(tmp_path):
    tracer = layertrace.Tracer("client", str(tmp_path))
    tracer.wrap(_Target, "outer", "t.outer")
    tracer.wrap(_Target, "inner", "t.inner",
                lambda a, k, r: {"result": r})
    try:
        assert _Target().outer() == 2
        worker = threading.Thread(target=_Target().inner)
        worker.start()
        worker.join(5)
        assert not worker.is_alive()
    finally:
        for owner, attr, original in tracer._patched:
            setattr(owner, attr, original)
    tracer.dump()
    (doc,) = layertrace.load_dumps(str(tmp_path))
    assert doc["pid"] == os.getpid()
    by_name = {}
    for span in doc["spans"]:
        by_name.setdefault(span[2], []).append(span)
    (outer,) = by_name["t.outer"]
    nested, threaded = sorted(by_name["t.inner"], key=lambda s: s[1],
                              reverse=True)
    assert nested[1] == outer[0]      # parent is the enclosing call
    assert threaded[1] == 0           # another thread starts a new stack
    assert nested[6] == {"result": 1}


def test_tracer_forgets_parent_spans_in_a_forked_child(tmp_path):
    tracer = layertrace.Tracer("debugged", str(tmp_path))
    tracer.spans.append((1, 0, "x", 0.0, 1.0, 7, None))
    pid = os.fork()
    if pid == 0:
        os._exit(0 if tracer.spans == [] else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert len(tracer.spans) == 1
