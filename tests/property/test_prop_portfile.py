"""Property tests: the port-file watcher's incremental read.

The watcher parses only the lines appended since its last poll, and
starts over when the liveness GC rewrites the file.  Whatever sequence
of announces, tombstones and GC passes happens between polls, it must
deliver exactly the records a watcher re-reading the whole file would.
"""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.util.portfile import PortFile, PortFileWatcher, PortRecord

#: one live pid (this process) and pids above Linux's PID_MAX_LIMIT,
#: which never exist, so the GC's dead-pid rule applies to them
PIDS = [os.getpid(), 2 ** 22 + 1, 2 ** 22 + 2, 2 ** 22 + 3]


class FullReadWatcher(PortFileWatcher):
    """The reference: re-read and re-parse the whole file every poll."""

    def _read_new(self):
        return self.portfile.read_all()


ops = st.lists(st.one_of(
    st.tuples(st.just("announce"), st.sampled_from(PIDS),
              st.integers(min_value=5000, max_value=5003)),
    st.tuples(st.just("tombstone"), st.sampled_from(PIDS)),
    st.tuples(st.just("reap"), st.floats(min_value=0.0, max_value=4.0)),
    st.tuples(st.just("poll")),
), max_size=40)


@given(script=ops)
@settings(max_examples=150, deadline=None)
def test_incremental_read_matches_full_read(script):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ports")
        writer = PortFile(path)
        incremental = PortFileWatcher(portfile=PortFile(path),
                                      on_record=lambda r: None)
        reference = FullReadWatcher(portfile=PortFile(path),
                                    on_record=lambda r: None)
        clock = 1000.0
        try:
            for op in script + [("poll",)]:
                clock += 1.0
                if op[0] == "announce":
                    writer.announce(PortRecord(
                        pid=op[1], parent_pid=1, host="127.0.0.1",
                        port=op[2], created_at=clock))
                elif op[0] == "tombstone":
                    writer.announce(PortRecord(
                        pid=op[1], parent_pid=0, host="", port=0,
                        created_at=clock, state="tombstone"))
                elif op[0] == "reap":
                    writer.reap_dead(min_age=op[1], now=clock)
                else:
                    assert incremental.poll_once() == reference.poll_once()
        finally:
            incremental.stop()


def test_torn_last_line_waits_for_its_newline(tmp_path):
    pf = PortFile(str(tmp_path / "ports"))
    watcher = PortFileWatcher(portfile=pf, on_record=lambda r: None)
    line = PortRecord(pid=11, parent_pid=1, host="127.0.0.1", port=5000,
                      created_at=1.0).to_json() + "\n"
    try:
        with open(pf.path, "w", encoding="utf-8") as fh:
            fh.write(line[:10])
        assert watcher.poll_once() == []
        with open(pf.path, "a", encoding="utf-8") as fh:
            fh.write(line[10:])
        assert [r.pid for r in watcher.poll_once()] == [11]
        assert watcher.poll_once() == []
    finally:
        watcher.stop()
