"""Integration: push-dial fork-follow.

Fork phase A binds the child's listen endpoint, phase B puts its port in
the parent's ``process_forked`` event, and phase C adopts it.  A client
attached to the parent dials the child from that event; the port file
stays the rendezvous of record (tombstones, the ``atfork`` backend,
clients that do not watch the parent).  Every endpoint no child adopts
must be closed, so a dial to it is refused or reset, never left hanging.
"""

import errno
import os
import socket
import sys
import time

import pytest

from repro.client import DebugClient
from repro.core import Dionea
from repro.server import protocol
from repro.testkit import faults

pytestmark = pytest.mark.forks


def child_work(n):
    return sum(range(n))


def wait_child(pid, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done == pid:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    raise AssertionError(f"child {pid} did not exit in {timeout}s")


def open_fds():
    return len(os.listdir("/proc/self/fd"))


class RecordingClient(DebugClient):
    """Keeps every ``process_forked`` payload and every attach attempt."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.forked = []
        self.dials = []  # (port, seconds, ok)

    def _route_event(self, session, message):
        if message.get("event") == protocol.EV_PROCESS_FORKED:
            self.forked.append(dict(message.get("payload", {})))
        super()._route_event(session, message)

    def attach(self, host, port, **kwargs):
        t0 = time.monotonic()
        try:
            session = super().attach(host, port, **kwargs)
        except BaseException:
            self.dials.append((port, time.monotonic() - t0, False))
            raise
        self.dials.append((port, time.monotonic() - t0, True))
        return session

    def forked_payload(self, pid, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for payload in self.forked:
                if payload.get("child_pid") == pid:
                    return payload
            time.sleep(0.01)
        raise AssertionError(f"no process_forked event for pid {pid}")


@pytest.fixture
def recording_client(dionea, waiter):
    client = RecordingClient()
    client.watch_portfile(dionea.portfile)
    waiter(lambda: client.sessions(), message="attach to parent")
    yield client
    client.close()


class TestPushDial:
    def test_event_port_is_the_childs_record_and_session_port(
            self, dionea, recording_client):
        pid = os.fork()
        if pid == 0:
            time.sleep(0.5)
            os._exit(0)
        session = recording_client.session_for_pid(pid, timeout=10)
        payload = recording_client.forked_payload(pid)
        assert payload["parent_pid"] == os.getpid()
        assert payload["host"] == "127.0.0.1"
        deadline = time.monotonic() + 5
        record = None
        while record is None and time.monotonic() < deadline:
            record = next((r for r in dionea.portfile.read_all()
                           if r.pid == pid), None)
            time.sleep(0.01)
        assert record is not None, "child never announced"
        assert payload["port"] == record.port == session.port
        assert wait_child(pid) == 0

    def test_event_alone_attaches_the_child(self, dionea, waiter):
        """With a 30 s poll the port file cannot be what finds the child."""
        client = RecordingClient()
        try:
            client.attach("127.0.0.1", dionea.port)
            client.watch_portfile(dionea.portfile, poll_interval=30.0)
            pid = os.fork()
            if pid == 0:
                time.sleep(1.5)
                os._exit(0)
            t0 = time.monotonic()
            session = client.session_for_pid(pid, timeout=1.0)
            assert time.monotonic() - t0 < 1.0
            assert session.request("info")["parent_pid"] == os.getpid()
            assert wait_child(pid) == 0
        finally:
            client.close()

    def test_atfork_backend_follows_through_the_portfile(self,
                                                         portfile_path,
                                                         waiter):
        """register_at_fork never learns the child's pid, so there is no
        event to push; the port file alone must still find the child."""
        debugger = Dionea(program="atfork-test", portfile_path=portfile_path,
                          park_timeout=15.0, fork_backend="atfork")
        debugger.start()
        client = RecordingClient()
        try:
            client.watch_portfile(debugger.portfile)
            client.session_for_pid(os.getpid(), timeout=10)
            before = open_fds()
            pid = os.fork()
            if pid == 0:
                time.sleep(0.5)
                os._exit(0)
            session = client.session_for_pid(pid, timeout=10)
            assert session.request("info")["parent_pid"] == os.getpid()
            assert client.forked == []
            assert wait_child(pid) == 0
            # The parent kept no copy of the child's endpoint.  The
            # in-process client closes its session to the dead child on
            # its own thread, so wait for that socket to go too.
            waiter(lambda: open_fds() == before, message="fds back")
        finally:
            client.close()
            debugger.stop()

    def test_exec_child_push_dial_fails_fast_and_tombstone_masks(
            self, dionea, waiter):
        client = RecordingClient()
        try:
            client.watch_portfile(dionea.portfile, gc_interval=0)
            waiter(lambda: client.sessions(), message="attach to parent")
            pid = os.fork()
            if pid == 0:
                dionea.portfile.tombstone(os.getpid(), reason="exec")
                os.execv(sys.executable, [sys.executable, "-c", "pass"])
            payload = client.forked_payload(pid)
            assert wait_child(pid) == 0
            watcher = client._watcher  # noqa: SLF001 - inspect the mask
            waiter(lambda: watcher._seen.get(pid) is not None  # noqa: SLF001
                   and watcher._seen[pid].tombstoned,  # noqa: SLF001
                   message="tombstone seen by the watcher")
            waiter(lambda: not any(s.pid == pid for s in client.sessions()),
                   message="no live session to the exec'd child")
            child_dials = [d for d in client.dials if d[0] == payload["port"]]
            assert child_dials, "the event never triggered a dial"
            assert all(seconds < 1.0 for _, seconds, _ in child_dials), \
                child_dials
        finally:
            client.close()


class TestEndpointsNobodyAdopts:
    def test_parent_fd_count_is_flat_over_50_forks(self, dionea):
        def fork_once():
            try:
                pid = os.fork()
            except OSError:
                return False
            if pid == 0:
                os._exit(0)
            os.waitpid(pid, 0)
            return True

        assert fork_once()  # warm-up: lazily created state is not a leak
        before = open_fds()
        with faults.armed("fork.os_fork",
                          faults.Fault.os_error(errno.EAGAIN),
                          faults.Schedule.every(5)):
            outcomes = [fork_once() for _ in range(50)]
        assert outcomes.count(False) == 10  # fork(2) failed after prepare
        assert open_fds() == before

    def test_prepare_unwind_closes_the_prebound_endpoint(self):
        """A handler preparing after Dionea's fails: the legacy registry
        unwinds phase A through phase B, which must close the socket."""
        from repro.core.handlers import install_dionea_handlers
        from repro.forkhooks.registry import ForkHandlerRegistry
        from repro.forkhooks.syncobjects import SyncObjectRegistry
        from repro.server import DebugServer
        from repro.util.errors import ForkHookError

        def boom():
            raise RuntimeError("prepare refused")

        server = DebugServer(program="unwind-test")
        server.start(install_tracing=False, announce=False)
        registry = ForkHandlerRegistry()
        # registered first, so it prepares last (POSIX reverse order)
        registry.register("late-prepare", prepare=boom)
        install_dionea_handlers(registry, server, SyncObjectRegistry())
        try:
            before = open_fds()
            with pytest.raises(ForkHookError):
                registry.run_prepare()
            assert open_fds() == before
            port = server._fork_slot.port  # noqa: SLF001 - the unwound port
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", port), 1.0).close()
        finally:
            server.close()

    def test_detach_closes_an_unadopted_endpoint(self):
        from repro.server import DebugServer
        server = DebugServer(program="detach-test")
        server.start(install_tracing=False, announce=False)
        server.prebind_child_endpoint()
        port = server._fork_slot.endpoint.port  # noqa: SLF001
        server.detach("test")
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), 1.0).close()

    def test_child_degrading_before_phase_c_leaves_parent_alone(
            self, dionea, recording_client, monkeypatch, waiter):
        """Phase C fails at its first step: the child detaches.  Its
        pre-bound endpoint is closed (the push dial is refused, not left
        hanging), its own pid is tombstoned, and the parent's session —
        whose sockets the child inherited — never hears of it."""
        def broken_reinit():
            raise RuntimeError("sync re-init failed")

        monkeypatch.setattr(dionea.sync_registry, "reinit_after_fork",
                            broken_reinit)
        parent_session = recording_client.session_for_pid(os.getpid())
        pid = os.fork()
        if pid == 0:
            time.sleep(1.0)
            os._exit(0)
        payload = recording_client.forked_payload(pid)
        assert wait_child(pid) == 0
        waiter(lambda: any(d[0] == payload["port"]
                           for d in recording_client.dials),
               message="push dial")
        child_dials = [d for d in recording_client.dials
                       if d[0] == payload["port"]]
        assert not any(ok for _, _, ok in child_dials)
        assert all(seconds < 1.0 for _, seconds, _ in child_dials)
        records = dionea.portfile.read_all()
        assert any(r.tombstoned and r.pid == pid for r in records)
        assert not any(r.tombstoned and r.pid == os.getpid()
                       for r in records)
        assert not parent_session.closed
        assert parent_session.request("info")["pid"] == os.getpid()


class TestDisturbSparesDebuggerThreads:
    def test_child_gets_a_session_and_only_its_forker_parks(
            self, dionea, recording_client, waiter):
        """§6.4 disturb mode with new threads stopped too: the child's
        own listener and watchdog threads must not be parked, or the
        child never gets a session."""
        assert dionea.disturb_mode.stop_new_threads
        dionea.disturb_mode.set_enabled(True)
        try:
            pid = os.fork()
            if pid == 0:
                child_work(10)  # first traced call: parks here
                os._exit(0)
            session = recording_client.session_for_pid(pid, timeout=10)
            views = []
            waiter(lambda: views.extend(
                v for v in recording_client.stopped_views()
                if v.ue.pid == pid) or views,
                timeout=10, message="child parked")
            (view,) = views
            assert view.capture.reason == "disturb"
            parked = session.request("status")["parked"]
            assert parked == [protocol.ue_to_wire(view.ue)]
            view.cont()
            assert wait_child(pid) == 0
        finally:
            dionea.disturb_mode.set_enabled(False)

    def test_healed_listener_is_not_parked(self, dionea):
        """A watchdog heal starts a new listener thread while tracing is
        live; under disturb mode its first traced call must not park it."""
        dionea.disturb_mode.set_enabled(True)
        try:
            old_port = dionea.port
            t0 = time.monotonic()
            dionea.server.heal_listener("test")
            assert time.monotonic() - t0 < 2.0
            assert dionea.port != old_port
            probe = DebugClient()
            try:
                session = probe.attach("127.0.0.1", dionea.port)
                assert session.request("status")["parked"] == []
            finally:
                probe.close()
        finally:
            dionea.disturb_mode.set_enabled(False)
