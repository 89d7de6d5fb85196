"""The debug server: the shim that lives inside every debuggee process.

Paper section 4: *"In Dionea, each debuggee has its own debug server, the
debug server is a shim to control the execution of the debuggee based on
the commands sent by the client.  Both, debuggee and debug server run in
the same process."*

Composition:

* a :class:`~repro.tracing.engine.TraceEngine` hooked into the
  interpreter's tracing facility;
* a :class:`~repro.server.listener.Listener` (the dedicated Reactor
  thread) on an ephemeral TCP port;
* a :class:`~repro.server.sessionstate.SessionState` (the Fig. 4
  metadata block);
* optional rendezvous through a :class:`~repro.util.portfile.PortFile`
  so the client finds this server — the original process announces
  itself the same way forked children do.

The 1 server : 1 client invariant of section 4.1 is enforced at hello
time: a second ``command``-role connection is refused, because *"two
different clients could control the same debuggee at the same time,
making it inconsistent"*.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from typing import Any, Callable, Dict, Optional

from time import perf_counter as _perf_counter

from ..obs import causality
from ..obs import metrics as obs_metrics
from ..obs.blackbox import BLACKBOX, REASON_WATCHDOG_HEAL
from ..obs.spans import SPANS
from ..testkit import faults
from ..tracing.breakpoints import BreakpointStore
from ..tracing.control import UEController
from ..tracing.engine import TraceEngine
from ..tracing.frames import StackCapture
from ..util.errors import CommandError, ProtocolError, ReproError
from ..util.ids import UEId
from ..util.portfile import PortFile, PortRecord
from ..util.ringlog import debug_event
from . import protocol
from .commands import dispatch
from .listener import Listener
from .sessionstate import SessionState
from .sockets import Connection, ListenEndpoint


class DebugServer:
    """One process's debug server.  Construct, then :meth:`start`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 portfile: Optional[PortFile] = None,
                 program: Optional[str] = None,
                 park_timeout: Optional[float] = 60.0,
                 disturb: Optional[object] = None,
                 disturb_setter: Optional[Callable[[bool], None]] = None,
                 deadlock_reporter: Optional[Callable[[], dict]] = None,
                 capture_io: bool = False,
                 client_loss_grace: float = 3.0):
        self.session = SessionState(program=program)
        self.portfile = portfile
        #: Client-loss policy: on command-channel loss, parked UEs are
        #: held for this many seconds awaiting a reattach before the
        #: server falls back to ``release_all`` (<= 0: release at once).
        self.client_loss_grace = client_loss_grace
        self._grace_timer: Optional[threading.Timer] = None
        self._grace_lock = threading.Lock()
        self._host = host
        self._requested_port = port
        self.engine = TraceEngine(
            breakpoints=BreakpointStore(),
            controller=UEController(),
            on_stop=self._on_ue_stop,
            on_resume=self._on_ue_resume,
            disturb=disturb,
            park_timeout=park_timeout,
        )
        self._deadlock_reporter = deadlock_reporter
        self._disturb_setter = disturb_setter
        # Fig. 2's Output/Input windows: a stdout/stderr tee plus a
        # client-fed stdin, both optional (CLI `dionea run` enables them).
        from .iocapture import InputFeed, OutputCapture
        self._capture_io = capture_io
        self.output_capture = OutputCapture(on_output=self._on_output)
        self.input_feed = InputFeed()
        self._endpoint: Optional[ListenEndpoint] = None
        self._listener: Optional[Listener] = None
        #: lazily created by the profile_start command
        self.profiler = None
        self._last_stops: Dict[UEId, dict] = {}
        self._stops_lock = threading.Lock()
        self._started = False
        #: wedge monitor; created in start() unless DIONEA_WATCHDOG=0
        self.watchdog = None
        #: called (with the reason) after a degraded-mode detach so the
        #: facade can take down the rest of the debugger (fork patcher,
        #: handler registrations) — the server only owns its own half.
        self.on_detach: Optional[Callable[[str], None]] = None
        self._detached = False
        self._detach_lock = threading.Lock()
        #: the next child's listen endpoint, bound in fork phase A, and
        #: its port once phase B let go of it.  Thread-local: the whole
        #: prepare -> fork -> parent/child bracket runs on the one
        #: thread that called fork(), and two threads may fork at once.
        self._fork_slot = threading.local()

    # -- lifecycle --------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started

    @property
    def port(self) -> int:
        if self._endpoint is None:
            raise ReproError("server not started")
        return self._endpoint.port

    def start(self, install_tracing: bool = True,
              announce: bool = True) -> None:
        if self._started:
            raise ReproError("debug server already started")
        self._endpoint = ListenEndpoint(self._host, self._requested_port)
        self._listener = Listener(
            self._endpoint,
            on_request=self._handle_request,
            on_hello=self._handle_hello,
            on_disconnect=self._handle_disconnect,
        )
        self._listener.start()
        if install_tracing and not self.engine.installed:
            self.engine.install()
        if self._capture_io and not self.output_capture.installed:
            self.output_capture.install()
        self._started = True
        from .watchdog import ServerWatchdog, watchdog_enabled
        if watchdog_enabled():
            self.watchdog = ServerWatchdog(self)
            self.watchdog.start()
        if announce and self.portfile is not None:
            self.announce()
        debug_event("server", f"debug server up on port {self.port}")

    def announce(self) -> None:
        """Write this server's coordinates into the rendezvous file."""
        if self.portfile is None:
            raise ReproError("no portfile configured")
        self.portfile.announce(PortRecord(
            pid=self.session.pid,
            parent_pid=self.session.parent_pid,
            host=self._host,
            port=self.port,
            created_at=time.time(),
        ))

    def close(self) -> None:
        self._shutdown(protocol.make_event(protocol.EV_SERVER_EXIT,
                                           {"pid": self.session.pid}))
        debug_event("server", "debug server closed")

    def detach(self, reason: str) -> None:
        """Degraded mode: remove the debugger, leave the debuggee running.

        The do-no-harm escape hatch: uninstall the trace hooks, free
        every parked UE, drop the sockets, tombstone the portfile so no
        client ever redials this pid, and tell the attached client with
        an ``EV_DETACHED`` farewell (NOT ``server_exit`` — the process
        lives on).  Idempotent; safe from any thread, including the
        watchdog's.
        """
        with self._detach_lock:
            if self._detached or not self._started:
                return
            self._detached = True
        obs_metrics.inc("server.detaches")
        debug_event("server", f"detaching from debuggee: {reason}")
        # Terminal black-box flush FIRST: "why did the debugger let go"
        # must hit disk before any teardown step can wedge or die.
        BLACKBOX.force_flush(f"detach:{reason}", terminal=True)
        pid = os.getpid()
        # Tombstone BEFORE the sockets go: the instant the listener
        # dies, a watching client starts redialing unless told not to.
        if self.portfile is not None:
            try:
                self.portfile.tombstone(pid, host=self._host,
                                        reason=reason)
            except (OSError, ReproError):
                debug_event("server", "portfile tombstone failed")
        farewell = protocol.make_event(protocol.EV_DETACHED,
                                       {"pid": pid, "reason": reason})
        if self.session.pid != pid:
            # A child degrading before phase C took the server over: the
            # sockets and the client are still the parent's.  No
            # farewell, and no shutdown(2) on the shared sockets.
            self._drop_inherited_sockets()
            farewell = None
        self._shutdown(farewell)
        callback = self.on_detach
        if callback is not None:
            try:
                callback(reason)
            except Exception:  # noqa: BLE001 - facade cleanup best-effort
                debug_event("server", "on_detach callback failed")

    @property
    def detached(self) -> bool:
        return self._detached

    def _shutdown(self, farewell: Optional[dict]) -> None:
        """Common teardown for close() and detach(): release everything."""
        # A degraded child may detach before phase C adopted the
        # pre-bound endpoint: close it, or a dial to it hangs on hello.
        self._close_child_endpoint()
        if not self._started:
            return
        self._started = False
        self._cancel_grace_timer(join=True)
        if self.watchdog is not None:
            self.watchdog.stop()
        if self.profiler is not None and self.profiler.running:
            self.profiler.stop()
        if self.output_capture.installed:
            self.output_capture.uninstall()
        if self.input_feed.installed:
            self.input_feed.uninstall()
        if self.engine.installed:
            self.engine.uninstall()  # also releases every parked UE
        if self._listener is not None:
            try:
                # Best-effort farewell: a peer that died first must not
                # turn an orderly shutdown into a crash.
                if farewell is not None:
                    self._listener.broadcast_event(farewell)
            except Exception:  # noqa: BLE001
                # Contained, but never silently: the satellite rule —
                # count it and keep the traceback diagnosable.
                obs_metrics.inc("server.loop_errors")
                debug_event("server",
                            "farewell broadcast failed; closing anyway\n"
                            + traceback.format_exc())
            self._listener.close()
            self._listener = None
        elif self._endpoint is not None:
            self._endpoint.close()
        self._endpoint = None

    def heal_listener(self, why: str) -> None:
        """Abandon a dead/wedged listener and start a replacement.

        Python cannot kill a wedged thread, so the old listener is cut
        loose: its sockets are closed out from under it (unwedging
        anything blocked on them — the loop then exits on the dead
        selector) and a fresh listener takes over on a fresh port.  The
        re-announce puts the same pid on a new port in the rendezvous
        file; the client's watcher treats that as a redial.
        """
        old = self._listener
        if old is not None:
            # Don't linger on the join: a wedged thread will not oblige.
            old.stop(timeout=0.2)
            for conn in old.connections():
                conn.close()
            old.endpoint.close()
        self._endpoint = ListenEndpoint(self._host, 0)
        self._listener = Listener(
            self._endpoint,
            on_request=self._handle_request,
            on_hello=self._handle_hello,
            on_disconnect=self._handle_disconnect,
        )
        self._listener.start()
        if self.portfile is not None:
            self.announce()
        debug_event("server", f"listener healed ({why}): "
                              f"now on port {self.port}")
        # Durable way-point: a heal means the debugger nearly died here.
        BLACKBOX.force_flush(f"{REASON_WATCHDOG_HEAL}:{why}")

    def __enter__(self) -> "DebugServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- connection policy ----------------------------------------------------------

    def _handle_hello(self, conn: Connection, hello: dict) -> None:
        resumed = False
        if (conn.role == protocol.ROLE_COMMAND
                and self._listener is not None):
            existing = [c for c in self._listener.connections(
                protocol.ROLE_COMMAND) if c is not conn]
            if existing:
                # 1 server : 1 client (paper section 4.1).
                conn.send(protocol.make_error(
                    -1, "another client already controls this debuggee",
                    kind="SessionError"))
                conn.close()
                raise ProtocolError("second command client refused")
            resume_token = hello.get("resume_token")
            if resume_token is not None:
                if resume_token != self.session.session_token:
                    # Token-epoch mismatch: the reattacher holds a token
                    # from a previous incarnation (a pre-fork parent, a
                    # different process on a recycled port).  A stale
                    # client driving this debuggee would corrupt both
                    # sessions, so it is refused like a second client.
                    conn.send(protocol.make_error(
                        -1, "stale session token: this debuggee is "
                            f"epoch {self.session.epoch}",
                        kind="SessionError"))
                    conn.close()
                    raise ProtocolError("stale reattach token refused")
                resumed = True
            # A command client (fresh or resuming) is back: whatever loss
            # grace was pending is void.
            self._cancel_grace_timer()
        conn.send(protocol.make_hello_ack(
            pid=self.session.pid,
            parent_pid=self.session.parent_pid,
            program=self.session.program,
            main_thread=self.session.main_thread_ident,
            session_token=self.session.session_token,
            resumed=resumed,
        ))
        if conn.role == protocol.ROLE_COMMAND:
            # Replay stops that happened before the client connected — a
            # forked child may hit an inherited breakpoint in the window
            # between its announce and the client's dial (Fig. 6), and a
            # reattaching client resyncs its views from the same replay.
            with self._stops_lock:
                replay = list(self._last_stops.items())
            for ue, wire in replay:
                conn.send(protocol.make_event(
                    protocol.EV_STOPPED,
                    {"ue": protocol.ue_to_wire(ue), "capture": wire,
                     "session_token": self.session.session_token}))

    def _handle_disconnect(self, conn: Connection) -> None:
        if conn.role != protocol.ROLE_COMMAND:
            return
        if self._listener is not None and self._listener.connections(
                protocol.ROLE_COMMAND):
            # A refused second client (or any stray command conn) died
            # while the real client is still attached: not a loss.
            return
        if self.client_loss_grace <= 0:
            self._release_for_lost_client("client vanished")
            return
        # Hold parked UEs for the grace window: a restarting client may
        # reattach (resume token) and reclaim them with state intact.
        with self._grace_lock:
            # Not once shutdown began: closing the listener disconnects
            # the client too, and a timer started then would outlive us.
            if self._grace_timer is not None or not self._started:
                return
            timer = threading.Timer(self.client_loss_grace,
                                    self._on_grace_expired)
            # dionea-*: disturb mode must never park the thread that
            # releases the held UEs.
            timer.name = "dionea-grace"
            timer.daemon = True
            self._grace_timer = timer
            timer.start()
        debug_event("server",
                    f"client lost; holding parked UEs for "
                    f"{self.client_loss_grace:.1f}s grace")

    def _on_grace_expired(self) -> None:
        with self._grace_lock:
            self._grace_timer = None
        if not self._started:
            return
        if (self._listener is not None
                and self._listener.connections(protocol.ROLE_COMMAND)):
            return  # a client reattached as the timer fired
        self._release_for_lost_client("grace window expired")

    def _release_for_lost_client(self, why: str) -> None:
        # The client is gone: nothing will ever release parked UEs, so
        # set them free (debugging ends, the program survives).
        released = self.engine.controller.release_all()
        if released:
            debug_event("server", f"{why}; released {released} UEs")

    def _cancel_grace_timer(self, join: bool = False) -> None:
        with self._grace_lock:
            timer, self._grace_timer = self._grace_timer, None
        if timer is not None:
            timer.cancel()
            # Shutdown leaves no timer thread behind for the next
            # server in this process to count.
            if join and timer is not threading.current_thread():
                timer.join(1.0)

    @property
    def grace_pending(self) -> bool:
        """True while parked UEs are being held for a client reattach."""
        with self._grace_lock:
            return self._grace_timer is not None

    # -- request dispatch ---------------------------------------------------------------

    #: verbs that release debuggee execution: their trace context is
    #: parked as the process's *control context* so the next fork
    #: bracket — debuggee code this verb resumed — links back to it.
    _CONTROL_COMMANDS = frozenset((
        "resume", "resume_all", "feed_input", "close_input", "detach"))

    def _handle_request(self, conn: Connection, message: dict) -> None:
        request_id = message["id"]
        command_name = message["command"]
        # Server-side half of the command round trip: time from the frame
        # being decoded to the response handed to the socket.  The client
        # times the full round trip; the difference is the wire+queueing
        # cost, which is what §7's intrusion argument is about.
        obs_metrics.inc("server.commands", command=command_name)
        t0 = _perf_counter()
        # Causal link-back: the client stamped its request span on the
        # message; the command span becomes its child, with an rpc flow
        # descriptor so the exporter draws the cross-process edge.
        ctx = causality.from_wire(message.get("trace"))
        span_args: Dict[str, Any] = {}
        if ctx is not None:
            span_args["flow"] = {"kind": "rpc", "parent_span": ctx.span_id,
                                 "parent_pid": ctx.pid, "wall": ctx.wall}
        cmd_span = SPANS.begin(f"cmd:{command_name}", cat="command",
                               parent=ctx, **span_args)
        if command_name in self._CONTROL_COMMANDS:
            causality.note_control(cmd_span.context)
        with cmd_span, causality.activate(cmd_span.context):
            try:
                # Injection point server.request.dispatch: a `delay` fault
                # freezes the reactor mid-request (the client's per-request
                # deadline must fire); `kill`/`exit` faults die mid-request
                # (the client must surface session loss, not hang).
                faults.maybe_fault("server.request.dispatch")
                result = dispatch(self, command_name, message["args"])
            except CommandError as exc:
                obs_metrics.observe("server.command_seconds",
                                    _perf_counter() - t0,
                                    command=command_name)
                conn.send(protocol.make_error(request_id, str(exc)))
                return
            conn.send(protocol.make_response(request_id, result))
        obs_metrics.observe("server.command_seconds",
                            _perf_counter() - t0, command=command_name)

    # -- engine callbacks ------------------------------------------------------------------

    def _on_ue_stop(self, ue: UEId, capture: StackCapture) -> None:
        wire = capture.to_wire()
        with self._stops_lock:
            self._last_stops[ue] = wire
        if self._listener is not None:
            self._listener.broadcast_event(protocol.make_event(
                protocol.EV_STOPPED,
                {"ue": protocol.ue_to_wire(ue), "capture": wire,
                 "session_token": self.session.session_token}))

    def _on_ue_resume(self, ue: UEId) -> None:
        with self._stops_lock:
            self._last_stops.pop(ue, None)
        if self._listener is not None:
            self._listener.broadcast_event(protocol.make_event(
                protocol.EV_RESUMED,
                {"ue": protocol.ue_to_wire(ue),
                 "session_token": self.session.session_token}))

    def last_stop_for(self, ue: UEId) -> Optional[dict]:
        with self._stops_lock:
            return self._last_stops.get(ue)

    def _on_output(self, stream: str, text: str) -> None:
        """Tee callback: forward a debuggee write to the client."""
        if self._listener is not None:
            self._listener.broadcast_event(protocol.make_event(
                protocol.EV_OUTPUT,
                {"pid": self.session.pid, "stream": stream,
                 "text": text}))

    # -- optional facilities used by the command table --------------------------------------

    def set_disturb(self, enabled: bool) -> None:
        """Toggled by the `disturb` command; wired by the Dionea facade."""
        if self._disturb_setter is None:
            raise CommandError("disturb mode not configured on this server")
        self._disturb_setter(enabled)

    def deadlock_report(self) -> dict:
        if self._deadlock_reporter is None:
            return {"available": False, "cycles": []}
        return self._deadlock_reporter()

    def emit_event(self, event: str, payload: dict) -> None:
        """Used by the facade (fork announcements, deadlock alerts)."""
        if self._listener is not None:
            self._listener.broadcast_event(protocol.make_event(event, payload))

    # -- fork support -----------------------------------------------------------------------

    def prebind_child_endpoint(self) -> None:
        """Fork handler phase A, server part: bind the child's listener.

        The endpoint is listening (and close-on-exec) before fork(2), so
        the parent can hand its port to the client in ``process_forked``
        and the client can dial while the child is still in phase C: the
        connect waits in the accept backlog until the child's listener
        thread starts.
        """
        self._close_child_endpoint()
        self._fork_slot.port = None
        self._fork_slot.endpoint = ListenEndpoint(self._host, 0)

    def release_child_endpoint(self) -> None:
        """Fork handler phase B (and every undo of A), server part.

        Drop the parent's copy of the pre-bound endpoint and keep its
        port for :meth:`record_child`.  ``close(2)`` only: the child's
        copy shares the socket, and after a failed fork(2) this was the
        only copy, so the socket goes away with it.
        """
        port = self._close_child_endpoint()
        if port is not None:
            self._fork_slot.port = port

    def _close_child_endpoint(self) -> Optional[int]:
        """Close this thread's pre-bound endpoint, if any; returns its port."""
        endpoint = getattr(self._fork_slot, "endpoint", None)
        if endpoint is None:
            return None
        self._fork_slot.endpoint = None
        endpoint.close()
        return endpoint.port

    def reinit_after_fork(self) -> None:
        """Fork handler phase C, server part (paper section 5.4 C).

        Close the *inherited* sockets (they belong to the parent's
        session — Fig. 5), rebuild the metadata block for the child
        (Fig. 4), adopt the endpoint phase A bound for this child,
        start a fresh listener thread, and announce the new server
        through the port file (Fig. 6).
        """
        # 0. Forget the parent's pending grace timer, if any: the timer
        #    thread did not survive the fork, and the child's session is
        #    a fresh epoch with no client yet.
        with self._grace_lock:
            self._grace_timer = None

        # 1. Drop inherited sockets.
        self._drop_inherited_sockets()

        # 2. Rewrite the metadata block with child identity.
        self.session.rewrite_for_child()
        with self._stops_lock:
            self._last_stops.clear()
        self.output_capture.reset_after_fork()

        # 3. The endpoint phase A bound for us + a fresh listener thread
        #    ("create a listener thread").  A client that got its port
        #    from the parent's process_forked event may already be
        #    waiting in its accept backlog.
        endpoint = getattr(self._fork_slot, "endpoint", None)
        self._fork_slot.endpoint = None
        self._endpoint = endpoint or ListenEndpoint(self._host, 0)
        self._listener = Listener(
            self._endpoint,
            on_request=self._handle_request,
            on_hello=self._handle_hello,
            on_disconnect=self._handle_disconnect,
        )
        self._listener.start()

        # 4. Restart the wedge monitor — its thread died with the fork.
        with self._detach_lock:
            self._detached = False
        if self.watchdog is not None:
            self.watchdog.reset_after_fork()
            self.watchdog.start()

        # 5. Inform the client about the creation of a new debuggee.
        if self.portfile is not None:
            self.announce()
        debug_event("server",
                    f"child server re-established on port {self.port}")

    def _drop_inherited_sockets(self) -> None:
        """Child side: close the parent's sockets without touching them.

        Closing our descriptor copies does not disturb the parent — but
        shutdown(2) WOULD (it acts on the shared socket), so inherited
        connections are closed without shutdown.  The listener *thread*
        did not survive the fork; only its data structures did.
        """
        if self._listener is not None:
            for conn in list(self._listener.connections()):
                conn.close(shutdown=False)
            self._listener.endpoint.close()
            self._listener = None
        elif self._endpoint is not None:
            self._endpoint.close()
        self._endpoint = None

    def record_child(self, pid: int) -> None:
        """Parent side: track forked child and tell the client (Fig. 1).

        The event carries the port phase A bound for the child, so a
        watching client can dial it at once instead of waiting for the
        child's port-file announce.
        """
        self.session.record_child(pid)
        payload = {"parent_pid": self.session.pid, "child_pid": pid}
        port = getattr(self._fork_slot, "port", None)
        if port is not None:
            self._fork_slot.port = None
            payload["host"] = self._host
            payload["port"] = port
        self.emit_event(protocol.EV_PROCESS_FORKED, payload)
