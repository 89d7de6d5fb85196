"""The dedicated listener thread — a Reactor-pattern event loop.

Paper section 4: *"each debug server has a dedicated listener thread to
receive requests and send responses from and to the client; this
dedicated thread handles the requests asynchronously, treating each
request as an event dispatched by a loop.  The implementation of this
listener thread is inspired by the Reactor pattern."*

The loop multiplexes the accept socket and every live connection with
``selectors``.  Handlers (accept, hello, request dispatch) run inline in
the loop and must not block — debug commands are designed to be
non-blocking (``continue`` releases a gate; it never waits for the UE).

The listener is restarted from scratch in forked children (fork handler
phase C: *"create a listener thread"*): threads do not survive fork, so
the child builds a brand-new :class:`Listener`.  Its socket is the one
fork phase A bound for this child before fork(2); connects that arrived
before the thread started wait in that socket's accept backlog.
"""

from __future__ import annotations

import selectors
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional

from time import perf_counter as _perf_counter

from ..obs import metrics as obs_metrics
from ..testkit import faults
from ..util.errors import FramingError, ProtocolError
from ..util.ringlog import debug_event
from . import protocol
from .sockets import Connection, ListenEndpoint


class Listener:
    """Reactor loop over one listen endpoint and its connections."""

    def __init__(self, endpoint: ListenEndpoint,
                 on_request: Callable[[Connection, dict], None],
                 on_hello: Optional[Callable[[Connection, dict], None]] = None,
                 on_disconnect: Optional[Callable[[Connection], None]] = None):
        self.endpoint = endpoint
        self.on_request = on_request
        self.on_hello = on_hello
        self.on_disconnect = on_disconnect
        self._selector = selectors.DefaultSelector()
        self._connections: List[Connection] = []
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started = threading.Event()
        #: monotonic stamp of the loop's last iteration — the liveness
        #: signal the server watchdog polls.  A wedged handler (blocking
        #: call smuggled into the reactor) freezes this stamp while the
        #: thread stays "alive"; a stale stamp IS the wedge detector.
        self.last_tick = time.monotonic()

    # -- lifecycle --------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            raise ProtocolError("listener already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=f"dionea-listener-{self.endpoint.port}",
            daemon=True)
        self._thread.start()
        self._started.wait(5.0)

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout)
        self._thread = None

    def close(self) -> None:
        self.stop()
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            conn.close()
        self.endpoint.close()

    # -- introspection -----------------------------------------------------------

    def connections(self, role: Optional[str] = None) -> List[Connection]:
        with self._lock:
            conns = [c for c in self._connections if not c.closed]
            if role is not None:
                conns = [c for c in conns if c.role == role]
            return conns

    def command_connection(self) -> Optional[Connection]:
        conns = self.connections(role=protocol.ROLE_COMMAND)
        return conns[0] if conns else None

    def broadcast_event(self, message: dict,
                        role: str = protocol.ROLE_COMMAND) -> int:
        """Send an event to every connection with *role*; returns count."""
        sent = 0
        for conn in self.connections(role=role):
            if conn.send(message):
                sent += 1
        return sent

    # -- the loop -------------------------------------------------------------------

    def _run(self) -> None:
        from ..util.ids import untrace_current_thread
        untrace_current_thread()  # infra thread: never a debuggee UE
        try:
            self._selector.register(self.endpoint, selectors.EVENT_READ,
                                    data="accept")
        except (OSError, ValueError):
            self._started.set()
            return
        self._started.set()
        try:
            while not self._stop.is_set():
                self.last_tick = time.monotonic()
                events = self._selector.select(timeout=0.05)
                if not events:
                    continue
                # Reactor loop lag: how long one batch of ready events
                # holds the single-threaded loop.  Every other client
                # request queues behind this — it IS the server-side
                # latency floor the §4 non-blocking rule protects.
                tick_start = _perf_counter()
                for key, _mask in events:
                    if key.data == "accept":
                        self._handle_accept()
                    else:
                        self._handle_readable(key.data)
                obs_metrics.observe("server.reactor_tick_seconds",
                                    _perf_counter() - tick_start)
        finally:
            try:
                self._selector.close()
            except OSError:
                pass

    def _handle_accept(self) -> None:
        try:
            conn = self.endpoint.accept()
        except OSError:
            return
        conn.sock.setblocking(False)
        with self._lock:
            self._connections.append(conn)
        try:
            self._selector.register(conn, selectors.EVENT_READ, data=conn)
        except (KeyError, ValueError):
            conn.close()
            return
        debug_event("listener", f"accepted connection from {conn.address}")

    def _drop(self, conn: Connection) -> None:
        try:
            self._selector.unregister(conn)
        except (KeyError, ValueError):
            pass
        with self._lock:
            if conn in self._connections:
                self._connections.remove(conn)
        conn.close()
        if self.on_disconnect is not None:
            try:
                self.on_disconnect(conn)
            except Exception:  # noqa: BLE001
                debug_event("listener", "on_disconnect handler failed")

    def _handle_readable(self, conn: Connection) -> None:
        try:
            budget = faults.io_fault("server.listener.recv", 65536)
            data = conn.sock.recv(budget)
        except BlockingIOError:
            return
        except InterruptedError:
            # EINTR is not a dead peer: the descriptor is still readable,
            # so the selector will hand the connection straight back on
            # the next loop tick.  (Must precede the OSError arm —
            # InterruptedError *is* an OSError, and dropping a live
            # client on a stray signal severs the whole debug session.)
            return
        except OSError:
            self._drop(conn)
            return
        if not data:
            self._drop(conn)
            return
        conn.decoder.feed(data)
        try:
            for message in conn.decoder.messages():
                self._handle_message(conn, message)
        except (FramingError, ProtocolError) as exc:
            debug_event("listener",
                        f"protocol error from {conn.address}: {exc}")
            self._drop(conn)

    def _handle_message(self, conn: Connection, message: dict) -> None:
        if conn.awaiting_hello:
            conn.adopt_role(message)  # raises ProtocolError on bad hello
            if self.on_hello is not None:
                self.on_hello(conn, message)
            return
        if message.get("type") == "ping":
            self._handle_ping(conn, message)
            return
        protocol.validate_request(message)
        try:
            self.on_request(conn, message)
        except Exception as exc:  # noqa: BLE001 - reactor must survive
            # Containment is right (the reactor must survive), silence
            # is not: count it and keep the traceback diagnosable.
            obs_metrics.inc("server.loop_errors")
            debug_event("listener",
                        f"request handler raised {exc!r}\n"
                        + traceback.format_exc())
            conn.send(protocol.make_error(
                message.get("id", -1),
                f"internal error: {type(exc).__name__}: {exc}",
                kind="InternalError"))

    def _handle_ping(self, conn: Connection, message: dict) -> None:
        """Heartbeat: ack a client ping inline on the reactor thread.

        Answering here (not in the command table) is deliberate: a pong
        proves the *reactor* is alive and draining its socket, which is
        exactly the liveness property the client's heartbeat monitor
        wants to measure.

        Injection point ``server.heartbeat.pong``: a ``delay`` fault
        stalls the reactor before acking (a frozen server); any other
        fault swallows the pong (a lossy/black-holed ack path).  Both
        starve the client of beats without touching the TCP stream.
        """
        fault = faults.fire("server.heartbeat.pong")
        if fault is not None:
            if fault.kind == "delay":
                fault.apply()
            else:
                return
        seq = message.get("seq", 0)
        conn.send(protocol.make_pong(seq if isinstance(seq, int) else 0))
