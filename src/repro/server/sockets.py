"""Socket endpoints: the server's three-socket layout (paper section 4).

Dionea uses *"three TCP/IP sockets for communication between the server
and the client: one socket ... to listen and handle new connections, one
... to synchronize the source code ..., and ... another ... for sending
debug commands."*

Mapped here:

* :class:`ListenEndpoint` — the accept socket (bound to an ephemeral port
  so every forked child gets a fresh one, bound in fork phase A);
* :class:`Connection` — one accepted socket, typed by the role named in
  its hello frame (``command`` or ``source``).

Connections are read by the Reactor listener thread only, but *written*
from arbitrary threads — a trace callback emits ``stopped`` events from
whichever debuggee thread hit the breakpoint — so every connection
serialises writes behind its own lock.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Optional

from ..obs import metrics as obs_metrics
from ..testkit import faults
from ..util.errors import ProtocolError
from ..util.framing import FrameDecoder, encode_frame
from ..util.ringlog import debug_event
from . import protocol


class Connection:
    """One accepted client connection plus its framing state."""

    def __init__(self, sock: socket.socket, address):
        self.sock = sock
        self.address = address
        self.decoder = FrameDecoder()
        self.role: Optional[str] = None  # set once the hello arrives
        self._send_lock = threading.Lock()
        self._closed = False

    def fileno(self) -> int:
        return self.sock.fileno()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def awaiting_hello(self) -> bool:
        return self.role is None

    def adopt_role(self, hello: dict) -> None:
        protocol.validate_hello(hello)
        self.role = hello["role"]

    def send(self, message: Any) -> bool:
        """Framed, locked send.  Returns False if the peer is gone —
        losing a client must never raise into a trace callback."""
        frame = encode_frame(message)
        with self._send_lock:
            if self._closed:
                return False
            try:
                # Injection point server.conn.send: a raised OSError here
                # is "the peer vanished mid-send" — the connection must be
                # marked dead, never propagate into a trace callback.
                faults.maybe_fault("server.conn.send")
                self.sock.sendall(frame)
                obs_metrics.inc("proto.tx_frames")
                obs_metrics.inc("proto.tx_bytes", len(frame))
                return True
            except OSError:
                self._closed = True
                debug_event("sockets", f"send to {self.address} failed; "
                                       f"marking connection dead")
                return False

    def close(self, shutdown: bool = True) -> None:
        """Close this connection.

        ``shutdown=True`` (the owner's close) tears the TCP stream down
        for both peers.  ``shutdown=False`` only drops THIS process's
        descriptor — the mode a forked child must use on *inherited*
        connections (paper Fig. 5): ``shutdown(2)`` acts on the shared
        socket, so a child shutting down its copies would sever the
        parent's live client session.

        The inherited-close mode must also never touch the inherited
        ``_send_lock``: the parent's listener thread may have been
        mid-:meth:`send` (lock held) at the fork moment, and no thread
        in the single-threaded child will ever release its copy.  The
        flag flip is safe without the lock — there is no one to race.
        """
        if shutdown:
            with self._send_lock:
                if self._closed:
                    return
                self._closed = True
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        else:
            if self._closed:
                return
            self._closed = True
            self._send_lock = threading.Lock()
        try:
            self.sock.close()
        except OSError:
            pass


class ListenEndpoint:
    """The accept socket.  Port 0 (default) picks an ephemeral port."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        # Close-on-exec, explicitly: an exec'd debuggee must carry zero
        # debugger descriptors into its new image (see accept()).
        self.sock.set_inheritable(False)
        self.sock.bind((host, port))
        self.sock.listen(16)
        self.port = self.sock.getsockname()[1]
        self._closed = False

    def fileno(self) -> int:
        return self.sock.fileno()

    def accept(self) -> Connection:
        faults.maybe_fault("server.listener.accept")
        sock, address = self.sock.accept()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Exec survival: PEP 446 makes Python sockets non-inheritable by
        # default, but the do-no-harm invariant (a debuggee that execs
        # must not leak debugger fds into its successor image) is too
        # important to rest on a default someone can flip — pin it.
        sock.set_inheritable(False)
        return Connection(sock, address)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.sock.close()
        except OSError:
            pass


def connect_endpoint(host: str, port: int, role: str, pid: int,
                     session_token: str, timeout: float = 5.0,
                     program: Optional[str] = None,
                     refused_grace: float = 0.1,
                     resume_token: Optional[str] = None) -> socket.socket:
    """Client side: dial the server and send the role hello.

    Returns the connected socket; the caller reads the hello_ack.

    A refused connect is retried with exponential backoff, but only for
    *refused_grace* seconds.  A live debug server never refuses: a
    forked child's endpoint is bound and listening from fork phase A
    on, so a dial that beats the child's listener thread waits in the
    accept backlog instead.  The short grace only absorbs transients
    such as a watchdog moving the listener to a fresh port.  Past it
    the port is dead and the refusal propagates promptly (a watcher
    chewing through stale port records must not stall on each one).
    Injected EINTR (point ``net.connect``) is retried until *timeout*.
    """
    if role not in protocol.VALID_ROLES:
        raise ProtocolError(f"invalid role {role!r}")
    start = time.monotonic()
    deadline = start + timeout
    grace_end = start + min(refused_grace, timeout)
    delay = 0.01
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ConnectionRefusedError(
                f"could not connect to {host}:{port} within {timeout:.1f}s")
        try:
            faults.maybe_fault("net.connect")
            sock = socket.create_connection((host, port),
                                            timeout=remaining)
            break
        except InterruptedError:
            continue
        except (ConnectionRefusedError, ConnectionResetError):
            if time.monotonic() + delay >= grace_end:
                raise
            time.sleep(delay)
            delay = min(delay * 2, 0.05)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    hello = protocol.make_hello(role=role, pid=pid,
                                session_token=session_token,
                                program=program,
                                resume_token=resume_token)
    faults.maybe_fault("net.hello.send")
    sock.sendall(encode_frame(hello))
    return sock
