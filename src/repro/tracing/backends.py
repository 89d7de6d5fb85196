"""Trace backends: the seam between dispatch policy and the interpreter.

The engine decides *what* to do at an event (stop, step, decline); a
backend decides *how* events reach the engine at all:

* :class:`SettraceBackend` — ``sys.settrace``/``threading.settrace``,
  the paper's mechanism and the default everywhere.  Its key trick is
  the armed/disarmed hook lifecycle: on CPython 3.11+ the mere presence
  of a per-thread trace function disables the specializing interpreter
  (PEP 659), so a "cheap" Python-level dispatch still costs >30 % on
  compute-bound code.  While the engine is idle — quiet, or only
  pending line breakpoints (see :mod:`repro.tracing.residency`) — the
  main thread therefore *drops its hook entirely* from inside the
  dispatch, and is re-armed via a signal when a feature goes live
  (``sys.settrace`` is per-thread and only a signal handler runs code in
  the main thread on demand); a re-arm raised on the main thread itself
  (an import there making a breakpoint file resident) is synchronous.
  Non-main threads keep their hooks so asynchronous suspend keeps
  working unchanged.
* :class:`MonitoringBackend` — PEP 669 ``sys.monitoring`` (3.12+),
  auto-detected and selectable via ``DIONEA_TRACE_BACKEND``.  Events are
  registered per tool and disabled wholesale while quiet; per-code-object
  irrelevance is expressed by returning ``sys.monitoring.DISABLE``,
  which the interpreter caches until ``restart_events()``.

Both are driven through the same narrow interface (install/uninstall/
sync/events_invalidated/reinstall_after_fork), which is also how the
fork handler phases A/B/C reach the tracing layer: ``engine.disable()``
and ``engine.enable()`` call :meth:`TraceBackend.sync`, and the child's
``engine.reset_after_fork()`` calls :meth:`reinstall_after_fork`.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from typing import Optional

from ..util.errors import TraceError

#: Environment knobs (read once, at engine construction).
BACKEND_ENV = "DIONEA_TRACE_BACKEND"
FASTPATH_ENV = "DIONEA_TRACE_FASTPATH"

#: The re-arm signal.  SIGURG is the conventional "free" signal (ignored
#: by default, unused by the runtime) and Python signal handlers always
#: execute in the main thread — exactly the thread whose trace hook was
#: dropped and cannot be restored from anywhere else.
REARM_SIGNAL = getattr(signal, "SIGURG", None)


def fastpath_enabled(override: Optional[bool] = None) -> bool:
    """The per-code fast path toggle (``DIONEA_TRACE_FASTPATH``)."""
    if override is not None:
        return bool(override)
    raw = os.environ.get(FASTPATH_ENV, "1").strip().lower()
    return raw not in ("0", "off", "false", "no")


class TraceBackend:
    """Interface every backend implements (default impls are no-ops)."""

    name = "abstract"
    #: whether asynchronous suspend / stepping must inject per-frame
    #: ``f_trace`` functions (settrace) or sees every line globally
    #: while armed (monitoring).
    needs_frame_injection = True

    @staticmethod
    def available() -> bool:
        return False

    def install(self, engine) -> None:
        raise NotImplementedError

    def uninstall(self) -> None:
        raise NotImplementedError

    def sync(self) -> None:
        """Reconcile the event source with the engine's armed/quiet/
        enabled flags.  Called on every quiet-flag edge and around the
        fork phases (A disables, B/C enable)."""

    def events_invalidated(self) -> None:
        """A breakpoint mutation invalidated the LineTable."""

    def reinstall_after_fork(self) -> None:
        """Child fork phase C: re-assert event delivery for the one
        surviving thread, which is now the main thread."""


class SettraceBackend(TraceBackend):
    """Default backend: per-thread trace hooks with main-thread demotion."""

    name = "settrace"
    needs_frame_injection = True

    def __init__(self) -> None:
        self.engine = None
        self._prev_handler = None
        self._signal_installed = False

    @staticmethod
    def available() -> bool:
        return True

    def install(self, engine) -> None:
        self.engine = engine
        engine._main_ident = threading.main_thread().ident
        threading.settrace(engine._global_dispatch)
        sys.settrace(engine._global_dispatch)
        # Demotion needs the re-arm signal handler, and signal handlers
        # can only be installed from the main thread.  When the engine is
        # installed from elsewhere (the stress runner's worker threads),
        # every thread simply keeps its hook — correct, just slower.
        self._signal_installed = False
        if (engine._fastpath and REARM_SIGNAL is not None
                and threading.get_ident() == engine._main_ident):
            try:
                self._prev_handler = signal.signal(
                    REARM_SIGNAL, self._rearm_handler)
                self._signal_installed = True
            except (ValueError, OSError):  # non-main thread, exotic host
                self._prev_handler = None
        engine._demotable = self._signal_installed

    def uninstall(self) -> None:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
        if self._signal_installed:
            try:
                signal.signal(REARM_SIGNAL,
                              self._prev_handler or signal.SIG_DFL)
            except (ValueError, OSError):
                pass
            self._signal_installed = False
        engine = self.engine
        if engine is not None:
            engine._demotable = False
            engine._main_demoted = False

    # -- arming ------------------------------------------------------------

    def sync(self) -> None:
        """Re-arm the demoted main thread when it stops being idle.

        Idle-direction edges need no action here: demotion is lazy (the
        dispatch drops the hook at the next call event it sees).
        """
        engine = self.engine
        if engine is None or not engine._installed or not engine._enabled:
            return
        if engine._main_idle or not engine._main_demoted:
            return
        if threading.get_ident() == engine._main_ident:
            sys.settrace(engine._global_dispatch)
            engine._main_demoted = False
        else:
            # Only the main thread can restore its own hook; interrupt it.
            try:
                os.kill(os.getpid(), REARM_SIGNAL)
            except OSError:  # pragma: no cover - kill(self) cannot fail
                pass

    def _rearm_handler(self, signum, frame) -> None:
        """Runs in the main thread: restore the dropped trace hook."""
        engine = self.engine
        if (engine is not None and engine._installed
                and engine._main_demoted and not engine._main_idle):
            sys.settrace(engine._global_dispatch)
            engine._main_demoted = False
            # A global hook only fires at the next *call* event.  A
            # pending asynchronous suspend is aimed at lines too, so arm
            # the interrupted stack the same way request_suspend() arms
            # other threads.  Plain breakpoint arming deliberately does
            # NOT inject: a breakpoint set mid-frame fires at the next
            # call event, exactly as it always has.
            if engine.controller.has_pending and frame is not None:
                engine._inject_frames(frame)
        prev = self._prev_handler
        if callable(prev):
            prev(signum, frame)

    def events_invalidated(self) -> None:
        """No interpreter-side event cache with settrace."""

    def reinstall_after_fork(self) -> None:
        engine = self.engine
        # "register the thread that called fork as the main thread"
        # (paper phase C): it is the only thread left, and it is the one
        # the re-arm signal will reach from now on.
        engine._main_ident = threading.get_ident()
        threading.settrace(engine._global_dispatch)
        if engine._fastpath and engine._demotable and engine._main_idle:
            # Idle child: stay (or become) demoted; the dispatch would
            # drop the hook at the first call event anyway.
            sys.settrace(None)
            engine._main_demoted = True
        else:
            sys.settrace(engine._global_dispatch)
            engine._main_demoted = False


class MonitoringBackend(TraceBackend):
    """PEP 669 backend (CPython 3.12+): per-tool event sets.

    While quiet the tool's event mask is zero — no callbacks at all, no
    per-thread hook, no specializer deopt.  While armed, per-code
    irrelevance returns ``sys.monitoring.DISABLE`` so the interpreter
    stops delivering that (event, code) pair until ``restart_events()``,
    which :meth:`events_invalidated` issues on every breakpoint change.
    """

    name = "monitoring"
    needs_frame_injection = False

    def __init__(self) -> None:
        self.engine = None
        self._mon = None
        self._tool = None

    @staticmethod
    def available() -> bool:
        return hasattr(sys, "monitoring")

    def install(self, engine) -> None:
        self.engine = engine
        mon = sys.monitoring
        self._mon = mon
        self._tool = mon.DEBUGGER_ID
        mon.use_tool_id(self._tool, "dionea")
        events = mon.events
        mon.register_callback(self._tool, events.PY_START, self._on_start)
        mon.register_callback(self._tool, events.LINE, self._on_line)
        mon.register_callback(self._tool, events.PY_RETURN, self._on_return)
        mon.register_callback(self._tool, events.RAISE, self._on_raise)
        engine._main_ident = threading.main_thread().ident
        engine._demotable = False  # nothing to demote: no thread hooks
        self.sync()

    def uninstall(self) -> None:
        mon, tool = self._mon, self._tool
        if mon is None:
            return
        try:
            mon.set_events(tool, 0)
            events = mon.events
            for kind in (events.PY_START, events.LINE,
                         events.PY_RETURN, events.RAISE):
                mon.register_callback(tool, kind, None)
            mon.free_tool_id(tool)
        except Exception:  # noqa: BLE001 - teardown must not raise
            pass
        self._mon = self._tool = None

    def sync(self) -> None:
        mon, engine = self._mon, self.engine
        if mon is None or engine is None:
            return
        events = mon.events
        if not engine._installed or not engine._enabled or engine._quiet:
            mon.set_events(self._tool, 0)
            return
        mask = events.PY_START | events.PY_RETURN | events.LINE
        if engine._exception_breaks:
            mask |= events.RAISE
        mon.set_events(self._tool, mask)
        mon.restart_events()

    def events_invalidated(self) -> None:
        mon = self._mon
        if mon is not None:
            mon.restart_events()

    def reinstall_after_fork(self) -> None:
        engine = self.engine
        engine._main_ident = threading.get_ident()
        self.sync()

    # -- callbacks ---------------------------------------------------------

    def _on_start(self, code, instruction_offset):
        engine = self.engine
        if not engine._enabled or not engine._installed:
            return None
        if engine._should_skip(code.co_filename):
            return self._mon.DISABLE
        engine.event_count += 1
        if engine._quiet:
            return None
        if engine._code_fastpath_ok and not engine._lt_probe(code):
            engine.fastpath_hits += 1
            return self._mon.DISABLE
        engine._slow_dispatch(sys._getframe(1), "call", None)
        return None

    def _on_line(self, code, line_number):
        engine = self.engine
        if not engine._enabled or not engine._installed:
            return None
        if engine._should_skip(code.co_filename):
            return self._mon.DISABLE
        if engine._quiet:
            return None
        if engine._code_fastpath_ok and not engine._lt_probe(code):
            engine.fastpath_hits += 1
            return self._mon.DISABLE
        engine._local_dispatch(sys._getframe(1), "line", None)
        return None

    def _on_return(self, code, instruction_offset, retval):
        engine = self.engine
        if not engine._enabled or not engine._installed:
            return None
        if engine._should_skip(code.co_filename):
            return self._mon.DISABLE
        if engine._quiet:
            return None
        engine._local_dispatch(sys._getframe(1), "return", retval)
        return None

    def _on_raise(self, code, instruction_offset, exception):
        engine = self.engine
        if (not engine._enabled or not engine._installed
                or not engine._exception_breaks):
            return None
        if engine._should_skip(code.co_filename):
            return None
        engine._local_dispatch(sys._getframe(1), "exception",
                               (type(exception), exception, None))
        return None


_BACKENDS = {
    SettraceBackend.name: SettraceBackend,
    MonitoringBackend.name: MonitoringBackend,
}


def select_backend(name: Optional[str] = None) -> TraceBackend:
    """Build the backend *name* asks for, or auto-detect.

    Resolution order: explicit argument, then ``DIONEA_TRACE_BACKEND``,
    then ``auto`` (monitoring when the interpreter has PEP 669, else
    settrace).
    """
    requested = (name or os.environ.get(BACKEND_ENV, "auto")
                 or "auto").strip().lower()
    if requested == "auto":
        if MonitoringBackend.available():
            return MonitoringBackend()
        return SettraceBackend()
    cls = _BACKENDS.get(requested)
    if cls is None:
        raise TraceError(
            f"unknown trace backend {requested!r}; "
            f"expected one of {sorted(_BACKENDS)} or 'auto'")
    if not cls.available():
        raise TraceError(
            f"trace backend {requested!r} is unavailable on "
            f"Python {sys.version_info.major}.{sys.version_info.minor}")
    return cls()
