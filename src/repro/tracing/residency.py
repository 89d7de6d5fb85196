"""Pending breakpoints: which source files have code in this process.

A line breakpoint in a file that no loaded code came from cannot fire,
so while every breakpoint is of that kind the main thread may keep its
trace hook dropped (see :mod:`repro.tracing.backends`) — gdb calls such
breakpoints *pending*.  A file is **resident** once any of these holds:

* it is the ``__file__`` of a module in ``sys.modules``;
* a frame of it is on a live thread stack;
* the audit hook saw code from it: ``compile`` (filename), ``exec``
  (``code.co_filename``), ``code.__new__`` (filename; ``code.replace``
  raises it too) or ``marshal.loads`` (a bytes search for a pending
  file's ``os.sep`` + basename, so it can only err toward arming);
* the one heap scan found a function, generator or frame of it.

One way in is not covered: code that ``marshal.loads`` brings in while
its file has no breakpoint, is never passed to ``exec`` (an import
always is) and comes after the heap scan has run.  ``marshal.loads``
carries bytes, not a filename, so nothing is recorded for it; a later
breakpoint in that file shows as pending and the demoted main thread
does not stop there (other threads still do).

Residency is per interpreter and sticky: a file never turns pending
again, and a forked child inherits what its parent knew.  The heap scan
(``gc.get_objects()``: ~15 ms in a fresh process, ~100 ms under a test
runner) runs at most once per interpreter and only when the cheap
checks leave a breakpoint file unaccounted for; the audit hook is
installed before it and covers every compile after it.

The audit hook cannot be removed (PEP 578), so the first
:meth:`TraceEngine.install` adds it, never an import.  Once no engine is
installed it does no debugger work — it arms nothing, signals nothing
and holds no engine — and only notes the filename of newly compiled
code, one set add, so the single scan stays complete for a later
engine.  That state lives in one module-level :data:`RESIDENCY`, because
the hook and the interpreter's code are process-wide too.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import traceback
import types
from typing import Dict, FrozenSet, Iterable, Set, Tuple

from ..util.ringlog import debug_event
from .breakpoints import canonical_file

#: Audit events that can bring new code into the process.
WATCHED_EVENTS = frozenset(("compile", "exec", "code.__new__",
                            "marshal.loads"))

#: Heap object type -> attribute holding its code object (the scan).
_CODE_ATTRS = {
    types.FunctionType: "__code__",
    types.GeneratorType: "gi_code",
    types.CoroutineType: "cr_code",
    types.AsyncGeneratorType: "ag_code",
    types.FrameType: "f_code",
}


class Residency:
    """Per-interpreter record of which source files have code here."""

    def __init__(self) -> None:
        #: serialises residency queries with the hook's "now resident"
        #: updates and the engines' flag recompute (see
        #: TraceEngine.refresh_quiet); replaced in a forked child.
        self.lock = threading.RLock()
        #: raw filenames the audit hook saw; canonicalised only when a
        #: breakpoint asks, so the hook itself stays one set add.
        self._seen: Set[str] = set()
        #: canonical paths known to have code here (sticky).
        self._resident: Set[str] = set()
        self._canonical: Dict[str, str] = {}
        self._scanned = False
        self._hooked = False
        #: installed engines the hook reports to; rebound, read lock-free.
        self._engines: Tuple[object, ...] = ()
        #: pending canonical path -> os.sep + its basename as bytes (for
        #: marshal.loads); rebound, read lock-free by the hook.
        self._pending: Dict[str, bytes] = {}

    # -- engine lifecycle -------------------------------------------------

    def attach(self, engine) -> None:
        """Engine install: report newly resident files to *engine*."""
        with self.lock:
            if engine not in self._engines:
                self._engines += (engine,)
            if not self._hooked:
                self._hooked = True
                sys.addaudithook(_audit_hook)
                os.register_at_fork(after_in_child=self.reset_after_fork)

    def detach(self, engine) -> None:
        """Engine uninstall or detach: stop reporting to *engine*."""
        with self.lock:
            self._engines = tuple(e for e in self._engines
                                  if e is not engine)
            if not self._engines:
                self._pending = {}

    def reset_after_fork(self) -> None:
        """Child side: the lock may have been held by a thread that did
        not survive the fork; replace it, never acquire it."""
        self.lock = threading.RLock()

    # -- queries ----------------------------------------------------------

    def pending(self, files: Iterable[str]) -> FrozenSet[str]:
        """The subset of *files* (canonical paths) with no code here.

        Publishes the candidates for the audit hook *before* checking
        what it saw, so a compile racing this call is caught by one side
        or the other.
        """
        with self.lock:
            todo = {f for f in files if f not in self._resident}
            if todo:
                self._watch(todo)
                self._absorb(self._cheap_filenames())
                todo -= self._resident
            if todo and not self._scanned:
                self._scanned = True
                self._absorb(_heap_filenames())
                todo -= self._resident
            return frozenset(todo)

    def _watch(self, paths: Set[str]) -> None:
        """Add *paths* to what the hook matches.  The map only grows
        until a path turns resident (or the last engine detaches): an
        extra entry costs one needless refresh, a missing one a missed
        breakpoint — and several engines may be watching at once."""
        pending = dict(self._pending)
        for path in paths:
            pending.setdefault(path, (os.sep + os.path.basename(path))
                               .encode("utf-8", "surrogatepass"))
        self._pending = pending

    def _unwatch_resident(self) -> None:
        pending = self._pending
        if any(path in self._resident for path in pending):
            self._pending = {path: base for path, base in pending.items()
                             if path not in self._resident}

    def _cheap_filenames(self) -> Set[str]:
        names = set(self._seen)
        for module in list(sys.modules.values()):
            filename = getattr(module, "__file__", None)
            if isinstance(filename, str):
                names.add(filename)
        for frame in sys._current_frames().values():
            while frame is not None:
                names.add(frame.f_code.co_filename)
                frame = frame.f_back
        return names

    def _absorb(self, raw_names: Iterable[str]) -> None:
        for raw in raw_names:
            if not raw.startswith("<"):
                self._resident.add(self._canonical_of(raw))
        self._unwatch_resident()

    def _canonical_of(self, raw: str) -> str:
        path = self._canonical.get(raw)
        if path is None:
            path = canonical_file(raw)
            self._canonical[raw] = path
        return path

    # -- audit hook body --------------------------------------------------

    def saw(self, event: str, args: tuple) -> None:
        """One watched audit event (see :func:`_audit_hook`)."""
        if event == "marshal.loads":
            pending = self._pending
            if not pending:
                return
            data = args[0]
            if not isinstance(data, (bytes, bytearray)):
                data = bytes(data)
            hits = [path for path, base in pending.items() if base in data]
            if hits:
                self._became_resident(hits)
            return
        raw = (getattr(args[0], "co_filename", None) if event == "exec"
               else args[1])
        if not isinstance(raw, str):
            try:
                raw = os.fsdecode(raw)
            except TypeError:
                return
        if raw.startswith("<"):
            return
        self._seen.add(raw)
        pending = self._pending
        if pending:
            path = self._canonical_of(raw)
            if path in pending:
                self._became_resident([path])

    def _became_resident(self, paths) -> None:
        with self.lock:
            self._resident.update(paths)
            self._unwatch_resident()
            engines = self._engines
        for engine in engines:
            engine.refresh_quiet()


def _heap_filenames() -> Set[str]:
    """Every code-carrying heap object's filename: the one full scan."""
    names = set()
    for obj in gc.get_objects():
        attr = _CODE_ATTRS.get(type(obj))
        if attr is not None:
            names.add(getattr(obj, attr).co_filename)
    return names


#: The one residency record of this interpreter.
RESIDENCY = Residency()


def _audit_hook(event, args):
    """Runs on every audited event of every thread, forever: filter to
    the code-loading events before anything else (tools/lint_hotpath.py
    rejects obs lookups and lock acquisition ahead of this return)."""
    if event not in WATCHED_EVENTS:
        return
    try:
        RESIDENCY.saw(event, args)
    except Exception:  # noqa: BLE001 - a raising hook fails the compile
        debug_event("tracing", "residency audit hook failed\n"
                    + traceback.format_exc())
