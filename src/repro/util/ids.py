"""Identifier helpers for sessions, views and units of execution.

The paper (section 2) uses *UE* (unit of execution) as the generic term for
a process or a thread.  Dionea needs stable, comparable identifiers for

* debuggee *processes* (one debug server each, one session each), and
* debuggee *threads* within a process (one debug view each).

A :class:`UEId` therefore couples a PID with a thread id.  Thread ids are
only meaningful inside their own process, so equality always compares the
pair.  Session and view ids are small monotonic tokens generated per
client; they survive ``fork`` in the parent but are deliberately
regenerated in the child (paper section 5.3, problem 2: inherited metadata
describes the parent and must be rewritten).
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True, order=True)
class UEId:
    """Identity of a unit of execution: a (process, thread) pair."""

    pid: int
    tid: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"ue:{self.pid}.{self.tid}"

    @property
    def is_process_main(self) -> bool:
        """True when this UE denotes the process itself (tid == 0 sentinel)."""
        return self.tid == 0

    @classmethod
    def current(cls) -> "UEId":
        """The UE of the calling thread."""
        return cls(os.getpid(), threading.get_ident())

    @classmethod
    def process(cls, pid: int | None = None) -> "UEId":
        """A UE denoting a whole process (used for process-level commands)."""
        return cls(os.getpid() if pid is None else pid, 0)


class IdAllocator:
    """Thread-safe monotonic id allocator with a textual prefix.

    Used for session ids (``s1, s2, ...``) and view ids (``v1, v2, ...``).
    A fresh allocator is installed in forked children so child ids never
    collide with ids the parent already handed out *within the child's own
    tables* — the client namespaces ids per connection, so global
    uniqueness is not required.
    """

    def __init__(self, prefix: str):
        self._prefix = prefix
        self._counter = itertools.count(1)
        self._lock = threading.Lock()

    def next(self) -> str:
        with self._lock:
            return f"{self._prefix}{next(self._counter)}"

    def reset(self) -> None:
        """Restart numbering (called from the child-side fork handler)."""
        with self._lock:
            self._counter = itertools.count(1)


#: name prefix of every debugger infrastructure thread (listener,
#: watchdog, reactor, watcher, sandbox ...): such a thread is never a
#: debuggee UE, not even before its first line clears its trace hook.
INFRA_THREAD_PREFIX = "dionea-"


def is_infra_thread(thread: Optional[threading.Thread] = None) -> bool:
    """Is *thread* (default: the calling thread) a debugger thread?"""
    if thread is None:
        thread = threading.current_thread()
    return thread.name.startswith(INFRA_THREAD_PREFIX)


def untrace_current_thread() -> None:
    """Opt the calling thread out of interpreter tracing.

    Debugger infrastructure threads (listener, session reader, event
    dispatcher, port-file watcher) are not debuggee UEs: they must never
    park at a breakpoint or a suspend-all sweep, and tracing them would
    only add overhead.  Their frames inside *our* packages are already
    skipped by the engine, but the stdlib frames they call into
    (threading, queue, selectors) are not — so each such thread clears
    its own trace function as its first action.
    """
    import sys
    sys.settrace(None)


def describe_ue(ue: UEId, main_thread_ident: int | None = None) -> str:
    """Human-readable UE label, matching the process/thread tree of Fig. 2."""
    if ue.is_process_main:
        return f"process {ue.pid}"
    if main_thread_ident is not None and ue.tid == main_thread_ident:
        return f"process {ue.pid} / main thread"
    return f"process {ue.pid} / thread {ue.tid}"
