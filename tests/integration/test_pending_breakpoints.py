"""Pending breakpoints: the main thread stays demoted until a breakpoint
file's code is loaded, and every way of loading it still stops.

A line breakpoint whose file has no code in the process is *pending*
(gdb's ``<PENDING>``).  While every breakpoint pends, the settrace
backend's main thread drops its hook exactly as when quiet; the
residency audit hook re-arms it when code of a breakpoint file appears —
synchronously on the main thread, so a module-level breakpoint fires
during the import itself, and by SIGURG from any other thread.
"""

import importlib
import marshal
import os
import runpy
import signal
import subprocess
import sys
import textwrap
import threading
import time
import types

import pytest

from repro.client import DebugClient
from repro.tracing.engine import TraceEngine
from repro.tracing.residency import RESIDENCY

from tests.unit.test_engine import BP_LINE, SRC, Scripted, loop_sum

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGURG"),
    reason="main-thread demotion needs the SIGURG re-arm channel")

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

MODULE_SOURCE = textwrap.dedent("""\
    def work(n):
        total = 0
        for i in range(n):
            total += i
        return total

    LOADED = work(3)
    """)
#: the body line of ``work`` and the module-level call.
FUNC_LINE = 4
MODULE_LINE = 7


@pytest.fixture
def module_file(tmp_path, monkeypatch):
    """A fresh importable module file, never loaded in this process."""
    name = f"pending_{os.getpid()}_{time.monotonic_ns()}"
    path = tmp_path / f"{name}.py"
    path.write_text(MODULE_SOURCE)
    monkeypatch.syspath_prepend(str(tmp_path))
    yield name, str(path)
    sys.modules.pop(name, None)


@pytest.fixture
def script():
    scripted = Scripted(engine=TraceEngine(park_timeout=5.0,
                                           backend="settrace",
                                           fastpath=True))
    scripted.engine.install()
    yield scripted
    scripted.engine.uninstall()


def demoted_with_pending(engine, path, line):
    """Set a breakpoint on *path* and prove the main thread let go."""
    bp = engine.breakpoints.add(path, line)
    assert engine.pending_breakpoint_files() == {bp.file}
    loop_sum(2)  # any call event lets the dispatch demote
    assert sys.gettrace() is None, "pending breakpoint kept the hook"
    assert engine._main_demoted  # noqa: SLF001
    assert not engine._quiet  # noqa: SLF001 - pending is not quiet
    return bp


def stop_lines(script):
    return [(s.reason, s.frames[0].line) for s in script.stops]


class TestPendingToResident:
    def test_import_hits_module_level_line_during_import(
            self, script, module_file):
        name, path = module_file
        demoted_with_pending(script.engine, path, MODULE_LINE)
        module = importlib.import_module(name)
        assert module.LOADED == 3
        assert stop_lines(script) == [("breakpoint", MODULE_LINE)]
        assert script.engine.pending_breakpoint_files() == frozenset()

    def test_import_then_function_line(self, script, module_file):
        name, path = module_file
        demoted_with_pending(script.engine, path, FUNC_LINE)
        module = importlib.import_module(name)
        assert module.work(2) == 1
        # three iterations at import time, two in the call
        assert stop_lines(script) == [("breakpoint", FUNC_LINE)] * 5

    def test_exec_compile(self, script, module_file):
        _name, path = module_file
        demoted_with_pending(script.engine, path, FUNC_LINE)
        namespace = {}
        exec(compile(MODULE_SOURCE, path, "exec"), namespace)
        assert namespace["LOADED"] == 3
        assert stop_lines(script) == [("breakpoint", FUNC_LINE)] * 3

    def test_code_replace_into_function(self, script, module_file):
        _name, path = module_file
        elsewhere = compile(MODULE_SOURCE, "<never-on-disk>", "exec")
        work_code = next(c for c in elsewhere.co_consts
                         if isinstance(c, types.CodeType))
        demoted_with_pending(script.engine, path, FUNC_LINE)
        work = types.FunctionType(work_code.replace(co_filename=path), {})
        assert work(2) == 1
        assert stop_lines(script) == [("breakpoint", FUNC_LINE)] * 2

    def test_marshal_loads_without_exec(self, script, module_file,
                                        tmp_path):
        """No compile, exec or code.__new__ event: only the bytes match
        on marshal.loads can re-arm the main thread."""
        _name, path = module_file
        cfile = tmp_path / "elsewhere.pyc"
        subprocess.run(
            [sys.executable, "-c", "import py_compile, sys; "
             "py_compile.compile(sys.argv[1], cfile=sys.argv[2], "
             "doraise=True)", path, str(cfile)], check=True, timeout=30)
        demoted_with_pending(script.engine, path, FUNC_LINE)
        module_code = marshal.loads(cfile.read_bytes()[16:])
        work_code = next(c for c in module_code.co_consts
                         if isinstance(c, types.CodeType))
        work = types.FunctionType(work_code, {})
        assert work(2) == 1
        assert stop_lines(script) == [("breakpoint", FUNC_LINE)] * 2

    def test_marshal_match_needs_a_path_separator(self, script, tmp_path):
        """``a.py`` inside ``data.py`` is no sign of ``.../a.py``."""
        path = str(tmp_path / "a.py")
        demoted_with_pending(script.engine, path, 1)
        marshal.loads(marshal.dumps(os.path.join("elsewhere", "data.py")))
        assert script.engine.pending_breakpoint_files() != frozenset()
        loop_sum(2)
        assert sys.gettrace() is None

    def test_runpy_run_path(self, script, module_file):
        _name, path = module_file
        demoted_with_pending(script.engine, path, MODULE_LINE)
        assert runpy.run_path(path)["LOADED"] == 3
        assert stop_lines(script) == [("breakpoint", MODULE_LINE)]

    def test_non_main_thread_import_rearms_main_thread(
            self, script, module_file, waiter):
        name, path = module_file
        demoted_with_pending(script.engine, path, FUNC_LINE)
        loaded = []
        thread = threading.Thread(
            target=lambda: loaded.append(importlib.import_module(name)))
        thread.start()
        thread.join(10)
        assert not thread.is_alive() and loaded
        # The import ran on another thread: SIGURG re-arms this one.
        waiter(lambda: sys.gettrace() is not None,
               message="main thread re-arm")
        assert len(script.stops) == 3  # the import's work(3), off-main
        assert loaded[0].work(2) == 1
        this_test = sys._getframe().f_code.co_name
        on_main = script.stops[3:]
        assert len(on_main) == 2
        assert all(any(f.function == this_test for f in stop.frames)
                   for stop in on_main)

    def test_remove_and_clear_while_pending(self, script, module_file):
        name, path = module_file
        engine = script.engine
        bp = demoted_with_pending(engine, path, FUNC_LINE)
        engine.breakpoints.remove(bp.id)
        assert engine._quiet and engine._main_idle  # noqa: SLF001
        demoted_with_pending(engine, path, FUNC_LINE)
        engine.breakpoints.clear()
        assert engine._quiet and engine._main_idle  # noqa: SLF001
        assert importlib.import_module(name).work(2) == 1
        assert script.stops == []
        assert sys.gettrace() is None

    def test_loaded_file_arms_as_before(self, script):
        engine = script.engine
        engine.breakpoints.add(SRC, BP_LINE)
        assert engine.pending_breakpoint_files() == frozenset()
        assert not engine._main_idle  # noqa: SLF001
        assert loop_sum(2) == 1
        assert sys.gettrace() is not None
        assert stop_lines(script) == [("breakpoint", BP_LINE)] * 2

    def test_one_resident_file_arms_the_main_thread(
            self, script, module_file):
        _name, path = module_file
        engine = script.engine
        demoted_with_pending(engine, path, FUNC_LINE)
        engine.breakpoints.add(SRC, BP_LINE)
        assert engine.pending_breakpoint_files() != frozenset()
        assert not engine._main_idle  # noqa: SLF001
        assert loop_sum(1) == 0
        assert stop_lines(script) == [("breakpoint", BP_LINE)]

    def test_function_breakpoint_keeps_armed_behaviour(
            self, script, module_file):
        _name, path = module_file
        engine = script.engine
        engine.breakpoints.add(path, FUNC_LINE)
        engine.breakpoints.add_function("never_called_anywhere")
        assert not engine._main_idle  # noqa: SLF001
        loop_sum(1)
        assert sys.gettrace() is not None


def _wait_exit(pid, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    raise AssertionError(f"child {pid} hung")


@pytest.mark.forks
class TestAcrossProcesses:
    def test_forked_child_import_stops(self, script, module_file):
        name, path = module_file
        demoted_with_pending(script.engine, path, FUNC_LINE)
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                script.engine.reset_after_fork()
                still_demoted = sys.gettrace() is None
                importlib.import_module(name)
                if still_demoted and len(script.stops) == 3:
                    status = 0
            finally:
                os._exit(status)
        assert _wait_exit(pid) == 0
        assert script.stops == []  # the parent never loaded the file

    def test_lock_held_at_fork_does_not_wedge_child(
            self, script, module_file):
        name, path = module_file
        demoted_with_pending(script.engine, path, FUNC_LINE)
        held, release = threading.Event(), threading.Event()

        def hold():
            with RESIDENCY.lock:
                held.set()
                release.wait(10)

        holder = threading.Thread(target=hold)
        holder.start()
        assert held.wait(5)
        try:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    script.engine.reset_after_fork()
                    script.engine.breakpoints.add(SRC, BP_LINE)
                    importlib.import_module(name)
                    if len(script.stops) == 3:
                        status = 0
                finally:
                    os._exit(status)
        finally:
            release.set()
            holder.join(5)
        assert not holder.is_alive()
        assert _wait_exit(pid) == 0

    def test_pyc_import_in_subprocess(self, tmp_path):
        """A bytecode-cache import compiles nothing: marshal.loads and
        exec must re-arm on their own."""
        path = tmp_path / "cachedmod.py"
        path.write_text(MODULE_SOURCE)
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        subprocess.run([sys.executable, "-c", "import cachedmod"],
                       cwd=tmp_path, env=env, check=True, timeout=30)
        assert list((tmp_path / "__pycache__").glob("cachedmod.*.pyc"))
        probe = textwrap.dedent(f"""\
            import sys, threading
            from repro.tracing.control import ResumeCommand
            from repro.tracing.engine import TraceEngine
            engine = TraceEngine(park_timeout=5.0, backend="settrace",
                                 fastpath=True)
            stops = []
            def on_stop(ue, capture):
                stops.append(capture.frames[0].line)
                threading.Thread(target=engine.controller.release,
                                 args=(ue, ResumeCommand("continue"))).start()
            engine.on_stop = on_stop
            engine.install()
            engine.breakpoints.add({str(path)!r}, {FUNC_LINE})
            sum(range(2))
            demoted = sys.gettrace() is None
            import cachedmod
            engine.uninstall()
            print(demoted, cachedmod.__spec__.cached is not None, stops)
            """)
        out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                             env=env, capture_output=True, text=True,
                             timeout=30)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n")[0] == \
            f"True True {[FUNC_LINE] * 3}"


def test_code_loaded_before_install_is_resident(tmp_path):
    """Code the audit hook never saw: compiled before any engine was
    installed (the heap scan finds it), and compiled while no engine was
    installed (the hook still noted it).  Neither may pend — a stale
    "pending" would leave the main thread deaf to the breakpoint.  A
    fresh interpreter, because the scan runs once per interpreter."""
    before, between = tmp_path / "before.py", tmp_path / "between.py"
    probe = textwrap.dedent(f"""\
        import sys, threading
        from repro.tracing.control import ResumeCommand
        from repro.tracing.engine import TraceEngine
        SOURCE = "def work(n):\\n    for i in range(n):\\n        pass\\n"
        def load(path):
            namespace = {{}}
            exec(compile(SOURCE, path, "exec"), namespace)
            return namespace["work"]
        def engine_with_break(path):
            engine = TraceEngine(park_timeout=5.0, backend="settrace",
                                 fastpath=True)
            stops = []
            def on_stop(ue, capture):
                stops.append(capture.frames[0].line)
                threading.Thread(target=engine.controller.release,
                                 args=(ue, ResumeCommand("continue"))).start()
            engine.on_stop = on_stop
            engine.install()
            engine.breakpoints.add(path, 3)
            return engine, stops
        work = load({str(before)!r})
        engine, stops = engine_with_break({str(before)!r})
        pending = sorted(engine.pending_breakpoint_files())
        work(2)
        engine.uninstall()
        print(pending, stops)
        work = load({str(between)!r})
        engine, stops = engine_with_break({str(between)!r})
        pending = sorted(engine.pending_breakpoint_files())
        work(2)
        engine.uninstall()
        print(pending, stops)
        """)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=30)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[] [3, 3]", "[] [3, 3]"]


class TestPendingOverTheWire:
    def test_replies_report_pending(self, debug_pair, tmp_path):
        _server, _client, session = debug_pair
        absent = str(tmp_path / "not_loaded.py")
        reply = session.request("set_break", {"file": absent, "line": 3})
        assert reply["pending"] is True
        reply = session.request("set_break", {"file": SRC, "line": BP_LINE})
        assert reply["pending"] is False
        session.request("set_function_break", {"function": "f"})
        rows = {(r["file"], r["function"]): r["pending"]
                for r in session.request("breaks")}
        assert rows == {(absent, None): True, (SRC, None): False,
                        ("", "f"): False}

    def test_reattach_resync_ignores_pending(self, waiter, tmp_path):
        from repro.server import DebugServer
        server = DebugServer(program="t", client_loss_grace=5.0)
        server.start()
        try:
            client = DebugClient()
            session = client.attach("127.0.0.1", server.port)
            absent = str(tmp_path / "not_loaded.py")
            session.request("set_break", {"file": absent, "line": 3})
            session.close()
            waiter(lambda: server.grace_pending, message="grace window")
            reclaimed = client.reattach(session.pid)
            rows = reclaimed.request("breaks")
            assert [(r["file"], r["pending"]) for r in rows] == \
                [(absent, True)]
            client.close()
        finally:
            server.close()
