"""Integration: the command shell against a live debug server.

The textual interface of Fig. 2's command-shell window, driven end to
end: break/continue/step/p/vars/threads against a real traced thread.
"""

import os
import threading

import pytest

from repro.client import Shell
from repro.util.errors import CommandError

SRC = os.path.abspath(__file__)


def worker(limit):
    total = 0
    for i in range(limit):
        total += i * 10         # SHELL_BP_LINE
    return total


SHELL_BP_LINE = worker.__code__.co_firstlineno + 3


@pytest.fixture
def shell_env(debug_pair):
    server, client, session = debug_pair
    return Shell(client), server, client, session


class TestBreakpointCommands:
    def test_break_lists_and_clears(self, shell_env):
        shell, server, client, session = shell_env
        out = shell.execute(f"break {SRC}:{SHELL_BP_LINE}")
        assert "breakpoint 1 at" in out
        listing = shell.execute("breaks")
        assert f":{SHELL_BP_LINE}" in listing
        assert shell.execute("clear 1") == "cleared breakpoint 1"
        assert shell.execute("breaks") == "no breakpoints"

    def test_conditional_break_syntax(self, shell_env):
        shell, *_ = shell_env
        out = shell.execute(f"b {SRC}:{SHELL_BP_LINE}, i == 2")
        assert "breakpoint" in out
        listing = shell.execute("breaks")
        assert "if i == 2" in listing

    def test_tbreak(self, shell_env):
        shell, *_ = shell_env
        out = shell.execute(f"tbreak {SRC}:{SHELL_BP_LINE}")
        assert "temporary breakpoint" in out
        assert "temporary" in shell.execute("breaks")

    def test_pending_break_is_flagged(self, shell_env, tmp_path):
        shell, *_ = shell_env
        absent = tmp_path / "not_loaded.py"
        out = shell.execute(f"break {absent}:3")
        assert out.endswith("(pending)")
        assert "pending" not in shell.execute(f"break {SRC}:{SHELL_BP_LINE}")
        listing = shell.execute("breaks").splitlines()
        assert "pending" in listing[0] and "pending" not in listing[1]

    def test_breakf(self, shell_env):
        shell, *_ = shell_env
        out = shell.execute("breakf worker")
        assert "on function worker" in out


class TestStopAndInspect:
    def test_full_session_transcript(self, shell_env):
        shell, server, client, session = shell_env
        shell.execute(f"break {SRC}:{SHELL_BP_LINE}, i == 1")

        box = {}
        thread = threading.Thread(
            target=lambda: box.setdefault("r", worker(3)))
        thread.start()

        view = client.wait_for_stop(timeout=10)[0]
        view.wait_stopped(10)

        # p: evaluate in the stopped frame
        assert shell.execute("p total") == "0"
        assert shell.execute("p i * 100") == "100"
        error_out = shell.execute("p not_defined")
        assert error_out.startswith("error:")

        # vars: the Variables view
        vars_out = shell.execute("vars")
        assert "worker at" in vars_out
        assert "limit = 3" in vars_out

        # where/bt: stack listing
        stack_out = shell.execute("where")
        assert "#0 worker at" in stack_out

        # threads: processes-and-threads view with state
        threads_out = shell.execute("threads")
        assert "[stopped]" in threads_out
        assert "[running]" in threads_out

        # continue to completion
        shell.execute("clear 1")
        assert "continuing" in shell.execute("continue")
        thread.join(10)
        assert box["r"] == 30

    def test_step_via_shell(self, shell_env):
        shell, server, client, session = shell_env
        shell.execute(f"tbreak {SRC}:{SHELL_BP_LINE}")
        box = {}
        thread = threading.Thread(
            target=lambda: box.setdefault("r", worker(2)))
        thread.start()
        view = client.wait_for_stop(timeout=10)[0]
        view.wait_stopped(10)
        marker = view.stop_marker
        assert "stepping" in shell.execute("s")
        view.wait_stopped_after(marker, 10)
        assert "#0" in shell.execute("bt")
        shell.execute("c")
        thread.join(10)
        assert box["r"] == 10


class TestViewSwitching:
    def test_view_command_activates(self, shell_env):
        shell, server, client, session = shell_env
        shell.execute(f"tbreak {SRC}:{SHELL_BP_LINE}")
        box = {}
        thread = threading.Thread(
            target=lambda: box.setdefault("r", worker(2)))
        thread.start()
        view = client.wait_for_stop(timeout=10)[0]
        view.wait_stopped(10)
        out = shell.execute(f"view {os.getpid()} {view.ue.tid}")
        assert "->" in out  # rendered source with the stop marker
        assert client.active_view is view
        shell.execute("c")
        thread.join(10)

    def test_view_unknown_pid_fails(self, shell_env):
        shell, *_ = shell_env
        with pytest.raises((CommandError, Exception)):
            shell.execute("view 999999")

    def test_sessions_listing(self, shell_env):
        shell, server, client, session = shell_env
        out = shell.execute("sessions")
        assert f"pid {os.getpid()}" in out


class TestDeadlockCommand:
    def test_no_deadlocks_message(self, shell_env):
        shell, server, client, session = shell_env
        # plain DebugServer: detector not wired => not available
        out = shell.execute("deadlocks")
        assert out in ("deadlock detection not available",
                       "no deadlocks detected")
