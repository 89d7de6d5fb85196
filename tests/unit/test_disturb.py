"""Unit tests: disturb mode (repro.core.disturb)."""

from repro.core.disturb import DisturbMode
from repro.util.ids import UEId

MAIN = UEId(100, 1)
THREAD = UEId(100, 2)
CHILD = UEId(200, 7)


class TestPrimaryExemption:
    def test_first_checked_ue_becomes_primary_and_is_exempt(self):
        mode = DisturbMode(enabled=True)
        mode._seen.clear()  # noqa: SLF001 - bypass the enable snapshot
        assert mode.check(MAIN, None) is None  # learns the primary
        assert mode.check(MAIN, None) is None  # stays exempt

    def test_explicit_primary(self):
        mode = DisturbMode(enabled=True)
        mode.mark_primary(MAIN)
        assert mode.check(MAIN, None) is None
        assert mode.check(THREAD, None) == "disturb"

    def test_enable_snapshot_exempts_live_threads(self):
        """UEs alive at enable time are not 'newly created'."""
        import threading
        mode = DisturbMode()
        mode.mark_primary(MAIN)
        mode.set_enabled(True)
        me = UEId.current()
        assert mode.check(me, None) is None  # I existed before enable


class TestToggling:
    def test_disabled_by_default(self):
        mode = DisturbMode()
        mode.mark_primary(MAIN)
        assert not mode.enabled
        assert mode.check(THREAD, None) is None

    def test_enable_then_new_ue_disturbed(self):
        mode = DisturbMode()
        mode.mark_primary(MAIN)
        mode.set_enabled(True)
        assert mode.check(THREAD, None) == "disturb"

    def test_disable_stops_disturbing(self):
        mode = DisturbMode()
        mode.mark_primary(MAIN)
        mode.set_enabled(True)
        mode.set_enabled(False)
        assert mode.check(UEId(100, 3), None) is None


class TestSelectivity:
    def test_new_thread_vs_new_process(self):
        mode = DisturbMode(enabled=True, stop_new_threads=False)
        mode.mark_primary(MAIN)
        assert mode.check(THREAD, None) is None  # same pid: a thread
        assert mode.check(CHILD, None) == "disturb"  # other pid: process

    def test_processes_only_off(self):
        mode = DisturbMode(enabled=True, stop_new_processes=False)
        mode.mark_primary(MAIN)
        assert mode.check(CHILD, None) is None
        assert mode.check(THREAD, None) == "disturb"

    def test_each_ue_disturbed_at_most_once(self):
        mode = DisturbMode(enabled=True)
        mode.mark_primary(MAIN)
        assert mode.check(THREAD, None) == "disturb"
        assert mode.check(THREAD, None) is None  # seen now


class TestBookkeeping:
    def test_disturbed_ues_recorded(self):
        mode = DisturbMode(enabled=True)
        mode.mark_primary(MAIN)
        mode.check(THREAD, None)
        mode.check(CHILD, None)
        assert mode.disturbed_ues() == [THREAD, CHILD]

    def test_fork_keeps_primary_so_children_are_disturbed(self):
        """§6.4: a freshly forked child IS a newly created process and
        must park; the child therefore keeps the parent's primary."""
        mode = DisturbMode(enabled=True)
        mode.mark_primary(MAIN)
        mode.reset_after_fork()  # runs in the (simulated) child
        assert mode.disturbed_ues() == []
        # the child's own surviving thread has a new pid => disturbed
        assert mode.check(CHILD, None) == "disturb"


class TestDebuggerThreads:
    def test_dionea_threads_are_never_disturbed(self):
        """A debugger thread born after enable (a forked child's listener,
        a healed listener) is not a debuggee UE."""
        import threading
        mode = DisturbMode()
        mode.mark_primary(MAIN)
        mode.set_enabled(True)
        verdicts = {}

        def probe():
            name = threading.current_thread().name
            verdicts[name] = mode.check(UEId.current(), None)

        for name in ("dionea-listener-1", "worker"):
            thread = threading.Thread(target=probe, name=name)
            thread.start()
            thread.join(5)
        assert verdicts == {"dionea-listener-1": None, "worker": "disturb"}
