"""Unit tests: the hot-path lint's clock-pair and audit-hook rules
(tools/lint_hotpath)."""

import importlib.util
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
LINT_PATH = os.path.join(REPO_ROOT, "tools", "lint_hotpath.py")


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("lint_hotpath", LINT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestClockPairRule:
    def test_lone_wall_clock_is_flagged(self, lint, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text(
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n")
        hits = lint.find_unpaired_wall_clock(str(path))
        assert len(hits) == 1
        assert "stamp" in hits[0][1]

    def test_paired_wall_clock_passes(self, lint, tmp_path):
        path = tmp_path / "good.py"
        path.write_text(
            "import time\n"
            "def stamp():\n"
            "    return time.time(), time.monotonic()\n")
        assert lint.find_unpaired_wall_clock(str(path)) == []

    def test_monotonic_alone_passes(self, lint, tmp_path):
        path = tmp_path / "mono.py"
        path.write_text(
            "import time\n"
            "def dur():\n"
            "    return time.monotonic()\n")
        assert lint.find_unpaired_wall_clock(str(path)) == []

    def test_timeline_modules_are_scanned(self, lint):
        for module in lint.CLOCK_PAIR_MODULES:
            assert os.path.isfile(os.path.join(REPO_ROOT, module)), module


class TestAuditHookRule:
    def _hook(self, tmp_path, body):
        path = tmp_path / "hook.py"
        path.write_text("def _audit_hook(event, args):\n" + body)
        return str(path)

    def test_filter_first_passes(self, lint, tmp_path):
        path = self._hook(tmp_path,
                          "    if event not in WATCHED:\n"
                          "        return\n"
                          "    with LOCK:\n"
                          "        obs_metrics.inc('x')\n")
        assert lint.find_audit_hook_prefix_costs(path) == []

    @pytest.mark.parametrize("prefix, what", [
        ("    obs_metrics.inc('audit.events')\n", "obs_metrics.inc"),
        ("    LOCK.acquire()\n", ".acquire(...)"),
        ("    with LOCK:\n        pass\n", "with-block"),
    ])
    def test_cost_before_early_return_is_flagged(self, lint, tmp_path,
                                                 prefix, what):
        path = self._hook(tmp_path, prefix +
                          "    if event not in WATCHED:\n"
                          "        return\n")
        hits = lint.find_audit_hook_prefix_costs(path)
        assert len(hits) == 1 and what in hits[0][1]

    def test_lookup_in_the_filter_test_is_flagged(self, lint, tmp_path):
        path = self._hook(tmp_path,
                          "    if not obs_metrics.enabled:\n"
                          "        return\n")
        assert lint.find_audit_hook_prefix_costs(path)

    def test_missing_early_return_is_flagged(self, lint, tmp_path):
        path = self._hook(tmp_path, "    RESIDENCY.saw(event, args)\n")
        hits = lint.find_audit_hook_prefix_costs(path)
        assert len(hits) == 1 and "early" in hits[0][1]


class TestWholeRepo:
    def test_lint_passes_on_this_tree(self, lint, capsys):
        assert lint.main([sys.argv[0], REPO_ROOT]) == 0
        assert "OK" in capsys.readouterr().out
