import sys

import pytest
from hypothesis import HealthCheck, settings

from btas import _compiled

settings.register_profile(
    "btas",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("btas")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance checklist after capture ends, one line each."""
    module = sys.modules.get("test_acceptance")
    results = getattr(module, "CRITERION_RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for name, status, detail in results:
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"[{status}] {name}{suffix}")


@pytest.fixture
def empty_cache(monkeypatch, tmp_path):
    """An empty $XDG_CACHE_HOME under tmp_path and no compiled library loaded
    yet; the btas cache directory in it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_compiled, "_library", _compiled._NOT_LOADED)
    return tmp_path / "cache" / "btas"


@pytest.fixture
def failing_cc(tmp_path):
    """A cc that answers --version, then writes part of its output and fails."""
    script = tmp_path / "failing-cc"
    script.write_text('#!/bin/sh\n[ "$1" = --version ] && { echo "failing-cc 1.0"; exit 0; }\n'
                      'while [ $# -gt 1 ]; do [ "$1" = -o ] && echo partial > "$2"; shift; done\nexit 1\n')
    script.chmod(0o755)
    return script
