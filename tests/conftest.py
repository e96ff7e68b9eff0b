"""Shared fixtures: the acceptance-verdict ledger printed after the run, and
a tracemalloc peak meter."""

import tracemalloc

import pytest

VERDICTS: list[str] = []


@pytest.fixture
def verdict():
    """Record one PASS/FAIL line for a numbered acceptance check, then assert."""

    def _record(number, ok, detail):
        line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})"
        VERDICTS.append(line)
        print(line)
        assert ok, line

    return _record


@pytest.fixture
def traced_peak():
    """`traced_peak(fn)` is `(fn(), peak)`: the peak bytes, numpy's arrays
    included, that the call allocates beyond what was held before it."""

    def _measure(fn):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            value = fn()
            return value, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    return _measure


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)
