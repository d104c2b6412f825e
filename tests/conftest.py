"""Hooks shared by the test suite."""

from test_golden import MODE


def pytest_report_header(config):
    return f"golden corpus: {MODE}"
