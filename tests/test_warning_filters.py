"""The suite's warning filters: one third-party warning is ignored by its
message, and every other deprecation stays an error."""

import importlib.util
import warnings

import pytest


def test_hypothesis_failure_report_imports_under_the_suite_filters():
    # To report a failing example hypothesis imports its patch writer, which
    # imports libcst; libcst builds a mypy_extensions.TypedDict, whose
    # DeprecationWarning is attributed to libcst. Were it an error, one
    # failing property test would abort the whole run.
    # (pytest.importorskip would import libcst with every warning ignored.)
    if importlib.util.find_spec("libcst") is None:
        pytest.skip("without libcst hypothesis writes no patch")
    import hypothesis.extra._patching  # noqa: F401


def test_other_deprecation_warnings_stay_errors():
    with pytest.raises(DeprecationWarning):
        warnings.warn("bellccp.something is deprecated", DeprecationWarning)
