"""Property test: a config file with one field replaced by arbitrary JSON
ends ``bellccp`` in a result or in an ``error:`` line, never in a traceback.

The documents are valid inequality and strategy files in every form the
loaders read (named, full, pure amplitudes, density matrix, with
``visibility_v``), bare or under their ``"inequality"``/``"strategy"``
wrapper. Any node of a document, the document itself included, may be
replaced.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from bellccp import BellInequality, canonical_strategy, gyni_inequality, random_strategy
from bellccp.cli import main
from bellccp.config import inequality_to_config, strategy_to_config

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=8)


def _full_inequality() -> dict:
    gyni = gyni_inequality()
    return inequality_to_config(BellInequality(scenario=gyni.scenario, coeffs=gyni.coeffs))


def _strategies() -> list[dict]:
    preset = strategy_to_config(canonical_strategy("gyni-paper"))
    pure = random_strategy(gyni_inequality().scenario, np.random.default_rng(4))
    return [{"name": "gyni-paper"}, preset, dict(preset, visibility_v=0.5),
            strategy_to_config(pure), strategy_to_config(canonical_strategy("experiment-like"))]


def _with_wrappers(docs: list[dict], wrapper: str) -> list[dict]:
    return docs + [{wrapper: doc} for doc in docs]


INEQUALITY_DOCS = _with_wrappers([{"name": "gyni"}, _full_inequality()], "inequality")
STRATEGY_DOCS = _with_wrappers(_strategies(), "strategy")


def _paths(doc, prefix=()):
    """Every node of a JSON document as a key path, the root first."""
    yield prefix
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def edited(draw, docs):
    doc = draw(st.sampled_from(docs))
    path = draw(st.sampled_from(list(_paths(doc))))
    return _replaced(doc, path, draw(json_values))


def _run(doc, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.replace("FILE", str(path)) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def _assert_result_or_error_line(code, out, err):
    if code == 0:
        assert err == ""
    else:
        assert code == 1, err
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_every_document_form_loads():
    for doc in INEQUALITY_DOCS:
        assert _run(doc, ["bound", "--ineq", "FILE"])[0] == 0
    for doc in STRATEGY_DOCS:
        assert _run(doc, ["eval", "--ineq", "gyni", "--strategy", "FILE"])[0] == 0


@settings(max_examples=300, deadline=None)
@given(edited(INEQUALITY_DOCS))
def test_an_edited_inequality_file_gives_a_result_or_an_error_line(doc):
    _assert_result_or_error_line(*_run(doc, ["bound", "--ineq", "FILE"]))


@settings(max_examples=300, deadline=None)
@given(edited(STRATEGY_DOCS))
def test_an_edited_strategy_file_gives_a_result_or_an_error_line(doc):
    _assert_result_or_error_line(*_run(doc, ["eval", "--ineq", "gyni", "--strategy", "FILE"]))
