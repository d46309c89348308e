"""The benchmark tracer wraps library functions by name.

``benchmarks/tracer.py`` lists, per ``accelcert`` module, the functions it
wraps in spans (``SPANS``) and the spans whose results it post-processes
(``POST``), and looks each one up with ``getattr``.  A renamed or deleted
function would crash every traced pass, so this test checks that every
listed name still resolves to a callable.  It only reads the tracer's
source; it does not import the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _tracer_assignment(name: str) -> ast.expr:
    """The expression the tracer assigns to the module global ``name``."""
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name):
            return node.value
    raise AssertionError(f"{TRACER} assigns no {name}")


def _spans() -> list[tuple[str, str]]:
    # SPANS builds the criterion names with tuple(... range ...), so it is
    # evaluated with only those builtins rather than read as a literal
    code = compile(ast.Expression(_tracer_assignment("SPANS")), str(TRACER),
                   "eval")
    spans = eval(code, {"__builtins__": {}, "tuple": tuple, "range": range})
    return [(module, fn) for module, names in spans.items() for fn in names]


@pytest.mark.parametrize("module,name", _spans())
def test_span_resolves(module, name):
    mod = importlib.import_module(f"accelcert.{module}")
    assert callable(getattr(mod, name, None)), f"accelcert.{module}.{name}"


def test_post_hooks_are_spans():
    keys = [ast.literal_eval(key) for key in _tracer_assignment("POST").keys]
    assert keys and set(keys) <= set(_spans())
