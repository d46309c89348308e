"""What the benchmark expects of the library: the functions its tracer
wraps, and the acceptance gate's lines.

``benchmarks/tracer.py`` lists, per ``accelcert`` module, the functions it
wraps in spans (``SPANS``) and the spans whose results it post-processes
(``POST``), and looks each one up with ``getattr``.  A renamed or deleted
function would crash every traced pass, so a test checks that every
listed name still resolves to a callable.

The ``acceptance`` workload compares each criterion's verdict and lines
with ``benchmarks/reference.json``, within the printed precision of
``benchmarks/check.py``'s ``mismatches``, so a test makes the same
comparison: a reworded or changed gate line fails here, not only in the
benchmark.  These tests read the tracer's source, the reference and
``check.py``; they do not import the benchmark runner.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from accelcert.acceptance import CRITERIA

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
TRACER = BENCHMARKS / "tracer.py"


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


def _load_check():
    spec = importlib.util.spec_from_file_location(
        "benchmark_check", BENCHMARKS / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("number, criterion",
                         list(enumerate(CRITERIA, start=1)),
                         ids=[f"criterion_{i:02d}"
                              for i in range(1, len(CRITERIA) + 1)])
def test_gate_lines_match_the_benchmark_reference(number, criterion):
    reference = json.loads((BENCHMARKS / "reference.json").read_text())
    want = reference["acceptance"]["any"][f"criterion_{number:02d}"]
    result = criterion()
    got = {"passed": result.passed, "lines": list(result.lines)}
    assert _load_check().mismatches(want, got) == [], (want, got)
