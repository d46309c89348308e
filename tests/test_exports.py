"""The package's export list names each public object once, and every
name in it resolves.  The size of the public API is pinned, and importing
the package loads numpy alone of the numeric stack."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import accelcert

SRC = Path(__file__).resolve().parent.parent / "src"


def test_all_names_resolve():
    missing = [name for name in accelcert.__all__
               if not hasattr(accelcert, name)]
    assert missing == []


def test_all_names_unique():
    assert len(set(accelcert.__all__)) == len(accelcert.__all__)


def public_callables():
    """Exported functions, and the public methods of exported classes."""
    for name in accelcert.__all__:
        obj = getattr(accelcert, name)
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield from (v for attr, v in vars(obj).items()
                        if not attr.startswith("_") and inspect.isfunction(v))


def test_api_surface_pinned():
    # (callables, parameters, parameters with a default): a new knob is a
    # reviewed edit of this pin
    fns = list(public_callables())
    params = [p for fn in fns for p in inspect.signature(fn).parameters.values()]
    defaults = sum(p.default is not p.empty for p in params)
    assert (len(fns), len(params), defaults) == (33, 89, 9)


def test_import_loads_no_scipy():
    # scipy is not a dependency: importing it would cost every process
    # about 0.3 s and 26 MB before it does anything
    code = ("import sys, accelcert; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
