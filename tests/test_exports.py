"""The package's export list names each public object once, and every
name in it resolves.  The size of the public API is pinned."""

import inspect

import accelcert


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
    assert (len(fns), len(params), defaults) == (34, 96, 14)
