"""Tracing and counting from outside the library, by patching its modules.

``Tracer`` wraps the public functions of each layer in spans (name, start,
end, parent, pass id), kept in memory and written out when the pass ends.
The leaf oracles ``Objective.grad`` / ``Objective.value`` are far too
frequent for one span each, so they are aggregated per parent span as a
call count, busy time and computed bytes.  A span's self time is its
duration minus the time its child spans and leaf calls cover.

``Counter`` is the independent counting-only pass: it counts oracle calls
by wrapping each objective's ``grad_fn`` / ``value_fn`` and optimizer
steps from the ``Trajectory`` objects ``run`` builds, so it shares no
patching with ``Tracer`` and catches a binding site the tracer missed.

A name such as ``run`` is imported into several modules (``acceptance``,
``analysis``, ``harness``) and into the package namespace, and the
acceptance criteria are also held in the ``CRITERIA`` tuple; ``install``
replaces every one of these binding sites.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
from time import perf_counter

def _traj_steps(result, args, kwargs):
    return result.K


def _ode_steps(result, args, kwargs):
    return len(result) - 1


def _samples(result, args, kwargs):
    return result.n_checked


def _file_bytes(result, args, kwargs):
    path = kwargs.get("path", args[-1] if args else None)
    return os.path.getsize(path)


#: Functions wrapped in spans, per layer module.  Step kernels, right-hand
#: sides and energy records are not wrapped: they are internal to run /
#: integrate / energies, whose self time covers them.
SPANS = {
    "objectives": ("make_quadratic", "make_reg_logistic", "reg_logistic_from_data",
                   "resolve_minimizer", "sample_in_ball", "certify_class"),
    "optimizers": ("run",),
    "lyapunov": ("energies", "attach_energies", "certify_contraction",
                 "initial_energy"),
    "analysis": ("check_bound", "attach_bound", "bound_curve", "empirical_rate",
                 "monotonicity_scan", "monotonic_window", "characteristic_roots",
                 "max_reality_threshold"),
    "hires_ode": ("integrate", "check_continuous_bound"),
    "harness": ("execute", "build_objective", "parse_config",
                "write_trajectory_csv", "write_ode_csv", "write_summary"),
    "acceptance": ("suite_objectives", "gradient_step_margins") + tuple(
        f"criterion_{i}" for i in range(1, 12)),
}

#: Post-hooks: map a call's (result, args, kwargs) to a number kept with
#: its span (steps taken, samples checked, bytes written).
POST = {("optimizers", "run"): _traj_steps,
        ("hires_ode", "integrate"): _ode_steps,
        ("hires_ode", "check_continuous_bound"): _samples,
        ("harness", "write_trajectory_csv"): _file_bytes,
        ("harness", "write_ode_csv"): _file_bytes}

LEAVES = ("grad", "value")


def package_modules(package: str = "accelcert") -> list:
    """The package and every submodule, imported."""
    pkg = importlib.import_module(package)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{package}.{info.name}"))
    return mods


def rebind(modules, originals: dict) -> int:
    """Replace every reference to a function in ``originals`` (id -> new)
    held by a module global, or inside a tuple or dict global; returns how
    many binding sites were replaced."""
    n = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in originals and callable(value):
                setattr(mod, attr, originals[id(value)])
                n += 1
            elif isinstance(value, tuple) and any(id(v) in originals for v in value):
                setattr(mod, attr, tuple(originals.get(id(v), v) for v in value))
                n += 1
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, v in list(value.items()):
                    if id(v) in originals and callable(v):
                        value[key] = originals[id(v)]
                        n += 1
    return n


def stale_sites(modules, functions) -> list[str]:
    """Binding sites that still reference an unwrapped function."""
    ids = {id(fn) for fn in functions}
    out = []
    for mod in modules:
        for attr, value in vars(mod).items():
            values = value if isinstance(value, tuple) else (
                value.values() if isinstance(value, dict) and not attr.startswith("__")
                else (value,))
            if any(id(v) in ids for v in values):
                out.append(f"{mod.__name__}.{attr}")
    return out


def _computed_bytes(obj, oracle: str) -> int:
    """Bytes of matrix operand one oracle call reads, as computed from
    array sizes (not measured): 8 d^2 for a dense quadratic; the feature
    matrix for the logistic loss, read once by value and twice by grad."""
    if obj.hessian is not None:
        return obj.hessian.nbytes
    cells = dict(zip(obj.value_fn.__code__.co_freevars,
                     obj.value_fn.__closure__ or ()))
    features = cells.get("features")
    if features is None:
        return 0
    return features.cell_contents.nbytes * (2 if oracle == "grad" else 1)


class Tracer:
    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans = []    # [name, start, end, parent, post value]
        self.stack = []
        self.leaves = {}   # (parent, name) -> [calls, busy_s, bytes]
        self.wrapped = []  # original functions, for the stale-site check

    def span(self, name: str, fn, post=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if post is not None:
                rec[4] = post(result, args, kwargs)
            return result
        return wrapper

    def leaf(self, name: str, fn):
        leaves, stack = self.leaves, self.stack
        cache = f"_bench_bytes_{name}"

        @functools.wraps(fn)
        def wrapper(obj, x):
            t0 = perf_counter()
            try:
                return fn(obj, x)
            finally:
                dt = perf_counter() - t0
                nbytes = getattr(obj, cache, None)
                if nbytes is None:
                    nbytes = _computed_bytes(obj, name)
                    setattr(obj, cache, nbytes)
                key = (stack[-1] if stack else -1, name)
                agg = leaves.get(key)
                if agg is None:
                    leaves[key] = [1, dt, nbytes]
                else:
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += nbytes
        return wrapper

    def install(self) -> int:
        """Patch every binding site; returns the number replaced."""
        modules = package_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        originals = {}
        for layer, names in SPANS.items():
            mod = by_name[layer]
            for name in names:
                fn = getattr(mod, name)
                self.wrapped.append(fn)
                originals[id(fn)] = self.span(f"{layer}.{name}", fn,
                                              POST.get((layer, name)))
        n = rebind(modules, originals)
        cls = by_name["objectives"].Objective
        for name in LEAVES:
            setattr(cls, name, self.leaf(name, getattr(cls, name)))
        self.stale = stale_sites(modules, self.wrapped)
        return n

    def root(self, name: str, fn):
        """Run ``fn`` inside a top-level span; returns its result."""
        return self.span(name, fn)()

    def dump(self) -> dict:
        return {"pass_id": self.pass_id,
                "spans": self.spans,
                "leaves": [[parent, name, *agg]
                           for (parent, name), agg in self.leaves.items()],
                "stale_sites": self.stale}


class Counter:
    """Counting-only pass: oracle calls and optimizer steps, no timing."""

    def __init__(self):
        self.counts = {"grad": 0, "value": 0, "iters": 0}

    def _count(self, key, fn):
        counts = self.counts

        def wrapper(x):
            counts[key] += 1
            return fn(x)
        wrapper._bench_inner = fn
        return wrapper

    def install(self):
        from accelcert import objectives, optimizers
        counter = self
        post_init = objectives.Objective.__post_init__

        def counted_post_init(obj):
            # dataclasses.replace hands over already-counted oracles; the
            # minimizer check calls grad_fn directly, bypassing
            # Objective.grad, so it runs on the uncounted one
            obj.grad_fn = getattr(obj.grad_fn, "_bench_inner", obj.grad_fn)
            obj.value_fn = getattr(obj.value_fn, "_bench_inner", obj.value_fn)
            post_init(obj)
            obj.grad_fn = counter._count("grad", obj.grad_fn)
            obj.value_fn = counter._count("value", obj.value_fn)
        objectives.Objective.__post_init__ = counted_post_init

        traj_init = optimizers.Trajectory.__init__

        def counted_traj_init(traj, *args, **kwargs):
            traj_init(traj, *args, **kwargs)
            counter.counts["iters"] += traj.K
        optimizers.Trajectory.__init__ = counted_traj_init
