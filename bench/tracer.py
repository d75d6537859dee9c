"""Span tracer that wraps jbtrotter's public functions from the outside.

Nothing under ``src/`` is edited.  While a ``Tracer`` is active, every
reference to a traced function inside the ``jbtrotter`` package is
replaced by a timing wrapper:

* module globals, which covers ``from .algebras import jordan_mul`` style
  names in trotter, jets, axioms, cli and the package ``__init__``;
* values of module-level dicts, such as trotter's scheme table;
* default argument values, such as ``run_axiom_suite(product=jordan_mul)``,
  which is bound when the function is defined.

``Element`` constructions are counted by patching ``__post_init__`` on the
class.  Everything is put back when the tracer exits.

Each call records a span (name, start, end, parent) in flat arrays that
stay in memory until ``write_spans``.  Per-group totals are kept as spans
close: ``calls``, ``total_s`` (outermost spans of the group only, so the
bound functions calling each other are not counted twice) and ``self_s``
(duration minus the time covered by child spans).
"""

from __future__ import annotations

import sys
import types
from array import array
from time import perf_counter

import numpy as np

# (module, function) -> metric group.  The five closed-form bound
# functions share one group.
TRACED = {
    ("octonion", "mul"): "octonion.mul",
    ("algebras", "jordan_mul"): "algebras.jordan_mul",
    ("algebras", "triple_product"): "algebras.triple_product",
    ("algebras", "quad_map"): "algebras.quad_map",
    ("algebras", "jordan_power"): "algebras.jordan_power",
    ("algebras", "exp_spectral"): "algebras.exp_spectral",
    ("algebras", "exp_series"): "algebras.exp_series",
    ("algebras", "jb_norm"): "algebras.jb_norm",
    ("algebras", "random_element"): "algebras.random_element",
    ("trotter", "sweep"): "trotter.sweep",
    ("trotter", "approx_g"): "trotter.approx_g",
    ("trotter", "approx_f"): "trotter.approx_f",
    ("trotter", "approx_h"): "trotter.approx_h",
    ("trotter", "exp_sum"): "trotter.exp_sum",
    ("trotter", "plan_min_n"): "trotter.plan_min_n",
    ("trotter", "empirical_order"): "trotter.empirical_order",
    ("trotter", "bound_thm31"): "trotter.bounds",
    ("trotter", "bound_thm33i"): "trotter.bounds",
    ("trotter", "bound_thm33ii"): "trotter.bounds",
    ("trotter", "bound_special"): "trotter.bounds",
    ("trotter", "tightest_bound"): "trotter.bounds",
    ("jets", "jet_exp"): "jets.jet_exp",
    ("jets", "jet_jordan_mul"): "jets.jet_jordan_mul",
    ("axioms", "run_axiom_suite"): "axioms.run_axiom_suite",
    ("instances", "load_instance"): "instances.load_instance",
    ("instances", "save_instance"): "instances.save_instance",
    ("cli", "main"): "cli.main",
}
GROUPS = tuple(dict.fromkeys(TRACED.values()))

# Calls of a function made while a group is open: (function, group) -> key.
# The planner's predicate evaluations are the scheme approximants in
# measured mode and tightest_bound in bound mode.
NESTED = {
    ("algebras.exp_series", "algebras.exp_spectral"): "fallbacks",
    ("trotter.approx_g", "trotter.plan_min_n"): "plan_evals",
    ("trotter.approx_f", "trotter.plan_min_n"): "plan_evals",
    ("trotter.approx_h", "trotter.plan_min_n"): "plan_evals",
    ("trotter.tightest_bound", "trotter.plan_min_n"): "plan_evals",
}


class Tracer:
    """Context manager: install the wrappers on enter, restore on exit."""

    def __init__(self):
        self.span_names = [f"{mod}.{fn}" for mod, fn in TRACED]
        self.starts = array("d")
        self.ends = array("d")
        self.names = array("i")
        self.parents = array("q")
        self.calls = dict.fromkeys(GROUPS, 0)
        self.self_s = dict.fromkeys(GROUPS, 0.0)
        self.total_s = dict.fromkeys(GROUPS, 0.0)
        self.nested = dict.fromkeys(set(NESTED.values()), 0)
        self.elements_created = 0
        self._depth = dict.fromkeys(GROUPS, 0)
        self._stack = []
        self._restore = []

    # -- span recording ------------------------------------------------

    def _wrap(self, fn, name_id: int, group: str, watch: tuple):
        starts, ends, names, parents = self.starts, self.ends, self.names, self.parents
        stack, depth = self._stack, self._depth
        calls, self_s, total_s, nested = self.calls, self.self_s, self.total_s, self.nested

        def traced(*args, **kwargs):
            for outer, key in watch:
                if depth[outer]:
                    nested[key] += 1
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            depth[group] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[group] -= 1
                dur = t1 - t0
                starts[idx] = t0
                ends[idx] = t1
                if stack:
                    stack[-1][1] += dur
                calls[group] += 1
                self_s[group] += dur - frame[1]
                if not depth[group]:
                    total_s[group] += dur

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------

    def __enter__(self):
        package = sys.modules["jbtrotter"]
        modules = [m for name, m in list(sys.modules.items())
                   if name == "jbtrotter" or name.startswith("jbtrotter.")]
        wrappers = {}
        for name_id, ((mod, fn), group) in enumerate(TRACED.items()):
            original = getattr(getattr(package, mod), fn)
            span = f"{mod}.{fn}"
            watch = tuple((outer, key) for (inner, outer), key in NESTED.items() if inner == span)
            wrappers[id(original)] = self._wrap(original, name_id, group, watch)
        try:
            for module in modules:
                self._patch_namespace(vars(module), wrappers)
            element = package.algebras.Element
            post_init = element.__post_init__

            def counted(obj):
                self.elements_created += 1
                post_init(obj)

            element.__post_init__ = counted
            self._restore.append(lambda: setattr(element, "__post_init__", post_init))
        except BaseException:
            self._undo()
            raise
        return self

    def _patch_namespace(self, namespace: dict, wrappers: dict) -> None:
        for key, value in list(namespace.items()):
            if isinstance(value, types.FunctionType) and value.__module__.startswith("jbtrotter"):
                self._patch_defaults(value, wrappers)
            if id(value) in wrappers:
                self._set(namespace, key, wrappers[id(value)])
            elif isinstance(value, dict) and key != "__builtins__":
                for k, v in list(value.items()):
                    if id(v) in wrappers:
                        self._set(value, k, wrappers[id(v)])

    def _set(self, table: dict, key, value) -> None:
        old = table[key]
        table[key] = value
        self._restore.append(lambda: table.__setitem__(key, old))

    def _patch_defaults(self, fn, wrappers: dict) -> None:
        defaults = fn.__defaults__
        if defaults and any(id(d) in wrappers for d in defaults):
            fn.__defaults__ = tuple(wrappers.get(id(d), d) for d in defaults)
            self._restore.append(lambda: setattr(fn, "__defaults__", defaults))
        kwdefaults = fn.__kwdefaults__
        if kwdefaults and any(id(d) in wrappers for d in kwdefaults.values()):
            fn.__kwdefaults__ = {k: wrappers.get(id(d), d) for k, d in kwdefaults.items()}
            self._restore.append(lambda: setattr(fn, "__kwdefaults__", kwdefaults))

    def _undo(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __exit__(self, *exc) -> None:
        self._undo()

    # -- results -------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write every span as flat arrays (``np.load`` reads them back)."""
        np.savez(
            path,
            names=np.array(self.span_names),
            name=np.frombuffer(self.names, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
        )
