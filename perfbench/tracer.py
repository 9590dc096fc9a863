"""Layer tracer: spans around calls into the program's public functions.

Every public function and method of the ``irslink`` modules is wrapped at
each module attribute (and module-level dict entry, such as the criterion
table) that binds it, so ``irslink.montecarlo.matrix_sqrt``,
``irslink.correlation.matrix_sqrt`` and ``irslink.matrix_sqrt`` all record
under one name.  The program's code is not modified; calls between private
helpers are not seen, and their time lands in the caller's self time.

Spans are kept in flat arrays (name id, start, end, parent, op id, quantity)
and written out with ``save``; self time is a span's duration minus the
durations of its direct children.  The program is single-threaded, so one
stack of open spans suffices.
"""

import functools
import sys
import time
import types
from array import array

import numpy as np

# Quantities recorded per call, taken from the arguments.
_QUANTITY = {
    "rng.standard_normals": lambda args, kwargs: kwargs.get("count", args[1] if len(args) > 1 else 0),
    "montecarlo.gain_samples": lambda args, kwargs: kwargs.get("trials", args[4] if len(args) > 4 else 0),
}


def _span_name(fn, owner=None):
    module = fn.__module__.rsplit(".", 1)[-1]
    return f"{module}.{owner.__qualname__}.{fn.__name__}" if owner else f"{module}.{fn.__name__}"


def _program_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "irslink" or name.startswith("irslink.")]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.quantity = array("d")
        self.op_id = -1
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        quantity = _QUANTITY.get(name)
        clock = time.perf_counter
        starts, ends, names, parents, ops, qty = (
            self.start, self.end, self.name, self.parent, self.op, self.quantity
        )
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(tracer.op_id)
            qty.append(quantity(args, kwargs) if quantity else 0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function and method of the loaded irslink modules."""
        wrapped = {}  # id(original) -> wrapper
        modules = _program_modules()

        def wrapper_for(fn, owner=None):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = (fn, self._wrap(fn, _span_name(fn, owner)))
            return wrapped[id(fn)][1]

        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(val, types.FunctionType) and val.__module__.startswith("irslink"):
                    self._patch(mod, attr, wrapper_for(val))
                elif isinstance(val, type) and val.__module__ == mod.__name__:
                    self._install_methods(val, wrapper_for)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, dict):
                    for key, entry in list(val.items()):
                        if isinstance(entry, types.FunctionType) and id(entry) in wrapped:
                            self._patches.append((val, key, entry))
                            val[key] = wrapped[id(entry)][1]

    def _install_methods(self, cls, wrapper_for):
        is_dataclass = hasattr(cls, "__dataclass_fields__")
        for mname, member in list(vars(cls).items()):
            if mname.startswith("_") and not (
                mname == "__post_init__" or (mname == "__init__" and not is_dataclass)
            ):
                continue
            if isinstance(member, types.FunctionType):
                self._patch(cls, mname, wrapper_for(member, cls))
            elif isinstance(member, (classmethod, staticmethod)):
                inner = wrapper_for(member.__func__, cls)
                self._patch(cls, mname, type(member)(inner))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Derived figures

    def arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        dur = end - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "parent": parent,
            "quantity": np.frombuffer(self.quantity, dtype=float),
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            quantity=np.frombuffer(self.quantity, dtype=float),
        )


class LayerTotals:
    """Per-name call counts, inclusive and self time and quantities over chosen spans."""

    def __init__(self, tracer, mask_fn):
        a = tracer.arrays()
        mask = mask_fn(a)
        self.names = tracer.names
        n = len(self.names)
        ids = a["name"][mask]
        self.calls = np.bincount(ids, minlength=n)
        self.self_time = np.bincount(ids, weights=a["self"][mask], minlength=n)
        self.qty = np.bincount(ids, weights=a["quantity"][mask], minlength=n)
        # Inclusive time counted only where the caller is not the same function,
        # so recursive or self-nested calls are not double counted.
        name = a["name"]
        parent_name = np.where(a["parent"] >= 0, name[np.maximum(a["parent"], 0)], -1)
        outer = mask & (parent_name != name)
        self.outer_incl = np.bincount(name[outer], weights=a["dur"][outer], minlength=n)
        self._index = {nm: i for i, nm in enumerate(self.names)}

    def _get(self, arr, name):
        i = self._index.get(name)
        return float(arr[i]) if i is not None else 0.0

    def calls_of(self, name):
        return self._get(self.calls, name)

    def time_of(self, name):
        return self._get(self.outer_incl, name)

    def qty_of(self, name):
        return self._get(self.qty, name)

    def self_of_layer(self, prefix, exclude=()):
        return float(
            sum(
                self.self_time[i]
                for i, nm in enumerate(self.names)
                if nm.startswith(prefix + ".") and nm not in exclude
            )
        )
