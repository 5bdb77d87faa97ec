"""Spans around every public fuselab function, installed from outside the package.

`Tracer.install` replaces each public module-level function of every fuselab
module with a timing wrapper. A function imported into several modules
(`from .activations import capture` in cca, matching, analysis and the
package `__init__`) has one binding per module; every binding gets the same
wrapper, named after the module that defines the function. Two more
boundaries are wrapped: `LayerTransform` construction (`model.LayerTransform`)
and scipy's assignment solver (`matching.solver`), counted where fuselab
looks it up.

A span is recorded only while an operation is active (`tracer.op_id` is not
None). Spans stay in memory as tuples
`(span_id, parent_id, op_id, name, start, end, key)` and are written out by
the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pkgutil
import threading
import time
import types
from collections import defaultdict

SOLVER = "matching.solver"
LAYER_TRANSFORM = "model.LayerTransform"


def _capture_key(model, probes, *args, **kwargs):
    """Identity of the (model, probe set) pair a capture call works on."""
    iface = getattr(probes, "__array_interface__", None)
    probe_id = f"{iface['data'][0]}{iface['shape']}" if iface else id(probes)
    return f"{os.getpid()}:{id(model)}:{probe_id}"


# functions whose spans also carry a key computed from their arguments
KEYED = {"activations.capture": _capture_key}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        tracer = self
        key_of = KEYED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op_id
            if op is None:
                return fn(*args, **kwargs)
            key = key_of(*args, **kwargs) if key_of else None
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, op, name, start, end, key))

        return traced

    def begin(self, op_id):
        """Open the root span of an operation; pass the token to `end`."""
        self.op_id = op_id
        sid = next(self._ids)
        self._stack().append(sid)
        return sid, time.perf_counter()

    def end(self, name, token):
        sid, start = token
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        parent = stack[-1] if stack else None
        self.spans.append((sid, parent, self.op_id, name, start, end, None))
        self.op_id = None

    def record(self, name, start, end):
        """Add a finished root span timed by the caller."""
        self.spans.append(
            (next(self._ids), None, self.op_id, name, start, end, None)
        )

    def adopt(self, spans, parent, op_id):
        """Add spans recorded in another process under `parent`, renumbered."""
        ids = {}
        for sid, _, _, _, _, _, _ in spans:
            ids[sid] = next(self._ids)
        for sid, par, _, name, start, end, key in spans:
            new_parent = ids[par] if par is not None else parent
            self.spans.append((ids[sid], new_parent, op_id, name, start, end, key))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap every binding of every public function in `package`."""
        prefix = package.__name__ + "."
        modules = [package] + [
            importlib.import_module(prefix + info.name)
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for mod in modules[1:]:
            layer = mod.__name__[len(prefix):]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        transform = importlib.import_module(prefix + "model").LayerTransform
        self._patch(
            transform, "__init__", self.wrap(LAYER_TRANSFORM, transform.__init__)
        )
        from scipy import optimize

        self._patch(
            optimize,
            "linear_sum_assignment",
            self.wrap(SOLVER, optimize.linear_sum_assignment),
        )
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path):
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def per_op_totals(spans):
    """{op_id: {name: [calls, self_s]}} plus {op_id: {name: distinct keys}}.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child_time = defaultdict(float)
    for sid, parent, op, name, start, end, key in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    keys = defaultdict(lambda: defaultdict(set))
    for sid, parent, op, name, start, end, key in spans:
        entry = totals[op][name]
        entry[0] += 1
        entry[1] += (end - start) - child_time[sid]
        if key is not None:
            keys[op][name].add(key)
    return totals, keys
