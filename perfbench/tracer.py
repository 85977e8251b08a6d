"""In-memory span tracer that wraps qmlgrid's public functions from outside.

`Tracer.install()` replaces every public function of the traced modules
with a wrapper that records one span (name, start, end, parent) per call.
Names bound with `from x import y` live in the caller's module, so every
qmlgrid module global that refers to a wrapped function is rebound too;
`BINDING_SITES` lists the ones the workloads depend on and `install`
fails if any of them was missed. `uninstall()` restores every original.

Spans stay in a list until `write_spans`; `layer_metrics` turns them and
the counters kept by the hooks into the per-layer metrics.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

TRACED_MODULES = ("statevec", "circuit", "qkernel", "svm", "qnn", "baselines",
                  "pipeline", "datasets", "bench")
TRACED_METHODS = (("pipeline", "SplitBundle", "features"),
                  ("bench", "RecordStore", "append"))
# names a caller imported with `from x import y`: (caller module, name)
BINDING_SITES = (("bench", "gram_matrix"), ("bench", "cross_gram"),
                 ("qnn", "run_batch"), ("circuit", "apply_ops"),
                 ("qkernel", "apply_ops"), ("baselines", "fit_tree"))

GATE_KINDS = ("h", "rx", "ry", "rz", "phase", "cnot", "cz")
FAMILIES = ("qsvm", "qnn", "classical")
BYTES_PER_AMPLITUDE = 16            # complex128


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans = []             # [name, start, end, parent index or -1]
        self.external = []          # (parent index or -1, seconds)
        self.counts = Counter()
        self.kkt_violation_max = 0.0
        self._stack = []
        self._undo = []
        self._originals = {}        # qualified name -> original function

    # ---------------------------------------------------------- wrapping

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        label = self._label_run_cell if name == "bench.run_cell" else None

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(spans)
            span = [label(args, kwargs) if label else name, 0.0, 0.0,
                    stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        modules = {m: importlib.import_module(f"qmlgrid.{m}")
                   for m in TRACED_MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                self._originals[f"{short}.{attr}"] = obj
                wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in [m for n, m in sys.modules.items()
                    if n == "qmlgrid" or n.startswith("qmlgrid.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._undo.append((mod, attr, obj))
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(modules[short], cls_name)
            original = vars(cls)[meth]
            setattr(cls, meth,
                    self._wrap(f"{short}.{cls_name}.{meth}", original))
            self._undo.append((cls, meth, original))
        missed = [f"{m}.{n}" for m, n in BINDING_SITES
                  if not hasattr(getattr(modules[m], n), "__wrapped__")]
        if missed:
            self.uninstall()
            raise RuntimeError(f"binding sites left unwrapped: {missed}")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- hooks

    def _label_run_cell(self, args, kwargs):
        return f"bench.run_cell.{_arg(args, kwargs, 2, 'family')}"

    def _before_statevec_apply_ops(self, args, kwargs):
        amps, n_qubits = _arg(args, kwargs, 0, "amps"), _arg(args, kwargs, 1, "n_qubits")
        ops = list(_arg(args, kwargs, 2, "ops"))
        kinds = Counter(op[0] for op in ops)
        for kind, n in kinds.items():
            self.counts[f"statevec.apply_ops.gates.{kind}"] += n
        # one read and one write of every amplitude per gate
        self.counts["statevec.apply_ops.amp_bytes_computed"] += (
            len(ops) * amps.shape[0] * (1 << n_qubits) * BYTES_PER_AMPLITUDE * 2)
        return (amps, n_qubits, ops), {}

    def _before_circuit_run_batch(self, args, kwargs):
        self.counts["circuit.run_batch.rows"] += len(_arg(args, kwargs, 1, "X"))
        return args, kwargs

    def _after_svm_solve_dual(self, args, kwargs, model):
        self.counts["svm.solve_dual.sweeps_sum"] += model.sweeps
        self.counts["svm.solve_dual.sweeps_max"] = max(
            self.counts["svm.solve_dual.sweeps_max"], model.sweeps)
        self.counts["svm.solve_dual.unconverged"] += int(not model.converged)
        problem = _arg(args, kwargs, 0, "problem")
        violation = self._originals["svm.kkt_violation"](problem, model)
        self.kkt_violation_max = max(self.kkt_violation_max, violation)

    def _after_qnn_train(self, args, kwargs, result):
        self.counts["qnn.train.epochs"] += result[1].stopped_epoch

    def _after_qnn_grow_layers(self, args, kwargs, result):
        self.counts["qnn.grow_layers.trials"] += len(result.trials)

    # ----------------------------------------------------------- results

    def add_external(self, start, end):
        """Benchmark work done inside the innermost open span (a reference
        sample); it counts in no span's time."""
        self.external.append((self._stack[-1] if self._stack else -1,
                              end - start))

    def span_totals(self):
        """name -> [calls, seconds, self seconds], external time removed."""
        child = np.zeros(len(self.spans))       # direct children's time
        hidden = np.zeros(len(self.spans))      # external time in subtree
        for parent, seconds in self.external:
            if parent >= 0:
                child[parent] += seconds
                hidden[parent] += seconds
        for i in range(len(self.spans) - 1, -1, -1):    # children last
            _, start, end, parent = self.spans[i]
            if parent >= 0:
                child[parent] += end - start
                hidden[parent] += hidden[i]
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            t = totals[name]
            t[0] += 1
            t[1] += end - start - hidden[i]
            t[2] += end - start - child[i]
        return totals

    def gradient_forwards(self):
        """qnn.expectations calls made inside parameter_shift_gradient."""
        grad = "qnn.parameter_shift_gradient"
        return sum(1 for name, _, _, parent in self.spans
                   if name == "qnn.expectations" and parent >= 0
                   and self.spans[parent][0] == grad)

    def layer_metrics(self):
        """Per-layer metrics as name -> (value, unit); zero where the
        workload never reaches the layer."""
        totals = self.span_totals()     # zeros for names never called
        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        def timed(name, *fields):
            for f in fields:
                value = totals[name][("calls", "s", "self_s").index(f)]
                put(f"{name}.{f}", value, "count" if f == "calls" else "s")

        c = self.counts
        timed("statevec.apply_ops", "calls", "s", "self_s")
        for kind in GATE_KINDS:
            key = f"statevec.apply_ops.gates.{kind}"
            put(key, c[key], "count")
        put("statevec.apply_ops.amp_bytes_computed",
            c["statevec.apply_ops.amp_bytes_computed"], "B")
        timed("circuit.run_batch", "calls", "s", "self_s")
        put("circuit.run_batch.rows", c["circuit.run_batch.rows"], "count")
        timed("qkernel.gram_matrix", "s")
        timed("qkernel.cross_gram", "s")
        timed("qkernel.embed", "calls", "self_s")
        timed("svm.solve_dual", "calls", "s")
        for key in ("sweeps_sum", "sweeps_max", "unconverged"):
            put(f"svm.solve_dual.{key}", c[f"svm.solve_dual.{key}"], "count")
        put("svm.kkt_violation_max", self.kkt_violation_max, "margin")
        timed("svm.kernel_matrix", "s")
        grad = "qnn.parameter_shift_gradient"
        timed(grad, "calls", "s", "self_s")
        forwards = self.gradient_forwards()
        put("qnn.gradient_forwards", forwards, "count")
        gradients = totals[grad][0]
        put("qnn.forward_per_gradient",
            forwards / gradients if gradients else 0.0, "forwards/grad")
        timed("qnn.train", "calls")
        put("qnn.train.epochs", c["qnn.train.epochs"], "count")
        put("qnn.grow_layers.trials", c["qnn.grow_layers.trials"], "count")
        timed("baselines.fit_tree", "calls", "s")
        timed("baselines.fit_forest", "s")
        timed("baselines.fit_logistic", "s")
        timed("pipeline.stratified_split", "s")
        timed("pipeline.SplitBundle.features", "calls", "s")
        timed("datasets.resolve", "s")
        for family in FAMILIES:
            timed(f"bench.run_cell.{family}", "calls", "s", "self_s")
        timed("bench.RecordStore.append", "calls", "s")
        put("trace.spans", len(self.spans), "count")
        return out

    def write_spans(self, path):
        """One JSON line per span: id, name, start, end, parent."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
