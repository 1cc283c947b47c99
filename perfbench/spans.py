"""Span recorder that wraps groupk's layers from outside.

Each wrap point is a name in a module namespace (or a method on a class)
that the layer above calls through; the recorder swaps in a wrapper for the
traced pass and puts the original back afterwards.  Nothing under src/ is
edited.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

# layer -> [(module, attribute)], in the order spans nest (outermost first).
# "Class.method" wraps a method.  A wrap point that no longer exists is
# skipped; a layer with none left is reported as absent.
WRAP_POINTS = {
    "cli": [("groupk.cli", "run")],
    "groups": [("groupk.cli", name) for name in (
        "cyclic", "dihedral", "direct_product", "group_from_file",
        "permutation_closure", "symmetric")],
    "kfield": [("groupk.cli", "validate_prime_power")],
    "assembly": [("groupk.cli", "certify_noninjectivity"), ("groupk.cli", "e2_page")],
    "grouprings": [("groupk.assembly", "component_count"), ("groupk.assembly", "k_group_ring"),
                   ("groupk.cli", "wedderburn_summary")],
    "homology": [("groupk.cli", "integral_homology"), ("groupk.assembly", "integral_homology"),
                 ("groupk.homology", "integral_homology"), ("groupk.homology", "bar_boundary")],
    "intlinalg.d2check": [("groupk.intlinalg", "IntegerMatrix.matmul")],
    "intlinalg.smith": [("groupk.intlinalg", "smith_diagonal")],
    "intlinalg.dense_tail": [("groupk.intlinalg", "_dense_diagonal")],
    "abelian": [("groupk.abelian", "invariant_factors_from_orders")],
}
# Reported from the smith spans: smith time minus the dense tail inside it.
DERIVED = {"intlinalg.smith_unit": ("intlinalg.smith", "intlinalg.dense_tail")}


class Recorder:
    """Spans as [name, start, end, parent index, op id], plus layer counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = Counter()  # layer -> open spans of that layer
        self.nested: list[bool] = []  # span has an open ancestor of its layer
        self.op = None
        self.counts = Counter()
        self.maxima: dict[str, int] = {}
        self._installed: list[tuple] = []
        self.present: set[str] = set()
        self._op_state: dict = {}
        self._dense_ones = 0

    # -- op boundaries -----------------------------------------------------
    def begin_op(self, op_id: int):
        self.op = op_id
        # (group id, degree) keys seen this op; boundaries kept alive so ids stay unique
        self._op_state = {"built": set(), "reduced": set(), "origin": {}}

    def end_op(self):
        self.op = None
        self._op_state = {}

    # -- spans -------------------------------------------------------------
    def _span(self, layer, fn, args, kwargs, before=None, after=None):
        if self.op is None:
            return fn(*args, **kwargs)
        note = before(*args, **kwargs) if before else None
        idx = len(self.spans)
        self.spans.append([layer, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op])
        self.nested.append(self.active[layer] > 0)
        self.active[layer] += 1
        self.stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.active[layer] -= 1
            self.spans[idx][1:3] = [start, end]
        if after:
            after(note, result, *args, **kwargs)
        return result

    def _bump_max(self, key, value):
        if value > self.maxima.get(key, -1):
            self.maxima[key] = value

    # -- per-layer counters ------------------------------------------------
    def _after_boundary(self, _note, mat, G, n, *args, **kwargs):
        key = (id(G), n)
        st = self._op_state
        self.counts["homology.boundary.calls"] += 1
        self.counts["homology.boundary.repeats"] += key in st["built"]
        st["built"].add(key)
        st["origin"][id(mat)] = (key, mat)
        self.counts["homology.boundary.nnz"] += mat.nonzero_count()
        self._bump_max("homology.boundary.cols_max", mat.cols)

    def _before_smith(self, A, *args, **kwargs):
        saved, self._dense_ones = self._dense_ones, 0
        return saved

    def _after_smith(self, saved, diag, A, *args, **kwargs):
        st = self._op_state
        origin = st["origin"].get(id(A))
        key = origin[0] if origin else ("matrix", A.rows, A.cols, A.nonzero_count())
        self.counts["intlinalg.smith.repeats"] += key in st["reduced"]
        st["reduced"].add(key)
        self.counts["intlinalg.smith.nnz_in"] += A.nonzero_count()
        self.counts["intlinalg.smith.unit_pivots"] += sum(1 for d in diag if d == 1) - self._dense_ones
        self._dense_ones = saved

    def _before_dense(self, mat, *args, **kwargs):
        return len(mat) * (len(mat[0]) if mat else 0)

    def _after_dense(self, cells, diag, *args, **kwargs):
        self.counts["intlinalg.dense_tail.cells"] += cells
        self._dense_ones += sum(1 for d in diag if d == 1)

    def _before_canon(self, orders, *args, **kwargs):
        bits = max((int(m).bit_length() for m in orders), default=0)
        self._bump_max("abelian.canon.order_bits_max", bits)

    # -- install / remove --------------------------------------------------
    def install(self, modules: dict):
        """Wrap every wrap point found in `modules` (name -> module object)."""
        hooks = {
            "bar_boundary": (None, self._after_boundary),
            "smith_diagonal": (self._before_smith, self._after_smith),
            "_dense_diagonal": (self._before_dense, self._after_dense),
            "invariant_factors_from_orders": (self._before_canon, None),
        }
        for layer, points in WRAP_POINTS.items():
            for modname, attr in points:
                owner = modules[modname]
                *cls, name = attr.split(".")
                if cls:
                    owner = getattr(owner, cls[0], None)
                orig = getattr(owner, name, None) if owner is not None else None
                if orig is None:
                    continue
                before, after = hooks.get(name, (None, None))
                setattr(owner, name, self._wrapper(layer, orig, before, after))
                self._installed.append((owner, name, orig))
                self.present.add(layer)

    def _wrapper(self, layer, fn, before, after):
        if fn.__name__ == "invariant_factors_from_orders":
            # the hook reads the orders before the call, and callers may pass a generator
            def wrapper(orders):
                return self._span(layer, fn, (list(orders),), {}, before, after)
        else:
            def wrapper(*args, **kwargs):
                return self._span(layer, fn, args, kwargs, before, after)
        return wrapper

    def remove(self):
        for owner, name, orig in reversed(self._installed):
            setattr(owner, name, orig)
        self._installed.clear()

    # -- results -------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the part its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def op_self_sums(self) -> dict[int, float]:
        """op id -> sum of the self times of its spans."""
        out: dict[int, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            out[span[4]] = out.get(span[4], 0.0) + own
        return out

    def layer_metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        calls, busy, self_s = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += selfs[i]
            if not self.nested[i]:
                busy[name] += end - start
        out = {}
        for layer in WRAP_POINTS:
            if layer in self.present:
                out[f"{layer}.calls"] = calls[layer]
                out[f"{layer}.busy_s"] = busy[layer]
                out[f"{layer}.self_s"] = self_s[layer]
        for layer, (whole, part) in DERIVED.items():
            if whole in self.present:
                out[f"{layer}.calls"] = calls[whole]
                out[f"{layer}.busy_s"] = busy[whole] - busy[part]
                out[f"{layer}.self_s"] = self_s[whole]
        c = self.counts
        if "homology" in self.present:
            out["homology.boundary.cols_max"] = self.maxima.get("homology.boundary.cols_max", 0)
            out["homology.boundary.nnz"] = c["homology.boundary.nnz"]
            out["homology.boundary.repeat_ratio"] = _ratio(
                c["homology.boundary.repeats"], c["homology.boundary.calls"])
        if "intlinalg.smith" in self.present:
            out["intlinalg.smith.nnz_in"] = c["intlinalg.smith.nnz_in"]
            out["intlinalg.smith.unit_pivots"] = c["intlinalg.smith.unit_pivots"]
            out["intlinalg.smith.repeat_ratio"] = _ratio(
                c["intlinalg.smith.repeats"], calls["intlinalg.smith"])
        if "intlinalg.dense_tail" in self.present:
            out["intlinalg.dense_tail.cells"] = c["intlinalg.dense_tail.cells"]
        if "abelian" in self.present:
            out["abelian.canon.order_bits_max"] = self.maxima.get("abelian.canon.order_bits_max", 0)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _ratio(part, whole):
    return part / whole if whole else 0.0
