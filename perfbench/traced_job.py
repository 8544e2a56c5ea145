"""Run one `symcoh` CLI job in this process with a span around every call
into a layer, then write the spans and work counts as JSON.

    python3 perfbench/traced_job.py <spans.json> <job id> <symcoh CLI args...>

The layers are the symcoh modules in LAYERS.  A wrapper goes around each
public function and public method, and around the private functions that
another module calls; it is installed into every module namespace that
binds the name, so `complexes.rank` and `resolution.rank` are both traced.
Inner-loop helpers (HOT) stay unwrapped, and `fields` gets no spans: its
scalar calls are charged to the caller's self time.

A span is (function, start, end, parent span, field kind); spans stay in
memory until the job ends.  Work counts are taken at the same boundaries.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "hopf", "modules", "tensors", "sparse", "linalg", "complexes",
          "bar", "hochschild", "resolution")

# private functions that other modules call, so they mark a layer boundary
CROSS_LAYER_PRIVATE = {
    "linalg": {"_rank_prime"},
    "complexes": {"_left_inverse_dense"},
    "bar": {"_action_columns", "_value_action_operator"},
}
HOT = {
    "tensors": {"flat", "all_tuples"},
    "sparse.SparseMatrix": {"apply", "add_entry", "column"},
    "linalg.Matrix": {"entries", "column", "row"},
    "hopf.HopfAlgebra": {"product", "unit_dict", "counit_of", "antipode_column",
                         "antipode_of"},
}
OPERATORS = {"__matmul__", "__add__", "__sub__", "__neg__", "__eq__"}
OPERATOR_CLASSES = {"linalg.Matrix", "sparse.SparseMatrix"}
Q_DENSE_LIMIT = 120_000  # complexes._DENSE_RATIONAL_LIMIT

def _nnz(sm) -> int:
    return sum(len(col) for col in sm.cols_data)


def _field_kind(args):
    """'q' or 'p' for the field of the first matrix-like argument."""
    for a in args:
        if isinstance(a, (list, tuple)) and a:
            a = a[0]
        fld = getattr(a, "field", None) or getattr(getattr(a, "basis", None), "field", None)
        if fld is None and hasattr(a, "is_rational"):
            fld = a
        if fld is not None:
            return "q" if fld.is_rational else "p"
        if hasattr(a, "dtype"):
            return "p"
    return None


def _fixed_cells(c, ops, through_degree=None):
    """Cells of the stacked (#sigma * s) x s kernel fixed_subcomplex builds."""
    through = c.top_degree if through_degree is None else through_degree
    total = 0
    for n in range(min(through, c.top_degree) + 1):
        sigmas = ops[n].sigmas if n < len(ops) and ops[n] is not None else []
        total += len(sigmas) * c.spaces[n].dim ** 2
    return total


class Tracer:
    """Spans and work counts of one job."""

    def __init__(self):
        self.names = []  # function names; spans refer to them by index
        self.spans = []  # (function, start, end, parent span or -1, field kind)
        self.stack = []  # (span index, function) of the open spans
        self.counts = dict.fromkeys((
            "complexes.fixed_dense_cells", "complexes.q_dense_fallbacks",
            "linalg.max_cells", "linalg.rational_cells", "sparse.matmul_out_nnz",
            "sparse.gram_calls", "resolution.ambient_coords", "hopf.sweedler_terms",
            "tensors.nnz_built"), 0)
        add = self._add
        self.before = {
            "complexes.fixed_subcomplex":
                lambda a, k: add("complexes.fixed_dense_cells", _fixed_cells(*a, **k)),
            "linalg.rank": self._count_elimination,
            "linalg.rref": self._count_elimination,
            "linalg._rank_prime": lambda a, k: self._max_cells(int(a[0].size)),
            "sparse.integer_gram": lambda a, k: add("sparse.gram_calls", 1),
        }
        self.after = {
            "sparse.SparseMatrix.__matmul__":
                lambda r: add("sparse.matmul_out_nnz", _nnz(r)),
            "resolution.coinvariant_space":
                lambda r: add("resolution.ambient_coords", r.ambient_dim),
            "resolution.bimodule_coinvariant_space":
                lambda r: add("resolution.ambient_coords", r.ambient_dim),
            "hopf.iterated_comult": lambda r: add("hopf.sweedler_terms", len(r.coeffs)),
        }

    def _add(self, key, amount):
        self.counts[key] += amount

    def _max_cells(self, cells):
        self.counts["linalg.max_cells"] = max(self.counts["linalg.max_cells"], cells)

    def _count_elimination(self, args, kwargs):
        m = args[0]
        cells = m.rows * m.cols
        self._max_cells(cells)
        if m.field.is_rational:
            self.counts["linalg.rational_cells"] += cells
            if cells > Q_DENSE_LIMIT and any(self.names[fid] == "complexes.cohomology_dims"
                                             for _idx, fid in self.stack):
                self.counts["complexes.q_dense_fallbacks"] += 1

    def _count_built(self, result):
        if hasattr(result, "cols_data"):
            self.counts["tensors.nnz_built"] += _nnz(result)

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        before = self.before.get(name)
        after = self.after.get(name) or (self._count_built if layer == "tensors" else None)
        kind_of = _field_kind if layer == "linalg" else (lambda args: None)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, fid))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (fid, start, end, parent, kind_of(args))
            if after is not None:
                after(result)
            return result

        return traced

    def install(self):
        """Wrap every traced function and method of the symcoh layers."""
        modules = {layer: importlib.import_module(f"symcoh.{layer}") for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if _traced_function(layer, attr):
                        originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    owner = f"{layer}.{attr}"
                    for mname, member in list(vars(obj).items()):
                        static = isinstance(member, staticmethod)
                        raw = member.__func__ if static else member
                        if inspect.isfunction(raw) and _traced_method(owner, mname):
                            wrapped = self.wrap(f"{owner}.{mname}", raw)
                            setattr(obj, mname, staticmethod(wrapped) if static else wrapped)
        namespaces = list(modules.values()) + [importlib.import_module("symcoh")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])


def _traced_function(layer: str, attr: str) -> bool:
    if attr in HOT.get(layer, ()):
        return False
    return not attr.startswith("_") or attr in CROSS_LAYER_PRIVATE.get(layer, ())


def _traced_method(owner: str, attr: str) -> bool:
    if attr in HOT.get(owner, ()):
        return False
    if attr.startswith("_"):
        return owner in OPERATOR_CLASSES and attr in OPERATORS
    return True


def main(argv) -> int:
    out_path, job_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    code = sys.modules["symcoh.cli"].main(cli_args)
    sys.stdout.flush()
    with open(out_path, "w") as f:
        json.dump({"job": job_id, "names": tracer.names, "spans": tracer.spans,
                   "counts": tracer.counts}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
