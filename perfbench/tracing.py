"""Spans around calls into starcone's layers, recorded from outside ``src/``.

``Tracer.install`` rebinds each traced public function in every starcone
module (and the package) that holds a reference to it, so a call is caught
where the caller looks the name up: ``fiber`` imports ``cone`` and
``star_product`` by name, while ``homcheck`` reaches ``linalg.rank`` through
the module.  Spans stay in memory as ``[name, parent, t0, t1, attrs]`` with
``parent`` the index of the enclosing span (-1 at top level), and are
written out once, at the end of the run.

A span's self time is its duration minus the durations of its direct
children.  Sizes (matrix cells, nonzeros, ranks) are computed from call
arguments and results, after the span has ended.

The tracing overhead is estimated, not taken as traced minus untraced wall
time: that difference is smaller than the host's drift between two passes.
It is the span count times the measured extra cost of one traced call,
plus the time spent computing sizes.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager

import starcone as sc


def _linalg_size(args, kwargs, out):
    _field, nrows, ncols, entries = args[:4]
    return {"cells": nrows * ncols, "nnz": len(entries)}


def _total_rank(args, kwargs, out):
    return {"rank": out.total_rank()}


def _complex_cells(args, kwargs, out):
    cells = nnz = 0
    for mat in out.diffs.values():
        cells += mat.nrows * mat.ncols
        nnz += sum(1 for row in mat.rows for p in row if p.terms)
    return {"cells": cells, "nnz": nnz}


def _lift_paths(args, kwargs, out):
    """Which lift path each side ran, inferred from the inputs: X is the
    Koszul complex exactly when I's generators form a regular sequence, and
    a side fell back when its lift lost the requested constraint."""
    inst = args[0]
    constrained = kwargs.get("constrained", args[1] if len(args) > 1 else True)
    paths = {"koszul": 0, "solve": 0, "fallback": 0}
    for ideal, lift in ((inst.I, out.phi_lift), (inst.J, out.psi_lift)):
        paths["koszul" if sc.is_regular_sequence_monomials(ideal.gens) else "solve"] += 1
        paths["fallback"] += int(constrained and not lift.constrained)
    return paths


# (module, function, span name, size function or None)
TRACED = [
    ("homcheck", "homology_dims", "homcheck.homology_dims", None),
    ("homcheck", "graded_piece", "homcheck.graded_piece", None),
    ("linalg", "rank", "linalg.rank", _linalg_size),
    ("linalg", "solve", "linalg.solve", _linalg_size),
    ("resolutions", "taylor", "resolutions.taylor", _total_rank),
    ("resolutions", "minimize", "resolutions.minimize", _total_rank),
    ("fiber", "build_fiber", "fiber.build_fiber", _lift_paths),
    ("fiber", "build_phi", "fiber.build_phi", None),
    ("fiber", "build_psi", "fiber.build_psi", None),
    ("fiber", "omega", "fiber.omega", None),
    ("fiber", "lift_chain_map", "fiber.lift_chain_map", None),
    ("fiber", "certify_minimal", "fiber.certify_minimal", None),
    ("complexes", "cone", "complexes.cone", _complex_cells),
    ("star", "star_product", "star.star_product", _total_rank),
    ("ring", "hilbert_function", "ring.hilbert_function", None),
    ("formulas", "fiber_betti_table", "formulas.fiber_betti_table", None),
    ("formulas", "poincare_identity_1", "formulas.poincare_identity_1", None),
    ("formulas", "poincare_identity_2", "formulas.poincare_identity_2", None),
]

# Self-time metrics: (metric, span names whose self times it sums).
SELF_TIMES = [
    ("homcheck.homology_dims.s", ["homcheck.homology_dims"]),
    ("homcheck.graded_piece.s", ["homcheck.graded_piece"]),
    ("linalg.rank.s", ["linalg.rank"]),
    ("linalg.solve.s", ["linalg.solve"]),
    ("resolutions.taylor.s", ["resolutions.taylor"]),
    ("resolutions.minimize.s", ["resolutions.minimize"]),
    ("fiber.build_fiber.s", ["fiber.build_fiber"]),
    ("fiber.comparison.s", ["fiber.build_phi", "fiber.build_psi", "fiber.omega"]),
    ("fiber.lift_chain_map.s", ["fiber.lift_chain_map"]),
    ("fiber.certify_minimal.s", ["fiber.certify_minimal"]),
    ("complexes.cone.s", ["complexes.cone"]),
    ("star.star_product.s", ["star.star_product"]),
    ("ring.hilbert_function.s", ["ring.hilbert_function"]),
    ("formulas.s", ["formulas.fiber_betti_table", "formulas.poincare_identity_1",
                    "formulas.poincare_identity_2"]),
]
# Call counts: (metric, span name).
COUNTS = [
    ("homcheck.graded_piece.calls", "homcheck.graded_piece"),
    ("linalg.rank.calls", "linalg.rank"),
    ("linalg.solve.calls", "linalg.solve"),
]

PER_LAYER_UNITS = dict(
    [(name, "s") for name, _ in SELF_TIMES]
    + [(name, "count") for name, _ in COUNTS]
    + [
        ("linalg.cells", "cells"), ("linalg.max_cells", "cells"), ("linalg.density", "ratio"),
        ("resolutions.taylor.rank", "count"), ("resolutions.kept_frac", "ratio"),
        ("fiber.lift.koszul", "count"), ("fiber.lift.solve", "count"),
        ("fiber.lift.fallback", "count"),
        ("complexes.cells", "cells"), ("complexes.density", "ratio"),
        ("star.rank", "count"),
        ("trace.overhead_s", "s"), ("trace.remainder_s", "s"),
    ]
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []  # (module, attribute, original)
        self.size_s = 0.0  # time spent computing sizes

    def _wrap(self, fn, name: str, size):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if size is not None:
                t = clock()
                span[4] = size(args, kwargs, out)
                self.size_s += clock() - t
            return out

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "starcone" or key.startswith("starcone.")]
        for mod_name, fn_name, span_name, size in TRACED:
            orig = getattr(sys.modules[f"starcone.{mod_name}"], fn_name)
            wrapper = self._wrap(orig, span_name, size)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    @contextmanager
    def span(self, name: str):
        """A root span (one op), so its untraced glue is visible too."""
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    @staticmethod
    def span_cost(calls: int = 20000, rounds: int = 5) -> float:
        """Seconds one traced call costs over a plain call: the median over
        several rounds of a wrapped no-op against the bare no-op."""
        def noop():
            return None

        probe = Tracer()
        wrapped = probe._wrap(noop, "probe", None)
        clock = time.perf_counter

        def per_call(fn) -> float:
            t0 = clock()
            for _ in range(calls):
                fn()
            return (clock() - t0) / calls

        costs = []
        for _ in range(rounds):
            probe.spans.clear()
            costs.append(per_call(wrapped) - per_call(noop))
        return statistics.median(costs)

    def self_times(self) -> dict:
        """Span name -> summed self time."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for (name, _, t0, t1, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (t1 - t0 - c)
        return out

    def layer_metrics(self, passes: int, traced_wall: float) -> dict:
        """Every per-layer metric, per traced pass, with its unit."""
        self_t = self.self_times()
        calls: dict = {}
        sizes: dict = {}
        max_cells = 0
        for name, _, _, _, attrs in self.spans:
            calls[name] = calls.get(name, 0) + 1
            if attrs:
                acc = sizes.setdefault(name, {})
                for k, v in attrs.items():
                    acc[k] = acc.get(k, 0) + v
                if name.startswith("linalg."):
                    max_cells = max(max_cells, attrs["cells"])

        def size(span: str, key: str) -> int:
            return sizes.get(span, {}).get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for metric, names in SELF_TIMES:
            out[metric] = sum(self_t.get(n, 0.0) for n in names) / passes
        for metric, name in COUNTS:
            out[metric] = calls.get(name, 0) / passes
        lin_cells = size("linalg.rank", "cells") + size("linalg.solve", "cells")
        lin_nnz = size("linalg.rank", "nnz") + size("linalg.solve", "nnz")
        out["linalg.cells"] = lin_cells / passes
        out["linalg.max_cells"] = max_cells
        out["linalg.density"] = ratio(lin_nnz, lin_cells)
        out["resolutions.taylor.rank"] = size("resolutions.taylor", "rank") / passes
        out["resolutions.kept_frac"] = ratio(size("resolutions.minimize", "rank"),
                                             size("resolutions.taylor", "rank"))
        for path in ("koszul", "solve", "fallback"):
            out[f"fiber.lift.{path}"] = size("fiber.build_fiber", path) / passes
        out["complexes.cells"] = size("complexes.cone", "cells") / passes
        out["complexes.density"] = ratio(size("complexes.cone", "nnz"),
                                         size("complexes.cone", "cells"))
        out["star.rank"] = size("star.star_product", "rank") / passes
        out["trace.overhead_s"] = (len(self.spans) * self.span_cost() + self.size_s) / passes
        out["trace.remainder_s"] = traced_wall - sum(out[m] for m, _ in SELF_TIMES)
        return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in out.items()}

    def dump(self, path, header: dict) -> None:
        base = self.spans[0][2] if self.spans else 0.0
        spans = [[n, p, round(t0 - base, 9), round(t1 - base, 9), a]
                 for n, p, t0, t1, a in self.spans]
        with open(path, "w") as fh:
            json.dump(dict(header, spans=spans), fh)
