"""Spans around eamod's public functions, recorded from outside the program.

install() replaces each traced function with a wrapper at every place it
is bound: the defining module, every eamod module that imported it by
name, and the class for methods.  A wrapper records one span per call:
(name, start, end, parent span index, work), where work is a count
computed from the operands (or the result) after the call has ended.
Spans stay in memory; the worker writes them to a trace file at exit.

summarize() turns the spans into the per-layer metrics.  A layer's calls
and inclusive seconds count only its outermost spans (a kernel_basis
that calls kernel_array is one kernel call); self time is a span's
duration minus the part its direct children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from math import comb


def _cells(args, kwargs, result):
    mat = args[0]
    return mat.rows * mat.cols


def _madds(args, kwargs, result):
    a, b = args[0], args[1]
    if a.ctx.m == 1:
        pairs = 1
    else:
        pairs = sum(1 for i in range(a.ctx.m) if a.data[:, :, i].any()) * sum(
            1 for i in range(b.ctx.m) if b.data[:, :, i].any()
        )
    return a.rows * a.cols * b.cols * pairs


def _compound_bytes(args, kwargs, result):
    a_mat, r = args[0], args[1]
    count = comb(a_mat.rows, r)
    return count * count * r * r * a_mat.ctx.m * a_mat.data.itemsize


def _points(args, kwargs, result):
    return len(result.points)


def _splits(args, kwargs, result):
    return len(result.summands) - 1


# (module, attribute path, layer, (work name, work count) or None).
# A span is named <module>.<attribute path>; every layer has the metrics
# <layer>.calls, <layer>.s, <layer>.self_s and <layer>.<work name>.
TARGETS = [
    ("gf", "FieldCtx.cinv", "gf.cinv", None),
    ("gf", "poly_factor", "gf.poly_factor", None),
    ("linalg", "MatF.__matmul__", "linalg.matmul", ("madds", _madds)),
    ("linalg", "MatF.rank", "linalg.rank", ("cells", _cells)),
    ("linalg", "MatF.rref", "linalg.kernel", ("cells", _cells)),
    ("linalg", "MatF.kernel_array", "linalg.kernel", ("cells", _cells)),
    ("linalg", "MatF.kernel_basis", "linalg.kernel", ("cells", _cells)),
    ("linalg", "MatF.inv", "linalg.kernel", ("cells", _cells)),
    ("linalg", "jordan_type_nilpotent", "linalg.jordan_type", None),
    ("linalg", "compound_matrix", "linalg.compound", ("bytes", _compound_bytes)),
    ("modrep", "x_alpha", "modrep.x_alpha", None),
    ("modrep", "point_jordan_type", "modrep.point_jordan_type", None),
    ("modrep", "is_free_at", "modrep.is_free_at", None),
    ("modrep", "wedge", "modrep.wedge", None),
    ("modrep", "endomorphism_basis", "modrep.endomorphism_basis", None),
    ("modrep", "fitting_decompose", "modrep.fitting_decompose", ("splits", _splits)),
    ("symrep", "d_r", "symrep.d_r", None),
    ("symrep", "pk_eval_batch", "symrep.pk_eval_batch", None),
    ("variety", "enumerate_projective", "variety.enumerate_projective", None),
    ("variety", "variety_points", "variety.variety_points", ("points", _points)),
    ("variety", "zero_points", "variety.zero_points", None),
    ("variety", "compare_sets", "variety.compare_sets", None),
    ("variety", "dv_rank2_builder", "variety.dv_rank2_builder", None),
]
LAYER_OF = {f"{module}.{path}": layer for module, path, layer, _ in TARGETS}
WORK_OF = {layer: work[0] for _, _, layer, work in TARGETS if work}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent, work)
        self._stack = []

    def wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count = work(args, kwargs, result) if work is not None and result is not None else 0
                spans[index] = (name, start, end, parent, count)

        return traced

    def install(self) -> None:
        loaded = [mod for key, mod in sys.modules.items() if key == "eamod" or key.startswith("eamod.")]
        for module_name, path, _, work in TARGETS:
            owner = sys.modules.get(f"eamod.{module_name}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue  # gone from this version of the program; its metrics read 0
            wrapped = self.wrap(f"{module_name}.{path}", original, work and work[1])
            if classes:
                setattr(owner, attr, wrapped)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "work"],
                    "names": names,
                    "spans": [[index[n], a, b, par, w] for n, a, b, par, w in self.spans],
                },
                fh,
            )

    def summarize(self, wall_start: float, wall_end: float) -> dict:
        """Per-layer metrics; a layer's calls, s and work count outermost spans only."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        metrics = {}
        for layer in LAYER_OF.values():
            for field in ("calls", "s", "self_s") + ((WORK_OF[layer],) if layer in WORK_OF else ()):
                metrics[f"{layer}.{field}"] = 0
        swept = evals = 0
        top = 0.0
        for i, (name, start, end, parent, count) in enumerate(spans):
            layer = LAYER_OF[name]
            ancestors = set()
            while parent >= 0:
                ancestors.add(LAYER_OF[spans[parent][0]])
                parent = spans[parent][3]
            if not ancestors:
                top += end - start
            if layer == "variety.variety_points":
                swept += count
            elif "variety.variety_points" in ancestors and layer in (
                "modrep.point_jordan_type",
                "modrep.is_free_at",
            ):
                evals += 1
            metrics[f"{layer}.self_s"] += end - start - child_time[i]
            if layer not in ancestors:
                metrics[f"{layer}.calls"] += 1
                metrics[f"{layer}.s"] += end - start
                if layer in WORK_OF:
                    metrics[f"{layer}.{WORK_OF[layer]}"] += count
        factorings = metrics["gf.poly_factor.calls"]
        splits = metrics["modrep.fitting_decompose.splits"]
        metrics["modrep.fitting.split_yield"] = splits / factorings if factorings else 0.0
        metrics["variety.evals_per_point"] = evals / swept if swept else 0.0
        metrics["trace.top_coverage"] = top / (wall_end - wall_start)
        return metrics
