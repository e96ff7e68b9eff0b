"""Span tracer for the benchmark's traced passes.

It wraps each layer's public functions at every binding site: a name bound
by `from .variety import validate_noether` inside `bases`, `vdm`, `cli` or
the package namespace is replaced along with the defining module's own, so
internal calls are traced too. Nothing inside `src/` changes; the wrappers
are installed for one pass and removed after it.

A span holds its name, start, end and parent. Spans stay in memory and are
written out when the run ends. A layer's self time is the duration of its
spans minus the part their child spans cover; the layer of a span is the
module of the function it wraps.

Counts come from wrapping `numpy.linalg.solve` and `slogdet` (attributed to
the innermost open span) and from the results of a few traced functions.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("cli", "variety", "polyring", "scalars", "bases", "families", "vdm")

# Per-monomial helpers that run hundreds of thousands of times in one pass. A
# span around each would cost more than the work it times, so their time
# counts toward the caller. The same holds for the Exact and Polynomial
# accessors left out of METHODS (to_complex, is_zero, leading_term, ...).
UNTRACED = {"grevlex_key", "cmp_grevlex", "monomial_mul", "monomial_divides", "monomial_div", "monomial_lcm", "monomial_degree"}

METHODS = {
    ("polyring", "Polynomial"): (
        "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__", "__pow__",
        "evaluate", "to_float", "restrict_zero",
    ),
    ("scalars", "Exact"): (
        "__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "inverse", "__truediv__",
        "__rtruediv__", "__pow__", "conjugate", "modulus_squared",
    ),
}

SAMPLERS = ("torus_sampler", "segment_sampler", "points_sampler", "file_sampler", "random_variety_points")
BUILDERS = ("cm_generators", "cm_basis", "monomial_graded_basis", "bb_structured")

# A start is useful when it ends this close to the best start's objective.
USEFUL_START_TOL = 1e-9


def _observe_fekete(stats, args, res):
    stats["fekete.starts"] += res.starts
    tol = USEFUL_START_TOL * max(1.0, abs(res.log_abs))
    stats["fekete.useful_starts"] += sum(1 for v in res.start_logs if v >= res.log_abs - tol)


def _observe_points(key):
    def observe(stats, args, res):
        stats[key] += len(res)
    return observe


OBSERVERS = {
    "vdm.fekete_maximize": _observe_fekete,
    "vdm._sweep_to_convergence": lambda stats, args, res: stats.update({"fekete.sweeps": res[2]}),
    "vdm.vdm_matrix": lambda stats, args, res: stats.update({"vdm_matrix.cells": res.size}),
    "vdm.row_scale_bound": lambda stats, args, res: stats.update({"row_scale_bound.n": len(args[0])}),
    "bases.torus_quadrature": _observe_points("torus_quadrature.points"),
    **{f"vdm.{name}": _observe_points("sampler.points") for name in SAMPLERS},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, start, end, parent index); an open span holds only its name id
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # (counter, name id of innermost open span) -> calls
        self.stats: Counter = Counter()  # totals gathered by OBSERVERS

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, name: str, fn):
        nid, spans, stack, clock = self._id(name), self.spans, self.stack, time.perf_counter
        observe, stats = OBSERVERS.get(name), self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(nid)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if observe is not None:
                observe(stats, args, res)
            return res

        return traced

    def _observe_wrapper(self, name: str, fn):
        observe, stats = OBSERVERS[name], self.stats

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            res = fn(*args, **kwargs)
            observe(stats, args, res)
            return res

        return observed

    def _count_wrapper(self, counter: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(counter, spans[stack[-1]])] += 1
            return fn(*args, **kwargs)

        return counted

    def _replacements(self) -> dict:
        """Original function -> wrapper, for every function the tracer wraps."""
        repl = {}
        for layer in LAYERS:
            mod = sys.modules[f"vdiam.{layer}"]
            for name, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name not in UNTRACED
                ):
                    repl[obj] = self._span_wrapper(f"{layer}.{name}", obj)
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"vdiam.{layer}"], cls_name)
            for name in methods:
                fn = vars(cls)[name]
                repl[fn] = self._span_wrapper(f"{layer}.{cls_name}.{name}", fn)
        sweep = sys.modules["vdiam.vdm"]._sweep_to_convergence
        repl[sweep] = self._observe_wrapper("vdm._sweep_to_convergence", sweep)
        return repl

    @contextmanager
    def installed(self):
        """Wrap every binding site in the vdiam modules, their classes and
        numpy.linalg; restore the originals on exit."""
        repl = self._replacements()
        sites = [m for n, m in sys.modules.items() if n == "vdiam" or n.startswith("vdiam.")]
        sites += [getattr(sys.modules[f"vdiam.{layer}"], cls) for layer, cls in METHODS]
        patched = []
        try:
            for site in sites:
                for name, obj in list(vars(site).items()):
                    if isinstance(obj, types.FunctionType) and obj in repl:
                        setattr(site, name, repl[obj])
                        patched.append((site, name, obj))
            for name in ("solve", "slogdet"):
                fn = getattr(np.linalg, name)
                setattr(np.linalg, name, self._count_wrapper(name, fn))
                patched.append((np.linalg, name, fn))
            yield self
        finally:
            for site, name, obj in reversed(patched):
                setattr(site, name, obj)

    @contextmanager
    def span(self, name: str):
        """Open a span from the benchmark's own code; with no span open it is
        a root, inside which traced calls nest. Yields its index."""
        idx, nid = len(self.spans), self._id(name)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(nid)
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield idx
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (nid, t0, t1, parent)

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per layer over the spans of one root, the root's own
        layer included, so the values sum to the root's duration."""
        spans = self.spans[root:]
        child = [0.0] * len(spans)
        for nid, t0, t1, parent in spans:
            if parent >= root:
                child[parent - root] += t1 - t0
        layer = [name.split(".", 1)[0] for name in self.names]
        out: dict[str, float] = defaultdict(float)
        for (nid, t0, t1, _), covered in zip(spans, child):
            out[layer[nid]] += (t1 - t0) - covered
        return dict(out)

    def group_time(self, root: int, names) -> float:
        """Time inside spans named in `names`, not counting a span twice when
        it nests inside another of the group."""
        ids = {self._ids[n] for n in names if n in self._ids}
        total = 0.0
        for nid, t0, t1, parent in self.spans[root:]:
            if nid not in ids:
                continue
            p = parent
            while p >= root and self.spans[p][0] not in ids:
                p = self.spans[p][3]
            if p < root:
                total += t1 - t0
        return total

    def counted(self, counter: str, span_name: str) -> int:
        return self.counts[(counter, self._ids.get(span_name))]

    def pass_metrics(self, root: int) -> dict[str, float]:
        """The per-layer metrics of the pass under `root`. Call once the pass
        has ended and before the next one starts: counts and stats are reset."""
        st = self.self_times(root)
        ncalls = Counter(self.names[s[0]] for s in self.spans[root:])
        fekete = "vdm.fekete_maximize"
        starts = self.stats["fekete.starts"]
        m = {
            "vdm.fekete.s": self.group_time(root, [fekete]),
            "vdm.fekete.solves": self.counted("solve", fekete),
            "vdm.fekete.slogdets": self.counted("slogdet", fekete),
            "vdm.fekete.sweeps": self.stats["fekete.sweeps"],
            "vdm.fekete.starts": starts,
            "vdm.fekete.calls": ncalls[fekete],
            "vdm.fekete.useful_start_ratio": self.stats["fekete.useful_starts"] / starts if starts else 0.0,
            "vdm.vdm_matrix.s": self.group_time(root, ["vdm.vdm_matrix"]),
            "vdm.vdm_matrix.cells": self.stats["vdm_matrix.cells"],
            "vdm.sampler.s": self.group_time(root, [f"vdm.{n}" for n in SAMPLERS]),
            "vdm.sampler.points": self.stats["sampler.points"],
            "vdm.row_scale_bound.s": self.group_time(root, ["vdm.row_scale_bound"]),
            "vdm.row_scale_bound.n": self.stats["row_scale_bound.n"],
            "bases.torus_quadrature.s": self.group_time(root, ["bases.torus_quadrature"]),
            "bases.torus_quadrature.points": self.stats["torus_quadrature.points"],
            "bases.bb_basis.s": self.group_time(root, ["bases.bb_basis"]),
            "bases.build.s": self.group_time(root, [f"bases.{n}" for n in BUILDERS]),
            "scalars.exact_mul.calls": ncalls["scalars.Exact.__mul__"],
            "scalars.exact_add.calls": ncalls["scalars.Exact.__add__"],
            "polyring.evaluate.calls": ncalls["polyring.Polynomial.evaluate"],
            "polyring.evaluate.s": self.group_time(root, ["polyring.Polynomial.evaluate"]),
            "polyring.star.calls": ncalls["polyring.star"],
            "variety.validate_noether.calls": ncalls["variety.validate_noether"],
            "variety.count.calls": ncalls["variety.count"],
            "families.check_compliant.calls": ncalls["families.check_compliant"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = st.get(layer, 0.0)
        self.counts.clear()
        self.stats.clear()
        return m

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span, times in microseconds from the first span's start."""
        t_base = min((s[1] for s in self.spans), default=0.0)
        doc = {
            **meta,
            "names": self.names,
            "spans": [
                [nid, round((t0 - t_base) * 1e6, 1), round((t1 - t_base) * 1e6, 1), parent]
                for nid, t0, t1, parent in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
