"""Spans around airycheck's public functions, and the per-layer metrics.

``Tracer.install()`` wraps every public module-level function of the traced
modules and the public methods of ``GLnModel``.  Each wrapped name is
replaced in every airycheck module that holds it, so ``linalg.mat_mul`` is
traced whether ``chevalley``, ``loopmodel`` or ``rootdata`` calls it.  A span
records its name, start, end and parent; a span's self time is its duration
minus the durations of its child spans.  Scalar arithmetic is not wrapped: a
span around every field operation would swamp the run, so ``arith_micro``
times it separately in ns/op.
"""

from __future__ import annotations

import random
import statistics
import sys
import types
from array import array
from time import perf_counter

TRACED_MODULES = ("expsum", "gln_airy", "chevalley", "linalg", "loopmodel", "rootdata")

# The end-to-end metric each layer metric should move:
# - trace wall_s: expsum.*, gln_airy hecke_p1, hecke_p2, poly_eval and
#   chi_geometric, arith.fq_*, arith.cyclo_mul_ns;
# - lie wall_s: chevalley.* (but s1_graph), rootdata.self_s, linalg.*;
# - loop wall_s: loopmodel.*, gln_airy.section.self_s, chevalley.s1_graph,
#   linalg.*, arith.fp_mul_ns;
# - warm_wall_s: the hit ratios.
# (span name, report call count too)
SPAN_METRICS = [
    ("expsum.airy_trace_table", False),
    ("expsum.hecke_closed", False),
    ("expsum.hecke_brute", False),
    ("expsum.weil_check", False),
    ("gln_airy.hecke_p1", True),
    ("gln_airy.hecke_p2", True),
    ("gln_airy.poly_eval", True),
    ("gln_airy.chi_geometric", True),
    ("chevalley.build_algebra", True),
    ("chevalley.centralizer_z", True),
    ("chevalley.p_minus_bijective", True),
    ("chevalley.wP_representative", True),
    ("chevalley.decomposition_check", True),
    ("chevalley.relevance_linear_kernel", True),
    ("chevalley.s1_graph", False),
    ("linalg.mat_mul", True),
    ("linalg.rref", True),
    ("linalg.nullspace", True),
    ("linalg.solve", True),
    ("linalg.inverse", True),
    ("loopmodel.factorize_I1", True),
    ("loopmodel.GLnModel.mul", True),
    ("loopmodel.GLnModel.inv", True),
]
SECTION_SPANS = ("exp_section", "log_section", "section_mul", "chi_eval")


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.fibers = 0  # brute-force fibers enumerated, sum of q^(1+n/2)

    def wrap(self, name, fn):
        """``fn`` wrapped so that each call records one span."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                start[i] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def mark(self):
        """Number of spans recorded so far; marks the end of a pass."""
        return len(self.start)

    def install(self):
        """Patch the traced airycheck modules; returns self."""
        from airycheck import expsum, loopmodel

        replace = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"airycheck.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    replace[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        replace[id(expsum.hecke_trace_table)] = self._hecke_dispatch(expsum.hecke_trace_table)
        for mod in [m for k, m in sys.modules.items() if k.startswith("airycheck.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])
        cls = loopmodel.GLnModel
        for attr, obj in list(vars(cls).items()):
            if not attr.startswith("_") and isinstance(obj, types.FunctionType):
                setattr(cls, attr, self.wrap(f"loopmodel.GLnModel.{attr}", obj))
        return self

    def _hecke_dispatch(self, fn):
        """One span name per branch of hecke_trace_table, and fiber counts."""
        closed = self.wrap("expsum.hecke_closed", fn)
        brute = self.wrap("expsum.hecke_brute", fn)

        def hecke_trace_table(params, *args, **kwargs):
            if kwargs.get("brute", args[0] if args else False):
                field = params.field
                self.fibers += (field.p ** getattr(field, "e", 1)) ** (1 + params.n // 2)
                return brute(params, *args, **kwargs)
            return closed(params, *args, **kwargs)

        return hecke_trace_table

    def summary(self, lo, hi):
        """Per-name calls, self and total seconds, and the top-level total,
        over spans ``lo <= i < hi`` (one pass)."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            pa = self.parent[i]
            if pa >= lo:
                child[pa - lo] += self.end[i] - self.start[i]
        calls, self_s, total_s = {}, {}, {}
        top = 0.0
        for i in range(lo, hi):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i - lo]
            total_s[name] = total_s.get(name, 0.0) + dur
            if self.parent[i] < lo:
                top += dur
        return calls, self_s, total_s, top


def cache_counts():
    """(hits, misses) of the library's lru caches that the metrics name."""
    from airycheck import chevalley, loopmodel, rootdata

    out = {}
    for key, fn in (
        ("chevalley.build_algebra", chevalley.build_algebra),
        ("loopmodel.factor_bases", loopmodel._factor_bases),
        ("rootdata.get_root_datum", rootdata.get_root_datum),
    ):
        while not hasattr(fn, "cache_info"):  # under the tracer's wrapper
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[key] = (info.hits, info.misses)
    return out


def layer_metrics(calls, self_s, total_s, fibers, caches_before, caches_after):
    """The span- and cache-derived per-layer metrics of one pass."""
    m = {}
    for name, with_calls in SPAN_METRICS:
        if with_calls:
            m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["gln_airy.section.self_s"] = sum(self_s.get(f"gln_airy.{s}", 0.0) for s in SECTION_SPANS)
    m["rootdata.self_s"] = sum(v for k, v in self_s.items() if k.startswith("rootdata."))
    m["expsum.brute.fibers"] = fibers
    brute_s = total_s.get("expsum.hecke_brute", 0.0)
    m["expsum.brute.fibers_per_s"] = fibers / brute_s if brute_s else 0.0
    for key in caches_after:
        hits = caches_after[key][0] - caches_before[key][0]
        misses = caches_after[key][1] - caches_before[key][1]
        m[f"{key}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return m


def arith_micro(seed, reps=7):
    """Scalar kernels in ns/op (ms for a field set-up), median of ``reps``
    timings on seeded operands from the workloads' fields."""
    from airycheck import arith

    rng = random.Random(seed)
    F121 = arith.FqField(11, 2)
    fq = [(F121.from_index(rng.randrange(1, 121)), F121.from_index(rng.randrange(1, 121)))
          for _ in range(4000)]
    F7 = arith.GF(7)
    fp = [(F7(rng.randrange(1, 7)), F7(rng.randrange(1, 7))) for _ in range(8000)]
    cy = [(arith.CyclotomicValue(11, [rng.randrange(-9, 10) for _ in range(10)]),
           arith.CyclotomicValue(11, [rng.randrange(-9, 10) for _ in range(10)]))
          for _ in range(400)]

    def per_op(pairs, op):
        samples = []
        for _ in range(reps):
            t0 = perf_counter()
            for x, y in pairs:
                op(x, y)
            samples.append((perf_counter() - t0) / len(pairs) * 1e9)
        return statistics.median(samples)

    def field_init():
        samples = []
        for _ in range(reps):
            t0 = perf_counter()
            F = arith.FqField(11, 2)
            F.from_index(2) * F.from_index(3)  # forces the lazy multiply tables
            samples.append((perf_counter() - t0) * 1e3)
        return statistics.median(samples)

    return {
        "arith.fq_mul_ns": per_op(fq, lambda x, y: x * y),
        "arith.fq_add_ns": per_op(fq, lambda x, y: x + y),
        "arith.cyclo_mul_ns": per_op(cy, lambda x, y: x * y),
        "arith.fq_field_init_ms": field_init(),
        "arith.fp_mul_ns": per_op(fp, lambda x, y: x * y),
    }
