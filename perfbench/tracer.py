"""Per-layer tracing of girardlab from outside the program.

`Tracer.install` wraps the public functions of each layer where the calling
modules look them up (a module's global, or a `Poly` class attribute), so
the program runs unchanged.  Each wrapped call is a frame on a stack; its
self time is its duration minus the durations of the wrapped calls made
inside it, and goes to the metric named in LAYERS.  Count-only wrappers
(classify, involute, sum_product, rhs_inner_sum, binomial, factorial)
add no frame, so their time stays in the caller's self time.  Calls of
the layer functions above the kernels are also kept in memory as spans
(id, parent id, name, start, end, self time) and handed back at the end;
the kernels (`Poly` arithmetic, `poly_sum`, `bernoulli_number`) are only
aggregated, since they run hundreds of thousands of times per invocation.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (module, function, metric, kind).  A "span" or "kernel" call adds its self
# time to the metric, and only a "span" call is kept as a span; a "count"
# call adds 1 to the metric and leaves its time to its caller.
LAYERS = [
    ("digraph", "random_digraph", "digraph.build_ms", "span"),
    ("digraph", "parse_digraph", "digraph.build_ms", "span"),
    ("digraph", "validate", "digraph.build_ms", "span"),
    ("digraph", "self_loop_digraph", "digraph.build_ms", "span"),
    ("enumeration", "colored_cycles", "enumeration.colored_cycles_ms", "span"),
    ("enumeration", "linear_subdigraphs", "enumeration.linear_subdigraphs_ms", "span"),
    ("enumeration", "closed_walks", "enumeration.closed_walks_ms", "span"),
    ("newton", "verify_walk_cycle_identity", "newton.identity_ms", "span"),
    ("newton", "total_subdigraph_sum", "newton.identity_ms", "span"),
    ("newton", "verify_colored_newton_girard", "newton.symbolic_ms", "span"),
    ("newton", "elementary_color_sum", "newton.elementary_sum_ms", "span"),
    ("newton", "cross_check_against_loops", "newton.cross_check_ms", "span"),
    ("newton", "verify_classical_newton_girard", "newton.classical_ms", "span"),
    ("involution", "audit_involution", "involution.audit_ms", "span"),
    ("involution", "enumerate_pairs", "involution.enumerate_pairs_ms", "span"),
    ("involution", "classify", "involution.classify_calls", "count"),
    ("involution", "involute", "involution.involute_calls", "count"),
    ("powersum", "power_sum_lhs", "powersum.lhs_ms", "span"),
    ("powersum", "power_sum_rhs", "powersum.rhs_ms", "span"),
    ("powersum", "good_word_sum", "powersum.good_words_ms", "span"),
    ("powersum", "rhs_inner_sum", "powersum.rhs_inner_sum_calls", "count"),
    ("powersum", "sum_product", "powersum.sum_product_calls", "count"),
    ("powersum", "power_sum_direct", "powersum.direct_ms", "span"),
    ("powersum", "power_sum_via_stirling", "powersum.stirling_ms", "span"),
    ("powersum", "power_sum_via_bernoulli", "powersum.bernoulli_ms", "span"),
    ("powersum", "verify_binomial_transform", "powersum.lemma21_ms", "span"),
    ("exactnum", "bernoulli_number", "exactnum.bernoulli_ms", "kernel"),
    ("exactnum", "binomial", "exactnum.binomial_calls", "count"),
    ("exactnum", "factorial", "exactnum.factorial_calls", "count"),
    ("poly", "poly_sum", "poly.sum_ms", "kernel"),
]

METRICS = {
    "cli.overhead_ms": "ms",
    "digraph.build_ms": "ms",
    "enumeration.cycles": "count",
    "enumeration.colored_cycles_ms": "ms",
    "enumeration.subdigraph_passes": "count",
    "enumeration.subdigraphs": "count",
    "enumeration.linear_subdigraphs_ms": "ms",
    "enumeration.walk_passes": "count",
    "enumeration.walks": "count",
    "enumeration.closed_walks_ms": "ms",
    "newton.identity_ms": "ms",
    "newton.split_terms": "count",
    "newton.symbolic_ms": "ms",
    "newton.elementary_sum_ms": "ms",
    "newton.cross_check_ms": "ms",
    "newton.classical_ms": "ms",
    "involution.audit_ms": "ms",
    "involution.enumerate_pairs_ms": "ms",
    "involution.pairs": "count",
    "involution.bad_pairs": "count",
    "involution.good_pairs": "count",
    "involution.classify_calls": "count",
    "involution.involute_calls": "count",
    "involution.identity_recheck_ms": "ms",
    "powersum.lhs_ms": "ms",
    "powersum.rhs_ms": "ms",
    "powersum.good_words_ms": "ms",
    "powersum.rhs_inner_sum_calls": "count",
    "powersum.sum_product_calls": "count",
    "powersum.direct_ms": "ms",
    "powersum.stirling_ms": "ms",
    "powersum.bernoulli_ms": "ms",
    "powersum.lemma21_ms": "ms",
    "poly.mul_calls": "count",
    "poly.mul_term_pairs": "count",
    "poly.mul_ms": "ms",
    "poly.add_calls": "count",
    "poly.add_ms": "ms",
    "poly.sum_ms": "ms",
    "poly.max_terms": "count",
    "exactnum.bernoulli_ms": "ms",
    "exactnum.binomial_calls": "count",
    "exactnum.factorial_calls": "count",
}


class Tracer:
    """Self times and counts per metric, plus spans of the layer calls."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        # frame: [time spent in wrapped children, span id, span name]
        self.stack: list[list] = [[0.0, None, None]]
        self.origin = perf()

    def _observer(self, name: str):
        """The function that takes counts from a wrapped call's result, or None.

        It is called with the result, the call's duration and the name of
        the enclosing span.
        """
        t = self.totals

        def cycles(result, duration, parent):
            t["enumeration.cycles"] += len(result)

        def subdigraphs(result, duration, parent):
            t["enumeration.subdigraph_passes"] += 1
            t["enumeration.subdigraphs"] += len(result)

        def walks(result, duration, parent):
            t["enumeration.walk_passes"] += 1
            t["enumeration.walks"] += len(result)

        def split_terms(result, duration, parent):
            t["newton.split_terms"] += len(result.breakdown)

        def identity(result, duration, parent):
            split_terms(result, duration, parent)
            if parent == "audit_involution":
                t["involution.identity_recheck_ms"] += duration

        def audit(result, duration, parent):
            t["involution.pairs"] += result.pair_count
            t["involution.bad_pairs"] += result.bad_count
            t["involution.good_pairs"] += result.good_count

        def max_terms(result, duration, parent):
            if result is not NotImplemented:
                t["poly.max_terms"] = max(t["poly.max_terms"], result.term_count())

        return {
            "colored_cycles": cycles,
            "linear_subdigraphs": subdigraphs,
            "closed_walks": walks,
            "verify_walk_cycle_identity": identity,
            "verify_colored_newton_girard": split_terms,
            "audit_involution": audit,
            "poly_sum": max_terms,
            "__mul__": max_terms,
            "__add__": max_terms,
        }.get(name)

    def timed(self, fn, metric: str, span: bool):
        """Wrap fn so its self time goes to `metric`."""
        name = fn.__name__
        stack, totals, spans, origin = self.stack, self.totals, self.spans, self.origin
        observe = self._observer(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if span:
                sid = len(spans)
                spans.append(None)  # reserve the id; filled in on return
                frame = [0.0, sid, name]
            else:
                frame = [0.0, parent[1], parent[2]]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self_time = duration - frame[0]
                parent[0] += duration
                totals[metric] += self_time
                if span:
                    spans[sid] = {
                        "id": sid, "parent": parent[1], "name": name,
                        "start_ms": (start - origin) * 1e3,
                        "end_ms": (end - origin) * 1e3,
                        "self_ms": self_time * 1e3,
                    }
            if observe is not None:
                observe(result, duration, parent[2])
            return result

        return wrapper

    def counted(self, fn, metric: str):
        totals = self.totals

        def wrapper(*args, **kwargs):
            totals[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every function in LAYERS in each girardlab module that holds it."""
        from girardlab.poly import Poly

        modules = [m for n, m in list(sys.modules.items()) if n.startswith("girardlab")]
        for mod_name, fn_name, metric, kind in LAYERS:
            original = getattr(sys.modules[f"girardlab.{mod_name}"], fn_name)
            if kind == "count":
                wrapper = self.counted(original, metric)
            else:
                wrapper = self.timed(original, metric, kind == "span")
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
        self._install_poly(Poly)

    def _install_poly(self, poly_cls) -> None:
        totals = self.totals
        mul = self.timed(poly_cls.__mul__, "poly.mul_ms", False)
        add = self.timed(poly_cls.__add__, "poly.add_ms", False)

        def counted_mul(a, b):
            totals["poly.mul_calls"] += 1
            other = b.term_count() if isinstance(b, poly_cls) else int(b != 0)
            totals["poly.mul_term_pairs"] += a.term_count() * other
            return mul(a, b)

        def counted_add(a, b):
            totals["poly.add_calls"] += 1
            return add(a, b)

        poly_cls.__mul__ = poly_cls.__rmul__ = counted_mul
        poly_cls.__add__ = poly_cls.__radd__ = counted_add

    def metrics(self) -> dict[str, float]:
        """Every metric of METRICS; times in ms, counts as ints."""
        out = {}
        for metric, unit in METRICS.items():
            value = self.totals.get(metric, 0)
            out[metric] = value * 1e3 if unit == "ms" else int(value)
        return out
