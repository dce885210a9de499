"""Span tracing from outside the library, for the ``--trace 1`` run.

The public functions of each layer are wrapped here and rebound at every
site in ``artinsum`` that holds them (``build_algebra``, for one, is bound
separately by ``quotient``, ``sums``, ``graded`` and ``decompose``).  A
wrapper records a span -- name, start, end, parent span, op id -- only while
an op is running, so input preparation and correctness checks stay out of
the numbers.  Spans use the same CPU clock as the untraced op timings.
Counts are taken in the same wrappers.  ``poly`` and
``fields`` get millions of calls and are not wrapped; their time shows up
as self time of their callers.
"""

import json
import sys
from collections import Counter, defaultdict
from time import process_time

import numpy as np

NAME, START, END, PARENT, OP = range(5)

SELF_TIME_METRICS = {span: span + ".self_s" for span in (
    "grobner.buchberger", "grobner.normal_form", "kernels.rref_mod",
    "resolution.betti_numbers", "quotient.build_algebra",
    "sums.apolar_algebra", "sums.connected_sum", "sums.fibre_product",
    "graded.associated_graded", "decompose.structure_decompose", "decompose.check_split",
    "decompose.split_witness", "decompose.certify_indecomposable", "parse.parse_polynomial",
)}
# linalg.rref records one span name per lane: int64 mod p, or Fractions
SELF_TIME_METRICS["linalg.rref.gfp"] = "linalg.rref.gfp_self_s"
SELF_TIME_METRICS["linalg.rref.qq"] = "linalg.rref.qq_self_s"


class Tracer:
    """In-memory span recorder; ``install`` wraps the library, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, process_time(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][END] = process_time()

    def begin_op(self, op_id):
        self.op = op_id
        self._open("op")

    def end_op(self):
        self._close(self._stack[-1])
        self.op = None

    def _wrap(self, name, fn, before=None, after=None):
        """A wrapper recording one span per call; ``name`` may depend on the arguments."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            state = before(*args, **kwargs) if before else None
            idx = tracer._open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after:
                after(idx, result, state)
            return result

        return wrapper

    def _rebind(self, original, replacement):
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "artinsum" and not name.startswith("artinsum."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    # -- installation --------------------------------------------------------

    def install(self):
        from artinsum import (_kernels, decompose, graded, grobner, linalg, parse,
                              quotient, resolution, sums)
        counts = self.counts
        spans = self.spans

        def after_buchberger(idx, result, state):
            counts["grobner.basis_len_total"] += len(result)

        def after_normal_form(idx, result, state):
            parent = spans[idx][PARENT]
            if parent >= 0 and spans[parent][NAME] == "grobner.buchberger":
                counts["nf_under_buchberger"] += 1
                counts["nf_under_buchberger_nonzero"] += not result.is_zero()

        def rref_lane(field, a):
            return "linalg.rref.gfp" if linalg.is_prime_field(field) else "linalg.rref.qq"

        def before_rref(field, a):
            m, n = np.shape(a)
            cells = m * n
            counts["linalg.rref.cells"] += cells
            if linalg.is_prime_field(field):
                counts["linalg.rref.bytes_computed"] += 8 * cells

        def before_betti(A, truncation=resolution.DEFAULT_TRUNCATION, max_dim=None):
            cached = A._betti_cache
            return cached is not None and cached.truncation >= truncation

        def after_betti(idx, result, was_cached):
            if not was_cached:
                counts["resolution.betti_total"] += sum(result.betti)

        def after_build(idx, result, state):
            counts["quotient.length_total"] += result.length

        targets = [
            (grobner, "buchberger", "grobner.buchberger", None, after_buchberger),
            (grobner, "normal_form", "grobner.normal_form", None, after_normal_form),
            (linalg, "rref", rref_lane, before_rref, None),
            (_kernels, "rref_mod", "kernels.rref_mod", None, None),
            (resolution, "betti_numbers", "resolution.betti_numbers", before_betti, after_betti),
            (quotient, "build_algebra", "quotient.build_algebra", None, after_build),
            (sums, "apolar_algebra", "sums.apolar_algebra", None, None),
            (sums, "connected_sum", "sums.connected_sum", None, None),
            (sums, "fibre_product", "sums.fibre_product", None, None),
            (graded, "associated_graded", "graded.associated_graded", None, None),
            (decompose, "structure_decompose", "decompose.structure_decompose", None, None),
            (decompose, "check_split", "decompose.check_split", None, None),
            (decompose, "split_witness", "decompose.split_witness", None, None),
            (decompose, "certify_indecomposable", "decompose.certify_indecomposable",
             None, None),
            (parse, "parse_polynomial", "parse.parse_polynomial", None, None),
        ]
        for module, attr, name, before, after in targets:
            original = getattr(module, attr)
            self._rebind(original, self._wrap(name, original, before, after))

        cls = grobner.IdealPresentation
        original_gb = cls.groebner_basis

        def groebner_basis(pres, order=None, max_degree=None):
            if self.op is not None:
                counts["gb_calls"] += 1
                counts["gb_hits"] += (order or pres.ring.order) in pres._gb_cache
            return original_gb(pres, order, max_degree)

        cls.groebner_basis = groebner_basis
        self._undo.append((cls, "groebner_basis", original_gb))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self):
        """Self times, call counts, work counts and ratios, keyed by metric name."""
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        op_time = 0.0
        uncovered = 0.0
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            own = (end - start) - child_time[idx]
            if parent < 0:
                op_time += end - start
                uncovered += own
            else:
                self_s[name] += own
                calls[name] += 1
        c = self.counts
        out = {metric: self_s[span] for span, metric in SELF_TIME_METRICS.items()}
        for name in ("grobner.buchberger", "grobner.normal_form", "resolution.betti_numbers",
                     "quotient.build_algebra"):
            out[name + ".calls"] = calls[name]
        out["linalg.rref.calls"] = calls["linalg.rref.gfp"] + calls["linalg.rref.qq"]
        for name in ("grobner.basis_len_total", "linalg.rref.cells",
                     "linalg.rref.bytes_computed", "resolution.betti_total",
                     "quotient.length_total"):
            out[name] = c[name]
        out["grobner.spair_nonzero_ratio"] = _ratio(c["nf_under_buchberger_nonzero"],
                                                    c["nf_under_buchberger"])
        out["grobner.gb_cache_hit_ratio"] = _ratio(c["gb_hits"], c["gb_calls"])
        out["trace.op_s"] = op_time
        out["trace.uncovered_s"] = uncovered
        return out

    def write(self, path):
        """Write every span as one JSON array per line: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
