"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps qdl's public functions from outside the package.  Each
wrapper replaces the name in its defining module and in every qdl module
that bound the same object with ``from ... import``, so calls made from
inside the package are seen too.  Spanned functions record (name, parent,
start, end) into an in-memory list; counted functions only bump a counter,
because they are called far too often (tens of thousands of times per
operation) for a span each.  ``residues.rho_prime_power`` is read from its
own ``cache_info()``.

Self time of a span is its duration minus the durations of its direct
children; spans nest strictly, so the children never overlap.
"""

from __future__ import annotations

import json
import sys
import time

from qdl import cyclotomic, residues, weights

SPANNED = (
    "linalg.smith_normal_form", "linalg.solve_mod", "linalg.integer_kernel",
    "counts.beta_coset_char_sum", "expsums.s1_fast",
    "experiments.theorem2_lhs", "experiments.sigma_infinity",
    "singular.c_constants", "residues.sieve_primes", "residues.roots_mod_p",
    "dedekind.rankin_partial",
)
COUNTED = ("cyclotomic.mult_matrix", "residues.factorize")
# methods: (class, attribute names sharing one counter, metric name)
METHODS = (
    (cyclotomic.CycInt, ("__mul__", "__rmul__"), "cyclotomic.CycInt_mul"),
    (weights.BumpWeight, ("__call__",), "weights.BumpWeight_call"),
)
OP = "op"

# the per-layer metrics a traced run reports, with their units
PER_LAYER = {
    "linalg.smith_normal_form.calls": "calls/op",
    "linalg.smith_normal_form.self_ms": "ms/op",
    "linalg.solve_mod.calls": "calls/op",
    "linalg.solve_mod.self_ms": "ms/op",
    "linalg.integer_kernel.calls": "calls/op",
    "linalg.integer_kernel.self_ms": "ms/op",
    "counts.beta_coset_char_sum.calls": "calls/op",
    "counts.beta_coset_char_sum.self_ms": "ms/op",
    "counts.beta_coset_char_sum.nonzero_ratio": "ratio",
    "cyclotomic.mult_matrix.calls": "calls/op",
    "cyclotomic.CycInt_mul.calls": "calls/op",
    "expsums.s1_fast.self_ms": "ms/op",
    "experiments.theorem2_lhs.self_ms": "ms/op",
    "experiments.sigma_infinity.self_ms": "ms/op",
    "weights.BumpWeight_call.calls": "calls/op",
    "singular.c_constants.self_ms": "ms/op",
    "residues.rho_prime_power.calls": "calls/op",
    "residues.rho_prime_power.hit_ratio": "ratio",
    "residues.sieve_primes.self_ms": "ms/op",
    "residues.roots_mod_p.calls": "calls/op",
    "residues.roots_mod_p.self_ms": "ms/op",
    "residues.factorize.calls": "calls/op",
    "dedekind.rankin_partial.self_ms": "ms/op",
}


def _qdl_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "qdl" or name.startswith("qdl.")) and m is not None]


class Tracer:
    def __init__(self):
        self.names = [OP] + list(SPANNED)
        self.spans: list = []        # [name index, parent span index, t0_ns, t1_ns]
        self.stack = [-1]
        self.calls = {n: 0 for n in COUNTED + tuple(m[2] for m in METHODS)}
        self.nonzero_char_sums = 0
        self._undo: list = []
        self._rho0 = None

    # -- spans ---------------------------------------------------------------
    def _enter(self, name_idx: int) -> int:
        idx = len(self.spans)
        self.spans.append([name_idx, self.stack[-1], time.perf_counter_ns(), 0])
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int):
        self.spans[idx][3] = time.perf_counter_ns()
        self.stack.pop()

    def op(self, fn, *args):
        """Run one timed operation under a root span."""
        idx = self._enter(0)
        try:
            return fn(*args)
        finally:
            self._exit(idx)

    def _span_wrapper(self, name: str, fn):
        name_idx = self.names.index(name)
        count_nonzero = name == "counts.beta_coset_char_sum"

        def wrapper(*args, **kwargs):
            idx = self._enter(name_idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if count_nonzero and out[0] > 0:
                self.nonzero_char_sums += 1
            return out
        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------
    def _patch_function(self, qualname: str, make):
        module, attr = qualname.split(".")
        original = getattr(sys.modules["qdl." + module], attr)
        wrapper = make(qualname, original)
        for m in _qdl_modules():
            if m.__dict__.get(attr) is original:
                setattr(m, attr, wrapper)
                self._undo.append((m, attr, original))

    def install(self):
        for name in SPANNED:
            self._patch_function(name, self._span_wrapper)
        for name in COUNTED:
            self._patch_function(name, self._count_wrapper)
        for cls, attrs, name in METHODS:
            original = cls.__dict__[attrs[0]]
            wrapper = self._count_wrapper(name, original)
            for attr in attrs:
                self._undo.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, wrapper)
        self._rho0 = residues.rho_prime_power.cache_info()

    def uninstall(self):
        rho1 = residues.rho_prime_power.cache_info()
        self.rho_hits = rho1.hits - self._rho0.hits
        self.rho_misses = rho1.misses - self._rho0.misses
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------
    def metrics(self) -> dict:
        """Every PER_LAYER metric, per timed operation, as name -> (value, unit)."""
        n = len(self.names)
        total, child, calls = [0] * n, [0] * n, [0] * n
        for name_idx, parent, t0, t1 in self.spans:
            total[name_idx] += t1 - t0
            calls[name_idx] += 1
            if parent >= 0:
                child[self.spans[parent][0]] += t1 - t0
        ops = max(calls[0], 1)
        values = dict((name + ".calls", count / ops) for name, count in self.calls.items())
        for i, name in enumerate(self.names):
            values[name + ".calls"] = calls[i] / ops
            values[name + ".self_ms"] = (total[i] - child[i]) / 1e6 / ops
        bcs = calls[self.names.index("counts.beta_coset_char_sum")]
        values["counts.beta_coset_char_sum.nonzero_ratio"] = (
            self.nonzero_char_sums / bcs if bcs else 0.0)
        rho_calls = self.rho_hits + self.rho_misses
        values["residues.rho_prime_power.calls"] = rho_calls / ops
        values["residues.rho_prime_power.hit_ratio"] = (
            self.rho_hits / rho_calls if rho_calls else 0.0)
        return {name: (values[name], unit) for name, unit in PER_LAYER.items()}

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "span_fields": ["name", "parent", "t0_ns", "t1_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))
