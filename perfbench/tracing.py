"""Per-layer tracing of bchbound from outside the package.

Public module-level functions get spans; a few hot methods get counts only,
so their time stays in the calling span's self time. Nothing under src/
is edited: ``install`` rebinds every module attribute that refers to a
traced function, which also covers names bound with ``from .x import y``
(``codes.idft``, ``forge.idft``, ``bounds.divisor_enumerate``,
``cli.certify_equality``, ...). Without that a span would silently record
nothing.

A span is (name, start, end, parent span, job id). Spans are kept in
memory in flat arrays and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, function) pairs that get a span each.
SPANS = (
    ("spectral", "dft"), ("spectral", "idft"), ("spectral", "is_rational"),
    ("polyring", "factor_xn"), ("polyring", "minimal_polynomial"),
    ("polyring", "divisor_enumerate"),
    ("codes", "code_from_defining_set"), ("codes", "bose_distance"),
    ("bounds", "code_apparent_distance"), ("bounds", "certify_equality"),
    ("modring", "cyclotomic_cosets"),
    ("wtdist", "min_distance"),
    ("forge", "primitive_family"), ("forge", "congruence_construct"),
    ("forge", "construct_from_divisor"), ("forge", "find_shift"),
    ("forge", "extend_to_bch"),
    ("tables", "recompute"),
    ("cli", "main"),
)
# Generators: each resumption is a span, so time spent by the consumer
# between items is not charged to the generator.
GENERATORS = {("polyring", "divisor_enumerate")}
# (module, class, method, metric name) that get a span.
METHOD_SPANS = (("forge", "ConstructionRecord", "verify", "forge.verify"),)
# (module, class, method, metric name) that get a call count only.
COUNTED = (
    ("galois", "FieldSpec", "mul", "galois.mul"),
    ("galois", "FieldSpec", "inv", "galois.inv"),
    ("galois", "FieldSpec", "power", "galois.power"),
    ("polyring", "Poly", "eval", "polyring.eval"),
)
COUNTED_FUNCTIONS = (("modring", "coset_closure"),)
SPAN_NAMES = ({f"{m}.{f}" for m, f in SPANS}
              | {name for *_, name in METHOD_SPANS})

# Work counters taken from return values, beside the spans.
COUNTERS = (
    "polyring.divisor_enumerate.emitted",
    "bounds.certify_equality.found", "bounds.certify_equality.none",
    "wtdist.min_distance.words", "wtdist.min_distance.truncated",
    "tables.rows_mismatched",
)


class Tracer:
    """Span store plus counters for one traced process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.current_job = -1
        self.counts = {}

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def add(self, counter, value=1):
        self.counts[counter] = self.counts.get(counter, 0) + value

    def summary(self):
        """{span name: [calls, self seconds]} plus the counters."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans = {}
        for i in range(n):
            rec = spans.setdefault(self.names[self.name[i]], [0, 0.0])
            rec[0] += 1
            rec[1] += self.end[i] - self.start[i] - child[i]
        return {"spans": spans, "counts": dict(self.counts)}

    def write_tsv(self, path):
        with open(path, "w") as out:
            out.write("span\tname\tparent\tjob\tstart\tend\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                          f"{self.job[i]}\t{self.start[i]:.9f}\t"
                          f"{self.end[i]:.9f}\n")


def _span_function(tracer, name, fn, on_result=None):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if on_result is not None:
            on_result(result)
        return result
    return traced


def _span_generator(tracer, name, fn, on_item):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            idx = tracer.open(nid)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            on_item(item)
            yield item
    return traced


def _count_calls(tracer, name, fn):
    key = name + ".calls"
    counts = tracer.counts
    counts[key] = 0

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counted


def _result_counters(tracer, module, func):
    """Counters read from a traced function's return value, if any."""
    if (module, func) == ("bounds", "certify_equality"):
        return lambda cert: tracer.add("bounds.certify_equality."
                                       + ("none" if cert is None else "found"))
    if (module, func) == ("wtdist", "min_distance"):
        def words(res):
            tracer.add("wtdist.min_distance.words", getattr(res, "enumerated", 0))
            tracer.add("wtdist.min_distance.truncated",
                       0 if getattr(res, "exhaustive", True) else 1)
        return words
    return None


def _rows_mismatched(tracer, tables, recompute):
    """Wrap tables.recompute: count fresh rows that differ from golden ones."""
    @functools.wraps(recompute)
    def checked(table_id, *args, **kwargs):
        fresh = recompute(table_id, *args, **kwargs)
        golden = tables.golden_rows(table_id)
        bad = sum(1 for want, got in zip(golden, fresh)
                  if want.flag != "dup" and (want.values() != got.values()
                                             or want.complement_reps
                                             != got.complement_reps))
        tracer.add("tables.rows_mismatched",
                   bad + abs(len(golden) - len(fresh)))
        return fresh
    return checked


def _rebind(modules, original, replacement):
    hits = 0
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def install(tracer):
    """Patch bchbound in place so that calls record into tracer."""
    import bchbound  # noqa: F401  (loads every submodule)

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "bchbound" or name.startswith("bchbound.")]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    for counter in COUNTERS:
        tracer.counts[counter] = 0
    for module, func in SPANS:
        original = getattr(by_name[module], func)
        name = f"{module}.{func}"
        if (module, func) in GENERATORS:
            wrapped = _span_generator(
                tracer, name, original,
                lambda _item, key=name + ".emitted": tracer.add(key))
        else:
            wrapped = _span_function(tracer, name, original,
                                     _result_counters(tracer, module, func))
        if (module, func) == ("tables", "recompute"):
            wrapped = _rows_mismatched(tracer, by_name["tables"], wrapped)
        if _rebind(modules, original, wrapped) == 0:
            raise RuntimeError(f"no binding of {name} found")
    for module, func in COUNTED_FUNCTIONS:
        original = getattr(by_name[module], func)
        _rebind(modules, original,
                _count_calls(tracer, f"{module}.{func}", original))
    for module, cls, method, name in METHOD_SPANS:
        owner = getattr(by_name[module], cls)
        setattr(owner, method,
                _span_function(tracer, name, getattr(owner, method)))
    for module, cls, method, name in COUNTED:
        owner = getattr(by_name[module], cls)
        setattr(owner, method, _count_calls(tracer, name, getattr(owner, method)))
