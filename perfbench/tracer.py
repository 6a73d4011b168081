"""In-memory span recorder and the layer wrappers of the benchmark.

A span is (name, start, end, parent, op): `op` numbers the benchmark
operation that caused it, so all spans of one operation share it. Spans are
kept in memory and written out once, when the run ends. A layer's self time
is its span's duration minus the durations of its direct children; spans
nest strictly because every workload has a single caller.

`Layers` is the one place that decides what each layer's span and counts
are: it wraps msakit's public functions from outside, in this process (the
in-process workloads) or in the traced CLI child (`cli_child.py`).
"""
from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.op])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._stack.pop()
        return False


class Tracer:
    """Records spans when enabled; otherwise `span` costs one attribute test."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.op = -1
        self._stack: list = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def operation(self):
        """Span around one benchmark operation; starts a new operation id."""
        self.op += 1
        return self.span("op")

    def graft(self, child_spans: list) -> None:
        """Attach spans recorded by a child process under the open span.

        `child_spans` are [name, start, end, parent] rows whose parent indexes
        refer to the same list; both processes read the same monotonic clock.
        """
        if not self.enabled:
            return
        base = len(self.spans)
        top = self._stack[-1] if self._stack else None
        for name, start, end, parent in child_spans:
            self.spans.append([name, start, end, top if parent is None else base + parent,
                               self.op])

    def nesting_errors(self) -> list:
        """Spans that do not lie inside their parent's interval and operation,
        or that have no parent but are not an operation. Self times mean
        something only when this list is empty."""
        errors = []
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            if parent is None:
                if name != "op":
                    errors.append(f"span {k} ({name}) has no parent")
                continue
            p_name, p_start, p_end, _, p_op = self.spans[parent]
            if not (p_start <= start <= end <= p_end) or op != p_op:
                errors.append(f"span {k} ({name}, op {op}, {start:.6f}-{end:.6f}) is not "
                              f"inside its parent {parent} ({p_name}, op {p_op}, "
                              f"{p_start:.6f}-{p_end:.6f})")
        return errors

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        child_total = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_total[parent] += end - start
        out: dict = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child_total[k]
        return dict(out)

    def write(self, path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _on_system(counts, args, system) -> None:
    counts["equations"] += system.shape[0]
    counts["nnz"] += system.matrix.nnz


def _on_stiffness(counts, args, result) -> None:
    counts["dense_fallbacks"] += int(result.diagnostics.pseudo_inverse)


def _on_parse(counts, args, doc) -> None:
    counts["bytes_read"] += len(args[0].encode())


def _on_serialize(counts, args, text) -> None:
    counts["bytes_written"] += len(text.encode())


# (module, attribute, span, after(counts, args, result), count on ModelError)
LAYERS = (
    ("reference", "build_navaro", "model.build", None, None),
    ("reference", "build_navaro_leg", "model.build", None, None),
    ("assembly", "assemble", "assembly.assemble", _on_system, None),
    ("assembly", "cartesian_stiffness", "assembly.cartesian_stiffness", _on_stiffness,
     "kc_rejected"),
    ("assembly", "solve_loaded", "assembly.solve_loaded", None, "solve_rejected"),
    ("assembly", "check_model", "assembly.check_model", None, None),
    ("modelio", "parse_model", "modelio.parse_model", _on_parse, None),
    ("modelio", "ModelDocument.to_model", "modelio.to_model", None, None),
    ("modelio", "document_from_model", "modelio.serialize", None, None),
    ("modelio", "serialize_model", "modelio.serialize", _on_serialize, None),
)


class Layers:
    """Wraps each function of LAYERS so that every call opens a span on
    `tracer` and adds the layer's counts to `counts`; point both at the
    current round with `use`. The wrappers stay in place for the whole run:
    with a disabled tracer they cost one attribute test and the counts."""

    def __init__(self, tracer: Tracer, counts):
        self.use(tracer, counts)

    def use(self, tracer: Tracer, counts) -> None:
        self.tracer = tracer
        self.counts = counts

    def install(self, msakit) -> None:
        """Replace each function in every loaded msakit module that holds it,
        so callers see the wrapper whichever name they look up; a method is
        replaced on its class."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "msakit" or name.startswith("msakit."))]
        for module, attr, span, after, rejected in LAYERS:
            owner = getattr(msakit, module)
            *path, attr = attr.split(".")
            for name in path:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
            wrapper = self._wrap(msakit.ModelError, original, span, after, rejected)
            holders = [owner] if path else [m for m in modules
                                             if getattr(m, attr, None) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)

    def _wrap(self, model_error, original, span, after, rejected):
        def wrapper(*args, **kwargs):
            try:
                with self.tracer.span(span):
                    result = original(*args, **kwargs)
            except model_error:
                if rejected:
                    self.counts[rejected] += 1
                raise
            if after is not None:
                after(self.counts, args, result)
            return result
        return wrapper
