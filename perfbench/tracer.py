"""Boundary tracing of the qfaeq package from outside it.

The tracer replaces public functions in the module namespaces where their
callers look them up (for example ``qfaeq.equivalence.span_insert``, which
``basis_search`` resolves through its module globals) with wrappers that
record one span per call: name, start, end, parent span and operation id.
Spans stay in memory and are written out when the run ends.  Counts and
coefficient bit sizes are read from what the wrapped calls return.

A target that no longer exists is reported as absent with zero calls, so a
refactor that removes a function does not break the benchmark.
"""

from __future__ import annotations

import importlib
import json
import os
from time import perf_counter

# (module, attribute, span name).  A name may be wrapped in several modules:
# each caller sees the wrapper in its own namespace.
TARGETS = (
    ("qfaeq.cli", "cli_main", "cli.cli_main"),
    ("qfaeq.cli", "load_qfa", "io.load_qfa"),
    ("qfaeq.cli", "accept_prob", "qfa.accept_prob"),
    ("qfaeq.cli", "decide", "equivalence.decide"),
    ("qfaeq.cli", "join", "equivalence.join"),
    ("qfaeq.cli", "basis_search", "equivalence.basis_search"),
    ("qfaeq.cli", "verdict_from_search", "equivalence.verdict_from_search"),
    ("qfaeq.io", "validate", "qfa.validate"),
    ("qfaeq.qfa", "random_qfa", "qfa.random_qfa"),
    ("qfaeq.qfa", "is_unitary", "linalg.is_unitary"),
    ("qfaeq.qfa", "row_times_matrix", "linalg.row_times_matrix"),
    ("qfaeq.equivalence", "decide", "equivalence.decide"),
    ("qfaeq.equivalence", "join", "equivalence.join"),
    ("qfaeq.equivalence", "basis_search", "equivalence.basis_search"),
    ("qfaeq.equivalence", "verdict_from_search", "equivalence.verdict_from_search"),
    ("qfaeq.equivalence", "accept_prob", "qfa.accept_prob"),
    ("qfaeq.equivalence", "kron", "linalg.kron"),
    ("qfaeq.equivalence", "row_times_matrix", "linalg.row_times_matrix"),
    ("qfaeq.equivalence", "span_insert", "linalg.span_insert"),
)

BOOKKEEPING = "tracer.bookkeeping"

# Count fields kept per operation; they must repeat exactly on the same seed.
COUNT_FIELDS = (
    "nodes_dequeued",
    "rows_inserted",
    "rows_discarded",
    "rank_total",
    "max_depth",
    "max_raw_row_bits",
    "max_basis_row_bits",
    "accept_prob_letters",
    "accept_prob_max_bits",
)


def _fraction_bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _row_bits(row) -> int:
    best = 0
    for z in row:
        if z:
            best = max(best, _fraction_bits(z.re), _fraction_bits(z.im))
    return best


def _search_counts(sbm) -> dict:
    """Counts read off a finished ``SuffixBasisMap``."""
    raw = [vec for _word, vec in sbm.records()]
    basis_rows = [row.vector for b in sbm.bases.values() for row in b.rows]
    depth = max((len(word) for word, _vec in sbm.records()), default=0)
    return {
        "nodes_dequeued": sbm.processed,
        "rank_total": sbm.total_size(),
        "max_depth": depth,
        "max_raw_row_bits": max(map(_row_bits, raw), default=0),
        "max_basis_row_bits": max(map(_row_bits, basis_rows), default=0),
    }


class Tracer:
    """Wraps the functions named in :data:`TARGETS` while entered; spans and
    counts accumulate across entries."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.stack = []
        self.op_id = None
        self.counts = {}  # op id -> {field: value}
        self.load_bytes = 0
        self.doc_sizes = {}
        self.absent = []
        self.unreadable = set()  # span names whose results could not be read
        self._targets = []  # (module, attribute, original, wrapper)
        for module_name, attr, span_name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if callable(original):
                self._targets.append((module, attr, original, self._wrap(original, span_name)))
            else:
                self.absent.append(f"{module_name}.{attr}")

    def __enter__(self):
        for module, attr, _original, wrapper in self._targets:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _wrapper in self._targets:
            setattr(module, attr, original)
        return False

    def _op_counts(self) -> dict:
        return self.counts.setdefault(self.op_id, dict.fromkeys(COUNT_FIELDS, 0))

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            try:
                self._observe(name, args, result)
            except (AttributeError, TypeError, IndexError):
                self.unreadable.add(name)
            return result

        return traced

    def _observe(self, name, args, result):
        if name == "linalg.span_insert":
            key = "rows_inserted" if result[0] else "rows_discarded"
            self._op_counts()[key] += 1
        elif name == "equivalence.basis_search":
            # Reading bit sizes is real work: record it as its own span so
            # that it is subtracted from the caller's self time.
            parent = self.stack[-1] if self.stack else -1
            start = perf_counter()
            found = _search_counts(result)
            self.spans.append((BOOKKEEPING, start, perf_counter(), parent, self.op_id))
            counts = self._op_counts()
            for key in ("nodes_dequeued", "rank_total"):
                counts[key] += found[key]
            for key in ("max_depth", "max_raw_row_bits", "max_basis_row_bits"):
                counts[key] = max(counts[key], found[key])
        elif name == "qfa.accept_prob":
            counts = self._op_counts()
            counts["accept_prob_letters"] += len(args[1])
            counts["accept_prob_max_bits"] = max(
                counts["accept_prob_max_bits"], _fraction_bits(result)
            )
        elif name == "io.load_qfa":
            path = os.fspath(args[0])
            if path not in self.doc_sizes:
                self.doc_sizes[path] = os.path.getsize(path)
            self.load_bytes += self.doc_sizes[path]

    # -- summaries ---------------------------------------------------------

    def layer_times(self) -> dict:
        """Per span name: calls, busy seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

    def write(self, path) -> None:
        """Write every span and the per-op counts as one JSON document."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [name, start - origin, end - origin, parent, op]
                for name, start, end, parent, op in self.spans
            ],
            "counts": {str(op): c for op, c in self.counts.items()},
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
