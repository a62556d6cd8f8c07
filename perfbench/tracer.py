"""Spans around the public functions of each netident layer, recorded from outside.

``Tracer`` replaces each target function, in every ``netident`` module
namespace that binds it, with a wrapper that records a span: name, start,
end, parent span and operation id.  Calls made inside the library resolve
through those module globals too, so a span nests under the span of its
caller.  Spans stay in memory until ``dump``.

A target that is missing (renamed or inlined later) is listed in
``absent`` and its metrics read 0; tracing carries on.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Layer -> traced public functions.  Helpers called once per walk or per
# table entry (monomial_of, sign_of, format_monomial, ...) stay unwrapped:
# a span per call would cost more than the call.
TARGETS = {
    "netmodel": [
        "validate", "separate", "is_separable", "decouple",
        "load_network", "save_network", "network_from_dict", "network_to_dict",
    ],
    "numeric": [
        "random_field_evaluation", "network_matrix", "closed_loop", "sensitivity_matrix",
        "rank_field", "det_field", "generic_rank", "generic_det_nonzero",
    ],
    "identifiability": [
        "local_identifiability", "decoupled_identifiability", "separable_global_identifiability",
    ],
    "combinatorial": [
        "enumerate_walks", "repetition_table", "verdict_from_table",
        "exhaustive_degree_bound", "combinatorial_verdict", "necessary_condition_any_topology",
    ],
    "oracle": ["symbolic_closed_loop", "symbolic_det", "coefficient", "terms_sorted"],
    "cli": ["main"],
}


def _cells(args, result):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


# Work counts recorded per span: span name -> (count name, extractor of (args, result)).
COUNTERS = {
    "numeric.rank_field": ("cells", _cells),
    "combinatorial.repetition_table": ("entries", lambda args, result: len(result.entries)),
    "combinatorial.enumerate_walks": ("walks", lambda args, result: len(result)),
    "oracle.symbolic_det": ("terms", lambda args, result: len(result.terms)),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id, counts]
        self.absent: list[str] = []
        self.child_import_ms: list[tuple] = []  # (op id, import ms of netident.cli) per traced CLI child
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (module, attribute, original, wrapper)
        for layer, names in TARGETS.items():
            module = importlib.import_module(f"netident.{layer}")
            for fname in names:
                original = getattr(module, fname, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "netident"]:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else None, self.op, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span[5] = {counter[0]: counter[1](args, result)}
                except Exception:
                    span[5] = {counter[0]: None}
            return result

        return traced

    def install(self, op) -> None:
        self.op = op
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        self.op = None

    def merge(self, spans: list[list], op, import_ms: float) -> None:
        """Append spans recorded by another process, as operation ``op``, and its import time."""
        self.child_import_ms.append((op, import_ms))
        base = len(self.spans)
        for name, start, end, parent, _, counts in spans:
            self.spans.append([name, start, end, None if parent is None else parent + base, op, counts])

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": self.spans, **extra}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Seconds of each span not covered by its direct child spans."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_totals(spans: list[list], scale: dict) -> dict[str, float]:
    """Per ``<layer>.<function>``: summed self ms, inclusive ms, call count and work counts.

    ``scale`` maps an operation id to the factor its spans' times are multiplied by.
    """
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        name, factor = span[0], scale[span[4]]
        totals[f"{name}.ms"] = totals.get(f"{name}.ms", 0.0) + own * factor * 1e3
        totals[f"{name}.total_ms"] = totals.get(f"{name}.total_ms", 0.0) + (span[2] - span[1]) * factor * 1e3
        totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        for key, count in (span[5] or {}).items():
            if count is not None:
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + count
    return totals
