"""Traced run: spans and counters recorded around the program's public calls.

The program is not changed.  `traced(tracer)` replaces, for the duration of
a `with` block, each public function with a wrapper at the place where the
caller looks it up: `cli` binds `enumerate_connection_sets`,
`validate_connection_set` and `conjugacy_classes` with `from ... import`,
`spectrum` binds `character_table` and `conjugacy_classes`, and `oracle`
binds `eigenvalues`, so those names are replaced in the importing module
too.  Hot calls (`pst.classify_pair`, the `CycloInt` arithmetic,
`oracle.transition`) are counted but get no span.

Spans are kept in memory as (name, start, end, parent) and reduced at the
end: a span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

LAYERS = ("group", "characters", "cyclotomic", "spectrum", "pst", "oracle", "cli")
# cyclotomic is counted but never spanned, so its time is in its callers' spans
SPANNED_LAYERS = tuple(layer for layer in LAYERS if layer != "cyclotomic")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack = [-1]

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def end(self, idx: int, name: str, start: float) -> None:
        self._stack.pop()
        self.spans[idx] = (name, start, time.perf_counter(), self._stack[-1])

    def span(self, name: str, fn, on_result=None):
        """Wrap `fn` so every call records a span named `name` and is counted."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            idx = self.begin(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx, name, start)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span_each_next(self, name: str, fn):
        """Wrap a generator function so each next() records a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.begin(name)
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(idx, name, start)
                self.counts[f"{name}.yielded"] += 1
                yield item

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        total: Counter[str] = Counter()
        child: Counter[int] = Counter()
        for name, start, end, parent in self.spans:
            child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start - child[i]
        return dict(total)

    def span_times(self) -> dict[str, float]:
        """Seconds per span name."""
        total: Counter[str] = Counter()
        for name, start, end, _ in self.spans:
            total[name] += end - start
        return dict(total)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    from v8npst import characters, cli, cyclotomic, group, oracle, pst, spectrum

    def count_integral(table) -> None:
        tracer.counts["spectrum.integral"] += bool(table.all_integral)

    def count_pairs(verdicts) -> None:
        tracer.counts["pst.pst_pairs"] += len(verdicts)

    cyclo = lambda fn: tracer.count("cyclotomic.calls", fn)  # noqa: E731
    conj = tracer.span("group.conjugacy_classes", group.conjugacy_classes)
    table = tracer.span("characters.character_table", characters.character_table)
    eig = tracer.span("spectrum.eigenvalues", spectrum.eigenvalues, count_integral)
    patches = [
        (cli, "enumerate_connection_sets",
         tracer.span_each_next("group.enumerate", group.enumerate_connection_sets)),
        (cli, "validate_connection_set",
         tracer.span("group.validate", group.validate_connection_set)),
        (cli, "conjugacy_classes", conj),
        (spectrum, "conjugacy_classes", conj),
        (characters, "character_table", table),
        (spectrum, "character_table", table),
        (spectrum, "eigenvalues", eig),
        (oracle, "eigenvalues", eig),
        (pst, "all_pst_pairs", tracer.span("pst.all_pst_pairs", pst.all_pst_pairs, count_pairs)),
        (pst, "classify_graph_type", tracer.span("pst.classify_graph_type", pst.classify_graph_type)),
        (pst, "classify_pair", tracer.count("pst.classify_pair_calls", pst.classify_pair)),
        (oracle, "grid_amplitude_maxima", tracer.span("oracle.grid_scan", oracle.grid_amplitude_maxima)),
        (oracle, "pair_amplitudes", tracer.span("oracle.pair_amplitudes", oracle.pair_amplitudes)),
        (oracle, "ratio_index_table", tracer.span("oracle.ratio_index_table", oracle.ratio_index_table)),
        (oracle, "transition", tracer.count("oracle.transition_calls", oracle.transition)),
        *((cyclotomic.CycloInt, m, cyclo(getattr(cyclotomic.CycloInt, m)))
          for m in ("__add__", "__mul__", "__rmul__", "is_zero", "value")),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
