"""Spans around gainspec's public functions, and the per-layer metrics.

``traced(tracer)`` wraps every public function of the library modules and
``numpy.linalg.eigh/eigvalsh/svd``, rebinds every name in ``gainspec.*``
that refers to a wrapped function (``bounds`` calls ``energy``,
``maximum_matching``, ``is_balanced`` ... through its own globals), and
restores everything on exit.  Spans live in memory: name, start, end, parent
span and invocation id.  Work the tracer itself does inside a span (content
hashes, graph keys) is recorded as a ``trace.overhead`` child, so it is
subtracted from the caller's self time and belongs to no layer.

A layer's time is the summed duration of its outermost spans: spans of the
layer nested inside another span of the same layer are not counted twice.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

LAYERS = ("fileio", "graphs", "gains", "spectra", "matching", "bounds", "corpus", "cli")
# Per-element scalar helpers: wrapping them would trace every edge of a
# 130k-edge file and measure little but the tracer.
UNTRACED = {"gains.unit", "gains.unit_from_angle", "gains.gain_angle", "cli.entrypoint"}
LINALG = ("eigh", "eigvalsh", "svd")
OVERHEAD = "trace.overhead"

SOLVE_SPANS = frozenset(f"numpy.linalg.{f}" for f in LINALG)
TRAVERSAL = frozenset({"graphs.components", "graphs.bipartition", "graphs.is_connected"})
MATCHING = frozenset({"matching.maximum_matching", "matching.has_perfect_matching",
                      "matching.matching_oracle"})
CONSTRUCT = frozenset({"gains.random_gain_graph", "gains.switch",
                       "gains.delete_gain_edges", "gains.induced_gain_subgraph"})


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int
    invocation: int
    attrs: dict[str, Any] | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    invocation: int = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.invocation))
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self.stack.pop()


def _wrap(tracer: Tracer, name: str, fn: Callable,
          before: Callable[..., dict] | None = None,
          after: Callable[[Span, Any], None] | None = None) -> Callable:
    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        attrs = None
        if before is not None:
            cost = tracer.begin(OVERHEAD)
            attrs = before(*args, **kwargs)
            tracer.end(cost)
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        span = tracer.spans[index]
        span.attrs = attrs
        if after is not None:
            after(span, result)
        return result

    return traced_call


def _solve_attrs(a, *args, **kwargs) -> dict:
    """Matrices in one LAPACK call (a stacked batch counts each), their
    computed flops rows*cols*min(rows, cols), bytes, and content hashes."""
    import numpy as np

    a = np.asarray(a)
    rows, cols = a.shape[-2:]
    mats = a.reshape(-1, rows, cols)
    head = f"{a.dtype.str}{rows}x{cols}".encode()
    return {
        "count": len(mats),
        "flops": len(mats) * rows * cols * min(rows, cols),
        "bytes": rows * cols * a.itemsize,
        "hashes": [hashlib.blake2b(head + m.tobytes(), digest_size=16).digest()
                   for m in mats],
    }


def _graph_key(g, *args, **kwargs) -> dict:
    return {"graph": (g.n, g.edges)}


def _text_bytes(text, *args, **kwargs) -> dict:
    return {"bytes": len(text.encode("utf-8"))}


def _record_lemma(span: Span, report) -> None:
    span.attrs = {"lemma": report.lemma}


HOOKS: dict[str, dict[str, Callable]] = {
    "matching.maximum_matching": {"before": _graph_key},
    "matching.has_perfect_matching": {"before": _graph_key},
    "matching.matching_oracle": {"before": _graph_key},
    "fileio.parse_gain_graph": {"before": _text_bytes},
}


@contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    """Install the wrappers for the duration of the block."""
    import numpy as np

    wrappers: dict[int, tuple[Callable, Callable]] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"gainspec.{layer}")
        for attr, fn in vars(module).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in UNTRACED or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            hooks = dict(HOOKS.get(name, {}))
            if attr.startswith("check_") and attr.endswith("_lemma"):
                hooks["after"] = _record_lemma
            wrappers[id(fn)] = (fn, _wrap(tracer, name, fn, **hooks))

    restore: list[tuple[object, str, object]] = []
    for modname, module in list(sys.modules.items()):
        if modname != "gainspec" and not modname.startswith("gainspec."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                restore.append((module, attr, value))
                setattr(module, attr, entry[1])
    for fname in LINALG:
        fn = getattr(np.linalg, fname)
        restore.append((np.linalg, fname, fn))
        setattr(np.linalg, fname, _wrap(tracer, f"numpy.linalg.{fname}", fn,
                                        before=_solve_attrs))
    try:
        yield
    finally:
        for module, attr, value in reversed(restore):
            setattr(module, attr, value)


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------


def _outermost(spans: list[Span], names: Iterable[str]) -> list[Span]:
    """Spans named in ``names`` with no ancestor named in ``names``.  Parents
    precede their children in ``spans``, so one forward pass suffices."""
    names = frozenset(names)
    under = [False] * len(spans)
    found = []
    for i, s in enumerate(spans):
        if s.parent != -1:
            under[i] = under[s.parent] or spans[s.parent].name in names
        if s.name in names and not under[i]:
            found.append(s)
    return found


def _seconds(spans: Iterable[Span]) -> float:
    return sum(s.end - s.start for s in spans) / 1e9


def _enclosing_lemma(spans: list[Span]) -> list[str | None]:
    """For each span, the lemma of the innermost enclosing checker span."""
    lemma: list[str | None] = [None] * len(spans)
    for i, s in enumerate(spans):
        if s.parent != -1:
            attrs = spans[s.parent].attrs
            lemma[i] = attrs["lemma"] if attrs and "lemma" in attrs else lemma[s.parent]
    return lemma


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced round (``cli.startup_s`` and
    ``trace.overhead_ratio`` come from the caller)."""
    child_time = [0] * len(spans)
    for s in spans:
        if s.parent != -1:
            child_time[s.parent] += s.end - s.start

    def self_s(pred: Callable[[str], bool]) -> float:
        return sum(s.end - s.start - child_time[i]
                   for i, s in enumerate(spans) if pred(s.name)) / 1e9

    solves = [s for s in spans if s.name in SOLVE_SPANS]
    n_solves = sum(s.attrs["count"] for s in solves)
    hashes = {h for s in solves for h in s.attrs["hashes"]}
    matchings = _outermost(spans, MATCHING)
    parses = _outermost(spans, {"fileio.parse_gain_graph"})
    parse_s = _seconds(parses)
    parse_mb = sum(s.attrs["bytes"] for s in parses) / 1e6
    balance = _outermost(spans, {"gains.is_balanced"})
    traversals = _outermost(spans, TRAVERSAL)
    constructs = _outermost(spans, CONSTRUCT)
    adjacency = _outermost(spans, {"spectra.adjacency"})
    mains = [s for s in spans if s.name == "cli.main"]
    library = {s.name for s in spans
               if s.name != OVERHEAD and not s.name.startswith("cli.")}

    metrics = {
        "spectra.solves": n_solves,
        "spectra.unique_solve_ratio": len(hashes) / n_solves if n_solves else 0.0,
        "spectra.lapack_s": _seconds(solves),
        "spectra.solve_flops": sum(s.attrs["flops"] for s in solves),
        "spectra.max_matrix_mb": max((s.attrs["bytes"] for s in solves), default=0) / 1e6,
        "spectra.verify_s": self_s(lambda n: n in ("spectra.eigenvalues", "spectra.spectrum")),
        "spectra.adjacency_s": _seconds(adjacency),
        "spectra.adjacency_calls": len(adjacency),
        "gains.is_balanced_s": _seconds(balance),
        "gains.is_balanced_calls": len(balance),
        "fileio.parse_s": parse_s,
        "fileio.parse_mb_per_s": parse_mb / parse_s if parse_s else 0.0,
        "fileio.serialize_s": _seconds(_outermost(
            spans, {"fileio.serialize_gain_graph", "fileio.save_gain_graph"})),
        "corpus.build_s": _seconds(_outermost(
            spans, {s.name for s in spans if s.name.startswith("corpus.")})),
        "matching.maximum_matching_s": _seconds(matchings),
        "matching.calls": len(matchings),
        "matching.unique_call_ratio": (
            len({s.attrs["graph"] for s in matchings}) / len(matchings) if matchings else 0.0
        ),
        "graphs.traversal_s": _seconds(traversals),
        "graphs.traversal_calls": len(traversals),
        "graphs.induced_subgraph_s": _seconds(_outermost(spans, {"graphs.induced_subgraph"})),
        "gains.construct_s": _seconds(constructs),
        "gains.construct_calls": len(constructs),
        "bounds.bound_report_s": _seconds(_outermost(spans, {"bounds.bound_report"})),
        "bounds.is_extremal_structure_s": _seconds(
            _outermost(spans, {"bounds.is_extremal_structure"})),
        "cli.self_s": self_s(lambda n: n.startswith("cli.")),
        "trace.coverage": (
            _seconds(_outermost(spans, library)) / _seconds(mains) if mains else 0.0
        ),
    }
    from gainspec.bounds import LEMMA_ORDER

    checks = [s for s in spans if s.attrs and "lemma" in s.attrs]
    enclosing = _enclosing_lemma(spans)
    for lemma in LEMMA_ORDER:
        metrics[f"bounds.lemma.{lemma}_s"] = _seconds(
            s for s in checks if s.attrs["lemma"] == lemma)
        metrics[f"bounds.lemma.{lemma}.solves"] = sum(
            s.attrs["count"] for i, s in enumerate(spans)
            if s.name in SOLVE_SPANS and enclosing[i] == lemma)
    return metrics


def is_count(metric: str) -> bool:
    """Counts repeat exactly from one traced round to the next."""
    return metric.endswith(("_calls", ".calls", ".solves")) or metric == "spectra.solve_flops"


def span_records(spans: list[Span]) -> Iterator[dict]:
    """Spans as JSON-ready records (hashes and graph keys left out)."""
    for i, s in enumerate(spans):
        attrs = {k: v for k, v in (s.attrs or {}).items() if k not in ("hashes", "graph")}
        yield {"id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
               "parent": s.parent, "invocation": s.invocation, **attrs}
