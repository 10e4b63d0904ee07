"""In-memory spans and counters for the traced benchmark run.

The benchmark records spans from its own code, around each call into a
layer's public functions; nothing inside the program is instrumented.  A
layer is named by the first component of a span name ("vc",
"spectral.forster" -> "spectral"), matching the package modules.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("matrices", "topes", "vc", "spectral", "omatroid", "arrangements", "report")

# busy-time spans the per-layer table reports, by span name
BUSY_SPANS = (
    "matrices",
    "topes",
    "vc",
    "spectral.forster",
    "spectral.svd",
    "omatroid.completion",
    "omatroid.rank2",
    "arrangements.point_topes",
    "arrangements.hyperplane_topes",
    "arrangements.circuits",
    "arrangements.sweep",
)

# counters reported per pass, zero when unused; items also count
# "arrangements.topes_kept", reported only as arrangements.tope_yield
COUNTERS = (
    "topes.vectors",
    "vc.patterns",
    "spectral.entries",
    "omatroid.ranks_tried",
    "omatroid.supports",
    "omatroid.outcome.feasible",
    "omatroid.outcome.missing_support",
    "omatroid.outcome.c4",
    "arrangements.lps",
)


class Tracer:
    """Spans as (name, start, end, parent, item id) tuples; an item span is
    the parent of the layer spans recorded while it is open."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counts: Counter[str] = Counter()
        self._item: int | None = None
        self._item_id = -1

    def begin_item(self, item_id: int) -> None:
        self._item = len(self.spans)
        self._item_id = item_id
        self.spans.append(("item", perf_counter(), 0.0, None, item_id))

    def end_item(self) -> None:
        name, start, _, parent, item_id = self.spans[self._item]
        self.spans[self._item] = (name, start, perf_counter(), parent, item_id)
        self._item = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        start = perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((name, start, perf_counter(), self._item, self._item_id))
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, item_id in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "item": item_id}
                    )
                    + "\n"
                )


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def per_layer(tracer: Tracer, passes: int, scale=lambda t: 1.0) -> dict[str, float]:
    """The per-layer table, per pass over the item pool.

    `scale(t)` is the factor applied to a span that starts at time t (the
    host-speed correction of the run).  Time inside an item span that no
    layer span covers is the item's self time, charged to `report`: on the
    report workloads it is the assembly build_report does around the layer
    calls.
    """
    busy: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    item_s = 0.0
    for name, start, end, _, _ in tracer.spans:
        seconds = (end - start) * scale(start)
        if name == "item":
            item_s += seconds
        else:
            busy[name] += seconds
            calls[layer_of(name)] += 1
    layer_busy: Counter[str] = Counter()
    for name, seconds in busy.items():
        layer_busy[layer_of(name)] += seconds
    layer_busy["report"] = item_s - sum(layer_busy.values())
    counts = tracer.counts
    lps = counts["arrangements.lps"]
    tope_s = busy["arrangements.point_topes"] + busy["arrangements.hyperplane_topes"]
    ranks = counts["omatroid.ranks_tried"]
    out: dict[str, float] = {}
    for name in BUSY_SPANS:
        out[f"{name}.busy_s"] = busy[name] / passes
    for layer in ("matrices", "topes", "vc"):
        out[f"{layer}.calls"] = calls[layer] / passes
    for name in COUNTERS:
        out[name] = counts[name] / passes
    out["omatroid.feasible_ratio"] = counts["omatroid.outcome.feasible"] / ranks if ranks else 0.0
    out["arrangements.tope_yield"] = counts["arrangements.topes_kept"] / lps if lps else 0.0
    out["arrangements.lp_ms"] = 1000.0 * tope_s / lps if lps else 0.0
    out["report.self_s"] = layer_busy["report"] / passes
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_busy[layer] / item_s
    return out
