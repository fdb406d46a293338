"""In-memory spans around calls into galelab's layers.

A span records its name, start and end (``time.perf_counter`` seconds),
the id of the span that was open when it started (its parent) and the
run id.  Span names are ``<layer>.<operation>``; ``<layer>`` is one of
galelab's modules (:data:`LAYERS`) or ``bench`` for the benchmark's own
glue.  Spans stay in memory until :meth:`Tracer.dump` writes them out
when the run ends, so recording costs two clock reads and one dict.

Untraced jobs run with a disabled tracer: the same code path, with
``span`` reduced to an empty context manager.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

LAYERS = ("sequences", "core", "constructions", "engine", "analysis")


class Tracer:
    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        rec = {"run": self.run_id, "id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def layer_of(name: str) -> str | None:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


def _duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def span_totals(spans: list[dict]) -> dict[str, float]:
    """Summed duration per layer span name, as ``<name>_s``."""
    out: dict[str, float] = {}
    for rec in spans:
        if layer_of(rec["name"]):
            key = rec["name"] + "_s"
            out[key] = out.get(key, 0.0) + _duration(rec)
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-layer self time: span durations minus the time their children cover.

    Children of one span never overlap (a single thread opens them one
    after another), so the covered time is the sum of their durations.
    """
    child_time: dict[int, float] = {}
    for rec in spans:
        if rec["parent"] is not None:
            child_time[rec["parent"]] = child_time.get(rec["parent"], 0.0) + _duration(rec)
    out = {layer: 0.0 for layer in LAYERS}
    for rec in spans:
        layer = layer_of(rec["name"])
        if layer:
            out[layer] += _duration(rec) - child_time.get(rec["id"], 0.0)
    return out


def unattributed(spans: list[dict], root_id: int) -> float:
    """Duration of span ``root_id`` not covered by its outermost layer spans."""
    by_id = {rec["id"]: rec for rec in spans}

    def outermost_layer_span(rec: dict) -> bool:
        if not layer_of(rec["name"]):
            return False
        parent = rec["parent"]
        while parent is not None:
            if layer_of(by_id[parent]["name"]):
                return False
            if parent == root_id:
                return True
            parent = by_id[parent]["parent"]
        return False

    covered = sum(_duration(rec) for rec in spans if outermost_layer_span(rec))
    return _duration(by_id[root_id]) - covered
