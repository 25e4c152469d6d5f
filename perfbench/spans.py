"""Spans and counters recorded around lexcite's module entry points.

The wrappers live here, in the benchmark, not in the program: `install`
replaces each entry point with a function that opens a span (name, start,
end, parent) and bumps counters, then calls the original. Spans stay in
memory; `Tracer.summary` folds them into per-name totals when the traced
command ends. An entry point that no longer exists is skipped, and the
metrics that depend on it are reported as absent.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        # one [name, start, end, parent index, nested in a span of the same name]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.installed: set[str] = set()
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        nested = self.inside(name)
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, nested])
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def summary(self) -> dict:
        """Per span name: calls, inclusive time (outermost spans of that name
        only, so recursion is not counted twice) and self time (duration
        minus the time covered by child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, nested), covered in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - covered
            if not nested:
                row["inclusive_s"] += end - start
        return out


# -- installation -------------------------------------------------------------------

MODULES = ("autodiff", "corpus", "split", "graph", "han", "structural", "scorer", "model",
           "nn", "training", "cli")


def _modules() -> dict:
    loaded = {}
    for name in MODULES:
        try:
            loaded[name] = importlib.import_module(f"lexcite.{name}")
        except ImportError:
            pass
    return loaded


def _patch_function(tracer: Tracer, mods: dict, module: str, attr: str, key: str, make) -> None:
    """Replace a module-level function in every lexcite module that binds it
    (``from .corpus import encode_text`` makes a second binding)."""
    orig = getattr(mods.get(module), attr, None)
    if orig is None:
        return
    new = make(orig)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("lexcite") and \
                getattr(mod, attr, None) is orig:
            setattr(mod, attr, new)
    tracer.installed.add(key)


def _patch_method(tracer: Tracer, mods: dict, module: str, cls: str, attr: str, key: str,
                  make) -> None:
    owner = getattr(mods.get(module), cls, None)
    orig = getattr(owner, attr, None)
    if orig is None:
        return
    setattr(owner, attr, make(orig))
    tracer.installed.add(key)


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every lexcite module the per-layer metrics name."""
    mods = _modules()
    t = tracer

    def span(name):
        def make(orig):
            def wrapper(*args, **kwargs):
                return t.call(name, orig, *args, **kwargs)
            return wrapper
        return make

    def counted(name):
        def make(orig):
            def wrapper(*args, **kwargs):
                t.counts[name] += 1
                return orig(*args, **kwargs)
            return wrapper
        return make

    def han_encode(orig):
        def wrapper(self, grids, masks, *args, **kwargs):
            t.counts["han.docs"] += int(grids.shape[0])
            t.counts["han.cells"] += int(grids.size)
            t.counts["han.tokens"] += int(masks.sum())
            return t.call("han.encode", orig, self, grids, masks, *args, **kwargs)
        return wrapper

    def structural_encode(orig):
        def wrapper(self, graph, node_ids, *args, **kwargs):
            t.counts["structural.nodes"] += len(node_ids)
            return t.call("structural.encode", orig, self, graph, node_ids, *args, **kwargs)
        return wrapper

    def contextualize(orig):
        def wrapper(self, section_embeddings, *args, **kwargs):
            shape = section_embeddings.shape
            t.counts["scorer.sections"] += int(shape[0] * shape[1])
            return t.call("scorer.contextualize", orig, self, section_embeddings,
                          *args, **kwargs)
        return wrapper

    def sample_walks(orig):
        # A call is a cache miss when it adds an entry to the graph's walk
        # cache; without that cache the hit ratio is absent.
        def wrapper(self, *args, **kwargs):
            cache = getattr(self, "_walk_cache", None)
            size = len(cache) if isinstance(cache, dict) else None
            out = t.call("graph.walk", orig, self, *args, **kwargs)
            after = getattr(self, "_walk_cache", None)
            if size is not None and isinstance(after, dict):
                t.counts["graph.walk_cache_probes"] += 1
                if after is cache and len(after) == size:
                    t.counts["graph.walk_cache_hits"] += 1
            return out
        return wrapper

    def validation(orig):
        # Validation is the scoring train_model does after each epoch.
        def wrapper(*args, **kwargs):
            if t.inside("training.train"):
                return t.call("training.validate", orig, *args, **kwargs)
            return orig(*args, **kwargs)
        return wrapper

    _patch_function(t, mods, "corpus", "encode_text", "corpus.encode", span("corpus.encode"))
    _patch_function(t, mods, "corpus", "encode_corpus", "corpus.encode", span("corpus.encode"))
    _patch_function(t, mods, "split", "iterative_stratified_split", "split.split",
                    span("split.split"))
    _patch_function(t, mods, "graph", "build_citation_graph", "graph.build", span("graph.build"))
    _patch_method(t, mods, "graph", "HeteroGraph", "_sample_walks_idx", "graph.walk",
                  sample_walks)
    _patch_method(t, mods, "graph", "HeteroGraph", "_draw_walk", "graph.walks_drawn",
                  counted("graph.walks_drawn"))
    _patch_method(t, mods, "han", "TextEncoder", "__call__", "han.encode", han_encode)
    for cls in ("MetapathEncoder", "LookupEncoder"):
        _patch_method(t, mods, "structural", cls, "encode", "structural.encode",
                      structural_encode)
    _patch_method(t, mods, "scorer", "MatchScorer", "contextualize_sections",
                  "scorer.contextualize", contextualize)
    for attr in ("score_triple", "pool_sections", "score", "fact_context"):
        _patch_method(t, mods, "scorer", "MatchScorer", attr, "scorer.score",
                      span("scorer.score"))
    for attr in ("forward", "prepare_inference", "score_one"):
        _patch_method(t, mods, "model", "Model", attr, f"model.{attr}", span(f"model.{attr}"))
    _patch_method(t, mods, "autodiff", "Tensor", "backward", "autodiff.backward",
                  span("autodiff.backward"))
    _patch_function(t, mods, "autodiff", "_tracked", "autodiff.tracked",
                    counted("autodiff.tracked"))
    _patch_method(t, mods, "nn", "Adam", "step", "nn.adam", span("nn.adam"))
    _patch_function(t, mods, "training", "train_model", "training.train",
                    span("training.train"))
    _patch_function(t, mods, "training", "predict_corpus", "training.validate", validation)
    _patch_method(t, mods, "training", "Predictor", "__init__", "training.validate", validation)
    _patch_function(t, mods, "training", "tune_threshold", "training.tune",
                    span("training.tune"))


# -- per-layer metrics ----------------------------------------------------------------

class _Round:
    """Read access to the merged spans and counters of one traced round."""

    def __init__(self, traced: dict):
        self.spans, self.counts = traced["spans"], traced["counts"]

    def self_s(self, name):
        return self.spans.get(name, {}).get("self_s", 0.0)

    def inclusive_s(self, name):
        return self.spans.get(name, {}).get("inclusive_s", 0.0)

    def calls(self, name):
        return self.spans.get(name, {}).get("calls", 0)

    def ratio(self, num, den):
        return num / den if den else 0.0

    def walk_cache_hit_ratio(self):
        # absent when walks ran but the graph had no walk cache to probe
        probes = self.counts["graph.walk_cache_probes"]
        if self.calls("graph.walk") and not probes:
            return None
        return self.ratio(self.counts["graph.walk_cache_hits"], probes)


# metric -> (unit, entry point it needs, value of one traced round). Leaf
# layers report self time; `model.*` and `training.*` report inclusive time,
# since their own code is mostly glue around the leaves.
LAYER_METRICS = {
    "corpus.encode_s": ("s", "corpus.encode", lambda r: r.self_s("corpus.encode")),
    "split.split_s": ("s", "split.split", lambda r: r.self_s("split.split")),
    "graph.build_s": ("s", "graph.build", lambda r: r.self_s("graph.build")),
    "graph.walk_s": ("s", "graph.walk", lambda r: r.self_s("graph.walk")),
    "graph.walk_calls": ("count", "graph.walk", lambda r: r.calls("graph.walk")),
    "graph.walks_drawn": ("count", "graph.walks_drawn",
                          lambda r: r.counts["graph.walks_drawn"]),
    "graph.walk_cache_hit_ratio": ("ratio", "graph.walk", _Round.walk_cache_hit_ratio),
    "han.encode_s": ("s", "han.encode", lambda r: r.self_s("han.encode")),
    "han.docs": ("count", "han.encode", lambda r: r.counts["han.docs"]),
    "han.cells": ("count", "han.encode", lambda r: r.counts["han.cells"]),
    "han.token_fill": ("ratio", "han.encode",
                       lambda r: r.ratio(r.counts["han.tokens"], r.counts["han.cells"])),
    "structural.encode_s": ("s", "structural.encode", lambda r: r.self_s("structural.encode")),
    "structural.nodes": ("count", "structural.encode", lambda r: r.counts["structural.nodes"]),
    "scorer.contextualize_s": ("s", "scorer.contextualize",
                               lambda r: r.self_s("scorer.contextualize")),
    "scorer.score_s": ("s", "scorer.score", lambda r: r.self_s("scorer.score")),
    "scorer.sections": ("count", "scorer.contextualize", lambda r: r.counts["scorer.sections"]),
    "model.forward_s": ("s", "model.forward", lambda r: r.inclusive_s("model.forward")),
    "model.prepare_inference_s": ("s", "model.prepare_inference",
                                  lambda r: r.inclusive_s("model.prepare_inference")),
    "model.prepare_inference_calls": ("count", "model.prepare_inference",
                                      lambda r: r.calls("model.prepare_inference")),
    "model.score_one_s": ("s", "model.score_one", lambda r: r.inclusive_s("model.score_one")),
    "model.score_one_calls": ("count", "model.score_one", lambda r: r.calls("model.score_one")),
    "autodiff.backward_s": ("s", "autodiff.backward", lambda r: r.self_s("autodiff.backward")),
    "autodiff.tape_nodes": ("count", "autodiff.tracked",
                            lambda r: r.ratio(r.counts["autodiff.tracked"],
                                              r.calls("autodiff.backward"))),
    "nn.adam_s": ("s", "nn.adam", lambda r: r.self_s("nn.adam")),
    "training.validate_s": ("s", "training.validate",
                            lambda r: r.inclusive_s("training.validate")),
    "training.tune_s": ("s", "training.tune", lambda r: r.inclusive_s("training.tune")),
}


def merge(parts: list[dict]) -> dict:
    """Add up the summaries and counters of several traced commands."""
    spans: dict[str, dict] = {}
    counts: Counter = Counter()
    installed: set[str] = set()
    for part in parts:
        for name, row in part["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        counts.update(part["counts"])
        installed.update(part["installed"])
    return {"spans": spans, "counts": counts, "installed": installed}


def layer_metrics(traced: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round; a metric whose entry point is
    missing is left out."""
    r = _Round(traced)
    out = {}
    for name, (_, needs, value) in LAYER_METRICS.items():
        v = value(r) if needs in traced["installed"] else None
        if v is not None:
            out[name] = float(v)
    return out
