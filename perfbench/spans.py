"""Spans around the calls into adgraph's layers, recorded from outside.

``Tracer.install`` replaces every public function that one adgraph module
imports from another layer module (``corpus``, ``extractor``, ``graphs``,
``communities``, ``stats``, ``history``) with a wrapper that records a span:
name, start, end, parent span and job id. Calls inside one module are not
wrapped, so per-record helpers cost nothing extra. Each job is a root span.
Spans stay in memory until ``layer_metrics`` turns them into per-layer
numbers; a layer's time is its spans' self time. A few wrapped calls also
record counts taken from their arguments
and results; that work runs in a ``trace.hook`` child span, so it is not
charged to any layer.
"""

from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import functools
import importlib
import inspect
import os
import time
from statistics import median
from typing import Callable

LAYERS = ("corpus", "extractor", "graphs", "communities", "stats", "history")
CONSUMERS = LAYERS + ("cli",)
RSS_SPANS = frozenset({"corpus.parse_crawl_jsonl", "extractor.extract_profiles"})
_PAGE = os.sysconf("SC_PAGE_SIZE")
# Counts that keep the largest value of the pass; all others add up.
MAX_COUNTS = frozenset({"rss_step", "largest", "snapshots", "sites"})

try:
    _LIBC = ctypes.CDLL(ctypes.util.find_library("c"))
    _LIBC.malloc_trim  # glibc only
except (OSError, AttributeError, TypeError):
    _LIBC = None


def current_rss_bytes() -> int:
    """Resident set size of this process now (0 where /proc is absent)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except OSError:
        return 0


def _release_free_memory() -> None:
    """Hand free heap pages back to the OS, so the RSS step of the next span
    shows what it allocates, not what earlier passes left behind."""
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def _components(edges) -> list[int]:
    """Component sizes of an undirected edge list (union-find)."""
    parent: dict[str, str] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    sizes: dict[str, int] = {}
    for node in parent:
        root = find(node)
        sizes[root] = sizes.get(root, 0) + 1
    return list(sizes.values())


def _distinct_keys(profiles) -> set[str]:
    return {k for p in profiles for keys in p.keys.values() for k in keys}


def _pair_contributions(graphs) -> int:
    return sum(len(sites) * (len(sites) - 1) // 2
               for bg in graphs for sites in bg.key_to_sites.values())


def _hook_parse(args, result):
    return {"records": len(result.records), "skipped": len(result.skips)}


def _hook_dedup(args, result):
    return {"in": len(args[0]), "out": len(result)}


def _hook_extract(args, result):
    records = args[0]
    chars = sum(len(r.page_text) + sum(map(len, r.request_urls))
                + sum(len(n) + len(v) for n, v in r.cookies) for r in records)
    return {"records": len(records), "chars": chars, "nonempty": len(result),
            "keys": sum(p.total_keys() for p in result)}


def _hook_exclude(args, result):
    return {"excluded": len(_distinct_keys(args[0]) - _distinct_keys(result))}


def _hook_metagraph(args, result):
    return {"edges": result.edge_count, "pairs": _pair_contributions(args[:3])}


def _hook_prune(args, result):
    sizes = _components(result.weights)
    return {"edges": result.edge_count, "components": len(sizes),
            "largest": max(sizes, default=0)}


def _hook_gn(args, result):
    # Girvan-Newman removes every edge once, and every removal that
    # disconnects a component is a split: splits = nodes - components.
    graph = args[0]
    return {"rounds": graph.edge_count,
            "splits": len(graph.nodes) - len(_components(graph.weights)),
            "graph": graph, "communities": result.communities}


def _hook_load_snapshots(args, result):
    return {"snapshots": len(result),
            "sites": len({d for snap in result for d in snap.profiles})}


HOOKS: dict[str, Callable] = {
    "corpus.parse_crawl_jsonl": _hook_parse,
    "corpus.dedup_by_landing": _hook_dedup,
    "extractor.extract_profiles": _hook_extract,
    "graphs.exclude_intermediaries": _hook_exclude,
    "graphs.build_metagraph": _hook_metagraph,
    "communities.prune_edges": _hook_prune,
    "communities.girvan_newman": _hook_gn,
    "history.load_snapshots": _hook_load_snapshots,
}


class Tracer:
    """Records spans in memory; ``install``/``uninstall`` add and remove
    the wrappers, so untraced runs execute adgraph unchanged."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, job id, info]
        self._stack: list[int] = []
        self._job: str | None = None
        self._patched: list[tuple[object, str, Callable]] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._job, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def job(self, job_id: str):
        self._job = job_id
        try:
            with self.span("job"):
                yield
        finally:
            self._job = None

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)
        measure_rss = name in RSS_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rss0 = 0
            if measure_rss:
                with self.span("trace.hook"):
                    _release_free_memory()
                    rss0 = current_rss_bytes()
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            rss_step = current_rss_bytes() - rss0 if measure_rss else 0
            if measure_rss or hook:
                with self.span("trace.hook"):
                    info = hook(args, result) if hook else {}
                    if measure_rss:
                        info["rss_step"] = rss_step
                    rec[5] = info
            return result

        return wrapper

    def install(self) -> None:
        modules = {name: importlib.import_module(f"adgraph.{name}") for name in CONSUMERS}
        layer_of = {f"adgraph.{name}": name for name in LAYERS}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = layer_of.get(obj.__module__)
                if layer is None or obj.__module__ == module.__name__:
                    continue
                self._patched.append((module, attr, obj))
                setattr(module, attr, self._wrap(f"{layer}.{obj.__name__}", obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

# name -> (unit, better); the order is the report order.
PER_LAYER = {
    "corpus.parse_s": ("s", "lower"),
    "corpus.dedup_s": ("s", "lower"),
    "corpus.records": ("count", "higher"),
    "corpus.skipped_lines": ("count", "lower"),
    "corpus.landing_ratio": ("ratio", "higher"),
    "corpus.input_mb": ("MB", "lower"),
    "corpus.rss_step_mb": ("MB", "lower"),
    "extractor.extract_s": ("s", "lower"),
    "extractor.records_per_s": ("records/s", "higher"),
    "extractor.scan_mb_per_s": ("MB/s", "higher"),
    "extractor.nonempty_ratio": ("ratio", "higher"),
    "extractor.keys": ("count", "higher"),
    "extractor.rss_step_mb": ("MB", "lower"),
    "extractor.dump_s": ("s", "lower"),
    "extractor.load_s": ("s", "lower"),
    "graphs.exclude_s": ("s", "lower"),
    "graphs.keys_excluded": ("count", "lower"),
    "graphs.bipartite_s": ("s", "lower"),
    "graphs.metagraph_s": ("s", "lower"),
    "graphs.meta_edges": ("count", "lower"),
    "graphs.pair_contributions": ("count", "lower"),
    "graphs.edge_ratio": ("ratio", "higher"),
    "graphs.csv_dump_s": ("s", "lower"),
    "graphs.csv_load_s": ("s", "lower"),
    "communities.prune_s": ("s", "lower"),
    "communities.pruned_edges": ("count", "lower"),
    "communities.components": ("count", "higher"),
    "communities.largest_component": ("count", "lower"),
    "communities.gn_s": ("s", "lower"),
    "communities.gn_rounds": ("count", "lower"),
    "communities.gn_splits": ("count", "lower"),
    "communities.betweenness_pass_s": ("s", "lower"),
    "communities.modularity_pass_s": ("s", "lower"),
    "stats.sizes_s": ("s", "lower"),
    "stats.powerlaw_s": ("s", "lower"),
    "stats.popularity_s": ("s", "lower"),
    "stats.diversity_s": ("s", "lower"),
    "stats.richness_s": ("s", "lower"),
    "history.load_s": ("s", "lower"),
    "history.series_s": ("s", "lower"),
    "history.snapshots": ("count", "higher"),
    "history.sites": ("count", "higher"),
    "cli.self_s": ("s", "lower"),
    "cli.output_mb": ("MB", "lower"),
    "cli.files_written": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Span names whose self time (span minus its child spans) is summed into
# each time metric, so a layer call nested in another is counted once.
TIMED = {
    "corpus.parse_s": ("corpus.parse_crawl_jsonl",),
    "corpus.dedup_s": ("corpus.dedup_by_landing",),
    "extractor.extract_s": ("extractor.extract_profiles",),
    "extractor.dump_s": ("extractor.dump_profiles",),
    "extractor.load_s": ("extractor.load_profiles",),
    "graphs.exclude_s": ("graphs.exclude_intermediaries",),
    "graphs.bipartite_s": ("graphs.build_bipartite",),
    "graphs.metagraph_s": ("graphs.build_metagraph",),
    "graphs.csv_dump_s": ("graphs.dump_metagraph_csv", "graphs.dump_bipartite_csv"),
    "graphs.csv_load_s": ("graphs.load_metagraph_csv",),
    "communities.prune_s": ("communities.prune_edges",),
    "communities.gn_s": ("communities.girvan_newman",),
    "stats.sizes_s": ("stats.publisher_sizes",),
    "stats.powerlaw_s": ("stats.fit_power_law", "stats.loglikelihood_ratio"),
    "stats.popularity_s": ("stats.popularity_by_size",),
    "stats.diversity_s": ("stats.shannon_diversity",),
    "stats.richness_s": ("stats.richness_vs_baseline",),
    "history.load_s": ("history.load_snapshots",),
    "history.series_s": ("history.coverage_series", "history.publisher_id_count_series",
                         "history.transition_series", "history.class_population_series",
                         "history.top_publishers_series"),
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[list], probes: dict[str, float], pass_info: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead_ratio`` is
    added by the caller, which sees the untraced passes too)."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, *_rest in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_time: dict[str, float] = {}  # span name -> summed self time
    info: dict[str, dict[str, float]] = {}
    for (name, start, end, _parent, _job, extra), children in zip(spans, child_time):
        self_time[name] = self_time.get(name, 0.0) + (end - start - children)
        if extra:
            acc = info.setdefault(name, {})
            for key, value in extra.items():
                if isinstance(value, (int, float)):
                    old = acc.get(key, 0)
                    acc[key] = max(old, value) if key in MAX_COUNTS else old + value

    def get(span: str, key: str) -> float:
        return info.get(span, {}).get(key, 0)

    m = {metric: sum(self_time.get(s, 0.0) for s in names) for metric, names in TIMED.items()}
    mb = 1e6
    m.update({
        "corpus.records": get("corpus.parse_crawl_jsonl", "records"),
        "corpus.skipped_lines": get("corpus.parse_crawl_jsonl", "skipped"),
        "corpus.landing_ratio": _ratio(get("corpus.dedup_by_landing", "out"),
                                       get("corpus.dedup_by_landing", "in")),
        "corpus.input_mb": pass_info["input_bytes"] / mb,
        "corpus.rss_step_mb": get("corpus.parse_crawl_jsonl", "rss_step") / mb,
        "extractor.records_per_s": _ratio(get("extractor.extract_profiles", "records"),
                                          m["extractor.extract_s"]),
        "extractor.scan_mb_per_s": _ratio(get("extractor.extract_profiles", "chars") / mb,
                                          m["extractor.extract_s"]),
        "extractor.nonempty_ratio": _ratio(get("extractor.extract_profiles", "nonempty"),
                                           get("extractor.extract_profiles", "records")),
        "extractor.keys": get("extractor.extract_profiles", "keys"),
        "extractor.rss_step_mb": get("extractor.extract_profiles", "rss_step") / mb,
        "graphs.keys_excluded": get("graphs.exclude_intermediaries", "excluded"),
        "graphs.meta_edges": get("graphs.build_metagraph", "edges"),
        "graphs.pair_contributions": get("graphs.build_metagraph", "pairs"),
        "graphs.edge_ratio": _ratio(get("graphs.build_metagraph", "edges"),
                                    get("graphs.build_metagraph", "pairs")),
        "communities.pruned_edges": get("communities.prune_edges", "edges"),
        "communities.components": get("communities.prune_edges", "components"),
        "communities.largest_component": get("communities.prune_edges", "largest"),
        "communities.gn_rounds": get("communities.girvan_newman", "rounds"),
        "communities.gn_splits": get("communities.girvan_newman", "splits"),
        "communities.betweenness_pass_s": probes.get("betweenness", 0.0),
        "communities.modularity_pass_s": probes.get("modularity", 0.0),
        "history.snapshots": get("history.load_snapshots", "snapshots"),
        "history.sites": get("history.load_snapshots", "sites"),
        "cli.self_s": self_time.get("job", 0.0),
        "cli.output_mb": pass_info["output_bytes"] / mb,
        "cli.files_written": pass_info["files"],
    })
    return m


def run_probes(spans: list[list]) -> dict[str, float]:
    """Time one edge_betweenness and one modularity call on each pruned
    graph that Girvan-Newman saw in the pass (tracing must be uninstalled)."""
    from adgraph.communities import edge_betweenness, modularity

    out = {"betweenness": 0.0, "modularity": 0.0}
    for name, *_rest, extra in spans:
        if name != "communities.girvan_newman" or not extra:
            continue
        graph = extra["graph"]
        t0 = time.perf_counter()
        edge_betweenness(graph)
        t1 = time.perf_counter()
        modularity(graph, extra["communities"])
        t2 = time.perf_counter()
        out["betweenness"] += t1 - t0
        out["modularity"] += t2 - t1
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(p[name] for p in passes) for name in passes[0]}
