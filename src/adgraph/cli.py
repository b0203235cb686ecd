"""File-based command-line pipeline.

Subcommands compose through files only (no hidden state): extract ->
graph -> communities, plus stats/history analyses and a one-shot report
bundle. Every run drops a config-echo JSON with the effective parameters
next to its outputs; outputs are UTF-8 with LF endings and
deterministically ordered, so identical invocations produce identical
bytes. Exit codes: 0 success, 1 input error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import json
import logging
import sys
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

from . import __version__
from .corpus import FormatError, load_category_map, load_rank_list, _read_table
from .communities import (
    community_size_distribution,
    girvan_newman,
    prune_edges,
)
from .extractor import (
    IdKind,
    SiteIdProfile,
    dump_profiles,
    extract_crawl,
    iter_profiles,
    load_blocklist,
    load_dictionary,
    summarize_extraction,
    _ANOMALY_THRESHOLD,
)
from .graphs import (
    BipartiteGraph,
    IdFamily,
    Metagraph,
    build_bipartite,
    build_metagraph,
    connected_components,
    dump_bipartite_csv,
    dump_metagraph_csv,
    family_normalizers,
    intermediary_keys,
    load_metagraph_csv,
    without_keys,
)
from .history import (
    PublisherClass,
    Snapshot,
    TransitionClass,
    class_population_series,
    coverage_series,
    load_snapshots,
    publisher_id_count_series,
    top_publishers_series,
    transition_series,
    _MANIFEST,
    _PROFILES,
    _write_manifest,
)
from .stats import (
    PublisherRecord,
    category_distribution,
    fit_power_law,
    loglikelihood_ratio,
    per_site_id_counts,
    poisson_sampling_baseline,
    popularity_by_size,
    publisher_sizes,
    richness_vs_baseline,
    shannon_diversity,
)


def _at_least(low: float, kind: Callable[[str], float] = int) -> Callable[[str], float]:
    """Argument type for a number with a lower bound (exit 2 when violated)."""

    def parse(text: str) -> float:
        value = kind(text)
        if not value >= low:  # NaN too
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _fraction(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError("must be in (0, 1]")
    return value


def _open_out(path: Path) -> IO[str]:
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_json(path: Path, obj) -> None:
    with _open_out(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with _open_out(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _echo_config(args: argparse.Namespace) -> None:
    """Write config_<command>[_<topic>].json into the command's output
    directory: ``--out-dir``, else the directory of ``--out``."""
    params = vars(args)
    directory = Path(args.out_dir) if "out_dir" in params else Path(args.out).parent
    command = args.command + (f"_{args.topic}" if "topic" in params else "")
    effective = {
        k: (str(v) if isinstance(v, Path) else v) for k, v in sorted(params.items()) if k != "func"
    }
    payload = {"command": command, "version": __version__, "parameters": effective}
    _write_json(directory / f"config_{command}.json", payload)


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# Stages: in-memory inputs -> files in an output directory -> what the next
# stage needs. The subcommands and ``report`` all run these. ``out_dir`` is a
# Path, or report's _Bundle, which also records every name joined onto it.
# ---------------------------------------------------------------------------

class _Bundle:
    """The report directory; remembers the name of each artifact written."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.artifacts: list[str] = []

    def __truediv__(self, name: str) -> Path:
        self.artifacts.append(name)
        return self.path / name


def _extract_stage(
    args: argparse.Namespace,
    out_dir: Path | _Bundle,
    profiles_name: str,
    anomaly_threshold: int,
) -> tuple[list[SiteIdProfile], dict[str, int], int]:
    """Crawl JSONL -> profiles, summary.json and site_ranks.csv.

    Reads the files named by the shared extraction flags (``--in``,
    ``--dict``, ``--blocklist``, ``--ranks``) and returns the profiles, the
    landing-domain ranks and the number of landing domains. A crawl without
    one well-formed line raises FormatError before any file is written.
    """
    dictionary = load_dictionary(args.dict)
    blocklist = load_blocklist(args.blocklist)
    with open(args.infile, encoding="utf-8-sig") as fh:
        ranks = load_rank_list(args.ranks) if args.ranks else None
        profiles, site_ranks, site_count, skips = extract_crawl(fh, ranks, dictionary, blocklist)
    if site_count == 0:
        raise FormatError(f"{args.infile}: no well-formed crawl line ({len(skips)} skipped)")
    with _open_out(out_dir / profiles_name) as fh:
        dump_profiles(profiles, fh)
    summary = summarize_extraction(profiles, site_count, anomaly_threshold).to_json_obj()
    summary["skipped_lines"] = len(skips)
    _write_json(out_dir / "summary.json", summary)
    _write_csv(
        out_dir / "site_ranks.csv",
        ["rank", "domain"],
        [[rank, domain] for domain, rank in sorted(site_ranks.items())],
    )
    return profiles, site_ranks, site_count


def _graph_stage(
    profiles: Iterable[SiteIdProfile],
    threshold: float,
    keep_intermediaries: bool,
    normalizer_mode: str,
    out_dir: Path | _Bundle,
) -> tuple[dict[IdFamily, BipartiteGraph], Metagraph]:
    """Profiles -> bipartite_<family>.csv and metagraph.csv; ``profiles``
    is read once, before any file is written."""
    graphs = build_bipartite(profiles)
    normalizers = family_normalizers(graphs) if normalizer_mode == "pre-exclusion" else None
    if not keep_intermediaries:
        excluded = intermediary_keys(graphs, threshold)
        graphs = {family: without_keys(bg, excluded) for family, bg in graphs.items()}
    metagraph = build_metagraph(
        graphs[IdFamily.PUBLISHER],
        graphs[IdFamily.ANALYTICS],
        graphs[IdFamily.CONTAINER],
        normalizers=normalizers,
    )
    for family, bg in graphs.items():
        with _open_out(out_dir / f"bipartite_{family.value}.csv") as fh:
            dump_bipartite_csv(bg, fh)
    with _open_out(out_dir / "metagraph.csv") as fh:
        dump_metagraph_csv(metagraph, fh)
    return graphs, metagraph


def _communities_stage(
    metagraph: Metagraph,
    top_fraction: float,
    out_dir: Path | _Bundle,
    max_communities: int | None = None,
    weighted_paths: bool = False,
) -> tuple[frozenset[str], ...]:
    """Metagraph -> prune -> Girvan-Newman -> communities.csv and
    communities_summary.json; returns the communities, largest first."""
    pruned = prune_edges(metagraph, top_fraction)
    partition = girvan_newman(pruned, max_communities, weighted_paths)
    _write_csv(
        out_dir / "communities.csv",
        ["community_id", "site"],
        [[i, site] for i, c in enumerate(partition.communities) for site in sorted(c)],
    )
    _write_json(
        out_dir / "communities_summary.json",
        {
            "community_count": len(partition.communities),
            "modularity": float(partition.modularity),
            "size_distribution": community_size_distribution(partition).to_json_obj(),
        },
    )
    return partition.communities


def _id_counts_stage(
    profiles: Iterable[SiteIdProfile], out_dir: Path | _Bundle, name: str
) -> None:
    histograms = per_site_id_counts(profiles)
    _write_csv(
        out_dir / name,
        ["kind", "count", "fraction"],
        [
            [kind.value, count, _fmt(fraction)]
            for kind in IdKind
            for count, fraction in histograms[kind].items()
        ],
    )


def _sizes_stage(
    bipartite: BipartiteGraph, ranks: dict[str, int] | None, out_dir: Path | _Bundle, name: str
) -> list[PublisherRecord]:
    records = publisher_sizes(bipartite, ranks)
    _write_csv(
        out_dir / name,
        ["key", "size", "mean_rank", "median_rank"],
        [
            [
                r.key,
                r.size,
                _fmt(r.mean_rank) if r.mean_rank is not None else "",
                _fmt(r.median_rank) if r.median_rank is not None else "",
            ]
            for r in records
        ],
    )
    return records


def _powerlaw_stage(sizes: list[int], out_dir: Path | _Bundle, name: str, **labels: str) -> None:
    fit = fit_power_law(sizes)
    fit.lr_statistic, fit.lr_p_value = loglikelihood_ratio(sizes, fit)
    _write_json(out_dir / name, {**fit.to_json_obj(), **labels})


def _popularity_stage(
    records: list[PublisherRecord], max_size: int | None, out_dir: Path | _Bundle, name: str
) -> None:
    """Writes ``name`` and popularity_fit.json."""
    series, fit = popularity_by_size(records, max_size)
    _write_csv(
        out_dir / name,
        ["size", "mean_rank", "median_rank"],
        [[size, _fmt(mean), _fmt(median)] for size, mean, median in series],
    )
    _write_json(out_dir / "popularity_fit.json", fit.to_json_obj())


def _categories_stage(
    profiles: Iterable[SiteIdProfile],
    categories: dict[str, str],
    out_dir: Path | _Bundle,
    name: str,
) -> None:
    _write_csv(
        out_dir / name,
        ["category", "fraction"],
        [[label, _fmt(f)] for label, f in category_distribution(profiles, categories).items()],
    )


def _diversity_stage(
    groups: Iterable[tuple[int, list[str]]],
    categories: dict[str, str],
    out_dir: Path | _Bundle,
    name: str,
) -> None:
    """Shannon diversity of each community that has labeled sites."""
    rows = []
    for community_id, sites in groups:
        labels = [categories[s] for s in sites if s in categories]
        if not labels:
            continue
        report = shannon_diversity(labels)
        rows.append(
            [community_id, len(sites), len(labels), report.richness,
             _fmt(report.shannon_h), _fmt(report.h_max)]
        )
    _write_csv(
        out_dir / name,
        ["community_id", "size", "labeled", "richness", "shannon_h", "h_max"],
        rows,
    )


def _richness_stage(groups: list[list[str]], categories: dict[str, str], out_dir: _Bundle) -> None:
    rows = richness_vs_baseline(groups, categories)
    _write_csv(
        out_dir / "richness_vs_baseline.csv",
        ["size", "observed_mean", "baseline_mean"],
        [[size, _fmt(obs), _fmt(base)] for size, obs, base in rows],
    )


# ---------------------------------------------------------------------------
# extract / graph / communities
# ---------------------------------------------------------------------------

def _cmd_extract(args: argparse.Namespace) -> None:
    out = Path(args.out)
    _, _, site_count = _extract_stage(args, out.parent, out.name, args.anomaly_threshold)
    if args.snapshot_id:
        _write_manifest(out.parent, args.snapshot_id, site_count)


def _cmd_graph(args: argparse.Namespace) -> None:
    _graph_stage(
        iter_profiles(args.profiles),
        args.intermediary_threshold,
        args.keep_intermediaries,
        args.normalizer_mode,
        Path(args.out_dir),
    )


def _cmd_communities(args: argparse.Namespace) -> None:
    _communities_stage(
        load_metagraph_csv(args.metagraph),
        args.top_fraction,
        Path(args.out_dir),
        args.max_communities,
        args.weighted_paths,
    )


# ---------------------------------------------------------------------------
# stats subtopics
# ---------------------------------------------------------------------------

def _cmd_stats_ids(args: argparse.Namespace) -> None:
    out = Path(args.out)
    _id_counts_stage(iter_profiles(args.profiles), out.parent, out.name)


def _cmd_stats_sizes(args: argparse.Namespace) -> None:
    out = Path(args.out)
    bipartite = build_bipartite(iter_profiles(args.profiles))[IdFamily(args.family)]
    ranks = load_rank_list(args.site_ranks) if args.site_ranks else None
    _sizes_stage(bipartite, ranks, out.parent, out.name)


def _cmd_stats_powerlaw(args: argparse.Namespace) -> None:
    out = Path(args.out)
    bipartite = build_bipartite(iter_profiles(args.profiles))[IdFamily(args.family)]
    if args.population == "publishers":
        sizes = [r.size for r in publisher_sizes(bipartite)]
    else:
        sizes = [len(c) for c in connected_components(bipartite)]
    _powerlaw_stage(sizes, out.parent, out.name, population=args.population, family=args.family)


def _cmd_stats_popularity(args: argparse.Namespace) -> None:
    out = Path(args.out)
    bipartite = build_bipartite(iter_profiles(args.profiles))[IdFamily.PUBLISHER]
    ranks = load_rank_list(args.site_ranks)
    _popularity_stage(publisher_sizes(bipartite, ranks), args.max_size, out.parent, out.name)


def _cmd_stats_categories(args: argparse.Namespace) -> None:
    out = Path(args.out)
    categories = load_category_map(args.categories)
    _categories_stage(iter_profiles(args.profiles), categories, out.parent, out.name)


def _community_entry(row: list[str]) -> tuple[str, int]:
    """The site and community id of a ``community_id,site`` row. The id must
    read as `communities` writes it, decimal digits with no sign, separator
    or leading zero, so that no two texts read as one id."""
    text = row[0]
    community_id = int(text)
    if community_id < 0 or str(community_id) != text:
        raise ValueError(f"community id {text!r} is not a canonical non-negative integer")
    return row[1], community_id


def _read_communities_csv(path) -> list[tuple[int, list[str]]]:
    """communities.csv: each site in one row, else FormatError naming the row."""
    groups: dict[int, list[str]] = {}
    sites = _read_table(path, ["community_id", "site"], _community_entry, "site")
    for site, community_id in sites.items():
        groups.setdefault(community_id, []).append(site)
    return sorted(groups.items())


def _cmd_stats_diversity(args: argparse.Namespace) -> None:
    out = Path(args.out)
    categories = load_category_map(args.categories)
    _diversity_stage(_read_communities_csv(args.communities), categories, out.parent, out.name)


def _cmd_stats_poisson(args: argparse.Namespace) -> None:
    categories = load_category_map(args.categories)
    mean_richness = poisson_sampling_baseline(categories, args.size)
    _write_json(
        Path(args.out),
        {"size": args.size, "labeled_sites": len(categories), "mean_richness": mean_richness},
    )


# ---------------------------------------------------------------------------
# history subtopics: one row builder per topic, one tidy CSV (scope, metric,
# value) written by _cmd_history
# ---------------------------------------------------------------------------

def _coverage_rows(snapshots: list[Snapshot], args: argparse.Namespace) -> Iterator[list]:
    series = coverage_series(snapshots)
    for snapshot_id, pub, track in series.rows:
        yield [snapshot_id, "publisher_fraction", _fmt(pub)]
        yield [snapshot_id, "tracking_fraction", _fmt(track)]
    yield ["all", "publisher_fraction_mean", _fmt(series.publisher_mean)]
    yield ["all", "publisher_fraction_sd", _fmt(series.publisher_sd)]
    yield ["all", "tracking_fraction_mean", _fmt(series.tracking_mean)]
    yield ["all", "tracking_fraction_sd", _fmt(series.tracking_sd)]


def _idcounts_rows(snapshots: list[Snapshot], args: argparse.Namespace) -> Iterator[list]:
    for row in publisher_id_count_series(snapshots):
        yield [row.snapshot_id, "frac_one", _fmt(row.frac_one)]
        yield [row.snapshot_id, "frac_two", _fmt(row.frac_two)]
        yield [row.snapshot_id, "frac_three_plus", _fmt(row.frac_three_plus)]
        yield [row.snapshot_id, "mean_keys", _fmt(row.mean_keys)]


def _transitions_rows(snapshots: list[Snapshot], args: argparse.Namespace) -> Iterator[list]:
    series = transition_series(snapshots, per_pair_universe=args.per_pair_universe)
    for from_id, to_id, counts in series.intervals:
        for cls in TransitionClass:
            yield [f"{from_id}..{to_id}", cls.value, counts[cls]]
    for cls in TransitionClass:
        fit = series.trends[cls]
        if fit is not None:
            yield ["trend", f"{cls.value}_slope", _fmt(fit.slope)]


def _classes_rows(snapshots: list[Snapshot], args: argparse.Namespace) -> Iterator[list]:
    series = class_population_series(snapshots)
    for snapshot_id, counts in series.rows:
        for cls in PublisherClass:
            yield [snapshot_id, cls.name.lower(), counts[cls]]
    for cls in PublisherClass:
        slope = series.slopes[cls]
        if slope is not None:
            yield ["trend", f"{cls.name.lower()}_slope", _fmt(slope)]


def _top_rows(snapshots: list[Snapshot], args: argparse.Namespace) -> Iterator[list]:
    for snapshot_id, own, fixed in top_publishers_series(snapshots, args.k).rows:
        yield [snapshot_id, "top_k_sum", own]
        yield [snapshot_id, "fixed_top_k_sum", fixed]


_HISTORY_ROWS: dict[str, Callable[[list[Snapshot], argparse.Namespace], Iterator[list]]] = {
    "coverage": _coverage_rows,
    "idcounts": _idcounts_rows,
    "transitions": _transitions_rows,
    "classes": _classes_rows,
    "top": _top_rows,
}


def _cmd_history(args: argparse.Namespace) -> None:
    # A list, so that a series that fails leaves no file behind.
    rows = list(_HISTORY_ROWS[args.topic](load_snapshots(args.snapshots), args))
    _write_csv(Path(args.out), ["scope", "metric", "value"], rows)


# ---------------------------------------------------------------------------
# report: the full pipeline in one output directory
# ---------------------------------------------------------------------------

def _cmd_report(args: argparse.Namespace) -> None:
    # A bad category file fails the run before any output is written.
    categories = load_category_map(args.categories) if args.categories else None
    bundle = _Bundle(Path(args.out_dir))
    skipped: list[dict[str, str]] = []

    def attempt(analysis: str, stage: Callable, *stage_args) -> None:
        try:
            stage(*stage_args)
        except ValueError as exc:
            skipped.append({"analysis": analysis, "reason": str(exc)})

    profiles, site_ranks, _ = _extract_stage(args, bundle, _PROFILES, _ANOMALY_THRESHOLD)
    graphs, metagraph = _graph_stage(
        profiles, args.intermediary_threshold, False, args.normalizer_mode, bundle
    )
    communities = _communities_stage(metagraph, args.top_fraction, bundle)
    # Community report skeleton: the legal entity column is filled by hand.
    _write_csv(
        bundle / "communities_report.csv",
        ["community_id", "size", "entity", "websites"],
        [[i, len(c), "", ";".join(sorted(c))] for i, c in enumerate(communities)],
    )
    _id_counts_stage(profiles, bundle, "id_counts.csv")
    # Publisher sizes come from the Publisher graph after intermediary
    # exclusion, unlike `stats sizes`, which counts every key in profiles.
    by_size = _sizes_stage(graphs[IdFamily.PUBLISHER], site_ranks, bundle, "publisher_sizes.csv")
    attempt("powerlaw_publisher", _powerlaw_stage,
            [r.size for r in by_size], bundle, "powerlaw_publisher.json")
    attempt("popularity", _popularity_stage, by_size, None, bundle, "popularity.csv")

    if categories is not None:
        groups = [sorted(c) for c in communities]
        _categories_stage(profiles, categories, bundle, "categories.csv")
        _diversity_stage(enumerate(groups), categories, bundle, "diversity.csv")
        attempt("richness_vs_baseline", _richness_stage, groups, categories, bundle)

    manifest = bundle / "report_manifest.json"
    _write_json(manifest, {"artifacts": sorted(set(bundle.artifacts)), "skipped": skipped})


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _LazySubcommands(argparse._SubParsersAction):
    """Subcommands whose arguments are added only once one is chosen, so a
    run builds the parser of its own subcommand and not the others."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._fill: dict[str, Callable[[], None]] = {}

    def lazy(self, name: str, **kwargs) -> Callable[[Callable], Callable]:
        """Decorator: add subcommand ``name``; the decorated function adds
        its arguments to its parser when ``name`` is parsed."""

        def register(fill: Callable[[argparse.ArgumentParser], None]) -> Callable:
            self._fill[name] = functools.partial(fill, self.add_parser(name, **kwargs))
            return fill

        return register

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        fill = self._fill.pop(values[0], None)  # argparse checked the name
        if fill is not None:
            fill()
        super().__call__(parser, namespace, values, option_string)


def _extract_flags(p: argparse.ArgumentParser) -> None:
    """Flags that report shares with extract."""
    p.add_argument("--in", dest="infile", required=True, help="crawl JSONL input")
    p.add_argument("--dict", default=None, help="dictionary file (default: packaged)")
    p.add_argument("--blocklist", default=None, help="keyword blocklist file (default: packaged)")
    p.add_argument("--ranks", default=None, help="rank,domain CSV keyed by requested domain")


def _graph_flags(p: argparse.ArgumentParser) -> None:
    """Flags that report shares with graph."""
    p.add_argument("--intermediary-threshold", type=_at_least(2, float), default=100)
    p.add_argument(
        "--normalizer-mode",
        choices=["projected", "pre-exclusion"],
        default="projected",
        help="population over which the 1/n weights are computed",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adgraph",
        description="Detect website administration from publisher-specific IDs.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True, action=_LazySubcommands)

    @sub.lazy("extract", help="crawl JSONL -> profiles JSONL + summary")
    def extract(p: argparse.ArgumentParser) -> None:
        _extract_flags(p)
        p.add_argument("--out", required=True, help="profiles JSONL output path")
        p.add_argument("--snapshot-id", default=None, help=f"also write {_MANIFEST} with this id")
        p.add_argument("--anomaly-threshold", type=_at_least(1), default=_ANOMALY_THRESHOLD)
        p.set_defaults(func=_cmd_extract)

    @sub.lazy("graph", help="profiles -> bipartite + metagraph CSV dumps")
    def graph(p: argparse.ArgumentParser) -> None:
        _graph_flags(p)
        p.add_argument("--profiles", required=True)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--keep-intermediaries", action="store_true")
        p.set_defaults(func=_cmd_graph)

    @sub.lazy("communities", help="metagraph -> prune -> Girvan-Newman")
    def communities(p: argparse.ArgumentParser) -> None:
        p.add_argument("--top-fraction", type=_fraction, default=0.05)
        p.add_argument("--metagraph", required=True, help="metagraph edge CSV")
        p.add_argument("--max-communities", type=_at_least(1), default=None)
        p.add_argument("--weighted-paths", action="store_true")
        p.add_argument("--out-dir", required=True)
        p.set_defaults(func=_cmd_communities)

    @sub.lazy("stats", help="distributional analyses")
    def stats(p: argparse.ArgumentParser) -> None:
        topics = p.add_subparsers(dest="topic", required=True, action=_LazySubcommands)

        @topics.lazy("ids", help="per-site identifier count histogram")
        def ids(p: argparse.ArgumentParser) -> None:
            p.add_argument("--profiles", required=True)
            p.add_argument("--out", required=True)
            p.set_defaults(func=_cmd_stats_ids)

        @topics.lazy("sizes", help="publisher portfolio sizes")
        def sizes(p: argparse.ArgumentParser) -> None:
            p.add_argument("--profiles", required=True)
            p.add_argument(
                "--site-ranks", default=None, help="rank,domain CSV keyed by landing domain"
            )
            p.add_argument("--family", choices=[f.value for f in IdFamily], default="publisher")
            p.add_argument("--out", required=True)
            p.set_defaults(func=_cmd_stats_sizes)

        @topics.lazy("powerlaw", help="power-law fit + LR test")
        def powerlaw(p: argparse.ArgumentParser) -> None:
            p.add_argument("--profiles", required=True)
            p.add_argument("--family", choices=[f.value for f in IdFamily], default="publisher")
            p.add_argument(
                "--population", choices=["publishers", "components"], default="publishers"
            )
            p.add_argument("--out", required=True)
            p.set_defaults(func=_cmd_stats_powerlaw)

        @topics.lazy("popularity", help="rank vs publisher size")
        def popularity(p: argparse.ArgumentParser) -> None:
            p.add_argument("--profiles", required=True)
            p.add_argument("--site-ranks", required=True)
            # The fit needs three size buckets, and sizes above --max-size share one.
            p.add_argument("--max-size", type=_at_least(3), default=None)
            p.add_argument("--out", required=True)
            p.set_defaults(func=_cmd_stats_popularity)

        @topics.lazy("categories", help="category histogram of Publisher-bearing sites")
        def categories(p: argparse.ArgumentParser) -> None:
            p.add_argument("--profiles", required=True)
            p.add_argument("--categories", required=True)
            p.add_argument("--out", required=True)
            p.set_defaults(func=_cmd_stats_categories)

        @topics.lazy("diversity", help="Shannon diversity per community")
        def diversity(p: argparse.ArgumentParser) -> None:
            p.add_argument("--communities", required=True, help="community_id,site CSV")
            p.add_argument("--categories", required=True)
            p.add_argument("--out", required=True)
            p.set_defaults(func=_cmd_stats_diversity)

        @topics.lazy("poisson", help="expected richness under uniform site sampling")
        def poisson(p: argparse.ArgumentParser) -> None:
            p.add_argument("--categories", required=True)
            p.add_argument("--size", type=_at_least(1), required=True)
            p.add_argument("--out", required=True)
            p.set_defaults(func=_cmd_stats_poisson)

    @sub.lazy("history", help="longitudinal snapshot analyses")
    def history(p: argparse.ArgumentParser) -> None:
        topics = p.add_subparsers(dest="topic", required=True, action=_LazySubcommands)
        for name in _HISTORY_ROWS:

            @topics.lazy(name)
            def topic(p: argparse.ArgumentParser, name: str = name) -> None:
                p.add_argument("--snapshots", nargs="+", required=True, help="snapshot directories")
                p.add_argument("--out", required=True)
                if name == "transitions":
                    p.add_argument("--per-pair-universe", action="store_true")
                if name == "top":
                    p.add_argument("--k", type=_at_least(1), default=10)
                p.set_defaults(func=_cmd_history)

    @sub.lazy("report", help="full pipeline into one directory")
    def report(p: argparse.ArgumentParser) -> None:
        _extract_flags(p)
        _graph_flags(p)
        p.add_argument("--top-fraction", type=_fraction, default=0.05)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--categories", default=None)
        p.set_defaults(func=_cmd_report)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Run one command with the cyclic collector paused, in every thread; if the
    caller had it on, one young collection then frees the run's own cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()
            gc.collect(0)


def _run(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # history reads a snapshot directory's profiles under this one name.
        if getattr(args, "snapshot_id", None) and Path(args.out).name != _PROFILES:
            parser.error(f"--snapshot-id needs --out to name a {_PROFILES} file")
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    del parser  # else an escaping exception keeps it, in this frame, past run's collection
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        args.func(args)
        _echo_config(args)  # last, so a failed command leaves no echo
    except (OSError, ValueError) as exc:  # FormatError is a ValueError, KeyError a bug
        print(f"adgraph: input error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
