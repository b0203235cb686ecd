"""Benchmark jobs: the adgraph command lines of each workload, the checks
every job's outputs must pass, and the planted facts the outputs must
reproduce.

All paths are relative to a run directory that holds the generated inputs
under ``in/`` and the job outputs under ``out/``. The checks read the output
files with the standard library only; they never call adgraph.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

REPORT_ARTIFACTS = frozenset({
    "profiles.jsonl", "summary.json", "site_ranks.csv", "bipartite_publisher.csv",
    "bipartite_analytics.csv", "bipartite_container.csv", "metagraph.csv",
    "communities.csv", "communities_summary.json", "communities_report.csv",
    "id_counts.csv", "publisher_sizes.csv", "powerlaw_publisher.json", "popularity.csv",
    "popularity_fit.json", "categories.csv", "diversity.csv", "richness_vs_baseline.csv",
    "report_manifest.json", "config_report.json",
})
COMMUNITIES_ARTIFACTS = frozenset({"communities.csv", "communities_summary.json",
                                   "config_communities.json"})
EXTRACT_ARTIFACTS = frozenset({"profiles.jsonl", "summary.json", "site_ranks.csv",
                               "manifest.json", "config_extract.json"})
HISTORY_TOPICS = ("coverage", "idcounts", "transitions", "classes", "top")
REPORT_TOP_FRACTION = 0.05  # adgraph report's default --top-fraction


@dataclass
class Job:
    """One adgraph invocation and the check its outputs must pass.

    ``check`` returns a list of problems; an empty list means the outputs
    are correct. ``crawl_inputs`` are the crawl files the job parses.
    """

    name: str
    argv: list[str]
    check: Callable[[], list[str]]
    crawl_inputs: list[str] = field(default_factory=list)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _artifact_problems(out_dir: Path, expected: frozenset[str]) -> list[str]:
    if not out_dir.is_dir():
        return [f"{out_dir}: missing output directory"]
    present = set(os.listdir(out_dir))
    problems = []
    if expected - present:
        problems.append(f"{out_dir}: missing {sorted(expected - present)}")
    if present - expected:
        problems.append(f"{out_dir}: unexpected {sorted(present - expected)}")
    return problems


def pruned_nodes(metagraph_csv: Path, top_fraction: float) -> set[str]:
    """Nodes of the heaviest ceil(top_fraction * E) edges, boundary ties kept."""
    rows = _read_csv(metagraph_csv)
    if not rows or rows[0] != ["site_a", "site_b", "weight"]:
        raise ValueError(f"{metagraph_csv}: bad header")
    edges = [(u, v, Fraction(w)) for u, v, w in rows[1:]]
    if not edges:
        return set()
    k = math.ceil(top_fraction * len(edges))
    cutoff = sorted((w for _, _, w in edges), reverse=True)[k - 1]
    return {n for u, v, w in edges if w >= cutoff for n in (u, v)}


def read_communities(path: Path) -> dict[int, set[str]]:
    rows = _read_csv(path)
    if not rows or rows[0] != ["community_id", "site"]:
        raise ValueError(f"{path}: bad header")
    groups: dict[int, set[str]] = {}
    for community_id, site in rows[1:]:
        members = groups.setdefault(int(community_id), set())
        if site in members:
            raise ValueError(f"{path}: {site} listed twice")
        members.add(site)
    return groups


def _partition_problems(communities_csv: Path, metagraph_csv: Path, top_fraction: float) -> list[str]:
    """Communities must partition the pruned graph's nodes exactly."""
    groups = read_communities(communities_csv)
    seen: set[str] = set()
    for members in groups.values():
        if seen & members:
            return [f"{communities_csv}: a site is in two communities"]
        seen |= members
    expected = pruned_nodes(metagraph_csv, top_fraction)
    if seen != expected:
        return [f"{communities_csv}: communities cover {len(seen)} sites, "
                f"pruned graph has {len(expected)}"]
    return []


def _found(groups: dict[int, set[str]], planted: list[list[str]]) -> int:
    found = {frozenset(members) for members in groups.values()}
    return sum(1 for members in planted if frozenset(members) in found)


def _checked(fn: Callable[[], list[str]]) -> Callable[[], list[str]]:
    """A check that reports unreadable outputs as problems instead of raising."""
    def check() -> list[str]:
        try:
            return fn()
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]
    return check


# ---------------------------------------------------------------------------
# crawl_report
# ---------------------------------------------------------------------------

def _report_jobs(truth: dict) -> list[Job]:
    out = Path("out/report")

    def check() -> list[str]:
        problems = _artifact_problems(out, REPORT_ARTIFACTS)
        if problems:
            return problems
        manifest = json.loads((out / "report_manifest.json").read_text(encoding="utf-8"))
        if manifest["skipped"]:
            problems.append(f"analyses skipped: {manifest['skipped']}")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        if summary["skipped_lines"] != truth["malformed_lines"]:
            problems.append(f"skipped_lines {summary['skipped_lines']} != "
                            f"planted {truth['malformed_lines']}")
        intermediaries = set(truth["intermediary_keys"])
        for family in ("publisher", "analytics", "container"):
            rows = _read_csv(out / f"bipartite_{family}.csv")
            leaked = {key for _, key, _ in rows[1:] if key in intermediaries}
            if leaked:
                problems.append(f"bipartite_{family}.csv keeps intermediary keys {sorted(leaked)}")
        problems += _partition_problems(out / "communities.csv", out / "metagraph.csv",
                                        REPORT_TOP_FRACTION)
        return problems

    argv = ["report", "--in", "in/crawl.jsonl", "--ranks", "in/ranks.csv",
            "--categories", "in/categories.csv", "--out-dir", str(out)]
    return [Job("report", argv, _checked(check), ["in/crawl.jsonl"])]


def _report_recovery(truth: dict) -> tuple[int, int]:
    groups = read_communities(Path("out/report/communities.csv"))
    return _found(groups, truth["groups"]), len(truth["groups"])


# ---------------------------------------------------------------------------
# gn_planted
# ---------------------------------------------------------------------------

def _planted_jobs(truth: dict) -> list[Job]:
    jobs = []
    for graph in truth["graphs"]:
        src = Path("in") / graph["name"] / "metagraph.csv"
        out = Path("out") / graph["name"]

        def check(src=src, out=out) -> list[str]:
            return (_artifact_problems(out, COMMUNITIES_ARTIFACTS)
                    or _partition_problems(out / "communities.csv", src, 1.0))

        argv = ["communities", "--metagraph", str(src), "--top-fraction", "1",
                "--out-dir", str(out)]
        jobs.append(Job(f"communities:{graph['name']}", argv, _checked(check)))
    return jobs


def _planted_recovery(truth: dict) -> tuple[int, int]:
    found = total = 0
    for graph in truth["graphs"]:
        groups = read_communities(Path("out") / graph["name"] / "communities.csv")
        found += _found(groups, graph["blocks"])
        total += len(graph["blocks"])
    return found, total


# ---------------------------------------------------------------------------
# history_snapshots
# ---------------------------------------------------------------------------

def _history_jobs(truth: dict) -> list[Job]:
    jobs = []
    snapshot_dirs = [str(Path("out") / sid) for sid in truth["snapshots"]]
    for sid, snap_dir in zip(truth["snapshots"], snapshot_dirs):
        out = Path(snap_dir)

        def check(out=out, sid=sid) -> list[str]:
            problems = _artifact_problems(out, EXTRACT_ARTIFACTS)
            if problems:
                return problems
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            if summary["skipped_lines"] != truth["malformed_lines"]:
                problems.append(f"{sid}: skipped_lines {summary['skipped_lines']} != "
                                f"planted {truth['malformed_lines']}")
            if manifest != {"snapshot_id": sid, "total_sites": truth["sites"]}:
                problems.append(f"{sid}: manifest {manifest}")
            return problems

        src = f"in/{sid}.jsonl"
        argv = ["extract", "--in", src, "--out", str(out / "profiles.jsonl"), "--snapshot-id", sid]
        jobs.append(Job(f"extract:{sid}", argv, _checked(check), [src]))
    for topic in HISTORY_TOPICS:
        out = Path("out/history") / f"{topic}.csv"

        def check(out=out, topic=topic) -> list[str]:
            config = out.parent / f"config_history_{topic}.json"
            if not config.is_file():
                return [f"missing {config}"]
            rows = _read_csv(out)
            if not rows or rows[0] != ["scope", "metric", "value"] or len(rows) < 2:
                return [f"{out}: bad header or no rows"]
            return []

        argv = ["history", topic, "--snapshots", *snapshot_dirs, "--out", str(out)]
        jobs.append(Job(f"history:{topic}", argv, _checked(check)))
    return jobs


def _history_recovery(truth: dict) -> tuple[int, int]:
    """Planted transition counts per interval and census counts per snapshot
    that the CSV outputs reproduce exactly."""
    got: dict[tuple[str, str], str] = {}
    for topic in ("transitions", "classes"):
        for scope, metric, value in _read_csv(Path("out/history") / f"{topic}.csv")[1:]:
            got[(scope, metric)] = value
    planted = [(scope, cls, n) for scope, counts in truth["transitions"].items()
               for cls, n in counts.items()]
    planted += [(sid, cls, n) for sid, counts in truth["classes"].items()
                for cls, n in counts.items()]
    found = sum(1 for scope, metric, n in planted if got.get((scope, metric)) == str(n))
    return found, len(planted)


WORKLOAD_JOBS = {
    "crawl_report": (_report_jobs, _report_recovery),
    "gn_planted": (_planted_jobs, _planted_recovery),
    "history_snapshots": (_history_jobs, _history_recovery),
}


def jobs_for(truth: dict) -> list[Job]:
    return WORKLOAD_JOBS[truth["workload"]][0](truth)


def planted_recovery(truth: dict) -> float:
    """Share of the planted facts that the current outputs reproduce."""
    try:
        found, total = WORKLOAD_JOBS[truth["workload"]][1](truth)
    except (OSError, ValueError, KeyError):
        return 0.0
    return found / total
