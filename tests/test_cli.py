from __future__ import annotations

import csv
import gc
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import adgraph.cli
import adgraph.corpus
from adgraph.cli import run
from adgraph.communities import girvan_newman, prune_edges
from adgraph.corpus import CrawlRecord
from adgraph.extractor import SiteIdProfile, dump_profiles, iter_profiles
from adgraph.graphs import (
    KINDS_OF_FAMILY,
    IdFamily,
    build_bipartite,
    build_metagraph,
    dump_bipartite_csv,
    dump_metagraph_csv,
    family_normalizers,
    load_metagraph_csv,
)
from adgraph.history import save_snapshot
from helpers import (
    crawl_jsonl,
    exclude_intermediaries_reference,
    first_pair_only_profiles,
    fixture_corpus,
    make_profile,
    random_snapshot_set,
    scale_corpus_lines,
)


@pytest.fixture(scope="module")
def crawl_file(tmp_path_factory):
    records, _ = fixture_corpus()
    path = tmp_path_factory.mktemp("crawl") / "crawl.jsonl"
    path.write_text(crawl_jsonl(records), encoding="utf-8")
    return path


def _extract(crawl_file, out_dir) -> Path:
    out = out_dir / "profiles.jsonl"
    code = run(["extract", "--in", str(crawl_file), "--out", str(out)])
    assert code == 0
    return out


def _categories(tmp_path) -> Path:
    cats = tmp_path / "cats.csv"
    cats.write_text("".join(f"site{i:02d}.example,{('News', 'Arts', 'Tech')[i % 3]}\n"
                            for i in range(50)), encoding="utf-8")
    return cats


def _configs(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.glob("config_*.json"))


def test_extract_outputs(crawl_file, tmp_path):
    out = _extract(crawl_file, tmp_path)
    assert out.exists()
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary["corpus_size"] == 50
    assert summary["kinds"]["publisher"]["unique_sites"] > 0
    assert (tmp_path / "site_ranks.csv").exists()
    assert (tmp_path / "config_extract.json").exists()


def test_extract_config_echo_has_parameters(crawl_file, tmp_path):
    _extract(crawl_file, tmp_path)
    echo = json.loads((tmp_path / "config_extract.json").read_text(encoding="utf-8"))
    assert echo["command"] == "extract"
    assert "threads" not in echo["parameters"]
    assert "infile" in echo["parameters"]


def test_extract_snapshot_manifest(crawl_file, tmp_path):
    out = tmp_path / "profiles.jsonl"
    code = run(["extract", "--in", str(crawl_file), "--out", str(out),
                "--snapshot-id", "2021-04-01"])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest == {"snapshot_id": "2021-04-01", "total_sites": 50}
    # save_snapshot writes the same snapshot directory, byte for byte.
    save_snapshot(list(iter_profiles(out)), tmp_path / "api", "2021-04-01", 50)
    for name in ("profiles.jsonl", "manifest.json"):
        assert (tmp_path / "api" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_graph_then_communities(crawl_file, tmp_path):
    profiles = _extract(crawl_file, tmp_path)
    code = run(["graph", "--profiles", str(profiles), "--out-dir", str(tmp_path / "g")])
    assert code == 0
    for name in ("bipartite_publisher.csv", "bipartite_analytics.csv",
                 "bipartite_container.csv", "metagraph.csv"):
        assert (tmp_path / "g" / name).exists()
    code = run(["communities", "--metagraph", str(tmp_path / "g" / "metagraph.csv"),
                "--top-fraction", "1.0", "--out-dir", str(tmp_path / "c")])
    assert code == 0
    rows = (tmp_path / "c" / "communities.csv").read_text(encoding="utf-8").strip().split("\n")
    assert rows[0] == "community_id,site"
    assert len(rows) > 1
    summary = json.loads((tmp_path / "c" / "communities_summary.json").read_text(encoding="utf-8"))
    assert "modularity" in summary and "size_distribution" in summary


def test_stats_subcommands(crawl_file, tmp_path):
    profiles = _extract(crawl_file, tmp_path)
    assert run(["stats", "ids", "--profiles", str(profiles),
                "--out", str(tmp_path / "ids.csv")]) == 0
    assert run(["stats", "sizes", "--profiles", str(profiles),
                "--site-ranks", str(tmp_path / "site_ranks.csv"),
                "--out", str(tmp_path / "sizes.csv")]) == 0
    with open(tmp_path / "sizes.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["key", "size", "mean_rank", "median_rank"]
    sizes = [int(r[1]) for r in rows[1:]]
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[0] == 3  # pub-777777777 cluster


def test_extract_summary_reports_anomalies(crawl_file, tmp_path):
    _extract(crawl_file, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert {"domain": "site29.example", "distinct_keys": 45} in summary["anomalies"]


def test_extract_with_rank_list(crawl_file, tmp_path):
    ranks = tmp_path / "ranks.csv"
    ranks.write_text("5,site27.example\n", encoding="utf-8")
    out = tmp_path / "profiles.jsonl"
    assert run(["extract", "--in", str(crawl_file), "--out", str(out),
                "--ranks", str(ranks)]) == 0
    site_ranks = (tmp_path / "site_ranks.csv").read_text(encoding="utf-8")
    assert "5,site27.example" in site_ranks


def test_one_reader_serves_ranks_and_site_ranks(crawl_file, tmp_path):
    """extract reads its own site_ranks.csv back through --ranks, and stats
    sizes reads a rank list without the header through --site-ranks."""
    ranks = tmp_path / "ranks.csv"
    ranks.write_text("5,site27.example\n2,site03.example\n", encoding="utf-8")
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(["extract", "--in", str(crawl_file), "--out", str(first / "profiles.jsonl"),
                "--ranks", str(ranks)]) == 0
    assert run(["extract", "--in", str(crawl_file), "--out", str(again / "profiles.jsonl"),
                "--ranks", str(first / "site_ranks.csv")]) == 0
    for name in ("profiles.jsonl", "summary.json", "site_ranks.csv"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name
    headerless = tmp_path / "headerless.csv"
    headerless.write_text((first / "site_ranks.csv").read_text(encoding="utf-8")
                          .split("\n", 1)[1], encoding="utf-8")
    for site_ranks, out in ((first / "site_ranks.csv", first), (headerless, again)):
        assert run(["stats", "sizes", "--profiles", str(first / "profiles.jsonl"),
                    "--site-ranks", str(site_ranks), "--out", str(out / "sizes.csv")]) == 0
    assert (again / "sizes.csv").read_bytes() == (first / "sizes.csv").read_bytes()


class _WeakProfile(SiteIdProfile):
    """A profile that a weak reference can watch (``SiteIdProfile`` has
    slots and no ``__weakref__``)."""

    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("command", ["extract", "report"])
def test_no_crawl_record_outlives_its_line(crawl_file, tmp_path, monkeypatch, command):
    """When profiles.jsonl is written, at most the last record parsed and
    the last profile extracted are still alive: memory holds encoded lines,
    not page text or profiles. report then reads that file once."""
    records, profiles, alive, reads = [], [], [], []
    record_from_obj, extract = adgraph.corpus._record_from_obj, adgraph.extractor.extract_profile
    open_out, read = adgraph.cli._open_out, adgraph.cli.iter_profiles

    def tracked_record(obj, table):
        record = record_from_obj(obj, table)
        records.append(weakref.ref(record))
        return record

    def tracked_profile(*args):
        p = extract(*args)
        profile = _WeakProfile(p.landing_domain, p.keys, p.sources, p.raw_counts)
        profiles.append(weakref.ref(profile))
        return profile

    def census_open(path):
        if path.name == "profiles.jsonl":
            alive.append([sum(ref() is not None for ref in refs) for refs in (records, profiles)])
        return open_out(path)

    def counted_read(source):
        if isinstance(source, (str, os.PathLike)):  # not the lines the summary decodes
            reads.append(Path(source))
        return read(source)

    monkeypatch.setattr(adgraph.corpus, "_record_from_obj", tracked_record)
    monkeypatch.setattr(adgraph.extractor, "extract_profile", tracked_profile)
    monkeypatch.setattr(adgraph.cli, "_open_out", census_open)
    monkeypatch.setattr(adgraph.cli, "iter_profiles", counted_read)
    out = (["--out", str(tmp_path / "profiles.jsonl")] if command == "extract"
           else ["--out-dir", str(tmp_path)])
    assert run([command, "--in", str(crawl_file), *out]) == 0
    assert len(records) == len(profiles) == 50
    assert len(alive) == 1 and alive[0][0] <= 1 and alive[0][1] <= 1
    assert reads == ([] if command == "extract" else [tmp_path / "profiles.jsonl"])


def test_stats_powerlaw_components(crawl_file, tmp_path):
    profiles = _extract(crawl_file, tmp_path)
    code = run(["stats", "powerlaw", "--profiles", str(profiles),
                "--population", "components", "--out", str(tmp_path / "fit.json")])
    assert code == 0
    fit = json.loads((tmp_path / "fit.json").read_text(encoding="utf-8"))
    assert fit["population"] == "components" and fit["alpha"] > 1


def test_graph_normalizer_and_intermediary_flags(tmp_path):
    """Each flag set writes the graphs of the profiles rebuilt by
    ``exclude_intermediaries_reference``, projected by the library.

    Two extra sites share a Publisher key, so at threshold 2, which
    excludes pub-777777777 (3 sites), the Publisher family keeps a shared
    key, and its normalizer counts pub-777777777 in pre-exclusion mode
    only."""
    records, _ = fixture_corpus()
    records += [
        CrawlRecord(domain, domain,
                    page_text='<script data-ad-client="ca-pub-555555555555"></script>')
        for domain in ("extra-a.example", "extra-b.example")
    ]
    crawl = tmp_path / "crawl.jsonl"
    crawl.write_text(crawl_jsonl(records), encoding="utf-8")
    profiles_path = _extract(crawl, tmp_path)
    profiles = list(iter_profiles(profiles_path))
    for name, extra, threshold in (  # threshold None: keep every key
        ("dflt", [], 100),
        ("keep", ["--keep-intermediaries"], None),
        ("pre", ["--normalizer-mode", "pre-exclusion"], 100),
        ("strict", ["--intermediary-threshold", "2"], 2),
        ("pre_strict", ["--normalizer-mode", "pre-exclusion", "--intermediary-threshold", "2"], 2),
    ):
        out_dir = tmp_path / name
        assert run(["graph", "--profiles", str(profiles_path), "--out-dir", str(out_dir),
                    *extra]) == 0
        kept = (profiles if threshold is None
                else exclude_intermediaries_reference(profiles, threshold))
        bgs = build_bipartite(kept)
        pre = "pre-exclusion" in extra
        normalizers = family_normalizers(build_bipartite(profiles)) if pre else None
        mg = build_metagraph(bgs[IdFamily.PUBLISHER], bgs[IdFamily.ANALYTICS],
                             bgs[IdFamily.CONTAINER], normalizers=normalizers)
        for family, bg in bgs.items():
            expected = io.StringIO()
            dump_bipartite_csv(bg, expected)
            written = (out_dir / f"bipartite_{family.value}.csv").read_text(encoding="utf-8")
            assert written == expected.getvalue(), (name, family)
            triples = {(p.landing_domain, key, family.value)
                       for p in kept for kind in KINDS_OF_FAMILY[family] for key in p.keys_for(kind)}
            rows = list(csv.reader(io.StringIO(written)))
            assert rows[0] == ["site", "key", "family"]
            assert [tuple(row) for row in rows[1:]] == sorted(triples), (name, family)
        expected = io.StringIO()
        dump_metagraph_csv(mg, expected)
        written = (out_dir / "metagraph.csv").read_text(encoding="utf-8")
        assert written == expected.getvalue(), name

    def metagraph(name: str) -> str:
        return (tmp_path / name / "metagraph.csv").read_text(encoding="utf-8")

    # threshold 2 strips pub-777777777 (3 sites), so its pair edges vanish
    assert "site12.example" in metagraph("dflt") and "site12.example" not in metagraph("strict")
    assert "extra-a.example,extra-b.example," in metagraph("strict")
    assert metagraph("pre_strict") != metagraph("strict")


def test_communities_flags_match_girvan_newman_in_memory(tmp_path):
    """``communities`` writes what girvan_newman gives the metagraph that
    ``graph`` wrote, for each setting of --max-communities and
    --weighted-paths; each flag changes the partition of these sites."""
    profiles = [
        make_profile("a.example", publisher={"pub-100000001"}, tracking={"UA-4000"}),
        make_profile("b.example", publisher={"pub-100000001"}, tracking={"UA-4001"}),
        make_profile("c.example", tracking={"UA-4000", "UA-4001"}),
        make_profile("d.example", publisher={"pub-100000001"}),
        make_profile("e.example", tracking={"UA-4001"}),
    ]
    profiles_path = tmp_path / "profiles.jsonl"
    with open(profiles_path, "w", encoding="utf-8") as fh:
        dump_profiles(profiles, fh)
    assert run(["graph", "--profiles", str(profiles_path), "--out-dir", str(tmp_path / "g")]) == 0
    metagraph = tmp_path / "g" / "metagraph.csv"
    written = {}
    for max_communities in (None, 2):
        for weighted in (False, True):
            out = tmp_path / f"c_{max_communities}_{weighted}"
            flags = ((["--max-communities", str(max_communities)] if max_communities else [])
                     + (["--weighted-paths"] if weighted else []))
            assert run(["communities", "--metagraph", str(metagraph), "--top-fraction", "1",
                        "--out-dir", str(out), *flags]) == 0
            partition = girvan_newman(prune_edges(load_metagraph_csv(metagraph), 1),
                                      max_communities, weighted)
            expected = "community_id,site\n" + "".join(
                f"{i},{site}\n" for i, c in enumerate(partition.communities) for site in sorted(c))
            written[max_communities, weighted] = (out / "communities.csv").read_text(encoding="utf-8")
            assert written[max_communities, weighted] == expected, flags
    assert len(set(written.values())) == 4, written


def test_stats_poisson(tmp_path):
    cats = tmp_path / "cats.csv"
    cats.write_text("a.example,News\nb.example,News\nc.example,Arts\nd.example,Arts\n",
                    encoding="utf-8")
    code = run(["stats", "poisson", "--categories", str(cats), "--size", "2",
                "--out", str(tmp_path / "baseline.json")])
    assert code == 0
    baseline = json.loads((tmp_path / "baseline.json").read_text(encoding="utf-8"))
    assert baseline == {"size": 2, "labeled_sites": 4, "mean_richness": 5 / 3}


def test_stats_poisson_ignores_a_category_header(tmp_path):
    cats = _categories(tmp_path)
    headed = tmp_path / "headed.csv"
    headed.write_text("domain,category\n" + cats.read_text(encoding="utf-8"), encoding="utf-8")
    written = []
    for name, path in (("plain", cats), ("headed", headed)):
        out = tmp_path / name / "baseline.json"
        assert run(["stats", "poisson", "--categories", str(path), "--size", "3",
                    "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0])["labeled_sites"] == 50


def test_stats_diversity(tmp_path):
    cats = tmp_path / "cats.csv"
    cats.write_text("a.example,News\nb.example,News\nc.example,Arts\nd.example,News\n",
                    encoding="utf-8")
    communities = tmp_path / "communities.csv"
    communities.write_text("community_id,site\n0,a.example\n0,b.example\n0,c.example\n"
                           "1,d.example\n", encoding="utf-8")
    assert run(["stats", "diversity", "--communities", str(communities),
                "--categories", str(cats), "--out", str(tmp_path / "div.csv")]) == 0
    with open(tmp_path / "div.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][3] == "2"  # richness
    assert rows[2] == ["1", "1", "1", "1", "0.0", "0.0"]  # one category: H' is +0.0


def test_history_commands(crawl_file, tmp_path):
    for t, sid in enumerate(("2021-01-01", "2021-04-01")):
        out = tmp_path / f"snap{t}" / "profiles.jsonl"
        assert run(["extract", "--in", str(crawl_file), "--out", str(out),
                    "--snapshot-id", sid]) == 0
    snap_dirs = [str(tmp_path / "snap0"), str(tmp_path / "snap1")]
    assert run(["history", "coverage", "--snapshots", *snap_dirs,
                "--out", str(tmp_path / "coverage.csv")]) == 0
    assert run(["history", "idcounts", "--snapshots", *snap_dirs,
                "--out", str(tmp_path / "idcounts.csv")]) == 0
    assert run(["history", "transitions", "--snapshots", *snap_dirs,
                "--out", str(tmp_path / "transitions.csv")]) == 0
    assert run(["history", "classes", "--snapshots", *snap_dirs,
                "--out", str(tmp_path / "classes.csv")]) == 0
    assert run(["history", "top", "--snapshots", *snap_dirs, "--k", "5",
                "--out", str(tmp_path / "top.csv")]) == 0
    coverage = (tmp_path / "coverage.csv").read_text(encoding="utf-8").strip().split("\n")
    assert coverage[0] == "scope,metric,value"
    transitions = (tmp_path / "transitions.csv").read_text(encoding="utf-8")
    assert "no_change" in transitions


def test_history_transitions_per_pair_universe(tmp_path):
    snap_dirs = []
    for sid, profiles in first_pair_only_profiles():
        save_snapshot(profiles, tmp_path / sid, sid, len(profiles))
        snap_dirs.append(str(tmp_path / sid))
    outputs = {}
    for name, flags in (("all", []), ("pair", ["--per-pair-universe"])):
        out = tmp_path / name / "transitions.csv"
        assert run(["history", "transitions", "--snapshots", *snap_dirs,
                    "--out", str(out), *flags]) == 0
        outputs[name] = out.read_text(encoding="utf-8").split("\n")
        echo_path = tmp_path / name / "config_history_transitions.json"
        echo = json.loads(echo_path.read_text(encoding="utf-8"))
        assert echo["parameters"]["per_pair_universe"] is (name == "pair")
    assert "2021-01-01..2021-04-01,smaller,0" in outputs["all"]
    assert "2021-01-01..2021-04-01,smaller,1" in outputs["pair"]
    assert [line for line in outputs["all"] if "2021-04-01..2021-07-01" in line] == \
        [line for line in outputs["pair"] if "2021-04-01..2021-07-01" in line]


def test_report_bundle(crawl_file, tmp_path):
    cats = tmp_path / "cats.csv"
    lines = [f"site{i:02d}.example,News and Media" for i in range(25)]
    lines += [f"site{i:02d}.example,Arts" for i in range(25, 50)]
    cats.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = run(["report", "--in", str(crawl_file), "--out-dir", str(tmp_path / "r"),
                "--categories", str(cats), "--top-fraction", "1.0"])
    assert code == 0
    manifest = json.loads((tmp_path / "r" / "report_manifest.json").read_text(encoding="utf-8"))
    for name in ("profiles.jsonl", "summary.json", "metagraph.csv", "communities.csv",
                 "communities_report.csv", "id_counts.csv", "publisher_sizes.csv",
                 "categories.csv", "diversity.csv"):
        assert name in manifest["artifacts"]
        assert (tmp_path / "r" / name).exists()
    # enough publishers for the power-law fit to run on this corpus
    assert (tmp_path / "r" / "powerlaw_publisher.json").exists()
    # but only two size buckets exist, so the popularity fit is skipped, not failed
    assert any(s["analysis"] == "popularity" for s in manifest["skipped"])
    report_csv = tmp_path / "r" / "communities_report.csv"
    report = report_csv.read_text(encoding="utf-8").strip().split("\n")
    assert report[0] == "community_id,size,entity,websites"


def test_exit_codes(tmp_path, crawl_file):
    # unknown flag -> 2
    assert run(["extract", "--nope"]) == 2
    # config error -> 2
    assert run(["communities", "--metagraph", "x.csv", "--top-fraction", "0",
                "--out-dir", str(tmp_path)]) == 2
    # config errors exit before any output is written
    out = tmp_path / "out"
    for argv in (
        ["extract", "--in", str(crawl_file), "--out", str(out / "p.jsonl"), "--threads", "1"],
        ["extract", "--in", str(crawl_file), "--out", str(out / "p.jsonl"),
         "--anomaly-threshold", "0"],
        ["report", "--in", str(crawl_file), "--out-dir", str(out), "--top-fraction", "0"],
        ["graph", "--profiles", "p.jsonl", "--out-dir", str(out),
         "--intermediary-threshold", "nan"],
        ["report", "--in", str(crawl_file), "--out-dir", str(out),
         "--intermediary-threshold", "nan"],
        ["stats", "popularity", "--profiles", "p.jsonl", "--site-ranks", "r.csv",
         "--max-size", "2", "--out", str(out / "pop.csv")],
        # history could not load a snapshot whose profiles have another name
        ["extract", "--in", str(crawl_file), "--out", str(out / "p.jsonl"),
         "--snapshot-id", "2020-01"],
    ):
        assert run(argv) == 2
        assert not out.exists()
    # missing input file -> 1; graph opens its profiles lazily, still before writing
    assert run(["extract", "--in", str(tmp_path / "missing.jsonl"),
                "--out", str(tmp_path / "p.jsonl")]) == 1
    assert run(["graph", "--profiles", str(tmp_path / "missing.jsonl"),
                "--out-dir", str(out)]) == 1
    assert not out.exists()
    # malformed metagraph -> 1
    bad = tmp_path / "bad.csv"
    bad.write_text("site_a,site_b\n", encoding="utf-8")
    assert run(["communities", "--metagraph", str(bad), "--out-dir", str(tmp_path)]) == 1


def test_max_communities_above_the_node_count_is_an_input_error(tmp_path, capsys):
    """Six sites cannot make seven communities: exit 1, and nothing is written."""
    mg = tmp_path / "metagraph.csv"
    edges = ("a,b", "a,c", "b,c", "c,d", "d,e", "d,f")
    mg.write_text("site_a,site_b,weight\n" + "".join(f"{e},1\n" for e in edges), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["communities", "--metagraph", str(mg), "--top-fraction", "1.0", "--out-dir", str(out)]
    assert run([*argv, "--max-communities", "7"]) == 1
    assert "max_communities is 7, more than the graph's 6 nodes" in capsys.readouterr().err
    assert not out.exists()
    assert run([*argv, "--max-communities", "6"]) == 0
    assert (out / "communities.csv").read_text(encoding="utf-8").count("\n") == 7


@pytest.mark.parametrize("text, skipped", [("", 0), ("garbage\n", 1)], ids=["empty", "garbage"])
@pytest.mark.parametrize("command", [
    ["extract", "--out", "out/profiles.jsonl"],
    ["extract", "--out", "out/profiles.jsonl", "--snapshot-id", "2021-04-01"],
    ["report", "--out-dir", "out"],
], ids=["extract", "snapshot", "report"])
def test_crawl_without_a_well_formed_line_is_an_input_error(tmp_path, capsys, monkeypatch,
                                                            command, text, skipped):
    """An empty or all-malformed crawl names its file and writes nothing."""
    crawl = tmp_path / "crawl.jsonl"
    crawl.write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run([*command, "--in", str(crawl)]) == 1
    err = capsys.readouterr().err
    assert f"adgraph: input error: {crawl}: no well-formed crawl line ({skipped} skipped)" in err
    assert not (tmp_path / "out").exists()


def test_crawl_may_start_with_a_byte_order_mark(tmp_path):
    """The mark is not part of the first line, so a one-line crawl loads."""
    crawl = tmp_path / "crawl.jsonl"
    line = {"domain": "a.example", "landing_url": "https://a.example/",
            "html": "<p>pub-1234567890</p>"}
    crawl.write_text(json.dumps(line) + "\n", encoding="utf-8-sig")
    out = tmp_path / "out" / "profiles.jsonl"
    assert run(["extract", "--in", str(crawl), "--out", str(out)]) == 0
    assert [p.landing_domain for p in iter_profiles(out)] == ["a.example"]


def test_report_with_a_missing_category_file_writes_nothing(tmp_path, crawl_file, capsys):
    out = tmp_path / "out"
    assert run(["report", "--in", str(crawl_file), "--out-dir", str(out),
                "--categories", str(tmp_path / "nosuch.csv")]) == 1
    assert "nosuch.csv" in capsys.readouterr().err
    assert not out.exists()


def test_removed_baseline_knobs_are_config_errors(tmp_path, crawl_file):
    cats = _categories(tmp_path)
    out = tmp_path / "out"
    for argv in (
        ["report", "--in", str(crawl_file), "--categories", str(cats), "--out-dir", str(out),
         "--seed", "5"],
        ["stats", "poisson", "--categories", str(cats), "--size", "2",
         "--out", str(out / "b.json"), "--trials", "10"],
    ):
        assert run(argv) == 2
        assert not out.exists()


def test_rerun_is_byte_identical(crawl_file, tmp_path):
    for d in ("one", "two"):
        assert run(["extract", "--in", str(crawl_file),
                    "--out", str(tmp_path / d / "profiles.jsonl")]) == 0
    a = (tmp_path / "one" / "profiles.jsonl").read_bytes()
    b = (tmp_path / "two" / "profiles.jsonl").read_bytes()
    assert a == b


def test_report_runs_the_stage_commands(crawl_file, tmp_path):
    """report writes the same bytes as extract -> graph -> communities -> stats."""
    cats = _categories(tmp_path)
    ranks = [f"{i + 1},site{i:02d}.example" for i in range(0, 50, 3)]
    for name, rank_rows in (("valid", ranks), ("rank0", ranks + ["0,site28.example"])):
        rank_file = tmp_path / f"{name}.csv"
        rank_file.write_text("\n".join(rank_rows) + "\n", encoding="utf-8")
        files, bundle = tmp_path / name / "files", tmp_path / name / "report"
        steps = [
            ["extract", "--in", str(crawl_file), "--out", str(files / "profiles.jsonl"),
             "--ranks", str(rank_file)],
            ["graph", "--profiles", str(files / "profiles.jsonl"), "--out-dir", str(files)],
            ["communities", "--metagraph", str(files / "metagraph.csv"),
             "--top-fraction", "1.0", "--out-dir", str(files)],
            ["stats", "ids", "--profiles", str(files / "profiles.jsonl"),
             "--out", str(files / "id_counts.csv")],
            ["stats", "sizes", "--profiles", str(files / "profiles.jsonl"),
             "--site-ranks", str(files / "site_ranks.csv"),
             "--out", str(files / "publisher_sizes.csv")],
            ["stats", "categories", "--profiles", str(files / "profiles.jsonl"),
             "--categories", str(cats), "--out", str(files / "categories.csv")],
            ["stats", "diversity", "--communities", str(files / "communities.csv"),
             "--categories", str(cats), "--out", str(files / "diversity.csv")],
        ]
        composed = [run(argv) for argv in steps]
        bundled = run(["report", "--in", str(crawl_file), "--out-dir", str(bundle),
                       "--ranks", str(rank_file), "--categories", str(cats),
                       "--top-fraction", "1.0"])
        # a rank below 1 is an input error on both paths
        assert (composed[0], bundled) == ((0, 0) if name == "valid" else (1, 1))
        if bundled:
            continue
        assert composed == [0] * len(steps)
        for artifact in ("profiles.jsonl", "summary.json", "site_ranks.csv",
                         "bipartite_publisher.csv", "bipartite_analytics.csv",
                         "bipartite_container.csv", "metagraph.csv", "communities.csv",
                         "communities_summary.json", "id_counts.csv", "publisher_sizes.csv",
                         "categories.csv", "diversity.csv"):
            assert (files / artifact).read_bytes() == (bundle / artifact).read_bytes(), artifact


COMMANDS = (
    "extract", "graph", "communities",
    *(f"stats_{topic}" for topic in ("ids", "sizes", "powerlaw", "popularity", "categories",
                                      "diversity", "poisson")),
    *(f"history_{topic}" for topic in ("coverage", "idcounts", "transitions", "classes", "top")),
    "report",
)


def _command_table(crawl_file, tmp_path) -> dict[str, list[str]]:
    """The argv of every leaf command, by config name, in an order where each
    command's inputs are written by the commands before it."""
    cats = _categories(tmp_path)
    snap_dirs = []
    for sid, profiles in first_pair_only_profiles():
        save_snapshot(profiles, tmp_path / "snaps" / sid, sid, len(profiles))
        snap_dirs.append(str(tmp_path / "snaps" / sid))
    # The fixture has two publisher sizes; the popularity fit needs three.
    ranked = tmp_path / "ranked"
    ranked.mkdir()
    sites = [(f"s{size}{i}.example", f"pub-{size}00000000")
             for size in (1, 2, 3) for i in range(size)]
    with open(ranked / "profiles.jsonl", "w", encoding="utf-8") as fh:
        dump_profiles([make_profile(domain, publisher={key}) for domain, key in sites], fh)
    (ranked / "site_ranks.csv").write_text(
        "rank,domain\n" + "".join(f"{i},{domain}\n" for i, (domain, _) in enumerate(sites, 1)),
        encoding="utf-8",
    )

    def out(name: str, file: str | None = None) -> str:
        return str(tmp_path / name / file) if file else str(tmp_path / name)

    profiles = out("extract", "profiles.jsonl")
    commands = {
        "extract": ["extract", "--in", str(crawl_file), "--out", profiles],
        "graph": ["graph", "--profiles", profiles, "--out-dir", out("graph")],
        "communities": ["communities", "--metagraph", out("graph", "metagraph.csv"),
                        "--top-fraction", "1.0", "--out-dir", out("communities")],
        "stats_ids": ["stats", "ids", "--profiles", profiles,
                      "--out", out("stats_ids", "ids.csv")],
        "stats_sizes": ["stats", "sizes", "--profiles", profiles, "--site-ranks",
                        out("extract", "site_ranks.csv"), "--out", out("stats_sizes", "s.csv")],
        "stats_powerlaw": ["stats", "powerlaw", "--profiles", profiles,
                           "--out", out("stats_powerlaw", "fit.json")],
        "stats_popularity": ["stats", "popularity", "--profiles", str(ranked / "profiles.jsonl"),
                             "--site-ranks", str(ranked / "site_ranks.csv"),
                             "--out", out("stats_popularity", "pop.csv")],
        "stats_categories": ["stats", "categories", "--profiles", profiles,
                             "--categories", str(cats), "--out", out("stats_categories", "c.csv")],
        "stats_diversity": ["stats", "diversity", "--communities",
                            out("communities", "communities.csv"), "--categories", str(cats),
                            "--out", out("stats_diversity", "d.csv")],
        "stats_poisson": ["stats", "poisson", "--categories", str(cats), "--size", "2",
                          "--out", out("stats_poisson", "b.json")],
        **{f"history_{topic}": ["history", topic, "--snapshots", *snap_dirs,
                                "--out", out(f"history_{topic}", f"{topic}.csv")]
           for topic in ("coverage", "idcounts", "transitions", "classes", "top")},
        "report": ["report", "--in", str(crawl_file), "--out-dir", out("report")],
    }
    assert tuple(commands) == COMMANDS
    return commands


def test_every_command_echoes_its_config_once(crawl_file, tmp_path):
    """Each leaf command writes one config_<command>[_<topic>].json into its
    output directory (--out-dir, else the directory of --out), on success only."""
    commands = _command_table(crawl_file, tmp_path)
    for name, argv in commands.items():
        assert run(argv) == 0, name
        assert _configs(tmp_path / name) == [f"config_{name}.json"]
        echo = json.loads((tmp_path / name / f"config_{name}.json").read_text(encoding="utf-8"))
        assert echo["command"] == name

    # A failed command leaves no echo: the fixture has too few size buckets
    # for the popularity fit, and transitions need two snapshots.
    failed = tmp_path / "failed"
    profiles, ranks = commands["stats_sizes"][3], commands["stats_sizes"][5]
    snap_dirs = commands["history_top"][3:-2]
    assert run(["stats", "popularity", "--profiles", profiles, "--site-ranks", ranks,
                "--out", str(failed / "pop.csv")]) == 1
    assert run(["history", "transitions", "--snapshots", snap_dirs[0],
                "--out", str(failed / "t.csv")]) == 1
    assert not failed.exists()
    # --k belongs to top only, --per-pair-universe to transitions only.
    for topic, flag in (("coverage", ["--k", "3"]), ("top", ["--per-pair-universe"])):
        assert run(["history", topic, "--snapshots", *snap_dirs,
                    "--out", str(failed / "h.csv"), *flag]) == 2
    assert not failed.exists()


def test_short_csv_row_names_the_row(crawl_file, tmp_path, capsys):
    profiles = _extract(crawl_file, tmp_path / "x")
    cats = _categories(tmp_path)
    inputs = {
        "metagraph.csv": ("site_a,site_b,weight\na.example,b.example,1\nc.example,0.5\n",
                          ["communities", "--metagraph", "{csv}", "--out-dir", "{out}"]),
        "site_ranks.csv": ("rank,domain\n1,site00.example\n2\n",
                           ["stats", "sizes", "--profiles", str(profiles),
                            "--site-ranks", "{csv}", "--out", "{out}/sizes.csv"]),
        "communities.csv": ("community_id,site\n0,site00.example\n0\n",
                            ["stats", "diversity", "--communities", "{csv}",
                             "--categories", str(cats), "--out", "{out}/div.csv"]),
    }
    for name, (text, argv) in inputs.items():
        bad = tmp_path / name
        bad.write_text(text, encoding="utf-8")
        out = tmp_path / f"out_{name}"
        capsys.readouterr()
        assert run([a.format(csv=bad, out=out) for a in argv]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: row 3 has " in err, err
        assert not out.exists()


def test_unparseable_csv_value_names_the_row(crawl_file, tmp_path, capsys):
    profiles = _extract(crawl_file, tmp_path / "x")
    cats = _categories(tmp_path)
    communities = ["communities", "--metagraph", "{csv}", "--out-dir", "{out}"]
    inputs = [
        ("metagraph.csv", "site_a,site_b,weight\na.example,b.example,1\nc.example,d.example,abc\n",
         communities, "Invalid literal for Fraction: 'abc'"),
        ("metagraph.csv", "site_a,site_b,weight\na.example,b.example,1\nc.example,d.example,1/0\n",
         communities, "Fraction(1, 0)"),
        ("metagraph.csv", "site_a,site_b,weight\na.example,b.example,1\nc.example,d.example,-1\n",
         communities, "weight -1 is not positive"),
        ("metagraph.csv", "site_a,site_b,weight\na.example,b.example,1\nc.example,d.example,0\n",
         communities + ["--weighted-paths"], "weight 0 is not positive"),
        ("metagraph.csv", "site_a,site_b,weight\na.example,b.example,1\nd.example,c.example,1\n",
         communities, "metagraph rows need site_a < site_b, got 'd.example','c.example'"),
        ("site_ranks.csv", "rank,domain\n1,site00.example\nx,site01.example\n",
         ["stats", "sizes", "--profiles", str(profiles), "--site-ranks", "{csv}",
          "--out", "{out}/sizes.csv"], "invalid literal for int() with base 10: 'x'"),
        ("communities.csv", "community_id,site\n0,site00.example\none,site01.example\n",
         ["stats", "diversity", "--communities", "{csv}", "--categories", str(cats),
          "--out", "{out}/div.csv"], "invalid literal for int() with base 10: 'one'"),
        # int() reads each of these as the id of another row ("01" as 1,
        # "1_0" as 10), which would merge two communities.
        *(("communities.csv",
           f"community_id,site\n1,site00.example\n{cid},site01.example\n10,site02.example\n",
           ["stats", "diversity", "--communities", "{csv}", "--categories", str(cats),
            "--out", "{out}/div.csv"],
           f"community id {cid!r} is not a canonical non-negative integer")
          for cid in ("01", "1_0", "+1", "-1", " 1")),
        ("categories.csv", "domain,category\na.example,News\nA.Example,Arts\n",
         ["stats", "poisson", "--categories", "{csv}", "--size", "1",
          "--out", "{out}/poisson.json"], "domain a.example repeats row 2"),
    ]
    for i, (name, text, argv, reason) in enumerate(inputs):
        bad = tmp_path / name
        bad.write_text(text, encoding="utf-8")
        out = tmp_path / f"out_{i}"
        capsys.readouterr()
        assert run([a.format(csv=bad, out=out) for a in argv]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: row 3: {reason}" in err, err
        assert not out.exists()


@pytest.mark.parametrize("rows, row, reason", [
    ("0,a.example\n-3,b.example\n5,a.example\n", 2, "rank 0 is below 1"),
    ("1,a.example\n-3,b.example\n", 3, "rank -3 is below 1"),
    ("1,a.example\n2,b.example\n5,a.example\n", 4, "domain a.example repeats row 2"),
    ("1,a.example\n2,b.example\n5,A.Example\n", 4, "domain a.example repeats row 2"),
])
def test_site_ranks_reject_low_ranks_and_repeated_domains(crawl_file, tmp_path, capsys,
                                                          rows, row, reason):
    """A rank list holds one rank >= 1 per domain, with or without a header,
    as extract writes site_ranks.csv; any other row names the file and the
    row, through --site-ranks and --ranks alike."""
    profiles = _extract(crawl_file, tmp_path / "x")
    ranks = tmp_path / "site_ranks.csv"
    for header in ("rank,domain\n", ""):
        ranks.write_text(header + rows, encoding="utf-8")
        shift = 0 if header else 1  # without the header every row moves up one
        expected = f"{ranks}: row {row - shift}: " + reason.replace("row 2", f"row {2 - shift}")
        out = tmp_path / "out"
        for argv in (["stats", "sizes", "--profiles", str(profiles), "--site-ranks", str(ranks),
                      "--out", str(out / "x.csv")],
                     ["stats", "popularity", "--profiles", str(profiles),
                      "--site-ranks", str(ranks), "--out", str(out / "x.csv")],
                     ["extract", "--in", str(crawl_file), "--out", str(out / "profiles.jsonl"),
                      "--ranks", str(ranks)]):
            capsys.readouterr()
            assert run(argv) == 1
            assert expected in capsys.readouterr().err, argv
            assert not out.exists()


def test_repeated_metagraph_row_is_an_input_error(tmp_path, capsys):
    """A second row for one site pair would silently replace the first
    weight, so it names the file and both rows instead."""
    bad = tmp_path / "metagraph.csv"
    bad.write_text("site_a,site_b,weight\na.example,b.example,1\nb.example,c.example,1\n"
                   "a.example,b.example,2\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["communities", "--metagraph", str(bad), "--out-dir", str(out)]) == 1
    assert f"{bad}: row 4: edge a.example,b.example repeats row 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rows", ["0,a.example\n0,a.example\n", "0,a.example\n1,a.example\n"],
                         ids=["same_community", "two_communities"])
def test_repeated_community_site_is_an_input_error(tmp_path, capsys, rows):
    """A site listed twice would count twice towards size and labels, so it
    names the file and both rows instead."""
    bad = tmp_path / "communities.csv"
    bad.write_text("community_id,site\n" + rows, encoding="utf-8")
    cats = tmp_path / "cats.csv"
    cats.write_text("a.example,News\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["stats", "diversity", "--communities", str(bad), "--categories", str(cats),
                "--out", str(out / "div.csv")]) == 1
    assert f"{bad}: row 3: site a.example repeats row 2" in capsys.readouterr().err
    assert not out.exists()


MALFORMED_PROFILE_LINES = (
    '{not json', '["pub-100000001"]', '{"ids": {}}', '{"domain": 5}',
    '{"domain": "b.example", "ids": []}',
    '{"domain": "b.example", "raw_counts": [1]}',
    '{"domain": "b.example", "ids": {"publisher": ["pub-100000001"]}}',
    '{"domain": "b.example", "ids": {"publisher": {"pub-100000001": 5}}}',
    '{"domain": "b.example", "ids": {"publisher": {"pub-100000001": ["bogus"]}}}',
    '{"domain": "b.example", "ids": {"publisher": {"pub-100000001": [["html"]]}}}',
    '{"domain": "b.example", "ids": {"publisher": {"pub-100000001": [5]}}}',
    '{"domain": "b.example", "ids": {"publisher": {"pub-100000001": [null]}}}',
    '{"domain": "b.example", "ids": {"publisher": {"pub-100000001": ["html", "html"]}}}',
    '{"domain": "b.example", "raw_counts": {"publisher": "x"}}',
    '{"domain": "b.example", "raw_counts": {"publisher": null}}',
)


def test_malformed_profiles_and_manifest_are_input_errors(tmp_path, capsys):
    profiles = tmp_path / "profiles.jsonl"
    stats_ids = ["stats", "ids", "--profiles", str(profiles),
                 "--out", str(tmp_path / "ids" / "ids.csv")]
    for line in MALFORMED_PROFILE_LINES:
        profiles.write_text('{"domain": "a.example"}\n' + line + "\n", encoding="utf-8")
        assert run(stats_ids) == 1
        assert f"{profiles}: line 2: " in capsys.readouterr().err
    # Whatever int() accepts is still a count.
    counts = '{"publisher": "3", "tracking": 2.0, "container": true}'
    profiles.write_text(f'{{"domain": "b.example", "raw_counts": {counts}}}\n', encoding="utf-8")
    assert run(stats_ids[:-1] + [str(tmp_path / "ok" / "ids.csv")]) == 0
    sid, snap_profiles = first_pair_only_profiles()[0]
    save_snapshot(snap_profiles, tmp_path / "snap", sid, len(snap_profiles))
    manifest = tmp_path / "snap" / "manifest.json"
    for text in ('{"snapshot_id": "2021-01-01"}\n', '{"snapshot_id": "2021-01-01",\n',
                 '{"snapshot_id": "2021-01-01", "total_sites": "x"}\n'):
        manifest.write_text(text, encoding="utf-8")
        assert run(["history", "coverage", "--snapshots", str(tmp_path / "snap"),
                    "--out", str(tmp_path / "h" / "coverage.csv")]) == 1
        assert f"{manifest}: " in capsys.readouterr().err
    assert not (tmp_path / "ids").exists() and not (tmp_path / "h").exists()


@pytest.mark.parametrize("raw_counts, manifest, reason", [
    ('{"publisher": 2.7}', '{"snapshot_id": "2021-01-01", "total_sites": 1}',
     "profiles.jsonl: line 1: raw_counts.publisher is not an integer"),
    ("{}", '{"snapshot_id": "2021-01-01", "total_sites": 2.7}',
     "manifest.json: total_sites: 2.7 is not an integer"),
    ("{}", '{"snapshot_id": null, "total_sites": 1}', "manifest.json: snapshot_id is not a string"),
    ("{}", '{"snapshot_id": 20210101, "total_sites": 1}',
     "manifest.json: snapshot_id is not a string"),
], ids=["fractional_raw_count", "fractional_total_sites", "null_snapshot_id", "number_snapshot_id"])
def test_lossy_count_or_non_string_snapshot_id_is_an_input_error(tmp_path, capsys,
                                                                  raw_counts, manifest, reason):
    """A count int() would truncate, or a snapshot id that is not a string,
    names its file; nothing is written."""
    snap = tmp_path / "snap"
    snap.mkdir()
    (snap / "profiles.jsonl").write_text(
        f'{{"domain": "a.example", "raw_counts": {raw_counts}}}\n', encoding="utf-8")
    (snap / "manifest.json").write_text(manifest + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["history", "coverage", "--snapshots", str(snap),
                "--out", str(out / "coverage.csv")]) == 1
    assert f"{snap / reason}" in capsys.readouterr().err
    assert not out.exists()


def _profile_readers(profiles, snap, out):
    """Command lines that read ``profiles`` (history through ``snap``) and
    write under ``out``."""
    return (["stats", "ids", "--profiles", str(profiles), "--out", str(out / "x.csv")],
            ["stats", "sizes", "--profiles", str(profiles), "--out", str(out / "x.csv")],
            ["graph", "--profiles", str(profiles), "--out-dir", str(out)],
            ["history", "coverage", "--snapshots", str(snap), "--out", str(out / "x.csv")])


def test_repeated_domain_is_an_input_error_everywhere(tmp_path, capsys):
    """stats, graph and history read the same profiles file the same way,
    and the streaming readers fail before writing anything."""
    snap = tmp_path / "snap"
    snap.mkdir()
    profiles = snap / "profiles.jsonl"
    line = '{"domain": "a.example", "ids": {"publisher": {"pub-100000001": ["html"]}}}\n'
    profiles.write_text(line + '{"domain": "b.example"}\n\n' + line, encoding="utf-8")
    (snap / "manifest.json").write_text('{"snapshot_id": "2021-01-01", "total_sites": 3}\n',
                                        encoding="utf-8")
    for argv in _profile_readers(profiles, snap, tmp_path / "out"):
        capsys.readouterr()
        assert run(argv) == 1
        assert f"{profiles}: line 4: domain a.example repeats line 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists(), argv


# json.loads calls each of these "Extra data"; a tail check with
# str.isspace() would pass the first two.
EXTRA_DATA_LINES = (
    '{"domain": "b.example"}\x0c',
    '{"domain": "b.example"}\u2028',
    '{"domain": "b.example"} {"domain": "c.example"}',
)


@pytest.mark.parametrize("line", MALFORMED_PROFILE_LINES + EXTRA_DATA_LINES)
def test_stats_and_history_reject_a_profile_line_alike(tmp_path, capsys, line):
    snap = tmp_path / "snap"
    snap.mkdir()
    profiles = snap / "profiles.jsonl"
    profiles.write_text('{"domain": "a.example"}\n' + line + "\n", encoding="utf-8")
    (snap / "manifest.json").write_text('{"snapshot_id": "2021-01-01", "total_sites": 3}\n',
                                        encoding="utf-8")
    errors = []
    for argv in _profile_readers(profiles, snap, tmp_path / "out"):
        capsys.readouterr()
        assert run(argv) == 1
        errors.append(capsys.readouterr().err)
        assert not (tmp_path / "out").exists(), argv
    assert errors[0].startswith(f"adgraph: input error: {profiles}: line 2: ")
    assert errors == [errors[0]] * len(errors)
    if line in EXTRA_DATA_LINES:
        assert "Extra data" in errors[0]


def test_profile_lines_led_by_spaces_load(tmp_path):
    snap = tmp_path / "snap"
    snap.mkdir()
    line = '{"domain": "a.example", "ids": {"publisher": {"pub-100000001": ["html"]}}}'
    (snap / "profiles.jsonl").write_text("  " + line + "\n\t" + line.replace("a.", "b.") + "\n",
                                         encoding="utf-8")
    (snap / "manifest.json").write_text('{"snapshot_id": "2021-01-01", "total_sites": 4}\n',
                                        encoding="utf-8")
    assert run(["stats", "ids", "--profiles", str(snap / "profiles.jsonl"),
                "--out", str(tmp_path / "ids.csv")]) == 0
    assert run(["history", "coverage", "--snapshots", str(snap),
                "--out", str(tmp_path / "coverage.csv")]) == 0
    assert "2021-01-01,publisher_fraction,0.5" in \
        (tmp_path / "coverage.csv").read_text(encoding="utf-8")


def test_profiles_and_manifest_may_start_with_a_byte_order_mark(tmp_path):
    snap = tmp_path / "snap"
    snap.mkdir()
    line = '{"domain": "a.example", "ids": {"publisher": {"pub-100000001": ["html"]}}}\n'
    (snap / "profiles.jsonl").write_text(line, encoding="utf-8-sig")
    (snap / "manifest.json").write_text('{"snapshot_id": "2021-01-01", "total_sites": 2}\n',
                                        encoding="utf-8-sig")
    for argv in _profile_readers(snap / "profiles.jsonl", snap, tmp_path / "out"):
        assert run(argv) == 0, argv
    assert "2021-01-01,publisher_fraction,0.5" in \
        (tmp_path / "out" / "x.csv").read_text(encoding="utf-8")


def test_history_builds_no_site_profile(tmp_path, monkeypatch):
    """history decodes snapshots straight into per-site keys."""
    snap_dirs = []
    for sid, profiles, total_sites in random_snapshot_set(16):  # four snapshots
        save_snapshot(profiles, tmp_path / sid, sid, total_sites)
        snap_dirs.append(str(tmp_path / sid))
    topics = ("coverage", "idcounts", "transitions", "classes", "top")

    def outputs(name):
        for topic in topics:
            assert run(["history", topic, "--snapshots", *snap_dirs,
                        "--out", str(tmp_path / name / f"{topic}.csv")]) == 0
        return [(tmp_path / name / f"{topic}.csv").read_bytes() for topic in topics]

    before = outputs("before")

    def refuse(self, *args, **kwargs):
        raise AssertionError("history built a SiteIdProfile")

    monkeypatch.setattr(SiteIdProfile, "__init__", refuse)
    assert outputs("after") == before


def test_outputs_do_not_depend_on_the_hash_seed(crawl_file, tmp_path):
    """PYTHONHASHSEED reorders every set of domains and keys; the bytes of
    every output file must not move with it."""
    for seed in (1, 2):
        (tmp_path / f"crawl{seed}.jsonl").write_text(
            "\n".join(scale_corpus_lines(300, seed=seed)) + "\n", encoding="utf-8")
    _categories(tmp_path)
    commands = [
        ["extract", "--in", "../crawl1.jsonl", "--out", "s1/profiles.jsonl",
         "--snapshot-id", "2021-01-01"],
        ["extract", "--in", "../crawl2.jsonl", "--out", "s2/profiles.jsonl",
         "--snapshot-id", "2021-04-01"],
        ["history", "transitions", "--snapshots", "s1", "s2", "--out", "h/transitions.csv"],
        ["report", "--in", str(crawl_file), "--categories", "../cats.csv", "--out-dir", "report"],
    ]
    script = ("import json, sys\nfrom adgraph.cli import run\n"
              "for argv in json.loads(sys.argv[1]):\n    assert run(argv) == 0, argv\n")
    env = {**os.environ, "PYTHONPATH": str(Path(adgraph.__file__).resolve().parents[1])}
    outputs = []
    for hash_seed in ("0", "1"):
        cwd = tmp_path / f"hashseed{hash_seed}"
        cwd.mkdir()
        subprocess.run([sys.executable, "-c", script, json.dumps(commands)], cwd=cwd,
                       env={**env, "PYTHONHASHSEED": hash_seed}, check=True)
        outputs.append({p.relative_to(cwd).as_posix(): p.read_bytes()
                        for p in sorted(cwd.rglob("*")) if p.is_file()})
    assert len(outputs[0]) > 20 and "h/transitions.csv" in outputs[0]
    assert outputs[0] == outputs[1]


def test_key_error_in_a_command_is_not_an_input_error(tmp_path, monkeypatch):
    def broken(*args):
        raise KeyError("bug")

    monkeypatch.setattr(adgraph.cli, "poisson_sampling_baseline", broken)
    cats = _categories(tmp_path)
    with pytest.raises(KeyError):
        run(["stats", "poisson", "--categories", str(cats), "--size", "2",
             "--out", str(tmp_path / "b.json")])
    assert _configs(tmp_path) == []


@pytest.fixture(scope="module")
def command_table(crawl_file, tmp_path_factory):
    """The command table, run once, so that every command's inputs exist."""
    commands = _command_table(crawl_file, tmp_path_factory.mktemp("commands"))
    for name, argv in commands.items():
        assert run(argv) == 0, name
    return commands


@pytest.mark.parametrize("case", [*COMMANDS, "input_error", "config_error", "help", "key_error"])
def test_a_command_runs_with_the_collector_paused_and_leaves_no_garbage(
        case, command_table, tmp_path, monkeypatch):
    missing = str(tmp_path / "missing.jsonl")
    argv, expected = {
        "input_error": (["extract", "--in", missing, "--out", str(tmp_path / "p.jsonl")], 1),
        "config_error": (["report", "--in", missing, "--out-dir", str(tmp_path),
                          "--top-fraction", "0"], 2),
        "help": (["--help"], 0),
        "key_error": (command_table["stats_poisson"], KeyError),
    }.get(case) or (command_table[case], 0)
    seen = []

    def watched(function):
        def watcher(*args):
            seen.append(gc.isenabled())
            return function(*args)
        return watcher

    # Parsing builds the parser, and a command that succeeds echoes its config last.
    monkeypatch.setattr(adgraph.cli, "build_parser", watched(adgraph.cli.build_parser))
    monkeypatch.setattr(adgraph.cli, "_echo_config", watched(adgraph.cli._echo_config))
    if expected is KeyError:
        def broken(*args):
            raise KeyError("bug")

        monkeypatch.setattr(adgraph.cli, "poisson_sampling_baseline", watched(broken))

    def run_case():
        if expected is KeyError:
            with pytest.raises(KeyError):
                run(argv)
        else:
            assert run(argv) == expected

    gc.collect()
    run_case()
    assert seen == [False] * (1 if case in ("input_error", "config_error", "help") else 2)
    assert gc.isenabled()
    assert gc.collect() == 0
    # A caller that turned the collector off keeps it off.
    gc.disable()
    try:
        run_case()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_report_garbage_does_not_grow_with_the_input(tmp_path):
    """The one young collection as run returns frees the run's own cycles.
    A change that built a cycle per record or profile would hold them all
    until then, so what it frees must not grow with the input."""
    freed = []

    def count(phase, info):
        if phase == "stop":
            freed.append((info["generation"], info["collected"]))

    runs = {}
    gc.callbacks.append(count)
    try:
        for n_sites in (200, 2000):
            crawl = tmp_path / f"crawl{n_sites}.jsonl"
            crawl.write_text("\n".join(scale_corpus_lines(n_sites)) + "\n", encoding="utf-8")
            gc.collect()
            freed.clear()
            assert run(["report", "--in", str(crawl), "--out-dir", str(tmp_path / "r")]) == 0
            runs[n_sites] = freed[:]
            assert gc.collect() == 0
    finally:
        gc.callbacks.remove(count)
    [(small_gen, small)], [(large_gen, large)] = runs[200], runs[2000]
    assert small_gen == large_gen == 0
    assert large <= small
