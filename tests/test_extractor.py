from __future__ import annotations

import dataclasses
import gc
import io
import json
import math
import random
import re
from collections import Counter

import pytest

import adgraph.extractor
from adgraph.corpus import CrawlRecord, _crawl_records
from adgraph.extractor import (
    IdKind,
    SiteIdProfile,
    Source,
    dump_profiles,
    extract_crawl,
    extract_profile,
    iter_profiles,
    summarize_extraction,
)
from helpers import (
    crawl_jsonl,
    extract_crawl_reference,
    extract_profile_reference,
    make_profile,
    profile_from_json_obj_reference,
    profile_to_json_obj_reference,
    random_crawl_lines,
    random_profiles,
    random_scan_records,
    scan_record_reference,
)


def _record(domain="a.example", html="", requests=(), cookies=()):
    return CrawlRecord(domain, f"https://{domain}/", domain, html,
                       tuple(requests), tuple(cookies))


P, T, M, C = IdKind.PUBLISHER, IdKind.TRACKING, IdKind.MEASUREMENT, IdKind.CONTAINER
NO_FILTER = frozenset()


def _assert_found(rec, dictionary, blocklist, expected):
    """extract_profile of ``rec`` finds ``expected``, kind -> (keys, raw
    count), and agrees with the per-text reference."""
    profile = extract_profile(rec, dictionary, blocklist)
    assert profile.keys == {kind: keys for kind, (keys, _) in expected.items()}
    assert profile.raw_counts == {kind: count for kind, (_, count) in expected.items()}
    assert profile == extract_profile_reference(rec, dictionary, blocklist)


# --- patterns: one page text, no filter -------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("", {}),
    ("ca-pub-123456789", {P: ({"pub-123456789"}, 1)}),
    ("UA-12345-6", {T: ({"UA-12345"}, 1)}),
    # the four kinds in one text, in any order
    ("GTM-XYZ999 then ca-pub-123456789 then G-AB12345 and UA-4444-1",
     {C: ({"GTM-XYZ999"}, 1), P: ({"pub-123456789"}, 1), M: ({"G-AB12345"}, 1),
      T: ({"UA-4444"}, 1)}),
    # a match at offset 0, for every kind
    ("pub-123456789 x", {P: ({"pub-123456789"}, 1)}),
    ("UA-1234-5 x", {T: ({"UA-1234"}, 1)}),
    ("G-ABCDEFG x", {M: ({"G-ABCDEFG"}, 1)}),
    ("GTM-ABC123 x", {C: ({"GTM-ABC123"}, 1)}),
    # one long id, never a shorter id carved out of its digits
    ("pub-12345678901", {P: ({"pub-12345678901"}, 1)}),
    # too short, and case-sensitive
    ("pub-12345678 UA-123-4 G-ABC12 GTM-AB1", {}),
    ("PUB-123456789 ua-1234-5 gtm-abc123 g-abcdefg", {}),
    # an alphanumeric character just before the prefix
    ("XG-ABCDEFG", {}),
    ("datapub-999999999", {}),
    ("9UA-1234-5", {}),
    ("xpub-123456789", {}),
    ("1GTM-ABC123", {}),
    # a non-ASCII letter is not in the boundary class
    ("épub-123456789", {P: ({"pub-123456789"}, 1)}),
    ("éG-ABCDEFG", {M: ({"G-ABCDEFG"}, 1)}),
    # separators allow adjacent matches
    ("UA-1111-1,UA-2222-2", {T: ({"UA-1111", "UA-2222"}, 2)}),
    ("UA-1111-1,UA-2222-2;UA-3333-3", {T: ({"UA-1111", "UA-2222", "UA-3333"}, 3)}),
    # GTM- next to G-
    ("GTM-G-ABCDEFG", {M: ({"G-ABCDEFG"}, 1)}),
    ("G-GTM-ABC123", {C: ({"GTM-ABC123"}, 1)}),
    ("GTM-ABC123G-ABCDEFG", {C: ({"GTM-ABC123G"}, 1)}),
    ("G-ABCDEFG-GTM-ABC123", {M: ({"G-ABCDEFG"}, 1), C: ({"GTM-ABC123"}, 1)}),
    # Tracking values collapse to their account prefix; other kinds do not
    ("UA-12345-6 UA-12345-77", {T: ({"UA-12345"}, 2)}),
    ("GTM-ABC123 pub-123456789 G-AB12CD34",
     {C: ({"GTM-ABC123"}, 1), P: ({"pub-123456789"}, 1), M: ({"G-AB12CD34"}, 1)}),
])
def test_patterns(text, expected):
    _assert_found(_record(html=text), NO_FILTER, NO_FILTER, expected)


def test_patterns_match_lookbehind_first_oracle():
    """Random strings, each scanned as page text and split at a random
    point into two request URLs, find what the reference finds text by
    text with the lookbehind-first patterns."""
    groups = [
        ["pub-", "UA-", "UA-1234-", "G-", "GTM-"],
        ["123456789", "1234", "ABCDEFG", "-"],
        ["-", " ", "_", "x", "é"],
        [*"0123456789", *"ABCDEFGHIJKLMNOPQRSTUVWXYZ"],
    ]
    rng = random.Random(20)
    seen = {kind: 0 for kind in IdKind}
    split_apart = 0
    for _ in range(5000):
        text = "".join(rng.choice(rng.choices(groups, weights=(3, 3, 2, 2))[0])
                       for _ in range(rng.randrange(1, 25)))
        cut = rng.randrange(len(text) + 1)
        rec = _record(html=text, requests=[text[:cut], text[cut:]])
        profile = extract_profile(rec, NO_FILTER, NO_FILTER)
        assert profile == extract_profile_reference(rec, NO_FILTER, NO_FILTER), (text, cut)
        for kind, keys in profile.keys.items():
            seen[kind] += sum(Source.HTML in profile.sources[key] for key in keys)
        split_apart += any(srcs != {Source.HTML, Source.REQUEST} for srcs in profile.sources.values())
    # the strings reach every kind, and the cut often breaks a match, so
    # the comparison is not vacuous
    assert min(seen.values()) >= 50, seen
    assert split_apart >= 50, split_apart


# --- filters ----------------------------------------------------------------

# A dictionary whose words look like the suffixes of Publisher and Tracking
# values too: only Measurement and Container values are ever dropped as words.
NUMERIC_WORDS = frozenset({"123456789", "1234-5", "abcdefg"})


@pytest.mark.parametrize("text,words,blocked,expected", [
    # dictionary words after the hyphen, in any case
    ("G-BACKPACK G-1A2B3C4", "packaged", NO_FILTER, {M: ({"G-1A2B3C4"}, 1)}),
    ("GTM-NOODLE", "packaged", NO_FILTER, {}),
    ("pub-123456789 UA-1234-5", "packaged", NO_FILTER,
     {P: ({"pub-123456789"}, 1), T: ({"UA-1234"}, 1)}),
    ("pub-123456789 UA-1234-5 G-ABCDEFG GTM-ABCDEFG", NUMERIC_WORDS, NO_FILTER,
     {P: ({"pub-123456789"}, 1), T: ({"UA-1234"}, 1)}),
    # the blocklist holds raw values, compared exactly
    ("G-APRIL2020", NO_FILTER, "packaged", {}),
    ("G-APRIL20XX", NO_FILTER, "packaged", {M: ({"G-APRIL20XX"}, 1)}),
    ("G-APRIL2020 GTM-XYZ999", NO_FILTER, NO_FILTER,
     {M: ({"G-APRIL2020"}, 1), C: ({"GTM-XYZ999"}, 1)}),
    ("UA-1234-5 UA-1234-6", NO_FILTER, frozenset({"UA-1234-5"}), {T: ({"UA-1234"}, 1)}),
    ("UA-1234-5", NO_FILTER, frozenset({"UA-1234"}), {T: ({"UA-1234"}, 1)}),
    # both filters at once
    ("G-BACKPACK G-APRIL2020 G-REAL1234", "packaged", "packaged", {M: ({"G-REAL1234"}, 1)}),
])
def test_filters(dictionary, blocklist, text, words, blocked, expected):
    words = dictionary if words == "packaged" else words
    blocked = blocklist if blocked == "packaged" else blocked
    _assert_found(_record(html=text), words, blocked, expected)


def test_filters_only_remove_and_commute(dictionary, blocklist):
    """Each filter drops values one by one: the keys kept by both are the
    keys kept by each alone, and none is new."""
    rng = random.Random(4)
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    pieces = ["G-BACKPACK", "G-APRIL2020", "GTM-NOODLE", "pub-123456789"]
    pieces += ["G-" + "".join(rng.choice(alphabet) for _ in range(8)) for _ in range(200)]
    rec = _record(html=" ".join(pieces))

    def keys(d, b):
        return set().union(*extract_profile(rec, d, b).keys.values())

    both = keys(dictionary, blocklist)
    assert both == keys(dictionary, NO_FILTER) & keys(NO_FILTER, blocklist)
    assert both < keys(NO_FILTER, NO_FILTER)
    assert extract_profile(rec, dictionary, blocklist) == \
        extract_profile_reference(rec, dictionary, blocklist)


def test_canonical_tracking_shape(dictionary, blocklist):
    rng = random.Random(11)
    texts = [f"UA-{rng.randrange(1000, 10**8)}-{rng.randrange(1, 100)}" for _ in range(300)]
    rec = _record(html=" ".join(texts))
    profile = extract_profile(rec, dictionary, blocklist)
    pattern = re.compile(r"UA-[0-9]{4,}\Z")
    for key in profile.keys_for(IdKind.TRACKING):
        assert pattern.match(key)


# --- filtered matches -> profile keys, sources and raw_counts ----------------

def test_profile_drops_word_and_merges_tracking_values(dictionary, blocklist):
    rec = _record(html="UA-1111-1 G-BACKPACK", cookies=[("sid", "UA-1111-2")])
    profile = extract_profile(rec, dictionary, blocklist)
    assert profile.keys == {IdKind.TRACKING: {"UA-1111"}}
    assert profile.sources == {"UA-1111": {Source.HTML, Source.COOKIE}}
    assert profile.raw_counts == {IdKind.TRACKING: 2}
    assert profile == extract_profile_reference(rec, dictionary, blocklist)


def test_profile_raw_counts_every_occurrence(dictionary, blocklist):
    rec = _record(html="UA-1111-1 UA-1111-1 G-BACKPACK",
                  requests=["https://x.example/?tid=UA-1111-1&id=G-AB12345"],
                  cookies=[("UA-1111-1", "UA-1111-2")])
    profile = extract_profile(rec, dictionary, blocklist)
    assert profile.keys == {IdKind.TRACKING: {"UA-1111"}, IdKind.MEASUREMENT: {"G-AB12345"}}
    assert profile.sources == {"UA-1111": {Source.HTML, Source.REQUEST, Source.COOKIE},
                               "G-AB12345": {Source.REQUEST}}
    assert profile.raw_counts == {IdKind.TRACKING: 5, IdKind.MEASUREMENT: 1}
    assert profile == extract_profile_reference(rec, dictionary, blocklist)


def test_profile_keys_match_patterns(dictionary, blocklist):
    from adgraph.extractor import PATTERNS

    rec = _record(html="pub-123456789 UA-1234-5 G-AB12345 GTM-XYZ999")
    profile = extract_profile(rec, dictionary, blocklist)
    assert profile.keys == {IdKind.PUBLISHER: {"pub-123456789"}, IdKind.TRACKING: {"UA-1234"},
                            IdKind.MEASUREMENT: {"G-AB12345"}, IdKind.CONTAINER: {"GTM-XYZ999"}}
    for kind, keys in profile.keys.items():
        if kind is not IdKind.TRACKING:  # Tracking keys are account prefixes
            assert all(PATTERNS[kind].fullmatch(key) for key in keys)
    assert profile.raw_counts == dict.fromkeys(profile.keys, 1)
    assert profile == extract_profile_reference(rec, dictionary, blocklist)


def test_channel_scan_matches_per_text_reference(dictionary, blocklist):
    extra = {"pub-999999999", "UA-55555-5"}  # blocklisted values of the numeric kinds
    blocklist = blocklist | extra
    blocked = sorted(extra) + sorted(blocklist)[:30]
    records = random_scan_records(500, 23, sorted(dictionary), blocked)
    dropped, tracking_channels = set(), set()
    for rec in records:
        profile = extract_profile(rec, dictionary, blocklist)
        reference = extract_profile_reference(rec, dictionary, blocklist)
        assert profile == reference, rec
        assert list(profile.keys) == list(reference.keys)
        assert list(profile.raw_counts) == list(reference.raw_counts)
        hits = scan_record_reference(rec, dictionary, blocklist)
        unfiltered = scan_record_reference(rec, frozenset(), frozenset())
        dropped |= {h.raw for h in unfiltered} - {h.raw for h in hits}
        tracking_channels.update(len(profile.sources[key]) for key in profile.keys_for(IdKind.TRACKING))
    # the records exercise both filters and a Tracking key seen in every channel
    assert dropped & set(blocked) and any(v.split("-", 1)[1].lower() in dictionary for v in dropped)
    assert 3 in tracking_channels


# --- extract_profile --------------------------------------------------------

def test_profile_composition(dictionary, blocklist):
    rec = _record(
        html="pub-123456789",
        requests=["https://www.googletagmanager.com/gtm.js?id=GTM-ABC123"],
    )
    profile = extract_profile(rec, dictionary, blocklist)
    assert profile.keys_for(IdKind.PUBLISHER) == {"pub-123456789"}
    assert profile.sources["pub-123456789"] == {Source.HTML}
    assert profile.keys_for(IdKind.CONTAINER) == {"GTM-ABC123"}
    assert profile.sources["GTM-ABC123"] == {Source.REQUEST}


def test_profile_merges_tracking_prefix_across_channels(dictionary, blocklist):
    rec = _record(html="UA-1111-1", cookies=[("sid", "UA-1111-2")])
    profile = extract_profile(rec, dictionary, blocklist)
    assert profile.keys_for(IdKind.TRACKING) == {"UA-1111"}
    assert profile.sources["UA-1111"] == {Source.HTML, Source.COOKIE}


def test_profile_scans_cookie_names(dictionary, blocklist):
    rec = _record(cookies=[("UA-2222-1", "enabled")])
    profile = extract_profile(rec, dictionary, blocklist)
    assert profile.keys_for(IdKind.TRACKING) == {"UA-2222"}


def test_empty_record_empty_profile(dictionary, blocklist):
    profile = extract_profile(_record(), dictionary, blocklist)
    assert profile.is_empty()


def test_extraction_deterministic(dictionary, blocklist):
    rec = _record(html="pub-123456789 UA-1234-5 G-AB12345 GTM-XYZ999",
                  requests=["https://x.example/?id=G-AB12345"],
                  cookies=[("a", "UA-1234-9")])
    first = extract_profile(rec, dictionary, blocklist)
    second = extract_profile(rec, dictionary, blocklist)
    assert first == second


def test_profile_is_aggregate_of_hits(corpus50, dictionary, blocklist):
    records, _ = corpus50
    for rec in records:
        hits = scan_record_reference(rec, dictionary, blocklist)
        profile = extract_profile(rec, dictionary, blocklist)
        keys, sources, raw_counts = {}, {}, {}
        for h in hits:
            keys.setdefault(h.kind, set()).add(h.canonical)
            sources.setdefault(h.canonical, set()).update(h.sources)
            raw_counts[h.kind] = raw_counts.get(h.kind, 0) + h.count
        assert profile.keys == keys
        assert profile.sources == sources
        assert profile.raw_counts == raw_counts
        # raw_counts add up the record's texts, each scanned on its own
        texts = [rec.page_text, *rec.request_urls, *(t for pair in rec.cookies for t in pair)]
        per_text = Counter()
        for text in texts:
            per_text.update(extract_profile(_record(html=text), dictionary, blocklist).raw_counts)
        assert profile.raw_counts == dict(per_text)


def _crawl(*records):
    """(domain, landing domain, rank, html) tuples as crawl JSONL lines."""
    return crawl_jsonl(CrawlRecord(domain, f"https://{landing}/", landing, html, rank=rank)
                       for domain, landing, rank, html in records).splitlines(keepends=True)


@pytest.mark.parametrize("records, ranks, survivor, rank", [
    # the smaller rank wins, whichever line comes first
    ([("x.example", "c.example", 500, "pub-100000001"),
      ("y.example", "c.example", 10, "pub-100000002")], {}, "pub-100000002", 10),
    # a rank-less tie keeps the first line
    ([("x.example", "c.example", None, "pub-100000001"),
      ("y.example", "c.example", None, "pub-100000002")], {}, "pub-100000001", None),
    # a ranked record beats a rank-less one
    ([("x.example", "c.example", None, "pub-100000001"),
      ("y.example", "c.example", 999, "pub-100000002")], {}, "pub-100000002", 999),
    # the rank list overrides the JSONL rank of its requested domain
    ([("x.example", "c.example", 5, "pub-100000001"),
      ("y.example", "c.example", 9, "pub-100000002")], {"y.example": 2}, "pub-100000002", 2),
])
def test_extract_crawl_keeps_one_survivor_per_landing_domain(
    dictionary, blocklist, records, ranks, survivor, rank
):
    got = extract_crawl(_crawl(*records), ranks, dictionary, blocklist)
    assert got.site_count == 1
    assert [p.keys for p in got.profiles] == [{IdKind.PUBLISHER: {survivor}}]
    assert got.site_ranks == ({} if rank is None else {"c.example": rank})


def test_extract_crawl_keeps_distinct_landing_domains(dictionary, blocklist):
    lines = _crawl(("a.example", "a.example", 1, "pub-100000001"),
                   ("b.example", "b.example", 2, "pub-100000002"))
    got = extract_crawl(lines, None, dictionary, blocklist)
    assert got.profiles == [extract_profile(r, dictionary, blocklist)
                            for r in _crawl_records(lines, None, [])]
    assert got.site_ranks == {"a.example": 1, "b.example": 2} and got.site_count == 2


def test_extract_crawl_matches_naive_reference(dictionary, blocklist):
    """One streaming pass equals parsing every line, keeping each landing
    domain's best record and extracting it, with and without a rank list."""
    blocked = sorted(blocklist)[:20]
    seen = dict.fromkeys(["later wins", "later loses", "rank tie", "override", "rankless",
                          "malformed", "empty profile"], 0)
    for seed in range(40):
        lines, rank_list = random_crawl_lines(30, seed, sorted(dictionary), blocked)
        for ranks in (rank_list, {}):
            got = extract_crawl(iter(lines), ranks, dictionary, blocklist)
            assert got == extract_crawl_reference(lines, ranks, dictionary, blocklist)

            best = {}  # landing domain -> smallest rank key so far
            for rec in _crawl_records(lines, None, []):
                rank = ranks.get(rec.requested_domain, rec.rank)
                key, domain = math.inf if rank is None else rank, rec.landing_domain
                if domain in best:
                    seen["later wins" if key < best[domain] else "later loses"] += 1
                    seen["rank tie"] += key == best[domain] < math.inf
                best[domain] = min(key, best.get(domain, math.inf))
                seen["override"] += rec.rank is not None and rank != rec.rank
                seen["rankless"] += rank is None
            seen["malformed"] += len(got.skips)
            seen["empty profile"] += got.site_count - len(got.profiles)
    assert all(seen.values()), seen


def test_extract_crawl_keeps_no_keyless_profile(dictionary, blocklist, monkeypatch):
    """A keyless survivor counts towards site_count but keeps no profile
    alive while the crawl is read."""
    empty, alive = [], []
    extract = adgraph.extractor.extract_profile

    def counting_extract(*args):
        profile = extract(*args)
        empty.append(profile.is_empty())
        return profile

    def lines_then_census(lines):
        yield from lines
        gc.collect()
        alive.append(sum(isinstance(o, SiteIdProfile) and o.is_empty() for o in gc.get_objects()))

    monkeypatch.setattr(adgraph.extractor, "extract_profile", counting_extract)
    lines, ranks = random_crawl_lines(60, 3, sorted(dictionary), sorted(blocklist)[:20])
    got = extract_crawl(lines_then_census(lines), ranks, dictionary, blocklist)
    assert sum(empty) >= 3 and got.site_count > len(got.profiles)
    assert alive == [0]


# --- summaries --------------------------------------------------------------

def test_summary_shared_key_counts():
    profiles = [
        make_profile("a.example", publisher={"pub-111111111"}),
        make_profile("b.example", publisher={"pub-111111111"}),
    ]
    summary = summarize_extraction(profiles, corpus_size=2)
    ks = summary.kinds[IdKind.PUBLISHER]
    assert ks.unique_ids == 1 and ks.unique_sites == 2 and ks.pct_of_sites == 1.0


def test_summary_pct_of_sites_fixture():
    profiles = [make_profile(f"s{i}.example", publisher={f"pub-10000000{i}"}) for i in range(3)]
    profiles += [make_profile(f"t{i}.example", tracking={f"UA-900{i}"}) for i in range(4)]
    summary = summarize_extraction(profiles, corpus_size=10)
    assert summary.kinds[IdKind.PUBLISHER].pct_of_sites == 0.3


def test_summary_html_only_sources():
    profiles = [make_profile("a.example", publisher={"pub-111111111"})]
    ks = summarize_extraction(profiles, 1).kinds[IdKind.PUBLISHER]
    assert ks.pct_in_html == 1.0 and ks.pct_in_requests == 0.0 and ks.pct_in_cookies == 0.0


def test_summary_unique_sites_matches_bearing_profiles():
    rng = random.Random(5)
    profiles = []
    for i in range(40):
        kinds = {}
        if rng.random() < 0.5:
            kinds["publisher"] = {f"pub-{rng.randrange(10**8, 10**9)}"}
        if rng.random() < 0.5:
            kinds["tracking"] = {f"UA-{rng.randrange(1000, 10**6)}"}
        profiles.append(make_profile(f"s{i}.example", **kinds))
    summary = summarize_extraction(profiles, corpus_size=40)
    for kind in (IdKind.PUBLISHER, IdKind.TRACKING):
        expected = sum(1 for p in profiles if p.keys_for(kind))
        assert summary.kinds[kind].unique_sites == expected


def test_summary_rejects_zero_corpus():
    with pytest.raises(ValueError):
        summarize_extraction([], corpus_size=0)


# --- anomalies --------------------------------------------------------------

def test_summary_anomalies_strict_threshold():
    big = make_profile("big.example", tracking={f"UA-9{i:06d}" for i in range(94)})
    edge = make_profile("edge.example", tracking={f"UA-8{i:06d}" for i in range(40)})
    flagged = summarize_extraction([big, edge], 2, anomaly_threshold=40).anomalies
    assert flagged == [("big.example", 94)]


def test_summary_anomalies_empty():
    assert summarize_extraction([], 1).anomalies == []


def test_summary_anomalies_count_across_kinds():
    p = make_profile("m.example",
                     publisher={f"pub-10000000{i:02d}" for i in range(30)},
                     container={f"GTM-Z{i:05d}" for i in range(15)})
    assert summarize_extraction([p], 1, anomaly_threshold=40).anomalies == [("m.example", 45)]


def test_summary_anomalies_match_a_naive_filter_in_one_walk():
    profiles = random_profiles(300, seed=11)
    expected = sorted(
        ((p.landing_domain, p.total_keys()) for p in profiles if p.total_keys() > 6),
        key=lambda t: (-t[1], t[0]),
    )
    summary = summarize_extraction(profiles, 300, anomaly_threshold=6)
    assert expected and len(expected) < len(profiles)
    assert summary.anomalies == expected
    assert summarize_extraction(iter(profiles), 300, anomaly_threshold=6) == summary


def test_summary_rejects_a_threshold_below_one():
    with pytest.raises(ValueError, match="threshold must be >= 1"):
        summarize_extraction([], 1, anomaly_threshold=0)


# --- profile dumps ----------------------------------------------------------

def test_profile_jsonl_roundtrip(corpus50, dictionary, blocklist):
    records, _ = corpus50
    profiles = sorted((extract_profile(r, dictionary, blocklist) for r in records),
                      key=lambda p: p.landing_domain)
    buf = io.StringIO()
    dump_profiles(profiles, buf)
    buf.seek(0)
    again = list(iter_profiles(buf))
    assert again == profiles


def test_iter_profiles_opens_its_file_at_the_first_profile(tmp_path):
    path = tmp_path / "profiles.jsonl"
    reader = iter_profiles(path)  # no file yet
    profiles = random_profiles(8, 1)
    with open(path, "w", encoding="utf-8") as fh:
        dump_profiles(profiles, fh)
    assert list(reader) == profiles == list(iter_profiles(path))


@pytest.mark.parametrize("seed", range(5))
def test_profile_codec_matches_reference(seed):
    profiles = random_profiles(60, seed)
    buf = io.StringIO()
    dump_profiles(reversed(profiles), buf)
    text = buf.getvalue()
    assert text == "".join(
        json.dumps(profile_to_json_obj_reference(p), sort_keys=True) + "\n" for p in profiles
    )
    again = list(iter_profiles(io.StringIO(text)))
    assert again == profiles
    rng = random.Random(seed)
    for line in text.splitlines():
        obj = json.loads(line)
        for entry in obj["ids"].values():
            for srcs in entry.values():
                rng.shuffle(srcs)  # unsorted lists take the slow path
        again.append(SiteIdProfile.from_json_obj(obj))
        assert again[-1] == profile_from_json_obj_reference(obj)
    # Every decoded source set is one of the 8 shared combinations.
    assert len({id(s) for p in again for s in p.sources.values()}) <= 8


@pytest.mark.parametrize("srcs", [[["html"]], [5], [None], ["bogus"], [{"html": 1}],
                                  ["html", "Cookie"], ["cookie", "html", 2.0]])
def test_profile_codec_source_errors_match_reference(srcs):
    obj = {"domain": "a.example", "ids": {"tracking": {"UA-123456": srcs}}}
    with pytest.raises(ValueError) as expected:
        profile_from_json_obj_reference(obj)
    with pytest.raises(ValueError) as got:
        SiteIdProfile.from_json_obj(obj)
    assert str(got.value) == str(expected.value)


def test_profile_codec_converts_counts_to_int():
    obj = {"domain": "a.example", "raw_counts": {"publisher": "3", "tracking": 2.0,
                                                 "container": True, "measurement": 0}}
    profile = SiteIdProfile.from_json_obj(obj)
    assert profile == profile_from_json_obj_reference(obj)
    assert profile.to_json_obj()["raw_counts"] == {"publisher": 3, "tracking": 2,
                                                   "measurement": 0, "container": 1}
    assert all(type(n) is int for n in profile.raw_counts.values())
