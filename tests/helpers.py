"""Independent oracles and fixture builders shared across the test suite.

Everything here deliberately avoids the library's own algorithms: the
metagraph oracle is a naive triple loop, betweenness enumerates shortest
paths explicitly, modularity uses the ordered-pair formula, and the
power-law sampler inverts the CDF from a table. Oracles stay simple and
slow so the production code has something honest to be checked against.
"""

from __future__ import annotations

import ipaddress
import itertools
import json
import math
import random
import re
from collections import deque
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple
from urllib.parse import urlsplit

import numpy as np
from scipy.special import zeta

from adgraph.corpus import (
    CanonicalizationError,
    CrawlRecord,
    _crawl_records,
    default_suffix_table,
)
from adgraph.extractor import (
    CrawlExtraction,
    IdKind,
    SiteIdProfile,
    Source,
    iter_profiles,
)
from adgraph.graphs import KINDS_OF_FAMILY, IdFamily, Metagraph
from adgraph.history import (
    Snapshot,
    class_population_series,
    coverage_series,
    publisher_id_count_series,
    top_publishers_series,
    transition_series,
)


# ---------------------------------------------------------------------------
# Profile construction shortcuts
# ---------------------------------------------------------------------------

def make_profile(domain, publisher=(), tracking=(), measurement=(), container=()):
    keys = {}
    for kind, values in (
        (IdKind.PUBLISHER, publisher),
        (IdKind.TRACKING, tracking),
        (IdKind.MEASUREMENT, measurement),
        (IdKind.CONTAINER, container),
    ):
        if values:
            keys[kind] = frozenset(values)
    sources = {k: frozenset({Source.HTML}) for ks in keys.values() for k in ks}
    return SiteIdProfile(landing_domain=domain, keys=keys, sources=sources)


def first_pair_only_profiles():
    """(snapshot_id, profiles) of three snapshots in which b.example bears a
    Publisher key in the first pair only: it moves to a smaller publisher,
    then carries none. a.example and c.example keep their keys throughout."""
    site_keys = [
        ("2021-01-01", {"a": "pub-100000001", "b": "pub-200000001", "c": "pub-200000001"}),
        ("2021-04-01", {"a": "pub-100000001", "b": "pub-300000001", "c": "pub-200000001"}),
        ("2021-07-01", {"a": "pub-100000001", "b": None, "c": "pub-200000001"}),
    ]
    return [
        (sid, [make_profile(f"{site}.example", publisher={key} if key else ())
               for site, key in keys.items()])
        for sid, keys in site_keys
    ]


def first_pair_only_snapshots():
    return [Snapshot.build(sid, profiles) for sid, profiles in first_pair_only_profiles()]


# ---------------------------------------------------------------------------
# History reference: snapshots of full profiles, read through iter_profiles
# and sized by counting each profile's Publisher keys. The library decodes a
# snapshot straight into compact per-site keys; every series must come out
# the same over both.
# ---------------------------------------------------------------------------

def load_snapshot_reference(directory):
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    profiles = {p.landing_domain: p for p in iter_profiles(directory / "profiles.jsonl")}
    sizes = {}
    for p in profiles.values():
        for key in p.keys_for(IdKind.PUBLISHER):
            sizes[key] = sizes.get(key, 0) + 1
    return Snapshot(str(manifest["snapshot_id"]), profiles, int(manifest["total_sites"]), sizes)


def history_series(snapshots, k=2):
    """The five series, transitions under both universes and top at k and
    at a k that clamps, each as its result or the ValueError it raised."""
    calls = {
        "coverage": lambda: coverage_series(snapshots),
        "idcounts": lambda: publisher_id_count_series(snapshots),
        "transitions": lambda: transition_series(snapshots),
        "transitions_per_pair": lambda: transition_series(snapshots, per_pair_universe=True),
        "classes": lambda: class_population_series(snapshots),
        "top": lambda: top_publishers_series(snapshots, k),
        "top_clamped": lambda: top_publishers_series(snapshots, 10_000),
    }
    results = {}
    for name, call in calls.items():
        try:
            results[name] = call()
        except ValueError as exc:
            results[name] = ("ValueError", str(exc))
    return results


_SITE_SHAPES = ("publisher", "publisher", "mixed", "tracking", "measurement", "keyless")


def random_snapshot_set(seed):
    """(snapshot_id, profiles, total_sites) of 1-4 seeded snapshots over one
    pool of 24 domains. Each present site carries Publisher keys, Publisher
    and other keys, only Tracking keys, only Measurement keys, or none, and
    often keeps the keys it had in the snapshot before. Publisher keys come
    from a pool of 8, so publishers share sites, and most sets keep a core
    of sites Publisher-bearing in every snapshot."""
    rng = random.Random(seed)
    publishers = [f"pub-{rng.randrange(10**9, 10**10)}" for _ in range(8)]
    trackers = [f"UA-{rng.randrange(1000, 10**6)}" for _ in range(6)]
    core = rng.sample(range(24), rng.choice((0, 2, 4))) if rng.random() < 0.8 else []
    keys_of = {}
    snapshots = []
    for t in range(rng.randint(1, 4)):
        profiles = []
        for i in range(24):
            if i not in core and rng.random() < 0.3:
                continue
            if i not in keys_of or rng.random() < 0.4:
                shape = "publisher" if i in core else rng.choice(_SITE_SHAPES)
                keys = keys_of[i] = {}
                if shape in ("publisher", "mixed"):
                    keys["publisher"] = rng.sample(publishers, rng.choice((1, 1, 2, 3)))
                if shape in ("mixed", "tracking"):
                    keys["tracking"] = rng.sample(trackers, rng.randint(1, 2))
                if shape in ("mixed", "measurement"):
                    keys["measurement"] = [f"G-{rng.randrange(10**7, 10**8)}"]
            profiles.append(make_profile(f"site{i:02d}.example", **keys_of[i]))
        snapshots.append((f"2021-{t + 1:02d}-01", profiles, len(profiles) + rng.randrange(5)))
    return snapshots


def write_shuffled_snapshot(directory, snapshot_id, profiles, total_sites, rng):
    """A snapshot directory in the profile format, but not as dump_profiles
    writes it: lines, kinds and each kind's keys in shuffled order, with
    blank lines and lines led by spaces."""
    directory = Path(directory)
    directory.mkdir(parents=True)
    lines = []
    for p in profiles:
        obj = profile_to_json_obj_reference(p)
        ids = list(obj["ids"].items())
        rng.shuffle(ids)
        obj["ids"] = {kind: dict(rng.sample(list(entry.items()), len(entry))) for kind, entry in ids}
        lines.append(" " * rng.choice((0, 0, 0, 2)) + json.dumps(obj))
        if rng.random() < 0.1:
            lines.append("")
    rng.shuffle(lines)
    (directory / "profiles.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = {"snapshot_id": snapshot_id, "total_sites": total_sites}
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


# ---------------------------------------------------------------------------
# Reference profile codec: SiteIdProfile's JSON form written the plain way,
# with Enum lookups per value. The library's table-driven codec must write
# the same objects and read them back to equal profiles.
# ---------------------------------------------------------------------------

def profile_to_json_obj_reference(p):
    return {
        "domain": p.landing_domain,
        "ids": {
            kind.value: {
                key: sorted(s.value for s in p.sources.get(key, frozenset()))
                for key in sorted(p.keys_for(kind))
            }
            for kind in IdKind
        },
        "raw_counts": {kind.value: p.raw_counts.get(kind, 0) for kind in IdKind},
    }


def profile_from_json_obj_reference(obj):
    """Accepts a source name given twice; the library rejects it."""
    if not isinstance(obj, dict) or not isinstance(obj.get("domain"), str):
        raise ValueError("not a profile object with a string domain")
    ids, counts = obj.get("ids", {}), obj.get("raw_counts", {})
    if not isinstance(ids, dict) or not isinstance(counts, dict):
        raise ValueError("ids and raw_counts must be objects")
    keys, sources, raw_counts = {}, {}, {}
    for kind in IdKind:
        entry = ids.get(kind.value, {})
        if not isinstance(entry, dict):
            raise ValueError(f"ids.{kind.value} is not an object")
        if entry:
            keys[kind] = frozenset(entry)
        for key, srcs in entry.items():
            if not isinstance(srcs, list):
                raise ValueError(f"the sources of {key} are not a list")
            sources[key] = frozenset(Source(s) for s in srcs)
        try:
            count = int(counts.get(kind.value, 0))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"raw_counts.{kind.value} is not an integer") from None
        if count:
            raw_counts[kind] = count
    return SiteIdProfile(landing_domain=obj["domain"], keys=keys, sources=sources,
                         raw_counts=raw_counts)


def random_profiles(n, seed):
    """n seeded profiles with distinct domains. Each kind is absent (no keys,
    count 0) about a third of the time; keys carry every source
    combination, the empty one included; counts of present kinds may be 0."""
    rng = random.Random(seed)
    shapes = {
        IdKind.PUBLISHER: "pub-{:09d}",
        IdKind.TRACKING: "UA-{:06d}",
        IdKind.MEASUREMENT: "G-{:07d}",
        IdKind.CONTAINER: "GTM-{:06d}",
    }
    combos = [frozenset(c) for r in range(4) for c in itertools.combinations(Source, r)]
    profiles = []
    for i in range(n):
        keys, sources, raw_counts = {}, {}, {}
        for kind in IdKind:
            if rng.random() < 1 / 3:
                continue
            ks = frozenset(shapes[kind].format(rng.randrange(50)) for _ in range(rng.randint(1, 4)))
            keys[kind] = ks
            sources.update((k, rng.choice(combos)) for k in ks)
            count = rng.randrange(6)
            if count:
                raw_counts[kind] = count
        profiles.append(SiteIdProfile(f"site{i:04d}.example", keys, sources, raw_counts))
    return profiles


# ---------------------------------------------------------------------------
# Scanner oracle: each pattern led by its boundary lookbehind
# ---------------------------------------------------------------------------

# The boundary rule written the plain way. This form has no literal prefix,
# so CPython's re tries it at every character; the library's patterns put
# the prefix first for speed and must accept exactly the same matches.
_ORACLE_BOUNDARY = r"(?<![0-9A-Za-z])"
ORACLE_PATTERNS = {
    IdKind.PUBLISHER: re.compile(_ORACLE_BOUNDARY + r"pub-[0-9]{9,}(?![0-9])"),
    IdKind.TRACKING: re.compile(_ORACLE_BOUNDARY + r"UA-[0-9]{4,}-[0-9]+(?![0-9])"),
    IdKind.MEASUREMENT: re.compile(_ORACLE_BOUNDARY + r"G-[A-Z0-9]{7,}(?![A-Z0-9])"),
    IdKind.CONTAINER: re.compile(_ORACLE_BOUNDARY + r"GTM-[A-Z0-9]{6,}(?![A-Z0-9])"),
}


def scan_text_oracle(text):
    """(value, kind) matches of ORACLE_PATTERNS ordered by (position, kind)."""
    found = sorted(
        (m.start(), list(IdKind).index(kind), m.group(), kind)
        for kind, pattern in ORACLE_PATTERNS.items()
        for m in pattern.finditer(text)
    )
    return [(value, kind) for _, _, value, kind in found]


# ---------------------------------------------------------------------------
# Reference extraction: one scan per text, one hit per raw value. The
# library scans each channel's texts joined by a separator and folds the
# matches straight into a profile; both must give the same profiles.
# ---------------------------------------------------------------------------

class Hit(NamedTuple):
    """One filtered identifier value of a record: the raw match, its kind,
    its canonical key, every channel it appeared in, and its occurrences."""

    raw: str
    kind: IdKind
    canonical: str
    sources: frozenset
    count: int


def _kept(value, kind, dictionary, blocklist):
    """Whether a raw match survives both filters: it is not blocklisted,
    and a Measurement or Container value is no dictionary word after its
    hyphen."""
    is_word = (kind in (IdKind.MEASUREMENT, IdKind.CONTAINER)
               and value.partition("-")[2].lower() in dictionary)
    return not is_word and value not in blocklist


def _canonical(value, kind):
    """A Tracking value without its property number; others as they are."""
    return value.rsplit("-", 1)[0] if kind is IdKind.TRACKING else value


def scan_record_reference(record, dictionary, blocklist):
    """One ``Hit`` per filtered raw value of the record, ordered by
    (kind name, raw)."""
    sources, counts = {}, {}
    channels = [
        (Source.HTML, (record.page_text,)),
        (Source.REQUEST, record.request_urls),
        (Source.COOKIE, [t for pair in record.cookies for t in pair]),
    ]
    for source, texts in channels:
        for text in texts:
            if not text:
                continue
            for match in scan_text_oracle(text):
                if not _kept(*match, dictionary, blocklist):
                    continue
                sources.setdefault(match, set()).add(source)
                counts[match] = counts.get(match, 0) + 1
    return [
        Hit(raw=value, kind=kind, canonical=_canonical(value, kind),
            sources=frozenset(srcs), count=counts[value, kind])
        for (value, kind), srcs in sorted(sources.items(), key=lambda kv: (kv[0][1].value, kv[0][0]))
    ]


def extract_profile_reference(record, dictionary, blocklist):
    keys, sources, raw_counts = {}, {}, {}
    for hit in scan_record_reference(record, dictionary, blocklist):
        keys.setdefault(hit.kind, set()).add(hit.canonical)
        sources.setdefault(hit.canonical, set()).update(hit.sources)
        raw_counts[hit.kind] = raw_counts.get(hit.kind, 0) + hit.count
    return SiteIdProfile(
        landing_domain=record.landing_domain,
        keys={k: frozenset(v) for k, v in keys.items()},
        sources={k: frozenset(v) for k, v in sources.items()},
        raw_counts=raw_counts,
    )


def crawl_jsonl(records):
    """The crawl JSONL text of records, one line each, that the crawl
    reader parses back into the same records."""
    lines = []
    for r in records:
        obj = {"domain": r.requested_domain, "landing_url": f"https://{r.landing_domain}/",
               "html": r.page_text, "requests": list(r.request_urls),
               "cookies": [{"name": n, "value": v} for n, v in r.cookies]}
        if r.rank is not None:
            obj["rank"] = r.rank
        lines.append(json.dumps(obj, sort_keys=True) + "\n")
    return "".join(lines)


def extract_crawl_reference(lines, ranks, dictionary, blocklist):
    """``extract_crawl`` the naive way: parse every line, then keep for
    each landing domain the record of smallest (rank, or infinity without
    one; line position), and extract each survivor."""
    skips = []
    records = list(_crawl_records(lines, None, skips))
    ranked = [(ranks.get(r.requested_domain, r.rank), pos, r) for pos, r in enumerate(records)]
    survivors = [
        min((t for t in ranked if t[2].landing_domain == domain),
            key=lambda t: (math.inf if t[0] is None else t[0], t[1]))
        for domain in {r.landing_domain for r in records}
    ]
    profiles = [extract_profile_reference(r, dictionary, blocklist) for _, _, r in survivors]
    return CrawlExtraction(
        sorted((p for p in profiles if not p.is_empty()), key=lambda p: p.landing_domain),
        {r.landing_domain: rank for rank, _, r in survivors if rank is not None},
        len(survivors),
        skips,
    )


def random_scan_records(n, seed, words, blocked):
    """n seeded records whose every request URL, cookie name and cookie
    value may start or end with an identifier, or with a fragment that would
    extend or complete one in the neighbouring text (``UA-1234`` before
    ``-5``, ``pub-`` before digits, letters before ``G-``). IDs include
    dictionary words (``words``), blocklisted values (``blocked``) and
    Tracking values of a few shared accounts, so collapsed keys span
    channels; empty texts occur in ``requests`` and ``cookies``."""
    rng = random.Random(seed)
    accounts = [rng.randrange(1000, 10**7) for _ in range(4)]
    upper = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    long_words = [w.upper() for w in words if len(w) >= 7]

    def digits(k):
        return "".join(rng.choice("0123456789") for _ in range(k))

    def ident():
        return rng.choice([
            lambda: "pub-" + digits(rng.randrange(9, 13)),
            lambda: f"UA-{rng.choice(accounts)}-{rng.randrange(1, 30)}",
            lambda: "G-" + "".join(rng.choice(upper) for _ in range(rng.randrange(7, 11))),
            lambda: "GTM-" + "".join(rng.choice(upper) for _ in range(rng.randrange(6, 9))),
            lambda: rng.choice(["G-", "GTM-"]) + rng.choice(long_words),
            lambda: rng.choice(blocked),
        ])()

    heads = ["", "7", "42", "-3", "A", "ZZ", "x", "-", "&", "/", "\n", ".", "=UA-1234-5"]
    tails = ["", "UA-12345", "UA-1234-", "pub-", "pub-1234", "ca-", "G-", "GTM-", "x", "9", "Q", "/"]

    def text():
        parts = [ident() if rng.random() < 0.5 else rng.choice(heads)]
        for _ in range(rng.randrange(3)):
            parts.append(rng.choice(["?id=", "&tid=", " ", "/", "-", "x", "\n", "9"]))
            parts.append(ident() if rng.random() < 0.5 else rng.choice(tails + heads))
        parts.append(ident() if rng.random() < 0.5 else rng.choice(tails))
        return "".join(parts)

    records = []
    for i in range(n):
        domain = f"r{i}.example"
        requests = tuple(rng.choice(["", text()]) if rng.random() < 0.2 else text()
                         for _ in range(rng.randrange(6)))
        cookies = tuple((rng.choice(["", text()]), rng.choice(["", text()]))
                        for _ in range(rng.randrange(4)))
        html = text() if rng.random() < 0.7 else ""
        records.append(CrawlRecord(domain, domain, html, requests, cookies))
    return records


def random_crawl_lines(n, seed, words, blocked):
    """n seeded crawl JSONL lines and a rank list (requested domain ->
    rank) for them.

    Ten requested domains redirect to six landing domains, so landing
    domains collide; ranks come from 1..5, so they tie; about 40% of lines
    carry no JSONL rank and the rank list ranks half the requested
    domains. Some landing URLs fail to canonicalize (the requested domain
    is the landing domain then), about one line in ten is malformed, and
    about one in five has no content, so its profile is empty. Page content
    comes from ``random_scan_records``."""
    rng = random.Random(seed)
    requested = [f"q{k}.example" for k in range(10)]
    landing = [f"l{k}.example" for k in range(6)]
    malformed = [
        "", "   ", "{not json", "[1, 2]",
        json.dumps({"domain": 5, "landing_url": "https://l0.example/"}),
        json.dumps({"domain": "q0.example", "landing_url": "https://l0.example/", "rank": 0}),
        json.dumps({"domain": "q0.example", "landing_url": "https://l0.example/", "rank": True}),
        json.dumps({"domain": "q0.example", "landing_url": "https://l0.example/",
                    "cookies": [{"name": "sid"}]}),
        json.dumps({"domain": "a..b", "landing_url": ""}),
    ]
    lines = []
    for rec in random_scan_records(n, seed, words, blocked):
        if rng.random() < 0.1:
            lines.append(rng.choice(malformed))
            continue
        domain = rng.choice(requested)
        obj = {
            "domain": domain.upper() if rng.random() < 0.1 else domain,
            "landing_url": rng.choice([f"https://{rng.choice(landing)}/",
                                       f"https://WWW.{rng.choice(landing)}/path", "", "not a url"]),
        }
        if rng.random() >= 0.2:
            obj.update(html=rec.page_text, requests=list(rec.request_urls),
                       cookies=[{"name": k, "value": v} for k, v in rec.cookies])
        if rng.random() >= 0.4:
            obj["rank"] = rng.randrange(1, 6)
        lines.append(json.dumps(obj) + "\n")
    ranks = {domain: rng.randrange(1, 6) for domain in requested if rng.random() < 0.5}
    return lines, ranks


# ---------------------------------------------------------------------------
# Reference canonicalize: every URL's host through urlsplit and every IP
# probe through ipaddress.
# ---------------------------------------------------------------------------

def canonicalize_reference(url_or_host, table=None):
    if not isinstance(url_or_host, str) or not url_or_host.strip():
        raise CanonicalizationError(f"empty or non-string input: {url_or_host!r}")
    s = url_or_host.strip()
    if "://" in s or s.startswith("//"):
        try:
            host = urlsplit(s).hostname
        except ValueError as exc:
            raise CanonicalizationError(f"unparseable URL: {s!r}") from exc
        if not host:
            raise CanonicalizationError(f"URL has no hostname: {s!r}")
    else:
        host = s.split("/")[0].rsplit("@", 1)[-1]
        if host.startswith("[") and host.endswith("]"):
            host = host[1:-1]
        elif host.count(":") == 1:
            host = host.split(":")[0]
    host = host.lower().rstrip(".")
    if not host:
        raise CanonicalizationError(f"empty hostname in: {s!r}")
    try:
        ipaddress.ip_address(host)
        return host
    except ValueError:
        pass
    labels = host.split(".")
    if any(not lab or " " in lab for lab in labels):
        raise CanonicalizationError(f"malformed hostname: {host!r}")
    return (table or default_suffix_table()).registrable_domain(host)


def registrable_domain_reference(rules, host):
    """Every rule matched against the host's labels on its own: the longest
    matching exception rule less its leftmost label is the public suffix;
    otherwise the longest exact or leftmost-wildcard match is, and at
    least one label is. The registrable domain adds one label to it."""
    labels = host.lower().split(".")
    exception, best = 0, 1
    for raw in rules:
        rule = raw.strip()
        if not rule or rule.startswith("//"):
            continue
        rule = rule.split()[0].lower()
        if rule.startswith("!"):
            r = rule[1:].split(".")
            if len(r) <= len(labels) and labels[-len(r):] == r:
                exception = max(exception, len(r))
        elif rule.startswith("*."):
            r = rule[2:].split(".")
            if len(r) < len(labels) and labels[-len(r):] == r:
                best = max(best, len(r) + 1)
        else:
            r = rule.split(".")
            if len(r) <= len(labels) and labels[-len(r):] == r:
                best = max(best, len(r))
    n = exception - 1 if exception else best
    return ".".join(labels[-(n + 1):]) if len(labels) > n else ".".join(labels)


def random_url_inputs(n, seed):
    """n seeded landing URLs and hosts. A third are plain ``scheme://host``
    URLs; the rest change one to three parts of one: upper-case or invalid
    schemes, no scheme, userinfo, ports, IPv4 and IPv6 literals, IDN hosts,
    trailing and doubled dots, and whitespace or control characters around
    or inside the input. "?" and "#" often follow the host directly."""
    rng = random.Random(seed)

    def label():
        return "".join(rng.choice("abcdefghijklmnopqrstuvwxyzABCXYZ0123456789-")
                       for _ in range(rng.randrange(1, 9)))

    def plain_host():
        return ".".join(label() for _ in range(rng.randrange(1, 4))) + rng.choice(
            [".example", ".co.uk", ".com", ".blogspot.com", ".ck", ""])

    def odd_host():
        return rng.choice([
            lambda: rng.choice(["bücher.example", "例え.jp", "xn--bcher-kva.example",
                                "ÄÖ.COM", "straße.de", "a\u3002b.com"]),
            lambda: ".".join(str(rng.randrange(300)) for _ in range(4)),
            lambda: rng.choice(["[::1]", "[2001:db8::1]", "::1", "[fe80::1%eth0]", "[::1",
                                "::1]", "[v1.x]", "[1.2.3.4]"]),
            lambda: label() + rng.choice(["..", ".", "...", ".. "]) + rng.choice(["com", "", "a.com"]),
            lambda: rng.choice(["", ".", "..", "-", "_x.com", "a_b.com", "%41.com", "a b.com"]),
        ])()

    pads = [" ", "\t", "\n", "\r\n", "\x00", "\x1f", "\x0b", "\u3000", "\x7f", "\t\x00 "]
    changes = {
        "lead": lambda: rng.choice(pads),
        "scheme": lambda: rng.choice(["1http", "-x", "", "h\ttp", "ht tp", "é", "+a", "HTTP"]),
        "sep": lambda: rng.choice([":/", "//", ":///", ":", "", ":\\\\"]),
        "userinfo": lambda: rng.choice(["user@", "u:p@", "@", "a@b@", "x.com@"]),
        "host": odd_host,
        "port": lambda: rng.choice([":80", ":", ":99999", ":abc", ":8080:"]),
        "rest": lambda: rng.choice(["\\x", " tail", "\t/x", "\n/", ";p", "%2F", "/a b"]),
        "trail": lambda: rng.choice(pads),
    }

    def url():
        parts = dict.fromkeys(changes, "")
        parts["scheme"] = rng.choice(["http", "https", "HTTP", "HtTpS", "ftp", "a+b-c.d"])
        parts["sep"] = "://"
        parts["host"] = plain_host()
        parts["rest"] = rng.choice(["", "/", "/path/x", "?q=1", "#frag", "?", "#", "/?#"])
        for part in rng.sample(list(changes), rng.choice([0, 1, 1, 2, 3])):
            parts[part] = changes[part]()
        return "".join(parts.values())

    return [url() for _ in range(n)]


# ---------------------------------------------------------------------------
# Metagraph oracle: triple loop over (family, key, site pair), and exclusion
# by rebuilding every profile
# ---------------------------------------------------------------------------

def brute_force_metagraph(profiles, normalizers=None):
    sites_per_key = {family: {} for family in IdFamily}
    for family in IdFamily:
        for p in profiles:
            for kind in KINDS_OF_FAMILY[family]:
                for key in p.keys_for(kind):
                    sites_per_key[family].setdefault(key, set()).add(p.landing_domain)
    weights = {}
    nodes = set()
    for family in IdFamily:
        for sites in sites_per_key[family].values():
            nodes.update(sites)
        if normalizers is not None:
            n = normalizers.get(family, 0)
        else:
            n = sum(1 for sites in sites_per_key[family].values() if len(sites) > 1)
        if n == 0:
            continue
        for key, sites in sites_per_key[family].items():
            for u, v in itertools.combinations(sorted(sites), 2):
                weights[(u, v)] = weights.get((u, v), Fraction(0)) + Fraction(1, n)
    return nodes, weights


def exclude_intermediaries_reference(profiles, threshold):
    """The profiles rebuilt without the keys carried by more than
    ``threshold`` sites, each key's carriers counted over every profile."""
    all_keys = {key for p in profiles for keys in p.keys.values() for key in keys}
    heavy = {
        key for key in all_keys
        if len({p.landing_domain for p in profiles
                if any(key in keys for keys in p.keys.values())}) > threshold
    }
    return [
        SiteIdProfile(
            landing_domain=p.landing_domain,
            keys={kind: keys - heavy for kind, keys in p.keys.items() if keys - heavy},
            sources={key: s for key, s in p.sources.items() if key not in heavy},
            raw_counts=dict(p.raw_counts),
        )
        for p in profiles
    ]


# ---------------------------------------------------------------------------
# Betweenness oracle: explicit shortest-path enumeration
# ---------------------------------------------------------------------------

def enumerate_edge_betweenness(adj):
    """Score every edge by summing, over unordered node pairs, the exact
    fraction of the pair's shortest paths that cross the edge."""
    return _path_shares(adj, lambda s, t: _all_shortest_paths(adj, s, t))


def enumerate_weighted_edge_betweenness(adj, weights):
    """As enumerate_edge_betweenness, where a path's length is the sum of
    1/w over its edges: every simple path of a pair is listed, and those of
    least length are the pair's shortest paths."""

    def shortest(s, t):
        found = []

        def walk(node, acc, length):
            if node == t:
                found.append((length, acc))
                return
            for w in adj[node]:
                if w not in acc:
                    walk(w, acc + [w], length + 1 / weights[(min(node, w), max(node, w))])

        walk(s, [s], Fraction(0))
        least = min((length for length, _ in found), default=None)
        return [path for length, path in found if length == least]

    return _path_shares(adj, shortest)


def _path_shares(adj, shortest_paths):
    nodes = sorted(adj)
    scores = {}
    for u in nodes:
        for v in adj[u]:
            if u < v:
                scores[(u, v)] = Fraction(0)
    for s, t in itertools.combinations(nodes, 2):
        paths = shortest_paths(s, t)
        if not paths:
            continue
        per_edge = {}
        for path in paths:
            for a, b in zip(path, path[1:]):
                e = (a, b) if a < b else (b, a)
                per_edge[e] = per_edge.get(e, 0) + 1
        for e, count in per_edge.items():
            scores[e] += Fraction(count, len(paths))
    return scores


def _all_shortest_paths(adj, s, t):
    dist = {s: 0}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    if t not in dist:
        return []
    paths = []

    def walk(node, acc):
        if node == t:
            paths.append(acc)
            return
        for w in adj[node]:
            if dist.get(w) == dist[node] + 1:
                walk(w, acc + [w])

    walk(s, [s])
    return paths


def components_of(adj):
    seen, out = set(), []
    for start in sorted(adj):
        if start in seen:
            continue
        stack, members = [start], {start}
        while stack:
            node = stack.pop()
            for nb in adj[node]:
                if nb not in members:
                    members.add(nb)
                    stack.append(nb)
        seen.update(members)
        out.append(frozenset(members))
    out.sort(key=lambda c: (-len(c), min(c)))
    return tuple(out)


def modularity_oracle(mg: Metagraph, communities):
    """Ordered-pair modularity: (1/2m) * sum_ij (A_ij - k_i k_j / 2m)."""
    m = sum(mg.weights.values(), Fraction(0))
    if m == 0:
        return Fraction(0)
    a = {}
    degree = {n: Fraction(0) for n in mg.nodes}
    for (u, v), w in mg.weights.items():
        a[(u, v)] = a[(v, u)] = w
        degree[u] += w
        degree[v] += w
    q = Fraction(0)
    for community in communities:
        for i in community:
            for j in community:
                q += a.get((i, j), Fraction(0)) - degree.get(i, Fraction(0)) * degree.get(j, Fraction(0)) / (2 * m)
    return q / (2 * m)


def girvan_newman_replay(mg: Metagraph, betweenness=enumerate_edge_betweenness):
    """Replay edge removal with an enumerated betweenness and full
    recompute. Returns every recorded partition, in order, each with the
    removals that produced it."""
    adj = {n: set() for n in mg.nodes}
    for u, v in mg.weights:
        adj[u].add(v)
        adj[v].add(u)
    removals = []
    candidates = [(components_of(adj), ())]
    while any(adj[n] for n in adj):
        scores = betweenness(adj)
        u, v = min(scores, key=lambda e: (-scores[e], e))
        adj[u].discard(v)
        adj[v].discard(u)
        removals.append((u, v))
        parts = components_of(adj)
        if len(parts) > len(candidates[-1][0]):
            candidates.append((parts, tuple(removals)))
    return candidates


def best_of_replay(mg: Metagraph, candidates):
    """The modularity-maximal recorded partition (earliest tie), as
    (communities, modularity, removals)."""
    best, best_removals = candidates[0]
    best_q = modularity_oracle(mg, best)
    for parts, removals in candidates[1:]:
        q = modularity_oracle(mg, parts)
        if q > best_q:
            best, best_q, best_removals = parts, q, removals
    return best, best_q, best_removals


def girvan_newman_oracle(mg: Metagraph):
    """Replay edge removal with enumerated betweenness and full recompute,
    then pick the modularity-maximal recorded partition (earliest tie)."""
    best, best_q, _ = best_of_replay(mg, girvan_newman_replay(mg))
    return best, best_q


def prune_reference(weights, top_fraction):
    """The Fraction weights of the heaviest ceil(top_fraction * E) edges,
    every edge tied with the lightest of them kept."""
    if not weights:
        return {}
    k = math.ceil(Fraction(str(top_fraction)) * len(weights))
    cutoff = sorted(weights.values(), reverse=True)[k - 1]
    return {e: w for e, w in weights.items() if w >= cutoff}


def metagraph_from_edges(edges, weight=Fraction(1)):
    weights = {}
    for item in edges:
        if len(item) == 3:
            u, v, w = item
        else:
            (u, v), w = item, weight
        weights[(min(u, v), max(u, v))] = w
    return Metagraph.from_weights(weights)


# ---------------------------------------------------------------------------
# Distribution samplers (generation oracles for the fitting machinery)
# ---------------------------------------------------------------------------

def sample_discrete_power_law(alpha, n, seed, xmin=1, table_max=2_000_000):
    """Inverse-CDF sampling of P(x) ~ x^-alpha / zeta(alpha, xmin) on
    integers >= xmin. Mass beyond table_max (~1e-5 at alpha=1.8) clamps."""
    xs = np.arange(xmin, table_max + 1, dtype=np.int64)
    cdf = 1.0 - zeta(alpha, xs + 1) / zeta(alpha, xmin)
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(cdf, rng.random(n), side="left")
    return xs[np.minimum(idx, xs.size - 1)]


def sample_discrete_exponential(lam, n, seed, xmin=1):
    """Geometric sampling of P(x) ~ exp(-lam*x) on integers >= xmin."""
    rng = np.random.default_rng(seed)
    return xmin - 1 + rng.geometric(p=-math.expm1(-lam), size=n)


def poisson_baseline_oracle(category_map, k, trials, seed):
    """Per-size richness baseline: a fresh ``default_rng([seed, trial])``
    for every (size, trial), richness counted with ``np.unique``."""
    sites = sorted(category_map)
    labels = np.array([category_map[s] for s in sites])
    codes = np.unique(labels, return_inverse=True)[1]
    total = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        picked = rng.choice(len(sites), size=k, replace=False)
        total += len(np.unique(codes[picked]))
    return total / trials


def hypergeometric_expected_richness(category_counts, k):
    """Closed-form E[distinct categories] for k draws without replacement,
    one exact term per category: sum_c 1 - C(n - m_c, k) / C(n, k)."""
    n_total = sum(category_counts)
    return sum(1 - Fraction(math.comb(n_total - c, k), math.comb(n_total, k))
               for c in category_counts)


def enumerated_expected_richness(category_map, k):
    """Mean richness over every k-subset of the labeled sites, exactly."""
    labels = [category_map[s] for s in sorted(category_map)]
    subsets = list(itertools.combinations(labels, k))
    return Fraction(sum(len(set(subset)) for subset in subsets), len(subsets))


# ---------------------------------------------------------------------------
# Crawl fixtures
# ---------------------------------------------------------------------------

def fixture_corpus():
    """50 synthetic crawl records embedding every ID kind across HTML,
    request URLs and cookies, plus the documented false-positive shapes.

    Returns (records, manifest) where manifest maps
    domain -> kind -> {canonical key -> set of source names}. The manifest
    is written by hand alongside the pages; extraction must reproduce it
    exactly for 100% precision and recall.
    """
    records = []
    manifest = {}

    def add(i, html="", requests=(), cookies=(), expect=None, rank=None):
        domain = f"site{i:02d}.example"
        records.append(
            CrawlRecord(
                requested_domain=domain,
                landing_domain=domain,
                page_text=html,
                request_urls=tuple(requests),
                cookies=tuple(cookies),
                rank=rank,
            )
        )
        manifest[domain] = expect or {}

    # Plain single-ID sites across all kinds and channels.
    add(0, html='<script data-ad-client="ca-pub-100000000001"></script>',
        expect={"publisher": {"pub-100000000001": {"html"}}}, rank=10)
    add(1, requests=["https://pagead2.googlesyndication.com/pagead/js/adsbygoogle.js?client=ca-pub-100000000002"],
        expect={"publisher": {"pub-100000000002": {"request"}}}, rank=20)
    add(2, html="ga('create', 'UA-20000002-1', 'auto');",
        expect={"tracking": {"UA-20000002": {"html"}}}, rank=30)
    add(3, requests=["https://www.google-analytics.com/collect?tid=UA-20000003-1"],
        expect={"tracking": {"UA-20000003": {"request"}}}, rank=40)
    add(4, cookies=[("__utma", "UA-20000004-2")],
        expect={"tracking": {"UA-20000004": {"cookie"}}}, rank=50)
    add(5, html="gtag('config', 'G-AB12CD34');",
        expect={"measurement": {"G-AB12CD34": {"html"}}}, rank=60)
    add(6, requests=["https://www.googletagmanager.com/gtag/js?id=G-EF56GH78"],
        expect={"measurement": {"G-EF56GH78": {"request"}}}, rank=70)
    add(7, html="<iframe src='ns.html?id=GTM-AAA111'></iframe>",
        expect={"container": {"GTM-AAA111": {"html"}}}, rank=80)
    add(8, requests=["https://www.googletagmanager.com/gtm.js?id=GTM-BBB222"],
        expect={"container": {"GTM-BBB222": {"request"}}}, rank=90)

    # Same Tracking account seen in two channels with different properties.
    add(9, html="ga('create', 'UA-20000009-1');",
        cookies=[("_tracker", "UA-20000009-2")],
        expect={"tracking": {"UA-20000009": {"html", "cookie"}}}, rank=100)

    # Multi-kind sites.
    add(10, html='ca-pub-100000000010 and gtag("config", "G-MULTI778")',
        requests=["https://www.googletagmanager.com/gtm.js?id=GTM-CCC333"],
        expect={"publisher": {"pub-100000000010": {"html"}},
                "measurement": {"G-MULTI778": {"html"}},
                "container": {"GTM-CCC333": {"request"}}}, rank=110)
    add(11, html="UA-20000011-1 UA-20000012-4",
        expect={"tracking": {"UA-20000011": {"html"}, "UA-20000012": {"html"}}}, rank=120)

    # Shared publisher across three sites (one co-ownership cluster).
    for j, i in enumerate((12, 13, 14)):
        add(i, html='<script>adsbygoogle client="ca-pub-777777777"</script>',
            requests=[f"https://site{i:02d}.example/asset{j}.js"],
            expect={"publisher": {"pub-777777777": {"html"}}}, rank=130 + 10 * j)

    # Shared analytics pair.
    for i in (15, 16):
        add(i, html="ga('create', 'UA-88888888-1', 'auto');",
            expect={"tracking": {"UA-88888888": {"html"}}}, rank=200 + i)

    # False positives that the filters must drop, next to one real key.
    add(17, html="Buy a G-BACKPACK today! gtag('config','G-REAL1234');",
        expect={"measurement": {"G-REAL1234": {"html"}}}, rank=300)
    add(18, html="promo G-APRIL2020 banner", expect={}, rank=310)
    add(19, html="GTM-NOODLE is on the menu", expect={}, rank=320)
    add(20, html="GTM-SALE2020 everything must go", expect={}, rank=330)

    # Boundary-rule negatives: embedded in longer tokens, or too short.
    add(21, html="XG-ABCDEFG is not an id", expect={}, rank=340)
    add(22, html="version pub-12345678 (too short) and UA-123-4", expect={}, rank=350)
    add(23, html="GTM-AB12 gtm-abc123 ua-4444-4", expect={}, rank=360)
    add(24, html="datapub-999999999 mid-token", expect={}, rank=370)
    add(25, html="pub-12345678901 contains no shorter id",
        expect={"publisher": {"pub-12345678901": {"html"}}}, rank=380)

    # Cookie-name scanning.
    add(26, cookies=[("UA-20000026-1", "on")],
        expect={"tracking": {"UA-20000026": {"cookie"}}}, rank=390)

    # Empty page (failed render) and request-only site.
    add(27, expect={}, rank=400)
    add(28, requests=["https://cdn.example/lib.js"], expect={}, rank=410)

    # A site with many tracking accounts (anomaly material).
    many = {f"UA-3{i:07d}": {"html"} for i in range(45)}
    add(29, html=" ".join(f"UA-3{i:07d}-1" for i in range(45)),
        expect={"tracking": many}, rank=420)

    # Bulk of ordinary single-publisher sites, each unique.
    for i in range(30, 50):
        add(i, html=f'<ins class="adsbygoogle" data-ad-client="ca-pub-10000000{i:04d}"></ins>',
            requests=[f"https://pagead2.googlesyndication.com/js?client=ca-pub-10000000{i:04d}"],
            expect={"publisher": {f"pub-10000000{i:04d}": {"html", "request"}}},
            rank=500 + i)

    return records, manifest


def profiles_to_manifest(profiles):
    """Project extracted profiles into the manifest shape for comparison."""
    out = {}
    for p in profiles:
        entry = {}
        for kind, keys in p.keys.items():
            entry[kind.value] = {
                key: {s.value for s in p.sources.get(key, frozenset())} for key in keys
            }
        out[p.landing_domain] = entry
    return out


def scale_corpus_lines(n_sites, seed=99):
    """n_sites synthetic crawl JSONL lines with realistic sharing structure.

    Sites 0 and 1 of every block of 50 form a co-owned pair sharing a
    publisher key (odd blocks also share an analytics account, giving two
    pruning weight tiers); ~5% of sites carry one intermediary analytics
    key that intermediary exclusion must strip; the rest carry unique IDs
    or none, mixed by a seeded RNG.
    """
    rng = random.Random(seed)
    lines = []
    for i in range(n_sites):
        domain = f"s{i:06d}.example"
        block, offset = divmod(i, 50)
        html_parts = ["<html><body>content"]
        requests = [f"https://{domain}/app.js"]
        cookies = []
        if offset in (0, 1):
            html_parts.append(f'data-ad-client="ca-pub-5550{block:08d}"')
            if block % 2 == 1:
                html_parts.append(f"ga('create','UA-7{block:06d}-1')")
        roll = rng.random()
        if roll < 0.05:
            requests.append("https://www.google-analytics.com/collect?tid=UA-99999999-9")
        elif roll < 0.13:
            html_parts.append(f'data-ad-client="ca-pub-9000{i:08d}"')
        if 0.13 <= roll < 0.55:
            html_parts.append(f"gtag('config','UA-8{i:06d}-1')")
            cookies.append({"name": "_tracker", "value": f"UA-8{i:06d}-2"})
        if 0.55 <= roll < 0.70:
            html_parts.append(f"gtag('config','G-Z{i:06d}X')")
        if 0.70 <= roll < 0.80:
            html_parts.append(f"gtm.start id=GTM-Q{i:06d}")
        html_parts.append("</body></html>")
        lines.append(
            json.dumps(
                {
                    "domain": domain,
                    "landing_url": f"https://{domain}/",
                    "html": " ".join(html_parts),
                    "requests": requests,
                    "cookies": cookies,
                    "rank": i + 1,
                }
            )
        )
    return lines
