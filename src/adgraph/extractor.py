"""Publisher-specific ID detection in page text, request URLs and cookies.

Four identifier kinds are recognized, each with a fixed, case-sensitive
shape:

    Publisher    pub-[0-9]{9,}        ad-revenue account
    Tracking     UA-[0-9]{4,}-[0-9]+  legacy analytics property (account prefix)
    Measurement  G-[A-Z0-9]{7,}       current analytics property
    Container    GTM-[A-Z0-9]{6,}     tag-manager container

A match embedded in a longer token is rejected: the character before a
match must not be alphanumeric, and the character after it must not extend
the pattern's final character class. Two data-driven filters remove false
positives: a Measurement or Container value whose text after the hyphen is
a dictionary word, in any case, and any raw value listed verbatim in the
keyword blocklist. The surviving values are then canonicalized and
aggregated into per-site profiles. ``extract_profile`` is the one scan and
filter path.

Each pattern starts with its literal prefix on purpose, with the boundary
lookbehind placed after it: CPython's ``re`` then jumps from one occurrence
of the prefix to the next, whereas a leading lookbehind (or one alternation
of all four patterns) makes it try a match at every character of the text.
"""

from __future__ import annotations

import enum
import itertools
import json
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, NamedTuple

from .corpus import (
    CrawlRecord,
    FormatError,
    PublicSuffixTable,
    _crawl_records,
    _read_data_file,
)


# Definition order fixes the reporting order everywhere downstream.
class IdKind(enum.Enum):
    PUBLISHER = "publisher"
    TRACKING = "tracking"
    MEASUREMENT = "measurement"
    CONTAINER = "container"

    # Enum's own hash is hash(name), computed in Python on every dict or set
    # lookup. Members are singletons compared by identity, so the identity
    # hash fits them as well and runs in C. Neither hash is stable across
    # processes, so no output may depend on the order of a set of members.
    __hash__ = object.__hash__


class Source(enum.Enum):
    HTML = "html"
    REQUEST = "request"
    COOKIE = "cookie"

    __hash__ = object.__hash__  # see IdKind


# The lookbehind follows the prefix and spans it, so it tests the character
# before the match, exactly as a leading (?<![0-9A-Za-z]) would.
PATTERNS: dict[IdKind, re.Pattern[str]] = {
    IdKind.PUBLISHER: re.compile(r"pub-(?<![0-9A-Za-z]pub-)[0-9]{9,}(?![0-9])"),
    IdKind.TRACKING: re.compile(r"UA-(?<![0-9A-Za-z]UA-)[0-9]{4,}-[0-9]+(?![0-9])"),
    IdKind.MEASUREMENT: re.compile(r"G-(?<![0-9A-Za-z]G-)[A-Z0-9]{7,}(?![A-Z0-9])"),
    IdKind.CONTAINER: re.compile(r"GTM-(?<![0-9A-Za-z]GTM-)[A-Z0-9]{6,}(?![A-Z0-9])"),
}

# The kinds whose values can be English words after the hyphen.
_WORD_KINDS = frozenset({IdKind.MEASUREMENT, IdKind.CONTAINER})


def canonical_key(value: str, kind: IdKind) -> str:
    """Tracking values collapse to their account prefix; others pass through."""
    if kind is IdKind.TRACKING:
        return "UA-" + value.split("-")[1]
    return value


def load_dictionary(path: str | Path | None = None) -> frozenset[str]:
    """One lowercase word per line; defaults to the packaged seed list."""
    text = _read_data_file(path, "english_words.txt")
    return frozenset(w.strip().lower() for w in text.splitlines() if w.strip())


def load_blocklist(path: str | Path | None = None) -> frozenset[str]:
    """One raw value per line, '#' comments allowed; defaults to the
    packaged seed list."""
    text = _read_data_file(path, "keyword_blocklist.txt")
    values = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            values.add(line)
    return frozenset(values)


# ---------------------------------------------------------------------------
# Per-site profiles
# ---------------------------------------------------------------------------

# The profile JSON codec works from these tables, so it runs no Enum code
# per profile: each kind with its JSON name, and each of the 8 source
# combinations as its sorted JSON names, mapped to one shared frozenset and
# back. Every decoded profile shares those frozensets.
_KIND_NAMES: tuple[tuple[IdKind, str], ...] = tuple((kind, kind.value) for kind in IdKind)
_SOURCE_SETS: dict[tuple[str, ...], frozenset[Source]] = {
    names: frozenset(map(Source, names))
    for size in range(len(Source) + 1)
    for names in itertools.combinations(sorted(s.value for s in Source), size)
}
_SOURCE_NAMES: dict[frozenset[Source], tuple[str, ...]] = {v: k for k, v in _SOURCE_SETS.items()}
_NO_SOURCES = _SOURCE_SETS[()]
# Each shared source set joined with one more channel, as a shared set.
_WITH_SOURCE: dict[tuple[frozenset[Source], Source], frozenset[Source]] = {
    (combo, source): _SOURCE_SETS[_SOURCE_NAMES[combo | {source}]]
    for combo in _SOURCE_NAMES
    for source in Source
}
# Kinds enter a profile in name order, whichever channel finds them first.
_KINDS_BY_NAME: tuple[IdKind, ...] = tuple(sorted(IdKind, key=lambda kind: kind.value))
_NO_ENTRIES: dict = {}  # the default of a missing JSON object; never written to


def _source_set(key: str, names: list) -> frozenset[Source]:
    """The shared source set of a list that is not sorted JSON names.

    An unknown, non-string or unhashable name raises ``Source()``'s own
    ValueError; a name given twice raises ValueError too.
    """
    members = [Source(name) for name in names]
    combo = _SOURCE_SETS[tuple(sorted(m.value for m in set(members)))]
    if len(combo) != len(members):
        raise ValueError(f"the sources of {key} repeat a name")
    return combo


@dataclass(slots=True)
class SiteIdProfile:
    """Validated identifier keys found on one site, with provenance."""

    landing_domain: str
    keys: dict[IdKind, frozenset[str]] = field(default_factory=dict)
    sources: dict[str, frozenset[Source]] = field(default_factory=dict)
    raw_counts: dict[IdKind, int] = field(default_factory=dict)

    def keys_for(self, kind: IdKind) -> frozenset[str]:
        return self.keys.get(kind, frozenset())

    def total_keys(self) -> int:
        return sum(len(v) for v in self.keys.values())

    def is_empty(self) -> bool:
        return not any(self.keys.values())

    def to_json_obj(self) -> dict:
        keys, sources, counts = self.keys, self.sources, self.raw_counts
        ids: dict[str, dict[str, list[str]]] = {}
        raw_counts: dict[str, int] = {}
        for kind, name in _KIND_NAMES:
            entry = ids[name] = {}
            for key in sorted(keys.get(kind, ())):
                entry[key] = list(_SOURCE_NAMES[sources.get(key, frozenset())])
            raw_counts[name] = counts.get(kind, 0)
        return {"domain": self.landing_domain, "ids": ids, "raw_counts": raw_counts}

    @classmethod
    def from_json_obj(cls, obj: object) -> "SiteIdProfile":
        """The inverse of ``to_json_obj``. Raises ValueError unless ``obj`` is
        an object with a string ``domain``, ``ids`` maps each kind to an
        object of key -> list of distinct source names, and every
        ``raw_counts`` value is something ``int()`` accepts."""
        return cls(*_profile_fields(obj))


# (domain, keys, sources, raw_counts): the arguments of SiteIdProfile.
_ProfileFields = tuple[str, dict[IdKind, frozenset[str]], dict[str, frozenset[Source]],
                       dict[IdKind, int]]


def _whole_number(value: object) -> int:
    """``int(value)``, unless that drops a fraction: "3", 2.0 and true are
    whole numbers, and 2.7 raises ValueError as "x" does."""
    number = int(value)
    if isinstance(value, float) and number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _profile_fields(obj: object) -> _ProfileFields:
    """The domain, keys, sources and raw counts of one profile JSON object,
    after the checks ``SiteIdProfile.from_json_obj`` documents: every reader
    of profile lines rejects the same lines with the same messages."""
    if not isinstance(obj, dict) or not isinstance(obj.get("domain"), str):
        raise ValueError("not a profile object with a string domain")
    ids, counts = obj.get("ids", _NO_ENTRIES), obj.get("raw_counts", _NO_ENTRIES)
    if not isinstance(ids, dict) or not isinstance(counts, dict):
        raise ValueError("ids and raw_counts must be objects")
    keys: dict[IdKind, frozenset[str]] = {}
    sources: dict[str, frozenset[Source]] = {}
    raw_counts: dict[IdKind, int] = {}
    for kind, name in _KIND_NAMES:
        entry = ids.get(name, _NO_ENTRIES)
        if not isinstance(entry, dict):
            raise ValueError(f"ids.{name} is not an object")
        if entry:
            keys[kind] = frozenset(entry)
            for key, srcs in entry.items():
                if not isinstance(srcs, list):
                    raise ValueError(f"the sources of {key} are not a list")
                try:
                    sources[key] = _SOURCE_SETS[tuple(srcs)]
                except (KeyError, TypeError):  # unsorted, repeated or bad names
                    sources[key] = _source_set(key, srcs)
        count = counts.get(name, 0)
        if type(count) is not int:
            try:
                count = _whole_number(count)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"raw_counts.{name} is not an integer") from None
        if count:
            raw_counts[kind] = count
    return obj["domain"], keys, sources, raw_counts


def extract_profile(
    record: CrawlRecord,
    dictionary: frozenset[str] | set[str],
    blocklist: frozenset[str] | set[str],
) -> SiteIdProfile:
    """Scan one record for the four ID kinds, drop dictionary words and
    blocklisted values, and fold the rest into canonical keys.

    Each channel is one findall per kind. Request URLs, and cookie names
    and values, are scanned joined by newlines: no pattern matches a
    newline, and every boundary check treats it as the edge of a string,
    so each text keeps its own matches.

    raw_counts tally every filtered match occurrence per kind, before
    canonical merging.
    """
    found: dict[IdKind, set[str]] = {}
    sources: dict[str, frozenset[Source]] = {}
    counts: dict[IdKind, int] = {}
    for source, text in (
        (Source.HTML, record.page_text),
        (Source.REQUEST, "\n".join(record.request_urls)),
        (Source.COOKIE, "\n".join(itertools.chain.from_iterable(record.cookies))),
    ):
        if not text:
            continue
        for kind, pattern in PATTERNS.items():
            values = pattern.findall(text)
            if values:
                values = [v for v in values if v not in blocklist and not (
                    kind in _WORD_KINDS and v.split("-", 1)[1].lower() in dictionary)]
            if not values:
                continue
            counts[kind] = counts.get(kind, 0) + len(values)
            if kind is IdKind.TRACKING:
                values = [canonical_key(value, kind) for value in values]
            found.setdefault(kind, set()).update(values)
            for key in values:
                sources[key] = _WITH_SOURCE[sources.get(key, _NO_SOURCES), source]
    return SiteIdProfile(
        landing_domain=record.landing_domain,
        keys={kind: frozenset(found[kind]) for kind in _KINDS_BY_NAME if kind in found},
        sources=sources,
        raw_counts={kind: counts[kind] for kind in _KINDS_BY_NAME if kind in counts},
    )


_UNRANKED = float("inf")  # the rank key of a rank-less record


def _keyed(profile: SiteIdProfile) -> SiteIdProfile | None:
    return None if profile.is_empty() else profile


class CrawlExtraction(NamedTuple):
    """What ``extract_crawl`` keeps of a crawl."""

    profiles: list[SiteIdProfile]  # non-empty profiles, sorted by domain
    site_ranks: dict[str, int]  # landing domain -> its survivor's rank
    site_count: int  # distinct landing domains
    skips: list[tuple[int, str]]  # (line number, reason) of malformed lines


def extract_crawl(
    lines: IO[str] | Iterable[str],
    ranks: Mapping[str, int] | None = None,
    dictionary: frozenset[str] | set[str] | None = None,
    blocklist: frozenset[str] | set[str] | None = None,
    table: PublicSuffixTable | None = None,
) -> CrawlExtraction:
    """Crawl JSONL straight to profiles, in one pass that keeps no record.

    A record's rank is ``ranks[requested domain]``, else its JSONL
    ``rank``. Each landing domain keeps one survivor: the record of
    smallest rank, a rank-less record losing to any ranked one and a tie
    keeping the earlier line. A record is extracted as its line is read,
    and only if it beats the survivor so far, so memory grows with the
    landing domains kept, not with the page bytes. A survivor without keys
    is kept as None, since it only counts towards ``site_count``.
    """
    if ranks is None:
        ranks = {}
    if dictionary is None:
        dictionary = load_dictionary()
    if blocklist is None:
        blocklist = load_blocklist()
    skips: list[tuple[int, str]] = []
    # landing domain -> (rank or _UNRANKED, rank, profile or None)
    survivors: dict[str, tuple[float, int | None, SiteIdProfile | None]] = {}
    for record in _crawl_records(lines, table, skips):
        rank = ranks.get(record.requested_domain, record.rank)
        rank_key = _UNRANKED if rank is None else rank
        current = survivors.get(record.landing_domain)
        if current is None or rank_key < current[0]:
            profile = _keyed(extract_profile(record, dictionary, blocklist))
            survivors[record.landing_domain] = (rank_key, rank, profile)
    profiles = sorted(
        (entry[2] for entry in survivors.values() if entry[2] is not None),
        key=lambda p: p.landing_domain,
    )
    site_ranks = {domain: entry[1] for domain, entry in survivors.items() if entry[1] is not None}
    return CrawlExtraction(profiles, site_ranks, len(survivors), skips)


# ---------------------------------------------------------------------------
# Corpus summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KindSummary:
    unique_ids: int
    unique_sites: int
    pct_of_sites: float
    pct_in_html: float
    pct_in_requests: float
    pct_in_cookies: float


_ANOMALY_THRESHOLD = 40  # distinct keys a site may carry before it is flagged


@dataclass(frozen=True)
class ExtractionSummary:
    corpus_size: int
    kinds: dict[IdKind, KindSummary]
    anomalies: list[tuple[str, int]]  # (domain, distinct keys), heaviest first

    def to_json_obj(self) -> dict:
        return {
            "corpus_size": self.corpus_size,
            "kinds": {kind.value: asdict(ks) for kind, ks in self.kinds.items()},
            "anomalies": [{"domain": d, "distinct_keys": n} for d, n in self.anomalies],
        }


def summarize_extraction(
    profiles: Iterable[SiteIdProfile],
    corpus_size: int,
    anomaly_threshold: int = _ANOMALY_THRESHOLD,
) -> ExtractionSummary:
    """Per-kind ID counts, site coverage and source-channel shares, and the
    anomalies, from one walk over ``profiles``; empty profiles are skipped.

    Channel shares are fractions of the kind's unique keys whose source set
    (unioned across sites) includes that channel. Anomalies are the sites
    whose distinct keys across all kinds strictly exceed the threshold,
    heaviest first and ties by domain. High counts tend to indicate
    scripted or abusive ID stuffing rather than ordinary multi-author
    sites.
    """
    if corpus_size <= 0:
        raise ValueError("corpus_size must be positive")
    if anomaly_threshold < 1:
        raise ValueError("threshold must be >= 1")
    key_sources_of: dict[IdKind, dict[str, set[Source]]] = {kind: {} for kind in IdKind}
    sites_of = dict.fromkeys(IdKind, 0)
    domains: set[str] = set()
    anomalies: list[tuple[str, int]] = []
    for p in profiles:
        if p.is_empty():
            continue
        domains.add(p.landing_domain)
        for kind, ks in p.keys.items():
            if ks:
                sites_of[kind] += 1
                key_sources = key_sources_of[kind]
                for key in ks:
                    key_sources.setdefault(key, set()).update(p.sources.get(key, _NO_SOURCES))
        if p.total_keys() > anomaly_threshold:
            anomalies.append((p.landing_domain, p.total_keys()))
    if len(domains) > corpus_size:
        raise ValueError("more profiled sites than corpus_size")
    anomalies.sort(key=lambda t: (-t[1], t[0]))
    kinds: dict[IdKind, KindSummary] = {}
    for kind, key_sources in key_sources_of.items():
        n_ids, sites = len(key_sources), sites_of[kind]
        channels = list(itertools.chain.from_iterable(key_sources.values()))
        kinds[kind] = KindSummary(
            unique_ids=n_ids,
            unique_sites=sites,
            pct_of_sites=sites / corpus_size,
            pct_in_html=channels.count(Source.HTML) / (n_ids or 1),
            pct_in_requests=channels.count(Source.REQUEST) / (n_ids or 1),
            pct_in_cookies=channels.count(Source.COOKIE) / (n_ids or 1),
        )
    return ExtractionSummary(corpus_size=corpus_size, kinds=kinds, anomalies=anomalies)


# ---------------------------------------------------------------------------
# Profile dumps (JSONL, one profile per line)
# ---------------------------------------------------------------------------

_encode_json = json.JSONEncoder(sort_keys=True).encode  # json.dumps(obj, sort_keys=True)


def dump_profiles(profiles: Iterable[SiteIdProfile], stream: IO[str]) -> None:
    for p in sorted(profiles, key=lambda p: p.landing_domain):
        stream.write(_encode_json(p.to_json_obj()) + "\n")


# JSON's own whitespace; str.isspace() also accepts "\x0c", "\u2028" and more.
_JSON_SPACE = " \t\n\r"
_decode_json_prefix = json.JSONDecoder().raw_decode


def _parse_json_line(line: str) -> object:
    """``json.loads(line)``, without its whitespace scans for a line that
    starts with its value: about 0.5 us less a line, 13% of loading a
    snapshot. Anything else goes to ``json.loads`` itself, so the errors
    are its own."""
    try:
        obj, end = _decode_json_prefix(line)
    except ValueError:
        return json.loads(line)
    if line[end:].strip(_JSON_SPACE):
        return json.loads(line)
    return obj


def _read_profile_lines(source: str | Path | IO[str]) -> Iterator[_ProfileFields]:
    """``_profile_fields`` of each profile line of a JSONL file or stream,
    in file order; blank lines are skipped.

    A line that is not one JSON value, that ``_profile_fields`` rejects, or
    whose domain an earlier line already holds, raises FormatError naming
    the file and the 1-based line.
    """
    if not hasattr(source, "read"):
        with open(source, encoding="utf-8") as fh:
            yield from _read_profile_lines(fh)
        return
    name = getattr(source, "name", "profiles stream")
    first_line: dict[str, int] = {}
    for line_no, line in enumerate(source, start=1):
        if line.isspace():
            continue
        try:
            # The parsed line dies within this expression, so the next line's
            # parse reuses its memory and consecutive lines' fields stay close.
            fields = _profile_fields(_parse_json_line(line))
        except ValueError as exc:  # json.JSONDecodeError included
            raise FormatError(f"{name}: line {line_no}: {exc}") from None
        first = first_line.setdefault(fields[0], line_no)
        if first != line_no:
            raise FormatError(f"{name}: line {line_no}: domain {fields[0]} repeats line {first}")
        yield fields


def iter_profiles(source: str | Path | IO[str]) -> Iterator[SiteIdProfile]:
    """Profiles from a JSONL file or stream, one per line as it is read;
    blank lines are skipped. A path is opened at the first ``next()``.

    A line that is not JSON, that ``SiteIdProfile.from_json_obj`` rejects,
    or whose domain an earlier line already holds, raises FormatError
    naming the file and the 1-based line.
    """
    for fields in _read_profile_lines(source):
        yield SiteIdProfile(*fields)
