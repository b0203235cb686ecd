"""Crawl-data ingestion and domain canonicalization.

Normalizes crawl dumps (JSONL or HAR), Tranco-style rank lists and
domain-category CSVs into an immutable record model keyed by the
registrable landing domain (public suffix + one label).
"""

from __future__ import annotations

import ipaddress
import json
import logging
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import IO, Iterable, Iterator
from urllib.parse import urlsplit

logger = logging.getLogger(__name__)


class CanonicalizationError(ValueError):
    """Input cannot be reduced to a registrable domain."""


class FormatError(ValueError):
    """Structurally invalid input file (e.g. a HAR without log.entries)."""


def _read_data_file(path: str | Path | None, default_name: str) -> str:
    """The text of ``path``, or of the packaged data file ``default_name``
    when ``path`` is None."""
    if path is None:
        return resources.files("adgraph.data").joinpath(default_name).read_text(encoding="utf-8")
    return Path(path).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Public suffix handling
# ---------------------------------------------------------------------------

_EXACT, _WILDCARD, _EXCEPTION = 1, 2, 4  # rule kinds of one suffix, as bits


class PublicSuffixTable:
    """Public-suffix rules in the standard list format.

    Supports exact rules, leftmost ``*.`` wildcards and ``!`` exceptions,
    with the implicit ``*`` default rule (unknown TLDs are public suffixes).
    """

    def __init__(self, rules: Iterable[str]):
        # Dotted suffix -> the kinds of rule written for it ("*.foo" is a
        # wildcard on "foo", "!a.foo" an exception on "a.foo"). Every
        # shorter suffix of a rule maps too, to 0 when no rule is written
        # for it, so a walk from the last label can stop at the first miss.
        self._rules: dict[str, int] = {}
        for raw in rules:
            rule = raw.strip()
            if not rule or rule.startswith("//"):
                continue
            rule = rule.split()[0].lower()
            if rule.startswith("!"):
                kind, rule = _EXCEPTION, rule[1:]
            elif rule.startswith("*."):
                kind, rule = _WILDCARD, rule[2:]
            else:
                kind = _EXACT
            self._rules[rule] = self._rules.get(rule, 0) | kind
            labels = rule.split(".")
            for i in range(1, len(labels)):
                self._rules.setdefault(".".join(labels[i:]), 0)

    @classmethod
    def load(cls, path: str | Path | None = None) -> "PublicSuffixTable":
        """Load from ``path``, or from the packaged snapshot when omitted."""
        return cls(_read_data_file(path, "public_suffix_list.dat").splitlines())

    def registrable_domain(self, host: str) -> str:
        """Public suffix plus one label; the host itself when it already is
        a bare public suffix (no registrable part exists).

        The walk takes ever longer suffixes. The longest exception, less
        its leftmost label, is the public suffix; otherwise the longest
        exact match, or a wildcard on the suffix one label shorter, is;
        otherwise the implicit "*" rule gives one label.
        """
        return self._registrable(host.lower().split("."))

    def _registrable(self, labels: list[str]) -> str:
        """``registrable_domain`` of the host with these lower-case labels."""
        rules = self._rules
        best, exception, wildcard = 1, 0, 0
        n, tail = 0, None
        for label in reversed(labels):
            n += 1
            tail = label if tail is None else label + "." + tail
            if wildcard:  # "*.foo" matches one extra label in front of foo
                best = n
            kinds = rules.get(tail)
            if kinds is None:  # no rule ends with this suffix
                break
            if kinds & _EXCEPTION:
                exception = n
            if kinds & _EXACT:
                best = n
            wildcard = kinds & _WILDCARD
        if exception:
            best = exception - 1
        return ".".join(labels[-best - 1:])


_default_table: PublicSuffixTable | None = None


def default_suffix_table() -> PublicSuffixTable:
    global _default_table
    if _default_table is None:
        _default_table = PublicSuffixTable.load()
    return _default_table


def _is_ip_literal(host: str) -> bool:
    # An IPv6 literal has a colon and an IPv4 literal only ASCII digits and
    # dots; skipping the parse for every other host avoids a raised
    # ValueError per domain.
    if ":" not in host and host.strip("0123456789."):
        return False
    try:
        ipaddress.ip_address(host)
        return True
    except ValueError:
        return False


# A URL whose host is plain ASCII and ends at the first "/", "?" or "#": for
# it, ``urlsplit(s).hostname`` is the host lowercased, so one match finds it.
_PLAIN_URL = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://([A-Za-z0-9.-]+)(?:[/?#]|\Z)")


def canonicalize(url_or_host: str, table: PublicSuffixTable | None = None) -> str:
    """Reduce a URL or hostname to its lowercase registrable domain.

    IP literals pass through unchanged. Raises CanonicalizationError on
    unparseable input (no extractable, well-formed hostname).
    """
    if not isinstance(url_or_host, str) or not url_or_host.strip():
        raise CanonicalizationError(f"empty or non-string input: {url_or_host!r}")
    s = url_or_host.strip()
    plain = _PLAIN_URL.match(s)
    if plain:
        host = plain[1]
    elif "://" in s or s.startswith("//"):
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
        elif host.count(":") == 1:  # host:port (bare IPv6 keeps its colons)
            host = host.split(":")[0]
    host = host.lower().rstrip(".")
    if not host:
        raise CanonicalizationError(f"empty hostname in: {s!r}")
    if _is_ip_literal(host):
        return host
    labels = host.split(".")
    if any(not lab or " " in lab for lab in labels):
        raise CanonicalizationError(f"malformed hostname: {host!r}")
    return (table or default_suffix_table())._registrable(labels)


# ---------------------------------------------------------------------------
# Record model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrawlRecord:
    """One crawled website: rendered text plus observed requests and cookies."""

    requested_domain: str
    landing_url: str
    landing_domain: str
    page_text: str = ""
    request_urls: tuple[str, ...] = ()
    cookies: tuple[tuple[str, str], ...] = ()
    rank: int | None = None
    snapshot_id: str | None = None


def _record_from_obj(obj: dict, table: PublicSuffixTable | None) -> CrawlRecord:
    domain = obj.get("domain")
    landing_url = obj.get("landing_url")
    if not isinstance(domain, str) or not domain:
        raise ValueError("missing or non-string 'domain'")
    if not isinstance(landing_url, str):
        raise ValueError("missing or non-string 'landing_url'")
    html = obj.get("html", "")
    if not isinstance(html, str):
        raise ValueError("'html' is not a string")
    requests = obj.get("requests", [])
    if not isinstance(requests, list) or any(not isinstance(u, str) for u in requests):
        raise ValueError("'requests' is not an array of strings")
    raw_cookies = obj.get("cookies", [])
    if not isinstance(raw_cookies, list):
        raise ValueError("'cookies' is not an array")
    cookies = []
    for c in raw_cookies:
        if not isinstance(c, dict) or "name" not in c or "value" not in c:
            raise ValueError("cookie entries need 'name' and 'value'")
        name, value = c["name"], c["value"]
        if not isinstance(name, str) or not isinstance(value, str):
            raise ValueError("cookie 'name' and 'value' must be strings")
        cookies.append((name, value))
    rank = obj.get("rank")
    if rank is not None and (not isinstance(rank, int) or isinstance(rank, bool) or rank < 1):
        raise ValueError("'rank' must be a positive integer")
    snapshot = obj.get("snapshot")
    if snapshot is not None and not isinstance(snapshot, str):
        raise ValueError("'snapshot' must be a string")

    # Landing domain from the landing URL; a failed render falls back to the
    # requested domain so the record still counts toward coverage totals.
    try:
        landing_domain = canonicalize(landing_url, table)
    except CanonicalizationError:
        landing_domain = canonicalize(domain, table)
    return CrawlRecord(
        requested_domain=domain.lower(),
        landing_url=landing_url,
        landing_domain=landing_domain,
        page_text=html,
        request_urls=tuple(requests),
        cookies=tuple(cookies),
        rank=rank,
        snapshot_id=snapshot,
    )


def _crawl_records(
    stream: IO[str] | Iterable[str],
    table: PublicSuffixTable | None,
    skips: list[tuple[int, str]],
) -> Iterator[CrawlRecord]:
    """Crawl JSONL records, one per well-formed line, in input order, each
    built as its line is read.

    Malformed lines never abort the stream; each is appended to ``skips``
    as ``(line_number, reason)``, and their count is logged once the
    stream ends.
    """
    for line_no, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped:
            skips.append((line_no, "empty line"))
            continue
        try:
            obj = json.loads(stripped)
            if not isinstance(obj, dict):
                raise ValueError("line is not a JSON object")
            record = _record_from_obj(obj, table)
        except (ValueError, CanonicalizationError) as exc:
            skips.append((line_no, str(exc)))
            continue
        yield record
    if skips:
        logger.warning("skipped %d malformed crawl line(s)", len(skips))


# ---------------------------------------------------------------------------
# HAR ingestion
# ---------------------------------------------------------------------------

def parse_har(source: str | Path | IO[str], table: PublicSuffixTable | None = None) -> CrawlRecord:
    """Build one CrawlRecord from a HAR 1.2 capture of a single page load.

    page_text is the body of the first successful (2xx) text/html response;
    request_urls lists every entry's request URL; cookies are the union of
    response cookie pairs, skipping any cookie that is not an object with a
    string name and a string value. A HAR without entries is a FormatError;
    a HAR without a document response yields an empty page_text.
    """
    if hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source, encoding="utf-8") as fh:
            data = json.load(fh)
    try:
        entries = data["log"]["entries"]
    except (KeyError, TypeError):
        raise FormatError("HAR is missing the log.entries section")
    if not isinstance(entries, list) or not entries:
        raise FormatError("HAR has no entries")

    request_urls: list[str] = []
    cookies: list[tuple[str, str]] = []
    seen_cookies: set[tuple[str, str]] = set()
    page_text = ""
    landing_url = ""
    for entry in entries:
        url = entry.get("request", {}).get("url", "")
        if url:
            request_urls.append(url)
        response = entry.get("response", {})
        status = response.get("status", 0)
        content = response.get("content", {})
        mime = content.get("mimeType", "")
        if not landing_url and url and 200 <= status < 300 and mime.startswith("text/html"):
            landing_url = url
            page_text = content.get("text", "") or ""
        for c in response.get("cookies", []):
            if not (isinstance(c, dict) and isinstance(c.get("name"), str)
                    and isinstance(c.get("value"), str)):
                continue  # as in crawl JSONL, a cookie needs a string name and value
            pair = (c["name"], c["value"])
            if pair not in seen_cookies:
                seen_cookies.add(pair)
                cookies.append(pair)
    if not landing_url:
        landing_url = request_urls[0] if request_urls else ""
    if not landing_url:
        raise FormatError("HAR entries carry no request URLs")
    host = urlsplit(landing_url).hostname or ""
    return CrawlRecord(
        requested_domain=host.lower(),
        landing_url=landing_url,
        landing_domain=canonicalize(landing_url, table),
        page_text=page_text,
        request_urls=tuple(request_urls),
        cookies=tuple(cookies),
    )


# ---------------------------------------------------------------------------
# Auxiliary loaders
# ---------------------------------------------------------------------------

def load_rank_list(path: str | Path) -> dict[str, int]:
    """Load a headerless ``rank,domain`` CSV into domain -> rank.

    Ranks are integers >= 1, as for the crawl JSONL ``rank``. Duplicate
    domains: last occurrence wins (warning logged with the count).
    """
    ranks: dict[str, int] = {}
    duplicates = 0
    with open(path, encoding="utf-8") as fh:
        for row_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",", 1)
            if len(parts) != 2 or not parts[0].strip().isdecimal():  # isdigit() passes "²"
                raise FormatError(f"{path}: malformed rank row {row_no}: {line!r}")
            rank, domain = int(parts[0]), parts[1].strip().lower()
            if rank < 1:
                raise FormatError(f"{path}: rank below 1 at row {row_no}: {line!r}")
            if not domain:
                raise FormatError(f"{path}: empty domain at row {row_no}")
            if domain in ranks:
                duplicates += 1
            ranks[domain] = rank
    if duplicates:
        logger.warning("%s: %d duplicate domain row(s), last occurrence kept", path, duplicates)
    if len(set(ranks.values())) != len(ranks):
        logger.warning("%s: rank values are not unique", path)
    return ranks


def load_category_map(path: str | Path) -> dict[str, str]:
    """Load a ``domain,category`` CSV into domain -> label. A first row of
    ``domain,category`` itself, in any case, is a header and is skipped."""
    categories: dict[str, str] = {}
    duplicates = 0
    first = True
    with open(path, encoding="utf-8") as fh:
        for row_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split(",", 1)
            header, first = first, False
            if header and [p.strip().lower() for p in parts] == ["domain", "category"]:
                continue
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise FormatError(f"{path}: malformed category row {row_no}: {line!r}")
            domain, label = parts[0].strip().lower(), parts[1].strip()
            if domain in categories:
                duplicates += 1
            categories[domain] = label
    if duplicates:
        logger.warning("%s: %d duplicate domain row(s), last occurrence kept", path, duplicates)
    return categories
