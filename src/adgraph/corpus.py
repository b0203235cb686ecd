"""Crawl-data ingestion, domain canonicalization and CSV tables.

Normalizes crawl dumps (JSONL or HAR) into an immutable record model keyed
by the registrable landing domain (public suffix + one label), and reads
every CSV input (Tranco-style rank lists, domain-category lists,
``metagraph.csv``, ``communities.csv``) under one set of table rules.
"""

from __future__ import annotations

import csv
import ipaddress
import itertools
import json
import logging
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import IO, Any, Callable, Hashable, Iterable, Iterator
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
    landing_domain: str
    page_text: str = ""
    request_urls: tuple[str, ...] = ()
    cookies: tuple[tuple[str, str], ...] = ()
    rank: int | None = None


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
    if not isinstance(obj.get("snapshot"), (str, type(None))):  # no stage reads it
        raise ValueError("'snapshot' must be a string")

    # Landing domain from the landing URL; a failed render falls back to the
    # requested domain so the record still counts toward coverage totals.
    try:
        landing_domain = canonicalize(landing_url, table)
    except CanonicalizationError:
        landing_domain = canonicalize(domain, table)
    return CrawlRecord(
        requested_domain=domain.lower(),
        landing_domain=landing_domain,
        page_text=html,
        request_urls=tuple(requests),
        cookies=tuple(cookies),
        rank=rank,
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

    The capture becomes the crawl JSONL object of its landing host and goes
    through the crawl line's validator. Its landing URL and page text are
    those of the first successful (2xx) text/html response, else the first
    request URL and no text; requests lists every entry's request URL, and
    cookies the union of response cookie pairs, skipping any that is not an
    object with a string name and a string value. Whatever the validator or
    a HAR check rejects, input that is not JSON included, is a FormatError.
    """
    try:
        if hasattr(source, "read"):
            data = json.load(source)
        else:
            with open(source, encoding="utf-8") as fh:
                data = json.load(fh)
    except ValueError as exc:
        raise FormatError(f"HAR is not JSON: {exc}") from None
    try:
        entries = data["log"]["entries"]
    except (KeyError, TypeError):
        raise FormatError("HAR is missing the log.entries section")
    if not isinstance(entries, list) or not entries:
        raise FormatError("HAR has no entries")

    request_urls: list[str] = []
    cookies: dict[tuple[str, str], None] = {}  # response cookie pairs, first seen first
    page_text = ""
    landing_url = ""
    for i, entry in enumerate(entries):
        request = entry.get("request", {}) if isinstance(entry, dict) else None
        response = entry.get("response", {}) if isinstance(entry, dict) else None
        content = response.get("content", {}) if isinstance(response, dict) else None
        if not all(isinstance(part, dict) for part in (request, response, content)):
            raise FormatError(f"HAR entry {i} or its request, response or content is not an object")
        url, mime = request.get("url", ""), content.get("mimeType", "")
        status, raw_cookies = response.get("status", 0), response.get("cookies", [])
        if not (isinstance(url, str) and isinstance(mime, str) and isinstance(raw_cookies, list)
                and isinstance(status, int) and not isinstance(status, bool)):
            raise FormatError(f"HAR entry {i}: url, mimeType, status or cookies of the wrong type")
        if url:
            request_urls.append(url)
        if not landing_url and url and 200 <= status < 300 and mime.startswith("text/html"):
            landing_url = url
            page_text = content.get("text", "") or ""
        for c in raw_cookies:
            if (isinstance(c, dict) and isinstance(c.get("name"), str)
                    and isinstance(c.get("value"), str)):
                cookies[c["name"], c["value"]] = None
    if not request_urls:
        raise FormatError("HAR entries carry no request URLs")
    landing_url = landing_url or request_urls[0]
    try:
        return _record_from_obj({
            "domain": urlsplit(landing_url).hostname or "",
            "landing_url": landing_url,
            "html": page_text,
            "requests": request_urls,
            "cookies": [{"name": name, "value": value} for name, value in cookies],
        }, table)
    except ValueError as exc:  # CanonicalizationError too
        raise FormatError(f"HAR: {exc}") from None


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def _read_table(
    source: str | Path | IO[str],
    header: list[str],
    entry: Callable[[list[str]], tuple[Hashable, Any]],
    noun: str,
    header_required: bool = True,
) -> dict[Any, Any]:
    """The (key, value) entries of a CSV file or stream, in row order.

    With ``header_required``, the first row must be ``header``; otherwise a
    first non-blank row that reads ``header``, in any case, is skipped.
    Every other non-blank row must have one field per column, and
    ``entry`` turns it into its key and value. A wrong header or width, a
    ValueError or ZeroDivisionError from ``entry``, or a key that an
    earlier row holds (``<noun> <key> repeats row <N>``) raises FormatError
    naming the file and the 1-based row.
    """
    if not hasattr(source, "read"):
        with open(source, encoding="utf-8", newline="") as fh:
            return _read_table(fh, header, entry, noun, header_required)
    name, reader = getattr(source, "name", "CSV stream"), csv.reader(source)
    if header_required and next(reader, None) != header:
        raise FormatError(f"{name}: expected header {','.join(header)}")
    rows = filter(None, reader)
    if not header_required:
        first = next(rows, None)
        if first is not None and [field.strip().lower() for field in first] != header:
            rows = itertools.chain([first], rows)
    width, row_of, table = len(header), {}, {}
    for row in rows:
        row_no = reader.line_num
        if len(row) != width:
            raise FormatError(f"{name}: row {row_no} has {len(row)} fields, expected {width}")
        try:
            key, value = entry(row)
            first_no = row_of.setdefault(key, row_no)
            if first_no != row_no:
                shown = key if isinstance(key, str) else ",".join(key)
                raise ValueError(f"{noun} {shown} repeats row {first_no}")
        except (ValueError, ZeroDivisionError) as exc:  # Fraction("1/0")
            raise FormatError(f"{name}: row {row_no}: {exc}") from None
        table[key] = value
    return table


def _domain(text: str) -> str:
    domain = text.strip().lower()
    if not domain:
        raise ValueError("empty domain")
    return domain


def _rank_entry(row: list[str]) -> tuple[str, int]:
    """The domain and rank of a ``rank,domain`` row."""
    text = row[0]
    rank = int(text)
    if rank < 1:
        raise ValueError(f"rank {rank} is below 1")
    if not text.strip().isdecimal():  # int() also reads "+5" and "1_0"
        raise ValueError(f"rank {text!r} is not decimal digits")
    return _domain(row[1]), rank


def _category_entry(row: list[str]) -> tuple[str, str]:
    """The domain and label of a ``domain,category`` row."""
    domain, label = _domain(row[0]), row[1].strip()
    if not label:
        raise ValueError("empty category")
    return domain, label


def load_rank_list(path: str | Path) -> dict[str, int]:
    """Load a ``rank,domain`` CSV, a crawl's rank list or ``site_ranks.csv``,
    into lowercased domain -> rank, under the rules of ``_read_table`` with
    an optional header. A rank is decimal digits, at least 1; ranks may tie,
    domains may not."""
    return _read_table(path, ["rank", "domain"], _rank_entry, "domain", header_required=False)


def load_category_map(path: str | Path) -> dict[str, str]:
    """Load a ``domain,category`` CSV into lowercased domain -> label, under
    the rules of ``_read_table`` with an optional header."""
    return _read_table(path, ["domain", "category"], _category_entry, "domain",
                       header_required=False)
