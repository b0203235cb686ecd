from __future__ import annotations

import io
import ipaddress
import json
import random
import re

import pytest

from adgraph.corpus import (
    CanonicalizationError,
    CrawlRecord,
    FormatError,
    PublicSuffixTable,
    _crawl_records,
    _is_ip_literal,
    _read_data_file,
    canonicalize,
    load_category_map,
    load_rank_list,
    parse_har,
)
from adgraph.cli import _read_communities_csv
from adgraph.extractor import IdKind, extract_profile
from adgraph.graphs import load_metagraph_csv
from helpers import (
    canonicalize_reference,
    crawl_jsonl,
    fixture_corpus,
    random_url_inputs,
    registrable_domain_reference,
)


# --- canonicalize -----------------------------------------------------------

def test_registrable_domain_under_multi_label_suffix():
    assert canonicalize("https://news.example.co.uk/a") == "example.co.uk"


def test_bare_hostname_is_lowercased():
    assert canonicalize("A.EXAMPLE") == "a.example"


def test_ip_literal_passes_through():
    assert canonicalize("203.0.113.7") == "203.0.113.7"
    assert canonicalize("http://203.0.113.7:8080/x") == "203.0.113.7"


def _parses_as_ip(host):
    try:
        ipaddress.ip_address(host)
        return True
    except ValueError:
        return False


def _fuzz_hosts(rng):
    def octet():
        return str(rng.choice([rng.randrange(256), rng.randrange(256, 1000), 0]))

    def ipv6():
        groups = [f"{rng.randrange(1 << 16):x}" for _ in range(8)]
        if rng.random() < 0.5:
            i, j = sorted(rng.sample(range(9), 2))
            return ":".join(groups[:i]) + "::" + ":".join(groups[j:])
        if rng.random() < 0.3:
            return ":".join(groups[:6]) + ":" + ".".join(octet() for _ in range(4))
        return ":".join(groups)

    makers = [
        lambda: ".".join(octet() for _ in range(rng.choice([3, 4, 4, 4, 5]))),
        lambda: ".".join(octet() for _ in range(4)) + "%eth0",
        ipv6,
        lambda: ipv6() + "%" + rng.choice(["eth0", "1", "", "é"]),
        lambda: "[" + ipv6() + "]",
        lambda: "".join(rng.choice("0123456789.") for _ in range(rng.randrange(1, 16))),
        lambda: str(rng.randrange(1 << 32)),
        lambda: ".".join(rng.choice(["١٢٣", "１", "²", "7", "٠"]) for _ in range(4)),
        lambda: rng.choice(["bücher", "xn--bcher-kva", "例え", "news"]) + "."
        + rng.choice(["example", "co.uk", "中国", "1", "123"]) + rng.choice(["", ".", ".."]),
        lambda: ".".join(octet() for _ in range(4)) + rng.choice([".", ".."]),
        lambda: rng.choice(["a:b", "::", ":", "1:2", "host:80", "1.2.3.4:80"]),
    ]
    return [rng.choice(makers)() for _ in range(3000)]


def test_ip_gate_agrees_with_a_plain_parse():
    rng = random.Random(41)
    hosts = _fuzz_hosts(rng)
    assert 300 < sum(map(_parses_as_ip, hosts)) < len(hosts) - 300  # both answers occur
    for host in hosts:
        assert _is_ip_literal(host) == _parses_as_ip(host), host


def _outcome(canon, s):
    try:
        return canon(s)
    except CanonicalizationError as exc:
        return ("error", str(exc))


def test_canonicalize_matches_urlsplit_reference():
    named = [
        "HTTP://A.EXAMPLE/", "HtTpS://News.Example.CO.UK", "1http://a.example/", "-x://a.example/",
        "//a.example/x", "http://user@a.example/", "http://u:p@a.example:8080/",
        "http://a.example:8080/", "http://1.2.3.4/", "http://1.2.3.4.", "http://[::1]/",
        "http://[::1", "http://bücher.example/", "http://xn--bcher-kva.example",
        "http://a.example./", "http://a..example/", "http://a.example../", "http://...",
        "http://a.example?x=1", "http://a.example#top", " http://a.example/ ",
        "\x00http://a.example/", "http://a.example/\x00", "\thttp://a.example\n",
        "http://a.exa\tmple/", "http://a.example\\x", "http://_a.example/",
    ]
    landing_urls = [f"https://{rec.landing_domain}/" for rec in fixture_corpus()[0]]
    inputs = named + landing_urls + random_url_inputs(4000, 17)
    outcomes = []
    for s in inputs:
        outcome = _outcome(canonicalize, s)
        assert outcome == _outcome(canonicalize_reference, s), repr(s)
        outcomes.append(outcome)
    errors = sum(isinstance(o, tuple) for o in outcomes)
    assert 500 < errors < len(inputs) - 500  # both answers occur


def test_url_host_reduction():
    assert canonicalize("https://WWW.B.Example/path") == "b.example"
    assert canonicalize("https://a.b.c.example.com/") == "example.com"


def test_wildcard_and_exception_rules():
    assert canonicalize("a.b.foo.ck") == "b.foo.ck"  # *.ck
    assert canonicalize("x.www.ck") == "www.ck"      # !www.ck


def test_private_section_suffixes():
    assert canonicalize("myblog.blogspot.com") == "myblog.blogspot.com"
    assert canonicalize("deep.myblog.blogspot.com") == "myblog.blogspot.com"


def test_bare_public_suffix_returned_as_is():
    assert canonicalize("co.uk") == "co.uk"
    assert canonicalize("com") == "com"


def test_canonicalize_idempotent():
    hosts = ["news.example.co.uk", "a.b.c.example.com", "x.y.blogspot.com", "A.EXAMPLE"]
    for host in hosts:
        once = canonicalize(host)
        assert canonicalize(once) == once


@pytest.mark.parametrize("bad", ["", "   ", "https://", "ex ample.com", "a..b"])
def test_canonicalize_rejects_garbage(bad):
    with pytest.raises(CanonicalizationError):
        canonicalize(bad)


def test_custom_table():
    table = PublicSuffixTable(["// tiny", "test", "second.test"])
    assert table.registrable_domain("a.b.second.test") == "b.second.test"
    assert table.registrable_domain("a.test") == "a.test"
    assert table.registrable_domain("a.unknowntld") == "a.unknowntld"


def test_suffix_walk_matches_rule_by_rule_reference():
    """Random rule lists over a few labels, so exception, wildcard and exact
    rules overlap and nest, and random hosts over the same labels."""
    rng = random.Random(29)
    alphabet = ["a", "b", "c", "Co", "uk", ""]

    def name(k):
        return ".".join(rng.choice(alphabet) for _ in range(k))

    for _ in range(60):
        rules = ["// comment", "  "] + [
            rng.choice(["", "", "*.", "!"]) + name(rng.randrange(1, 4)) + rng.choice(["", " x"])
            for _ in range(rng.randrange(1, 12))
        ]
        table = PublicSuffixTable(rules)
        for _ in range(60):
            host = name(rng.randrange(1, 6))
            assert table.registrable_domain(host) == registrable_domain_reference(rules, host), (
                rules, host)


def test_packaged_suffix_table_matches_rule_by_rule_reference():
    rules = _read_data_file(None, "public_suffix_list.dat").splitlines()
    suffixes = [r.lstrip("!*.") for r in rules if r.strip() and not r.startswith("//")]
    rng = random.Random(31)
    table = PublicSuffixTable(rules)
    for _ in range(600):
        host = ".".join(rng.choice(["www", "x", "ck", "co", "com", "WWW"])
                        for _ in range(rng.randrange(3))) + "." + rng.choice(suffixes)
        host = host.lstrip(".")
        assert table.registrable_domain(host) == registrable_domain_reference(rules, host), host


# --- crawl JSONL records ---------------------------------------------------

def _parse(stream):
    """(records, skips) of a crawl JSONL stream."""
    skips = []
    return list(_crawl_records(stream, None, skips)), skips


def _line(**kw):
    base = {"domain": "a.example", "landing_url": "https://a.example/",
            "html": "<html/>", "requests": [], "cookies": []}
    base.update(kw)
    return json.dumps(base)


def test_parse_identity_case():
    records, skips = _parse(io.StringIO(_line()))
    assert len(records) == 1 and not skips
    rec = records[0]
    assert rec.landing_domain == "a.example"
    assert rec.page_text == "<html/>"


def test_parse_canonicalizes_landing():
    records, _ = _parse(io.StringIO(_line(landing_url="https://WWW.B.Example/path")))
    assert records[0].landing_domain == "b.example"


def test_parse_empty_line_is_one_skip():
    records, skips = _parse(io.StringIO("\n"))
    assert len(records) == 0
    assert len(skips) == 1


def test_parse_malformed_lines_do_not_abort():
    stream = io.StringIO("\n".join([
        _line(), "{not json", _line(domain=5), _line(rank=-1),
        # no cookie name or value is read from a repr: {'x': 'UA-1234-5'} holds no ID
        _line(cookies=[{"name": None, "value": {"x": "UA-1234-5"}}]),
        _line(cookies=[{"name": "sid", "value": 5}]),
    ]))
    records, skips = _parse(stream)
    assert len(records) == 1
    assert [line_no for line_no, _ in skips] == [2, 3, 4, 5, 6]
    assert skips[-1][1] == "cookie 'name' and 'value' must be strings"


def test_parse_unparseable_landing_falls_back_to_domain():
    records, _ = _parse(io.StringIO(_line(landing_url="")))
    assert records[0].landing_domain == "a.example"


def test_parse_optional_fields():
    records, skips = _parse(io.StringIO("\n".join([
        _line(rank=7, snapshot="2021-04-01"), _line(snapshot=None), _line(snapshot=20210401),
    ])))
    assert [rec.rank for rec in records] == [7, None]
    # no stage reads the snapshot, yet a non-string one still skips its line
    assert skips == [(3, "'snapshot' must be a string")]


def test_parse_reads_back_every_field():
    records = [
        CrawlRecord("a.example", "a.example", "<html>x</html>",
                    ("https://cdn.example/a.js",), (("sid", "1"),), 3),
        CrawlRecord("b.example", "b.example"),
    ]
    parsed, skips = _parse(io.StringIO(crawl_jsonl(records)))
    assert not skips
    assert parsed == records


# --- parse_har --------------------------------------------------------------

def _har(entries):
    return io.StringIO(json.dumps({"log": {"entries": entries}}))


def _entry(url, status=200, mime="application/javascript", text="", cookies=()):
    return {
        "request": {"url": url},
        "response": {
            "status": status,
            "content": {"mimeType": mime, "text": text},
            "cookies": [{"name": n, "value": v} for n, v in cookies],
        },
    }


def test_har_counts_all_request_urls():
    har = _har([
        _entry("https://a.example/", mime="text/html", text="<html>hi</html>"),
        _entry("https://a.example/one.js"),
        _entry("https://a.example/two.js"),
    ])
    rec = parse_har(har)
    assert len(rec.request_urls) == 3
    assert rec.page_text == "<html>hi</html>"
    assert rec.landing_domain == "a.example"


def test_har_reads_as_the_crawl_line_it_stands_for():
    har = _har([
        _entry("https://WWW.A.example/x", mime="text/html", text="<html/>", cookies=[("s", "1")]),
        _entry("https://cdn.example/a.js", cookies=[("s", "1")]),
    ])
    line = _line(domain="www.a.example", landing_url="https://WWW.A.example/x",
                 requests=["https://WWW.A.example/x", "https://cdn.example/a.js"],
                 cookies=[{"name": "s", "value": "1"}])
    assert [parse_har(har)] == _parse(io.StringIO(line))[0]


@pytest.mark.parametrize("text", [
    "{not json",
    _har([1]).getvalue(),
    _har([_entry("https://a.example/", status="200")]).getvalue(),
    _har([_entry(5)]).getvalue(),
    _har([_entry("https://a.example/", mime="text/html", text=7)]).getvalue(),
], ids=["not_json", "entry_not_object", "string_status", "number_url", "number_text"])
def test_malformed_har_is_format_error(text):
    """A capture that the crawl line's validator, or a HAR-specific
    check, rejects is a FormatError, never another exception."""
    with pytest.raises(FormatError):
        parse_har(io.StringIO(text))


def test_har_zero_entries_is_format_error():
    with pytest.raises(FormatError):
        parse_har(_har([]))
    with pytest.raises(FormatError):
        parse_har(io.StringIO(json.dumps({"nolog": True})))


def test_har_keeps_gtm_url_verbatim():
    url = "https://www.googletagmanager.com/gtm.js?id=GTM-ABC123"
    rec = parse_har(_har([
        _entry("https://a.example/", mime="text/html", text="<html/>"),
        _entry(url),
    ]))
    assert url in rec.request_urls


def test_har_without_document_has_empty_text():
    rec = parse_har(_har([_entry("https://a.example/app.js")]))
    assert rec.page_text == ""


def test_har_cookie_union():
    rec = parse_har(_har([
        _entry("https://a.example/", mime="text/html", text="x", cookies=[("s", "1")]),
        _entry("https://a.example/x.js", cookies=[("s", "1"), ("t", "2")]),
    ]))
    assert rec.cookies == (("s", "1"), ("t", "2"))


def test_har_skips_cookies_without_string_name_and_value():
    entry = _entry("https://a.example/", mime="text/html", text="x")
    entry["response"]["cookies"] = [{"name": None, "value": {"x": "UA-1234-5"}}]
    rec = parse_har(_har([entry]))
    assert rec.cookies == ()
    assert extract_profile(rec, frozenset(), frozenset()).is_empty()
    entry["response"]["cookies"] += [
        "UA-1111-1", {"value": "UA-2222-1"}, {"name": "sid", "value": 7},
        {"name": "ok", "value": "UA-3333-1"},
    ]
    rec = parse_har(_har([entry]))
    assert rec.cookies == (("ok", "UA-3333-1"),)
    assert extract_profile(rec, frozenset(), frozenset()).keys == {IdKind.TRACKING: {"UA-3333"}}


# --- loaders ----------------------------------------------------------------

def test_load_rank_list(tmp_path):
    path = tmp_path / "ranks.csv"
    path.write_text("1,google.com\n2,youtube.com\n", encoding="utf-8")
    ranks = load_rank_list(path)
    assert ranks == {"google.com": 1, "youtube.com": 2}
    # a header row in any case, a field csv quoted, a domain in upper case
    # and a tied rank all read
    path.write_text('Rank,DOMAIN\n1,"Google.com"\n\n1,youtube.com\n', encoding="utf-8")
    assert load_rank_list(path) == {"google.com": 1, "youtube.com": 1}


def test_load_rank_list_repeated_domain_names_both_rows(tmp_path):
    path = tmp_path / "ranks.csv"
    path.write_text("1,a.example\n2,b.example\n\n3,A.Example\n", encoding="utf-8")
    with pytest.raises(FormatError, match=r"ranks\.csv: row 4: domain a\.example repeats row 1$"):
        load_rank_list(path)


def test_load_rank_list_malformed_row(tmp_path):
    path = tmp_path / "ranks.csv"
    for text, row in (("one,a.example\n", 1), ("1,a.example\n0,b.example\n", 2),
                      ("1,a.example\n²,b.example\n", 2), ("1,a.example\n+2,b.example\n", 2),
                      ("1,a.example,x\n", 1), ("1, \n", 1), ("1,a.example\nrank,domain\n", 2)):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match=rf"ranks\.csv: .*row {row}\b"):
            load_rank_list(path)


def test_load_category_map(tmp_path):
    path = tmp_path / "cats.csv"
    path.write_text('a.example,News and Media\nb.example,Arts\nC.Example,"News, Media"\n',
                    encoding="utf-8")
    cats = load_category_map(path)
    assert cats == {"a.example": "News and Media", "b.example": "Arts", "c.example": "News, Media"}


@pytest.mark.parametrize("load, header, rows, repeat, header_optional", [
    (load_rank_list, "rank,domain", ("1,a.example", "2,b.example", "3,A.example"),
     "domain a.example", True),
    (load_category_map, "domain,category", ("a.example,News", "b.example,Arts", "a.example,Arts"),
     "domain a.example", True),
    (load_metagraph_csv, "site_a,site_b,weight",
     ("a.example,b.example,1", "b.example,c.example,1", "a.example,b.example,2"),
     "edge a.example,b.example", False),
    (_read_communities_csv, "community_id,site", ("0,a.example", "1,b.example", "1,a.example"),
     "site a.example", False),
], ids=["rank_list", "category_map", "metagraph", "communities"])
def test_every_csv_input_follows_the_same_table_rules(tmp_path, load, header, rows, repeat,
                                                      header_optional):
    """One reader owns the table rules: blank rows are skipped but counted,
    every row has the header's width, a key may not repeat, and the header
    is optional, in any case, for rank and category lists only. Each error
    names the file and the row."""
    path = tmp_path / "table.csv"

    def load_lines(*lines):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return load(path)

    loaded = load_lines(header, "", rows[0], "", rows[1])
    assert load_lines(header, rows[0], rows[1]) == loaded
    for lines in ((header.upper(), rows[0], rows[1]), (rows[0], rows[1])):
        if header_optional:
            assert load_lines(*lines) == loaded
        else:
            with pytest.raises(FormatError, match=re.escape(f"{path}: expected header {header}")):
                load_lines(*lines)
    width = header.count(",") + 1
    with pytest.raises(FormatError,
                       match=re.escape(f"{path}: row 4 has {width + 1} fields, expected {width}")):
        load_lines(header, rows[0], "", rows[1] + ",x")
    with pytest.raises(FormatError, match=re.escape(f"{path}: row 5: {repeat} repeats row 2")):
        load_lines(header, rows[0], "", rows[1], rows[2])


def test_load_category_map_skips_a_header_row(tmp_path):
    path = tmp_path / "cats.csv"
    for header in ("domain,category\n", "\n Domain , CATEGORY \n"):
        path.write_text(header + "a.example,News\n", encoding="utf-8")
        assert load_category_map(path) == {"a.example": "News"}
    # Only the first row can be a header; later it is a site called "domain".
    path.write_text("a.example,News\ndomain,category\n", encoding="utf-8")
    assert load_category_map(path) == {"a.example": "News", "domain": "category"}
