"""
Extracting publisher-specific IDs from crawled pages
====================================================

A walk through the extraction layer: scan a crawled page, filter the
false positives, and aggregate per-site profiles with provenance, all
through ``extract_profile``, the one scan-and-filter path.
"""

from adgraph import (
    CrawlRecord,
    extract_profile,
    load_blocklist,
    load_dictionary,
    summarize_extraction,
)

NO_FILTER = frozenset()


def crawled(page_text, request_urls=(), cookies=()):
    return CrawlRecord(
        requested_domain="news-site.example",
        landing_domain="news-site.example",
        page_text=page_text,
        request_urls=request_urls,
        cookies=cookies,
    )


def show(profile):
    for kind, keys in profile.keys.items():
        for key in sorted(keys):
            sources = sorted(s.value for s in profile.sources[key])
            print(f"  {kind.value:12s} {key:20s} seen in {sources}")


# Four identifier shapes are recognized. Note the boundary rule: the
# "XG-ABCDEFG" candidate is rejected because its G- prefix sits inside a
# longer token, while the canonical "ca-pub-..." AdSense form matches.
page = """
<script data-ad-client="ca-pub-123456789"></script>
<script>ga('create', 'UA-12345-6', 'auto');</script>
<script>gtag('config', 'G-AB12CD34');</script>
XG-ABCDEFG is noise, GTM-XYZ999 is a container.
"""
show(extract_profile(crawled(page), NO_FILTER, NO_FILTER))

# Two data-driven filters remove values that merely look like IDs:
# dictionary words (G-BACKPACK) and blocklisted campaign strings
# (G-APRIL2020). Both lists ship with the package and can be replaced.
dictionary = load_dictionary()
blocklist = load_blocklist()
noisy = crawled("G-BACKPACK G-APRIL2020 G-REAL1234")
print()
for name, words, blocked in (("raw", NO_FILTER, NO_FILTER),
                             ("without words", dictionary, NO_FILTER),
                             ("filtered", dictionary, blocklist)):
    profile = extract_profile(noisy, words, blocked)
    print(f"{name + ':':15s}", sorted(key for keys in profile.keys.values() for key in keys))

# A full record is scanned across three channels: rendered HTML, request
# URLs, and cookies (names and values). Tracking IDs collapse to their
# account prefix, so UA-1111-1 and UA-1111-2 below are one account seen
# in two channels, and raw_counts still counts both values.
record = crawled(
    "ga('create', 'UA-1111-1')",
    request_urls=("https://pagead2.googlesyndication.com/js?client=ca-pub-987654321",),
    cookies=(("_tracker", "UA-1111-2"),),
)
profile = extract_profile(record, dictionary, blocklist)
print()
show(profile)
print("raw counts:", {kind.value: n for kind, n in profile.raw_counts.items()})

# Corpus-level summary: unique IDs, site coverage, and where IDs appear.
summary = summarize_extraction([profile], corpus_size=1)
print("\npublisher summary:", summary.kinds[list(summary.kinds)[0]])
