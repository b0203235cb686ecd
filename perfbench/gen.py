"""Seeded input generators for the adgraph benchmark.

Each generator writes one workload's input files into a directory, next to
``truth.json``: the facts it planted (co-owned groups, blocks, intermediary
keys, malformed-line counts, transition and class counts). The benchmark
checks adgraph's outputs against these facts, so the generators use only
the standard library and import nothing from adgraph or the repository's
tests. The same workload, seed and size always give the same bytes. Run as
a program, it imports ``adgraph.cli`` after writing the inputs, so the
process's wall time is the benchmark's whole set-up.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR [--smoke]
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from pathlib import Path

WORKLOADS = ("crawl_report", "gn_planted", "history_snapshots")

# Sizes per workload. "full" is what the benchmark measures; "smoke" runs in
# seconds and is used by the benchmark's own tests.
SIZES = {
    "crawl_report": {
        "full": dict(sites=4000, groups=90, pairs=150, portfolio_sites=1000, intermediaries=3,
                     redirects=250, malformed=25, lookalikes=80, page_words=50),
        "smoke": dict(sites=700, groups=12, pairs=20, portfolio_sites=120, intermediaries=2,
                      redirects=30, malformed=5, lookalikes=10, page_words=30),
    },
    "gn_planted": {
        "full": dict(block_size=10, blocks=(3, 3, 4, 4, 5, 5, 6, 6), p_in=0.6),
        "smoke": dict(block_size=6, blocks=(2, 3), p_in=0.7),
    },
    "history_snapshots": {
        "full": dict(sites=320, snapshots=6, publishers=60, mega_sites=125,
                     churn=0.12, malformed=3, page_words=800),
        "smoke": dict(sites=130, snapshots=3, publishers=20, mega_sites=105,
                      churn=0.15, malformed=2, page_words=100),
    },
}

SUFFIXES = ("com", "com", "com", "org", "net", "io", "de", "fr",
            "co.uk", "org.uk", "com.au", "co.jp", "com.br")
STEMS = ("news", "shop", "blog", "daily", "tech", "food", "travel", "sport",
         "home", "style", "games", "money", "health", "auto", "music")
WORDS = ("alpha", "river", "stone", "market", "garden", "silver", "orbit",
         "ticket", "forest", "signal", "harbor", "window", "planet", "copper",
         "meadow", "rocket", "lantern", "summit", "velvet", "canyon", "bridge",
         "pepper", "marble", "falcon", "island", "thunder", "puzzle", "saddle")
CATEGORIES = ("news", "shopping", "sports", "tech", "travel", "food", "health",
              "finance", "games", "music", "education", "autos")
# G-/GTM- shapes the packaged dictionary and keyword blocklist must reject.
LOOKALIKES = ("G-ACADEMY", "G-ACCOUNT", "G-ADVENTURE", "GTM-ACCESS", "GTM-ADVICE",
              "GTM-ANIMAL", "G-MARCH2015", "GTM-JUNE2016", "G-APRIL2016")
INTERMEDIARY_SITES = (130, 250, 180)  # adgraph's default threshold is 100 sites


def _filler(rng: random.Random, n_words: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(n_words))


def _publisher_snippet(rng: random.Random, key: str) -> tuple[str, str | None]:
    """An HTML fragment or a request URL that carries a pub- key."""
    if rng.random() < 0.7:
        return f'<ins class="adsbygoogle" data-ad-client="ca-{key}"></ins>', None
    return "", f"https://pagead2.googlesyndication.com/pagead/js/adsbygoogle.js?client=ca-{key}"


def _analytics_snippet(rng: random.Random, key: str) -> tuple[str, str | None, dict | None]:
    """HTML, request or cookie carrying an analytics key (UA-n-p or G-...)."""
    raw = f"{key}-{rng.randint(1, 9)}" if key.startswith("UA-") else key
    roll = rng.random()
    if roll < 0.5:
        return f"<script>gtag('config', '{raw}');</script>", None, None
    if roll < 0.8:
        return "", f"https://www.google-analytics.com/collect?v=1&tid={raw}", None
    return "", None, {"name": "_ga_acct", "value": raw}


def _page(rng, title, n_words, fragments):
    parts = [f"<html><head><title>{title}</title></head><body><p>{_filler(rng, n_words)}</p>"]
    parts.extend(f for f in fragments if f)
    parts.append(f"<p>{_filler(rng, n_words // 3)}</p></body></html>")
    return "".join(parts)


def _landing_url(rng: random.Random, domain: str) -> str:
    prefix = rng.choice(("", "", "www.", "www.", "m.", "shop."))
    return f"https://{prefix}{domain}/{rng.choice(('', 'index.html', 'home?ref=1'))}"


def _site_domains(rng: random.Random, n: int, tag: str) -> list[str]:
    return [f"{rng.choice(STEMS)}{tag}{i:05d}.{rng.choice(SUFFIXES)}" for i in range(n)]


def _pareto_quantile(u: float, alpha: float) -> float:
    return (1.0 - u) ** (-1.0 / alpha)


def _pairs(size: int) -> int:
    return size * (size - 1) // 2


# ---------------------------------------------------------------------------
# crawl_report
# ---------------------------------------------------------------------------

def gen_crawl_report(out: Path, seed: int, size: str) -> dict:
    """One crawl JSONL with a rank list and a category map.

    Co-owned groups share a Publisher and an analytics key, so their site
    pairs are the heaviest metagraph edges and are exactly what pruning at
    the default top 5% keeps. Single-family portfolios add lighter edges,
    intermediary keys sit on more than 100 sites, redirect records land on
    existing sites with a worse rank, and malformed lines must be skipped.
    """
    p = SIZES["crawl_report"][size]
    rng = random.Random(f"crawl_report:{seed}")
    domains = _site_domains(rng, p["sites"], "c")
    order = list(range(p["sites"]))
    rng.shuffle(order)
    html: dict[int, list[str]] = {i: [] for i in order}
    requests: dict[int, list[str]] = {i: [f"https://{domains[i]}/static/app.js"] for i in order}
    cookies: dict[int, list[dict]] = {i: [] for i in order}

    def put_publisher(i, key):
        h, r = _publisher_snippet(rng, key)
        html[i].append(h)
        if r:
            requests[i].append(r)

    def put_analytics(i, key):
        h, r, c = _analytics_snippet(rng, key)
        html[i].append(h)
        if r:
            requests[i].append(r)
        if c:
            cookies[i].append(c)

    # Group and portfolio sizes are fixed quantiles of heavy-tailed laws,
    # so the amount of work does not depend on the seed; the seed decides
    # which sites they hold.
    group_sizes = [min(12, 1 + int(_pareto_quantile((g + 0.5) / p["groups"], 1.8)))
                   for g in range(p["groups"])]
    # Single-family portfolios (below) keep their pairs well under 19x the
    # heavy-tailed groups' pairs, so the group edges fill the top 5%.
    budget = 12 * sum(_pairs(n) for n in group_sizes)
    # Many co-owned pairs on top: each is one more pruned component, so
    # Girvan-Newman's per-split bookkeeping grows with their number.
    group_sizes += [2] * p["pairs"]
    cursor = 0
    groups = []
    for g, gsize in enumerate(group_sizes):
        members = order[cursor:cursor + gsize]
        cursor += gsize
        pub = f"pub-1{g:011d}"
        ana = f"UA-5{g:06d}" if g % 2 else f"G-K{g:07d}"
        for i in members:
            put_publisher(i, pub)
            put_analytics(i, ana)
        groups.append(sorted(domains[i] for i in members))

    # Single-family portfolios on their own sites.
    portfolio_sites = order[cursor:cursor + p["portfolio_sites"]]
    cursor += p["portfolio_sites"]
    k = 0
    pos = 0
    while pos < len(portfolio_sites):
        psize = min(40, 1 + int(_pareto_quantile((k * 0.6180339887) % 1.0, 1.1)))
        if psize > 1 and _pairs(psize) > budget:
            psize = 1
        members = portfolio_sites[pos:pos + psize]
        pos += psize
        budget -= _pairs(len(members))
        if k % 3 == 2:
            key = f"UA-6{k:06d}"
            for i in members:
                put_analytics(i, key)
        else:
            key = f"pub-2{k:011d}"
            for i in members:
                put_publisher(i, key)
        k += 1

    # Sites with keys of their own (shared with nobody) or none at all.
    for n, i in enumerate(order[cursor:]):
        roll = rng.random()
        if roll < 0.25:
            put_publisher(i, f"pub-3{n:011d}")
        if 0.2 < roll < 0.6:
            put_analytics(i, f"UA-7{n:06d}")
        if 0.55 < roll < 0.7:
            put_analytics(i, f"G-M{n:07d}")
        if 0.65 < roll < 0.75:
            html[i].append(f"<script>gtm.start; id=GTM-C{n:06d}</script>")

    intermediaries = []
    for j in range(p["intermediaries"]):
        kind = j % 3
        key = (f"UA-9999{j:04d}", f"pub-9{j:011d}", f"GTM-INTRM{j}")[kind]
        intermediaries.append(key)
        for i in rng.sample(order, INTERMEDIARY_SITES[j % len(INTERMEDIARY_SITES)]):
            if kind == 0:
                requests[i].append(f"https://www.google-analytics.com/collect?tid={key}-1")
            elif kind == 1:
                put_publisher(i, key)
            else:
                html[i].append(f"<noscript><iframe src='ns.html?id={key}'></iframe></noscript>")

    for i in rng.sample(order, p["lookalikes"]):
        html[i].append(f"<p>Save on {rng.choice(LOOKALIKES)} this week</p>")

    lines = []
    for i in order:
        rng.shuffle(html[i])
        lines.append(json.dumps({
            "domain": domains[i],
            "landing_url": _landing_url(rng, domains[i]),
            "html": _page(rng, domains[i], p["page_words"], html[i]),
            "requests": requests[i],
            "cookies": cookies[i],
        }))
    redirect_domains = []
    for j in range(p["redirects"]):
        target = domains[rng.choice(order)]
        old = f"old{j:05d}-{target.split('.')[0]}.{rng.choice(SUFFIXES)}"
        redirect_domains.append(old)
        lines.append(json.dumps({
            "domain": old,
            "landing_url": _landing_url(rng, target),
            "html": _page(rng, old, p["page_words"] // 2, []),
            "requests": [f"https://{old}/redirect"],
            "cookies": [],
        }))
    malformed = [
        '{"domain": "broken.example", "landing_url": "https://broken.example/"',
        "[1, 2, 3]",
        '{"landing_url": "https://nodomain.example/"}',
        '{"domain": "badhtml.example", "landing_url": "https://badhtml.example/", "html": 7}',
        "",
        '{"domain": "badrank.example", "landing_url": "https://badrank.example/", "rank": -4}',
        "not json at all",
    ]
    for j in range(p["malformed"]):
        lines.insert(rng.randrange(len(lines) + 1), malformed[j % len(malformed)])

    out.mkdir(parents=True, exist_ok=True)
    (out / "crawl.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    ranked = [domains[i] for i in order]
    rng.shuffle(ranked)
    rank_rows = [f"{r},{d}" for r, d in enumerate(ranked + redirect_domains, start=1)]
    (out / "ranks.csv").write_text("\n".join(rank_rows) + "\n", encoding="utf-8")
    (out / "categories.csv").write_text(
        "".join(f"{d},{rng.choice(CATEGORIES)}\n" for d in sorted(domains)), encoding="utf-8"
    )
    return {
        "workload": "crawl_report",
        "groups": sorted(groups),
        "intermediary_keys": intermediaries,
        "malformed_lines": p["malformed"],
        "records": len(lines) - p["malformed"],
        "sites": p["sites"],
        "repeated_page_share": 0.0,  # every page carries its own domain
    }


# ---------------------------------------------------------------------------
# gn_planted
# ---------------------------------------------------------------------------

DYADIC = ("1.0", "0.5", "0.25")  # repr(float) of 1, 1/2, 1/4: exact in decimal


def gen_gn_planted(out: Path, seed: int, size: str) -> dict:
    """Planted-partition metagraphs of growing size as ``metagraph.csv``.

    Every block is a connected random graph with a fixed share of its node
    pairs; single links join the blocks into a ring, so each graph is one
    connected component. Edge counts depend on the size only, not on the
    seed.
    """
    p = SIZES["gn_planted"][size]
    rng = random.Random(f"gn_planted:{seed}")
    graphs = []
    for gi, n_blocks in enumerate(p["blocks"]):
        bs = p["block_size"]
        blocks = [[f"g{gi}b{b:02d}v{v:02d}.example" for v in range(bs)] for b in range(n_blocks)]
        edges: set[tuple[str, str]] = set()
        target = round(p["p_in"] * _pairs(bs))
        for members in blocks:
            shuffled = members[:]
            rng.shuffle(shuffled)
            block_edges = {tuple(sorted((shuffled[v], rng.choice(shuffled[:v]))))
                           for v in range(1, bs)}  # random spanning tree
            rest = [e for e in itertools.combinations(sorted(members), 2) if e not in block_edges]
            block_edges.update(rng.sample(rest, target - len(block_edges)))
            edges |= block_edges
        links = [(b, (b + 1) % n_blocks) for b in range(n_blocks)]
        for a, b in links:
            while True:
                e = tuple(sorted((rng.choice(blocks[a]), rng.choice(blocks[b]))))
                if e not in edges:
                    edges.add(e)
                    break
        name = f"g{gi}"
        path = out / name
        path.mkdir(parents=True, exist_ok=True)
        rows = ["site_a,site_b,weight"] + [f"{u},{v},{rng.choice(DYADIC)}" for u, v in sorted(edges)]
        (path / "metagraph.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        graphs.append({"name": name, "blocks": blocks, "edges": len(edges)})
    return {"workload": "gn_planted", "graphs": graphs}


# ---------------------------------------------------------------------------
# history_snapshots
# ---------------------------------------------------------------------------

def _size_class(size: int) -> str:
    return "small" if size <= 10 else "medium" if size <= 50 else "large" if size <= 100 else "mega"


def gen_history_snapshots(out: Path, seed: int, size: str) -> dict:
    """K crawl snapshots of one site population with seeded churn.

    Sites gain, lose or switch Publisher keys between snapshots, so
    portfolios grow and shrink; a site whose keys did not change keeps the
    exact page bytes of the previous snapshot. truth.json holds the
    transition counts per interval and the publisher census per snapshot,
    computed here from the planted keys.
    """
    p = SIZES["history_snapshots"][size]
    rng = random.Random(f"history_snapshots:{seed}")
    domains = _site_domains(rng, p["sites"], "h")
    publishers = [f"pub-4{k:011d}" for k in range(p["publishers"])]
    mega = publishers[0]
    weights = [1.0 / (k + 1) for k in range(1, len(publishers))]
    keys: list[set[str]] = []
    for i in range(p["sites"]):
        site_keys = {mega} if i < p["mega_sites"] else set()
        if not site_keys or rng.random() < 0.2:
            site_keys.add(rng.choices(publishers[1:], weights)[0])
        if rng.random() < 0.05:
            site_keys = set()  # a site without ads
        keys.append(site_keys)
    trackers = [f"UA-8{i:06d}" if rng.random() < 0.6 else None for i in range(p["sites"])]
    filler = [_filler(rng, p["page_words"]) for _ in range(p["sites"])]

    def page(i, site_keys):
        fragments = [f'<ins class="adsbygoogle" data-ad-client="ca-{k}"></ins>' for k in sorted(site_keys)]
        if trackers[i]:
            fragments.append(f"<script>ga('create', '{trackers[i]}-1', 'auto');</script>")
        return json.dumps({
            "domain": domains[i],
            "landing_url": f"https://www.{domains[i]}/",
            "html": f"<html><body><p>{filler[i]}</p>{''.join(fragments)}</body></html>",
            "requests": [f"https://{domains[i]}/static/app.js"],
            "cookies": [{"name": "_session", "value": f"s{i}"}],
        })

    snapshot_keys = []
    snapshot_ids = [f"s{k:02d}" for k in range(p["snapshots"])]
    cache: dict[int, str] = {}
    repeated = 0  # records whose line repeats the site's previous snapshot
    for k, sid in enumerate(snapshot_ids):
        if k:
            for i in range(p["sites"]):
                if rng.random() >= p["churn"]:
                    continue
                site_keys = set(keys[i])
                roll = rng.random()
                if roll < 0.4 or not site_keys:
                    site_keys.add(rng.choice(publishers))
                elif roll < 0.7 and len(site_keys) > 1:
                    site_keys.remove(rng.choice(sorted(site_keys)))
                else:
                    site_keys.remove(rng.choice(sorted(site_keys)))
                    site_keys.add(rng.choice(publishers))
                if site_keys != keys[i]:
                    keys[i] = site_keys
                    cache.pop(i, None)
        snapshot_keys.append([set(s) for s in keys])
        lines = []
        for i in range(p["sites"]):
            if i in cache:
                repeated += 1
            else:
                cache[i] = page(i, keys[i])
            lines.append(cache[i])
        for j in range(p["malformed"]):
            lines.insert(rng.randrange(len(lines) + 1), "{truncated")
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{sid}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    sizes = []
    classes = {}
    for sid, snap in zip(snapshot_ids, snapshot_keys):
        counts: dict[str, int] = {}
        for site_keys in snap:
            for key in site_keys:
                counts[key] = counts.get(key, 0) + 1
        sizes.append(counts)
        census = {c: 0 for c in ("small", "medium", "large", "mega")}
        for n in counts.values():
            census[_size_class(n)] += 1
        classes[sid] = census
    universe = [i for i in range(p["sites"]) if all(snap[i] for snap in snapshot_keys)]
    transitions = {}
    for k in range(1, len(snapshot_ids)):
        counts = {"no_change": 0, "bigger": 0, "smaller": 0, "insignificant": 0}
        for i in universe:
            old, new = snapshot_keys[k - 1][i], snapshot_keys[k][i]
            old_size = max(sizes[k - 1][key] for key in old)
            new_size = max(sizes[k][key] for key in new)
            if old == new:
                counts["no_change"] += 1
            elif new_size != old_size:
                counts["bigger" if new_size > old_size else "smaller"] += 1
            else:
                counts["insignificant"] += 1
        transitions[f"{snapshot_ids[k - 1]}..{snapshot_ids[k]}"] = counts
    return {
        "workload": "history_snapshots",
        "snapshots": snapshot_ids,
        "malformed_lines": p["malformed"],
        "sites": p["sites"],
        "repeated_page_share": repeated / (p["sites"] * len(snapshot_ids)),
        "transitions": transitions,
        "classes": classes,
    }


GENERATORS = {
    "crawl_report": gen_crawl_report,
    "gn_planted": gen_gn_planted,
    "history_snapshots": gen_history_snapshots,
}


def generate(workload: str, seed: int, out: str | Path, size: str = "full") -> dict:
    """Write the workload's inputs and truth.json into ``out``; return the truth."""
    out = Path(out)
    truth = GENERATORS[workload](out, seed, size)
    truth["seed"] = seed
    truth["size"] = size
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True) + "\n", encoding="utf-8")
    return truth


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true", help="seconds-long size for self-tests")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, "smoke" if args.smoke else "full")
    import adgraph.cli  # noqa: F401  (set-up includes the import)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
