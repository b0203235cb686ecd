"""Longitudinal analysis over timestamped profile snapshots.

A snapshot is one extraction pass over a corpus (directory layout:
``profiles.jsonl`` plus ``manifest.json`` with snapshot_id and
total_sites). Series operations track identifier coverage, per-site
Publisher-ID multiplicity, publisher-change classification between
consecutive snapshots, the Small/Medium/Large/Mega publisher census and
the top-publisher market share.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

from .corpus import FormatError
from .extractor import IdKind, SiteIdProfile, _read_profile_lines, _whole_number, dump_profiles
from .stats import RegressionFit, linear_fit


class TransitionClass(enum.Enum):
    NO_CHANGE = "no_change"
    BIGGER = "bigger"
    SMALLER = "smaller"
    INSIGNIFICANT = "insignificant"


class PublisherClass(enum.IntEnum):
    SMALL = 1   # up to 10 sites
    MEDIUM = 2  # 11-50
    LARGE = 3   # 51-100
    MEGA = 4    # more than 100


def classify_publisher(size: int) -> PublisherClass:
    if size < 1:
        raise ValueError(f"publisher size must be >= 1, got {size}")
    if size <= 10:
        return PublisherClass.SMALL
    if size <= 50:
        return PublisherClass.MEDIUM
    if size <= 100:
        return PublisherClass.LARGE
    return PublisherClass.MEGA


@dataclass(frozen=True)
class Snapshot:
    """One timestamped corpus, reduced to what the series read.

    ``profiles`` maps each Publisher-bearing domain to its Publisher keys,
    a sorted tuple, and ``tracking_sites`` counts the sites that bear a
    Tracking key. publisher_sizes is computed across all sites of the
    snapshot, never a sub-universe, so transition comparisons see true
    portfolio sizes.
    """

    snapshot_id: str
    profiles: dict[str, tuple[str, ...]]
    total_sites: int
    publisher_sizes: dict[str, int] = field(default_factory=dict)
    tracking_sites: int = 0

    @classmethod
    def build(
        cls,
        snapshot_id: str,
        profiles: Iterable[SiteIdProfile],
        total_sites: int | None = None,
        publisher_sizes: Mapping[str, int] | None = None,
    ) -> "Snapshot":
        """A repeated domain keeps its last profile."""
        sites = {p.landing_domain: p.keys for p in profiles}.items()
        return _reduce(snapshot_id, sites, total_sites, publisher_sizes)


def _reduce(
    snapshot_id: str,
    sites: Iterable[tuple[str, Mapping[IdKind, Collection[str]]]],
    total_sites: int | None = None,
    publisher_sizes: Mapping[str, int] | None = None,
) -> Snapshot:
    """The snapshot of one (domain, keys) pair per profiled site, read
    once. total_sites defaults to the number of pairs, and publisher_sizes
    to the sites of each Publisher key among them."""
    profiles: dict[str, tuple[str, ...]] = {}
    sizes: dict[str, int] = {}
    tracking_sites = count = 0
    for count, (domain, keys) in enumerate(sites, start=1):
        publisher = keys.get(IdKind.PUBLISHER)
        if publisher:
            profiles[domain] = tuple(sorted(publisher))
            for key in publisher:
                sizes[key] = sizes.get(key, 0) + 1
        if keys.get(IdKind.TRACKING):
            tracking_sites += 1
    return Snapshot(
        snapshot_id=snapshot_id,
        profiles=profiles,
        total_sites=count if total_sites is None else total_sites,
        publisher_sizes=sizes if publisher_sizes is None else dict(publisher_sizes),
        tracking_sites=tracking_sites,
    )


def _check_sequence(snapshots: Sequence[Snapshot], minimum: int) -> None:
    if len(snapshots) < minimum:
        raise ValueError(f"need at least {minimum} snapshot(s), got {len(snapshots)}")
    ids = [s.snapshot_id for s in snapshots]
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise ValueError(f"snapshot ids must be strictly increasing, got {ids}")


# ---------------------------------------------------------------------------
# Coverage and multiplicity series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageSeries:
    rows: list[tuple[str, float, float]]  # (snapshot_id, publisher frac, tracking frac)
    publisher_mean: float
    publisher_sd: float
    tracking_mean: float
    tracking_sd: float


def coverage_series(snapshots: Sequence[Snapshot]) -> CoverageSeries:
    """Fraction of sites bearing Publisher and Tracking keys per snapshot,
    with the mean and population standard deviation across snapshots."""
    _check_sequence(snapshots, 1)
    rows = []
    for snap in snapshots:
        if snap.total_sites <= 0:
            raise ValueError(f"snapshot {snap.snapshot_id} is empty")
        rows.append(
            (
                snap.snapshot_id,
                len(snap.profiles) / snap.total_sites,
                snap.tracking_sites / snap.total_sites,
            )
        )

    def mean_sd(values: list[float]) -> tuple[float, float]:
        mean = sum(values) / len(values)
        return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))

    p_mean, p_sd = mean_sd([r[1] for r in rows])
    t_mean, t_sd = mean_sd([r[2] for r in rows])
    return CoverageSeries(rows, p_mean, p_sd, t_mean, t_sd)


@dataclass(frozen=True)
class IdCountRow:
    snapshot_id: str
    frac_one: float
    frac_two: float
    frac_three_plus: float
    mean_keys: float


def publisher_id_count_series(snapshots: Sequence[Snapshot]) -> list[IdCountRow]:
    """Distribution over {1, 2, >=3} Publisher keys among bearing sites,
    plus the mean distinct key count, per snapshot."""
    _check_sequence(snapshots, 1)
    rows = []
    for snap in snapshots:
        counts = [len(keys) for keys in snap.profiles.values()]
        total = len(counts)
        if total == 0:
            rows.append(IdCountRow(snap.snapshot_id, 0.0, 0.0, 0.0, 0.0))
            continue
        rows.append(
            IdCountRow(
                snapshot_id=snap.snapshot_id,
                frac_one=sum(1 for c in counts if c == 1) / total,
                frac_two=sum(1 for c in counts if c == 2) / total,
                frac_three_plus=sum(1 for c in counts if c >= 3) / total,
                mean_keys=sum(counts) / total,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Transitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionRecord:
    landing_domain: str
    old_size: int
    new_size: int
    transition: TransitionClass


def classify_transition(site: str, earlier: Snapshot, later: Snapshot) -> TransitionRecord:
    """Compare a site's Publisher keys across two snapshots.

    Identical key sets are NO_CHANGE; otherwise the max publisher size on
    each side (sizes from the full respective snapshot) decides BIGGER,
    SMALLER or, on equality, INSIGNIFICANT.
    """
    old_keys = earlier.profiles.get(site)
    new_keys = later.profiles.get(site)
    if not old_keys or not new_keys:
        raise ValueError(f"site {site!r} lacks Publisher keys in one of the snapshots")
    old_size = max(earlier.publisher_sizes.get(k, 1) for k in old_keys)
    new_size = max(later.publisher_sizes.get(k, 1) for k in new_keys)
    if old_keys == new_keys:
        transition = TransitionClass.NO_CHANGE
    elif new_size > old_size:
        transition = TransitionClass.BIGGER
    elif new_size < old_size:
        transition = TransitionClass.SMALLER
    else:
        transition = TransitionClass.INSIGNIFICANT
    return TransitionRecord(site, old_size, new_size, transition)


@dataclass(frozen=True)
class TransitionSeries:
    intervals: list[tuple[str, str, dict[TransitionClass, int]]]
    trends: dict[TransitionClass, RegressionFit | None]


def transition_series(
    snapshots: Sequence[Snapshot], per_pair_universe: bool = False
) -> TransitionSeries:
    """Per consecutive snapshot pair, counts of each transition class.

    The default universe is the sites present and Publisher-bearing in
    every snapshot of the range; ``per_pair_universe`` relaxes that to each
    consecutive pair. Class trends are OLS fits over interval index (None
    with fewer than 3 intervals).
    """
    _check_sequence(snapshots, 2)
    universes: list[set[str]] = []
    if not per_pair_universe:
        common = set(snapshots[0].profiles).intersection(*(s.profiles for s in snapshots[1:]))
        if not common:
            raise ValueError("no site is Publisher-bearing in every snapshot")
        universes = [common] * (len(snapshots) - 1)
    else:
        for a, b in zip(snapshots, snapshots[1:]):
            both = a.profiles.keys() & b.profiles.keys()
            if not both:
                raise ValueError(
                    f"no common Publisher-bearing site between {a.snapshot_id} and {b.snapshot_id}"
                )
            universes.append(both)

    intervals = []
    for (a, b), universe in zip(zip(snapshots, snapshots[1:]), universes):
        counts = dict.fromkeys(TransitionClass, 0)
        for site in sorted(universe):
            counts[classify_transition(site, a, b).transition] += 1
        intervals.append((a.snapshot_id, b.snapshot_id, counts))

    trends: dict[TransitionClass, RegressionFit | None] = {}
    for cls in TransitionClass:
        points = [(float(i), float(counts[cls])) for i, (_, _, counts) in enumerate(intervals)]
        trends[cls] = linear_fit(points) if len(points) >= 3 else None
    return TransitionSeries(intervals, trends)


# ---------------------------------------------------------------------------
# Publisher census and top publishers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassPopulationSeries:
    rows: list[tuple[str, dict[PublisherClass, int]]]
    slopes: dict[PublisherClass, float | None]


def class_population_series(snapshots: Sequence[Snapshot]) -> ClassPopulationSeries:
    """Publisher counts per size class per snapshot, with per-class OLS
    slopes over snapshot index (None with fewer than 3 snapshots)."""
    _check_sequence(snapshots, 2)
    rows = []
    for snap in snapshots:
        counts = {cls: 0 for cls in PublisherClass}
        for size in snap.publisher_sizes.values():
            counts[classify_publisher(size)] += 1
        rows.append((snap.snapshot_id, counts))
    slopes: dict[PublisherClass, float | None] = {}
    for cls in PublisherClass:
        points = [(float(i), float(counts[cls])) for i, (_, counts) in enumerate(rows)]
        slopes[cls] = linear_fit(points).slope if len(points) >= 3 else None
    return ClassPopulationSeries(rows, slopes)


@dataclass(frozen=True)
class TopPublishersSeries:
    rows: list[tuple[str, int, int]]  # (snapshot_id, top-k sum, fixed top-k sum)
    fixed_keys: tuple[str, ...]


def top_publishers_series(snapshots: Sequence[Snapshot], k: int = 10) -> TopPublishersSeries:
    """Sites operated by each snapshot's own top-k publishers, next to the
    fixed top-k present in all snapshots (ranked in the first snapshot).

    k beyond the available publisher count clamps to all of them.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_sequence(snapshots, 1)

    def top_keys(sizes: Mapping[str, int], keys: Iterable[str], limit: int) -> list[str]:
        ordered = sorted(keys, key=lambda key: (-sizes[key], key))
        return ordered[:limit]

    common = set(snapshots[0].publisher_sizes)
    for snap in snapshots[1:]:
        common &= set(snap.publisher_sizes)
    fixed = tuple(top_keys(snapshots[0].publisher_sizes, common, k)) if common else ()

    rows = []
    for snap in snapshots:
        own_top = top_keys(snap.publisher_sizes, snap.publisher_sizes, k)
        rows.append(
            (
                snap.snapshot_id,
                sum(snap.publisher_sizes[key] for key in own_top),
                sum(snap.publisher_sizes[key] for key in fixed),
            )
        )
    return TopPublishersSeries(rows, fixed)


# ---------------------------------------------------------------------------
# Snapshot I/O (directory per snapshot: profiles.jsonl + manifest.json)
# ---------------------------------------------------------------------------

_PROFILES = "profiles.jsonl"
_MANIFEST = "manifest.json"


def _write_manifest(directory: Path, snapshot_id: str, total_sites: int) -> None:
    """The manifest of a snapshot directory, in UTF-8 with LF endings."""
    manifest = {"snapshot_id": snapshot_id, "total_sites": total_sites}
    with open(directory / _MANIFEST, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def save_snapshot(
    profiles: Iterable[SiteIdProfile], directory: str | Path, snapshot_id: str, total_sites: int
) -> None:
    """Write a snapshot directory: the profiles, sorted by domain, and a
    manifest with the id and the number of sites crawled, with LF endings."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / _PROFILES, "w", encoding="utf-8", newline="\n") as fh:
        dump_profiles(profiles, fh)
    _write_manifest(directory, snapshot_id, total_sites)


def load_snapshot(directory: str | Path) -> Snapshot:
    """Read a snapshot directory in one pass, straight into the Publisher
    keys of its Publisher-bearing sites, its Tracking count and its
    publisher_sizes. Profile lines are checked, and errors worded, as
    ``iter_profiles`` does: both read them through ``_read_profile_lines``.
    A manifest whose total_sites is below the number of profiled sites is
    a FormatError."""
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise FileNotFoundError(f"{directory} has no {_MANIFEST}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8-sig"))
    except ValueError as exc:
        raise FormatError(f"{manifest_path}: not JSON ({exc})") from None
    if not isinstance(manifest, dict) or not {"snapshot_id", "total_sites"} <= manifest.keys():
        raise FormatError(f"{manifest_path}: expected an object with snapshot_id and total_sites")
    snapshot_id = manifest["snapshot_id"]
    if not isinstance(snapshot_id, str):
        raise FormatError(f"{manifest_path}: snapshot_id is not a string")
    try:
        total_sites = _whole_number(manifest["total_sites"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{manifest_path}: total_sites: {exc}") from None
    sites = ((domain, keys) for domain, keys, _, _ in _read_profile_lines(directory / _PROFILES))
    snap = _reduce(snapshot_id, sites)
    if total_sites < snap.total_sites:
        raise FormatError(f"{manifest_path}: total_sites {total_sites} is below the "
                          f"{snap.total_sites} profiled sites")
    return replace(snap, total_sites=total_sites)


def load_snapshots(directories: Iterable[str | Path]) -> list[Snapshot]:
    """Load and order snapshots by snapshot_id (ids must be unique)."""
    snapshots = sorted((load_snapshot(d) for d in directories), key=lambda s: s.snapshot_id)
    _check_sequence(snapshots, 1)
    return snapshots
