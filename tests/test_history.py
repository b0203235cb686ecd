from __future__ import annotations

import dataclasses
import random
import re

import pytest

from adgraph.corpus import FormatError
from adgraph.history import (
    PublisherClass,
    Snapshot,
    TransitionClass,
    class_population_series,
    classify_publisher,
    classify_transition,
    coverage_series,
    load_snapshot,
    load_snapshots,
    publisher_id_count_series,
    save_snapshot,
    top_publishers_series,
    transition_series,
)
from adgraph.extractor import IdKind
from helpers import (
    first_pair_only_snapshots,
    history_series,
    load_snapshot_reference,
    make_profile,
    random_snapshot_set,
    write_shuffled_snapshot,
)


def _profiles(site_keys):
    """site_keys: {domain: iterable of publisher keys}."""
    profiles = [make_profile(d, publisher=set(keys)) for d, keys in site_keys.items() if keys]
    return profiles + [make_profile(d) for d, keys in site_keys.items() if not keys]


def _snap(snapshot_id, site_keys, total_sites=None, publisher_sizes=None):
    return Snapshot.build(snapshot_id, _profiles(site_keys), total_sites=total_sites,
                          publisher_sizes=publisher_sizes)


# --- classify_publisher -----------------------------------------------------

@pytest.mark.parametrize("size,expected", [
    (1, PublisherClass.SMALL),
    (10, PublisherClass.SMALL),
    (11, PublisherClass.MEDIUM),
    (50, PublisherClass.MEDIUM),
    (51, PublisherClass.LARGE),
    (100, PublisherClass.LARGE),
    (101, PublisherClass.MEGA),
    (100000, PublisherClass.MEGA),
])
def test_classify_publisher_boundaries(size, expected):
    assert classify_publisher(size) is expected


def test_classify_publisher_rejects_nonpositive():
    with pytest.raises(ValueError):
        classify_publisher(0)


def test_classify_publisher_monotone():
    previous = classify_publisher(1)
    for size in range(2, 300):
        current = classify_publisher(size)
        assert current >= previous
        previous = current


# --- coverage ---------------------------------------------------------------

def test_coverage_fixture_mean():
    # 1000-site snapshots built at exactly 9.9% publisher coverage
    snaps = []
    for t in range(3):
        site_keys = {f"s{i:04d}.example": [f"pub-1{i:08d}"] for i in range(99)}
        site_keys.update({f"t{i:04d}.example": [] for i in range(300)})
        snaps.append(_snap(f"2020-0{t+1}-01", site_keys, total_sites=1000))
    series = coverage_series(snaps)
    assert series.publisher_mean == pytest.approx(0.099)
    assert series.publisher_sd == pytest.approx(0.0)


def test_coverage_all_bearing():
    snap = _snap("2020-01-01", {"a.example": ["pub-111111111"]})
    series = coverage_series([snap])
    assert series.rows[0][1] == 1.0


def test_coverage_single_snapshot_sd_zero():
    snap = _snap("2020-01-01", {"a.example": ["pub-111111111"], "b.example": []})
    series = coverage_series([snap])
    assert series.publisher_sd == 0.0 and series.publisher_mean == 0.5


def test_coverage_counts_tracking_separately():
    profiles = [
        make_profile("a.example", publisher={"pub-111111111"}),
        make_profile("b.example", tracking={"UA-1234"}),
        make_profile("c.example", measurement={"G-ABCDEFG"}),
    ]
    snap = Snapshot.build("2020-01-01", profiles, total_sites=4)
    series = coverage_series([snap])
    _, pub, track = series.rows[0]
    assert pub == 0.25 and track == 0.25  # measurement not in the tracking series


def test_coverage_empty_snapshot_errors():
    snap = Snapshot.build("2020-01-01", [], total_sites=0)
    with pytest.raises(ValueError):
        coverage_series([snap])


def test_coverage_fractions_in_unit_interval():
    snaps = [
        _snap("2020-01-01", {"a.example": ["pub-111111111"], "b.example": []}),
        _snap("2020-04-01", {"a.example": [], "b.example": []}),
    ]
    series = coverage_series(snaps)
    for _, pub, track in series.rows:
        assert 0.0 <= pub <= 1.0 and 0.0 <= track <= 1.0


# --- publisher id counts ----------------------------------------------------

def test_idcounts_mean_fixture():
    # 100 bearing sites: 90 single, 9 double, 1 with 3 keys -> mean 1.11
    site_keys = {}
    for i in range(90):
        site_keys[f"one{i:02d}.example"] = [f"pub-1{i:08d}"]
    for i in range(9):
        site_keys[f"two{i}.example"] = [f"pub-2{i:08d}", f"pub-3{i:08d}"]
    site_keys["three.example"] = ["pub-400000000", "pub-500000000", "pub-600000000"]
    rows = publisher_id_count_series([_snap("2020-01-01", site_keys)])
    assert rows[0].mean_keys == pytest.approx(1.11)
    assert rows[0].frac_one == pytest.approx(0.90)
    assert rows[0].frac_three_plus == pytest.approx(0.01)


def test_idcounts_all_single():
    site_keys = {f"s{i}.example": [f"pub-1{i:08d}"] for i in range(5)}
    rows = publisher_id_count_series([_snap("2020-01-01", site_keys)])
    assert (rows[0].frac_one, rows[0].frac_two, rows[0].frac_three_plus) == (1.0, 0.0, 0.0)
    assert rows[0].mean_keys == 1.0


def test_idcounts_three_plus_bucket():
    site_keys = {"a.example": ["pub-100000000", "pub-200000000", "pub-300000000"]}
    rows = publisher_id_count_series([_snap("2020-01-01", site_keys)])
    assert rows[0].frac_three_plus == 1.0


# --- transitions ------------------------------------------------------------

def _transition_pair():
    earlier = _snap(
        "2020-01-01",
        {
            "stay.example": ["pub-100000001"],
            "up.example": ["pub-200000001"],
            "down.example": ["pub-300000001"],
            "lateral.example": ["pub-400000001"],
        },
        publisher_sizes={"pub-100000001": 3, "pub-200000001": 5,
                         "pub-300000001": 50, "pub-400000001": 7},
    )
    later = _snap(
        "2020-04-01",
        {
            "stay.example": ["pub-100000001"],
            "up.example": ["pub-200000002"],
            "down.example": ["pub-300000002"],
            "lateral.example": ["pub-400000002"],
        },
        publisher_sizes={"pub-100000001": 3, "pub-200000002": 50,
                         "pub-300000002": 5, "pub-400000002": 7},
    )
    return earlier, later


def test_classify_transition_cases():
    earlier, later = _transition_pair()
    assert classify_transition("stay.example", earlier, later).transition is TransitionClass.NO_CHANGE
    assert classify_transition("up.example", earlier, later).transition is TransitionClass.BIGGER
    assert classify_transition("down.example", earlier, later).transition is TransitionClass.SMALLER
    assert classify_transition("lateral.example", earlier, later).transition is TransitionClass.INSIGNIFICANT


def test_classify_transition_antisymmetry():
    earlier, later = _transition_pair()
    flip = {
        TransitionClass.BIGGER: TransitionClass.SMALLER,
        TransitionClass.SMALLER: TransitionClass.BIGGER,
        TransitionClass.NO_CHANGE: TransitionClass.NO_CHANGE,
        TransitionClass.INSIGNIFICANT: TransitionClass.INSIGNIFICANT,
    }
    for site in ("stay.example", "up.example", "down.example", "lateral.example"):
        forward = classify_transition(site, earlier, later).transition
        backward = classify_transition(site, later, earlier).transition
        assert backward is flip[forward]


def test_classify_transition_max_size_rule():
    earlier = _snap("2020-01-01", {"m.example": ["pub-100000001", "pub-200000001"]},
                    publisher_sizes={"pub-100000001": 2, "pub-200000001": 9})
    later = _snap("2020-04-01", {"m.example": ["pub-300000001"]},
                  publisher_sizes={"pub-300000001": 9})
    rec = classify_transition("m.example", earlier, later)
    assert rec.old_size == 9 and rec.new_size == 9
    assert rec.transition is TransitionClass.INSIGNIFICANT


def test_classify_transition_absent_site_errors():
    earlier, later = _transition_pair()
    with pytest.raises(ValueError):
        classify_transition("missing.example", earlier, later)


def test_transition_series_counts_sum_to_universe():
    earlier, later = _transition_pair()
    series = transition_series([earlier, later])
    _, _, counts = series.intervals[0]
    assert sum(counts.values()) == 4
    assert counts[TransitionClass.NO_CHANGE] == 1


def test_transition_series_identical_snapshots_all_no_change():
    earlier, _ = _transition_pair()
    later = dataclasses.replace(earlier, snapshot_id="2020-04-01")
    series = transition_series([earlier, later])
    _, _, counts = series.intervals[0]
    assert counts[TransitionClass.NO_CHANGE] == 4
    assert sum(counts.values()) == 4


def test_transition_series_universe_requires_bearing_everywhere():
    snaps = [
        _snap("2020-01-01", {"a.example": ["pub-100000001"], "b.example": ["pub-200000001"]}),
        _snap("2020-04-01", {"a.example": ["pub-100000001"], "b.example": []}),
        _snap("2020-07-01", {"a.example": ["pub-100000001"], "b.example": ["pub-200000001"]}),
    ]
    series = transition_series(snaps)
    for _, _, counts in series.intervals:
        assert sum(counts.values()) == 1  # only a.example is in every snapshot


def test_transition_series_stable_majority_mirror():
    # 100-site universe in which 96 sites keep their keys every interval
    sizes = {"pub-big000001": 80, "pub-sml000001": 2}
    assignments = []
    for t in range(2):
        site_keys = {}
        for i in range(100):
            moved = i < 4 and t == 1
            site_keys[f"s{i:03d}.example"] = ["pub-sml000001" if moved else "pub-big000001"]
        assignments.append(site_keys)
    snaps = [_snap(f"2020-0{t+1}-01", a, publisher_sizes=sizes)
             for t, a in enumerate(assignments)]
    series = transition_series(snaps)
    _, _, counts = series.intervals[0]
    assert counts[TransitionClass.NO_CHANGE] / sum(counts.values()) == pytest.approx(0.96)


def test_transition_series_drift_toward_smaller():
    # cumulative down-moves 0,2,6,12,20 -> interval counts 2,4,6,8: slope +2
    snaps = []
    sizes = {"pub-big000001": 80, "pub-sml000001": 2}
    cumulative = [0, 2, 6, 12, 20]
    for t in range(5):
        site_keys = {}
        for i in range(20):
            moved = i < cumulative[t]
            site_keys[f"s{i:02d}.example"] = ["pub-sml000001" if moved else "pub-big000001"]
        snaps.append(_snap(f"2020-0{t+1}-01", site_keys, publisher_sizes=sizes))
    series = transition_series(snaps)
    smaller_counts = [c[TransitionClass.SMALLER] for _, _, c in series.intervals]
    assert smaller_counts == [2, 4, 6, 8]
    assert series.trends[TransitionClass.SMALLER].slope == pytest.approx(2.0)
    assert series.trends[TransitionClass.SMALLER].slope > 0


def test_transition_series_per_pair_universe():
    snaps = first_pair_only_snapshots()
    counts = {flag: [c for _, _, c in transition_series(snaps, per_pair_universe=flag).intervals]
              for flag in (False, True)}
    # b.example bears a Publisher in the first pair only: it counts there with
    # the flag, and the all-snapshot universe leaves it out of every interval.
    assert counts[True][0] == {TransitionClass.NO_CHANGE: 2, TransitionClass.BIGGER: 0,
                               TransitionClass.SMALLER: 1, TransitionClass.INSIGNIFICANT: 0}
    assert counts[True][1] == counts[False][0] == counts[False][1] == {
        TransitionClass.NO_CHANGE: 2, TransitionClass.BIGGER: 0,
        TransitionClass.SMALLER: 0, TransitionClass.INSIGNIFICANT: 0}


def test_transition_series_empty_universe_errors():
    snaps = [
        _snap("2020-01-01", {"a.example": ["pub-100000001"]}),
        _snap("2020-04-01", {"b.example": ["pub-200000001"]}),
    ]
    with pytest.raises(ValueError):
        transition_series(snaps)


# --- class census -----------------------------------------------------------

def test_class_population_counts_and_slopes():
    # Mega shrinks by 2 per step; Small grows by 15000 per step.
    snaps = []
    for t in range(4):
        sizes = {}
        for i in range(10 - 2 * t):
            sizes[f"pub-mega{i:06d}"] = 150
        for i in range(15000 * (t + 1)):
            sizes[f"pub-smal{i:06d}"] = 1
        sizes["pub-med0000001"] = 20
        snaps.append(Snapshot.build(f"2020-0{t+1}-01", [], total_sites=1,
                                    publisher_sizes=sizes))
    series = class_population_series(snaps)
    assert [counts[PublisherClass.MEGA] for _, counts in series.rows] == [10, 8, 6, 4]
    assert series.slopes[PublisherClass.MEGA] == pytest.approx(-2.0)
    assert series.slopes[PublisherClass.SMALL] == pytest.approx(15000.0)
    assert series.slopes[PublisherClass.MEDIUM] == pytest.approx(0.0)


def test_class_population_static_zero_slopes():
    sizes = {"pub-100000001": 5, "pub-200000001": 60}
    snaps = [Snapshot.build(f"2020-0{t+1}-01", [], total_sites=1, publisher_sizes=sizes)
             for t in range(3)]
    series = class_population_series(snaps)
    assert all(slope == pytest.approx(0.0) for slope in series.slopes.values())


def test_class_population_two_snapshots_no_slopes():
    sizes = {"pub-100000001": 5}
    snaps = [Snapshot.build(f"2020-0{t+1}-01", [], total_sites=1, publisher_sizes=sizes)
             for t in range(2)]
    series = class_population_series(snaps)
    assert all(slope is None for slope in series.slopes.values())


# --- top publishers ---------------------------------------------------------

def test_top_publishers_decline_mirror():
    # fixed top-10 lose 25% of their sites across the series
    snaps = []
    for t, scale in enumerate((1.0, 0.9, 0.75)):
        sizes = {f"pub-top{i:07d}": int(200 * scale) for i in range(10)}
        sizes.update({f"pub-noise{t}{i:05d}": 1 for i in range(5)})
        snaps.append(Snapshot.build(f"2020-0{t+1}-01", [], total_sites=1,
                                    publisher_sizes=sizes))
    series = top_publishers_series(snaps, k=10)
    first, last = series.rows[0][2], series.rows[-1][2]
    assert (first - last) / first == pytest.approx(0.25)


def test_top_publishers_single_snapshot_series_coincide():
    sizes = {f"pub-100000{i:03d}": 10 + i for i in range(15)}
    snap = Snapshot.build("2020-01-01", [], total_sites=1, publisher_sizes=sizes)
    series = top_publishers_series([snap], k=10)
    assert series.rows[0][1] == series.rows[0][2]


def test_top_publishers_k_clamps():
    sizes = {"pub-100000001": 4, "pub-200000001": 2}
    snap = Snapshot.build("2020-01-01", [], total_sites=1, publisher_sizes=sizes)
    series = top_publishers_series([snap], k=10)
    assert series.rows[0][1] == 6


def test_top_publishers_fixed_requires_presence_everywhere():
    snaps = [
        Snapshot.build("2020-01-01", [], total_sites=1,
                       publisher_sizes={"pub-100000001": 9, "pub-200000001": 5}),
        Snapshot.build("2020-04-01", [], total_sites=1,
                       publisher_sizes={"pub-200000001": 5}),
    ]
    series = top_publishers_series(snaps, k=10)
    assert series.fixed_keys == ("pub-200000001",)


# --- snapshot I/O -----------------------------------------------------------

def test_snapshot_roundtrip(tmp_path):
    profiles = _profiles({"a.example": ["pub-100000001"], "b.example": []})
    snap = Snapshot.build("2021-04-01", profiles, total_sites=7)
    save_snapshot(profiles, tmp_path / "snap", "2021-04-01", 7)
    again = load_snapshot(tmp_path / "snap")
    assert again.snapshot_id == "2021-04-01"
    assert again.total_sites == 7
    assert again.profiles.keys() == snap.profiles.keys()
    assert again.publisher_sizes == snap.publisher_sizes
    assert again == snap


def test_total_sites_below_the_profiled_sites_names_the_manifest(tmp_path):
    """Coverage divides by total_sites, so fewer sites than profiles would
    give fractions above 1; equal counts still load."""
    profiles = _profiles({"a.example": ["pub-100000001"], "b.example": ["pub-100000001"]})
    save_snapshot(profiles, tmp_path / "snap", "2021-04-01", 1)
    manifest = tmp_path / "snap" / "manifest.json"
    with pytest.raises(FormatError, match=rf"^{re.escape(str(manifest))}: total_sites 1 is below "
                                          r"the 2 profiled sites$"):
        load_snapshot(tmp_path / "snap")
    save_snapshot(profiles, tmp_path / "snap", "2021-04-01", 2)
    assert coverage_series([load_snapshot(tmp_path / "snap")]).rows == [("2021-04-01", 1.0, 0.0)]


def test_load_snapshots_orders_and_validates(tmp_path):
    for sid in ("2021-07-01", "2021-04-01"):
        save_snapshot(_profiles({"a.example": ["pub-100000001"]}), tmp_path / sid, sid, 1)
    snaps = load_snapshots([tmp_path / "2021-07-01", tmp_path / "2021-04-01"])
    assert [s.snapshot_id for s in snaps] == ["2021-04-01", "2021-07-01"]


def test_load_snapshots_rejects_duplicate_ids(tmp_path):
    for name in ("x", "y"):
        save_snapshot(_profiles({"a.example": ["pub-100000001"]}), tmp_path / name,
                      "2021-04-01", 1)
    with pytest.raises(ValueError):
        load_snapshots([tmp_path / "x", tmp_path / "y"])


def test_snapshot_ids_must_increase():
    snaps = [
        _snap("2021-04-01", {"a.example": ["pub-100000001"]}),
        _snap("2021-04-01", {"a.example": ["pub-100000001"]}),
    ]
    with pytest.raises(ValueError):
        coverage_series(snaps)


def test_compact_snapshots_match_the_full_profile_reference(tmp_path):
    """Snapshots decoded straight into per-site keys give every series the
    full-profile path gives, on seeded sets that hold the site shapes,
    shared publishers, universes and k the series treat apart."""
    seen = dict.fromkeys(("tracking only", "measurement only", "keyless", "shared publisher",
                          "universes differ", "clamped k"), 0)
    for seed in range(40):
        rng = random.Random(seed)
        dirs = []
        for sid, profiles, total_sites in random_snapshot_set(seed):
            dirs.append(tmp_path / str(seed) / sid)
            write_shuffled_snapshot(dirs[-1], sid, profiles, total_sites, rng)
        rng.shuffle(dirs)
        compact = load_snapshots(dirs)
        reference = sorted(map(load_snapshot_reference, dirs), key=lambda s: s.snapshot_id)
        for got, want in zip(compact, reference, strict=True):
            assert (got.snapshot_id, got.total_sites) == (want.snapshot_id, want.total_sites)
            assert list(got.profiles) == list(want.profiles)
            for domain, profile in want.profiles.items():
                for kind in (IdKind.PUBLISHER, IdKind.TRACKING):
                    keys = got.profiles[domain].keys_for(kind)
                    assert keys == tuple(sorted(profile.keys_for(kind)))
            assert got.publisher_sizes == want.publisher_sizes
        k = random.Random(seed).choice((1, 2, 3))
        got, want = history_series(compact, k), history_series(reference, k)
        assert got == want, seed

        for snap in reference:
            for p in snap.profiles.values():
                kinds = set(p.keys)
                seen["tracking only"] += kinds == {IdKind.TRACKING}
                seen["measurement only"] += kinds == {IdKind.MEASUREMENT}
                seen["keyless"] += not kinds
            seen["shared publisher"] += any(size > 1 for size in snap.publisher_sizes.values())
        seen["universes differ"] += got["transitions"] != got["transitions_per_pair"]
        seen["clamped k"] += got["top"] != got["top_clamped"]
    assert all(seen.values()), seen


def test_compact_snapshots_keep_only_publisher_and_tracking_keys():
    snap = Snapshot.build("2021-01-01", [
        make_profile("a.example", publisher={"pub-200000001", "pub-100000001"},
                     tracking={"UA-1234"}, measurement={"G-ABCDEFG"}),
        make_profile("b.example", container={"GTM-ABC123"}),
    ])
    a = snap.profiles["a.example"]
    assert a.keys_for(IdKind.PUBLISHER) == ("pub-100000001", "pub-200000001")
    assert a.keys_for(IdKind.TRACKING) == ("UA-1234",)
    assert snap.profiles["b.example"].keys_for(IdKind.PUBLISHER) == ()
    assert snap.bearing_domains(IdKind.TRACKING) == {"a.example"}
    for kind in (IdKind.MEASUREMENT, IdKind.CONTAINER):
        with pytest.raises(ValueError, match=f"keeps no {kind.value} keys"):
            a.keys_for(kind)
        with pytest.raises(ValueError, match=f"keeps no {kind.value} keys"):
            snap.bearing_domains(kind)


def test_build_counts_publisher_sizes_over_the_sites_it_keeps():
    # A repeated domain keeps its last profile, and only that one counts.
    snap = Snapshot.build("2021-01-01", [
        make_profile("a.example", publisher={"pub-100000001"}),
        make_profile("a.example", publisher={"pub-200000002"}),
        make_profile("b.example", publisher={"pub-200000002"}),
    ])
    assert snap.profiles["a.example"].keys_for(IdKind.PUBLISHER) == ("pub-200000002",)
    assert snap.publisher_sizes == {"pub-200000002": 2}
    assert snap.total_sites == 2
