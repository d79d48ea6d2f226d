import json
import math
import os
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infrasense import aggregation
from infrasense.aggregation import (
    AggregationError,
    GridIndex,
    MatchPolicy,
    SegmentAnchor,
    SegmentState,
    SegmentStore,
    StoreError,
    fuse,
    great_circle,
)
from infrasense.reports import EARTH_RADIUS, KINDS, Indicator
from oracles import load_replay, match_segment_scan

DAY = 86400.0
METERS_PER_DEG = math.pi / 180.0 * 6371000.0
KINDS_DRAWN = ("anomaly", "roughness")


def ind(lat=51.0, lon=7.0, t=0.0, value=1.0, kind="anomaly"):
    return Indicator(kind=kind, sub_kind="point", lat=lat, lon=lon, t=t,
                     severity=10, confidence=0.5, value=value)


def offset(base_lat, north_m, east_m=0.0):
    return (base_lat + north_m / METERS_PER_DEG,
            7.0 + east_m / (METERS_PER_DEG * math.cos(math.radians(base_lat))))


class TestGreatCircle:
    def test_zero(self):
        assert great_circle(51.0, 7.0, 51.0, 7.0) == 0.0

    def test_one_degree_latitude(self):
        assert great_circle(51.0, 7.0, 52.0, 7.0) == pytest.approx(METERS_PER_DEG, rel=1e-9)

    def test_symmetry(self):
        assert great_circle(51.0, 7.0, 51.3, 7.4) == pytest.approx(
            great_circle(51.3, 7.4, 51.0, 7.0), abs=1e-9)

    def test_small_offset(self):
        lat, lon = offset(51.0, 10.0, 0.0)
        assert great_circle(51.0, 7.0, lat, lon) == pytest.approx(10.0, rel=1e-6)


class TestFuse:
    def policy(self):
        return MatchPolicy(half_life=30 * DAY)

    def fresh(self):
        return SegmentState(anchor=SegmentAnchor(0, 51.0, 7.0, "anomaly"))

    def test_first_contribution_taken_verbatim(self):
        st_ = fuse(self.fresh(), 100.0, 7.5, self.policy())
        assert st_.value == 7.5
        assert st_.weight_sum == 1.0
        assert st_.last_update == 100.0

    def test_half_life_example(self):
        # value 2 aged exactly one half-life, then 4 arrives:
        # (0.5*1*2 + 4) / (0.5*1 + 1) = 10/3
        st_ = fuse(self.fresh(), 0.0, 2.0, self.policy())
        st_ = fuse(st_, 30 * DAY, 4.0, self.policy())
        assert abs(st_.value - 10.0 / 3.0) < 1e-12
        assert st_.weight_sum == pytest.approx(1.5, abs=1e-12)

    def test_simultaneous_contributions_average(self):
        st_ = self.fresh()
        for v in (1.0, 2.0, 6.0):
            st_ = fuse(st_, 50.0, v, self.policy())
        assert st_.value == pytest.approx(3.0, abs=1e-12)
        assert st_.weight_sum == pytest.approx(3.0)

    def test_late_arrival_decays_without_rewinding_clock(self):
        st_ = fuse(self.fresh(), 100 * DAY, 5.0, self.policy())
        st_ = fuse(st_, 70 * DAY, 5.0, self.policy())  # 30 days in the past
        assert st_.last_update == 100 * DAY
        assert st_.weight_sum == pytest.approx(1.5)

    def test_non_finite_rejected(self):
        with pytest.raises(AggregationError):
            fuse(self.fresh(), 0.0, float("nan"), self.policy())

    @given(vals=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=20),
           dts=st.lists(st.floats(0.0, 90.0), min_size=20, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_convexity(self, vals, dts):
        # the aggregate always stays inside the hull of the contributions
        st_ = self.fresh()
        t = 0.0
        for n, (v, dt) in enumerate(zip(vals, dts), 1):
            t += dt * DAY
            st_ = fuse(st_, t, v, self.policy())
            assert min(vals[:n]) - 1e-9 <= st_.value <= max(vals[:n]) + 1e-9

    @given(c=st.floats(-50.0, 50.0), n=st.integers(2, 30), seed=st.integers(0, 999))
    @settings(max_examples=60, deadline=None)
    def test_constant_convergence(self, c, n, seed):
        rng = np.random.default_rng(seed)
        st_ = self.fresh()
        t = 0.0
        for _ in range(n):
            t += float(rng.uniform(0, 60 * DAY))
            st_ = fuse(st_, t, c, self.policy())
        assert st_.value == pytest.approx(c, abs=1e-9)

    def test_decay_pulls_toward_newest(self):
        # the longer the gap, the closer the aggregate lands to the new value
        prev = None
        for gap_days in (1.0, 10.0, 30.0, 90.0, 300.0):
            st_ = fuse(self.fresh(), 0.0, 0.0, self.policy())
            st_ = fuse(st_, gap_days * DAY, 10.0, self.policy())
            if prev is not None:
                assert st_.value > prev
            prev = st_.value
        assert prev > 9.9  # 300 days >> half-life: old evidence nearly gone


class TestMatchPolicy:
    @pytest.mark.parametrize("fields", [
        {"radius": math.nan}, {"half_life": math.nan}, {"radius": 0.0},
        {"half_life": -1.0}])
    def test_rejects_non_positive_or_nan(self, fields):
        with pytest.raises(ValueError, match="must be positive"):
            MatchPolicy(**fields)


class TestMatchSegment:
    def test_first_indicator_bootstraps_anchor(self):
        store = SegmentStore()
        aid = store.match_segment(ind(), MatchPolicy())
        assert aid == 0
        assert store.states[0].anchor.contribution_count == 1

    def test_nearby_point_reuses_anchor_and_moves_centroid(self):
        store = SegmentStore()
        store.match_segment(ind(), MatchPolicy())
        lat2, lon2 = offset(51.0, 10.0)
        aid = store.match_segment(ind(lat=lat2, lon=lon2), MatchPolicy())
        assert aid == 0
        anchor = store.states[0].anchor
        assert anchor.contribution_count == 2
        # centroid at the midpoint, 5 m north of the first report
        assert great_circle(anchor.lat, anchor.lon, *offset(51.0, 5.0)) < 0.01

    @pytest.mark.parametrize("first_lon", [179.99995, -179.99995])
    def test_centroid_across_the_antimeridian(self, first_lon):
        # two reports 11 m apart on either side of +-180 deg share one
        # anchor, whose centroid is their midpoint on the antimeridian
        store = SegmentStore()
        reports = [ind(lat=0.0, lon=first_lon), ind(lat=0.0, lon=-first_lon)]
        assert [store.match_segment(r, MatchPolicy()) for r in reports] == [0, 0]
        anchor = store.states[0].anchor
        assert -180.0 <= anchor.lon <= 180.0
        assert great_circle(anchor.lat, anchor.lon, 0.0, 180.0) < 1.0
        half = great_circle(0.0, first_lon, 0.0, -first_lon) / 2.0
        for r in reports:
            assert great_circle(anchor.lat, anchor.lon, r.lat, r.lon) == pytest.approx(half, abs=1.0)
        assert_matches_scan([(r, 15.0) for r in reports])

    def test_far_point_new_anchor(self):
        store = SegmentStore()
        store.match_segment(ind(), MatchPolicy())
        lat2, lon2 = offset(51.0, 50.0)
        assert store.match_segment(ind(lat=lat2, lon=lon2), MatchPolicy()) == 1

    def test_kinds_never_mix(self):
        store = SegmentStore()
        store.match_segment(ind(kind="anomaly"), MatchPolicy())
        assert store.match_segment(ind(kind="roughness"), MatchPolicy()) == 1

    def test_tie_breaks_to_smaller_id(self):
        # two co-located anchors make the distances exactly equal
        store = SegmentStore()
        store.states[0] = SegmentState(anchor=SegmentAnchor(0, 51.0, 7.0, "anomaly"))
        store.states[1] = SegmentState(anchor=SegmentAnchor(1, 51.0, 7.0, "anomaly"))
        store._next_id = 2
        assert store.match_segment(ind(), MatchPolicy()) == 0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(42)
        policy = MatchPolicy()
        store = SegmentStore()
        anchors = []  # (id, lat, lon) snapshot before each query
        for _ in range(300):
            lat, lon = offset(51.0, float(rng.uniform(0, 300)),
                              float(rng.uniform(0, 300)))
            snapshot = [(aid, st_.anchor.lat, st_.anchor.lon)
                        for aid, st_ in sorted(store.states.items())]
            aid = store.match_segment(ind(lat=lat, lon=lon), policy)
            best, best_d = None, None
            for a, alat, alon in snapshot:
                d = great_circle(alat, alon, lat, lon)
                if d <= policy.radius and (best_d is None or d < best_d):
                    best, best_d = a, d
            if best is None:
                assert aid == max(store.states)  # freshly created
            else:
                assert aid == best

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            MatchPolicy(radius=0.0)


class TestSegmentStore:
    def fill(self, store, n=20, seed=0):
        rng = np.random.default_rng(seed)
        policy = MatchPolicy()
        for i in range(n):
            lat, lon = offset(51.0, float(rng.uniform(0, 200)))
            store.contribute(ind(lat=lat, lon=lon, t=float(i) * DAY,
                                 value=float(rng.uniform(0, 10))), policy)
        return policy

    def test_contribute_rejects_non_finite(self):
        store = SegmentStore()
        assert store.contribute(ind(value=float("inf")), MatchPolicy()) == -1
        assert store.rejected == 1
        assert len(store) == 0

    @pytest.mark.parametrize("lat, lon", [
        (float("nan"), 7.0), (51.0, float("nan")), (float("inf"), 7.0),
        (51.0, float("-inf")), (90.5, 7.0), (-95.0, 7.0), (51.0, 180.5), (51.0, -181.0),
    ], ids=["nan-lat", "nan-lon", "inf-lat", "inf-lon", "lat-over-90", "lat-under-minus-90",
            "lon-over-180", "lon-under-minus-180"])
    def test_contribute_rejects_a_position_off_the_wgs84_range(self, lat, lon):
        store = SegmentStore()
        assert store.contribute(ind(lat=lat, lon=lon), MatchPolicy()) == -1
        assert store.rejected == 1
        assert len(store) == 0
        assert store.records == []

    @pytest.mark.parametrize("field, bad", [
        ("t", True), ("t", False), ("lat", True), ("lon", False), ("value", True),
        ("t", 10 ** 400), ("value", -10 ** 400)],
        ids=["t-true", "t-false", "lat-true", "lon-false", "value-true", "t-huge-int",
             "value-huge-int"])
    def test_contribute_rejects_what_the_log_cannot_replay(self, tmp_path, field, bad):
        # `load` refuses a line with a bool or an int beyond float range, so
        # the store must not log one
        store = SegmentStore()
        store.contribute(ind(), MatchPolicy())
        fields = {"lat": 51.0, "lon": 7.0, "t": 1.0, "value": 2.0, field: bad}
        assert store.contribute(ind(**fields), MatchPolicy()) == -1
        assert store.rejected == 1 and len(store.records) == 1
        store.save(tmp_path / "store.jsonl")
        (tmp_path / "store.jsonl.state").unlink()
        assert state_bits(SegmentStore.load(tmp_path / "store.jsonl", MatchPolicy())) == \
            state_bits(store)

    def test_contribute_rejects_an_int_t_too_far_from_its_anchors(self, tmp_path):
        # fuse's decay cannot take the int difference 2 * 10**308; the record
        # is refused before the anchor moves or counts it
        store = SegmentStore()
        assert store.contribute(ind(t=10 ** 308), MatchPolicy()) == 0
        before = state_bits(store)
        assert store.contribute(ind(lat=51.00001, t=-10 ** 308), MatchPolicy()) == -1
        assert store.rejected == 1 and len(store.records) == 1
        assert state_bits(store) == before
        # far from every anchor it starts one of its own
        assert store.contribute(ind(lat=52.0, t=-10 ** 308), MatchPolicy()) == 1
        store.save(tmp_path / "store.jsonl")
        (tmp_path / "store.jsonl.state").unlink()
        assert state_bits(SegmentStore.load(tmp_path / "store.jsonl", MatchPolicy())) == \
            state_bits(store)

    def test_contribute_takes_the_wgs84_range_limits(self):
        store = SegmentStore()
        for lat, lon in [(90.0, 7.0), (-90.0, 7.0), (51.0, 180.0), (51.0, -180.0)]:
            assert store.contribute(ind(lat=lat, lon=lon), MatchPolicy()) >= 0
        assert store.rejected == 0
        assert len(store.records) == 4

    def test_snapshot_sorted_and_filtered(self):
        store = SegmentStore()
        self.fill(store)
        store.contribute(ind(lat=52.0, kind="roughness"), MatchPolicy())
        snap = store.snapshot()
        assert [s.anchor.id for s in snap] == sorted(s.anchor.id for s in snap)

    def test_deterministic_rebuild(self, tmp_path):
        a = SegmentStore()
        policy = self.fill(a, n=50)
        path = tmp_path / "store.jsonl"
        a.save(path)
        b = SegmentStore.load(path, policy)
        assert len(a) == len(b)
        for aid in a.states:
            sa, sb = a.states[aid], b.states[aid]
            assert sa.value == pytest.approx(sb.value, abs=1e-12)
            assert sa.weight_sum == pytest.approx(sb.weight_sum, abs=1e-12)
            assert sa.anchor.lat == pytest.approx(sb.anchor.lat, abs=1e-12)

    def test_corrupt_line_reported_with_number(self, tmp_path):
        store = SegmentStore()
        self.fill(store, n=3)
        path = tmp_path / "store.jsonl"
        store.save(path)
        lines = path.read_text().splitlines()
        lines[1] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreError, match="line 2"):
            SegmentStore.load(path, MatchPolicy())

    def test_policy_mismatch_detected(self, tmp_path):
        store = SegmentStore()
        policy = MatchPolicy(radius=15.0)
        lat2, lon2 = offset(51.0, 10.0)
        store.contribute(ind(), policy)
        store.contribute(ind(lat=lat2, lon=lon2), policy)  # same anchor at 15 m
        path = tmp_path / "store.jsonl"
        store.save(path)
        with pytest.raises(StoreError):
            SegmentStore.load(path, MatchPolicy(radius=1.0))

    def test_geojson_roundtrip_fields(self, tmp_path):
        store = SegmentStore()
        self.fill(store, n=10)
        out = tmp_path / "snap.geojson"
        col = store.snapshot_geojson(out)
        assert col["type"] == "FeatureCollection"
        assert len(col["features"]) == len(store)
        f0 = col["features"][0]
        assert set(f0["properties"]) == {
            "anchor_id", "kind", "value", "weight_sum", "last_update",
            "contribution_count"}
        assert out.exists()

    def test_centroid_stays_within_radius_of_reports(self):
        store = SegmentStore()
        policy = MatchPolicy()
        pts = [offset(51.0, d) for d in (0.0, 8.0, 14.0, 6.0)]
        for lat, lon in pts:
            store.contribute(ind(lat=lat, lon=lon), policy)
        anchor = store.states[0].anchor
        assert all(great_circle(anchor.lat, anchor.lon, la, lo) <= policy.radius
                   for la, lo in pts)


def rewrite(store) -> bytes:
    """The log as a full rewrite writes it."""
    return "".join(json.dumps(rec) + "\n" for rec in store.records).encode()


def state_bits(store):
    """Every state of the store by repr, so that NaN equals NaN and 0 differs
    from 0.0."""
    return repr([(aid, vars(s.anchor), s.value, s.weight_sum, s.last_update)
                 for aid, s in sorted(store.states.items())])


def add(store, n, start=0, policy=MatchPolicy()):
    for i in range(start, start + n):
        lat, lon = offset(51.0, 37.0 * (i % 7), 11.0 * (i % 3))
        store.contribute(ind(lat=lat, lon=lon, t=float(i) * DAY, value=i % 10), policy)


def full_rewrite(n) -> bytes:
    """The log of a store fed the first `n` contributions of `add` at once."""
    store = SegmentStore()
    add(store, n)
    return rewrite(store)


class TestStoreLog:
    """`save` leaves in the file, for a log this program wrote, the bytes a
    full rewrite writes, or, if the write fails, the log that was there
    before."""

    def test_reopened_store_saves_a_full_rewrite(self, tmp_path):
        path, full = tmp_path / "store.jsonl", tmp_path / "full.jsonl"
        first = SegmentStore()
        add(first, 30)
        first.save(path)
        store = SegmentStore.load(path, MatchPolicy())
        add(store, 10, start=30)
        store.save(path)
        store.save(full)
        assert path.read_bytes() == full.read_bytes() == full_rewrite(40)
        assert len(path.read_bytes().splitlines()) == 40
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "full.jsonl", "full.jsonl.state", "store.jsonl", "store.jsonl.state"]

    def test_log_in_another_layout_keeps_its_bytes(self, tmp_path):
        path = tmp_path / "store.jsonl"
        source = SegmentStore()
        add(source, 5)
        foreign = "".join(json.dumps(r, separators=(",", ":")) + "\n\n"
                          for r in source.records)
        path.write_text(foreign)
        store = SegmentStore.load(path, MatchPolicy())
        add(store, 3, start=5)
        store.save(path)
        assert path.read_text() == foreign + "".join(
            json.dumps(rec) + "\n" for rec in store.records)
        assert state_bits(SegmentStore.load(path, MatchPolicy())) == state_bits(store)

    def test_last_line_without_newline(self, tmp_path):
        path = tmp_path / "store.jsonl"
        source = SegmentStore()
        add(source, 4)
        path.write_bytes(rewrite(source).rstrip(b"\n"))
        store = SegmentStore.load(path, MatchPolicy())
        add(store, 2, start=4)
        store.save(path)
        assert path.read_bytes() == full_rewrite(6)

    def test_carriage_returns_end_lines(self, tmp_path):
        # as a text file reads them: \r\n and a lone \r end a line, saved as \n
        path = tmp_path / "store.jsonl"
        a, b, c, d = full_rewrite(4).decode().splitlines()
        path.write_bytes(f"{a}\r\n{b}\r{c}\n{d}\r".encode())
        store = SegmentStore.load(path, MatchPolicy())
        assert store.replayed == 4
        store.save(path)
        assert path.read_bytes() == full_rewrite(4)
        assert SegmentStore.load(path, MatchPolicy()).from_checkpoint

    def test_nothing_added(self, tmp_path):
        path = tmp_path / "store.jsonl"
        source = SegmentStore()
        add(source, 4)
        path.write_bytes(rewrite(source).rstrip(b"\n"))
        store = SegmentStore.load(path, MatchPolicy())
        store.save(path)
        store.save(path)
        assert path.read_bytes() == full_rewrite(4)

    def test_fresh_store_and_other_path_write_every_record(self, tmp_path):
        path, other = tmp_path / "store.jsonl", tmp_path / "other.jsonl"
        path.write_text("stale\n")
        store = SegmentStore()
        add(store, 6)
        store.save(path)
        assert path.read_bytes() == rewrite(store)
        other.write_text("stale\n")
        reopened = SegmentStore.load(path, MatchPolicy())
        add(reopened, 2, start=6)
        reopened.save(other)
        assert other.read_bytes() == full_rewrite(8)

    def test_write_that_fails_part_way_leaves_the_old_log(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = SegmentStore()
        add(store, 20)
        store.save(path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        add(store, 5, start=20)
        store.records.insert(22, {"op": object()})  # not JSON: the write stops there
        with pytest.raises(TypeError):
            store.save(path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert sorted(before) == ["store.jsonl", "store.jsonl.state"]

    def test_rename_that_fails_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "store"
        path.mkdir()
        store = SegmentStore()
        add(store, 3)
        with pytest.raises(OSError):
            store.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["store"]

    def test_pipe_gets_the_log_and_no_checkpoint(self, tmp_path):
        path = tmp_path / "pipe"
        os.mkfifo(path)
        store = SegmentStore()
        add(store, 3)
        received = []
        reader = threading.Thread(target=lambda: received.append(path.read_bytes()), daemon=True)
        reader.start()
        store.save(path)
        reader.join(timeout=10)
        assert received == [full_rewrite(3)]
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    @given(st.lists(st.tuples(st.integers(0, 6), st.booleans()), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_saves_and_reloads_keep_a_full_rewrite(self, steps):
        """Any sequence of contributions, saves and reloads leaves the bytes
        of a full rewrite in the file."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "store.jsonl")
            store, added = SegmentStore(), 0
            for n, reload in steps:
                add(store, n, start=added)
                added += n
                store.save(path)
                with open(path, "rb") as fh:
                    assert fh.read() == full_rewrite(added)
                if reload:
                    store = SegmentStore.load(path, MatchPolicy())


def json_number(lo, hi, extra=()):
    """A JSON number in [lo, hi]: an int, a float, -0.0, or a float that repr
    writes in exponent form."""
    tiny = st.sampled_from([1e-07, -2.5e-05, 5e-324, -1.5e-300, 3.0e-16, *extra])
    return st.one_of(st.integers(int(lo), int(hi)), st.floats(lo, hi), st.just(-0.0), tiny)


@st.composite
def contribution(draw, near):
    """An indicator near one place (`near`: most then match an anchor) or
    anywhere, of any kind, with an int or float position and value and any
    `t`, a bool among them."""
    if near:
        lat = draw(st.sampled_from([51, 51.0, 51.00001, -0.0, 0]))
        lon = draw(st.sampled_from([7, 7.0, 7.00001, 180, -180.0]))
    else:
        lat, lon = draw(json_number(-90, 90)), draw(json_number(-180, 180))
    t = draw(st.one_of(st.floats(), st.integers(-10**6, 10**6), st.booleans(),
                       st.sampled_from([math.inf, -math.inf, math.nan, 1e16, 1e22])))
    value = draw(json_number(-1e6, 1e6, extra=(1e300, -1e-200)))
    return Indicator(kind=draw(st.sampled_from(KINDS)), sub_kind="", lat=lat, lon=lon, t=t,
                     severity=0, confidence=1.0, value=value)


@st.composite
def stores(draw):
    """A store fed up to eight contributions (`contribution`)."""
    store = SegmentStore()
    near = draw(st.booleans())
    for _ in range(draw(st.integers(0, 8))):
        store.contribute(draw(contribution(near)), MatchPolicy())
    return store


class TestStoreText:
    """The log and the snapshot hold json's own bytes for what they hold."""

    @given(stores())
    @settings(max_examples=300, deadline=None)
    def test_log_lines_are_json_dumps(self, store):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "store.jsonl")
            store.save(path)
            with open(path, "rb") as fh:
                assert fh.read() == rewrite(store)

    @given(stores())
    @settings(max_examples=300, deadline=None)
    def test_snapshot_is_json_dumps(self, store):
        expect = {"type": "FeatureCollection", "features": [
            {"type": "Feature",
             "geometry": {"type": "Point", "coordinates": [s.anchor.lon, s.anchor.lat]},
             "properties": {"anchor_id": s.anchor.id, "kind": s.anchor.kind,
                            "value": s.value, "weight_sum": s.weight_sum,
                            "last_update": s.last_update,
                            "contribution_count": s.anchor.contribution_count}}
            for s in store.snapshot()]}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snapshot.geojson")
            collection = store.snapshot_geojson(path)
            with open(path) as fh:
                text = fh.read()
        assert collection == expect
        assert text == json.dumps(expect)
        assert repr(json.loads(text)) == repr(expect)

    def test_empty_store(self, tmp_path):
        store = SegmentStore()
        store.save(tmp_path / "store.jsonl")
        collection = store.snapshot_geojson(tmp_path / "snapshot.geojson")
        assert (tmp_path / "store.jsonl").read_bytes() == b""
        assert collection == {"type": "FeatureCollection", "features": []}
        assert ((tmp_path / "snapshot.geojson").read_text()
                == json.dumps(collection)
                == '{"type": "FeatureCollection", "features": []}')

    def test_non_finite_and_int_fields(self, tmp_path):
        store = SegmentStore()
        for t in (math.nan, math.inf, 3):
            store.contribute(ind(lat=51, lon=7, t=t, value=2), MatchPolicy())
        store.states[7] = SegmentState(SegmentAnchor(7, -0.0, 1e-07, "twist"))
        store.save(tmp_path / "store.jsonl")
        store.snapshot_geojson(tmp_path / "snapshot.geojson")
        text = (tmp_path / "snapshot.geojson").read_text()
        assert (tmp_path / "store.jsonl").read_bytes() == rewrite(store)
        log = rewrite(store).decode()
        assert '"t": NaN' in log and '"t": Infinity' in log and '"lat": 51,' in log
        assert '"last_update": -Infinity' in text and '"coordinates": [1e-07, -0.0]' in text
        collection = store.snapshot_geojson()
        assert text == json.dumps(collection)
        assert repr(json.loads(text)) == repr(collection)


def edit_line(line: str, data) -> str:
    """One saved log line, kept or edited in one of the ways a log written by
    hand or by another tool can differ."""
    rec = json.loads(line)
    how = data.draw(st.sampled_from(
        ["keep"] * 6 + ["compact", "odd-break", "blank", "crlf", "corrupt", "text-lat",
                        "unknown-kind", "wrong-id", "missing-key", "not-object", "rejected"]))
    if how == "compact":
        return json.dumps(rec, separators=(",", ":"))
    if how == "odd-break":  # a character that str.splitlines breaks at, in a string
        char = data.draw(st.sampled_from(["\u2028", "\x85", "\x1c", "\x0b", "\x1e"]))
        return line[:-1] + f', "note": "a{char}b"}}'
    if how == "blank":
        return line + "\n" + data.draw(st.sampled_from(["", "  ", "\t"]))
    if how == "crlf":
        return line + "\r"
    if how == "corrupt":
        return line[:data.draw(st.integers(0, len(line) - 1))]
    if how == "text-lat":
        rec["lat"] = str(rec["lat"])
    elif how == "unknown-kind":
        rec["kind"] = data.draw(st.sampled_from(["pothole", "Anomaly", 1, None]))
    elif how == "wrong-id":
        rec["anchor_id"] += 1
    elif how == "missing-key":
        del rec[data.draw(st.sampled_from(sorted(rec)))]
    elif how == "not-object":
        return json.dumps(list(rec))
    elif how == "rejected":  # refused by the replay, at the id it logs for that
        return line + "\n" + json.dumps({**rec, "anchor_id": -1, "value": math.nan})
    return json.dumps(rec)


def replay_outcome(load, path, policy):
    """What a loader makes of a log: its states, rejections and next id, or
    its error."""
    try:
        store = load(path, policy)
    except Exception as e:  # any error: its type and text are compared
        return "refused", type(e).__name__, str(e)
    return "loaded", state_bits(store), store.rejected, store._next_id


class TestReplay:
    """`load` folds each record without an `Indicator` and gives what the
    replay of each line through `contribute` gives."""

    @given(stores(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_load_is_the_replay_through_contribute(self, store, data):
        radius = data.draw(st.sampled_from([15.0, 1.0, 1e6]))
        with tempfile.TemporaryDirectory() as tmp:
            path, again = os.path.join(tmp, "store.jsonl"), os.path.join(tmp, "again.jsonl")
            store.save(path)
            with open(path) as fh:
                lines = fh.read().split("\n")[:-1]
            text = "\n".join(edit_line(line, data) for line in lines)
            if data.draw(st.booleans()):
                text += "\n"
            with open(path, "w") as fh:
                fh.write(text)
            expect = replay_outcome(load_replay, path, MatchPolicy(radius=radius))
            assert replay_outcome(SegmentStore.load, path, MatchPolicy(radius=radius)) == expect
            if expect[0] == "loaded":  # then saved as it was read
                SegmentStore.load(path, MatchPolicy(radius=radius)).save(again)
                with open(path) as fh, open(again) as fh_again:
                    read, saved = fh.read(), fh_again.read()
                assert saved == (read if read.endswith("\n") or not read else read + "\n")
                assert replay_outcome(SegmentStore.load, again,
                                      MatchPolicy(radius=radius)) == expect

    def test_load_builds_no_indicator(self, tmp_path, monkeypatch):
        path = tmp_path / "store.jsonl"
        store = SegmentStore()
        add(store, 20)
        store.save(path)
        os.unlink(f"{path}.state")  # so that the log is replayed
        calls = []
        real = Indicator.__post_init__

        def counted(self):
            calls.append(self)
            real(self)
        monkeypatch.setattr(Indicator, "__post_init__", counted)
        loaded = SegmentStore.load(path, MatchPolicy())
        assert calls == [] and not loaded.from_checkpoint
        assert state_bits(loaded) == state_bits(store) and loaded.replayed == 20
        add(loaded, 1, start=20)  # the count works: contribute takes an Indicator
        assert len(calls) == 1


def wrap_lon(lon):
    return (lon + 180.0) % 360.0 - 180.0


def anchor_bits(store):
    return [(aid, st_.anchor.kind, st_.anchor.lat.hex(), st_.anchor.lon.hex(),
             st_.anchor.contribution_count) for aid, st_ in sorted(store.states.items())]


def background(store):
    """Anchors on a 9 x 18 deg lattice put into `states` directly, so that
    each kind's index holds far points that a query must skip."""
    aid = 0
    for lat in range(-81, 82, 9):
        for lon in range(-180, 180, 18):
            kind = KINDS_DRAWN[aid % 2]
            store.states[aid] = SegmentState(anchor=SegmentAnchor(aid, float(lat), float(lon), kind))
            aid += 1
    store._next_id = aid


def assert_matches_scan(contributions, prefill=None):
    """Same anchor ids and bit-identical anchors as the exhaustive scan;
    `contributions` are (indicator, radius) pairs."""
    indexed, scanned = SegmentStore(), SegmentStore()
    if prefill is not None:
        prefill(indexed)
        prefill(scanned)
    got = [indexed.match_segment(i, MatchPolicy(radius=r)) for i, r in contributions]
    want = [match_segment_scan(scanned, i, MatchPolicy(radius=r)) for i, r in contributions]
    assert got == want
    assert anchor_bits(indexed) == anchor_bits(scanned)
    return indexed


# places to draw around: mid-latitude, both sides of +-180 deg, and near
# both poles
BASES = [(51.0, 7.0), (0.0, 179.9999), (-33.0, -180.0), (12.0, 180.0),
         (86.5, -179.99), (-88.0, 45.0), (89.95, 10.0), (-89.99, -120.0)]


def onto_cube_face(lat, lon, cell):
    """A point near (lat, lon) whose embedding lies on a face of the index's
    cubes `cell` m wide: a z face, reached along the meridian, away from the
    poles; near them an x or y face, reached along the parallel, whichever
    moves the point least."""
    phi, lmb = math.radians(lat), math.radians(lon)
    if abs(math.cos(phi)) >= 0.5:
        z = round(EARTH_RADIUS * math.sin(phi) / cell) * cell
        return math.degrees(math.asin(z / EARTH_RADIUS)), lon
    rc = EARTH_RADIUS * math.cos(phi)
    if abs(math.sin(lmb)) >= abs(math.cos(lmb)):  # x = rc*cos(lon) changes fastest
        x = round(rc * math.cos(lmb) / cell) * cell
        return lat, math.copysign(math.degrees(math.acos(max(-1.0, min(1.0, x / rc)))), lon)
    y = round(rc * math.sin(lmb) / cell) * cell
    s = math.degrees(math.asin(max(-1.0, min(1.0, y / rc))))
    return lat, s if math.cos(lmb) >= 0.0 else wrap_lon(180.0 - s)


@st.composite
def contributions(draw):
    radii = draw(st.lists(st.floats(1.0, 100.0), min_size=1, max_size=2, unique=True))
    base_lat, base_lon = draw(st.sampled_from(BASES))
    out = []
    for _ in range(draw(st.integers(1, 40))):
        radius = draw(st.sampled_from(radii))
        kind = draw(st.sampled_from(KINDS_DRAWN))
        if out and draw(st.integers(0, 4)) == 0:  # an exact duplicate: ties
            prev = draw(st.sampled_from(out))[0]
            lat, lon = prev.lat, prev.lon
        else:
            north = draw(st.floats(-3.0, 3.0)) * radius
            east = draw(st.floats(-3.0, 3.0)) * radius
            lat = max(-90.0, min(90.0, base_lat + north / METERS_PER_DEG))
            cos = max(math.cos(math.radians(lat)), 1e-3)
            lon = wrap_lon(base_lon + east / (METERS_PER_DEG * cos))
            if draw(st.booleans()):  # onto a cube face of one radius's index
                lat, lon = onto_cube_face(lat, lon, GridIndex(draw(st.sampled_from(radii))).cell)
                nudge = draw(st.sampled_from([0.0, 1e-12, -1e-12]))
                lat, lon = lat + nudge, lon + nudge
        out.append((ind(lat=lat, lon=lon, kind=kind), radius))
    return out


class TestMatchIndex:
    """The grid index gives the exhaustive scan's answers (tests/oracles.py)."""

    @given(contributions())
    @settings(max_examples=40, deadline=None)
    def test_matches_scan(self, contributions):
        assert_matches_scan(contributions, prefill=background)

    def test_centroid_drifts_across_cell_borders(self):
        # reports walk north in 2 m steps, each one pulling the anchor's
        # centroid over the next latitude border of the grid
        policy = MatchPolicy()
        walk = [(ind(lat=offset(51.0, 2.0 * i)[0]), policy.radius) for i in range(60)]
        store = assert_matches_scan(walk, prefill=background)
        start = GridIndex(policy.radius)
        moved = [st_.anchor for st_ in store.states.values() if st_.anchor.contribution_count > 1]
        assert any(start._key(a.lat, a.lon) != start._key(51.0, 7.0) for a in moved)

    def test_second_radius_on_one_store(self):
        # the index built for 5 m must not hide an anchor 60 m away once
        # the store is asked with 100 m
        lat, lon = offset(51.0, 60.0)
        assert_matches_scan([(ind(), 5.0), (ind(lat=lat, lon=lon), 100.0)],
                            prefill=background)

    def test_anchor_put_into_states_between_matches(self):
        store = SegmentStore()
        background(store)
        policy = MatchPolicy()
        first = store.match_segment(ind(), policy)
        aid = store._next_id
        lat, lon = offset(51.0, 100.0)
        store.states[aid] = SegmentState(anchor=SegmentAnchor(aid, lat, lon, "anomaly"))
        store._next_id += 1
        assert store.match_segment(ind(lat=lat, lon=lon), policy) == aid != first

    def test_points_off_the_wgs84_range(self):
        # the haversine is periodic in longitude, so lon 367 is lon 7 and
        # embeds where lon 7 does; NaN points are visited by every query
        lat, lon = offset(51.0, 3.0)
        assert_matches_scan([(ind(lon=367.0), 15.0), (ind(lat=lat, lon=lon), 15.0),
                             (ind(lat=math.nan), 15.0), (ind(lat=95.0), 15.0),
                             (ind(lat=lat, lon=lon - 360.0), 15.0)], prefill=background)

    def test_ten_thousand_points(self):
        rng = np.random.default_rng(7)
        sites = rng.uniform(0.0, 2000.0, size=(300, 2))
        kinds = rng.choice(KINDS_DRAWN, size=300)
        picks = rng.integers(0, 300, size=10_000)
        scatter = rng.normal(0.0, 4.0, size=(10_000, 2))
        contributions = []
        for k, (dn, de) in zip(picks, scatter):
            lat, lon = offset(51.0, sites[k, 0] + dn, sites[k, 1] + de)
            contributions.append((ind(lat=lat, lon=lon, kind=str(kinds[k])), 15.0))
        store = assert_matches_scan(contributions)
        assert 100 <= len(store) < 1000


def destination(lat, lon, bearing, distance):
    """The point `distance` m from (lat, lon) along `bearing` (rad) on the
    sphere, longitude wrapped into [-180, 180)."""
    phi, delta = math.radians(lat), distance / 6371000.0
    phi2 = math.asin(math.sin(phi) * math.cos(delta)
                     + math.cos(phi) * math.sin(delta) * math.cos(bearing))
    dlmb = math.atan2(math.sin(bearing) * math.sin(delta) * math.cos(phi),
                      math.cos(delta) - math.sin(phi) * math.sin(phi2))
    return math.degrees(phi2), wrap_lon(lon + math.degrees(dlmb))


class TestGridIndex:
    @given(lat=st.one_of(st.sampled_from([90.0, -90.0]), st.floats(-1e4, 1e4)),
           lon=st.floats(-1e4, 1e4), radius=st.floats(1.0, 3e7))
    @settings(max_examples=150, deadline=None)
    def test_candidates_hold_every_point_in_range(self, lat, lon, radius):
        # points on circles just inside and at the radius, at every 5 deg of
        # bearing, among fillers far away; queries from the poles, past
        # them, around the sphere in longitude many times, and radii past
        # half the circumference. Within 1e4 deg, the rounding of
        # great_circle's degree difference stays far below the index's
        # 1e-6 m slack; near 1e16 deg great_circle itself raises.
        grid = GridIndex(radius)
        points = {}
        for k in range(72):
            for frac in (1.0 - 1e-9, 1.0):
                points[len(points)] = destination(lat, lon, math.radians(5.0 * k), radius * frac)
        for key, (plat, plon) in points.items():
            grid.add(key, plat, plon)
        for key in range(len(points), 2000):
            grid.add(key, -lat, wrap_lon(lon + 180.0))
        near = set(grid.candidates(lat, lon))
        missed = [key for key, (plat, plon) in points.items()
                  if great_circle(lat, lon, plat, plon) <= radius and key not in near]
        assert not missed

    def test_moved_point_leaves_its_cell(self):
        grid = GridIndex(15.0)
        for key in range(100):
            grid.add(key, -45.0, 100.0)
        grid.add(100, 51.0, 7.0)
        assert 100 in grid.candidates(51.0, 7.0)
        lat, lon = offset(51.0, 500.0)
        grid.move(100, lat, lon)
        assert 100 not in grid.candidates(51.0, 7.0)
        assert 100 in grid.candidates(lat, lon)


class TestGreatCircleCalls:
    """Distance evaluations per contribution stay flat as the store grows
    at constant density (counts, not time)."""

    @staticmethod
    def calls_per_contribution(n, monkeypatch):
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return great_circle(*args)
        monkeypatch.setattr(aggregation, "great_circle", counted)
        rng = np.random.default_rng(n)
        side = math.sqrt(n * 400.0)  # one indicator per 400 m^2
        store, policy = SegmentStore(), MatchPolicy()
        for north, east in rng.uniform(0.0, side, size=(n, 2)):
            lat, lon = offset(51.0, north, east)
            store.contribute(ind(lat=lat, lon=lon), policy)
        return calls[0] / n

    def test_flat_from_1k_to_10k(self, monkeypatch):
        small = self.calls_per_contribution(1_000, monkeypatch)
        large = self.calls_per_contribution(10_000, monkeypatch)
        assert large <= 1.5 * small


def sites(store, n, start=0, policy=MatchPolicy()):
    """Contributions at five sites 1 km apart, so that any radius below
    500 m matches them alike."""
    for i in range(start, start + n):
        lat, lon = offset(51.0, 1000.0 * (i % 5))
        store.contribute(ind(lat=lat, lon=lon, t=float(i) * DAY, value=float(i % 10)), policy)


def outcome(store):
    """A loaded store's states, record count, next id, new records and
    whether it took the checkpoint."""
    return (state_bits(store), store.replayed, store._next_id, store.records,
            store.from_checkpoint)


def reopen(path, policy):
    """The `outcome` of `load` of the log at `path`, or its error."""
    try:
        return outcome(SegmentStore.load(path, policy))
    except StoreError as e:
        return "refused", str(e)


def without_checkpoint(path, policy):
    """`reopen` of a copy of the log at `path` with no checkpoint beside it."""
    copy = path.with_name("copy.jsonl")
    copy.write_bytes(path.read_bytes())
    try:
        return reopen(copy, policy)
    finally:
        copy.unlink()


def edit_checkpoint(path, edit):
    """Rewrite the checkpoint at `path` with `edit(header, body)` applied to
    its decoded header and body."""
    header, body = path.read_bytes().split(b"\n", 1)
    header, body = json.loads(header), json.loads(body)
    edit(header, body)
    path.write_bytes(json.dumps(header).encode() + b"\n" + json.dumps(body).encode())


def other_version(header, body):
    header["version"] += 1


def altered_row(header, body):  # the body's CRC left as it was
    body["anchors"][2][5] += 1.0  # the value of anchor 2


class TestCheckpoint:
    """`save` writes `<store>.state` beside the log; `load` takes the states
    from it when it matches the log and the policy, and replays otherwise.
    Either way the store is the replay's."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_reopening_from_the_checkpoint_is_the_replay(self, data):
        policy = data.draw(st.sampled_from([MatchPolicy(), MatchPolicy(1e6, 3600.0)]))
        near = data.draw(st.booleans())
        batches = data.draw(st.lists(st.lists(contribution(near), max_size=5),
                                     min_size=2, max_size=4))
        with tempfile.TemporaryDirectory() as tmp:
            sides = ("kept", "dropped")  # the checkpoint kept, or deleted before each load
            paths = {side: os.path.join(tmp, f"{side}.jsonl") for side in sides}
            stores = {side: SegmentStore() for side in sides}
            for i, batch in enumerate(batches):
                if i:
                    if os.path.exists(paths["dropped"] + ".state"):
                        os.unlink(paths["dropped"] + ".state")
                    kept_state = os.path.exists(paths["kept"] + ".state")
                    stores = {side: SegmentStore.load(paths[side], policy) for side in sides}
                    kept, dropped = (outcome(stores[side]) for side in sides)
                    assert kept[:-1] == dropped[:-1]
                    assert (kept[-1], dropped[-1]) == (kept_state, False)
                files = {}
                for side, store in stores.items():
                    for indicator in batch:
                        store.contribute(indicator, policy)
                    store.save(paths[side])
                    store.snapshot_geojson(paths[side] + ".geojson")
                    files[side] = []
                    for suffix in ("", ".geojson", ".state"):
                        if os.path.exists(paths[side] + suffix):
                            with open(paths[side] + suffix, "rb") as fh:
                                files[side].append((suffix, fh.read()))
                assert files["kept"] == files["dropped"]
                # a store that folded nothing has no policy to write
                assert len(files["kept"]) == 3 or not stores["kept"].states

    def test_a_matching_checkpoint_is_used(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = SegmentStore()
        sites(store, 20)
        store.save(path)
        kept, dropped = reopen(path, MatchPolicy()), without_checkpoint(path, MatchPolicy())
        assert kept[:-1] == dropped[:-1] == (state_bits(store), 20, 5, [])
        assert (kept[-1], dropped[-1]) == (True, False)

    @pytest.mark.parametrize("case", [
        "radius", "half-life", "version", "log-byte", "valid-line", "invalid-line",
        "state-truncated-in-header", "state-truncated-in-body", "state-row-altered",
        "state-missing"])
    def test_anything_else_replays(self, tmp_path, case):
        path, state = tmp_path / "store.jsonl", tmp_path / "store.jsonl.state"
        store = SegmentStore()
        sites(store, 20)
        store.save(path)
        policy = MatchPolicy()
        if case == "radius":
            policy = MatchPolicy(radius=20.0)
        elif case == "half-life":
            policy = MatchPolicy(half_life=86400.0)
        elif case == "version":
            edit_checkpoint(state, other_version)
        elif case == "log-byte":
            text = path.read_text()
            edited = text.replace('"value": 3.0', '"value": 4.0', 1)
            assert edited != text and len(edited) == len(text)
            path.write_text(edited)
        elif case == "valid-line":
            other = SegmentStore()
            sites(other, 21)
            with open(path, "ab") as fh:
                fh.write(rewrite(other).splitlines(keepends=True)[-1])
        elif case == "invalid-line":
            with open(path, "a") as fh:
                fh.write("{not json\n")
        elif case.startswith("state-truncated"):
            data = state.read_bytes()
            state.write_bytes(data[:20 if case.endswith("header") else data.index(b"\n") + 40])
        elif case == "state-row-altered":
            edit_checkpoint(state, altered_row)
        else:
            state.unlink()
        got = reopen(path, policy)
        assert got == without_checkpoint(path, policy)  # so from_checkpoint is False
        if case == "invalid-line":
            assert got == ("refused", "line 21: invalid JSON (Expecting property name "
                           "enclosed in double quotes: line 1 column 2 (char 1))")
        elif case in ("half-life", "log-byte", "valid-line"):
            assert got[0] != state_bits(store)  # what the checkpoint held

    def test_records_folded_under_two_policies_write_no_checkpoint(self, tmp_path):
        path, state = tmp_path / "store.jsonl", tmp_path / "store.jsonl.state"
        store = SegmentStore()
        sites(store, 10)
        sites(store, 1, start=10, policy=MatchPolicy(radius=20.0))
        store.save(path)
        assert not state.exists()
        store = SegmentStore()
        sites(store, 10)
        store.save(path)
        before = state.read_bytes()
        reopened = SegmentStore.load(path, MatchPolicy())
        assert reopened.from_checkpoint
        sites(reopened, 1, start=10, policy=MatchPolicy(radius=20.0))
        reopened.save(path)
        assert state.read_bytes() == before  # of the log before, so not used
        assert not SegmentStore.load(path, MatchPolicy()).from_checkpoint
