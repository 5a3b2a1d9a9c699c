"""Segmentation tests: gap splitting and 5-tuple aggregation."""

from __future__ import annotations

import bisect
import gc
import json
import random
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import astuple

import pytest
from hypothesis import given, strategies as st

from scadascope.ingest import PacketRecord
from scadascope.segmentation import (
    FtCell,
    FtKey,
    StreamStats,
    aggregate_ft,
    aggregate_records,
    segment_stream,
    segment_to_json,
)
from scadascope.synth import MasterConfig, ScadaGroup, ScenarioConfig, generate

from reference import ref_ft_table, ref_segment_tuple, ref_segments
from scenarios import assert_cells_match, dataset1_like, month_like, small_random_scenario


def pkt(ts, src="10.0.0.1", sport=20000, dst="10.0.0.9", dport=50000, size=100):
    return PacketRecord(ts, src, sport, dst, dport, "tcp", size)


def ref_segment_tuples(records, t_comm):
    return sorted(map(ref_segment_tuple, ref_segments(records, t_comm)))


def test_gap_split_example():
    packets = [pkt(t) for t in (0.0, 0.2, 0.5, 2.0, 2.1)]
    segs = list(segment_stream(packets, t_comm=1.0))
    conversation = ("10.0.0.1", 20000, "10.0.0.9", 50000)
    assert segs == [(*conversation, 300, 0.0, 0.5, 3), (*conversation, 200, 2.0, 2.1, 2)]


def test_single_packet_segment():
    segs = list(segment_stream([pkt(3.0, size=74)], t_comm=1.0))
    assert segs == [("10.0.0.1", 20000, "10.0.0.9", 50000, 74, 3.0, 3.0, 1)]


def test_gap_exactly_t_comm_splits():
    segs = list(segment_stream([pkt(0.0), pkt(1.0)], t_comm=1.0))
    assert len(segs) == 2


def test_gap_just_under_t_comm_merges():
    segs = list(segment_stream([pkt(0.0), pkt(0.999999)], t_comm=1.0))
    assert len(segs) == 1


def test_bidirectional_packets_share_segment():
    packets = [
        pkt(0.0, src="10.0.0.5", sport=20000, dst="10.0.0.9", dport=50000, size=274),
        pkt(0.01, src="10.0.0.9", sport=50000, dst="10.0.0.5", dport=20000, size=66),
        # The responder opens the next segment, so it is that one's initiator.
        pkt(5.0, src="10.0.0.9", sport=50000, dst="10.0.0.5", dport=20000, size=70),
    ]
    segs = list(segment_stream(packets, t_comm=1.0))
    assert segs == [
        ("10.0.0.5", 20000, "10.0.0.9", 50000, 340, 0.0, 0.01, 2),
        ("10.0.0.9", 50000, "10.0.0.5", 20000, 70, 5.0, 5.0, 1),
    ]
    assert list(aggregate_ft(segs)) == [
        FtKey("10.0.0.5", 20000, "10.0.0.9", 50000, 340),
        FtKey("10.0.0.9", 50000, "10.0.0.5", 20000, 70),
    ]


def test_t_comm_must_be_positive():
    with pytest.raises(ValueError):
        list(segment_stream([pkt(0.0)], t_comm=0.0))


def test_cutoffs_need_their_callback():
    records = [pkt(0.0), pkt(2.0)]
    with pytest.raises(ValueError, match="on_cutoff"):
        list(segment_stream(records, 1.0, cutoffs=[1.0]))
    with pytest.raises(ValueError, match="on_prefix"):
        aggregate_records(records, 1.0, cutoffs=[1.0])


def test_stream_stats_count_the_records_segmented():
    # Before each cutoff callback, the records before the one that passed the
    # cutoffs; at the end, every record and the last one's time.
    stats = StreamStats()
    seen = []
    packets = [pkt(t) for t in (0.0, 0.5, 2.0, 3.0)]

    def on_cutoff(passed, open_segments):
        seen.append(stats.records)

    segs = list(segment_stream(packets, cutoffs=[1.0, 2.5], on_cutoff=on_cutoff, stats=stats))
    assert len(segs) == 3 and seen == [2, 3]
    assert (stats.records, stats.last_ts) == (4, 3.0)
    empty = StreamStats()
    assert list(segment_stream([], stats=empty)) == []
    assert (empty.records, empty.last_ts) == (0, None)


def test_oracle_equivalence_on_synth_trace():
    config = dataset1_like(duration=900.0, seed=11, fds=8)
    records = list(generate(config)[0])
    assert len(records) > 400
    assert sorted(segment_stream(records, 1.0)) == ref_segment_tuples(records, 1.0)


def test_reconstruction_counts_and_gap_bounds():
    config = dataset1_like(duration=600.0, seed=12, fds=6)
    records = list(generate(config)[0])
    segs = list(segment_stream(records, 1.0))
    assert sum(s[7] for s in segs) == len(records)
    assert sum(s[4] for s in segs) == sum(r.size for r in records)
    # consecutive segments on one conversation start >= t_comm apart
    spans = defaultdict(list)
    for seg in segs:
        spans[frozenset((seg[:2], seg[2:4]))].append(seg[5:7])
    for group in spans.values():
        group.sort()
        for (_, end), (start, _) in zip(group, group[1:]):
            assert start - end >= 1.0


def test_doubling_t_comm_never_increases_segments():
    config = dataset1_like(duration=600.0, seed=13, fds=5)
    records = list(generate(config)[0])
    t = 0.25
    counts = []
    for _ in range(5):
        counts.append(sum(1 for _ in segment_stream(records, t)))
        t *= 2
    assert counts == sorted(counts, reverse=True)


def test_aggregate_same_key_same_size():
    packets = [pkt(0.0, size=340), pkt(10.0, size=340)]
    table = aggregate_ft(segment_stream(packets, 1.0))
    assert list(table.values()) == [FtCell(last=10.0, n=2, K=10.0)]


def test_aggregate_distinct_sizes_make_distinct_entries():
    packets = [pkt(0.0, size=340), pkt(10.0, size=225)]
    table = aggregate_ft(segment_stream(packets, 1.0))
    sizes = sorted(key.seg_size for key in table)
    assert sizes == [225, 340]
    assert all(cell.n == 1 for cell in table.values())


def test_one_ft_entry_per_field_device():
    config = ScenarioConfig(
        duration=600.0,
        seed=21,
        scada_groups=[
            ScadaGroup(
                port=20000,
                num_field_devices=49,
                poll_mean=8.75,
                poll_jitter_stddev=1.0,
                object_sizes=[340],
            )
        ],
        master=MasterConfig(reconnect_rate=0.0),
    )
    records = list(generate(config)[0])
    table = aggregate_ft(segment_stream(records, 1.0))
    on_port = [key for key in table if key.src_port == 20000]
    assert len(on_port) == 49
    assert {key.src_ip for key in on_port} == {f"10.0.10.{i + 1}" for i in range(49)}


def test_iat_lower_bound_within_ft():
    config = dataset1_like(duration=900.0, seed=14, fds=4)
    records = list(generate(config)[0])
    starts = defaultdict(list)
    for seg in segment_stream(records, 1.0):
        starts[seg[:5]].append(seg[5])
    for times in starts.values():
        assert all(b - a >= 1.0 for a, b in zip(times, times[1:]))


def test_total_segments_matches_stream():
    config = dataset1_like(duration=300.0, seed=15, fds=4)
    records = list(generate(config)[0])
    segs = list(segment_stream(records, 1.0))
    table = aggregate_ft(segs)
    assert sum(cell.n for cell in table.values()) == len(segs)


def test_table_memory_is_constant_per_5_tuple():
    # One 5-tuple's cell has a fixed size: 100,000 segments cost what 1,000
    # do, where one double per segment would add 800 kB.
    def peak(count):
        packets = (pkt(2.0 * i, size=340) for i in range(count))
        tracemalloc.start()
        try:
            table = aggregate_ft(segment_stream(packets, 1.0))
            return tracemalloc.get_traced_memory()[1], table
        finally:
            tracemalloc.stop()

    (small, _), (large, table) = peak(1_000), peak(100_000)
    assert large <= small + 256, (small, large)
    assert [cell.n for cell in table.values()] == [100_000]


def test_table_follows_5_tuples_not_segments():
    # Seven days of sparse polling hold seven times the segments of one day,
    # and the master's reconnects about four times the 5-tuples (24 and
    # 102).  Per 5-tuple the table stays the same size: 304 and 284 traced
    # bytes on Python 3.11; with one double per segment they were 2,306 and
    # 3,737.  The collection empties the free lists the stream's garbage
    # sits in, so the table is what stays traced.
    def table_bytes(days):
        records = list(generate(month_like(days=days))[0])
        tracemalloc.start()
        try:
            table = aggregate_ft(segment_stream(records, 1.0))
            gc.collect()
            return tracemalloc.get_traced_memory()[0], len(table), sum(cell.n for cell in table.values())
        finally:
            tracemalloc.stop()

    (one, day_fts, day_segs), (seven, week_fts, week_segs) = table_bytes(1), table_bytes(7)
    assert week_segs >= 6 * day_segs
    assert seven / week_fts <= 1.25 * one / day_fts, (one, day_fts, seven, week_fts)


def test_random_scenarios_match_reference():
    meta = random.Random(2024)
    for _ in range(8):
        config = small_random_scenario(meta)
        records = list(generate(config)[0])
        assert sorted(segment_stream(records, 1.0)) == ref_segment_tuples(records, 1.0)
        table = aggregate_ft(segment_stream(records, 1.0))
        assert_cells_match(table, ref_ft_table(ref_segments(records, 1.0)))


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=50, allow_nan=False),
            st.integers(0, 3),
            st.integers(0, 3),
            st.integers(1, 500),
        ),
        min_size=1,
        max_size=80,
    )
)
def test_property_matches_reference(raw):
    ips = ["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"]
    records = sorted(
        (
            PacketRecord(round(ts, 3), ips[a], 1000 + a, ips[b], 2000 + b, "tcp", size)
            for ts, a, b, size in raw
        ),
        key=lambda r: r.ts,
    )
    assert sorted(segment_stream(records, 1.0)) == ref_segment_tuples(records, 1.0)


def test_segment_yield_order_is_pinned():
    """Closed segments come out as they close, then open ones in first-seen order.

    ``inspect --dump-segments`` writes segments in this order, so a change to
    it changes the dump even though every sorted comparison above passes.
    """
    a_fd, a_master = ("10.0.0.6", 20000), ("10.0.0.9", 50000)
    b_fd, b_master = ("10.0.0.2", 20000), ("10.0.0.8", 50001)
    loop = ("10.0.0.3", 7000)  # source and destination endpoint are the same
    # First seen A, B, C; sorted by key it would be B, C, A.

    def on(ts, src, dst, size):
        return PacketRecord(ts, src[0], src[1], dst[0], dst[1], "tcp", size)

    packets = [
        on(0.0, a_master, a_fd, 10),  # A first seen, opened from its larger endpoint
        on(0.1, b_fd, b_master, 20),  # B first seen
        on(0.2, loop, loop, 30),  # C first seen
        on(0.3, a_fd, a_master, 11),
        on(0.4, loop, loop, 31),
        on(2.0, b_master, b_fd, 21),  # closes B's first segment, reopens B the other way
        on(2.5, b_fd, b_master, 22),
        on(3.0, a_master, a_fd, 12),  # closes A's first segment
    ]
    segs = list(segment_stream(packets, t_comm=1.0))
    assert segs == [
        (*b_fd, *b_master, 20, 0.1, 0.1, 1),
        (*a_master, *a_fd, 21, 0.0, 0.3, 2),
        (*a_master, *a_fd, 12, 3.0, 3.0, 1),
        (*b_master, *b_fd, 43, 2.0, 2.5, 2),
        (*loop, *loop, 61, 0.2, 0.4, 2),
    ]
    # The dump names each conversation by its smaller endpoint first.
    assert [json.loads(segment_to_json(s))["key"] for s in segs] == [
        "10.0.0.2:20000|10.0.0.8:50001",
        "10.0.0.6:20000|10.0.0.9:50000",
        "10.0.0.6:20000|10.0.0.9:50000",
        "10.0.0.2:20000|10.0.0.8:50001",
        "10.0.0.3:7000|10.0.0.3:7000",
    ]


@st.composite
def records_and_cutoffs(draw):
    """Time-ordered records on three endpoints, one pair a self-conversation,
    and ascending cutoffs, most of them equal to a record's timestamp."""
    ends = [("10.0.0.1", 1000), ("10.0.0.2", 2000), ("10.0.0.3", 3000)]
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.5]),
                st.sampled_from([(0, 1), (1, 0), (0, 2), (2, 2)]),  # (2, 2) talks to itself
                st.sampled_from([10, 20]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    records, t = [], 0.0
    for step, (a, b), size in rows:
        t += step
        records.append(PacketRecord(t, *ends[a], *ends[b], "tcp", size))
    times = [rec.ts for rec in records]
    cutoffs = draw(st.lists(st.sampled_from([*times, times[0] - 0.25, times[-1] + 0.25]), max_size=6))
    return records, sorted(cutoffs)


@given(records_and_cutoffs(), st.sampled_from([0.5, 1.0]))
def test_segment_prefix_is_its_ft_key(drawn, t_comm):
    # The layout is API: a segment's first five fields are the 5-tuple it is
    # counted under, and each 5-tuple counts the segments with that prefix.
    records, _ = drawn
    segs = list(segment_stream(records, t_comm))
    table = aggregate_ft(segs)
    assert {key: cell.n for key, cell in table.items()} == Counter(seg[:5] for seg in segs)


def table_items(table):
    return [(key, astuple(cell)) for key, cell in table.items()]


@given(records_and_cutoffs(), st.sampled_from([0.5, 1.0]))
def test_aggregate_records_prefix_tables_match_reruns(drawn, t_comm):
    records, cutoffs = drawn
    calls = []
    table = aggregate_records(
        records, t_comm, cutoffs, lambda passed, prefix: calls.append((passed, table_items(prefix)))
    )
    # A cutoff is passed by the first record later than it; cutoffs passed
    # by one record share one call, and a cutoff no record passes gets none.
    times = [rec.ts for rec in records]
    lengths = Counter(bisect.bisect_right(times, cut) for cut in cutoffs)
    lengths.pop(len(records), None)
    assert calls == [
        (passed, table_items(aggregate_ft(segment_stream(records[:n], t_comm))))
        for n, passed in lengths.items()
    ]
    assert table_items(table) == table_items(aggregate_records(records, t_comm))
    assert_cells_match(table, ref_ft_table(ref_segments(records, t_comm)))


# Quotes, backslashes, control and non-ASCII characters: JSON-lines input
# takes any string as an address.
_ANY_TEXT = st.text(st.sampled_from('"\\\n\x00é→😀') | st.characters(), max_size=12)
_ANY_FLOAT = st.floats()  # NaN and the infinities included


# Bools, an int ts, NaN and the infinities take ``compact_json``; the rest
# of the draws take ``PacketRecord.to_json``'s format string.  Both must
# equal json.dumps.
_ANY_INT = st.integers() | st.booleans()


@given(_ANY_FLOAT | st.integers(), _ANY_TEXT, _ANY_INT, _ANY_TEXT, _ANY_INT, _ANY_TEXT, _ANY_INT)
def test_record_to_json_is_compact_json_dumps(ts, src_ip, src_port, dst_ip, dst_port, proto, size):
    rec = PacketRecord(ts, src_ip, src_port, dst_ip, dst_port, proto, size)
    fields = {"ts": ts, "src_ip": src_ip, "src_port": src_port, "dst_ip": dst_ip,
              "dst_port": dst_port, "proto": proto, "size": size}
    assert rec.to_json() == json.dumps(fields, separators=(",", ":"))


@given(_ANY_FLOAT, _ANY_FLOAT, st.integers(), st.integers(), st.tuples(_ANY_TEXT, st.integers()),
       st.tuples(_ANY_TEXT, st.integers()))
def test_segment_to_json_is_compact_json_dumps(start, end, size, packets, initiator, responder):
    line = segment_to_json((*initiator, *responder, size, start, end, packets))
    (a_ip, a_port), (b_ip, b_port) = sorted([initiator, responder])
    fields = {"key": f"{a_ip}:{a_port}|{b_ip}:{b_port}", "start": start, "end": end, "size": size,
              "initiator": f"{initiator[0]}:{initiator[1]}", "packets": packets}
    assert line == json.dumps(fields, separators=(",", ":"))
