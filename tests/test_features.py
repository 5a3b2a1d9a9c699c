"""Feature arithmetic tests against frozen reference values and invariants."""

from __future__ import annotations

import copy
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from scadascope.features import (
    build_device_profiles,
    periodicity_durability,
    rank,
    score_product,
    write_ranking_csv,
)
from scadascope.ingest import PacketRecord
from scadascope.segmentation import FtKey, aggregate_ft, segment_stream
from scadascope.synth import generate

from reference import ref_all_features, ref_durability, ref_ft_table, ref_periodicity, ref_segments
from scenarios import cell_of, dataset1_like, rank_table, small_random_scenario


def cell_from_iat(iat, t0=0.0):
    return cell_of(itertools.accumulate(iat, initial=t0))


def cell_with_n(n):
    return cell_of(10.0 * i for i in range(n))


# --- periodicity ---------------------------------------------------------------


def test_periodicity_reference_anchor():
    # two gaps engineered to hit mean 8.75 and population variance 1.48
    d = math.sqrt(1.48)
    cell = cell_from_iat([8.75 - d, 8.75 + d])
    assert abs(periodicity_durability(cell)[0] - 5.912) <= 1e-3


def test_periodicity_empty_iat_is_zero():
    assert periodicity_durability(cell_with_n(1))[0] == 0.0
    assert periodicity_durability(cell_from_iat([4.0]))[0] == 0.0  # single gap


def test_periodicity_simple_arithmetic():
    pR, _ = periodicity_durability(cell_from_iat([2.0, 4.0, 2.0, 4.0]))
    assert pR == pytest.approx(3.0, abs=1e-12)


def test_periodicity_zero_variance_capped():
    cell = cell_from_iat([5.0, 5.0, 5.0])
    assert periodicity_durability(cell)[0] == 1e6
    # past LONG_CELL too, where the cell sums its gaps in blocks
    assert periodicity_durability(cell_from_iat([0.25] * 1000))[0] == 1e6


# --- durability ----------------------------------------------------------------


def test_durability_single_occurrence_is_zero():
    assert periodicity_durability(cell_with_n(1))[1] == 0.0


def test_durability_two_hours_hundred_occurrences():
    cell = cell_from_iat([7200.0 / 99] * 99)  # sums to exactly 2h over n=100
    assert periodicity_durability(cell)[1] == pytest.approx(2.0 * math.log(100), rel=1e-9)
    assert periodicity_durability(cell)[1] == pytest.approx(9.2103, abs=1e-3)


def test_durability_hour_of_ten_second_polling():
    cell = cell_from_iat([10.0] * 360)  # n = 361, observed length 1 hour
    assert periodicity_durability(cell)[1] == pytest.approx(math.log(361), rel=1e-9)
    assert periodicity_durability(cell)[1] == pytest.approx(5.889, abs=1e-3)


# --- complexity gap ------------------------------------------------------------


def table_of(*fts):
    return {FtKey(*ft): cell_of([0.0]) for ft in fts}


def raw_of(key, *fts):
    """The raw features ``rank`` gives ``key`` in the table of these 5-tuples."""
    return next(e.raw for e in rank_table(table_of(*fts)) if e.key == key)


def test_complexity_equal_port_counts():
    assert raw_of(FtKey("a", 1, "b", 2, 100), ("a", 1, "b", 2, 100))[2] == 1.0


def test_complexity_one_versus_four():
    fts = [
        ("fd", 20000, "m", 50001, 100),
        ("fd", 20000, "m", 50002, 100),
        ("fd", 20000, "m", 50003, 100),
        ("fd", 20000, "m", 50004, 100),
    ]
    assert raw_of(FtKey("fd", 20000, "m", 50001, 100), *fts)[2] == 4.0


def test_complexity_symmetric_under_direction_swap():
    fts = [
        ("fd", 20000, "m", 50001, 100),
        ("m", 50002, "fd", 20000, 80),
        ("m", 50003, "fd", 20000, 80),
    ]
    fwd = raw_of(FtKey("fd", 20000, "m", 50001, 100), *fts)[2]
    rev = raw_of(FtKey("m", 50002, "fd", 20000, 80), *fts)[2]
    assert fwd == rev == 3.0


def test_complexity_missing_ip_errors():
    profiles = build_device_profiles(table_of(("a", 1, "b", 2, 100)))
    with pytest.raises(ValueError, match="device nope not present"):
        rank(table_of(("nope", 1, "b", 2, 100)), profiles)


# --- service popularity ---------------------------------------------------------


def test_popularity_forty_nine_pairs():
    fts = [(f"fd{i}", 20000, "m", 50000 + i, 300) for i in range(49)]
    assert raw_of(FtKey("fd0", 20000, "m", 50000, 300), *fts)[3] == 49.0


def test_popularity_unique_ports_give_one():
    assert raw_of(FtKey("a", 1, "b", 2, 100), ("a", 1, "b", 2, 100))[3] == 1.0


def test_popularity_inverse_rule():
    # seven pairs use port 7 on the destination side, one pair the source port
    fts = [(f"h{i}", 1000 + i, "srv", 7, 100) for i in range(7)]
    assert raw_of(FtKey("h0", 1000, "srv", 7, 100), *fts)[3] == 7.0


def test_popularity_role_agnostic_flag():
    fts = [
        ("a", 7, "b", 9, 100),
        ("c", 9, "a", 7, 100),
    ]
    # port 7 is a source in one pair and port 9 a destination in one pair
    assert raw_of(FtKey("a", 7, "b", 9, 100), *fts)[3] == 1.0


def test_popularity_counts_each_port_in_its_own_role():
    # Every port is both a source and a destination, with other pair counts
    # in each role: 502 is the source of 2 pairs and the destination of 2,
    # 40000 the source of 1 and the destination of 2, 40001 the source of 1
    # and the destination of 1.  Swapping the roles still finds every port,
    # but gives the first and third 5-tuples the wrong uR.
    fts = [
        ("A", 502, "M", 40000, 100),
        ("B", 502, "M", 40000, 100),
        ("M", 40000, "A", 502, 100),
        ("A", 502, "M", 40001, 100),
        ("M", 40001, "B", 502, 100),
    ]
    table = table_of(*fts)
    got = {tuple(e.key): e.raw[3] for e in rank_table(table)}
    assert got == {ft: want[3] for ft, want in ref_all_features({ft: [0.0] for ft in fts}).items()}
    assert [got[ft] for ft in fts] == [1.0, 1.0, 2.0, 2.0, 2.0]


# --- size feature ----------------------------------------------------------------


@pytest.mark.parametrize(
    "size,expected",
    [(686, 0.4531), (288, 0.1902), (1086, 0.7173), (1514, 1.0000), (340, 0.2246), (225, 0.1486)],
)
def test_size_feature_reference_values(size, expected):
    sR = raw_of(FtKey("a", 1, "b", 2, size), ("a", 1, "b", 2, size), ("a", 1, "b", 3, 1514))[4]
    assert sR == pytest.approx(expected, abs=5e-4)


# --- product and ranking ----------------------------------------------------------


def test_score_product_reference_rows():
    rows = [
        ((0.3801, 0.4200, 0.5175, 0.3636, 0.2246), 6.7470e-3),
        ((0.3198, 0.4582, 0.5175, 0.3636, 0.2226), 6.1358e-3),
    ]
    for norms, expected in rows:
        assert score_product(*norms) == pytest.approx(expected, rel=1e-3)


def test_rank_empty_map():
    assert rank_table({}) == []


def build_table(records):
    return aggregate_ft(segment_stream(records, 1.0))


def synth_records(duration=900.0, seed=31, fds=6):
    return list(generate(dataset1_like(duration=duration, seed=seed, fds=fds))[0])


def synth_table(duration=900.0, seed=31, fds=6):
    return build_table(synth_records(duration, seed, fds))


def test_rank_normalization_invariants():
    table = synth_table()
    ranked = rank_table(table)
    for i in range(5):
        values = [e.normalized[i] for e in ranked]
        assert max(values) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= v <= 1.0 for v in values)
    for e in ranked:
        assert 0.0 <= e.f <= 1.0
        assert e.f == score_product(*e.normalized)  # exact product consistency


def test_rank_single_occurrence_scores_zero_and_sorts_last():
    table = synth_table()
    ranked = rank_table(table)
    singles = [e for e in ranked if e.n == 1]
    assert singles, "scenario should contain single-occurrence entries"
    assert all(e.f == 0.0 for e in singles)
    boundary = min(i for i, e in enumerate(ranked) if e.f == 0.0)
    assert all(e.f == 0.0 for e in ranked[boundary:])


def test_rank_matches_reference_features():
    records = synth_records(duration=600.0, seed=32, fds=5)
    ranked = {tuple(e.key): e for e in rank_table(build_table(records))}
    reference = ref_all_features(ref_ft_table(ref_segments(records, 1.0)))
    assert set(ranked) == set(reference)
    for ft, want in reference.items():
        got = ranked[ft].raw
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-300)


def test_rank_order_invariant_under_exact_time_rescale():
    records = synth_records(duration=600.0, seed=33, fds=5)
    ranked = rank_table(build_table(records))
    scaled = [
        PacketRecord(r.ts * 2.0, r.src_ip, r.src_port, r.dst_ip, r.dst_port, r.proto, r.size)
        for r in records
    ]
    ranked2 = rank_table(aggregate_ft(segment_stream(scaled, 2.0)))
    assert [e.key for e in ranked] == [e.key for e in ranked2]
    for a, b in zip(ranked, ranked2):
        assert a.normalized == b.normalized
        assert a.f == b.f


def test_rank_order_invariant_under_relabeling():
    table = synth_table(duration=600.0, seed=34, fds=5)
    ips = sorted({k.src_ip for k in table} | {k.dst_ip for k in table}, reverse=True)
    mapping = {ip: f"192.168.{i // 250}.{i % 250 + 1}" for i, ip in enumerate(ips)}
    relabeled = {}
    for k, s in table.items():
        nk = FtKey(mapping[k.src_ip], k.src_port, mapping[k.dst_ip], k.dst_port, k.seg_size)
        relabeled[nk] = s
    ranked = rank_table(table)
    ranked2 = {e.key: e for e in rank_table(relabeled)}
    for entry in ranked:
        if entry.f == 0.0:
            continue  # zero scores tie; their relative order is name-dependent
        k = entry.key
        twin = ranked2[FtKey(mapping[k.src_ip], k.src_port, mapping[k.dst_ip], k.dst_port, k.seg_size)]
        assert twin.f == entry.f
        assert twin.normalized == entry.normalized
    nonzero = [e for e in rank_table(relabeled) if e.f > 0]
    original_nonzero = [e for e in ranked if e.f > 0]
    assert [e.f for e in nonzero] == [e.f for e in original_nonzero]


def test_rank_deterministic_tiebreak():
    k1 = FtKey("a", 1, "b", 2, 100)
    k2 = FtKey("a", 1, "b", 3, 100)
    table = {
        k1: cell_of([0.0, 10.0, 20.0, 30.0]),
        k2: cell_of([0.0, 10.0, 20.0, 30.0]),
    }
    first = rank_table(table)
    second = rank_table(dict(reversed(list(table.items()))))
    assert [e.key for e in first] == [e.key for e in second]


def test_rank_breaks_an_exact_f_tie_by_normalized_periodicity():
    # Doubling a 5-tuple's gaps halves pR and doubles dR, both exactly, and
    # the two share cR, uR and sR: they tie on f, and the one with the
    # higher pR_n comes first although its key sorts last.
    first = FtKey("10.0.0.1", 40001, "10.0.0.3", 502, 100)
    second = FtKey("10.0.0.1", 40000, "10.0.0.2", 502, 100)
    ranked = rank_table({second: cell_of([0.0, 2.0, 8.0]), first: cell_of([0.0, 1.0, 4.0])})
    assert [e.key for e in ranked] == [first, second]
    assert ranked[0].f == ranked[1].f == 0.5
    assert [e.normalized[0] for e in ranked] == [1.0, 0.5]


_IPS = ("10.0.0.1", "10.0.0.2", "10.0.0.3")

# Small pools of addresses, ports, sizes and gaps, so that equal features and
# equal scores, zero and not, are common.
_tables = st.dictionaries(
    st.builds(
        FtKey, st.sampled_from(_IPS), st.sampled_from([502, 40000, 40001]), st.sampled_from(_IPS),
        st.sampled_from([502, 40000]), st.sampled_from([60, 100]),
    ).filter(lambda key: key.src_ip != key.dst_ip),
    st.lists(st.sampled_from([0.0, 1.0, 2.0, 4.0]), max_size=5).map(
        lambda gaps: cell_of(itertools.accumulate(gaps, initial=0.0))
    ),
    min_size=1,
    max_size=12,
)


@given(_tables)
def test_rank_order_is_descending_f_then_pR_n_then_key(table):
    ranked = rank_table(table)
    want = sorted(ranked, key=lambda e: (-e.f, -e.normalized[0], e.key))
    assert [e.key for e in ranked] == [e.key for e in want]


def churn_like_table(connections=4000, seed=41):
    """About 20,000 5-tuples: one master, one ephemeral port per connection.

    Each connection polls one of 200 field devices 1 to 6 times; the request
    and the four response sizes of a connection are five 5-tuples.
    """
    rng = random.Random(seed)
    table = {}
    for port in range(1024, 1024 + connections):
        fd = f"10.0.1.{rng.randrange(1, 201)}"
        start = rng.uniform(0.0, 1800.0)
        starts = [start + 6.0 * i + rng.random() for i in range(rng.randint(1, 6))]
        table[FtKey("10.0.0.1", port, fd, 502, 66)] = cell_of(starts)
        for size in rng.sample((480, 450, 420, 390, 360, 330), 4):
            table[FtKey(fd, 502, "10.0.0.1", port, size)] = cell_of(starts)
    return table


def test_rank_memory_per_5_tuple():
    # Each entry holds six fields: its key, n, pR, dR, score and one
    # SharedFeatures per group of equal counts; the sorts build no key tuple.
    # Traced bytes per 5-tuple on this table, Python 3.11: peak 295 and
    # retained 224 when every entry held a raw tuple and the sorts ran over
    # the whole table; 177 and 149 when every zero score held its own float;
    # now 170 and 141.  A seventh field would add 16.
    table = churn_like_table()
    profiles = build_device_profiles(table)
    rank(table, profiles)  # first-call allocations out of the count
    tracemalloc.start()
    try:
        ranked = rank(table, profiles)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ranked) == len(table) == 20000
    assert peak / len(table) <= 185
    assert retained / len(table) <= 150
    # Every zero score is the one constant 0.0.
    zeros = [e.f for e in ranked if e.f == 0.0]
    assert len(zeros) > 1000 and len(set(map(id, zeros))) == 1
    # cR, uR and sR are computed once per group of equal counts, not per
    # 5-tuple; on this table each group has its own (cR, uR, sR).
    groups = len({id(e.shared) for e in ranked})
    assert groups == len({e.raw[2:] for e in ranked})
    for column in (2, 3, 4):
        assert len({id(e.raw[column]) for e in ranked}) <= groups


def test_rank_column_of_zeros_normalizes_to_positive_zero():
    # One segment per 5-tuple: no gaps, so every pR and dR is 0.
    keys = [
        FtKey("10.0.0.2", 502, "10.0.0.1", 40000, 60),
        FtKey("10.0.0.1", 40000, "10.0.0.2", 502, 12),
        FtKey("10.0.0.3", 502, "10.0.0.1", 40001, 60),
        FtKey("10.0.0.1", 40001, "10.0.0.3", 502, 12),
    ]
    ranked = rank_table({k: cell_of([float(i)]) for i, k in enumerate(keys)})
    for e in ranked:
        assert e.raw[:2] == (0.0, 0.0)
        for value in e.normalized[:2]:
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert all(value > 0.0 for value in e.normalized[2:])
        assert e.f == 0.0
    assert [e.key for e in ranked] == sorted(keys)


def test_rank_reads_a_given_device_table_as_its_own():
    # Algorithm 1 reads the device table after rank: rank leaves it as it was.
    table = synth_table(duration=600.0, seed=36, fds=5)
    profiles = build_device_profiles(table)
    before = copy.deepcopy(profiles)
    ranked = rank(table, profiles)
    assert profiles == before
    assert ranked == rank(table, build_device_profiles(dict(reversed(table.items()))))


def test_ranking_csv_layout(tmp_path):
    table = synth_table(duration=300.0, seed=35, fds=3)
    ranked = rank_table(table)
    out = tmp_path / "rank.csv"
    with open(out, "w") as fp:
        write_ranking_csv(ranked, fp, top=5)
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[:6] == ["rank", "src_ip", "src_port", "dst_ip", "dst_port", "seg_size"]
    assert len(lines) == 6


def test_random_scenarios_feature_parity_with_reference():
    meta = random.Random(77)
    for _ in range(5):
        config = small_random_scenario(meta)
        records = list(generate(config)[0])
        if not records:
            continue
        got = {tuple(e.key): e.raw for e in rank_table(build_table(records))}
        want = ref_all_features(ref_ft_table(ref_segments(records, 1.0)))
        for ft in want:
            for g, w in zip(got[ft], want[ft]):
                assert g == pytest.approx(w, rel=1e-12, abs=1e-300)


_gaps = st.floats(min_value=0.0, max_value=1e4, allow_nan=False) | st.sampled_from([0.0, 1.0, 8.75, 300.0])


@given(st.floats(min_value=0.0, max_value=1e7), st.lists(_gaps, max_size=400))
def test_cell_features_match_the_two_pass_reference(t0, gaps):
    # The cell's one-pass shifted sums against the reference's two passes
    # over the start times, within criterion 6's bound; pR is never negative.
    # The lists cross LONG_CELL, where a cell starts to sum its gaps in blocks.
    starts = list(itertools.accumulate(gaps, initial=t0))
    pR, dR = periodicity_durability(cell_of(starts))
    assert pR >= 0.0
    assert (pR, dR) == pytest.approx((ref_periodicity(starts), ref_durability(starts)), rel=1e-12, abs=1e-300)


def long_gaps(shape, k, period, jitter, seed):
    """``k`` gaps of a long-lived 5-tuple: polls every ``period`` seconds,
    each off by up to ``jitter`` of it, in a shape that strains one-pass sums."""
    rng = random.Random(seed)
    gaps = [period * (1.0 + rng.uniform(-jitter, jitter)) for _ in range(k)]
    if shape == "first-apart":  # the first gap, the shift's start, far from the polls
        gaps[0] = rng.uniform(0.0, 1e4)
    elif shape == "two-regimes":  # a slow first half, then the polls
        gaps[: k // 2] = [1e4 + g for g in gaps[: k // 2]]
    elif shape == "drift":  # the period grows by half over the trace
        gaps = [g * (1.0 + 0.5 * i / k) for i, g in enumerate(gaps)]
    elif shape == "pauses":  # one gap in a hundred is a reconnect pause
        gaps = [g + 1e3 if rng.random() < 0.01 else g for g in gaps]
    return gaps


@settings(max_examples=10)
@example("first-apart", 200_000, 8.75, 1e-6, 0, 1e6)
@example("two-regimes", 200_000, 8.75, 1e-3, 0, 1e6)
@given(
    st.sampled_from(["first-apart", "two-regimes", "drift", "pauses", "polls"]),
    st.sampled_from([1_000, 10_000, 100_000, 200_000]),
    st.sampled_from([1.0, 8.75, 60.0, 300.0]),
    st.sampled_from([1e-9, 1e-6, 1e-3, 0.1]),
    st.integers(min_value=0, max_value=2**32),
    st.floats(min_value=0.0, max_value=1e7),
)
def test_long_cell_features_match_the_two_pass_reference(shape, k, period, jitter, seed, t0):
    # A month polled every 8.75 s gives about 300,000 gaps per 5-tuple; the
    # draws stop at 200,000 to keep the test near 3 s.
    starts = list(itertools.accumulate(long_gaps(shape, k, period, jitter, seed), initial=t0))
    pR, dR = periodicity_durability(cell_of(starts))
    assert pR >= 0.0
    assert (pR, dR) == pytest.approx((ref_periodicity(starts), ref_durability(starts)), rel=1e-12, abs=1e-300)
