"""Inference tests: port pick, device classification, protocol loop, HMI, metrics."""

from __future__ import annotations

import bisect
import logging
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from scadascope import inference, segmentation
from scadascope.features import RankedFt, SharedFeatures, rank
from scadascope.inference import (
    InferenceConfig,
    NoScadaFoundError,
    ProtocolEntry,
    TopologyReport,
    analyze_records,
    build_device_profiles,
    evaluate,
    hmi_candidates,
    infer_field_devices,
    infer_master_servers,
    infer_scada_port,
    load_ground_truth,
    prefix_stability,
    report_to_dot,
    run_algorithm1,
)
from scadascope.ingest import PacketRecord
from scadascope.segmentation import FtKey, aggregate_ft, segment_stream
from scadascope.synth import PeripheralSpec, ScadaGroup, ScenarioConfig, generate

from reference import ref_algorithm1, ref_ft_table, ref_hmi, ref_quantities, ref_segments
from scenarios import (
    cell_of, dataset1_like, dataset2_like, month_like, office_like, rank_table, small_random_scenario,
)


def ft(src, sport, dst, dport, size, n=2, period=10.0):
    key = FtKey(src, sport, dst, dport, size)
    return key, cell_of(period * i for i in range(n))


def table_of(*entries):
    return dict(entries)


def algorithm1_on(table, config):
    """Algorithm 1 on a 5-tuple table, ranked with its one device table."""
    profiles = build_device_profiles(table)
    return run_algorithm1(rank(table, profiles), profiles, config)


def ranked_stub(key, n=5):
    return RankedFt(key, n, 1.0, 1.0, SharedFeatures(1.0, 1.0, 1.0))


# --- port inference -------------------------------------------------------------


def scada_like_table(num_fds=64):
    entries = [ft(f"10.1.0.{i + 1}", 20000, "10.9.9.9", 51000 + i, 340) for i in range(num_fds)]
    return table_of(*entries)


def test_port_from_lower_degree_endpoint():
    table = scada_like_table()
    profiles = build_device_profiles(table)
    assert profiles["10.9.9.9"].degree == 64
    assert profiles["10.1.0.1"].degree == 1
    port, owner, tie = infer_scada_port([ranked_stub(FtKey("10.1.0.1", 20000, "10.9.9.9", 51382, 340))], profiles)
    assert (port, owner, tie) == (20000, "10.1.0.1", False)


def test_port_chosen_on_destination_side_when_master_initiates():
    # master speaks first toward the field device: the port still comes from
    # the low-degree destination endpoint
    table = scada_like_table(num_fds=8)
    key, stats = ft("10.9.9.9", 49170, "10.1.0.77", 44818, 1514)
    table[key] = stats
    profiles = build_device_profiles(table)
    port, owner, tie = infer_scada_port([ranked_stub(key)], profiles)
    assert (port, owner, tie) == (44818, "10.1.0.77", False)


def test_port_tie_breaks_to_lower_port_and_flags():
    table = table_of(ft("10.0.0.1", 700, "10.0.0.2", 200, 90))
    profiles = build_device_profiles(table)
    port, owner, tie = infer_scada_port([ranked_stub(FtKey("10.0.0.1", 700, "10.0.0.2", 200, 90))], profiles)
    assert (port, owner, tie) == (200, "10.0.0.2", True)


def test_port_empty_ranked_errors():
    with pytest.raises(NoScadaFoundError):
        infer_scada_port([], {})


# --- field device inference -------------------------------------------------------


def test_field_device_pure_scada_degree_one():
    table = scada_like_table(num_fds=3)
    profiles = build_device_profiles(table)
    fds = infer_field_devices(20000, profiles, InferenceConfig())
    assert fds == {"10.1.0.1", "10.1.0.2", "10.1.0.3"}


def test_reporting_workstation_excluded_by_fraction():
    # 30% of its segments on the scada port, 70% elsewhere; degree 2
    entries = [
        ft("10.2.0.1", 20000, "10.3.0.1", 36000, 150, n=3),
        ft("10.2.0.1", 52000, "10.4.0.1", 7070, 120, n=7),
    ]
    table = table_of(*entries)
    profiles = build_device_profiles(table)
    assert profiles["10.2.0.1"].scada_fraction(20000) == pytest.approx(0.3)
    assert profiles["10.2.0.1"].degree == 2
    assert infer_field_devices(20000, profiles, InferenceConfig()) == set()


def test_master_not_field_device_despite_fraction():
    # degree blows the threshold even when the fraction condition passes
    entries = [ft("10.9.9.9", 20000, f"10.5.0.{i + 1}", 40000 + i, 200, n=6) for i in range(64)]
    entries += [ft("10.9.9.9", 8000, "10.6.0.1", 9000, 100, n=4)]
    table = table_of(*entries)
    profiles = build_device_profiles(table)
    assert profiles["10.9.9.9"].scada_fraction(20000) > 0.5
    assert "10.9.9.9" not in infer_field_devices(20000, profiles, InferenceConfig())


def test_fraction_counts_own_side_only():
    table = scada_like_table(num_fds=2)
    profiles = build_device_profiles(table)
    # the master's side carries ephemeral ports, never the scada port
    assert profiles["10.9.9.9"].scada_fraction(20000) == 0.0


@pytest.mark.parametrize(
    "kw,message",
    [
        ({"fd_degree_threshold": 1}, "fd_degree_threshold must be above 1, got 1"),
        ({"scada_fraction_threshold": 1.0}, "scada_fraction_threshold must be below 1, got 1.0"),
        ({"scada_fraction_threshold": 1.5}, "scada_fraction_threshold must be below 1, got 1.5"),
    ],
)
def test_config_refuses_thresholds_no_device_can_meet(kw, message):
    # A degree is at least 1 and a share at most 1, so no device could qualify.
    with pytest.raises(ValueError, match=re.escape(message)):
        InferenceConfig(**kw)
    # The nearest settings that some device can meet are accepted.
    InferenceConfig(fd_degree_threshold=2, scada_fraction_threshold=0.999)


# --- master inference ---------------------------------------------------------------


def test_master_connected_to_field_devices():
    table = scada_like_table(num_fds=5)
    profiles = build_device_profiles(table)
    fds = infer_field_devices(20000, profiles, InferenceConfig())
    assert infer_master_servers(20000, fds, rank_table(table)) == {"10.9.9.9"}


def test_peripheral_on_other_port_not_master():
    table = scada_like_table(num_fds=5)
    key, stats = ft("10.7.0.1", 8080, "10.1.0.1", 3333, 100, n=1)  # talks to an FD, wrong port
    table[key] = stats
    profiles = build_device_profiles(table)
    fds = infer_field_devices(20000, profiles, InferenceConfig())
    assert "10.1.0.1" in fds
    assert infer_master_servers(20000, fds, rank_table(table)) == {"10.9.9.9"}


def test_master_empty_when_no_field_devices():
    table = scada_like_table(num_fds=2)
    assert infer_master_servers(20000, set(), rank_table(table)) == set()


# --- HMI -------------------------------------------------------------------------


def test_hmi_dominant_quantity():
    entries = [
        ft("m", 49000, "hmi", 8055, 1514, n=500),
        ft("m", 49001, "backup", 873, 1514, n=30),
        ft("m", 49002, "fd1", 20000, 340, n=100),
    ]
    table = table_of(*entries)
    assert hmi_candidates("m", rank_table(table))[0][1] == "hmi"


def test_hmi_single_peer():
    table = table_of(ft("m", 49000, "only", 8055, 100, n=1))
    assert hmi_candidates("m", rank_table(table))[0][1] == "only"


def test_three_layer_master_without_outgoing_leaves_hmi_unknown():
    # The field device initiates; the master it answers initiates nothing.
    table = table_of(ft("fd", 20000, "m", 49000, 340))
    report = algorithm1_on(table, InferenceConfig(three_layer=True))
    assert report.protocols[0].master_servers == {"m"}
    assert report.hmi is None
    assert "master m initiates no communication, HMI unknown" in report.warnings
    assert report.evidence["m"]["role"] == "master"


def test_three_layer_without_master_warns():
    # Two field devices poll each other on the SCADA port: no master to follow.
    table = table_of(ft("fd1", 20000, "fd2", 20000, 340))
    report = algorithm1_on(table, InferenceConfig(three_layer=True))
    assert report.protocols[0].field_devices == {"fd1", "fd2"}
    assert report.protocols[0].master_servers == set()
    assert report.hmi is None
    assert "three-layer requested but no master server was inferred" in report.warnings


def test_hmi_matches_bruteforce_oracle():
    meta = random.Random(5150)
    for _ in range(5):
        config = small_random_scenario(meta)
        config.layers = 3 if config.scada_groups else 2
        if config.layers != 3:
            continue
        records = list(generate(config)[0])
        table = aggregate_ft(segment_stream(records, 1.0))
        want = ref_hmi("10.0.0.1", ref_ft_table(ref_segments(records, 1.0)))
        assert want is not None
        assert hmi_candidates("10.0.0.1", rank_table(table))[0][1] == want[1]


def test_hmi_argmax_invariant_under_size_scaling():
    entries = [
        ft("m", 49000, "hmi", 8055, 1000, n=50),
        ft("m", 49001, "other", 873, 900, n=40),
    ]
    table = table_of(*entries)
    scaled = {}
    for k, s in table.items():
        nk = FtKey(k.src_ip, k.src_port, k.dst_ip, k.dst_port, k.seg_size * 7)
        scaled[nk] = s
    assert hmi_candidates("m", rank_table(table))[0][1] == hmi_candidates("m", rank_table(scaled))[0][1]


# --- the full loop -----------------------------------------------------------------


def analyze_config(**kw):
    return InferenceConfig(**kw)


def test_algorithm_single_protocol_scenario():
    config = dataset1_like(duration=1800.0, seed=301, fds=10)
    records, truth = generate(config)
    result = analyze_records(records, inference_config=analyze_config(three_layer=True))
    report = result.report
    assert report.status == "ok"
    assert len(report.protocols) == 1
    entry = report.protocols[0]
    assert entry.scada_port == 20000
    assert entry.field_devices == truth.devices_with_role("field_device")
    assert entry.master_servers == {"10.0.0.1"}
    assert report.hmi == "10.0.0.2"


@pytest.mark.parametrize(
    ("period", "hmi", "role", "counts"),
    [(1.0, "10.0.200.19", "peripheral", (50, 1, 1)), (2.0, "10.0.0.2", "hmi", (51, 0, 0))],
)
def test_backup_outweighing_the_hmi_feed_is_claimed_as_the_hmi(period, hmi, role, counts):
    # The paper's documented miss, "HMIs connected to master server": the HMI
    # is the master's heaviest initiated peer, so a backup host copying from
    # the master at a higher byte rate than the HMI feed is claimed in its
    # place, with no warning.  Field devices and masters are untouched.
    config = dataset1_like(duration=3600.0, seed=101)
    (backup,) = [spec for spec in config.peripherals if spec.kind == "backup"]
    backup.period = period
    records, truth = generate(config)
    report = analyze_records(records, InferenceConfig(three_layer=True)).report
    (entry,) = report.protocols
    assert entry.field_devices == truth.devices_with_role("field_device")
    assert entry.master_servers == truth.devices_with_role("master")
    assert report.warnings == []
    labels = load_ground_truth(truth.to_dict())
    assert (report.hmi, labels[report.hmi]) == (hmi, role)
    metrics = evaluate(report, labels)
    tp, fp, fn = counts
    assert (metrics["tp"], metrics["fp"], metrics["fn"]) == counts
    assert metrics["f_score"] == pytest.approx(2 * tp / (2 * tp + fp + fn))


def test_algorithm_two_protocols_and_shared_master():
    config = dataset2_like(duration=2400.0, seed=302)
    records, truth = generate(config)
    result = analyze_records(records, inference_config=analyze_config(num_scada_protocols=2))
    report = result.report
    assert [p.scada_port for p in report.protocols] == [2404, 44818]
    group_a = {f"10.0.10.{i + 1}" for i in range(22)}
    group_b = {f"10.0.11.{i + 1}" for i in range(4)}
    assert report.protocols[0].field_devices == group_a
    assert report.protocols[1].field_devices == group_b
    assert report.protocols[0].master_servers == {"10.0.0.1"}
    assert report.protocols[1].master_servers == {"10.0.0.1"}
    metrics = evaluate(report, load_ground_truth(truth.to_dict()))
    assert metrics["f_score"] == 1.0


def test_shared_master_gets_one_hmi_pass(monkeypatch):
    # Both protocols name the same master: its HMI candidates are summed once.
    calls = []

    def counting(master, ranked):
        calls.append(master)
        return hmi_candidates(master, ranked)

    monkeypatch.setattr(inference, "hmi_candidates", counting)
    records, _ = generate(dataset2_like(duration=2400.0, seed=302))
    report = analyze_records(records, analyze_config(num_scada_protocols=2, three_layer=True)).report
    assert [p.master_servers for p in report.protocols] == [{"10.0.0.1"}, {"10.0.0.1"}]
    assert calls == ["10.0.0.1"]


def test_algorithm_removal_soundness():
    config = dataset2_like(duration=1200.0, seed=303)
    records, _ = generate(config)
    result = analyze_records(records, inference_config=analyze_config(num_scada_protocols=2))
    first_port = result.report.protocols[0].scada_port
    second_port = result.report.protocols[1].scada_port
    assert first_port != second_port
    survivors = [
        e for e in result.ranked if first_port not in (e.key.src_port, e.key.dst_port)
    ]
    assert all(first_port not in (e.key.src_port, e.key.dst_port) for e in survivors)
    top_after_removal = survivors[0]
    assert second_port in (top_after_removal.key.src_port, top_after_removal.key.dst_port)


def test_algorithm_exhaustion_gives_partial_report():
    table = scada_like_table(num_fds=4)
    report = algorithm1_on(table, analyze_config(num_scada_protocols=3))
    assert report.status == "partial"
    assert len(report.protocols) < 3
    assert any("exhausted" in w for w in report.warnings)
    assert report.low_confidence


def test_algorithm_office_traffic_yields_no_field_devices():
    config = office_like(duration=3600.0, seed=304)
    records, _ = generate(config)
    result = analyze_records(records, inference_config=analyze_config())
    report = result.report
    assert len(report.protocols) == 1
    assert report.protocols[0].field_devices == set()
    assert report.low_confidence
    assert any("field-device" in w for w in report.warnings)


def test_algorithm_deterministic():
    config = dataset1_like(duration=900.0, seed=305, fds=5)
    records = list(generate(config)[0])
    a = analyze_records(iter(records), inference_config=analyze_config(three_layer=True))
    b = analyze_records(iter(records), inference_config=analyze_config(three_layer=True))
    assert a.report.to_dict() == b.report.to_dict()


def test_record_count_matches_input(caplog, monkeypatch):
    config = dataset1_like(duration=300.0, seed=311, fds=3)
    records = list(generate(config)[0])
    monkeypatch.setattr(segmentation, "PROGRESS_EVERY", 300)
    with caplog.at_level(logging.INFO, logger="scadascope.segmentation"):
        result = analyze_records(iter(records))
    assert result.record_count == len(records) == result.report.metrics["records"]
    progress = [r.getMessage() for r in caplog.records if r.getMessage().startswith("processed")]
    expected = [f"processed {n} records" for n in range(300, len(records) + 1, 300)]
    assert len(expected) >= 2 and progress == expected
    assert analyze_records(iter([])).record_count == 0


def test_cR_matches_reported_port_counts():
    records, _ = generate(dataset1_like(duration=900.0, seed=312, fds=5))
    result = analyze_records(records)
    evidence = result.report.evidence
    assert result.ranked
    for entry in result.ranked:
        a = evidence[entry.key.src_ip]["ports_used"]
        b = evidence[entry.key.dst_ip]["ports_used"]
        assert entry.raw[2] == max(a, b) / min(a, b)


def test_analyze_builds_one_device_table_for_rank_and_algorithm1(monkeypatch):
    built, handed = [], {}

    def building(ft_map):
        built.append(build_device_profiles(ft_map))
        return built[-1]

    def ranking(ft_map, profiles):
        handed["rank"] = profiles
        return rank(ft_map, profiles)

    def algorithm1(ranked, profiles, config):
        handed["run_algorithm1"] = profiles
        return run_algorithm1(ranked, profiles, config)

    monkeypatch.setattr(inference, "build_device_profiles", building)
    monkeypatch.setattr(inference, "rank", ranking)
    monkeypatch.setattr(inference, "run_algorithm1", algorithm1)
    records, _ = generate(dataset1_like(duration=300.0, seed=313, fds=3))
    analyze_records(records)
    assert len(built) == 1
    assert handed["rank"] is built[0]
    assert handed["run_algorithm1"] is built[0]


def test_report_classification_disjoint_and_evidence_roles():
    config = dataset1_like(duration=1800.0, seed=306, fds=8)
    records, _ = generate(config)
    report = analyze_records(records, inference_config=analyze_config(three_layer=True)).report
    entry = report.protocols[0]
    assert not entry.field_devices & entry.master_servers
    for fd in entry.field_devices:
        assert report.evidence[fd]["role"] == "field_device"
        assert report.evidence[fd]["scada_fraction"] > 0.5
    assert report.evidence["10.0.0.1"]["role"] == "master"
    assert report.unclassified.isdisjoint(report.classified_devices())


def expected_role_and_port(ip, report):
    """The first protocol classifying ``ip`` decides its role and port; the
    HMI is ``hmi`` on the first protocol's port unless a protocol named it."""
    for entry in report.protocols:
        if ip in entry.field_devices:
            found = ("field_device", entry.scada_port)
            break
        if ip in entry.master_servers:
            found = ("master", entry.scada_port)
            break
    else:
        found = ("unclassified", report.protocols[0].scada_port)
    return ("hmi", found[1]) if ip == report.hmi else found


@pytest.mark.parametrize(
    "config,kw,ip,role,port",
    [
        (dataset2_like(duration=2400.0, seed=302), {"num_scada_protocols": 2}, "10.0.0.1", "master", 2404),
        (dataset1_like(duration=1800.0, seed=306, fds=8), {"three_layer": True}, "10.0.0.2", "hmi", 20000),
    ],
    ids=["shared-master", "hmi"],
)
def test_evidence_role_and_classifying_port(config, kw, ip, role, port):
    records = list(generate(config)[0])
    result = analyze_records(records, inference_config=analyze_config(**kw))
    report = result.report
    profiles = build_device_profiles(aggregate_ft(segment_stream(records, InferenceConfig.t_comm)))
    assert expected_role_and_port(ip, report) == (role, port)
    for dev, evidence in report.evidence.items():
        want_role, want_port = expected_role_and_port(dev, report)
        assert evidence["role"] == want_role, dev
        assert evidence["scada_fraction"] == round(profiles[dev].scada_fraction(want_port), 6), dev
        assert (want_role == "unclassified") == (dev in report.unclassified), dev
    shapes = {"field_device": "box", "master": "doublecircle", "hmi": "diamond", "unclassified": "ellipse"}
    dot = report_to_dot(report, result.ranked)
    for dev, evidence in report.evidence.items():
        assert f'  "{dev}" [shape={shapes[evidence["role"]]}];' in dot


# --- Algorithm 1 against the brute-force reference ------------------------------------

_ALG1_IPS = [f"10.0.0.{i}" for i in range(1, 6)]
_ALG1_PORTS = [502, 20000, 40000, 40001]

# A flow: (initiator, responder, initiator port, responder port, size, ticks,
# reply).  Each tick t sends one packet at 2t seconds, and with ``reply`` an
# answer 0.25 s later in the same segment.
_flows = st.lists(
    st.tuples(
        st.integers(0, 4), st.integers(0, 4), st.sampled_from(_ALG1_PORTS), st.sampled_from(_ALG1_PORTS),
        st.sampled_from([60, 100, 240]), st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True),
        st.booleans(),
    ).filter(lambda flow: flow[0] != flow[1]),
    min_size=1,
    max_size=6,
)


def _flow_records(flows):
    records = []
    for a, b, a_port, b_port, size, ticks, reply in flows:
        for t in ticks:
            records.append(PacketRecord(2.0 * t, _ALG1_IPS[a], a_port, _ALG1_IPS[b], b_port, "tcp", size))
            if reply:
                records.append(PacketRecord(2.0 * t + 0.25, _ALG1_IPS[b], b_port, _ALG1_IPS[a], a_port, "tcp", 60))
    return sorted(records, key=lambda r: r.ts)


def _assert_matches_reference(records, config):
    got = analyze_records(records, inference_config=config).report.to_dict()
    del got["metrics"]
    assert got == ref_algorithm1(ref_ft_table(ref_segments(records, config.t_comm)), config)


_POLL = [0, 1, 2, 3, 5, 8]


@settings(max_examples=150)
@given(
    flows=_flows,
    num_protocols=st.integers(1, 3),
    three_layer=st.booleans(),
    fd_degree_threshold=st.sampled_from([2, 3, 5]),
    scada_fraction=st.sampled_from([0.25, 0.5, 0.75]),
)
# A degree tie between unequal ports; the HMI the master sends most to is a
# field device.
@example([(0, 1, 40000, 502, 100, _POLL, True)], 1, True, 5, 0.5)
# A port on both sides of a 5-tuple.
@example([(0, 1, 502, 502, 100, _POLL, True), (2, 1, 40000, 502, 60, [0, 3, 4], False)], 1, False, 5, 0.5)
# Shares of exactly the threshold: no device passes either port, so there is
# no master for three_layer.
@example([(0, 1, 502, 40000, 100, [0, 1], False), (0, 1, 20000, 40001, 100, [3, 4], False)], 2, True, 5, 0.5)
# One port and three protocols asked for: the ranking runs out.
@example([(0, 1, 40000, 502, 100, _POLL, True)], 3, False, 5, 0.5)
# The master only answers, so it initiates nothing.
@example([(1, 0, 502, 40000, 100, _POLL, False)], 1, True, 5, 0.5)
# A star whose master has a higher degree than each field device, and a
# second port.
@example(
    [(0, 1, 40000, 502, 100, _POLL, True), (0, 2, 40001, 502, 100, [1, 3, 6, 9], True),
     (0, 3, 40000, 502, 240, _POLL, True), (0, 4, 40001, 20000, 60, [0, 2, 4, 6], True),
     (3, 4, 40001, 20000, 60, [1, 2], False)],
    2, True, 3, 0.5,
)
# Two HMI candidates the master sends equal quantities to: the lower address
# wins, with a warning.
@example(
    [(0, 1, 40000, 502, 100, _POLL, True), (0, 3, 40001, 20000, 240, [10, 12, 14, 16, 18, 20], False),
     (0, 2, 40001, 20000, 240, [11, 13, 15, 17, 19, 21], False)],
    1, True, 5, 0.5,
)
# The same tie, where the higher address ranks first: its polls are evenly
# spaced.
@example(
    [(0, 1, 40000, 502, 100, _POLL, True), (0, 3, 40001, 20000, 240, [10, 12, 14, 16, 18, 20], False),
     (0, 2, 40001, 20000, 240, [11, 13, 15, 17, 19, 23], False)],
    1, True, 5, 0.5,
)
def test_algorithm1_matches_reference(flows, num_protocols, three_layer, fd_degree_threshold, scada_fraction):
    config = InferenceConfig(
        num_scada_protocols=num_protocols,
        three_layer=three_layer,
        fd_degree_threshold=fd_degree_threshold,
        scada_fraction_threshold=scada_fraction,
    )
    _assert_matches_reference(_flow_records(flows), config)


def test_algorithm1_matches_reference_on_random_scenarios():
    # Acceptance criterion 6's 100 draws, each analysed for its own protocol
    # count and layering.
    meta = random.Random(60606)
    for _ in range(100):
        scenario = small_random_scenario(meta)
        records = list(generate(scenario)[0])
        config = InferenceConfig(
            num_scada_protocols=len(scenario.scada_groups), three_layer=scenario.layers == 3
        )
        _assert_matches_reference(records, config)


# --- evaluation ---------------------------------------------------------------------


def simple_report(fds, masters=frozenset(), hmi=None):
    return TopologyReport(
        protocols=[ProtocolEntry(scada_port=1, scada_ip="x", field_devices=set(fds), master_servers=set(masters))],
        hmi=hmi,
    )


def test_evaluate_perfect():
    truth = {f"fd{i}": "field_device" for i in range(3)}
    truth["m"] = "master"
    report = simple_report({"fd0", "fd1", "fd2"}, {"m"})
    metrics = evaluate(report, truth)
    assert metrics["precision"] == metrics["recall"] == metrics["f_score"] == 1.0


def test_evaluate_one_false_positive_among_49():
    truth = {f"fd{i}": "field_device" for i in range(49)}
    truth["extra"] = "peripheral"
    report = simple_report({f"fd{i}" for i in range(49)} | {"extra"})
    metrics = evaluate(report, truth)
    assert metrics["precision"] == pytest.approx(49 / 50)
    assert metrics["recall"] == 1.0


def test_evaluate_missed_hmi_lowers_recall():
    truth = {f"fd{i}": "field_device" for i in range(5)}
    truth["m"] = "master"
    truth["hmi"] = "hmi"
    report = simple_report({f"fd{i}" for i in range(5)}, {"m"})
    metrics = evaluate(report, truth)
    assert metrics["precision"] == 1.0
    assert metrics["recall"] == pytest.approx(6 / 7)
    assert 0.0 < metrics["f_score"] < 1.0


def test_evaluate_nothing_claimed_and_nothing_to_find_is_perfect():
    metrics = evaluate(simple_report(set()), {"p": "peripheral"})
    assert metrics["precision"] == metrics["recall"] == metrics["f_score"] == 1.0
    assert (metrics["tp"], metrics["fp"], metrics["fn"]) == (0, 0, 0)


def test_evaluate_nothing_claimed_but_something_to_find_scores_zero():
    metrics = evaluate(TopologyReport(), {"10.0.0.1": "field_device"})
    assert (metrics["precision"], metrics["recall"], metrics["f_score"]) == (0.0, 0.0, 0.0)
    assert (metrics["tp"], metrics["fp"], metrics["fn"]) == (0, 0, 1)


def test_evaluate_empty_truth_errors():
    with pytest.raises(ValueError):
        evaluate(simple_report(set()), {})


def test_evaluate_f_is_one_iff_sets_equal():
    truth = {"a": "field_device", "b": "master", "c": "peripheral"}
    exact = simple_report({"a"}, {"b"})
    assert evaluate(exact, truth)["f_score"] == 1.0
    off = simple_report({"a", "c"}, {"b"})
    assert evaluate(off, truth)["f_score"] < 1.0


def test_load_ground_truth_accepts_both_shapes():
    truth = load_ground_truth(
        {"a": "master", "b": {"role": "field_device", "protocol": 20000}}
    )
    assert truth == {"a": "master", "b": "field_device"}
    with pytest.raises(ValueError):
        load_ground_truth({"a": "overlord"})


# --- prefix stability ----------------------------------------------------------------


def test_prefix_fraction_one_matches_full():
    config = dataset1_like(duration=600.0, seed=307, fds=4)
    records = list(generate(config)[0])
    result = prefix_stability(records, [1.0])
    assert result.smallest_stable == 1.0


def test_prefix_stability_on_long_trace():
    config = month_like(seed=308, days=4)
    records = list(generate(config)[0])
    result = prefix_stability(records, [0.02, 0.1, 0.5, 1.0])
    assert result.smallest_stable is not None
    assert result.smallest_stable <= 0.1


def test_prefix_degenerate_fraction_low_confidence():
    config = dataset1_like(duration=86400.0 / 12, seed=309, fds=4)
    records = list(generate(config)[0])
    tiny = prefix_stability(records, [0.0001, 1.0]).by_fraction[0.0001]
    assert tiny.low_confidence or not tiny.protocols or tiny.topology_signature() != (
        prefix_stability(records, [1.0]).full_report.topology_signature()
    )


def test_prefix_fraction_one_takes_last_record():
    # t0 + 1.0 * (last - t0) rounds below last for these two timestamps, so a
    # time cutoff would drop the last record, the one field device 10.0.1.9
    # is seen in.
    t0, last = 14746.42848500945, 32374.81194607641
    assert t0 + 1.0 * (last - t0) < last
    step = (last - t0) / 100
    records = [
        PacketRecord(t0 + i * step, "10.0.0.1", 40000, f"10.0.1.{i % 3 + 1}", 502, "tcp", 12)
        for i in range(100)
    ]
    records.append(PacketRecord(last, "10.0.1.9", 502, "10.0.0.1", 40000, "tcp", 12))
    result = prefix_stability(iter(records), [0.5, 1.0])
    assert result.by_fraction[1.0].metrics["records"] == len(records)
    assert "10.0.1.9" in result.by_fraction[1.0].protocols[0].field_devices
    assert result.smallest_stable == 1.0


def test_prefix_stability_reads_once_and_ranks_each_prefix_once(monkeypatch):
    config = dataset1_like(duration=600.0, seed=310, fds=4)
    records = list(generate(config)[0])
    pulled = []

    def stream():
        for rec in records:
            pulled.append(rec)
            yield rec

    ranked_sizes = []

    def counting(ft_map, profiles):
        ranked_sizes.append(sum(cell.n for cell in ft_map.values()))
        return rank(ft_map, profiles)

    monkeypatch.setattr(inference, "rank", counting)
    fractions = [0.02, 0.06, 0.1, 0.25, 0.2500001, 1.0]
    result = prefix_stability(stream(), fractions, end=records[-1].ts)
    assert len(pulled) == len(records)
    # 0.25 and 0.2500001 cut between the same two records: one prefix.
    t0, span = records[0].ts, records[-1].ts - records[0].ts
    lengths = {sum(r.ts <= t0 + f * span for r in records) for f in fractions[:-1]}
    assert len(lengths) == 4
    assert len(ranked_sizes) == len(lengths) + 1
    assert result.by_fraction[0.25] is result.by_fraction[0.2500001]
    assert result.by_fraction[1.0] is result.full_report


def _prefix_reruns(records, fractions, **kwargs):
    """Each fraction's report as a separate analyze_records run on its prefix."""
    t0, span = records[0].ts, records[-1].ts - records[0].ts
    times = [r.ts for r in records]
    out = {}
    for f in fractions:
        n = len(records) if f == 1 else bisect.bisect_right(times, t0 + f * span)
        out[f] = analyze_records(records[:n], **kwargs).report.to_dict()
    return out


@settings(max_examples=30)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=5),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_prefix_stability_matches_prefix_reruns(seed, fractions, gap_pick, three_layer):
    meta = random.Random(seed)
    records = list(generate(small_random_scenario(meta))[0])
    t0, span = records[0].ts, records[-1].ts - records[0].ts
    # Two fractions cutting between the same two records, and a repeat.
    k = gap_pick % (len(records) - 1)
    low, high = records[k].ts, records[k + 1].ts
    fractions += [(low + (high - low) * q - t0) / span for q in (0.25, 0.75)]
    fractions = [f for f in fractions if 0 < f <= 1]
    fractions.append(fractions[0])
    config = InferenceConfig(num_scada_protocols=meta.randint(1, 2), three_layer=three_layer)
    result = prefix_stability(iter(records), fractions, end=records[-1].ts, inference_config=config)
    assert {f: rep.to_dict() for f, rep in result.by_fraction.items()} == _prefix_reruns(
        records, set(fractions), inference_config=config
    )


class _Rereadable:
    """A record list that counts how often it is iterated."""

    def __init__(self, records):
        self.records = records
        self.reads = 0

    def __iter__(self):
        self.reads += 1
        return iter(self.records)


@pytest.mark.parametrize("shift", [-3000.0, -0.5, 0.5])
def test_prefix_stability_reads_again_when_the_end_hint_is_wrong(caplog, shift):
    records = list(generate(dataset1_like(duration=3600.0, seed=313, fds=4))[0])
    fractions = [0.02, 0.25, 0.5, 1.0]
    source = _Rereadable(records)
    with caplog.at_level(logging.WARNING):
        result = prefix_stability(source, fractions, end=records[-1].ts + shift)
    assert source.reads == 2
    assert "reading it again" in caplog.text
    assert {f: rep.to_dict() for f, rep in result.by_fraction.items()} == _prefix_reruns(
        records, fractions
    )


def test_prefix_stability_wrong_end_hint_on_a_one_shot_stream_is_an_error():
    records = list(generate(dataset1_like(duration=600.0, seed=314, fds=4))[0])
    with pytest.raises(ValueError, match="cannot be read again"):
        prefix_stability(iter(records), [0.5, 1.0], end=records[-1].ts - 10.0)


def test_prefix_stability_peak_memory_tracks_analyze():
    # The pass holds the 5-tuple table and the open conversations, not the
    # trace.  Beyond analyze's peak on the same streamed generator it keeps
    # one report per prefix, and a prefix's ranking coexists with the
    # stream's state: costs of devices and 5-tuples, not of records.
    # Holding the 33,982 records would cost a pointer and a record each.
    config = month_like(seed=315, days=4)
    records = 0
    for records, rec in enumerate(generate(config)[0], 1):
        end = rec.ts
    fractions = [0.02, 0.06, 0.1, 0.25, 0.999, 1.0]

    def analyze():
        analyze_records(generate(config)[0])

    def stability():
        prefix_stability(generate(config)[0], fractions, end=end)

    def peak(run):
        run()  # first-call allocations out of the count
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    held = peak(analyze), peak(stability)
    assert held[1] - held[0] <= 2 * records, (held, records)


@pytest.mark.parametrize("cutoffs", [[5.0, 1.0], [math.nan]], ids=["descending", "nan"])
def test_analyze_records_refuses_bad_cutoffs_before_a_record_is_read(cutoffs):
    read = []

    def records():
        for ts in (0.0, 2.0, 4.0, 6.0):
            read.append(ts)
            yield PacketRecord(ts, "10.0.0.1", 20000, "10.0.0.9", 502, "tcp", 100)

    with pytest.raises(ValueError, match="non-decreasing"):
        analyze_records(records(), cutoffs=cutoffs)
    assert read == []


def test_prefix_rejects_bad_fractions():
    with pytest.raises(ValueError):
        prefix_stability([], [0.0])
    with pytest.raises(ValueError):
        prefix_stability([], [1.5])


# --- exports ---------------------------------------------------------------------------


def test_dot_export_shapes_and_edges():
    config = dataset1_like(duration=1800.0, seed=310, fds=8)
    records, _ = generate(config)
    result = analyze_records(records, inference_config=analyze_config(three_layer=True))
    dot = report_to_dot(result.report, result.ranked)
    assert dot.startswith("graph scada_topology {")
    assert '[shape=box];' in dot
    assert '[shape=doublecircle];' in dot
    assert '[shape=diamond];' in dot
    assert 'port 20000' in dot
    assert 'hmi qty=' in dot


def test_dot_edges_match_the_reference_segment_counts():
    # Field device 10.0.10.1 also talks X11 to a peripheral: only 5-tuples
    # on the SCADA port make port edges, and each edge counts the segments
    # of its pair, not its 5-tuples.
    config = dataset1_like(duration=1800.0, seed=101, fds=4)
    config.peripherals.append(PeripheralSpec("x11", 30.0, 180, hosts=("10.0.10.1", "10.0.200.77")))
    records, truth = generate(config)
    records = list(records)
    result = analyze_records(records, inference_config=analyze_config(three_layer=True))
    report = result.report
    assert evaluate(report, load_ground_truth(truth.to_dict()))["f_score"] == 1.0
    (entry,) = report.protocols
    port = entry.scada_port
    assert port == 20000 and "10.0.10.1" in entry.field_devices
    table = ref_ft_table(ref_segments(records, 1.0))
    assert any(key[0] == "10.0.10.1" and key[2] == "10.0.200.77" for key in table)
    want = {}
    for (src, src_port, dst, dst_port, _size), starts in table.items():
        if port in (src_port, dst_port) and (src in entry.field_devices or dst in entry.field_devices):
            pair = tuple(sorted((src, dst)))
            want[pair] = want.get(pair, 0) + len(starts)
    dot = report_to_dot(report, result.ranked)
    edges = re.findall(r'  "([^"]+)" -- "([^"]+)" \[label="port (\d+) n=(\d+)"\];', dot)
    assert {int(p) for _, _, p, _ in edges} == {port}
    assert {(a, b): int(n) for a, b, _, n in edges} == want
    (master,) = entry.master_servers
    qty = ref_quantities(master, table)[report.hmi]
    assert f'  "{master}" -- "{report.hmi}" [label="hmi qty={qty:.3e}"];' in dot.splitlines()


def test_dot_draws_shared_master_hmi_edge_once():
    # One master serves both protocols; its edge to the HMI is one statement.
    groups = [
        ScadaGroup(port=port, num_field_devices=6, poll_mean=8.0, poll_jitter_stddev=1.0, object_sizes=[340, 225])
        for port in (20000, 502)
    ]
    config = ScenarioConfig(duration=1800.0, seed=7, scada_groups=groups, layers=3)
    result = analyze_records(
        generate(config)[0], inference_config=analyze_config(num_scada_protocols=2, three_layer=True)
    )
    report = result.report
    assert [p.master_servers for p in report.protocols] == [{"10.0.0.1"}, {"10.0.0.1"}]
    assert report.hmi == "10.0.0.2"
    hmi_edges = [line for line in report_to_dot(report, result.ranked).splitlines() if "hmi qty=" in line]
    assert len(hmi_edges) == 1
    assert hmi_edges[0].startswith('  "10.0.0.1" -- "10.0.0.2" [label="hmi qty=')


def test_dot_escapes_quotes_and_backslashes_in_ids():
    # An address is whatever string the trace holds; one with a quote must
    # not close its ID and add statements of its own.
    evil = '10.0.10.1" [shape=ellipse]; "x\\'
    records = list(generate(dataset1_like(duration=1800.0, seed=310, fds=8))[0])
    for rec in records:
        rec.src_ip = evil if rec.src_ip == "10.0.10.1" else rec.src_ip
        rec.dst_ip = evil if rec.dst_ip == "10.0.10.1" else rec.dst_ip
    result = analyze_records(records, inference_config=analyze_config(three_layer=True))
    assert evil in result.report.protocols[0].field_devices
    dot = report_to_dot(result.report, result.ranked)
    quoted = r'"((?:[^"\\]|\\.)*)"'
    statement = re.compile(rf"  {quoted}(?: -- {quoted})? \[[^\]\[]*\];")
    ids = set()
    for line in dot.splitlines()[2:-1]:
        match = statement.fullmatch(line)
        assert match, line
        ids.update(re.sub(r"\\(.)", r"\1", g) for g in match.groups() if g is not None)
    assert ids == set(result.report.evidence)
    assert r'  "10.0.10.1\" [shape=ellipse]; \"x\\" [shape=box];' in dot.splitlines()


def test_report_json_shape():
    config = dataset1_like(duration=1800.0, seed=311, fds=8)
    records, _ = generate(config)
    report = analyze_records(records, inference_config=analyze_config()).report
    payload = report.to_dict()
    assert set(payload) == {
        "protocols",
        "hmi",
        "unclassified",
        "evidence",
        "status",
        "warnings",
        "metrics",
    }
    assert payload["protocols"][0]["scada_port"] == 20000
    assert payload["protocols"][0]["field_devices"] == sorted(payload["protocols"][0]["field_devices"])
