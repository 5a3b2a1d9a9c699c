"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The large end-to-end
criteria generate their traces on the fly; the whole module takes about
25 s on a 2-core machine.
"""

from __future__ import annotations

import json
import math
import random
import time

import pytest

from scadascope.cli import EXIT_OK, main
from scadascope.features import score_product
from scadascope.inference import (
    InferenceConfig,
    analyze_records,
    evaluate,
    hmi_candidates,
    load_ground_truth,
    prefix_stability,
)
from scadascope.segmentation import FtKey, aggregate_ft, segment_stream
from scadascope.synth import generate, write_records

from reference import ref_all_features, ref_ft_table, ref_segment_tuple, ref_segments
from scenarios import (
    assert_cells_match, cell_of, dataset1_like, dataset2_like, month_like, rank_table, small_random_scenario,
)


def ok(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {text}")


# --- 1. product check on the frozen reference ranking rows ----------------------

REFERENCE_RANKING_ROWS = [
    # (pR_n, dR_n, cR_n, uR_n, sR_n) -> f
    ((0.3801, 0.4200, 0.5175, 0.3636, 0.2246), 6.7470e-3),
    ((0.3198, 0.4582, 0.5175, 0.3636, 0.2226), 6.1358e-3),
    ((0.3117, 0.4659, 0.5175, 0.3636, 0.2193), 5.9924e-3),
    ((0.4613, 0.3320, 0.5175, 0.3636, 0.1955), 5.6342e-3),
    ((0.4070, 0.4200, 0.5175, 0.3636, 0.1486), 4.7806e-3),
]

# second reference table; its factors are rounded to 4 decimals, which bounds
# the recomputed product to ~2e-3 of the recorded score
EXTRA_RANKING_ROWS = [
    ((0.5872, 0.6573, 1.0000, 0.2917, 0.4531), 5.1003e-2),
    ((0.5872, 0.3403, 1.0000, 0.2917, 0.4531), 2.6417e-2),
    ((0.5872, 0.6573, 1.0000, 0.2917, 0.1902), 2.1412e-2),
    ((0.6158, 0.9999, 0.2604, 0.2500, 0.4531), 1.8181e-2),
    ((0.4557, 0.6502, 0.2500, 0.2917, 0.7173), 1.5498e-2),
    ((0.3117, 0.7441, 0.1847, 0.1667, 1.0000), 0.7140e-2),
]


def test_criterion_1_ranking_product():
    for norms, expected in REFERENCE_RANKING_ROWS:
        got = score_product(*norms)
        assert abs(got - expected) / expected <= 1e-3, (norms, got, expected)
    for norms, expected in EXTRA_RANKING_ROWS:
        got = score_product(*norms)
        assert abs(got - expected) / expected <= 2e-3, (norms, got, expected)
    ok(1, f"{len(REFERENCE_RANKING_ROWS)} primary rows within 1e-3, {len(EXTRA_RANKING_ROWS)} extra rows within 2e-3")


# --- 2. size-feature ratios ------------------------------------------------------

SIZE_RATIO_CASES = [
    (686, 0.4531),
    (686, 0.4531),
    (288, 0.1902),
    (1086, 0.7173),
    (1514, 1.0000),
    (340, 0.2246),
    (337, 0.2226),
    (332, 0.2193),
    (296, 0.1955),
    (225, 0.1486),
]


def test_criterion_2_size_feature():
    # One 5-tuple per case, the largest of 1514 B: rank's sR is size / 1514.
    keys = [FtKey("a", 1, "b", 2 + i, size) for i, (size, _) in enumerate(SIZE_RATIO_CASES)]
    sR = {e.key: e.raw[4] for e in rank_table({key: cell_of([0.0]) for key in keys})}
    for key, (size, expected) in zip(keys, SIZE_RATIO_CASES):
        got = sR[key]
        assert abs(got - expected) <= 5e-4, (size, got, expected)
    ok(2, f"{len(SIZE_RATIO_CASES)} size ratios within 5e-4 absolute")


# --- 3. periodicity anchor --------------------------------------------------------


def test_criterion_3_periodicity_anchor():
    from scadascope.features import periodicity_durability

    d = math.sqrt(1.48)
    got = periodicity_durability(cell_of([0.0, 8.75 - d, 17.5]))[0]
    assert abs(got - 5.912) <= 1e-3, got
    ok(3, f"mean 8.75 s / variance 1.48 s^2 gives pR={got:.4f}")


# --- 4. end-to-end single-protocol analog ------------------------------------------


@pytest.fixture(scope="module")
def d1_full(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_d1")
    config = dataset1_like()  # 24 h, 49 field devices, 3 layers
    records, truth = generate(config)
    trace = root / "trace.jsonl"
    count = write_records(records, str(trace))
    return {"config": config, "truth": truth, "trace": trace, "count": count}


def test_criterion_4_dataset1_analog(d1_full, tmp_path):
    config = d1_full["config"]
    truth = d1_full["truth"]
    assert config.duration >= 86400.0
    assert config.scada_groups[0].num_field_devices == 49
    peripheral_count = len(truth.devices_with_role("peripheral"))
    assert peripheral_count >= 10
    assert d1_full["count"] >= 800_000

    report_path = tmp_path / "report.json"
    started = time.monotonic()
    code = main(
        ["--quiet", "analyze", str(d1_full["trace"]), "--num-protocols", "1", "--out", str(report_path)]
    )
    elapsed = time.monotonic() - started
    assert code == EXIT_OK
    assert elapsed < 60.0, f"analyze took {elapsed:.1f}s"

    payload = json.loads(report_path.read_text())
    entry = payload["protocols"][0]
    fd_truth = truth.devices_with_role("field_device")
    assert entry["scada_port"] == 20000
    assert set(entry["field_devices"]) == fd_truth
    assert entry["master_servers"] == ["10.0.0.1"]

    roles = load_ground_truth(truth.to_dict())
    truth_sans_hmi = {ip: role for ip, role in roles.items() if role != "hmi"}
    from scadascope.inference import ProtocolEntry, TopologyReport

    report = TopologyReport(
        protocols=[
            ProtocolEntry(
                scada_port=entry["scada_port"],
                scada_ip=entry["scada_ip"],
                field_devices=set(entry["field_devices"]),
                master_servers=set(entry["master_servers"]),
            )
        ]
    )
    metrics = evaluate(report, truth_sans_hmi)
    assert metrics["f_score"] == 1.0

    three_path = tmp_path / "report3.json"
    code = main(
        [
            "--quiet",
            "analyze",
            str(d1_full["trace"]),
            "--num-protocols",
            "1",
            "--three-layer",
            "--out",
            str(three_path),
        ]
    )
    assert code == EXIT_OK
    payload3 = json.loads(three_path.read_text())
    assert payload3["hmi"] == "10.0.0.2"
    ok(
        4,
        f"{d1_full['count']} records: port 20000, 49/49 field devices, master, "
        f"F=1.0 (HMI correct with three-layer); analyze {elapsed:.1f}s < 60s",
    )


# --- 5. end-to-end two-protocol analog -----------------------------------------------


def test_criterion_5_dataset2_analog(tmp_path):
    config = dataset2_like()  # 6 h, 22 + 4 field devices, shared master
    records, truth = generate(config)
    trace = tmp_path / "trace2.jsonl"
    write_records(records, str(trace))
    report_path = tmp_path / "report2.json"
    code = main(["--quiet", "analyze", str(trace), "--num-protocols", "2", "--out", str(report_path)])
    assert code == EXIT_OK
    payload = json.loads(report_path.read_text())
    assert [p["scada_port"] for p in payload["protocols"]] == [2404, 44818]
    group_a = {ip for ip, e in truth.labels.items() if e == {"role": "field_device", "protocol": 2404}}
    group_b = {ip for ip, e in truth.labels.items() if e == {"role": "field_device", "protocol": 44818}}
    assert set(payload["protocols"][0]["field_devices"]) == group_a
    assert set(payload["protocols"][1]["field_devices"]) == group_b
    assert payload["protocols"][0]["master_servers"] == ["10.0.0.1"]
    assert payload["protocols"][1]["master_servers"] == ["10.0.0.1"]

    from scadascope.inference import ProtocolEntry, TopologyReport

    report = TopologyReport(
        protocols=[
            ProtocolEntry(
                scada_port=p["scada_port"],
                scada_ip=p["scada_ip"],
                field_devices=set(p["field_devices"]),
                master_servers=set(p["master_servers"]),
            )
            for p in payload["protocols"]
        ]
    )
    metrics = evaluate(report, load_ground_truth(truth.to_dict()))
    assert metrics["f_score"] == 1.0
    ok(5, "both ports recovered in order (22 + 4 field devices, shared master), F=1.0")


# --- 6. brute-force oracle equivalence -------------------------------------------------


def test_criterion_6_oracle_equivalence():
    meta = random.Random(60606)
    checked_fts = 0
    for i in range(100):
        config = small_random_scenario(meta)
        records = list(generate(config)[0])
        assert len(records) <= 10_000, f"scenario {i} too large: {len(records)}"
        if not records:
            continue

        got_segments = sorted(segment_stream(iter(records), 1.0))
        want_segments = sorted(map(ref_segment_tuple, ref_segments(records, 1.0)))
        assert got_segments == want_segments, f"scenario {i}: segmentation mismatch"

        table = aggregate_ft(segment_stream(iter(records), 1.0))
        ref_table = ref_ft_table(ref_segments(records, 1.0))
        assert_cells_match(table, ref_table)

        got_features = {tuple(e.key): e.raw for e in rank_table(table)}
        want_features = ref_all_features(ref_table)
        for ft_key, want in want_features.items():
            got = got_features[ft_key]
            for g, w in zip(got, want):
                if w == 0.0:
                    assert g == 0.0
                else:
                    assert abs(g - w) / abs(w) <= 1e-12, (ft_key, got, want)
            checked_fts += 1
    ok(6, f"100 scenarios: segmentation and stats bit-exact, {checked_fts} feature vectors within 1e-12")


# --- 7. invariance suite -----------------------------------------------------------------


def test_criterion_7_invariances():
    meta = random.Random(70707)
    hmi_checked = 0
    for i in range(20):
        config = small_random_scenario(meta)
        records = list(generate(config)[0])
        if not records:
            continue
        table = aggregate_ft(segment_stream(iter(records), 1.0))
        ranked = rank_table(table)

        # uniform time rescale by an exact power of two, t_comm rescaled too
        from scadascope.ingest import PacketRecord

        scaled_records = [
            PacketRecord(r.ts * 2.0, r.src_ip, r.src_port, r.dst_ip, r.dst_port, r.proto, r.size)
            for r in records
        ]
        scaled_table = aggregate_ft(segment_stream(iter(scaled_records), 2.0))
        scaled_ranked = rank_table(scaled_table)
        assert [e.key for e in ranked] == [e.key for e in scaled_ranked], f"scenario {i}: rescale"
        for a, b in zip(ranked, scaled_ranked):
            assert a.normalized == b.normalized

        # relabel addresses; order of positive-score entries must map over
        ips = sorted({k.src_ip for k in table} | {k.dst_ip for k in table}, reverse=True)
        mapping = {ip: f"172.16.{j // 250}.{j % 250 + 1}" for j, ip in enumerate(ips)}
        relabeled = [
            PacketRecord(r.ts, mapping[r.src_ip], r.src_port, mapping[r.dst_ip], r.dst_port, r.proto, r.size)
            for r in records
        ]
        rel_table = aggregate_ft(segment_stream(iter(relabeled), 1.0))
        rel_ranked = rank_table(rel_table)
        orig_pos = [e for e in ranked if e.f > 0]
        rel_pos = [e for e in rel_ranked if e.f > 0]
        assert len(orig_pos) == len(rel_pos), f"scenario {i}: relabel changed positive count"
        for a, b in zip(orig_pos, rel_pos):
            assert b.key.src_ip == mapping[a.key.src_ip], f"scenario {i}: relabel order"
            assert b.key.dst_ip == mapping[a.key.dst_ip]
            assert (b.key.src_port, b.key.dst_port, b.key.seg_size) == (
                a.key.src_port,
                a.key.dst_port,
                a.key.seg_size,
            )
            assert b.f == a.f

        # HMI argmax under uniform segment-size scaling, where a master exists
        master = "10.0.0.1"
        if any(k.src_ip == master for k in table):
            scaled = {}
            for k, s in table.items():
                nk = FtKey(k.src_ip, k.src_port, k.dst_ip, k.dst_port, k.seg_size * 5)
                scaled[nk] = s
            hmi = hmi_candidates(master, ranked)[0][1]
            assert hmi == hmi_candidates(master, rank_table(scaled))[0][1], f"scenario {i}: hmi scale"
            hmi_checked += 1
    assert hmi_checked >= 4
    ok(7, f"20 scenarios: rescale and relabel invariant, HMI argmax scale-invariant ({hmi_checked} checked)")


# --- 8. prefix stability on a month-long trace ---------------------------------------------


def test_criterion_8_prefix_stability():
    config = month_like()  # 30 simulated days
    records = list(generate(config)[0])
    assert records[-1].ts - records[0].ts >= 29 * 86400
    fractions = [0.02, 0.06, 0.1, 0.25, 1.0]
    result = prefix_stability(
        records,
        fractions,
        inference_config=InferenceConfig(num_scada_protocols=1),
    )
    assert result.smallest_stable is not None
    assert result.smallest_stable <= 0.10
    frac_report = result.by_fraction[result.smallest_stable]
    assert frac_report.topology_signature() == result.full_report.topology_signature()
    assert result.full_report.protocols[0].scada_port == 20000
    ok(8, f"30-day trace stable from fraction {result.smallest_stable:g} (ports/devices identical)")


# --- 9. determinism across runs ---------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    config = dataset1_like(duration=7200.0, seed=909, fds=12)
    records, _ = generate(config)
    trace = tmp_path / "det.jsonl"
    write_records(records, str(trace))

    def run(tag: str) -> str:
        out = tmp_path / f"report_{tag}.json"
        code = main(["--quiet", "analyze", str(trace), "--num-protocols", "1", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        payload["manifest"].pop("duration_s")
        return json.dumps(payload, sort_keys=True)

    outputs = [run(f"r{i}") for i in range(6)]
    assert all(text == outputs[0] for text in outputs[1:])
    ok(9, "6 analyze runs byte-identical with duration excluded")
