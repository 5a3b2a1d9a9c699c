"""Generator tests: determinism, schedules, labels, round trips, pcap framing."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random
import statistics
import struct
from dataclasses import asdict
from ipaddress import IPv4Address
from typing import Iterator

import pytest
from hypothesis import given, strategies as st

from scadascope import ingest, synth
from scadascope.ingest import PacketRecord, read_pcap, read_records
from scadascope.inference import analyze_records
from scadascope.segmentation import aggregate_ft, segment_stream
from scadascope.synth import (
    MIN_FRAME_BYTES,
    PCAP_SNAPLEN,
    MasterConfig,
    NoiseConfig,
    PeripheralSpec,
    ReportingSpec,
    ScadaGroup,
    ScenarioConfig,
    ScenarioError,
    generate,
    load_scenario,
    scenario_from_dict,
    write_pcap,
    write_records,
)

from reference import ref_ft_table, ref_iat, ref_segments
from scenarios import SCENARIO_DIR, dataset1_like, dataset2_like, office_like, small_random_scenario


def tiny_config(**kw):
    base = dict(
        duration=300.0,
        seed=9,
        scada_groups=[
            ScadaGroup(port=20000, num_field_devices=3, poll_mean=5.0, poll_jitter_stddev=0.5, object_sizes=[340])
        ],
        peripherals=[PeripheralSpec("heartbeat", 5.0, 66)],
    )
    base.update(kw)
    return ScenarioConfig(**base)


# --- determinism ----------------------------------------------------------------


def test_same_seed_gives_byte_identical_output(tmp_path):
    config = dataset1_like(duration=180.0, seed=77, fds=6)
    digests = []
    for name in ("a.jsonl", "b.jsonl"):
        records, _ = generate(config)
        path = tmp_path / name
        write_records(records, str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_different_seed_differs():
    a = list(generate(tiny_config(seed=1))[0])
    b = list(generate(tiny_config(seed=2))[0])
    assert a != b


def test_stream_is_time_ordered():
    records = list(generate(dataset1_like(duration=200.0, seed=3, fds=5))[0])
    assert all(b.ts >= a.ts for a, b in zip(records, records[1:]))


def _assert_prefix_of_twice_as_long(config):
    shorter = list(generate(config)[0])
    longer = generate(dataclasses.replace(config, duration=2 * config.duration))[0]
    assert list(itertools.islice(longer, len(shorter))) == shorter
    assert next(longer).ts > config.duration


@pytest.mark.parametrize("name,duration", [("churn", 120.0), ("day", 300.0), ("month", 86400.0)])
def test_a_shorter_trace_is_a_prefix_of_a_longer_one(name, duration):
    config = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    _assert_prefix_of_twice_as_long(dataclasses.replace(config, duration=duration))


def test_a_shorter_random_scenario_is_a_prefix_of_a_longer_one():
    meta = random.Random(31)
    for _ in range(8):
        _assert_prefix_of_twice_as_long(small_random_scenario(meta))


class _FixedRandom(random.Random):
    """Each draw the generator makes returns a fixed value; ``gauss`` its mean."""

    def uniform(self, a, b):
        return 0.5

    def gauss(self, mu=0.0, sigma=1.0):
        return mu

    def randint(self, a, b):
        return 2000

    def expovariate(self, lambd=1.0):
        return 1.0

    def choice(self, seq):
        return seq[0]


def _at(t_us: int, src_ip: str, src_port: int, dst_ip: str, dst_port: int, size: int) -> PacketRecord:
    return PacketRecord(t_us // 1_000_000 + t_us % 1_000_000 / 1e6, src_ip, src_port, dst_ip, dst_port, "tcp", size)


def test_events_at_the_same_microsecond_come_in_push_order(monkeypatch):
    monkeypatch.setattr(synth.random, "Random", _FixedRandom)
    config = ScenarioConfig(duration=10.0, seed=1, scada_groups=[ScadaGroup(502, 3, 2.0, 0.0, [200])])
    fds = [(f"10.0.10.{1 + i}", 49152 + i) for i in range(3)]
    want = []
    for poll_us in range(500_000, 10_000_000, 2_000_000):
        want += [_at(poll_us, fd, 502, "10.0.0.1", eph, 134) for fd, eph in fds]
        want += [_at(poll_us + 2000, "10.0.0.1", eph, fd, 502, 66) for fd, eph in fds]
    assert list(generate(config)[0]) == want


def test_a_record_due_with_a_waiting_event_comes_after_it(monkeypatch):
    # The second group polls 2 ms later than the first in each cycle, at the
    # microsecond of the first group's ack: its tick was pushed a cycle
    # earlier than that ack, and its request comes after the ack all the same.
    monkeypatch.setattr(synth.random, "Random", _FixedRandom)
    config = ScenarioConfig(
        duration=3.0,
        seed=1,
        scada_groups=[ScadaGroup(502, 1, 2.0, 0.0, [200]), ScadaGroup(102, 1, 2.002, 0.0, [200])],
    )
    records = [(round(rec.ts * 1e6), rec.src_port, rec.dst_port) for rec in generate(config)[0]]
    assert records[4:] == [
        (2_500_000, 502, 49152), (2_502_000, 49152, 502), (2_502_000, 102, 49153), (2_504_000, 49153, 102)
    ]


# --- schedules -------------------------------------------------------------------


def test_zero_field_devices_means_no_scada():
    from scenarios import office_like

    config = office_like(duration=3600.0, seed=20)
    config.scada_groups = [
        ScadaGroup(port=20000, num_field_devices=0, poll_mean=5.0, poll_jitter_stddev=0.5, object_sizes=[340])
    ]
    records = list(generate(config)[0])
    assert records
    assert all(20000 not in (r.src_port, r.dst_port) for r in records)
    report = analyze_records(iter(records)).report
    assert all(not p.field_devices for p in report.protocols)


def test_poll_gaps_never_fall_below_segmentation_threshold():
    config = tiny_config(duration=1200.0)
    records = list(generate(config)[0])
    table = ref_ft_table(ref_segments(records, 1.0))
    reports = [s for k, s in table.items() if k[1] == 20000]
    assert reports
    for times in reports:
        assert min(ref_iat(times)) >= 1.1 - 1e-9


def test_iat_statistics_converge_to_configuration():
    config = ScenarioConfig(
        duration=26000.0,
        seed=5,
        scada_groups=[
            ScadaGroup(port=20000, num_field_devices=1, poll_mean=5.0, poll_jitter_stddev=0.5, object_sizes=[340])
        ],
    )
    records = list(generate(config)[0])
    table = ref_ft_table(ref_segments(records, 1.0))
    times = next(s for k, s in table.items() if k[1] == 20000)
    assert len(times) >= 1000
    iat = ref_iat(times)
    mean = statistics.mean(iat)
    var = statistics.pvariance(iat)
    assert abs(mean - 5.0) / 5.0 < 0.05
    assert abs(var - 0.25) / 0.25 < 0.05


def test_segment_sizes_match_object_sizes():
    config = dataset1_like(duration=600.0, seed=6, fds=4)
    sizes = set(config.scada_groups[0].object_sizes)
    records = list(generate(config)[0])
    table = aggregate_ft(segment_stream(records, 1.0))
    # the reporting workstations also speak on the port; field devices only
    scada_sizes = {k.seg_size for k in table if k.src_port == 20000 and k.src_ip.startswith("10.0.10.")}
    assert scada_sizes == sizes


def test_field_devices_use_exactly_one_port():
    config = dataset2_like(duration=600.0, seed=7)
    records, truth = generate(config)
    ports_by_ip: dict[str, set[int]] = {}
    for rec in records:
        ports_by_ip.setdefault(rec.src_ip, set()).add(rec.src_port)
        ports_by_ip.setdefault(rec.dst_ip, set()).add(rec.dst_port)
    for ip in truth.devices_with_role("field_device"):
        assert len(ports_by_ip[ip]) == 1


def test_master_port_count_grows_with_reconnects():
    quiet = tiny_config(duration=3600.0, master=MasterConfig(reconnect_rate=0.0))
    churny = tiny_config(duration=3600.0, master=MasterConfig(reconnect_rate=500.0))

    def master_ports(config):
        ports = set()
        for rec in generate(config)[0]:
            if rec.src_ip == "10.0.0.1":
                ports.add(rec.src_port)
            if rec.dst_ip == "10.0.0.1":
                ports.add(rec.dst_port)
        return ports

    assert len(master_ports(churny)) > len(master_ports(quiet))


def test_hmi_feed_dominates_master_peers():
    config = dataset1_like(duration=3600.0, seed=8, fds=6)
    records = list(generate(config)[0])
    table = aggregate_ft(segment_stream(records, 1.0))
    qty: dict[str, int] = {}
    for key, cell in table.items():
        if key.src_ip == "10.0.0.1":
            qty[key.dst_ip] = qty.get(key.dst_ip, 0) + cell.n * key.seg_size
    top = max(qty, key=lambda ip: qty[ip])
    assert top == "10.0.0.2"
    others = [v for ip, v in qty.items() if ip != top]
    assert qty[top] > 1.5 * max(others)


def test_nonresponder_noise_is_one_directional():
    config = tiny_config(noise=NoiseConfig(nonresponder_retry=True))
    records = list(generate(config)[0])
    to_dead = [r for r in records if r.dst_ip == "10.0.250.2"]
    from_dead = [r for r in records if r.src_ip == "10.0.250.2"]
    assert to_dead and not from_dead


# --- ground truth -----------------------------------------------------------------


def test_every_emitted_ip_is_labeled():
    config = dataset1_like(duration=300.0, seed=10, fds=5)
    records, truth = generate(config)
    seen = set()
    for rec in records:
        seen.add(rec.src_ip)
        seen.add(rec.dst_ip)
    assert seen <= set(truth.labels)


def test_truth_roles_and_protocol_tags():
    config = dataset2_like(duration=60.0, seed=11)
    truth = generate(config)[1]
    assert truth.labels["10.0.0.1"]["role"] == "master"
    assert truth.labels["10.0.10.1"] == {"role": "field_device", "protocol": 2404}
    assert truth.labels["10.0.11.1"] == {"role": "field_device", "protocol": 44818}
    assert len(truth.devices_with_role("field_device")) == 26


@pytest.mark.xfail(
    strict=True,
    reason="report_tick and noise_tick reschedule the last workstation's closure and read r late",
)
def test_each_reporting_workstation_keeps_its_own_schedule():
    config = dataset1_like(duration=600.0, seed=101, fds=3)
    reports: dict[str, int] = {}
    noise_ports: dict[str, set[int]] = {}
    for rec in generate(config)[0]:
        if rec.src_ip.startswith("10.0.240.") and rec.src_port == 20000:
            reports[rec.src_ip] = reports.get(rec.src_ip, 0) + 1
        elif rec.src_ip.startswith("10.0.240."):
            noise_ports.setdefault(rec.src_ip, set()).add(rec.src_port)
    # 600 s at scada_period 20 s and 15 s; the first report lands anywhere in one period.
    assert reports == {"10.0.240.1": pytest.approx(30, abs=1.5), "10.0.240.2": pytest.approx(40, abs=1.5)}
    assert noise_ports == {"10.0.240.1": {52000}}


def test_a_peripheral_host_keeps_the_label_of_its_first_role():
    config = tiny_config(peripherals=[PeripheralSpec("heartbeat", 5.0, 66, hosts=("10.0.0.1", "10.0.10.1"))])
    truth = generate(config)[1]
    assert truth.labels["10.0.0.1"] == {"role": "master", "protocol": None}
    assert truth.labels["10.0.10.1"] == {"role": "field_device", "protocol": 20000}


def test_reporting_workstations_labeled_peripheral():
    config = dataset1_like(duration=60.0, seed=12, fds=3)
    truth = generate(config)[1]
    assert truth.labels["10.0.240.1"]["role"] == "peripheral"
    assert truth.labels["10.0.240.2"]["role"] == "peripheral"


# --- round trips --------------------------------------------------------------------


def test_records_roundtrip(tmp_path):
    records = list(generate(dataset1_like(duration=120.0, seed=13, fds=4))[0])
    path = tmp_path / "t.jsonl"
    write_records(records, str(path))
    assert list(read_records(str(path))) == records


def test_generated_records_take_the_format_string(tmp_path, monkeypatch):
    def refuse(obj):
        raise AssertionError(f"compact_json called on {obj!r}")

    monkeypatch.setattr(ingest, "compact_json", refuse)
    path = tmp_path / "t.jsonl"
    assert write_records(generate(dataset1_like(duration=60.0))[0], str(path)) > 0
    with pytest.raises(AssertionError, match="compact_json called"):
        PacketRecord(math.nan, "10.0.0.1", 20000, "10.0.0.2", 502, "tcp", 60).to_json()


def test_pcap_roundtrip(tmp_path):
    records = list(generate(dataset1_like(duration=120.0, seed=14, fds=4))[0])
    path = tmp_path / "t.pcap"
    write_pcap(records, str(path))
    back = list(read_pcap(str(path)))
    assert back == records


@st.composite
def framable_records(draw):
    """A record write_pcap can frame, with a timestamp that survives microseconds."""
    proto = draw(st.sampled_from(["tcp", "udp", "icmp"]))
    ports = (0, 0) if proto == "icmp" else (draw(st.integers(0, 65535)), draw(st.integers(0, 65535)))
    ipv4 = st.tuples(*[st.integers(0, 255)] * 4).map(lambda quad: ".".join(map(str, quad)))
    return PacketRecord(
        draw(st.integers(0, 2**31)) + draw(st.integers(0, 999999)) / 1e6,
        draw(ipv4),
        ports[0],
        draw(ipv4),
        ports[1],
        proto,
        draw(st.integers(MIN_FRAME_BYTES, 1600)),
    )


@given(st.lists(framable_records(), max_size=20))
def test_pcap_roundtrip_property(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("rt") / "t.pcap"
    write_pcap(records, str(path))
    assert list(read_pcap(str(path))) == records


def test_pcap_single_record(tmp_path):
    rec = PacketRecord(1.000074, "10.0.0.1", 20000, "10.0.0.2", 51382, "tcp", 74)
    path = tmp_path / "one.pcap"
    write_pcap([rec], str(path))
    back = list(read_pcap(str(path)))
    assert back == [rec]


def test_pcap_rejects_tiny_record(tmp_path):
    rec = PacketRecord(0.0, "10.0.0.1", 1, "10.0.0.2", 2, "tcp", 40)
    with pytest.raises(ValueError):
        write_pcap([rec], str(tmp_path / "bad.pcap"))
    assert MIN_FRAME_BYTES == 54


def _bad_record(**changes):
    return dataclasses.replace(PacketRecord(1.5, "10.0.0.1", 20000, "10.0.0.2", 50000, "tcp", 74), **changes)


@pytest.mark.parametrize(
    "rec,message",
    [
        (_bad_record(src_ip="1.2.3"), "address '1.2.3' is not an IPv4 dotted quad"),
        (_bad_record(dst_ip="1.2.3.4.5"), "address '1.2.3.4.5' is not an IPv4 dotted quad"),
        (_bad_record(src_ip="10.0.0.1 "), "address '10.0.0.1 ' is not an IPv4 dotted quad"),
        (_bad_record(dst_ip="01.2.3.4"), "address '01.2.3.4' is not an IPv4 dotted quad"),
        (_bad_record(dst_ip="10.0.0.256"), "address '10.0.0.256' is not an IPv4 dotted quad"),
        (_bad_record(size=65540), "65540 bytes cannot be framed (floor 54, snaplen 65535)"),
        (_bad_record(size=53), "53 bytes cannot be framed"),
        (_bad_record(ts=2.0**32), "ts 4294967296.0 outside the 0 .. 2**32 s a pcap holds"),
        (_bad_record(ts=-0.5), "ts -0.5 outside"),
        (_bad_record(ts=math.nan), "ts nan outside"),
        (_bad_record(ts=math.inf), "ts inf outside"),
        (_bad_record(src_port=65536), "cannot be framed"),
        (_bad_record(proto="udp", dst_port=-1), "cannot be framed"),
        (_bad_record(proto="sctp"), "proto 'sctp' is not one of tcp, udp, icmp, other"),
    ],
    ids=["three-octets", "five-octets", "trailing-space", "leading-zero", "octet-256", "above-snaplen",
         "below-floor", "ts-2**32", "ts-negative", "ts-nan", "ts-inf", "port-65536", "port-negative",
         "proto-sctp"],
)
def test_pcap_refuses_what_a_classic_pcap_cannot_hold(tmp_path, rec, message):
    good = _bad_record()
    with pytest.raises(ValueError) as exc:
        write_pcap([good, rec], str(tmp_path / "bad.pcap"))
    assert repr(rec) in str(exc.value) and message in str(exc.value)


def test_pcap_holds_the_largest_frame_and_last_microsecond(tmp_path):
    records = [
        PacketRecord(0.0, "0.0.0.0", 0, "255.255.255.255", 65535, "tcp", PCAP_SNAPLEN),
        PacketRecord(4294967295.999999, "10.0.0.1", 123, "10.0.0.2", 123, "udp", MIN_FRAME_BYTES),
    ]
    path = tmp_path / "edges.pcap"
    write_pcap(records, str(path))
    assert list(read_pcap(str(path))) == records


def test_scenario_sizes_at_the_snaplen_frame(tmp_path):
    config = tiny_config(
        duration=30.0,
        scada_groups=[ScadaGroup(20000, 2, 5.0, 0.5, [PCAP_SNAPLEN])],
        peripherals=[PeripheralSpec("heartbeat", 5.0, PCAP_SNAPLEN)],
        reporting=[ReportingSpec(5.0, noise_period=5.0, report_size=PCAP_SNAPLEN, noise_size=PCAP_SNAPLEN)],
    )
    path = tmp_path / "big.pcap"
    assert write_pcap(generate(config)[0], str(path)) == len(list(read_pcap(str(path))))


def test_pcap_carries_a_rounded_microsecond_into_the_second(tmp_path):
    rec = PacketRecord(7.9999996, "10.0.0.1", 20000, "10.0.0.2", 50000, "tcp", 74)
    path = tmp_path / "carry.pcap"
    write_pcap([rec], str(path))
    assert path.read_bytes()[24:32] == struct.pack("<II", 8, 0)
    assert list(read_pcap(str(path))) == [dataclasses.replace(rec, ts=8.0)]


def test_pcap_other_proto_frame_is_a_transport_skip(tmp_path):
    records = [
        PacketRecord(0.5, "10.0.0.1", 0, "10.0.0.2", 0, "other", 60),
        PacketRecord(1.5, "10.0.0.1", 20000, "10.0.0.2", 50000, "tcp", 74),
    ]
    path = tmp_path / "other.pcap"
    assert write_pcap(records, str(path)) == 2
    blob = path.read_bytes()
    # IPv4 protocol 253, reserved for experiments; the frame is the record's size.
    assert struct.unpack_from("<I", blob, 24 + 8)[0] == 60 and blob[24 + 16 + 23] == 253
    stats = ingest.IngestStats()
    assert list(read_pcap(str(path), stats)) == records[1:]
    assert (stats.frames, stats.yielded, stats.skipped, stats.transport) == (2, 1, 1, 1)


def test_pcap_udp_and_icmp_frames(tmp_path):
    records = [
        PacketRecord(0.5, "10.0.0.1", 123, "10.0.0.2", 123, "udp", 90),
        PacketRecord(1.5, "10.0.0.1", 0, "10.0.0.2", 0, "icmp", 98),
    ]
    path = tmp_path / "mixed.pcap"
    write_pcap(records, str(path))
    assert list(read_pcap(str(path))) == records


def _ipv4_headers(blob: bytes) -> Iterator[bytes]:
    """The 20-byte IPv4 header of each frame in a pcap ``write_pcap`` wrote."""
    offset = 24
    while offset < len(blob):
        (caplen,) = struct.unpack_from("<I", blob, offset + 8)
        yield blob[offset + 16 + 14 : offset + 16 + 34]
        offset += 16 + caplen


def _ones_complement_sum(header: bytes) -> int:
    total = 0
    for (word,) in struct.iter_unpack(">H", header):
        total += word
        total = (total & 0xFFFF) + (total >> 16)  # end-around carry
    return total


def test_every_ipv4_header_checksums_to_ffff(tmp_path):
    addresses = ["255.255.255.255", "0.0.0.0", "10.0.0.1", "255.255.0.1", "192.168.254.255"]
    protos = [("tcp", 20000, 50000), ("udp", 123, 123), ("icmp", 0, 0), ("other", 0, 0)]
    # More records than the 16-bit IP id holds, so the id wraps.
    records = [
        PacketRecord(i / 1000, addresses[i % 5], protos[i % 4][1], addresses[(i + 1) % 5], protos[i % 4][2],
                     protos[i % 4][0], MIN_FRAME_BYTES + i % 1500)
        for i in range(65_536 + 600)
    ]
    path = tmp_path / "sums.pcap"
    assert write_pcap(records, str(path)) == len(records)
    headers = list(_ipv4_headers(path.read_bytes()))
    assert len(headers) == len(records)
    assert struct.unpack(">H", headers[65_536][4:6]) == (0,)  # the id wrapped
    bad = [i for i, header in enumerate(headers) if _ones_complement_sum(header) != 0xFFFF]
    assert not bad, f"{len(bad)} headers checksum wrong, the first {records[bad[0]]!r}"


# --- scenario files -------------------------------------------------------------------


def test_scenario_json_roundtrip(tmp_path):
    config = dataset1_like(duration=60.0, seed=15, fds=2)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(asdict(config)))
    assert load_scenario(str(path)) == config


@pytest.mark.parametrize(
    "config",
    [dataset2_like(), office_like()] + [small_random_scenario(random.Random(seed)) for seed in range(5)],
)
def test_scenario_json_roundtrip_varied(config):
    # Peripheral host overrides (office_like) and random draws.
    assert scenario_from_dict(json.loads(json.dumps(asdict(config)))) == config


def test_scenario_rejects_unknown_keys():
    with pytest.raises(ScenarioError):
        scenario_from_dict({"duration": 10, "seed": 1, "bogus": True})


def scenario_file_object():
    return {
        "duration": 300,
        "seed": 9,
        "scada_groups": [
            {"port": 502, "num_field_devices": 3, "poll_mean": 5, "poll_jitter_stddev": 0.5, "object_sizes": [340]}
        ],
        "peripherals": [{"kind": "ntp", "period": 64, "size": 180, "hosts": ["10.0.200.1", "10.0.200.2"]}],
        "reporting": [{"scada_period": 10, "noise_period": None}],
    }


def test_scenario_reads_ints_as_floats_and_defaults_from_dataclasses():
    config = scenario_from_dict(scenario_file_object())
    assert type(config.duration) is float and type(config.scada_groups[0].poll_mean) is float
    assert config.peripherals[0].hosts == ("10.0.200.1", "10.0.200.2")
    assert config.master == MasterConfig() and config.noise == NoiseConfig()
    assert config.reporting == [ReportingSpec(scada_period=10.0)]
    assert config.scada_groups[0].response is True


_DROP = object()


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("scada_groups", 0, "port"), 502.9, "scenario.scada_groups[0].port: expected int, got 502.9"),
        (("scada_groups", 0, "response"), "no", "scenario.scada_groups[0].response: expected bool, got 'no'"),
        (("scada_groups", 0, "respones"), False, "scenario.scada_groups[0]: unknown keys ['respones']"),
        (("scada_groups", 0, "port"), _DROP, "scenario.scada_groups[0]: missing key 'port'"),
        (("scada_groups", 0, "object_sizes"), [340, "7"], "scenario.scada_groups[0].object_sizes[1]: expected int"),
        (("scada_groups", 0, "poll_mean"), True, "scenario.scada_groups[0].poll_mean: expected float, got True"),
        (("peripherals", 0, "hosts"), [], "scenario.peripherals[0].hosts: expected tuple[str, str], got []"),
        (("seed",), 1.5, "scenario.seed: expected int, got 1.5"),
        (("seed",), True, "scenario.seed: expected int, got True"),
        (("duration",), math.nan, "scenario.duration: expected float, got nan"),
        (("master",), 5, "scenario.master: expected an object, got 5"),
        (("reporting", 0, "noise_period"), 0, "reporting[0]: periods must exceed"),
        (("reporting", 0, "port"), 0, "reporting[0]: port out of range"),
        (("reporting", 0, "port"), 70000, "reporting[0]: port out of range"),
        (("peripherals", 0, "hosts"), ["host-a", "10.0.0.9"], "peripherals[0]: host 'host-a' is not an IPv4 address"),
        (("peripherals", 0, "hosts"), ["10.0.0.9", "10.0.0.256"], "peripherals[0]: host '10.0.0.256' is not an IPv4"),
        (("peripherals", 0, "hosts"), ["10.0.0.9", "::1"], "peripherals[0]: host '::1' is not an IPv4 address"),
        (("scada_groups", 0, "object_sizes"), [340, 70000],
         "scada_groups[0]: object size 70000 above the 65535-byte snaplen"),
        (("peripherals", 0, "size"), 65536, "peripherals[0]: size 65536 above the 65535-byte snaplen"),
        (("reporting", 0, "report_size"), 65536, "reporting[0]: sizes above the 65535-byte snaplen"),
        (("reporting", 0, "noise_size"), 70000, "reporting[0]: sizes above the 65535-byte snaplen"),
        (("master",), {"ephemeral_port_range": [1000, 2000]}, "bad ephemeral port range (1000, 2000)"),
        (("master",), {"ephemeral_port_range": [50000, 50000]}, "bad ephemeral port range (50000, 50000)"),
        (("master",), {"reconnect_rate": -0.5}, "reconnect_rate must be >= 0"),
        (("scada_groups", 0, "port"), 0, "scada_groups[0]: port out of range"),
        (("scada_groups", 0, "port"), 65536, "scada_groups[0]: port out of range"),
        (("scada_groups", 0, "num_field_devices"), 254, "scada_groups[0]: num_field_devices must be 0..253"),
        (("peripherals", 0, "size"), 100, "peripherals[0]: a 50-byte packet falls below the 54-byte floor"),
        (("scada_groups",), [], "reporting[0]: no SCADA group to borrow a port from"),
        (("reporting", 0, "consumers"), 0, "reporting[0]: consumers must be >= 1"),
        (("reporting", 0, "report_size"), 53, "reporting[0]: sizes below the 54-byte floor"),
        (("reporting", 0, "noise_size"), 20, "reporting[0]: sizes below the 54-byte floor"),
    ],
    ids=["port-float", "response-str", "misspelled-key", "missing-key", "size-str", "bool-for-float",
         "hosts-empty", "seed-float", "seed-bool", "duration-nan", "master-int", "noise-period-0",
         "report-port-0", "report-port-big", "host-name", "host-octet-256", "host-ipv6",
         "object-size-big", "peripheral-size-big", "report-size-big", "noise-size-big",
         "ephemeral-below-1024", "ephemeral-empty", "reconnect-negative", "group-port-0", "group-port-big",
         "field-devices-254", "peripheral-packet-small", "report-without-port", "consumers-0",
         "report-size-small", "noise-size-small"],
)
def test_scenario_file_errors_name_the_path(path, value, message):
    obj = scenario_file_object()
    *parents, last = path
    target = obj
    for step in parents:
        target = target[step]
    if value is _DROP:
        del target[last]
    else:
        target[last] = value
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(obj)
    assert message in str(exc.value)


@pytest.mark.parametrize("name", ["day.json", "churn.json", "month.json"])
def test_benchmark_scenarios_read_back_equal(name):
    config = load_scenario(str(SCENARIO_DIR / name))
    assert scenario_from_dict(json.loads(json.dumps(asdict(config)))) == config


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: setattr(c, "duration", -1.0),
        lambda c: setattr(c, "layers", 4),
        lambda c: setattr(c.scada_groups[0], "poll_jitter_stddev", 9.0),
        lambda c: setattr(c.scada_groups[0], "poll_mean", 0.5),
        lambda c: setattr(c.scada_groups[0], "object_sizes", []),
        lambda c: setattr(c.scada_groups[0], "object_sizes", [100]),
        lambda c: setattr(c.scada_groups[0], "port", 50000),
        lambda c: setattr(c.peripherals[0], "kind", "teapot"),
        lambda c: setattr(c.peripherals[0], "period", 0.0),
    ],
)
def test_validation_rejects_impossible_configs(mutate):
    config = tiny_config(scada_groups=[
        ScadaGroup(port=20000, num_field_devices=2, poll_mean=5.0, poll_jitter_stddev=0.5, object_sizes=[340])
    ])
    mutate(config)
    with pytest.raises(ScenarioError):
        config.validate()


def test_validation_rejects_non_ipv4_hosts_set_in_code():
    config = office_like()
    config.validate()  # explicit dotted-quad hosts pass
    config.peripherals[1].hosts = ("10.0.200.10", 7)
    with pytest.raises(ScenarioError, match=r"peripherals\[1\]: host 7 is not an IPv4 address"):
        config.validate()


def test_validation_rejects_duplicate_ports():
    group = ScadaGroup(port=20000, num_field_devices=1, poll_mean=5.0, poll_jitter_stddev=0.5, object_sizes=[340])
    config = tiny_config(scada_groups=[group, group])
    with pytest.raises(ScenarioError):
        config.validate()


def test_validation_rejects_three_layers_without_scada():
    config = tiny_config(scada_groups=[], layers=3)
    with pytest.raises(ScenarioError):
        config.validate()


def test_generate_validates_first():
    with pytest.raises(ScenarioError):
        generate(tiny_config(duration=0.0))


def test_generate_raises_a_set_up_error_itself():
    # Three field devices take one ephemeral port each at set-up; the range holds two.
    config = tiny_config(master=MasterConfig(ephemeral_port_range=(60000, 60001)))
    with pytest.raises(ScenarioError, match="master ephemeral port range exhausted"):
        generate(config)


def _auto_heartbeats(n):
    return [PeripheralSpec("heartbeat", 5.0, 66) for _ in range(n)]


@pytest.mark.parametrize(
    "fits,over,message",
    [
        # Each auto-addressed peripheral takes two hosts of 10.0.200.x, a backup
        # copying from the master one: the 128th peripheral's first host is 255.
        (dict(peripherals=_auto_heartbeats(127)),
         dict(layers=3, peripherals=[*_auto_heartbeats(127), PeripheralSpec("backup", 600.0, 66)]),
         "peripherals[127]: 10.0.200.255 is past the last host 10.0.200.254"),
        (dict(reporting=[ReportingSpec(20.0, consumers=200), ReportingSpec(20.0, consumers=54)]),
         dict(reporting=[ReportingSpec(20.0, consumers=200), ReportingSpec(20.0, consumers=55)]),
         "reporting[1].consumers: 10.0.241.255 is past the last host 10.0.241.254"),
        (dict(reporting=[ReportingSpec(20.0, noise_period=9.0)] * 254),
         dict(reporting=[ReportingSpec(20.0, noise_period=9.0)] * 255),
         "reporting[254]: 10.0.240.255 is past the last host 10.0.240.254"),
        (dict(scada_groups=[ScadaGroup(1000 + g, 0, 5.0, 0.5, [340]) for g in range(190)]),
         dict(scada_groups=[ScadaGroup(1000 + g, 0, 5.0, 0.5, [340]) for g in range(191)]),
         "scada_groups: at most 190 groups, got 191"),
    ],
)
def test_validation_bounds_each_auto_numbered_block(fits, over, message):
    # ``generate`` validates, then numbers each block during set-up.
    generate(tiny_config(**fits))
    with pytest.raises(ScenarioError) as exc:
        generate(tiny_config(**over))
    assert str(exc.value) == message


@st.composite
def address_heavy_scenarios(draw):
    """Scenarios near the edges of the auto-numbered address blocks."""
    layers = draw(st.sampled_from([2, 3]))
    kinds = draw(st.lists(st.sampled_from(["heartbeat", "backup"]), max_size=130))
    peripherals = [
        PeripheralSpec(kind, 60.0 if kind == "heartbeat" else 600.0, 66) for kind in kinds
    ]
    reporting = [
        ReportingSpec(20.0, noise_period=draw(st.sampled_from([None, 9.0])), consumers=consumers)
        for consumers in draw(st.lists(st.integers(1, 160), max_size=3))
    ]
    return tiny_config(duration=30.0, layers=layers, peripherals=peripherals, reporting=reporting)


@given(address_heavy_scenarios())
def test_every_generated_address_is_ipv4(config):
    try:
        records, truth = generate(config)
    except ScenarioError:
        return
    for ip in truth.labels:
        IPv4Address(ip)
    for rec in records:
        IPv4Address(rec.src_ip)
        IPv4Address(rec.dst_ip)
