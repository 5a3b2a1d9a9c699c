"""Ingest tests: pcap parsing, record parsing, filtering, time ordering."""

from __future__ import annotations

import dataclasses
import json
import math
import random
import re
import struct
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from scadascope import ingest
from scadascope.cli import EXIT_INPUT_ERROR, main
from scadascope.ingest import (
    DEFAULT_SERVICE_PORTS,
    FilterConfig,
    FilterStats,
    IngestStats,
    OutOfOrderError,
    PacketRecord,
    PcapFormatError,
    RecordFormatError,
    ensure_time_order,
    filter_packets,
    read_pcap,
    read_records,
)
from scadascope.synth import generate, write_pcap, write_records

from reference import RefOutOfOrder, RefPcapFormatError, ref_read_pcap, ref_read_records, ref_time_order
from scenarios import dataset1_like


# --- hand-built pcap fixtures -------------------------------------------------

GLOBAL_HDR_LE = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)


def eth_ipv4_tcp(src_ip, sport, dst_ip, dport, caplen):
    """Build one frame by hand: ethernet II + IPv4 + TCP + zero padding."""
    eth = b"\xaa" * 6 + b"\xbb" * 6 + b"\x08\x00"
    src = bytes(int(x) for x in src_ip.split("."))
    dst = bytes(int(x) for x in dst_ip.split("."))
    ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, caplen - 14, 1, 0, 64, 6, 0, src, dst)
    tcp = struct.pack(">HHIIBBHHH", sport, dport, 0, 0, 5 << 4, 0x18, 1024, 0, 0)
    frame = eth + ip + tcp
    return frame + b"\x00" * (caplen - len(frame))


def eth_ipv4_udp(src_ip, dst_ip, flags_offset, l4):
    """One frame holding an IPv4 packet (or fragment) of a UDP datagram."""
    eth = b"\xaa" * 6 + b"\xbb" * 6 + b"\x08\x00"
    src = bytes(int(x) for x in src_ip.split("."))
    dst = bytes(int(x) for x in dst_ip.split("."))
    ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + len(l4), 7, flags_offset, 64, 17, 0, src, dst)
    return eth + ip + l4


def arp_frame():
    eth = b"\xff" * 6 + b"\xbb" * 6 + b"\x08\x06"
    return eth + b"\x00" * 46


def vlan_tagged(frame, *tpids):
    """The frame with one 4-byte tag per TPID inserted after the MAC addresses."""
    tags = b"".join(struct.pack(">HH", tpid, 100 + i) for i, tpid in enumerate(tpids))
    return frame[:12] + tags + frame[12:]


def with_ip_option(frame):
    """The untagged IPv4 frame with a 4-byte option (three NOPs and an
    end-of-options byte) after its 20-byte header: IHL 6."""
    ip = bytearray(frame[14:34])
    ip[0] += 1
    struct.pack_into(">H", ip, 2, struct.unpack_from(">H", ip, 2)[0] + 4)
    return frame[:14] + bytes(ip) + b"\x01\x01\x01\x00" + frame[34:]


def rewrite_frames(blob, rewrite):
    """A little-endian capture with ``rewrite`` applied to every frame."""
    out = bytearray(blob[:24])
    off = 24
    while off < len(blob):
        sec, frac, caplen, orig_len = struct.unpack_from("<IIII", blob, off)
        frame = rewrite(blob[off + 16 : off + 16 + caplen])
        out += struct.pack("<IIII", sec, frac, len(frame), orig_len + len(frame) - caplen) + frame
        off += 16 + caplen
    return bytes(out)


def pcap_bytes(frames, endian="<", ts0=1000.0, nanosecond=False):
    out = bytearray()
    out += struct.pack(endian + "IHHiIII", 0xA1B23C4D if nanosecond else 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    for i, frame in enumerate(frames):
        sec = int(ts0) + i
        frac = 250000000 if nanosecond else 250000
        out += struct.pack(endian + "IIII", sec, frac, len(frame), len(frame))
        out += frame
    return bytes(out)


def test_read_pcap_empty_file(tmp_path):
    path = tmp_path / "empty.pcap"
    path.write_bytes(GLOBAL_HDR_LE)
    assert list(read_pcap(str(path))) == []


def test_read_pcap_single_tcp_caplen_74(tmp_path):
    frame = eth_ipv4_tcp("192.168.1.10", 20000, "192.168.1.20", 51382, 74)
    path = tmp_path / "one.pcap"
    path.write_bytes(pcap_bytes([frame]))
    records = list(read_pcap(str(path)))
    assert len(records) == 1
    rec = records[0]
    assert rec.size == 74
    assert (rec.src_ip, rec.src_port) == ("192.168.1.10", 20000)
    assert (rec.dst_ip, rec.dst_port) == ("192.168.1.20", 51382)
    assert rec.proto == "tcp"
    assert rec.ts == 1000 + 250000 / 1e6


def test_read_pcap_skips_non_ip_frames(tmp_path):
    frames = [eth_ipv4_tcp("10.0.0.1", 1000 + i, "10.0.0.2", 80, 74) for i in range(2)]
    frames.insert(1, arp_frame())
    frames += [eth_ipv4_tcp("10.0.0.3", 5, "10.0.0.4", 6, 60) for _ in range(2)]
    path = tmp_path / "five.pcap"
    path.write_bytes(pcap_bytes(frames))
    stats = IngestStats()
    records = list(read_pcap(str(path), stats))
    assert len(records) == 4
    assert stats.skipped == 1
    assert stats.frames == 5


def test_read_pcap_skips_non_first_fragments(tmp_path):
    more_fragments, dont_fragment = 0x2000, 0x4000
    udp = struct.pack(">HHHH", 5000, 502, 8 + 1500, 0)
    frames = [
        # first fragment: the UDP header is here
        eth_ipv4_udp("10.0.0.1", "10.0.0.2", more_fragments, udp + b"\x00" * 64),
        # offset 185 (1480 bytes): payload where a header would be
        eth_ipv4_udp("10.0.0.1", "10.0.0.2", 185, b"\xde\xad\xbe\xef" + b"\x00" * 60),
        # an unfragmented packet with DF set
        eth_ipv4_udp("10.0.0.3", "10.0.0.4", dont_fragment, struct.pack(">HHHH", 6000, 7000, 72, 0)),
    ]
    path = tmp_path / "fragments.pcap"
    path.write_bytes(pcap_bytes(frames))
    stats = IngestStats()
    records = [(r.src_ip, r.src_port, r.dst_ip, r.dst_port, r.proto) for r in read_pcap(str(path), stats)]
    assert records == [("10.0.0.1", 5000, "10.0.0.2", 502, "udp"), ("10.0.0.3", 6000, "10.0.0.4", 7000, "udp")]
    assert (stats.frames, stats.skipped) == (3, 1)


def test_read_pcap_big_endian(tmp_path):
    frame = eth_ipv4_tcp("10.1.1.1", 7, "10.1.1.2", 8, 64)
    path = tmp_path / "be.pcap"
    path.write_bytes(pcap_bytes([frame], endian=">"))
    records = list(read_pcap(str(path)))
    assert len(records) == 1
    assert records[0].src_port == 7


def test_read_pcap_bad_magic(tmp_path):
    path = tmp_path / "bad.pcap"
    path.write_bytes(b"\x00" * 24)
    with pytest.raises(PcapFormatError):
        list(read_pcap(str(path)))


def test_read_pcap_short_header(tmp_path):
    path = tmp_path / "short.pcap"
    path.write_bytes(GLOBAL_HDR_LE[:10])
    with pytest.raises(PcapFormatError):
        list(read_pcap(str(path)))


def test_read_pcap_truncated_trailing_record(tmp_path):
    frame = eth_ipv4_tcp("10.1.1.1", 7, "10.1.1.2", 8, 80)
    data = pcap_bytes([frame, frame])
    path = tmp_path / "trunc.pcap"
    path.write_bytes(data[:-30])  # cut into the second frame
    stats = IngestStats()
    records = list(read_pcap(str(path), stats))
    assert len(records) == 1
    assert stats.truncated


def test_read_pcap_truncated_record_header(tmp_path, caplog):
    frame = eth_ipv4_tcp("10.1.1.1", 7, "10.1.1.2", 8, 80)
    path = tmp_path / "trunc.pcap"
    path.write_bytes(pcap_bytes([frame, frame])[: 24 + 16 + 80 + 9])  # 9 bytes of the second header
    stats = IngestStats()
    assert len(list(read_pcap(str(path), stats))) == 1
    assert (stats.frames, stats.truncated) == (1, True)
    assert "truncated record header" in caplog.text


@pytest.mark.parametrize("endian", ["<", ">"])
def test_read_pcap_nanosecond_capture(tmp_path, endian):
    frame = eth_ipv4_tcp("10.1.1.1", 7, "10.1.1.2", 8, 64)
    path = tmp_path / "ns.pcap"
    path.write_bytes(pcap_bytes([frame], endian=endian, nanosecond=True))
    assert ingest.sniff_format(str(path)) == "pcap"
    records = list(ingest.open_trace(str(path)))
    assert [(r.ts, r.src_port, r.dst_port) for r in records] == [(1000 + 250000000 / 1e9, 7, 8)]


def test_read_pcap_strips_vlan_tags(tmp_path):
    frame = eth_ipv4_tcp("192.168.1.10", 20000, "192.168.1.20", 51382, 74)
    frames = [
        vlan_tagged(frame, 0x8100),
        vlan_tagged(frame, 0x88A8, 0x8100),
        vlan_tagged(frame, 0x88A8, 0x8100, 0x8100),  # a third tag is not stripped
        vlan_tagged(arp_frame(), 0x8100),
    ]
    path = tmp_path / "vlan.pcap"
    path.write_bytes(pcap_bytes(frames))
    stats = IngestStats()
    records = list(read_pcap(str(path), stats))
    assert [(r.src_ip, r.src_port, r.dst_ip, r.dst_port, r.size) for r in records] == [
        ("192.168.1.10", 20000, "192.168.1.20", 51382, 78),
        ("192.168.1.10", 20000, "192.168.1.20", 51382, 82),
    ]
    assert (stats.frames, stats.skipped, stats.non_ipv4) == (4, 2, 2)


def test_read_pcap_counts_skip_reasons(tmp_path):
    tcp = eth_ipv4_tcp("10.0.0.1", 1, "10.0.0.2", 2, 60)
    gre = tcp[:23] + b"\x2f" + tcp[24:]
    frames = [
        tcp,
        arp_frame(),  # non_ipv4
        tcp[:30],  # short: under 34 bytes
        vlan_tagged(tcp[:30], 0x8100),  # short: the tag leaves 16 bytes of IPv4
        tcp[:14] + b"\x46" + tcp[15:36],  # short: IHL 24 past the end of the frame
        tcp[:34] + b"\x00\x01",  # short: two TCP bytes
        tcp[:14] + b"\x65" + tcp[15:],  # non_ipv4: version 6
        tcp[:14] + b"\x44" + tcp[15:],  # non_ipv4: IHL 16
        tcp[:20] + b"\x20\x10" + tcp[22:],  # fragment at offset 16 (128 bytes)
        tcp[:20] + b"\x10\x00" + tcp[22:],  # fragment at offset 4096 (32768 bytes)
        gre,  # transport
    ]
    path = tmp_path / "skips.pcap"
    path.write_bytes(pcap_bytes(frames))
    stats = IngestStats()
    assert len(list(read_pcap(str(path), stats))) == 1
    assert stats == IngestStats(
        frames=11, yielded=1, skipped=10, short=4, non_ipv4=3, fragment=2, transport=1
    )


# --- the pcap reader against the reference parser -----------------------------


@st.composite
def random_frames(draw):
    """An Ethernet frame around a mostly plausible IPv4 packet, possibly cut short."""
    tags = draw(st.lists(st.sampled_from([0x8100, 0x88A8]), max_size=3))
    ethertype = draw(st.sampled_from([0x0800, 0x0800, 0x0800, 0x0806, 0x86DD, 0x8100]))
    version = draw(st.sampled_from([4, 4, 4, 6, 0]))
    ihl = draw(st.integers(0, 15))
    frag = draw(st.sampled_from([0, 0x4000, 0x2000, 1, 185, 0x1000, 0x1FFF, 0x2003]))
    proto = draw(st.sampled_from([6, 17, 1, 2, 47]))
    src, dst = draw(st.binary(min_size=4, max_size=4)), draw(st.binary(min_size=4, max_size=4))
    options = draw(st.binary(min_size=max(0, ihl * 4 - 20), max_size=max(0, ihl * 4 - 20)))
    l4 = draw(st.binary(min_size=0, max_size=24))
    eth = b"\xaa" * 6 + b"\xbb" * 6
    eth += b"".join(struct.pack(">HH", tpid, 7) for tpid in tags) + struct.pack(">H", ethertype)
    ip = struct.pack(">BBHHHBBH", (version << 4) | ihl, 0, 0, 1, frag, 64, proto, 0) + src + dst
    frame = eth + ip + options + l4
    cut = draw(st.one_of(st.none(), st.integers(0, len(frame))))
    return frame[:cut]


@st.composite
def random_captures(draw):
    endian = draw(st.sampled_from(["<", ">"]))
    nanosecond = draw(st.booleans())
    magic = 0xA1B23C4D if nanosecond else 0xA1B2C3D4
    out = bytearray(struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1))
    for frame in draw(st.lists(random_frames(), max_size=12)):
        sec, frac = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))
        out += struct.pack(endian + "IIII", sec, frac, len(frame), len(frame)) + frame
    cut = draw(st.sampled_from([0, 0, 0, 1, 5, 15, 16, 17, 40]))
    return bytes(out[: max(24, len(out) - cut)])


def reader_output(path):
    stats = IngestStats()
    records = [
        (r.ts, r.src_ip, r.src_port, r.dst_ip, r.dst_port, r.proto, r.size)
        for r in read_pcap(str(path), stats)
    ]
    return records, dataclasses.asdict(stats)


_STACKED_TAGS = pcap_bytes([vlan_tagged(eth_ipv4_tcp("10.0.0.1", 40000, "10.0.0.2", 502, 60), 0x88A8, 0x8100)])
# Captures on each edge of the one-read decode of a plain frame.
_TCP_54 = eth_ipv4_tcp("10.0.0.1", 40000, "10.0.0.2", 502, 54)
_NEXT = eth_ipv4_tcp("10.0.0.3", 40001, "10.0.0.4", 503, 60)
# 37 bytes: one byte of the destination port; the next record header follows.
_TCP_37 = pcap_bytes([_TCP_54[:37], _NEXT])
_TCP_38 = pcap_bytes([_TCP_54[:38], _NEXT])  # the shortest plain frame
_TCP_IHL_6 = pcap_bytes([with_ip_option(_TCP_54)])  # the option bytes sit where ports would be
_ONE_TAG = pcap_bytes([vlan_tagged(_TCP_54, 0x8100)])
_ICMP_AND_GRE_FRAMES = [_TCP_54[:23] + bytes([proto]) + _TCP_54[24:] for proto in (1, 47)]
_ICMP_AND_GRE = pcap_bytes(_ICMP_AND_GRE_FRAMES)
# A non-first fragment with a 20-byte header: payload where the ports would be.
_FRAGMENT_FRAME = eth_ipv4_udp("10.0.0.1", "10.0.0.2", 185, b"\xde\xad\xbe\xef" + b"\x00" * 20)
_FRAGMENT_IHL_5 = pcap_bytes([_FRAGMENT_FRAME])
_ARP = pcap_bytes([arp_frame()])  # 60 bytes
# And on each edge of the one-read decode behind one 802.1Q tag.
_TAGGED_TCP_58 = vlan_tagged(_TCP_54, 0x8100)
_TAGGED_41 = pcap_bytes([_TAGGED_TCP_58[:41], _NEXT])  # one byte of the destination port
_TAGGED_42 = pcap_bytes([_TAGGED_TCP_58[:42], _NEXT])  # the shortest tagged plain frame
_UDP_DONT_FRAGMENT = eth_ipv4_udp("10.0.0.1", "10.0.0.2", 0x4000, struct.pack(">HHHH", 40000, 502, 8, 0))
_TAGGED_UDP = pcap_bytes([vlan_tagged(_UDP_DONT_FRAGMENT, 0x8100)])
_TAGGED_IHL_6 = pcap_bytes([vlan_tagged(with_ip_option(_TCP_54), 0x8100)])
_TAGGED_ICMP_AND_GRE = pcap_bytes([vlan_tagged(frame, 0x8100) for frame in _ICMP_AND_GRE_FRAMES])
_TAGGED_FRAGMENT_IHL_5 = pcap_bytes([vlan_tagged(_FRAGMENT_FRAME, 0x8100)])
_TAGGED_ARP = pcap_bytes([vlan_tagged(arp_frame(), 0x8100)])
# An 802.1ad outer tag, and two 802.1Q tags: both take the general checks.
_OTHER_TAGS = pcap_bytes([vlan_tagged(_TCP_54, 0x88A8), vlan_tagged(_TCP_54, 0x8100, 0x8100)])


@given(random_captures(), st.sampled_from([1, 3, 16, 17, 50, ingest._CHUNK_BYTES]))
@example(_STACKED_TAGS, ingest._CHUNK_BYTES)  # the second tag is stripped too
@example(_TCP_37, ingest._CHUNK_BYTES)
@example(_TCP_38, ingest._CHUNK_BYTES)
@example(_TCP_IHL_6, ingest._CHUNK_BYTES)
@example(_ONE_TAG, ingest._CHUNK_BYTES)
@example(_ICMP_AND_GRE, ingest._CHUNK_BYTES)
@example(_FRAGMENT_IHL_5, ingest._CHUNK_BYTES)
@example(_ARP, ingest._CHUNK_BYTES)
@example(_TAGGED_41, ingest._CHUNK_BYTES)
@example(_TAGGED_42, ingest._CHUNK_BYTES)
@example(_TAGGED_UDP, ingest._CHUNK_BYTES)
@example(_TAGGED_IHL_6, ingest._CHUNK_BYTES)
@example(_TAGGED_ICMP_AND_GRE, ingest._CHUNK_BYTES)
@example(_TAGGED_FRAGMENT_IHL_5, ingest._CHUNK_BYTES)
@example(_TAGGED_ARP, ingest._CHUNK_BYTES)
@example(_OTHER_TAGS, ingest._CHUNK_BYTES)
def test_read_pcap_matches_reference(tmp_path_factory, blob, chunk):
    path = tmp_path_factory.mktemp("cap") / "random.pcap"
    path.write_bytes(blob)
    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
        assert reader_output(path) == ref_read_pcap(blob)


@st.composite
def mutated_captures(draw):
    """A random capture with one to four bytes of its global header or of
    its record headers replaced."""
    blob = bytearray(draw(random_captures()))
    endian = "<" if blob[:4] in (b"\xd4\xc3\xb2\xa1", b"\x4d\x3c\xb2\xa1") else ">"
    header_bytes = list(range(24))
    off = 24
    while len(blob) - off >= 16:
        header_bytes.extend(range(off, off + 16))
        off += 16 + struct.unpack_from(endian + "I", blob, off + 8)[0]
    for pos in draw(st.lists(st.sampled_from(header_bytes), min_size=1, max_size=4)):
        blob[pos] = draw(st.integers(0, 255))
    return bytes(blob)


@given(mutated_captures(), st.sampled_from([1, 16, 50, ingest._CHUNK_BYTES]))
def test_read_pcap_mutated_headers_match_reference(tmp_path_factory, blob, chunk):
    # Only PcapFormatError, where the reference refuses the capture too, and
    # with its wording; otherwise exactly the reference's records and counts.
    path = tmp_path_factory.mktemp("cap") / "mutated.pcap"
    path.write_bytes(blob)
    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
        try:
            want = ref_read_pcap(blob)
        except RefPcapFormatError as exc:
            with pytest.raises(PcapFormatError, match=re.escape(str(exc))):
                reader_output(path)
        else:
            assert reader_output(path) == want


def test_read_pcap_reads_tagged_and_optioned_copies_alike(tmp_path):
    # The plain capture takes the one-read decode; a tag or an IPv4 option in
    # every frame sends each through the general checks instead.
    records = list(generate(dataset1_like(duration=300.0, seed=509, fds=4))[0])
    records[5:5] = [
        PacketRecord(records[5].ts, "10.0.9.1", 0, "10.0.9.2", 0, "icmp", 74),
        PacketRecord(records[5].ts, "10.0.9.1", 0, "10.0.9.2", 0, "other", 60),
    ]
    plain = tmp_path / "plain.pcap"
    write_pcap(records, str(plain))
    want, want_stats = reader_output(plain)
    assert want_stats["yielded"] == len(records) - 1 and want_stats["transport"] == 1
    assert {r[5] for r in want} == {"tcp", "udp", "icmp"}
    for name, rewrite in (("tagged", lambda f: vlan_tagged(f, 0x8100)), ("optioned", with_ip_option)):
        path = tmp_path / f"{name}.pcap"
        path.write_bytes(rewrite_frames(plain.read_bytes(), rewrite))
        got, got_stats = reader_output(path)
        assert got == [r[:6] + (r[6] + 4,) for r in want], name
        assert got_stats == want_stats, name


@pytest.mark.parametrize("chunk", [1, 7, 16, 33, 100, 250])
def test_read_pcap_chunk_boundaries(tmp_path, monkeypatch, chunk):
    # Frames of several lengths put record headers and frames across every
    # chunk edge; the last record is cut inside its frame.
    frames = [eth_ipv4_tcp("10.0.0.1", 100 + i, "10.0.0.2", 502, 54 + 13 * i) for i in range(12)]
    frames.insert(3, arp_frame())
    frames.insert(7, vlan_tagged(frames[6], 0x8100))
    blob = pcap_bytes(frames)[:-20]
    path = tmp_path / "chunks.pcap"
    path.write_bytes(blob)
    whole = reader_output(path)
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
    assert reader_output(path) == whole == ref_read_pcap(blob)
    assert whole[1]["truncated"] and whole[1]["frames"] == len(frames) - 1


def test_read_pcap_memory_stays_near_one_chunk(tmp_path):
    # A guard against reading or mapping the whole capture: streaming 8 MB
    # must not hold more than a small multiple of the read chunk.
    frame = eth_ipv4_tcp("10.0.0.1", 20000, "10.0.0.2", 51382, 1514)
    record = struct.pack("<IIII", 1000, 0, len(frame), len(frame)) + frame
    count = (8 << 20) // len(record) + 1
    path = tmp_path / "big.pcap"
    path.write_bytes(GLOBAL_HDR_LE + record * count)
    tracemalloc.start()
    try:
        frames = sum(1 for _ in read_pcap(str(path)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert frames == count
    assert peak < 4 << 20, peak


def test_read_pcap_bogus_length_costs_only_the_bytes_read(tmp_path, caplog):
    # A record header claiming more than a record may hold is refused with
    # its byte offset, and the CLI exits 2 on it.
    frame = eth_ipv4_tcp("10.0.0.1", 20000, "10.0.0.2", 51382, 1514)
    good = pcap_bytes([frame])
    path = tmp_path / "bogus.pcap"
    for claim in (ingest.MAX_RECORD_BYTES + 1, 256 << 20):
        path.write_bytes(good + struct.pack("<IIII", 1001, 0, claim, claim) + frame * 2000)
        stats = IngestStats()
        with pytest.raises(PcapFormatError, match=f"record at byte offset {len(good)} claims {claim} bytes"):
            for _ in read_pcap(str(path), stats):
                pass
        assert (stats.frames, stats.yielded) == (1, 1)
        caplog.clear()
        assert main(["--quiet", "inspect", str(path)]) == EXIT_INPUT_ERROR
        assert f"record at byte offset {len(good)} claims {claim} bytes" in caplog.text

    # A last record claiming the most a record may hold, but holding fewer
    # bytes, ends on a truncated final record within the reader's buffer.
    claim = ingest.MAX_RECORD_BYTES
    path.write_bytes(good + struct.pack("<IIII", 1001, 0, claim, claim) + frame * 20)
    stats = IngestStats()
    tracemalloc.start()
    try:
        frames = sum(1 for _ in read_pcap(str(path), stats))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (frames, stats.frames, stats.truncated) == (1, 1, True)
    assert f"truncated final record ({1514 * 20} of {claim} bytes)" in caplog.text
    assert peak < 16 << 20, peak


def test_read_records_single_line(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text(
        '{"ts": 1.5, "src_ip": "10.0.0.1", "src_port": 20000, '
        '"dst_ip": "10.0.0.2", "dst_port": 51382, "proto": "tcp", "size": 340}\n'
    )
    records = list(read_records(str(path)))
    assert records == [PacketRecord(1.5, "10.0.0.1", 20000, "10.0.0.2", 51382, "tcp", 340)]


def test_read_records_reads_a_negative_zero_ts_as_zero(tmp_path):
    # -0.0 passes the range check; a pcap gives the same packet a ts of 0.0.
    tail = '"src_ip":"10.0.0.1","src_port":20000,"dst_ip":"10.0.0.2","dst_port":51382,"proto":"tcp","size":340}'
    path = tmp_path / "a.jsonl"
    # The second line's tail is memoized, but its signed ts is decoded in full.
    path.write_text("".join(f'{{"ts":{ts},{tail}\n' for ts in ("-0.0", "-0.0", "1.0")))
    backwards = list(ingest._records_backwards(str(path)))[::-1]
    for records in (list(read_records(str(path))), backwards, ref_read_records(str(path))):
        assert [r.ts for r in records] == [0.0, 0.0, 1.0]
        assert [math.copysign(1.0, r.ts) for r in records] == [1.0, 1.0, 1.0]


# Stands for a 5001-digit integer, which json.dumps cannot write itself.
BIG_INT = "<5001 digits>"


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("src_port", 70000, "out of range"),
        ("size", 0, "size"),
        ("size", -10, "size"),
        ("ts", -1.0, "negative"),
        ("proto", "gre", "proto"),
        ("ts", float("nan"), "ts must be finite"),
        ("ts", float("inf"), "ts must be finite"),
        ("ts", True, "ts must be a number"),
        ("src_port", True, "src_port must be an integer"),
        ("dst_port", 80.9, "dst_port must be an integer"),
        ("size", "3", "size must be an integer"),
        # Values that int()/float() would refuse too still name their field.
        ("src_port", "abc", "src_port must be an integer, got 'abc'"),
        ("dst_port", None, "dst_port must be an integer, got None"),
        ("size", "abc", "size must be an integer, got 'abc'"),
        ("size", None, "size must be an integer, got None"),
        ("ts", "abc", "ts must be a number, got 'abc'"),
        ("ts", [1.0], "ts must be a number, got [1.0]"),
        # Past the int/str digit limit the JSON scanner itself refuses the number.
        ("src_port", BIG_INT, "invalid JSON (Exceeds the limit (4300 digits)"),
        ("dst_port", 65536, "dst_port out of range: 65536"),
        ("src_ip", "", "endpoint addresses must be non-empty strings"),
        ("dst_ip", 7, "endpoint addresses must be non-empty strings"),
    ],
)
def test_read_records_validation(tmp_path, field, value, fragment):
    obj = {
        "ts": 0.0,
        "src_ip": "10.0.0.1",
        "src_port": 1,
        "dst_ip": "10.0.0.2",
        "dst_port": 2,
        "proto": "tcp",
        "size": 100,
    }
    obj[field] = value
    import json

    path = tmp_path / "bad.jsonl"
    bad = json.dumps(obj).replace(json.dumps(BIG_INT), "1" * 5001)
    path.write_text("\n".join([rec(ts=1.0).to_json(), bad, rec(ts=2.0).to_json()]) + "\n")
    with pytest.raises(RecordFormatError) as err:
        list(read_records(str(path)))
    assert ":2:" in str(err.value)
    assert fragment in str(err.value)
    # The tail reader passes over the line the forward read refuses.
    assert [r.ts for r in ingest._records_backwards(str(path))] == [2.0, 1.0]


def test_read_records_bad_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = '{"ts": 0.0, "src_ip": "a", "src_port": 1, "dst_ip": "b", "dst_port": 2, "proto": "udp", "size": 60}'
    path.write_text(good + "\n{oops\n")
    with pytest.raises(RecordFormatError) as err:
        list(read_records(str(path)))
    assert ":2:" in str(err.value)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_read_records_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, newline):
    # Far past the reader's first 8 KiB decode buffer, whose offsets name no line.
    lines = [f'{{"ts":{i}.5{TAIL}' for i in range(5000)]
    path = tmp_path / "bad.jsonl"
    path.write_bytes(newline.join(lines).encode().replace(b'"ts":3999.5,"src_ip":"10.0.0.1"',
                                                          b'"ts":3999.5,"src_ip":"10.0.0.\xff"'))
    with pytest.raises(RecordFormatError) as err:
        list(read_records(str(path)))
    assert str(err.value) == f"{path}:4000: invalid UTF-8 (invalid start byte)"


@pytest.mark.parametrize(
    "bad",
    ['{oops', '{"ts":2.0,"src_ip":"a","src_port":1,"dst_ip":"b","dst_port":-2,"proto":"udp","size":60}'],
    ids=["invalid-json", "invalid-record"],
)
def test_read_records_counts_a_failed_line_as_read_not_yielded(tmp_path, bad):
    path = tmp_path / "bad.jsonl"
    good = '"src_ip":"a","src_port":1,"dst_ip":"b","dst_port":2,"proto":"udp","size":60}'
    # The second line's tail is memoized, so both reading paths count.
    path.write_text(f'{{"ts":0.0,{good}\n{{"ts":1.0,{good}\n\n{bad}\n')
    stats = IngestStats()
    with pytest.raises(RecordFormatError, match=":4:"):
        list(read_records(str(path), stats))
    assert (stats.frames, stats.yielded) == (3, 2)


def test_read_records_roundtrip_thousand(tmp_path):
    config = dataset1_like(duration=120.0, seed=5, fds=40)
    records = list(generate(config)[0])
    assert len(records) >= 1000
    path = tmp_path / "trace.jsonl"
    write_records(records, str(path))
    back = list(read_records(str(path)))
    assert back == records
    assert all(b.ts >= a.ts for a, b in zip(back, back[1:]))


# --- the record tail memo ------------------------------------------------------

TAIL = ',"src_ip":"10.0.0.1","src_port":502,"dst_ip":"10.0.0.2","dst_port":50000,"proto":"tcp","size":60}'


def _outcome(reader, path):
    """A reader's records, ts through float.hex, or the text of its RecordFormatError."""
    try:
        return [(r.ts.hex(), r.src_ip, r.src_port, r.dst_ip, r.dst_port, r.proto, r.size) for r in reader(path)]
    except RecordFormatError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "separator, newline",
    [
        pytest.param(",", "\n", id=","),
        pytest.param(", ", "\n", id=", "),
        pytest.param(",", "\r\n", id=",-crlf"),
        pytest.param(", ", "\r\n", id=", -crlf"),
    ],
)
def test_read_records_decodes_a_repeated_tail_once(tmp_path, separator, newline):
    path = tmp_path / "t.jsonl"
    tail = TAIL.replace(",", separator).replace(":", ": " if separator == ", " else ":")
    path.write_bytes("".join(f'{{"ts": {i}.25{tail}{newline}' for i in range(100)).encode())
    stats = IngestStats()
    with mock.patch.object(ingest, "_build_record", wraps=ingest._build_record) as build:
        records = list(read_records(str(path), stats))
    assert build.call_count == 1
    assert [r.ts for r in records] == [i + 0.25 for i in range(100)]
    assert records[-1] == PacketRecord(99.25, "10.0.0.1", 502, "10.0.0.2", 50000, "tcp", 60)
    assert (stats.frames, stats.yielded) == (100, 100)


def test_read_records_decodes_a_long_tail_every_time(tmp_path):
    path = tmp_path / "t.jsonl"
    tail = TAIL.replace('"10.0.0.1"', '"' + "h" * 300 + '"')
    path.write_text("".join(f'{{"ts":{i}.5{tail}\n' for i in range(3)))
    with mock.patch.object(ingest, "_build_record", wraps=ingest._build_record) as build:
        records = list(read_records(str(path)))
    assert build.call_count == 3
    assert [(r.ts, r.src_ip) for r in records] == [(i + 0.5, "h" * 300) for i in range(3)]


@pytest.mark.parametrize(
    "token",
    ["01.5", "1_0.5", ".5", "5.", "-1.0", "-0", "NaN", "Infinity", "1e400", '"1.0"', "true",
     pytest.param("1" * 5001, id="5001-digits"),
     # Whitespace and digits that str.strip() and float() take but JSON does not.
     pytest.param("\x0c1.0", id="form-feed"), pytest.param("\u00a01.0", id="no-break-space"),
     pytest.param("1\u0661.5", id="arabic-indic-digit")],
)
def test_read_records_bad_ts_on_a_memoized_tail(tmp_path, token):
    path = tmp_path / "t.jsonl"
    path.write_text('{"ts":1.5' + TAIL + "\n" + '{"ts":' + token + TAIL + "\n")
    expected = _outcome(ref_read_records, str(path))
    assert _outcome(read_records, str(path)) == expected
    if token != "-0":  # -0 is valid JSON, the integer 0: both read ts 0.0
        assert expected.startswith(f"{path}:2: ")


@st.composite
def json_lines_files(draw):
    """Lines that share a few tails, in several layouts, with good and bad ts tokens.

    Lines may be indented, carry whitespace after the closing brace and end
    in ``\\n`` or ``\\r\\n``; the last line may have no line end.
    """
    tails = []
    for _ in range(draw(st.integers(1, 4))):
        fields = {
            "src_ip": draw(st.sampled_from(["10.0.0.1", "10.0.10.7"])),
            "src_port": draw(st.sampled_from([502, 50123])),
            "dst_ip": draw(st.sampled_from(["10.0.0.1", "10.0.10.7"])),
            "dst_port": draw(st.sampled_from([502, 50123])),
            "proto": draw(st.sampled_from(["tcp", "udp"])),
            "size": draw(st.integers(60, 61)),
        }
        spaced = draw(st.booleans())
        text = json.dumps(fields, separators=(", ", ": ") if spaced else (",", ":"))[1:]
        kind = draw(st.sampled_from(["plain", "escaped key", "duplicate ts", "escaped duplicate ts"]))
        if kind == "escaped key":
            text = text.replace('"src_ip"', '"src\\u005fip"')
        elif kind != "plain":
            key = '"ts"' if kind == "duplicate ts" else '"\\u0074s"'
            text = f"{text[:-1]},{key}:{draw(st.integers(0, 99))}.5}}"
        tails.append(("," + " " * spaced) + text)
    valid = st.one_of(
        st.floats(0, 1e12).map(repr),
        st.integers(0, 10**20).map(str),
        st.sampled_from(["0", "0.0", "1e3", "2E-3", "1.5e+2", "0e0"]),
    )
    bad = st.sampled_from(["-0", "-1.0", "01.5", "1_0.5", ".5", "5.", "NaN", "1e400", '"1.0"',
                           "true", "[1.0]", "\x0c1.0", "\u00a01.0", "1\u0661.5", "1" * 400])
    # A bad line makes the outcome its error alone, which would hide a wrong
    # record before it, so half the files hold none.
    with_bad = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(1, 25))):
        token = draw(bad) if with_bad and draw(st.integers(0, 7)) == 0 else draw(valid)
        space = draw(st.sampled_from(["", " ", "\t", " \t "]))
        head = draw(st.sampled_from(['{"ts":', '{"ts":', '{ "ts":']))
        indent = draw(st.sampled_from(["", "", "", " ", "\t", " \t"]))
        after = draw(st.sampled_from(["", "", "", " ", "\t", " \t "]))
        newline = draw(st.sampled_from(["\n", "\r\n"]))
        lines.append(indent + head + space + token + draw(st.sampled_from(["", " "]))
                     + draw(st.sampled_from(tails)) + after + newline)
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


@settings(max_examples=300)
@given(text=json_lines_files(), memo_entries=st.sampled_from([1, 2, 4096]))
# An indented line, decoded in full, between two lines that share a tail.
@example(
    text='{"ts":1.5' + TAIL + '\n {"ts":2.5' + TAIL.replace("10.0.0.1", "10.0.0.3") + '\n{"ts":3.5' + TAIL + "\n",
    memo_entries=4096,
)
def test_read_records_matches_reference(tmp_path_factory, text, memo_entries):
    path = tmp_path_factory.mktemp("memo") / "t.jsonl"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(ingest, "_TAIL_MEMO_ENTRIES", memo_entries):
        got = _outcome(read_records, str(path))
    assert got == _outcome(ref_read_records, str(path))


def test_read_records_with_more_tails_than_the_memo_holds(tmp_path):
    count = ingest._TAIL_MEMO_ENTRIES + 1000
    lines = [f'{{"ts":{i}.5,"src_ip":"10.0.0.1","src_port":{i % 60000},"dst_ip":"10.0.0.2",'
             f'"dst_port":502,"proto":"tcp","size":{60 + i // 60000}}}' for i in range(count)]
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines + [line.replace(".5,", ".75,", 1) for line in lines]) + "\n")
    got = _outcome(read_records, str(path))
    assert len(got) == 2 * count
    assert got == _outcome(ref_read_records, str(path))


def test_read_records_keeps_learning_tails_once_the_memo_is_full(tmp_path):
    count = ingest._TAIL_MEMO_ENTRIES + 1
    lines = [f'{{"ts":{i}.5,"src_ip":"10.0.0.1","src_port":{i},"dst_ip":"10.0.0.2",'
             f'"dst_port":502,"proto":"tcp","size":60}}' for i in range(count)]
    # A new tail, after more distinct ones than the memo holds, is decoded once.
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines + [f'{{"ts":{count + i}.5{TAIL}' for i in range(10)]) + "\n")
    with mock.patch.object(ingest, "_build_record", wraps=ingest._build_record) as build:
        records = list(read_records(str(path)))
    assert build.call_count == count + 1
    assert len(records) == count + 10
    assert records[-1] == PacketRecord(count + 9.5, "10.0.0.1", 502, "10.0.0.2", 50000, "tcp", 60)


# --- filtering ----------------------------------------------------------------


def rec(ts=0.0, sport=10000, dport=20000, proto="tcp", size=100, src="1.1.1.1", dst="2.2.2.2"):
    return PacketRecord(ts, src, sport, dst, dport, proto, size)


def test_default_list_has_eleven_ports():
    assert len(DEFAULT_SERVICE_PORTS) == 11


def test_filter_drops_dns():
    out = list(filter_packets([rec(dport=53)], FilterConfig()))
    assert out == []


def test_filter_keeps_scada_port():
    keep = rec(sport=20000, dport=51382)
    assert list(filter_packets([keep], FilterConfig())) == [keep]


def test_filter_drops_non_tcp_when_asked():
    packets = [rec(proto="icmp"), rec(proto="udp", dport=9), rec(proto="tcp")]
    kept = list(filter_packets(packets, FilterConfig()))
    assert kept == [packets[2]]


def test_filter_counts_add_up():
    packets = [rec(dport=53), rec(), rec(sport=123), rec(dport=9999)]
    stats = FilterStats()
    kept = list(filter_packets(packets, FilterConfig(), stats))
    assert stats.kept == len(kept) == 2
    assert stats.kept + stats.dropped == len(packets)


def test_filter_counts_reach_stats_when_a_partly_read_stream_closes():
    packets = [rec(dport=53), rec(), rec(sport=123), rec(dport=9999), rec(dport=53)]
    stats = FilterStats()
    stream = filter_packets(packets, FilterConfig(), stats)
    assert next(stream) is packets[1]
    assert (stats.kept, stats.dropped) == (0, 0)  # counted in locals until the end
    stream.close()
    assert (stats.kept, stats.dropped) == (1, 1)


def test_filter_service_mix_fraction():
    # build a mix with a known 7% share of service-port chatter
    rng = random.Random(99)
    packets = []
    for i in range(10000):
        if rng.random() < 0.07:
            packets.append(rec(ts=i * 0.001, dport=rng.choice(sorted(DEFAULT_SERVICE_PORTS))))
        else:
            packets.append(rec(ts=i * 0.001, dport=30000 + rng.randint(0, 999)))
    stats = FilterStats()
    list(filter_packets(packets, FilterConfig(), stats))
    kept_fraction = stats.kept / len(packets)
    assert abs(kept_fraction - 0.93) < 0.01


@given(
    st.lists(
        st.tuples(
            st.integers(0, 65535),
            st.integers(0, 65535),
            st.sampled_from(["tcp", "udp", "icmp"]),
        ),
        max_size=60,
    )
)
def test_filter_is_idempotent_subsequence(triples):
    packets = [
        rec(ts=i * 1.0, sport=sp, dport=dp, proto=proto)
        for i, (sp, dp, proto) in enumerate(triples)
    ]
    config = FilterConfig()
    once = list(filter_packets(packets, config))
    twice = list(filter_packets(once, config))
    assert twice == once
    it = iter(packets)
    assert all(any(p is q for q in it) for p in once)  # subsequence, order preserved


def test_filter_config_rejects_bad_port():
    with pytest.raises(ValueError):
        FilterConfig(service_ports=frozenset({70000}))


# --- time ordering ------------------------------------------------------------


def test_ensure_time_order_repairs_small_disorder():
    packets = [rec(ts=t) for t in (0.0, 0.4, 0.2, 1.2, 1.1, 2.8)]
    out = ensure_time_order(packets)
    assert [r.ts for r in out] == sorted(p.ts for p in packets)


def test_ensure_time_order_rejects_large_disorder():
    packets = [rec(ts=t) for t in (0.0, 5.0, 6.0, 7.0, 1.0)]
    with pytest.raises(OutOfOrderError):
        list(ensure_time_order(packets))


def test_ensure_time_order_force_sort():
    packets = [rec(ts=t) for t in (9.0, 1.0, 5.0)]
    out = list(ensure_time_order(packets, force_sort=True))
    assert [r.ts for r in out] == [1.0, 5.0, 9.0]


@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), max_size=50))
def test_ensure_time_order_force_sort_always_sorted(times):
    out = list(ensure_time_order([rec(ts=t) for t in times], force_sort=True))
    assert [r.ts for r in out] == sorted(times)


def _drain(stream, error):
    """Records yielded before the stream ended, and the message it raised."""
    out = []
    try:
        for item in stream:
            out.append(item)
    except error as exc:
        return out, str(exc)
    return out, None


@st.composite
def timestamp_runs(draw):
    """Quarter-second timestamps: in order, with repeats, then jittered back.

    A jitter below the window is repairable disorder; one at or above it may
    be too late.  Quarters are exact in binary, so ties with the window edge
    and equal timestamps both occur.
    """
    steps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.5]), max_size=60))
    jitter = draw(
        st.lists(
            st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.75, 1.0, 1.5, 4.0]),
            min_size=len(steps),
            max_size=len(steps),
        )
    )
    times, t = [], 10.0
    for step, back in zip(steps, jitter):
        t += step
        times.append(t - back)
    return times


@given(timestamp_runs(), st.sampled_from([0.5, 1.0, 2.0]))
@example([10.0, 10.0, 10.0, 9.75, 10.0], 1.0)  # equal timestamps held when disorder starts
@example([10.0, 10.5, 9.75, 11.0, 12.0, 10.75], 1.0)  # repaired, then too late
@example([10.0, 9.75, 10.75, 9.7], 1.0)  # a late entry leaves exactly at the window edge
def test_ensure_time_order_matches_reference(times, window):
    # The window is fixed at 1 s; dividing the times by ``window`` reorders
    # them as that window would the undivided ones.  The division is exact
    # for powers of two.
    packets = [rec(ts=t / window, sport=i) for i, t in enumerate(times)]
    got, got_err = _drain(ensure_time_order(packets), OutOfOrderError)
    want, want_err = _drain(ref_time_order(packets), RefOutOfOrder)
    assert [id(r) for r in got] == [id(r) for r in want]
    assert got_err == want_err


@pytest.mark.parametrize("late_share", [0.01, 0.1])
def test_ensure_time_order_matches_reference_on_dense_disorder(late_share):
    # About 2,048 records a second, in pairs of equal times, so the buffer
    # holds a window of some two thousand records and a late one goes in
    # deep inside it.  A late record arrives where its time plus a delay
    # below 0.9 s would be, so none is too late.
    rng = random.Random(1016)
    arrivals = []
    for i in range(20_000):
        ts = (i // 2) / 1024
        delay = rng.uniform(0.0, 0.9) if rng.random() < late_share else 0.0
        arrivals.append((ts + delay, rec(ts=ts, sport=i)))
    arrivals.sort(key=lambda pair: pair[0])
    packets = [packet for _, packet in arrivals]
    assert packets != sorted(packets, key=lambda r: r.ts)
    got = list(ensure_time_order(packets))
    assert [id(r) for r in got] == [id(r) for r in ref_time_order(packets)]


def test_ensure_time_order_holds_an_early_far_future_record():
    # Not refused: it waits for the stream to catch up, and so comes last,
    # where a trace's tail does not show it.
    packets = [rec(ts=t, sport=i) for i, t in enumerate((0.0, 1.0, 1000.0, 2.0, 3.0, 4.0))]
    out = list(ensure_time_order(packets))
    assert [r.ts for r in out] == [0.0, 1.0, 2.0, 3.0, 4.0, 1000.0]
    assert [id(r) for r in out] == [id(r) for r in ref_time_order(packets)]


# --- last-timestamp hint --------------------------------------------------------


def _stream_end(path, config=None):
    """The last timestamp of the ordered, filtered stream, read in full."""
    records = ensure_time_order(ingest.open_trace(str(path)))
    if config is not None:
        records = filter_packets(records, config)
    last = None
    for last in records:
        pass
    return None if last is None else last.ts


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("block", [1, 2, 7, 64, ingest._TAIL_BYTES])
def test_records_backwards_reverses_read_records(tmp_path, monkeypatch, newline, block):
    records = list(generate(dataset1_like(duration=60.0, seed=7, fds=3))[0])[:30]
    lines = [r.to_json() for r in records]
    lines[4:4] = ["", "   "]
    path = tmp_path / "t.jsonl"
    path.write_bytes((newline.join(lines) + newline).encode())
    monkeypatch.setattr(ingest, "_TAIL_BYTES", block)
    assert list(ingest._records_backwards(str(path))) == list(read_records(str(path)))[::-1]


def test_records_backwards_passes_over_lines_that_do_not_decode(tmp_path):
    good = [rec(ts=float(t)).to_json() for t in range(3)]
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join([good[0], "{oops", good[1], '{"ts": -1}', good[2], "\xff"]) + "\n")
    assert [r.ts for r in ingest._records_backwards(str(path))] == [2.0, 1.0, 0.0]


@pytest.mark.parametrize("fmt", ["jsonl", "pcap"])
@pytest.mark.parametrize("filtered", [False, True])
def test_last_timestamp_hint_is_the_stream_end(tmp_path, monkeypatch, fmt, filtered):
    # Mild disorder at the end, and UDP chatter the filter drops.
    records = list(generate(dataset1_like(duration=600.0, seed=8, fds=4))[0])
    records.append(dataclasses.replace(records[-1], ts=records[-1].ts - 0.5))
    path = tmp_path / f"t.{fmt}"
    (write_records if fmt == "jsonl" else write_pcap)(records, str(path))
    config = FilterConfig() if filtered else None
    want = _stream_end(path, config)
    assert want is not None
    for chunk in (16, 17, 50, ingest._CHUNK_BYTES):
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
        assert ingest.last_timestamp_hint(str(path), config) == want


def test_last_timestamp_hint_misses_a_far_future_line_but_not_a_frame(tmp_path):
    packets = [rec(ts=t, sport=i) for i, t in enumerate((0.0, 1.0, 1000.0, 2.0, 3.0, 4.0))]
    jsonl, pcap = tmp_path / "t.jsonl", tmp_path / "t.pcap"
    write_records(packets, str(jsonl))
    write_pcap(packets, str(pcap))
    assert _stream_end(jsonl) == _stream_end(pcap) == 1000.0
    assert ingest.last_timestamp_hint(str(jsonl)) == 4.0
    assert ingest.last_timestamp_hint(str(pcap)) == 1000.0


def test_last_timestamp_hint_reads_past_late_lines_within_the_window(tmp_path):
    # The two last lines are late by less than the window, so the newest
    # record lies before them.
    packets = [rec(ts=t, sport=i) for i, t in enumerate((1.0, 5.0, 10.0, 9.5, 9.8))]
    jsonl, pcap = tmp_path / "t.jsonl", tmp_path / "t.pcap"
    write_records(packets, str(jsonl))
    write_pcap(packets, str(pcap))
    for path in (jsonl, pcap):
        assert ingest.last_timestamp_hint(str(path)) == _stream_end(path) == 10.0


def test_last_timestamp_hint_starts_at_the_last_mark_a_window_before_the_latest(tmp_path):
    # The pcap walk marks 1.0, 5.0 and 6.2.  The frames from the 5.0 mark on
    # hold 5.5, the newest one the filter keeps; from the 6.2 mark on there
    # is only the UDP frame it drops.
    packets = [rec(ts=1.0, sport=1), rec(ts=5.0, sport=2), rec(ts=5.5, sport=3), rec(ts=6.2, sport=4, proto="udp")]
    jsonl, pcap = tmp_path / "t.jsonl", tmp_path / "t.pcap"
    write_records(packets, str(jsonl))
    write_pcap(packets, str(pcap))
    for path in (jsonl, pcap):
        assert ingest.last_timestamp_hint(str(path), FilterConfig()) == _stream_end(path, FilterConfig()) == 5.5


def test_last_timestamp_hint_of_empty_traces(tmp_path):
    jsonl, pcap = tmp_path / "t.jsonl", tmp_path / "t.pcap"
    write_records([], str(jsonl))
    write_pcap([], str(pcap))
    assert ingest.last_timestamp_hint(str(jsonl)) is None
    assert ingest.last_timestamp_hint(str(pcap)) is None
    # Nothing the filter keeps.
    write_records([rec(ts=1.0, proto="udp")], str(jsonl))
    assert ingest.last_timestamp_hint(str(jsonl), FilterConfig()) is None


def test_last_timestamp_hint_stops_at_a_bogus_record_length(tmp_path):
    # The header walk stops there, and the frames parsed after it raise as
    # the full read does, at the same byte offset.
    frame = eth_ipv4_tcp("10.0.0.1", 20000, "10.0.0.2", 51382, 100)
    bogus = struct.pack("<IIII", 2000, 0, ingest.MAX_RECORD_BYTES + 1, 0)
    path = tmp_path / "bogus.pcap"
    path.write_bytes(pcap_bytes([frame] * 3) + bogus + frame * 400)
    with pytest.raises(PcapFormatError) as full:
        list(read_pcap(str(path)))
    with pytest.raises(PcapFormatError) as hint:
        ingest.last_timestamp_hint(str(path))
    assert str(hint.value) == str(full.value)


def test_sniff_format(tmp_path):
    p1 = tmp_path / "x.pcap"
    p1.write_bytes(GLOBAL_HDR_LE)
    p2 = tmp_path / "x.jsonl"
    p2.write_text("{}\n")
    assert ingest.sniff_format(str(p1)) == "pcap"
    assert ingest.sniff_format(str(p2)) == "records"
