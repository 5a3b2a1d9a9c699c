"""Trace ingestion: pcap / JSON-lines readers, service-port filtering, time ordering.

Only classic pcap (magic 0xa1b2c3d4 for microsecond or 0xa1b23c4d for
nanosecond timestamps, either byte order, Ethernet link layer) is supported.
The canonical text format is JSON lines with one packet object per line, see
``read_records``.
"""

from __future__ import annotations

import json
import logging
import math
import re
import struct
import sys
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Iterator

log = logging.getLogger(__name__)

TCP = "tcp"
UDP = "udp"
ICMP = "icmp"
OTHER = "other"
TRANSPORTS = frozenset((TCP, UDP, ICMP, OTHER))

# Eleven common network service ports dropped by the ingest filter when it is
# enabled: SSH, Telnet, DNS, HTTP, NTP, NetBIOS (x3), SNMP, HTTPS, SMB.
DEFAULT_SERVICE_PORTS = frozenset({22, 23, 53, 80, 123, 137, 138, 139, 161, 443, 445})

PCAP_MAGIC_LE = 0xA1B2C3D4
PCAP_MAGIC_BE = 0xD4C3B2A1
PCAP_MAGIC_NS_LE = 0xA1B23C4D
PCAP_MAGIC_NS_BE = 0x4D3CB2A1
ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_8021Q = 0x8100

# The first four bytes of a capture read little-endian -> (byte order of the
# file, timestamp fractions per second).
_PCAP_MAGICS = {
    PCAP_MAGIC_LE: ("<", 1e6),
    PCAP_MAGIC_BE: (">", 1e6),
    PCAP_MAGIC_NS_LE: ("<", 1e9),
    PCAP_MAGIC_NS_BE: (">", 1e9),
}
# 802.1Q and 802.1ad tag protocol identifiers.
_VLAN_TPIDS = frozenset((ETHERTYPE_8021Q, 0x88A8))

# How far back in time ``ensure_time_order`` puts a late record in place, in
# seconds.
REORDER_WINDOW = 1.0

# The pcap reader's read size.  It bounds the reader's memory, so the file is
# neither mapped nor read whole.
_CHUNK_BYTES = 1 << 20
# The block size of ``_records_backwards``: a trace's tail needs a few lines,
# and a larger block leaves more freed line objects behind for the pass.
_TAIL_BYTES = 1 << 16
# The largest captured length a pcap record may claim: libpcap's maximum
# snapshot length for Ethernet, above which it refuses a record as invalid.
# The reader bounds the wire length by it too, so that a corrupt one cannot
# become a segment size that flattens every other 5-tuple's sR.
MAX_RECORD_BYTES = 262_144
# A 20-byte IPv4 header: the version/IHL byte, flags and fragment offset,
# protocol, source and destination address.
_IPV4 = struct.Struct(">B5xHxB2xII")
# From frame offset 12: the EtherType, the same fields and the two ports
# behind a 20-byte IPv4 header, to frame offset 38.
_ETH_IPV4_PORTS = struct.Struct(">HB5xHxB2xIIHH")
_PORTS = struct.Struct(">HH")

_IP_PROTO_NAMES = {6: TCP, 17: UDP, 1: ICMP}

# What ``json.dumps(obj, separators=(",", ":"))`` builds on every call: the
# compact layout of every JSON-lines record and segment dump line.
compact_json = json.JSONEncoder(separators=(",", ":")).encode
# The string quoting that ``compact_json``'s C encoder calls.
_quote = json.encoder.encode_basestring_ascii

# How many record tails ``read_records`` remembers, and how long one may be.
# Polling repeats a few hundred tails per trace.  4,096 tails of the
# ~110-character lines ``synth`` writes take 1.2 MB, and the length bound
# keeps a file of long lines from taking more than about 2 MB.  A full memo
# starts afresh, so a trace whose conversations churn keeps learning.
_TAIL_MEMO_ENTRIES = 4096
_TAIL_MAX_CHARS = 256
# The start of a line as read whose ts may come from the memo: ``{"ts":``, an
# unsigned JSON number (RFC 8259, ASCII digits) as group 1 between optional
# JSON whitespace, and the comma that ends the first member.
_MEMO_HEAD = re.compile(
    r'\{"ts":[ \t\r\n]*((?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)[ \t\r\n]*,'
)


class PcapFormatError(ValueError):
    """The file is not a readable classic pcap capture."""


class RecordFormatError(ValueError):
    """A JSON-lines packet record failed to parse or validate."""


class OutOfOrderError(ValueError):
    """Timestamps ran backwards beyond the reorder window."""


@dataclass(slots=True)
class PacketRecord:
    """One captured packet: time, endpoints, transport, byte size on the wire."""

    ts: float
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    proto: str
    size: int

    def to_json(self) -> str:
        """The record as ``json.dumps(fields, separators=(",", ":"))`` writes it.

        A canonical record (a finite float ts, exact int ports and size, exact
        str addresses and proto), which is every record ``synth`` makes, is
        formatted directly: ``compact_json`` builds a new C encoder per call,
        most of the cost of writing a line.  Any other takes ``compact_json``.
        """
        ts, src_ip, src_port, dst_ip, dst_port, proto, size = (
            self.ts, self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.proto, self.size
        )
        if (
            type(ts) is float and math.isfinite(ts)
            and type(src_port) is int and type(dst_port) is int and type(size) is int
            and type(src_ip) is str and type(dst_ip) is str and type(proto) is str
        ):
            return (
                f'{{"ts":{ts!r},"src_ip":{_quote(src_ip)},"src_port":{src_port},'
                f'"dst_ip":{_quote(dst_ip)},"dst_port":{dst_port},"proto":{_quote(proto)},"size":{size}}}'
            )
        return compact_json(
            {"ts": ts, "src_ip": src_ip, "src_port": src_port, "dst_ip": dst_ip,
             "dst_port": dst_port, "proto": proto, "size": size}
        )


@dataclass
class FilterConfig:
    """The service ports dropped before segmentation, besides every non-TCP packet."""

    service_ports: frozenset[int] = DEFAULT_SERVICE_PORTS

    def __post_init__(self) -> None:
        self.service_ports = frozenset(self.service_ports)
        for port in self.service_ports:
            if not 0 <= port <= 65535:
                raise ValueError(f"service port out of range: {port}")


SKIP_REASONS = ("short", "non_ipv4", "fragment", "transport")


@dataclass
class IngestStats:
    """Counters filled in while reading a capture.

    ``snapped`` counts the frames captured short of their wire length, as a
    capture with a snapshot length cuts them; they are read all the same.
    ``skipped`` is the total of the frames skipped for each reason:
    ``short``, too few captured bytes for the Ethernet and IPv4 headers, the
    IPv4 options or the TCP/UDP ports; ``non_ipv4``, another EtherType
    (behind at most two VLAN tags), an IP version other than 4 or an IHL
    under 20 bytes; ``fragment``, a non-first IPv4 fragment; ``transport``,
    an IP protocol other than TCP, UDP and ICMP.
    """

    frames: int = 0
    yielded: int = 0
    skipped: int = 0
    truncated: bool = False
    snapped: int = 0
    short: int = 0
    non_ipv4: int = 0
    fragment: int = 0
    transport: int = 0


@dataclass
class FilterStats:
    kept: int = 0
    dropped: int = 0


def read_pcap(
    path: str, stats: IngestStats | None = None, start: int = 24
) -> Iterator[PacketRecord]:
    """Yield one PacketRecord per TCP/UDP/ICMP packet with an IPv4 header.

    ``size`` is the wire length (``orig_len`` in the pcap record header)
    from the IPv4 header on, plus 14 for an untagged Ethernet header: an
    untagged frame's whole wire length, so a frame cut short by a snapshot
    length keeps its size, and a VLAN tag adds nothing.  Up to two
    802.1Q/802.1ad VLAN tags in front of the IPv4 header are stripped.
    Every other frame is counted in ``stats.skipped`` and under its reason
    (see ``IngestStats``); that includes non-first IPv4 fragments (non-zero
    fragment offset, so no ports).  A truncated trailing record ends the
    stream cleanly with a warning.  A record claiming more than
    ``MAX_RECORD_BYTES`` captured or wire bytes, or a wire length below its
    captured length, raises PcapFormatError naming its byte offset.  The
    counts reach ``stats`` when the stream ends or is closed.

    There are two decode paths.  A plain frame, untagged IPv4 with a 20-byte
    header and no fragment offset carrying TCP or UDP in at least 38
    captured bytes, is decoded with one read.  So is the same frame behind
    one 802.1Q tag, in at least 42 bytes, with a second read 4 bytes on.
    Every other frame takes the general checks, which read its IPv4 header
    once, wherever the VLAN tags put it, and then its ports.

    The file is read in ``_CHUNK_BYTES`` pieces into one buffer and parsed
    in place; a record that straddles two pieces is carried over to the
    next.  The buffer holds a chunk and at least one record of the largest
    allowed length, so it never grows.  ``start`` is the byte offset of the
    first record read, which must be a record boundary.
    """
    if stats is None:
        stats = IngestStats()
    with open(path, "rb") as fp:
        unpack_record, frac_scale = _pcap_layout(path, fp.read(24))
        fp.seek(start)
        unpack_frame = _ETH_IPV4_PORTS.unpack_from
        unpack_ipv4 = _IPV4.unpack_from
        unpack_ports = _PORTS.unpack_from
        proto_names = _IP_PROTO_NAMES
        names = _DottedQuads()
        frames = snapped = short = non_ipv4 = fragment = transport = 0
        chunk = _CHUNK_BYTES
        buf = bytearray(max(chunk, 16 + MAX_RECORD_BYTES))
        pos = end = 0  # next unread byte, end of the bytes read
        try:
            while True:
                if pos:
                    buf[: end - pos] = buf[pos:end]
                    pos, end = 0, end - pos
                got = fp.readinto(memoryview(buf)[end : end + chunk])
                if not got:
                    break
                end += got
                while True:
                    if end - pos < 16:
                        break
                    ts_sec, ts_frac, caplen, orig_len = unpack_record(buf, pos)
                    if orig_len > MAX_RECORD_BYTES or caplen > orig_len:
                        raise _refused_record(path, fp.tell() - end + pos, caplen, orig_len)
                    frame = pos + 16
                    stop = frame + caplen
                    if stop > end:
                        break
                    pos = stop
                    frames += 1
                    if caplen < orig_len:
                        snapped += 1
                    if caplen >= 38:
                        size = orig_len
                        ethertype, ver_ihl, frag, proto_num, src, dst, src_port, dst_port = unpack_frame(
                            buf, frame + 12
                        )
                        if ethertype == ETHERTYPE_8021Q and caplen >= 42:
                            # One 802.1Q tag: the same fields, 4 bytes on.
                            size = orig_len - 4
                            ethertype, ver_ihl, frag, proto_num, src, dst, src_port, dst_port = unpack_frame(
                                buf, frame + 16
                            )
                        # IPv4, a 20-byte header, no fragment offset, TCP or
                        # UDP: the ports were read with the header.
                        if (
                            ethertype == ETHERTYPE_IPV4 and ver_ihl == 0x45 and not frag & 0x1FFF
                            and (proto_num == 6 or proto_num == 17)
                        ):
                            yield PacketRecord(
                                ts_sec + ts_frac / frac_scale, names[src], src_port, names[dst], dst_port,
                                TCP if proto_num == 6 else UDP, size,
                            )
                            continue
                    # Every other frame takes the general checks, read from its
                    # own bytes.
                    if caplen < 34:  # ethernet + minimal IPv4
                        short += 1
                        continue
                    ip = frame + 14
                    if (buf[frame + 12] << 8) | buf[frame + 13] != ETHERTYPE_IPV4:
                        ip = _untag(buf, frame)
                        if ip < 0:
                            non_ipv4 += 1
                            continue
                    if stop - ip < 20:
                        short += 1
                        continue
                    ver_ihl, frag, proto_num, src, dst = unpack_ipv4(buf, ip)
                    ihl = (ver_ihl & 0x0F) * 4
                    if ver_ihl >> 4 != 4 or ihl < 20:
                        non_ipv4 += 1
                        continue
                    l4 = ip + ihl
                    if l4 > stop:
                        short += 1
                        continue
                    if frag & 0x1FFF:  # non-first fragment: no transport header
                        fragment += 1
                        continue
                    proto = proto_names.get(proto_num)
                    if proto is None:
                        transport += 1
                        continue
                    if proto_num == 1:  # ICMP
                        src_port = dst_port = 0
                    elif stop - l4 < 4:
                        short += 1
                        continue
                    else:
                        src_port, dst_port = unpack_ports(buf, l4)
                    yield PacketRecord(
                        ts_sec + ts_frac / frac_scale, names[src], src_port, names[dst], dst_port, proto,
                        orig_len - (ip - frame) + 14,
                    )
            if pos < end:
                stats.truncated = True
                if end - pos < 16:
                    log.warning("%s: truncated record header at end of file", path)
                else:
                    log.warning(
                        "%s: truncated final record (%d of %d bytes)",
                        path, end - pos - 16, unpack_record(buf, pos)[2],
                    )
        finally:
            # Every complete frame is yielded or skipped for exactly one reason.
            skipped = short + non_ipv4 + fragment + transport
            stats.frames += frames
            stats.snapped += snapped
            stats.yielded += frames - skipped
            stats.short += short
            stats.non_ipv4 += non_ipv4
            stats.fragment += fragment
            stats.transport += transport
            stats.skipped += skipped


def _pcap_layout(path: str, header: bytes) -> tuple[Callable, float]:
    """Check a pcap global header; return its record-header reader and time unit.

    The reader unpacks (ts_sec, ts_frac, incl_len, orig_len) in the file's
    byte order; ``ts_frac`` counts microseconds, or nanoseconds in a
    nanosecond capture, and the second value is its count per second.
    """
    if len(header) < 24:
        raise PcapFormatError(f"{path}: file shorter than a pcap global header")
    magic = struct.unpack("<I", header[:4])[0]
    layout = _PCAP_MAGICS.get(magic)
    if layout is None:
        raise PcapFormatError(f"{path}: bad magic 0x{magic:08x}")
    endian, frac_scale = layout
    link_type = struct.unpack(endian + "I", header[20:24])[0]
    if link_type != 1:
        raise PcapFormatError(f"{path}: unsupported link-layer type {link_type}")
    return struct.Struct(endian + "IIII").unpack_from, frac_scale


def _refused_record(path: str, offset: int, caplen: int, orig_len: int) -> PcapFormatError:
    """The error for the record at ``offset`` whose captured length
    ``caplen`` or wire length ``orig_len`` the reader refuses, worded for the
    first of these that holds: ``caplen`` above ``MAX_RECORD_BYTES``,
    ``orig_len`` below ``caplen``, ``orig_len`` above ``MAX_RECORD_BYTES``."""
    where = f"{path}: record at byte offset {offset}"
    if caplen > MAX_RECORD_BYTES:
        return PcapFormatError(f"{where} claims {caplen} bytes, above the {MAX_RECORD_BYTES}-byte limit")
    if orig_len < caplen:
        return PcapFormatError(f"{where} has wire length {orig_len} below its captured length {caplen}")
    return PcapFormatError(
        f"{where} claims a wire length of {orig_len} bytes, above the {MAX_RECORD_BYTES}-byte limit"
    )


def _untag(buf: bytearray, frame: int) -> int:
    """Offset of the IPv4 header behind up to two VLAN tags, or -1.

    Only called for a frame whose outer EtherType is not IPv4; the caller
    has checked that the frame holds at least 34 bytes.
    """
    ip = frame + 14
    for _ in range(2):
        if (buf[ip - 2] << 8) | buf[ip - 1] not in _VLAN_TPIDS:
            return -1
        ip += 4
        if (buf[ip - 2] << 8) | buf[ip - 1] == ETHERTYPE_IPV4:
            return ip
    return -1


class _DottedQuads(dict):
    """IPv4 address as an int -> its interned dotted quad, made on first use."""

    def __missing__(self, addr: int) -> str:
        name = self[addr] = sys.intern(f"{addr >> 24}.{(addr >> 16) & 0xFF}.{(addr >> 8) & 0xFF}.{addr & 0xFF}")
        return name


def read_records(path: str, stats: IngestStats | None = None) -> Iterator[PacketRecord]:
    """Yield PacketRecords from the canonical JSON-lines format, in file order.

    Each line is an object with keys ts, src_ip, src_port, dst_ip, dst_port,
    proto, size, checked as ``_build_record`` says.  Bad lines raise
    RecordFormatError naming the line number.  The counts reach ``stats``
    when the stream ends or is closed.

    A line that, as read, begins ``{"ts":``, an unsigned JSON number
    between optional JSON whitespace and a comma (``_MEMO_HEAD``), and whose
    rest (its tail, line end included) repeats that of an earlier valid line
    is not decoded again: when the number's value is finite, the record is
    that number and the fields the tail gave before.  Every other line is
    decoded in full, so one validator words every error.  A tail is
    remembered only when its line matched ``_MEMO_HEAD`` and the tail holds
    no backslash and no ``"ts"``, which could be a key that overrides the
    first ts; at most ``_TAIL_MEMO_ENTRIES`` tails of at most
    ``_TAIL_MAX_CHARS`` characters are remembered, and a full memo is
    cleared before the next tail goes in.
    """
    if stats is None:
        stats = IngestStats()
    match_head = _MEMO_HEAD.match
    tails: dict[str, tuple[str, int, str, int, str, int]] = {}
    count = 0  # records yielded
    try:
        with open(path, "r", encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, start=1):
                head = match_head(line)
                if head is not None:
                    tail = line[head.end() :]
                    fields = tails.get(tail)
                    if fields is not None:
                        ts = float(head[1])
                        if ts < _INF:
                            count += 1
                            yield PacketRecord(ts, *fields)
                            continue
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = _decode_line(line)
                except _InvalidRecord as exc:
                    raise RecordFormatError(f"{path}:{lineno}: {exc}") from exc.__cause__
                if head is not None and len(tail) <= _TAIL_MAX_CHARS and "\\" not in tail and '"ts"' not in tail:
                    if len(tails) >= _TAIL_MEMO_ENTRIES:
                        tails.clear()
                    tails[tail] = (rec.src_ip, rec.src_port, rec.dst_ip, rec.dst_port, rec.proto, rec.size)
                count += 1
                yield rec
    except (RecordFormatError, UnicodeDecodeError) as exc:
        stats.frames += 1  # the line that failed was read, not yielded
        if isinstance(exc, UnicodeDecodeError):
            raise _undecodable(path, exc) from exc
        raise
    finally:
        stats.frames += count
        stats.yielded += count


def _undecodable(path: str, exc: UnicodeDecodeError) -> RecordFormatError:
    """``exc``, raised by the text reader of ``path``, as an error naming its line.

    The reader's offsets count within its decode buffer, so the file is read
    again, with its lines split the same way and each byte that is not UTF-8
    kept as a lone surrogate, to find the first line holding one.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fp:
        for lineno, line in enumerate(fp, start=1):
            if re.search("[\udc80-\udcff]", line):
                return RecordFormatError(f"{path}:{lineno}: invalid UTF-8 ({exc.reason})")
    return RecordFormatError(f"{path}: invalid UTF-8 ({exc.reason})")


class _InvalidRecord(ValueError):
    """Why one record failed; the caller prefixes where it came from."""


_INF = float("inf")


def _decode_line(line: str) -> PacketRecord:
    """The record of one stripped JSON-lines line: one whole JSON value that
    ``_build_record`` accepts.  Raises _InvalidRecord."""
    try:
        obj = json.loads(line)
    except RecursionError:
        raise _InvalidRecord("invalid JSON (nesting too deep)") from None
    except ValueError as exc:
        # Besides a JSONDecodeError, json.loads raises a plain ValueError for
        # an integer past the int/str digit limit.
        msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
        raise _InvalidRecord(f"invalid JSON ({msg})") from exc
    return _build_record(obj)


def _build_record(obj: dict) -> PacketRecord:
    """Validate one parsed record object and build a PacketRecord.

    ``ts`` is a finite, non-negative int or float; ports are ints in
    [0, 65535]; ``size`` is an int >= 1; ``proto`` is one of TRANSPORTS and
    both addresses are non-empty strings.  A bool is not a number here and
    nothing is coerced: ``"3"`` or ``80.9`` as a port is an error, not 3 or 80.
    Raises _InvalidRecord.
    """
    try:
        ts = obj["ts"]
        if type(ts) is not float:
            ts = _float_ts(ts)
        src_ip = obj["src_ip"]
        src_port = obj["src_port"]
        if type(src_port) is not int:
            raise _InvalidRecord(f"src_port must be an integer, got {src_port!r}")
        dst_ip = obj["dst_ip"]
        dst_port = obj["dst_port"]
        if type(dst_port) is not int:
            raise _InvalidRecord(f"dst_port must be an integer, got {dst_port!r}")
        proto = obj["proto"]
        size = obj["size"]
        if type(size) is not int:
            raise _InvalidRecord(f"size must be an integer, got {size!r}")
    except (KeyError, TypeError) as exc:
        raise _InvalidRecord(f"missing or malformed field ({exc})") from exc
    if not 0.0 <= ts < _INF:
        if ts < 0:
            raise _InvalidRecord(f"negative timestamp {ts}")
        raise _InvalidRecord(f"ts must be finite, got {ts}")
    if not 0 <= src_port <= 65535:
        raise _InvalidRecord(f"src_port out of range: {src_port}")
    if not 0 <= dst_port <= 65535:
        raise _InvalidRecord(f"dst_port out of range: {dst_port}")
    if type(proto) is not str or proto not in TRANSPORTS:
        raise _InvalidRecord(f"unknown proto {proto!r}")
    if size < 1:
        raise _InvalidRecord(f"size must be >= 1, got {size}")
    if type(src_ip) is not str or not src_ip or type(dst_ip) is not str or not dst_ip:
        raise _InvalidRecord("endpoint addresses must be non-empty strings")
    # ``+ 0.0`` turns a ts of -0.0, which passes the range check, into 0.0.
    return PacketRecord(
        ts + 0.0, sys.intern(src_ip), src_port, sys.intern(dst_ip), dst_port, sys.intern(proto), size
    )


def _float_ts(value) -> float:
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise _InvalidRecord(f"ts must be finite, got {value}") from None
    raise _InvalidRecord(f"ts must be a number, got {value!r}")


def filter_packets(
    records: Iterable[PacketRecord],
    config: FilterConfig,
    stats: FilterStats | None = None,
) -> Iterator[PacketRecord]:
    """Drop non-TCP and service-port packets; order preserved.

    The counts reach ``stats`` when the stream ends or is closed.
    """
    if stats is None:
        stats = FilterStats()
    ports = config.service_ports
    kept = dropped = 0
    try:
        for rec in records:
            if rec.proto != TCP or rec.src_port in ports or rec.dst_port in ports:
                dropped += 1
            else:
                kept += 1
                yield rec
    finally:
        stats.kept += kept
        stats.dropped += dropped


_by_ts = attrgetter("ts")


def ensure_time_order(
    records: Iterable[PacketRecord], force_sort: bool = False
) -> Iterator[PacketRecord]:
    """Yield records in non-decreasing timestamp order.

    A record is held until it is ``REORDER_WINDOW`` (1 s) older than the
    newest one, so a record arriving late by less than that is put back in
    place.  The window is fixed: ``last_timestamp_hint`` reads a trace's
    tail back over the same one.  A record older than one already yielded
    raises OutOfOrderError, unless ``force_sort`` is set, which buffers the
    whole stream and sorts it.  A record arriving early is never refused: it
    is held until the stream catches up, so ``[0, 1, 1000, 2, 3, 4]`` yields
    1000 last.  Equal timestamps keep their arrival order.

    The held records wait in one deque sorted by time, ties in arrival
    order: a record in order is appended, a late one is inserted after every
    held record not later than it, and records leave from the front.
    """
    if force_sort:
        yield from sorted(records, key=_by_ts)
        return
    window = REORDER_WINDOW
    held: deque[PacketRecord] = deque()
    high = float("-inf")
    out = None  # the record yielded last
    for rec in records:
        ts = rec.ts
        if ts >= high:
            held.append(rec)
            high = ts
        else:
            if out is not None and ts < out.ts:
                raise OutOfOrderError(
                    f"timestamp {ts:.6f} arrived after {out.ts:.6f} was emitted; "
                    f"disorder exceeds the {window}s reorder window (use force sort)"
                )
            held.insert(bisect_right(held, ts, key=_by_ts), rec)
        while held and high - held[0].ts >= window:
            out = held.popleft()
            yield out
    yield from held


def last_timestamp_hint(path: str, config: FilterConfig | None = None) -> float | None:
    """A cheap guess at the last timestamp of the trace's ordered, filtered stream.

    That timestamp is the largest of any record the filter keeps.  A JSON
    lines file is decoded backwards from its end until a kept record is
    ``REORDER_WINDOW`` older than the newest kept one; lines that do not
    decode are passed over, as the forward read names them.  A pcap file's
    record headers are walked to find a frame before every frame within
    ``REORDER_WINDOW`` of the latest frame time, and the frames from there
    on are parsed.  The
    guess can be wrong when a far earlier record is later than the file's
    tail, which ``ensure_time_order`` lets through; callers check it against
    the stream.  None means no kept record was found.
    """
    pcap = sniff_format(path) == "pcap"
    if pcap:
        offset, latest = _pcap_tail(path)
        records = read_pcap(path, start=offset)
    else:
        records = _records_backwards(path)
    if config is not None:
        records = filter_packets(records, config)
    if pcap:
        # The frames from the offset on hold every frame within the window of
        # the latest one, so a kept one among those makes the guess exact.
        # Otherwise the newest kept frame may lie before the offset; with no
        # kept frame after it, the latest frame time is as good a guess.
        return max((rec.ts for rec in records), default=latest)
    newest = None
    for rec in records:
        if newest is None or rec.ts > newest:
            newest = rec.ts
        elif newest - rec.ts >= REORDER_WINDOW:
            break
    return newest


def _records_backwards(path: str) -> Iterator[PacketRecord]:
    """The records of a JSON-lines file from its last line to its first.

    Lines are split as ``read_records`` splits them; a line that does not
    decode to a record is skipped.
    """
    with open(path, "rb") as fp:
        pos = fp.seek(0, 2)
        carry = b""
        while pos > 0:
            step = min(_TAIL_BYTES, pos)
            pos -= step
            fp.seek(pos)
            lines = (fp.read(step) + carry).splitlines()
            # The first line may go on in the block before.
            carry = lines.pop(0) if pos > 0 and lines else b""
            for raw in reversed(lines):
                try:
                    rec = _decode_line(raw.decode("utf-8").strip())
                except ValueError:
                    continue
                yield rec


def _pcap_tail(path: str) -> tuple[int, float | None]:
    """A byte offset before every frame within ``REORDER_WINDOW`` of the latest.

    Returns that offset and the latest frame time, None for a capture with
    no frame.  Only record headers are read.  The first frame at or after a
    time T is later than every frame before it, so any such record-setting
    frame earlier than T lies before it too.  The walk marks record-setting
    frames at least a window apart and keeps the last three marks, which
    include the last one earlier than the latest frame time less a window
    when there is one.  It stops at a record whose lengths the reader
    refuses, where the reader raises.
    """
    with open(path, "rb") as fp:
        unpack_record, frac_scale = _pcap_layout(path, fp.read(24))
        marks: deque[tuple[float, int]] = deque(maxlen=3)
        latest = -math.inf
        pos = 24  # file offset of buf[0]
        buf = b""
        i = size = 0  # next record header in buf, bytes in buf
        while True:
            if i + 16 > size:
                pos += i
                fp.seek(pos)
                buf = fp.read(_CHUNK_BYTES)
                i, size = 0, len(buf)
                if size < 16:
                    break
            ts_sec, ts_frac, caplen, orig_len = unpack_record(buf, i)
            if orig_len > MAX_RECORD_BYTES or caplen > orig_len:
                break
            ts = ts_sec + ts_frac / frac_scale
            if ts > latest:
                latest = ts
                if not marks or ts >= marks[-1][0] + REORDER_WINDOW:
                    marks.append((ts, pos + i))
            i += 16 + caplen
    if not marks:
        return 24, None
    start = 24
    for ts, offset in marks:
        if ts < latest - REORDER_WINDOW:
            start = offset
    return start, latest


def sniff_format(path: str) -> str:
    """Classify an input file as 'pcap' or 'records' by its leading bytes; refuse one that cannot be seeked."""
    with open(path, "rb") as fp:
        if not fp.seekable():  # every reader opens the file again
            raise ValueError(f"{path}: not a seekable file; scadascope reads its input more than once, "
                             "so save the stream to a file first")
        head = fp.read(4)
    if len(head) == 4:
        if struct.unpack("<I", head)[0] in _PCAP_MAGICS:
            return "pcap"
    return "records"


def open_trace(path: str, stats: IngestStats | None = None) -> Iterator[PacketRecord]:
    """Read a trace file of either supported format."""
    if sniff_format(path) == "pcap":
        return read_pcap(path, stats)
    return read_records(path, stats)
