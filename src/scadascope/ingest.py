"""Trace ingestion: pcap / JSON-lines readers, service-port filtering, time ordering.

Only classic pcap (magic 0xa1b2c3d4, either byte order, microsecond
timestamps, Ethernet link layer) is supported.  The canonical text format is
JSON lines with one packet object per line, see ``read_records``.
"""

from __future__ import annotations

import heapq
import json
import logging
import struct
import sys
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

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
ETHERTYPE_IPV4 = 0x0800

_IP_PROTO_NAMES = {6: TCP, 17: UDP, 1: ICMP}


class PcapFormatError(ValueError):
    """The file is not a readable classic pcap capture."""


class RecordFormatError(ValueError):
    """A JSON-lines packet record failed to parse or validate."""


class OutOfOrderError(ValueError):
    """Timestamps ran backwards beyond the reorder window."""


@dataclass(slots=True)
class PacketRecord:
    """One captured packet: time, endpoints, transport, captured byte size."""

    ts: float
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    proto: str
    size: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "ts": self.ts,
                "src_ip": self.src_ip,
                "src_port": self.src_port,
                "dst_ip": self.dst_ip,
                "dst_port": self.dst_port,
                "proto": self.proto,
                "size": self.size,
            },
            separators=(",", ":"),
        )


@dataclass
class FilterConfig:
    """Which packets to drop before segmentation."""

    service_ports: frozenset[int] = DEFAULT_SERVICE_PORTS
    drop_non_tcp: bool = True

    def __post_init__(self) -> None:
        self.service_ports = frozenset(self.service_ports)
        for port in self.service_ports:
            if not 0 <= port <= 65535:
                raise ValueError(f"service port out of range: {port}")


@dataclass
class IngestStats:
    """Counters filled in while reading a capture."""

    frames: int = 0
    yielded: int = 0
    skipped: int = 0
    truncated: bool = False


@dataclass
class FilterStats:
    kept: int = 0
    dropped: int = 0


def read_pcap(path: str, stats: IngestStats | None = None) -> Iterator[PacketRecord]:
    """Yield one PacketRecord per TCP/UDP/ICMP packet with an IPv4 header.

    ``size`` is the captured length from the pcap record header (frame
    bytes, link layer included).  Non-IP frames, IPv4 packets with other
    transports and non-first IPv4 fragments (non-zero fragment offset, so
    no ports) are counted in ``stats.skipped``.  A truncated trailing record
    ends the stream cleanly with a warning.
    """
    if stats is None:
        stats = IngestStats()
    with open(path, "rb") as fp:
        header = fp.read(24)
        if len(header) < 24:
            raise PcapFormatError(f"{path}: file shorter than a pcap global header")
        magic = struct.unpack("<I", header[:4])[0]
        if magic == PCAP_MAGIC_LE:
            endian = "<"
        elif magic == PCAP_MAGIC_BE:
            endian = ">"
        else:
            raise PcapFormatError(f"{path}: bad magic 0x{magic:08x}")
        link_type = struct.unpack(endian + "I", header[20:24])[0]
        if link_type != 1:
            raise PcapFormatError(f"{path}: unsupported link-layer type {link_type}")

        rec_hdr = struct.Struct(endian + "IIII")
        while True:
            raw = fp.read(16)
            if not raw:
                break
            if len(raw) < 16:
                log.warning("%s: truncated record header at end of file", path)
                stats.truncated = True
                break
            ts_sec, ts_usec, incl_len, _orig_len = rec_hdr.unpack(raw)
            data = fp.read(incl_len)
            if len(data) < incl_len:
                log.warning("%s: truncated final record (%d of %d bytes)", path, len(data), incl_len)
                stats.truncated = True
                break
            stats.frames += 1
            rec = _parse_frame(data, ts_sec + ts_usec / 1e6, incl_len)
            if rec is None:
                stats.skipped += 1
            else:
                stats.yielded += 1
                yield rec


def _parse_frame(data: bytes, ts: float, caplen: int) -> PacketRecord | None:
    if len(data) < 34:  # ethernet + minimal IPv4
        return None
    if (data[12] << 8) | data[13] != ETHERTYPE_IPV4:
        return None
    ip = data[14:]
    if ip[0] >> 4 != 4:
        return None
    ihl = (ip[0] & 0x0F) * 4
    if ihl < 20 or len(ip) < ihl:
        return None
    if (ip[6] & 0x1F) | ip[7]:  # non-first fragment: no transport header
        return None
    proto = _IP_PROTO_NAMES.get(ip[9])
    if proto is None:
        return None
    src_ip = f"{ip[12]}.{ip[13]}.{ip[14]}.{ip[15]}"
    dst_ip = f"{ip[16]}.{ip[17]}.{ip[18]}.{ip[19]}"
    src_port = dst_port = 0
    if proto in (TCP, UDP):
        l4 = ip[ihl:]
        if len(l4) < 4:
            return None
        src_port = (l4[0] << 8) | l4[1]
        dst_port = (l4[2] << 8) | l4[3]
    return PacketRecord(
        ts, sys.intern(src_ip), src_port, sys.intern(dst_ip), dst_port, proto, caplen
    )


def read_records(path: str, stats: IngestStats | None = None) -> Iterator[PacketRecord]:
    """Yield PacketRecords from the canonical JSON-lines format, in file order.

    Each line is an object with keys ts, src_ip, src_port, dst_ip, dst_port,
    proto, size, checked as ``_build_record`` says.  Bad lines raise
    RecordFormatError naming the line number.
    """
    if stats is None:
        stats = IngestStats()
    scan = json.JSONDecoder().scan_once
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            stats.frames += 1
            try:
                obj, end = scan(line, 0)
            except (StopIteration, ValueError):
                end = -1
            if end != len(line):
                # Not one whole JSON value: json.loads words the error.  Besides
                # a JSONDecodeError it raises a plain ValueError for an integer
                # past the int/str digit limit.
                try:
                    obj = json.loads(line)
                except ValueError as exc:
                    msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                    raise RecordFormatError(f"{path}:{lineno}: invalid JSON ({msg})") from exc
            try:
                rec = _build_record(obj)
            except _InvalidRecord as exc:
                raise RecordFormatError(f"{path}:{lineno}: {exc}") from exc.__cause__
            stats.yielded += 1
            yield rec


class _InvalidRecord(ValueError):
    """Why one record failed; the caller prefixes where it came from."""


_INF = float("inf")


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
            _raise_not_int("src_port", src_port)
        dst_ip = obj["dst_ip"]
        dst_port = obj["dst_port"]
        if type(dst_port) is not int:
            _raise_not_int("dst_port", dst_port)
        proto = obj["proto"]
        size = obj["size"]
        if type(size) is not int:
            _raise_not_int("size", size)
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
    return PacketRecord(
        ts, sys.intern(src_ip), src_port, sys.intern(dst_ip), dst_port, sys.intern(proto), size
    )


# Values of the wrong type that ``float()``/``int()`` would also refuse keep
# the wording those calls give them; the others (bools, numeric strings,
# fractional ports and sizes) are named as the wrong type.


def _float_ts(value) -> float:
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise _InvalidRecord(f"ts must be finite, got {value}") from None
    _raise_refused(value, float)
    raise _InvalidRecord(f"ts must be a number, got {value!r}")


def _raise_not_int(name: str, value) -> None:
    _raise_refused(value, int)
    raise _InvalidRecord(f"{name} must be an integer, got {value!r}")


def _raise_refused(value, cast) -> None:
    try:
        cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _InvalidRecord(f"missing or malformed field ({exc})") from exc


def filter_packets(
    records: Iterable[PacketRecord],
    config: FilterConfig,
    stats: FilterStats | None = None,
) -> Iterator[PacketRecord]:
    """Drop service-port and (optionally) non-TCP packets; order preserved."""
    if stats is None:
        stats = FilterStats()
    ports = config.service_ports
    drop_non_tcp = config.drop_non_tcp
    for rec in records:
        if (drop_non_tcp and rec.proto != TCP) or rec.src_port in ports or rec.dst_port in ports:
            stats.dropped += 1
        else:
            stats.kept += 1
            yield rec


def ensure_time_order(
    records: Iterable[PacketRecord],
    reorder_window: float = 1.0,
    force_sort: bool = False,
) -> Iterator[PacketRecord]:
    """Yield records in non-decreasing timestamp order.

    Mild disorder (within ``reorder_window`` seconds) is repaired with a
    buffer; anything worse raises OutOfOrderError unless ``force_sort`` is
    set, which buffers the whole stream and sorts it.  Equal timestamps keep
    their arrival order.

    Records that arrive in order wait in a FIFO until they are
    ``reorder_window`` older than the newest one.  A record older than the
    newest moves the FIFO into a heap keyed by (ts, arrival); everything in
    the heap precedes everything in the FIFO, so the heap drains first.
    """
    if force_sort:
        yield from sorted(records, key=lambda r: r.ts)
        return
    held: deque[PacketRecord] = deque()
    heap: list[tuple[float, int, PacketRecord]] = []
    seq = 0
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
                    f"disorder exceeds the {reorder_window}s reorder window (use force sort)"
                )
            for old in held:
                heapq.heappush(heap, (old.ts, seq, old))
                seq += 1
            held.clear()
            heapq.heappush(heap, (ts, seq, rec))
            seq += 1
        while heap and high - heap[0][0] >= reorder_window:
            out = heapq.heappop(heap)[2]
            yield out
        while held and high - held[0].ts >= reorder_window:
            out = held.popleft()
            yield out
    while heap:
        yield heapq.heappop(heap)[2]
    yield from held


def sniff_format(path: str) -> str:
    """Classify an input file as 'pcap' or 'records' by its leading bytes."""
    with open(path, "rb") as fp:
        head = fp.read(4)
    if len(head) == 4:
        magic = struct.unpack("<I", head)[0]
        if magic in (PCAP_MAGIC_LE, PCAP_MAGIC_BE):
            return "pcap"
    return "records"


def open_trace(path: str, stats: IngestStats | None = None) -> Iterator[PacketRecord]:
    """Read a trace file of either supported format."""
    if sniff_format(path) == "pcap":
        return read_pcap(path, stats)
    return read_records(path, stats)
