"""Seeded synthetic CI traffic with ground-truth labels.

Field devices report on a fixed port with jittered periodic schedules, the
master answers from ephemeral ports that rotate on reconnect, peripherals
emit their own periodic chatter, and an optional third layer adds a bulk
feed from the master to the HMI.  The same seed always produces the same
packet stream, so generated traces serve as oracles for the analysis side.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import struct
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from heapq import heappop, heappush
from ipaddress import IPv4Address
from types import UnionType
from typing import Callable, Iterable, Iterator, TextIO, Union, get_args, get_origin, get_type_hints

from scadascope.ingest import ICMP, OTHER, TCP, UDP, PacketRecord

MIN_FRAME_BYTES = 54  # ethernet + IPv4 + TCP headers
# The snapshot length ``write_pcap``'s file header declares: no frame is longer.
PCAP_SNAPLEN = 65535
# The last microsecond the 32-bit seconds field of a pcap record holds.
_PCAP_MAX_TS = 2**32 - 1e-6
ACK_BYTES = 66

PERIPHERAL_KINDS = ("ntp", "heartbeat", "backup", "x11", "netbios")
_PERIPH_SERVER_PORT = {"ntp": 123, "heartbeat": 5666, "backup": 873, "x11": 6000, "netbios": 137}
_PERIPH_PROTO = {"ntp": UDP, "netbios": UDP, "heartbeat": TCP, "backup": TCP, "x11": TCP}
_TWO_WAY_KINDS = {"ntp", "x11"}

# Master-to-HMI feed: a steady drip of frames, each its own segment, with
# sizes varying per frame the way payload-sized forwarding does.  No single
# 5-tuple looks periodic.  A three-layer backup copying from the master faster
# than this feed outweighs it, and the analysis then claims the backup host.
HMI_FEED_PORT = 8055
HMI_FEED_INTERVAL = 1.3
HMI_FEED_FRAMES = (1514, 1106, 646, 206)

# Backoff-style retries, in seconds after a retry cycle's first attempt.
_RETRY_OFFSETS = (1.0, 3.0, 7.0, 15.0, 31.0)

# Schedules are clamped so two firings of one source are never closer than
# this; at the default 1 s segmentation threshold adjacent firings therefore
# always land in distinct segments.
MIN_INTERVAL = 1.1

_IP_PROTO_NUM = {TCP: 6, UDP: 17, ICMP: 1, OTHER: 253}

# The last host address of an auto-numbered /24 block, and the most SCADA
# groups whose blocks 10.0.10.x, 10.0.11.x, ... stay below 10.0.200.x.
_LAST_HOST = 254
_MAX_GROUPS = 190


class ScenarioError(ValueError):
    """The scenario configuration is impossible or inconsistent."""


@dataclass
class ScadaGroup:
    port: int
    num_field_devices: int
    poll_mean: float
    poll_jitter_stddev: float
    object_sizes: list[int]
    response: bool = True


@dataclass
class MasterConfig:
    ephemeral_port_range: tuple[int, int] = (49152, 65535)
    reconnect_rate: float = 0.0  # expected reconnects per conversation per day


@dataclass
class PeripheralSpec:
    kind: str
    period: float
    size: int
    hosts: tuple[str, str] | None = None  # explicit (src, dst) override


@dataclass
class NoiseConfig:
    nonresponder_retry: bool = False


@dataclass
class ReportingSpec:
    """A workstation that speaks on the SCADA port without being a field device.

    It reports on the SCADA port to ``consumers`` peers and, if
    ``noise_period`` is set, emits unrelated chatter that dilutes its
    SCADA share below the classification threshold.
    """

    scada_period: float
    noise_period: float | None = None
    consumers: int = 1
    report_size: int = 150
    noise_size: int = 120
    port: int | None = None  # defaults to the first group's port


@dataclass
class ScenarioConfig:
    duration: float
    seed: int
    scada_groups: list[ScadaGroup] = field(default_factory=list)
    master: MasterConfig = field(default_factory=MasterConfig)
    layers: int = 2
    peripherals: list[PeripheralSpec] = field(default_factory=list)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    reporting: list[ReportingSpec] = field(default_factory=list)

    def validate(self) -> None:
        if self.duration <= 0:
            raise ScenarioError("duration must be positive")
        if self.layers not in (2, 3):
            raise ScenarioError(f"layers must be 2 or 3, got {self.layers}")
        if self.layers == 3 and not self.scada_groups:
            raise ScenarioError("a three-layer scenario needs at least one SCADA group")
        lo, hi = self.master.ephemeral_port_range
        if not (1024 <= lo < hi <= 65535):
            raise ScenarioError(f"bad ephemeral port range ({lo}, {hi})")
        if self.master.reconnect_rate < 0:
            raise ScenarioError("reconnect_rate must be >= 0")
        seen_ports: set[int] = set()
        for g, group in enumerate(self.scada_groups):
            where = f"scada_groups[{g}]"
            if not 1 <= group.port <= 65535:
                raise ScenarioError(f"{where}: port out of range")
            if lo <= group.port <= hi:
                raise ScenarioError(f"{where}: port {group.port} inside the ephemeral range")
            if group.port in seen_ports:
                raise ScenarioError(f"{where}: duplicate SCADA port {group.port}")
            seen_ports.add(group.port)
            if not 0 <= group.num_field_devices <= 253:
                raise ScenarioError(f"{where}: num_field_devices must be 0..253")
            if group.poll_mean <= 1.0:
                raise ScenarioError(f"{where}: poll_mean must exceed one second")
            if not 0 <= group.poll_jitter_stddev < group.poll_mean:
                raise ScenarioError(f"{where}: jitter stddev must be below the poll mean")
            if not group.object_sizes:
                raise ScenarioError(f"{where}: object_sizes must not be empty")
            floor = MIN_FRAME_BYTES + (ACK_BYTES if group.response else 0)
            for size in group.object_sizes:
                if size < floor:
                    raise ScenarioError(f"{where}: object size {size} below the {floor}-byte floor")
                if size > PCAP_SNAPLEN:
                    raise ScenarioError(f"{where}: object size {size} above the {PCAP_SNAPLEN}-byte snaplen")
        for k, spec in enumerate(self.peripherals):
            where = f"peripherals[{k}]"
            if spec.kind not in PERIPHERAL_KINDS:
                raise ScenarioError(f"{where}: unknown kind {spec.kind!r}")
            if spec.period <= 0:
                raise ScenarioError(f"{where}: period must be positive")
            for host in spec.hosts or ():
                if not _is_ipv4(host):
                    raise ScenarioError(f"{where}: host {host!r} is not an IPv4 address")
            if spec.size > PCAP_SNAPLEN:
                raise ScenarioError(f"{where}: size {spec.size} above the {PCAP_SNAPLEN}-byte snaplen")
            sizes = _peripheral_packet_sizes(spec)
            if min(sizes) < MIN_FRAME_BYTES:
                raise ScenarioError(
                    f"{where}: a {min(sizes)}-byte packet falls below the {MIN_FRAME_BYTES}-byte floor"
                )
        for r, spec in enumerate(self.reporting):
            where = f"reporting[{r}]"
            if not self.scada_groups and spec.port is None:
                raise ScenarioError(f"{where}: no SCADA group to borrow a port from")
            if spec.port is not None and not 1 <= spec.port <= 65535:
                raise ScenarioError(f"{where}: port out of range")
            if spec.consumers < 1:
                raise ScenarioError(f"{where}: consumers must be >= 1")
            if spec.scada_period <= MIN_INTERVAL or (
                spec.noise_period is not None and spec.noise_period <= MIN_INTERVAL
            ):
                raise ScenarioError(f"{where}: periods must exceed {MIN_INTERVAL}s")
            if spec.report_size < MIN_FRAME_BYTES or spec.noise_size < MIN_FRAME_BYTES:
                raise ScenarioError(f"{where}: sizes below the {MIN_FRAME_BYTES}-byte floor")
            if max(spec.report_size, spec.noise_size) > PCAP_SNAPLEN:
                raise ScenarioError(f"{where}: sizes above the {PCAP_SNAPLEN}-byte snaplen")
        # The SCADA groups' blocks; ``generate`` bounds each other auto-numbered block.
        if len(self.scada_groups) > _MAX_GROUPS:
            raise ScenarioError(f"scada_groups: at most {_MAX_GROUPS} groups, got {len(self.scada_groups)}")


def _is_ipv4(host) -> bool:
    try:
        IPv4Address(host)
    except ValueError:
        return False
    return isinstance(host, str)


def _peripheral_packet_sizes(spec: PeripheralSpec) -> tuple[int, ...]:
    if spec.kind in _TWO_WAY_KINDS:
        request = spec.size // 2 if spec.kind == "ntp" else 2 * spec.size // 3
        return (request, spec.size - request)
    if spec.kind == "backup":
        # Bulk drips vary their frame sizes like payload-sized transfers.
        size = spec.size
        palette = (size, 3 * size // 4, size // 2, size // 4)
        return tuple(s for s in palette if s >= MIN_FRAME_BYTES) or (size,)
    return (spec.size,)


@dataclass
class GroundTruth:
    """Role labels for every address a scenario emits."""

    labels: dict[str, dict] = field(default_factory=dict)

    def add(self, ip: str, role: str, protocol: int | None = None) -> None:
        self.labels[ip] = {"role": role, "protocol": protocol}

    def devices_with_role(self, *roles: str) -> set[str]:
        return {ip for ip, entry in self.labels.items() if entry["role"] in roles}

    def to_dict(self) -> dict:
        return {ip: dict(self.labels[ip]) for ip in sorted(self.labels)}


def generate(config: ScenarioConfig) -> tuple[Iterator[PacketRecord], GroundTruth]:
    """Build the packet stream and its labels; fully determined by the seed.

    One set-up pass labels each address where it is first needed (an address
    keeps its first label; the master and the HMI are labelled first), draws
    every source's first tick and pushes it onto the event heap, so a
    scenario the set-up cannot build (an auto-numbered /24 block past host
    254, an exhausted ephemeral port range) raises here, before any record is
    asked for.  The returned iterator pops the heap in time order, ties in push
    order.  A popped tick pushes its later records and its next tick and
    returns the record due at its own time, which is yielded at once unless
    another event waits at the same microsecond; then it is pushed behind
    that event, as push order has it.  The stream ends at the first event
    later than ``duration``, so a shorter run is a prefix of a longer one.
    """
    config.validate()
    rng = random.Random(config.seed)
    duration_us = round(config.duration * 1e6)
    truth = GroundTruth()

    def label(ip: str, role: str, protocol: int | None = None) -> str:
        if ip not in truth.labels:
            truth.add(ip, role, protocol)
        return sys.intern(ip)

    def host(block: int, n: int, where: str) -> str:
        """Host ``n`` of the auto-numbered /24 ``10.0.{block}.x``, which ``where`` asked for."""
        if n > _LAST_HOST:
            raise ScenarioError(f"{where}: 10.0.{block}.{n} is past the last host 10.0.{block}.{_LAST_HOST}")
        return f"10.0.{block}.{n}"

    # (time in us, push order, a tick or the ``PacketRecord`` fields after ``ts``)
    heap: list[tuple[int, int, object]] = []
    seq = itertools.count()

    def interval_us(mean: float, sigma: float) -> int:
        return round(max(MIN_INTERVAL, rng.gauss(mean, sigma)) * 1e6)

    eph_lo, eph_hi = config.master.ephemeral_port_range
    free_eph = iter(range(eph_lo, eph_hi + 1))

    def alloc_eph() -> int:
        port = next(free_eph, None)
        if port is None:
            raise ScenarioError("master ephemeral port range exhausted")
        return port

    master_ip = label("10.0.0.1", "master") if config.scada_groups else None
    hmi_ip = label("10.0.0.2", "hmi") if config.layers == 3 else None
    conv_eph: dict[tuple[int, int], int] = {}

    def fd_source(group: ScadaGroup, conv: tuple[int, int], fd_ip: str) -> Callable[[int], tuple]:
        sizes = group.object_sizes
        ticks = itertools.count(conv[1])  # offset the size cycle per device

        def tick(t_us: int) -> tuple:
            size = sizes[next(ticks) % len(sizes)]
            eph = conv_eph[conv]
            if group.response:
                delay = rng.randint(2000, 20000)
                heappush(heap, (t_us + delay, next(seq), (master_ip, eph, fd_ip, group.port, TCP, ACK_BYTES)))
                size -= ACK_BYTES
            heappush(heap, (t_us + interval_us(group.poll_mean, group.poll_jitter_stddev), next(seq), tick))
            return (fd_ip, group.port, master_ip, eph, TCP, size)

        return tick

    def reconnect_source(conv: tuple[int, int], mean_interval_s: float) -> Callable[[int], None]:
        def tick(t_us: int) -> None:
            conv_eph[conv] = alloc_eph()
            heappush(heap, (t_us + round(rng.expovariate(1.0) * mean_interval_s * 1e6), next(seq), tick))

        return tick

    for g, group in enumerate(config.scada_groups):
        for i in range(group.num_field_devices):
            fd_ip = label(f"10.0.{10 + g}.{1 + i}", "field_device", group.port)
            conv = (g, i)
            conv_eph[conv] = alloc_eph()
            first = round(rng.uniform(0.0, group.poll_mean) * 1e6)
            heappush(heap, (first, next(seq), fd_source(group, conv, fd_ip)))
            if config.master.reconnect_rate > 0:
                mean_s = 86400.0 / config.master.reconnect_rate
                first = round(rng.expovariate(1.0) * mean_s * 1e6)
                heappush(heap, (first, next(seq), reconnect_source(conv, mean_s)))

    def peripheral_source(spec: PeripheralSpec, idx: int, src: str, dst: str) -> Callable[[int], tuple]:
        server_port = _PERIPH_SERVER_PORT[spec.kind]
        proto = _PERIPH_PROTO[spec.kind]
        if spec.kind in ("ntp", "netbios"):
            client_port = server_port  # symmetric service
        elif spec.kind == "backup" and src == master_ip:
            client_port = alloc_eph()
        else:
            client_port = 40000 + idx
        sizes = _peripheral_packet_sizes(spec)
        # cron-style services carry scheduler jitter with an absolute floor;
        # session chatter (x11) is far more irregular than a scheduler
        sigma = 0.3 * spec.period if spec.kind == "x11" else max(0.1, 0.01 * spec.period)
        is_drip = spec.kind == "backup"
        two_way = spec.kind in _TWO_WAY_KINDS

        def tick(t_us: int) -> tuple:
            size = rng.choice(sizes) if is_drip else sizes[0]
            if two_way:
                reply = (dst, server_port, src, client_port, proto, sizes[1])
                heappush(heap, (t_us + rng.randint(2000, 20000), next(seq), reply))
            heappush(heap, (t_us + interval_us(spec.period, sigma), next(seq), tick))
            return (src, client_port, dst, server_port, proto, size)

        return tick

    auto = 1
    for idx, spec in enumerate(config.peripherals):
        if spec.hosts is not None:
            src, dst = spec.hosts
        elif config.layers == 3 and spec.kind == "backup" and master_ip is not None:
            # An auto-addressed backup in a three-layer scenario copies from the master.
            src, dst = master_ip, host(200, auto, f"peripherals[{idx}]")
            auto += 1
        else:
            src, dst = host(200, auto, f"peripherals[{idx}]"), host(200, auto + 1, f"peripherals[{idx}]")
            auto += 2
        src, dst = label(src, "peripheral"), label(dst, "peripheral")
        first = round(rng.uniform(0.05, max(0.1, spec.period)) * 1e6)
        heappush(heap, (first, next(seq), peripheral_source(spec, idx, src, dst)))

    if config.layers == 3 and master_ip is not None:
        feed_port = alloc_eph()

        def hmi_feed(t_us: int) -> tuple:
            size = rng.choice(HMI_FEED_FRAMES)
            heappush(heap, (t_us + interval_us(HMI_FEED_INTERVAL, 0.05), next(seq), hmi_feed))
            return (master_ip, feed_port, hmi_ip, HMI_FEED_PORT, TCP, size)

        heappush(heap, (round(rng.uniform(0.1, 1.0) * 1e6), next(seq), hmi_feed))

    if config.noise.nonresponder_retry:
        retrier, dead = label("10.0.250.1", "peripheral"), label("10.0.250.2", "peripheral")
        cycles = itertools.count()

        def retry_cycle(t_us: int) -> tuple:
            sport = 45001 + (next(cycles) % 8000)
            attempt = (retrier, sport, dead, 9999, TCP, 66)
            for offset in _RETRY_OFFSETS:
                jitter = rng.uniform(-0.05, 0.05)
                heappush(heap, (t_us + round((offset + jitter) * 1e6), next(seq), attempt))
            heappush(heap, (t_us + round((63.0 + rng.uniform(-1.0, 1.0)) * 1e6), next(seq), retry_cycle))
            return attempt

        heappush(heap, (round(rng.uniform(0.1, 5.0) * 1e6), next(seq), retry_cycle))

    consumer_auto = 1
    for r, spec in enumerate(config.reporting):
        r_ip = label(host(240, 1 + r, f"reporting[{r}]"), "peripheral")
        consumers = [
            label(host(241, consumer_auto + j, f"reporting[{r}].consumers"), "peripheral")
            for j in range(spec.consumers)
        ]
        consumer_auto += spec.consumers
        port = spec.port if spec.port is not None else config.scada_groups[0].port
        state = {"tick": 0}

        def report_tick(t_us: int, r_ip=r_ip, consumers=consumers, port=port, spec=spec, state=state) -> tuple:
            j = state["tick"] % len(consumers)
            state["tick"] += 1
            next_us = t_us + interval_us(spec.scada_period, max(0.1, 0.02 * spec.scada_period))
            heappush(heap, (next_us, next(seq), report_tick))
            return (r_ip, port, consumers[j], 36000 + j, TCP, spec.report_size)

        heappush(heap, (round(rng.uniform(0.1, spec.scada_period) * 1e6), next(seq), report_tick))
        if spec.noise_period is not None:
            peer = label(host(242, 1 + r, f"reporting[{r}]"), "peripheral")

            def noise_tick(t_us: int, r_ip=r_ip, peer=peer, spec=spec) -> tuple:
                next_us = t_us + interval_us(spec.noise_period, max(0.1, 0.02 * spec.noise_period))
                heappush(heap, (next_us, next(seq), noise_tick))
                return (r_ip, 52000 + r, peer, 7070, TCP, spec.noise_size)

            heappush(heap, (round(rng.uniform(0.1, spec.noise_period) * 1e6), next(seq), noise_tick))

    def packets() -> Iterator[PacketRecord]:
        while heap:
            t_us, _, item = heappop(heap)
            if t_us > duration_us:
                # The events due after the end go now; the sources' closures
                # refer to themselves and stay until a collection.
                heap.clear()
                return
            if type(item) is not tuple:
                item = item(t_us)
                if item is None:
                    continue
                if heap and heap[0][0] == t_us:
                    heappush(heap, (t_us, next(seq), item))
                    continue
            # Seconds composed the way the pcap reader composes them, so
            # timestamps survive a write/read round trip bit for bit.
            yield PacketRecord(t_us // 1_000_000 + t_us % 1_000_000 / 1e6, *item)

    return packets(), truth


def tee_json_lines(records: Iterable[PacketRecord], fp: TextIO) -> Iterator[PacketRecord]:
    """Yield ``records``, writing each to ``fp`` in the canonical JSON-lines format."""
    for rec in records:
        fp.write(rec.to_json())
        fp.write("\n")
        yield rec


def write_records(records: Iterable[PacketRecord], path: str) -> int:
    """Write the canonical JSON-lines format; returns the record count."""
    with open(path, "w", encoding="utf-8") as fp:
        return sum(1 for _ in tee_json_lines(records, fp))


# Ethernet (MACs 02:00 plus the IPv4 address), then IPv4 with DF, TTL 64 and
# the checksum; a TCP frame adds its 20-byte header with PSH|ACK, so all 54
# header bytes are one pack.
_ETH_IP = ">H4sH4sHBBHHHBBH4s4s"
_ETH_IP_HEADERS = struct.Struct(_ETH_IP)
_TCP_HEADERS = struct.Struct(_ETH_IP + "HHIIBBHHH")
_PCAP_RECORD = struct.Struct("<IIII")
_ZEROS = bytes(PCAP_SNAPLEN)


def write_pcap(records: Iterable[PacketRecord], path: str) -> int:
    """Write a classic little-endian pcap whose captured lengths equal record sizes.

    Frames are synthetic Ethernet/IPv4/TCP-or-UDP-or-ICMP with zero padding
    and a valid IPv4 header checksum; payload content is meaningless by
    design.  Each address is packed, and the sum of its two 16-bit words
    taken, once per file; a TCP frame's headers are one ``struct`` pack, and
    each record, its pcap header included, is one write.  A record a classic
    pcap cannot hold raises a ``ValueError`` naming it: a size outside 54
    bytes (the header floor) .. 65535 (the snaplen), a ts outside
    0 .. 2**32 s, a proto other than tcp, udp, icmp or other, a port outside
    0 .. 65535, or an address that is not an IPv4 dotted quad.
    """
    count = 0
    packed: dict[str, tuple[bytes, int]] = {}  # dotted quad -> (its 4 bytes, its word sum)
    with open(path, "wb") as fp:
        fp.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, PCAP_SNAPLEN, 1))
        for rec in records:
            size = rec.size
            if not MIN_FRAME_BYTES <= size <= PCAP_SNAPLEN:
                raise ValueError(
                    f"{rec!r}: {size} bytes cannot be framed "
                    f"(floor {MIN_FRAME_BYTES}, snaplen {PCAP_SNAPLEN})"
                )
            ts = rec.ts
            if not 0.0 <= ts <= _PCAP_MAX_TS:
                raise ValueError(f"{rec!r}: ts {ts} outside the 0 .. 2**32 s a pcap holds")
            proto = _IP_PROTO_NUM.get(rec.proto)
            if proto is None:
                raise ValueError(f"{rec!r}: proto {rec.proto!r} is not one of {', '.join(_IP_PROTO_NUM)}")
            src, src_sum = packed.get(rec.src_ip) or _pack_ipv4(rec.src_ip, rec, packed)
            dst, dst_sum = packed.get(rec.dst_ip) or _pack_ipv4(rec.dst_ip, rec, packed)
            sec = int(ts)
            usec = round((ts - sec) * 1e6)
            if usec == 1_000_000:
                sec += 1
                usec = 0
            total_len = size - 14
            ip_id = count & 0xFFFF
            # The sum of the IPv4 header's ten words, its checksum word 0:
            # version|IHL 0x4500 and flags 0x4000 make 0x8500.
            checksum = 0x8500 + (64 << 8 | proto) + total_len + ip_id + src_sum + dst_sum
            while checksum > 0xFFFF:
                checksum = (checksum & 0xFFFF) + (checksum >> 16)
            checksum = ~checksum & 0xFFFF
            try:
                if rec.proto == TCP:
                    headers = _TCP_HEADERS.pack(
                        0x0200, dst, 0x0200, src, 0x0800, 0x45, 0, total_len, ip_id, 0x4000, 64, proto, checksum,
                        src, dst, rec.src_port, rec.dst_port, 0, 0, 5 << 4, 0x18, 8192, 0, 0,
                    )
                else:
                    headers = _eth_ip_headers(rec, proto, src, dst, total_len, ip_id, checksum)
            except struct.error as exc:  # a port out of range
                raise ValueError(f"{rec!r} cannot be framed: {exc}") from None
            fp.write(_PCAP_RECORD.pack(sec, usec, size, size) + headers + _ZEROS[: size - len(headers)])
            count += 1
    return count


def _pack_ipv4(ip: str, rec: PacketRecord, packed: dict[str, tuple[bytes, int]]) -> tuple[bytes, int]:
    """``ip``'s 4 bytes and the sum of its two 16-bit words, kept in ``packed``; the rule of ``_is_ipv4``."""
    if not _is_ipv4(ip):
        raise ValueError(f"{rec!r}: address {ip!r} is not an IPv4 dotted quad")
    quad = IPv4Address(ip).packed
    packed[ip] = quad, (quad[0] << 8 | quad[1]) + (quad[2] << 8 | quad[3])
    return packed[ip]


def _eth_ip_headers(rec: PacketRecord, proto: int, src: bytes, dst: bytes, total_len: int, ip_id: int,
                    checksum: int) -> bytes:
    """The headers of a UDP, ICMP or ``other`` frame; ``other`` has no transport header."""
    eth_ip = _ETH_IP_HEADERS.pack(
        0x0200, dst, 0x0200, src, 0x0800, 0x45, 0, total_len, ip_id, 0x4000, 64, proto, checksum, src, dst
    )
    if rec.proto == UDP:
        return eth_ip + struct.pack(">HHHH", rec.src_port, rec.dst_port, total_len - 20, 0)
    if rec.proto == ICMP:
        return eth_ip + struct.pack(">BBHHH", 8, 0, 0, 0, 0)
    return eth_ip


def scenario_from_dict(obj: dict) -> ScenarioConfig:
    """Read a scenario file object through the scenario dataclasses, then validate it."""
    config = _read(ScenarioConfig, obj, "scenario")
    config.validate()
    return config


def _read(tp, value, path: str):
    """``value`` from a scenario file as type ``tp``; ``path`` names it in errors.

    An object becomes a dataclass, whose defaults fill absent keys; a list
    becomes a ``list[T]``, or a ``tuple`` of the same length.  An int is taken
    for a float; nothing else is coerced, and a bool is not a number.
    """
    if is_dataclass(tp):
        if type(value) is not dict:
            raise ScenarioError(f"{path}: expected an object, got {value!r}")
        hints = get_type_hints(tp)
        unknown = set(value) - hints.keys()
        if unknown:
            raise ScenarioError(f"{path}: unknown keys {sorted(unknown)}")
        kwargs = {}
        for f in fields(tp):
            if f.name in value:
                kwargs[f.name] = _read(hints[f.name], value[f.name], f"{path}.{f.name}")
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ScenarioError(f"{path}: missing key {f.name!r}")
        return tp(**kwargs)
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):  # every union here is ``X | None``
        return None if value is None else _read(args[0], value, path)
    if origin in (list, tuple):
        if type(value) is not list or (origin is tuple and len(value) != len(args)):
            raise ScenarioError(f"{path}: expected {tp}, got {value!r}")
        items = [
            _read(args[0] if origin is list else args[i], item, f"{path}[{i}]")
            for i, item in enumerate(value)
        ]
        return items if origin is list else tuple(items)
    if tp is float and type(value) is int:
        return float(value)
    if type(value) is not tp or (tp is float and not math.isfinite(value)):
        raise ScenarioError(f"{path}: expected {tp.__name__}, got {value!r}")
    return value


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fp:
        try:
            obj = json.load(fp)
        except (ValueError, RecursionError) as exc:
            raise ScenarioError(f"{path}: not valid JSON ({exc})") from None
    return scenario_from_dict(obj)
