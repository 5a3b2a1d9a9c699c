"""Independent brute-force reference implementations.

Everything here is written naively and separately from the library so it can
serve as an oracle: sort per conversation, split on gaps, count, and apply
the feature formulas directly with the statistics module.
"""

from __future__ import annotations

import heapq
import json
import math
import statistics
import struct

from scadascope.ingest import RecordFormatError, _build_record, _InvalidRecord

PR_CAP = 1e6


class RefOutOfOrder(Exception):
    pass


class RefPcapFormatError(Exception):
    pass


# --- pcap ---------------------------------------------------------------------

REF_SKIP_REASONS = ("short", "non_ipv4", "fragment", "transport")

# libpcap's largest snapshot length for Ethernet; a longer record is invalid.
REF_MAX_RECORD_BYTES = 262_144

# Leading four bytes of a capture -> (byte order, timestamp fractions per second).
_REF_PCAP_FORMATS = {
    b"\xd4\xc3\xb2\xa1": ("<", 1e6),
    b"\xa1\xb2\xc3\xd4": (">", 1e6),
    b"\x4d\x3c\xb2\xa1": ("<", 1e9),
    b"\xa1\xb2\x3c\x4d": (">", 1e9),
}


def ref_parse_frame(data, ts, wire_len):
    """One Ethernet frame -> (ts, src_ip, src_port, dst_ip, dst_port, proto, size),
    or the reason it is skipped, by slicing copies of the frame.

    Up to two VLAN tags (0x8100, 0x88a8) are stripped; ICMP has ports 0.
    ``size`` is the frame's wire length less its VLAN tags: the bytes on the
    wire from the IPv4 header on, plus a 14-byte Ethernet header.
    """
    if len(data) < 34:  # ethernet + minimal IPv4
        return "short"
    ethertype = (data[12] << 8) | data[13]
    l2 = 14
    for _ in range(2):
        if ethertype not in (0x8100, 0x88A8):
            break
        ethertype = (data[l2 + 2] << 8) | data[l2 + 3]
        l2 += 4
    if ethertype != 0x0800:
        return "non_ipv4"
    ip = data[l2:]
    if len(ip) < 20:
        return "short"
    if ip[0] >> 4 != 4:
        return "non_ipv4"
    ihl = (ip[0] & 0x0F) * 4
    if ihl < 20:
        return "non_ipv4"
    if len(ip) < ihl:
        return "short"
    if (ip[6] & 0x1F) | ip[7]:  # non-first fragment: no transport header
        return "fragment"
    proto = {6: "tcp", 17: "udp", 1: "icmp"}.get(ip[9])
    if proto is None:
        return "transport"
    src_ip = f"{ip[12]}.{ip[13]}.{ip[14]}.{ip[15]}"
    dst_ip = f"{ip[16]}.{ip[17]}.{ip[18]}.{ip[19]}"
    src_port = dst_port = 0
    if proto in ("tcp", "udp"):
        l4 = ip[ihl:]
        if len(l4) < 4:
            return "short"
        src_port = (l4[0] << 8) | l4[1]
        dst_port = (l4[2] << 8) | l4[3]
    return (ts, src_ip, src_port, dst_ip, dst_port, proto, wire_len - (l2 - 14))


def ref_read_pcap(blob):
    """Records (tuples as ``ref_parse_frame`` gives them) and the counters of
    a whole capture held in memory, with the names of ``IngestStats``.

    A bad magic, a link type other than Ethernet, or a record claiming more
    than ``REF_MAX_RECORD_BYTES`` captured bytes, a wire length below its
    captured length or more than ``REF_MAX_RECORD_BYTES`` wire bytes raises
    RefPcapFormatError, worded as the library words it.
    """
    if blob[:4] not in _REF_PCAP_FORMATS:
        raise RefPcapFormatError(f"bad magic 0x{int.from_bytes(blob[:4], 'little'):08x}")
    endian, scale = _REF_PCAP_FORMATS[blob[:4]]
    link_type = struct.unpack(endian + "I", blob[20:24])[0]
    if link_type != 1:
        raise RefPcapFormatError(f"unsupported link-layer type {link_type}")
    counts = {"frames": 0, "yielded": 0, "skipped": 0, "truncated": False, "snapped": 0}
    counts.update((reason, 0) for reason in REF_SKIP_REASONS)
    records = []
    off = 24
    while off < len(blob):
        if len(blob) - off < 16:
            counts["truncated"] = True
            break
        ts_sec, ts_frac, incl_len, orig_len = struct.unpack(endian + "IIII", blob[off : off + 16])
        if incl_len > REF_MAX_RECORD_BYTES:
            raise RefPcapFormatError(f"record at byte offset {off} claims {incl_len} bytes")
        if orig_len < incl_len:
            raise RefPcapFormatError(
                f"record at byte offset {off} has wire length {orig_len} below its captured length {incl_len}"
            )
        if orig_len > REF_MAX_RECORD_BYTES:
            raise RefPcapFormatError(f"record at byte offset {off} claims a wire length of {orig_len} bytes")
        data = blob[off + 16 : off + 16 + incl_len]
        if len(data) < incl_len:
            counts["truncated"] = True
            break
        off += 16 + incl_len
        counts["frames"] += 1
        if incl_len < orig_len:
            counts["snapped"] += 1
        out = ref_parse_frame(data, ts_sec + ts_frac / scale, orig_len)
        if isinstance(out, str):
            counts[out] += 1
            counts["skipped"] += 1
        else:
            counts["yielded"] += 1
            records.append(out)
    return records, counts


# --- JSON lines ---------------------------------------------------------------


def ref_read_records(path):
    """The records of a JSON-lines file, each line decoded whole.

    Per stripped, non-blank line: ``json.loads``, then the library's
    ``_build_record``, with no memo.  A bad line raises the library's
    RecordFormatError in its words, naming the line.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                raise RecordFormatError(f"{path}:{lineno}: invalid JSON ({msg})") from None
            try:
                records.append(_build_record(obj))
            except _InvalidRecord as exc:
                raise RecordFormatError(f"{path}:{lineno}: {exc}") from None
    return records


def ref_time_order(records, reorder_window=1.0):
    """Windowed reordering through one heap of (ts, arrival, record).

    Raises RefOutOfOrder with the library's message when a record is older
    than one already yielded.
    """
    heap = []
    seq = 0
    high = float("-inf")
    last = float("-inf")
    for rec in records:
        if rec.ts < last:
            raise RefOutOfOrder(
                f"timestamp {rec.ts:.6f} arrived after {last:.6f} was emitted; "
                f"disorder exceeds the {reorder_window}s reorder window (use force sort)"
            )
        heapq.heappush(heap, (rec.ts, seq, rec))
        seq += 1
        high = max(high, rec.ts)
        while heap and high - heap[0][0] >= reorder_window:
            last, _, out = heapq.heappop(heap)
            yield out
    while heap:
        last, _, out = heapq.heappop(heap)
        yield out


def ref_conversation_key(rec):
    a = (rec.src_ip, rec.src_port)
    b = (rec.dst_ip, rec.dst_port)
    return (a, b) if a <= b else (b, a)


def ref_segments(records, t_comm):
    """Segments as dicts, grouped per conversation, split on gaps >= t_comm."""
    by_key = {}
    for rec in records:
        by_key.setdefault(ref_conversation_key(rec), []).append(rec)
    out = []
    for key, packets in by_key.items():
        packets = sorted(packets, key=lambda r: r.ts)
        groups = [[packets[0]]]
        for prev, cur in zip(packets, packets[1:]):
            if cur.ts - prev.ts >= t_comm:
                groups.append([cur])
            else:
                groups[-1].append(cur)
        for group in groups:
            out.append(
                {
                    "key": key,
                    "start": group[0].ts,
                    "end": group[-1].ts,
                    "size": sum(p.size for p in group),
                    "packets": len(group),
                    "initiator": (group[0].src_ip, group[0].src_port),
                }
            )
    return out


def ref_segment_tuple(seg):
    """A reference segment as (initiator ip, port, responder ip, port, size, start, end, packets)."""
    a, b = seg["key"]
    init = seg["initiator"]
    resp = b if init == a else a
    return (init[0], init[1], resp[0], resp[1], seg["size"], seg["start"], seg["end"], seg["packets"])


def ref_ft_table(segments):
    """Map 5-tuple -> ordered list of segment start times."""
    table = {}
    for seg in segments:
        table.setdefault(ref_segment_tuple(seg)[:5], []).append(seg["start"])
    for starts in table.values():
        starts.sort()
    return table


def ref_iat(starts):
    return [b - a for a, b in zip(starts, starts[1:])]


def ref_periodicity(starts):
    iat = ref_iat(starts)
    if len(iat) < 2:
        return 0.0
    var = statistics.pvariance(iat)
    if var == 0:
        return PR_CAP
    return statistics.mean(iat) / var


def ref_durability(starts):
    n = len(starts)
    if n <= 1:
        return 0.0
    return (sum(ref_iat(starts)) / 3600.0) * math.log(n)


def ref_ports_by_ip(fts):
    ports = {}
    for src_ip, src_port, dst_ip, dst_port, _size in fts:
        ports.setdefault(src_ip, set()).add(src_port)
        ports.setdefault(dst_ip, set()).add(dst_port)
    return ports


def ref_complexity(ft, ports_by_ip):
    a = len(ports_by_ip[ft[0]])
    b = len(ports_by_ip[ft[2]])
    return max(a / b, b / a)


def ref_pair_sets(fts):
    pairs = {}
    for src_ip, src_port, dst_ip, dst_port, _size in fts:
        pairs.setdefault((src_port, "src"), set()).add((src_ip, dst_ip))
        pairs.setdefault((dst_port, "dst"), set()).add((src_ip, dst_ip))
    return pairs


def ref_popularity(ft, pair_sets):
    a = len(pair_sets[(ft[1], "src")])
    b = len(pair_sets[(ft[3], "dst")])
    return max(a / b, b / a)


def ref_size_feature(ft, max_seg):
    return ft[4] / max_seg


def ref_all_features(table):
    """5-tuple -> (pR, dR, cR, uR, sR), each computed the straightforward way."""
    fts = list(table)
    ports_by_ip = ref_ports_by_ip(fts)
    pair_sets = ref_pair_sets(fts)
    max_seg = max(ft[4] for ft in fts)
    out = {}
    for ft in fts:
        starts = table[ft]
        out[ft] = (
            ref_periodicity(starts),
            ref_durability(starts),
            ref_complexity(ft, ports_by_ip),
            ref_popularity(ft, pair_sets),
            ref_size_feature(ft, max_seg),
        )
    return out


def ref_quantities(master, table):
    """Peer -> communication quantity (segments x segment size), summed over
    the 5-tuples ``master`` initiates."""
    totals = {}
    for (src_ip, _sp, dst_ip, _dp, size), starts in table.items():
        if src_ip == master:
            totals[dst_ip] = totals.get(dst_ip, 0) + len(starts) * size
    return totals


def ref_hmi(master, table):
    """Exhaustive per-peer quantity sums; returns the best (qty, ip)."""
    totals = ref_quantities(master, table)
    best = None
    for ip in sorted(totals):
        if best is None or totals[ip] > best[0]:
            best = (totals[ip], ip)
    return best


# --- Algorithm 1 --------------------------------------------------------------


def ref_rank(table):
    """The 5-tuples best first: each ``ref_all_features`` row divided by its
    column maxima (a column of zeros stays 0), scored by the product of the
    five, sorted by (-f, -pR_n, key)."""
    raw = ref_all_features(table)
    maxima = [max(column) for column in zip(*raw.values())]
    rows = []
    for ft, features in raw.items():
        normalized = [x / m if m > 0 else 0.0 for x, m in zip(features, maxima)]
        rows.append((-math.prod(normalized), -normalized[0], ft))
    return [ft for _f, _p, ft in sorted(rows)]


def ref_devices(table):
    """ip -> {"peers": distinct peer addresses, "fts": 5-tuples it is an end of,
    "ports": own-side port -> segments}."""
    devices = {}
    for (src_ip, src_port, dst_ip, dst_port, _size), starts in table.items():
        for ip, port, peer in ((src_ip, src_port, dst_ip), (dst_ip, dst_port, src_ip)):
            dev = devices.setdefault(ip, {"peers": set(), "fts": 0, "ports": {}})
            dev["peers"].add(peer)
            dev["fts"] += 1
            dev["ports"][port] = dev["ports"].get(port, 0) + len(starts)
    return devices


def ref_algorithm1(table, config):
    """The report (as ``TopologyReport.to_dict()`` gives it, without
    ``metrics``) of Algorithm 1 on a ``ref_ft_table`` table, step by step
    from the rules:

    - the SCADA port is the port of the lower-degree end (degree: distinct
      peers) of the best-ranked 5-tuple left; a degree tie takes the lower
      port;
    - a field device has more than ``scada_fraction_threshold`` of its
      segments with that port on its own side, and a degree under
      ``fd_degree_threshold``; a master is a device that is not a field
      device and meets one in a 5-tuple with the port on either side;
    - every 5-tuple with the port on either side is then struck from the
      ranking, once per protocol, until the ranking runs out;
    - with ``three_layer``, the primary master initiates the most quantity
      (the lowest address on a tie) and the HMI is the peer it sends the
      most (the lowest address on a tie);
    - the first protocol to classify a device gives its role and the port
      its share is measured on; the HMI keeps that port, or else takes the
      first protocol's; every other device is unclassified on the first
      protocol's port.
    """
    if not table:
        return {"protocols": [], "hmi": None, "unclassified": [], "evidence": {},
                "status": "partial", "warnings": ["no communication to rank"]}
    devices = ref_devices(table)

    def degree(ip):
        return len(devices[ip]["peers"])

    def share(ip, port):
        ports = devices[ip]["ports"]
        return ports.get(port, 0) / sum(ports.values())

    ranked = ref_rank(table)
    protocols, warnings, status = [], [], "ok"
    roles = {}  # ip -> (role, port)
    for i in range(config.num_scada_protocols):
        if not ranked:
            status = "partial"
            warnings.append(
                f"ranked list exhausted after {i} of {config.num_scada_protocols} protocol iterations"
            )
            break
        src_ip, src_port, dst_ip, dst_port, _size = ranked[0]
        tie = degree(src_ip) == degree(dst_ip)
        if degree(src_ip) < degree(dst_ip) or (tie and src_port <= dst_port):
            port, owner = src_port, src_ip
        else:
            port, owner = dst_port, dst_ip
        fds = {
            ip for ip in devices
            if share(ip, port) > config.scada_fraction_threshold and degree(ip) < config.fd_degree_threshold
        }
        masters = set()
        for a, a_port, b, b_port, _size in table:
            if port in (a_port, b_port):
                for ip, peer in ((a, b), (b, a)):
                    if ip in fds and peer not in fds:
                        masters.add(peer)
        protocols.append({"scada_port": port, "scada_ip": owner, "field_devices": sorted(fds),
                          "master_servers": sorted(masters), "degree_tie": tie})
        if tie:
            warnings.append(f"protocol {i}: degree tie on top entry, chose port {port}")
        if not fds:
            warnings.append(f"protocol {i}: no device met the field-device conditions for port {port}")
        for ip in fds:
            roles.setdefault(ip, ("field_device", port))
        for ip in masters:
            roles.setdefault(ip, ("master", port))
        ranked = [ft for ft in ranked if port not in (ft[1], ft[3])]

    first_port = protocols[0]["scada_port"]
    hmi = None
    if config.three_layer:
        masters = {ip for entry in protocols for ip in entry["master_servers"]}
        if not masters:
            warnings.append("three-layer requested but no master server was inferred")
        else:
            quantities = {m: ref_quantities(m, table) for m in masters}
            primary = min(masters, key=lambda m: (-sum(quantities[m].values()), m))
            peers = sorted(quantities[primary].items(), key=lambda item: (-item[1], item[0]))
            if not peers:
                warnings.append(f"master {primary} initiates no communication, HMI unknown")
            else:
                hmi = peers[0][0]
                if len(peers) > 1 and peers[1][1] == peers[0][1]:
                    warnings.append("HMI quantity tie, chose lowest address")
                roles[hmi] = ("hmi", roles.get(hmi, (None, first_port))[1])

    evidence = {}
    for ip, dev in devices.items():
        role, port = roles.get(ip, ("unclassified", first_port))
        evidence[ip] = {"degree": degree(ip), "ft_count": dev["fts"], "ports_used": len(dev["ports"]),
                        "segments": sum(dev["ports"].values()), "scada_fraction": round(share(ip, port), 6),
                        "role": role}
    return {
        "protocols": protocols,
        "hmi": hmi,
        "unclassified": sorted(ip for ip, ev in evidence.items() if ev["role"] == "unclassified"),
        "evidence": evidence,
        "status": status,
        "warnings": warnings,
    }
