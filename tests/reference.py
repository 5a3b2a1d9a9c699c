"""Independent brute-force reference implementations.

Everything here is written naively and separately from the library so it can
serve as an oracle: sort per conversation, split on gaps, count, and apply
the feature formulas directly with the statistics module.
"""

from __future__ import annotations

import heapq
import math
import statistics

PR_CAP = 1e6


class RefOutOfOrder(Exception):
    pass


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


def ref_ft_table(segments):
    """Map 5-tuple -> ordered list of segment start times."""
    table = {}
    for seg in segments:
        a, b = seg["key"]
        init = seg["initiator"]
        resp = b if init == a else a
        ft = (init[0], init[1], resp[0], resp[1], seg["size"])
        table.setdefault(ft, []).append(seg["start"])
    for starts in table.values():
        starts.sort()
    return table


def ref_iat(starts):
    return [b - a for a, b in zip(starts, starts[1:])]


def ref_periodicity(starts, cap=PR_CAP):
    iat = ref_iat(starts)
    if len(iat) < 2:
        return 0.0
    var = statistics.pvariance(iat)
    if var == 0:
        return cap
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


def ref_all_features(table, cap=PR_CAP):
    """5-tuple -> (pR, dR, cR, uR, sR), each computed the straightforward way."""
    fts = list(table)
    ports_by_ip = ref_ports_by_ip(fts)
    pair_sets = ref_pair_sets(fts)
    max_seg = max(ft[4] for ft in fts)
    out = {}
    for ft in fts:
        starts = table[ft]
        out[ft] = (
            ref_periodicity(starts, cap),
            ref_durability(starts),
            ref_complexity(ft, ports_by_ip),
            ref_popularity(ft, pair_sets),
            ref_size_feature(ft, max_seg),
        )
    return out


def ref_hmi(master, table):
    """Exhaustive per-peer quantity sums; returns the best (qty, ip)."""
    totals = {}
    for (src_ip, _sp, dst_ip, _dp, size), starts in table.items():
        if src_ip == master:
            totals[dst_ip] = totals.get(dst_ip, 0) + len(starts) * size
    best = None
    for ip in sorted(totals):
        if best is None or totals[ip] > best[0]:
            best = (totals[ip], ip)
    return best
