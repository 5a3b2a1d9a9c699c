"""Ranking features for SCADA 5-tuples.

Five per-tuple features: periodicity (pR), communication durability (dR),
device complexity gap (cR), service popularity (uR), and segment size (sR).
Each is normalized by its maximum over the dataset and the final score is
the product of the five normalized values.  cR reads the device table
(``build_device_profiles``), the same table Algorithm 1 classifies devices by.

pR and dR come from each 5-tuple's own cell.  cR, uR and sR come from five
counts: the port counts of the two devices, the distinct device pairs of the
two ports and the segment size.  A ranking entry holds six fields: the key,
the segment count, pR, dR, the ``SharedFeatures`` of every 5-tuple with the
same five counts, and the score.  ``rank`` sorts the entries by score once,
then sorts only the runs of equal scores.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from operator import attrgetter, truediv
from typing import Mapping, TextIO

from scadascope.segmentation import FtCell, FtKey, periodicity_durability


# The five features in the order of ``RankedFt.raw`` and ``RankedFt.normalized``.
FEATURES = ("pR", "dR", "cR", "uR", "sR")


def score_product(pR_n: float, dR_n: float, cR_n: float, uR_n: float, sR_n: float) -> float:
    return pR_n * dR_n * cR_n * uR_n * sR_n


# The divisors of features built without a dataset: ``normalized`` is ``raw``.
_UNIT_DIVISORS = (1.0,) * len(FEATURES)


@dataclass(slots=True)
class SharedFeatures:
    """cR, uR and sR of the 5-tuples with the same five counts, and the
    ranking's ``divisors``: each column's maximum over the dataset."""

    cR: float
    uR: float
    sR: float
    divisors: tuple[float, ...] = _UNIT_DIVISORS


@dataclass(slots=True)
class RankedFt:
    """One ranked 5-tuple: its segment count, its features and its score.

    Six fields: the key, the segment count ``n``, the 5-tuple's own pR and
    dR, the ``SharedFeatures`` of its group and ``f``, the product of the
    normalized features (``score_product``).  ``raw`` (the five features in
    ``FEATURES`` order) and ``normalized`` (``raw`` over the group's
    ``divisors``) are computed when read.
    """

    key: FtKey
    n: int
    pR: float
    dR: float
    shared: SharedFeatures
    f: float = 0.0

    @property
    def raw(self) -> tuple[float, ...]:
        shared = self.shared
        return self.pR, self.dR, shared.cR, shared.uR, shared.sR

    @property
    def normalized(self) -> tuple[float, ...]:
        return tuple(map(truediv, self.raw, self.shared.divisors))


@dataclass
class DeviceProfile:
    """Per-device connectivity and port-usage evidence."""

    peers: set[str] = field(default_factory=set)
    ft_count: int = 0
    # Segments per port on this device's own side; its keys are the ports it uses.
    own_port_segments: Counter = field(default_factory=Counter)

    @property
    def degree(self) -> int:
        return len(self.peers)

    def scada_fraction(self, port: int) -> float:
        """Share of this device's segments carrying ``port`` on its own side.

        ``build_device_profiles`` gives every profile at least one segment.
        """
        return self.own_port_segments.get(port, 0) / self.own_port_segments.total()

    def snapshot(self, port: int | None) -> dict:
        return {
            "degree": self.degree,
            "ft_count": self.ft_count,
            "ports_used": len(self.own_port_segments),
            "segments": self.own_port_segments.total(),
            "scada_fraction": None if port is None else round(self.scada_fraction(port), 6),
        }


def build_device_profiles(ft_map: Mapping[FtKey, FtCell]) -> dict[str, DeviceProfile]:
    """The device table: one profile per address, read by cR and Algorithm 1."""
    profiles: dict[str, DeviceProfile] = {}
    for (src_ip, src_port, dst_ip, dst_port, _size), cell in ft_map.items():
        n = cell.n
        src = profiles.get(src_ip)
        if src is None:
            src = profiles[src_ip] = DeviceProfile()
        dst = profiles.get(dst_ip)
        if dst is None:
            dst = profiles[dst_ip] = DeviceProfile()
        src.peers.add(dst_ip)
        dst.peers.add(src_ip)
        src.ft_count += 1
        dst.ft_count += 1
        src.own_port_segments[src_port] += n
        dst.own_port_segments[dst_port] += n
    return profiles


def _gap(a: int, b: int) -> float:
    """The larger of two positive counts over the smaller, >= 1: cR of two
    devices' port counts, uR of two ports' distinct device pairs."""
    return max(a / b, b / a)


def rank(ft_map: Mapping[FtKey, FtCell], profiles: dict[str, DeviceProfile]) -> list[RankedFt]:
    """Score every 5-tuple and sort by descending product score.

    ``profiles`` is the device table of ``ft_map`` (``build_device_profiles``);
    an address missing from it is a ``ValueError``.  pR and dR come from
    ``periodicity_durability``.

    cR is the gap between the endpoints' port counts, uR the gap between
    the distinct (src_ip, dst_ip) pairs of the source port among 5-tuples
    where it is the source and of the destination port where it is the
    destination, and sR the segment size over the largest.  One pass over
    the keys counts the pairs; the 5-tuples with the same five counts share
    one ``SharedFeatures``, which also holds the divisors: each column's
    maximum (infinity for a column of zeros, so it normalizes to 0.0).

    The order is descending ``f``, then descending normalized periodicity,
    then the 5-tuple itself, so it is deterministic: one sort by ``f``,
    then sorts inside each run of equal ``f`` only.
    """
    if not ft_map:
        return []
    port_count = {ip: len(prof.own_port_segments) for ip, prof in profiles.items()}
    pairs_as_src: defaultdict[int, set[tuple[str, str]]] = defaultdict(set)
    pairs_as_dst: defaultdict[int, set[tuple[str, str]]] = defaultdict(set)
    # The sets share one tuple per device pair.  A tuple per 5-tuple, freed
    # with the sets, would fill CPython's tuple free list, which only a full
    # collection empties, and the entries could not reuse that memory.
    pair_of: dict[tuple[str, str], tuple[str, str]] = {}
    for src_ip, src_port, dst_ip, dst_port, _size in ft_map:
        pair = src_ip, dst_ip
        pair = pair_of.setdefault(pair, pair)
        pairs_as_src[src_port].add(pair)
        pairs_as_dst[dst_port].add(pair)
    src_use = {port: len(pairs) for port, pairs in pairs_as_src.items()}
    dst_use = {port: len(pairs) for port, pairs in pairs_as_dst.items()}
    del pairs_as_src, pairs_as_dst, pair_of  # freed before the entries are built
    max_seg = max(key.seg_size for key in ft_map)

    groups: dict[tuple[int, ...], SharedFeatures] = {}
    entries = []
    top_pR = top_dR = 0.0
    for key, cell in ft_map.items():
        src_ip, src_port, dst_ip, dst_port, size = key
        try:
            a, b = port_count[src_ip], port_count[dst_ip]
        except KeyError as exc:
            raise ValueError(f"device {exc.args[0]} not present in the device table") from None
        c, d = src_use[src_port], dst_use[dst_port]
        counts = a, b, c, d, size
        shared = groups.get(counts)
        if shared is None:
            shared = groups[counts] = SharedFeatures(_gap(a, b), _gap(c, d), size / max_seg)
        pR, dR = periodicity_durability(cell)
        if pR > top_pR:
            top_pR = pR
        if dR > top_dR:
            top_dR = dR
        entries.append(RankedFt(key, cell.n, pR, dR, shared))

    # Every feature is finite and >= 0, so a column whose maximum is not
    # positive holds only zeros; dividing them by infinity gives 0.0.
    shared_all = groups.values()
    maxima = (
        top_pR, top_dR,
        max(s.cR for s in shared_all), max(s.uR for s in shared_all), max(s.sR for s in shared_all),
    )
    divisors = tuple(m if m > 0 else math.inf for m in maxima)
    for shared in shared_all:
        shared.divisors = divisors
    d_pR, d_dR, d_cR, d_uR, d_sR = divisors
    for e in entries:
        s = e.shared
        # every zero score is the one constant 0.0
        e.f = score_product(e.pR / d_pR, e.dR / d_dR, s.cR / d_cR, s.uR / d_uR, s.sR / d_sR) or 0.0

    # Stable sorts, the last one the primary, so no entry needs a key tuple:
    # f first over the whole table, then (-pR_n, 5-tuple) inside each run of
    # equal f.  pR_n is the quotient, not raw pR: two raw values can round
    # to one quotient.
    entries.sort(key=attrgetter("f"), reverse=True)
    by_key = attrgetter("key")
    total = len(entries)
    i = 0
    while i < total:
        f = entries[i].f
        j = i + 1
        while j < total and entries[j].f == f:
            j += 1
        if j - i > 1:
            run = entries[i:j]
            run.sort(key=by_key)
            run.sort(key=lambda e: e.pR / d_pR, reverse=True)
            entries[i:j] = run
        i = j
    return entries


RANKING_CSV_COLUMNS = ["rank", *FtKey._fields, *(f"{name}_n" for name in FEATURES), "f"]


def write_ranking_csv(ranked: list[RankedFt], fp: TextIO, top: int | None = None) -> None:
    """Write the ranking table (one row per 5-tuple, best first)."""
    writer = csv.writer(fp)
    writer.writerow(RANKING_CSV_COLUMNS)
    rows = ranked if top is None else ranked[:top]
    for pos, entry in enumerate(rows, start=1):
        writer.writerow(
            [pos, *entry.key, *(f"{x:.4f}" for x in entry.normalized), f"{entry.f:.6e}"]
        )
