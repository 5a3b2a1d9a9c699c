"""Ranking features for SCADA 5-tuples.

Five per-tuple features: periodicity (pR), communication durability (dR),
device complexity gap (cR), service popularity (uR), and segment size (sR).
Each is normalized by its maximum over the dataset and the final score is
the product of the five normalized values.  cR reads the device table
(``build_device_profiles``), the same table Algorithm 1 classifies devices by.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from operator import attrgetter, truediv
from typing import Any, Callable, Iterable, Mapping, TextIO

from scadascope.segmentation import FtCell, FtKey

SRC = "src"
DST = "dst"

# pR is mean/variance of the inter-arrival times; a perfectly regular
# schedule has zero variance, which gets this finite stand-in instead.
DEFAULT_PR_CAP = 1e6

SECONDS_PER_HOUR = 3600.0


# The five features in the order of ``RankedFt.raw`` and ``RankedFt.normalized``.
FEATURES = ("pR", "dR", "cR", "uR", "sR")


def score_product(pR_n: float, dR_n: float, cR_n: float, uR_n: float, sR_n: float) -> float:
    return pR_n * dR_n * cR_n * uR_n * sR_n


# The divisors of an entry built without a dataset: ``normalized`` is ``raw``.
_UNIT_DIVISORS = (1.0,) * len(FEATURES)


@dataclass(slots=True)
class RankedFt:
    """One ranked 5-tuple: its segment count, its features and its score.

    ``raw`` holds the five features in ``FEATURES`` order.  ``divisors`` is
    the one tuple of column maxima that every entry of a ranking shares, and
    ``normalized``, computed on access, is ``raw`` over it.  ``f`` is the
    product of the normalized features (``score_product``).
    """

    key: FtKey
    n: int
    raw: tuple[float, ...]
    f: float = 0.0
    divisors: tuple[float, ...] = _UNIT_DIVISORS

    @property
    def normalized(self) -> tuple[float, ...]:
        return tuple(map(truediv, self.raw, self.divisors))


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
        """Share of this device's segments carrying ``port`` on its own side."""
        total = self.own_port_segments.total()
        if total == 0:
            return 0.0
        return self.own_port_segments.get(port, 0) / total

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

    def get(ip: str) -> DeviceProfile:
        prof = profiles.get(ip)
        if prof is None:
            prof = profiles[ip] = DeviceProfile()
        return prof

    for key, cell in ft_map.items():
        n = cell.n
        src = get(key.src_ip)
        dst = get(key.dst_ip)
        src.peers.add(key.dst_ip)
        dst.peers.add(key.src_ip)
        src.ft_count += 1
        dst.ft_count += 1
        src.own_port_segments[key.src_port] += n
        dst.own_port_segments[key.dst_port] += n
    return profiles


def port_pair_counts(ft_keys: Iterable[FtKey]) -> dict[tuple[int, str], int]:
    """Distinct (src_ip, dst_ip) pairs per (port, src|dst), for uR.

    A port is counted among the 5-tuples where it occupies that role.
    """
    pairs: defaultdict[tuple[int, str], set[tuple[str, str]]] = defaultdict(set)
    for key in ft_keys:
        pair = (key.src_ip, key.dst_ip)
        pairs[key.src_port, SRC].add(pair)
        pairs[key.dst_port, DST].add(pair)
    return {role: len(seen) for role, seen in pairs.items()}


def periodicity_durability(cell: FtCell, cap: float = DEFAULT_PR_CAP) -> tuple[float, float]:
    """pR and dR of one 5-tuple, in constant time from its cell's shifted sums.

    With ``k = n - 1`` gaps between the segment starts and
    ``s = t1 + s1``, the gaps total ``K * k + s`` and their population
    variance is ``(t2 + s2 - s ** 2 / k) / k``.  pR is the mean gap over that
    variance: fewer than two gaps means no measurable periodicity (0), and
    a variance of zero, or one that rounding leaves at or below zero, gives
    ``cap``.  dR, the durability, is the observed length in hours times the
    natural log of the occurrence count, 0 for a single occurrence.  On
    drawn lists of up to 300,000 gaps, among them near-equal polls behind a
    first gap that stands apart, pR and dR stayed within 1e-13 of the exact
    two-pass values.
    """
    n = cell.n
    if n <= 1:
        return 0.0, 0.0
    k = n - 1
    s1 = cell.t1 + cell.s1
    total = cell.K * k + s1
    dR = (total / SECONDS_PER_HOUR) * math.log(n)
    if n <= 2:
        return 0.0, dR
    var = (cell.t2 + cell.s2 - s1 * s1 / k) / k
    if var <= 0.0:
        return cap, dR
    return (total / k) / var, dR


def _gap(counts: tuple[int, int]) -> float:
    """The larger of two positive counts over the smaller, >= 1."""
    a, b = counts
    return max(a / b, b / a)


def _device_port_counts(key: FtKey, profiles: dict[str, DeviceProfile]) -> tuple[int, int]:
    try:
        return len(profiles[key.src_ip].own_port_segments), len(profiles[key.dst_ip].own_port_segments)
    except KeyError as exc:
        raise ValueError(f"device {exc.args[0]} not present in the device table") from None


def _port_pair_use(key: FtKey, pair_counts: dict[tuple[int, str], int]) -> tuple[int, int]:
    a = pair_counts.get((key.src_port, SRC), 0)
    b = pair_counts.get((key.dst_port, DST), 0)
    if a == 0 or b == 0:
        raise ValueError(f"port usage missing for {key}")
    return a, b


def _size_ratio(seg_size: int, max_seg_size: int) -> float:
    if max_seg_size < seg_size or seg_size < 1:
        raise ValueError(f"bad segment size {seg_size} against max {max_seg_size}")
    return seg_size / max_seg_size


def compute_cR(key: FtKey, profiles: dict[str, DeviceProfile]) -> float:
    """Complexity gap: larger-over-smaller ratio of the endpoints' port counts."""
    return _gap(_device_port_counts(key, profiles))


def compute_uR(key: FtKey, pair_counts: dict[tuple[int, str], int]) -> float:
    """Service popularity: ratio of distinct device pairs using each port, >= 1.

    Pairs are counted per role: the source port among 5-tuples where it is
    the source, the destination port where it is the destination.
    """
    return _gap(_port_pair_use(key, pair_counts))


def compute_sR(key: FtKey, max_seg_size: int) -> float:
    """Segment size relative to the dataset maximum, in (0, 1]."""
    return _size_ratio(key.seg_size, max_seg_size)


class _Shared(dict):
    """A feature's values by its formula's argument, each computed on first use.

    Equal arguments share one float, so a column of few distinct values
    holds few floats however many 5-tuples it covers.
    """

    __slots__ = ("formula",)

    def __init__(self, formula: Callable[[Any], float]) -> None:
        super().__init__()
        self.formula = formula

    def __missing__(self, arg) -> float:
        value = self[arg] = self.formula(arg)
        return value


def rank(
    ft_map: Mapping[FtKey, FtCell],
    profiles: dict[str, DeviceProfile] | None = None,
    pr_cap: float = DEFAULT_PR_CAP,
) -> list[RankedFt]:
    """Score every 5-tuple and sort by descending product score.

    ``profiles`` is the device table of ``ft_map``, built here when not
    given.  ``pr_cap`` is the periodicity of a zero variance, as in
    ``periodicity_durability``; ``InferenceConfig`` checks it.  Each entry
    keeps its ``raw`` features (``FEATURES`` order) and shares one
    ``divisors`` tuple, each column's maximum over this dataset (infinity for
    a column of zeros, so it normalizes to 0.0); ``normalized`` is computed
    from them on access.  ``f`` is the product of the normalized features.
    The order is descending ``f``, then descending normalized periodicity,
    then the 5-tuple itself, so it is deterministic.
    """
    if not ft_map:
        return []
    if profiles is None:
        profiles = build_device_profiles(ft_map)
    pair_counts = port_pair_counts(ft_map)
    max_seg = max(key.seg_size for key in ft_map)
    cR_of = _Shared(_gap)
    uR_of = _Shared(_gap)
    sR_of = _Shared(lambda size: _size_ratio(size, max_seg))

    entries = []
    top_pR = top_dR = 0.0
    for key, cell in ft_map.items():
        pR, dR = periodicity_durability(cell, pr_cap)
        if pR > top_pR:
            top_pR = pR
        if dR > top_dR:
            top_dR = dR
        raw = (
            pR,
            dR,
            cR_of[_device_port_counts(key, profiles)],
            uR_of[_port_pair_use(key, pair_counts)],
            sR_of[key.seg_size],
        )
        entries.append(RankedFt(key, cell.n, raw))
    # Every feature is finite and >= 0, so a column whose maximum is not
    # positive holds only zeros; dividing them by infinity gives 0.0.
    maxima = (top_pR, top_dR, max(cR_of.values()), max(uR_of.values()), max(sR_of.values()))
    divisors = tuple(m if m > 0 else math.inf for m in maxima)
    for entry in entries:
        entry.divisors = divisors
        entry.f = score_product(*map(truediv, entry.raw, divisors))

    # Stable sorts, the last one the primary: the order of the key
    # (-f, -pR_n, 5-tuple) without a key tuple per entry.  pR_n is the
    # quotient, not raw pR: two raw values can round to one quotient.
    pR_divisor = divisors[0]
    entries.sort(key=attrgetter("key"))
    entries.sort(key=lambda e: e.raw[0] / pR_divisor, reverse=True)
    entries.sort(key=attrgetter("f"), reverse=True)
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
