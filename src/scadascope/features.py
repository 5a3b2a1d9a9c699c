"""Ranking features for SCADA 5-tuples.

Five per-tuple features: periodicity (pR), communication durability (dR),
device complexity gap (cR), service popularity (uR), and segment size (sR).
Each is normalized by its maximum over the dataset and the final score is
the product of the five normalized values.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from typing import Iterable, TextIO

from scadascope.segmentation import FtKey, FtStats

log = logging.getLogger(__name__)

SRC = "src"
DST = "dst"

# pR is mean/variance of the inter-arrival times; a perfectly regular
# schedule has zero variance, which gets this finite stand-in instead.
DEFAULT_PR_CAP = 1e6

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class RankingConfig:
    pr_cap: float = DEFAULT_PR_CAP
    log_base: str = "e"  # "e" or "10", for the durability log

    def __post_init__(self) -> None:
        if self.log_base not in ("e", "10"):
            raise ValueError(f"log_base must be 'e' or '10', got {self.log_base!r}")
        if self.pr_cap <= 0:
            raise ValueError("pr_cap must be positive")


@dataclass(slots=True)
class FeatureVector:
    """Raw and normalized feature values plus the product score f."""

    pR: float
    dR: float
    cR: float
    uR: float
    sR: float
    pR_n: float = 0.0
    dR_n: float = 0.0
    cR_n: float = 0.0
    uR_n: float = 0.0
    sR_n: float = 0.0
    f: float = 0.0

    def raw(self) -> tuple[float, float, float, float, float]:
        return (self.pR, self.dR, self.cR, self.uR, self.sR)

    def normalized(self) -> tuple[float, float, float, float, float]:
        return (self.pR_n, self.dR_n, self.cR_n, self.uR_n, self.sR_n)


def score_product(pR_n: float, dR_n: float, cR_n: float, uR_n: float, sR_n: float) -> float:
    return pR_n * dR_n * cR_n * uR_n * sR_n


@dataclass(slots=True)
class RankedFt:
    key: FtKey
    n: int
    fv: FeatureVector


class PortUsageIndex:
    """Global port-usage structure backing the cR and uR features.

    ``ports_by_ip`` maps each device to the set of ports it used on its own
    side of any 5-tuple.  ``pairs_by_port_role`` maps (port, src|dst) to the
    distinct (src_ip, dst_ip) pairs among 5-tuples where the port occupies
    that role.
    """

    __slots__ = ("ports_by_ip", "pairs_by_port_role")

    def __init__(self) -> None:
        self.ports_by_ip: dict[str, set[int]] = {}
        self.pairs_by_port_role: dict[tuple[int, str], set[tuple[str, str]]] = {}

    @classmethod
    def build(cls, ft_keys: Iterable[FtKey]) -> "PortUsageIndex":
        index = cls()
        ports = index.ports_by_ip
        pairs = index.pairs_by_port_role
        for key in ft_keys:
            ports.setdefault(key.src_ip, set()).add(key.src_port)
            ports.setdefault(key.dst_ip, set()).add(key.dst_port)
            pair = (key.src_ip, key.dst_ip)
            pairs.setdefault((key.src_port, SRC), set()).add(pair)
            pairs.setdefault((key.dst_port, DST), set()).add(pair)
        return index

    def port_count(self, ip: str) -> int:
        try:
            return len(self.ports_by_ip[ip])
        except KeyError:
            raise ValueError(f"device {ip} not present in port-usage index") from None

    def pair_count(self, port: int, role: str) -> int:
        return len(self.pairs_by_port_role.get((port, role), ()))


def compute_pR(stats: FtStats, cap: float = DEFAULT_PR_CAP) -> float:
    """Periodicity: mean over population variance of the inter-arrival times.

    Fewer than two gaps means no measurable periodicity (0); zero variance
    with enough gaps returns ``cap``.
    """
    iat = stats.iat
    k = len(iat)
    if k < 2:
        return 0.0
    mean = math.fsum(iat) / k
    var = math.fsum((x - mean) ** 2 for x in iat) / k
    if var == 0.0:
        return cap
    return mean / var


def compute_dR(stats: FtStats, log_base: str = "e") -> float:
    """Durability: observed length (hours) times the log of the occurrence count."""
    n = stats.n
    if n <= 1:
        return 0.0
    hours = math.fsum(stats.iat) / SECONDS_PER_HOUR
    return hours * (math.log10(n) if log_base == "10" else math.log(n))


def compute_cR(key: FtKey, index: PortUsageIndex) -> float:
    """Complexity gap: larger-over-smaller ratio of the endpoints' port counts."""
    a = index.port_count(key.src_ip)
    b = index.port_count(key.dst_ip)
    return max(a / b, b / a)


def compute_uR(key: FtKey, index: PortUsageIndex) -> float:
    """Service popularity: ratio of distinct device pairs using each port, >= 1.

    Pairs are counted per role: the source port among 5-tuples where it is
    the source, the destination port where it is the destination.
    """
    a = index.pair_count(key.src_port, SRC)
    b = index.pair_count(key.dst_port, DST)
    if a == 0 or b == 0:
        raise ValueError(f"port usage missing for {key}")
    return max(a / b, b / a)


def compute_sR(key: FtKey, max_seg_size: int) -> float:
    """Segment size relative to the dataset maximum, in (0, 1]."""
    if max_seg_size < key.seg_size or key.seg_size < 1:
        raise ValueError(f"bad segment size {key.seg_size} against max {max_seg_size}")
    return key.seg_size / max_seg_size


def rank(
    ft_map: dict[FtKey, FtStats],
    index: PortUsageIndex | None = None,
    config: RankingConfig | None = None,
) -> list[RankedFt]:
    """Score every 5-tuple and sort by descending product score.

    Each feature is normalized by its maximum over this dataset.  Ties are
    broken by normalized periodicity, then by the 5-tuple itself, so the
    order is deterministic.
    """
    if not ft_map:
        return []
    if config is None:
        config = RankingConfig()
    if index is None:
        index = PortUsageIndex.build(ft_map.keys())
    max_seg = max(key.seg_size for key in ft_map)

    entries: list[RankedFt] = []
    for key, stats in ft_map.items():
        fv = FeatureVector(
            pR=compute_pR(stats, cap=config.pr_cap),
            dR=compute_dR(stats, log_base=config.log_base),
            cR=compute_cR(key, index),
            uR=compute_uR(key, index),
            sR=compute_sR(key, max_seg),
        )
        entries.append(RankedFt(key=key, n=stats.n, fv=fv))

    maxima = [max(e.fv.raw()[i] for e in entries) for i in range(5)]
    for entry in entries:
        fv = entry.fv
        norms = [
            (raw / maxima[i]) if maxima[i] > 0 else 0.0 for i, raw in enumerate(fv.raw())
        ]
        fv.pR_n, fv.dR_n, fv.cR_n, fv.uR_n, fv.sR_n = norms
        fv.f = score_product(*norms)

    entries.sort(key=lambda e: (-e.fv.f, -e.fv.pR_n, e.key.as_tuple()))
    return entries


RANKING_CSV_COLUMNS = [
    "rank",
    "src_ip",
    "src_port",
    "dst_ip",
    "dst_port",
    "seg_size",
    "pR_n",
    "dR_n",
    "cR_n",
    "uR_n",
    "sR_n",
    "f",
]


def write_ranking_csv(ranked: list[RankedFt], fp: TextIO, top: int | None = None) -> None:
    """Write the ranking table (one row per 5-tuple, best first)."""
    writer = csv.writer(fp)
    writer.writerow(RANKING_CSV_COLUMNS)
    rows = ranked if top is None else ranked[:top]
    for pos, entry in enumerate(rows, start=1):
        key, fv = entry.key, entry.fv
        writer.writerow(
            [
                pos,
                key.src_ip,
                key.src_port,
                key.dst_ip,
                key.dst_port,
                key.seg_size,
                f"{fv.pR_n:.4f}",
                f"{fv.dR_n:.4f}",
                f"{fv.cR_n:.4f}",
                f"{fv.uR_n:.4f}",
                f"{fv.sR_n:.4f}",
                f"{fv.f:.6e}",
            ]
        )
