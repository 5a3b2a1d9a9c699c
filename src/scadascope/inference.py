"""Topology inference from the ranked 5-tuple list.

The loop: take the top-ranked communication, read the SCADA port off its
lower-degree endpoint, classify field devices and master servers against
that port, strip every entry touching the port, repeat once per deployed
protocol.  Optionally pick the HMI behind the master by communication
quantity when a three-layer deployment is known.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from scadascope.features import DeviceProfile, RankedFt, build_device_profiles, rank
from scadascope.ingest import PacketRecord
from scadascope.segmentation import DEFAULT_T_COMM, FtCell, FtKey, StreamStats, aggregate_records

log = logging.getLogger(__name__)


class NoScadaFoundError(LookupError):
    """The ranked list is empty; nothing to infer a port from."""


@dataclass
class InferenceConfig:
    """Every setting of one analysis, from segmentation to Algorithm 1.

    ``t_comm`` is the segment gap, checked here, when the config is built,
    so a bad value is refused before a trace is read.  ``segment_stream``
    checks it again for callers that pass it directly.  The rest steer
    Algorithm 1.
    """

    num_scada_protocols: int = 1
    fd_degree_threshold: int = 5
    scada_fraction_threshold: float = 0.5
    three_layer: bool = False
    t_comm: float = DEFAULT_T_COMM

    def __post_init__(self) -> None:
        if self.num_scada_protocols < 1:
            raise ValueError("num_scada_protocols must be >= 1")
        for name in ("fd_degree_threshold", "scada_fraction_threshold", "t_comm"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        # Every device has a peer and at most all of its segments on one port,
        # so outside these ranges no device could be a field device.
        if self.fd_degree_threshold <= 1:
            raise ValueError(f"fd_degree_threshold must be above 1, got {self.fd_degree_threshold}")
        if self.scada_fraction_threshold >= 1:
            raise ValueError(f"scada_fraction_threshold must be below 1, got {self.scada_fraction_threshold}")


@dataclass
class ProtocolEntry:
    scada_port: int
    scada_ip: str
    field_devices: set[str] = field(default_factory=set)
    master_servers: set[str] = field(default_factory=set)
    degree_tie: bool = False

    def to_dict(self) -> dict:
        return {
            "scada_port": self.scada_port,
            "scada_ip": self.scada_ip,
            "field_devices": sorted(self.field_devices),
            "master_servers": sorted(self.master_servers),
            "degree_tie": self.degree_tie,
        }


@dataclass
class TopologyReport:
    protocols: list[ProtocolEntry] = field(default_factory=list)
    hmi: str | None = None
    evidence: dict[str, dict] = field(default_factory=dict)
    status: str = "ok"  # ok | partial
    warnings: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def low_confidence(self) -> bool:
        return self.status != "ok" or any(not p.field_devices for p in self.protocols)

    def classified_devices(self) -> set[str]:
        out: set[str] = set()
        for entry in self.protocols:
            out |= entry.field_devices
            out |= entry.master_servers
        if self.hmi is not None:
            out.add(self.hmi)
        return out

    @property
    def unclassified(self) -> set[str]:
        return {ip for ip, ev in self.evidence.items() if ev["role"] == "unclassified"}

    def topology_signature(self) -> tuple:
        """Comparable summary of the inferred topology (ignores evidence)."""
        return (
            tuple(
                (p.scada_port, frozenset(p.field_devices), frozenset(p.master_servers))
                for p in self.protocols
            ),
            self.hmi,
        )

    def to_dict(self) -> dict:
        return {
            "protocols": [p.to_dict() for p in self.protocols],
            "hmi": self.hmi,
            "unclassified": sorted(self.unclassified),
            "evidence": {ip: self.evidence[ip] for ip in sorted(self.evidence)},
            "status": self.status,
            "warnings": list(self.warnings),
            "metrics": dict(self.metrics),
        }


def infer_scada_port(
    ranked: Sequence[RankedFt], profiles: dict[str, DeviceProfile]
) -> tuple[int, str, bool]:
    """Infer the SCADA port from the top-ranked communication.

    Returns (port, ip owning it, tie flag).  The port sits on the endpoint
    with the lower connectivity degree; a degree tie falls back to the
    lower-numbered port.
    """
    if not ranked:
        raise NoScadaFoundError("ranked list is empty, no SCADA communication to pick")
    key = ranked[0].key
    deg_src = profiles[key.src_ip].degree
    deg_dst = profiles[key.dst_ip].degree
    if deg_src < deg_dst:
        return key.src_port, key.src_ip, False
    if deg_dst < deg_src:
        return key.dst_port, key.dst_ip, False
    if key.src_port <= key.dst_port:
        return key.src_port, key.src_ip, True
    return key.dst_port, key.dst_ip, True


def infer_field_devices(
    scada_port: int,
    profiles: dict[str, DeviceProfile],
    config: InferenceConfig,
) -> set[str]:
    """Devices dominated by own-side SCADA traffic with few peers."""
    out: set[str] = set()
    for ip, prof in profiles.items():
        if prof.scada_fraction(scada_port) <= config.scada_fraction_threshold:
            continue
        if prof.degree >= config.fd_degree_threshold:
            continue
        out.add(ip)
    return out


def infer_master_servers(
    scada_port: int,
    field_devices: set[str],
    ranked: Iterable[RankedFt],
) -> set[str]:
    """Non-field-devices with SCADA-port communication to an inferred field device."""
    masters: set[str] = set()
    for e in ranked:
        key = e.key
        if key.src_port != scada_port and key.dst_port != scada_port:
            continue
        if key.src_ip in field_devices and key.dst_ip not in field_devices:
            masters.add(key.dst_ip)
        elif key.dst_ip in field_devices and key.src_ip not in field_devices:
            masters.add(key.src_ip)
    return masters


def hmi_candidates(master: str, ranked: Iterable[RankedFt]) -> list[tuple[float, str]]:
    """Peers of ``master`` ordered by total communication quantity, best first.

    Quantity of one 5-tuple is occurrence count times segment size; per-peer
    totals sum over every 5-tuple the master initiates toward that peer.
    """
    qty: dict[str, float] = {}
    for e in ranked:
        key = e.key
        if key.src_ip != master:
            continue
        qty[key.dst_ip] = qty.get(key.dst_ip, 0.0) + e.n * key.seg_size
    return sorted(((q, ip) for ip, q in qty.items()), key=lambda t: (-t[0], t[1]))


def run_algorithm1(
    ranked: Sequence[RankedFt],
    profiles: dict[str, DeviceProfile],
    config: InferenceConfig,
) -> TopologyReport:
    """Infer one protocol entry per iteration, removing its port in between.

    ``profiles`` is the device table ``ranked`` was ranked with.
    """
    report = TopologyReport()
    working = list(ranked)
    # ip -> (role, port its evidence is measured on); the first protocol
    # to classify a device decides both.
    roles: dict[str, tuple[str, int]] = {}

    for i in range(config.num_scada_protocols):
        if not working:
            report.status = "partial"
            report.warnings.append(
                f"ranked list exhausted after {i} of {config.num_scada_protocols} protocol iterations"
            )
            break
        port, owner_ip, tie = infer_scada_port(working, profiles)
        fds = infer_field_devices(port, profiles, config)
        masters = infer_master_servers(port, fds, ranked)
        entry = ProtocolEntry(
            scada_port=port,
            scada_ip=owner_ip,
            field_devices=fds,
            master_servers=masters,
            degree_tie=tie,
        )
        report.protocols.append(entry)
        if tie:
            report.warnings.append(f"protocol {i}: degree tie on top entry, chose port {port}")
        if not fds:
            report.warnings.append(
                f"protocol {i}: no device met the field-device conditions for port {port}"
            )
        for ip in fds:
            roles.setdefault(ip, ("field_device", port))
        for ip in masters:
            roles.setdefault(ip, ("master", port))
        working = [
            r for r in working if port != r.key.src_port and port != r.key.dst_port
        ]

    if config.three_layer:
        masters = set().union(*(p.master_servers for p in report.protocols))
        candidates = {m: hmi_candidates(m, ranked) for m in masters}
        if not candidates:
            report.warnings.append("three-layer requested but no master server was inferred")
        else:
            primary = min(candidates, key=lambda m: (-sum(q for q, _ in candidates[m]), m))
            best = candidates[primary]
            if not best:
                report.warnings.append(f"master {primary} initiates no communication, HMI unknown")
            else:
                report.hmi = best[0][1]
                if len(best) > 1 and best[1][0] == best[0][0]:
                    report.warnings.append("HMI quantity tie, chose lowest address")
                _, port = roles.get(report.hmi, (None, report.protocols[0].scada_port))
                roles[report.hmi] = ("hmi", port)

    first_port = report.protocols[0].scada_port if report.protocols else None
    for ip, prof in profiles.items():
        role, port = roles.get(ip, ("unclassified", first_port))
        report.evidence[ip] = {**prof.snapshot(port), "role": role}
    return report


@dataclass
class AnalysisResult:
    report: TopologyReport
    ranked: list[RankedFt]
    record_count: int
    last_ts: float | None = None
    prefix_reports: list[TopologyReport] = field(default_factory=list)


def analyze_records(
    records: Iterable[PacketRecord],
    inference_config: InferenceConfig | None = None,
    cutoffs: Sequence[float] = (),
) -> AnalysisResult:
    """Full pipeline from a time-ordered record stream to a topology report.

    ``inference_config`` holds every setting, the default one when absent.
    The segmenter counts the records (see ``segment_stream``).  The device
    table is built once and read by both ranking and Algorithm 1.

    ``cutoffs`` are non-decreasing times, none NaN, as ``segment_stream``
    checks.  ``prefix_reports`` then holds one report per cutoff, equal to
    this function's report on the records up to that time, from the same
    pass: prefixes ending at the same record share one report, and a cutoff
    the stream never passes gets the full report.
    """
    if inference_config is None:
        inference_config = InferenceConfig()
    stats = StreamStats()
    prefix_reports: list[TopologyReport] = []

    def on_prefix(passed: int, ft_map: dict[FtKey, FtCell]) -> None:
        report, _ = _analyze_table(ft_map, stats.records, inference_config)
        prefix_reports.extend([report] * passed)

    ft_map = aggregate_records(records, inference_config.t_comm, cutoffs, on_prefix, stats)
    report, ranked = _analyze_table(ft_map, stats.records, inference_config)
    prefix_reports.extend([report] * (len(cutoffs) - len(prefix_reports)))
    return AnalysisResult(
        report=report,
        ranked=ranked,
        record_count=stats.records,
        last_ts=stats.last_ts,
        prefix_reports=prefix_reports,
    )


def _analyze_table(
    ft_map: Mapping[FtKey, FtCell],
    record_count: int,
    config: InferenceConfig,
) -> tuple[TopologyReport, list[RankedFt]]:
    """Rank a 5-tuple table and run Algorithm 1 on it."""
    profiles = build_device_profiles(ft_map)
    ranked = rank(ft_map, profiles)
    if ranked:
        report = run_algorithm1(ranked, profiles, config)
    else:
        report = TopologyReport(status="partial", warnings=["no communication to rank"])
    report.metrics = {
        "records": record_count,
        "segments": sum(cell.n for cell in ft_map.values()),
        "ft_count": len(ft_map),
    }
    return report, ranked


def evaluate(report: TopologyReport, truth: dict[str, str]) -> dict:
    """Precision/recall/F-score of the claimed SCADA set against labels.

    ``truth`` maps ip to a role; field_device, master and hmi count as
    positives, everything else as negatives.
    """
    if not truth:
        raise ValueError("ground truth is empty")
    claimed = report.classified_devices()
    actual = {ip for ip, role in truth.items() if role in ("field_device", "master", "hmi")}
    tp = len(claimed & actual)
    fp = len(claimed - actual)
    fn = len(actual - claimed)
    if claimed:
        precision = tp / len(claimed)
    else:
        precision = 1.0 if not actual else 0.0
    recall = tp / len(actual) if actual else 1.0
    f_score = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return {
        "precision": precision,
        "recall": recall,
        "f_score": f_score,
        "tp": tp,
        "fp": fp,
        "fn": fn,
    }


@dataclass
class StabilityResult:
    by_fraction: dict[float, TopologyReport]
    full_report: TopologyReport

    def stable_fractions(self) -> list[float]:
        target = self.full_report.topology_signature()
        return [f for f, rep in self.by_fraction.items() if rep.topology_signature() == target]

    @property
    def smallest_stable(self) -> float | None:
        return min(self.stable_fractions(), default=None)


def prefix_stability(
    records: Iterable[PacketRecord],
    fractions: Iterable[float],
    inference_config: InferenceConfig | None = None,
    end: float | None = None,
) -> StabilityResult:
    """Analyse time prefixes of the trace in one pass over it.

    A fraction p keeps the records up to ``t0 + p * (end - t0)``, where t0
    and ``end`` are the first and last timestamps, and a fraction of 1 the
    whole trace.  Each fraction's report equals an ``analyze_records`` rerun
    on its prefix.  The result records which fractions already reproduce
    the full-trace topology.  ``inference_config`` holds every setting, as
    for ``analyze_records``.

    ``end`` is a hint of the last timestamp, which lets a stream be read
    without holding it.  Without a hint, ``records`` is held as a list and
    its last record gives the end.  When the stream ends elsewhere than the
    hint, a warning is logged and ``records`` is read once more with the true
    end, so with a hint it must be re-iterable, unless the hint is exact.
    """
    fractions = list(fractions)
    if not fractions:
        raise ValueError("fractions must lie in (0, 1], got none")
    for frac in fractions:  # before sorting: NaN compares false with everything
        if not 0 < frac <= 1:
            raise ValueError(f"fractions must lie in (0, 1], got {frac}")
    fractions = sorted(set(fractions))
    if end is None:
        if not isinstance(records, Sequence):
            records = list(records)
        if records:
            end = records[-1].ts

    def one_pass(end: float | None) -> AnalysisResult:
        stream = iter(records)
        first = next(stream, None)
        if first is None:
            cutoffs = [math.inf] * len(fractions)
        else:
            stream = chain((first,), stream)
            t0 = first.ts
            # A fraction of 1 takes every record: its cutoff t0 + 1.0 * span
            # can round below the last timestamp.
            cutoffs = [t0 + f * (end - t0) if f < 1 else math.inf for f in fractions]
        return analyze_records(stream, inference_config=inference_config, cutoffs=cutoffs)

    result = one_pass(end)
    if result.last_ts is not None and result.last_ts != end:
        if isinstance(records, Iterator):
            raise ValueError(
                f"the stream ends at {result.last_ts:.6f}, not at the hinted {end:.6f}, "
                "and cannot be read again"
            )
        log.warning(
            "the stream ends at %.6f, not at the hinted %.6f; reading it again",
            result.last_ts,
            end,
        )
        result = one_pass(result.last_ts)
    return StabilityResult(
        by_fraction=dict(zip(fractions, result.prefix_reports)), full_report=result.report
    )


def load_ground_truth(obj: dict) -> dict[str, str]:
    """Normalize a truth mapping: values may be plain roles or {role, protocol}."""
    if not isinstance(obj, dict):
        raise ValueError(f"ground truth must be a JSON object, got {type(obj).__name__}")
    out: dict[str, str] = {}
    for ip, value in obj.items():
        role = value.get("role") if isinstance(value, dict) else value
        if role not in ("field_device", "master", "hmi", "peripheral"):
            raise ValueError(f"unknown ground-truth role {role!r} for {ip}")
        out[ip] = role
    return out


_DOT_SHAPES = {
    "field_device": "box",
    "master": "doublecircle",
    "hmi": "diamond",
    "unclassified": "ellipse",
}


def _dot_id(name: str) -> str:
    """``name`` as a quoted DOT ID, its backslashes and quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def report_to_dot(report: TopologyReport, ranked: Iterable[RankedFt]) -> str:
    """Render the report inferred from ``ranked`` as an undirected DOT graph."""
    lines = ["graph scada_topology {", "  node [shape=ellipse];"]
    for ip in sorted(report.evidence):
        lines.append(f"  {_dot_id(ip)} [shape={_DOT_SHAPES[report.evidence[ip]['role']]}];")

    for entry in report.protocols:
        port = entry.scada_port
        seg_counts: dict[tuple[str, str], int] = {}
        for e in ranked:
            key = e.key
            if port != key.src_port and port != key.dst_port:
                continue
            pair = tuple(sorted((key.src_ip, key.dst_ip)))
            seg_counts[pair] = seg_counts.get(pair, 0) + e.n
        for (a, b), n in sorted(seg_counts.items()):
            if a in entry.field_devices or b in entry.field_devices:
                lines.append(f'  {_dot_id(a)} -- {_dot_id(b)} [label="port {port} n={n}"];')
    if report.hmi is not None:
        masters = set().union(*(entry.master_servers for entry in report.protocols))
        for master in sorted(masters):
            qty = {ip: q for q, ip in hmi_candidates(master, ranked)}
            if report.hmi in qty:
                lines.append(
                    f'  {_dot_id(master)} -- {_dot_id(report.hmi)} [label="hmi qty={qty[report.hmi]:.3e}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
