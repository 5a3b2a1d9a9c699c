"""Benchmark workloads: scenario file, trace format, CLI command and oracle.

Each workload's trace is made by the seeded generator from a scenario file
in ``scenarios/`` (readable by ``scadascope synth --scenario``; the seed
argument overrides the seed in the file).  The CLI sees only the trace file
that was written.  Every report is scored against the generator's ground
truth before its timing counts.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

from scadascope.synth import GroundTruth, ScenarioConfig, generate, load_scenario, write_pcap, write_records

SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"

# Spans that run for every workload; the traced run fails if one of the
# spans expected for its workload records no call.
_CORE_SPANS = (
    "cli",
    "ingest.ensure_time_order",
    "segmentation.segment_stream",
    "segmentation.aggregate_ft",
    "segmentation.aggregate_records",
    "features.rank",
    "inference.build_device_profiles",
    "inference.run_algorithm1",
    "inference.analyze_records",
)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    trace_format: str  # "jsonl" or "pcap"
    subcommand: str
    flags: tuple[str, ...]
    fast_duration: float  # scenario duration in seconds for the self-test
    spans: tuple[str, ...]

    def load(self, seed: int, fast: bool) -> ScenarioConfig:
        config = load_scenario(str(SCENARIO_DIR / self.scenario))
        config.seed = seed
        if fast:
            config.duration = self.fast_duration
        return config

    def default_seed(self) -> int:
        return load_scenario(str(SCENARIO_DIR / self.scenario)).seed

    def cli_args(self, trace: str, report: str) -> list[str]:
        args = [self.subcommand, trace, *self.flags]
        if self.subcommand == "analyze":
            args += ["--out", report]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="day-jsonl",
            scenario="day.json",
            trace_format="jsonl",
            subcommand="analyze",
            flags=("--num-protocols", "1", "--three-layer"),
            fast_duration=900.0,
            spans=_CORE_SPANS + ("ingest.read_records",),
        ),
        Workload(
            name="churn-pcap",
            scenario="churn.json",
            trace_format="pcap",
            subcommand="analyze",
            flags=("--num-protocols", "2", "--filter-ports", "6000"),
            fast_duration=300.0,
            spans=_CORE_SPANS + ("ingest.read_pcap", "ingest.filter_packets"),
        ),
        Workload(
            name="month-stability",
            scenario="month.json",
            trace_format="jsonl",
            subcommand="stability",
            flags=(),
            fast_duration=3 * 86400.0,
            spans=_CORE_SPANS + ("ingest.read_records", "inference.prefix_stability"),
        ),
    )
}


def write_trace(workload: Workload, config: ScenarioConfig, path: str, tracer=None) -> tuple[int, GroundTruth]:
    """Generate the workload's trace into ``path``; returns (records, truth).

    With a tracer, generation and writing are recorded as the ``synth.*``
    spans.
    """
    writer = write_pcap if workload.trace_format == "pcap" else write_records
    records, truth = generate(config)
    if tracer is None:
        return writer(records, path), truth
    records = tracer.iterate(tracer.open("synth.generate"), records)
    count = tracer.run(tracer.open(f"synth.{writer.__name__}"), writer, records, path)
    return count, truth


def report_digest(workload: Workload, report_text: str) -> str:
    """sha256 of the report with ``manifest.duration_s`` removed.

    ``analyze`` writes a JSON report; ``stability`` prints its report, which
    holds no wall-clock time.
    """
    if workload.subcommand == "analyze":
        payload = json.loads(report_text)
        del payload["manifest"]["duration_s"]
        report_text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(report_text.encode()).hexdigest()


_STABLE = re.compile(r"^smallest stable fraction: (\S+)$", re.MULTILINE)


def check(workload: Workload, config: ScenarioConfig, truth: GroundTruth, report_text: str,
          full_port: int | None = None) -> list[str]:
    """Problems found when scoring one report against the ground truth."""
    fds = truth.devices_with_role("field_device")
    masters = truth.devices_with_role("master")
    hmis = truth.devices_with_role("hmi")
    ports = [group.port for group in config.scada_groups]
    problems = []
    if workload.subcommand == "stability":
        match = _STABLE.search(report_text)
        if match is None:
            return ["stability printed no smallest stable fraction"]
        if float(match.group(1)) > 0.10:
            problems.append(f"smallest stable fraction {match.group(1)} > 0.1")
        if full_port is not None and full_port != ports[0]:
            problems.append(f"full-trace port {full_port}, expected {ports[0]}")
        return problems

    report = json.loads(report_text)
    # The ground truth says which ports are SCADA ports, not in which order
    # Algorithm 1 finds them: that follows the single top-ranked 5-tuple.
    # On churn-pcap many 5-tuples hold only three segments, and one whose
    # two gaps happen to be nearly equal gets a huge periodicity score, so
    # either protocol can come first.  Every port's devices are checked.
    got_ports = [entry["scada_port"] for entry in report["protocols"]]
    if sorted(got_ports) != sorted(ports):
        problems.append(f"ports {got_ports}, expected {ports} in any order")
    claimed = {report["hmi"]} if report["hmi"] else set()
    for entry in report["protocols"]:
        claimed |= set(entry["field_devices"]) | set(entry["master_servers"])
        port = entry["scada_port"]
        got_fds = set(entry["field_devices"])
        expected_fds = {ip for ip in fds if truth.labels[ip]["protocol"] == port}
        if got_fds != expected_fds:
            problems.append(f"{len(got_fds & expected_fds)}/{len(expected_fds)} field devices "
                            f"on port {port}, {len(got_fds - expected_fds)} wrong")
        if set(entry["master_servers"]) != masters:
            problems.append(f"masters {sorted(entry['master_servers'])} on port {port}, "
                            f"expected {sorted(masters)}")
    if config.layers == 3 and {report["hmi"]} != hmis:
        problems.append(f"hmi {report['hmi']}, expected {sorted(hmis)}")
    actual = fds | masters | hmis
    tp = len(claimed & actual)
    f_score = 2 * tp / (len(claimed) + len(actual)) if claimed or actual else 1.0
    if f_score != 1.0:
        problems.append(f"F = {f_score:.4f}, expected 1.0")
    return problems
