"""Passive SCADA network fingerprinting from packet traces.

Given only a capture (pcap or JSON-lines records), the pipeline infers which
network port carries the SCADA protocol and classifies devices as field
devices, master servers, or non-SCADA peripherals, without inspecting any
payload bytes.  A seeded synthetic traffic generator with ground-truth labels
serves as the verification oracle.
"""

from scadascope.ingest import (
    DEFAULT_SERVICE_PORTS,
    FilterConfig,
    PacketRecord,
    filter_packets,
    read_pcap,
    read_records,
)
from scadascope.segmentation import (
    FtCell,
    FtKey,
    aggregate_ft,
    segment_stream,
)
from scadascope.features import (
    RankedFt,
    rank,
)
from scadascope.inference import (
    InferenceConfig,
    TopologyReport,
    analyze_records,
    evaluate,
    prefix_stability,
    run_algorithm1,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SERVICE_PORTS",
    "FilterConfig",
    "FtCell",
    "FtKey",
    "InferenceConfig",
    "PacketRecord",
    "RankedFt",
    "TopologyReport",
    "aggregate_ft",
    "analyze_records",
    "evaluate",
    "filter_packets",
    "prefix_stability",
    "rank",
    "read_pcap",
    "read_records",
    "run_algorithm1",
    "segment_stream",
    "__version__",
]
