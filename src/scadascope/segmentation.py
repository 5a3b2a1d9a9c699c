"""Communication segmentation and 5-tuple aggregation.

A conversation (unordered endpoint pair) is cut into segments wherever the
gap to the previous packet reaches the ``t_comm`` threshold.  Segments are
then bucketed by the 5-tuple (initiator ip/port, responder ip/port, segment
size), which is the unit everything downstream ranks and classifies.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from scadascope.ingest import PacketRecord, compact_json

DEFAULT_T_COMM = 1.0

Endpoint = tuple[str, int]


@dataclass(slots=True)
class CommunicationSegment:
    """A gap-delimited run of packets on one conversation."""

    start_ts: float
    end_ts: float
    seg_size: int
    packet_count: int
    initiator: Endpoint
    responder: Endpoint

    @property
    def key(self) -> tuple[Endpoint, Endpoint]:
        """The conversation, direction-free: the smaller endpoint first."""
        a, b = self.initiator, self.responder
        return (a, b) if a <= b else (b, a)

    def to_json(self) -> str:
        (a_ip, a_port), (b_ip, b_port) = self.key
        return compact_json(
            {
                "key": f"{a_ip}:{a_port}|{b_ip}:{b_port}",
                "start": self.start_ts,
                "end": self.end_ts,
                "size": self.seg_size,
                "initiator": f"{self.initiator[0]}:{self.initiator[1]}",
                "packets": self.packet_count,
            }
        )


class FtKey(NamedTuple):
    """5-tuple identifying one ranked communication type.

    Direction follows the segment initiator; the size is part of the key, so
    one conversation producing two segment sizes yields two entries.  A key
    equals, hashes and sorts as its plain tuple.
    """

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    seg_size: int

    def __str__(self) -> str:
        return f"{self.src_ip}:{self.src_port}->{self.dst_ip}:{self.dst_port}/{self.seg_size}B"


def segment_stream(
    records: Iterable[PacketRecord],
    t_comm: float = DEFAULT_T_COMM,
    cutoffs: Iterable[float] = (),
    on_cutoff: Callable[[int, Iterator[CommunicationSegment]], None] | None = None,
) -> Iterator[CommunicationSegment]:
    """Split a time-ordered packet stream into communication segments.

    A gap >= t_comm to the previous packet on the same conversation closes
    the open segment; every packet lands in exactly one segment.  Open
    segments are flushed at end of stream in first-seen conversation order.

    ``cutoffs`` are ascending times.  Before the first record later than one
    or more of them is segmented, ``on_cutoff(passed, open_segments)`` is
    called once: ``passed`` counts the cutoffs that record passes, and
    ``open_segments`` iterates the open segments as the end of the stream
    would flush them there.  Every segment closed before that record has
    been yielded by then.
    """
    if not 0 < t_comm < math.inf:
        raise ValueError(f"t_comm must be positive and finite, got {t_comm}")
    # Both directional (ip, port, ip, port) keys of a conversation map to an
    # entry (cell, src, dst).  ``cell`` is the conversation's one-item list
    # holding its open segment, shared by both directions; src and dst are
    # that direction's endpoints.  A packet so finds the open segment, and a
    # new segment its initiator and responder, without building the
    # direction-free key.  ``cells`` holds each conversation's cell once, in
    # first-seen order.
    entries: dict[
        tuple[str, int, str, int], tuple[list[CommunicationSegment], Endpoint, Endpoint]
    ] = {}
    cells: list[list[CommunicationSegment]] = []
    get = entries.get
    cuts = iter(cutoffs)
    cut = next(cuts, math.inf)
    for rec in records:
        ts = rec.ts
        if ts > cut:
            passed = 0
            while ts > cut:
                passed += 1
                cut = next(cuts, math.inf)
            on_cutoff(passed, (cell[0] for cell in cells))
        fwd = (rec.src_ip, rec.src_port, rec.dst_ip, rec.dst_port)
        entry = get(fwd)
        if entry is None:
            src = (rec.src_ip, rec.src_port)
            dst = (rec.dst_ip, rec.dst_port)
            cell = [CommunicationSegment(ts, ts, rec.size, 1, src, dst)]
            entries[fwd] = (cell, src, dst)
            entries[(rec.dst_ip, rec.dst_port, rec.src_ip, rec.src_port)] = (cell, dst, src)
            cells.append(cell)
            continue
        cell, src, dst = entry
        seg = cell[0]
        if ts - seg.end_ts < t_comm:
            seg.end_ts = ts
            seg.seg_size += rec.size
            seg.packet_count += 1
            continue
        yield seg
        cell[0] = CommunicationSegment(ts, ts, rec.size, 1, src, dst)
    for cell in cells:
        yield cell[0]


def aggregate_ft(
    segments: Iterable[CommunicationSegment], starts: dict[FtKey, array] | None = None
) -> dict[FtKey, array]:
    """The 5-tuple table: each 5-tuple's segment start times in arrival order.

    The times are kept as C doubles (``array('d')``); every time feature is
    derived from them.  ``starts``, when given, is the dict the table is
    gathered in, so a caller can read it while the segments still arrive.
    """
    if starts is None:
        starts = {}
    _insert(segments, starts)
    return starts


def _insert(segments: Iterable[CommunicationSegment], starts: dict[FtKey, array]) -> None:
    """Append each segment's start time to its 5-tuple's entry in ``starts``."""
    get = starts.get
    for seg in segments:
        # A plain tuple finds its FtKey; the key is built once per 5-tuple.
        ft = (*seg.initiator, *seg.responder, seg.seg_size)
        times = get(ft)
        if times is None:
            times = starts[FtKey._make(ft)] = array("d")
        times.append(seg.start_ts)


def aggregate_records(
    records: Iterable[PacketRecord],
    t_comm: float = DEFAULT_T_COMM,
    cutoffs: Sequence[float] = (),
    on_prefix: Callable[[int, dict[FtKey, array]], None] | None = None,
) -> dict[FtKey, array]:
    """Segment and aggregate a time-ordered record stream in one pass.

    ``cutoffs`` are ascending times.  Where the stream first passes one or
    more of them, ``on_prefix(passed, table)`` gets the table of the records
    before that point, equal to this function's result on that prefix, and
    ``passed`` counts the cutoffs passed there.  The prefix table is the
    growing table itself with the open segments added for the call: read it
    before returning, and keep no reference.
    """
    starts: dict[FtKey, array] = {}

    def on_cutoff(passed: int, open_segments: Iterator[CommunicationSegment]) -> None:
        # Add every open segment as the end of the prefix would flush it, hand
        # the table over, then take those segments out again.  A 5-tuple has
        # at most one open segment, the one of its conversation, so its last
        # time is that segment's, and an emptied entry was added here.
        flushed = list(open_segments)
        _insert(flushed, starts)
        on_prefix(passed, starts)
        for seg in flushed:
            ft = (*seg.initiator, *seg.responder, seg.seg_size)
            times = starts[ft]
            times.pop()
            if not times:
                del starts[ft]

    return aggregate_ft(segment_stream(records, t_comm, cutoffs, on_cutoff), starts)
