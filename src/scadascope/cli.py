"""Command-line entry point.

Subcommands: synth, rank, analyze, eval, stability, inspect.  Exit codes:
0 success, 2 input or configuration error, 3 low-confidence or partial
analysis (a protocol iteration produced no field devices, or the ranked
list ran out before the requested number of protocols).  A command's
result goes to stdout or to its output file; everything else goes to the
log, which ``--quiet`` silences.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import logging
import os
import stat
import sys
import time
from dataclasses import asdict, fields
from itertools import chain

import scadascope
from scadascope import ingest
from scadascope.features import write_ranking_csv
from scadascope.inference import (
    InferenceConfig,
    ProtocolEntry,
    TopologyReport,
    analyze_records,
    evaluate,
    load_ground_truth,
    prefix_stability,
    report_to_dot,
)
from scadascope.segmentation import StreamStats, segment_stream, segment_to_json

log = logging.getLogger("scadascope")

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_LOW_CONFIDENCE = 3


_HASH_BUFFER_BYTES = 1 << 16


def _sha256_of(path: str) -> str:
    """The SHA-256 of a file, read through one reused buffer."""
    # Imported here: hashlib maps OpenSSL's libcrypto (about 3.5 MB), which
    # only analyze needs.  analyze hashes after releasing the table and the
    # ranking and after a full collection has handed their arenas back to
    # the OS, so the library reuses that memory and does not add to the peak.
    import hashlib

    digest = hashlib.sha256()
    buf = bytearray(_HASH_BUFFER_BYTES)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fp:
        while size := fp.readinto(buf):
            digest.update(view[:size])
    return digest.hexdigest()


def _csv_items(text: str, convert, accept, what: str) -> list:
    """A flag's comma-separated items, each converted and checked; blank items are skipped."""
    values = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            value = convert(item)
            ok = accept(value)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"{item!r} is not {what}")
        values.append(value)
    return values


def _port_list(text: str) -> list[int]:
    return _csv_items(text, int, lambda port: 0 <= port <= 65535, "a port number (0..65535)")


def _fraction_list(text: str) -> list[float]:
    return _csv_items(text, float, lambda frac: 0 < frac <= 1, "a fraction in (0, 1]")


class _Trace:
    """The time-ordered, optionally filtered record stream of ``args.input``.

    Each iteration opens, orders and filters the file afresh.  Service-port
    filtering is off (``filter_config`` is None) unless one of the filter
    flags appears; ``stats`` and ``fstats`` count the latest read.
    """

    def __init__(self, args) -> None:
        self.args = args
        self.filter_config = None
        if args.filter_ports is not None or args.no_default_filter:
            base = () if args.no_default_filter else ingest.DEFAULT_SERVICE_PORTS
            self.filter_config = ingest.FilterConfig({*base, *(args.filter_ports or ())})

    def __iter__(self):
        self.stats = ingest.IngestStats()
        self.fstats = ingest.FilterStats()
        records = ingest.open_trace(self.args.input, self.stats)
        records = ingest.ensure_time_order(records, force_sort=self.args.force_sort)
        if self.filter_config is not None:
            records = ingest.filter_packets(records, self.filter_config, self.fstats)
        return records


def _write_result(text: str, path: str | None) -> None:
    """Write a command's result to ``path``, or to stdout without one; nothing else goes there."""
    if path:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _refuse_overwrites(inputs: dict[str, str], outputs: dict[str, str | None]) -> None:
    """Refuse an output that is an input or another output, before any file is opened.

    ``inputs`` maps what each input is to its path, ``outputs`` each output
    flag to its path or None.  A path that exists and is not a regular file
    (a device, a pipe) is not truncated, so it may repeat.
    """
    taken = dict(inputs)
    for flag, path in outputs.items():
        with contextlib.suppress(OSError):
            if not path or not stat.S_ISREG(os.stat(path).st_mode):
                continue
        for what, other in taken.items():
            try:
                same = os.path.samefile(path, other)
            except OSError:
                same = os.path.realpath(path) == os.path.realpath(other)
            if same:
                raise ValueError(f"{flag} {path} is {what}")
        taken[f"the {flag} file"] = path


def _config(args) -> InferenceConfig:
    """The analysis settings: each config field the subcommand has a flag for.

    The flags' dests are the field names; a field without a flag (``rank``
    has no inference flags) keeps its default.
    """
    names = [f.name for f in fields(InferenceConfig)]
    return InferenceConfig(**{name: getattr(args, name) for name in names if name in args})


def _add_stream_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--t-comm", type=float, default=InferenceConfig.t_comm, metavar="SECONDS")
    parser.add_argument("--filter-ports", type=_port_list, metavar="CSV", default=None,
                        help="enable service-port filtering and add these ports to the list")
    parser.add_argument("--no-default-filter", action="store_true",
                        help="when filtering, start from an empty port list instead of the default eleven")
    parser.add_argument("--force-sort", action="store_true",
                        help="fully sort out-of-order input instead of failing")


def _add_inference_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--num-protocols", type=int, default=InferenceConfig.num_scada_protocols,
                        dest="num_scada_protocols", metavar="NUM_PROTOCOLS")
    parser.add_argument("--fd-degree-threshold", type=int, default=InferenceConfig.fd_degree_threshold)
    parser.add_argument("--scada-fraction", type=float, default=InferenceConfig.scada_fraction_threshold,
                        dest="scada_fraction_threshold", metavar="SCADA_FRACTION")
    parser.add_argument("--three-layer", action="store_true")


def cmd_synth(args) -> int:
    # Imported here: no other subcommand needs the generator.
    from scadascope.synth import generate, load_scenario, tee_json_lines, write_pcap

    _refuse_overwrites({"the --scenario file": args.scenario},
                       {"--out": args.out, "--pcap": args.pcap, "--truth": args.truth})
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config.seed = args.seed
    records, truth = generate(config)
    opened: list[str] = []  # each output path, once its file is open

    def after_open(path: str, records):
        # ``write_pcap`` opens its file before it pulls the first record.
        opened.append(path)
        yield from records

    try:
        with open(args.out, "w", encoding="utf-8") as fp:
            opened.append(args.out)
            records = tee_json_lines(records, fp)
            count = write_pcap(after_open(args.pcap, records), args.pcap) if args.pcap else sum(1 for _ in records)
        if args.truth:
            with open(args.truth, "w", encoding="utf-8") as fp:
                opened.append(args.truth)
                json.dump(truth.to_dict(), fp, indent=2, sort_keys=True)
                fp.write("\n")
    except BaseException:
        # A failed run leaves no partial file.  A path that is not itself a
        # regular file (a symlink, /dev/stdout, a pipe) is left alone.
        for path in opened:
            with contextlib.suppress(OSError):
                if stat.S_ISREG(os.lstat(path).st_mode):
                    os.remove(path)
        raise
    log.info("wrote %d records to %s", count, args.out)
    return EXIT_OK


def cmd_rank(args) -> int:
    if args.top < 1:
        raise ValueError(f"--top must be at least 1, got {args.top}")
    started = time.monotonic()
    config = _config(args)  # a bad setting exits before the trace is read
    _refuse_overwrites({"the input trace": args.input}, {"--out": args.out})
    result = analyze_records(_Trace(args), inference_config=config)
    ranked = result.ranked
    if args.format == "json":
        rows = [
            {"rank": i, **e.key._asdict(), "n": e.n, "features": list(e.normalized), "f": e.f}
            for i, e in enumerate(ranked[: args.top], start=1)
        ]
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        write_ranking_csv(ranked, buf, top=args.top)
        text = buf.getvalue()
    _write_result(text, args.out)

    log.info("ranked %d 5-tuples in %.2fs", len(ranked), time.monotonic() - started)
    if ranked:
        port = result.report.protocols[0].scada_port
        window = ranked[:1000]
        touching = sum(1 for e in window if port in (e.key.src_port, e.key.dst_port))
        log.info("summary: %d of top-%d communications touch port %d; %d ranked",
                 touching, len(window), port, len(ranked))
    else:
        log.warning("no communications to rank")
    return EXIT_OK


def cmd_analyze(args) -> int:
    started = time.monotonic()
    config = _config(args)  # a bad setting exits before the trace is read
    _refuse_overwrites({"the input trace": args.input}, {"--out": args.out, "--dot": args.dot})
    trace = _Trace(args)
    result = analyze_records(trace, inference_config=config)
    report, filter_config = result.report, trace.filter_config
    dot = report_to_dot(report, result.ranked) if args.dot else None
    del result  # the ranking, before the hash loads OpenSSL
    # The release alone gives the OS little back: a few hundred blocks left
    # in CPython's free lists (tuples, floats, dicts) keep pymalloc's
    # one-MiB arenas mapped.  A full collection finds no garbage here, but
    # it empties those free lists, so on churn traffic 4 of 15 arenas go
    # back to the OS (RSS 26.4 -> 22.5 MB) before libcrypto is mapped.  The
    # younger generations' collections leave the free lists as they are.
    gc.collect()
    report.metrics["ingest"] = asdict(trace.stats)
    report.metrics["filter"] = asdict(trace.fstats) if filter_config else None
    payload = report.to_dict()
    # The reproducibility envelope; its counts are those in ``metrics``.
    payload["manifest"] = {
        "inputs": [args.input],
        "input_sha256": _sha256_of(args.input),
        "tool_version": scadascope.__version__,
        "config": {
            "filter_ports": sorted(filter_config.service_ports) if filter_config else None,
            **asdict(config),
        },
        **{name: report.metrics[name] for name in ("records", "segments", "ft_count")},
        "duration_s": round(time.monotonic() - started, 3),
    }
    _write_result(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    if args.dot:
        _write_result(dot, args.dot)
    for entry in report.protocols:
        log.info("protocol port %d: %d field devices, %d master servers",
                 entry.scada_port, len(entry.field_devices), len(entry.master_servers))
    if report.hmi is not None:
        log.info("hmi: %s", report.hmi)
    for warning in report.warnings:
        log.warning("%s", warning)
    return EXIT_LOW_CONFIDENCE if report.low_confidence else EXIT_OK


def _report_entry(path: str, i: int, entry: dict) -> ProtocolEntry:
    """One protocol object of a report file, its fields checked."""
    where = f"{path}: protocols[{i}]"
    if "scada_port" not in entry:
        raise ValueError(f"{where} has no scada_port")
    port = entry["scada_port"]
    if type(port) is not int:
        raise ValueError(f"{where}.scada_port must be an integer, got {port!r}")
    devices = {}
    for name in ("field_devices", "master_servers"):
        value = entry.get(name, [])
        if not isinstance(value, list) or not all(isinstance(ip, str) for ip in value):
            raise ValueError(f"{where}.{name} must be a list of strings, got {value!r}")
        devices[name] = set(value)
    return ProtocolEntry(scada_port=port, scada_ip=entry.get("scada_ip", ""), **devices)


def cmd_eval(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fp:
        try:
            payload = json.load(fp)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{args.report}: not valid JSON ({exc})") from None
    protocols = payload.get("protocols") if isinstance(payload, dict) else None
    if not isinstance(protocols, list) or not all(isinstance(e, dict) for e in protocols):
        raise ValueError(f"{args.report}: not a report: expected an object with a list of protocol objects")
    entries = [_report_entry(args.report, i, e) for i, e in enumerate(protocols)]
    hmi = payload.get("hmi")
    if hmi is not None and not isinstance(hmi, str):
        raise ValueError(f"{args.report}: hmi must be a string or null, got {hmi!r}")
    with open(args.truth, "r", encoding="utf-8") as fp:
        try:
            truth = load_ground_truth(json.load(fp))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{args.truth}: {exc}") from None
    report = TopologyReport(protocols=entries, hmi=hmi)
    metrics = evaluate(report, truth)
    print(f"precision={metrics['precision']:.4f} recall={metrics['recall']:.4f} f_score={metrics['f_score']:.4f}")
    print(f"tp={metrics['tp']} fp={metrics['fp']} fn={metrics['fn']}")
    return EXIT_OK


def cmd_stability(args) -> int:
    config = _config(args)  # a bad setting exits before the trace is read
    trace = _Trace(args)
    # The sort holds the whole trace, so prefix_stability takes its end from it.
    end = None if args.force_sort else ingest.last_timestamp_hint(args.input, trace.filter_config)
    result = prefix_stability(trace, args.fractions, inference_config=config, end=end)
    stable = set(result.stable_fractions())
    for frac in sorted(result.by_fraction):
        print(f"fraction {frac:g}: {'matches full trace' if frac in stable else 'differs'}")
    if result.smallest_stable is None:
        print("no tested fraction reproduces the full-trace topology")
    else:
        print(f"smallest stable fraction: {result.smallest_stable:g}")
    report = result.full_report
    for warning in report.warnings:
        log.warning("%s", warning)
    return EXIT_LOW_CONFIDENCE if report.low_confidence else EXIT_OK


def cmd_inspect(args) -> int:
    t_comm = _config(args).t_comm  # a bad setting exits before a file is opened
    path = args.dump_segments
    _refuse_overwrites({"the input trace": args.input}, {"--dump-segments": path})
    trace = _Trace(args)
    protos: dict[str, int] = {}

    def tally(stream):
        for rec in stream:
            protos[rec.proto] = protos.get(rec.proto, 0) + 1
            yield rec

    # The input yields its first record, or ends, before the dump is opened:
    # an input that fails at once leaves an existing dump as it was.
    records = tally(iter(trace))
    head = next(records, None)
    records = records if head is None else chain((head,), records)
    counted = StreamStats()
    ips: set[str] = set()
    ports: set[int] = set()
    seg_count = 0
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext() as dump:
        for seg in segment_stream(records, t_comm=t_comm, stats=counted):
            seg_count += 1
            # Each record's endpoints are those of the segment it lands in.
            ips.update((seg[0], seg[2]))
            ports.update((seg[1], seg[3]))
            if dump:
                dump.write(segment_to_json(seg))
                dump.write("\n")

    stats, fstats = trace.stats, trace.fstats
    print(f"records: {counted.records}")
    if trace.filter_config is not None:
        print(f"filter: kept {fstats.kept}, dropped {fstats.dropped}")
    if stats.skipped:
        print(f"skipped frames: {stats.skipped}")
        print("skip reasons: " + ", ".join(f"{r} {getattr(stats, r)}" for r in ingest.SKIP_REASONS))
    if stats.snapped:
        print(f"snapped frames: {stats.snapped}")
    print(f"devices: {len(ips)}, distinct ports: {len(ports)}")
    print(f"transports: {json.dumps(protos, sort_keys=True)}")
    if head is not None:
        first, last = head.ts, counted.last_ts
        print(f"time span: {first:.6f} .. {last:.6f} ({last - first:.3f}s)")
    print(f"segments (t_comm={t_comm:g}s): {seg_count}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scadascope",
        description="Passive SCADA fingerprinting from packet traces, no payload inspection.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {scadascope.__version__}")
    parser.add_argument("--quiet", action="store_true", help="suppress progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic trace")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", required=True, help="output records file (JSON lines)")
    p.add_argument("--pcap", help="also write a pcap rendering")
    p.add_argument("--truth", help="write ground-truth labels JSON")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("rank", help="rank 5-tuples by the product score")
    p.add_argument("input")
    _add_stream_flags(p)
    p.add_argument("--top", type=int, default=20, help="rows to show")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write the table here instead of stdout")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("analyze", help="full topology inference")
    p.add_argument("input")
    _add_stream_flags(p)
    _add_inference_flags(p)
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--dot", help="DOT graph path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("eval", help="score a report against ground truth")
    p.add_argument("--report", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stability", help="analyse trace prefixes in one pass")
    p.add_argument("input")
    _add_stream_flags(p)
    p.add_argument("--fractions", type=_fraction_list, default="0.02,0.06,0.1,0.25,1.0", metavar="CSV")
    _add_inference_flags(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("inspect", help="ingest statistics and optional segment dump")
    p.add_argument("input")
    _add_stream_flags(p)
    p.add_argument("--dump-segments", help="write segments as JSON lines")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    # No command makes cyclic garbage that grows with the trace, so the
    # cyclic collector would only walk the 5-tuple table again and again.
    # It is off from here on, and left as it was found.  The parser's cycles
    # are garbage once the flags are read; all of them are younger than the
    # switch, so a collection of the youngest generation frees them, in a
    # fraction of a millisecond, before the trace is read.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        gc.collect(0)
        logging.basicConfig(
            level=logging.WARNING if args.quiet else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        try:
            return args.func(args)
        except (OSError, ValueError, LookupError) as exc:
            log.error("%s", exc)
            return EXIT_INPUT_ERROR
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
