"""Measurement core of the benchmark: set-up, child and traced runs, metrics.

Imported by ``run.py`` only after it has checked that the scadascope sources
are present.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
from workloads import check, report_digest, write_trace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"

SETUP_REPEATS = 3
NPROC = os.sched_getaffinity(0)  # before run_workload pins the process
CHILD_TIMEOUT_S = 150

# The host's other tenants slow every process on it by up to 2x, in wall and
# CPU time alike, for tens of seconds to minutes at a time, so a run's raw
# times depend on when it ran.  Each CLI child is therefore timed against a
# fixed reference workload (``reference_s``) run on the same CPU just before
# and just after it: ``wall_rel`` and ``cpu_rel`` are the child's wall and CPU
# time in units of that reference time.  The raw times are printed beside them.
END_TO_END = {
    "wall_rel": "ratio",
    "cpu_rel": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Spans whose self time is a per-layer metric of its own: those that run on
# every workload.  The reader (read_records or read_pcap, by trace format),
# the synth writer and the spans only some workloads call (filter_packets,
# prefix_stability) count in the merged and module-wide metrics below, so no
# per-layer time reads 0 because a workload skips that function; every
# span's own self time is printed as an informational line.
SELF_TIME_SPANS = (
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

PER_LAYER = {
    **{f"{span}.self_s": "s" for span in SELF_TIME_SPANS},
    "ingest.read.self_s": "s",
    "ingest.self_s": "s",
    "inference.self_s": "s",
    "ingest.records": "count",
    "ingest.frames": "count",
    "ingest.skipped": "count",
    "ingest.filter.dropped": "count",
    "segmentation.segments": "count",
    "segmentation.ft_count": "count",
    "features.rank.calls": "count",
    "inference.analyze_records.calls": "count",
    "inference.records_processed_ratio": "ratio",
    "cli.report_bytes": "bytes",
    "synth.generate.s": "s",
    "synth.write.s": "s",
    "trace.overhead_s": "s",
}


# JSONL lines shaped like the records the CLI reads, for ``reference_s``.
_REFERENCE_LINES = [
    json.dumps({"ts": 1000.0 + i * 0.37, "src_ip": f"10.0.{i % 7}.{i % 251}", "dst_ip": "10.0.0.1",
                "src_port": 1024 + i % 60000, "dst_port": 502, "proto": "tcp", "size": 60 + i % 1400})
    for i in range(10_000)
]


def reference_s() -> float:
    """Wall time of a fixed pure-Python workload of about 0.15 s.

    Dict updates, int-to-str conversions, JSON round trips and a sort: the
    kinds of work the CLI spends its time on, in code that no change to the
    package can touch.
    """
    started = perf_counter()
    counts: dict[int, int] = {}
    for i in range(150_000):
        key = (i * 7919) % 50_003
        counts[key] = counts.get(key, 0) + len(str(i))
    json.loads(json.dumps(counts))
    sizes: dict[tuple, int] = {}
    for line in _REFERENCE_LINES:
        record = json.loads(line)
        key = (record["src_ip"], record["src_port"], record["dst_ip"], record["dst_port"])
        sizes[key] = sizes.get(key, 0) + record["size"]
    sorted(sizes.items())
    return perf_counter() - started


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn_cli(args: list[str], env: dict, stdout_path: Path) -> dict:
    """Run the CLI in a child process through ``launch.py``.

    The launcher times the child from spawn to exit and reads its usage with
    ``os.wait4``; it is killed and waited for if it outlives its own timeout.
    """
    argv = [sys.executable, str(HERE / "launch.py"), str(CHILD_TIMEOUT_S), str(stdout_path),
            str(stdout_path.with_suffix(".err")), "--", sys.executable, "-m", "scadascope.cli", *args]
    load_before = os.getloadavg()
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True) as launcher:
        try:
            out, _ = launcher.communicate(timeout=CHILD_TIMEOUT_S + 15)
        except BaseException:
            launcher.terminate()
            launcher.wait()
            raise
    if launcher.returncode != 0:
        raise RuntimeError(f"launch.py exited with {launcher.returncode}")
    return {**json.loads(out), "load_before": load_before[0], "load_after": os.getloadavg()[0]}


def traced_cli(args: list[str]) -> tuple[int, str, "spans.Tracer"]:
    """Call ``scadascope.cli.main`` in process with every layer wrapped."""
    import scadascope.cli

    tracer = spans.Tracer()
    out = io.StringIO()
    with spans.installed(tracer), contextlib.redirect_stdout(out):
        code = scadascope.cli.main(args)
    return code, out.getvalue(), tracer


def layer_metrics(tracer, trace_records: int, report_bytes: int) -> dict:
    def total(name: str, pick) -> float:
        return sum(pick(span) for span in tracer.named(name))

    def total_self(prefix: str) -> float:
        return sum(span.self_s for span in tracer.spans if span.name.startswith(prefix))

    readers = tracer.named("ingest.read_records") + tracer.named("ingest.read_pcap")
    filters = tracer.named("ingest.filter_packets")
    values = {f"{span}.self_s": tracer.self_s(span) for span in SELF_TIME_SPANS}
    values.update({
        "ingest.read.self_s": tracer.self_s("ingest.read_records") + tracer.self_s("ingest.read_pcap"),
        "ingest.self_s": total_self("ingest."),
        "inference.self_s": total_self("inference."),
        "ingest.records": sum(s.items for s in readers),
        "ingest.frames": sum(s.data["stats"].frames for s in readers),
        "ingest.skipped": sum(s.data["stats"].skipped for s in readers),
        "ingest.filter.dropped": sum(s.data["stats"].dropped for s in filters),
        "segmentation.segments": total("segmentation.segment_stream", lambda s: s.items),
        "segmentation.ft_count": total("segmentation.aggregate_ft", lambda s: s.data["len"]),
        "features.rank.calls": len(tracer.named("features.rank")),
        "inference.analyze_records.calls": len(tracer.named("inference.analyze_records")),
        "inference.records_processed_ratio":
            total("inference.analyze_records", lambda s: s.data["records"]) / trace_records,
        "cli.report_bytes": report_bytes,
    })
    return values


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def measure(workload, seed: int, seconds: float, trace: bool, fast: bool) -> tuple[dict, dict]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    WORK.mkdir(exist_ok=True)
    suffix = ".pcap" if workload.trace_format == "pcap" else ".jsonl"
    trace_path = str(WORK / f"{workload.name}{suffix}")
    report_path = WORK / f"{workload.name}.report.json"
    stdout_path = WORK / f"{workload.name}.stdout"
    config = workload.load(seed, fast)
    args = workload.cli_args(trace_path, str(report_path))

    setups = []
    for _ in range(SETUP_REPEATS):
        tracer = spans.Tracer() if trace else None
        started = perf_counter()
        records, truth = write_trace(workload, config, trace_path, tracer)
        setups.append({
            "setup_s": perf_counter() - started,
            **({
                "synth.generate.s": tracer.self_s("synth.generate"),
                "synth.write.s": tracer.self_s("synth.write_records") + tracer.self_s("synth.write_pcap"),
            } if trace else {}),
        })

    def report_text(stdout: str) -> str:
        if workload.subcommand == "stability":
            return stdout
        return report_path.read_text(encoding="utf-8") if report_path.exists() else ""

    def score(code: int, text: str, full_port: int | None = None) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            return check(workload, config, truth, text, full_port)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable report: {exc!r}"]

    def traced_run() -> dict:
        report_path.unlink(missing_ok=True)
        try:
            code, stdout, tracer = traced_cli(args)
        except Exception:
            traceback.print_exc()
            return {"traced": True, "problems": ["traced run raised, traceback on stderr"], "digest": ""}
        text = report_text(stdout)
        full_port = next((s.data["full_port"] for s in tracer.named("inference.prefix_stability")), None)
        problems = score(code, text, full_port)
        missing = [name for name in workload.spans if not tracer.named(name)]
        if missing:
            problems.append(f"expected spans with zero calls: {missing}")
        run = {"traced": True, "problems": problems, "digest": "" if problems else report_digest(workload, text)}
        if not problems:
            run["cli_s"] = tracer.named("cli")[0].busy
            run["layers"] = layer_metrics(tracer, records, len(text.encode()))
            run["spans"] = [s.to_dict() for s in tracer.spans]
            run["span_self_s"] = {name: tracer.self_s(name) for name, *_ in spans.LAYERS}
        return run

    def child_run(env: dict) -> dict:
        report_path.unlink(missing_ok=True)
        before = reference_s()
        run = spawn_cli(args, env, stdout_path)
        run["ref_s"] = (before + reference_s()) / 2
        text = report_text(stdout_path.read_text(encoding="utf-8"))
        run["problems"] = score(run["exit"], text)
        run["digest"] = "" if run["problems"] else report_digest(workload, text)
        return run

    reference = traced_run()  # also lets the page cache and bytecode cache fill
    traced, children = [reference], []
    env = child_env()
    started = perf_counter()
    while not children or perf_counter() - started < seconds:
        children.append(child_run(env))
        if trace:
            traced.append(traced_run())

    for run in traced + children:
        if not run["problems"] and run["digest"] != reference["digest"]:
            run["problems"].append(f"report digest {run['digest'][:12]} differs from the reference "
                                   f"{reference['digest'][:12] or '(reference run failed)'}")
    ok_children = [r for r in children if not r["problems"]]
    ok_traced = [r for r in traced if not r["problems"]]
    attempted = len(children) + len(traced)
    failed = attempted - len(ok_children) - len(ok_traced)

    metrics = {}
    if trace and ok_traced and ok_children:
        for name in PER_LAYER:
            if name.startswith("synth."):
                metrics[name] = median_of(setups, name)
            elif name == "trace.overhead_s":
                metrics[name] = median_of(ok_traced, "cli_s") - median_of(ok_children, "wall_s")
            else:
                metrics[name] = statistics.median(r["layers"][name] for r in ok_traced)
    elif not trace and ok_children:
        metrics = {
            "wall_rel": statistics.median(r["wall_s"] / r["ref_s"] for r in ok_children),
            "cpu_rel": statistics.median(r["cpu_s"] / r["ref_s"] for r in ok_children),
            "peak_rss_mb": median_of(ok_children, "peak_rss_mb"),
            "setup_s": median_of(setups, "setup_s"),
        }
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail = {
        "workload": workload.name,
        "why": why[workload.name],
        "seed": seed,
        "fast": fast,
        "trace": trace,
        "command": ["scadascope", *args],
        "python": platform.python_version(),
        "nproc": len(NPROC),
        "pinned_cpu": min(NPROC),
        "input": {"path": trace_path, "records": records, "bytes": os.path.getsize(trace_path)},
        "digest": reference["digest"],
        "failed_share": failed / attempted,
        "setups": setups,
        "runs": [
            {k: v for k, v in r.items() if k not in ("layers", "spans", "span_self_s")}
            for r in children + traced
        ],
        "reference_spans": reference.get("spans", []),
        "span_self_s": {
            name: statistics.median(r["span_self_s"][name] for r in ok_traced)
            for name, *_ in spans.LAYERS
        } if trace and ok_traced else {},
    }
    return result, detail


def run_workload(workload, seed: int, seconds: float, trace: bool, fast: bool) -> dict:
    """Measure one workload, print every metric and the result line."""
    # The CLI children inherit the pinning, so each child and the reference
    # runs around it share one CPU.
    os.sched_setaffinity(0, {min(NPROC)})
    try:
        result, detail = measure(workload, seed, seconds, trace, fast)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print_result(result, detail)
    return result


def print_result(result: dict, detail: dict) -> None:
    print(f"# workload {detail['workload']} seed {detail['seed']} digest {detail['digest']}")
    print(f"# python {detail['python']} nproc {detail['nproc']} input {detail['input']['records']} records "
          f"{detail['input']['bytes']} bytes")
    for run in detail["runs"]:
        for problem in run["problems"]:
            print(f"# FAILED run: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'failed_share':40s} {detail['failed_share']:>14.6g} ratio")
    children = [run for run in detail["runs"] if not run.get("traced") and not run["problems"]]
    records = detail["input"]["records"]
    for name, unit, values in (
        ("wall_s", "s", [run["wall_s"] for run in children]),
        ("cpu_s", "s", [run["cpu_s"] for run in children]),
        ("records_per_s", "1/s", [records / run["wall_s"] for run in children]),
        ("reference_s", "s", [run["ref_s"] for run in children]),
    ):
        if values:
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print(f"# {name:38s} {median:>14.6g} {unit} median of {len(values)} children "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, min {min(values):.6g}, max {max(values):.6g})")
    for name, value in detail["span_self_s"].items():
        print(f"# span {name + '.self_s':40s} {value:>14.6g} s")
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


